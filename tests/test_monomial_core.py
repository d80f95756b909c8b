"""Exact reference checks for the monomial core of the ring.

The product, star and monomial inverse fold the reordering phase straight
into the phase keys, and the phase product (``phases._phase_product``)
forms two single-term operands, shift included, in one step.  Here every
result is compared with the explicit construction those shortcuts
replace: the reordering phase built as a ``Phase`` with coefficient
``QQi(1)`` and multiplied in, with all scalar products done by the
component formula.  ``QQi`` itself, stored as three integers
``(a + b*i)/d``, is compared with the ``Fraction`` component formulas for
every operation.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.algebra import TwistedPoly, TwistMatrix
from nctorus.phases import Phase, QQi, _offset, _phase_product

# ---------------------------------------------------------------------------
# reference arithmetic: component formulas and the explicit reordering phase
# ---------------------------------------------------------------------------


def ref_qqi_mul(x: QQi, y: QQi) -> QQi:
    return QQi(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)


def ref_phase_mul(p: Phase, q: Phase) -> Phase:
    out: dict = {}
    for (e1, t1), c1 in p.items():
        for (e2, t2), c2 in q.items():
            key = (tuple(a + b for a, b in zip(e1, e2)), t1 + t2)
            c = ref_qqi_mul(c1, c2)
            out[key] = out[key] + c if key in out else c
    return Phase(p.nslots, out)


def ref_reorder_phase(twist: TwistMatrix, a, b) -> Phase:
    """q_{ji}^(-a_i b_j) for i > j, as a unit phase with coefficient QQi(1)."""
    e = [0] * twist.nslots
    for i in range(twist.n):
        for j in range(i):
            e[twist.slot(j, i)] -= a[i] * b[j]
    return Phase(twist.nslots, {(tuple(e), 0): QQi(1)})


def ref_mul(x: TwistedPoly, y: TwistedPoly) -> TwistedPoly:
    tw = x.twist
    out: dict = {}
    for a, pa in x.terms.items():
        for b, pb in y.terms.items():
            key = tuple(s + t for s, t in zip(a, b))
            p = ref_phase_mul(ref_phase_mul(pa, pb), ref_reorder_phase(tw, a, b))
            out[key] = _ref_add(out[key], p) if key in out else p
    return TwistedPoly(tw, out)


def _ref_add(p: Phase, q: Phase) -> Phase:
    out = dict(p.items())
    for k, c in q.items():
        out[k] = out[k] + c if k in out else c
    return Phase(p.nslots, out)


def _ref_conjugate(p: Phase) -> Phase:
    return Phase(
        p.nslots, {(tuple(-x for x in e), t): QQi(c.re, -c.im) for (e, t), c in p.items()}
    )


def ref_star(x: TwistedPoly) -> TwistedPoly:
    tw = x.twist
    return TwistedPoly(
        tw,
        {
            tuple(-s for s in a): ref_phase_mul(_ref_conjugate(p), ref_reorder_phase(tw, a, a))
            for a, p in x.terms.items()
        },
    )


def ref_inverse_monomial(x: TwistedPoly) -> TwistedPoly:
    (a, p), = x.terms.items()
    ((e, t), c), = p.items()
    n = c.re * c.re + c.im * c.im
    inv = Phase(p.nslots, {(tuple(-s for s in e), -t): QQi(c.re / n, -c.im / n)})
    q = ref_phase_mul(inv, ref_reorder_phase(x.twist, a, a))
    return TwistedPoly(x.twist, {tuple(-s for s in a): q})


def assert_canonical(x: TwistedPoly):
    for p in x.terms.values():
        assert p.terms, "empty phase left in a polynomial"
        assert all(not c.is_zero() for c in p.terms.values()), "zero coefficient in a phase"


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_UNITS = [QQi(1), QQi(-1), QQi(0, 1), QQi(0, -1)]
_fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
_any_qqi = st.one_of(
    st.sampled_from(_UNITS + [QQi(0)]),
    st.builds(QQi, _fractions, _fractions),
)
_nonzero_qqi = _any_qqi.filter(lambda c: not c.is_zero())


@st.composite
def twists(draw):
    n = draw(st.integers(2, 4))
    theta = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        for l in range(k + 1, n):
            theta[k][l] = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 7)))
            theta[l][k] = -theta[k][l]
    return TwistMatrix(theta)


def phases(nslots: int, max_terms: int = 3):
    key = st.tuples(
        st.tuples(*[st.integers(-2, 2) for _ in range(nslots)]), st.integers(0, 1)
    )
    return st.dictionaries(key, _nonzero_qqi, min_size=1, max_size=max_terms).map(
        lambda terms: Phase(nslots, terms)
    )


def polys(twist: TwistMatrix, max_terms: int = 3, max_phase_terms: int = 3):
    exps = st.tuples(*[st.integers(-2, 2) for _ in range(twist.n)])
    return st.dictionaries(
        exps, phases(twist.nslots, max_phase_terms), min_size=1, max_size=max_terms
    ).map(lambda terms: TwistedPoly(twist, terms))


@st.composite
def poly_pairs(draw):
    tw = draw(twists())
    return draw(polys(tw)), draw(polys(tw))


@st.composite
def invertible_monomials(draw):
    tw = draw(twists())
    return draw(polys(tw, max_terms=1, max_phase_terms=1))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@st.composite
def phase_products(draw):
    """Two phases with one term each (the one-step lane) or up to three, and a shift."""
    n = draw(st.integers(1, 4))
    terms = draw(st.sampled_from([1, 3]))
    shift = draw(st.one_of(st.none(), st.tuples(*[st.integers(-3, 3)] * n)))
    return draw(phases(n, terms)), draw(phases(n, terms)), shift


@settings(max_examples=200, deadline=None)
@given(phase_products())
def test_phase_product_matches_explicit_shift(case):
    p, o, shift = case
    ref = ref_phase_mul(p, o)
    if shift is not None:
        ref = ref_phase_mul(ref, Phase(p.nslots, {(shift, 0): QQi(1)}))
    got = _phase_product(p, o, None if shift is None else _offset(p.nslots, shift))
    assert got == ref and got.nslots == p.nslots
    assert all(not c.is_zero() for c in got.terms.values())


def test_phase_product_checks_the_slot_count():
    dense = Phase(2, {((0, 1), 0): QQi(2), ((1, 0), 1): QQi(0, 1)})
    for p, o in ((Phase.one(2), Phase.one(3)), (Phase.unit(3, 1), dense)):
        with pytest.raises(ValueError, match="phase slot count mismatch"):
            _phase_product(p, o, None)
        with pytest.raises(ValueError, match="phase slot count mismatch"):
            p.mul(o)


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
def test_product_matches_explicit_reordering(pair):
    x, y = pair
    got = x * y
    assert got == ref_mul(x, y)
    assert_canonical(got)


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
def test_star_matches_explicit_reordering(pair):
    x, _ = pair
    got = x.star()
    assert got == ref_star(x)
    assert_canonical(got)


@settings(max_examples=100, deadline=None)
@given(invertible_monomials())
def test_inverse_monomial_matches_explicit_reordering(x):
    got = x.inverse_monomial()
    assert got == ref_inverse_monomial(x)
    assert_canonical(got)
    assert x * got == TwistedPoly.one(x.twist)


@settings(max_examples=300, deadline=None)
@given(_any_qqi, _any_qqi)
def test_qqi_product_matches_component_formula(x, y):
    got = x * y
    ref = ref_qqi_mul(x, y)
    assert (got.re, got.im) == (ref.re, ref.im)
    assert got == ref and hash(got) == hash(ref)
    assert isinstance(got.re, Fraction) and isinstance(got.im, Fraction)


@settings(max_examples=100, deadline=None)
@given(_any_qqi, st.integers(-6, 6))
def test_qqi_power_matches_repeated_product(x, k):
    if k < 0 and x.is_zero():
        return
    base = x if k >= 0 else x.inverse()
    ref = QQi(1)
    for _ in range(abs(k)):
        ref = ref_qqi_mul(ref, base)
    assert x**k == ref and hash(x**k) == hash(ref)


def test_every_unit_on_either_side():
    z = QQi(Fraction(2, 3), Fraction(-5, 7))
    for u in _UNITS + [QQi(0)]:
        assert u * z == ref_qqi_mul(u, z)
        assert z * u == ref_qqi_mul(z, u)
        for v in _UNITS + [QQi(0)]:
            assert u * v == ref_qqi_mul(u, v)


# ---------------------------------------------------------------------------
# QQi as (a + b*i)/d against the Fraction component formulas
# ---------------------------------------------------------------------------

_wide_fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 36))
# (re, im) pairs; the sampled ones put zero and negative components first
_parts = st.one_of(
    st.sampled_from([
        (Fraction(0), Fraction(0)),
        (Fraction(-2), Fraction(0)),
        (Fraction(0), Fraction(-3)),
        (Fraction(0), Fraction(-1, 2)),
        (Fraction(-3, 4), Fraction(-5, 6)),
        (Fraction(6, 4), Fraction(-9, 6)),
    ]),
    st.tuples(_fractions, _fractions),
    st.tuples(_wide_fractions, _wide_fractions),
)
_nonzero_parts = _parts.filter(lambda p: p != (0, 0))


def assert_is(z: QQi, re: Fraction, im: Fraction):
    """``z`` is the canonical ``(a, b, d)`` of ``re + im*i``."""
    assert all(type(x) is int for x in (z.a, z.b, z.d))
    assert z.d > 0 and gcd(z.a, z.b, z.d) == 1
    assert (Fraction(z.a, z.d), Fraction(z.b, z.d)) == (re, im)
    assert (z.re, z.im) == (re, im)
    if re == im == 0:
        assert (z.a, z.b, z.d) == (0, 0, 1)


def ref_repr(re: Fraction, im: Fraction) -> str:
    """The rendering golden reports embed, written on the Fraction parts."""
    mag = abs(im)
    imag = "i" if mag == 1 else f"{mag}i" if mag.denominator == 1 else f"({mag})i"
    if im == 0:
        return str(re)
    if re == 0:
        return ("-" if im < 0 else "") + imag
    return f"({re}{'+' if im > 0 else '-'}{imag})"


@settings(max_examples=300, deadline=None)
@given(_parts, _parts)
def test_qqi_ring_operations_match_component_formulas(x, y):
    (r, i), (s, j) = x, y
    z, w = QQi(r, i), QQi(s, j)
    assert_is(z, r, i)
    assert_is(z + w, r + s, i + j)
    assert_is(z - w, r - s, i - j)
    assert_is(z * w, r * s - i * j, r * j + i * s)
    assert_is(-z, -r, -i)
    assert_is(z.conjugate(), r, -i)
    assert_is(z**2, r * r - i * i, 2 * r * i)


@settings(max_examples=300, deadline=None)
@given(_nonzero_parts)
def test_qqi_inverse_matches_component_formula(x):
    r, i = x
    n = r * r + i * i
    z = QQi(r, i)
    assert_is(z.inverse(), r / n, -i / n)
    assert_is(z**-1, r / n, -i / n)
    assert z * z.inverse() == QQi.one()


@settings(max_examples=300, deadline=None)
@given(_parts, _parts)
def test_qqi_equality_and_hash_follow_the_components(x, y):
    z, w = QQi(*x), QQi(*y)
    assert (z == w) == (x == y)
    # the same value reached by another route is equal and hashes equal
    back = z + w - w
    assert back == z and hash(back) == hash(z)
    assert z != x  # no equality with a non-QQi


@settings(max_examples=300, deadline=None)
@given(_parts)
def test_qqi_repr_matches_fraction_rendering(x):
    assert repr(QQi(*x)) == ref_repr(*x)


@settings(max_examples=200, deadline=None)
@given(st.integers(-60, 60), st.integers(1, 36), st.integers(-60, 60))
def test_qqi_constructor_forms_agree(p, q, k):
    f = Fraction(p, q)
    z = QQi(f, k)
    assert z == QQi(f"{p}/{q}", str(k)) == QQi(str(f), Fraction(k))
    assert hash(z) == hash(QQi(f"{p}/{q}", k))
    assert_is(z, f, Fraction(k))
    assert QQi(k) == QQi(Fraction(k)) == QQi(str(k)) == QQi(f"{k * q}/{q}")
    assert_is(QQi(k), Fraction(k), Fraction(0))
