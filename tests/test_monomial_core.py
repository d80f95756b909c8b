"""Exact reference checks for the monomial core of the ring.

The product, star and monomial inverse fold the reordering phase straight
into the phase keys, the phase product (``phases._phase_product``) forms
two single-term operands, shift included, in one step, and two
multi-term operands run the dense kernel, which accumulates unreduced
integers per output key and reduces once.  Here every result is compared
with the schoolbook references of ``reference.py``, on the small input
class over random twists and on the dense class, whose keys meet.
``QQi`` itself, stored as three integers ``(a + b*i)/d``, is compared
with the ``Fraction`` component formulas for every operation.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.algebra import TwistedPoly
from nctorus.phases import Phase, QQi, _offset, _phase_product

import reference
from strategies import (
    TW3, UNITS, fractions, nonzero_fractions, nonzero_parts, phases, polys, twists,
)


def assert_canonical(x: TwistedPoly):
    for p in x.terms.values():
        assert p.terms, "empty phase left in a polynomial"
        assert all(not c.is_zero() for c in p.terms.values()), "zero coefficient in a phase"


# ---------------------------------------------------------------------------
# phases and polynomials against the references
# ---------------------------------------------------------------------------


@st.composite
def phase_products(draw, cls):
    """Two phases with one term each (the one-step lane) or up to three, and a shift."""
    n = draw(st.integers(1, 4))
    terms = draw(st.sampled_from([(1, 1), (1, 3)]))
    shift = draw(st.one_of(st.none(), st.tuples(*[st.integers(-3, 3)] * n)))
    return draw(phases(n, cls, terms)), draw(phases(n, cls, terms)), shift


@settings(max_examples=280, deadline=None)
@given(st.one_of(phase_products("small"), phase_products("dense")))
def test_phase_product_matches_explicit_shift(case):
    p, o, shift = case
    ref = reference.phase_mul(p, o, shift)
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


_small_pairs = twists().flatmap(lambda tw: st.tuples(polys(tw), polys(tw)))
# the small class over random twists, the dense class, and one term by a
# dense polynomial, which runs the one-term-by-many path
_PAIRS = st.one_of(
    _small_pairs,
    st.tuples(polys(TW3, "dense", (2, 4)), polys(TW3, "dense", (2, 4))),
    st.tuples(polys(TW3, terms=(1, 1), phase_terms=(1, 2)), polys(TW3, "dense", (2, 4))),
)


@settings(max_examples=290, deadline=None)
@given(_PAIRS)
def test_product_matches_explicit_reordering(pair):
    x, y = pair
    for got, ref in ((x * y, reference.poly_mul(x, y)), (y * x, reference.poly_mul(y, x))):
        assert got == ref
        assert_canonical(got)


@settings(max_examples=150, deadline=None)
@given(twists().flatmap(polys))
def test_star_matches_explicit_reordering(x):
    got = x.star()
    assert got == reference.poly_star(x)
    assert_canonical(got)


@settings(max_examples=100, deadline=None)
@given(twists().flatmap(lambda tw: polys(tw, terms=(1, 1), phase_terms=(1, 1))))
def test_inverse_monomial_matches_explicit_reordering(x):
    got = x.inverse_monomial()
    assert got == reference.poly_inverse_monomial(x)
    assert_canonical(got)
    assert x * got == TwistedPoly.one(x.twist)


def test_every_unit_on_either_side():
    z = QQi(Fraction(2, 3), Fraction(-5, 7))
    for u in UNITS + [QQi(0)]:
        assert u * z == reference.qqi_mul(u, z)
        assert z * u == reference.qqi_mul(z, u)
        for v in UNITS + [QQi(0)]:
            assert u * v == reference.qqi_mul(u, v)


# ---------------------------------------------------------------------------
# QQi as (a + b*i)/d against the Fraction component formulas
# ---------------------------------------------------------------------------

_wide_fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 36))
_nonzero_wide_fractions = st.builds(
    Fraction, st.one_of(st.integers(-60, -1), st.integers(1, 60)), st.integers(1, 36)
)
# (re, im) pairs; the sampled ones put the units, zero and negative components first
_SAMPLED_PARTS = [(c.re, c.im) for c in UNITS] + [
    (Fraction(0), Fraction(0)),
    (Fraction(-2), Fraction(0)),
    (Fraction(0), Fraction(-3)),
    (Fraction(0), Fraction(-1, 2)),
    (Fraction(-3, 4), Fraction(-5, 6)),
    (Fraction(6, 4), Fraction(-9, 6)),
]
_parts = st.one_of(
    st.sampled_from(_SAMPLED_PARTS),
    st.tuples(fractions, fractions),
    st.tuples(_wide_fractions, _wide_fractions),
)
# the pairs of _parts other than (0, 0)
_nonzero_parts = st.one_of(
    st.sampled_from([p for p in _SAMPLED_PARTS if p != (0, 0)]),
    nonzero_parts(fractions, nonzero_fractions),
    nonzero_parts(_wide_fractions, _nonzero_wide_fractions),
)


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


@settings(max_examples=600, deadline=None)
@given(_parts, _parts)
def test_qqi_ring_operations_match_component_formulas(x, y):
    (r, i), (s, j) = x, y
    z, w = QQi(r, i), QQi(s, j)
    assert_is(z, r, i)
    assert_is(z + w, r + s, i + j)
    assert_is(z - w, r - s, i - j)
    assert_is(z * w, r * s - i * j, r * j + i * s)
    assert z * w == reference.qqi_mul(z, w) and hash(z * w) == hash(reference.qqi_mul(z, w))
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
