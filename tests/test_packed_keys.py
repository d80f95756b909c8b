"""Packed phase keys: exact inside [-2^62, 2^62), a range error outside.

Every ``Phase`` key ``(qexp, tau)`` is stored as one int with a 64-bit
field per exponent (see the ``phases`` module docstring).  Here each
operation that forms keys is compared with the tuple-key references on
exponents that mix small values with values next to the bounds: it
either equals the reference, or raises ``PhaseRangeError`` exactly when
some term product the reference forms has an exponent outside the
range.  The constructors reject malformed keys, and ``repr`` keeps the
tuple order, which differs from packed-int order once terms differ in
two slots and in tau.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_algebra import _schoolbook_phase
from test_monomial_core import _ref_conjugate, ref_phase_mul, ref_star

from nctorus.algebra import TwistedPoly, TwistMatrix
from nctorus.phases import Phase, PhaseRangeError, QQi

B = 1 << 62  # exponents lie in [-B, B)

TW3 = TwistMatrix(
    [
        [0, Fraction(1, 4), Fraction(-1, 3)],
        [Fraction(-1, 4), 0, Fraction(-1, 6)],
        [Fraction(1, 3), Fraction(1, 6), 0],
    ]
)
N = TW3.nslots

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def _in_range(vectors) -> bool:
    return all(-B <= x < B for v in vectors for x in v)


def _keys(p: Phase):
    return [(*e, t) for (e, t), _ in p.items()]


def _sum(*vs):
    return tuple(map(sum, zip(*vs)))


def _expect(op, in_range: bool, reference):
    """``op()`` equals ``reference()`` when every term product is in range,
    and raises a range error when one is not."""
    if in_range:
        assert op() == reference()
    else:
        with pytest.raises(PhaseRangeError):
            op()


# ---------------------------------------------------------------------------
# strategies: small exponents mixed with exponents next to the bounds
# ---------------------------------------------------------------------------

_small = st.integers(-2, 2)
_exps = st.one_of(
    _small,
    st.sampled_from([-B, -B + 1, -B + 2, B - 3, B - 2, B - 1, B // 2, -B // 2, B // 2 - 1]),
)
_coeffs = st.sampled_from([QQi(1), QQi(-1), QQi(0, 1), QQi(2, -1), QQi(Fraction(1, 3), 2)])


def phases(terms=(1, 3), nslots=N):
    # half the keys small, so that many products stay in range
    key = st.one_of(
        st.tuples(st.tuples(*[_small] * nslots), _small),
        st.tuples(st.tuples(*[_exps] * nslots), _exps),
    )
    return st.dictionaries(key, _coeffs, min_size=terms[0], max_size=terms[1]).map(
        lambda t: Phase(nslots, t)
    )


# polynomial exponents near 2^31 and 2^32 make a_i*b_j reach and pass 2^62
_poly_exps = st.tuples(
    *[st.one_of(st.integers(-2, 2), st.sampled_from([1 << 31, -(1 << 31), 1 << 32, 3]))] * TW3.n
)


def polys(max_terms=1):
    return st.dictionaries(_poly_exps, phases((1, 2)), min_size=1, max_size=max_terms).map(
        lambda t: TwistedPoly(TW3, t)
    )


# ---------------------------------------------------------------------------
# each operation against the tuple-key references
# ---------------------------------------------------------------------------


@SETTINGS
@given(phases((1, 1)), phases((1, 1)))
def test_monomial_lane(p, r):
    products = [_sum(a, b) for a in _keys(p) for b in _keys(r)]
    _expect(lambda: p.mul(r), _in_range(products), lambda: ref_phase_mul(p, r))


@SETTINGS
@given(phases((2, 3)), phases((1, 3)))
def test_dense_kernel(p, r):
    products = [_sum(a, b) for a in _keys(p) for b in _keys(r)]
    _expect(lambda: p.mul(r), _in_range(products), lambda: _schoolbook_phase(p, r))
    _expect(lambda: r.mul(p), _in_range(products), lambda: _schoolbook_phase(r, p))


@SETTINGS
@given(phases(), st.tuples(*[_exps] * N))
def test_shift(p, v):
    products = [_sum(a, (*v, 0)) for a in _keys(p)]
    unit = Phase(N, {(v, 0): QQi(1)})
    _expect(lambda: p.shift(v), _in_range(products), lambda: ref_phase_mul(p, unit))


@SETTINGS
@given(phases())
def test_conjugate(p):
    products = [(*(-x for x in k[:-1]), k[-1]) for k in _keys(p)]
    _expect(p.conjugate, _in_range(products), lambda: _ref_conjugate(p))


@SETTINGS
@given(phases((1, 1)))
def test_invert(p):
    ((e, t), c), = p.items()
    inverse = (*(-x for x in e), -t)
    norm = c.re * c.re + c.im * c.im
    reference = Phase(N, {(inverse[:-1], inverse[-1]): QQi(c.re / norm, -c.im / norm)}) \
        if _in_range([inverse]) else None
    _expect(p.invert, _in_range([inverse]), lambda: reference)


@SETTINGS
@given(phases((1, 2)), st.integers(-3, 3))
def test_pow(p, k):
    base, n = (p, k) if k >= 0 else (None, -k)
    products = []
    if base is None:
        if len(p.terms) != 1:
            with pytest.raises(ValueError, match="only monomial phases are invertible"):
                p**k
            return
        ((e, t), c), = p.items()
        products.append((*(-x for x in e), -t))
        if not _in_range(products):
            with pytest.raises(PhaseRangeError):
                p**k
            return
        base = p.invert()
    if len(base.terms) == 1:
        ((e, t), c), = base.items()
        products.append((*(x * n for x in e), t * n))
        reference = lambda: Phase(N, {(tuple(x * n for x in e), t * n): c**n})  # noqa: E731
        _expect(lambda: p**k, _in_range(products), reference)
        return
    # k products by the base, each from the merged power before it
    ref = Phase.one(N)
    for _ in range(n):
        products += [_sum(a, b) for a in _keys(ref) for b in _keys(base)]
        if not _in_range(products):
            break
        ref = ref_phase_mul(ref, base)
    _expect(lambda: p**k, _in_range(products), lambda: ref)


def _shift_vector(a, b):
    """s(a, b), one q-exponent per slot: q_{ji} gets -a_i*b_j for i > j."""
    e = [0] * N
    for i in range(TW3.n):
        for j in range(i):
            e[TW3.slot(j, i)] = -a[i] * b[j]
    return tuple(e)


def _tuple_product(x: TwistedPoly, y: TwistedPoly) -> dict:
    """x * y with tuple keys and no intermediate phase: a -> {(e, t): c}."""
    out: dict = {}
    for a, pa in x.terms.items():
        for b, pb in y.terms.items():
            s = _shift_vector(a, b)
            mono = out.setdefault(_sum(a, b), {})
            for (e1, t1), c1 in pa.items():
                for (e2, t2), c2 in pb.items():
                    key = (_sum(e1, e2, s), t1 + t2)
                    mono[key] = mono[key] + c1 * c2 if key in mono else c1 * c2
    return {
        a: {k: c for k, c in terms.items() if not c.is_zero()}
        for a, terms in out.items()
        if any(not c.is_zero() for c in terms.values())
    }


def _product_keys(x: TwistedPoly, y: TwistedPoly) -> list:
    """Every reordering exponent and every output key that x * y forms."""
    out = []
    for a, pa in x.terms.items():
        for b, pb in y.terms.items():
            s = _shift_vector(a, b)
            out.append(s)
            out += [_sum(e1, (*s, 0), e2) for e1 in _keys(pa) for e2 in _keys(pb)]
    return out


@SETTINGS
@given(polys(1), polys(1))
def test_polynomial_monomial_lane(x, y):
    _expect(
        lambda: {a: dict(p.items()) for a, p in (x * y).terms.items()},
        _in_range(_product_keys(x, y)),
        lambda: _tuple_product(x, y),
    )


@SETTINGS
@given(polys(3), polys(3))
def test_polynomial_dense_lane(x, y):
    _expect(
        lambda: {a: dict(p.items()) for a, p in (x * y).terms.items()},
        _in_range(_product_keys(x, y)),
        lambda: _tuple_product(x, y),
    )


@SETTINGS
@given(polys(3))
def test_star(x):
    formed = []
    for a, p in x.terms.items():
        s = _shift_vector(a, a)
        conj = [(*(-v for v in k[:-1]), k[-1]) for k in _keys(p)]
        formed += [s, *conj, *(_sum(k, (*s, 0)) for k in conj)]
    _expect(x.star, _in_range(formed), lambda: ref_star(x))


# ---------------------------------------------------------------------------
# boundaries
# ---------------------------------------------------------------------------


class TestBoundaries:
    def test_repeated_squaring_raises_at_the_first_key_out_of_range(self):
        p = Phase.unit(N, 0)
        for m in range(1, 62):
            p = p.mul(p)
            assert p == Phase.unit(N, 0, 1 << m)
        # the 62nd squaring would give q^(2^62), the first exponent past the range
        with pytest.raises(PhaseRangeError):
            p.mul(p)

    def test_the_last_exponent_in_range_round_trips(self):
        for key in (((B - 1, -B, 0), B - 1), ((0, 0, -B), -B)):
            p = Phase(N, {key: QQi(1)})
            assert list(p.items()) == [(key, QQi(1))]
            assert p == Phase(N, {key: QQi(1)})

    @pytest.mark.parametrize("e", [B, -B - 1, 1 << 64, -(1 << 70)])
    def test_packing_an_exponent_out_of_range_raises(self, e):
        with pytest.raises(PhaseRangeError):
            Phase(N, {((e, 0, 0), 0): QQi(1)})
        with pytest.raises(PhaseRangeError):
            Phase(N, {((0, 0, 0), e): QQi(1)})
        with pytest.raises(PhaseRangeError):
            Phase.one(N).shift((0, e, 0))

    def test_conjugate_and_invert_of_the_lowest_exponent_raise(self):
        low_q = Phase(N, {((0, -B, 0), 0): QQi(1)})
        low_tau = Phase(N, {((0, 0, 0), -B): QQi(1)})
        for p in (low_q, low_tau):
            with pytest.raises(PhaseRangeError):
                p.invert()
        with pytest.raises(PhaseRangeError):
            low_q.conjugate()
        # tau is real: conjugation keeps its exponent, so -2^62 stays in range
        assert low_tau.conjugate() == low_tau

    def test_a_negative_top_field_raises(self):
        p = Phase(N, {((0, 0, 0), -B): QQi(1)})
        with pytest.raises(PhaseRangeError):
            p.mul(Phase.tau(N, -1))

    def test_a_reordering_exponent_past_the_field_raises(self):
        # s(u2^(2^32), u1^(2^32)) puts -2^64 in slot q12; packed unchecked, it
        # would take 1 from the next field and read as q13^-1
        u1 = TwistedPoly.generator(TW3, 0, 1 << 32)
        u2 = TwistedPoly.generator(TW3, 1, 1 << 32)
        with pytest.raises(PhaseRangeError):
            u2 * u1
        with pytest.raises(PhaseRangeError):
            (u2 + u1) * (u1 + u2)
        assert u1 * u2 == TwistedPoly.monomial(TW3, (1 << 32, 1 << 32, 0))
        with pytest.raises(PhaseRangeError):
            (u1 * u2).star()

    def test_the_last_reordering_exponent_in_range(self):
        u1 = TwistedPoly.generator(TW3, 0, 1 << 31)
        u2 = TwistedPoly.generator(TW3, 1, 1 << 31)
        q = Phase.unit(N, TW3.slot(0, 1), -B)
        assert u2 * u1 == TwistedPoly.monomial(TW3, (1 << 31, 1 << 31, 0), q)
        # the star conjugates q12^(-2^62) to q12^(2^62) before it shifts back
        with pytest.raises(PhaseRangeError):
            (u2 * u1).star()


# ---------------------------------------------------------------------------
# constructors and rendering
# ---------------------------------------------------------------------------


class TestConstructors:
    def test_short_q_exponent_key_is_rejected(self):
        with pytest.raises(ValueError, match="length 1, expected 3"):
            Phase(3, {((1,), 0): QQi(1)})

    def test_int_coefficient_is_rejected(self):
        with pytest.raises(TypeError, match="must be a QQi"):
            Phase(3, {((0, 0, 1), 0): 1})
        with pytest.raises(TypeError, match="must be a QQi"):
            Phase.coeff(3, 1)

    @pytest.mark.parametrize(
        "key", [((True, 0, 0), 0), ((0, 0, 0), False), ((0.0, 0, 0), 0), ((0, 0, 0), "1")]
    )
    def test_non_int_exponent_is_rejected(self, key):
        with pytest.raises(TypeError, match="must be an int"):
            Phase(3, {key: QQi(1)})

    @pytest.mark.parametrize("key", [5, ((0, 0, 0),), ((0, 0, 0), 0, 0)])
    def test_key_that_is_not_a_pair_is_rejected(self, key):
        with pytest.raises(TypeError, match="pair"):
            Phase(3, {key: QQi(1)})

    def test_a_zero_term_still_has_its_key_checked(self):
        with pytest.raises(ValueError):
            Phase(3, {((1,), 0): QQi(0)})

    def test_short_polynomial_key_is_rejected(self):
        with pytest.raises(ValueError, match="length 1, expected 3"):
            TwistedPoly(TW3, {(1,): Phase.one(N)})

    @pytest.mark.parametrize("key", [(1, 0, True), (1, 0, 0.5), 1])
    def test_non_int_polynomial_key_is_rejected(self, key):
        with pytest.raises(TypeError, match="tuple of ints"):
            TwistedPoly(TW3, {key: Phase.one(N)})

    def test_phase_over_another_slot_count_is_rejected(self):
        with pytest.raises(ValueError, match="phase has 2 slots, the twist has 3"):
            TwistedPoly(TW3, {(1, 0, 0): Phase.one(2)})
        with pytest.raises(ValueError, match="phase has 2 slots"):
            TwistedPoly.monomial(TW3, (1, 0, 0), Phase.one(2))

    def test_non_phase_coefficient_is_rejected(self):
        with pytest.raises(TypeError, match="must be a Phase"):
            TwistedPoly(TW3, {(1, 0, 0): QQi(1)})

    @pytest.mark.parametrize("nslots, error", [(-1, ValueError), ("3", TypeError), (1.0, TypeError)])
    def test_bad_slot_count_is_rejected(self, nslots, error):
        with pytest.raises(error, match="slot count"):
            Phase(nslots)


class TestRender:
    def test_terms_print_in_tuple_order_not_packed_order(self):
        # tuple order puts ((0, 1, 0), 1) first; packed order compares tau first
        p = Phase(3, {((1, 0, 0), 0): QQi(1), ((0, 1, 0), 1): QQi(2)})
        assert repr(p) == "2*q1*tau+q0"
        u1 = TwistedPoly.generator(TW3, 0)
        assert repr(u1 * TwistedPoly.scalar(TW3, p)) == "(2*q13*tau+q12)*u1"

    def test_items_view_is_the_tuple_form(self):
        p = Phase(3, {((1, 0, 0), 0): QQi(1), ((0, 1, 0), 1): QQi(2)})
        assert dict(p.items()) == {((1, 0, 0), 0): QQi(1), ((0, 1, 0), 1): QQi(2)}
