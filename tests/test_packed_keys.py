"""Packed phase keys: exact inside [-2^62, 2^62), a range error outside.

Every ``Phase`` key ``(qexp, tau)`` is stored as one int with a 64-bit
field per exponent (see the ``phases`` module docstring).  Here each
operation that forms keys is compared with the tuple-key references of
``reference.py`` on the wide input class, exponents that mix small
values with values next to the bounds: it either equals the reference,
or raises ``PhaseRangeError`` exactly when some key the reference forms
has an exponent outside the range.  The constructors reject malformed
keys, and ``repr`` keeps the tuple order, which differs from packed-int
order once terms differ in two slots and in tau.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.algebra import TwistedPoly
from nctorus.phases import Phase, PhaseRangeError, QQi

import reference
from reference import B
from strategies import N, TW3, WIDE, phases, polys

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def _expect(op, ref):
    """``op()`` equals ``ref()``, or raises a range error where the reference
    forms a key outside the range."""
    try:
        want = ref()
    except reference.OutOfRange:
        with pytest.raises(PhaseRangeError):
            op()
    else:
        assert op() == want


# ---------------------------------------------------------------------------
# each operation against the tuple-key references
# ---------------------------------------------------------------------------


@SETTINGS
@given(phases(N, "wide", (1, 1)), phases(N, "wide", (1, 1)))
def test_monomial_lane(p, r):
    _expect(lambda: p.mul(r), lambda: reference.phase_mul(p, r))


@SETTINGS
@given(phases(N, "wide", (2, 3)), phases(N, "wide", (1, 3)))
def test_dense_kernel(p, r):
    _expect(lambda: p.mul(r), lambda: reference.phase_mul(p, r))
    _expect(lambda: r.mul(p), lambda: reference.phase_mul(r, p))


@SETTINGS
@given(phases(N, "wide"), st.tuples(*[WIDE] * N))
def test_shift(p, v):
    _expect(lambda: p.shift(v), lambda: reference.phase_shift(p, v))


@SETTINGS
@given(phases(N, "wide"))
def test_conjugate(p):
    _expect(p.conjugate, lambda: reference.phase_conjugate(p))


@SETTINGS
@given(phases(N, "wide", (1, 1)))
def test_invert(p):
    _expect(p.invert, lambda: reference.phase_invert(p))


@SETTINGS
@given(phases(N, "wide", (1, 2)), st.integers(-3, 3))
def test_pow(p, k):
    if k < 0 and len(p.terms) != 1:
        with pytest.raises(ValueError, match="only monomial phases are invertible"):
            p**k
        return
    _expect(lambda: p**k, lambda: reference.phase_pow(p, k))


@SETTINGS
@given(polys(TW3, "wide", (1, 1), (1, 2)), polys(TW3, "wide", (1, 1), (1, 2)))
def test_polynomial_monomial_lane(x, y):
    _expect(lambda: x * y, lambda: reference.poly_mul(x, y))


@SETTINGS
@given(polys(TW3, "wide", (1, 3), (1, 2)), polys(TW3, "wide", (1, 3), (1, 2)))
def test_polynomial_dense_lane(x, y):
    _expect(lambda: x * y, lambda: reference.poly_mul(x, y))


@SETTINGS
@given(polys(TW3, "wide", (1, 3), (1, 2)))
def test_star(x):
    _expect(x.star, lambda: reference.poly_star(x))


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
