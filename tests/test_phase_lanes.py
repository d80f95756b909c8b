"""Phase lanes: the shared unit, the single-term product and the dense kernel.

``phases._phase_product`` returns the other operand when one operand is
the shared unit of its slot count (``Phase.one``), and builds the product
of a single-term phase with a multi-term one in one pass, with no
accumulator (see the ``phases`` module docstring).  Here the single-term
lane is compared with the dense kernel ``_product_terms`` on 1 x k and
k x 1 shapes, with and without a packed shift, on exponents that mix
small values with values next to the ends of [-2^62, 2^62): both paths
give the same terms or both raise ``PhaseRangeError``.  The unit lane
returns its operand itself, keeps a shift, still checks the slot count,
and every constructor of a 1 returns the shared unit.

The dense kernel and ``Phase.add`` reduce each coefficient as it is
written and merge a key formed again by one Gaussian-rational sum.  They
are compared with the schoolbook references of ``reference.py`` where
that contract can slip: a key that cancels and is formed again, a key
that cancels for good, one key merged over three denominators, and a key
out of range whose coefficients all cancel, which must still raise.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.algebra import TwistedPoly
from nctorus.cli import parse_poly
from nctorus.phases import (
    Phase,
    PhaseRangeError,
    QQi,
    _canonical,
    _offset,
    _phase_product,
    _product_terms,
)

import reference
from reference import B
from strategies import N, TW3, WIDE, phases

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)
ONE = Phase.one(N)

# a packed shift (``phases._offset``) or None
_shifts = st.one_of(st.none(), st.tuples(*[WIDE] * N).map(lambda v: _offset(N, v)))


def _both(p: Phase, o: Phase, shift):
    """The lane's product and the dense kernel's, or the error each raised."""
    out = []
    for product in (
        lambda: _phase_product(p, o, shift),
        lambda: _canonical(N, _product_terms(N, ((p.terms, o.terms, shift),))),
    ):
        try:
            out.append(product())
        except PhaseRangeError as exc:
            out.append(type(exc))
    return out


# ---------------------------------------------------------------------------
# single-term lane
# ---------------------------------------------------------------------------


@SETTINGS
@given(phases(N, "wide", (1, 1)), phases(N, "wide", (2, 4)), _shifts)
def test_single_term_lane_matches_the_dense_kernel(single, dense, shift):
    for p, o in ((single, dense), (dense, single)):
        lane, kernel = _both(p, o, shift)
        assert lane == kernel
        if lane is not PhaseRangeError:
            assert lane.nslots == N and len(lane.terms) == len(dense.terms)
            assert all(not c.is_zero() for c in lane.terms.values())


def _term(e, t=0, c=QQi(1)):
    return Phase(N, {(e, t): c})


_DENSE = Phase(N, {((0, 0, 0), 0): QQi(2), ((1, 0, -1), 1): QQi(0, 1)})


@pytest.mark.parametrize(
    "single, shift",
    [
        (_term((B - 1, 0, 0)), None),  # 2^62 - 1 + 1 in slot 0
        (_term((0, 0, 0), B - 1), None),  # tau 2^62 - 1 + 1: the top field
        (_term((0, 0, -B)), None),  # -2^62 - 1 in slot 2
        (_term((0, 0, 0)), (B - 1, 0, 0)),  # the shift takes slot 0 out
        (_term((0, 0, -B + 1)), (0, 0, -1)),  # -2^62 + 1 - 1 - 1, through the shift
    ],
    ids=["slot-0-high", "tau-high", "slot-2-low", "shift-high", "shift-low"],
)
def test_a_key_past_either_end_raises_on_both_paths(single, shift):
    off = None if shift is None else _offset(N, shift)
    for p, o in ((single, _DENSE), (_DENSE, single)):
        assert _both(p, o, off) == [PhaseRangeError, PhaseRangeError]


def test_the_last_keys_in_range_are_formed_on_both_paths():
    single = _term((B - 2, 0, -B + 1), B - 2)
    lane, kernel = _both(single, _DENSE, None)
    assert lane == kernel
    assert {k for k, _ in lane.items()} == {((B - 2, 0, -B + 1), B - 2), ((B - 1, 0, -B), B - 1)}


# ---------------------------------------------------------------------------
# dense kernel and phase sums: reduce on write, merge by one sum
# ---------------------------------------------------------------------------


def _kernel(triples) -> Phase:
    """The dense kernel's sum of ``p * o * q^v`` over ``(p, o, v)`` triples."""
    pairs = [(p.terms, o.terms, None if v is None else _offset(N, v)) for p, o, v in triples]
    return _canonical(N, _product_terms(N, pairs))


def _reference(triples) -> Phase:
    out = Phase(N)
    for p, o, v in triples:
        out = reference.phase_add(out, reference.phase_mul(p, o, v))
    return out


def test_a_key_that_cancels_is_formed_again_by_a_later_product():
    # triples 1 and 2 cancel both keys; triple 3 forms (1,1,0;0) again, and
    # (1,0,1;1) stays cancelled
    a = _term((1, 0, 0), 0, QQi(Fraction(1, 2), 1))
    b = Phase(N, {((0, 1, 0), 0): QQi(3), ((0, 0, 1), 1): QQi(0, Fraction(-2, 3))})
    c = _term((1, 0, 0), 0, QQi(Fraction(1, 3)))
    d = Phase(N, {((0, 0, 1), 0): QQi(0, 1), ((0, 2, 0), 1): QQi(5)})
    triples = [(a, b, None), (_term((1, 0, 0), 0, QQi(Fraction(-1, 2), -1)), b, None),
               (c, d, (0, 1, -1))]
    got = _kernel(triples)
    assert got == _reference(triples)
    assert got == Phase(N, {((1, 1, 0), 0): QQi(0, Fraction(1, 3)),
                            ((1, 3, -1), 1): QQi(Fraction(5, 3))})


@pytest.mark.parametrize(
    "single, other",
    [
        (_term((B - 1, 0, 0), 0, QQi(2)),
         Phase(N, {((1, 0, 0), 0): QQi(1), ((0, 0, 0), 0): QQi(0, 1)})),
        (_term((0, 0, -B)), _term((0, 0, -1), 0, QQi(Fraction(1, 3)))),
    ],
    ids=["slot-0-high", "slot-2-low"],
)
def test_a_key_out_of_range_raises_although_every_sum_cancels(single, other):
    s, o = single.terms, other.terms
    with pytest.raises(PhaseRangeError):
        _product_terms(N, [(s, o, None), (s, other.neg().terms, None)])
    with pytest.raises(reference.OutOfRange):
        reference.phase_mul(single, other)


def test_one_key_merges_three_products_over_three_denominators():
    # 1/2 + 1/3 + (1 + i)/4 = (13 + 3i)/12: the second merge cross-multiplies
    # to (26 + 6i)/24 and must reduce
    triples = [
        (_term((1, 0, 0), 0, QQi(Fraction(1, 2))), _term((0, 0, 0), 1), None),
        (_term((0, 0, 0), 0, QQi(Fraction(1, 3))), _term((1, 0, 0), 1), None),
        (_term((1, 0, 0), 1, QQi(Fraction(1, 2), Fraction(1, 2))),
         _term((0, 0, 0), 0, QQi(Fraction(1, 2))), None),
    ]
    got = _kernel(triples)
    assert got == _reference(triples)
    assert got == _term((1, 0, 0), 1, QQi(Fraction(13, 12), Fraction(1, 4)))


def test_a_phase_sum_drops_a_key_that_cancels():
    p = Phase(N, {((1, 0, 0), 0): QQi(Fraction(1, 2), 1), ((0, 1, 0), 1): QQi(3)})
    o = Phase(N, {((1, 0, 0), 0): QQi(Fraction(-1, 2), -1), ((0, 0, 1), 0): QQi(Fraction(2, 5))})
    got = p.add(o)
    assert got == reference.phase_add(p, o)
    assert got == Phase(N, {((0, 1, 0), 1): QQi(3), ((0, 0, 1), 0): QQi(Fraction(2, 5))})
    assert p.add(p.neg()).is_zero()


def test_a_phase_sum_over_two_denominators_reduces():
    # (1 + 3i)/6 + (1 + i)/3 cross-multiplies to (9 + 15i)/18 = (3 + 5i)/6
    p = Phase(N, {((0, 1, 0), 0): QQi(Fraction(1, 6), Fraction(1, 2))})
    o = Phase(N, {((0, 1, 0), 0): QQi(Fraction(1, 3), Fraction(1, 3)), ((0, 0, 0), 0): QQi(1)})
    got = p.add(o)
    assert got == reference.phase_add(p, o)
    c = dict(got.items())[((0, 1, 0), 0)]
    assert (c.a, c.b, c.d) == (3, 5, 6)


# ---------------------------------------------------------------------------
# unit lane
# ---------------------------------------------------------------------------


@SETTINGS
@given(phases(N, "wide", (1, 4)))
def test_a_product_by_the_unit_returns_the_other_operand(p):
    assert ONE.mul(p) is p
    assert p.mul(ONE) is p
    assert _phase_product(ONE, p, None) is p and _phase_product(p, ONE, None) is p


def test_every_constructor_of_one_gives_the_shared_unit():
    assert Phase.one(N) is ONE
    assert Phase.coeff(N, QQi(1)) is ONE
    assert Phase.coeff(N, QQi(-1)) is not ONE
    assert ONE.conjugate() is ONE
    assert ONE.invert() is ONE
    assert ONE.is_one()
    # q * q^-1 and i * -i come out of the 1 x 1 lane as the shared unit
    q = Phase.unit(N, 1)
    assert q.mul(q.invert()) is ONE
    assert Phase.coeff(N, QQi(0, 1)).mul(Phase.coeff(N, QQi(0, -1))) is ONE


def test_a_one_built_apart_equals_the_unit_and_is_not_it():
    apart = Phase(N, {((0,) * N, 0): QQi(1)})
    assert apart == ONE and apart is not ONE and apart.is_one()
    # the algebra swaps it for the shared unit
    assert TwistedPoly.scalar(TW3, apart) is TW3.one
    assert TwistedPoly.monomial(TW3, (1, 0, 0), apart).terms[(1, 0, 0)] is ONE


def test_a_unit_with_a_shift_still_shifts():
    v = (2, -1, 3)
    off = _offset(N, v)
    p = Phase(N, {((1, 0, 0), 1): QQi(2), ((0, 1, 0), 0): QQi(0, 1)})
    assert _phase_product(ONE, p, off) == p.shift(v)
    assert _phase_product(p, ONE, off) == p.shift(v)
    assert _phase_product(ONE, ONE, off) == Phase(N, {(v, 0): QQi(1)})


def test_a_unit_over_another_slot_count_still_raises():
    other = Phase.one(2)
    assert other is not ONE and other == Phase(2, {((0, 0), 0): QQi(1)})
    for p, o in ((ONE, other), (other, ONE), (other, _DENSE), (_DENSE, other)):
        with pytest.raises(ValueError, match="phase slot count mismatch"):
            _phase_product(p, o, None)
    for c in (other, Phase(2, {((0, 0), 0): QQi(1)})):
        with pytest.raises(ValueError, match="phase has 2 slots, the twist has 3"):
            TwistedPoly.scalar(TW3, c)
        with pytest.raises(ValueError, match="phase has 2 slots, the twist has 3"):
            TwistedPoly.monomial(TW3, (0, 0, 0), c)


def test_the_phase_of_a_parsed_generator_is_the_shared_unit():
    u1 = parse_poly(TW3, [{"exponents": [1, 0, 0]}], "x")
    assert u1 == TwistedPoly.generator(TW3, 0)
    assert u1.terms[(1, 0, 0)] is ONE
    assert parse_poly(TW3, [{"exponents": [0, 0, 0]}], "x") is TW3.one


# ---------------------------------------------------------------------------
# monomial exponents
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("exponents", [(1.5, 0, 0), (True, "2", 0), (0.0, 0, 0)])
def test_monomial_rejects_an_exponent_that_is_not_an_int(exponents):
    with pytest.raises(TypeError, match="exponent vector must be a tuple of ints"):
        TwistedPoly.monomial(TW3, exponents)


def test_monomial_takes_a_list_of_ints():
    assert TwistedPoly.monomial(TW3, [1, 2, 0]) == TwistedPoly.generator(
        TW3, 0
    ) * TwistedPoly.generator(TW3, 1, 2)
    assert TwistedPoly.monomial(TW3, [0, 0, 0]) is TW3.one
    with pytest.raises(ValueError, match="has length 2, expected 3"):
        TwistedPoly.monomial(TW3, [1, 0])
