"""Scalar lanes: one-term powers, one-term unitarity, and ``apply`` on scalars.

``Phase.__pow__`` raises a single-term phase by scaling its packed key,
``bias + k * (key - bias)``, after checking every k*e (``phases`` module
docstring), and ``QQi.__pow__`` squares repeatedly; both are compared
here with repeated products.  ``cohomology._is_unitary`` decides a
one-term value from |c| = 1 and tau exponent 0 (``cohomology`` module
docstring) and is compared with the product x* x = 1.
``MatrixMorphism.apply`` of a scalar p is its unit scaled by p, as a
unital morphism fixes phases; that is checked on every kind of morphism
the pipeline builds, on a d = 2 unit and on the unit [[0]].
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.algebra import PolyMatrix, TwistedPoly
from nctorus.cohomology import TwoCocycle, WitnessError, _is_unitary
from nctorus.dynamics import TorusAction
from nctorus.factor_system import (
    Automorphism,
    MatrixMorphism,
    apply_automorphism,
    from_cleft,
)
from nctorus.phases import Phase, PhaseRangeError, QQi

from conftest import pythagorean_column
import reference
from reference import B
from strategies import N, TW3, polys, qqis

SETTINGS = settings(deadline=None, derandomize=True)

# |c| = 1 for the first five, not for the rest
_UNIMODULAR = [QQi(1), QQi(-1), QQi(0, 1), QQi(0, -1), QQi(Fraction(3, 5), Fraction(4, 5))]
_COEFFS = _UNIMODULAR + [QQi(1, 1), QQi(2), QQi(Fraction(1, 3), -2)]

# small exponents, and exponents whose 8th multiple is still in range
_exps = st.one_of(st.integers(-3, 3), st.integers(-B // 8, B // 8 - 1))


# ---------------------------------------------------------------------------
# one-term powers
# ---------------------------------------------------------------------------


@SETTINGS
@given(
    st.tuples(*[_exps] * N),
    _exps,
    st.sampled_from(_COEFFS),
    st.integers(-8, 8),
)
def test_one_term_power_matches_repeated_products(e, t, c, k):
    p = Phase(N, {(e, t): c})
    out = p**k
    assert out == reference.phase_pow(p, k)
    if out.is_one():
        assert out is Phase.one(N)


@pytest.mark.parametrize("c", _UNIMODULAR[:4])
def test_one_term_power_that_is_one_is_the_shared_unit(c):
    p = Phase.coeff(N, c)
    assert p**4 is Phase.one(N)
    assert p**-8 is Phase.one(N)
    assert Phase.unit(N, 1, 5, c) ** 0 is Phase.one(N)


def _unit(slot: int, power: int) -> Phase:
    """q^power in ``slot``, with tau as slot N."""
    if slot == N:
        return Phase.tau(N, power)
    return Phase.unit(N, slot, power)


@pytest.mark.parametrize("slot", range(N + 1))
@pytest.mark.parametrize(
    "e, k_out, k_in",
    [
        (B // 2, 2, -2),  # 2^62 is out; -2^62 is the lowest exponent
        (-(B // 2), -2, 2),
        (B // 4 + 1, -4, 3),  # -2^62 - 4 is out; 3*2^60 + 3 is in
        (B - 1, 2, 1),
        (-B, -1, 1),  # 2^62 is out: the inverse of the lowest exponent
    ],
)
def test_power_just_outside_the_range_raises(slot, e, k_out, k_in):
    p = _unit(slot, e)
    with pytest.raises(PhaseRangeError):
        p**k_out
    assert p**k_in == _unit(slot, e * k_in)


def test_huge_power_of_a_unit_costs_log_k_products(monkeypatch):
    products = []
    mul = QQi.__mul__

    def counting(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(QQi, "__mul__", counting)
    for slot in range(N):
        assert Phase.unit(N, slot) ** (1 << 61) == Phase.unit(N, slot, 1 << 61)
    assert len(products) <= N * 2 * 62


# the unimodular and other named coefficients, and any small Gaussian rational
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(
    st.tuples(st.sampled_from(_COEFFS), st.integers(-12, 12)),
    st.tuples(qqis, st.integers(-6, 6)),
))
def test_qqi_power_matches_repeated_products(case):
    c, k = case
    if k < 0 and c.is_zero():
        return
    assert c**k == reference.qqi_pow(c, k)


# ---------------------------------------------------------------------------
# one-term unitarity
# ---------------------------------------------------------------------------

# u1 alone generates the fixed algebra, so every u1^a is central
ACTION = TorusAction(TW3, (1, 2))
_polys = polys(TW3, terms=(1, 2), phase_terms=(1, 2), coeffs=st.sampled_from(_COEFFS))


def _unitary_by_product(x: TwistedPoly) -> bool:
    return reference.poly_mul(reference.poly_star(x), x) == TwistedPoly.one(TW3)


@SETTINGS
@given(_polys)
def test_unitarity_lane_matches_the_product(x):
    assert _is_unitary(x) == _unitary_by_product(x)


def _mono(a, c=QQi(1), e=(0,) * N, t=0) -> TwistedPoly:
    return TwistedPoly(TW3, {a: Phase(N, {(e, t): c})})


@pytest.mark.parametrize(
    "x, unitary",
    [
        (_mono((0, 0, 0), QQi(Fraction(3, 5), Fraction(4, 5))), True),
        (_mono((2, 0, 0), QQi(Fraction(3, 5), Fraction(-4, 5)), (1, -2, 0)), True),
        (_mono((-3, 0, 0), QQi(0, -1)), True),
        (_mono((0, 0, 0), QQi(1, 1)), False),
        (_mono((1, 0, 0), QQi(Fraction(1, 2))), False),
        (_mono((0, 0, 0), t=1), False),
        (_mono((1, 0, 0), QQi(0, 1), t=-1), False),
        (_mono((1, 2, -1), e=(1, 0, 0)), True),
    ],
    ids=["3+4i/5", "3-4i/5 q u1^2", "-i u1^-3", "1+i", "u1/2", "tau", "i tau^-1 u1", "q u^a"],
)
def test_unitarity_lane_on_named_values(x, unitary):
    assert _is_unitary(x) is unitary
    assert _unitary_by_product(x) is unitary


def test_cocycle_values_are_checked_by_the_lane():
    values = {
        ((1, 0), (0, 1)): _mono((2, 0, 0), QQi(Fraction(3, 5), Fraction(4, 5))),
        ((0, 1), (1, 0)): _mono((1, 0, 0), t=1),
    }
    u = TwoCocycle(ACTION, lambda s, p: values[(s, p)])
    assert u.value((1, 0), (0, 1)) == values[((1, 0), (0, 1))]
    with pytest.raises(WitnessError, match=r"at \(\(0, 1\), \(1, 0\)\) is not unitary"):
        u.value((0, 1), (1, 0))


# ---------------------------------------------------------------------------
# ``apply`` on scalars
# ---------------------------------------------------------------------------


def _generic(m: MatrixMorphism, x: TwistedPoly) -> PolyMatrix:
    """The image of a scalar: the unit, scaled by a phase that is not 1."""
    (p,) = x.terms.values()
    unit = m._monomial((0,) * x.twist.n)
    return unit if p.is_one() else unit.scaled(p)


def _scalars(tw) -> list:
    n = tw.nslots
    return [
        TwistedPoly.one(tw),
        TwistedPoly.scalar(tw, QQi(Fraction(3, 5), Fraction(-4, 5))),
        TwistedPoly.scalar(tw, Phase.unit(n, 0, -2, QQi(0, 1))),
        TwistedPoly.scalar(tw, Phase.two_pi_i(n)),
        # a 1 built apart from tw.one
        TwistedPoly(tw, {(0,) * tw.n: Phase.one(n)}),
    ]


def _q3():
    return TorusAction(TW3, (2,))


def _morphisms():
    action = _q3()
    nslots = action.twist.nslots
    fs = from_cleft(action)
    beta = Automorphism.diagonal(action, {0: Phase.coeff(nslots, QQi(0, 1))})
    transported = apply_automorphism(fs, beta)
    u1 = TwistedPoly.generator(action.twist, 0)
    return {
        "algebra morphism": beta.fwd,
        "inner": Automorphism.inner(action, u1).fwd,
        "conjugation-lane gamma": fs.gamma((2,)),
        "transported gamma": transported.gamma((-1,)),
        "d = 2 gamma_0": from_cleft(action, pythagorean_column(action)).gamma((0,)),
    }


# named for the scalar lane it once checked; the name is kept so its node ids stay stable
@pytest.mark.parametrize("name", list(_morphisms()))
def test_scalar_lane_matches_the_loop(name):
    """``apply`` on scalars, for each morphism kind with the unit [[1]]."""
    m = _morphisms()[name]
    assert m.dim == 1 and m.unit().entries[0][0] is m.action.twist.one
    for x in _scalars(m.action.twist):
        assert MatrixMorphism.apply(m, x) == _generic(m, x)


@pytest.mark.parametrize("char", [(1,), (-2,)])
def test_apply_on_a_scalar_scales_a_d2_unit(char):
    """``apply`` on scalars, for a gamma_sigma with d_sigma = 2."""
    action = _q3()
    m = from_cleft(action, pythagorean_column(action)).gamma(char)
    assert m.dim == 2
    for x in _scalars(action.twist):
        assert m.apply(x) == _generic(m, x)


def test_apply_on_a_scalar_scales_the_zero_unit():
    """``apply`` on scalars, for the unit [[0]]."""
    action = _q3()
    tw = action.twist
    zero = PolyMatrix.zeros(tw, 1, 1)
    m = MatrixMorphism(action, zero, dict.fromkeys(action.base, zero), dict.fromkeys(action.base, zero))
    for x in _scalars(tw):
        assert m.apply(x) == zero
