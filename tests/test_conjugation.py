"""Conjugation by a unit monomial, read off the commutator form.

c(a, b) = s(a, b) - s(b, a) is the commutator form of the twist:
u^a u^b = q^c(a, b) u^b u^a (``algebra._commutator_shift``).  For the
generator columns s(sigma) = u^m, m = M sigma, ``from_cleft`` builds
gamma_sigma = Ad s(sigma) from q^c(m, +-e_k) u_k^+-1 and
``frohlich_morphism`` builds Delta_sigma = Ad s(sigma)* from
q^c(+-e_k, m) u_k^+-1; ``Automorphism.inner`` builds Ad c u^m the same
way, where c must cancel.  Here each is compared with
``MatrixMorphism.from_map`` of the conjugation, on random rational
twists and on every base monomial up to degree 2, next to the one-term
columns c u^m (c = 1, i, q12) that form it by ``from_map``.  The commutator form
is also checked against the products it stands for, in ``_is_central``
and ``exchange_phase``, and at the ends of the packed range, where a
commutator outside [-2^62, 2^62) raises ``PhaseRangeError``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.algebra import (
    PolyMatrix,
    TwistedPoly,
    TwistMatrix,
    _commutator_shift,
    exchange_phase,
)
from nctorus.cohomology import _is_central
from nctorus.dynamics import TorusAction, char_box
from nctorus.factor_system import (
    AlgebraMorphism,
    Automorphism,
    IsometryFamily,
    MatrixMorphism,
    _on_generators,
    from_cleft,
    frohlich_map,
    frohlich_morphism,
)
from nctorus.phases import Phase, PhaseRangeError, QQi

from conftest import probes, pythagorean_column
import reference
from strategies import actions, polys, twists

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
# a rank 1 or 2 action on a random twist
ACTIONS = actions(lambda n: st.sampled_from([1, 2]))

# ---------------------------------------------------------------------------
# columns
# ---------------------------------------------------------------------------


def _column(action: TorusAction, coefficient: str, shift: dict):
    """s(sigma) = c u^m with m = sigma on the acting coordinates plus
    ``shift[sigma]`` on the base ones, and s(0) = 1."""
    tw = action.twist
    c = {
        "1": Phase.one(tw.nslots),
        "i": Phase.coeff(tw.nslots, QQi(0, 1)),
        "q12": Phase.unit(tw.nslots, 0),
    }[coefficient]

    def fn(char):
        if not any(char):
            return PolyMatrix.identity(tw, 1)
        m = [0] * tw.n
        for j, x in zip(action.coords, char):
            m[j] = x
        for k, x in zip(action.base, shift[tuple(char)]):
            m[k] = x
        return PolyMatrix.from_scalar(TwistedPoly.monomial(tw, m, c))

    return IsometryFamily(action, fn)


@st.composite
def unit_columns(draw):
    """An action, a unit-monomial column (the generator family or a drawn one)
    and a character in the radius-3 box."""
    action = draw(ACTIONS)
    chars = char_box(action.d, 3)
    coefficient = draw(st.sampled_from(["generator", "1", "i", "q12"]))
    if coefficient == "generator":
        column = IsometryFamily.from_cleft_generators(action)
    else:
        base_shift = st.tuples(*[st.integers(-2, 2) for _ in action.base])
        column = _column(action, coefficient, {c: draw(base_shift) for c in chars})
    return action, column, draw(st.sampled_from(chars))


# ---------------------------------------------------------------------------
# gamma_sigma and Delta_sigma against from_map
# ---------------------------------------------------------------------------


@SETTINGS
@given(unit_columns())
def test_closed_form_gamma_matches_conjugation(case):
    action, s, char = case
    sm = s(char)
    closed = from_cleft(action, s).gamma(char)
    ref = MatrixMorphism.from_map(action, lambda x: reference.gamma(sm, x))
    assert closed.unit() == ref.unit() == sm * sm.adjoint()
    assert closed.equals_on_generators(ref)
    for x in probes(action):
        assert closed.apply(x) == ref.apply(x) == reference.gamma(sm, x)


@SETTINGS
@given(unit_columns())
def test_closed_form_delta_matches_frohlich_map(case):
    action, s, char = case
    fs = from_cleft(action, s)
    closed = frohlich_morphism(fs, char)
    ref = AlgebraMorphism(action, *_on_generators(action, lambda b: frohlich_map(fs, char, b)))
    assert closed.equals_on_generators(ref)
    for x in probes(action):
        assert closed.apply(x) == ref.apply(x) == frohlich_map(fs, char, x)


@SETTINGS
@given(ACTIONS, st.data())
def test_inner_automorphism_matches_conjugation(action, data):
    tw = action.twist
    # a monomial of the fixed algebra with a coefficient that must cancel
    m = [0] * tw.n
    for k in action.base:
        m[k] = data.draw(st.integers(-3, 3))
    a = TwistedPoly.monomial(tw, m, QQi(0, 2))
    a_inv = a.inverse_monomial()
    beta = Automorphism.inner(action, a)
    for x in probes(action):
        assert beta.apply(x) == a * x * a_inv
        assert beta.inv.apply(x) == a_inv * x * a


def test_only_unit_monomial_columns_take_the_closed_form(monkeypatch, q3_action):
    built = []
    from_map = MatrixMorphism.from_map

    def counting(action, f):
        built.append(action)
        return from_map(action, f)

    monkeypatch.setattr(MatrixMorphism, "from_map", staticmethod(counting))
    chars = char_box(1, 2)
    for char in chars:
        from_cleft(q3_action).gamma(char)
    assert built == []
    # every other family keeps from_map, the d = 2 column at its s(0) = 1 too
    fs = from_cleft(q3_action, pythagorean_column(q3_action))
    for char in chars:
        fs.gamma(char)
    assert len(built) == len(chars)


# ---------------------------------------------------------------------------
# the commutator form against products
# ---------------------------------------------------------------------------


# n - d = 0, 1 or 2 base generators, and mostly-zero exponents, so central x are drawn too
@settings(max_examples=260, deadline=None, derandomize=True)
@given(actions(lambda n: st.integers(max(0, n - 2), n)), st.data())
def test_is_central_matches_products(action, data):
    x = data.draw(polys(action.twist, "sparse"))
    assert _is_central(action, x) == reference.is_central(action, x)


@SETTINGS
@given(twists())
def test_exchange_phase_matches_the_relation(tw):
    for k in range(tw.n):
        for l in range(tw.n):
            uk, ul = TwistedPoly.generator(tw, k), TwistedPoly.generator(tw, l)
            lam = exchange_phase(tw, k, l)
            assert uk * ul == (ul * uk).scale(lam)
            assert lam == exchange_phase(tw, l, k).invert()
    if tw.n > 1:
        assert exchange_phase(tw, 0, 1) == Phase.unit(tw.nslots, 0)


@SETTINGS
@given(twists(), st.data())
def test_commutator_form_matches_products(tw, data):
    vec = st.tuples(*[st.integers(-3, 3) for _ in range(tw.n)])
    a, b = data.draw(vec), data.draw(vec)
    ua, ub = TwistedPoly.monomial(tw, a), TwistedPoly.monomial(tw, b)
    off = _commutator_shift(tw, a, b)
    c = Phase.one(tw.nslots) if off is None else Phase.one(tw.nslots)._shifted(off)
    assert ua * ub == (ub * ua).scale(c)
    # antisymmetric, and the swap is the negation
    back = _commutator_shift(tw, b, a)
    assert (off is None) == (back is None) == (ua * ub == ub * ua)
    if off is not None:
        assert off == -back


# ---------------------------------------------------------------------------
# the ends of the packed range
# ---------------------------------------------------------------------------

TW2 = TwistMatrix([[0, Fraction(1, 5)], [Fraction(-1, 5), 0]])
H = 1 << 61


@pytest.mark.parametrize(
    "a,b,c",
    [
        ((H, H - 1), (-2, 2), 4 * H - 2),  # each product in range, c is not
        ((-H + 1, H), (2, 2), -(4 * H - 2)),
        ((H, 0), (0, 2), 2 * H),  # c = 2^62, one past the top
    ],
)
def test_commutator_outside_the_field_raises(a, b, c):
    off = _commutator_shift(TW2, a, b)
    assert off == c
    with pytest.raises(PhaseRangeError):
        Phase.one(TW2.nslots)._shifted(off)


@pytest.mark.parametrize(
    "a,b",
    [((H, H - 1), (1, 1)), ((H, 0), (0, 1)), ((0, H), (2, 0)), ((H - 1, -H), (1, 1))],
)
def test_commutator_at_the_edge_of_the_field_matches_products(a, b):
    ua, ub = TwistedPoly.monomial(TW2, a), TwistedPoly.monomial(TW2, b)
    off = _commutator_shift(TW2, a, b)
    assert ua * ub == (ub * ua).scale(Phase.one(TW2.nslots)._shifted(off))


def test_commutator_product_outside_the_field_raises():
    with pytest.raises(PhaseRangeError):
        _commutator_shift(TW2, (0, 2 * H), (4, 0))  # a_1 b_0 = 2^64
    with pytest.raises(PhaseRangeError):
        _commutator_shift(TW2, (2 * H, 0), (0, -4))


def test_conjugation_whose_commutator_leaves_the_field_raises():
    tw = TwistMatrix([[0, Fraction(1, 3), 0], [Fraction(-1, 3), 0, 0], [0, 0, 0]])
    action = TorusAction(tw, (2,))
    # u1^(2^62) is a unitary of the fixed algebra, but c(m, e_2) = 2^62 has
    # no field; the products u x u^-1 of the old construction raise too
    a = TwistedPoly.generator(tw, 0, 2 * H)
    with pytest.raises(PhaseRangeError):
        Automorphism.inner(action, a)
    with pytest.raises(PhaseRangeError):
        a * TwistedPoly.generator(tw, 1) * a.inverse_monomial()
