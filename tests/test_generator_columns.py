"""Generator columns: ``placement`` and omega of monomial systems in closed form.

The default family of ``from_cleft_generators`` has the columns
s(sigma) = u^(M sigma), and ``placement(sigma)`` answers M sigma from
sigma alone, with no column; here that answer is compared with the
exponent of its built, checked column.  On that family ``from_cleft``
forms omega(sigma, pi) as the scalar q^s(M sigma, M pi) (``factor_system``
module docstring); it is compared with the product s(sigma) s(pi)
s(sigma+pi)* it replaces.  Every other family forms that product, except
at omega(0, 0) = 1: one-term families whose coefficient varies with sigma
(i^sigma_1 and q12^(sigma_1^2)), an equivariant one-term family whose
exponents do not add (u_b^(sigma_1^2) u^(M sigma)) and the d = 2
Pythagorean column, each compared with the same product.  gamma_sigma and
Delta_sigma of the generator family are compared with the conjugation by
the built column.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.algebra import PolyMatrix, TwistedPoly
from nctorus.dynamics import TorusAction, char_add, char_box, placed
from nctorus.factor_system import (
    AlgebraMorphism,
    IsometryFamily,
    MatrixMorphism,
    _on_generators,
    from_cleft,
    frohlich_map,
    frohlich_morphism,
)
from nctorus.phases import Phase, QQi

from conftest import probes, pythagorean_column
import reference
from strategies import TW3, actions

SETTINGS = settings(deadline=None, derandomize=True)

# ---------------------------------------------------------------------------
# families and strategies
# ---------------------------------------------------------------------------


def _one_term(action: TorusAction, coefficient, base_power) -> IsometryFamily:
    """s(sigma) = coefficient(sigma) u_b^base_power(sigma) u^(M sigma), b the first
    base generator; both functions give 1 and 0 at sigma = 0, so s(0) = 1."""
    tw = action.twist

    def fn(char):
        m = list(placed(action, char))
        if action.base:
            m[action.base[0]] = base_power(char)
        return PolyMatrix.from_scalar(TwistedPoly.monomial(tw, m, coefficient(tw, char)))

    return IsometryFamily(action, fn)


def _i_power(tw, char):
    return Phase.coeff(tw.nslots, QQi(0, 1)) ** char[0]


def _q12_square(tw, char):
    return Phase.unit(tw.nslots, 0) ** (char[0] * char[0])


# name -> (family builder, whether the family applies to the action)
FAMILIES = {
    "generator": (IsometryFamily.from_cleft_generators, lambda a: True),
    "i^sigma_1": (lambda a: _one_term(a, _i_power, lambda c: 0), lambda a: True),
    "q12^(sigma_1^2)": (lambda a: _one_term(a, _q12_square, lambda c: 0), lambda a: True),
    # equivariant, as u_b is fixed, but (s + p)^2 != s^2 + p^2
    "u_b^(sigma_1^2)": (
        lambda a: _one_term(a, lambda tw, c: Phase.one(tw.nslots), lambda c: c[0] * c[0]),
        lambda a: bool(a.base),
    ),
    "pythagorean": (pythagorean_column, lambda a: a.d == 1),
}


def _takes_closed_form(name: str, sigma, pi_) -> bool:
    """Whether omega(sigma, pi) of the family is read off the twist: on the
    generator family only, and omega(0, 0) = 1 on every family."""
    return name == "generator" or not any(sigma) and not any(pi_)


def chars(d: int):
    """A character in the radius-3 box."""
    return st.tuples(*[st.integers(-3, 3) for _ in range(d)])


# ---------------------------------------------------------------------------
# placement of the generator family
# ---------------------------------------------------------------------------


@SETTINGS
@given(actions(), st.data())
def test_generator_placement_matches_the_built_column(action, data):
    sigma = data.draw(chars(action.d))
    s = IsometryFamily.from_cleft_generators(action)
    m = s.placement(sigma)
    assert s._cache == {}  # answered from sigma alone
    column = s(sigma)  # built and checked
    assert (column.rows, column.cols) == (1, 1)
    ((exponent, c),) = column.entries[0][0].terms.items()
    assert exponent == m
    assert c is Phase.one(action.twist.nslots)


def test_generator_placement_checks_the_rank(q3_action):
    with pytest.raises(ValueError, match="wrong rank"):
        IsometryFamily.from_cleft_generators(q3_action).placement((1, 0))


# the built column rejected these through its exponent check; without a
# column the answer must still reject them, or (True,) would act as (1,)
@pytest.mark.parametrize("char", [(True,), (1.0,), (Fraction(1, 2),)], ids=repr)
def test_generator_columns_reject_a_character_that_is_not_ints(q3_action, char):
    fs = from_cleft(q3_action)
    for value in (
        lambda: fs.isometries.placement(char),
        lambda: fs.gamma(char),
        lambda: fs.omega(char, (1,)),
        lambda: fs.omega((1,), char),
        lambda: frohlich_morphism(fs, char),
    ):
        with pytest.raises(TypeError, match="tuple of ints"):
            value()


# ---------------------------------------------------------------------------
# omega in closed form against the product
# ---------------------------------------------------------------------------


def _check_omega(action: TorusAction, name: str, sigma, pi_) -> None:
    """omega(sigma, pi) of the family ``name`` equals s(sigma) s(pi) s(sigma+pi)*,
    and forms a Kronecker product exactly when it must keep the product."""
    build = FAMILIES[name][0]
    ref_s = build(action)
    ref = ref_s(sigma).kron(ref_s(pi_)) * ref_s.adjoint(char_add(sigma, pi_))
    fs = from_cleft(action, build(action))
    kron = PolyMatrix.kron
    formed = []

    def counting(self, other):
        formed.append(other)
        return kron(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PolyMatrix, "kron", counting)
        value = fs.omega(sigma, pi_)
    assert value == ref
    assert (formed == []) == _takes_closed_form(name, sigma, pi_)
    if formed == [] and value == PolyMatrix.identity(action.twist, 1):
        assert value.entries[0][0] is action.twist.one


@SETTINGS
@given(actions(), st.data())
def test_closed_form_omega_matches_the_product(action, data):
    name = data.draw(st.sampled_from([n for n, (_, fits) in FAMILIES.items() if fits(action)]))
    sigma, pi_ = data.draw(chars(action.d)), data.draw(chars(action.d))
    _check_omega(action, name, sigma, pi_)


# every pair of a small box on fixed actions, so each family meets omega(0, 0)
# and its other values: the rank-2 action on the q3 twist has base u1, and
# the rank-1 one carries the Pythagorean column
RANK2 = TorusAction(TW3, (1, 2))
RANK1 = TorusAction(TW3, (2,))


@pytest.mark.parametrize(
    "action,name",
    [(RANK2, n) for n in FAMILIES if n != "pythagorean"]
    + [(RANK1, n) for n in FAMILIES],
    ids=lambda x: x if isinstance(x, str) else f"d{x.d}",
)
def test_closed_form_omega_matches_the_product_on_a_box(action, name):
    box = char_box(action.d, 1 if action.d == 2 else 2)
    for sigma in box:
        for pi_ in box:
            _check_omega(action, name, sigma, pi_)


def test_rank_one_generator_omega_is_the_shared_one(q3_action):
    fs = from_cleft(q3_action)
    for sigma in char_box(1, 3):
        for pi_ in char_box(1, 3):
            assert fs.omega(sigma, pi_).entries[0][0] is q3_action.twist.one
    assert fs.isometries._cache == {}


def test_rank_two_generator_omega_is_not_always_one():
    # s(M sigma, M pi) of u2^s2 u3^s3 and u2^p2 u3^p3 gives q23^(-s3 p2)
    fs = from_cleft(RANK2)
    assert fs.omega((0, 1), (1, 0)) == PolyMatrix.from_scalar(
        TwistedPoly.scalar(TW3, Phase.unit(TW3.nslots, TW3.slot(1, 2), -1))
    )
    assert fs.omega((1, 0), (0, 1)) == PolyMatrix.identity(TW3, 1)


# ---------------------------------------------------------------------------
# gamma_sigma and Delta_sigma against the built column
# ---------------------------------------------------------------------------


@SETTINGS
@given(actions(), st.data())
def test_generator_gamma_and_delta_match_conjugation_by_the_column(action, data):
    sigma = data.draw(chars(action.d))
    fs = from_cleft(action)
    gamma, delta = fs.gamma(sigma), frohlich_morphism(fs, sigma)
    assert fs.isometries._cache == {}
    s = IsometryFamily.from_cleft_generators(action)
    sm, sa = s(sigma), s.adjoint(sigma)
    ref = MatrixMorphism.from_map(action, lambda x: reference.gamma(sm, x))
    ref_delta = AlgebraMorphism(
        action, *_on_generators(action, lambda b: frohlich_map(fs, sigma, b))
    )
    assert gamma.unit() == ref.unit() == sm * sa
    assert gamma.equals_on_generators(ref)
    assert delta.equals_on_generators(ref_delta)
    for x in probes(action):
        assert gamma.apply(x) == reference.gamma(sm, x)
        assert delta.apply(x) == reference.gamma(sa, x).as_scalar()
