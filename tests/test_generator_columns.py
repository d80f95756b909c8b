"""Generator columns: ``unit_term`` and omega of one-term columns in closed form.

``IsometryFamily.unit_term(sigma)`` gives (m, c) when s(sigma) is a 1 x 1
column c u^m with one term.  The default family of
``from_cleft_generators`` answers (M sigma, 1) from sigma alone, with no
column; here that answer is compared with the one read off its built,
checked column.  When sigma, pi and sigma+pi have one-term columns whose
exponents add, ``from_cleft`` forms omega(sigma, pi) as the scalar
c_sigma c_pi c-bar_{sigma+pi} q^s(m_sigma, m_pi) (``factor_system``
module docstring); it is compared with the product
s(sigma) s(pi) s(sigma+pi)* it replaces, on the generator family, on
one-term families whose coefficient varies with sigma (i^sigma_1 and
q12^(sigma_1^2)), on an equivariant one-term family whose exponents do
not add (u_b^(sigma_1^2) u^(M sigma), which must keep the product) and on
the d = 2 Pythagorean column.  gamma_sigma and Delta_sigma of the
generator family are compared with the conjugation by the built column.
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
    """Whether omega(sigma, pi) of the family is read off the twist."""
    if name == "u_b^(sigma_1^2)":
        return sigma[0] * pi_[0] == 0
    if name == "pythagorean":
        return not any(sigma) and not any(pi_)
    return True


def chars(d: int):
    """A character in the radius-3 box."""
    return st.tuples(*[st.integers(-3, 3) for _ in range(d)])


# ---------------------------------------------------------------------------
# unit_term of the generator family
# ---------------------------------------------------------------------------


@SETTINGS
@given(actions(), st.data())
def test_generator_unit_term_matches_the_built_column(action, data):
    sigma = data.draw(chars(action.d))
    s = IsometryFamily.from_cleft_generators(action)
    m, c = s.unit_term(sigma)
    assert s._cache == {}  # answered from sigma alone
    column = s(sigma)  # built and checked
    assert (column.rows, column.cols) == (1, 1)
    assert column.entries[0][0].terms == {m: c}
    assert IsometryFamily.unit_term(s, sigma) == (m, c)  # the reading of every other family
    assert c is Phase.one(action.twist.nslots)


def test_generator_unit_term_checks_the_rank(q3_action):
    with pytest.raises(ValueError, match="wrong rank"):
        IsometryFamily.from_cleft_generators(q3_action).unit_term((1, 0))


# the built column rejected these through its exponent check; without a
# column the answer must still reject them, or (True,) would act as (1,)
@pytest.mark.parametrize("char", [(True,), (1.0,), (Fraction(1, 2),)], ids=repr)
def test_generator_columns_reject_a_character_that_is_not_ints(q3_action, char):
    fs = from_cleft(q3_action)
    for value in (
        lambda: fs.isometries.unit_term(char),
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


# every pair of a small box on fixed actions, so each family meets both of
# its paths: the rank-2 action on the q3 twist has base u1, and the rank-1
# one carries the Pythagorean column
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
