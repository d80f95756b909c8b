"""The materialized lift's generator certificate against the box sweep.

``LiftedAutomorphism`` checks its witness's conjugation laws at 1 and
u_k^+-1 only (the monomials of degree 1) when, at every sigma of the box,
gamma_sigma and the transported gamma'_sigma pass
``MatrixMorphism.respects_relations`` and v(sigma)* v(sigma) =
gamma_sigma(1), v(sigma) v(sigma)* = gamma'_sigma(1).  Otherwise, and at
gen_degree 0, it calls ``verify_conjugacy`` with the caller's degree, as
before.  Its accept/reject must equal ``verify_conjugacy(...).passed`` at
the caller's degree on every input here.  The strengthened check is
tested one hypothesis at a time on the d = 2 Pythagorean gamma_sigma,
whose unit s s* is a proper projection.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus import cohomology
from nctorus.algebra import PolyMatrix, TwistedPoly
from nctorus.cohomology import (
    LiftedAutomorphism,
    WitnessError,
    extract_cocycle,
    solve_coboundary,
    updated_witness,
)
from nctorus.dynamics import TorusAction, resolve_chars
from nctorus.factor_system import (
    AlgebraMorphism,
    Automorphism,
    MatrixMorphism,
    PartialIsometryFamily,
    apply_automorphism,
    from_cleft,
    verify_conjugacy,
)
from nctorus.phases import Phase, QQi
from nctorus.q3torus import random_rational_twist

from conftest import pythagorean_column, wrong_size
from strategies import TW3, polys

SETTINGS = settings(deadline=None, derandomize=True, max_examples=25)


def circle_system(n: int):
    """A circle acting on the last of n generators, over a seeded twist."""
    action = TorusAction(random_rational_twist(random.Random(n), n), (n - 1,))
    return action, from_cleft(action)


def automorphism(action: TorusAction, kind: str) -> Automorphism:
    tw = action.twist
    i = Phase.coeff(tw.nslots, QQi(0, 1))
    diagonal = Automorphism.diagonal(action, {k: i for k in action.base})
    inner = Automorphism.inner(action, TwistedPoly.generator(tw, action.base[0]))
    return {"diagonal": diagonal, "inner": inner, "composed": diagonal.compose(inner)}[kind]


def constant_witness(action: TorusAction, m: PolyMatrix) -> PartialIsometryFamily:
    """v(sigma) = m off sigma = 0, and v(0) = 1."""
    one = PolyMatrix.identity(action.twist, 1)
    return PartialIsometryFamily(action, lambda char: m if any(char) else one)


def hypotheses_hold(fs, beta, v, r) -> bool:
    """The certificate's hypotheses, decided here independently of the lift."""
    fs2 = apply_automorphism(fs, beta)
    for sigma in resolve_chars(fs.action, r):
        g, g2, vs = fs.gamma(sigma), fs2.gamma(sigma), v(sigma)
        if not (g.respects_relations() and g2.respects_relations()):
            return False
        if vs.adjoint() * vs != g.unit() or vs * vs.adjoint() != g2.unit():
            return False
    return True


@pytest.fixture
def degrees(monkeypatch):
    """The gen_degree of every ``verify_conjugacy`` call that the lift makes."""
    seen = []
    verify = cohomology.verify_conjugacy

    def spy(fs, fs2, v, char_range, gen_degree):
        seen.append(gen_degree)
        return verify(fs, fs2, v, char_range, gen_degree)

    monkeypatch.setattr(cohomology, "verify_conjugacy", spy)
    return seen


def lift_verdict(degrees, fs, beta, v, r=2, g=2) -> bool:
    """The lift's accept/reject, checked against the full sweep at degree g;
    the spy must show the fallback (degree g) exactly when a hypothesis
    fails or g < 1, and the certificate (degree 1) otherwise."""
    degrees.clear()
    try:
        LiftedAutomorphism(fs, beta, v, r, g)
        accepted = True
    except WitnessError:
        accepted = False
    assert accepted == verify_conjugacy(fs, apply_automorphism(fs, beta), v, r, g).passed
    fallback = g < 1 or not hypotheses_hold(fs, beta, v, r)
    assert degrees == [g if fallback else 1]
    return accepted


@pytest.mark.parametrize("kind", ["diagonal", "inner", "composed"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_certificate_agrees_with_the_sweep_on_circle_lifts(degrees, n, kind):
    action, fs = circle_system(n)
    beta = automorphism(action, kind)
    units = PartialIsometryFamily.units(fs)
    v2 = updated_witness(fs, beta, units, solve_coboundary(extract_cocycle(fs, beta, units, 2), 2))
    assert hypotheses_hold(fs, beta, v2, 2)
    assert lift_verdict(degrees, fs, beta, v2)
    assert lift_verdict(degrees, fs, beta, units)
    # a unitary monomial u_k at sigma = 1 keeps the hypotheses, so the certificate
    # decides, and rejects it (at n = 2 by the cocycle law, as B0 is commutative)
    shift = PolyMatrix.from_scalar(TwistedPoly.generator(action.twist, action.base[-1]))
    bad = PartialIsometryFamily(action, lambda char: shift if char == (1,) else units(char))
    assert not lift_verdict(degrees, fs, beta, bad)


@pytest.mark.parametrize("kind", ["identity", "diagonal"])
def test_the_certificate_accepts_the_d2_units(degrees, q3_action, kind):
    fs = from_cleft(q3_action, pythagorean_column(q3_action))
    beta = (Automorphism.identity(q3_action) if kind == "identity"
            else automorphism(q3_action, "diagonal"))
    v = PartialIsometryFamily.units(fs)
    assert hypotheses_hold(fs, beta, v, 2)
    assert lift_verdict(degrees, fs, beta, v)


def test_the_certificate_rejects_the_bad_witness(degrees, q3_system, q3_action, q3_gens):
    # test_bad_witness_is_rejected's witness: u1 is unitary, so the certificate decides
    one = TwistedPoly.one(q3_action.twist)
    v = PartialIsometryFamily(
        q3_action, lambda char: PolyMatrix.from_scalar(q3_gens[0] if char == (1,) else one)
    )
    beta = Automorphism.identity(q3_action)
    assert hypotheses_hold(q3_system, beta, v, 2)
    assert not lift_verdict(degrees, q3_system, beta, v)


def test_a_witness_that_is_no_partial_isometry_falls_back(degrees, q3_system, q3_action):
    two = PolyMatrix.from_scalar(TwistedPoly.scalar(q3_action.twist, QQi(2)))
    beta = Automorphism.identity(q3_action)
    assert not lift_verdict(degrees, q3_system, beta, constant_witness(q3_action, two))
    assert degrees == [2]


@pytest.mark.parametrize("which", ["units", "updated"])
def test_degree_zero_falls_back(degrees, q3_system, q3_action, which):
    # the hypotheses hold for both witnesses, but degree 0 checks only b = 1
    beta = automorphism(q3_action, "diagonal")
    units = PartialIsometryFamily.units(q3_system)
    v = units if which == "units" else updated_witness(
        q3_system, beta, units, solve_coboundary(extract_cocycle(q3_system, beta, units, 2), 2)
    )
    assert hypotheses_hold(q3_system, beta, v, 2)
    lift_verdict(degrees, q3_system, beta, v, g=0)
    assert degrees == [0]


def _one_sided(q3_action, adjoint: bool) -> PolyMatrix:
    """V = s t* for the columns s = (3/5, 4/5) and t = (0, 1) (u^sigma cancels):
    V V* = s s* is gamma_sigma(1) but V* V = t t* is not; V* the other way."""
    tw = q3_action.twist
    c = [TwistedPoly.scalar(tw, QQi(x)) for x in (0, Fraction(3, 5), Fraction(4, 5))]
    v = PolyMatrix(tw, [[c[0], c[1]], [c[0], c[2]]])
    return v.adjoint() if adjoint else v


@pytest.mark.parametrize("adjoint", [False, True], ids=["v*v", "vv*"])
def test_a_one_sided_partial_isometry_falls_back(degrees, q3_action, adjoint):
    fs = from_cleft(q3_action, pythagorean_column(q3_action))
    v = constant_witness(q3_action, _one_sided(q3_action, adjoint))
    unit, vs = fs.gamma((1,)).unit(), v((1,))
    # exactly one of the two partial-isometry hypotheses fails
    assert (vs * vs.adjoint() == unit) != (vs.adjoint() * vs == unit)
    lift_verdict(degrees, fs, Automorphism.identity(q3_action), v)
    assert degrees == [2]


def test_a_witness_of_the_wrong_size_is_named_as_before(q3_action):
    # the hypotheses read v(sigma) at verify_conjugacy's size, in its order
    fs = from_cleft(q3_action, pythagorean_column(q3_action))
    v = constant_witness(q3_action, PolyMatrix.identity(q3_action.twist, 1))
    with pytest.raises(ValueError, match=wrong_size("-2")) as err:
        LiftedAutomorphism(fs, Automorphism.identity(q3_action), v, 2, 2)
    assert not isinstance(err.value, WitnessError)


def test_a_relation_breaking_transport_falls_back(degrees, q3_system, q3_action, q3_gens):
    # an unchecked forward leg u1 <-> u2 sends gamma_sigma to a gamma' that breaks
    # u1 u2 = lambda u2 u1 (lambda^2 != 1 on the standard angles)
    u1, u2, _ = q3_gens
    beta = Automorphism(
        AlgebraMorphism(q3_action, {0: u2, 1: u1}), AlgebraMorphism.identity(q3_action), check=False
    )
    fs2 = apply_automorphism(q3_system, beta)
    assert not fs2.gamma((1,)).respects_relations()
    units = PartialIsometryFamily.units(q3_system)
    assert not lift_verdict(degrees, q3_system, beta, units)
    assert degrees == [2]


# ---------------------------------------------------------------------------
# the check, one hypothesis at a time
# ---------------------------------------------------------------------------


@pytest.fixture
def corner(q3_action):
    """gamma_1 of the Pythagorean system, its unit P and the complement I - P."""
    g = from_cleft(q3_action, pythagorean_column(q3_action)).gamma((1,))
    p = g.unit()
    return g, p, PolyMatrix.identity(q3_action.twist, 2) - p


def test_the_pythagorean_gamma_passes_with_a_proper_projection(corner):
    g, p, q = corner
    assert g.respects_relations()
    assert p * p == p and not p.is_zero() and not q.is_zero()


def test_a_one_sided_inverse_fails_the_check(q3_action, corner):
    # inv' = inv + Q J P: u1 u1^-1 still maps to P, u1^-1 u1 no longer does.  With
    # absorption on both sides a one-sided inverse would be two-sided (matrices
    # over the domain B0 sit in matrices over its division ring), so inv' leaves
    # the corner too
    g, p, q = corner
    tw = q3_action.twist
    zero, one = TwistedPoly.zero(tw), TwistedPoly.one(tw)
    swap = PolyMatrix(tw, [[zero, one], [one, zero]])
    inv = dict(g.inv_images)
    inv[0] = inv[0] + q * swap * p
    bad = MatrixMorphism(q3_action, p, g.images, inv)
    assert g.images[0] * inv[0] == p and inv[0] * g.images[0] != p
    assert not bad.respects_relations()


def test_a_unit_that_is_not_idempotent_fails_the_check(corner):
    # with no base generator the unit is the check's only hypothesis; with
    # one, absorption and u_k u_k^-1 = unit already make the unit idempotent
    g, p, q = corner
    no_base = TorusAction(TW3, (0, 1, 2))
    assert MatrixMorphism(no_base, p, {}, {}).respects_relations()
    double = p.scaled(Phase.coeff(TW3.nslots, QQi(2)))
    assert double * double != double
    assert not MatrixMorphism(no_base, double, {}, {}).respects_relations()


def test_an_image_the_unit_does_not_absorb_fails_the_check(q3_action, corner):
    # u1 -> gamma(u1) + Q keeps the exchange relations and both inverse products,
    # since Q P = P Q = 0, but P no longer absorbs it on either side, and apply
    # stops being multiplicative: apply(1) apply(u1) = P gamma(u1) + 0
    g, p, q = corner
    images = dict(g.images)
    images[0] = images[0] + q
    bad = MatrixMorphism(q3_action, p, images, g.inv_images)
    inv = g.inv_images[0]
    assert images[0] * inv == p and inv * images[0] == p
    assert p * images[0] != images[0] and images[0] * p != images[0]
    assert not bad.respects_relations()
    tw = q3_action.twist
    u1 = TwistedPoly.generator(tw, 0)
    assert bad.apply(TwistedPoly.one(tw)) * bad.apply(u1) != bad.apply(u1)


# ---------------------------------------------------------------------------
# a morphism that passes the check is multiplicative
# ---------------------------------------------------------------------------

Q3 = TorusAction(TW3, (2,))


def _morphisms():
    fs = from_cleft(Q3)
    d2 = from_cleft(Q3, pythagorean_column(Q3))
    beta = automorphism(Q3, "composed")
    moved = apply_automorphism(fs, beta)
    return [fs.gamma((1,)), fs.gamma((-2,)), d2.gamma((1,)), d2.gamma((-2,)),
            moved.gamma((2,)), apply_automorphism(d2, beta).gamma((1,)), beta.fwd, beta.inv]


MORPHISMS = _morphisms()


def _to_base(p: TwistedPoly) -> TwistedPoly:
    """p with its acting exponent set to 0: an element of the fixed algebra."""
    out = TwistedPoly.zero(TW3)
    for a, c in p.terms.items():
        out = out + TwistedPoly(TW3, {a[:2] + (0,): c})
    return out


BASE = polys(TW3).map(_to_base)


@SETTINGS
@given(st.sampled_from(MORPHISMS), BASE, BASE)
def test_a_morphism_that_passes_the_check_is_multiplicative(m, x, y):
    assert m.respects_relations()
    assert m.apply(x * y) == m.apply(x) * m.apply(y)
