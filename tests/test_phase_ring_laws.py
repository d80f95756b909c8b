"""Phase-ring laws: one-term data decided without forming the matrices.

``verify_axioms`` decides its coaction intertwining and cocycle identity,
and ``verify_cocycle`` its cocycle identity, in the phase ring when every
side is one term c u^a (``factor_system`` module docstring, one-term
lane).  Each report here is compared with one built in this file from the
``PolyMatrix`` and polynomial sides the laws are written with: the same
check count, the same verdict and the same counterexamples, every one of
them kept (``MAX_FAILURES`` is lifted), so an identity the lane decides
wrongly anywhere in the box fails here.  The systems cover rank-1 and
rank-2 generator systems, scalar, monomial and two-term omega overrides,
two monomial overrides whose one-term factors fail to commute (so the
order of each product in the law is seen), a coaction that is not a
homomorphism, the d = 2 Pythagorean system, the generator system with a
unit 1 built apart from ``tw.one`` and with the unit [[0]], which the lane
takes whatever the unit, and cocycles of scalars and
of central monomials, symmetric and antisymmetric, with trivial and
nontrivial twisting.
"""

from fractions import Fraction

import pytest

from nctorus import report
from nctorus.algebra import PolyMatrix, TwistedPoly, TwistMatrix
from nctorus.cli import parse_synthetic_cocycle
from nctorus.cohomology import TwoCocycle, WitnessError, extract_cocycle, verify_cocycle
from nctorus.dynamics import TorusAction, base_monomials, char_add, char_zero, resolve_chars
from nctorus.factor_system import (
    Automorphism,
    FactorSystem,
    MatrixMorphism,
    PartialIsometryFamily,
    frohlich_morphism,
    from_cleft,
    verify_axioms,
)
from nctorus.phases import Phase, QQi
from nctorus.report import Law, LawGroup, sweep

from conftest import pythagorean_column
from strategies import TW3

# the four-generator twist of tests/golden/rank2_corrupted.config.json
TW4 = TwistMatrix([
    ["0", "1/4", "-2/5", "1/3"],
    ["-1/4", "0", "1/6", "-3/7"],
    ["2/5", "-1/6", "0", "5/12"],
    ["-1/3", "3/7", "-5/12", "0"],
])
TW2 = TwistMatrix([["0", "1/5"], ["-1/5", "0"]])


@pytest.fixture(autouse=True)
def every_failure_kept(monkeypatch):
    monkeypatch.setattr(report, "MAX_FAILURES", 10**6)


def _summary(rep) -> tuple:
    return rep.checks, rep.passed, [str(f) for f in rep.failures]


# ---------------------------------------------------------------------------
# the laws on their PolyMatrix and polynomial sides
# ---------------------------------------------------------------------------


def reference_axioms(fs: FactorSystem, char_range, gen_degree):
    """``verify_axioms``' table with every law on its PolyMatrix sides."""
    action = fs.action
    tw = action.twist
    zero = char_zero(action.d)

    def generator_row(k):
        u = TwistedPoly.generator(tw, k)
        return Law("normalization gamma_0 = id",
                   lambda g0: (g0.apply(u), PolyMatrix.from_scalar(u)), {"generator": tw.gen_name(k)})

    def per_pair(sigma, pi_):
        om = fs.omega(sigma, pi_)
        return fs.gamma(sigma), fs.gamma(pi_), om, om.adjoint(), fs.gamma(char_add(sigma, pi_))

    def cocycle_identity(sigma, pi_, gs, om_sp, sp, rho):
        lhs = om_sp.ampliate(fs.dim(rho)) * fs.omega(sp, rho)
        rhs = gs.apply_to_matrix(fs.omega(pi_, rho)) * fs.omega(sigma, char_add(pi_, rho))
        return lhs, rhs

    groups = (
        LawGroup(0, lambda: (fs.gamma(zero),), tuple(generator_row(k) for k in action.base)),
        LawGroup(1, lambda sigma: (sigma, fs.gamma(sigma).unit()), (
            Law("normalization omega(0, sigma) = gamma_sigma(1)",
                lambda sigma, unit: (fs.omega(zero, sigma), unit)),
            Law("normalization omega(sigma, 0) = gamma_sigma(1)",
                lambda sigma, unit: (fs.omega(sigma, zero), unit)),
        )),
        LawGroup(2, per_pair, (
            Law("range projection omega* omega = gamma_{sigma+pi}(1)",
                lambda gs, gp, om, oma, gsp: (oma * om, gsp.unit())),
            Law("range projection omega omega* = gamma_sigma(gamma_pi(1))",
                lambda gs, gp, om, oma, gsp: (om * oma, gs.apply_to_matrix(gp.unit()))),
        ), (
            Law("coaction intertwining",
                lambda gs, gp, om, oma, gsp, b: (
                    om * gsp.apply(b), gs.apply_to_matrix(gp.apply(b)) * om)),
        )),
        LawGroup(3, lambda sigma, pi_: (sigma, pi_, fs.gamma(sigma), fs.omega(sigma, pi_),
                                        char_add(sigma, pi_)),
                 (), (Law("cocycle identity", cocycle_identity),)),
    )
    return sweep("factor-system-axioms", groups, resolve_chars(action, char_range),
                 base_monomials(action, gen_degree))


def reference_cocycle(u: TwoCocycle, char_range):
    """``verify_cocycle``'s table with the identity on its polynomial sides."""
    action = u.action
    zero = char_zero(action.d)

    def cocycle_identity(sigma, pi_, delta_sigma, u_sp, sp, rho):
        lhs = u.value(sp, rho) * u_sp
        rhs = u.value(sigma, char_add(pi_, rho)) * delta_sigma.apply(u.value(pi_, rho))
        return lhs, rhs

    def checked(value):
        return True, True

    groups = (
        LawGroup(0, point=(
            Law("normalization u(0,0) = 1",
                lambda: (u.value(zero, zero), TwistedPoly.one(action.twist))),
        )),
        LawGroup(2, lambda sigma, pi_: (u.value(sigma, pi_),),
                 (Law("centrality", checked), Law("unitarity", checked))),
        LawGroup(3, lambda sigma, pi_: (sigma, pi_, u.delta(sigma), u.value(sigma, pi_),
                                        char_add(sigma, pi_)),
                 (), (Law("cocycle identity", cocycle_identity),)),
    )
    return sweep("two-cocycle-laws", groups, resolve_chars(action, char_range), ())


# ---------------------------------------------------------------------------
# factor systems
# ---------------------------------------------------------------------------


def _q(tw, power: int, slot: int = 0) -> Phase:
    """q_slot^power, the shared unit for power 0."""
    return Phase.unit(tw.nslots, slot, power) if power else Phase.one(tw.nslots)


def _scalar(tw, c) -> PolyMatrix:
    return PolyMatrix.from_scalar(TwistedPoly.scalar(tw, c))


def drifting_system(action: TorusAction) -> FactorSystem:
    """gamma_sigma(u_k) = q12^g(sigma) u_k for g(s) = s (s + 1), with omega the
    scalar q12^(g(sigma+pi) - g(sigma) - g(pi)).

    g is not additive, so the coaction law fails wherever omega is not 1
    (a scalar omega cancels from it); the cocycle identity holds.  The law
    with omega dropped from one side, or with gamma_sigma(b) for
    gamma_pi(b), holds at some of those points."""
    tw = action.twist

    def g(char):
        return char[0] * (char[0] + 1)

    def gamma_fn(char):
        images, inv_images = ({
            k: PolyMatrix.from_scalar(TwistedPoly.generator(tw, k, p).scale(_q(tw, p * g(char))))
            for k in action.base
        } for p in (1, -1))
        return MatrixMorphism(action, PolyMatrix.identity(tw, 1), images, inv_images)

    def omega_fn(sigma, pi_):
        return _scalar(tw, _q(tw, g(char_add(sigma, pi_)) - g(sigma) - g(pi_)))

    return FactorSystem(action, gamma_fn, omega_fn)


def _overridden(fs: FactorSystem, *overrides) -> FactorSystem:
    for sigma, pi_, value in overrides:
        fs = fs.with_omega_override(sigma, pi_, value)
    return fs


def _reordered_override(y_first: bool) -> FactorSystem:
    """omega((1,), (1,)) = u1, omega((2,), (1,)) = u2 and omega((1,), (2,)) one of
    u1 u2 g and g u2 u1, where g = gamma_(1)(u1)^-1.

    The one-term factors of the cocycle identity at sigma = pi = rho = (1,)
    do not commute.  Written in the law's order the identity fails there;
    with the right side's product reversed it holds for u1 u2 g, and with
    the left side's reversed it holds for g u2 u1, so a lane that forms
    either product in the other order misses that counterexample."""
    fs = from_cleft(TorusAction(TW3, (2,)))
    u1, u2 = TwistedPoly.generator(TW3, 0), TwistedPoly.generator(TW3, 1)
    g = fs.gamma((1,)).apply(u1).entries[0][0].inverse_monomial()
    value = u1 * u2 * g if y_first else g * u2 * u1
    return _overridden(fs, ((1,), (1,), PolyMatrix.from_scalar(u1)),
                       ((2,), (1,), PolyMatrix.from_scalar(u2)),
                       ((1,), (2,), PolyMatrix.from_scalar(value)))


def _with_unit(entry: TwistedPoly) -> FactorSystem:
    """from_cleft on q3 with every gamma_sigma's generator images kept and its
    unit replaced by [[entry]]; omega is kept too."""
    action = TorusAction(TW3, (2,))
    fs = from_cleft(action)

    def gamma_fn(char):
        g = fs.gamma(char)
        return MatrixMorphism(action, PolyMatrix.from_scalar(entry), g.images, g.inv_images)

    return FactorSystem(action, gamma_fn, fs.omega)


def _systems():
    q3 = TorusAction(TW3, (2,))
    q3_rank2 = TorusAction(TW3, (1, 2))
    tw = TW3
    u1, u2 = TwistedPoly.generator(tw, 0), TwistedPoly.generator(tw, 1)
    i = QQi(0, 1)
    return {
        "rank1": (lambda: from_cleft(q3), 2),
        "rank1-n4": (lambda: from_cleft(TorusAction(TW4, (1,))), 2),
        "rank2-q3": (lambda: from_cleft(q3_rank2), 1),
        "rank2-n4": (lambda: from_cleft(TorusAction(TW4, (0, 2))), 1),
        "scalar-override": (lambda: _overridden(
            from_cleft(q3), ((1,), (-1,), _scalar(tw, i)), ((2,), (1,), _scalar(tw, _q(tw, 1, 2)))), 2),
        "rank2-scalar-override": (lambda: _overridden(
            from_cleft(TorusAction(TW4, (0, 2))),
            ((1, -1), (0, 1), _scalar(TW4, Phase(TW4.nslots, {
                ((0, 1, 0, 0, -1, 0), 0): QQi(Fraction(3, 5), Fraction(4, 5))})))), 1),
        "monomial-override": (lambda: _overridden(
            from_cleft(q3), ((1,), (1,), PolyMatrix.from_scalar(u1)),
            ((-1,), (2,), PolyMatrix.from_scalar(u2.inverse_monomial().scale(_q(tw, 1, 0)))),
            ((2,), (-1,), PolyMatrix.from_scalar(u1 * u2))), 2),
        "rank2-monomial-override": (lambda: _overridden(
            from_cleft(q3_rank2), ((1, 0), (0, 1), PolyMatrix.from_scalar(u1.scale(i)))), 1),
        "two-term-override": (lambda: _overridden(
            from_cleft(q3), ((1,), (1,), PolyMatrix.from_scalar(u1 + u2))), 2),
        # pairs outside the box, read only as omega(sigma+pi, rho) and omega(sigma, pi+rho),
        # each the mirror of a pair read the other way
        "out-of-box-override": (lambda: _overridden(
            from_cleft(q3), ((3,), (-1,), _scalar(tw, i)), ((1,), (3,), PolyMatrix.from_scalar(u1))), 2),
        "reordered-override-u1u2g": (lambda: _reordered_override(True), 1),
        "reordered-override-gu2u1": (lambda: _reordered_override(False), 1),
        "drifting-coaction": (lambda: drifting_system(q3), 2),
        "pythagorean": (lambda: from_cleft(q3, pythagorean_column(q3)), 1),
        # a 1 equal to tw.one but built apart from it, and the unit [[0]]
        "unit-built-apart": (lambda: _with_unit(TwistedPoly(tw, {(0,) * tw.n: Phase.one(tw.nslots)})), 2),
        "zero-unit": (lambda: _with_unit(TwistedPoly.zero(tw)), 2),
    }


SYSTEMS = _systems()
# systems whose laws fail somewhere: the comparison then covers counterexamples
FAILING = {"scalar-override", "rank2-scalar-override", "monomial-override",
           "rank2-monomial-override", "two-term-override", "out-of-box-override",
           "reordered-override-u1u2g", "reordered-override-gu2u1", "drifting-coaction", "zero-unit"}


@pytest.mark.parametrize("name", SYSTEMS)
def test_axioms_report_matches_the_matrix_sides(name):
    build, char_range = SYSTEMS[name]
    got = verify_axioms(build(), char_range, 2)
    want = reference_axioms(build(), char_range, 2)

    assert _summary(got) == _summary(want)
    assert want.passed == (name not in FAILING)


def test_a_failing_omega_raises_at_the_identitys_first_read():
    # omega((4,), (2,)) and omega((2,), (4,)) lie outside the box and are first read,
    # both, by the identity at sigma = pi = rho = (2,), in that order
    q3 = TorusAction(TW3, (2,))
    base = from_cleft(q3)

    def omega_fn(sigma, pi_):
        if (sigma, pi_) in (((4,), (2,)), ((2,), (4,))):
            raise ValueError(f"no omega at {(sigma, pi_)}")
        return base.omega(sigma, pi_)

    errors = []
    for verify in (verify_axioms, reference_axioms):
        with pytest.raises(ValueError) as exc:
            verify(FactorSystem(q3, base.gamma, omega_fn, base.isometries), 2, 2)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == "no omega at ((4,), (2,))"


@pytest.mark.parametrize("name", ["rank1", "rank1-n4", "rank2-q3", "rank2-n4", "drifting-coaction",
                                  "unit-built-apart"])
def test_the_lane_decides_every_one_term_identity(monkeypatch, name):
    # once per pair the range projection applies gamma_sigma to gamma_pi(1); every
    # coaction and cocycle identity whose one-term sides agree forms no matrix
    build, char_range = SYSTEMS[name]
    fs = build()
    calls = []
    apply_to_matrix = MatrixMorphism.apply_to_matrix

    def counting(self, m):
        calls.append(m)
        return apply_to_matrix(self, m)

    monkeypatch.setattr(MatrixMorphism, "apply_to_matrix", counting)
    rep = verify_axioms(fs, char_range, 2)
    pairs = len(resolve_chars(fs.action, char_range)) ** 2
    failing = sum(f.law == "coaction intertwining" for f in rep.failures)
    assert len(calls) == pairs + failing


# ---------------------------------------------------------------------------
# two-cocycles
# ---------------------------------------------------------------------------


def _synthetic(matrix):
    action = TorusAction(TW2, (0, 1))
    return parse_synthetic_cocycle(action, {"slot": [1, 2], "bilinear_exponents": matrix})


def _central_monomials(twisted: bool):
    """u(sigma, pi) = u1^(sigma_1 pi_2) on the rank-2 action of q3, whose B0 is
    commutative; twisted by the Frohlich morphisms of the generator columns,
    or by the identity."""
    action = TorusAction(TW3, (1, 2))
    fs = from_cleft(action)

    def fn(sigma, pi_):
        return TwistedPoly.generator(TW3, 0, sigma[0] * pi_[1])

    return TwoCocycle(action, fn, (lambda c: frohlich_morphism(fs, c)) if twisted else None)


def _extracted(witness_power: int):
    """The obstruction cocycle of the identity on the rank-2 action of q3 with
    the witness v(sigma) = u1^(witness_power sigma_1): scalar values for 0,
    central monomials otherwise."""
    action = TorusAction(TW3, (1, 2))
    fs = from_cleft(action)
    v = PartialIsometryFamily(action, lambda c: PolyMatrix.from_scalar(
        TwistedPoly.generator(TW3, 0, witness_power * c[0])))
    return extract_cocycle(fs, Automorphism.identity(action), v, 1)


def _diagonal_extracted():
    action = TorusAction(TW3, (1, 2))
    fs = from_cleft(action)
    beta = Automorphism.diagonal(action, {0: Phase.coeff(TW3.nslots, QQi(0, 1))})
    return extract_cocycle(fs, beta, PartialIsometryFamily.units(fs), 1)


def _corrupted(base, key, value):
    def fn(sigma, pi_):
        return value if (sigma, pi_) == key else base.value(sigma, pi_)

    return TwoCocycle(base.action, fn, base.delta)


COCYCLES = {
    "symmetric": (lambda: _synthetic([[2, 1], [1, 3]]), 2),
    "antisymmetric": (lambda: _synthetic([[2, 1], [-1, 3]]), 2),
    "corrupted-symmetric": (lambda: _corrupted(
        _synthetic([[2, 1], [1, 3]]), ((1, 0), (0, 1)), TwistedPoly.scalar(TW2, QQi(0, 1))), 1),
    "central-monomials": (lambda: _central_monomials(False), 1),
    "twisted-central-monomials": (lambda: _central_monomials(True), 1),
    "extracted-scalars": (_diagonal_extracted, 1),
    "extracted-central": (lambda: _extracted(1), 1),
    "corrupted-extracted": (lambda: _corrupted(
        _extracted(1), ((1, 1), (0, -1)), TwistedPoly.generator(TW3, 0)), 1),
}
FAILING_COCYCLES = {"corrupted-symmetric", "twisted-central-monomials", "corrupted-extracted"}


@pytest.mark.parametrize("name", COCYCLES)
def test_cocycle_report_matches_the_polynomial_sides(name):
    build, char_range = COCYCLES[name]
    got = verify_cocycle(build(), char_range)
    want = reference_cocycle(build(), char_range)

    assert _summary(got) == _summary(want)
    assert want.passed == (name not in FAILING_COCYCLES)


def test_a_value_that_fails_its_check_raises_as_before():
    # u(0, 1) is read by the identity at (0, 0, 1) before any pair reaches it
    base = _synthetic([[2, 1], [1, 3]])
    bad = TwistedPoly.scalar(TW2, QQi(2))
    errors = []
    for verify in (verify_cocycle, reference_cocycle):
        with pytest.raises(WitnessError) as exc:
            verify(_corrupted(base, ((1, 1), (-1, 0)), bad), 1)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == "cocycle value at ((1, 1), (-1, 0)) is not unitary"


def test_the_cocycle_identity_raises_at_its_first_read():
    # u((2, 2), (1, 1)) and u((1, 1), (2, 2)) lie outside the box and are first read,
    # both, by the identity at sigma = pi = rho = (1, 1), as u(sigma+pi, rho) and
    # u(sigma, pi+rho), in that order
    base = _synthetic([[2, 1], [1, 3]])
    bad = TwistedPoly.scalar(TW2, QQi(2))

    def fn(sigma, pi_):
        return bad if (sigma, pi_) in (((2, 2), (1, 1)), ((1, 1), (2, 2))) else base.value(sigma, pi_)

    errors = []
    for verify in (verify_cocycle, reference_cocycle):
        with pytest.raises(WitnessError) as exc:
            verify(TwoCocycle(base.action, fn, base.delta), 1)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == "cocycle value at ((2, 2), (1, 1)) is not unitary"


def test_a_value_outside_the_fixed_algebra_is_refused_by_name():
    # B0 of TW2 with both coordinates acting has no generator, so u1 commutes with
    # all of it; it is refused as a value, not applied by Delta_sigma outside B0
    action = TorusAction(TW2, (0, 1))
    u1 = TwistedPoly.generator(TW2, 0)

    def build():
        return TwoCocycle(action, lambda sigma, pi_: u1 if (sigma, pi_) == ((1, 0), (0, 1)) else TW2.one)

    message = "cocycle value at ((1, 0), (0, 1)) leaves the fixed algebra"
    with pytest.raises(WitnessError) as exc:
        verify_cocycle(build(), 1)
    assert str(exc.value) == message
    with pytest.raises(WitnessError) as exc:
        build().value((1, 0), (0, 1))
    assert str(exc.value) == message
