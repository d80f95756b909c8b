import gc
import random
import weakref
from fractions import Fraction

import pytest

from nctorus.algebra import PolyMatrix, TwistedPoly, TwistMatrix
from nctorus.cohomology import (
    LiftedAutomorphism,
    Obstruction,
    TwoCocycle,
    WitnessError,
    extract_cocycle,
    lift_via_cohomology,
    pointwise_ratio,
    solve_coboundary,
    trivialize,
    updated_witness,
    verify_cocycle,
)
from nctorus.dynamics import TorusAction, char_add, char_box, grade, is_equivariant
from nctorus.factor_system import (
    Automorphism,
    PartialIsometryFamily,
    apply_automorphism,
    frohlich_morphism,
    from_cleft,
)
from nctorus.phases import Phase, QQi
from nctorus.q3torus import all_weight_monomials, standard_angles, twist3

from conftest import (
    pythagorean_column,
    random_base_poly,
    random_poly,
    unimodular_phase,
    wrong_size,
)


@pytest.fixture()
def one(q3_twist):
    return TwistedPoly.one(q3_twist)


def constant_witness(fs):
    return PartialIsometryFamily.units(fs)


def central_scalar_witness(action, fn):
    tw = action.twist

    def wrapped(char):
        if char == (0,) * action.d:
            return PolyMatrix.from_scalar(TwistedPoly.one(tw))
        return PolyMatrix.from_scalar(TwistedPoly.scalar(tw, fn(char)))

    return PartialIsometryFamily(action, wrapped)


def diagonal_beta(action, seed):
    rng = random.Random(seed)
    return Automorphism.diagonal(
        action, {k: unimodular_phase(rng, action.twist.nslots) for k in action.base}
    )


class TestExtraction:
    def test_identity_collapses(self, q3_system, q3_action, one):
        u = extract_cocycle(
            q3_system, Automorphism.identity(q3_action), constant_witness(q3_system), 2
        )
        for s in char_box(1, 2):
            for p in char_box(1, 2):
                assert u.value(s, p) == one

    def test_a_system_without_isometries_is_refused(self, q3_system, q3_action):
        # a transported system keeps no isometry family; the identity with the
        # witness gamma_sigma(1) passes the conjugacy check, so the refusal raises
        fs = apply_automorphism(q3_system, diagonal_beta(q3_action, 3))
        with pytest.raises(ValueError, match="cocycle extraction requires an isometry realization"):
            extract_cocycle(fs, Automorphism.identity(q3_action), constant_witness(fs), 1)

    def test_diagonal_beta_collapses(self, q3_system, q3_action, one):
        u = extract_cocycle(q3_system, diagonal_beta(q3_action, 5), constant_witness(q3_system), 2)
        assert all(
            u.value(s, p) == one for s in char_box(1, 2) for p in char_box(1, 2)
        )

    def test_inner_beta_collapses(self, q3_system, q3_action, q3_gens, one):
        beta = Automorphism.inner(q3_action, q3_gens[0])
        u = extract_cocycle(q3_system, beta, constant_witness(q3_system), 2)
        assert all(
            u.value(s, p) == one for s in char_box(1, 2) for p in char_box(1, 2)
        )

    def test_invalid_witness_is_reported(self, q3_system, q3_action, q3_gens, one):
        def bad(char):
            return PolyMatrix.from_scalar(q3_gens[0] if char == (1,) else one)

        with pytest.raises(WitnessError) as err:
            extract_cocycle(
                q3_system,
                Automorphism.identity(q3_action),
                PartialIsometryFamily(q3_action, bad),
                2,
            )
        assert err.value.char == (1,)
        assert err.value.generator is not None

    def test_witness_of_the_wrong_size_is_named(self, q3_action):
        fs = from_cleft(q3_action, pythagorean_column(q3_action))
        one = PolyMatrix.identity(q3_action.twist, 1)
        v = PartialIsometryFamily(q3_action, lambda char: one)
        with pytest.raises(ValueError, match=wrong_size("-1")):
            lift_via_cohomology(fs, Automorphism.identity(q3_action), v, 1, 1)

    def test_witness_of_the_wrong_size_off_the_box_is_named(self, q3_action):
        # the cocycle law reads u(sigma + pi, rho), so values leave the box
        fs = from_cleft(q3_action, pythagorean_column(q3_action))
        units = PartialIsometryFamily.units(fs)
        one = PolyMatrix.identity(q3_action.twist, 1)
        v = PartialIsometryFamily(q3_action, lambda char: units(char) if abs(char[0]) < 2 else one)
        with pytest.raises(ValueError, match=wrong_size("-2")):
            lift_via_cohomology(fs, Automorphism.identity(q3_action), v, 1, 1)


class TestCocycleLaws:
    def test_trivial_cocycle(self, q3_action, q3_twist, one):
        u = TwoCocycle(q3_action, lambda s, p: one)
        assert verify_cocycle(u, 2).passed

    def test_extracted_cocycles_pass(self, q3_system, q3_action, q3_twist):
        rng = random.Random(8)
        beta = diagonal_beta(q3_action, 21)
        v = central_scalar_witness(
            q3_action, lambda char: unimodular_phase(random.Random(char[0] + 50), q3_twist.nslots)
        )
        u = extract_cocycle(q3_system, beta, v, 2)
        rep = verify_cocycle(u, 2)
        assert rep.passed, rep

    def test_bilinear_cocycle_passes_by_brute_force(self):
        # values q^(sigma_2 * pi_1) on the rank-two dual group
        tw = TwistMatrix([[0, Fraction(1, 5)], [Fraction(-1, 5), 0]])
        act = TorusAction(tw, (0, 1))
        q = Phase.unit(tw.nslots, 0)
        u = TwoCocycle(act, lambda s, p: TwistedPoly.scalar(tw, q ** (s[1] * p[0])))
        assert verify_cocycle(u, 2).passed
        # independent check of the identity by exponent arithmetic
        for s in char_box(2, 1):
            for p in char_box(2, 1):
                for r in char_box(2, 1):
                    lhs = (s[1] + p[1]) * r[0] + s[1] * p[0]
                    rhs = s[1] * (p[0] + r[0]) + p[1] * r[0]
                    assert lhs == rhs

    def test_defective_values_are_flagged(self, q3_action, q3_twist, q3_gens, one):
        u = TwoCocycle(
            q3_action, lambda s, p: one if (s, p) != ((1,), (1,)) else one + q3_gens[0]
        )
        with pytest.raises(ValueError):
            u.value((1,), (1,))

    @pytest.mark.parametrize("verdict", ["central", "unitary"])
    def test_a_failing_value_stops_the_sweep(self, q3_action, q3_gens, one, verdict):
        # the sweep reads every value once, and the value's own check raises
        bad = one + q3_gens[0] if verdict == "central" else one.scale(QQi(2))
        u = TwoCocycle(q3_action, lambda s, p: bad if (s, p) == ((1,), (-1,)) else one)
        message = rf"cocycle value at \(\(1,\), \(-1,\)\) is not {verdict}"
        with pytest.raises(WitnessError, match=message):
            verify_cocycle(u, 1)

    def test_report_counts_every_law(self, q3_action, q3_twist, one):
        # normalization once, centrality and unitarity per pair, the identity per triple
        valid = verify_cocycle(TwoCocycle(q3_action, lambda s, p: one), 2)
        assert valid.passed and valid.checks == 1 + 2 * 5**2 + 5**3
        i = TwistedPoly.scalar(q3_twist, QQi(0, 1))
        u = TwoCocycle(q3_action, lambda s, p: i if (s, p) == ((1,), (1,)) else one)
        rep = verify_cocycle(u, 1)
        assert rep.checks == 1 + 2 * 3**2 + 3**3
        assert not rep.passed and {f.law for f in rep.failures} == {"cocycle identity"}


class TestSolveCoboundary:
    @pytest.mark.parametrize("coords", [(2,), (1, 2)])
    def test_solved_cocycle_is_freed_by_reference_counting(self, q3_twist, coords):
        # the staircase recursion holds no reference back to itself, so the
        # cocycle, its values and its system die with their last reference
        action = TorusAction(q3_twist, coords)
        fs = from_cleft(action)
        beta = diagonal_beta(action, 7)
        gc.disable()
        try:
            u = extract_cocycle(fs, beta, constant_witness(fs), 1)
            ref = weakref.ref(u)
            outcome = trivialize(u, 1)
            assert outcome.solved is not None
            del u, outcome
            assert ref() is None
        finally:
            gc.enable()

    def test_trivial_input(self, q3_action, one):
        u = TwoCocycle(q3_action, lambda s, p: one)
        cochain = solve_coboundary(u, 2)
        assert not isinstance(cochain, Obstruction)
        assert all(cochain.value((k,)) == one for k in range(-2, 3))

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_one_classes_always_vanish(self, q3_system, q3_action, q3_twist, seed):
        rng = random.Random(400 + seed)
        beta = diagonal_beta(q3_action, 600 + seed)
        phases = {k: unimodular_phase(rng, q3_twist.nslots) for k in range(-9, 10)}
        v = central_scalar_witness(q3_action, lambda char: phases[char[0]])
        u = extract_cocycle(q3_system, beta, v, 2)
        cochain = solve_coboundary(u, 2)
        assert not isinstance(cochain, Obstruction)
        for s in char_box(1, 2):
            for p in char_box(1, 2):
                want = (
                    u.delta(s).apply(cochain.value(p))
                    * cochain.value(s)
                    * cochain.value(tuple(a + b for a, b in zip(s, p))).star()
                )
                assert u.value(s, p) == want

    def test_rank_two_symmetric_class_solves(self):
        # q^(sigma_1 pi_1) is the coboundary of c(sigma) = q^(-binom(sigma_1, 2))
        tw = TwistMatrix([[0, Fraction(1, 5)], [Fraction(-1, 5), 0]])
        act = TorusAction(tw, (0, 1))
        q = Phase.unit(tw.nslots, 0)
        u = TwoCocycle(act, lambda s, p: TwistedPoly.scalar(tw, q ** (s[0] * p[0])))
        cochain = solve_coboundary(u, 2)
        assert not isinstance(cochain, Obstruction)
        for s in char_box(2, 2):
            for p in char_box(2, 2):
                want = (
                    cochain.value(p)
                    * cochain.value(s)
                    * cochain.value(tuple(a + b for a, b in zip(s, p))).star()
                )
                assert u.value(s, p) == want

    def test_rank_two_obstruction_is_certified(self):
        tw = TwistMatrix([[0, Fraction(1, 5)], [Fraction(-1, 5), 0]])
        act = TorusAction(tw, (0, 1))
        q = Phase.unit(tw.nslots, 0)
        u = TwoCocycle(act, lambda s, p: TwistedPoly.scalar(tw, q ** (s[1] * p[0])))
        got = solve_coboundary(u, 2)
        assert isinstance(got, Obstruction)
        assert got.kind == "antisymmetric-class"
        sig, pi_ = got.witness
        ratio = u.value(sig, pi_) * u.value(pi_, sig).star()
        assert ratio == got.residual
        assert not got.residual == TwistedPoly.one(tw)
        # the canonical asymmetric pair has ratio exactly q
        assert u.value((1, 0), (0, 1)) * u.value((0, 1), (1, 0)).star() == TwistedPoly.scalar(tw, q.invert())

    def test_rank_two_extraction_pipeline_solves(self):
        tw = TwistMatrix(
            [
                [0, Fraction(1, 5), Fraction(1, 7)],
                [Fraction(-1, 5), 0, Fraction(2, 7)],
                [Fraction(-1, 7), Fraction(-2, 7), 0],
            ]
        )
        act = TorusAction(tw, (0, 1))
        fs = from_cleft(act)
        rng = random.Random(6)
        beta = Automorphism.diagonal(act, {2: unimodular_phase(rng, tw.nslots)})
        table = {c: unimodular_phase(rng, tw.nslots) for c in char_box(2, 12)}
        one = PolyMatrix.from_scalar(TwistedPoly.one(tw))

        def vfn(char):
            if char == (0, 0):
                return one
            return PolyMatrix.from_scalar(TwistedPoly.scalar(tw, table[char]))

        v = PartialIsometryFamily(act, vfn)
        u = extract_cocycle(fs, beta, v, 1)
        assert verify_cocycle(u, 1).passed
        sol = solve_coboundary(u, 1)
        assert not isinstance(sol, Obstruction)

    @pytest.mark.xfail(
        strict=True,
        reason="the staircase candidate fixes c(e_j) = 1, which misses this "
        "coboundary when Delta moves the centre of B0 (ROADMAP M)",
    )
    def test_rank_two_coboundary_with_a_moving_centre_solves(self):
        # u = delta c with c(sigma) = u1^sigma_1 over B0 = <u1>, on which the
        # conjugation action of (0, 1) multiplies u1 by a q unit; today a
        # residual q13 (r = 1) or q13^4 (r = 2) is returned for this coboundary
        act = TorusAction(twist3(*standard_angles()), (1, 2))
        fs = from_cleft(act)

        def c(sigma):
            return TwistedPoly.generator(act.twist, 0, sigma[0])

        u = TwoCocycle(
            act,
            lambda s, p: u.delta(s).apply(c(p)) * c(s) * c(char_add(s, p)).star(),
            lambda s: frohlich_morphism(fs, s),
        )
        report = verify_cocycle(u, 1)
        assert report.passed and report.checks == 892
        assert not isinstance(solve_coboundary(u, 1), Obstruction)

    def test_non_cocycle_input_is_an_error(self, q3_action, q3_twist, one):
        u1 = TwistedPoly.scalar(q3_twist, Phase.unit(q3_twist.nslots, 0))
        u = TwoCocycle(q3_action, lambda s, p: u1 if s == (1,) else one)
        with pytest.raises(ValueError):
            solve_coboundary(u, 2)

    def test_two_witnesses_give_cohomologous_cocycles(self, q3_system, q3_action, q3_twist):
        beta = Automorphism.inner(q3_action, TwistedPoly.generator(q3_twist, 0))
        u_a = extract_cocycle(q3_system, beta, constant_witness(q3_system), 2)
        v_b = central_scalar_witness(q3_action, lambda char: Phase.unit(q3_twist.nslots, 1, -char[0]))
        u_b = extract_cocycle(q3_system, beta, v_b, 2)
        ratio = pointwise_ratio(u_a, u_b)
        assert verify_cocycle(ratio, 2).passed
        assert not isinstance(solve_coboundary(ratio, 2), Obstruction)


class TestMaterializedLift:
    def test_identity_lift(self, q3_system, q3_action, q3_gens):
        lift = LiftedAutomorphism(
            q3_system, Automorphism.identity(q3_action), constant_witness(q3_system), 2, 2
        )
        x = q3_gens[0] * q3_gens[2] + q3_gens[2].star()
        assert lift.apply(x) == x

    def test_diagonal_lift_values(self, q3_system, q3_action, q3_twist, q3_gens):
        w = {0: Phase.coeff(q3_twist.nslots, QQi(0, 1))}
        beta = Automorphism.diagonal(q3_action, w)
        lift = LiftedAutomorphism(q3_system, beta, constant_witness(q3_system), 2, 2)
        assert lift.apply(q3_gens[2]) == q3_gens[2]
        assert lift.apply(q3_gens[0]) == q3_gens[0].scale(QQi(0, 1))

    def test_pipeline_produces_verified_lift(self, q3_system, q3_action, q3_twist):
        rng = random.Random(9)
        beta = diagonal_beta(q3_action, 31)
        phases = {k: unimodular_phase(rng, q3_twist.nslots) for k in range(-9, 10)}
        v = central_scalar_witness(q3_action, lambda char: phases[char[0]])
        out = lift_via_cohomology(q3_system, beta, v, 2, 2)
        assert out.lifts
        lift = out.lifted
        corpus = []
        for k in (-1, 0, 1):
            corpus.extend(all_weight_monomials(q3_action, (k,), 1)[:4])
        for x in corpus[:6]:
            for y in corpus[:6]:
                assert lift.apply(x * y) == lift.apply(x) * lift.apply(y)
            assert lift.apply(x.star()) == lift.apply(x).star()

    def test_lift_is_degree_preserving_and_extends_beta(self, q3_system, q3_action, q3_twist):
        beta = diagonal_beta(q3_action, 77)
        out = lift_via_cohomology(q3_system, beta, constant_witness(q3_system), 2, 2)
        assert out.lifts
        rng = random.Random(10)
        for _ in range(6):
            x = random_poly(rng, q3_twist, 4, 2)
            g = grade(q3_action, x)
            lifted = out.lifted.apply_graded(g)
            for char, comp in lifted.components.items():
                assert is_equivariant(q3_action, comp, char)
        for _ in range(6):
            b = random_base_poly(rng, q3_action)
            assert out.lifted.apply(b) == beta.apply(b)

    def test_multiplicativity_on_random_graded_pairs(self, q3_system, q3_action, q3_twist):
        beta = Automorphism.inner(q3_action, TwistedPoly.generator(q3_twist, 1))
        out = lift_via_cohomology(q3_system, beta, constant_witness(q3_system), 2, 2)
        assert out.lifts
        rng = random.Random(11)
        for _ in range(6):
            x = random_poly(rng, q3_twist, 3, 1)
            y = random_poly(rng, q3_twist, 3, 1)
            assert out.lifted.apply(x * y) == out.lifted.apply(x) * out.lifted.apply(y)

    def test_diagonal_lift_equals_the_full_diagonal_automorphism(
        self, q3_system, q3_action, q3_twist
    ):
        # with the constant witness, the lift of a diagonal automorphism of
        # the fixed algebra is the diagonal automorphism of the whole
        # algebra fixing the acting generator: an independent oracle
        w0 = Phase.unit(q3_twist.nslots, 0, 1, QQi(0, 1))
        w1 = Phase.coeff(q3_twist.nslots, QQi(-1))
        beta = Automorphism.diagonal(q3_action, {0: w0, 1: w1})
        lift = LiftedAutomorphism(q3_system, beta, constant_witness(q3_system), 2, 2)

        def full_diagonal(x):
            out = TwistedPoly.zero(q3_twist)
            for exps, phase in x.terms.items():
                scale = (w0 ** exps[0]).mul(w1 ** exps[1])
                out = out + TwistedPoly.monomial(q3_twist, exps, phase.mul(scale))
            return out

        rng = random.Random(19)
        for _ in range(10):
            x = random_poly(rng, q3_twist, 5, 3)
            assert lift.apply(x) == full_diagonal(x)

    def test_a_system_without_isometries_is_not_lifted(self, q3_system, q3_action):
        fs = apply_automorphism(q3_system, diagonal_beta(q3_action, 3))
        with pytest.raises(ValueError, match="lifting requires an isometry realization"):
            LiftedAutomorphism(fs, Automorphism.identity(q3_action), constant_witness(fs), 1, 1)

    def test_bad_witness_is_rejected(self, q3_system, q3_action, q3_gens, one=None):
        one_poly = TwistedPoly.one(q3_gens[0].twist)

        def bad(char):
            return PolyMatrix.from_scalar(q3_gens[0] if char == (1,) else one_poly)

        with pytest.raises(WitnessError):
            LiftedAutomorphism(
                q3_system,
                Automorphism.identity(q3_action),
                PartialIsometryFamily(q3_action, bad),
                2,
                2,
            )

    def test_updated_witness_satisfies_full_conjugacy(self, q3_system, q3_action, q3_twist):
        from nctorus.factor_system import apply_automorphism, verify_conjugacy

        rng = random.Random(13)
        beta = diagonal_beta(q3_action, 99)
        phases = {k: unimodular_phase(rng, q3_twist.nslots) for k in range(-9, 10)}
        v = central_scalar_witness(q3_action, lambda char: phases[char[0]])
        u = extract_cocycle(q3_system, beta, v, 2)
        cochain = solve_coboundary(u, 2)
        v2 = updated_witness(q3_system, beta, v, cochain)
        rep = verify_conjugacy(q3_system, apply_automorphism(q3_system, beta), v2, 2, 2)
        assert rep.passed, rep
