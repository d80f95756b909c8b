import gc
import random
import weakref
from fractions import Fraction

import pytest

from nctorus.algebra import PolyMatrix, TwistedPoly, TwistMatrix, TwistMismatchError
from nctorus.derivations import Derivation, HFamily, LiftedDerivation
from nctorus.dynamics import TorusAction, cleft_generator
from nctorus.factor_system import (
    AlgebraMorphism,
    Automorphism,
    FactorSystem,
    IsometryFamily,
    MatrixMorphism,
    PartialIsometryFamily,
    ScopeError,
    apply_automorphism,
    frohlich_map,
    frohlich_morphism,
    from_cleft,
    isotypic_mul,
    verify_axioms,
    verify_conjugacy,
    verify_gauge_unitary,
)
from nctorus.geometry import make_module
from nctorus.phases import Phase, QQi
from nctorus.q3torus import twist3

from conftest import (
    pythagorean_column,
    random_base_poly,
    random_circle_action,
    unimodular_phase,
    wrong_size,
)


def q13(tw, power=1):
    return Phase.unit(tw.nslots, tw.slot(0, 2), power)


def q23(tw, power=1):
    return Phase.unit(tw.nslots, tw.slot(1, 2), power)


class TestFromCleft:
    def test_coaction_scales_the_base_generators(self, q3_system, q3_twist, q3_gens):
        u1, u2, _ = q3_gens
        for k in range(-4, 5):
            g = q3_system.gamma((k,))
            assert g.apply(u1).as_scalar() == u1.scale(q13(q3_twist, -k))
            assert g.apply(u2).as_scalar() == u2.scale(q23(q3_twist, -k))

    def test_cocycle_is_identically_one(self, q3_system, q3_twist):
        one = TwistedPoly.one(q3_twist)
        for k in range(-4, 5):
            for l in range(-4, 5):
                assert q3_system.omega((k,), (l,)).as_scalar() == one

    def test_trivial_action_edge_case(self):
        # no acting coordinates: only the zero character, identity data
        tw = TwistMatrix([[0, Fraction(1, 3)], [Fraction(-1, 3), 0]])
        act = TorusAction(tw, ())
        fs = from_cleft(act)
        u1 = TwistedPoly.generator(tw, 0)
        assert fs.gamma(()).apply(u1).as_scalar() == u1
        assert fs.omega((), ()).as_scalar() == TwistedPoly.one(tw)
        assert verify_axioms(fs, [()], 2).passed

    def test_non_isometric_column_is_rejected(self, q3_action, q3_twist):
        # s = (u3, u3)^T is equivariant, but s* s = 2: Ad s would not be unital
        def fn(char):
            gen = PolyMatrix.from_scalar(cleft_generator(q3_action, char))
            return gen if not any(char) else PolyMatrix(q3_twist, gen.entries * 2)

        fs = from_cleft(q3_action, IsometryFamily(q3_action, fn))
        assert fs.dim((0,)) == 1
        for _ in range(2):
            with pytest.raises(ValueError, match=r"at \(1,\) is not an isometry"):
                fs.gamma((1,))


class TestVerifyAxioms:
    def test_worked_example_passes(self, q3_system):
        rep = verify_axioms(q3_system, 3, 2)
        assert rep.passed
        assert rep.checks > 0

    def test_trivial_system_passes(self, q3_action):
        fs = from_cleft(q3_action)
        ident = IsometryFamily.from_cleft_generators(q3_action)
        assert verify_axioms(from_cleft(q3_action, ident), 1, 1).passed

    def test_injected_defect_is_detected(self, q3_system, q3_gens):
        bad = q3_system.with_omega_override(
            (1,), (1,), PolyMatrix.from_scalar(q3_gens[0])
        )
        rep = verify_axioms(bad, 2, 2)
        assert not rep.passed
        assert rep.failures
        where = rep.failures[0].where
        assert where.get("sigma") == "(1,)"

    @pytest.mark.parametrize("seed", range(6))
    def test_random_cleft_systems_pass(self, seed):
        rng = random.Random(200 + seed)
        action = random_circle_action(rng)
        rep = verify_axioms(from_cleft(action), 2, 2)
        assert rep.passed, rep

    def test_rank_two_action_passes(self):
        tw = TwistMatrix(
            [
                [0, Fraction(1, 5), Fraction(1, 7)],
                [Fraction(-1, 5), 0, Fraction(2, 7)],
                [Fraction(-1, 7), Fraction(-2, 7), 0],
            ]
        )
        fs = from_cleft(TorusAction(tw, (1, 2)))
        assert verify_axioms(fs, 1, 2).passed


class TestApplyAutomorphism:
    def test_identity_changes_nothing(self, q3_system, q3_action, q3_gens):
        fs2 = apply_automorphism(q3_system, Automorphism.identity(q3_action))
        for k in (-2, 0, 1):
            for g in q3_gens[:2]:
                assert fs2.gamma((k,)).apply(g) == q3_system.gamma((k,)).apply(g)
            assert fs2.omega((k,), (1,)) == q3_system.omega((k,), (1,))

    def test_diagonal_automorphism_fixes_the_system(self, q3_system, q3_action, q3_twist):
        w = {0: Phase.coeff(q3_twist.nslots, QQi(0, 1)), 1: q13(q3_twist, 2)}
        beta = Automorphism.diagonal(q3_action, w)
        fs2 = apply_automorphism(q3_system, beta)
        u1 = TwistedPoly.generator(q3_twist, 0)
        for k in (-1, 2):
            assert fs2.gamma((k,)).apply(u1) == q3_system.gamma((k,)).apply(u1)
            assert fs2.omega((k,), (2,)) == q3_system.omega((k,), (2,))
        assert verify_axioms(fs2, 2, 2).passed

    def test_inner_automorphism_fixes_the_coaction(self, q3_system, q3_action, q3_gens):
        beta = Automorphism.inner(q3_action, q3_gens[0])
        fs2 = apply_automorphism(q3_system, beta)
        for k in (-2, 1, 3):
            for g in q3_gens[:2]:
                assert fs2.gamma((k,)).apply(g) == q3_system.gamma((k,)).apply(g)

    def test_transport_preserves_the_axioms(self, q3_system, q3_action, q3_gens):
        beta = Automorphism.inner(q3_action, q3_gens[0] * q3_gens[1])
        assert verify_axioms(apply_automorphism(q3_system, beta), 2, 2).passed

    def test_the_automorphism_keeps_its_last_transport(self, q3_action, q3_twist):
        beta = Automorphism.diagonal(q3_action, {0: q13(q3_twist)})
        fs, equal = from_cleft(q3_action), from_cleft(q3_action)
        first = apply_automorphism(fs, beta)
        assert apply_automorphism(fs, beta) is first
        # a system is compared by identity: an equal one gets its own transport
        second = apply_automorphism(equal, beta)
        assert second is not first and apply_automorphism(equal, beta) is second
        assert apply_automorphism(fs, beta) is not first
        # another automorphism of the same system keeps a transport of its own
        assert apply_automorphism(fs, Automorphism.identity(q3_action)) is not first
        # a diagonal automorphism fixes the system, so every transport agrees with it
        u1 = TwistedPoly.generator(q3_twist, 0)
        for k in (-1, 2):
            expected = fs.gamma((k,)).apply(u1)
            assert first.gamma((k,)).apply(u1) == second.gamma((k,)).apply(u1) == expected

    def test_the_kept_transport_is_freed_with_the_automorphism(self, q3_action, q3_twist):
        # the memo must not close a reference cycle: short-lived automorphisms
        # would otherwise keep their systems and caches until a cycle collection
        beta = Automorphism.diagonal(q3_action, {0: q13(q3_twist)})
        transported = apply_automorphism(from_cleft(q3_action), beta)
        transported.gamma((1,)).apply(TwistedPoly.generator(q3_twist, 0))
        freed = weakref.ref(transported)
        gc.disable()
        try:
            del transported, beta
            assert freed() is None
        finally:
            gc.enable()


class TestVerifyConjugacy:
    def test_identity_witness(self, q3_system, q3_action):
        v = PartialIsometryFamily.units(q3_system)
        assert verify_conjugacy(q3_system, q3_system, v, 2, 2).passed

    def test_witness_between_two_cleft_choices(self, q3_system, q3_action, q3_twist):
        phase = q13(q3_twist)

        def sprime(char):
            k = char[0]
            return PolyMatrix.from_scalar(
                cleft_generator(q3_action, char).scale(phase**k)
            )

        s2 = IsometryFamily(q3_action, sprime)
        fs2 = from_cleft(q3_action, s2)

        def witness(char):
            return s2(char) * q3_system.isometries(char).adjoint()

        v = PartialIsometryFamily(q3_action, witness)
        assert verify_conjugacy(q3_system, fs2, v, 2, 2).passed

    def test_wrong_witness_fails(self, q3_system, q3_action, q3_gens):
        one = TwistedPoly.one(q3_gens[0].twist)

        def bad(char):
            return PolyMatrix.from_scalar(q3_gens[0] if char != (0,) else one)

        v = PartialIsometryFamily(q3_action, bad)
        rep = verify_conjugacy(q3_system, q3_system, v, 2, 2)
        assert not rep.passed

    def test_witness_of_the_wrong_size_is_named(self, q3_action):
        fs = from_cleft(q3_action, pythagorean_column(q3_action))
        one = PolyMatrix.identity(q3_action.twist, 1)
        v = PartialIsometryFamily(q3_action, lambda char: one)
        with pytest.raises(ValueError, match=wrong_size("-1")):
            verify_conjugacy(fs, fs, v, 1, 1)

    def test_witness_of_the_wrong_size_off_the_box_is_named(self, q3_action):
        # v(sigma + pi) leaves the box; its size comes from the cocycles
        fs = from_cleft(q3_action, pythagorean_column(q3_action))
        units = PartialIsometryFamily.units(fs)
        one = PolyMatrix.identity(q3_action.twist, 1)
        v = PartialIsometryFamily(q3_action, lambda char: units(char) if abs(char[0]) < 2 else one)
        with pytest.raises(ValueError, match=wrong_size("-2")):
            verify_conjugacy(fs, fs, v, 1, 1)


class TestFrohlich:
    def test_unit_is_fixed(self, q3_system, q3_twist):
        one = TwistedPoly.one(q3_twist)
        assert frohlich_map(q3_system, (3,), one) == one

    def test_conjugation_values(self, q3_system, q3_twist, q3_gens):
        for k in (-2, -1, 1, 2):
            got = frohlich_map(q3_system, (k,), q3_gens[0])
            assert got == q3_gens[0].scale(q13(q3_twist, k))

    def test_trivial_character_is_identity(self, q3_system, q3_gens):
        b = q3_gens[0] * q3_gens[1] + q3_gens[1].star()
        assert frohlich_map(q3_system, (0,), b) == b

    def test_central_inputs_stay_central(self, q3_system, q3_action, q3_twist):
        # central scalars are mapped to central scalars
        rng = random.Random(31)
        for k in (-2, 1):
            for _ in range(5):
                z = TwistedPoly.scalar(q3_twist, unimodular_phase(rng, q3_twist.nslots))
                img = frohlich_map(q3_system, (k,), z)
                for b in (TwistedPoly.generator(q3_twist, 0), TwistedPoly.generator(q3_twist, 1)):
                    assert img * b == b * img

    def test_morphism_agrees_with_map(self, q3_system, q3_action):
        rng = random.Random(32)
        for k in (-1, 2):
            morph = frohlich_morphism(q3_system, (k,))
            for _ in range(4):
                b = random_base_poly(rng, q3_action)
                assert morph.apply(b) == frohlich_map(q3_system, (k,), b)


class TestGaugeUnitaries:
    def test_identity_family(self, q3_system, q3_action):
        v = PartialIsometryFamily.units(q3_system)
        assert verify_gauge_unitary(q3_system, v, 2, 2).passed

    def test_central_phase_powers(self, q3_system, q3_action, q3_twist):
        c = q13(q3_twist)

        def fam(char):
            return PolyMatrix.from_scalar(TwistedPoly.scalar(q3_twist, c ** char[0]))

        assert verify_gauge_unitary(q3_system, PartialIsometryFamily(q3_action, fam), 2, 2).passed

    def test_noncentral_family_fails_commutant(self, q3_system, q3_action, q3_gens):
        one = TwistedPoly.one(q3_gens[0].twist)

        def fam(char):
            return PolyMatrix.from_scalar(q3_gens[0] if char == (1,) else one)

        rep = verify_gauge_unitary(q3_system, PartialIsometryFamily(q3_action, fam), 2, 2)
        assert not rep.passed
        assert any(f.law == "commutant of the coaction image" for f in rep.failures)


class TestIsotypicMul:
    def test_cleft_product_of_units_gives_cocycle(self, q3_system, q3_twist):
        one = TwistedPoly.one(q3_twist)
        char, y = isotypic_mul(q3_system, ((2,), one), ((-1,), one))
        assert char == (1,)
        assert y.as_scalar() == q3_system.omega((2,), (-1,)).as_scalar()

    def test_example_with_coefficients(self, q3_system, q3_twist, q3_gens):
        u1, u2, _ = q3_gens
        char, y = isotypic_mul(q3_system, ((2,), u1), ((1,), u2))
        assert char == (3,)
        assert y.as_scalar() == u1 * u2.scale(q23(q3_twist, -2))

    def test_zero_factor(self, q3_system, q3_twist, q3_gens):
        zero = TwistedPoly.zero(q3_twist)
        _, y = isotypic_mul(q3_system, ((1,), q3_gens[0]), ((2,), zero))
        assert y.as_scalar().is_zero()

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_direct_product(self, seed):
        # the built-in cross-check raises if the oracle ever disagrees
        rng = random.Random(300 + seed)
        action = random_circle_action(rng, n_choices=(2, 3))
        fs = from_cleft(action)
        for _ in range(6):
            a = rng.randint(-2, 2)
            b = rng.randint(-2, 2)
            ya = random_base_poly(rng, action)
            yb = random_base_poly(rng, action)
            isotypic_mul(fs, ((a,), ya), ((b,), yb))


class TestMorphismValidation:
    def test_apply_rejects_another_twist(self, q3_system, q3_action, q3_twist):
        u1 = TwistedPoly.generator(twist3(Fraction(1, 5), Fraction(1, 7), Fraction(2, 9)), 0)
        for morphism in (q3_system.gamma((1,)), AlgebraMorphism.identity(q3_action)):
            with pytest.raises(TwistMismatchError):
                morphism.apply(u1)
        # an equal twist built again is the same twist
        same = TwistedPoly.generator(TwistMatrix(q3_twist.theta), 0)
        g = q3_system.gamma((1,))
        assert g.apply(same) == g.apply(TwistedPoly.generator(q3_twist, 0))

    def test_relation_respect_check(self, q3_action, q3_twist, q3_gens):
        u1, u2, _ = q3_gens
        good = AlgebraMorphism.identity(q3_action)
        assert good.respects_relations()
        swapped = AlgebraMorphism(q3_action, {0: u2, 1: u1})
        assert not swapped.respects_relations()

    def test_relation_breaking_automorphism_is_rejected(self, q3_action, q3_gens):
        # the swap u1 <-> u2 is its own inverse, so only the relation check refuses it
        u1, u2, _ = q3_gens
        swap = AlgebraMorphism(q3_action, {0: u2, 1: u1})
        with pytest.raises(ValueError, match="automorphism violates the defining relations"):
            Automorphism(swap, swap)

    def test_inner_automorphism_needs_an_element_of_the_fixed_algebra(self, q3_action, q3_gens):
        # u3 carries the acting coordinate, so it is not in B0
        with pytest.raises(ScopeError, match="conjugating element must lie in the fixed algebra"):
            Automorphism.inner(q3_action, q3_gens[2])

    def test_diagonal_is_star_morphism(self, q3_action, q3_twist):
        w = {0: Phase.coeff(q3_twist.nslots, QQi(0, -1))}
        beta = Automorphism.diagonal(q3_action, w)
        assert beta.fwd.is_star_morphism()

    def test_bad_inverse_is_rejected(self, q3_action, q3_gens):
        fwd = AlgebraMorphism.identity(q3_action)
        shifted = AlgebraMorphism(
            q3_action, {0: q3_gens[0].scale(QQi(0, 1)), 1: q3_gens[1]}
        )
        with pytest.raises(ValueError):
            Automorphism(fwd, shifted)

    def test_wrong_inverse_images_on_the_inverse_leg_are_rejected(self, q3_action, q3_gens):
        # the inverse leg fixes u1 and u2 but sends u1^-1 to 2 u1^-1
        u1, u2, _ = q3_gens
        ident = AlgebraMorphism.identity(q3_action)
        inv = AlgebraMorphism(q3_action, {0: u1, 1: u2}, {0: u1.star().scale(QQi(2)), 1: u2.star()})
        assert not inv.equals_on_generators(ident)
        assert not inv.respects_relations()
        with pytest.raises(ValueError, match="inverse images do not invert the morphism"):
            Automorphism(ident, inv)

    def test_non_star_morphism_is_rejected(self, q3_action, q3_gens):
        # u1 -> 2 u1 respects the relations and is invertible, but is not unitary
        u1, u2, _ = q3_gens
        fwd = AlgebraMorphism(q3_action, {0: u1.scale(QQi(2)), 1: u2})
        inv = AlgebraMorphism(q3_action, {0: u1.scale(QQi(Fraction(1, 2))), 1: u2})
        assert fwd.respects_relations()
        assert not fwd.is_star_morphism()
        with pytest.raises(ValueError, match=r"automorphism is not a \*-morphism"):
            Automorphism(fwd, inv)
        Automorphism(fwd, inv, check=False)  # unchecked construction stays possible

    def test_constructor_rejects_an_image_of_another_size(self, q3_action):
        # the relation check multiplies every image by the unit, so sizes must agree
        tw = q3_action.twist
        one, two = PolyMatrix.identity(tw, 1), PolyMatrix.identity(tw, 2)
        with pytest.raises(ValueError, match="image of u1 is not 1 x 1"):
            MatrixMorphism(q3_action, one, {0: two, 1: one}, {0: one, 1: one})
        with pytest.raises(ValueError, match="image of 1 is not 1 x 1"):
            MatrixMorphism(q3_action, PolyMatrix.zeros(tw, 1, 2), {0: one, 1: one}, {0: one, 1: one})

    def test_constructor_rejects_a_missing_generator(self, q3_action, q3_gens):
        one = PolyMatrix.identity(q3_action.twist, 1)
        images = {0: PolyMatrix.from_scalar(q3_gens[0])}
        with pytest.raises(ValueError, match="missing generator images for u2"):
            MatrixMorphism(q3_action, one, images, images)

    def test_constructor_rejects_images_outside_the_fixed_algebra(self, q3_action, q3_gens):
        u1, u2, u3 = q3_gens
        with pytest.raises(ScopeError, match="image of u1 leaves the fixed algebra"):
            AlgebraMorphism(q3_action, {0: u3, 1: u2})
        with pytest.raises(ScopeError, match=r"image of u2\^-1 leaves the fixed algebra"):
            AlgebraMorphism(q3_action, {0: u1, 1: u2}, {0: u1.star(), 1: u3})
        with pytest.raises(ScopeError, match="image of 1 leaves the fixed algebra"):
            MatrixMorphism.from_map(q3_action, lambda x: PolyMatrix.from_scalar(x * u3))

    def test_from_map_reads_the_unit_and_the_generators(self, q3_action, q3_twist, q3_gens):
        half = QQi(Fraction(1, 2))
        m = MatrixMorphism.from_map(q3_action, lambda x: PolyMatrix.from_scalar(x.scale(half)))
        assert m.unit() == PolyMatrix.from_scalar(TwistedPoly.one(q3_twist).scale(half))
        assert m.images[0] == PolyMatrix.from_scalar(q3_gens[0].scale(half))
        assert m.inv_images[1] == PolyMatrix.from_scalar(q3_gens[1].star().scale(half))
        assert m.apply(TwistedPoly.one(q3_twist)) == m.unit()


# An isometry family over another action would give gamma_sigma = Ad s(sigma)
# of that action: u2 acting instead of u3 on the same twist passed all 98
# axiom checks at r = 1 while not being the cleft system of u3.
def test_isometry_family_over_another_action_is_rejected(q3_twist):
    u3, u2 = TorusAction(q3_twist, (2,)), TorusAction(q3_twist, (1,))
    s = IsometryFamily.from_cleft_generators(u2)
    named = r"over TorusAction\(T\^1 scaling u2\), but the factor system is over TorusAction\(T\^1 scaling u3\)"
    with pytest.raises(ValueError, match=named):
        from_cleft(u3, s)
    good = from_cleft(u3)
    with pytest.raises(ValueError, match=named):
        FactorSystem(u3, good.gamma, good.omega, isometries=s)
    # actions that differ only in the twist print alike
    other = TorusAction(TwistMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]]), (2,))
    with pytest.raises(ValueError, match="over another twist, but the factor system is over"):
        from_cleft(u3, IsometryFamily.from_cleft_generators(other))
    # an equal action built apart is the same action
    assert from_cleft(TorusAction(q3_twist, (2,)), IsometryFamily.from_cleft_generators(u3))


# AlgebraMorphism.apply gives the polynomial u1 where a gamma_sigma gives the
# matrix [[u1]], so verify_axioms failed "normalization gamma_0 = id" on the
# identity coaction (lhs u1, rhs [[u1]]) and a matrix point raised TypeError
def test_a_gamma_that_is_an_algebra_morphism_is_refused(q3_action):
    fs = FactorSystem(q3_action, lambda c: AlgebraMorphism.identity(q3_action),
                      from_cleft(q3_action).omega)
    for _ in range(2):  # refused, and so never cached
        with pytest.raises(TypeError, match=r"gamma at \(0,\) is an AlgebraMorphism"):
            fs.gamma((0,))
    with pytest.raises(TypeError, match="is an AlgebraMorphism"):
        verify_axioms(fs, 1, 1)


class TestFamilyChecks:
    def test_an_isometry_entry_of_another_weight_is_refused(self, q3_action, q3_twist):
        s = IsometryFamily(q3_action, lambda c: PolyMatrix.identity(q3_twist, 1))
        assert s((0,)) == PolyMatrix.identity(q3_twist, 1)
        with pytest.raises(ValueError, match=r"isometry entry at \(1,\) is not equivariant"):
            s((1,))

    def test_an_isometry_family_must_send_the_trivial_character_to_1(self, q3_action, q3_twist):
        minus_one = PolyMatrix.from_scalar(TwistedPoly.scalar(q3_twist, Phase.coeff(q3_twist.nslots, QQi(-1))))
        s = IsometryFamily(q3_action, lambda c: minus_one)  # equivariant at 0 and s* s = 1
        with pytest.raises(ValueError, match="must send the trivial character to 1"):
            s((0,))

    def test_a_witness_off_the_fixed_algebra_is_refused(self, q3_action, q3_gens):
        v = PartialIsometryFamily(q3_action, lambda c: PolyMatrix.from_scalar(q3_gens[2]))
        with pytest.raises(ScopeError, match=r"witness at \(1,\) leaves the fixed algebra"):
            v((1,))


# a transported system keeps no isometry family, so each reader of s(sigma) refuses it
@pytest.mark.parametrize("reader, message", [
    (lambda fs: frohlich_map(fs, (1,), TwistedPoly.generator(fs.action.twist, 0)),
     "factor system carries no isometry realization"),
    (lambda fs: isotypic_mul(fs, ((1,), TwistedPoly.one(fs.action.twist)),
                             ((1,), TwistedPoly.one(fs.action.twist))),
     "cross-check requires an isometry realization"),
    (lambda fs: LiftedDerivation(fs, Derivation.zero(fs.action.twist, fs.action.base), HFamily.zero(fs)),
     "lifting requires an isometry realization"),
    (lambda fs: make_module(fs, (1,)), "module frames require an isometry realization"),
], ids=["frohlich_map", "isotypic_mul", "LiftedDerivation", "make_module"])
def test_a_transported_system_has_no_isometry_realization(q3_system, q3_action, reader, message):
    beta = Automorphism.diagonal(q3_action, {0: Phase.coeff(q3_action.twist.nslots, QQi(0, 1))})
    fs = apply_automorphism(q3_system, beta)
    assert fs.isometries is None
    with pytest.raises(ValueError, match=message):
        reader(fs)
