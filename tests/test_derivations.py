import random
from fractions import Fraction

import pytest

from nctorus.algebra import PolyMatrix, TwistedPoly, TwistMatrix, TwistMismatchError
from nctorus.derivations import (
    ConnectionSection,
    Derivation,
    DerivationError,
    HFamily,
    LiftedDerivation,
    SectionEntry,
    atiyah_check,
    bracket,
    bracket_derivations,
    crossed_hom_report,
    gauge_report,
    scaling_derivation,
    two_pi_i,
    verify_lift_conditions,
)
from nctorus.dynamics import grade
from nctorus.factor_system import ScopeError
from nctorus.phases import Phase, QQi
from nctorus.q3torus import base_scaling_derivation, gauge_h_family, standard_angles, twist3

from conftest import random_base_poly, random_poly, random_skew_scalar


@pytest.fixture(scope="module")
def d1(q3_action):
    return base_scaling_derivation(q3_action, 0)


@pytest.fixture(scope="module")
def d2(q3_action):
    return base_scaling_derivation(q3_action, 1)


@pytest.fixture(scope="module")
def h_zero(q3_system):
    return HFamily.zero(q3_system)


@pytest.fixture(scope="module")
def h_gauge(q3_action):
    return gauge_h_family(q3_action)


class TestMakeDerivation:
    def test_scaling_derivation_is_valid(self, q3_action, q3_twist, q3_gens):
        d = Derivation(
            q3_twist,
            q3_action.base,
            {0: two_pi_i(q3_twist) * q3_gens[0], 1: TwistedPoly.zero(q3_twist)},
            check=True,
        )
        assert d.apply(q3_gens[0]) == two_pi_i(q3_twist) * q3_gens[0]
        assert d.is_star_derivation()

    def test_commutators_are_derivations(self, q3_action, q3_twist, q3_gens):
        d = Derivation.inner(q3_twist, q3_action.base, q3_gens[0])
        assert Derivation(q3_twist, q3_action.base, d.images, check=True) is not None

    def test_invalid_images_are_rejected(self, q3_action, q3_twist, q3_gens):
        with pytest.raises(DerivationError) as err:
            Derivation(
                q3_twist,
                q3_action.base,
                {0: q3_gens[1], 1: TwistedPoly.zero(q3_twist)},
                check=True,
            )
        assert "u1" in str(err.value) and "u2" in str(err.value)

    def test_star_rule_detects_non_star_inner(self, q3_action, q3_twist, q3_gens):
        assert not Derivation.inner(q3_twist, q3_action.base, q3_gens[0]).is_star_derivation()
        skew = q3_gens[0] - q3_gens[0].star()
        assert Derivation.inner(q3_twist, q3_action.base, skew).is_star_derivation()

    def test_leibniz_on_negative_powers(self, q3_action, q3_twist, d1):
        rng = random.Random(21)
        for _ in range(8):
            x = random_base_poly(rng, q3_action)
            y = random_base_poly(rng, q3_action)
            assert d1.apply(x * y) == d1.apply(x) * y + x * d1.apply(y)
        u1inv = TwistedPoly.generator(q3_twist, 0, -1)
        tpi = two_pi_i(q3_twist)
        assert d1.apply(u1inv) == -(tpi * u1inv)

    def test_scope_violation(self, q3_action, q3_gens, d1):
        with pytest.raises(ScopeError):
            d1.apply(q3_gens[2])

    @pytest.mark.parametrize("bad", [5, 3, -1])
    def test_generator_index_out_of_range_is_rejected(self, q3_twist, bad):
        z = TwistedPoly.zero(q3_twist)
        message = rf"generator index {bad} out of range 0\.\.2"
        with pytest.raises(ValueError, match=message):
            Derivation(q3_twist, (0, bad), {0: z, bad: z})
        with pytest.raises(ValueError, match=message):
            Derivation.zero(q3_twist, (0, bad))

    def test_image_outside_the_generated_algebra_is_rejected(self):
        # u1 -> u1 u2 - u1 u2^-1 on the algebra of u1 alone: a *-derivation of
        # the whole algebra that no exchange relation constrains
        tw = TwistMatrix([[0, Fraction(1, 4)], [Fraction(-1, 4), 0]])
        u1, u2 = (TwistedPoly.generator(tw, k) for k in range(2))
        image = u1 * u2 - u1 * TwistedPoly.generator(tw, 1, -1)
        with pytest.raises(ScopeError, match="image of u1 leaves the algebra generated by u1"):
            Derivation(tw, (0,), {0: image})
        assert Derivation(tw, (0, 1), {0: image, 1: TwistedPoly.zero(tw)}).gens == (0, 1)

    def test_missing_generator_image_is_rejected(self, q3_twist):
        z = TwistedPoly.zero(q3_twist)
        with pytest.raises(ValueError, match="missing derivation image for u2"):
            Derivation(q3_twist, (0, 1), {0: z})

    def test_apply_rejects_another_twist(self, q3_twist, d1):
        u1 = TwistedPoly.generator(twist3(Fraction(1, 5), Fraction(1, 7), Fraction(2, 9)), 0)
        with pytest.raises(TwistMismatchError):
            d1.apply(u1)
        # an equal twist built again is the same twist
        same = TwistedPoly.generator(TwistMatrix(q3_twist.theta), 0)
        assert d1.apply(same) == d1.apply(TwistedPoly.generator(q3_twist, 0))


class TestLiftConditions:
    def test_scaling_derivations_lift_with_zero_family(self, q3_system, d1, d2, h_zero):
        assert verify_lift_conditions(q3_system, d1, h_zero, 2, 2).passed
        assert verify_lift_conditions(q3_system, d2, h_zero, 2, 2).passed

    def test_gauge_family_lifts_zero(self, q3_system, q3_action, q3_twist, h_gauge):
        zero = Derivation.zero(q3_twist, q3_action.base)
        assert verify_lift_conditions(q3_system, zero, h_gauge, 2, 2).passed

    def test_inner_derivation_with_derived_family(self, q3_system, q3_action, q3_twist, q3_gens):
        b = q3_gens[0] - q3_gens[0].star()
        delta = Derivation.inner(q3_twist, q3_action.base, b)
        h = HFamily.from_scalars(
            q3_action, lambda char: b - q3_system.gamma(char).apply(b).as_scalar()
        )
        assert verify_lift_conditions(q3_system, delta, h, 2, 2).passed

    def test_injected_defect_fails(self, q3_system, q3_action, q3_twist, q3_gens, d1):
        bad = HFamily.from_scalars(
            q3_action,
            lambda char: q3_gens[0] if char == (1,) else TwistedPoly.zero(q3_twist),
        )
        rep = verify_lift_conditions(q3_system, d1, bad, 2, 2)
        assert not rep.passed


class TestLiftedDerivation:
    def test_scaling_lift_kills_the_acting_generator(self, q3_system, d1, h_zero, q3_gens):
        lift = LiftedDerivation(q3_system, d1, h_zero)
        assert lift.apply(q3_gens[2]).is_zero()

    def test_gauge_lift_reproduces_the_full_scaling(self, q3_system, q3_action, q3_twist, q3_gens, h_gauge):
        zero = Derivation.zero(q3_twist, q3_action.base)
        lift = LiftedDerivation(q3_system, zero, h_gauge)
        full = scaling_derivation(q3_twist, tuple(range(3)), 2)
        tpi = two_pi_i(q3_twist)
        assert lift.apply(q3_gens[2]) == tpi * q3_gens[2]
        assert lift.apply(q3_gens[2]) == full.apply(q3_gens[2])
        assert lift.apply(q3_gens[0]).is_zero()
        x = q3_gens[2].star() * q3_gens[2].star()
        assert lift.apply(x) == x.scale(QQi(-2)) * tpi

    def test_verified_one_shot_lift(self, q3_system, q3_action, d1, h_zero, q3_gens):
        g = grade(q3_action, q3_gens[2].star() * q3_gens[0])
        assert verify_lift_conditions(q3_system, d1, h_zero).passed
        out = LiftedDerivation(q3_system, d1, h_zero).apply_graded(g)
        assert out.to_poly() == two_pi_i(q3_gens[0].twist) * (q3_gens[2].star() * q3_gens[0])

    def test_one_shot_lift_rejects_bad_family(self, q3_system, q3_action, q3_twist, q3_gens, d1):
        bad = HFamily.from_scalars(
            q3_action,
            lambda char: q3_gens[0] if char == (1,) else TwistedPoly.zero(q3_twist),
        )
        rep = verify_lift_conditions(q3_system, d1, bad)
        assert not rep.passed
        assert rep.failures[0].law == "coaction derivative"
        assert rep.failures[0].where["sigma"] == "(1,)"

    def test_leibniz_star_equivariance(self, q3_system, q3_action, q3_twist, d1, h_zero, h_gauge):
        rng = random.Random(23)
        zero = Derivation.zero(q3_twist, q3_action.base)
        lifts = [
            LiftedDerivation(q3_system, d1, h_zero),
            LiftedDerivation(q3_system, zero, h_gauge),
        ]
        for lift in lifts:
            for _ in range(10):
                x = random_poly(rng, q3_twist, 3, 2)
                y = random_poly(rng, q3_twist, 3, 2)
                assert lift.apply(x * y) == lift.apply(x) * y + x * lift.apply(y)
                assert lift.apply(x.star()) == lift.apply(x).star()
                for char, comp in lift.apply_graded(grade(q3_action, x)).components.items():
                    from nctorus.dynamics import is_equivariant

                    assert is_equivariant(q3_action, comp, char)

    def test_lifts_equal_their_full_algebra_counterparts(
        self, q3_system, q3_action, q3_twist, q3_gens, d1, h_zero, h_gauge
    ):
        # three independent oracles: each lifted derivation has a known
        # closed form on the whole algebra
        rng = random.Random(51)
        all_gens = tuple(range(3))
        full_d1 = scaling_derivation(q3_twist, all_gens, 0)
        full_d3 = scaling_derivation(q3_twist, all_gens, 2)
        b = q3_gens[0] - q3_gens[0].star()
        full_ad = Derivation.inner(q3_twist, all_gens, b)

        zero = Derivation.zero(q3_twist, q3_action.base)
        h_inner = HFamily.from_scalars(
            q3_action, lambda char: b - q3_system.gamma(char).apply(b).as_scalar()
        )
        oracle_pairs = [
            (LiftedDerivation(q3_system, d1, h_zero), full_d1),
            (LiftedDerivation(q3_system, zero, h_gauge), full_d3),
            (
                LiftedDerivation(
                    q3_system,
                    Derivation.inner(q3_twist, q3_action.base, b),
                    h_inner,
                ),
                full_ad,
            ),
        ]
        for lift, oracle in oracle_pairs:
            for _ in range(10):
                x = random_poly(rng, q3_twist, 4, 3)
                assert lift.apply(x) == oracle.apply(x)

    def test_two_lifts_of_the_same_base_differ_by_gauge(self, q3_system, q3_action, q3_twist, d1, h_zero, h_gauge):
        # h_zero and h_zero + h_gauge both lift d1; the difference is gauge
        h_other = h_zero + h_gauge
        assert verify_lift_conditions(q3_system, d1, h_other, 2, 2).passed
        assert gauge_report(q3_system, h_other - h_zero, 2, 2).passed


class TestGaugeAlgebra:
    def test_zero_family(self, q3_system, h_zero):
        assert gauge_report(q3_system, h_zero, 2, 2).passed

    def test_gauge_circle_generator(self, q3_system, h_gauge):
        assert gauge_report(q3_system, h_gauge, 2, 2).passed

    def test_selfadjoint_family_fails(self, q3_system, q3_action, q3_gens, q3_twist):
        h = HFamily.from_scalars(
            q3_action, lambda char: q3_gens[0].scale(QQi(char[0]))
        )
        assert not gauge_report(q3_system, h, 2, 2).passed

    def test_closed_under_bracket(self, q3_system, q3_action, q3_twist):
        rng = random.Random(29)
        zero = Derivation.zero(q3_twist, q3_action.base)
        for _ in range(4):
            h_a = HFamily.linear_scalar(q3_action, random_skew_scalar(rng, q3_twist))
            h_b = HFamily.linear_scalar(q3_action, random_skew_scalar(rng, q3_twist))
            assert gauge_report(q3_system, h_a, 2, 2).passed
            assert gauge_report(q3_system, h_b, 2, 2).passed
            br = bracket(
                LiftedDerivation(q3_system, zero, h_a),
                LiftedDerivation(q3_system, zero, h_b),
            )
            assert br.base.is_zero()
            assert gauge_report(q3_system, br.h, 2, 2).passed


class TestCrossedHom:
    def test_gauge_circle_generator(self, q3_system, h_gauge):
        assert crossed_hom_report(q3_system, h_gauge, 2).passed

    def test_scalar_view_rejects_matrix_values(self, q3_system, q3_action, q3_twist):
        good = HFamily.from_scalars(
            q3_action, lambda char: two_pi_i(q3_twist).scale(QQi(char[0]))
        )
        assert good((2,)).as_scalar() == two_pi_i(q3_twist).scale(QQi(2))
        wide = HFamily(q3_action, lambda char: PolyMatrix.zeros(q3_twist, 2, 2))
        with pytest.raises(ValueError):
            crossed_hom_report(q3_system, wide, 1)

    def test_quadratic_family_fails_additivity(self, q3_system, q3_action, q3_twist):
        tpi = two_pi_i(q3_twist)
        h = HFamily.from_scalars(q3_action, lambda char: tpi.scale(QQi(char[0] ** 2)))
        rep = crossed_hom_report(q3_system, h, 2)
        assert not rep.passed
        assert any(f.law == "twisted additivity" for f in rep.failures)

    def test_zero_family(self, q3_system, h_zero):
        assert crossed_hom_report(q3_system, h_zero, 2).passed

    @pytest.mark.parametrize("char", [(1,), (-1,)])
    def test_non_scalar_cocycle_value_anywhere_in_the_box_is_rejected(
        self, q3_system, q3_gens, h_zero, char
    ):
        fs = q3_system.with_omega_override(char, char, PolyMatrix.from_scalar(q3_gens[0]))
        with pytest.raises(ValueError, match="require scalar cocycle values"):
            crossed_hom_report(fs, h_zero, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_equivalent_to_gauge_membership_on_scalars(self, q3_system, q3_action, q3_twist, seed):
        rng = random.Random(900 + seed)
        slope = random_skew_scalar(rng, q3_twist)
        kind = rng.randrange(4)
        if kind == 0:
            h = HFamily.linear_scalar(q3_action, slope)
        elif kind == 1:
            h = HFamily.from_scalars(
                q3_action, lambda char: slope.scale(QQi(char[0] * char[0]))
            )
        elif kind == 2:
            h = HFamily.from_scalars(
                q3_action, lambda char: slope.star().scale(QQi(-char[0]))
            )
            # slope is skew so star(slope) = -slope and this is again linear
        else:
            selfadj = slope.scale(QQi(0, 1))
            h = HFamily.from_scalars(q3_action, lambda char: selfadj.scale(QQi(char[0])))
        assert gauge_report(q3_system, h, 2, 2).passed == crossed_hom_report(q3_system, h, 2).passed


class TestBracket:
    def test_commutator_of_the_same_lift_vanishes(self, q3_system, d1, h_zero, q3_gens):
        lift = LiftedDerivation(q3_system, d1, h_zero)
        br = bracket(lift, lift)
        for g in q3_gens:
            assert br.apply(g).is_zero()

    def test_scaling_lifts_commute(self, q3_system, d1, d2, h_zero, q3_gens):
        br = bracket(
            LiftedDerivation(q3_system, d1, h_zero),
            LiftedDerivation(q3_system, d2, h_zero),
        )
        for g in q3_gens:
            assert br.apply(g).is_zero()

    def test_gauge_bracket_restricts_to_zero(self, q3_system, q3_action, q3_twist, d1, h_zero, h_gauge):
        zero = Derivation.zero(q3_twist, q3_action.base)
        br = bracket(
            LiftedDerivation(q3_system, zero, h_gauge),
            LiftedDerivation(q3_system, d1, h_zero),
        )
        for k in q3_action.base:
            assert br.apply(TwistedPoly.generator(q3_twist, k)).is_zero()

    def test_family_formula_matches_commutator_evaluation(self, q3_system, q3_action, q3_twist, q3_gens):
        # bracket in lifted form must agree with the plain commutator
        rng = random.Random(41)
        b = q3_gens[0] - q3_gens[0].star()
        inner = Derivation.inner(q3_twist, q3_action.base, b)
        h_inner = HFamily.from_scalars(
            q3_action, lambda char: b - q3_system.gamma(char).apply(b).as_scalar()
        )
        l1 = LiftedDerivation(q3_system, inner, h_inner)
        l2 = LiftedDerivation(q3_system, base_scaling_derivation(q3_action, 0), HFamily.zero(q3_system))
        br = bracket(l1, l2)
        for _ in range(8):
            x = random_poly(rng, q3_twist, 3, 2)
            want = l1.apply(l2.apply(x)) - l2.apply(l1.apply(x))
            assert br.apply(x) == want


class TestAtiyahSection:
    def test_split_section_passes(self, q3_system, d1, d2, h_zero, h_gauge):
        section = ConnectionSection(
            entries=[
                SectionEntry(d1, LiftedDerivation(q3_system, d1, h_zero)),
                SectionEntry(d2, LiftedDerivation(q3_system, d2, h_zero)),
            ],
            kernel=[h_gauge],
        )
        rep = atiyah_check(q3_system, section, 2, 2)
        assert rep.passed, rep

    def test_gauge_perturbation_is_still_a_section(self, q3_system, q3_action, q3_twist, d1, d2, h_zero, h_gauge):
        zero = Derivation.zero(q3_twist, q3_action.base)
        perturbed = LiftedDerivation(q3_system, d1, h_zero) + LiftedDerivation(
            q3_system, zero, h_gauge
        )
        section = ConnectionSection(
            entries=[
                SectionEntry(d1, perturbed),
                SectionEntry(d2, LiftedDerivation(q3_system, d2, h_zero)),
            ]
        )
        assert atiyah_check(q3_system, section, 2, 2).passed

    def test_non_commuting_basis_pair_is_noted_not_checked(
        self, q3_system, q3_action, q3_twist, q3_gens, d1, h_zero
    ):
        # [d1, ad(u1)] = ad(d1(u1)) = ad(2*pi*i*u1) is not zero
        u1 = q3_gens[0]
        ad_u1 = Derivation.inner(q3_twist, q3_action.base, u1)
        h_inner = HFamily.from_scalars(
            q3_action, lambda char: u1 - q3_system.gamma(char).apply(u1).as_scalar()
        )
        section = ConnectionSection(
            entries=[
                SectionEntry(d1, LiftedDerivation(q3_system, d1, h_zero)),
                SectionEntry(ad_u1, LiftedDerivation(q3_system, ad_u1, h_inner)),
            ]
        )
        rep = atiyah_check(q3_system, section, 2, 2)
        assert rep.passed, rep
        assert rep.notes == ["bracket-section check skipped for a non-commuting basis pair"]
        # 2 x 2 restrictions and 2 x 25 linearity checks, no bracket checks
        assert rep.checks == 54

    def test_misassigned_section_fails_restriction(self, q3_system, d1, d2, h_zero):
        section = ConnectionSection(
            entries=[SectionEntry(d1, LiftedDerivation(q3_system, d2, h_zero))]
        )
        rep = atiyah_check(q3_system, section, 2, 2)
        assert not rep.passed
        assert any(f.law == "restriction to the base derivation" for f in rep.failures)

    def test_bad_kernel_sample_fails(self, q3_system, q3_action, q3_gens, d1, h_zero):
        h_bad = HFamily.from_scalars(
            q3_action, lambda char: q3_gens[0].scale(QQi(char[0]))
        )
        section = ConnectionSection(
            entries=[SectionEntry(d1, LiftedDerivation(q3_system, d1, h_zero))],
            kernel=[h_bad],
        )
        rep = atiyah_check(q3_system, section, 2, 2)
        assert not rep.passed


# -- the monomial-image cache and the generator set ---------------------------


def _reference_power(d: Derivation, k: int, m: int) -> TwistedPoly:
    """delta(u_k^m) by the Leibniz rule, recomputed on every call."""
    tw = d.twist
    if m < 0:
        inv = TwistedPoly.generator(tw, k, m)
        return -(inv * _reference_power(d, k, -m) * inv)
    total = TwistedPoly.zero(tw)
    for i in range(m):
        total = total + (
            TwistedPoly.generator(tw, k, i) * d.images[k] * TwistedPoly.generator(tw, k, m - 1 - i)
        )
    return total


def _reference_apply(d: Derivation, x: TwistedPoly) -> TwistedPoly:
    """The uncached per-term Leibniz sum of c u^left * delta(u_k^a_k) * u^right."""
    tw = d.twist
    total = TwistedPoly.zero(tw)
    for a, phase in x.terms.items():
        for k in d.gens:
            if a[k]:
                left = [e if j < k else 0 for j, e in enumerate(a)]
                right = [e if j > k else 0 for j, e in enumerate(a)]
                total = total + (
                    TwistedPoly.monomial(tw, left, phase)
                    * _reference_power(d, k, a[k])
                    * TwistedPoly.monomial(tw, right)
                )
    return total


def _dense_phase(rng: random.Random, nslots: int) -> Phase:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        qexp = tuple(rng.randint(-1, 1) for _ in range(nslots))
        terms[(qexp, rng.randint(0, 1))] = QQi(rng.randint(1, 4), rng.randint(-3, 3))
    return Phase(nslots, terms)


def _dense_base_poly(rng: random.Random, action) -> TwistedPoly:
    terms = {}
    for _ in range(rng.randint(2, 4)):
        e = [0] * action.twist.n
        for k in action.base:
            e[k] = rng.randint(-2, 2)
        terms[tuple(e)] = _dense_phase(rng, action.twist.nslots)
    return TwistedPoly(action.twist, terms)


def _dense_derivation(rng: random.Random, action) -> Derivation:
    """An inner derivation plus a tau-valued scaling one: dense generator images."""
    tw = action.twist
    inner = Derivation.inner(tw, action.base, random_poly(rng, tw, 3, 1, with_phases=True))
    return inner + scaling_derivation(tw, action.base, 0).scale(_dense_phase(rng, tw.nslots))


class TestMonomialCache:
    @pytest.mark.parametrize("seed", range(6))
    def test_apply_matches_the_uncached_leibniz_sum(self, q3_action, seed):
        rng = random.Random(seed)
        d = _dense_derivation(rng, q3_action)
        for _ in range(3):
            x = _dense_base_poly(rng, q3_action)
            expected = _reference_apply(d, x)
            assert d.apply(x) == expected
            assert d.apply(x) == expected  # every image now comes from the cache

    def test_out_of_scope_term_raises_every_time_and_is_never_cached(self, q3_action, q3_twist):
        d = _dense_derivation(random.Random(7), q3_action)
        x = TwistedPoly.monomial(q3_twist, (1, -1, 0)) + TwistedPoly.monomial(
            q3_twist, (1, 0, 2), QQi(2)
        )
        for _ in range(2):
            with pytest.raises(ScopeError, match="u3"):
                d.apply(x)
        assert (1, 0, 2) not in d._monomials

    def test_a_single_unit_term_gives_the_cached_image(self, q3_action, q3_twist):
        d = _dense_derivation(random.Random(9), q3_action)
        for a in ((1, 0, 0), (2, -1, 0)):
            image = d.apply(TwistedPoly.monomial(q3_twist, a))
            assert image is d._monomials[a]
            assert image == _reference_apply(d, TwistedPoly.monomial(q3_twist, a))
        assert d.apply(TwistedPoly.zero(q3_twist)) == TwistedPoly.zero(q3_twist)

    def test_a_scaled_monomial_after_the_monomial_is_the_scaled_image(self, q3_action, q3_twist):
        rng = random.Random(11)
        d = _dense_derivation(rng, q3_action)
        c = _dense_phase(rng, q3_twist.nslots)
        for a in ((1, 0, 0), (2, -1, 0), (-1, 2, 0)):
            image = d.apply(TwistedPoly.monomial(q3_twist, a))
            scaled = TwistedPoly.monomial(q3_twist, a, c)
            assert d.apply(scaled) == image.scale(c) == _reference_apply(d, scaled)


def _base_derivation(rng: random.Random, action) -> Derivation:
    """Inner by a dense element of B0 plus a tau-valued scaling: maps B0 into B0."""
    tw = action.twist
    inner = Derivation.inner(tw, action.base, _dense_base_poly(rng, action))
    return inner + scaling_derivation(tw, action.base, 0).scale(_dense_phase(rng, tw.nslots))


class TestBracketMemo:
    """bracket_derivations keeps its last result on the left operand."""

    @staticmethod
    def _fresh_bracket(d1: Derivation, d2: Derivation) -> Derivation:
        """[d1, d2] from copies that carry no memo and no cached images."""
        copy = lambda d: Derivation(d.twist, d.gens, dict(d.images), check=False)
        return bracket_derivations(copy(d1), copy(d2))

    @staticmethod
    def _commutator(d1: Derivation, d2: Derivation, x: TwistedPoly) -> TwistedPoly:
        return d1.apply(d2.apply(x)) - d2.apply(d1.apply(x))

    def test_the_same_pair_gives_the_same_bracket(self, q3_action):
        rng = random.Random(3)
        d1, d2 = _base_derivation(rng, q3_action), _base_derivation(rng, q3_action)
        br = bracket_derivations(d1, d2)
        assert not br.is_zero()
        assert bracket_derivations(d1, d2) is br
        assert br == self._fresh_bracket(d1, d2)
        x = _dense_base_poly(rng, q3_action)
        assert br.apply(x) == self._commutator(d1, d2, x)

    def test_another_operand_or_the_swapped_order_gets_its_own_bracket(self, q3_action):
        rng = random.Random(5)
        d1, d2, d3 = (_base_derivation(rng, q3_action) for _ in range(3))
        x = _dense_base_poly(rng, q3_action)
        first = bracket_derivations(d1, d2)
        for a, b in ((d1, d3), (d2, d1), (d1, d2)):
            br = bracket_derivations(a, b)
            assert br == self._fresh_bracket(a, b)
            assert br.apply(x) == self._commutator(a, b, x)
            if (a, b) != (d1, d2):
                assert br != first
        assert bracket_derivations(d1, d2) == first


class TestGeneratorSets:
    def test_listing_order_does_not_matter(self):
        tw = twist3(*standard_angles())
        d = scaling_derivation(tw, (0, 1), 0)
        e = Derivation(tw, (1, 0, 1), d.images)
        assert e.gens == (0, 1)
        assert e == d
        assert bracket_derivations(d, e).is_zero()

    def test_adding_over_different_generator_sets_is_rejected(self, q3_system, h_zero):
        tw = q3_system.action.twist
        both = scaling_derivation(tw, (0, 1), 0)
        one = scaling_derivation(tw, (0,), 0)
        for x, y in ((both, one), (one, both)):
            with pytest.raises(ValueError, match="different generator sets"):
                x + y
            with pytest.raises(ValueError, match="different generator sets"):
                LiftedDerivation(q3_system, x, h_zero) + LiftedDerivation(q3_system, y, h_zero)
