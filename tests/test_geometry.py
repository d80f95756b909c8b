import random

import pytest

from nctorus.algebra import TwistedPoly
from nctorus.derivations import (
    Derivation,
    HFamily,
    LiftedDerivation,
    two_pi_i,
)
from nctorus.factor_system import from_cleft
from nctorus.geometry import (
    ModuleMembershipError,
    curvature,
    frame_connection,
    left_inner,
    make_module,
    right_inner,
    section_connection,
    section_metric_report,
)
from nctorus.q3torus import base_scaling_derivation

from conftest import (
    frame_completeness,
    random_base_poly,
    random_circle_action,
    random_skew_scalar,
    reproduces,
)


@pytest.fixture(scope="module")
def module2(q3_system):
    return make_module(q3_system, (2,))


@pytest.fixture(scope="module")
def d1(q3_action):
    return base_scaling_derivation(q3_action, 0)


@pytest.fixture(scope="module")
def d2(q3_action):
    return base_scaling_derivation(q3_action, 1)


def module_elements(module, rng, count=4):
    out = []
    for _ in range(count):
        out.append(module.frame[0] * random_base_poly(rng, module.action))
    return out


class TestMakeModule:
    def test_frame_is_the_inverse_weight_monomial(self, q3_system, q3_twist):
        for k in (-2, 0, 1, 3):
            m = make_module(q3_system, (k,))
            assert m.frame == [TwistedPoly.generator(q3_twist, 2, -k)]
            assert frame_completeness(m)
            assert right_inner(m, m.frame[0], m.frame[0]) == TwistedPoly.one(q3_twist)

    def test_weight_zero_module_is_the_fixed_algebra(self, q3_system, q3_twist):
        m = make_module(q3_system, (0,))
        assert m.frame == [TwistedPoly.one(q3_twist)]
        assert m.contains(TwistedPoly.generator(q3_twist, 0))

    def test_reproducing_formula(self, q3_system, q3_twist, q3_gens):
        m = make_module(q3_system, (2,))
        x = m.frame[0] * q3_gens[0]
        expanded = m.frame[0] * right_inner(m, m.frame[0], x)
        assert expanded == x
        assert reproduces(m, x)

    def test_membership_is_enforced(self, module2, q3_gens):
        assert not module2.contains(q3_gens[0])
        with pytest.raises(ModuleMembershipError):
            right_inner(module2, q3_gens[0], module2.frame[0])

    def test_from_action_builds_the_canonical_system(self, q3_action, q3_twist):
        m = make_module(from_cleft(q3_action), (1,))
        assert m.frame == [TwistedPoly.generator(q3_twist, 2, -1)]


class TestInnerProducts:
    def test_right_linearity(self, module2, q3_action):
        rng = random.Random(61)
        for _ in range(6):
            x, y = module_elements(module2, rng, 2)
            b = random_base_poly(rng, q3_action)
            assert right_inner(module2, x, y * b) == right_inner(module2, x, y) * b

    def test_compatibility(self, module2):
        rng = random.Random(62)
        for _ in range(6):
            x, y, z = module_elements(module2, rng, 3)
            assert left_inner(module2, x, y) * z == x * right_inner(module2, y, z)

    def test_values_land_in_the_fixed_algebra(self, module2, q3_action):
        from nctorus.dynamics import in_base_algebra

        rng = random.Random(63)
        x, y = module_elements(module2, rng, 2)
        assert in_base_algebra(q3_action, right_inner(module2, x, y))
        assert in_base_algebra(q3_action, left_inner(module2, x, y))


class TestFrameConnection:
    def test_flat_on_the_frame_element(self, module2, d1):
        assert frame_connection(module2, d1, module2.frame[0]).is_zero()

    def test_scaling_value(self, module2, d1, q3_gens, q3_twist):
        x = module2.frame[0] * q3_gens[0]
        assert frame_connection(module2, d1, x) == two_pi_i(q3_twist) * x

    def test_leibniz_rule(self, module2, d1, q3_action):
        rng = random.Random(64)
        for _ in range(8):
            (x,) = module_elements(module2, rng, 1)
            b = random_base_poly(rng, q3_action)
            lhs = frame_connection(module2, d1, x * b)
            rhs = frame_connection(module2, d1, x) * b + x * d1.apply(b)
            assert lhs == rhs

    def test_metric_compatibility(self, module2, d1, d2):
        rng = random.Random(65)
        for delta in (d1, d2):
            for _ in range(6):
                x, y = module_elements(module2, rng, 2)
                lhs = delta.apply(right_inner(module2, x, y))
                rhs = right_inner(module2, frame_connection(module2, delta, x), y) + right_inner(
                    module2, x, frame_connection(module2, delta, y)
                )
                assert lhs == rhs

    def test_stays_in_the_module(self, module2, d1):
        rng = random.Random(66)
        for _ in range(5):
            (x,) = module_elements(module2, rng, 1)
            assert module2.contains(frame_connection(module2, d1, x))


class TestSectionConnection:
    def test_agrees_with_frame_connection_for_plain_lifts(self, q3_system, module2, d1, q3_gens):
        lift = LiftedDerivation(q3_system, d1, HFamily.zero(q3_system))
        assert section_connection(module2, lift, module2.frame[0]).is_zero()
        x = module2.frame[0] * q3_gens[0]
        assert section_connection(module2, lift, x) == frame_connection(module2, d1, x)

    def test_leibniz_rule(self, q3_system, module2, d1, q3_action):
        lift = LiftedDerivation(q3_system, d1, HFamily.zero(q3_system))
        rng = random.Random(67)
        for _ in range(6):
            (x,) = module_elements(module2, rng, 1)
            b = random_base_poly(rng, q3_action)
            lhs = section_connection(module2, lift, x * b)
            rhs = section_connection(module2, lift, x) * b + x * d1.apply(b)
            assert lhs == rhs

    def test_difference_from_frame_connection_is_a_module_map(self, q3_system, module2, q3_action, q3_twist, d1):
        # gauge-shifted section: the difference acts by right multiplication
        from nctorus.q3torus import gauge_h_family

        lift = LiftedDerivation(q3_system, d1, gauge_h_family(q3_action))
        rng = random.Random(68)
        for _ in range(6):
            (x,) = module_elements(module2, rng, 1)
            b = random_base_poly(rng, q3_action)
            diff_xb = section_connection(module2, lift, x * b) - frame_connection(
                module2, d1, x * b
            )
            diff_x = section_connection(module2, lift, x) - frame_connection(module2, d1, x)
            assert diff_xb == diff_x * b

    def test_metric_report_is_evaluated_not_assumed(self, q3_system, module2, q3_action, q3_twist, d1, q3_gens):
        rng = random.Random(69)
        pairs = [tuple(module_elements(module2, rng, 2)) for _ in range(4)]
        star_lift = LiftedDerivation(q3_system, d1, HFamily.zero(q3_system))
        skew_rep, metric_rep = section_metric_report(module2, star_lift, pairs)
        assert metric_rep.passed
        # a non-star section: base shifted by a non-skew inner derivation
        mixed_base = d1 + Derivation.inner(q3_twist, q3_action.base, q3_gens[0])
        h_mixed = HFamily.from_scalars(
            q3_action,
            lambda char: q3_gens[0] - q3_system.gamma(char).apply(q3_gens[0]).as_scalar(),
        )
        mixed = LiftedDerivation(q3_system, mixed_base, h_mixed)
        skew2, metric2 = section_metric_report(module2, mixed, pairs)
        assert not metric2.passed
        assert not skew2.passed


class TestCurvature:
    def test_both_methods_vanish_for_cleft_frames(self, module2, d1, d2, q3_action, q3_twist):
        rng = random.Random(70)
        inner = Derivation.inner(q3_twist, q3_action.base, random_skew_scalar(rng, q3_twist))
        derivs = [d1, d2, inner]
        for da in derivs:
            for db in derivs:
                for x in module_elements(module2, rng, 2):
                    c_comm = curvature(module2, da, db, x, "commutator")
                    c_form = curvature(module2, da, db, x, "formula")
                    assert c_comm == c_form
                    assert c_comm.is_zero()

    def test_antisymmetry_in_the_derivation_pair(self, module2, d1, d2, q3_action):
        rng = random.Random(71)
        (x,) = module_elements(module2, rng, 1)
        assert curvature(module2, d1, d1, x, "commutator").is_zero()
        lhs = curvature(module2, d1, d2, x, "commutator")
        rhs = curvature(module2, d2, d1, x, "commutator")
        assert lhs == -rhs

    def test_vanishes_for_non_star_inner_derivations_too(self, module2, d1, q3_action, q3_twist, q3_gens):
        # the frame formulas need only the Leibniz rule, not the involution
        ad_u1 = Derivation.inner(q3_twist, q3_action.base, q3_gens[0])
        rng = random.Random(72)
        for x in module_elements(module2, rng, 3):
            c_comm = curvature(module2, d1, ad_u1, x, "commutator")
            c_form = curvature(module2, d1, ad_u1, x, "formula")
            assert c_comm == c_form
            assert c_comm.is_zero()

    def test_unknown_method_is_an_error(self, module2, d1, d2):
        with pytest.raises(ValueError):
            curvature(module2, d1, d2, module2.frame[0], "quadrature")

    @pytest.mark.parametrize("seed", range(3))
    def test_random_circle_actions_are_flat(self, seed):
        rng = random.Random(500 + seed)
        action = random_circle_action(rng, n_choices=(2, 3))
        fs = from_cleft(action)
        module = make_module(fs, (rng.randint(-2, 2),))
        base = action.base
        if not base:
            return
        da = base_scaling_derivation(action, base[0])
        b = random_skew_scalar(rng, action.twist)
        db = Derivation.inner(action.twist, base, b)
        x = module.frame[0] * random_base_poly(rng, action)
        c_comm = curvature(module, da, db, x, "commutator")
        c_form = curvature(module, da, db, x, "formula")
        assert c_comm == c_form
        assert c_comm.is_zero()
