import random
from fractions import Fraction

import pytest

from nctorus.algebra import TwistedPoly, TwistMatrix
from nctorus.dynamics import (
    GradedElement,
    TorusAction,
    char_box,
    cleft_generator,
    fixed_part,
    grade,
    inner_product,
    is_equivariant,
)
from nctorus.phases import Phase

from conftest import random_base_poly, random_poly


@pytest.fixture(scope="module")
def gens(q3_twist):
    return tuple(TwistedPoly.generator(q3_twist, k) for k in range(3))


class TestGrade:
    def test_acting_generator_has_weight_one(self, q3_action, gens):
        assert grade(q3_action, gens[2]).support() == [(1,)]

    def test_fixed_generator_has_weight_zero(self, q3_action, gens):
        assert grade(q3_action, gens[0]).support() == [(0,)]

    def test_degree_additivity(self, q3_action, gens):
        u1, _, u3 = gens
        g = grade(q3_action, u1 + u3 + u3 * u3)
        assert g.support() == [(0,), (1,), (2,)]

    def test_components_sum_back(self, q3_action, q3_twist):
        rng = random.Random(11)
        for _ in range(10):
            x = random_poly(rng, q3_twist, 6, 3)
            assert grade(q3_action, x).to_poly() == x

    def test_grading_is_multiplicative(self, q3_action, q3_twist):
        rng = random.Random(12)
        for _ in range(10):
            x = random_poly(rng, q3_twist, 2, 2)
            y = random_poly(rng, q3_twist, 2, 2)
            gx, gy = grade(q3_action, x), grade(q3_action, y)
            for cx in gx.support():
                for cy in gy.support():
                    piece = gx.component(cx) * gy.component(cy)
                    want = tuple(a + b for a, b in zip(cx, cy))
                    assert is_equivariant(q3_action, piece, want)


class TestFixedPart:
    def test_fixed_element_is_kept(self, q3_action, gens):
        x = gens[0] * gens[1]
        assert fixed_part(q3_action, x) == x

    def test_pure_weight_is_killed(self, q3_action, gens):
        assert fixed_part(q3_action, gens[2]).is_zero()

    def test_conjugated_generator(self, q3_action, q3_twist, gens):
        # u3* u1 u3 picks up one reordering unit: q13 * u1
        u1, _, u3 = gens
        got = fixed_part(q3_action, u3.star() * u1 * u3)
        want = u1.scale(Phase.unit(q3_twist.nslots, q3_twist.slot(0, 2)))
        assert got == want
        # oracle: multiply first, grade afterwards
        assert grade(q3_action, u3.star() * u1 * u3).component((0,)) == want

    def test_idempotent(self, q3_action, q3_twist):
        rng = random.Random(13)
        for _ in range(10):
            x = random_poly(rng, q3_twist, 5, 3)
            p = fixed_part(q3_action, x)
            assert fixed_part(q3_action, p) == p

    def test_bimodularity_over_fixed_elements(self, q3_action, q3_twist):
        rng = random.Random(14)
        for _ in range(8):
            x = random_poly(rng, q3_twist, 4, 2)
            b = random_base_poly(rng, q3_action)
            b2 = random_base_poly(rng, q3_action)
            lhs = fixed_part(q3_action, b * x * b2)
            rhs = b * fixed_part(q3_action, x) * b2
            assert lhs == rhs


class TestInnerProduct:
    def test_unitary_normalization(self, q3_action, gens):
        assert inner_product(q3_action, gens[2], gens[2]) == TwistedPoly.one(gens[2].twist)

    def test_shifted_pairing(self, q3_action, gens):
        u1, _, u3 = gens
        assert inner_product(q3_action, u3, u3 * u1) == u1

    def test_orthogonality_of_weights(self, q3_action, gens):
        assert inner_product(q3_action, gens[0], gens[2]).is_zero()

    def test_conjugate_symmetry(self, q3_action, q3_twist):
        rng = random.Random(15)
        for _ in range(8):
            x = random_poly(rng, q3_twist, 4, 2)
            y = random_poly(rng, q3_twist, 4, 2)
            assert inner_product(q3_action, x, y).star() == inner_product(q3_action, y, x)

    def test_definiteness_on_monomial_sums(self, q3_action, q3_twist):
        rng = random.Random(16)
        for _ in range(10):
            x = random_poly(rng, q3_twist, 5, 3)
            assert not inner_product(q3_action, x, x).is_zero()


class TestCleftGenerator:
    def test_weight_one(self, q3_action, gens):
        assert cleft_generator(q3_action, (1,)) == gens[2]

    def test_trivial_character(self, q3_action, q3_twist):
        assert cleft_generator(q3_action, (0,)) == TwistedPoly.one(q3_twist)

    def test_negative_powers(self, q3_action, q3_twist):
        assert cleft_generator(q3_action, (-2,)) == TwistedPoly.generator(q3_twist, 2, -2)

    def test_equivariance_and_unitarity(self, q3_action):
        for (k,) in char_box(1, 3):
            s = cleft_generator(q3_action, (k,))
            assert is_equivariant(q3_action, s, (k,))
            assert s * s.star() == TwistedPoly.one(q3_action.twist)

    def test_cleftness_up_to_central_phase(self, q3_action):
        # s(sigma) s(pi) and s(sigma+pi) differ by a scalar phase only
        for (a,) in char_box(1, 3):
            for (b,) in char_box(1, 3):
                left = cleft_generator(q3_action, (a,)) * cleft_generator(q3_action, (b,))
                right = cleft_generator(q3_action, (a + b,))
                ratio = left * right.star()
                assert ratio.is_scalar()

    def test_multivariate_action(self):
        tw = TwistMatrix(
            [
                [0, Fraction(1, 5), Fraction(1, 7)],
                [Fraction(-1, 5), 0, Fraction(2, 7)],
                [Fraction(-1, 7), Fraction(-2, 7), 0],
            ]
        )
        act = TorusAction(tw, (0, 2))
        s = cleft_generator(act, (2, -1))
        assert s == TwistedPoly.monomial(tw, (2, 0, -1))
        assert is_equivariant(act, s, (2, -1))


class TestEquivariance:
    def test_examples(self, q3_action, gens):
        assert is_equivariant(q3_action, gens[2], (1,))
        assert not is_equivariant(q3_action, gens[0], (1,))
        zero = TwistedPoly.zero(gens[0].twist)
        assert is_equivariant(q3_action, zero, (1,))
        assert is_equivariant(q3_action, zero, (-7,))


class TestGradedElement:
    def test_star_flips_weights(self, q3_action, q3_twist):
        rng = random.Random(17)
        x = random_poly(rng, q3_twist, 5, 2)
        g = grade(q3_action, x)
        assert g.star().to_poly() == x.star()
        assert sorted(g.star().support()) == sorted(
            tuple(-c for c in s) for s in g.support()
        )

    def test_mul_regrades(self, q3_action, q3_twist):
        rng = random.Random(18)
        x = random_poly(rng, q3_twist, 3, 2)
        y = random_poly(rng, q3_twist, 3, 2)
        assert (grade(q3_action, x) * grade(q3_action, y)).to_poly() == x * y

    def test_equality_and_repr(self, q3_action, q3_twist, gens):
        u1, u2, u3 = gens
        g = grade(q3_action, u3 + u1)
        assert g == grade(q3_action, u1 + u3)
        assert g != grade(q3_action, u2 + u3)  # the same support, another component
        assert g != grade(q3_action, u1 + u3 * u3)  # another support
        assert g != GradedElement(TorusAction(q3_twist, (1, 2)), g.components)
        # a zero component is dropped, so it is equal to none
        assert GradedElement(q3_action, {(1,): TwistedPoly.zero(q3_twist)}) == GradedElement(q3_action, {})
        assert g.__eq__(u1 + u3) is NotImplemented
        assert repr(GradedElement(q3_action, {})) == "{0}"
        assert repr(g) == "{(0,): u1, (1,): u3}"
