import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.algebra import (
    PolyMatrix,
    TwistedPoly,
    TwistMatrix,
    TwistMismatchError,
    numeric_product,
)
from nctorus.factor_system import from_cleft
from nctorus.phases import Phase, QQi

from conftest import pythagorean_column, random_base_poly, random_poly, theta_float
import reference
from strategies import TW3, polys


def unit(tw, k, l, power=1):
    return TwistedPoly.scalar(tw, Phase.unit(tw.nslots, tw.slot(k, l), power))


def normal_order_oracle(tw, letters):
    """Independent single-swap rewriting: bubble-sort letters (gen, +-1),
    accumulating one reordering phase per adjacent transposition."""
    letters = list(letters)
    phase = Phase.one(tw.nslots)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            (a, s), (b, t) = letters[i], letters[i + 1]
            if a > b:
                # u_a^s u_b^t = q_{ba}^(-s t) u_b^t u_a^s
                phase = phase.mul(Phase.unit(tw.nslots, tw.slot(b, a), -s * t))
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                changed = True
    exps = [0] * tw.n
    for k, s in letters:
        exps[k] += s
    return TwistedPoly.monomial(tw, exps, phase)


def letters_product(tw, letters):
    total = TwistedPoly.one(tw)
    for k, s in letters:
        total = total * TwistedPoly.generator(tw, k, s)
    return total


@pytest.fixture(scope="module")
def tw():
    return TW3


class TestTwistMatrix:
    def test_requires_skew_symmetry(self):
        with pytest.raises(ValueError):
            TwistMatrix([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
        with pytest.raises(ValueError):
            TwistMatrix([[Fraction(1, 3), 0], [0, 0]])

    def test_slot_layout(self, tw):
        assert tw.nslots == 3
        assert tw.slot_pairs == [(0, 1), (0, 2), (1, 2)]
        assert tw.slot_names() == ["q12", "q13", "q23"]


class TestMul:
    def test_normal_ordered_product_has_no_phase(self, tw):
        u1, u2 = TwistedPoly.generator(tw, 0), TwistedPoly.generator(tw, 1)
        assert u1 * u2 == TwistedPoly.monomial(tw, (1, 1, 0))

    def test_single_swap(self, tw):
        u1, u2 = TwistedPoly.generator(tw, 0), TwistedPoly.generator(tw, 1)
        assert u2 * u1 == unit(tw, 0, 1, -1) * (u1 * u2)

    def test_double_swap_matches_rewriting_oracle(self, tw):
        u1, u3 = TwistedPoly.generator(tw, 0), TwistedPoly.generator(tw, 2)
        product = u3 * u3 * u1
        oracle = normal_order_oracle(tw, [(2, 1), (2, 1), (0, 1)])
        assert product == oracle
        # lambda_31^2 = q13^-2
        assert product == unit(tw, 0, 2, -2) * (u1 * u3 * u3)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_words_match_rewriting_oracle(self, tw, seed):
        rng = random.Random(1000 + seed)
        letters = [
            (rng.randrange(tw.n), rng.choice((1, -1))) for _ in range(rng.randint(2, 7))
        ]
        assert letters_product(tw, letters) == normal_order_oracle(tw, letters)

    def test_twist_mismatch_is_an_error(self, tw):
        # monomials on both sides: the monomial and 1 x 1 lanes check too
        other = TwistMatrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
        x, y = TwistedPoly.generator(tw, 0), TwistedPoly.monomial(other, (0, 1), QQi(0, 3))
        for lhs, rhs in ((x, y), (y, x), (PolyMatrix.from_scalar(x), PolyMatrix.from_scalar(y))):
            with pytest.raises(TwistMismatchError):
                lhs * rhs


class TestStar:
    def test_generator(self, tw):
        u1 = TwistedPoly.generator(tw, 0)
        assert u1.star() == TwistedPoly.generator(tw, 0, -1)

    def test_star_matches_reversed_inverse_product(self, tw):
        # star(c u^a) equals the normal form of conj(c) u_n^-an ... u_1^-a1
        rng = random.Random(42)
        for _ in range(12):
            exps = [rng.randint(-3, 3) for _ in range(tw.n)]
            mono = TwistedPoly.monomial(tw, exps, QQi(0, 1))
            letters = []
            for k in reversed(range(tw.n)):
                letters.extend([(k, -1 if exps[k] > 0 else 1)] * abs(exps[k]))
            expected = letters_product(tw, letters).scale(QQi(0, -1))
            assert mono.star() == expected

    def test_involution(self, tw):
        u1, u2, u3 = (TwistedPoly.generator(tw, k) for k in range(3))
        x = u1 * u2 * u3
        assert x.star().star() == x

    def test_antilinearity(self, tw):
        u1, u2 = TwistedPoly.generator(tw, 0), TwistedPoly.generator(tw, 1)
        x = (u1 * u2).scale(QQi(0, 1))
        assert x.star() == (u1 * u2).star().scale(QQi(0, -1))


class TestRingOps:
    def test_additive_inverse(self, tw):
        u1 = TwistedPoly.generator(tw, 0)
        assert (u1 + (-u1)).is_zero()

    def test_one_is_neutral(self, tw):
        x = TwistedPoly.generator(tw, 0) + TwistedPoly.generator(tw, 2, -2)
        assert TwistedPoly.one(tw) * x == x
        assert x * TwistedPoly.one(tw) == x

    def test_collecting_terms(self, tw):
        u1, u2 = TwistedPoly.generator(tw, 0), TwistedPoly.generator(tw, 1)
        assert (u1 + u2) + u1 == u1.scale(QQi(2)) + u2

    def test_scalar_coercion(self, tw):
        u1 = TwistedPoly.generator(tw, 0)
        assert 2 * u1 == u1 + u1
        assert u1 * Fraction(1, 2) + u1 * Fraction(1, 2) == u1

    def test_unreadable_coefficient_is_rejected(self, tw):
        with pytest.raises(TypeError, match="cannot use str as coefficient"):
            TwistedPoly.monomial(tw, (1, 0, 0), "x")
        with pytest.raises(TypeError, match="cannot use str as scalar"):
            TwistedPoly.scalar(tw, "x")
        # scale reads its coefficient the same way, on every polynomial
        for x in (TwistedPoly.zero(tw), TwistedPoly.generator(tw, 0)):
            with pytest.raises(TypeError, match="cannot use str as coefficient"):
                x.scale("x")


class TestEvaluate:
    def test_constants_and_characters(self, tw):
        th = theta_float(tw)
        z = [complex(-1), complex(1), complex(1)]
        assert TwistedPoly.one(tw).evaluate(th, z) == pytest.approx(1.0)
        assert TwistedPoly.generator(tw, 0).evaluate(th, z) == pytest.approx(-1.0)

    def test_relation_identity_vanishes(self, tw):
        rng = random.Random(5)
        u1, u2 = TwistedPoly.generator(tw, 0), TwistedPoly.generator(tw, 1)
        relation = u2 * u1 - unit(tw, 0, 1, -1) * (u1 * u2)
        assert relation.is_zero()
        for _ in range(5):
            z = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(3)]
            assert abs(relation.evaluate(theta_float(tw), z)) < 1e-9

    def test_rejects_non_skew_numeric_theta(self, tw):
        bad = [[0.0, 0.25, 0.1], [-0.25, 0.0, 0.2], [-0.1, -0.2 + 1e-6, 0.0]]
        with pytest.raises(ValueError):
            TwistedPoly.generator(tw, 0).evaluate(bad, [1, 1, 1])

    @pytest.mark.parametrize("seed", range(6))
    def test_product_against_numeric_oracle(self, tw, seed):
        rng = random.Random(9000 + seed)
        x = random_poly(rng, tw, max_terms=5, exp_range=3, with_phases=True)
        y = random_poly(rng, tw, max_terms=5, exp_range=3, with_phases=True)
        th = theta_float(tw)
        z = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(3)]
        got = (x * y).evaluate(th, z)
        want = numeric_product(x, y, th, z)
        assert got == pytest.approx(want, abs=1e-9)


class TestPolyMatrix:
    def test_identity_neutral(self, tw):
        rng = random.Random(3)
        entries = [[random_poly(rng, tw, 2, 2) for _ in range(2)] for _ in range(2)]
        x = PolyMatrix(tw, entries)
        eye = PolyMatrix.identity(tw, 2)
        assert eye * x == x
        assert x * eye == x

    def test_adjoint_involution(self, tw):
        rng = random.Random(4)
        x = PolyMatrix(tw, [[random_poly(rng, tw, 2, 2) for _ in range(3)] for _ in range(2)])
        assert x.adjoint().adjoint() == x

    @pytest.mark.parametrize("seed", range(4))
    def test_product_adjoint_reverses(self, tw, seed):
        rng = random.Random(50 + seed)
        x = PolyMatrix(tw, [[random_poly(rng, tw, 2, 2) for _ in range(2)] for _ in range(2)])
        y = PolyMatrix(tw, [[random_poly(rng, tw, 2, 2) for _ in range(2)] for _ in range(2)])
        lhs = (x * y).adjoint()
        # entrywise expansion oracle
        rhs_entries = [
            [
                sum(
                    (y.entry(k, i).star() * x.entry(j, k).star() for k in range(2)),
                    TwistedPoly.zero(tw),
                )
                for j in range(2)
            ]
            for i in range(2)
        ]
        assert lhs == PolyMatrix(tw, rhs_entries)
        assert lhs == y.adjoint() * x.adjoint()

    def test_shape_mismatch(self, tw):
        x = PolyMatrix.identity(tw, 2)
        y = PolyMatrix.identity(tw, 3)
        with pytest.raises(ValueError):
            x * y


class TestUnitLane:
    @staticmethod
    def operands(tw):
        """A dense x, a monomial x and zero."""
        dense = TwistedPoly.generator(tw, 0) + unit(tw, 1, 2) * TwistedPoly.generator(tw, 2, -1)
        mono = TwistedPoly.monomial(tw, (1, -2, 0), QQi(Fraction(1, 3), -1))
        return dense, mono, TwistedPoly.zero(tw)

    def test_every_constructor_of_one_returns_the_shared_unit(self, tw):
        from nctorus.cli import parse_poly
        from nctorus.dynamics import TorusAction, cleft_generator

        ones = [
            TwistedPoly.one(tw),
            TwistedPoly.scalar(tw, 1),
            TwistedPoly.scalar(tw, QQi(1)),
            TwistedPoly.scalar(tw, Phase.one(tw.nslots)),
            TwistedPoly.monomial(tw, (0, 0, 0)),
            TwistedPoly.generator(tw, 1, 0),
            cleft_generator(TorusAction(tw, (2,)), (0,)),
            parse_poly(tw, [{"exponents": [0, 0, 0]}], "witness"),
        ]
        assert all(one is tw.one for one in ones)
        # a 1 that the lane forms from two other factors is the shared one too
        u1 = TwistedPoly.generator(tw, 0)
        assert u1 * TwistedPoly.generator(tw, 0, -1) is tw.one
        assert u1.star() * u1 is tw.one and u1 * u1.star() is tw.one
        # other scalars are values of their own
        assert TwistedPoly.scalar(tw, -1) is not tw.one
        assert unit(tw, 0, 1) != tw.one

    def test_a_product_by_the_unit_is_the_other_factor(self, tw):
        for x in self.operands(tw):
            assert x * tw.one is x
            assert tw.one * x is x
        assert tw.one * tw.one is tw.one
        assert tw.one.star() is tw.one

    def test_a_matrix_product_by_the_unit_is_the_other_factor(self, tw):
        eye = PolyMatrix.identity(tw, 1)
        assert eye.entry(0, 0) is tw.one
        for x in self.operands(tw):
            m = PolyMatrix.from_scalar(x)
            assert m * eye is m
            assert eye * m is m

    def test_the_unit_of_an_equal_twist_built_apart(self, tw):
        twin = TwistMatrix([list(row) for row in tw.theta])
        assert twin == tw and twin.one is not tw.one
        for x in self.operands(tw):
            assert x * twin.one == x and twin.one * x == x
            m, eye = PolyMatrix.from_scalar(x), PolyMatrix.identity(twin, 1)
            assert m * eye == m and eye * m == m

    def test_the_unit_of_another_twist_is_a_mismatch(self, tw):
        other = TwistMatrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
        for x in self.operands(tw):
            pairs = [
                (x, other.one),
                (other.one, x),
                (PolyMatrix.from_scalar(x), PolyMatrix.identity(other, 1)),
                (PolyMatrix.identity(other, 1), PolyMatrix.from_scalar(x)),
            ]
            for lhs, rhs in pairs:
                with pytest.raises(TwistMismatchError):
                    lhs * rhs


# the exact ring axioms on small polynomials over a 2 x 2 twist
small_polys = polys(TwistMatrix([[0, Fraction(1, 3)], [Fraction(-1, 3), 0]]), phase_terms=(1, 1))


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_associativity_property(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_star_antimultiplicative_property(x, y):
    assert (x * y).star() == y.star() * x.star()


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_distributivity_property(x, y):
    z = TwistedPoly.generator(x.twist, 0) + TwistedPoly.generator(x.twist, 1, -1)
    assert (x + y) * z == x * z + y * z


def test_generator_unitarity_all_twists():
    rng = random.Random(77)
    for _ in range(5):
        n = rng.randint(2, 4)
        theta = [[Fraction(0)] * n for _ in range(n)]
        for k in range(n):
            for l in range(k + 1, n):
                theta[k][l] = Fraction(rng.randint(-11, 11), rng.randint(1, 12))
                theta[l][k] = -theta[k][l]
        tw = TwistMatrix(theta)
        one = TwistedPoly.one(tw)
        for k in range(n):
            u = TwistedPoly.generator(tw, k)
            assert u * u.star() == one
            assert u.star() * u == one
        for k in range(n):
            for l in range(n):
                if k == l:
                    continue
                uk, ul = TwistedPoly.generator(tw, k), TwistedPoly.generator(tw, l)
                lam = unit(tw, min(k, l), max(k, l), 1 if k < l else -1)
                assert uk * ul - lam * (ul * uk) == TwistedPoly.zero(tw)


# the monomial lane: single-term and 1 x 1 products skip the general loops
# and must return exactly what those loops return

# one- or two-term phases on one monomial
monomials = polys(TW3, terms=(1, 1), phase_terms=(1, 2))


def _far_term(x: TwistedPoly) -> TwistedPoly:
    """A unit monomial whose exponent no product with x's can collide with."""
    (a,) = x.terms
    return TwistedPoly.monomial(TW3, [e + 20 for e in a])


@settings(max_examples=80, deadline=None)
@given(monomials, monomials)
def test_monomial_lane_matches_the_general_loop(x, y):
    product = x * y
    (key,) = product.terms
    # a second, far-off term sends each side through the general double loop
    for general in ((x + _far_term(x)) * y, x * (y + _far_term(y))):
        assert product.terms == {key: general.terms[key]}
    assert product.twist is x.twist
    assert product == TwistedPoly(TW3, dict(product.terms))  # canonical: nothing to filter


@settings(max_examples=60, deadline=None)
@given(monomials, monomials, monomials)
def test_one_by_one_lane_matches_the_general_loop(x, y, z):
    zero = TwistedPoly.zero(TW3)
    lane = PolyMatrix.from_scalar(x) * PolyMatrix.from_scalar(y + z)
    # a 1 x 2 by 2 x 1 product runs the triple loop and the full constructor
    general = PolyMatrix(TW3, [[x, zero]]) * PolyMatrix(TW3, [[y + z], [zero]])
    assert lane == general
    assert (lane.rows, lane.cols, lane.twist) == (1, 1, TW3)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 2), st.data())
def test_ampliate_is_the_kronecker_product_with_the_identity(rows, cols, d, data):
    entries = [[data.draw(monomials) for _ in range(cols)] for _ in range(rows)]
    x = PolyMatrix(TW3, entries)
    assert x.ampliate(d) == x.kron(PolyMatrix.identity(TW3, d))
    if d == 1:
        assert x.ampliate(d) is x


@pytest.fixture(scope="module")
def pythagorean_system(q3_action):
    return from_cleft(q3_action, pythagorean_column(q3_action))


@settings(max_examples=30, deadline=None)
@given(st.integers(-2, 2), st.data())
def test_one_by_one_apply_to_matrix_is_the_block_assembly(pythagorean_system, k, data):
    action = pythagorean_system.action
    tw = action.twist
    g = pythagorean_system.gamma((k,))
    x = random_base_poly(random.Random(data.draw(st.integers(0, 10**6))), action)
    zero = TwistedPoly.zero(tw)
    lane = g.apply_to_matrix(PolyMatrix.from_scalar(x))
    # diag(x, 0) runs the general assembly; its (0, 0) entries form the one block
    general = g.apply_to_matrix(PolyMatrix(tw, [[x, zero], [zero, zero]]))
    d = g.dim
    assert lane == PolyMatrix(
        tw, [[general.entry(2 * s1, 2 * s2) for s2 in range(d)] for s1 in range(d)]
    )
    assert (lane.rows, lane.cols) == (d, d) == ((2, 2) if k else (1, 1))


# the dense lane: the general products run one kernel that accumulates
# unreduced integers per output key and reduces once (compared with the
# references on the dense input class in test_monomial_core.py)


class TestDenseLane:
    def test_phase_terms_that_cancel_are_dropped(self):
        n = TW3.nslots
        q_tau = Phase(n, {((1, 0, 0), 1): QQi(1)})
        one = Phase.one(n)
        product = one.add(q_tau).mul(one.sub(q_tau))
        # (1 + q tau)(1 - q tau) = 1 - q^2 tau^2: the q tau terms cancel
        assert dict(product.items()) == {((0, 0, 0), 0): QQi(1), ((2, 0, 0), 2): QQi(-1)}

    def test_an_output_monomial_that_cancels_is_dropped(self):
        u1, u2 = (TwistedPoly.generator(TW3, k) for k in (0, 1))
        q12 = TwistedPoly.scalar(TW3, Phase.unit(TW3.nslots, TW3.slot(0, 1)))
        # u1 u2 - q12 u2 u1 = 0, since u2 u1 = q12^-1 u1 u2
        product = (u1 + u2) * (u2 - q12 * u1)
        assert (1, 1, 0) not in product.terms
        assert product == u2 * u2 - q12 * u1 * u1
        assert product.terms == reference.poly_mul(u1 + u2, u2 - q12 * u1).terms

    def test_mixed_denominators_on_one_key(self):
        n = TW3.nslots
        q = ((1, 0, 0), 0)
        q_inv = ((-1, 0, 0), 0)
        zero = ((0, 0, 0), 0)
        p = Phase(n, {zero: QQi(Fraction(1, 2)), q: QQi(1)})
        r = Phase(n, {zero: QQi(Fraction(1, 3)), q_inv: QQi(0, 1)})
        # the constant key gets 1/6 and then i over a different denominator
        assert dict(p.mul(r).items()) == {
            zero: QQi(Fraction(1, 6), 1),
            q_inv: QQi(0, Fraction(1, 2)),
            q: QQi(Fraction(1, 3)),
        }

    def test_several_term_pairs_on_one_output_monomial(self):
        u1, u2, u3 = (TwistedPoly.generator(TW3, k) for k in range(3))
        x = u1 + u2 + u3
        # u_k u_l and u_l u_k meet on every key off the diagonal
        assert (x * x).terms == reference.poly_mul(x, x).terms
        assert len((x * x).terms) == 6

    def test_reorder_phase_lands_on_the_right_operand_order(self):
        u1, u2 = (TwistedPoly.generator(TW3, k) for k in (0, 1))
        one = TwistedPoly.one(TW3)
        # u2 u1 carries q12^-1 and u1 u2 none
        assert ((one + u2) * (one + u1)).terms[(1, 1, 0)] == Phase.unit(
            TW3.nslots, TW3.slot(0, 1), -1
        )
        assert ((one + u1) * (one + u2)).terms[(1, 1, 0)] == Phase.one(TW3.nslots)
