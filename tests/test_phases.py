from fractions import Fraction

import pytest

from nctorus.algebra import TwistedPoly, TwistMatrix
from nctorus.dynamics import TorusAction
from nctorus.factor_system import from_cleft, verify_axioms
from nctorus.phases import Phase, QQi


class TestQQi:
    def test_field_operations(self):
        a = QQi(Fraction(1, 2), Fraction(-1, 3))
        b = QQi(2, 1)
        assert a + b == QQi(Fraction(5, 2), Fraction(2, 3))
        assert a * b == QQi(Fraction(1, 2) * 2 + Fraction(1, 3), 1 * Fraction(1, 2) - Fraction(2, 3))
        assert a * a.inverse() == QQi.one()
        assert (-a) + a == QQi.zero()

    def test_conjugation_squares_to_identity(self):
        a = QQi(Fraction(3, 7), Fraction(5, 2))
        assert a.conjugate().conjugate() == a
        assert (a * a.conjugate()).im == 0

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            QQi.zero().inverse()

    def test_repr_forms(self):
        assert repr(QQi(1)) == "1"
        assert repr(QQi(0, -1)) == "-i"
        assert repr(QQi(0, Fraction(1, 2))) == "(1/2)i"
        assert repr(QQi(Fraction(1, 2), Fraction(1, 3))) == "(1/2+(1/3)i)"


class TestPhase:
    def test_canonical_merge_and_zero_removal(self):
        p = Phase.unit(2, 0).add(Phase.unit(2, 0, 1, QQi(-1)))
        assert p.is_zero()

    def test_conjugation_flips_q_and_keeps_tau(self):
        p = Phase(2, {((1, -2), 3): QQi(1, 1)})
        q = p.conjugate()
        assert q == Phase(2, {((-1, 2), 3): QQi(1, -1)})
        assert q.conjugate() == p

    def test_monomial_inversion(self):
        p = Phase(1, {((2,), 1): QQi(0, 2)})
        assert p.mul(p.invert()).is_one()
        with pytest.raises(ValueError):
            Phase.one(1).add(Phase.unit(1, 0)).invert()

    def test_two_pi_i_is_skew(self):
        p = Phase.two_pi_i(3)
        assert p.conjugate() == p.neg()

    def test_numeric_evaluation(self):
        import cmath

        p = Phase(1, {((1,), 1): QQi(2)})
        val = p.evaluate([cmath.exp(0.5j)], 2 * cmath.pi)
        assert val == pytest.approx(2 * cmath.exp(0.5j) * 2 * cmath.pi)

    @pytest.mark.parametrize(
        "phase",
        [
            Phase(2, {((1, -2), 0): QQi(Fraction(2, 3), -1)}),
            Phase(2, {((0, 1), 0): QQi(0, -1)}),
            Phase(2, {((1, 0), 2): QQi(0, 3)}),
            Phase(2, {((1, 0), 0): QQi(1), ((0, -1), 1): QQi(Fraction(1, 2), 2)}),
            Phase(2, {((0, 0), 1): QQi(0, 1), ((1, 1), 0): QQi(-1)}),
        ],
        ids=["monomial", "unit", "tau-monomial", "multi-term", "tau-multi-term"],
    )
    def test_power_equals_repeated_product(self, phase):
        for k in range(-6, 7):
            if k < 0 and len(phase.terms) != 1:
                with pytest.raises(ValueError):
                    phase**k
                continue
            base = phase if k >= 0 else phase.invert()
            ref = Phase.one(phase.nslots)
            for _ in range(abs(k)):
                ref = ref.mul(base)
            assert phase**k == ref, k


class TestSingleGeneratorTorus:
    def test_engine_degenerates_gracefully(self):
        # one generator, no twist slots: the commutative circle algebra
        tw = TwistMatrix([[0]])
        assert tw.nslots == 0
        u = TwistedPoly.generator(tw, 0)
        assert u * u.star() == TwistedPoly.one(tw)
        assert (u + u.star()).star() == u + u.star()

    def test_full_circle_action_on_one_generator(self):
        tw = TwistMatrix([[0]])
        action = TorusAction(tw, (0,))
        fs = from_cleft(action)
        assert verify_axioms(fs, 3, 2).passed
        assert fs.omega((2,), (-1,)).as_scalar() == TwistedPoly.one(tw)
