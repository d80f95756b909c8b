"""Pinned operation counts for fixed verification workloads.

The ring layers are wrapped from outside with counting wrappers, and each
workload runs on a fresh system.  The counts are deterministic, so an
algorithmic regression (an extra product per term pair, a lost cache, a
unit phase multiplied in again) fails here without relying on timing.
A pin may be lowered when a change removes products; it is never raised.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from nctorus.algebra import TwistedPoly
from nctorus.cli import _curvature_sweep, main
from nctorus.cohomology import LiftedAutomorphism, lift_via_cohomology
from nctorus.derivations import Derivation, HFamily, LiftedDerivation, verify_lift_conditions
from nctorus.dynamics import TorusAction
from nctorus.factor_system import (
    Automorphism,
    PartialIsometryFamily,
    from_cleft,
    verify_axioms,
)
from nctorus.phases import Phase, QQi
from nctorus.q3torus import standard_angles, twist3

from conftest import pythagorean_column

# verify_axioms on the q3torus demo system.  Every product on this
# workload multiplies two monomials: one Phase.mul and one QQi product per
# TwistedPoly product.  A morphism caches the image of each monomial, and
# scaling a cached image by its phase is one Phase.mul with no TwistedPoly
# product, so the counts no longer match one to one.  A monomial image is
# the product of its generator powers with no unit factor, and each
# isometry column costs one product for s* s = 1.  x ox 1_1 is x itself
# (``PolyMatrix.ampliate``), so the cocycle identity and the twisted
# product form no Kronecker product with I_1: 1,380 / 1,620 / 1,620 before.
EXPECTED = {
    "TwistedPoly.__mul__": 1255,
    "Phase.mul": 1495,
    "QQi.__mul__": 1495,
}

# lift_via_cohomology of a diagonal automorphism on the q3torus demo
# system with the default witness, r = 2: extraction, the cocycle sweep,
# the solve and the materialized lift's conjugacy check.  The pin covers
# the constructor's relation and *-checks on both legs of the automorphism.
# 2,019 / 2,112 / 2,112 before x ox 1_1 became x itself.  Centrality of a
# cocycle value is read off the integer reordering form, so it forms no
# products x u_k and u_k x (two per value and base generator): 1,933 /
# 2,027 / 2,027 before.
EXPECTED_LIFT = {
    "TwistedPoly.__mul__": 1573,
    "Phase.mul": 1667,
    "QQi.__mul__": 1667,
}

# verify_axioms on the d = 2 Pythagorean column system (d_sigma = 2 for
# sigma != 0), so the 1 x 1 lanes cannot hide a d > 1 regression.  Only
# the cocycle identity at rho = 0, where d_rho = 1, lost its Kronecker
# product with I_1: 5,120 / 6,040 / 6,040 before.
EXPECTED_D2 = {
    "TwistedPoly.__mul__": 5079,
    "Phase.mul": 5999,
    "QQi.__mul__": 5999,
}

# verify_lift_conditions on the q3torus demo system, r = 2, degree 2, with
# the dense skew scalar derivation u_k -> s_k u_k (three-term tau-valued
# s_k) and H(sigma) = sigma * h for a three-term tau-valued h, counted from
# the checked construction of the derivation on.  The derivation caches the
# image of each monomial, so gamma_sigma(b), which has the same exponent
# for every sigma, is expanded by the Leibniz rule once and then only
# scaled by its phase; and a product of multi-term phases runs one kernel
# on integers instead of a QQi product per term pair: 701 / 749 / 1,988
# before.
EXPECTED_DENSE = {
    "TwistedPoly.__mul__": 413,
    "Phase.mul": 509,
    "QQi.__mul__": 149,
}

# The curvature sweep of ``cmd_curvature`` (sigma = 1, degree 2: 13 weight
# monomials, commutator against closed formula) on the q3torus demo system
# with two dense skew scalar derivations u_k -> s_k u_k.  The sweep forms
# the commutator derivation [d1, d2] once, not once per element, and a
# derivation applied to a single-term argument gives back its cached image:
# 401 / 379 / 79 before.
EXPECTED_CURVATURE = {
    "TwistedPoly.__mul__": 365,
    "Phase.mul": 331,
    "QQi.__mul__": 79,
}


@pytest.fixture
def counts(monkeypatch):
    """Calls of each ring product since the fixture was requested."""
    counts = dict.fromkeys(EXPECTED, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for cls, attr in ((TwistedPoly, "__mul__"), (Phase, "mul"), (QQi, "__mul__")):
        name = f"{cls.__name__}.{attr}"
        monkeypatch.setattr(cls, attr, counting(name, cls.__dict__[attr]))
    return counts


def q3_action():
    return TorusAction(twist3(*standard_angles()), (2,))


def test_verify_axioms_operation_counts(counts):
    # a fresh system: its gamma/omega caches start empty
    fs = from_cleft(q3_action())
    report = verify_axioms(fs, char_range=2, gen_degree=2)

    assert report.passed and report.checks == 512
    assert counts == EXPECTED


def test_lift_operation_counts(counts):
    action = q3_action()
    nslots = action.twist.nslots
    beta = Automorphism.diagonal(
        action, {0: Phase.coeff(nslots, QQi(0, 1)), 1: Phase.coeff(nslots, QQi(-1))}
    )
    fs = from_cleft(action)
    outcome = lift_via_cohomology(fs, beta, PartialIsometryFamily.units(fs), 2, 2)

    assert outcome.lifts and outcome.cocycle_report.checks == 176
    assert counts == EXPECTED_LIFT


def test_matrix_valued_axioms_operation_counts(counts):
    action = q3_action()
    fs = from_cleft(action, pythagorean_column(action))
    report = verify_axioms(fs, char_range=1, gen_degree=2)

    assert report.passed and report.checks == 170
    assert counts == EXPECTED_D2


def _skew_scalar(tw, a, c, slot):
    """i a tau + c q tau - conj(c) q^-1 tau for the q unit of ``slot``: s* = -s."""
    n = tw.nslots
    e = tuple(int(j == slot) for j in range(n))
    terms = {
        ((0,) * n, 1): QQi(0, a),
        (e, 1): c,
        (tuple(-x for x in e), 1): -c.conjugate(),
    }
    return TwistedPoly.scalar(tw, Phase(n, terms))


def test_dense_lift_conditions_operation_counts(counts):
    action = q3_action()
    tw = action.twist
    fs = from_cleft(action)
    images = {
        k: _skew_scalar(tw, Fraction(k + 1, 2), QQi(Fraction(1, 3), k - 1), k)
        * TwistedPoly.generator(tw, k)
        for k in action.base
    }
    delta = Derivation(tw, action.base, images)
    h = HFamily.linear_scalar(action, _skew_scalar(tw, Fraction(-1, 3), QQi(2, Fraction(1, 5)), 2))
    report = verify_lift_conditions(fs, delta, h, char_range=2, gen_degree=2)

    assert report.passed and report.checks == 91
    assert counts == EXPECTED_DENSE


def _dense_skew_derivation(tw, gens, a, c):
    images = {
        k: _skew_scalar(tw, Fraction(k + a, 2), QQi(Fraction(1, 3), k - c), k)
        * TwistedPoly.generator(tw, k)
        for k in gens
    }
    return Derivation(tw, gens, images)


def test_curvature_sweep_operation_counts(counts):
    action = q3_action()
    tw = action.twist
    fs = from_cleft(action)
    d1 = _dense_skew_derivation(tw, action.base, 1, 1)
    d2 = _dense_skew_derivation(tw, action.base, -2, 3)
    counts.update(dict.fromkeys(counts, 0))  # count the sweep, not the constructions
    report, flat = _curvature_sweep("curvature", fs, d1, d2, {(1,): {}}, 2)

    assert report.passed and report.checks == 13 and flat
    assert counts == EXPECTED_CURVATURE


# The seeded re-check of ``lift`` and ``lift-derivation`` (six sample
# elements, each against the first three) applies the lift to every sample
# element once, then to each product x y (and, for ``lift``, to each x*):
# 66 and 54 applications before, when each image was formed once per use.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "cls,argv,expected",
    [
        (LiftedAutomorphism,
         ["lift", "--seed", "5", "--config", str(GOLDEN / "lift_witness.config.json")], 30),
        (LiftedDerivation,
         ["lift-derivation", "--seed", "3", "--config", str(GOLDEN / "lift_derivation.config.json")],
         24),
    ],
    ids=["lift", "lift-derivation"],
)
def test_seeded_sample_applies_the_lift_once_per_element(monkeypatch, cls, argv, expected):
    calls = []
    apply = cls.apply

    def counting(self, x):
        calls.append(x)
        return apply(self, x)

    monkeypatch.setattr(cls, "apply", counting)
    assert main(argv) == 0
    assert len(calls) == expected
