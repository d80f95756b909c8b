"""Pinned operation counts for fixed verification workloads.

The ring layers are wrapped from outside with counting wrappers, and each
workload runs on a fresh system.  The counts are deterministic, so an
algorithmic regression (an extra product per term pair, a lost cache, a
unit phase multiplied in again) fails here without relying on timing.
A pin may be lowered when a change removes products; it is never raised.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nctorus import cli, cohomology, phases
from nctorus.algebra import PolyMatrix, TwistedPoly
from nctorus.cli import _curvature_sweep, main
from nctorus.cohomology import LiftedAutomorphism, TwoCocycle, lift_via_cohomology
from nctorus.derivations import Derivation, HFamily, LiftedDerivation, verify_lift_conditions
from nctorus.dynamics import TorusAction
from nctorus.factor_system import (
    Automorphism,
    MatrixMorphism,
    PartialIsometryFamily,
    from_cleft,
    verify_axioms,
)
from nctorus.phases import Phase, QQi
from nctorus.q3torus import standard_angles, twist3

from conftest import pythagorean_column

# Every phase product, the monomial lane's included, is one call of
# ``phases._phase_product``, which forms the product of two single-term
# phases, its one Gaussian-rational product included, in one step.  So
# ``_phase_product`` counts what ``Phase.mul`` and ``QQi.__mul__`` counted
# before, and those two read 0: a product formed outside the helper, or an
# extra one per term, still fails a pin.  Each pin below lowered both from
# the old ``Phase.mul`` count to 0 and pins the helper at or below it.
# ``phases._product_terms`` counts the dense kernel: a product of a
# single-term phase and a multi-term one is built in one pass inside the
# helper, and a product by the shared unit phase returns the other factor,
# so only products of two multi-term phases reach the kernel.

# verify_axioms on the q3torus demo system.  Every product on this
# workload multiplies two monomials: one Phase.mul and one QQi product per
# TwistedPoly product.  A morphism caches the image of each monomial, and
# scaling a cached image by its phase is one Phase.mul with no TwistedPoly
# product, so the counts no longer match one to one.  A monomial image is
# the product of its generator powers with no unit factor, and each
# isometry column costs one product for s* s = 1.  x ox 1_1 is x itself
# (``PolyMatrix.ampliate``), so the cocycle identity and the twisted
# product form no Kronecker product with I_1: 1,380 / 1,620 / 1,620 before.
# Phase.mul and QQi.__mul__ 1,495 / 1,495 before the helper.  Every 1 is
# the twist's shared ``tw.one`` and a product by it returns the other
# factor, in the 1 x 1 matrix lane before any entry product: on a cleft
# system omega is 1 and gamma_sigma(1) is 1, so most products had a unit
# factor.  1,255 products and 1,495 helper calls before the unit lane.
# Every phase here is a single term, so the dense kernel never runs.
# gamma_sigma of a unit-monomial column is read off the commutator form,
# with no conjugation of the generators by s(sigma) and unit 1: 504 -> 432
# helper calls and 281 -> 209 products.  The default family answers its
# placement M sigma from sigma alone and omega is read off the twist, so no
# column is built, checked or adjoined: 432 -> 312 helper calls and
# 209 -> 72 products.  The coaction intertwining and the cocycle identity
# of one-term data are decided in the phase ring: 312 -> 264 helper calls,
# when a product by the shared unit phase was skipped before the call.
# Each of the lane's phase products is now one helper call, a product by
# the shared unit phase included, which the helper's unit lane returns at
# once: 264 -> 1,277 helper calls, with no product or kernel call more.
EXPECTED = {
    "_phase_product": 1277,
    "_product_terms": 0,
    "TwistedPoly.__mul__": 72,
    "Phase.mul": 0,
    "QQi.__mul__": 0,
}

# lift_via_cohomology of a diagonal automorphism on the q3torus demo
# system with the default witness, r = 2: extraction, the cocycle sweep,
# the solve and the materialized lift's conjugacy check.  The pin covers
# the constructor's relation and *-checks on both legs of the automorphism.
# 2,019 / 2,112 / 2,112 before x ox 1_1 became x itself.  Centrality of a
# cocycle value is read off the integer reordering form, so it forms no
# products x u_k and u_k x (two per value and base generator): 1,933 /
# 2,027 / 2,027 before.  verify_cocycle records the unitarity that each
# value's own check decided instead of forming val* val again (25 values on
# the box), and the conjugacy check of the lift reads the transported
# system that extraction built: TwistedPoly.__mul__ 1,573 -> 1,548, and
# 1,667 phase products (Phase.mul, QQi.__mul__) -> 1,602 helper calls.
# The unit lane: 1,548 -> 883 products and 1,602 -> 510 helper calls.
# Every phase here is a single term, so the dense kernel never runs.
# gamma_sigma and Delta_sigma of the unit-monomial columns are read off the
# commutator form: 510 -> 370 helper calls and 883 -> 723 products.
# Each of the 65 cocycle values is one term with |c| = 1 and no tau, so
# its unitarity is read off the coefficient with no product x* x:
# 723 -> 658 products.  gamma_sigma, Delta_sigma and omega of the default
# family build no column (the cocycle values still do): 370 -> 262 helper
# calls and 658 -> 533 products.  Every witness here is the scalar 1 and
# every column a generator column, so each cocycle value is formed in the
# phase ring, with no column, adjoint or Kronecker product and no product
# by the shared unit phase: 262 -> 142 helper calls and 533 -> 396
# products, and no ``PolyMatrix.kron`` (65 before).  The materialized
# lift's witness is certified from the generators: every gamma_sigma and
# gamma'_sigma on the box passes the relation check and each v(sigma) is a
# partial isometry, so its conjugation laws run at 1 and u_k^+-1 and no
# monomial image of degree 2 is formed; the relation check now forms
# u_k^-1 u_k too, on both legs of the automorphism: 142 -> 136 helper calls
# and 396 -> 380 products.  The relation check no longer forms u_k^-1 u_k,
# as a one-sided inverse under an absorbing unit is two-sided: 380 -> 356
# products and 136 -> 112 helper calls.  The cocycle identity of one-term
# values is decided in the phase ring, with no polynomial product:
# 356 -> 106 products.  Each phase product of that lane and of the cocycle
# values formed in the phase ring is one helper call, a product by the
# shared unit phase included, which the helper's unit lane returns at
# once: 112 -> 752 helper calls.
EXPECTED_LIFT = {
    "_phase_product": 752,
    "_product_terms": 0,
    "TwistedPoly.__mul__": 106,
    "Phase.mul": 0,
    "QQi.__mul__": 0,
}

# Lookups on the one-term lane's path, for the runs of EXPECTED and
# EXPECTED_LIFT, each from a fresh action: ``phases._layout``, the checked
# table read behind ``Phase.one``, and ``TwoCocycle.value``.  The lane reads
# the shared unit phase straight from the layout table, which the phase's
# own construction filled, and reads each omega or u term of the cocycle
# identity once per sweep (``factor_system._cocycle_law``'s ``read``), so
# what is left is read once per value or per system, not once per identity.
# Before: _layout 2,346 on the axioms and 1,028 on the lift, and
# TwoCocycle.value 459 on the lift.  extract_cocycle reads the outer factor
# from the columns' own omega phase, which takes the unit phase from the
# layout table, instead of its own checked ``Phase.one``: 263 -> 262.
EXPECTED_LOOKUPS = {
    "axioms": {"_layout": 41, "TwoCocycle.value": 0},
    "lift": {"_layout": 262, "TwoCocycle.value": 149},
}

# verify_axioms on the d = 2 Pythagorean column system (d_sigma = 2 for
# sigma != 0), so the 1 x 1 lanes cannot hide a d > 1 regression.  Only
# the cocycle identity at rho = 0, where d_rho = 1, lost its Kronecker
# product with I_1: 5,120 / 6,040 / 6,040 before.  Phase.mul and
# QQi.__mul__ 5,999 / 5,999 before the helper.  The unit lane: 5,079 ->
# 5,037 products and 5,999 -> 5,728 helper calls.  Every phase here is a
# single term, so the dense kernel never runs.  Every morphism scales its
# cached image of 1 by a scalar p, gamma_0 (d_0 = 1) included: 56 such
# scalars, each one helper call.  omega(0, 0) is the unit,
# as every family has s(0) = 1, with no product: 5,037 -> 5,036 products.
# Every other omega keeps the product.  The one-term lane's products at
# d_sigma = 1 are helper calls, a product by the shared unit phase
# included: 5,728 -> 5,756 helper calls.
EXPECTED_D2 = {
    "_phase_product": 5756,
    "_product_terms": 0,
    "TwistedPoly.__mul__": 5036,
    "Phase.mul": 0,
    "QQi.__mul__": 0,
}

# verify_lift_conditions on the q3torus demo system, r = 2, degree 2, with
# the dense skew scalar derivation u_k -> s_k u_k (three-term tau-valued
# s_k) and H(sigma) = sigma * h for a three-term tau-valued h, counted from
# the checked construction of the derivation on.  The derivation caches the
# image of each monomial, so gamma_sigma(b), which has the same exponent
# for every sigma, is expanded by the Leibniz rule once and then only
# scaled by its phase; and a product of multi-term phases runs one kernel
# on integers instead of a QQi product per term pair: 701 / 749 / 1,988
# before.  Phase.mul and QQi.__mul__ 509 / 149 before the helper.  The
# unit lane: 413 -> 308 products and 509 -> 380 helper calls.  The
# single-term lane: 260 -> 1 kernel calls, since nearly every dense product
# has a single-term factor.  gamma_sigma read off the commutator form:
# 380 -> 344 helper calls and 308 -> 272 products.  gamma_sigma and omega
# of the default family build no column: 344 -> 300 helper calls and
# 272 -> 219 products.  gamma_sigma scales its cached image of 1 by the
# three-term scalar H(pi) of the cocycle derivative, one helper call each.
# The one-term lane's products are helper calls, a product by the shared
# unit phase included: 300 -> 325 helper calls.
EXPECTED_DENSE = {
    "_phase_product": 325,
    "_product_terms": 1,
    "TwistedPoly.__mul__": 219,
    "Phase.mul": 0,
    "QQi.__mul__": 0,
}

# The curvature sweep of ``cmd_curvature`` (sigma = 1, degree 2: 13 weight
# monomials, commutator against closed formula) on the q3torus demo system
# with two dense skew scalar derivations u_k -> s_k u_k.  The sweep forms
# the commutator derivation [d1, d2] once, not once per element, and a
# derivation applied to a single-term argument gives back its cached image:
# 401 / 379 / 79 before.  Phase.mul and QQi.__mul__ 331 / 79 before the
# helper.  The unit lane: 331 -> 266 helper calls; the product count stays,
# since a product by the unit is still a call of ``TwistedPoly.__mul__``.
# The single-term lane: 202 -> 28 kernel calls.
EXPECTED_CURVATURE = {
    "_phase_product": 266,
    "_product_terms": 28,
    "TwistedPoly.__mul__": 365,
    "Phase.mul": 0,
    "QQi.__mul__": 0,
}


# the helper and the kernel, taken before any test wraps them
HELPERS = {name: getattr(phases, name) for name in ("_phase_product", "_product_terms")}


def _references(fn) -> list:
    """(module, attribute) of every loaded ``nctorus`` module attribute that is ``fn``."""
    return [
        (module, attr)
        for name, module in list(sys.modules.items())
        if name == "nctorus" or name.startswith("nctorus.")
        for attr, value in list(vars(module).items())
        if value is fn
    ]


def _wrap_helper(monkeypatch, name: str, wrapped) -> None:
    """Put ``wrapped`` in place of every reference to the helper or kernel ``name``.

    A module that imports it by name holds its own reference, so the
    references are found by a scan, not listed.
    """
    for module, attr in _references(HELPERS[name]):
        monkeypatch.setattr(module, attr, wrapped)


def _count_products(monkeypatch) -> dict:
    counts = dict.fromkeys(EXPECTED, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for cls, attr in ((TwistedPoly, "__mul__"), (Phase, "mul"), (QQi, "__mul__")):
        name = f"{cls.__name__}.{attr}"
        monkeypatch.setattr(cls, attr, counting(name, cls.__dict__[attr]))
    for name, fn in HELPERS.items():
        _wrap_helper(monkeypatch, name, counting(name, fn))
    return counts


@pytest.fixture
def counts(monkeypatch):
    """Calls of each ring product since the fixture was requested."""
    return _count_products(monkeypatch)


def test_the_counts_fixture_leaves_no_unwrapped_reference():
    found = {name: {m.__name__ for m, _ in _references(fn)} for name, fn in HELPERS.items()}
    assert {"nctorus.phases", "nctorus.algebra", "nctorus.factor_system"} <= found["_phase_product"]
    assert {"nctorus.phases", "nctorus.algebra"} <= found["_product_terms"]
    with pytest.MonkeyPatch.context() as mp:
        _count_products(mp)
        assert [_references(fn) for fn in HELPERS.values()] == [[], []]


def q3_action():
    return TorusAction(twist3(*standard_angles()), (2,))


def test_verify_axioms_operation_counts(counts):
    # a fresh system: its gamma/omega caches start empty
    fs = from_cleft(q3_action())
    report = verify_axioms(fs, char_range=2, gen_degree=2)

    assert report.passed and report.checks == 512
    assert counts == EXPECTED
    # the generator family answered every question without a column
    assert fs.isometries._cache == {} and fs.isometries._adjoints == {}


# A 1 that is equal to the unit but is not ``tw.one`` misses the unit lane
# and pays the monomial lane.  On this workload every unit operand is
# shared, so a new source of 1 that forgets to share fails here.
def test_every_unit_operand_of_the_axioms_is_the_shared_one(monkeypatch):
    unshared = []
    mul = TwistedPoly.__mul__

    def watching(self, other):
        for x in (self, other):
            if isinstance(x, TwistedPoly) and x is not x.twist.one and x == x.twist.one:
                unshared.append(x)
        return mul(self, other)

    monkeypatch.setattr(TwistedPoly, "__mul__", watching)
    report = verify_axioms(from_cleft(q3_action()), char_range=2, gen_degree=2)

    assert report.passed and report.checks == 512
    assert unshared == []


# The same for phases: a 1 that is not the shared ``Phase.one`` of its slot
# count misses the unit lane of ``_phase_product``.  On the axioms and on the
# lift every phase operand equal to 1 is the shared one.
def _unshared_unit_phases(monkeypatch, run):
    unshared = []
    product = phases._phase_product

    def watching(p, o, shift):
        for x in (p, o):
            if x is not Phase.one(x.nslots) and x.is_one():
                unshared.append(x)
        return product(p, o, shift)

    _wrap_helper(monkeypatch, "_phase_product", watching)
    run()
    return unshared


def test_every_unit_phase_operand_of_the_axioms_is_the_shared_one(monkeypatch):
    def run():
        report = verify_axioms(from_cleft(q3_action()), char_range=2, gen_degree=2)
        assert report.passed and report.checks == 512

    assert _unshared_unit_phases(monkeypatch, run) == []


def test_every_unit_phase_operand_of_the_lift_is_the_shared_one(monkeypatch):
    assert _unshared_unit_phases(monkeypatch, _q3_lift) == []


def _q3_lift():
    """The lift of the EXPECTED_LIFT pin, from a fresh system and automorphism."""
    action = q3_action()
    nslots = action.twist.nslots
    beta = Automorphism.diagonal(
        action, {0: Phase.coeff(nslots, QQi(0, 1)), 1: Phase.coeff(nslots, QQi(-1))}
    )
    fs = from_cleft(action)
    outcome = lift_via_cohomology(fs, beta, PartialIsometryFamily.units(fs), 2, 2)
    assert outcome.lifts and outcome.cocycle_report.checks == 176
    return outcome


def test_lift_operation_counts(counts, monkeypatch):
    krons = []
    kron = PolyMatrix.kron

    def counting_kron(self, other):
        krons.append(other)
        return kron(self, other)

    monkeypatch.setattr(PolyMatrix, "kron", counting_kron)
    _q3_lift()
    assert counts == EXPECTED_LIFT
    assert krons == []


# The same lift builds each morphism once, counted at the constructor, so
# a morphism built with ``MatrixMorphism.from_map``, read off the
# commutator form or built as an ``AlgebraMorphism`` counts alike: 18
# gamma_sigma (13 of the system, 5 transported), 5 Delta_sigma, the
# identity, and the two legs of the automorphism and of its inverse check.
# The automorphism keeps the system it transported, so the conjugacy check
# of the materialized lift reads the transported gamma_sigma that extraction
# built instead of building all 5 on the box again: 23 ``from_map`` calls
# before that, and 18 before gamma_sigma of the system's unit-monomial
# columns was read off the commutator form, which leaves 5.  And each
# cocycle value is checked central once, by its family, and verify_cocycle
# records that verdict: 90 ``_is_central`` calls for 65 values before.
EXPECTED_MORPHISMS = 28


def test_lift_builds_each_morphism_and_checks_each_value_once(monkeypatch):
    built, central = [], []
    init, is_central = MatrixMorphism.__init__, cohomology._is_central

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_is_central(action, x):
        central.append(x)
        return is_central(action, x)

    monkeypatch.setattr(MatrixMorphism, "__init__", counting_init)
    monkeypatch.setattr(cohomology, "_is_central", counting_is_central)
    outcome = _q3_lift()

    assert len(built) == EXPECTED_MORPHISMS
    assert len(central) == len(outcome.cocycle._u._cache) == 65


def _count_lookups(run) -> dict:
    counts = dict.fromkeys(("_layout", "TwoCocycle.value"), 0)
    layout, value = phases._layout, TwoCocycle.value
    # no module holds the table reader by name, so wrapping it here sees every call
    assert [module.__name__ for module, _ in _references(layout)] == ["nctorus.phases"]

    def counting_layout(nslots):
        counts["_layout"] += 1
        return layout(nslots)

    def counting_value(self, sigma, pi_):
        counts["TwoCocycle.value"] += 1
        return value(self, sigma, pi_)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phases, "_layout", counting_layout)
        mp.setattr(TwoCocycle, "value", counting_value)
        run()
    return counts


def test_the_one_term_lane_reads_no_lookup_per_identity():
    def axioms():
        report = verify_axioms(from_cleft(q3_action()), char_range=2, gen_degree=2)
        assert report.passed and report.checks == 512

    got = {"axioms": _count_lookups(axioms), "lift": _count_lookups(_q3_lift)}
    assert got == EXPECTED_LOOKUPS


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


# ``lift`` of a synthetic cocycle u(sigma, pi) = q12^(sigma^T M pi) on the
# rank-2 action of the two-generator torus, r = 1: every value is a unit
# phase raised to an integer power, checked central and unitary, and the
# box sweep and the solve, which stops at the obstruction, multiply them.  A one-term power scales its
# packed key and squares its coefficient, so QQi.__mul__ counts about
# log2 |k| products per power instead of |k|; each value is unitary by its
# coefficient, with no product x* x.  Before both lanes: 1,789 helper
# calls, 1,855 products and 1,412 QQi.__mul__; now 900, 1,486 and 640.
# q12^power is one key shift of the shared unit phase, and a power of 0 is
# the shared 1, so no coefficient is raised to a power: QQi.__mul__ 640 -> 0.
# The cocycle identity of one-term values is decided in the phase ring: the
# same helper calls, and 1,486 -> 28 polynomial products.  Delta_sigma
# scales its cached image of 1 by the one scalar value it is applied to
# that is not 1: 900 -> 901 helper calls.  The lane's products are helper
# calls, a product by the shared unit phase included: 901 -> 2,055.
SYNTHETIC_CONFIG = {
    "n": 2,
    "theta": [["0", "1/5"], ["-1/5", "0"]],
    "acting_coords": [1, 2],
    "char_range": 1,
    "cocycle": {"slot": [1, 2], "bilinear_exponents": [[2, 1], [-1, 3]]},
}
EXPECTED_SYNTHETIC = {
    "_phase_product": 2055,
    "_product_terms": 0,
    "TwistedPoly.__mul__": 28,
    "Phase.mul": 0,
    "QQi.__mul__": 0,
}


def test_synthetic_cocycle_lift_operation_counts(counts, tmp_path):
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(SYNTHETIC_CONFIG))
    counts.update(dict.fromkeys(counts, 0))
    # the antisymmetric part [[0, 1], [-1, 0]] is an obstruction: exit 1
    assert main(["lift", "--config", str(path), "--json"]) == 1
    assert counts == EXPECTED_SYNTHETIC


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


# ``atiyah_check`` in ``demo q3torus`` forms each basis lift's image of each
# corpus element once for both SECTION_COMBOS entries: the linearity law
# applies the two basis lifts 50 times instead of 100, and the check as a
# whole 129 times instead of 179.
def test_atiyah_check_applies_each_basis_lift_once_per_element(monkeypatch):
    calls, inside = [], []
    apply, check = LiftedDerivation.apply, cli.atiyah_check

    def counting(self, x):
        if inside:
            calls.append(x)
        return apply(self, x)

    def traced(*args, **kwargs):
        inside.append(True)
        try:
            return check(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(LiftedDerivation, "apply", counting)
    monkeypatch.setattr(cli, "atiyah_check", traced)
    assert main(["demo", "q3torus"]) == 0
    assert len(calls) == 129
