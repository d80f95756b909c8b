"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Every symbolic assertion is structural equality of canonical forms
(tolerance zero); the only numeric checks are the evaluate/product
cross-checks at 1e-9.  Criteria lines are written straight to the
terminal so they show up even under pytest capture.
"""

import cmath
import random
import sys
import time
from fractions import Fraction

import pytest

from nctorus.algebra import PolyMatrix, TwistedPoly, TwistMatrix, numeric_product
from nctorus.cohomology import (
    Obstruction,
    TwoCocycle,
    lift_via_cohomology,
    solve_coboundary,
    verify_cocycle,
)
from nctorus.derivations import (
    ConnectionSection,
    Derivation,
    HFamily,
    LiftedDerivation,
    SectionEntry,
    atiyah_check,
    crossed_hom_report,
    gauge_report,
    two_pi_i,
    verify_lift_conditions,
)
from nctorus.dynamics import TorusAction, grade, is_equivariant
from nctorus.factor_system import (
    Automorphism,
    PartialIsometryFamily,
    from_cleft,
    verify_axioms,
)
from nctorus.geometry import (
    curvature,
    frame_connection,
    make_module,
    right_inner,
)
from nctorus.phases import Phase, QQi
from nctorus.q3torus import (
    all_weight_monomials,
    base_scaling_derivation,
    gauge_h_family,
    random_rational_twist,
    restricted_gauge_action,
    standard_angles,
    twist3,
)

from conftest import (
    frame_completeness,
    pythagorean_column,
    random_base_poly,
    random_circle_action,
    random_poly,
    random_skew_scalar,
    reproduces,
    theta_float,
    unimodular_phase,
)


def announce(capsys, number: int, passed: bool, text: str, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:02d} {status} {text} ({elapsed:.2f}s)"
    with capsys.disabled():
        print(line, flush=True)


@pytest.fixture(scope="module")
def q3():
    action = restricted_gauge_action(twist3(*standard_angles()))
    return action, from_cleft(action)


def _central_witness(action, seed):
    rng = random.Random(seed)
    table = {
        (k,): unimodular_phase(rng, action.twist.nslots) for k in range(-12, 13)
    }
    one = PolyMatrix.from_scalar(TwistedPoly.one(action.twist))

    def fn(char):
        if char == (0,):
            return one
        return PolyMatrix.from_scalar(TwistedPoly.scalar(action.twist, table[char]))

    return PartialIsometryFamily(action, fn)


def _random_automorphism(action, rng):
    kind = rng.randrange(3)
    diag = Automorphism.diagonal(
        action, {k: unimodular_phase(rng, action.twist.nslots) for k in action.base}
    )
    exps = [0] * action.twist.n
    for k in action.base:
        exps[k] = rng.randint(-2, 2)
    mono = TwistedPoly.monomial(action.twist, exps, unimodular_phase(rng, action.twist.nslots))
    inner = Automorphism.inner(action, mono)
    if kind == 0:
        return diag
    if kind == 1:
        return inner
    return diag.compose(inner)


@pytest.fixture(scope="module")
def lift_pipelines(q3):
    """Ten seeded (beta, witness) configurations on circle actions."""
    action, fs = q3
    configs = []
    for i in range(4):
        rng = random.Random(7000 + i)
        configs.append((action, fs, _random_automorphism(action, rng), _central_witness(action, 7100 + i)))
    for i in range(6):
        rng = random.Random(7200 + i)
        act = random_circle_action(rng, n_choices=(2, 3))
        configs.append(
            (act, from_cleft(act), _random_automorphism(act, rng), _central_witness(act, 7300 + i))
        )
    return configs


def test_criterion_01_worked_example_reproduction(capsys, q3):
    start = time.perf_counter()
    action, fs = q3
    tw = action.twist
    u1 = TwistedPoly.generator(tw, 0)
    u2 = TwistedPoly.generator(tw, 1)
    lam31 = Phase.unit(tw.nslots, tw.slot(0, 2), -1)  # lambda_31 = q13^-1
    lam32 = Phase.unit(tw.nslots, tw.slot(1, 2), -1)
    one = TwistedPoly.one(tw)
    ok = True
    for k in range(-4, 5):
        g = fs.gamma((k,))
        ok &= g.apply(u1).as_scalar() == u1.scale(lam31**k)
        ok &= g.apply(u2).as_scalar() == u2.scale(lam32**k)
        for l in range(-4, 5):
            ok &= fs.omega((k,), (l,)).as_scalar() == one
    elapsed = time.perf_counter() - start
    announce(capsys, 1, ok and elapsed < 5.0, "quantum 3-torus coaction and cocycle table, exact", elapsed)
    assert ok
    assert elapsed < 5.0


def test_criterion_02_axioms_on_seeded_systems(capsys, q3):
    start = time.perf_counter()
    action, fs = q3
    ok = verify_axioms(fs, 3, 2).passed
    systems = [fs]
    for i in range(20):
        rng = random.Random(100 + i)
        act = random_circle_action(rng)
        sys_i = from_cleft(act)
        systems.append(sys_i)
        ok &= verify_axioms(sys_i, 3, 2).passed
    # injected single-entry corruptions must be caught with a counterexample
    for i, sys_i in enumerate(systems[:4]):
        act = sys_i.action
        gen = TwistedPoly.generator(act.twist, act.base[0]) if act.base else None
        if gen is None:
            continue
        bad = sys_i.with_omega_override((1,), (1,), PolyMatrix.from_scalar(gen))
        rep = verify_axioms(bad, 2, 1)
        ok &= not rep.passed and bool(rep.failures)
    elapsed = time.perf_counter() - start
    announce(capsys, 2, ok, "factor-system laws on 21 systems, corruptions detected", elapsed)
    assert ok


def test_criterion_03_cocycle_laws(capsys, lift_pipelines):
    from nctorus.cohomology import extract_cocycle

    start = time.perf_counter()
    ok = True
    for action, fs, beta, witness in lift_pipelines:
        u = extract_cocycle(fs, beta, witness, 2)
        rep = verify_cocycle(u, 2)
        ok &= rep.passed
    elapsed = time.perf_counter() - start
    announce(capsys, 3, ok, "extracted cocycles: centrality, unitarity, cocycle identity", elapsed)
    assert ok


def test_criterion_04_rank_one_lifting_completeness(capsys, lift_pipelines):
    start = time.perf_counter()
    ok = True
    for action, fs, beta, witness in lift_pipelines:
        out = lift_via_cohomology(fs, beta, witness, 2, 2)
        ok &= out.lifts
        if not out.lifts:
            continue
        lift = out.lifted
        tw = action.twist
        corpus = []
        for k in (-1, 0, 1):
            corpus.extend(all_weight_monomials(action, (k,), 1)[:3])
        for x in corpus:
            for y in corpus[:4]:
                ok &= lift.apply(x * y) == lift.apply(x) * lift.apply(y)
            ok &= lift.apply(x.star()) == lift.apply(x).star()
            for char, comp in lift.apply_graded(grade(action, x)).components.items():
                ok &= is_equivariant(action, comp, char)
        rng = random.Random(4242)
        for _ in range(4):
            b = random_base_poly(rng, action)
            ok &= lift.apply(b) == beta.apply(b)
    elapsed = time.perf_counter() - start
    announce(capsys, 4, ok, "ten circle-action pipelines solve and lift exactly", elapsed)
    assert ok


def test_criterion_05_rank_two_obstruction(capsys):
    start = time.perf_counter()
    tw = TwistMatrix([[0, Fraction(1, 5)], [Fraction(-1, 5), 0]])
    action = TorusAction(tw, (0, 1))
    q = Phase.unit(tw.nslots, 0)
    cocycle = TwoCocycle(
        action, lambda s, p: TwistedPoly.scalar(tw, q ** (s[1] * p[0]))
    )
    laws = verify_cocycle(cocycle, 2)
    got = solve_coboundary(cocycle, 2)
    obstructed = isinstance(got, Obstruction)
    ok = laws.passed and obstructed
    if obstructed:
        one = TwistedPoly.one(tw)
        ok &= got.residual != one
        sig, pi_ = got.witness
        ok &= cocycle.value(sig, pi_) * cocycle.value(pi_, sig).star() == got.residual
    elapsed = time.perf_counter() - start
    announce(capsys, 5, ok, "rank-two bilinear class certified non-trivial, laws intact", elapsed)
    assert ok


def test_criterion_06_derivation_lifting(capsys, q3):
    start = time.perf_counter()
    action, fs = q3
    tw = action.twist
    tpi = two_pi_i(tw)
    d1 = base_scaling_derivation(action, 0)
    d2 = base_scaling_derivation(action, 1)
    dzero = Derivation.zero(tw, action.base)
    h0 = HFamily.zero(fs)
    hg = gauge_h_family(action)
    b = TwistedPoly.generator(tw, 0) - TwistedPoly.generator(tw, 0).star()
    inner = Derivation.inner(tw, action.base, b)
    h_inner = HFamily.from_scalars(
        action, lambda char: b - fs.gamma(char).apply(b).as_scalar()
    )
    pairs = [(d1, h0), (d2, h0), (dzero, hg), (inner, h_inner)]
    ok = all(verify_lift_conditions(fs, d, h, 2, 2).passed for d, h in pairs)

    lifts = [LiftedDerivation(fs, d, h) for d, h in pairs]
    rng = random.Random(606)
    cases = 0
    while cases < 200:
        lift = lifts[cases % len(lifts)]
        x = random_poly(rng, tw, 3, 2)
        y = random_poly(rng, tw, 3, 2)
        ok &= lift.apply(x * y) == lift.apply(x) * y + x * lift.apply(y)
        ok &= lift.apply(x.star()) == lift.apply(x).star()
        for char, comp in lift.apply_graded(grade(action, x)).components.items():
            ok &= is_equivariant(action, comp, char)
        cases += 1

    u3 = TwistedPoly.generator(tw, 2)
    gauge_lift = LiftedDerivation(fs, dzero, hg)
    ok &= gauge_lift.apply(u3) == tpi * u3
    elapsed = time.perf_counter() - start
    announce(capsys, 6, ok, "derivation lift conditions, 200-case corpus, gauge value", elapsed)
    assert ok


def test_criterion_07_split_section(capsys, q3):
    start = time.perf_counter()
    action, fs = q3
    d1 = base_scaling_derivation(action, 0)
    d2 = base_scaling_derivation(action, 1)
    h0 = HFamily.zero(fs)
    section = ConnectionSection(
        entries=[
            SectionEntry(d1, LiftedDerivation(fs, d1, h0)),
            SectionEntry(d2, LiftedDerivation(fs, d2, h0)),
        ],
        kernel=[gauge_h_family(action)],
    )
    rep = atiyah_check(fs, section, 2, 2)
    elapsed = time.perf_counter() - start
    announce(capsys, 7, rep.passed, "split section of the derivation sequence verified", elapsed)
    assert rep.passed, rep


def test_criterion_08_gauge_crossed_hom_equivalence(capsys, q3):
    start = time.perf_counter()
    action, fs = q3
    tw = action.twist
    rng = random.Random(808)
    families = []
    # 50 valid: additive with skew scalar slopes (zero family included)
    families.append((HFamily.zero(fs), True))
    for _ in range(49):
        slope = random_skew_scalar(rng, tw)
        families.append((HFamily.linear_scalar(action, slope), True))
    # 50 invalid: break additivity, skewness, or both
    for i in range(50):
        slope = random_skew_scalar(rng, tw)
        kind = i % 3
        if kind == 0:
            h = HFamily.from_scalars(
                action, lambda char, s=slope: s.scale(QQi(char[0] ** 2))
            )
        elif kind == 1:
            selfadj = slope.scale(QQi(0, 1))
            h = HFamily.from_scalars(
                action, lambda char, s=selfadj: s.scale(QQi(char[0]))
            )
        else:
            h = HFamily.from_scalars(
                action,
                lambda char, s=slope: s.scale(QQi(abs(char[0]))),
            )
        families.append((h, False))

    ok = True
    for h, valid in families:
        gauge = gauge_report(fs, h, 2, 2).passed
        crossed = crossed_hom_report(fs, h, 2).passed
        ok &= gauge == crossed == valid
    elapsed = time.perf_counter() - start
    announce(capsys, 8, ok, "gauge membership equals the crossed-homomorphism law, 100 families", elapsed)
    assert ok


def test_criterion_09_module_geometry(capsys, q3):
    start = time.perf_counter()
    action, fs = q3
    tw = action.twist
    ok = True

    modules = [make_module(fs, (k,)) for k in range(-3, 4)]
    rng = random.Random(909)
    for i in range(3):
        act = random_circle_action(random.Random(950 + i), n_choices=(2, 3))
        modules.append(make_module(from_cleft(act), (random.Random(960 + i).randint(-2, 2),)))

    for m in modules:
        ok &= frame_completeness(m)
        for _ in range(3):
            x = m.frame[0] * random_base_poly(rng, m.action)
            ok &= reproduces(m, x)

    d1 = base_scaling_derivation(action, 0)
    d2 = base_scaling_derivation(action, 1)
    skew_inner = Derivation.inner(tw, action.base, random_skew_scalar(rng, tw))
    derivs = [d1, d2, skew_inner, d1 + d2.scale(QQi(Fraction(1, 2)))]

    cases = 0
    q3_modules = modules[:7]
    while cases < 200:
        m = q3_modules[cases % len(q3_modules)]
        delta = derivs[cases % len(derivs)]
        x = m.frame[0] * random_base_poly(rng, action)
        y = m.frame[0] * random_base_poly(rng, action)
        b = random_base_poly(rng, action)
        ok &= frame_connection(m, delta, x * b) == frame_connection(m, delta, x) * b + x * delta.apply(b)
        lhs = delta.apply(right_inner(m, x, y))
        rhs = right_inner(m, frame_connection(m, delta, x), y) + right_inner(
            m, x, frame_connection(m, delta, y)
        )
        ok &= lhs == rhs
        cases += 1

    for m in q3_modules:
        for da, db in ((d1, d2), (d1, skew_inner), (d2, skew_inner)):
            for x in all_weight_monomials(action, m.weight, 1)[:4]:
                c_comm = curvature(m, da, db, x, "commutator")
                c_form = curvature(m, da, db, x, "formula")
                ok &= c_comm == c_form
                ok &= c_comm.is_zero()
    elapsed = time.perf_counter() - start
    announce(capsys, 9, ok, "frames, connection laws (200 cases), flat cleft curvature", elapsed)
    assert ok


def test_criterion_10_engine_soundness(capsys):
    start = time.perf_counter()
    rng = random.Random(1010)
    ok = True
    checked_twists = []
    for trial in range(1000):
        n = rng.randint(2, 4)
        tw = random_rational_twist(rng, n, 12)
        x = random_poly(rng, tw, 6, 3, with_phases=trial % 2 == 0)
        y = random_poly(rng, tw, 6, 3)
        z = random_poly(rng, tw, 6, 3)
        ok &= (x * y) * z == x * (y * z)
        ok &= (x * y).star() == y.star() * x.star()
        if trial % 50 == 0:
            one = TwistedPoly.one(tw)
            for k in range(n):
                u = TwistedPoly.generator(tw, k)
                ok &= u * u.star() == one and u.star() * u == one
            checked_twists.append(tw)
        theta = theta_float(tw)
        point = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n)]
        got = (x * y).evaluate(theta, point)
        want = numeric_product(x, y, theta, point)
        ok &= abs(got - want) <= 1e-9 * max(1.0, abs(want))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    announce(capsys, 10, ok, "1000 seeded triples: ring laws exact, numerics within 1e-9", elapsed)
    assert ok
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# matrix-valued factor systems: d_sigma = 2 from a Pythagorean column
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pythagorean(q3):
    action, _ = q3
    s = pythagorean_column(action)
    return action, s, from_cleft(action, s)


def test_criterion_11_d2_axioms(capsys, pythagorean):
    start = time.perf_counter()
    _, _, fs = pythagorean
    rep = verify_axioms(fs, 2, 2)
    elapsed = time.perf_counter() - start
    announce(capsys, 11, rep.passed, "d = 2 column system: every factor-system law", elapsed)
    assert rep.passed, rep.failures


def test_criterion_11_d2_unit_is_the_range_projection(capsys, pythagorean):
    start = time.perf_counter()
    action, s, fs = pythagorean
    ok = True
    for k in range(-3, 4):
        sk = s((k,))
        unit = fs.gamma((k,)).unit()
        ok &= unit == sk * sk.adjoint()
        ok &= unit.rows == (2 if k else 1)
        ok &= fs.gamma((k,)).apply(TwistedPoly.one(action.twist)) == unit
    elapsed = time.perf_counter() - start
    announce(capsys, 11, ok, "d = 2 column system: gamma_sigma(1) = s(sigma) s(sigma)*", elapsed)
    assert ok


def test_criterion_11_d2_lifts_with_the_default_witness(capsys, pythagorean):
    start = time.perf_counter()
    action, _, fs = pythagorean
    tw = action.twist
    betas = {
        "identity": Automorphism.identity(action),
        "Ad u1": Automorphism.inner(action, TwistedPoly.generator(tw, 0)),
        "diagonal": Automorphism.diagonal(
            action, {0: Phase.coeff(tw.nslots, QQi(0, 1)), 1: Phase.coeff(tw.nslots, QQi(-1))}
        ),
    }
    lifted = {
        name: lift_via_cohomology(fs, beta, PartialIsometryFamily.units(fs), 1, 1).lifts
        for name, beta in betas.items()
    }
    ok = all(lifted.values())
    elapsed = time.perf_counter() - start
    announce(capsys, 11, ok, "d = 2 column system: three automorphisms lift with v = gamma(1)",
             elapsed)
    assert lifted == dict.fromkeys(betas, True)


def test_criterion_11_d2_derivation_lifts(capsys, pythagorean):
    start = time.perf_counter()
    action, _, fs = pythagorean
    reps = [
        verify_lift_conditions(fs, base_scaling_derivation(action, k), HFamily.zero(fs), 2, 2)
        for k in action.base
    ]
    ok = all(rep.passed for rep in reps)
    elapsed = time.perf_counter() - start
    announce(capsys, 11, ok, "d = 2 column system: base scaling derivations lift with H = 0",
             elapsed)
    assert ok, [rep.failures for rep in reps]
