"""Seeded job lists for the three workloads, each job with its known answer.

A job is either a CLI invocation (a config written to disk, argv for
``nctorus.cli.main`` and the expected report) or a ring batch driven
through the public ring API.  The seed picks angles, acting coordinates,
automorphisms, witnesses, corruptions and polynomials; the shape of each
job list (how many jobs of which size) is fixed, so seeds change the
content while the amount of work stays close.  nctorus is not imported here: every expected
value comes from ``oracle``.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

WORKLOADS = ("laws", "lift", "calculus")

_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^m as (re, im)


@dataclass
class Job:
    name: str
    expect: dict
    config: dict | None = None  # written to disk; argv gets its path appended
    argv: list = field(default_factory=list)
    ring: dict | None = None  # ring batch: theta, point, triples, references

    @property
    def identities(self) -> int:
        return self.expect.get("checks", 0)


def build(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = {"laws": _laws, "lift": _lift, "calculus": _calculus}[workload](rng)
    return jobs + _probes(rng)


# ---------------------------------------------------------------------------
# input pieces
# ---------------------------------------------------------------------------


def _theta(rng, n):
    th = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        for l in range(k + 1, n):
            den = rng.randint(2, 12)
            th[k][l] = Fraction(rng.randint(1 - den, den - 1), den)
            th[l][k] = -th[k][l]
    return th


def _slots(n):
    return [(k, l) for k in range(n) for l in range(k + 1, n)]


def _term(exps, re=1, im=0, qexp=None, tau=0):
    t = {"exponents": list(exps)}
    if (re, im) != (1, 0):
        t["coeff"] = {"re": str(re), "im": str(im)}
    if qexp is not None and any(qexp):
        t["phase_exponents"] = list(qexp)
    if tau:
        t["tau"] = tau
    return t


def _gen(n, k, power=1):
    return [power if j == k else 0 for j in range(n)]


def _system(rng, n, coords, r, g=None):
    cfg = {"n": n, "theta": [[str(x) for x in row] for row in _theta(rng, n)],
           "acting_coords": list(coords), "char_range": r}
    if g is not None:
        cfg["gen_degree"] = g
    return cfg


def _rational(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 9))


def _nonzero(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 9))


def _skew_scalar(rng, exps, nslots):
    """Terms of s * u^exps for a skew-adjoint scalar s = i a tau + sum_j
    (c_j q_j tau^j - conj(c_j) q_j^-1 tau^j), j = 0, 1 (tau is real, the q
    units unimodular).  Only the coefficients are seeded, so the term
    pattern, and with it the cost, is the same for every seed."""
    terms = [_term(exps, 0, _nonzero(rng), tau=1)]
    for j in range(2):
        q = _gen(nslots, j)
        re, im = _nonzero(rng), _rational(rng)
        terms.append(_term(exps, re, im, q, j))
        terms.append(_term(exps, -re, im, [-x for x in q], j))
    return terms


def _cli(name, command, cfg, expect, rng=None):
    argv = [command, "--json"]
    if rng is not None:
        argv += ["--seed", str(rng.randrange(10**6))]
    return Job(name, expect, config=cfg, argv=argv + ["--config"])


def _spread(rng, n, count):
    """Acting coordinates (1-based) covering 1..n evenly, in seeded order."""
    coords = [i % n + 1 for i in range(count)]
    rng.shuffle(coords)
    return coords


# ---------------------------------------------------------------------------
# laws: factor-system law checks on unit-phase monomials
# ---------------------------------------------------------------------------


def _axioms_job(name, cfg, d):
    n, r, g = cfg["n"], cfg["char_range"], cfg["gen_degree"]
    details = {"n": n, "acting_coords": cfg["acting_coords"], "char_range": r, "gen_degree": g}
    expect = {"code": 0, "passed": True, "checks": oracle.axioms_count(n - d, d, r, g),
              "counterexamples": [], "details": details}
    return _cli(name, "check-factor-system", cfg, expect)


def _laws(rng):
    jobs, n3 = [], []
    for i, j in enumerate(_spread(rng, 3, 6)):
        cfg = _system(rng, 3, [j], 2, 2)
        n3.append(cfg)
        jobs.append(_axioms_job(f"rank1.n3.{i}", cfg, 1))
    for i, j in enumerate(_spread(rng, 4, 4)):
        jobs.append(_axioms_job(f"rank1.n4.{i}", _system(rng, 4, [j], 2, 2), 1))
    # which coordinates act changes the cost of a rank-2 job, so the pairs are fixed
    pairs = [[1, 3], [2, 4]]
    rng.shuffle(pairs)
    for i, pair in enumerate(pairs):
        jobs.append(_axioms_job(f"rank2.n4.{i}", _system(rng, 4, pair, 1, 2), 2))

    # corrupted copies: omega(s, p) := i^m for nonzero s, p in the box
    for i, cfg in enumerate(n3[:3]):
        r = cfg["char_range"]
        s, p = (rng.choice([k for k in range(-r, r + 1) if k]) for _ in range(2))
        m = rng.choice((1, 2, 3))
        bad = dict(cfg, omega_overrides=[
            {"sigma": [s], "pi": [p], "value": [_term([0] * cfg["n"], *_I_POWERS[m])]}
        ])
        job = _axioms_job(f"corrupted.n3.{i}", bad, 1)
        job.expect.update(code=1, passed=False,
                          counterexamples=oracle.corrupted_failures(r, ((s,), (p,)), m))
        if not job.expect["counterexamples"]:
            raise ValueError(f"corruption at {(s, p)} is not detectable")
        jobs.append(job)

    angles = [str(_theta(rng, 2)[0][1]) for _ in range(3)]
    details = {
        "theta": angles,
        "omega_identically_one": True,
        "atiyah_split": True,
        "curvature_vanishes": True,
        # gamma_k(u_j) = u3^k u_j u3^-k = q_j3^-k u_j, and the Frohlich map is its inverse
        "gamma": {str(k): {"u1": oracle.scaled_generator("q13", -k, "u1"),
                           "u2": oracle.scaled_generator("q23", -k, "u2")} for k in range(-3, 4)},
        "frohlich_u1": {str(k): oracle.scaled_generator("q13", k, "u1") for k in range(-2, 3)},
    }
    expect = {"code": 0, "passed": True, "checks": oracle.demo_count(3, 2),
              "counterexamples": [], "details": details}
    argv = ["demo", "q3torus", "--json", f"--theta12={angles[0]}",
            f"--theta13={angles[1]}", f"--theta23={angles[2]}"]
    jobs.append(Job("demo.q3torus", expect, argv=argv))
    return jobs


# ---------------------------------------------------------------------------
# lift: the cohomological lifting pipeline
# ---------------------------------------------------------------------------


def _automorphism(rng, n, acting, kind):
    """Images u_k -> c_k q^e_k u_k of a diagonal, inner or composed automorphism."""
    slots = _slots(n)
    base = [k for k in range(n) if k != acting]
    conj = [rng.randint(-2, 2) if k in base else 0 for k in range(n)]
    images = {}
    for k in base:
        qexp = [0] * len(slots)
        m = 0
        if kind in ("diagonal", "composed"):
            m = rng.randrange(4)
            qexp = [rng.randint(-2, 2) for _ in slots]
        if kind in ("inner", "composed"):
            # u^b u_k u^-b = prod_i lambda_ik^b_i u_k, lambda_ik = q_ik (i < k) or q_ki^-1
            for i in base:
                if i < k:
                    qexp[slots.index((i, k))] += conj[i]
                elif i > k:
                    qexp[slots.index((k, i))] -= conj[i]
        images[str(k + 1)] = [_term(_gen(n, k), *_I_POWERS[m], qexp)]
    return {"images": images}


def _witness_table(rng, n, r):
    """Central unitary witnesses c q^e with v(0) = 1, on every character the pipeline reads."""
    nslots = len(_slots(n))
    table = {}
    for s in range(-(2 * r + 2), 2 * r + 3):
        if s == 0:
            table["0"] = [_term([0] * n)]
        else:
            q = [rng.randint(-2, 2) for _ in range(nslots)]
            table[str(s)] = [_term([0] * n, *_I_POWERS[rng.randrange(4)], q)]
    return table


def _lift(rng):
    jobs = []
    r = 2
    for n in (2, 3, 4):
        coords = _spread(rng, n, 6)
        for i, kind in enumerate(("diagonal", "inner", "composed") * 2):
            acting = coords[i] - 1
            cfg = _system(rng, n, [acting + 1], r, 2)
            cfg["automorphism"] = _automorphism(rng, n, acting, kind)
            cfg["v_family"] = _witness_table(rng, n, r)
            expect = {"code": 0, "passed": True,
                      "checks": oracle.lift_automorphism_count(n - 1, 1, r),
                      "counterexamples": [],
                      "details": {"source": "automorphism", "cocycle_valid": True}}
            jobs.append(_cli(f"automorphism.n{n}.{kind}.{i // 3}", "lift", cfg, expect, rng))

    for i in range(2):
        jobs.append(_synthetic(rng, f"cocycle.symmetric.{i}", 1, asymmetry=0))
    for i in range(2):
        jobs.append(_synthetic(rng, f"cocycle.antisymmetric.{i}", 1,
                               asymmetry=rng.choice((-2, -1, 1, 2))))

    # a witness u_k is not central: conjugating u_l, l != k, picks up lambda_kl
    acting = rng.randrange(3)
    base = [k for k in range(3) if k != acting]
    k = rng.choice(base)
    first_bad = next(l for l in base if l != k)
    cfg = _system(rng, 3, [acting + 1], r, 2)
    cfg["automorphism"] = {"images": {str(b + 1): [_term(_gen(3, b))] for b in base}}
    cfg["v_family"] = {str(s): [_term(_gen(3, k) if s else [0, 0, 0])]
                       for s in range(-(2 * r + 2), 2 * r + 3)}
    expect = {"code": 1, "passed": False,
              "error": f"witness fails the coaction conjugacy at sigma={(-r,)}, "
                       f"generator u{first_bad + 1}"}
    jobs.append(_cli("witness.wrong", "lift", cfg, expect, rng))
    return jobs


def _synthetic(rng, name, r, asymmetry):
    """u(s, p) = q12^(s^T M p) on Z^2; a coboundary iff M is symmetric."""
    a, b, c = (rng.randint(-2, 2) for _ in range(3))
    mat = [[a, b], [b + asymmetry, c]]
    cfg = _system(rng, 2, [1, 2], r)
    cfg["cocycle"] = {"slot": [1, 2], "bilinear_exponents": mat}
    details = {"source": "synthetic-cocycle", "cocycle_valid": True}
    expect = {"code": 0, "passed": True, "checks": oracle.cocycle_count(2, r),
              "counterexamples": [], "details": details}
    if asymmetry:
        witness, gap = oracle.antisymmetric_witness(r, mat)
        # the residual is u(s, p) u(p, s)* = q12^(s^T M p - p^T M s)
        details["obstruction"] = {"witness": witness, "kind": "antisymmetric-class",
                                  "residual": oracle.q_power("q12", gap)}
        expect.update(code=1, passed=False)
    return _cli(name, "lift", cfg, expect)


# ---------------------------------------------------------------------------
# calculus: dense coefficients through the ring, derivations and curvature
# ---------------------------------------------------------------------------

RING_TRIPLES = 4
RING_CHECKS = 6  # per triple: reference, associativity, star, distributivity, involution, power


def _dense_poly(shape, rng, n, nterms, nphase):
    """Exponents and phase keys come from ``shape``, coefficients from ``rng``."""
    nslots = len(_slots(n))
    exps = set()
    while len(exps) < nterms:
        exps.add(tuple(shape.randint(-2, 2) for _ in range(n)))
    poly = []
    for a in sorted(exps):
        keys = set()
        while len(keys) < nphase:
            keys.add((tuple(shape.randint(-1, 1) for _ in range(nslots)), shape.randint(0, 1)))
        poly.append((a, [(q, t, _nonzero(rng), _rational(rng)) for q, t in sorted(keys)]))
    return poly


def _ring_job(shape, rng, name, n):
    theta = _theta(rng, n)
    point = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n)]
    triples, refs = [], []
    for _ in range(RING_TRIPLES):
        x, y, z = (_dense_poly(shape, rng, n, 4, 2) for _ in range(3))
        triples.append((x, y, z))
        refs.append((oracle.reference_product(theta, x, y, point), oracle.magnitude(x, y)))
    ring = {"theta": theta, "point": point, "triples": triples, "refs": refs}
    return Job(name, {"checks": RING_CHECKS * RING_TRIPLES}, ring=ring)


def _dense_derivation(rng, n, acting):
    nslots = len(_slots(n))
    return {"images": {str(k + 1): _skew_scalar(rng, _gen(n, k), nslots)
                       for k in range(n) if k != acting}}


def _calculus(rng):
    # supports are seed-independent: dense cost depends on how terms merge
    shape = random.Random("calculus-shape")
    jobs = [_ring_job(shape, rng, f"ring.n{n}.{i}", n) for i, n in enumerate((3, 4) * 4)]
    for i, (n, r, g) in enumerate(((3, 2, 2), (3, 3, 3), (4, 2, 2), (4, 2, 3))):
        acting = n - 1
        cfg = _system(rng, n, [acting + 1], r, g)
        cfg["derivation"] = _dense_derivation(rng, n, acting)
        cfg["h_family"] = {"linear_scalar": _skew_scalar(rng, [0] * n, len(_slots(n)))}
        expect = {"code": 0, "passed": True,
                  "checks": oracle.lift_derivation_count(n - 1, 1, r, g),
                  "counterexamples": [], "details": {"char_range": r, "gen_degree": g}}
        jobs.append(_cli(f"lift-derivation.n{n}.r{r}.g{g}", "lift-derivation", cfg, expect, rng))
    for i, (n, g) in enumerate(((3, 2), (3, 3), (4, 2), (4, 1))):
        jobs.append(_curvature_job(rng, f"curvature.n{n}.g{g}", n, g, dense=True))
    return jobs


def _curvature_job(rng, name, n, g, dense):
    acting = n - 1
    sigma = rng.choice((-2, 2))
    cfg = _system(rng, n, [acting + 1], 1, g)
    cfg["sigma"] = [sigma]
    if dense:
        cfg["derivation_1"] = _dense_derivation(rng, n, acting)
        cfg["derivation_2"] = _dense_derivation(rng, n, acting)
    expect = {"code": 0, "passed": True, "checks": oracle.curvature_count(n - 1, g),
              "counterexamples": [], "details": {"sigma": [sigma], "curvature_vanishes": True}}
    return _cli(name, "curvature", cfg, expect)


# ---------------------------------------------------------------------------
# probes: one tiny job per pipeline, so every traced layer is reached everywhere
# ---------------------------------------------------------------------------


def _probes(rng):
    jobs = [_synthetic(rng, "probe.cocycle", 0, asymmetry=0)]

    acting = rng.randrange(2)
    cfg = _system(rng, 2, [acting + 1], 0, 1)
    cfg["automorphism"] = _automorphism(rng, 2, acting, "diagonal")
    expect = {"code": 0, "passed": True, "checks": oracle.lift_automorphism_count(1, 1, 0),
              "counterexamples": [],
              "details": {"source": "automorphism", "cocycle_valid": True}}
    jobs.append(_cli("probe.automorphism", "lift", cfg, expect, rng))

    cfg = _system(rng, 2, [acting + 1], 0, 1)
    base = 1 - acting
    cfg["derivation"] = {"images": {str(base + 1): [_term(_gen(2, base), 0, 1, tau=1)]}}
    cfg["h_family"] = {"linear_scalar": [_term([0, 0], 0, 1, tau=1)]}
    expect = {"code": 0, "passed": True, "checks": oracle.lift_derivation_count(1, 1, 0, 1),
              "counterexamples": [], "details": {"char_range": 0, "gen_degree": 1}}
    jobs.append(_cli("probe.lift-derivation", "lift-derivation", cfg, expect, rng))

    jobs.append(_curvature_job(rng, "probe.curvature", 2, 1, dense=False))
    return jobs
