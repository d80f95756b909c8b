"""Ring batches: dense twisted polynomials through the public ring API.

``run`` does only nctorus work and is what the benchmark times; ``check``
then compares its results with the known answers (every identity holds,
and the product evaluates to the floating-point reference).
"""

from __future__ import annotations

import hashlib

REL_TOL = 1e-9


def _poly(nct, tw, terms):
    return nct.TwistedPoly(tw, {a: _phase(nct, tw, phase) for a, phase in terms})


def _phase(nct, tw, phase):
    return nct.Phase(tw.nslots, {(q, t): nct.QQi(re, im) for q, t, re, im in phase})


def run(nct, ring: dict) -> list:
    tw = nct.TwistMatrix(ring["theta"])
    theta = [[float(x) for x in row] for row in ring["theta"]]
    out = []
    for x_terms, y_terms, z_terms in ring["triples"]:
        x, y, z = (_poly(nct, tw, t) for t in (x_terms, y_terms, z_terms))
        p = _phase(nct, tw, x_terms[0][1])
        xy = x * y
        out.append((
            xy,
            xy.evaluate(theta, ring["point"]),
            xy * z == x * (y * z),
            xy.star() == y.star() * x.star(),
            x * (y + z) == xy + x * z,
            x.star().star() == x,
            p**3 == p.mul(p).mul(p),
        ))
    return out


# with the reference comparison, workloads.RING_CHECKS identities per triple
LAWS = ("associativity", "star anti-multiplicativity", "distributivity",
        "star involution", "phase power")


def check(ring: dict, results: list) -> tuple[list[str], str]:
    """Problems against the known answers, and a digest of the exact products."""
    problems = []
    digest = hashlib.sha256()
    for idx, ((xy, value, *holds), (ref, scale)) in enumerate(zip(results, ring["refs"])):
        if abs(value - ref) > REL_TOL * max(1.0, scale):
            problems.append(f"triple {idx}: product evaluates to {value}, reference {ref}")
        problems += [f"triple {idx}: {law} fails" for law, ok in zip(LAWS, holds) if not ok]
        digest.update(repr(xy).encode())
    return problems, digest.hexdigest()
