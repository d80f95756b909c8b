"""Known answers for benchmark jobs, computed without nctorus.

Identity counts come from closed forms over the character box C (radius
r, rank d, so |C| = (2r+1)^d) and the fixed-algebra monomials M of L1
degree <= g in the |base| = n - d non-acting generators.  Expected
verdicts, counterexamples and obstruction witnesses follow from the
generated inputs alone: every cleft circle system has omega == 1, so an
injected scalar unit shows up exactly where a parity count says it does.
The floating-point twisted product is an independent reference for the
exact ring.
"""

from __future__ import annotations

import cmath
from math import comb

SAMPLE_SIZE = 6  # the CLI re-checks lifts on 6 seeded monomials x 3 partners


def lattice_points(dim: int, g: int) -> int:
    """#{x in Z^dim : |x|_1 <= g}, counted by the number k of nonzero coordinates."""
    return sum(2**k * comb(dim, k) * comb(g, k) for k in range(min(dim, g) + 1))


def box_size(d: int, r: int) -> int:
    return (2 * r + 1) ** d


def axioms_count(base: int, d: int, r: int, g: int) -> int:
    """verify_axioms: |base| + 2|C| + |C|^2 (2 + |M|) + |C|^3."""
    c, m = box_size(d, r), lattice_points(base, g)
    return base + 2 * c + c * c * (2 + m) + c**3


def cocycle_count(d: int, r: int) -> int:
    """verify_cocycle: 1 + 2|C|^2 + |C|^3."""
    c = box_size(d, r)
    return 1 + 2 * c * c + c**3


def _sample_pool(base: int, d: int, r: int) -> int:
    # weight monomials of degree <= 1 over the characters of radius min(r, 1)
    return box_size(d, min(r, 1)) * lattice_points(base, 1)


def _sample_checks(pool: int, with_involution: bool) -> int:
    s = min(SAMPLE_SIZE, pool)
    return s * min(3, s) + (s if with_involution else 0)


def lift_automorphism_count(base: int, d: int, r: int) -> int:
    return cocycle_count(d, r) + _sample_checks(_sample_pool(base, d, r), True)


def lift_derivation_count(base: int, d: int, r: int, g: int) -> int:
    """verify_lift_conditions (1 + |C||M| + |C|^2) plus the Leibniz sample."""
    c, m = box_size(d, r), lattice_points(base, g)
    return 1 + c * m + c * c + _sample_checks(_sample_pool(base, d, r), False)


def curvature_count(base: int, g: int) -> int:
    return lattice_points(base, g)


def demo_count(r: int, g: int) -> int:
    """demo q3torus: axioms, the Atiyah section check and a 3-module sweep."""
    base = 2
    corpus = box_size(1, min(r, 2)) * min(lattice_points(base, g), 2 * base + 1)
    atiyah = 2 * base + 1 + 2 * corpus + corpus  # restriction, kernel, linearity, bracket
    sweep = 3 * lattice_points(base, 1)
    return axioms_count(base, 1, r, g) + atiyah + sweep


# ---------------------------------------------------------------------------
# rendered values the reports must contain
# ---------------------------------------------------------------------------

_UNIT = {0: "1", 1: "i", 2: "-1", 3: "-i"}  # i^m


def q_power(slot: str, e: int) -> str:
    """Rendering of the formal unit ``slot`` raised to e != 0."""
    return slot if e == 1 else f"{slot}^{e}"


def scaled_generator(slot: str, e: int, gen: str) -> str:
    """Rendering of q^e * gen for a single formal unit q."""
    if e == 0:
        return gen
    coeff = q_power(slot, e)
    return f"({coeff})*{gen}" if "-" in coeff else f"{coeff}*{gen}"


def corrupted_failures(r: int, x, m: int, limit: int = 5) -> list[dict]:
    """First counterexamples of a circle system whose omega(x) is set to i^m.

    omega is identically 1 otherwise and the unit is central, so only the
    cocycle identity (omega(s,p) ox 1) omega(s+p,t) = gamma_s(omega(p,t))
    omega(s,p+t) can fail, and it fails iff i^(m (L - R)) != 1 where L and
    R count the factors on each side that hit the override.
    """
    chars = [(k,) for k in range(-r, r + 1)]
    out = []
    for s in chars:
        for p in chars:
            for t in chars:
                sp, pt = (s[0] + p[0],), (p[0] + t[0],)
                left = ((s, p) == x) + ((sp, t) == x)
                right = ((p, t) == x) + ((s, pt) == x)
                if (m * (left - right)) % 4:
                    out.append({
                        "law": "cocycle identity",
                        "where": {"sigma": str(s), "pi": str(p), "rho": str(t)},
                        "lhs": f"[{_UNIT[m * left % 4]}]",
                        "rhs": f"[{_UNIT[m * right % 4]}]",
                    })
                    if len(out) == limit:
                        return out
    return out


def antisymmetric_witness(r: int, mat):
    """First box pair (s, p) with s^T M p != p^T M s, and the exponent gap."""
    chars = sorted((a, b) for a in range(-r, r + 1) for b in range(-r, r + 1))

    def form(s, p):
        return sum(s[i] * mat[i][j] * p[j] for i in range(2) for j in range(2))

    for s in chars:
        for p in chars:
            gap = form(s, p) - form(p, s)
            if gap:
                return [list(s), list(p)], gap
    return None, 0


# ---------------------------------------------------------------------------
# floating-point reference for the twisted product
# ---------------------------------------------------------------------------


def unit_values(theta, slots):
    """exp(2 pi i theta_kl) for every slot (k, l), k < l."""
    return [cmath.exp(2j * cmath.pi * float(theta[k][l])) for k, l in slots]


def phase_value(phase_terms, units) -> complex:
    """phase_terms: [(qexp, tau, re, im)] with exact re/im; tau stands for 2 pi."""
    total = 0j
    for qexp, tau, re, im in phase_terms:
        v = complex(float(re), float(im)) * (2 * cmath.pi) ** tau
        for u, e in zip(units, qexp):
            if e:
                v *= u**e
        total += v
    return total


def reference_product(theta, x_terms, y_terms, point) -> complex:
    """evaluate(x * y) from the defining relations u_i u_j = exp(2 pi i theta_ij) u_j u_i.

    Normal-ordering u^a u^b moves each u_j^b_j left past u_i^a_i (i > j),
    which costs exp(2 pi i theta_ij a_i b_j).
    """
    n = len(theta)
    slots = [(k, l) for k in range(n) for l in range(k + 1, n)]
    units = unit_values(theta, slots)
    total = 0j
    for a, pa in x_terms:
        va = phase_value(pa, units)
        for b, pb in y_terms:
            v = va * phase_value(pb, units)
            for i in range(n):
                for j in range(i):
                    if a[i] and b[j]:
                        v *= cmath.exp(2j * cmath.pi * float(theta[i][j]) * a[i] * b[j])
            for k in range(n):
                e = a[k] + b[k]
                if e:
                    v *= point[k] ** e
            total += v
    return total


def magnitude(x_terms, y_terms) -> float:
    """Scale for the numeric tolerance: the product of the coefficient 1-norms."""
    def norm(terms):
        return sum(abs(complex(float(re), float(im))) * (2 * cmath.pi) ** tau
                   for _, phase in terms for _, tau, re, im in phase)
    return norm(x_terms) * norm(y_terms)


# ---------------------------------------------------------------------------
# comparing a CLI report with its known answer
# ---------------------------------------------------------------------------


def check_report(expect: dict, code: int, report: dict) -> list[str]:
    """Every way the report differs from the known answer (empty when it agrees)."""
    problems = []
    if code != expect["code"]:
        problems.append(f"exit code {code}, expected {expect['code']}")
    if report.get("passed") is not expect["passed"]:
        problems.append(f"passed={report.get('passed')}, expected {expect['passed']}")
    if "error" in expect:
        if expect["error"] not in report.get("error", ""):
            problems.append(f"error {report.get('error')!r} lacks {expect['error']!r}")
        return problems
    if "error" in report:
        problems.append(f"unexpected error {report['error']!r}")
    if report.get("checks") != expect["checks"]:
        problems.append(f"{report.get('checks')} identities, expected {expect['checks']}")
    if report.get("counterexamples") != expect["counterexamples"]:
        got = report.get("counterexamples")
        problems.append(f"counterexamples {got!r:.300}, expected {expect['counterexamples']!r:.300}")
    details = report.get("details", {})
    for key, want in expect["details"].items():
        if details.get(key) != want:
            problems.append(f"details.{key}={details.get(key)!r:.200}, expected {want!r:.200}")
    if "obstruction" not in expect["details"] and "obstruction" in details:
        problems.append(f"unexpected obstruction {details['obstruction']!r:.200}")
    return problems
