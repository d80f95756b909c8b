"""Schoolbook references for the exact ring, written from the definitions.

A phase is read as tuple keys, ``{(e, t): c}`` for the terms c q^e tau^t,
and a polynomial as ``{a: phase}`` for the terms phase * u^a.  Each
reference forms its result term by term: a product is the double loop
over terms, a key of a term product is the sum of the keys, the reorder
vector s(a, b) is read off the relations, and every Gaussian rational
product is the component formula.  Only the public ``Phase`` and ``QQi``
constructors are used, so no shortcut of the implementation is trusted.
Matrices are built entry by entry from the polynomial references, and
``cocycle_value`` forms the obstruction cocycle by its defining formula.

Phase exponents must lie in [-2^62, 2^62).  Each key a reference forms
is checked against that range, and one outside it raises
:class:`OutOfRange`: the implementation must then raise
``PhaseRangeError``.
"""

from nctorus.algebra import PolyMatrix, TwistedPoly
from nctorus.phases import Phase, QQi

B = 1 << 62  # exponents lie in [-B, B)


class OutOfRange(Exception):
    """A key the reference forms has an exponent outside [-B, B)."""


def _sum(*keys) -> tuple:
    """The entrywise sum of flat keys ``(*e, t)``, which must lie in the range."""
    out = tuple(map(sum, zip(*keys)))
    if not all(-B <= x < B for x in out):
        raise OutOfRange(out)
    return out


def _flat(p: Phase) -> list:
    """The terms of p as ``((*e, t), c)``."""
    return [((*e, t), c) for (e, t), c in p.items()]


def _phase(nslots: int, flat) -> Phase:
    """The phase of ``((*e, t), c)`` terms; terms on one key add up."""
    terms: dict = {}
    for k, c in flat:
        key = (k[:-1], k[-1])
        terms[key] = terms[key] + c if key in terms else c
    return Phase(nslots, terms)


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


def qqi_mul(x: QQi, y: QQi) -> QQi:
    return QQi(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)


def qqi_inverse(x: QQi) -> QQi:
    n = x.re * x.re + x.im * x.im
    return QQi(x.re / n, -x.im / n)


def qqi_pow(x: QQi, k: int) -> QQi:
    """|k| products by x, or by its inverse for k < 0."""
    base = x if k >= 0 else qqi_inverse(x)
    out = QQi(1)
    for _ in range(abs(k)):
        out = qqi_mul(out, base)
    return out


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


def phase_mul(p: Phase, o: Phase, shift=None) -> Phase:
    """p * o * q^shift: each term product has the sum of the keys."""
    z = (*(shift or (0,) * p.nslots), 0)
    return _phase(
        p.nslots,
        [(_sum(k1, k2, z), qqi_mul(c1, c2)) for k1, c1 in _flat(p) for k2, c2 in _flat(o)],
    )


def phase_add(p: Phase, o: Phase) -> Phase:
    """p + o: the terms of both, terms on one key added."""
    return _phase(p.nslots, _flat(p) + _flat(o))


def phase_shift(p: Phase, v) -> Phase:
    """p * q^v."""
    return _phase(p.nslots, [(_sum(k, (*v, 0)), c) for k, c in _flat(p)])


def phase_conjugate(p: Phase) -> Phase:
    """The q units are unimodular and tau is real: q^e -> q^-e, tau^t -> tau^t."""
    return _phase(
        p.nslots, [(_sum((*(-x for x in k[:-1]), k[-1])), QQi(c.re, -c.im)) for k, c in _flat(p)]
    )


def phase_invert(p: Phase) -> Phase:
    """The inverse of a one-term phase c q^e tau^t: c^-1 q^-e tau^-t."""
    (k, c), = _flat(p)
    return _phase(p.nslots, [(_sum(tuple(-x for x in k)), qqi_inverse(c))])


def phase_pow(p: Phase, k: int) -> Phase:
    """|k| products by p, or by its inverse for k < 0."""
    base = p if k >= 0 else phase_invert(p)
    out = _phase(p.nslots, [((0,) * (p.nslots + 1), QQi(1))])
    for _ in range(abs(k)):
        out = phase_mul(out, base)
    return out


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def reorder(twist, a, b) -> tuple:
    """s(a, b) in u^a u^b = q^s(a, b) u^(a+b): from u_i^x u_j^y = q_ji^(-x y)
    u_j^y u_i^x for i > j, slot q_ji gets -a_i b_j."""
    e = [0] * twist.nslots
    for i in range(twist.n):
        for j in range(i):
            e[twist.slot(j, i)] = -a[i] * b[j]
    return _sum(e)


def poly_mul(x: TwistedPoly, y: TwistedPoly) -> TwistedPoly:
    """(p u^a)(r u^b) = p r q^s(a, b) u^(a+b), summed over term pairs."""
    tw = x.twist
    out: dict = {}
    for a, pa in x.terms.items():
        for b, pb in y.terms.items():
            s = (*reorder(tw, a, b), 0)
            out.setdefault(tuple(i + j for i, j in zip(a, b)), []).extend(
                (_sum(k1, k2, s), qqi_mul(c1, c2)) for k1, c1 in _flat(pa) for k2, c2 in _flat(pb)
            )
    return TwistedPoly(tw, {a: _phase(tw.nslots, flat) for a, flat in out.items()})


def poly_star(x: TwistedPoly) -> TwistedPoly:
    """(p u^a)* = (u^a)* p-bar = p-bar q^s(a, a) u^-a."""
    tw = x.twist
    return TwistedPoly(
        tw,
        {tuple(-i for i in a): phase_shift(phase_conjugate(p), reorder(tw, a, a))
         for a, p in x.terms.items()},
    )


def poly_inverse_monomial(x: TwistedPoly) -> TwistedPoly:
    """(p u^a)^-1 = u^-a p^-1 = p^-1 q^s(a, a) u^-a, for a one-term p."""
    (a, p), = x.terms.items()
    inverse = phase_shift(phase_invert(p), reorder(x.twist, a, a))
    return TwistedPoly(x.twist, {tuple(-i for i in a): inverse})


def is_central(action, x: TwistedPoly) -> bool:
    """x commutes with every generator of the fixed algebra, by products."""
    gens = [TwistedPoly.generator(action.twist, k) for k in action.base]
    return all(poly_mul(x, g) == poly_mul(g, x) for g in gens)


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


def apply(m, x: TwistedPoly) -> PolyMatrix:
    """m(x) = sum over the terms p u^a of p * m(u_k)^a_k in base order, one
    factor of m(u_k) or m(u_k^-1) per unit of exponent."""
    tw = m.action.twist
    total = PolyMatrix.zeros(tw, m.dim, m.dim)
    for a, phase in x.terms.items():
        term = PolyMatrix.identity(tw, m.dim).scale_left(TwistedPoly.scalar(tw, phase))
        for k in m.action.base:
            image = m.images[k] if a[k] > 0 else m.inv_images[k]
            for _ in range(abs(a[k])):
                term = term * image
        total = total + term
    return total


def gamma(s: PolyMatrix, x: TwistedPoly) -> PolyMatrix:
    """gamma_sigma(x) = s x s* for the isometry column s = s(sigma).

    Delta_sigma(x) = s* x s is ``gamma(s.adjoint(), x)``.
    """
    return s * PolyMatrix.from_scalar(x) * s.adjoint()


# ---------------------------------------------------------------------------
# matrices and the obstruction cocycle
# ---------------------------------------------------------------------------


def poly_add(x: TwistedPoly, y: TwistedPoly) -> TwistedPoly:
    """Terms on one monomial add up, key by key."""
    tw = x.twist
    out: dict = {}
    for z in (x, y):
        for a, p in z.terms.items():
            out.setdefault(a, []).extend(_flat(p))
    return TwistedPoly(tw, {a: _phase(tw.nslots, flat) for a, flat in out.items()})


def mat_mul(x: PolyMatrix, y: PolyMatrix) -> PolyMatrix:
    """(x y)[i][j] = sum over k of x[i][k] y[k][j]."""
    tw = x.twist
    rows = []
    for i in range(x.rows):
        row = []
        for j in range(y.cols):
            acc = TwistedPoly(tw, {})
            for k in range(x.cols):
                acc = poly_add(acc, poly_mul(x.entries[i][k], y.entries[k][j]))
            row.append(acc)
        rows.append(row)
    return PolyMatrix(tw, rows)


def mat_adjoint(x: PolyMatrix) -> PolyMatrix:
    """x*[i][j] = star(x[j][i])."""
    return PolyMatrix(x.twist, [[poly_star(x.entries[j][i]) for j in range(x.rows)]
                                for i in range(x.cols)])


def kron(x: PolyMatrix, y: PolyMatrix) -> PolyMatrix:
    """x indexes the outer tensor leg: (x ox y)[i y.rows + k][j y.cols + l] = x[i][j] y[k][l]."""
    return PolyMatrix(x.twist, [
        [poly_mul(x.entries[i][j], y.entries[k][l]) for j in range(x.cols) for l in range(y.cols)]
        for i in range(x.rows) for k in range(y.rows)
    ])


def entrywise(f, x: PolyMatrix, d: int) -> PolyMatrix:
    """f applied to each entry of x, f's d x d value indexing the outer leg:
    result[s1 x.rows + r][s2 x.cols + c] = f(x[r][c])[s1][s2]."""
    blocks = [[f(x.entries[r][c]) for c in range(x.cols)] for r in range(x.rows)]
    return PolyMatrix(x.twist, [
        [blocks[r][c].entries[s1][s2] for s2 in range(d) for c in range(x.cols)]
        for s1 in range(d) for r in range(x.rows)
    ])


def cocycle_value(fs, beta, v, sigma, pi_) -> TwistedPoly:
    """u(sigma, pi) = s(sigma+pi)* beta^-1(v(sigma+pi) P*) s(pi) s(sigma), with
    P = (v(pi) ox 1) gamma_pi(v(sigma)) omega(pi, sigma) and gamma_pi = Ad s(pi),
    every product formed; omega is the system's own, overrides included."""
    tw = fs.action.twist
    s = fs.isometries
    sp = tuple(a + b for a, b in zip(sigma, pi_))
    vp, vs, vsp = v(pi_), v(sigma), v(sp)
    col = s(pi_)
    d = col.rows
    gamma_vs = entrywise(lambda x: mat_mul(mat_mul(col, PolyMatrix.from_scalar(x)), mat_adjoint(col)),
                         vs, d)
    p = mat_mul(mat_mul(kron(vp, PolyMatrix.identity(tw, vs.rows)), gamma_vs), fs.omega(pi_, sigma))
    inner = entrywise(lambda x: apply(beta.inv, x), mat_mul(vsp, mat_adjoint(p)), beta.inv.dim)
    return mat_mul(mat_mul(mat_adjoint(s(sp)), inner), kron(col, s(sigma))).as_scalar()
