"""Sparse twisted Laurent polynomials over the formal phase ring.

The quantum torus on n unitary generators u1, ..., un with relation
``u_k u_l = lambda_{kl} u_l u_k`` is modelled on the normal-ordered
monomial basis u^a = u1^a1 * ... * un^an, a in Z^n.  Reordering phases
are tracked exactly in the strictly-upper-triangular units q_{kl}
(k < l), which stand for lambda_{kl} = exp(2*pi*i*theta_{kl}).

The algebra is the twisted group algebra of Z^n: u^a * u^b =
q^s(a, b) * u^(a+b), where the q-exponent vector s(a, b) is the integer
bilinear form -a^T L b with L strictly lower-triangular, i.e. slot
q_{ji} gets -a_i*b_j for every pair i > j.  ``TwistMatrix.reorder``
lists the (i, j, slot) terms of this form once per twist, and the
product adds s(a, b) straight to the phase keys.  The star and the
monomial inverse use the diagonal case: star(u^a) = q^s(a, a) * u^(-a),
since u^(-a) * u^a = q^s(-a, a) * u^0 and s(-a, a) = -s(a, a).
Coefficients never touch floating point; ``evaluate`` is the one
numeric boundary.

Canonical form (merged exponents, no zero coefficients) makes ``==``
the algebra equality, which all verifiers downstream rely on.  Values
are immutable after construction and can be shared freely.

Monomial lane: nearly every product the verifiers form is monomial
times monomial, or 1 x 1 times 1 x 1.  Such products skip the general
loops and are built directly in canonical form.  This is exact: c u^a
times c' u^b is the single term c c' q^s(a, b) u^(a+b), which is
nonzero because the coefficient ring QQ(i)[F] has no zero divisors, so
there is nothing to merge or filter; and a 1 x 1 product is the one
entry product, whose twist ``TwistedPoly._check`` has already compared.
The phase c c' q^s(a, b) is one call of ``phases._phase_product``, which
``Phase.mul`` uses too: for single-term c and c' it adds the keys and
s(a, b) and forms the one coefficient product in the same step.  Twist
checks compare by identity first, so operands over one shared twist
never reach ``TwistMatrix.__eq__``; equal twists built apart still
compare equal.  The general loops stay for every other shape.

Dense lane: the general polynomial product groups its term pairs by
output monomial and hands each group to one kernel
(``phases._product_terms``), with s(a, b) folded into the phase keys;
``Phase.mul`` uses the same kernel.  Coefficients accumulate per key
as unreduced integers (a, b, d) and each output coefficient is reduced
with one gcd.  This is exact because the canonical form of a Gaussian
rational is unique: reducing once at the end gives the same value as
reducing after every product and sum.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from operator import add

from .phases import _QQI_ONE, Phase, QQi, _canonical, _phase_product, _product_terms


class TwistMismatchError(ValueError):
    """Raised when operands live over different twist matrices."""


class TwistMatrix:
    """Skew-symmetric matrix of twist angles, in units of full turns.

    ``theta[k][l]`` is the exact rational angle with
    lambda_{kl} = exp(2*pi*i*theta[k][l]).  Generator indices are
    0-based in the API; printed names are 1-based (u1, q12, ...).
    """

    __slots__ = ("n", "theta", "nslots", "_slot_of", "slot_pairs", "reorder")

    def __init__(self, theta):
        rows = [tuple(Fraction(x) for x in row) for row in theta]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("theta must be square")
        for k in range(n):
            if rows[k][k] != 0:
                raise ValueError("theta must have zero diagonal")
            for l in range(k + 1, n):
                if rows[k][l] != -rows[l][k]:
                    raise ValueError("theta must be skew-symmetric")
        self.n = n
        self.theta = tuple(rows)
        self.slot_pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
        self._slot_of = {p: i for i, p in enumerate(self.slot_pairs)}
        self.nslots = len(self.slot_pairs)
        # (i, j, slot of q_{ji}) for i > j: the terms of the reordering form
        self.reorder = tuple(
            (i, j, self._slot_of[(j, i)]) for i in range(n) for j in range(i)
        )

    def slot(self, k: int, l: int) -> int:
        """Slot index of the unit q_{kl}, k < l."""
        return self._slot_of[(k, l)]

    def slot_names(self):
        return [f"q{k + 1}{l + 1}" for k, l in self.slot_pairs]

    def gen_name(self, k: int) -> str:
        return f"u{k + 1}"

    def unit_values(self, theta_numeric) -> list[complex]:
        """Numeric value exp(2*pi*i*theta[k][l]) for each slot."""
        check_skew_numeric(theta_numeric, self.n)
        return [
            cmath.exp(2j * cmath.pi * theta_numeric[k][l]) for k, l in self.slot_pairs
        ]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, TwistMatrix):
            return NotImplemented
        return self.theta == other.theta

    def __hash__(self):
        return hash(self.theta)

    def __repr__(self) -> str:
        return f"TwistMatrix(n={self.n})"


def check_skew_numeric(theta_numeric, n: int, tol: float = 1e-12):
    if len(theta_numeric) != n or any(len(r) != n for r in theta_numeric):
        raise ValueError("numeric theta has wrong shape")
    for k in range(n):
        for l in range(n):
            if abs(theta_numeric[k][l] + theta_numeric[l][k]) > tol:
                raise ValueError("numeric theta is not skew-symmetric within 1e-12")


def _reorder_shift(twist: TwistMatrix, a, b):
    """The q-exponent vector s(a, b) of u^a * u^b = q^s * u^(a+b), or None if 0.

    s = -a^T L b, L strictly lower-triangular: slot q_{ji} gets
    -a_i*b_j for each i > j.  Each slot has one term, so s is zero
    exactly when every product a_i*b_j vanishes.
    """
    e = None
    for i, j, slot in twist.reorder:
        ai = a[i]
        if ai:
            bj = b[j]
            if bj:
                if e is None:
                    e = [0] * twist.nslots
                e[slot] = -ai * bj
    return e


def exchange_phase(twist: TwistMatrix, k: int, l: int) -> Phase:
    """The formal unit for lambda_{kl} in u_k u_l = lambda_{kl} u_l u_k."""
    if k < l:
        return Phase.unit(twist.nslots, twist.slot(k, l))
    return Phase.unit(twist.nslots, twist.slot(l, k), -1)


def _coerce_phase(twist: TwistMatrix, c) -> Phase | None:
    if isinstance(c, Phase):
        return c
    if isinstance(c, QQi):
        return Phase.coeff(twist.nslots, c)
    if isinstance(c, (int, Fraction)):
        return Phase.coeff(twist.nslots, QQi(c))
    return None


def _dense_product(twist: TwistMatrix, xs: dict, ys: dict) -> "TwistedPoly":
    """The dense lane: one kernel call per output monomial (kept out of ``__mul__``,
    whose frame size the monomial lane pays on every call)."""
    groups: dict = {}
    for a, pa in xs.items():
        for b, pb in ys.items():
            pair = (pa.terms, pb.terms, _reorder_shift(twist, a, b))
            groups.setdefault(tuple(map(add, a, b)), []).append(pair)
    nslots = twist.nslots
    # the constructor drops a monomial whose phase cancelled to zero
    return TwistedPoly(
        twist, {key: _canonical(nslots, _product_terms(pairs)) for key, pairs in groups.items()}
    )


class TwistedPoly:
    """Twisted Laurent polynomial: finite map exponent vector -> Phase."""

    __slots__ = ("twist", "terms")

    def __init__(self, twist: TwistMatrix, terms: dict | None = None):
        self.twist = twist
        if terms:
            self.terms = {a: p for a, p in terms.items() if not p.is_zero()}
        else:
            self.terms = {}

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, twist: TwistMatrix) -> "TwistedPoly":
        return cls(twist)

    @classmethod
    def one(cls, twist: TwistMatrix) -> "TwistedPoly":
        return cls.scalar(twist, Phase.one(twist.nslots))

    @classmethod
    def scalar(cls, twist: TwistMatrix, c) -> "TwistedPoly":
        p = _coerce_phase(twist, c)
        if p is None:
            raise TypeError(f"cannot use {type(c).__name__} as scalar")
        return cls(twist, {(0,) * twist.n: p})

    @classmethod
    def monomial(cls, twist: TwistMatrix, exponents, c=_QQI_ONE) -> "TwistedPoly":
        exponents = tuple(int(x) for x in exponents)
        if len(exponents) != twist.n:
            raise ValueError("exponent vector has wrong length")
        p = _coerce_phase(twist, c)
        if p is None:
            raise TypeError(f"cannot use {type(c).__name__} as coefficient")
        return cls(twist, {exponents: p})

    @classmethod
    def generator(cls, twist: TwistMatrix, k: int, power: int = 1) -> "TwistedPoly":
        e = [0] * twist.n
        e[k] = power
        return cls.monomial(twist, e)

    # -- ring operations ---------------------------------------------

    def _check(self, other: "TwistedPoly"):
        if other.twist is not self.twist and other.twist != self.twist:
            raise TwistMismatchError("operands have different twist matrices")

    def __add__(self, other: "TwistedPoly") -> "TwistedPoly":
        if not isinstance(other, TwistedPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for a, p in other.terms.items():
            acc = out.get(a)
            out[a] = p if acc is None else acc.add(p)
        return TwistedPoly(self.twist, out)

    def __sub__(self, other: "TwistedPoly") -> "TwistedPoly":
        if not isinstance(other, TwistedPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TwistedPoly":
        return TwistedPoly(self.twist, {a: p.neg() for a, p in self.terms.items()})

    def __mul__(self, other) -> "TwistedPoly":
        if isinstance(other, TwistedPoly):
            twist = self.twist
            if other.twist is not twist:
                self._check(other)
            if len(self.terms) == 1 and len(other.terms) == 1:
                # monomial lane: one key, and QQ(i)[F] has no zero divisors
                (a, pa), = self.terms.items()
                (b, pb), = other.terms.items()
                mono = object.__new__(TwistedPoly)
                mono.twist = twist
                e = _reorder_shift(twist, a, b)
                mono.terms = {tuple(map(add, a, b)): _phase_product(pa, pb, e)}
                return mono
            return _dense_product(twist, self.terms, other.terms)
        c = _coerce_phase(self.twist, other)
        if c is None:
            return NotImplemented
        return self.scale(c)

    def __rmul__(self, other) -> "TwistedPoly":
        # scalars commute with everything, so left and right agree
        c = _coerce_phase(self.twist, other)
        if c is None:
            return NotImplemented
        return self.scale(c)

    def scale(self, c) -> "TwistedPoly":
        p = _coerce_phase(self.twist, c)
        if p is None:
            raise TypeError(f"cannot use {type(c).__name__} as coefficient")
        terms = {a: _phase_product(q, p, None) for a, q in self.terms.items()}
        return TwistedPoly(self.twist, terms)

    def star(self) -> "TwistedPoly":
        out: dict = {}
        for a, p in self.terms.items():
            key = tuple(-x for x in a)
            # star(u^a) = q^s(a, a) * u^-a
            q, e = p.conjugate(), _reorder_shift(self.twist, a, a)
            q = q if e is None else q.shift(e)
            acc = out.get(key)
            out[key] = q if acc is None else acc.add(q)
        return TwistedPoly(self.twist, out)

    def inverse_monomial(self) -> "TwistedPoly":
        """Inverse of a single-term polynomial with invertible phase."""
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible")
        (a, p), = self.terms.items()
        inv_exp = tuple(-x for x in a)
        # (c u^a)^-1 = c^-1 (u^a)^-1 and (u^a)^-1 = (u^a)^* for the unitary u^a
        q, e = p.invert(), _reorder_shift(self.twist, a, a)
        q = q if e is None else q.shift(e)
        return TwistedPoly(self.twist, {inv_exp: q})

    # -- predicates and views ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        zero = (0,) * self.twist.n
        return all(a == zero for a in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwistedPoly):
            return NotImplemented
        tw = other.twist
        return (tw is self.twist or tw == self.twist) and self.terms == other.terms

    def __hash__(self):
        return hash(
            (self.twist, frozenset((a, p) for a, p in self.terms.items()))
        )

    # -- numeric boundary ----------------------------------------------

    def evaluate(self, theta_numeric, torus_point) -> complex:
        """Substitute numeric phases and evaluate generators at a torus point.

        q_{kl} goes to exp(2*pi*i*theta_numeric[k][l]), u^a to the
        product of torus_point[k]**a_k, tau to 2*pi; linear in terms.
        """
        units = self.twist.unit_values(theta_numeric)
        total = 0j
        for a, p in self.terms.items():
            val = p.evaluate(units, cmath.tau)
            for k, e in enumerate(a):
                if e:
                    val *= torus_point[k] ** e
            total += val
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = self.twist.slot_names()
        parts = []
        for a in sorted(self.terms):
            p = self.terms[a]
            mono = "*".join(
                self.twist.gen_name(k) + (f"^{e}" if e != 1 else "")
                for k, e in enumerate(a)
                if e
            )
            coeff = p.render(names)
            if not mono:
                parts.append(coeff)
            elif coeff == "1":
                parts.append(mono)
            elif coeff == "-1":
                parts.append(f"-{mono}")
            elif "+" in coeff[1:] or "-" in coeff[1:]:
                parts.append(f"({coeff})*{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        out = parts[0]
        for s in parts[1:]:
            out += s if s.startswith("-") else "+" + s
        return out


def numeric_product(x: TwistedPoly, y: TwistedPoly, theta_numeric, torus_point) -> complex:
    """Floating-point oracle for evaluate(x * y).

    Computes the twisted product directly with complex exponentials,
    bypassing the formal phase ring entirely: an independent check that
    the exact reordering bookkeeping matches the defining relations.
    """
    check_skew_numeric(theta_numeric, x.twist.n)
    units = x.twist.unit_values(theta_numeric)
    total = 0j
    for a, pa in x.terms.items():
        va = pa.evaluate(units, cmath.tau)
        for b, pb in y.terms.items():
            vb = pb.evaluate(units, cmath.tau)
            swap = 1.0 + 0j
            for i in range(x.twist.n):
                for j in range(i):
                    if a[i] and b[j]:
                        swap *= cmath.exp(
                            -2j * cmath.pi * theta_numeric[j][i] * a[i] * b[j]
                        )
            val = va * vb * swap
            for k in range(x.twist.n):
                e = a[k] + b[k]
                if e:
                    val *= torus_point[k] ** e
            total += val
    return total


class PolyMatrix:
    """Dense matrix of twisted polynomials sharing one twist matrix."""

    __slots__ = ("twist", "rows", "cols", "entries")

    def __init__(self, twist: TwistMatrix, entries):
        self.twist = twist
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            for e in row:
                if e.twist is not twist and e.twist != twist:
                    raise TwistMismatchError("matrix entry over different twist")

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, twist: TwistMatrix, rows: int, cols: int) -> "PolyMatrix":
        z = TwistedPoly.zero(twist)
        return cls(twist, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, twist: TwistMatrix, d: int) -> "PolyMatrix":
        one = TwistedPoly.one(twist)
        z = TwistedPoly.zero(twist)
        return cls(twist, [[one if i == j else z for j in range(d)] for i in range(d)])

    @classmethod
    def from_scalar(cls, poly: TwistedPoly) -> "PolyMatrix":
        return cls(poly.twist, [[poly]])

    # -- algebra -------------------------------------------------------

    def _check_twist(self, other: "PolyMatrix"):
        if other.twist is not self.twist and other.twist != self.twist:
            raise TwistMismatchError("matrices over different twist matrices")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_twist(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        return PolyMatrix(
            self.twist,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

    def __neg__(self) -> "PolyMatrix":
        return self.map(lambda e: -e)

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if other.twist is not self.twist:
            self._check_twist(other)
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in matrix product: {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}"
            )
        if self.rows == self.cols == other.cols == 1:
            # 1 x 1 lane: the entry product checks its twists itself
            one = object.__new__(PolyMatrix)
            one.twist = self.twist
            one.entries = ((self.entries[0][0] * other.entries[0][0],),)
            one.rows = one.cols = 1
            return one
        # a 0-column self has a 0x0 other, so no entry reads row[0]
        out = []
        for row in self.entries:
            out_row = []
            for j in range(other.cols):
                acc = row[0] * other.entries[0][j]
                for k in range(1, self.cols):
                    acc = acc + row[k] * other.entries[k][j]
                out_row.append(acc)
            out.append(out_row)
        return PolyMatrix(self.twist, out)

    def adjoint(self) -> "PolyMatrix":
        return PolyMatrix(
            self.twist,
            [
                [self.entries[i][j].star() for i in range(self.rows)]
                for j in range(self.cols)
            ],
        )

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product; self indexes the slow (outer) tensor leg."""
        self._check_twist(other)
        out = []
        for i1 in range(self.rows):
            for i2 in range(other.rows):
                row = []
                for j1 in range(self.cols):
                    for j2 in range(other.cols):
                        row.append(self.entries[i1][j1] * other.entries[i2][j2])
                out.append(row)
        return PolyMatrix(self.twist, out)

    def ampliate(self, d: int) -> "PolyMatrix":
        """self ox 1_d, with the identity on the fast (inner) tensor leg."""
        return self if d == 1 else self.kron(PolyMatrix.identity(self.twist, d))

    def scale_left(self, poly: TwistedPoly) -> "PolyMatrix":
        return self.map(lambda e: poly * e)

    def map(self, fn) -> "PolyMatrix":
        return PolyMatrix(self.twist, [[fn(e) for e in row] for row in self.entries])

    def scaled(self, phase: Phase) -> "PolyMatrix":
        """Every entry times the scalar ``phase``, which must be nonzero,
        built directly in canonical form.

        A nonzero phase times a nonzero term is nonzero (QQ(i)[F] has no
        zero divisors), so no entry needs the zero filter, and the shape
        and twist are the ones ``self`` already checked.
        """
        tw = self.twist
        rows = []
        for row in self.entries:
            out_row = []
            for e in row:
                p = object.__new__(TwistedPoly)
                p.twist = tw
                p.terms = {a: _phase_product(q, phase, None) for a, q in e.terms.items()}
                out_row.append(p)
            rows.append(tuple(out_row))
        m = object.__new__(PolyMatrix)
        m.twist = tw
        m.entries = tuple(rows)
        m.rows, m.cols = self.rows, self.cols
        return m

    # -- views ---------------------------------------------------------

    def entry(self, i: int, j: int) -> TwistedPoly:
        return self.entries[i][j]

    def as_scalar(self) -> TwistedPoly:
        if (self.rows, self.cols) != (1, 1):
            raise ValueError("matrix is not 1x1")
        return self.entries[0][0]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            (other.twist is self.twist or other.twist == self.twist)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.twist, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(repr(e) for e in row) for row in self.entries
        )
        return f"[{body}]"
