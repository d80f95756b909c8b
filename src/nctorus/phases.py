"""Exact scalar arithmetic: Gaussian rationals and the formal phase ring.

Coefficients of twisted polynomials live in the group ring QQ(i)[F],
where F is the free abelian group generated by one unimodular unit per
strictly-upper-triangular twist slot (written q12, q13, ...) together
with a single positive real unit ``tau`` standing for 2*pi.  No numeric
relations among the units are imposed, so equality is decided by normal
form and stays valid for every (also irrational) choice of twist angles.

A :class:`Phase` is a finite sum of terms ``c * q^e * tau^t`` stored as
a mapping ``(e, t) -> c`` with zero coefficients removed.  Conjugation
negates the q-exponents (the q units are unimodular) and fixes the tau
exponent (tau is real).

Coefficients are :class:`QQi` values ``(a + b*i)/d`` kept as three ints
in lowest terms, so every ring operation is integer arithmetic with at
most one gcd; ``evaluate`` stays the only numeric boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add


class QQi:
    """Gaussian rational ``(a + b*i)/d`` stored as three ints.

    The form is canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so zero is
    ``(0, 0, 1)`` and ``==``/``hash`` compare the ``(a, b, d)`` tuple.  A
    product is four integer products, ``d*d'`` and one gcd; a sum over a
    shared denominator needs no product at all.

    ``QQi(re, im)`` takes the real and imaginary parts as ints, Fractions or
    rational strings; the read-only ``re`` and ``im`` give them back as
    Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        # both parts are in lowest terms, so over the lcm gcd(a, b, d) = 1
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @classmethod
    def zero(cls) -> "QQi":
        return _QQI_ZERO

    @classmethod
    def one(cls) -> "QQi":
        return _QQI_ONE

    def __add__(self, other: "QQi") -> "QQi":
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other: "QQi") -> "QQi":
        return self + -other

    def __neg__(self) -> "QQi":
        return _qqi(-self.a, -self.b, self.d)

    def __mul__(self, other: "QQi") -> "QQi":
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    def __pow__(self, k: int) -> "QQi":
        if k < 0:
            return self.inverse() ** (-k)
        out = _QQI_ONE
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self) -> "QQi":
        return _qqi(self.a, -self.b, self.d)

    def inverse(self) -> "QQi":
        # d/(a + b*i) = (a*d - b*d*i)/(a^2 + b^2), and the norm is positive
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _reduced(a * d, -b * d, n)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, QQi):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def evaluate(self) -> complex:
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self) -> str:
        def imag(mag: Fraction) -> str:
            if mag == 1:
                return "i"
            if mag.denominator == 1:
                return f"{mag}i"
            return f"({mag})i"

        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return ("-" if im < 0 else "") + imag(abs(im))
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{imag(abs(im))})"


def _qqi(a: int, b: int, d: int) -> QQi:
    """Wrap ``(a + b*i)/d`` that is already canonical."""
    z = object.__new__(QQi)
    z.a, z.b, z.d = a, b, d
    return z


def _reduced(a: int, b: int, d: int) -> QQi:
    """The canonical form of ``(a + b*i)/d`` for ``d > 0``."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    z = object.__new__(QQi)  # _qqi inlined: this is the hot path
    z.a, z.b, z.d = a, b, d
    return z


_QQI_ZERO = _qqi(0, 0, 1)
_QQI_ONE = _qqi(1, 0, 1)
_QQI_I = _qqi(0, 1, 1)


def _clean(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if not c.is_zero()}


def _product_terms(pairs) -> dict:
    """Canonical terms of the sum of ``s * o * q^shift`` over ``pairs``.

    ``pairs`` holds ``(s, o, shift)``: two term maps and a q-exponent
    vector, or None for no shift.  Each output key accumulates unreduced
    ``(a, b, d)`` ints (numerators add over a shared denominator,
    otherwise cross-multiply) and becomes one QQi with one gcd at the
    end; keys that sum to exactly zero are dropped.  Reducing once is
    exact because the canonical form of a Gaussian rational is unique.
    """
    acc: dict = {}
    get = acc.get
    for s, o, shift in pairs:
        for (e1, t1), c1 in s.items():
            if shift is not None:
                e1 = tuple(map(add, e1, shift))
            a1, b1, d1 = c1.a, c1.b, c1.d
            for (e2, t2), c2 in o.items():
                key = (tuple(map(add, e1, e2)), t1 + t2)
                a2, b2 = c2.a, c2.b
                a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * c2.d
                cur = get(key)
                if cur is None:
                    acc[key] = [a, b, d]
                elif cur[2] == d:
                    cur[0] += a
                    cur[1] += b
                else:
                    e = cur[2]
                    cur[0] = cur[0] * d + a * e
                    cur[1] = cur[1] * d + b * e
                    cur[2] = e * d
    return {k: _reduced(a, b, d) for k, (a, b, d) in acc.items() if a or b}


def _phase_product(p: "Phase", o: "Phase", shift) -> "Phase":
    """The phase ``p * o * q^shift``; ``shift`` is a q-exponent vector or None.

    Two single-term phases give one term in one step: the keys add, with
    the reordering shift s(a, b) of a monomial product folded in, and the
    coefficient is one Gaussian-rational product.  Nothing can cancel,
    because QQ(i) has no zero divisors.  Every other pair of phases runs
    the dense kernel.
    """
    nslots = p.nslots
    if o.nslots != nslots:
        raise ValueError("phase slot count mismatch")
    s, t = p.terms, o.terms
    if len(s) == 1 and len(t) == 1:
        ((e1, t1), c1), = s.items()
        ((e2, t2), c2), = t.items()
        e = map(add, e1, e2)
        key = (tuple(e if shift is None else map(add, e, shift)), t1 + t2)
        a, b, c, f = c1.a, c1.b, c2.a, c2.b
        return _canonical(nslots, {key: _reduced(a * c - b * f, a * f + b * c, c1.d * c2.d)})
    return _canonical(nslots, _product_terms(((s, t, shift),)))


def _canonical(nslots: int, terms: dict) -> "Phase":
    """Wrap ``terms`` that are already canonical (no zero coefficient)."""
    p = object.__new__(Phase)
    p.nslots = nslots
    p.terms = terms
    return p


class Phase:
    """Finite formal sum ``sum c * q^e * tau^t`` over a fixed slot count.

    ``terms`` maps ``(qexp, tau)`` with ``qexp`` a tuple of length
    ``nslots`` to a nonzero :class:`QQi`.  The canonical form (merged
    keys, no zero coefficients) makes ``==`` the ring equality.
    """

    __slots__ = ("nslots", "terms")

    def __init__(self, nslots: int, terms: dict | None = None):
        self.nslots = nslots
        self.terms = _clean(terms) if terms else {}

    # -- constructors ------------------------------------------------

    @classmethod
    def one(cls, nslots: int) -> "Phase":
        return cls.coeff(nslots, _QQI_ONE)

    @classmethod
    def coeff(cls, nslots: int, c: QQi) -> "Phase":
        key = ((0,) * nslots, 0)
        return cls(nslots, {key: c})

    @classmethod
    def unit(cls, nslots: int, slot: int, power: int = 1, c: QQi = _QQI_ONE) -> "Phase":
        e = [0] * nslots
        e[slot] = power
        return cls(nslots, {(tuple(e), 0): c})

    @classmethod
    def tau(cls, nslots: int, power: int = 1, c: QQi = _QQI_ONE) -> "Phase":
        return cls(nslots, {((0,) * nslots, power): c})

    @classmethod
    def two_pi_i(cls, nslots: int) -> "Phase":
        """The formal scalar 2*pi*i, kept exact as i * tau."""
        return cls.tau(nslots, 1, _QQI_I)

    # -- ring operations ---------------------------------------------

    def _check(self, other: "Phase"):
        if self.nslots != other.nslots:
            raise ValueError("phase slot count mismatch")

    def add(self, other: "Phase") -> "Phase":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc = out.get(k)
            if acc is None:
                out[k] = c
            else:
                # only a merged key can cancel to zero
                s = acc + c
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
        return _canonical(self.nslots, out)

    def sub(self, other: "Phase") -> "Phase":
        return self.add(other.neg())

    def neg(self) -> "Phase":
        return Phase(self.nslots, {k: -c for k, c in self.terms.items()})

    def mul(self, other: "Phase") -> "Phase":
        return _phase_product(self, other, None)

    def shift(self, e) -> "Phase":
        """Multiply by the unit monomial ``q^e``: add ``e`` to every q-exponent."""
        return _canonical(
            self.nslots,
            {(tuple(map(add, k, e)), t): c for (k, t), c in self.terms.items()},
        )

    def conjugate(self) -> "Phase":
        # q units are unimodular (exponent flips); tau is real (exponent kept)
        return Phase(
            self.nslots,
            {(tuple(-x for x in e), t): c.conjugate() for (e, t), c in self.terms.items()},
        )

    def invert(self) -> "Phase":
        """Inverse of a single-term phase; general sums are not units."""
        if len(self.terms) != 1:
            raise ValueError("only monomial phases are invertible")
        ((e, t), c), = self.terms.items()
        return Phase(self.nslots, {(tuple(-x for x in e), -t): c.inverse()})

    def __pow__(self, k: int) -> "Phase":
        if k < 0:
            return self.invert() ** (-k)
        if len(self.terms) == 1:
            ((e, t), c), = self.terms.items()
            return Phase(self.nslots, {(tuple(x * k for x in e), t * k): c**k})
        out = Phase.one(self.nslots)
        for _ in range(k):
            out = out.mul(self)
        return out

    # -- predicates and conversion -----------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        key = ((0,) * self.nslots, 0)
        return len(self.terms) == 1 and self.terms.get(key) == _QQI_ONE

    def __eq__(self, other) -> bool:
        if not isinstance(other, Phase):
            return NotImplemented
        return self.nslots == other.nslots and self.terms == other.terms

    def __hash__(self):
        return hash((self.nslots, frozenset(self.terms.items())))

    def evaluate(self, unit_values, tau_value: float) -> complex:
        """Substitute numeric values for the q units and tau."""
        total = 0j
        for (e, t), c in self.terms.items():
            val = c.evaluate()
            for s, p in enumerate(e):
                if p:
                    val *= unit_values[s] ** p
            if t:
                val *= tau_value**t
            total += val
        return total

    def render(self, slot_names) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (e, t), c in sorted(self.terms.items()):
            factors = []
            for s, p in enumerate(e):
                if p == 1:
                    factors.append(slot_names[s])
                elif p:
                    factors.append(f"{slot_names[s]}^{p}")
            if t == 1:
                factors.append("tau")
            elif t:
                factors.append(f"tau^{t}")
            cs = repr(c)
            if factors:
                body = "*".join(factors)
                if cs == "1":
                    parts.append(body)
                elif cs == "-1":
                    parts.append(f"-{body}")
                else:
                    parts.append(f"{cs}*{body}")
            else:
                parts.append(cs)
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self) -> str:
        return self.render([f"q{s}" for s in range(self.nslots)])
