"""Exact scalar arithmetic: Gaussian rationals and the formal phase ring.

Coefficients of twisted polynomials live in the group ring QQ(i)[F],
where F is the free abelian group generated by one unimodular unit per
strictly-upper-triangular twist slot (written q12, q13, ...) together
with a single positive real unit ``tau`` standing for 2*pi.  No numeric
relations among the units are imposed, so equality is decided by normal
form and stays valid for every (also irrational) choice of twist angles.

A :class:`Phase` is a finite sum of terms ``c * q^e * tau^t`` stored as
a mapping ``key(e, t) -> c`` with zero coefficients removed.  Conjugation
negates the q-exponents (the q units are unimodular) and fixes the tau
exponent (tau is real).

Packed keys: the key of ``(e, t)`` is one int with a 64-bit field per
exponent, slot 0 lowest and tau highest, and each field holds the
exponent plus 2^62.  Every exponent must lie in [-2^62, 2^62), so a
valid field lies in [0, 2^63) and its top bit, the guard bit, is clear.
A product adds keys, ``k1 + k2 - bias`` (``bias`` packs the zero
vector), so the q-exponents and the tau exponent all add in one integer
addition, and a shift adds an offset (a valid key less the bias).
Every key the code forms is a sum of at most three valid keys with the
extra biases taken off, or, in conjugation and inversion, has fields
``2 * 2^62 - f`` for valid fields f, or, for a commutator phase
(``algebra._commutator_shift``), is bias + (s1 - s2) for two reordering
offsets whose fields each lie in [-2^62, 2^62), so its fields lie in
(-2^62, 3 * 2^62); either way every field total lies in [-2^63,
2^64).  If all the totals lie in [0, 2^63), no field carries into the
next and the int is the packing of the exponent vector it
stands for.  Otherwise the lowest field that leaves that range receives
no carry from below and shows its guard bit (a negative top field makes
the whole int negative, whose two's-complement guard bits are set).  So
one ``key & guard`` decides exactness, and a key that fails it raises
:class:`PhaseRangeError` instead of aliasing another key.  Packing a
key from a tuple checks each exponent's range directly, and so does
``__pow__``, which checks every k*e_s and k*t before it forms
``bias + k * (key - bias)``: key - bias is the sum of e_s * 2^(64 s), so
k times it is the sum of k*e_s * 2^(64 s), and adding the bias packs that
vector exactly once every k*e_s is in range.

Lanes: every phase product is one call of ``_phase_product``, which
picks the cheapest exact way to form it.  Unit lane: each slot count has
one shared unit ``Phase.one(nslots)``, built by ``_layout`` with that
slot count's layout constants; ``coeff`` of 1, the conjugate and the
inverse of the unit, and a single-term product that comes out as 1 all
return it, and a product by it (after the slot-count check, with no
shift) returns the other operand.  This is exact because 1 is the
two-sided identity and phases are never changed after they are built.
Monomial lane: two single-term phases give the one term whose key is
the sum of the keys.  Single-term lane: a single-term phase times a
multi-term one moves every term of the other by the same key offset and
multiplies its coefficient by the same Gaussian rational, reduced as it
is written, in one pass with no accumulator.  This is exact because
k -> k + k1 (+ shift) is one-to-one, so no two output keys meet, and
QQ(i) has no zero divisors, so no output coefficient is zero: each input
term gives its own canonical output term.  Every key is still tested
against the guard bits.  Two multi-term phases run the dense kernel
``_product_terms``, which also reduces each coefficient product as it is
written: a key formed again merges by one Gaussian-rational sum, a sum
of zero drops the key, and a later product forms it afresh.  Almost
every product lands on a key of its own, so this pays one gcd per
product and no second pass.  Every formed key is tested against the
guard bits, also one whose coefficients later cancel.  ``Phase.add``
merges the same way.  Storage order is the order in which keys are
first formed, except that a key that cancels and is formed again moves
to the end; only the float summation order of ``evaluate`` reads it.
Power lane: a single-term phase raised to k is the one term c^k q^(k e)
tau^(k t), its key scaled as above, and ``QQi.__pow__`` squares
repeatedly, so the cost is about log2 |k| Gaussian-rational products, not
k of them; a result of 1 is the shared unit.  A power of a sum loops.

Coefficients are :class:`QQi` values ``(a + b*i)/d`` kept as three ints
in lowest terms, so every ring operation is integer arithmetic with at
most one gcd; ``evaluate`` stays the only numeric boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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
        # repeated squaring: at most 2 log2(k) products
        out, base = _QQI_ONE, self
        while k:
            if k & 1:
                out = base if out is _QQI_ONE else out * base
            k >>= 1
            if k:
                base = base * base
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


# -- packed keys ----------------------------------------------------------

_BITS = 64  # the width of one field
_FIELD = (1 << _BITS) - 1
_HALF = 1 << 62  # the bias of one field, and the bound of the exponent range

_RANGE = "phase exponent outside the packed range [-2^62, 2^62)"

# nslots -> (bias, guard, one): the packed zero vector, the guard bit of
# every field and the shared unit phase.  ``_layout`` fills an entry when
# the first phase over that slot count is built, so the lanes read it by
# subscript.
_LAYOUT: dict = {}


class PhaseRangeError(ValueError):
    """A phase exponent left [-2^62, 2^62), the range of a packed key field."""


def _layout(nslots: int) -> tuple:
    """The ``(bias, guard, one)`` of ``nslots``, added to the table on first use.

    A slot count that is not a plain int is checked even when found,
    since ``True`` and ``1.0`` hash like ``1``.
    """
    lay = _LAYOUT.get(nslots)
    if lay is None or type(nslots) is not int:
        if isinstance(nslots, bool) or not isinstance(nslots, int):
            raise TypeError(f"slot count must be an int, got {nslots!r}")
        if nslots < 0:
            raise ValueError(f"slot count must be non-negative, got {nslots}")
    if lay is None:
        fields = range(nslots + 1)
        bias = sum(_HALF << (_BITS * f) for f in fields)
        guard = sum(1 << (_BITS * f + _BITS - 1) for f in fields)
        lay = _LAYOUT[nslots] = (bias, guard, _canonical(nslots, {bias: _QQI_ONE}))
    return lay


def _check_exponent(x) -> int:
    """``x`` itself if it is an int exponent in [-2^62, 2^62)."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"phase exponent must be an int, got {x!r}")
    if not -_HALF <= x < _HALF:
        raise PhaseRangeError(f"{_RANGE}: {x}")
    return x


def _check_coefficient(c) -> bool:
    """Whether the phase coefficient ``c``, which must be a QQi, is nonzero."""
    if not isinstance(c, QQi):
        raise TypeError(f"phase coefficient must be a QQi, got {type(c).__name__}")
    return not c.is_zero()


def _offset(nslots: int, qexp) -> int:
    """The q-exponent vector ``qexp`` as an offset that a key adds: its
    packed key with tau 0, less the bias."""
    qexp = tuple(qexp)
    if len(qexp) != nslots:
        raise ValueError(f"q-exponent vector has length {len(qexp)}, expected {nslots}")
    return sum(_check_exponent(x) << (_BITS * s) for s, x in enumerate(qexp))


def _pack(nslots: int, key) -> int:
    """The packed key of ``(qexp, tau)``, each exponent checked."""
    try:
        qexp, tau = key
    except (TypeError, ValueError):
        raise TypeError(f"phase key must be a (q-exponents, tau) pair, got {key!r}") from None
    return _offset(nslots, qexp) + (_check_exponent(tau) << (_BITS * nslots)) + _LAYOUT[nslots][0]


def _unpack(nslots: int, k: int) -> tuple:
    """The ``(qexp, tau)`` tuple of a valid packed key."""
    qexp = tuple(((k >> (_BITS * s)) & _FIELD) - _HALF for s in range(nslots))
    return qexp, (k >> (_BITS * nslots)) - _HALF


def _product_terms(nslots: int, pairs) -> dict:
    """Canonical terms of the sum of ``s * o * q^shift`` over ``pairs``.

    ``pairs`` holds ``(s, o, shift)``: two term maps and a packed offset
    (``_offset``), or None for no shift.  A key is ``k1 + shift + k2 -
    bias``, tested against the guard bits when it is formed, so a key out
    of range raises even if its coefficients later cancel.  Each
    coefficient product is reduced as it is written (one gcd), and a key
    formed again merges by one Gaussian-rational sum (over a shared
    denominator, otherwise cross-multiplied, then one gcd); a sum of zero
    drops the key, and a later product forms it afresh.  Reducing at every
    write is exact because the canonical form of a Gaussian rational is
    unique, so the result equals the one reduced once at the end.
    """
    bias, guard, _ = _LAYOUT[nslots]
    new = object.__new__
    out: dict = {}
    get = out.get
    for s, o, shift in pairs:
        off = -bias if shift is None else shift - bias
        for k1, c1 in s.items():
            k1 += off
            a1, b1, d1 = c1.a, c1.b, c1.d
            for k2, c2 in o.items():
                key = k1 + k2
                a2, b2 = c2.a, c2.b
                a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * c2.d
                cur = get(key)
                if cur is None:
                    if key & guard:
                        raise PhaseRangeError(_RANGE)
                else:
                    e = cur.d
                    if e == d:
                        a += cur.a
                        b += cur.b
                    else:
                        a, b, d = a * e + cur.a * d, b * e + cur.b * d, d * e
                    if not (a or b):
                        del out[key]
                        continue
                g = gcd(a, b, d)
                if g != 1:
                    a, b, d = a // g, b // g, d // g
                z = new(QQi)  # _reduced inlined, as in every loop below
                z.a, z.b, z.d = a, b, d
                out[key] = z
    return out


def _scaled_terms(c1: QQi, off: int, terms: dict, guard: int) -> dict:
    """Canonical terms of ``c1 * q^off * terms`` for a key offset ``off``.

    The single-term lane: each key moves by ``off`` and is checked against
    the guard bits, and each coefficient is one Gaussian-rational product
    reduced as it is written, so no two output keys meet and no product
    is zero.
    """
    a1, b1, d1 = c1.a, c1.b, c1.d
    new = object.__new__
    out = {}
    for k, c in terms.items():
        k += off
        if k & guard:
            raise PhaseRangeError(_RANGE)
        a2, b2 = c.a, c.b
        a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * c.d
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
        z = new(QQi)
        z.a, z.b, z.d = a, b, d
        out[k] = z
    return out


def _phase_product(p: "Phase", o: "Phase", shift) -> "Phase":
    """The phase ``p * o * q^shift``; ``shift`` is a packed offset or None.

    With no shift, a product by the shared unit of the slot count (by
    identity, after the slot check) returns the other operand.  Two
    single-term phases give one term in one step: the keys add, with the
    reordering shift s(a, b) of a monomial product folded in, and the
    coefficient is one Gaussian-rational product; a result of 1 is the
    shared unit.  A single-term phase times any other moves each term of
    the other in one pass (``_scaled_terms``).  Nothing can cancel,
    because QQ(i) has no zero divisors.  Every other pair of phases runs
    the dense kernel.
    """
    nslots = p.nslots
    if o.nslots != nslots:
        raise ValueError("phase slot count mismatch")
    bias, guard, one = _LAYOUT[nslots]
    if shift is None:
        if p is one:
            return o
        if o is one:
            return p
        off = -bias
    else:
        off = shift - bias
    s, t = p.terms, o.terms
    if len(s) == 1:
        (k1, c1), = s.items()
        if len(t) != 1:
            return _canonical(nslots, _scaled_terms(c1, k1 + off, t, guard))
        (k2, c2), = t.items()
        key = k1 + k2 + off
        if key & guard:
            raise PhaseRangeError(_RANGE)
        a, b, c, f = c1.a, c1.b, c2.a, c2.b
        a, b, d = a * c - b * f, a * f + b * c, c1.d * c2.d
        if not b and a == d and key == bias:
            return one
        return _canonical(nslots, {key: _reduced(a, b, d)})
    if len(t) == 1:
        (k2, c2), = t.items()
        return _canonical(nslots, _scaled_terms(c2, k2 + off, s, guard))
    return _canonical(nslots, _product_terms(nslots, ((s, t, shift),)))


def _canonical(nslots: int, terms: dict) -> "Phase":
    """Wrap packed ``terms`` that are already canonical (no zero coefficient)."""
    p = object.__new__(Phase)
    p.nslots = nslots
    p.terms = terms
    return p


class Phase:
    """Finite formal sum ``sum c * q^e * tau^t`` over a fixed slot count.

    ``Phase(nslots, {(qexp, tau): c})`` takes ``qexp`` a tuple of
    ``nslots`` ints, ``tau`` an int, every exponent in [-2^62, 2^62), and
    ``c`` a :class:`QQi`; zero coefficients are dropped.  ``terms`` maps
    each packed key (see the module docstring) to its nonzero
    coefficient, and ``items()`` gives the ``((qexp, tau), c)`` view.  The
    canonical form (merged keys, no zero coefficients) makes ``==`` the
    ring equality.
    """

    __slots__ = ("nslots", "terms")

    def __init__(self, nslots: int, terms: dict | None = None):
        _layout(nslots)
        packed = {}
        for key, c in (terms or {}).items():
            nonzero = _check_coefficient(c)
            k = _pack(nslots, key)  # a zero term's key is checked too
            if nonzero:
                packed[k] = c
        self.nslots = nslots
        self.terms = packed

    # -- constructors ------------------------------------------------

    @classmethod
    def one(cls, nslots: int) -> "Phase":
        """The shared unit of ``nslots``: one object per slot count."""
        return _layout(nslots)[2]

    @classmethod
    def coeff(cls, nslots: int, c: QQi) -> "Phase":
        bias, _, one = _layout(nslots)
        if not _check_coefficient(c):
            return _canonical(nslots, {})
        return one if c == _QQI_ONE else _canonical(nslots, {bias: c})

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
        """The sum: a key of ``other`` already in ``self`` merges by one
        Gaussian-rational sum, reduced as it is written, and is dropped if
        the sum is zero (only a merged key can cancel)."""
        self._check(other)
        out = dict(self.terms)
        get = out.get
        for k, c in other.terms.items():
            cur = get(k)
            if cur is None:
                out[k] = c
                continue
            d, e = c.d, cur.d
            if d == e:
                a, b = c.a + cur.a, c.b + cur.b
            else:
                a, b, d = c.a * e + cur.a * d, c.b * e + cur.b * d, d * e
            if not (a or b):
                del out[k]
                continue
            g = gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
            z = object.__new__(QQi)
            z.a, z.b, z.d = a, b, d
            out[k] = z
        return _canonical(self.nslots, out)

    def sub(self, other: "Phase") -> "Phase":
        return self.add(other.neg())

    def neg(self) -> "Phase":
        return _canonical(self.nslots, {k: -c for k, c in self.terms.items()})

    def mul(self, other: "Phase") -> "Phase":
        return _phase_product(self, other, None)

    def shift(self, e) -> "Phase":
        """Multiply by the unit monomial ``q^e``: add ``e`` to every q-exponent."""
        return self._shifted(_offset(self.nslots, e))

    def _shifted(self, off: int) -> "Phase":
        """Multiply by the unit monomial whose packed offset is ``off``."""
        guard = _LAYOUT[self.nslots][1]
        out = {}
        for k, c in self.terms.items():
            k += off
            if k & guard:
                raise PhaseRangeError(_RANGE)
            out[k] = c
        return _canonical(self.nslots, out)

    def conjugate(self) -> "Phase":
        # q units are unimodular (exponent flips); tau is real (exponent kept):
        # each q field f becomes 2*2^62 - f, and the tau field stays
        n = self.nslots
        bias, guard, one = _LAYOUT[n]
        if self is one:
            return one
        low = (1 << (_BITS * n)) - 1
        flip = 2 * (bias & low)
        out = {}
        for k, c in self.terms.items():
            q = k & low
            k += flip - q - q
            if k & guard:
                raise PhaseRangeError(_RANGE)
            out[k] = _qqi(c.a, -c.b, c.d)
        return _canonical(n, out)

    def invert(self) -> "Phase":
        """Inverse of a single-term phase; general sums are not units."""
        if len(self.terms) != 1:
            raise ValueError("only monomial phases are invertible")
        bias, guard, one = _LAYOUT[self.nslots]
        if self is one:
            return one
        (k, c), = self.terms.items()
        k = 2 * bias - k  # every field f becomes 2*2^62 - f
        if k & guard:
            raise PhaseRangeError(_RANGE)
        return _canonical(self.nslots, {k: c.inverse()})

    def __pow__(self, k: int) -> "Phase":
        if k < 0:
            return self.invert() ** (-k)
        if len(self.terms) == 1:
            # one-term lane: every k*e is checked before any arithmetic, so
            # the scaled key packs k*e exactly (module docstring, Lanes)
            ((e, t), c), = self.items()
            for x in e + (t,):
                _check_exponent(x * k)
            bias, _, one = _LAYOUT[self.nslots]
            (key,) = self.terms
            key = bias + k * (key - bias)
            c = c**k
            if key == bias and c == _QQI_ONE:
                return one
            return _canonical(self.nslots, {key: c})
        out = Phase.one(self.nslots)
        for _ in range(k):
            out = out.mul(self)
        return out

    # -- predicates and conversion -----------------------------------

    def items(self):
        """The terms as ``((qexp, tau), c)`` pairs, in storage order."""
        n = self.nslots
        for k, c in self.terms.items():
            yield _unpack(n, k), c

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        bias, _, one = _LAYOUT[self.nslots]
        if self is one:
            return True
        t = self.terms
        return len(t) == 1 and t.get(bias) == _QQI_ONE

    def __eq__(self, other) -> bool:
        if not isinstance(other, Phase):
            return NotImplemented
        return self.nslots == other.nslots and self.terms == other.terms

    def __hash__(self):
        return hash((self.nslots, frozenset(self.terms.items())))

    def evaluate(self, unit_values, tau_value: float) -> complex:
        """Substitute numeric values for the q units and tau."""
        total = 0j
        for (e, t), c in self.items():
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
        # by the (qexp, tau) tuple: packed-int order compares tau first
        for (e, t), c in sorted(self.items()):
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
