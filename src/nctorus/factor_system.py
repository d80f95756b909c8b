"""Factor systems for torus actions: construction, transport, verification.

A factor system packages, for each character sigma of the acting torus,
a coaction-like morphism gamma_sigma of the fixed algebra B0 (valued in
d_sigma x d_sigma matrices over B0) and, for each pair of characters, a
cocycle matrix omega(sigma, pi).  For a cleft action both are computed
from the unitary weight monomials s(sigma):

    gamma_sigma(b) = s(sigma) b s(sigma)*          (conjugation)
    omega(sigma, pi) = s(sigma) s(pi) s(sigma+pi)*

Isotypic data of weights sigma and pi multiply through the factor
system as :func:`twisted_product`,

    (x ox 1) gamma_sigma(y) omega(sigma, pi),

the one place that product is spelled out.  Every character-indexed
value (gamma, omega, isometries s, witnesses v, derivation-lift families
H, and the cocycle values u and twistings Delta of the cohomology
module) lives in a :class:`CharacterFamily`: computed on first use,
validated by the family's ``_check`` and only then cached, so a value
that fails its check is never stored.

:class:`MatrixMorphism` is the one morphism class: a unital morphism
B0 -> Mat_d(B0) given by its unit, a projection such as gamma_sigma(1) =
s(sigma) s(sigma)*, and its generator images, all checked by the
constructor and read off any map by ``from_map``; the relation and
*-checks are written once for d x d images.  :class:`AlgebraMorphism`,
a morphism of B0 itself, is its d = 1 case.  Each morphism caches, in
place, its generator powers and the monomial images gamma(u^a) of every
fixed-algebra monomial it is applied to; ``apply`` scales the cached
images by the phase coefficients.  The cache is bounded by the distinct
monomials applied: in the verifiers, the character box times the degree.

Lift lane: ``apply`` scales each cached image by its term's phase
through ``PolyMatrix.scaled``, so a single-term argument gives back the
cached image itself, or one scaled copy, with no sum.  ``scaled``
builds the entries directly and needs no zero filter: a nonzero phase
times a nonzero term cannot vanish (QQ(i)[F] has no zero divisors), and
the twist was checked when the image was built.  An
:class:`IsometryFamily` keeps the s(sigma)* that its isometry check
forms, stored only once the column passes, so gamma_sigma, omega, the
cocycle values and the lifts stop recomputing adjoints.

All verifiers in this module check their laws exactly (structural
equality of canonical forms) over a finite character box and a finite
set of fixed-algebra monomials; that suffices because every law is
multiplicative and linear in the algebra argument.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from .algebra import PolyMatrix, TwistedPoly, TwistMismatchError, exchange_phase
from .dynamics import (
    Character,
    GradedElement,
    TorusAction,
    base_monomials,
    char_add,
    char_zero,
    cleft_generator,
    grade,
    in_base_algebra,
    is_equivariant,
    matrix_in_base_algebra,
    resolve_chars,
)
from .report import CheckReport, Law, LawGroup, sweep


class ScopeError(ValueError):
    """Element lies outside the algebra a morphism is defined on."""


# ---------------------------------------------------------------------------
# morphisms of the fixed algebra
# ---------------------------------------------------------------------------


def _on_generators(action: TorusAction, f: Callable) -> tuple[dict, dict]:
    """``f`` at u_k and at u_k^-1 for every non-acting generator k."""
    tw = action.twist
    return (
        {k: f(TwistedPoly.generator(tw, k)) for k in action.base},
        {k: f(TwistedPoly.generator(tw, k, -1)) for k in action.base},
    )


class MatrixMorphism:
    """Unital morphism B0 -> Mat_d(B0) given by its unit and generator images.

    ``unit`` is the d x d image of 1, a projection that need not be I_d;
    ``images[k]`` and ``inv_images[k]`` are the images of u_k and u_k^-1
    for every non-acting generator k.  The map extends to B0
    multiplicatively and linearly (formal phase coefficients are fixed
    pointwise): the image of u^a != 1 is the product of the generator
    powers in base order, as g(1) g(u) = g(u).  Each monomial image is
    computed once and cached per instance; ``apply`` scales the cached
    images by the phase coefficients.  :class:`AlgebraMorphism` is the
    d = 1 case.
    """

    __slots__ = ("action", "dim", "images", "inv_images", "_unit", "_powers", "_monomials")

    def __init__(self, action: TorusAction, unit: PolyMatrix, images: dict, inv_images: dict):
        tw = action.twist
        missing = [k for k in action.base if k not in images or k not in inv_images]
        if missing:
            names = ", ".join(tw.gen_name(k) for k in missing)
            raise ValueError(f"missing generator images for {names}")
        named = [("1", unit)]
        for k in action.base:
            named += [(tw.gen_name(k), images[k]), (f"{tw.gen_name(k)}^-1", inv_images[k])]
        for name, m in named:
            if not matrix_in_base_algebra(action, m):
                raise ScopeError(f"image of {name} leaves the fixed algebra")
        self.action = action
        self.dim = unit.rows
        self.images = dict(images)
        self.inv_images = dict(inv_images)
        self._unit = unit
        self._powers: dict = {}
        self._monomials: dict = {(0,) * tw.n: unit}

    @staticmethod
    def from_map(action: TorusAction, f: Callable) -> "MatrixMorphism":
        """The morphism that agrees with ``f`` on 1 and on every u_k^+-1."""
        return MatrixMorphism(action, f(TwistedPoly.one(action.twist)), *_on_generators(action, f))

    def _power(self, k: int, m: int) -> PolyMatrix:
        cached = self._powers.get((k, m))
        if cached is not None:
            return cached
        base = self.images[k] if m > 0 else self.inv_images[k]
        out = base
        for _ in range(abs(m) - 1):
            out = out * base
        self._powers[(k, m)] = out
        return out

    def _monomial(self, a: tuple) -> PolyMatrix:
        """The image of u^a; an exponent off the fixed algebra is never cached."""
        cached = self._monomials.get(a)
        if cached is not None:
            return cached
        for j in self.action.coords:
            if a[j] != 0:
                raise ScopeError("morphism applied outside the fixed algebra")
        out = None
        for k in self.action.base:
            if a[k]:
                power = self._power(k, a[k])
                out = power if out is None else out * power
        self._monomials[a] = out
        return out

    def apply(self, x: TwistedPoly) -> PolyMatrix:
        tw = self.action.twist
        if x.twist is not tw and x.twist != tw:
            raise TwistMismatchError("argument over a different twist matrix")
        total = None
        for a, phase in x.terms.items():
            term = self._monomial(a)
            if not phase.is_one():
                term = term.scaled(phase)
            total = term if total is None else total + term
        if total is None:
            return PolyMatrix.zeros(tw, self.dim, self.dim)
        return total

    def apply_to_matrix(self, m: PolyMatrix) -> PolyMatrix:
        """Entrywise application; the morphism indexes the outer tensor leg.

        Result[(s1*m.rows + r), (s2*m.cols + c)] = apply(m[r, c])[s1, s2].
        A 1 x 1 input is one block, which the assembly gives back unchanged.
        """
        if m.rows == m.cols == 1:
            return MatrixMorphism.apply(self, m.entries[0][0])
        d = self.dim
        blocks = [
            [MatrixMorphism.apply(self, m.entries[r][c]) for c in range(m.cols)]
            for r in range(m.rows)
        ]
        rows = [
            [blocks[r][c].entries[s1][s2] for s2 in range(d) for c in range(m.cols)]
            for s1 in range(d)
            for r in range(m.rows)
        ]
        return PolyMatrix(self.action.twist, rows)

    def unit(self) -> PolyMatrix:
        return self._unit

    def respects_relations(self) -> bool:
        """Generator images satisfy the exchange relations and invert to the unit."""
        tw = self.action.twist
        unit = self.unit()
        for i, k in enumerate(self.action.base):
            for l in self.action.base[i + 1 :]:
                lam = exchange_phase(tw, k, l)
                lhs = self.images[k] * self.images[l]
                rhs = (self.images[l] * self.images[k]).scaled(lam)
                if lhs != rhs:
                    return False
            if self.images[k] * self.inv_images[k] != unit:
                return False
        return True

    def is_star_morphism(self) -> bool:
        return all(self.inv_images[k] == self.images[k].adjoint() for k in self.action.base)

    def equals_on_generators(self, other: "MatrixMorphism") -> bool:
        """Same images of every u_k and of every u_k^-1."""
        return all(
            self.images[k] == other.images[k] and self.inv_images[k] == other.inv_images[k]
            for k in self.action.base
        )


class AlgebraMorphism(MatrixMorphism):
    """Unital *-algebra morphism of B0: the d = 1 case of :class:`MatrixMorphism`.

    Takes the generator images as polynomials (``inv_images`` defaults
    to the monomial inverses) and stores them as 1 x 1 matrices with
    unit 1; ``apply`` returns polynomials.
    """

    __slots__ = ()

    def __init__(self, action: TorusAction, images: dict, inv_images: dict | None = None):
        if inv_images is None:
            inv_images = {k: img.inverse_monomial() for k, img in images.items()}
        super().__init__(
            action,
            PolyMatrix.identity(action.twist, 1),
            {k: PolyMatrix.from_scalar(v) for k, v in images.items()},
            {k: PolyMatrix.from_scalar(v) for k, v in inv_images.items()},
        )

    @classmethod
    def identity(cls, action: TorusAction) -> "AlgebraMorphism":
        return cls(action, *_on_generators(action, lambda x: x))

    def apply(self, x: TwistedPoly) -> TwistedPoly:
        return MatrixMorphism.apply(self, x).as_scalar()

    def compose(self, other: "AlgebraMorphism") -> "AlgebraMorphism":
        """self after other."""
        return AlgebraMorphism(
            self.action, *_on_generators(self.action, lambda x: self.apply(other.apply(x)))
        )


class Automorphism:
    """Invertible *-morphism of B0: a forward and a verified inverse leg.

    An automorphism is an immutable value, so ``apply_automorphism`` keeps
    its last result on it (``_transport``).
    """

    __slots__ = ("fwd", "inv", "_transport")

    def __init__(self, fwd: AlgebraMorphism, inv: AlgebraMorphism, check: bool = True):
        self.fwd = fwd
        self.inv = inv
        self._transport = None  # (fs, fs transported along self) of the last apply_automorphism
        if check:
            ident = AlgebraMorphism.identity(fwd.action)
            for a, b in ((fwd, inv), (inv, fwd)):
                if not a.compose(b).equals_on_generators(ident):
                    raise ValueError("inverse images do not invert the morphism")
            for leg in (fwd, inv):
                if not leg.respects_relations():
                    raise ValueError("automorphism violates the defining relations")
                if not leg.is_star_morphism():
                    raise ValueError("automorphism is not a *-morphism")

    @classmethod
    def identity(cls, action: TorusAction) -> "Automorphism":
        ident = AlgebraMorphism.identity(action)
        return cls(ident, ident, check=False)

    @classmethod
    def diagonal(cls, action: TorusAction, weights: dict) -> "Automorphism":
        """Gauge automorphism u_k -> w_k u_k for unimodular phases w_k."""
        tw = action.twist
        fwd, back = {}, {}
        for k in action.base:
            gen, w = TwistedPoly.generator(tw, k), weights.get(k)
            fwd[k] = gen if w is None else gen.scale(w)
            back[k] = gen if w is None else gen.scale(w.invert())
        return cls(AlgebraMorphism(action, fwd), AlgebraMorphism(action, back))

    @classmethod
    def inner(cls, action: TorusAction, a: TwistedPoly) -> "Automorphism":
        """Conjugation by an invertible monomial a of the fixed algebra."""
        if not in_base_algebra(action, a):
            raise ScopeError("conjugating element must lie in the fixed algebra")
        a_inv = a.inverse_monomial()

        def leg(u, u_inv):
            return AlgebraMorphism(action, *_on_generators(action, lambda x: u * x * u_inv))

        return cls(leg(a, a_inv), leg(a_inv, a))

    def apply(self, x: TwistedPoly) -> TwistedPoly:
        return self.fwd.apply(x)

    def apply_matrix(self, m: PolyMatrix) -> PolyMatrix:
        return self.fwd.apply_to_matrix(m)

    def inverse(self) -> "Automorphism":
        return Automorphism(self.inv, self.fwd, check=False)

    def compose(self, other: "Automorphism") -> "Automorphism":
        return Automorphism(
            self.fwd.compose(other.fwd), other.inv.compose(self.inv), check=False
        )


# ---------------------------------------------------------------------------
# character-indexed families
# ---------------------------------------------------------------------------


class CharacterFamily:
    """Lazily computed, validated and cached values keyed by characters.

    A key is a character, ``family(char)``, or a pair of characters,
    ``family(sigma, pi)``; the generating function takes the same
    arguments.  A value is computed once, passed to ``_check`` (the base
    accepts every value) and only then cached, so a failing value is
    never stored and fails again on the next call.
    """

    __slots__ = ("action", "_fn", "_cache")

    def __init__(self, action: TorusAction, fn: Callable):
        self.action = action
        self._fn = fn
        self._cache: dict = {}

    @classmethod
    def from_scalars(cls, action: TorusAction, fn: Callable[[Character], TwistedPoly]):
        return cls(action, lambda char: PolyMatrix.from_scalar(fn(char)))

    def _check(self, key, value) -> None:
        """Raise if ``value`` is not a valid value at ``key``."""

    def __call__(self, char: Character, pi_: Character | None = None):
        key = tuple(char) if pi_ is None else (tuple(char), tuple(pi_))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        value = self._fn(key) if pi_ is None else self._fn(*key)
        self._check(key, value)
        self._cache[key] = value
        return value


class IsometryFamily(CharacterFamily):
    """Family of equivariant isometry columns s(sigma) over the full algebra.

    ``adjoint(char)`` serves the s(char)* that the isometry check forms,
    stored only after the last check passes, so a column that fails its
    check leaves no adjoint behind either.
    """

    __slots__ = ("_adjoints",)

    def __init__(self, action: TorusAction, fn: Callable):
        super().__init__(action, fn)
        self._adjoints: dict = {}

    def adjoint(self, char: Character) -> PolyMatrix:
        """s(char)*, computed once per character."""
        key = tuple(char)
        cached = self._adjoints.get(key)
        if cached is None:
            self(char)
            cached = self._adjoints[key]
        return cached

    @classmethod
    def from_cleft_generators(cls, action: TorusAction) -> "IsometryFamily":
        def fn(char: Character) -> PolyMatrix:
            return PolyMatrix.from_scalar(cleft_generator(action, char))

        return cls(action, fn)

    def _check(self, char: Character, m: PolyMatrix) -> None:
        for row in m.entries:
            for e in row:
                if not is_equivariant(self.action, e, char):
                    raise ValueError(f"isometry entry at {char} is not equivariant")
        one = PolyMatrix.identity(self.action.twist, 1)
        adj = m.adjoint()
        # s* s = 1 makes Ad s(sigma) a unital *-morphism onto its range projection
        if adj * m != one:
            raise ValueError(f"isometry column at {char} is not an isometry: s* s != 1")
        if char == char_zero(self.action.d) and m != one:
            raise ValueError("isometry family must send the trivial character to 1")
        self._adjoints[tuple(char)] = adj


class PartialIsometryFamily(CharacterFamily):
    """Family of matrices over B0 used as conjugacy witnesses, v(0) = 1."""

    __slots__ = ()

    @classmethod
    def units(cls, fs: "FactorSystem") -> "PartialIsometryFamily":
        """v(sigma) = gamma_sigma(1): the witness of the identity automorphism."""
        return cls(fs.action, lambda char: fs.gamma(char).unit())

    def sized(self, char: Character, rows: int, cols: int) -> PolyMatrix:
        """v(char), which must be rows x cols: d'_char x d_char between two systems."""
        m = self(char)
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError(
                f"witness at {tuple(char)} is {m.rows}x{m.cols}, "
                f"but that character needs {rows}x{cols}"
            )
        return m

    def _check(self, char: Character, m: PolyMatrix) -> None:
        if not matrix_in_base_algebra(self.action, m):
            raise ScopeError(f"witness at {char} leaves the fixed algebra")
        if char == char_zero(self.action.d):
            if m.rows != m.cols or m != PolyMatrix.identity(self.action.twist, m.rows):
                raise ValueError("witness family must send the trivial character to 1")


# ---------------------------------------------------------------------------
# the factor system itself
# ---------------------------------------------------------------------------


class FactorSystem:
    """Character-indexed (gamma, omega) data over a torus action.

    gamma and omega are :class:`CharacterFamily` values; d_sigma is the
    size of gamma_sigma.  Instances are immutable: an omega override (a
    defect injected for verifier testing) derives a system that reads
    every other value, and every gamma_sigma, from its parent.
    """

    def __init__(
        self,
        action: TorusAction,
        gamma_fn: Callable[[Character], MatrixMorphism],
        omega_fn: Callable[[Character, Character], PolyMatrix],
        isometries: IsometryFamily | None = None,
    ):
        self.action = action
        self.isometries = isometries
        self._gamma = CharacterFamily(action, gamma_fn)
        self._omega = CharacterFamily(action, omega_fn)

    def dim(self, char: Character) -> int:
        return self.gamma(char).dim

    def gamma(self, char: Character) -> MatrixMorphism:
        return self._gamma(char)

    def omega(self, sigma: Character, pi_: Character) -> PolyMatrix:
        return self._omega(sigma, pi_)

    def with_omega_override(self, sigma, pi_, value: PolyMatrix) -> "FactorSystem":
        key = (tuple(sigma), tuple(pi_))

        def omega_fn(s: Character, p: Character) -> PolyMatrix:
            return value if (s, p) == key else self.omega(s, p)

        return FactorSystem(self.action, self.gamma, omega_fn, self.isometries)


def from_cleft(action: TorusAction, s: IsometryFamily | None = None) -> FactorSystem:
    """Factor system of a cleft action from its equivariant isometries.

    The isometry family checks s(sigma)* s(sigma) = 1, so every
    gamma_sigma = Ad s(sigma) is a unital *-morphism with unit
    s(sigma) s(sigma)*.
    """
    if s is None:
        s = IsometryFamily.from_cleft_generators(action)

    def gamma_fn(char: Character) -> MatrixMorphism:
        sm = s(char)
        sa = s.adjoint(char)
        return MatrixMorphism.from_map(action, lambda x: sm * PolyMatrix.from_scalar(x) * sa)

    def omega_fn(sigma: Character, pi_: Character) -> PolyMatrix:
        m = s(sigma).kron(s(pi_)) * s.adjoint(char_add(sigma, pi_))
        if not matrix_in_base_algebra(action, m):
            raise ScopeError(f"cocycle value at {(sigma, pi_)} leaves the fixed algebra")
        return m

    return FactorSystem(action, gamma_fn, omega_fn, isometries=s)


def apply_automorphism(fs: FactorSystem, phi: Automorphism) -> FactorSystem:
    """Transport the factor system along an automorphism of the fixed algebra.

    The new coaction is phi . gamma_sigma . phi^-1 and the new cocycle is
    phi applied entrywise to omega.  ``phi`` keeps the last result together
    with ``fs``, so transporting the same system again gives back the same
    system, gamma and omega caches and all.  The system is compared by
    identity, which is exact because a factor system never changes after
    it is built; any other ``fs`` replaces the memo.  The transported
    system reads phi's two legs, not phi, so the memo makes no reference
    cycle and the system is freed with phi.
    """
    memo = phi._transport
    if memo is not None and memo[0] is fs:
        return memo[1]
    action = fs.action
    fwd, inv = phi.fwd, phi.inv

    def gamma_fn(char: Character) -> MatrixMorphism:
        g = fs.gamma(char)
        return MatrixMorphism.from_map(
            action, lambda x: fwd.apply_to_matrix(g.apply(inv.apply(x)))
        )

    def omega_fn(sigma: Character, pi_: Character) -> PolyMatrix:
        return fwd.apply_to_matrix(fs.omega(sigma, pi_))

    transported = FactorSystem(action, gamma_fn, omega_fn)
    phi._transport = (fs, transported)
    return transported


def twisted_product(
    fs: FactorSystem, sigma: Character, x: PolyMatrix, pi_: Character, y: PolyMatrix
) -> PolyMatrix:
    """(x ox 1_{y.rows}) gamma_sigma(y) omega(sigma, pi).

    The product of isotypic data of weights sigma and pi: rows over B0
    for :func:`isotypic_mul`, witness or gauge values for the conjugacy
    and intertwining laws.
    """
    return x.ampliate(y.rows) * fs.gamma(sigma).apply_to_matrix(y) * fs.omega(sigma, pi_)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def verify_axioms(fs: FactorSystem, char_range=3, gen_degree: int = 2) -> CheckReport:
    """Exact check of the coaction/cocycle laws over a finite box.

    Laws checked for all characters sigma, pi, rho in the box and all
    fixed-algebra monomials b up to gen_degree:

      omega* omega = gamma_{sigma+pi}(1)
      omega omega* = gamma_sigma(gamma_pi(1))
      omega(sigma,pi) gamma_{sigma+pi}(b) = gamma_sigma(gamma_pi(b)) omega(sigma,pi)
      (omega(sigma,pi) ox 1) omega(sigma+pi,rho)
          = gamma_sigma(omega(pi,rho)) omega(sigma,pi+rho)

    plus the normalizations gamma_0 = id and omega(0,.) = gamma(1) = omega(.,0).
    """
    action = fs.action
    tw = action.twist
    zero = char_zero(action.d)

    def generator_row(k: int) -> Law:
        u = TwistedPoly.generator(tw, k)
        return Law(
            "normalization gamma_0 = id",
            lambda g0: (g0.apply(u), PolyMatrix.from_scalar(u)),
            {"generator": tw.gen_name(k)},
        )

    def per_pair(sigma, pi_):
        om = fs.omega(sigma, pi_)
        return fs.gamma(sigma), fs.gamma(pi_), om, om.adjoint(), fs.gamma(char_add(sigma, pi_))

    def cocycle_pair(sigma, pi_):
        return sigma, pi_, fs.gamma(sigma), fs.omega(sigma, pi_), char_add(sigma, pi_)

    def cocycle_identity(sigma, pi_, gs, om_sp, sp, rho):
        lhs = om_sp.ampliate(fs.dim(rho)) * fs.omega(sp, rho)
        rhs = gs.apply_to_matrix(fs.omega(pi_, rho)) * fs.omega(sigma, char_add(pi_, rho))
        return lhs, rhs

    groups = (
        LawGroup(0, lambda: (fs.gamma(zero),), tuple(generator_row(k) for k in action.base)),
        LawGroup(1, lambda sigma: (sigma, fs.gamma(sigma).unit()), (
            Law("normalization omega(0, sigma) = gamma_sigma(1)",
                lambda sigma, unit: (fs.omega(zero, sigma), unit)),
            Law("normalization omega(sigma, 0) = gamma_sigma(1)",
                lambda sigma, unit: (fs.omega(sigma, zero), unit)),
        )),
        LawGroup(2, per_pair, (
            Law("range projection omega* omega = gamma_{sigma+pi}(1)",
                lambda gs, gp, om, oma, gsp: (oma * om, gsp.unit())),
            Law("range projection omega omega* = gamma_sigma(gamma_pi(1))",
                lambda gs, gp, om, oma, gsp: (om * oma, gs.apply_to_matrix(gp.unit()))),
        ), (
            Law("coaction intertwining",
                lambda gs, gp, om, oma, gsp, b: (
                    om * gsp.apply(b), gs.apply_to_matrix(gp.apply(b)) * om)),
        )),
        LawGroup(3, cocycle_pair, (), (Law("cocycle identity", cocycle_identity),)),
    )
    return sweep("factor-system-axioms", groups, resolve_chars(action, char_range),
                 base_monomials(action, gen_degree))


def _intertwines_cocycles(fs: FactorSystem, fs2: FactorSystem, v, sigma, pi_):
    """(v(sigma) ox 1) gamma_sigma(v(pi)) omega(sigma,pi) and omega'(sigma,pi) v(sigma+pi)."""
    lhs = twisted_product(fs, sigma, v(sigma), pi_, v(pi_))
    om2 = fs2.omega(sigma, pi_)
    # sigma + pi may leave the box; the cocycles' columns give its size
    return lhs, om2 * v.sized(char_add(sigma, pi_), om2.cols, fs.omega(sigma, pi_).cols)


def verify_conjugacy(
    fs: FactorSystem,
    fs2: FactorSystem,
    v: PartialIsometryFamily,
    char_range=3,
    gen_degree: int = 2,
) -> CheckReport:
    """Exact check that v intertwines two factor systems.

    Checks Ad[v(sigma)] . gamma = gamma', Ad[v(sigma)*] . gamma' = gamma,
    and (v(sigma) ox 1) gamma_sigma(v(pi)) omega(sigma,pi)
        = omega'(sigma,pi) v(sigma+pi).
    Every v(sigma) it reads must be d'_sigma x d_sigma, or a ValueError
    names the character.
    """
    action = fs.action

    def per_sigma(sigma):
        g, g2 = fs.gamma(sigma), fs2.gamma(sigma)
        vs = v.sized(sigma, g2.dim, g.dim)
        return g, g2, vs, vs.adjoint()

    groups = (
        LawGroup(1, per_sigma, (), (
            Law("witness conjugates coaction forward",
                lambda g, g2, vs, vsa, b: (vs * g.apply(b) * vsa, g2.apply(b))),
            Law("witness conjugates coaction backward",
                lambda g, g2, vs, vsa, b: (vsa * g2.apply(b) * vs, g.apply(b))),
        )),
        LawGroup(2, point=(
            Law("witness intertwines cocycles", partial(_intertwines_cocycles, fs, fs2, v)),
        )),
    )
    return sweep("factor-system-conjugacy", groups, resolve_chars(action, char_range),
                 base_monomials(action, gen_degree))


def frohlich_map(fs: FactorSystem, char: Character, b: TwistedPoly) -> TwistedPoly:
    """Conjugation of the fixed algebra by the isometry: s(sigma)* b s(sigma)."""
    if fs.isometries is None:
        raise ValueError("factor system carries no isometry realization")
    s = fs.isometries(char)
    middle = PolyMatrix.identity(fs.action.twist, s.rows).scale_left(b)
    return (fs.isometries.adjoint(char) * middle * s).as_scalar()


def frohlich_morphism(fs: FactorSystem, char: Character) -> AlgebraMorphism:
    """The conjugation action of a character as a morphism of B0.

    For central elements this is the twisting that enters the cocycle
    identity; the restriction to the center is independent of the chosen
    isometries.
    """
    action = fs.action
    return AlgebraMorphism(action, *_on_generators(action, lambda b: frohlich_map(fs, char, b)))


def verify_gauge_unitary(
    fs: FactorSystem, u: PartialIsometryFamily, char_range=3, gen_degree: int = 2
) -> CheckReport:
    """Exact check that a family u(sigma) is a gauge transformation.

    Checks unitarity relative to gamma_sigma(1), membership in the
    commutant of the coaction image, and the intertwining law
    (u(sigma) ox 1) gamma_sigma(u(pi)) omega = omega u(sigma+pi), the
    conjugacy law with both systems equal; so, as there, every
    u(sigma+pi) it reads must be d_{sigma+pi} x d_{sigma+pi}, or a
    ValueError names the character.
    """
    action = fs.action

    def per_sigma(sigma):
        us = u(sigma)
        return us, us.adjoint(), fs.gamma(sigma)

    def commutant(us, usa, g, b):
        gb = g.apply(b)
        return us * gb, gb * us

    groups = (
        LawGroup(1, per_sigma, (
            Law("relative unitarity u*u", lambda us, usa, g: (usa * us, g.unit())),
            Law("relative unitarity uu*", lambda us, usa, g: (us * usa, g.unit())),
        ), (Law("commutant of the coaction image", commutant),)),
        LawGroup(2, point=(Law("gauge intertwining", partial(_intertwines_cocycles, fs, fs, u)),)),
    )
    return sweep("gauge-unitary", groups, resolve_chars(action, char_range),
                 base_monomials(action, gen_degree))


def isotypic_mul(fs: FactorSystem, left, right):
    """Multiply isotypic components through the factor system.

    ``left`` and ``right`` are pairs (character, row matrix over B0); a
    bare polynomial stands for a 1 x 1 row.  Returns the pair for the
    product component:

        y = (y_sigma ox 1) gamma_sigma(y_pi) omega(sigma, pi)

    The result is compared against the plain algebra product of the
    realized elements, the module's brute-force oracle.
    """
    sigma, y_sigma = left
    pi_, y_pi = right
    sigma, pi_ = tuple(sigma), tuple(pi_)
    if isinstance(y_sigma, TwistedPoly):
        y_sigma = PolyMatrix.from_scalar(y_sigma)
    if isinstance(y_pi, TwistedPoly):
        y_pi = PolyMatrix.from_scalar(y_pi)

    y = twisted_product(fs, sigma, y_sigma, pi_, y_pi)

    if fs.isometries is None:
        raise ValueError("cross-check requires an isometry realization")
    s = fs.isometries
    x1 = (y_sigma * s(sigma)).as_scalar()
    x2 = (y_pi * s(pi_)).as_scalar()
    expected = (y * s(char_add(sigma, pi_))).as_scalar()
    if x1 * x2 != expected:
        raise AssertionError("isotypic product disagrees with the algebra product")
    return char_add(sigma, pi_), y


class IsotypicLift:
    """A map of the whole algebra given on its isotypic components.

    The component x of weight sigma is y s(sigma) with the row
    y = s(sigma)* x over B0.  A subclass holds the factor system as
    ``fs`` and supplies ``_act(char, y, s)``, the image of x as a 1 x 1
    matrix, from y and s = s(sigma).
    """

    def apply_component(self, char: Character, x: TwistedPoly) -> TwistedPoly:
        s = self.fs.isometries(char)
        y = self.fs.isometries.adjoint(char).scale_left(x)
        return self._act(char, y, s).as_scalar()

    def apply_graded(self, x) -> GradedElement:
        return GradedElement(
            self.fs.action,
            {c: self.apply_component(c, p) for c, p in x.components.items()},
        )

    def apply(self, x: TwistedPoly) -> TwistedPoly:
        return self.apply_graded(grade(self.fs.action, x)).to_poly()
