"""Derivations of the fixed algebra and their equivariant lifts.

A derivation is stored by its generator images and extended by the
Leibniz rule (negative powers via d(x^-1) = -x^-1 d(x) x^-1).  A
derivation delta of B0 lifts to an equivariant derivation of the whole
algebra exactly when a matrix family H(sigma) over B0, normalized to
H(0) = 0, satisfies

    delta gamma_sigma(b) = gamma_sigma delta(b) + H(sigma) gamma_sigma(b)
                           + gamma_sigma(b) H(sigma)*
    delta(omega(sigma,pi)) = (H(sigma) ox 1) omega + gamma_sigma(H(pi)) omega
                           + omega H(sigma+pi)*

in which case the lift acts on the weight-sigma component by
y s(sigma) -> delta(y) s(sigma) + y H(sigma) s(sigma).  Families with
delta = 0 form the gauge Lie algebra, the kernel of the short exact
sequence of derivation Lie algebras over the liftable derivations of
B0; a linear section of that sequence is a connection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import PolyMatrix, TwistedPoly, TwistMatrix, TwistMismatchError, exchange_phase
from .dynamics import (
    Character,
    TorusAction,
    base_monomials,
    char_add,
    char_zero,
    matrix_in_base_algebra,
    resolve_chars,
)
from .factor_system import CharacterFamily, FactorSystem, IsotypicLift, ScopeError
from .phases import Phase, QQi
from .report import CheckReport, Law, LawGroup, ReportBuilder, sweep


class DerivationError(ValueError):
    """Generator images do not extend to a derivation."""


class Derivation:
    """Derivation given by generator images, extended by the Leibniz rule.

    ``gens`` is kept sorted and free of repeats, so two derivations on
    the same generator set compare, add and bracket whatever order the
    set was listed in; an index outside 0..n-1 is rejected here.  The
    image of each monomial u^a is computed once and cached
    (``_monomial``), as are the images of generator powers; ``apply``
    scales the cached images by the phases of its argument.  A derivation
    is an immutable value, so ``bracket_derivations`` keeps its last
    bracket on the left operand (``_bracket``).
    """

    __slots__ = ("twist", "gens", "images", "_powers", "_monomials", "_bracket")

    def __init__(self, twist: TwistMatrix, gens, images: dict, check: bool = True):
        gens = tuple(sorted(set(gens)))
        for k in gens:
            if not 0 <= k < twist.n:
                raise ValueError(f"generator index {k} out of range 0..{twist.n - 1}")
        try:
            self.images = {k: images[k] for k in gens}
        except KeyError as err:
            missing = twist.gen_name(err.args[0])
            raise ValueError(f"missing derivation image for {missing}") from None
        self.twist = twist
        self.gens = gens
        self._powers: dict = {}
        self._monomials: dict = {}
        self._bracket = None  # (d2, [self, d2]) of the last bracket_derivations call
        if check:
            violated = self.violated_relation()
            if violated is not None:
                k, l = violated
                raise DerivationError(
                    "images violate the exchange relation between "
                    f"{twist.gen_name(k)} and {twist.gen_name(l)}"
                )

    @classmethod
    def zero(cls, twist: TwistMatrix, gens) -> "Derivation":
        z = TwistedPoly.zero(twist)
        return cls(twist, gens, {k: z for k in gens}, check=False)

    @classmethod
    def inner(cls, twist: TwistMatrix, gens, a: TwistedPoly) -> "Derivation":
        images = {
            k: a * TwistedPoly.generator(twist, k) - TwistedPoly.generator(twist, k) * a
            for k in gens
        }
        return cls(twist, gens, images, check=False)

    def violated_relation(self):
        """First generator pair whose exchange relation breaks, or None."""
        for i, k in enumerate(self.gens):
            for l in self.gens[i + 1 :]:
                uk = TwistedPoly.generator(self.twist, k)
                ul = TwistedPoly.generator(self.twist, l)
                lam = TwistedPoly.scalar(self.twist, exchange_phase(self.twist, k, l))
                lhs = self.images[k] * ul + uk * self.images[l]
                rhs = lam * (self.images[l] * uk + ul * self.images[k])
                if lhs != rhs:
                    return (k, l)
        return None

    def is_star_derivation(self) -> bool:
        """True iff the Leibniz extension is compatible with the involution."""
        for k in self.gens:
            uk_inv = TwistedPoly.generator(self.twist, k, -1)
            derived = -(uk_inv * self.images[k] * uk_inv)
            if derived != self.images[k].star():
                return False
        return True

    def _gen_power(self, k: int, m: int) -> TwistedPoly:
        cached = self._powers.get((k, m))
        if cached is not None:
            return cached
        if m > 0:
            total = TwistedPoly.zero(self.twist)
            for i in range(m):
                total = total + TwistedPoly.generator(self.twist, k, i) * self.images[
                    k
                ] * TwistedPoly.generator(self.twist, k, m - 1 - i)
        else:
            dy = self._gen_power(k, -m)
            inv = TwistedPoly.generator(self.twist, k, m)
            total = -(inv * dy * inv)
        self._powers[(k, m)] = total
        return total

    def _monomial(self, a) -> TwistedPoly:
        """delta(u^a): the Leibniz sum of u^left * delta(u_k^a_k) * u^right, cached.

        The scope check runs on every cache miss before anything is
        stored, so an exponent outside the generators raises every time.
        """
        image = self._monomials.get(a)
        if image is not None:
            return image
        tw = self.twist
        for k, e in enumerate(a):
            if e and k not in self.images:
                raise ScopeError(f"derivation not defined on {tw.gen_name(k)}")
        image = TwistedPoly.zero(tw)
        for k in self.gens:
            if a[k]:
                left = [e if j < k else 0 for j, e in enumerate(a)]
                right = [e if j > k else 0 for j, e in enumerate(a)]
                image = image + (
                    TwistedPoly.monomial(tw, left)
                    * self._gen_power(k, a[k])
                    * TwistedPoly.monomial(tw, right)
                )
        self._monomials[a] = image
        return image

    def apply(self, x: TwistedPoly) -> TwistedPoly:
        tw = self.twist
        if x.twist is not tw and x.twist != tw:
            raise TwistMismatchError("argument over a different twist matrix")
        total = None
        for a, phase in x.terms.items():
            image = self._monomial(a)
            if not phase.is_one():
                image = image.scale(phase)
            total = image if total is None else total + image
        if total is None:
            return TwistedPoly.zero(tw)
        return total

    def apply_matrix(self, m: PolyMatrix) -> PolyMatrix:
        return m.map(self.apply)

    def scale(self, c) -> "Derivation":
        return Derivation(
            self.twist,
            self.gens,
            {k: v.scale(c) for k, v in self.images.items()},
            check=False,
        )

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.gens != other.gens:
            raise ValueError("derivations live on different generator sets")
        # the exchange-relation constraint is linear, no recheck needed
        return Derivation(
            self.twist,
            self.gens,
            {k: self.images[k] + other.images[k] for k in self.gens},
            check=False,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return (
            self.twist == other.twist
            and self.gens == other.gens
            and self.images == other.images
        )

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.images.values())


def bracket_derivations(d1: Derivation, d2: Derivation) -> Derivation:
    """Commutator [d1, d2] as a derivation on the shared generators.

    ``d1`` keeps the last result together with ``d2``, so asking again for
    the same pair gives back the same derivation, monomial cache and all.
    The operand is compared by identity, which is exact because a
    derivation never changes after it is built; any other ``d2`` replaces
    the memo.
    """
    memo = d1._bracket
    if memo is not None and memo[0] is d2:
        return memo[1]
    if d1.gens != d2.gens:
        raise ValueError("derivations live on different generator sets")
    images = {
        k: d1.apply(d2.images[k]) - d2.apply(d1.images[k]) for k in d1.gens
    }
    br = Derivation(d1.twist, d1.gens, images, check=False)
    d1._bracket = (d2, br)
    return br


def two_pi_i(twist: TwistMatrix) -> TwistedPoly:
    """The exact formal scalar 2*pi*i (= i * tau)."""
    return TwistedPoly.scalar(twist, Phase.two_pi_i(twist.nslots))


def scaling_derivation(twist: TwistMatrix, gens, k: int) -> Derivation:
    """Generator of the gauge circle on u_k: u_k -> 2*pi*i*u_k, rest to 0."""
    images = {j: TwistedPoly.zero(twist) for j in gens}
    if k in images:
        images[k] = two_pi_i(twist) * TwistedPoly.generator(twist, k)
    return Derivation(twist, gens, images, check=False)


# ---------------------------------------------------------------------------
# H families
# ---------------------------------------------------------------------------


class HFamily(CharacterFamily):
    """Character-indexed family of matrices over B0, H(0) = 0."""

    __slots__ = ()

    @classmethod
    def zero(cls, fs: FactorSystem) -> "HFamily":
        """H(sigma) = the d_sigma x d_sigma zero: the family of a plain lift."""
        tw = fs.action.twist
        return cls(fs.action, lambda char: PolyMatrix.zeros(tw, fs.dim(char), fs.dim(char)))

    @classmethod
    def linear_scalar(cls, action: TorusAction, slopes) -> "HFamily":
        """H(sigma) = sum_j sigma_j * slopes[j]; a single value means d = 1."""
        if isinstance(slopes, TwistedPoly):
            slopes = [slopes]
        slopes = list(slopes)
        if len(slopes) != action.d:
            raise ValueError("one slope per acting coordinate required")

        def fn(char: Character) -> PolyMatrix:
            total = TwistedPoly.zero(action.twist)
            for c, slope in zip(char, slopes):
                total = total + slope.scale(QQi(c))
            return PolyMatrix.from_scalar(total)

        return cls(action, fn)

    def _check(self, char: Character, m: PolyMatrix) -> None:
        if not matrix_in_base_algebra(self.action, m):
            raise ScopeError(f"family value at {char} leaves the fixed algebra")
        if char == char_zero(self.action.d) and not m.is_zero():
            raise ValueError("family must vanish at the trivial character")

    def __add__(self, other: "HFamily") -> "HFamily":
        return HFamily(self.action, lambda c: self(c) + other(c))

    def __sub__(self, other: "HFamily") -> "HFamily":
        return HFamily(self.action, lambda c: self(c) - other(c))

    def __neg__(self) -> "HFamily":
        return HFamily(self.action, lambda c: -self(c))

    def scale(self, c) -> "HFamily":
        return HFamily(self.action, lambda ch: self(ch).map(lambda e: e.scale(c)))


# ---------------------------------------------------------------------------
# lift conditions and lifted derivations
# ---------------------------------------------------------------------------


def _cocycle_derivative(
    fs: FactorSystem, h: HFamily, sigma: Character, pi_: Character
) -> PolyMatrix:
    """(H(sigma) ox 1) omega + gamma_sigma(H(pi)) omega + omega H(sigma+pi)*."""
    om = fs.omega(sigma, pi_)
    return (
        h(sigma).ampliate(fs.dim(pi_)) * om
        + fs.gamma(sigma).apply_to_matrix(h(pi_)) * om
        + om * h(char_add(sigma, pi_)).adjoint()
    )


def _vanishes_at_zero(fs: FactorSystem, h: HFamily) -> Law:
    """The normalization row H(0) = 0, the d_0 x d_0 zero."""
    zero = char_zero(fs.action.d)
    return Law(
        "normalization H(0) = 0",
        lambda: (h(zero), PolyMatrix.zeros(fs.action.twist, fs.dim(zero), fs.dim(zero))),
    )


def verify_lift_conditions(
    fs: FactorSystem,
    delta: Derivation,
    h: HFamily,
    char_range=2,
    gen_degree: int = 2,
) -> CheckReport:
    """Exact check of the two lift equations over a character box."""
    action = fs.action

    def per_sigma(sigma):
        hs = h(sigma)
        return fs.gamma(sigma), hs, hs.adjoint()

    def coaction_derivative(g, hs, hsa, b):
        gb = g.apply(b)
        return delta.apply_matrix(gb), g.apply(delta.apply(b)) + hs * gb + gb * hsa

    groups = (
        LawGroup(0, point=(_vanishes_at_zero(fs, h),)),
        LawGroup(1, per_sigma, (), (Law("coaction derivative", coaction_derivative),)),
        LawGroup(2, point=(
            Law("cocycle derivative", lambda sigma, pi_: (
                delta.apply_matrix(fs.omega(sigma, pi_)), _cocycle_derivative(fs, h, sigma, pi_))),
        )),
    )
    return sweep("derivation-lift-conditions", groups, resolve_chars(action, char_range),
                 base_monomials(action, gen_degree))


class LiftedDerivation(IsotypicLift):
    """Equivariant derivation of the whole algebra given by (delta, H)."""

    def __init__(
        self,
        fs: FactorSystem,
        base: Derivation,
        h: HFamily,
        check: bool = False,
        char_range=2,
        gen_degree: int = 2,
    ):
        if fs.isometries is None:
            raise ValueError("lifting requires an isometry realization")
        if check:
            rep = verify_lift_conditions(fs, base, h, char_range, gen_degree)
            if not rep.passed:
                raise DerivationError(
                    f"lift conditions fail: {rep.failures[0]}"
                )
        self.fs = fs
        self.base = base
        self.h = h

    def _act(self, char: Character, y: PolyMatrix, s: PolyMatrix) -> PolyMatrix:
        return self.base.apply_matrix(y) * s + y * self.h(char) * s

    def __add__(self, other: "LiftedDerivation") -> "LiftedDerivation":
        return LiftedDerivation(self.fs, self.base + other.base, self.h + other.h)

    def scale(self, c) -> "LiftedDerivation":
        return LiftedDerivation(self.fs, self.base.scale(c), self.h.scale(c))


def bracket(l1: LiftedDerivation, l2: LiftedDerivation) -> LiftedDerivation:
    """Commutator of two lifted derivations, again in lifted form.

    The base is the commutator of the bases and the family follows by
    differentiating the defining relation of H along both lifts:
    H(sigma) = d1(H2(sigma)) - d2(H1(sigma)) + H2(sigma) H1(sigma)
             - H1(sigma) H2(sigma).
    """
    if l1.fs is not l2.fs:
        raise ValueError("lifted derivations live over different factor systems")
    base = bracket_derivations(l1.base, l2.base)

    def fn(char: Character) -> PolyMatrix:
        h1 = l1.h(char)
        h2 = l2.h(char)
        return (
            l1.base.apply_matrix(h2)
            - l2.base.apply_matrix(h1)
            + h2 * h1
            - h1 * h2
        )

    return LiftedDerivation(l1.fs, base, HFamily(l1.fs.action, fn))


# ---------------------------------------------------------------------------
# gauge Lie algebra and crossed homomorphisms
# ---------------------------------------------------------------------------


def gauge_report(fs: FactorSystem, h: HFamily, char_range=2, gen_degree: int = 2) -> CheckReport:
    """Exact membership test for the gauge Lie algebra (lifts of zero)."""
    action = fs.action
    tw = action.twist

    def per_sigma(sigma):
        hs = h(sigma)
        return hs, hs.adjoint(), fs.gamma(sigma)

    def commutant(hs, hsa, g, b):
        gb = g.apply(b)
        return hs * gb + gb * hsa, PolyMatrix.zeros(tw, hs.rows, gb.cols)

    def cocycle_condition(sigma, pi_):
        total = _cocycle_derivative(fs, h, sigma, pi_)
        return total, PolyMatrix.zeros(tw, total.rows, total.cols)

    groups = (
        LawGroup(0, point=(_vanishes_at_zero(fs, h),)),
        LawGroup(1, per_sigma, (Law("skew-adjointness", lambda hs, hsa, g: (hsa, -hs)),),
                 (Law("commutant condition", commutant),)),
        LawGroup(2, point=(Law("cocycle condition", cocycle_condition),)),
    )
    return sweep("gauge-family", groups, resolve_chars(action, char_range),
                 base_monomials(action, gen_degree))


def crossed_hom_report(fs: FactorSystem, h: HFamily, char_range=2) -> CheckReport:
    """Exact additivity-with-twist and skewness check for scalar families.

    Requires a cleft system whose cocycle values are central scalars,
    checked on every pair of the box; in that case the condition is
    equivalent to gauge membership.
    """
    action = fs.action
    chars = resolve_chars(action, char_range)
    for sigma in chars:
        for pi_ in chars:
            om = fs.omega(sigma, pi_)
            if (om.rows, om.cols) != (1, 1) or not om.as_scalar().is_scalar():
                raise ValueError(
                    f"crossed homomorphisms require scalar cocycle values, "
                    f"not at {(sigma, pi_)}"
                )

    def twisted_additivity(sigma, pi_):
        g = fs.gamma(sigma)
        hs = h(sigma).as_scalar()
        return h(char_add(sigma, pi_)).as_scalar(), hs + g.apply(h(pi_).as_scalar()).as_scalar()

    groups = (
        LawGroup(1, lambda sigma: (h(sigma).as_scalar(),),
                 (Law("skew-adjointness", lambda hs: (hs.star(), -hs)),)),
        LawGroup(2, point=(Law("twisted additivity", twisted_additivity),)),
    )
    return sweep("crossed-homomorphism", groups, chars, ())


# ---------------------------------------------------------------------------
# connections: sections of the derivation sequence
# ---------------------------------------------------------------------------


@dataclass
class SectionEntry:
    key: Derivation
    lift: LiftedDerivation


@dataclass
class ConnectionSection:
    """Linear section candidate: a basis of liftable derivations of B0
    together with a chosen lift for each, plus optional kernel samples."""

    entries: list[SectionEntry]
    kernel: list[HFamily] = field(default_factory=list)

    def combine(self, coeffs) -> LiftedDerivation:
        """Rational linear combination sum c_i * lift_i (linear extension)."""
        total = None
        for c, entry in zip(coeffs, self.entries):
            piece = entry.lift.scale(c)
            total = piece if total is None else total + piece
        if total is None:
            raise ValueError("empty section")
        return total


# coefficient pairs of the linear combinations the section must respect
SECTION_COMBOS = ((QQi(2), QQi(-3)), (QQi(Fraction(1, 2)), QQi(1)))


def atiyah_check(
    fs: FactorSystem,
    section: ConnectionSection,
    char_range=2,
    gen_degree: int = 2,
) -> CheckReport:
    """Verify a candidate section of the derivation sequence.

    Checks, exactly: each lift restricts on the fixed algebra to its
    basis derivation; each supplied kernel family is a gauge element;
    linear combinations of basis lifts agree with the lift of the
    combined data on a monomial corpus; and for pairs of basis elements
    with vanishing commutator the bracket of the lifts vanishes too (the
    section is then a Lie-algebra section on that basis).
    """
    action = fs.action
    tw = action.twist
    rb = ReportBuilder("atiyah-section")
    monomials = base_monomials(action, gen_degree)
    chars = resolve_chars(action, char_range)

    corpus = []
    for sigma in chars:
        s = fs.isometries(sigma)
        for b in monomials[: 2 * len(action.base) + 1]:
            corpus.append((PolyMatrix.from_scalar(b) * s).as_scalar())

    for idx, entry in enumerate(section.entries):
        for k in action.base:
            gen = TwistedPoly.generator(tw, k)
            rb.expect(
                "restriction to the base derivation",
                {"basis": idx, "generator": tw.gen_name(k)},
                entry.lift.apply(gen),
                entry.key.apply(gen),
            )

    for idx, ker in enumerate(section.kernel):
        rep = gauge_report(fs, ker, char_range, gen_degree)
        rb.expect_true(
            "kernel sample is a gauge element",
            {"kernel": idx},
            rep.passed,
            str(rep.failures[0]) if rep.failures else "",
        )

    if len(section.entries) >= 2:
        # each basis lift's image of each corpus element, formed once for every combination
        used = section.entries[: max(len(coeffs) for coeffs in SECTION_COMBOS)]
        images = [[entry.lift.apply(x) for entry in used] for x in corpus]
        for coeffs in SECTION_COMBOS:
            combined = section.combine(coeffs)
            for x, x_images in zip(corpus, images):
                expected = TwistedPoly.zero(tw)
                for c, image in zip(coeffs, x_images):
                    expected = expected + image.scale(c)
                rb.expect(
                    "linearity of the section",
                    {"coeffs": coeffs, "x": x},
                    combined.apply(x),
                    expected,
                )

    for i, e1 in enumerate(section.entries):
        for e2 in section.entries[i + 1 :]:
            base_br = bracket_derivations(e1.key, e2.key)
            if not base_br.is_zero():
                rb.note(
                    "bracket-section check skipped for a non-commuting basis pair"
                )
                continue
            lifted_br = bracket(e1.lift, e2.lift)
            for x in corpus:
                rb.expect(
                    "bracket section on commuting basis pair",
                    {"x": x},
                    lifted_br.apply(x),
                    TwistedPoly.zero(tw),
                )

    return rb.finish()
