"""Group-cohomological obstruction calculus for lifting automorphisms.

Given an automorphism beta of the fixed algebra whose transported
coaction is conjugate to the original one by a witness family v, the
defect of the pair (beta, v) against the cocycle data is measured by a
central unitary 2-cocycle on the dual group:

    u(sigma, pi) = s(sigma+pi)* beta^-1( v(sigma+pi) omega(pi,sigma)*
                   gamma_pi(v(sigma)*) v(pi)* ) s(pi) s(sigma),

whose bracket is v(sigma+pi) (twisted product of v(pi), v(sigma))*, as
gamma_pi = Ad s(pi) is a *-morphism.

beta lifts to an equivariant automorphism of the whole algebra exactly
when this class is a coboundary; over Z (circle actions) the class
always vanishes and the solver is a finite exact recursion.  Over Z^d,
d >= 2, the solver normalizes a candidate cochain along lexicographic
staircase paths and either verifies the coboundary equation on the
requested box or returns an :class:`Obstruction` with the exact residual
at a witness pair, a certificate only when d = 1 or when the twisting
fixes the centre of B0 (see :func:`solve_coboundary`).

Lift lane: a cocycle value x is checked central without forming a
product.  c u^a u_k and u_k c u^a are the monomial u^(a+e_k) with the
phases c q^s(a, e_k) and c q^s(e_k, a), and a -> a + e_k is one to
one, so x commutes with u_k exactly when the integer vectors s(a, e_k)
and s(e_k, a) agree, that is when the commutator form c(a, e_k) is 0
(``algebra`` module docstring), for every exponent a of x.  This is
exact because the q units are free: a nonzero phase times q^v
determines v.  A one-term value x = c q^e tau^t u^a is checked unitary
without a product too: x* x = |c|^2 tau^(2t), since the q^e cancel
against their conjugates and star(u^a) u^a = q^(s(a, a) + s(-a, a)) = 1
as s(-a, a) = -s(a, a).  So x is unitary exactly when t = 0 and a^2 + b^2
= d^2 for c = (a + bi)/d; any other value forms x* x.  The isometry
adjoints s(sigma)* are read from the family's own cache.

Cocycle values of a generator family with scalar witnesses are formed
in the phase ring, with no column, adjoint or Kronecker product (the
table of monomial systems in the ``factor_system`` module docstring);
each witness is read once per cocycle, 1 x 1 on such a family.  The
cocycle identity is the factor system's, written once
(``factor_system._cocycle_law``, one-term lane) with d = 1:
u(sigma,pi) u(sigma+pi,rho) = Delta_sigma(u(pi,rho)) u(sigma,pi+rho), in
which the order of each product is not seen, as every value is central
in B0 and lies in B0.

Each cocycle value is checked central, in B0 and unitary once, by
``CocycleValues._check``, before the family stores it; a value that
fails raises :class:`WitnessError`, and :func:`verify_cocycle` records
those verdicts instead of deciding them again.  The materialized lift
reads extraction's transported system (kept on beta) and proves its
witness from the generators: when, at every sigma of the box,
gamma_sigma and gamma'_sigma pass ``MatrixMorphism.respects_relations``
and v* v = gamma_sigma(1), v v* = gamma'_sigma(1), the maps
b -> v gamma_sigma(b) v* and b -> v* gamma'_sigma(b) v are multiplicative
(gamma(b) gamma(1) = gamma(b)) and phase-linear, like gamma'_sigma and
gamma_sigma, so agreement at 1 and u_k^+-1 gives agreement on every
monomial, and ``verify_conjugacy`` runs at degree 1.  A failed
hypothesis, or gen_degree 0, runs it at the caller's degree, so the
verdict is the full sweep's; the cocycle law is swept either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from .algebra import PolyMatrix, TwistedPoly, TwistMismatchError, _commutator_shift, _unit_vector
from .dynamics import (
    Character,
    TorusAction,
    char_add,
    char_box,
    char_zero,
    resolve_chars,
)
from .factor_system import (
    AlgebraMorphism,
    Automorphism,
    CharacterFamily,
    FactorSystem,
    IsotypicLift,
    PartialIsometryFamily,
    _cocycle_law,
    _GeneratorColumns,
    _term,
    apply_automorphism,
    frohlich_morphism,
    twisted_product,
    verify_conjugacy,
)
from .phases import Phase, _phase_product
from .report import CheckReport, Law, LawGroup, sweep


class WitnessError(ValueError):
    """A supplied conjugacy witness fails its defining equation.

    A cocycle value that is not central, in B0 and unitary raises it too: the
    witness then fails its equation on a character the value reads.
    """

    def __init__(self, message, char=None, generator=None):
        super().__init__(message)
        self.char = char
        self.generator = generator


def _is_central(action: TorusAction, x: TwistedPoly) -> bool:
    """x commutes with every u_k of B0: c(a, e_k) = 0 for every exponent a
    of x (the lift lane of the module docstring)."""
    tw = action.twist
    if x.twist != tw:
        raise TwistMismatchError("operands have different twist matrices")
    for k in action.base:
        e = _unit_vector(tw.n, k)
        for a in x.terms:
            if _commutator_shift(tw, a, e) is not None:
                return False
    return True


def _scalar_phase(m: PolyMatrix) -> Phase | None:
    """p if m is the 1 x 1 scalar [[p u^0]], else None."""
    t = _term(m)
    return None if t is None or any(t[0]) else t[1]


def _is_unitary(x: TwistedPoly) -> bool:
    """x* x = 1; for one term c q^e tau^t u^a that is |c| = 1 and t = 0
    (the lift lane of the module docstring), with no product formed."""
    if len(x.terms) == 1:
        (p,) = x.terms.values()
        if len(p.terms) == 1:
            ((_, t), c), = p.items()
            return t == 0 and c.a * c.a + c.b * c.b == c.d * c.d
    return x.star() * x == x.twist.one


class CocycleValues(CharacterFamily):
    """Values u(sigma, pi) of a 2-cocycle, each checked central in B0, in B0
    and unitary."""

    __slots__ = ()

    def _check(self, key, val: TwistedPoly) -> None:
        if not _is_central(self.action, val):
            raise WitnessError(f"cocycle value at {key} is not central")
        for a in val.terms:  # the exponent 0 lies in B0, so a scalar reads no coordinate
            if any(a) and any(a[j] for j in self.action.coords):
                raise WitnessError(f"cocycle value at {key} leaves the fixed algebra")
        if not _is_unitary(val):
            raise WitnessError(f"cocycle value at {key} is not unitary")


class TwoCocycle:
    """Central unitary 2-cocycle on the dual group, with its twisting.

    ``delta`` assigns to each character the morphism of B0 that twists
    the cocycle identity; without ``delta_fn`` every character shares
    one identity morphism.  The values (a :class:`CocycleValues`) and the
    twisting morphisms are character families, computed lazily and
    cached; the :func:`verify_cocycle` report of each character box
    (keyed by the exact box) is remembered too, so a box is swept once.
    """

    def __init__(
        self,
        action: TorusAction,
        value_fn: Callable[[Character, Character], TwistedPoly],
        delta_fn: Callable[[Character], AlgebraMorphism] | None = None,
    ):
        if delta_fn is None:
            ident = AlgebraMorphism.identity(action)

            def delta_fn(char: Character) -> AlgebraMorphism:
                return ident

        self.action = action
        self._u = CocycleValues(action, value_fn)
        self._delta = CharacterFamily(action, delta_fn)
        self._reports: dict = {}

    def value(self, sigma: Character, pi_: Character) -> TwistedPoly:
        return self._u(sigma, pi_)

    def delta(self, char: Character) -> AlgebraMorphism:
        return self._delta(char)

    def has_trivial_twist(self, chars) -> bool:
        ident = AlgebraMorphism.identity(self.action)
        return all(self.delta(c).equals_on_generators(ident) for c in chars)


@dataclass
class OneCochain:
    """Normalized map Character -> central unitary, c(0) = 1."""

    action: TorusAction
    values: dict

    def value(self, char: Character) -> TwistedPoly:
        return self.values[tuple(char)]


@dataclass
class Obstruction:
    """Failure of the coboundary equation for the normalized candidate.

    ``residual`` is exactly u(witness) divided by the coboundary of the
    normalized candidate cochain at the witness pair; it differs from 1.
    It certifies a nontrivial class when d = 1 or when the twisting fixes
    the centre of B0 (see :func:`solve_coboundary`).
    For an untwisted cocycle an antisymmetric pair u(sigma,pi) !=
    u(pi,sigma) certifies non-triviality outright, since coboundaries of
    central cochains are symmetric; ``kind`` records that stronger form
    when it applies.
    """

    witness: tuple
    residual: TwistedPoly
    kind: str = "coboundary-residual"

    def __str__(self) -> str:
        return f"obstruction[{self.kind}] at {self.witness}: residual {self.residual!r}"


def extract_cocycle(
    fs: FactorSystem, beta: Automorphism, v: PartialIsometryFamily, char_range=3
) -> TwoCocycle:
    """Obstruction 2-cocycle of (beta, v) against a factor system.

    Requires the witness equation Ad[v(sigma)] . gamma_sigma =
    gamma_sigma^beta on the requested box; the offending character and
    generator are reported when it fails.  Every v(sigma) it reads must
    be d_sigma x d_sigma, or a ValueError names the character.
    """
    action = fs.action
    tw = action.twist
    chars = resolve_chars(action, char_range)
    transported = apply_automorphism(fs, beta)
    for sigma in chars:
        g = fs.gamma(sigma)
        gb = transported.gamma(sigma)
        vs = v.sized(sigma, gb.dim, g.dim)
        vsa = vs.adjoint()
        for k in action.base:
            b = TwistedPoly.generator(tw, k)
            if vs * g.apply(b) * vsa != gb.apply(b):
                raise WitnessError(
                    f"witness fails the coaction conjugacy at sigma={sigma}, "
                    f"generator {tw.gen_name(k)}",
                    char=sigma,
                    generator=k,
                )

    if fs.isometries is None:
        raise ValueError("cocycle extraction requires an isometry realization")
    s = fs.isometries
    binv = beta.inverse()
    columns = isinstance(s, _GeneratorColumns)

    def witness(char: Character) -> PolyMatrix:
        # a value may read characters off the box; s(char) has d_char rows,
        # and a generator column is 1 x 1, so it is not built
        d = 1 if columns else s(char).rows
        return v.sized(char, d, d)

    witnesses = CharacterFamily(action, witness)  # read once per character

    def value_fn(sigma: Character, pi_: Character) -> TwistedPoly:
        sp = char_add(sigma, pi_)
        vp, vs, vsp = witnesses(pi_), witnesses(sigma), witnesses(sp)
        if columns:
            p, o, w = _scalar_phase(vp), _scalar_phase(vs), _scalar_phase(vsp)
            om = _scalar_phase(fs.omega(pi_, sigma))
            if p is not None and o is not None and w is not None and om is not None:
                # v(sigma+pi) P-bar omega_s(pi, sigma), omega_s read off the columns
                outer = s.omega_phase(pi_, sigma)
                bar = _phase_product(_phase_product(p, o, None), om, None).conjugate()
                return TwistedPoly.scalar(tw, _phase_product(_phase_product(w, bar, None), outer, None))
        product = twisted_product(fs, pi_, vp, sigma, vs)
        inner = binv.apply_matrix(vsp * product.adjoint())
        return (s.adjoint(sp) * inner * s(pi_).kron(s(sigma))).as_scalar()

    return TwoCocycle(action, value_fn, delta_fn=lambda c: frohlich_morphism(fs, c))


def verify_cocycle(u: TwoCocycle, char_range=2) -> CheckReport:
    """Exact centrality, unitarity, normalization, and the cocycle identity.

    Centrality and unitarity are the verdicts of the values' own check,
    recorded once per pair of the box; a failing value raises
    :class:`WitnessError` when it is read.  The identity, the factor
    system's (``factor_system._cocycle_law``) with d = 1,
    u(sigma,pi) u(sigma+pi,rho) = Delta_sigma(u(pi,rho)) u(sigma,pi+rho), is
    checked on all triples from the box; each side's order is not seen, as
    a value central in B0 and lying in B0 commutes with all of B0.  The
    report is remembered on ``u`` for this exact box, so verifying the same
    box again returns it without a second sweep.
    """
    action = u.action
    tw = action.twist
    chars = resolve_chars(action, char_range)
    key = tuple(chars)
    if key in u._reports:
        return u._reports[key]
    zero = char_zero(action.d)

    def checked(value):  # decided by CocycleValues._check when u.value read it
        return True, True

    groups = (
        LawGroup(0, point=(
            Law("normalization u(0,0) = 1", lambda: (u.value(zero, zero), TwistedPoly.one(tw))),
        )),
        LawGroup(2, lambda sigma, pi_: (u.value(sigma, pi_),),
                 (Law("centrality", checked), Law("unitarity", checked))),
        _cocycle_law(tw, u.value, u.delta, None, attrgetter("apply")),
    )
    report = u._reports[key] = sweep("two-cocycle-laws", groups, chars, ())
    return report


def _staircase(u: TwoCocycle, values: dict, sig: Character) -> TwistedPoly:
    """The candidate cochain at ``sig``, filling ``values`` along its path.

    c(sig) = u(sig - e_j, e_j)* c(sig - e_j) for the last nonzero
    coordinate j of sig when it is positive, u(sig, e_j) c(sig + e_j) when
    it is negative.  A module function, so no closure refers back to
    itself and the solved cocycle is freed by reference counting.
    """
    cached = values.get(sig)
    if cached is not None:
        return cached
    j = max(i for i in range(len(sig)) if sig[i] != 0)
    e = _unit_vector(len(sig), j)
    if sig[j] > 0:
        prev = char_add(sig, _unit_vector(len(sig), j, -1))
        val = u.value(prev, e).star() * _staircase(u, values, prev)
    else:
        val = u.value(sig, e) * _staircase(u, values, char_add(sig, e))
    values[sig] = val
    return val


def solve_coboundary(u: TwoCocycle, char_range=2):
    """Trivialize a central 2-cocycle or certify an obstruction.

    Builds a candidate cochain by exact recursion along staircase paths
    (over Z, the one-variable recursion c(n+1) = c(n) u(n,1)*,
    c(-n-1) = u(-n-1,1) c(-n), normalized to c(0) = c(1) = 1) and then
    substitutes it into the coboundary equation for every pair of the
    characters of ``char_range`` (a box radius or an explicit list, whose
    largest coordinate sizes the staircase).  Success returns the
    :class:`OneCochain`; any residual returns an :class:`Obstruction`
    carrying the first witness.

    Over Z the verified recursion always succeeds for a valid cocycle.
    Over Z^d with d >= 2 the candidate fixes c(e_j) = 1 on the basis
    characters, which loses no solution only when every choice of those
    values extends to a crossed homomorphism, as it does when Delta
    fixes the centre of B0.  So a residual certifies an obstruction only
    when d = 1 or when Delta fixes the centre of B0; otherwise a
    coboundary can leave a residual, and the obstruction is a missed
    search, not a certificate.

    The precondition is :func:`verify_cocycle` on the same characters,
    and both the coboundary equation and the antisymmetric search check
    only pairs of them (the staircase reads u along its paths); a
    non-cocycle raises ``ValueError``.  When the caller has already
    verified them, the precondition reads the remembered report.
    """
    action = u.action
    pre = verify_cocycle(u, char_range)
    if not pre.passed:
        raise ValueError(f"input is not a 2-cocycle: {pre.failures[0]}")

    chars = resolve_chars(action, char_range)
    radius = max((max(abs(x) for x in c) for c in chars if any(c)), default=0)
    d = action.d
    one = TwistedPoly.one(action.twist)

    values: dict = {char_zero(d): one}
    for sig in char_box(d, 2 * radius):
        _staircase(u, values, sig)

    for sigma in chars:
        delta_sigma = u.delta(sigma)
        for pi_ in chars:
            expected = (
                delta_sigma.apply(values[pi_])
                * values[sigma]
                * values[char_add(sigma, pi_)].star()
            )
            actual = u.value(sigma, pi_)
            if actual != expected:
                if u.has_trivial_twist(chars):
                    # coboundaries of central cochains are symmetric when the
                    # twist is trivial, so an asymmetric pair is a certificate
                    for s2 in chars:
                        for p2 in chars:
                            ratio = u.value(s2, p2) * u.value(p2, s2).star()
                            if ratio != one:
                                return Obstruction(
                                    witness=(s2, p2),
                                    residual=ratio,
                                    kind="antisymmetric-class",
                                )
                return Obstruction(
                    witness=(sigma, pi_),
                    residual=actual * expected.star(),
                    kind="coboundary-residual",
                )

    return OneCochain(action, values)


def pointwise_ratio(a: TwoCocycle, b: TwoCocycle) -> TwoCocycle:
    """The cocycle a/b (same twisting); a coboundary when a and b are
    extracted from the same automorphism with different witnesses."""
    return TwoCocycle(
        a.action,
        lambda s, p: a.value(s, p) * b.value(s, p).star(),
        delta_fn=a.delta,
    )


def updated_witness(
    fs: FactorSystem,
    beta: Automorphism,
    v: PartialIsometryFamily,
    cochain: OneCochain,
) -> PartialIsometryFamily:
    """Absorb a trivializing cochain into the witness family.

    The corrected family v'(sigma) = beta(gamma_sigma(c(sigma))) v(sigma)
    intertwines the full factor systems, not just the coactions.
    """

    def fn(char: Character) -> PolyMatrix:
        g = fs.gamma(char)
        return beta.apply_matrix(g.apply(cochain.value(char))) * v(char)

    return PartialIsometryFamily(fs.action, fn)


def _certifies(fs: FactorSystem, fs2: FactorSystem, v: PartialIsometryFamily, sigma) -> bool:
    """The generator certificate's hypotheses at sigma: gamma_sigma and
    gamma'_sigma pass ``respects_relations``, v* v = gamma_sigma(1) and
    v v* = gamma'_sigma(1), read in ``verify_conjugacy``'s order."""
    g, g2 = fs.gamma(sigma), fs2.gamma(sigma)
    vs = v.sized(sigma, g2.dim, g.dim)
    vsa = vs.adjoint()
    return (g.respects_relations() and g2.respects_relations()
            and vsa * vs == g.unit() and vs * vsa == g2.unit())


class LiftedAutomorphism(IsotypicLift):
    """Equivariant automorphism of the whole algebra extending beta.

    Acts on the isotypic component of weight sigma by
    y s(sigma) -> beta(y) v(sigma) s(sigma), where v witnesses the
    conjugacy between the factor system and its transport under beta.
    The witness is verified at construction.
    """

    def __init__(
        self,
        fs: FactorSystem,
        beta: Automorphism,
        v: PartialIsometryFamily,
        char_range=2,
        gen_degree: int = 2,
    ):
        if fs.isometries is None:
            raise ValueError("lifting requires an isometry realization")
        fs2 = apply_automorphism(fs, beta)
        chars = resolve_chars(fs.action, char_range)
        if gen_degree >= 1 and all(_certifies(fs, fs2, v, c) for c in chars):
            gen_degree = 1  # the generator certificate (module docstring)
        rep = verify_conjugacy(fs, fs2, v, char_range, gen_degree)
        if not rep.passed:
            raise WitnessError(
                f"witness does not intertwine the factor systems: {rep.failures[0]}"
            )
        self.fs = fs
        self.beta = beta
        self.v = v

    def _act(self, char: Character, y: PolyMatrix, s: PolyMatrix) -> PolyMatrix:
        return self.beta.apply_matrix(y) * self.v(char) * s


@dataclass
class LiftOutcome:
    """Result of the full extract / verify / solve / materialize pipeline."""

    cocycle: TwoCocycle
    cocycle_report: CheckReport
    solved: OneCochain | None
    obstruction: Obstruction | None
    lifted: LiftedAutomorphism | None = None

    @property
    def lifts(self) -> bool:
        return self.lifted is not None


def trivialize(u: TwoCocycle, char_range=2) -> LiftOutcome:
    """Verify u on the box, then solve it; the cocycle sweep runs once."""
    rep = verify_cocycle(u, char_range)
    solved = solve_coboundary(u, char_range) if rep.passed else None
    if isinstance(solved, Obstruction):
        return LiftOutcome(u, rep, None, solved)
    return LiftOutcome(u, rep, solved, None)


def lift_via_cohomology(
    fs: FactorSystem,
    beta: Automorphism,
    v: PartialIsometryFamily,
    char_range=2,
    gen_degree: int = 2,
) -> LiftOutcome:
    """Extract the obstruction cocycle, trivialize it, and materialize the lift."""
    outcome = trivialize(extract_cocycle(fs, beta, v, char_range), char_range)
    if outcome.solved is not None:
        v2 = updated_witness(fs, beta, v, outcome.solved)
        outcome.lifted = LiftedAutomorphism(fs, beta, v2, char_range, gen_degree)
    return outcome
