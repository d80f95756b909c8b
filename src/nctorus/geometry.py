"""Associated modules, frames, connections, and curvature.

For a character sigma the associated module is realized inside the
polynomial algebra as the isotypic subspace of weight -sigma, with
frame given by the entries of s(sigma)*.  The two inner products are

    right(x, y) = x* y   (valued in B0)
    left(x, y)  = x y*

and satisfy left(x, y) z = x right(y, z).  The frame connection

    D_delta(x) = sum_k s_k . delta( right(s_k, x) )

obeys the Leibniz rule and metric compatibility; its curvature is
computed both as the commutator defect and by the closed frame formula,
and the two must agree.  For cleft frames the inner products of frame
elements are constant, so the curvature vanishes identically.

A curvature sweep calls ``curvature`` once per module element with the
same pair (delta1, delta2).  The commutator derivation [delta1, delta2]
depends on the pair alone, so ``bracket_derivations`` keeps it on delta1:
the sweep forms it once, and its cache of delta(u^a) images carries over
from element to element.  The memo compares delta2 by identity, which is
exact because a derivation is an immutable value; a different derivation
is a different object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import TwistedPoly
from .derivations import Derivation, LiftedDerivation, bracket_derivations
from .dynamics import Character, GradedElement, char_neg, is_equivariant
from .factor_system import FactorSystem, from_cleft
from .report import CheckReport, ReportBuilder


class ModuleMembershipError(ValueError):
    """Element does not transform with the module's weight."""


@dataclass
class AssociatedModule:
    """Equivariant realization of the module of weight sigma with a frame."""

    fs: FactorSystem
    sigma: Character
    frame: list[TwistedPoly]

    @property
    def action(self):
        return self.fs.action

    @property
    def weight(self) -> Character:
        return char_neg(self.sigma)

    def contains(self, x: TwistedPoly) -> bool:
        return is_equivariant(self.action, x, self.weight)

    def require(self, x: TwistedPoly):
        if not self.contains(x):
            raise ModuleMembershipError(
                f"element does not have equivariance weight {self.weight}"
            )


def make_module(source, sigma) -> AssociatedModule:
    """Module of weight sigma with the frame cut from the isometry family.

    ``source`` is a factor system with an isometry realization, or a
    torus action (then the canonical cleft system is used).
    """
    fs = source if isinstance(source, FactorSystem) else from_cleft(source)
    if fs.isometries is None:
        raise ValueError("module frames require an isometry realization")
    sigma = tuple(sigma)
    adj = fs.isometries.adjoint(sigma)
    frame = [adj.entry(0, j) for j in range(adj.cols)]
    return AssociatedModule(fs, sigma, frame)


def right_inner(m: AssociatedModule, x: TwistedPoly, y: TwistedPoly) -> TwistedPoly:
    """B0-valued pairing star(x) * y, conjugate-linear in x."""
    m.require(x)
    m.require(y)
    return x.star() * y


def left_inner(m: AssociatedModule, x: TwistedPoly, y: TwistedPoly) -> TwistedPoly:
    """Algebra-valued pairing x * star(y)."""
    m.require(x)
    m.require(y)
    return x * y.star()


def frame_connection(m: AssociatedModule, delta: Derivation, x: TwistedPoly) -> TwistedPoly:
    """The metric connection induced by the frame:
    sum_k s_k . delta(right(s_k, x))."""
    m.require(x)
    total = TwistedPoly.zero(m.action.twist)
    for s_k in m.frame:
        total = total + s_k * delta.apply(right_inner(m, s_k, x))
    return total


def section_connection(m: AssociatedModule, lifted: LiftedDerivation, x: TwistedPoly) -> TwistedPoly:
    """Covariant derivative through a section of the derivation sequence:
    apply the lifted derivation to the module element (weights are kept)."""
    m.require(x)
    graded = lifted.apply_graded(GradedElement(m.action, {m.weight: x}))
    out = graded.to_poly()
    m.require(out)
    return out


def section_metric_report(
    m: AssociatedModule, lifted: LiftedDerivation, pairs
) -> tuple[CheckReport, CheckReport]:
    """Evaluate (never assume) the two pairing laws of a section connection.

    Returns reports for the skew-pairing condition
    right(Lx, y) + right(x, Ly) = 0 and for the metric identity
    delta(right(x, y)) = right(Lx, y) + right(x, Ly), each checked
    exactly on the supplied pairs.
    """
    skew = ReportBuilder("section-connection-skew-pairing")
    metric = ReportBuilder("section-connection-metric-identity")
    zero = TwistedPoly.zero(m.action.twist)
    for x, y in pairs:
        lx = section_connection(m, lifted, x)
        ly = section_connection(m, lifted, y)
        paired = right_inner(m, lx, y) + right_inner(m, x, ly)
        skew.expect("skew pairing", {"x": x, "y": y}, paired, zero)
        metric.expect(
            "metric identity",
            {"x": x, "y": y},
            lifted.base.apply(right_inner(m, x, y)),
            paired,
        )
    return skew.finish(), metric.finish()


@dataclass
class CurvatureValue:
    """Curvature of the frame connection at a derivation pair and element."""

    delta1: Derivation
    delta2: Derivation
    element: TwistedPoly
    value: TwistedPoly
    method: str

    def is_zero(self) -> bool:
        return self.value.is_zero()


def curvature(
    m: AssociatedModule,
    delta1: Derivation,
    delta2: Derivation,
    x: TwistedPoly,
    method: str = "commutator",
) -> CurvatureValue:
    """Curvature defect of the frame connection.

    ``method="commutator"`` evaluates [D_1, D_2](x) - D_{[1,2]}(x);
    ``method="formula"`` evaluates the closed frame expression
    sum_{k,l} s_k . ( d1(right(s_k,s_l)) d2(right(s_l,x))
                    - d2(right(s_k,s_l)) d1(right(s_l,x)) ).
    Both are exact and must agree.
    """
    m.require(x)
    if method == "commutator":
        d12 = frame_connection(m, delta1, frame_connection(m, delta2, x))
        d21 = frame_connection(m, delta2, frame_connection(m, delta1, x))
        br = bracket_derivations(delta1, delta2)
        value = d12 - d21 - frame_connection(m, br, x)
    elif method == "formula":
        value = TwistedPoly.zero(m.action.twist)
        for s_k in m.frame:
            for s_l in m.frame:
                gram = right_inner(m, s_k, s_l)
                rx = right_inner(m, s_l, x)
                value = value + s_k * (
                    delta1.apply(gram) * delta2.apply(rx)
                    - delta2.apply(gram) * delta1.apply(rx)
                )
    else:
        raise ValueError(f"unknown curvature method {method!r}")
    return CurvatureValue(delta1, delta2, x, value, method)
