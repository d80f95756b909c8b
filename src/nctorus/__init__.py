"""Exact symbolic toolkit for free torus actions on quantum tori.

Twisted Laurent polynomials with formal phase coefficients, isotypic
grading, factor systems and their verifiers, the group-cohomological
obstruction calculus for lifting automorphisms, derivation lifts with
their gauge Lie algebra, and frame connections with curvature on
associated modules.  Everything is exact.  Ring values (phases,
polynomials, matrices) are immutable.  Every character-indexed value
(gamma, omega, isometries, witnesses, H families, and the cocycle values
u and twistings Delta) lives in a ``CharacterFamily``, the one memo for
them, and each morphism caches its generator powers and monomial
images; all fill in place on first use.  The cached values are pure
functions of their keys, so a cache only ever gains entries that any
caller would compute identically.  A morphism's monomial cache is
bounded by the distinct monomials it is applied to: in the verifiers,
the character box times the degree.  There is one morphism class,
``MatrixMorphism`` (B0 -> Mat_d(B0), the coactions gamma_sigma);
``AlgebraMorphism``, a morphism of B0 itself, is its d = 1 case.
"""

from .algebra import (
    PolyMatrix,
    TwistedPoly,
    TwistMatrix,
    TwistMismatchError,
    numeric_product,
)
from .cohomology import (
    LiftedAutomorphism,
    LiftOutcome,
    Obstruction,
    OneCochain,
    TwoCocycle,
    WitnessError,
    extract_cocycle,
    lift_via_cohomology,
    pointwise_ratio,
    solve_coboundary,
    trivialize,
    updated_witness,
    verify_cocycle,
)
from .derivations import (
    ConnectionSection,
    Derivation,
    DerivationError,
    HFamily,
    LiftedDerivation,
    SectionEntry,
    atiyah_check,
    bracket,
    bracket_derivations,
    crossed_hom_report,
    gauge_report,
    scaling_derivation,
    two_pi_i,
    verify_lift_conditions,
)
from .dynamics import (
    Character,
    GradedElement,
    TorusAction,
    base_monomials,
    char_add,
    char_box,
    char_neg,
    char_zero,
    cleft_generator,
    fixed_part,
    grade,
    inner_product,
    is_equivariant,
)
from .factor_system import (
    AlgebraMorphism,
    Automorphism,
    FactorSystem,
    IsometryFamily,
    MatrixMorphism,
    PartialIsometryFamily,
    ScopeError,
    apply_automorphism,
    frohlich_map,
    frohlich_morphism,
    from_cleft,
    isotypic_mul,
    twisted_product,
    verify_axioms,
    verify_conjugacy,
    verify_gauge_unitary,
)
from .geometry import (
    AssociatedModule,
    ModuleMembershipError,
    curvature,
    frame_connection,
    left_inner,
    make_module,
    right_inner,
    section_connection,
    section_metric_report,
)
from .phases import Phase, PhaseRangeError, QQi
from .report import CheckReport, Counterexample

__all__ = [name for name in dir() if not name.startswith("_")]
