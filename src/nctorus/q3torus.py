"""Builders for the quantum 3-torus with its restricted gauge circle.

The circle scales the third generator and fixes the first two, so the
fixed algebra is the quantum 2-torus on u1, u2 and the weight monomials
u3^k make the action cleft.  These builders back the command-line demo
and the test corpus; ``random_rational_twist`` draws exact rational
angles for seeded fuzzing.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import TwistMatrix, TwistedPoly
from .derivations import HFamily, scaling_derivation, two_pi_i
from .dynamics import TorusAction


def standard_angles() -> tuple[Fraction, Fraction, Fraction]:
    return Fraction(1, 4), Fraction(-1, 3), Fraction(-1, 6)


def twist3(t12, t13, t23) -> TwistMatrix:
    t12, t13, t23 = Fraction(t12), Fraction(t13), Fraction(t23)
    return TwistMatrix(
        [
            [0, t12, t13],
            [-t12, 0, t23],
            [-t13, -t23, 0],
        ]
    )


def restricted_gauge_action(twist: TwistMatrix | None = None) -> TorusAction:
    if twist is None:
        twist = twist3(*standard_angles())
    if twist.n != 3:
        raise ValueError("the restricted gauge circle lives on three generators")
    return TorusAction(twist, (2,))


def base_scaling_derivation(action: TorusAction, k: int):
    """Restriction of the k-th gauge generator to the fixed algebra."""
    return scaling_derivation(action.twist, action.base, k)


def gauge_h_family(action: TorusAction) -> HFamily:
    """The family H(k) = 2*pi*i*k generating the gauge circle kernel."""
    slopes = [two_pi_i(action.twist) for _ in range(action.d)]
    return HFamily.linear_scalar(action, slopes)


def random_rational_twist(rng: random.Random, n: int, max_den: int = 12) -> TwistMatrix:
    """Skew-symmetric twist with random exact rational angles."""
    theta = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        for l in range(k + 1, n):
            den = rng.randint(1, max_den)
            num = rng.randint(-den, den)
            theta[k][l] = Fraction(num, den)
            theta[l][k] = -theta[k][l]
    return TwistMatrix(theta)


def all_weight_monomials(action: TorusAction, char, gen_degree: int):
    """Monomials of a given weight: base monomials times the weight monomial."""
    from .dynamics import base_monomials, cleft_generator

    s = cleft_generator(action, char)
    return [b * s for b in base_monomials(action, gen_degree)]
