"""Hypothesis strategies shared by the tests.

Ring operands come in named input classes, each for what it reaches:

* ``small``: exponents in -2..2, so products stay far inside the range;
* ``wide``: small exponents mixed with exponents next to the ends of
  [-2^62, 2^62) (polynomial exponents near 2^31 and 2^32, whose products
  a_i*b_j reach 2^62), so that products reach and pass the range;
* ``dense``: exponents in -1..1, so that term pairs meet on output keys
  and coefficients over different denominators add up;
* ``sparse``: polynomial exponents that are mostly 0, so that central
  elements are drawn too.
"""

from fractions import Fraction

from hypothesis import strategies as st

from nctorus.algebra import TwistedPoly, TwistMatrix
from nctorus.dynamics import TorusAction
from nctorus.phases import Phase, QQi
from nctorus.q3torus import standard_angles, twist3

from reference import B

TW3 = twist3(*standard_angles())
N = TW3.nslots

UNITS = [QQi(1), QQi(-1), QQi(0, 1), QQi(0, -1)]
fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
nonzero_fractions = st.builds(Fraction, st.one_of(st.integers(-5, -1), st.integers(1, 5)),
                              st.integers(1, 4))


def nonzero_parts(parts, nonzero):
    """(re, im) pairs of ``parts`` that are not both zero, drawn by construction
    (a filter would spend draws on rejections): a nonzero re from ``nonzero``
    with any im, or re = 0 with a nonzero im."""
    return st.one_of(st.tuples(nonzero, parts), st.tuples(st.just(Fraction(0)), nonzero))


qqis = st.one_of(st.sampled_from(UNITS + [QQi(0)]), st.builds(QQi, fractions, fractions))
# the nonzero values of qqis
nonzero_qqis = st.one_of(
    st.sampled_from(UNITS), nonzero_parts(fractions, nonzero_fractions).map(lambda p: QQi(*p))
)

SMALL = st.integers(-2, 2)
WIDE = st.one_of(
    SMALL,
    st.sampled_from([-B, -B + 1, -B + 2, B - 3, B - 2, B - 1, B // 2, -B // 2, B // 2 - 1]),
)
DENSE = st.integers(-1, 1)

_POLY_EXPONENTS = {
    "small": SMALL,
    "wide": st.one_of(SMALL, st.sampled_from([1 << 31, -(1 << 31), 1 << 32, 3])),
    "dense": DENSE,
    "sparse": st.sampled_from([0, 0, 0, 1, -1, 2]),
}


@st.composite
def twists(draw):
    """A random rational twist on 2, 3 or 4 generators."""
    n = draw(st.sampled_from([2, 3, 4]))
    theta = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        for l in range(k + 1, n):
            theta[k][l] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 12)))
            theta[l][k] = -theta[k][l]
    return TwistMatrix(theta)


@st.composite
def actions(draw, ranks=lambda n: st.integers(1, min(n, 3))):
    """A random twist and an action of a rank drawn from ``ranks(n)`` on
    generators in random order."""
    tw = draw(twists())
    d = draw(ranks(tw.n))
    return TorusAction(tw, draw(st.permutations(range(tw.n)))[:d])


def keys(nslots: int, cls: str = "small"):
    """Phase keys (e, t); half the wide keys are small, so that many
    products stay in range."""
    def of(exps):
        return st.tuples(st.tuples(*[exps] * nslots), exps)

    if cls == "wide":
        return st.one_of(of(SMALL), of(WIDE))
    return of(DENSE if cls == "dense" else SMALL)


def phases(nslots: int, cls: str = "small", terms=(1, 3), coeffs=nonzero_qqis):
    return st.dictionaries(keys(nslots, cls), coeffs, min_size=terms[0], max_size=terms[1]).map(
        lambda t: Phase(nslots, t)
    )


def polys(twist: TwistMatrix, cls: str = "small", terms=(1, 3), phase_terms=(1, 3),
          coeffs=nonzero_qqis):
    exps = st.tuples(*[_POLY_EXPONENTS[cls]] * twist.n)
    phase_cls = "small" if cls == "sparse" else cls
    return st.dictionaries(
        exps,
        phases(twist.nslots, phase_cls, phase_terms, coeffs),
        min_size=terms[0],
        max_size=terms[1],
    ).map(lambda t: TwistedPoly(twist, t))
