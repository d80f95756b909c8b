import contextlib
import io
import random
import sys
from collections import namedtuple
from fractions import Fraction

import pytest

from nctorus import cli
from nctorus.algebra import PolyMatrix, TwistedPoly, TwistMatrix
from nctorus.dynamics import TorusAction, base_monomials
from nctorus.factor_system import IsometryFamily, from_cleft
from nctorus.geometry import left_inner, right_inner
from nctorus.phases import Phase, QQi
from nctorus.q3torus import random_rational_twist

from strategies import TW3

CliRun = namedtuple("CliRun", "returncode stdout stderr")


def run_cli(*argv, stdin=None) -> CliRun:
    """``(code, out, err)`` of ``cli.main(argv)``, run in this process.

    stdin reads ``stdin`` (empty if None), stdout and stderr are captured,
    and an argparse error's ``SystemExit`` gives its exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return CliRun(code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="session")
def q3_twist():
    return TW3


@pytest.fixture(scope="session")
def q3_action(q3_twist):
    return TorusAction(q3_twist, (2,))


@pytest.fixture(scope="session")
def q3_system(q3_action):
    return from_cleft(q3_action)


@pytest.fixture(scope="session")
def q3_gens(q3_twist):
    return tuple(TwistedPoly.generator(q3_twist, k) for k in range(3))


def pythagorean_column(action: TorusAction) -> IsometryFamily:
    """s(sigma) = (3/5 u^sigma, 4/5 u^sigma)^T for sigma != 0, s(0) = 1.

    A circle action's isometry column of height 2: s* s = 1, and
    gamma_sigma = Ad s(sigma) has d_sigma = 2 and unit the range
    projection s s*, not I_2.
    """
    tw = action.twist

    def fn(char):
        gen = TwistedPoly.generator(tw, action.coords[0], char[0])
        if not any(char):
            return PolyMatrix.from_scalar(gen)
        return PolyMatrix(
            tw,
            [[gen.scale(QQi(Fraction(3, 5)))], [gen.scale(QQi(Fraction(4, 5)))]],
        )

    return IsometryFamily(action, fn)


def probes(action: TorusAction) -> list:
    """1, every u_k^+-1 and every base monomial up to degree 2."""
    tw = action.twist
    gens = [TwistedPoly.generator(tw, k, p) for k in action.base for p in (1, -1)]
    return [TwistedPoly.one(tw), *gens, *base_monomials(action, 2)]


def wrong_size(char: str) -> str:
    """Pattern of the error naming a 1 x 1 witness at a character with d = 2."""
    return rf"witness at \({char},\) is 1x1, but that character needs 2x2"


def random_qqi(rng: random.Random, span: int = 3) -> QQi:
    while True:
        c = QQi(rng.randint(-span, span), rng.randint(-span, span))
        if not c.is_zero():
            return c


def random_poly(
    rng: random.Random,
    twist: TwistMatrix,
    max_terms: int = 6,
    exp_range: int = 3,
    with_phases: bool = False,
) -> TwistedPoly:
    total = TwistedPoly.zero(twist)
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(-exp_range, exp_range) for _ in range(twist.n))
        coeff = random_qqi(rng)
        if with_phases:
            qexp = tuple(rng.randint(-1, 1) for _ in range(twist.nslots))
            phase = Phase(twist.nslots, {(qexp, 0): coeff})
        else:
            phase = Phase.coeff(twist.nslots, coeff)
        total = total + TwistedPoly(twist, {exps: phase})
    return total


def random_skew_scalar(rng: random.Random, twist: TwistMatrix) -> TwistedPoly:
    """Random nonzero skew-adjoint central scalar (star(h) = -h)."""
    nslots = twist.nslots
    kind = rng.randrange(3)
    c = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1))
    if kind == 0:
        # purely imaginary rational, optionally times a tau power
        phase = Phase.tau(nslots, rng.randint(0, 2), QQi(0, c))
    elif kind == 1 and nslots:
        # i * (q^e + q^-e) is skew because conjugation flips the exponent
        e = [0] * nslots
        e[rng.randrange(nslots)] = rng.randint(1, 2)
        key_p, key_m = (tuple(e), 0), (tuple(-x for x in e), 0)
        phase = Phase(nslots, {key_p: QQi(0, c), key_m: QQi(0, c)})
    else:
        # q^e - q^-e is skew with a real coefficient
        e = [0] * nslots
        if nslots:
            e[rng.randrange(nslots)] = rng.randint(1, 2)
        key_p, key_m = (tuple(e), 0), (tuple(-x for x in e), 0)
        if key_p == key_m:
            phase = Phase.coeff(nslots, QQi(0, c))
        else:
            phase = Phase(nslots, {key_p: QQi(c), key_m: QQi(-c)})
    return TwistedPoly.scalar(twist, phase)


def random_circle_action(rng: random.Random, n_choices=(2, 3, 4), max_den: int = 12) -> TorusAction:
    """Random twist with a circle acting on one randomly chosen generator."""
    n = rng.choice(list(n_choices))
    twist = random_rational_twist(rng, n, max_den)
    return TorusAction(twist, (rng.randrange(n),))


def random_base_poly(
    rng: random.Random,
    action: TorusAction,
    max_terms: int = 3,
    exp_range: int = 2,
) -> TwistedPoly:
    """Random element of the fixed algebra with small integer coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * action.twist.n
        for k in action.base:
            e[k] = rng.randint(-exp_range, exp_range)
        c = QQi(rng.randint(-3, 3), rng.randint(-3, 3))
        if not c.is_zero():
            poly = TwistedPoly.monomial(action.twist, e, c)
            terms[tuple(e)] = poly
    total = TwistedPoly.zero(action.twist)
    for poly in terms.values():
        total = total + poly
    return total


def unimodular_phase(rng: random.Random, nslots: int) -> Phase:
    """Random exact unimodular scalar: fourth root of unity times q units."""
    roots = [QQi(1), QQi(-1), QQi(0, 1), QQi(0, -1)]
    e = tuple(rng.randint(-2, 2) for _ in range(nslots))
    return Phase(nslots, {(e, 0): rng.choice(roots)})


def frame_completeness(m) -> bool:
    """The frame of an associated module satisfies sum_k left(s_k, s_k) = 1."""
    total = TwistedPoly.zero(m.action.twist)
    for s_k in m.frame:
        total = total + left_inner(m, s_k, s_k)
    return total == TwistedPoly.one(m.action.twist)


def reproduces(m, x: TwistedPoly) -> bool:
    """The frame reproduces x: sum_k s_k right(s_k, x) = x."""
    m.require(x)
    total = TwistedPoly.zero(m.action.twist)
    for s_k in m.frame:
        total = total + s_k * right_inner(m, s_k, x)
    return total == x


def theta_float(twist: TwistMatrix):
    """The twist angles as floats, for the numeric boundary."""
    return [[float(x) for x in row] for row in twist.theta]
