"""Cocycle values in the phase ring, against the generic formula.

On a generator family, when the witnesses v(pi), v(sigma), v(sigma+pi)
and omega(pi, sigma) of the system are 1 x 1 scalars at u^0,
``extract_cocycle`` forms

    u(sigma, pi) = v(sigma+pi) conj(v(pi) v(sigma) omega(pi, sigma)) omega_s(pi, sigma)

with phase products only (``factor_system`` module docstring), where
omega_s(pi, sigma) = q^s(M pi, M sigma) is read off the columns.  Every
value here is compared with ``reference.cocycle_value``, the formula
s(sigma+pi)* beta^-1(v(sigma+pi) P*) s(pi) s(sigma) with every product
formed, and a value that must take the generic formula instead is told by
its Kronecker product s(pi) ox s(sigma), which the phase-ring value never
forms.  Inputs: scalar witnesses, central monomial witnesses (generic), a
scalar and a non-scalar omega override, columns c u^(M sigma) with c != 1
and the d = 2 Pythagorean column (both generic everywhere), rank 2, and
the synthetic cocycle's key shift at the ends of the exponent range.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.algebra import PolyMatrix, TwistedPoly
from nctorus.cli import ConfigError, parse_action, parse_synthetic_cocycle
from nctorus.cohomology import extract_cocycle
from nctorus.dynamics import TorusAction, char_box, placed
from nctorus.factor_system import (
    Automorphism,
    IsometryFamily,
    PartialIsometryFamily,
    from_cleft,
)
from nctorus.phases import Phase, QQi

from conftest import pythagorean_column, run_cli
import reference
from reference import B
from strategies import actions

SETTINGS = settings(deadline=None, derandomize=True, max_examples=25)

# unimodular coefficients, (3 + 4i)/5 among them: not a root of unity
UNITS = [QQi(1), QQi(-1), QQi(0, 1), QQi(0, -1), QQi("3/5", "4/5"), QQi("-4/5", "3/5")]
NOT_ONE = UNITS[1:]


def _unit_phase(rng: random.Random, nslots: int, coeffs=UNITS) -> Phase:
    """c q^e with |c| = 1 and e in -2..2."""
    e = tuple(rng.randint(-2, 2) for _ in range(nslots))
    return Phase(nslots, {(e, 0): rng.choice(coeffs)})


def _rng(seed: int, char) -> random.Random:
    return random.Random(f"{seed}:{tuple(char)}")


def _scalar_witness(action: TorusAction, seed: int) -> PartialIsometryFamily:
    """v(sigma) = c q^e, drawn per character, and v(0) = 1."""
    tw = action.twist

    def fn(char):
        if not any(char):
            return PolyMatrix.identity(tw, 1)
        return PolyMatrix.from_scalar(TwistedPoly.scalar(tw, _unit_phase(_rng(seed, char), tw.nslots)))

    return PartialIsometryFamily(action, fn)


def _central_witness(action: TorusAction, seed: int) -> PartialIsometryFamily:
    """v(sigma) = c u_b^k with k != 0 for sigma != 0, and v(0) = 1: central in
    B0, which is commutative on one base generator b."""
    tw = action.twist
    (b,) = action.base

    def fn(char):
        if not any(char):
            return PolyMatrix.identity(tw, 1)
        rng = _rng(seed, char)
        k = rng.choice([-2, -1, 1, 2])
        e = [0] * tw.n
        e[b] = k
        return PolyMatrix.from_scalar(TwistedPoly.monomial(tw, e, _unit_phase(rng, tw.nslots)))

    return PartialIsometryFamily(action, fn)


def _coefficient_columns(action: TorusAction, seed: int) -> IsometryFamily:
    """s(sigma) = c u^(M sigma) with c != 1 drawn per character, and s(0) = 1."""
    tw = action.twist

    def fn(char):
        if not any(char):
            return PolyMatrix.identity(tw, 1)
        c = _unit_phase(_rng(seed, char), tw.nslots, NOT_ONE)
        return PolyMatrix.from_scalar(TwistedPoly.monomial(tw, placed(action, char), c))

    return IsometryFamily(action, fn)


def _diagonal(action: TorusAction, seed: int) -> Automorphism:
    """u_k -> w_k u_k for unimodular phases w_k: it commutes with every gamma_sigma
    = Ad c u^m, so a scalar (or, on a commutative B0, central) witness conjugates."""
    rng = _rng(seed, "beta")
    return Automorphism.diagonal(action, {k: _unit_phase(rng, action.twist.nslots) for k in action.base})


def _compare(fs, beta, v, generic) -> None:
    """Every value on the radius-1 box equals the reference, and takes the
    generic formula (forms s(pi) ox s(sigma)) exactly when ``generic(sigma, pi)``."""
    u = extract_cocycle(fs, beta, v, char_range=1)
    box = char_box(fs.action.d, 1)
    with pytest.MonkeyPatch.context() as mp:
        krons = []
        kron = PolyMatrix.kron

        def counting(self, other):
            krons.append(other)
            return kron(self, other)

        mp.setattr(PolyMatrix, "kron", counting)
        for sigma in box:
            for pi_ in box:
                del krons[:]
                value = u.value(sigma, pi_)
                assert bool(krons) == generic(sigma, pi_), (sigma, pi_)
                assert value == reference.cocycle_value(fs, beta, v, sigma, pi_), (sigma, pi_)


def _never(sigma, pi_):
    return False


def _off_origin(sigma, pi_):
    return any(sigma) or any(pi_)


def _always(sigma, pi_):
    return True


# one base generator, so B0 is commutative; rank at most 2 keeps the box small
ONE_BASE = actions(ranks=lambda n: st.just(n - 1)).filter(lambda a: a.d <= 2)


# ---------------------------------------------------------------------------
# values in the phase ring
# ---------------------------------------------------------------------------


@SETTINGS
@given(actions(ranks=lambda n: st.integers(1, 2)), st.integers(0, 10**6))
def test_scalar_witnesses_take_the_phase_ring(action, seed):
    fs = from_cleft(action)
    _compare(fs, _diagonal(action, seed), _scalar_witness(action, seed), _never)


@SETTINGS
@given(actions(ranks=lambda n: st.just(2)), st.integers(0, 10**6))
def test_rank_two_reads_the_reordering_of_m_pi_before_m_sigma(action, seed):
    fs = from_cleft(action)
    _compare(fs, _diagonal(action, seed), _scalar_witness(action, seed), _never)


@SETTINGS
@given(actions(ranks=lambda n: st.integers(1, 2)), st.integers(0, 10**6))
def test_columns_with_a_coefficient_take_the_generic_formula(action, seed):
    fs = from_cleft(action, _coefficient_columns(action, seed))
    _compare(fs, _diagonal(action, seed), _scalar_witness(action, seed), _always)


@SETTINGS
@given(ONE_BASE, st.integers(0, 10**6))
def test_central_monomial_witnesses_take_the_generic_formula(action, seed):
    fs = from_cleft(action)
    _compare(fs, _diagonal(action, seed), _central_witness(action, seed), _off_origin)


@SETTINGS
@given(actions(ranks=lambda n: st.integers(1, 2)), st.integers(0, 10**6), st.data())
def test_a_scalar_omega_override_enters_p_and_not_the_outer_factor(action, seed, data):
    box = char_box(action.d, 1)
    sigma0, pi0 = data.draw(st.sampled_from(box)), data.draw(st.sampled_from(box))
    c = _unit_phase(_rng(seed, "omega"), action.twist.nslots, NOT_ONE)
    fs = from_cleft(action).with_omega_override(
        sigma0, pi0, PolyMatrix.from_scalar(TwistedPoly.scalar(action.twist, c)))
    _compare(fs, _diagonal(action, seed), _scalar_witness(action, seed), _never)


@SETTINGS
@given(ONE_BASE, st.integers(0, 10**6), st.data())
def test_a_non_scalar_omega_override_takes_the_generic_formula(action, seed, data):
    box = char_box(action.d, 1)
    sigma0, pi0 = data.draw(st.sampled_from(box)), data.draw(st.sampled_from(box))
    tw = action.twist
    ub = TwistedPoly.generator(tw, action.base[0])
    fs = from_cleft(action).with_omega_override(sigma0, pi0, PolyMatrix.from_scalar(ub))
    _compare(fs, _diagonal(action, seed), _scalar_witness(action, seed),
             lambda sigma, pi_: (pi_, sigma) == (sigma0, pi0))  # u(sigma, pi) reads omega(pi, sigma)


@SETTINGS
@given(actions(ranks=lambda n: st.just(1)), st.integers(0, 10**6))
def test_the_pythagorean_column_takes_the_generic_formula(action, seed):
    fs = from_cleft(action, pythagorean_column(action))
    _compare(fs, _diagonal(action, seed), PartialIsometryFamily.units(fs), _always)


def test_witnesses_are_read_at_pi_then_sigma_then_their_sum(q3_system):
    read = []

    def fn(char):
        read.append(char)
        return PolyMatrix.identity(q3_system.action.twist, 1)

    v = PartialIsometryFamily(q3_system.action, fn)
    u = extract_cocycle(q3_system, Automorphism.identity(q3_system.action), v, char_range=0)
    del read[:]
    u.value((1,), (2,))
    assert read == [(2,), (1,), (3,)]


# ---------------------------------------------------------------------------
# the synthetic cocycle's key shift
# ---------------------------------------------------------------------------

SYNTHETIC = {
    "n": 2,
    "theta": [["0", "1/5"], ["-1/5", "0"]],
    "acting_coords": [1, 2],
    "char_range": 1,
}


def _synthetic(power: int):
    """The rank-2 synthetic cocycle whose value at (e_1, e_1) is q12^power."""
    cfg = {"slot": [1, 2], "bilinear_exponents": [[power, 0], [0, 1]]}
    return parse_action(SYNTHETIC), cfg


@pytest.mark.parametrize("power", [B - 1, -(B - 1), -B, 1, -1, 0])
def test_a_synthetic_power_is_one_key_shift(power):
    action, cfg = _synthetic(power)
    u = parse_synthetic_cocycle(action, cfg)
    value = u.value((1, 0), (1, 0))
    assert value == TwistedPoly.scalar(action.twist, Phase(1, {((power,), 0): QQi(1)}))
    if power == 0:
        assert value is action.twist.one


def test_a_synthetic_power_past_the_range_names_its_path():
    action, cfg = _synthetic(B)
    with pytest.raises(ConfigError, match=r"^cocycle\.bilinear_exponents: phase exponent outside"):
        parse_synthetic_cocycle(action, cfg).value((1, 0), (1, 0))
    proc = run_cli("lift", "--config", "-", "--json",
                   stdin=json.dumps({**SYNTHETIC, "cocycle": cfg}))
    assert proc.returncode == 2
    # the box starts at (-1, -1), whose value at ((-1, -1), (-1, -1)) has the power 2^62 + 1
    assert json.loads(proc.stdout)["error"].startswith(
        "cocycle.bilinear_exponents: phase exponent outside the packed range [-2^62, 2^62): ")
