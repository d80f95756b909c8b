"""Every character-indexed value goes through one memo, ``CharacterFamily``.

gamma and omega of a factor system, and the values and twistings of a
2-cocycle, are character families: a value is computed on first use,
checked, and only then cached.  These tests pin what that buys: override
systems that share their parent's values, no caching of a failure, and
d_sigma read off gamma_sigma.
"""

import pytest

from nctorus.algebra import PolyMatrix, TwistedPoly
from nctorus.cohomology import TwoCocycle, WitnessError
from nctorus.factor_system import (
    AlgebraMorphism,
    Automorphism,
    CharacterFamily,
    FactorSystem,
    apply_automorphism,
    from_cleft,
)
from nctorus.phases import Phase, QQi

from conftest import pythagorean_column

CHARS = [(k,) for k in range(-2, 3)]


def test_pair_keys_reach_the_function_as_characters(q3_action):
    seen = []

    def fn(sigma, pi_):
        seen.append((sigma, pi_))
        return sigma[0] + pi_[0]

    fam = CharacterFamily(q3_action, fn)
    assert fam([1], (2,)) == 3
    assert fam((1,), [2]) == 3
    assert seen == [((1,), (2,))]


def test_override_reads_its_parent_everywhere_else(q3_action, q3_gens):
    fs = from_cleft(q3_action)
    bad = PolyMatrix.from_scalar(q3_gens[0])
    fs2 = fs.with_omega_override((1,), (1,), bad)
    assert fs2.omega((1,), (1,)) is bad
    for sigma in CHARS:
        assert fs2.gamma(sigma) is fs.gamma(sigma)
        for pi_ in CHARS:
            if (sigma, pi_) != ((1,), (1,)):
                assert fs2.omega(sigma, pi_) is fs.omega(sigma, pi_)
    # the parent keeps its own value at the overridden key
    assert fs.omega((1,), (1,)) == PolyMatrix.from_scalar(TwistedPoly.one(q3_action.twist))
    assert fs2.isometries is fs.isometries


def test_overrides_stack(q3_action, q3_gens):
    fs = from_cleft(q3_action)
    a = PolyMatrix.from_scalar(q3_gens[0])
    b = PolyMatrix.from_scalar(q3_gens[1])
    fs3 = fs.with_omega_override((1,), (1,), a).with_omega_override((0,), (2,), b)
    assert fs3.omega((1,), (1,)) is a
    assert fs3.omega((0,), (2,)) is b
    assert fs3.omega((2,), (0,)) is fs.omega((2,), (0,))


def test_failing_gamma_is_never_cached(q3_action):
    good = from_cleft(q3_action)
    calls = []

    def gamma_fn(char):
        calls.append(char)
        if len(calls) <= 2:
            raise ValueError("not yet")
        return good.gamma(char)

    fs = FactorSystem(q3_action, gamma_fn, good.omega)
    for expected in (1, 2):
        with pytest.raises(ValueError, match="not yet"):
            fs.gamma((1,))
        assert len(calls) == expected
    g = fs.gamma((1,))
    assert len(calls) == 3
    assert fs.gamma((1,)) is g and fs.dim((1,)) == g.dim
    assert len(calls) == 3


def test_dim_is_the_size_of_gamma(q3_action):
    cleft = from_cleft(q3_action)
    beta = Automorphism.diagonal(q3_action, {0: Phase.coeff(q3_action.twist.nslots, QQi(0, 1))})
    transported = apply_automorphism(cleft, beta)
    s = pythagorean_column(q3_action)
    column = from_cleft(q3_action, s)
    for fs in (cleft, transported, column):
        for sigma in CHARS:
            assert fs.dim(sigma) == fs.gamma(sigma).dim
    for sigma in CHARS:
        assert transported.dim(sigma) == cleft.dim(sigma) == 1
        assert column.dim(sigma) == s(sigma).rows == (2 if any(sigma) else 1)


def test_failing_cocycle_value_raises_every_time(q3_action, q3_gens):
    one = TwistedPoly.one(q3_action.twist)
    calls = []

    def value_fn(sigma, pi_):
        calls.append((sigma, pi_))
        return one + q3_gens[0] if (sigma, pi_) == ((1,), (1,)) else one

    u = TwoCocycle(q3_action, value_fn)
    for expected in (1, 2):
        with pytest.raises(WitnessError, match=r"cocycle value at \(\(1,\), \(1,\)\) is not central"):
            u.value((1,), (1,))
        assert len(calls) == expected
    assert u.value((0,), (1,)) is u.value((0,), (1,))
    assert len(calls) == 3


def test_default_twist_is_one_shared_identity(q3_action):
    one = TwistedPoly.one(q3_action.twist)
    u = TwoCocycle(q3_action, lambda s, p: one)
    ident = AlgebraMorphism.identity(q3_action)
    for sigma in CHARS:
        assert u.delta(sigma).equals_on_generators(ident)
        assert u.delta(sigma) is u.delta((0,))
    assert u.has_trivial_twist(CHARS)
