"""Reference checks for the lift lane.

Three shortcuts on the lifting pipeline are compared here with the
definitions they replace:

* centrality of a cocycle value, read off the integer reordering form,
  against the products x u_k and u_k x for every base generator u_k;
* ``MatrixMorphism.apply``, each cached monomial image scaled by its
  term's phase (``PolyMatrix.scaled``), against conjugation by the
  isometry column, s x s*, and against the sum over single terms;
* the cached adjoint s(sigma)* of an isometry family against
  ``s(sigma).adjoint()``, and the rule that a column failing its check
  leaves nothing cached.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.algebra import PolyMatrix, TwistedPoly, TwistMatrix
from nctorus.cohomology import _is_central
from nctorus.dynamics import TorusAction, char_box
from nctorus.factor_system import IsometryFamily, from_cleft
from nctorus.phases import Phase, QQi

from conftest import pythagorean_column

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_UNITS = [QQi(1), QQi(-1), QQi(0, 1), QQi(0, -1)]
_nonzero_qqi = st.one_of(
    st.sampled_from(_UNITS),
    st.builds(QQi, st.integers(-4, 4), st.integers(-4, 4)),
).filter(lambda c: not c.is_zero())


@st.composite
def twists(draw, n_min=2):
    n = draw(st.integers(n_min, 4))
    theta = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        for l in range(k + 1, n):
            theta[k][l] = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 7)))
            theta[l][k] = -theta[k][l]
    return TwistMatrix(theta)


def phases(nslots: int, max_terms: int = 3):
    key = st.tuples(st.tuples(*[st.integers(-2, 2) for _ in range(nslots)]), st.integers(0, 1))
    return st.dictionaries(key, _nonzero_qqi, min_size=1, max_size=max_terms).map(
        lambda terms: Phase(nslots, terms)
    ).filter(lambda p: not p.is_zero())


def sparse_polys(twist: TwistMatrix, max_terms: int = 3):
    """Polynomials whose exponents are mostly 0, so central ones are drawn too."""
    exps = st.tuples(*[st.sampled_from([0, 0, 0, 1, -1, 2]) for _ in range(twist.n)])
    return st.dictionaries(exps, phases(twist.nslots), min_size=1, max_size=max_terms).map(
        lambda terms: TwistedPoly(twist, terms)
    )


@st.composite
def actions_and_polys(draw):
    """A twist, an action with 0, 1 or 2 base generators, and any x."""
    tw = draw(twists())
    n_base = draw(st.integers(0, min(2, tw.n)))
    base = draw(st.permutations(range(tw.n)))[:n_base]
    action = TorusAction(tw, [j for j in range(tw.n) if j not in base])
    return action, draw(sparse_polys(tw))


# ---------------------------------------------------------------------------
# centrality from the reordering form
# ---------------------------------------------------------------------------


def central_by_products(action: TorusAction, x: TwistedPoly) -> bool:
    gens = [TwistedPoly.generator(action.twist, k) for k in action.base]
    return all(x * g == g * x for g in gens)


@settings(max_examples=200, deadline=None)
@given(actions_and_polys())
def test_is_central_matches_product_definition(case):
    action, x = case
    assert _is_central(action, x) == central_by_products(action, x)


def test_is_central_on_known_elements(q3_action, q3_gens):
    u1, u2, u3 = q3_gens
    tw = q3_action.twist
    scalar = TwistedPoly.scalar(tw, Phase.unit(tw.nslots, 0, 2, QQi(3, -1)))
    # u3 is acted on, yet it does not commute with u1 or u2
    for x, central in (
        (scalar, True),
        (TwistedPoly.one(tw) + scalar, True),
        (u1, False),
        (u3, False),
        (scalar + u2, False),
    ):
        assert _is_central(q3_action, x) is central
        assert central_by_products(q3_action, x) is central
    # with u1 alone in the fixed algebra, every polynomial in u1 is central
    only_u1 = TorusAction(tw, (1, 2))
    assert _is_central(only_u1, u1 * u1 + scalar)
    assert not _is_central(only_u1, u1 * u2)


# ---------------------------------------------------------------------------
# MatrixMorphism.apply through PolyMatrix.scaled
# ---------------------------------------------------------------------------

Q3 = TwistMatrix(
    [
        [0, Fraction(1, 4), Fraction(-1, 3)],
        [Fraction(-1, 4), 0, Fraction(-1, 6)],
        [Fraction(1, 3), Fraction(1, 6), 0],
    ]
)
Q3_ACTION = TorusAction(Q3, (2,))
SYSTEMS = {
    "d=1": (from_cleft(Q3_ACTION), IsometryFamily.from_cleft_generators(Q3_ACTION)),
    "d=2": (from_cleft(Q3_ACTION, pythagorean_column(Q3_ACTION)), pythagorean_column(Q3_ACTION)),
}
_base_exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(lambda e: (e[0], e[1], 0))
_lane_phases = st.one_of(
    st.just(Phase.one(Q3.nslots)),  # unit: the cached image itself
    st.builds(lambda c: Phase.coeff(Q3.nslots, c), _nonzero_qqi),  # non-unit
    phases(Q3.nslots, max_terms=3),  # multi-term
)
_base_polys = st.dictionaries(_base_exps, _lane_phases, min_size=1, max_size=3).map(
    lambda terms: TwistedPoly(Q3, terms)
)


def conjugated(s: IsometryFamily, char, x: TwistedPoly) -> PolyMatrix:
    """gamma_sigma(x) by its definition: s(sigma) x s(sigma)*."""
    return s(char) * PolyMatrix.from_scalar(x) * s(char).adjoint()


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(char_box(1, 2)), _base_polys)
def test_apply_matches_conjugation_and_the_sum_over_terms(system, char, x):
    fs, s = SYSTEMS[system]
    g = fs.gamma(char)
    got = g.apply(x)
    assert got == conjugated(s, char, x)
    total = PolyMatrix.zeros(Q3, g.dim, g.dim)
    for a, phase in x.terms.items():
        term = g.apply(TwistedPoly(Q3, {a: phase}))
        assert term == conjugated(s, char, TwistedPoly(Q3, {a: phase}))
        total = total + term
    assert got == total


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_scaled_matches_entrywise_scale(data):
    rows, cols = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    entry = st.one_of(st.just(TwistedPoly.zero(Q3)), sparse_polys(Q3))
    m = PolyMatrix(Q3, [[data.draw(entry) for _ in range(cols)] for _ in range(rows)])
    phase = data.draw(phases(Q3.nslots))
    got = m.scaled(phase)
    assert got == m.map(lambda e: e.scale(phase))
    for row in got.entries:
        for e in row:
            assert all(not p.is_zero() for p in e.terms.values())


# ---------------------------------------------------------------------------
# the cached adjoint family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_cached_adjoint_matches_adjoint(system):
    _, s = SYSTEMS[system]
    for char in char_box(1, 3):
        first = s.adjoint(char)
        assert first == s(char).adjoint()
        assert s.adjoint(list(char)) is first


def test_failing_column_leaves_no_adjoint():
    calls = []

    def fn(char):
        calls.append(char)
        gen = TwistedPoly.generator(Q3, 2, char[0])
        # 2 u3 is not an isometry
        return PolyMatrix.from_scalar(gen.scale(QQi(2)) if char == (1,) else gen)

    s = IsometryFamily(Q3_ACTION, fn)
    assert s.adjoint((-1,)) == PolyMatrix.from_scalar(TwistedPoly.generator(Q3, 2))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"not an isometry"):
            s.adjoint((1,))
    assert calls == [(-1,), (1,), (1,)]
    assert (1,) not in s._cache and (1,) not in s._adjoints
