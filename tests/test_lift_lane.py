"""Reference checks for the lift lane.

Three shortcuts on the lifting pipeline are compared here with the
definitions they replace:

* centrality of a cocycle value, read off the integer reordering form,
  against the products x u_k and u_k x for every base generator u_k, on
  known elements (the property test is in ``test_conjugation.py``);
* ``MatrixMorphism.apply``, each cached monomial image scaled by its
  term's phase (``PolyMatrix.scaled``), against conjugation by the
  isometry column, s x s*, and against the sum over single terms;
* the cached adjoint s(sigma)* of an isometry family against
  ``s(sigma).adjoint()``, and the rule that a column failing its check
  leaves nothing cached.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.algebra import PolyMatrix, TwistedPoly
from nctorus.cohomology import _is_central
from nctorus.dynamics import TorusAction, char_box
from nctorus.factor_system import IsometryFamily, from_cleft
from nctorus.phases import Phase, QQi

from conftest import pythagorean_column
import reference
from strategies import TW3, nonzero_qqis, phases, polys


# ---------------------------------------------------------------------------
# centrality from the reordering form
# ---------------------------------------------------------------------------


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
        assert reference.is_central(q3_action, x) is central
    # with u1 alone in the fixed algebra, every polynomial in u1 is central
    only_u1 = TorusAction(tw, (1, 2))
    assert _is_central(only_u1, u1 * u1 + scalar)
    assert not _is_central(only_u1, u1 * u2)


# ---------------------------------------------------------------------------
# MatrixMorphism.apply through PolyMatrix.scaled
# ---------------------------------------------------------------------------

Q3_ACTION = TorusAction(TW3, (2,))
SYSTEMS = {
    "d=1": (from_cleft(Q3_ACTION), IsometryFamily.from_cleft_generators(Q3_ACTION)),
    "d=2": (from_cleft(Q3_ACTION, pythagorean_column(Q3_ACTION)), pythagorean_column(Q3_ACTION)),
}
_base_exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(lambda e: (e[0], e[1], 0))
_lane_phases = st.one_of(
    st.just(Phase.one(TW3.nslots)),  # unit: the cached image itself
    st.builds(lambda c: Phase.coeff(TW3.nslots, c), nonzero_qqis),  # non-unit
    phases(TW3.nslots),  # multi-term
)
_base_polys = st.dictionaries(_base_exps, _lane_phases, min_size=1, max_size=3).map(
    lambda terms: TwistedPoly(TW3, terms)
)


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(char_box(1, 2)), _base_polys)
def test_apply_matches_conjugation_and_the_sum_over_terms(system, char, x):
    fs, s = SYSTEMS[system]
    g = fs.gamma(char)
    got = g.apply(x)
    assert got == reference.gamma(s(char), x)
    total = PolyMatrix.zeros(TW3, g.dim, g.dim)
    for a, phase in x.terms.items():
        term = g.apply(TwistedPoly(TW3, {a: phase}))
        assert term == reference.gamma(s(char), TwistedPoly(TW3, {a: phase}))
        total = total + term
    assert got == total


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_scaled_matches_entrywise_scale(data):
    rows, cols = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    entry = st.one_of(st.just(TwistedPoly.zero(TW3)), polys(TW3, "sparse"))
    m = PolyMatrix(TW3, [[data.draw(entry) for _ in range(cols)] for _ in range(rows)])
    phase = data.draw(phases(TW3.nslots))
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
        gen = TwistedPoly.generator(TW3, 2, char[0])
        # 2 u3 is not an isometry
        return PolyMatrix.from_scalar(gen.scale(QQi(2)) if char == (1,) else gen)

    s = IsometryFamily(Q3_ACTION, fn)
    assert s.adjoint((-1,)) == PolyMatrix.from_scalar(TwistedPoly.generator(TW3, 2))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"not an isometry"):
            s.adjoint((1,))
    assert calls == [(-1,), (1,), (1,)]
    assert (1,) not in s._cache and (1,) not in s._adjoints
