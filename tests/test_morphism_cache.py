"""Reference checks for the one morphism class and the ``PolyMatrix`` product.

A morphism caches the image of each normal-ordered monomial u^a and
scales it by the phase coefficient.  Every result here is compared with
the explicit construction that cache replaces: ``identity * phase`` times
the generator images in base order, one factor per unit of exponent,
summed over the terms into a zero matrix.  ``AlgebraMorphism`` is the
d = 1 case of ``MatrixMorphism`` and is compared with the scalar
construction it had before: ``scalar(phase)`` times the polynomial
generator images in base order, summed.  The relation and *-checks,
written once for d x d images, are run on cleft and 2 x 2 morphisms.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.algebra import PolyMatrix, TwistedPoly, TwistMatrix
from nctorus.dynamics import TorusAction
from nctorus.factor_system import (
    AlgebraMorphism,
    Automorphism,
    MatrixMorphism,
    ScopeError,
    frohlich_morphism,
    from_cleft,
)
from nctorus.phases import Phase, QQi

import reference

TWIST = TwistMatrix(
    [
        [0, Fraction(1, 4), Fraction(-1, 3), Fraction(2, 5)],
        [Fraction(-1, 4), 0, Fraction(-1, 6), Fraction(1, 7)],
        [Fraction(1, 3), Fraction(1, 6), 0, Fraction(-3, 8)],
        [Fraction(-2, 5), Fraction(-1, 7), Fraction(3, 8), 0],
    ]
)
# u2 is acted on; u1, u3 and u4 span the fixed algebra
ACTION = TorusAction(TWIST, (1,))
SYSTEM = from_cleft(ACTION)


def fresh(m: MatrixMorphism) -> MatrixMorphism:
    """A copy of ``m`` with empty caches."""
    return MatrixMorphism(m.action, m.unit(), m.images, m.inv_images)


def diagonal_morphism() -> MatrixMorphism:
    """u_k -> diag(c_k u_k, q^e_k u_k) with unimodular c_k and formal q^e_k."""
    tw = TWIST
    z = TwistedPoly.zero(tw)
    images, inv_images = {}, {}
    for n, k in enumerate(ACTION.base):
        e = [0] * tw.nslots
        e[n] = n + 1
        c = (QQi(0, 1), QQi(-1), QQi(Fraction(3, 5), Fraction(4, 5)))[n]
        w1 = Phase.coeff(tw.nslots, c)
        w2 = Phase(tw.nslots, {(tuple(e), 0): QQi(1)})
        gen = TwistedPoly.generator(tw, k)
        geninv = TwistedPoly.generator(tw, k, -1)
        images[k] = PolyMatrix(tw, [[gen.scale(w1), z], [z, gen.scale(w2)]])
        inv_images[k] = PolyMatrix(
            tw, [[geninv.scale(w1.invert()), z], [z, geninv.scale(w2.invert())]]
        )
    return MatrixMorphism(ACTION, PolyMatrix.identity(tw, 2), images, inv_images)


exponent = st.integers(-3, 3)
base_terms = st.lists(
    st.tuples(
        st.tuples(exponent, exponent, exponent),
        st.fractions(-2, 2, max_denominator=3),
        st.fractions(-2, 2, max_denominator=3),
        st.tuples(*[st.integers(-1, 1)] * TWIST.nslots),
    ),
    min_size=1,
    max_size=5,
)


def base_poly(terms) -> TwistedPoly:
    """Sum of c * q^e * u^a over base exponents a (acting exponent 0)."""
    total = TwistedPoly.zero(TWIST)
    for (a1, a3, a4), re, im, qexp in terms:
        phase = Phase(TWIST.nslots, {(qexp, 0): QQi(re, im)})
        total = total + TwistedPoly(TWIST, {(a1, 0, a3, a4): phase})
    return total


@settings(max_examples=40, deadline=None)
@given(base_terms, st.integers(-2, 2))
def test_cleft_apply_matches_reference_fresh_and_warm(terms, sigma):
    x = base_poly(terms)
    m = fresh(SYSTEM.gamma((sigma,)))
    want = reference.apply(m, x)
    assert m.apply(x) == want
    assert m.apply(x) == want  # second call reads the cached images


@settings(max_examples=40, deadline=None)
@given(base_terms)
def test_diagonal_2x2_apply_matches_reference(terms):
    x = base_poly(terms)
    m = diagonal_morphism()
    want = reference.apply(m, x)
    got = m.apply(x)
    assert (got.rows, got.cols) == (2, 2)
    assert got == want
    assert m.apply(x) == want


@pytest.mark.parametrize("make", [lambda: fresh(SYSTEM.gamma((1,))), diagonal_morphism])
def test_zero_polynomial_maps_to_zero_matrix(make):
    m = make()
    got = m.apply(TwistedPoly.zero(TWIST))
    assert got == PolyMatrix.zeros(TWIST, m.dim, m.dim)


def test_unit_is_the_identity():
    m = diagonal_morphism()
    assert m.unit() == PolyMatrix.identity(TWIST, 2)
    assert m.apply(TwistedPoly.one(TWIST)) == m.unit()


def test_acting_coordinate_raises_every_call_and_is_never_cached():
    m = diagonal_morphism()
    bad = (1, 1, 0, 0)
    x = TwistedPoly.generator(TWIST, 0) + TwistedPoly.monomial(TWIST, bad, QQi(2))
    for _ in range(2):
        with pytest.raises(ScopeError):
            m.apply(x)
        assert bad not in m._monomials
    # the in-scope term still maps as before
    u1 = TwistedPoly.generator(TWIST, 0)
    assert m.apply(u1) == reference.apply(m, u1)


# ---------------------------------------------------------------------------
# AlgebraMorphism: the d = 1 case, against the scalar construction
# ---------------------------------------------------------------------------


def ref_scalar_apply(m: AlgebraMorphism, x: TwistedPoly) -> TwistedPoly:
    tw = m.action.twist
    total = TwistedPoly.zero(tw)
    for a, phase in x.terms.items():
        term = TwistedPoly.scalar(tw, phase)
        for k in m.action.base:
            image = (m.images[k] if a[k] > 0 else m.inv_images[k]).as_scalar()
            for _ in range(abs(a[k])):
                term = term * image
        total = total + term
    return total


def gen(k: int, power: int = 1) -> TwistedPoly:
    return TwistedPoly.generator(TWIST, k, power)


def multi_term_morphism() -> AlgebraMorphism:
    """Multi-term images with Gaussian-rational and formal phases.

    Not a homomorphism, but ``apply`` is defined by the same formula, so
    it still pins the product order and the phase scaling.
    """
    half_i = QQi(Fraction(1, 2), 1)
    q = Phase.unit(TWIST.nslots, TWIST.slot(0, 3))
    images = {0: gen(0) + gen(2).scale(half_i), 2: gen(2) * gen(3), 3: gen(3).scale(q) - gen(0)}
    inv_images = {0: gen(0, -1), 2: gen(3, -1) + gen(2, -1), 3: gen(3, -1).scale(half_i)}
    return AlgebraMorphism(ACTION, images, inv_images)


SCALAR_MORPHISMS = {
    "frohlich": lambda: frohlich_morphism(SYSTEM, (2,)),
    "inner": lambda: Automorphism.inner(ACTION, gen(0) * gen(3, -1)).fwd,
    "multi-term": multi_term_morphism,
}


@settings(max_examples=40, deadline=None)
@given(base_terms, st.sampled_from(sorted(SCALAR_MORPHISMS)))
def test_scalar_apply_matches_reference_fresh_and_warm(terms, name):
    x = base_poly(terms)
    m = SCALAR_MORPHISMS[name]()
    want = ref_scalar_apply(m, x)
    got = m.apply(x)
    assert isinstance(got, TwistedPoly)
    assert got == want
    assert m.apply(x) == want  # second call reads the cached images


@pytest.mark.parametrize("name", sorted(SCALAR_MORPHISMS))
def test_scalar_zero_maps_to_zero(name):
    m = SCALAR_MORPHISMS[name]()
    assert m.apply(TwistedPoly.zero(TWIST)) == TwistedPoly.zero(TWIST)


def test_scalar_acting_coordinate_raises_every_call_and_is_never_cached():
    m = multi_term_morphism()
    bad = (0, -2, 1, 0)
    x = gen(3) + TwistedPoly.monomial(TWIST, bad, QQi(0, 1))
    for _ in range(2):
        with pytest.raises(ScopeError):
            m.apply(x)
        assert bad not in m._monomials
    assert m.apply(gen(3)) == ref_scalar_apply(m, gen(3))


# ---------------------------------------------------------------------------
# relation and *-checks on d x d images
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sigma", range(-3, 4))
def test_cleft_coactions_pass_both_checks(sigma):
    g = fresh(SYSTEM.gamma((sigma,)))
    assert g.respects_relations()
    assert g.is_star_morphism()


def test_diagonal_2x2_passes_both_checks():
    m = diagonal_morphism()
    assert m.respects_relations()
    assert m.is_star_morphism()


def test_swapped_2x2_images_break_the_relations():
    m = diagonal_morphism()
    images = dict(m.images)
    images[0], images[2] = images[2], images[0]
    assert not MatrixMorphism(ACTION, m.unit(), images, m.inv_images).respects_relations()


def test_non_adjoint_2x2_inverse_is_not_a_star_morphism():
    # 2D and D^-1 / 2 still invert each other and satisfy the exchange
    # relations, but the inverse image is not the adjoint
    m = diagonal_morphism()
    scaled = MatrixMorphism(
        ACTION,
        m.unit(),
        {k: v.map(lambda e: e.scale(QQi(2))) for k, v in m.images.items()},
        {k: v.map(lambda e: e.scale(QQi(Fraction(1, 2)))) for k, v in m.inv_images.items()},
    )
    assert scaled.respects_relations()
    assert not scaled.is_star_morphism()


@settings(max_examples=20, deadline=None)
@given(st.lists(base_terms.map(base_poly), min_size=4, max_size=4))
def test_automorphism_apply_matrix_is_entrywise(polys):
    beta = Automorphism.inner(ACTION, gen(0) * gen(2, 2))
    m = PolyMatrix(TWIST, [polys[:2], polys[2:]])
    assert beta.apply_matrix(m) == m.map(beta.apply)


# ---------------------------------------------------------------------------
# PolyMatrix product, entry by entry
# ---------------------------------------------------------------------------

entries = st.lists(base_terms.map(base_poly), min_size=1, max_size=4)


@settings(max_examples=30, deadline=None)
@given(entries, st.data())
def test_row_times_column_is_the_sum_of_products(row, data):
    col = data.draw(st.lists(base_terms.map(base_poly), min_size=len(row), max_size=len(row)))
    got = PolyMatrix(TWIST, [row]) * PolyMatrix(TWIST, [[c] for c in col])
    want = TwistedPoly.zero(TWIST)
    for r, c in zip(row, col):
        want = want + r * c
    assert (got.rows, got.cols) == (1, 1)
    assert got.entry(0, 0) == want


def test_zero_column_operand_gives_a_zero_matrix():
    empty_rows = PolyMatrix(TWIST, [[], []])
    got = empty_rows * PolyMatrix(TWIST, [])
    assert (got.rows, got.cols) == (2, 0)
    assert got.is_zero()
    got = PolyMatrix(TWIST, []) * PolyMatrix(TWIST, [])
    assert (got.rows, got.cols) == (0, 0)
