"""Induced structures on wedge/tensor spaces, checked two independent ways.

Every diamond frozen here was computed by hand from the block decompositions
of the fixtures (wedge a bigraded basis, add bigrades, count monomials), so
the assertions are not replays of the code under test.  On top of that, each
induced splitting is computed along two unrelated paths — monomial spans
(`predicted_split`, kept here) versus the general intersection formula —
which must agree piece by piece.
The monomials themselves, built in ints from Λ^k of the splitting frame's
rows, are checked against the scalar construction they replaced (wedges of
the pieces' pivot-1 basis vectors, tensored entry by entry), which is kept
below as the reference.
"""

import random
from fractions import Fraction

import pytest

from hodgenorm.exactlin import (
    GaussianRational,
    Mat,
    Subspace,
    ZERO,
    nilpotent_exp,
    qi,
    vec,
)
from hodgenorm.filtrations import (
    DecreasingFiltration,
    IncreasingFiltration,
    level,
    weight_filtration,
)
from hodgenorm.fixtures import (
    curve_pair,
    random_unimodular,
    weight_one,
    weight_two,
    weight_two_minimum_classes,
)
from hodgenorm.induced import (
    InducedStructure,
    MAX_INDUCED_DIM,
    PureHodgeData,
    induce,
    induced_dimension,
    kron,
    locate_markers,
    tate_normalize,
    wedge_derivation,
    wedge_indices,
    wedge_matrix,
)
from hodgenorm.mhs import (
    DeligneSplitting,
    NilpotentCone,
    check_symmetries,
    cone_compatibility,
    deligne_split,
    polarization_check,
)


def random_matrix(rng, n, lo=-3, hi=3):
    return Mat([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def strictly_upper(rng, n):
    return Mat([[rng.randint(-2, 2) if j > i else 0 for j in range(n)]
                for i in range(n)])


# -- references read by other test modules too ---------------------------------


def predicted_split(h: InducedStructure) -> DeligneSplitting:
    """The splitting functoriality predicts: spans of bigraded monomials.

    Independent of the general intersection formula, so the two must agree
    piece by piece; the twist k shifts a monomial (P, Q) by (-k, -k).
    """
    gathered = {}
    for (p, q), row in h.bigraded:
        gathered.setdefault((p - h.twist, q - h.twist), []).append(row)
    return DeligneSplitting(
        h.dim, {pq: Subspace._span(h.dim, rows) for pq, rows in gathered.items()})


def weight_three_line():
    """Weight-3 data with Hodge numbers (1,1,1,1) and an empty cone.

    The induced H = Λ¹V ⊗ Λ²V has dimension 24 and raw weight 9, but its
    deepest filtration line sits at level 8, so normalization applies one
    Tate twist: weight 7, with the top line at level m = 7.
    """
    q = Mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    f = DecreasingFiltration.from_generators(
        4, {3: [vec((1, qi(0, 1), 0, 0))], 2: [vec((0, 0, 1, qi(0, 1)))],
            1: [vec((0, 0, 1, qi(0, -1)))], 0: [vec((1, qi(0, -1), 0, 0))]})
    return PureHodgeData(3, q, f, NilpotentCone((), q))


# -- multilinear helpers -------------------------------------------------------


def test_wedge_matrix_row_is_the_wedge_of_its_rows():
    # row (0, 1) of Λ²: (e0 + e1) ∧ (e1 + 2 e2) = e01 + 2 e02 + 2 e12
    got = wedge_matrix(Mat([[1, 1, 0], [0, 1, 2], [5, -3, 7]]), 2).rows[0]
    assert got == (qi(1), qi(2), qi(2))


def test_wedge_matrix_rows_alternate():
    v, u = (1, 2, 3), (0, 1, 1)
    assert not any(wedge_matrix(Mat([v, v, u]), 2).rows[0])
    swapped = wedge_matrix(Mat([u, v, u]), 2).rows[0]
    straight = wedge_matrix(Mat([v, u, u]), 2).rows[0]
    assert tuple(-c for c in swapped) == straight


def test_compound_matrix_is_multiplicative():
    # Cauchy-Binet: Λ^k(AB) = Λ^k(A) Λ^k(B); also Λ^k respects identity.
    rng = random.Random(7)
    for k in (1, 2, 3):
        assert wedge_matrix(Mat.identity(4), k) == Mat.identity(
            wedge_matrix(Mat.identity(4), k).nrows)
        for _ in range(5):
            a = random_matrix(rng, 4)
            b = random_matrix(rng, 4)
            assert wedge_matrix(a * b, k) == wedge_matrix(a, k) * wedge_matrix(b, k)


def test_compound_of_wedge_action_matches_coords():
    # the wedge coordinates of u ∧ v are row (0, 1) of Λ² of [u; v; 0; 0]
    rng = random.Random(19)
    for _ in range(5):
        a = random_matrix(rng, 4)
        u = vec([rng.randint(-3, 3) for _ in range(4)])
        v = vec([rng.randint(-3, 3) for _ in range(4)])
        zero = (0,) * 4
        left = wedge_matrix(a, 2).apply(wedge_matrix(Mat([u, v, zero, zero]), 2).rows[0])
        right = wedge_matrix(Mat([a.apply(u), a.apply(v), zero, zero]), 2).rows[0]
        assert left == right


@pytest.mark.parametrize("v", [weight_one(1), weight_two(1), weight_three_line(), curve_pair()],
                         ids=["weight_one(1)", "weight_two(1)", "weight_three_line", "curve_pair"])
def test_compound_pairs_the_frame_monomials_by_cauchy_binet(v):
    # Λ^k B · Λ^k Q · (Λ^k B)^T = Λ^k (B Q B^T) for B the frame's rows: the
    # monomials of H pair through the compound of V's frame Gram matrix
    b = v.split().frame[0].transpose()
    for k in range(v.dim + 1):
        monomials = wedge_matrix(b, k)
        assert monomials * wedge_matrix(v.q, k) * monomials.transpose() \
            == wedge_matrix(b * v.q * b.transpose(), k)


def test_derivation_exponentiates_to_the_compound():
    # The Leibniz action is the tangent of the multiplicative one:
    # exp(dΛ(N)) = Λ(exp N) for nilpotent N.  This pins every sign in
    # wedge_derivation against an independent construction.
    rng = random.Random(23)
    for k in (2, 3):
        for _ in range(8):
            n = strictly_upper(rng, 5)
            lifted = wedge_derivation(n, k)
            assert nilpotent_exp(lifted) == wedge_matrix(nilpotent_exp(n), k)


def test_derivation_of_diagonal_adds_eigenvalues():
    d = Mat([[1, 0, 0], [0, 2, 0], [0, 0, 5]])
    lifted = wedge_derivation(d, 2)
    assert lifted == Mat([[3, 0, 0], [0, 6, 0], [0, 0, 7]])  # pairs (0,1), (0,2), (1,2)


def test_kron_mixed_product():
    rng = random.Random(31)
    for _ in range(5):
        a, b = random_matrix(rng, 2), random_matrix(rng, 3)
        c, d = random_matrix(rng, 2), random_matrix(rng, 3)
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)
        # on one-row matrices: (u ⊗ v)(a ⊗ b)^T = u a^T ⊗ v b^T
        u = Mat([[rng.randint(-2, 2) for _ in range(2)]])
        v = Mat([[rng.randint(-2, 2) for _ in range(3)]])
        assert kron(u, v) * kron(a, b).transpose() == kron(u * a.transpose(), v * b.transpose())


def test_tensor_assembly_of_nilpotents_exponentiates_factorwise():
    # exp(N⊗1 + 1⊗M) = exp(N) ⊗ exp(M) for commuting slots — the identity
    # behind the per-factor assembly of the induced cone generators.
    rng = random.Random(37)
    for _ in range(5):
        n = strictly_upper(rng, 3)
        m = strictly_upper(rng, 4)
        total = kron(n, Mat.identity(4)) + kron(Mat.identity(3), m)
        assert nilpotent_exp(total) == kron(nilpotent_exp(n), nilpotent_exp(m))


# -- the weight-1 family on Λ³ -------------------------------------------------

# Hand-computed limit diamonds of H = Λ³V, dim 20, weight 3, indexed by the
# number of degenerating rank-2 pieces.
WEIGHT_ONE_DIAMONDS = {
    0: {(3, 0): 1, (2, 1): 9, (1, 2): 9, (0, 3): 1},
    1: {(3, 1): 1, (2, 2): 4, (2, 1): 4, (1, 3): 1, (1, 2): 4, (1, 1): 4,
        (2, 0): 1, (0, 2): 1},
    2: {(3, 2): 1, (2, 3): 1, (2, 2): 4, (2, 1): 4, (1, 2): 4, (1, 1): 4,
        (1, 0): 1, (0, 1): 1},
    3: {(3, 3): 1, (2, 2): 9, (1, 1): 9, (0, 0): 1},
}


@pytest.mark.parametrize("a", range(4))
def test_weight_one_induced_diamond_and_markers(a):
    v = weight_one(a)
    assert v.split().diamond() == {
        key: dim for key, dim in
        {(1, 1): a, (0, 0): a, (1, 0): 3 - a, (0, 1): 3 - a}.items() if dim}

    h = induce(v)
    assert h.dim == 20 and h.weight == 3 and h.factor_exponents == ((1, 3),)
    assert tate_normalize(h) is h  # top line already at level 3

    predicted = predicted_split(h)
    assert predicted.diamond() == WEIGHT_ONE_DIAMONDS[a]
    general = deligne_split(h.structure())
    assert general.pieces == predicted.pieces

    markers = locate_markers(h)
    assert markers.n == 3 and markers.m == 3 + a
    assert level(markers.e0, h.w) == 3 + a
    assert level(markers.einf, h.w) == 3 - a  # 2n - m


@pytest.mark.parametrize("a", range(4))
def test_weight_one_induced_structure_is_polarized(a):
    h = induce(weight_one(a))
    ok, detail = polarization_check(h.structure(), h.cone)
    assert ok, detail
    ok, detail = cone_compatibility(h.structure(), h.cone)
    assert ok, detail


def test_weight_one_monomial_levels_match_the_monodromy_filtration():
    # The induced W is assembled from total levels of monomials; it must
    # coincide with the intrinsic weight filtration of the induced cone.
    for a in (1, 2, 3):
        h = induce(weight_one(a))
        n_op = h.cone.element((1,) * len(h.cone))
        assert h.w == weight_filtration(n_op, center=h.weight)


def test_weight_one_normalizing_scalar():
    # s = Q(e0, conj e_inf) = 1 · (-2i)² = -4 for one degenerate piece,
    # so λ = -1/4 and the pairing against λ e_inf is exactly 1.
    markers = locate_markers(induce(weight_one(1)))
    assert markers.lam == qi(Fraction(-1, 4))
    assert markers.ed == tuple(markers.lam.conjugate() * c.conjugate()
                               for c in markers.einf)


def test_split_cone_variant_agrees_on_the_sum():
    joint = weight_one(2)
    split = weight_one(2, split_cone=True)
    assert len(joint.cone) == 1 and len(split.cone) == 2
    assert split.cone.element((1, 1)) == joint.cone.element((1,))
    assert predicted_split(induce(split)).diamond() == WEIGHT_ONE_DIAMONDS[2]


def test_curve_pair_induced():
    h = induce(curve_pair())
    assert h.dim == 6 and h.weight == 2
    assert predicted_split(h).diamond() == {(2, 2): 1, (1, 1): 4, (0, 0): 1}
    markers = locate_markers(h)
    assert markers.m == 4
    assert len(h.cone) == 2


def test_induced_dimension_is_known_before_the_build():
    for v in [curve_pair(), weight_one(1), weight_three_line()] + [weight_two(k) for k in range(6)]:
        assert induced_dimension(v) == induce(v).dim


def test_induce_refuses_above_the_bound():
    # weight_two(3) with 21 middle classes has dim 25 and Λ² of dim 300
    v = weight_two(3, classes=21)
    assert induced_dimension(v) == 300 > MAX_INDUCED_DIM
    with pytest.raises(ValueError, match=r"^f: the induced structure would have dimension 300"):
        induce(v)


# -- the weight-2 families on Λ² -----------------------------------------------

# Limit diamonds of V at `classes` middle cells, and of H = Λ²V, both by hand.
def weight_two_v_diamond(kind, h):
    table = {
        0: {(2, 0): 2, (1, 1): h, (0, 2): 2},
        1: {(2, 0): 1, (2, 1): 1, (1, 2): 1, (0, 2): 1, (1, 0): 1, (0, 1): 1,
            (1, 1): h - 2},
        2: {(2, 0): 1, (0, 2): 1, (2, 2): 1, (1, 1): h, (0, 0): 1},
        3: {(2, 1): 2, (1, 2): 2, (1, 0): 2, (0, 1): 2, (1, 1): h - 4},
        4: {(2, 1): 1, (1, 2): 1, (1, 0): 1, (0, 1): 1, (2, 2): 1,
            (1, 1): h - 2, (0, 0): 1},
        5: {(2, 2): 2, (1, 1): h, (0, 0): 2},
    }[kind]
    return {key: dim for key, dim in table.items() if dim}


def weight_two_h_diamond(kind, h):
    c2 = lambda k: k * (k - 1) // 2
    table = {
        0: {(4, 0): 1, (3, 1): 2 * h, (2, 2): 4 + c2(h), (1, 3): 2 * h,
            (0, 4): 1},
        1: {(4, 1): 1, (3, 3): 1, (3, 2): h - 1, (3, 1): h - 1, (3, 0): 1,
            (2, 3): h - 1, (2, 2): 3 + c2(h - 2), (2, 1): h - 1, (1, 4): 1,
            (1, 3): h - 1, (1, 2): h - 1, (1, 1): 1, (0, 3): 1},
        2: {(4, 2): 1, (2, 4): 1, (3, 3): h, (3, 1): h, (1, 3): h, (1, 1): h,
            (2, 2): 2 + c2(h), (2, 0): 1, (0, 2): 1},
        3: {(4, 2): 1, (2, 4): 1, (3, 3): 4, (3, 1): 4, (1, 3): 4, (1, 1): 4,
            (3, 2): 2 * (h - 4), (2, 3): 2 * (h - 4), (2, 1): 2 * (h - 4),
            (1, 2): 2 * (h - 4), (2, 2): 8 + c2(h - 4), (2, 0): 1, (0, 2): 1},
        4: {(4, 3): 1, (3, 4): 1, (3, 3): h - 1, (3, 2): h - 1, (3, 1): 1,
            (2, 3): h - 1, (2, 2): 3 + c2(h - 2), (2, 1): h - 1, (1, 3): 1,
            (1, 2): h - 1, (1, 1): h - 1, (1, 0): 1, (0, 1): 1},
        5: {(4, 4): 1, (3, 3): 2 * h, (2, 2): 4 + c2(h), (1, 1): 2 * h,
            (0, 0): 1},
    }[kind]
    return {key: dim for key, dim in table.items() if dim}


WEIGHT_TWO_M = (4, 5, 6, 6, 7, 8)


@pytest.mark.parametrize("kind", range(6))
def test_weight_two_fixture_matches_hand_tables(kind):
    h = weight_two_minimum_classes(kind)
    v = weight_two(kind)
    assert v.dim == h + 4
    assert v.split().diamond() == weight_two_v_diamond(kind, h)

    ind = induce(v)
    assert ind.factor_exponents == ((2, 2),)
    assert ind.dim == (h + 4) * (h + 3) // 2
    assert ind.weight == 4 and tate_normalize(ind) is ind

    predicted = predicted_split(ind)
    assert predicted.diamond() == weight_two_h_diamond(kind, h)
    assert deligne_split(ind.structure()).pieces == predicted.pieces
    check_symmetries(predicted.diamond(), 4, limiting=True)

    markers = locate_markers(ind)
    assert markers.m == WEIGHT_TWO_M[kind]
    ok, detail = polarization_check(v.structure(), v.cone)
    assert ok, detail


def test_weight_two_away_from_the_minimum():
    # The same hand formulas, evaluated at a larger middle dimension.
    for kind, h in ((1, 4), (3, 6), (5, 3)):
        v = weight_two(kind, classes=h)
        assert v.split().diamond() == weight_two_v_diamond(kind, h)
        got = predicted_split(induce(v)).diamond()
        assert got == weight_two_h_diamond(kind, h)


def test_weight_two_rejects_too_few_classes():
    with pytest.raises(ValueError):
        weight_two(3, classes=2)
    with pytest.raises(ValueError):
        weight_two(4, classes=2)


def test_weight_two_split_cone_variants():
    for kind in (3, 4, 5):
        v = weight_two(kind, split_cone=True)
        assert len(v.cone) == 2
        joint = weight_two(kind)
        assert v.cone.element((1, 1)) == joint.cone.element((1,))


# -- normalization and markers -------------------------------------------------


def test_weight_three_line_needs_one_twist():
    v = weight_three_line()
    assert v.split().diamond() == {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}
    ok, detail = polarization_check(v.structure())
    assert ok, detail

    raw = induce(v)
    assert raw.factor_exponents == ((3, 1), (2, 2))
    assert raw.dim == 24 and raw.weight == 9 and raw.twist == 0
    with pytest.raises(ValueError):
        locate_markers(raw)  # top level of F is 8 < 9: not yet a line at n

    norm = tate_normalize(raw)
    assert norm.weight == 7 and norm.twist == 1
    predicted = predicted_split(norm)
    assert deligne_split(norm.structure()).pieces == predicted.pieces
    # Pure of weight 7.  By hand: Λ²V sits at (5,1), (4,2), (3,3)·2, (2,4),
    # (1,5); tensoring with the four lines of V and twisting by (-1,-1)
    # spreads 24 dimensions along p+q = 7 as 1,2,4,5,5,4,2,1.
    assert predicted.diamond() == {(7, 0): 1, (6, 1): 2, (5, 2): 4, (4, 3): 5,
                                   (3, 4): 5, (2, 5): 4, (1, 6): 2, (0, 7): 1}

    markers = locate_markers(norm)
    assert markers.m == 7
    # e0 = α ⊗ (α∧β) pairs with itself: s = 2i · det diag(2i, -2i) = 8i,
    # hence λ = conj(1/s) = i/8.
    assert markers.einf == markers.e0
    assert markers.lam == qi(0, Fraction(1, 8))


def test_induce_requires_a_top_half():
    # All classes in the middle: F² = 0 leaves nothing to wedge.
    q = Mat.identity(3)
    f = DecreasingFiltration.from_generators(
        3, {1: [vec((1, 0, 0)), vec((0, 1, 0)), vec((0, 0, 1))]})
    v = PureHodgeData(2, q, f, NilpotentCone((), q))
    with pytest.raises(ValueError):
        induce(v)


def test_tate_normalize_demands_a_line():
    # Hand the normalizer a structure whose deepest filtration level is a
    # plane (the raw weight-2 input itself, where dim F² = 2).
    v = weight_two(0)
    ind = induce(v)
    fat_top = InducedStructure(
        weight=2, twist=0, q=v.q, f=v.f, w=v.w, cone=v.cone,
        factor_exponents=((2, 2),), bigraded=ind.bigraded)
    with pytest.raises(ValueError):
        tate_normalize(fat_top)


def test_the_induced_structure_is_weight_w_data_verified_when_built():
    ind = induce(weight_one(1))
    assert isinstance(ind, PureHodgeData)
    # Q with its last row and column cut to zero: still antisymmetric, rank dim - 1
    keep = Mat.identity(ind.dim).submatrix(range(ind.dim - 1), range(ind.dim))
    cut = keep.transpose() * keep
    degenerate = cut * ind.q * cut
    with pytest.raises(ValueError, match="q: pairing is degenerate"):
        InducedStructure(weight=ind.weight, q=degenerate, f=ind.f, w=ind.w,
                         cone=NilpotentCone((), degenerate), twist=0)


def test_markers_reject_a_fat_opposite_line():
    ind = induce(weight_one(1))
    # Doctor W so that W_{2n-m} ∩ F^{2n-m} is 2-dimensional: push every
    # level down by declaring the whole space at the old m-level.
    squashed = InducedStructure(
        weight=3, twist=0, q=ind.q,
        f=ind.f,
        w=ind.w.__class__(ind.dim, {2: Subspace.full(ind.dim)}),
        cone=NilpotentCone((), ind.q),
        factor_exponents=ind.factor_exponents, bigraded=ind.bigraded)
    with pytest.raises((ValueError, ArithmeticError)):
        locate_markers(squashed)


# -- the scalar monomial construction, kept as a reference -------------------------


def reference_wedge_coords(vectors, v_dim):
    """Coordinates of v1 ∧ ... ∧ vk in the standard wedge basis: the k×k
    minors of the vectors taken as rows."""
    rows = Mat(vectors)
    return tuple(rows.submatrix(range(len(vectors)), cols).det()
                 for cols in wedge_indices(v_dim, len(vectors)))


def reference_kron_vec(u, v):
    return tuple(a * b for a in u for b in v)


def reference_wedge_derivation(m, k):
    """The Leibniz action of m on Λ^k, entry by entry in scalars."""
    combos = wedge_indices(m.nrows, k)
    index = {c: i for i, c in enumerate(combos)}
    cols = []
    for s in combos:
        col = [ZERO] * len(combos)
        for pos, i in enumerate(s):
            rest = s[:pos] + s[pos + 1:]
            for r in range(m.nrows):
                coeff = m[r, i]
                if not coeff or r in rest:
                    continue
                new = tuple(sorted(rest + (r,)))
                sign = -1 if (pos - new.index(r)) % 2 else 1
                col[index[new]] = col[index[new]] + coeff * sign
        cols.append(col)
    return Mat(cols).transpose()


def reference_induce(v):
    """H built from scalar vectors: the monomials are tensored wedges of the
    pivot-1 basis rows of V's pieces, and F, W and the predicted pieces are
    spanned by them.  Returns the induced structure and its predicted pieces."""
    top, middle = v.weight, (v.weight + 2) // 2
    exponents = [(p, v.f.at(p).dim) for p in range(top, middle - 1, -1) if v.f.at(p).dim]
    adapted = [(p, q, vector) for (p, q), sub in v.split().pieces.items()
               for vector in sub.basis]
    q_h = Mat.identity(1)
    gens = [Mat.zeros(1) for _ in v.cone]
    monomials = [((0, 0), (qi(1),))]
    for _, k in exponents:
        q_h = kron(q_h, wedge_matrix(v.q, k))
        gens = [kron(g, Mat.identity(len(wedge_indices(v.dim, k))))
                + kron(Mat.identity(g.nrows), reference_wedge_derivation(x, k))
                for g, x in zip(gens, v.cone)]
        fresh = [((sum(adapted[i][0] for i in s), sum(adapted[i][1] for i in s)),
                  reference_wedge_coords([adapted[i][2] for i in s], v.dim))
                 for s in wedge_indices(len(adapted), k)]
        monomials = [((bp + mp, bq + mq), reference_kron_vec(bv, mv))
                     for (bp, bq), bv in monomials for (mp, mq), mv in fresh]
    dim_h = len(monomials)
    f_gens, w_gens, pieces = {}, {}, {}
    for (p, q), vector in monomials:
        f_gens.setdefault(p, []).append(vector)
        w_gens.setdefault(p + q, []).append(vector)
        pieces.setdefault((p, q), []).append(vector)
    h = InducedStructure(
        weight=v.weight * sum(k for _, k in exponents), twist=0, q=q_h,
        f=DecreasingFiltration.from_generators(dim_h, f_gens),
        w=IncreasingFiltration.from_generators(dim_h, w_gens),
        cone=NilpotentCone(gens, q_h), factor_exponents=tuple(exponents), bigraded=())
    return h, {pq: Subspace(dim_h, vectors) for pq, vectors in sorted(pieces.items())}


def moved(v, g):
    """The same structure written in the basis g: x -> g x, as the
    benchmark's fresh workload moves its families."""
    g_inv = g.inverse()
    q = g_inv.transpose() * v.q * g_inv
    cone = NilpotentCone([g * n * g_inv for n in v.cone.generators], q)
    return PureHodgeData(v.weight, q, v.f.apply(g), cone, v.w.apply(g))


def signed_permutation(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return Mat([[rng.choice((-1, 1)) if j == order[i] else 0 for j in range(n)]
                for i in range(n)])


def differential_inputs():
    named = [(f"weight_one({a})", weight_one(a)) for a in range(4)]
    named += [(f"weight_one({a}, split_cone)", weight_one(a, split_cone=True)) for a in range(4)]
    named += [("curve_pair", curve_pair()), ("weight_three_line", weight_three_line())]
    named += [(f"weight_two({kind})", weight_two(kind)) for kind in range(6)]
    for name, v in (("weight_one(1)", weight_one(1)), ("weight_two(1)", weight_two(1))):
        rng = random.Random(f"induced:{name}")
        g = signed_permutation(rng, v.dim) * random_unimodular(rng, v.dim)
        named.append((f"moved {name}", moved(v, g)))
    return named


DIFFERENTIAL = differential_inputs()


def _markers(h):
    try:
        return locate_markers(tate_normalize(h))
    except (ValueError, ArithmeticError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("v", [v for _, v in DIFFERENTIAL], ids=[n for n, _ in DIFFERENTIAL])
def test_induce_matches_the_scalar_monomial_construction(v):
    got = induce(v)
    want, pieces = reference_induce(v)
    assert got.dim == want.dim and got.weight == want.weight
    assert got.factor_exponents == want.factor_exponents
    assert got.q == want.q
    assert got.cone.generators == want.cone.generators
    assert got.f == want.f and got.w == want.w
    assert predicted_split(got).pieces == pieces
    assert _markers(got) == _markers(want)


def test_induce_does_no_scalar_arithmetic(monkeypatch):
    inputs = [weight_one(1), weight_two(1)]
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def spy(*args, _op=getattr(GaussianRational, name), _name=name):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(GaussianRational, name, spy)
    for v in inputs:
        induce(v)
    assert calls == []
