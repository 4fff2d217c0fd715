"""Sparse exact kernels against plain dense references.

The kernels in `exactlin` compute on Gaussian integers and skip zero
entries: products (a pairing among them, as a 1x1 Gram product), sums,
scalings and `apply` accumulate in ints, `det` is a fraction-free Bareiss
elimination, `rref` and `inverse` fraction-free Gauss-Jordan ones, and
`nilpotent_exp` sums its series over one denominator.  The references below are the textbook dense algorithms over
Q(i), which touch every entry, so any disagreement is a bug in the sparse
or fraction-free bookkeeping.  Inputs mix zero rows and columns, complex
entries and plain ints; the large-entry tests also use large parts,
non-unit Gaussian leads and rank-deficient shapes.  The int form that a
`Mat` stores is checked against the rows themselves.  `transpose`,
`kernel`, `image`, `Subspace.apply`, `kron` and the Laplace minors of
`wedge_matrix` and `wedge_coords` run on that int form too, so each has a
test against entrywise references (`submatrix(...).det()` for the minors),
and equality, which reads the int form, is checked to agree with equality
of the rows for results reached by different routes.  Kernel results build
their `rows` on first read, which the laziness tests pin.  Meets with the
full or the zero space skip the elimination, so they have their own test,
as does the count of weight filtrations that `polarization_check` builds.
The tracer contract tests at the end keep kernel results readable by the
benchmark's tracer, and keep the float evaluation path out of its exact
spans.
"""

import importlib.util
import pathlib
from fractions import Fraction
from math import factorial, gcd

import pytest

from hypothesis import given, settings, strategies as st

from hodgenorm import mhs, orbit, probe
from hodgenorm.exactlin import (
    GaussianRational,
    Mat,
    ONE,
    Subspace,
    ZERO,
    image,
    kernel,
    nilpotent_exp,
    qi,
    rref,
    vec,
)
from hodgenorm.induced import kron, wedge_coords, wedge_indices, wedge_matrix
from hodgenorm.fixtures import curve_pair, elliptic, orbit_elliptic

# -- dense references ----------------------------------------------------------


def dense_mul(a, b):
    return [[sum((x * y for x, y in zip(r, c)), ZERO) for c in zip(*b.rows)]
            for r in a.rows]


def dense_apply(a, v):
    return tuple(sum((x * y for x, y in zip(r, v)), ZERO) for r in a.rows)


def dense_dot(u, v):
    return sum((x * y for x, y in zip(u, v)), ZERO)


def dense_det(a):
    """Gaussian elimination over Q(i): the signed product of the pivots."""
    work = [list(r) for r in a.rows]
    n = len(work)
    out = ONE
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            return ZERO
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            out = -out
        out = out * work[col][col]
        for r in range(col + 1, n):
            f = work[r][col] / work[col][col]
            work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return out


def dense_rref(rows):
    """Gauss-Jordan elimination updating every entry of every row."""
    work = [list(vec(r)) for r in rows]
    pivots = []
    top = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((r for r in range(top, len(work)) if work[r][col] != 0), None)
        if piv is None:
            continue
        work[top], work[piv] = work[piv], work[top]
        lead = work[top][col]
        work[top] = [x / lead for x in work[top]]
        for r in range(len(work)):
            if r != top:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[top])]
        pivots.append(col)
        top += 1
    return tuple(tuple(r) for r in work[:top]), tuple(pivots)


def dense_inverse(a):
    n = a.nrows
    aug = [list(r) + [ONE if i == j else ZERO for j in range(n)]
           for i, r in enumerate(a.rows)]
    red, pivots = dense_rref(aug)
    if pivots[:n] != tuple(range(n)):
        return None
    return [r[n:] for r in red]


def dense_kernel(a):
    """The canonical kernel basis: free columns set to 1 in turn, then reduced."""
    red, pivots = dense_rref(a.rows)
    basis = []
    for free in range(a.ncols):
        if free not in pivots:
            v = [ONE if j == free else ZERO for j in range(a.ncols)]
            for r, p in zip(red, pivots):
                v[p] = -r[free]
            basis.append(v)
    return dense_rref(basis)[0] if basis else ()


def dense_exp(n):
    """The entrywise Taylor loop: add N^k / k! until a power vanishes."""
    size = n.nrows
    out = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
    term = Mat(out)
    for k in range(1, size + 1):
        term = Mat(dense_mul(term, n))
        if all(not x for r in term.rows for x in r):
            return out
        out = [[x + y / factorial(k) for x, y in zip(r, t)] for r, t in zip(out, term.rows)]
    raise ValueError("matrix is not nilpotent")


def dense_contains(rows, v):
    """v lies in the row span exactly when appending it keeps the rank."""
    return len(dense_rref(list(rows) + [v])[1]) == len(dense_rref(rows)[1])


# -- strategies ----------------------------------------------------------------

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# half the draws are zero, so the inputs are sparse like the shipped fixtures
scalars = st.one_of(
    st.just(ZERO),
    st.just(ZERO),
    st.builds(GaussianRational, fractions),
    st.builds(GaussianRational, fractions, fractions),
)


@st.composite
def matrices(draw, nrows=None, ncols=None):
    m = draw(st.integers(1, 5)) if nrows is None else nrows
    n = draw(st.integers(1, 5)) if ncols is None else ncols
    rows = [[draw(scalars) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        rows[i] = [ZERO] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in rows:
            row[j] = ZERO
    return Mat(rows)


# Parts far beyond machine words, and leads such as 2+i that no integer
# gcd can divide out of a row.
big_fractions = st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 10**12))
gaussian_leads = st.sampled_from([qi(2, 1), qi(2, -1), qi(1, 1), qi(0, 3), qi(-5, 0), qi(3, -4)])
big_scalars = st.one_of(
    st.just(ZERO),
    gaussian_leads,
    st.builds(GaussianRational, big_fractions),
    st.builds(GaussianRational, big_fractions, big_fractions),
)
rescalings = st.one_of(gaussian_leads, st.builds(GaussianRational, big_fractions)
                       .filter(bool))


@st.composite
def rank_deficient(draw, nrows, ncols):
    """A dense matrix whose later rows may be rescaled copies of earlier ones."""
    rows = [[draw(big_scalars) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.booleans()):
            c = draw(rescalings)
            rows[i] = [c * x for x in rows[draw(st.integers(0, i - 1))]]
    return Mat(rows)


wide = st.tuples(st.integers(1, 8), st.integers(1, 16)).flatmap(
    lambda shape: rank_deficient(*shape))
square = st.integers(1, 8).flatmap(lambda n: rank_deficient(n, n))


def assert_canonical(red, pivots):
    """The entry types `perfbench/tracer.py` reads, and pivots that are 1."""
    for r, p in zip(red, pivots):
        assert r[p] == ONE
        for x in r:
            assert type(x) is GaussianRational
            assert type(x.re) is Fraction and type(x.im) is Fraction


def assert_entries(entries):
    """Kernel results: `GaussianRational`s with `Fraction` parts, `ZERO` for zero."""
    for x in entries:
        assert type(x) is GaussianRational
        assert type(x.re) is Fraction and type(x.im) is Fraction
        if not x:
            assert x is ZERO


@st.composite
def products(draw):
    a = draw(matrices())
    return a, draw(matrices(nrows=a.ncols))


# -- differential tests --------------------------------------------------------


@settings(max_examples=100)
@given(products())
def test_mul_matches_dense_product(pair):
    a, b = pair
    assert (a * b).rows == tuple(tuple(r) for r in dense_mul(a, b))


@settings(max_examples=100)
@given(st.data())
def test_apply_matches_dense_product(data):
    a = data.draw(matrices())
    v = data.draw(st.one_of(
        st.tuples(*[scalars] * a.ncols),
        st.tuples(*[st.integers(-2, 2)] * a.ncols),
    ))
    assert a.apply(v) == dense_apply(a, v)


@settings(max_examples=100)
@given(matrices())
def test_rref_matches_dense_elimination(a):
    assert rref(a.rows) == dense_rref(a.rows)


@settings(max_examples=100)
@given(st.integers(1, 5).flatmap(lambda n: matrices(nrows=n, ncols=n)))
def test_inverse_matches_dense_gauss_jordan(a):
    expected = dense_inverse(a)
    try:
        got = a.inverse()
    except ValueError:
        assert expected is None
    else:
        assert got.rows == tuple(tuple(r) for r in expected)


@settings(max_examples=100)
@given(st.data())
def test_contains_vector_matches_dense_rank(data):
    a = data.draw(matrices())
    coeffs = data.draw(st.tuples(*[scalars] * a.nrows))
    v = dense_apply(a.transpose(), coeffs)  # a combination of a's rows
    if data.draw(st.booleans()):
        v = tuple(x + y for x, y in zip(v, data.draw(st.tuples(*[scalars] * a.ncols))))
    assert Subspace(a.ncols, a.rows).contains_vector(v) == dense_contains(a.rows, v)


# -- fraction-free elimination on large, rank-deficient inputs -------------------------


@settings(max_examples=60, deadline=None)
@given(wide)
def test_rref_matches_dense_elimination_on_large_entries(a):
    got = rref(a.rows)
    assert got == dense_rref(a.rows)
    assert_canonical(*got)


@settings(max_examples=40, deadline=None)
@given(square)
def test_inverse_matches_dense_gauss_jordan_on_large_entries(a):
    expected = dense_inverse(a)
    try:
        got = a.inverse()
    except ValueError:
        assert expected is None
    else:
        assert got.rows == tuple(tuple(r) for r in expected)


@settings(max_examples=40, deadline=None)
@given(wide)
def test_kernel_matches_dense_reference_on_large_entries(a):
    got = kernel(a)
    assert got.rows == dense_kernel(a)
    assert_canonical(got.rows, rref(got.rows)[1])
    assert all(not any(dense_apply(a, v)) for v in got.rows)


# -- subspace operations on stored Gaussian-integer rows --------------------------------


def dense_intersect(a_rows, b_rows):
    """A∩B from the kernel of the stacked bases: the A-part of each relation."""
    if not a_rows or not b_rows:
        return ()
    stacked = Mat.from_cols(list(a_rows) + [[-x for x in r] for r in b_rows])
    meets = [dense_apply(Mat.from_cols(a_rows), rel[:len(a_rows)])
             for rel in dense_kernel(stacked)]
    return dense_rref(meets)[0] if meets else ()


def assert_int_rows(sub):
    """Each stored int row has a positive integer lead at its pivot, is zero
    left of it, and divided by its lead is the matching row of `rows`."""
    assert len(sub.int_rows) == len(sub.rows)
    for (p, re, im), row in zip(sub.int_rows, sub.rows):
        assert len(re) == len(im) == sub.ambient
        assert all(type(x) is int for x in re + im)
        lead = re[p]
        assert lead > 0 and im[p] == 0
        assert not any(re[:p]) and not any(im[:p])
        assert row == tuple(GaussianRational(Fraction(x, lead), Fraction(y, lead))
                            for x, y in zip(re, im))
        assert gcd(*re, *im) == 1  # primitive, so equality may read the int rows
    assert_canonical(sub.rows, [p for p, _, _ in sub.int_rows])


@st.composite
def subspace_pairs(draw):
    """Two spans in one space; B may reuse rescaled combinations of A's rows,
    so the intersection is often larger than the dimension count forces."""
    n = draw(st.integers(1, 7))
    a = draw(rank_deficient(draw(st.integers(0, 5)), n))
    b_rows = [list(r) for r in draw(rank_deficient(draw(st.integers(1, 5)), n)).rows]
    for i in range(len(b_rows)):
        if a.rows and draw(st.booleans()):
            c, d = draw(rescalings), draw(big_scalars)
            x, y = (a.rows[draw(st.integers(0, a.nrows - 1))] for _ in range(2))
            b_rows[i] = [c * u + d * v for u, v in zip(x, y)]
    if draw(st.booleans()):
        b_rows = [b_rows[0]]
    return Subspace(n, a.rows), Subspace(n, b_rows)


@settings(max_examples=60, deadline=None)
@given(subspace_pairs())
def test_intersect_matches_dense_kernel_of_stacked_bases(pair):
    a, b = pair
    got = a.intersect(b)
    assert got.rows == dense_intersect(a.rows, b.rows)
    assert got == b.intersect(a)
    assert got.dim + len(dense_rref(a.rows + b.rows)[1]) == a.dim + b.dim
    assert all(dense_contains(a.rows, v) and dense_contains(b.rows, v) for v in got.rows)
    assert_int_rows(got)


@settings(max_examples=60, deadline=None)
@given(subspace_pairs())
def test_meets_with_the_full_or_zero_space_match_dense_elimination(pair):
    # these meets skip the elimination, so they are checked on their own
    for a in pair:
        n = a.ambient
        full, zero = Subspace.full(n), Subspace.zero(n)
        for x, y in ((a, full), (full, a), (a, zero), (zero, a)):
            got = x & y
            assert got.rows == dense_intersect(x.rows, y.rows)
            assert_int_rows(got)
        for other in (Subspace.full(n + 1), Subspace.zero(n + 1)):
            for x, y in ((a, other), (other, a)):
                with pytest.raises(ValueError, match="ambient dimensions differ"):
                    x & y


def test_polarization_check_builds_one_weight_filtration_per_distinct_cone_element(
        monkeypatch):
    # the elements (1,...,1) and (1,...,k) coincide on a one-generator cone
    built = []
    weight_filtration = mhs.weight_filtration

    def spy(n_op, center=0):
        built.append(n_op)
        return weight_filtration(n_op, center=center)

    monkeypatch.setattr(mhs, "weight_filtration", spy)
    structure, cone = elliptic()
    assert mhs.polarization_check(structure, cone) == (True, None)
    assert len(built) == 1
    pair = curve_pair()
    assert mhs.polarization_check(pair.structure(), pair.cone) == (True, None)
    assert len(built) == 3


@settings(max_examples=60, deadline=None)
@given(subspace_pairs())
def test_sum_matches_dense_elimination_of_both_bases(pair):
    a, b = pair
    got = a + b
    assert got.rows == dense_rref(a.rows + b.rows)[0]
    assert got.contains(a) and got.contains(b)
    assert_int_rows(got)


@st.composite
def subspace_lists(draw):
    """0-4 spans in one space, possibly rank-deficient; a later span may
    reuse rescaled rows of an earlier one, so the spans often overlap."""
    n = draw(st.integers(1, 7))
    spaces = []
    for _ in range(draw(st.integers(0, 4))):
        rows = [list(r) for r in draw(rank_deficient(draw(st.integers(0, 4)), n)).rows]
        earlier = [r for s in spaces for r in s.rows]
        for i in range(len(rows)):
            if earlier and draw(st.booleans()):
                c = draw(rescalings)
                rows[i] = [c * x for x in earlier[draw(st.integers(0, len(earlier) - 1))]]
        spaces.append(Subspace(n, rows))
    return n, spaces


@settings(max_examples=60, deadline=None)
@given(subspace_lists())
def test_n_ary_sum_matches_one_subspace_of_all_rows(case):
    n, spaces = case
    got = Subspace.sum(n, spaces)
    assert got == Subspace(n, [r for s in spaces for r in s.rows])
    assert all(got.contains(s) for s in spaces)
    assert_int_rows(got)


def test_n_ary_sum_of_nothing_is_zero_and_ambients_must_agree():
    assert Subspace.sum(3, []) == Subspace.zero(3)
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        Subspace.sum(3, [Subspace.full(3), Subspace.full(2)])
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        Subspace.full(3) + Subspace.zero(2)


@settings(max_examples=60, deadline=None)
@given(subspace_pairs())
def test_conj_matches_dense_elimination_of_conjugates(pair):
    for sub in pair:
        got = sub.conj()
        assert got.rows == dense_rref([[x.conjugate() for x in r] for r in sub.rows])[0]
        assert got.conj() == sub
        assert_int_rows(got)


@settings(max_examples=60, deadline=None)
@given(subspace_pairs())
def test_contains_matches_dense_rank(pair):
    a, b = pair
    assert a.contains(b) == all(dense_contains(a.rows, v) for v in b.rows)
    assert b.contains(a) == all(dense_contains(b.rows, v) for v in a.rows)
    for v in b.rows:
        assert a.contains_vector(v) == dense_contains(a.rows, v)
    assert (a + b).contains(b) and a.contains(a.intersect(b))


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices(), wide))
def test_image_matches_dense_elimination_of_the_columns(a):
    got = image(a)
    assert got.ambient == a.nrows
    assert got.rows == dense_rref(list(zip(*a.rows)))[0]
    assert_int_rows(got)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subspace_apply_matches_dense_images_of_the_basis(data):
    sub = data.draw(subspace_pairs())[0]
    m = data.draw(st.one_of(matrices(ncols=sub.ambient),
                            st.integers(1, 7).flatmap(lambda k: rank_deficient(k, sub.ambient))))
    got = sub.apply(m)
    images = [dense_apply(m, v) for v in sub.rows]
    assert got.ambient == m.nrows
    assert got.rows == (dense_rref(images)[0] if images else ())
    assert_int_rows(got)


@settings(max_examples=60, deadline=None)
@given(wide)
def test_stored_int_rows_over_their_leads_are_the_rows(a):
    assert_int_rows(Subspace(a.ncols, a.rows))
    assert_int_rows(kernel(a))


# -- Gaussian-integer products and Bareiss determinants on large entries ---------------


@st.composite
def large_products(draw):
    a = draw(wide)
    return a, draw(rank_deficient(a.ncols, draw(st.integers(1, 8))))


big_ints = st.integers(-2**70, 2**70)


@st.composite
def large_vectors(draw, n):
    """Dense Gaussian rationals, plain ints, or one nonzero entry."""
    kind = draw(st.sampled_from(["scalars", "ints", "single"]))
    if kind == "scalars":
        return draw(st.tuples(*[big_scalars] * n))
    if kind == "ints":
        return draw(st.tuples(*[st.one_of(st.just(0), big_ints)] * n))
    v = [ZERO] * n
    v[draw(st.integers(0, n - 1))] = draw(st.one_of(rescalings, big_ints.filter(bool)))
    return tuple(v)


@settings(max_examples=60, deadline=None)
@given(large_products())
def test_mul_matches_dense_product_on_large_entries(pair):
    a, b = pair
    got = a * b
    assert got.rows == tuple(tuple(r) for r in dense_mul(a, b))
    for row in got.rows:
        assert_entries(row)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_matches_dense_product_on_large_entries(data):
    a = data.draw(wide)
    v = data.draw(large_vectors(a.ncols))
    got = a.apply(v)
    assert got == dense_apply(a, v)
    assert_entries(got)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 16).flatmap(lambda n: st.tuples(large_vectors(n), large_vectors(n))))
def test_gram_cell_matches_dense_sum_on_large_entries(pair):
    u, v = pair
    got = (Mat([u]) * Mat([v]).transpose())[0, 0]
    assert got == dense_dot(u, v)
    assert_entries([got])


@st.composite
def det_inputs(draw):
    """Square matrices that may be singular, need a row swap, or have a unit lead.

    A lead of -1 or ±i in an integer first row is Bareiss's first pivot, so
    the second elimination step divides by it exactly.
    """
    a = draw(square)
    rows = [list(r) for r in a.rows]
    shape = draw(st.sampled_from(["plain", "swap", "unit"]))
    if shape == "swap" and len(rows) > 1:
        rows[0][0] = ZERO
    if shape == "unit":
        rows[0] = [draw(st.sampled_from([qi(-1), qi(0, 1), qi(0, -1), qi(1)]))] + [
            qi(draw(st.integers(-3, 3)), draw(st.integers(-3, 3))) for _ in rows[0][1:]]
    return Mat(rows)


@settings(max_examples=80, deadline=None)
@given(det_inputs())
def test_det_matches_dense_elimination_on_large_entries(a):
    got = a.det()
    assert got == dense_det(a)
    assert_entries([got])


DET_CASES = {
    "lead -1": [[-1, 2, 3], [4, 5, 6], [7, 8, 10]],
    "lead i": [[qi(0, 1), 2, 3], [4, 5, 6], [7, 8, 10]],
    "lead -i": [[qi(0, -1), 1, 0], [1, qi(1, 1), 1], [2, 0, qi(0, 3)]],
    "second pivot -1": [[1, 0, 0, 0], [0, -1, 2, 1], [0, 3, 1, 0], [1, 1, 1, qi(2, 1)]],
    "second pivot i": [[1, 0, 0, 0], [2, qi(0, 1), 1, 0], [0, 3, 1, 0], [0, 1, 1, 5]],
    "row swap": [[0, 1, 2], [1, 0, 3], [4, 5, 6]],
    "singular": [[1, 2, 3], [2, 4, 6], [1, 1, 1]],
    "zero column": [[0, 1, 2], [0, 3, 4], [0, 5, 7]],
    "fractions": [[Fraction(1, 2), Fraction(-1, 3), 0], [Fraction(2, 5), 0, qi(0, Fraction(1, 7))],
                  [1, Fraction(3, 4), Fraction(-5, 6)]],
    "1x1": [[qi(Fraction(-3, 4), 2)]],
}


@pytest.mark.parametrize("rows", DET_CASES.values(), ids=DET_CASES.keys())
def test_det_matches_dense_elimination_on_hand_cases(rows):
    a = Mat(rows)
    got = a.det()
    assert got == dense_det(a)
    assert_entries([got])


# -- entrywise operations and the exponential on the stored int form ------------------


def assert_int_form(m):
    """Every slot is set; a stored int form holds each row's nonzero entries as
    increasing (index, re, im) triples over a scale sharing no factor with
    them, and rebuilds the rows exactly."""
    for slot in Mat.__slots__:
        getattr(m, slot)
    if m.ints is None:
        return
    assert len(m.ints) == m.nrows
    for (row, scale), entries in zip(m.ints, m.rows):
        assert [j for j, _, _ in row] == sorted({j for j, _, _ in row})
        assert all(type(x) is int and (a or b) for _, a, b in row for x in (a, b))
        assert gcd(scale, *[x for _, a, b in row for x in (a, b)]) == 1
        rebuilt = [ZERO] * m.ncols
        for j, a, b in row:
            rebuilt[j] = GaussianRational(Fraction(a, scale), Fraction(b, scale))
        assert tuple(rebuilt) == entries


def dense_combine(a, b, sign):
    return [[x + sign * y for x, y in zip(r, t)] for r, t in zip(a.rows, b.rows)]


@st.composite
def same_shape(draw, big=False):
    if big:
        a = draw(wide)
        return a, draw(rank_deficient(a.nrows, a.ncols))
    a = draw(matrices())
    return a, draw(matrices(nrows=a.nrows, ncols=a.ncols))


@settings(max_examples=60, deadline=None)
@given(st.one_of(same_shape(), same_shape(big=True)))
def test_sum_difference_and_negation_match_entrywise_arithmetic(pair):
    a, b = pair
    for got, expected in ((a + b, dense_combine(a, b, 1)), (a - b, dense_combine(a, b, -1)),
                          (-a, [[-x for x in r] for r in a.rows]),
                          (a - a, [[ZERO] * a.ncols] * a.nrows)):
        assert got.rows == tuple(tuple(r) for r in expected)
        for row in got.rows:
            assert_entries(row)
        assert_int_form(got)


scalar_factors = st.one_of(
    st.just(0), st.just(Fraction(0)), st.just(ZERO),
    st.integers(-2**70, 2**70), big_fractions, big_scalars, scalars)


@settings(max_examples=80, deadline=None)
@given(st.one_of(matrices(), wide), scalar_factors)
def test_scalar_multiple_matches_entrywise_products(a, c):
    expected = tuple(tuple(GaussianRational(c) * x for x in r) for r in a.rows)
    for got in (a * c, c * a):
        assert got.rows == expected
        for row in got.rows:
            assert_entries(row)
        assert_int_form(got)


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices(), wide), st.data())
def test_is_zero_matches_every_entry(a, data):
    assert a.is_zero() == all(not x for r in a.rows for x in r)
    zero = data.draw(st.sampled_from(["difference", "scaled", "built"]))
    if zero == "difference":
        z = a - a
    elif zero == "scaled":
        z = a * 0
    else:
        z = Mat([[0] * a.ncols] * a.nrows)
    assert z.is_zero()
    assert not (z + Mat([[ONE] + [ZERO] * (a.ncols - 1)] * a.nrows)).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_det_of_submatrix_matches_dense_elimination_of_the_picked_entries(data):
    a = data.draw(wide)
    k = data.draw(st.integers(0, min(a.nrows, a.ncols)))
    # any order, and repeated indices give a singular minor
    rows = data.draw(st.lists(st.integers(0, a.nrows - 1), min_size=k, max_size=k))
    cols = data.draw(st.lists(st.integers(0, a.ncols - 1), min_size=k, max_size=k))
    sub = a.submatrix(rows, cols)
    picked = Mat([[a.rows[i][j] for j in cols] for i in rows]) if k else Mat([])
    assert sub == picked
    assert_int_form(sub)
    got = sub.det()
    assert got == dense_det(picked)
    assert_entries([got])


@st.composite
def unimodular(draw, n):
    """A Gaussian-integer matrix with a Gaussian-integer inverse: the identity
    under row swaps and additions of Gaussian-integer multiples of rows."""
    rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2 * n)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if draw(st.booleans()):
            rows[i], rows[j] = rows[j], rows[i]
        else:
            g = qi(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
            rows[i] = [x + g * y for x, y in zip(rows[i], rows[j])]
    return Mat(rows)


@st.composite
def nilpotents(draw):
    """A strictly upper-triangular matrix in a moved basis, so not triangular."""
    n = draw(st.integers(1, 6))
    entries = draw(st.sampled_from([scalars, big_scalars]))
    upper = Mat([[draw(entries) if j > i else ZERO for j in range(n)] for i in range(n)])
    p = draw(unimodular(n))
    return Mat(dense_mul(Mat(dense_mul(p, upper)), Mat(dense_inverse(p))))


@settings(max_examples=80, deadline=None)
@given(nilpotents())
def test_nilpotent_exp_matches_the_entrywise_taylor_loop(n):
    got = nilpotent_exp(n)
    assert got.rows == tuple(tuple(r) for r in dense_exp(n))
    for row in got.rows:
        assert_entries(row)
    assert_int_form(got)


@settings(max_examples=40, deadline=None)
@given(nilpotents(), st.one_of(gaussian_leads, st.builds(GaussianRational, fractions).filter(bool)))
def test_nilpotent_exp_refuses_a_matrix_that_is_not_nilpotent(n, c):
    shifted = n + Mat.identity(n.nrows) * c  # eigenvalue c
    with pytest.raises(ValueError, match="matrix is not nilpotent"):
        dense_exp(shifted)
    with pytest.raises(ValueError, match="matrix is not nilpotent"):
        nilpotent_exp(shifted)


@settings(max_examples=60, deadline=None)
@given(products(), nilpotents())
def test_every_kernel_result_keeps_a_readable_int_form(pair, n):
    a, b = pair
    square = Mat(dense_mul(a, a.transpose()))
    results = [a, b, Mat.identity(a.nrows), Mat.zeros(a.ncols), Mat.from_cols(a.rows),
               a * b, a + a, a - a, a * qi(2, -1), a.transpose(),
               a.submatrix(range(a.nrows), reversed(range(a.ncols))), nilpotent_exp(n)]
    try:
        results.append(square.inverse())
    except ValueError:
        pass
    for m in results:
        assert_int_form(m)
        m.int_form()
        assert m.ints is not None
        assert_int_form(m)


# -- int-form routes: transpose, Kronecker products, Laplace minors, equality -----------


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices(), wide))
def test_transpose_matches_the_entries_read_by_columns(a):
    got = a.transpose()
    assert got.shape == (a.ncols, a.nrows)
    assert got.rows == tuple(zip(*a.rows))
    for row in got.rows:
        assert_entries(row)
    assert_int_form(got)
    assert got.transpose() == a


small_wide = st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
    lambda shape: rank_deficient(*shape))


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices(), small_wide), st.one_of(matrices(), small_wide))
def test_kron_matches_entrywise_products(a, b):
    got = kron(a, b)
    assert got.rows == tuple(tuple(x * y for x in r for y in t) for r in a.rows for t in b.rows)
    for row in got.rows:
        assert_entries(row)
    assert_int_form(got)


square_inputs = st.integers(1, 5).flatmap(
    lambda n: st.one_of(matrices(nrows=n, ncols=n), rank_deficient(n, n)))


@settings(max_examples=60, deadline=None)
@given(square_inputs, st.data())
def test_wedge_matrix_matches_the_determinants_of_its_minors(m, data):
    k = data.draw(st.integers(0, m.nrows))
    combos = wedge_indices(m.nrows, k)
    got = wedge_matrix(m, k)
    assert got.rows == tuple(tuple(m.submatrix(s, t).det() for t in combos) for s in combos)
    for row in got.rows:
        assert_entries(row)
    assert_int_form(got)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.one_of(st.tuples(*[scalars] * n), large_vectors(n)),
                                             max_size=n))))
def test_wedge_coords_match_the_determinants_of_the_minors(case):
    n, vectors = case
    k = len(vectors)
    cols = Mat.from_cols(vectors) if vectors else Mat([])
    got = wedge_coords(vectors, n)
    assert got == tuple(cols.submatrix(rows, range(k)).det() for rows in wedge_indices(n, k))
    assert_entries(got)


def assert_equality_reads_rows(items):
    """`==` agrees with equality of the rows, and equal items hash alike."""
    for x in items:
        for y in items:
            assert (x == y) == (x.rows == y.rows)
            if x == y:
                assert hash(x) == hash(y)


@settings(max_examples=60, deadline=None)
@given(st.one_of(same_shape(), same_shape(big=True)), scalar_factors)
def test_matrix_equality_agrees_with_the_entries_across_routes(pair, c):
    a, b = pair
    routes = [a, b, Mat(a.rows), a * Mat.identity(a.ncols), Mat.identity(a.nrows) * a,
              a.transpose().transpose(), a + b - b, (a - b) + b, a * c, Mat((a * c).rows),
              a * 0, Mat([[0] * a.ncols] * a.nrows)]
    if c:
        routes.append((a * c) * (ONE / GaussianRational(c)))
    assert_equality_reads_rows(routes)


@settings(max_examples=60, deadline=None)
@given(subspace_pairs(), st.data())
def test_subspace_equality_agrees_with_the_rows_across_routes(pair, data):
    a, b = pair
    n = a.ambient
    m = data.draw(st.one_of(matrices(nrows=n, ncols=n), rank_deficient(n, n)))
    meet, span = a & b, a + b
    routes = [a, b, meet, span, b & a, b + a, Subspace(n, meet.rows), Subspace(n, span.rows),
              Subspace.sum(n, [meet, Subspace.zero(n)]), meet + meet, span & span,
              Subspace(n, a.rows + b.rows), Subspace.full(n), Subspace.zero(n),
              kernel(m), Subspace(n, dense_kernel(m)), image(m), Subspace(n, list(zip(*m.rows))),
              a.apply(m), a.conj().conj(), a.conj()]
    assert_equality_reads_rows(routes)


# -- kernel results build their rows on first read ------------------------------------


def test_kernel_results_build_their_rows_on_first_read():
    a = Mat([[1, qi(0, 2), 0], [Fraction(1, 3), 0, 5], [0, 0, 0]])
    b = Mat([[2, 0, qi(1, 1)], [0, Fraction(1, 2), 0], [1, 1, 0]])
    u = Subspace(3, [(1, 0, 1), (0, 1, 0)])
    v = Subspace(3, [(1, 1, 0), (0, 0, qi(0, 3))])
    results = [
        (a * b, tuple(tuple(r) for r in dense_mul(a, b))),
        (a + b, tuple(tuple(x + y for x, y in zip(r, t)) for r, t in zip(a.rows, b.rows))),
        (u.intersect(v), dense_intersect(u.rows, v.rows)),
        (Subspace.sum(3, [u, v]), dense_rref(u.rows + v.rows)[0]),
        (kernel(a), dense_kernel(a)),
        (u.apply(b), dense_rref([dense_apply(b, r) for r in u.rows])[0]),
    ]
    for result, eager in results:
        slot = type(result).rows
        with pytest.raises(AttributeError):
            slot.__get__(result)
        assert result.rows == eager
        assert slot.__get__(result) is result.rows


# -- the benchmark tracer reads kernel results ---------------------------------------


def _bench_tracer():
    """perfbench/tracer.py, loaded by path; it is read, never changed."""
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_tracer", root / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def largest_part_bits(m):
    return max((max(p.numerator.bit_length(), p.denominator.bit_length())
                for r in m.rows for x in r for p in (x.re, x.im)), default=0)


def test_tracer_reads_kernel_results():
    # The tracer reads a matrix through its `rows` when `Mat.__slots__` is
    # ("rows",), and otherwise through every slot, so each slot must be
    # readable on every result, an unread `rows` filling on that read, and
    # hold nothing it cannot read.
    entry_bits = _bench_tracer().entry_bits
    product = Mat([[Fraction(1, 2**20), 3]]) * Mat([[1], [qi(0, 2**30)]])
    assert product.rows == ((qi(Fraction(1, 2**20), 3 * 2**30),),)
    assert entry_bits(product) == 32  # the imaginary part 3 * 2**30
    sub = Subspace(2, [(qi(0, 2**40), 1)])  # reduced to (1, -i / 2**40)
    assert entry_bits(sub) == 41
    assert entry_bits(qi(Fraction(5, 7))) == 3
    a = Mat([[0, Fraction(3, 2**21), qi(0, 5)], [0, 0, 2**25], [0, 0, 0]])
    for result in (a + a * qi(1, 1), a * Fraction(2**30, 7), nilpotent_exp(a)):
        with pytest.raises(AttributeError):
            Mat.rows.__get__(result)
        bits = entry_bits(result)
        assert Mat.rows.__get__(result) == result.rows
        assert bits == largest_part_bits(result) > 25
    line = Subspace(3, [(1, 0, Fraction(1, 2**30))])
    meet = line & Subspace(3, [(2**5, 0, Fraction(1, 2**25)), (0, 1, 0)])
    with pytest.raises(AttributeError):
        Subspace.rows.__get__(meet)
    assert entry_bits(meet) == 31  # the denominator 2**30
    assert Subspace.rows.__get__(meet) == ((ONE, ZERO, qi(Fraction(1, 2**30))),)


def test_float_evaluation_opens_no_exact_span():
    # The benchmark's per-layer metrics count exact kernels and orbit calls;
    # the float path shares the orbit formulas but must not call into them.
    spec = orbit_elliptic()
    tracer = _bench_tracer().Tracer()
    tracer.install()
    try:
        probe.norm_value(spec, (0.5, 0.25))
        float_spans = [span[0] for span in tracer.spans]
        orbit.eval_frame(spec, (Fraction(1, 2), Fraction(1, 4)), (qi(1, 2),))
        exact_spans = [span[0] for span in tracer.spans[len(float_spans):]]
    finally:
        tracer.uninstall()
    assert float_spans == ["probe.norm_value"]
    assert exact_spans[0] == "orbit.eval_frame"
    assert "exactlin.nilpotent_exp" in exact_spans
