"""Sparse exact kernels against plain dense references.

The kernels in `exactlin` skip zero entries row by row.  The references
below are the textbook dense algorithms, which touch every entry, so any
disagreement is a bug in the sparse bookkeeping.  Inputs mix zero rows and
columns, complex entries and plain ints.
"""

from hypothesis import given, settings, strategies as st

from hodgenorm.exactlin import (
    GaussianRational,
    Mat,
    ONE,
    Subspace,
    ZERO,
    rref,
    vec,
)

# -- dense references ----------------------------------------------------------


def dense_mul(a, b):
    return [[sum((x * y for x, y in zip(r, c)), ZERO) for c in zip(*b.rows)]
            for r in a.rows]


def dense_apply(a, v):
    return tuple(sum((x * y for x, y in zip(r, v)), ZERO) for r in a.rows)


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

