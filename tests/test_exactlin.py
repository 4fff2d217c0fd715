"""Exact linear algebra: frozen hand-worked oracles plus algebraic laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hodgenorm.exactlin import (
    GaussianRational,
    Mat,
    Subspace,
    commutator,
    fraction_sqrt,
    gauss_sqrt,
    hermitian_positive_definite,
    image,
    kernel,
    nilpotent_exp,
    qi,
    rref,
    vec,
)


# -- scalar basics -----------------------------------------------------------


def test_scalar_arithmetic():
    a = qi(Fraction(1, 2), 1)
    b = qi(2, -3)
    assert a + b == qi(Fraction(5, 2), -2)
    assert a * b == qi(4, Fraction(1, 2))  # (1/2 + i)(2 - 3i) = 1 + 3 + (2 - 3/2)i
    assert (a * b) / b == a
    assert -a + a == 0
    assert a.conjugate().conjugate() == a
    assert qi(0, 1) * qi(0, 1) == -1
    assert a ** 3 == a * a * a and a ** 0 == 1
    with pytest.raises(ValueError, match="negative"):
        a ** -1


def test_scalar_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        qi(1) / qi(0)


def test_scalar_repr_round_trip_forms():
    assert repr(qi(Fraction(3, 2))) == "3/2"
    assert repr(qi(0, 1)) == "i"
    assert repr(qi(1, -1)) == "1-i"
    assert repr(qi(0)) == "0"


def test_fraction_sqrt():
    assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert fraction_sqrt(Fraction(2)) is None
    assert fraction_sqrt(Fraction(-1)) is None
    assert fraction_sqrt(Fraction(0)) == 0


def test_gauss_sqrt_worked_examples():
    # (1+i)^2 = 2i, (1+2i)^2 = -3+4i, (2i)^2 = -4
    assert gauss_sqrt(qi(0, 2)) in (qi(1, 1), qi(-1, -1))
    assert gauss_sqrt(qi(-3, 4)) in (qi(1, 2), qi(-1, -2))
    assert gauss_sqrt(qi(-4)) in (qi(0, 2), qi(0, -2))
    assert gauss_sqrt(qi(Fraction(9, 4))) == qi(Fraction(3, 2))
    assert gauss_sqrt(qi(2)) is None   # sqrt(2) is irrational
    assert gauss_sqrt(qi(0, 1)) is None  # sqrt(i) needs sqrt(1/2)


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
scalars = st.builds(GaussianRational, small_fractions, small_fractions)


@settings(max_examples=60)
@given(scalars)
def test_gauss_sqrt_of_a_square_recovers_it(z):
    w = gauss_sqrt(z * z)
    assert w is not None and w * w == z * z


# -- matrices ----------------------------------------------------------------


def test_rref_hand_worked():
    rows, pivots = rref([[2, 4, -2], [1, 2, 0], [3, 6, -1]])
    assert pivots == (0, 2)
    assert rows == (vec([1, 2, 0]), vec([0, 0, 1]))


def test_rref_complex_dependent_rows():
    rows, pivots = rref([[qi(0, 1), qi(1)], [qi(1), qi(0, -1)]])
    assert pivots == (0,)
    assert rows == (vec([qi(1), qi(0, -1)]),)


def test_det_hand_worked():
    assert Mat([[1, 2, 3], [4, 5, 6], [7, 8, 10]]).det() == -3
    assert Mat([[1, qi(0, 1)], [qi(0, 1), 1]]).det() == 2
    assert Mat([[1, 2], [2, 4]]).det() == 0


def test_inverse_hand_worked():
    a = Mat([[2, 1], [1, 1]])
    assert a.inverse() == Mat([[1, -1], [-1, 2]])
    assert a * a.inverse() == Mat.identity(2)
    with pytest.raises(ValueError):
        Mat([[1, 2], [2, 4]]).inverse()


def test_matrix_power():
    n = Mat([[0, 1], [0, 0]])
    assert n ** 2 == Mat.zeros(2)
    assert n ** 0 == Mat.identity(2)


def _spy_on_products(monkeypatch):
    calls = []
    product = Mat.__mul__

    def spy(left, right):
        calls.append((left, right))
        return product(left, right)

    monkeypatch.setattr(Mat, "__mul__", spy)
    return calls


def test_a_power_starts_at_its_base_and_stops_at_the_first_zero_square(monkeypatch):
    rng = random.Random(3)
    g = Mat.identity(4) + Mat([[0, 1, 2, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]])
    n = g * Mat([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]) * g.inverse()
    square, identity = n * n, Mat.identity(4)
    assert not square.is_zero() and (square * n).is_zero()  # index 3
    calls = _spy_on_products(monkeypatch)
    assert (n ** 20).is_zero()
    assert all(identity not in pair for pair in calls)
    # n * n, then n^2 * n^2 = 0: every factor still owed is zero too
    assert calls == [(n, n), (square, square)]
    monkeypatch.undo()
    for a in (n, _random_mat(rng, 4, 4), Mat.zeros(3), Mat.identity(2)):
        product = Mat.identity(a.nrows)
        for k in range(10):
            assert a ** k == product, k
            product = product * a


def test_a_matrix_computes_its_determinant_once(monkeypatch):
    runs = []
    bareiss = Mat._bareiss

    def spy(m):
        runs.append(m)
        return bareiss(m)

    monkeypatch.setattr(Mat, "_bareiss", spy)
    a = Mat([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert a._det is None
    assert a.det() == -3 and a.det() == -3 and a._det == -3
    assert runs == [a]
    singular = Mat([[1, 2], [2, 4]])
    assert not singular.det() and not singular.det()
    assert runs == [a, singular]


def test_nilpotent_exp_hand_worked():
    n = Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    e = nilpotent_exp(n)
    assert e == Mat([[1, 1, Fraction(1, 2)], [0, 1, 1], [0, 0, 1]])
    assert nilpotent_exp(2 * n).apply((0, 0, 1)) == vec([2, 2, 1])
    with pytest.raises(ValueError):
        nilpotent_exp(Mat([[1, 0], [0, 1]]))


def test_commutator():
    a = Mat([[0, 1], [0, 0]])
    b = Mat([[0, 0], [1, 0]])
    assert commutator(a, b) == Mat([[1, 0], [0, -1]])


def _random_mat(rng, m, n, imag=True):
    def entry():
        re = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
        im = Fraction(rng.randint(-2, 2)) if imag else 0
        return GaussianRational(re, im)
    return Mat([[entry() for _ in range(n)] for _ in range(m)])


def test_det_is_multiplicative():
    rng = random.Random(7)
    for _ in range(25):
        a = _random_mat(rng, 3, 3)
        b = _random_mat(rng, 3, 3)
        assert (a * b).det() == a.det() * b.det()


def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(25):
        m = _random_mat(rng, rng.randint(1, 4), rng.randint(1, 5))
        assert image(m).dim + kernel(m).dim == m.ncols


# -- subspaces ---------------------------------------------------------------


def test_kernel_hand_worked():
    k = kernel(Mat([[1, 2, 3]]))
    assert k.dim == 2
    assert k.contains_vector(vec([-2, 1, 0]))
    assert k.contains_vector(vec([-3, 0, 1]))
    assert not k.contains_vector(vec([1, 0, 0]))


def test_intersection_hand_worked():
    u = Subspace(3, [vec([1, 0, 0]), vec([0, 1, 0])])
    w = Subspace(3, [vec([0, 1, 0]), vec([0, 0, 1])])
    assert u.intersect(w) == Subspace(3, [vec([0, 1, 0])])

    line = Subspace(3, [vec([1, 1, 0])])
    plane = Subspace(3, [vec([1, 0, 0]), vec([0, 1, 0])])
    assert line.intersect(plane) == line
    assert line <= plane


def test_subspace_equality_is_basis_independent():
    a = Subspace(2, [vec([1, 1]), vec([1, -1])])
    b = Subspace(2, [vec([2, 0]), vec([0, 3])])
    assert a == b == Subspace.full(2)
    assert hash(a) == hash(b)


def test_coords():
    # the reduced echelon basis has pivots 1 cleared above and below, so a
    # vector of the span has its entries at the pivots as coordinates
    s = Subspace(3, [vec([1, 0, 1]), vec([0, 1, 0])])
    v = vec([2, 3, 2])
    c = [v[p] for p, _, _ in s.int_rows]
    rebuilt = [sum((ci * bi for ci, bi in zip(c, col)), start=qi(0))
               for col in zip(*s.basis)]
    assert tuple(rebuilt) == v
    assert not s.contains_vector(vec([0, 0, 1]))


def test_subspace_checks_every_vector_length():
    # zero vectors too: the elimination drops them, so lengths are checked first
    for vectors in ([(0, 0)], [(1, 0, 0), (0, 0)], [(0, 0, 0, 0)]):
        with pytest.raises(ValueError, match="vector length differs from ambient dimension"):
            Subspace(3, vectors)
    assert Subspace(3, [(0, 0, 0)]) == Subspace.zero(3)


def test_rows_may_come_from_an_iterator():
    vs = [vec([1, 0, 1]), vec([0, 1, 0])]
    assert Subspace(3, (v for v in vs)) == Subspace(3, vs)
    assert rref(v for v in vs) == rref(vs)


def test_dimension_formula():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 5)
        u = Subspace(n, [_random_mat(rng, 1, n).rows[0] for _ in range(rng.randint(0, n))])
        w = Subspace(n, [_random_mat(rng, 1, n).rows[0] for _ in range(rng.randint(0, n))])
        assert (u + w).dim + u.intersect(w).dim == u.dim + w.dim


def test_conj_is_an_involution_and_respects_products():
    rng = random.Random(19)
    for _ in range(15):
        a = _random_mat(rng, 3, 3)
        b = _random_mat(rng, 3, 3)
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        s = Subspace(3, a.rows)
        assert s.conj().conj() == s


@settings(max_examples=40)
@given(st.lists(st.lists(small_fractions, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rref_depends_only_on_row_space(rows):
    base = Subspace(3, rows)
    shuffled = list(reversed(rows))
    if len(rows) >= 2:
        # add a linear combination; the span cannot change
        shuffled.append([a + b for a, b in zip(rows[0], rows[1])])
    assert Subspace(3, shuffled) == base


def test_hermitian_positive_definite():
    assert hermitian_positive_definite(Mat([[2, qi(0, 1)], [qi(0, -1), 2]]))
    assert not hermitian_positive_definite(Mat([[1, qi(0, 2)], [qi(0, -2), 1]]))
    with pytest.raises(ValueError):
        hermitian_positive_definite(Mat([[1, 1], [0, 1]]))
