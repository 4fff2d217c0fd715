"""Filtrations, and weight filtrations checked against hand-worked Jordan
blocks and the axiom checker.

The two defining axioms determine the weight filtration uniquely, so
`weight_axioms_hold` is a complete independent oracle for the construction;
the random nilpotents are drawn with real and with Gaussian-integer entries.
"""

import random

import pytest

from hodgenorm.exactlin import Mat, Subspace, qi, vec
from hodgenorm.filtrations import (
    DecreasingFiltration,
    IncreasingFiltration,
    level,
    weight_axioms_hold,
    weight_filtration,
)


def span(n, *vectors):
    return Subspace(n, [vec(v) for v in vectors])


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


# -- filtration containers ---------------------------------------------------


def test_increasing_at_and_canonical_equality():
    w = IncreasingFiltration(3, {-2: span(3, E1), 0: span(3, E1, E2), 2: Subspace.full(3)})
    assert w.at(-3).dim == 0
    assert w.at(-1) == span(3, E1)
    assert w.at(5) == Subspace.full(3)
    same = IncreasingFiltration(
        3, {-2: span(3, E1), -1: span(3, E1), 0: span(3, E1, E2), 2: Subspace.full(3)})
    assert w == same
    assert w.jump_levels == (-2, 0, 2)
    assert w.gr_dim(0) == 1 and w.gr_dim(1) == 0


def test_decreasing_at_and_shift():
    f = DecreasingFiltration(3, {0: Subspace.full(3), 2: span(3, E1)})
    assert f.at(-5) == Subspace.full(3)
    assert f.at(1) == span(3, E1)
    assert f.at(3).dim == 0
    g = f.shift(2)  # k ↦ F^{k+2}
    assert g.at(0) == span(3, E1)
    assert g.at(-2) == Subspace.full(3)


def test_nesting_is_validated():
    with pytest.raises(ValueError):
        IncreasingFiltration(3, {0: Subspace.full(3), 1: span(3, E1)})
    with pytest.raises(ValueError):
        DecreasingFiltration(3, {0: span(3, E1), 1: Subspace.full(3)})


def test_from_generators():
    w = IncreasingFiltration.from_generators(3, {-1: [vec(E2)], 1: [vec(E1), vec(E3)]})
    assert w.at(-1) == span(3, E2)
    assert w.at(1) == Subspace.full(3)
    f = DecreasingFiltration.from_generators(3, {2: [vec(E1)], 0: [vec(E2), vec(E3)]})
    assert f.at(2) == span(3, E1)
    assert f.at(1) == span(3, E1)
    assert f.at(0) == Subspace.full(3)


def test_level_and_colevel():
    w = IncreasingFiltration(2, {0: span(2, (0, 1)), 2: Subspace.full(2)})
    assert level(vec((0, 1)), w) == 0
    assert level(vec((1, 0)), w) == 2
    assert level(vec((1, 1)), w) == 2
    with pytest.raises(ValueError):
        level(vec((0, 0)), w)
    f = DecreasingFiltration(2, {0: Subspace.full(2), 1: span(2, (1, 0))})
    assert level(vec((1, 0)), f) == 1
    assert level(vec((1, 1)), f) == 0


# -- weight filtrations ------------------------------------------------------


def test_weight_filtration_single_jordan_block():
    n = Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])  # e3 -> e2 -> e1
    w = weight_filtration(n, center=0)
    assert weight_axioms_hold(w, n, 0) == (True, None)
    assert w.jump_levels == (-2, 0, 2)
    assert w.at(-2) == span(3, E1)
    assert w.at(0) == span(3, E1, E2)
    assert w.at(1) == w.at(0)


def test_weight_filtration_mixed_block_sizes_and_center():
    n = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # one 2-chain, one singleton
    w = weight_filtration(n, center=5)
    assert weight_axioms_hold(w, n, 5) == (True, None)
    assert w.jump_levels == (4, 5, 6)
    assert w.at(4) == span(3, E1)
    assert w.at(5) == span(3, E1, E3)


def test_weight_filtration_zero_operator_is_pure():
    w = weight_filtration(Mat.zeros(4), center=3)
    assert w.jump_levels == (3,)
    assert w.at(3) == Subspace.full(4)
    assert w.at(2).dim == 0


def test_weight_filtration_shift_matches_hand_computation():
    n = Mat([[0, 0], [1, 0]])  # e1 -> e2
    w = weight_filtration(n, center=0).shift(-1)
    assert w.at(0) == span(2, (0, 1))
    assert w.at(1) == w.at(0)
    assert w.at(2) == Subspace.full(2)


def test_non_nilpotent_rejected():
    with pytest.raises(ValueError, match="operator is not nilpotent"):
        weight_filtration(Mat([[1, 0], [0, 0]]))


def _random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return Mat(m)


def _random_nilpotent(rng, n):
    """g·S·g⁻¹ for a strictly upper triangular S, with Gaussian-integer
    entries in about half the draws, so that N need not be real."""
    imag = (-2, 2) if rng.random() < 0.5 else (0, 0)
    strict = [[qi(rng.randint(-2, 2), rng.randint(*imag)) if j > i else 0 for j in range(n)]
              for i in range(n)]
    g = _random_unimodular(rng, n)
    return g * Mat(strict) * g.inverse()


def test_axioms_hold_on_random_nilpotents():
    rng = random.Random(101)
    for _ in range(20):
        n_dim = rng.randint(2, 6)
        n_op = _random_nilpotent(rng, n_dim)
        center = rng.randint(-2, 4)
        w = weight_filtration(n_op, center)
        ok, why = weight_axioms_hold(w, n_op, center)
        assert ok, why


def test_weight_filtration_is_equivariant():
    rng = random.Random(103)
    for _ in range(10):
        n_dim = rng.randint(2, 5)
        n_op = _random_nilpotent(rng, n_dim)
        g = _random_unimodular(rng, n_dim)
        moved = weight_filtration(g * n_op * g.inverse(), center=1)
        assert moved == weight_filtration(n_op, center=1).apply(g)


def test_axiom_checker_rejects_a_wrong_filtration():
    n = Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    wrong = IncreasingFiltration(
        3, {-2: span(3, E3), 0: span(3, E3, E2), 2: Subspace.full(3)})
    ok, why = weight_axioms_hold(wrong, n, 0)
    assert not ok and "shift" in why

    not_exhaustive = IncreasingFiltration(3, {0: span(3, E1)})
    ok, why = weight_axioms_hold(not_exhaustive, n, 0)
    assert not ok and "exhaustive" in why


# -- isotropy ----------------------------------------------------------------


def test_isotropy_check_passes_on_symplectic_pair():
    w = IncreasingFiltration(2, {0: span(2, (0, 1)), 2: Subspace.full(2)})
    q = Mat([[0, 1], [-1, 0]])
    ok, witness = w.isotropy(q, 2)
    assert ok and witness is None


def test_isotropy_check_reports_a_witness():
    w = IncreasingFiltration(2, {0: span(2, (0, 1)), 2: Subspace.full(2)})
    ok, witness = w.isotropy(Mat.identity(2), 2)
    assert not ok
    l, m, u, v = witness
    assert (l, m) == (0, 0)
    assert u == vec((0, 1)) and v == vec((0, 1))
