"""Filtrations, and weight filtrations checked against hand-worked Jordan
blocks and the axiom checker kept here.

The two defining axioms determine the weight filtration uniquely, so
`weight_axioms_hold` below is a complete independent oracle for the
construction; the random nilpotents are drawn with real and with
Gaussian-integer entries.
"""

import json
import random

import pytest

from hodgenorm.cli import load_fixture
from hodgenorm.exactlin import Mat, Subspace, _nonzero_ints, qi, vec
from hodgenorm.filtrations import (
    _Filtration,
    DecreasingFiltration,
    IncreasingFiltration,
    level,
    weight_filtration,
)
from hodgenorm.fixtures import weight_two
from hodgenorm.induced import induce

from test_cli import DATA, SHIPPED


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
    assert w.at(0).dim - w.at(-1).dim == 1 and w.at(1) == w.at(0)


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


def cumulative_filtration(cls, ambient, gens):
    """The reference: each step spans, from scratch, every row listed at its
    level or before it in growing order, the rows read back as scalars."""
    vectors, steps = [], {}
    for l in sorted(gens, key=lambda l: cls._sign * l):
        vectors += Mat._of_ints(gens[l], ambient).rows
        steps[l] = Subspace(ambient, vectors)
    return cls(ambient, steps)


def _generator_sets(rng):
    """Int-form generator sets whose levels are random rows, combinations of
    rows listed before (dependent), a row listed before (repeated) or none
    (empty), with the kind of each level."""
    for _ in range(60):
        n = rng.randint(1, 6)
        listed, gens, kinds = [], {}, []
        for l in rng.sample(range(-4, 5), rng.randint(1, 5)):
            kind = rng.choice(("random", "dependent", "repeated", "empty"))
            if kind == "empty":
                rows = []
            elif kind == "repeated" and listed:
                rows = [rng.choice(listed)]
            elif kind == "dependent" and listed:
                rows = [tuple(sum((rng.randint(-2, 2) * v[j] for v in listed), qi(0))
                              for j in range(n)) for _ in range(rng.randint(1, 2))]
            else:
                kind = "random"
                rows = [vec(qi(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n))
                        for _ in range(rng.randint(1, 3))]
            listed += rows
            gens[l] = [_nonzero_ints(v) for v in rows]
            kinds.append(kind)
        yield n, gens, kinds


def test_from_int_rows_matches_the_cumulative_spans():
    kinds = set()
    for n, gens, drawn in _generator_sets(random.Random("from_int_rows")):
        kinds.update(drawn)
        for cls in (IncreasingFiltration, DecreasingFiltration):
            got, want = cls.from_int_rows(n, gens), cumulative_filtration(cls, n, gens)
            assert got == want and got.steps == want.steps, (cls, gens)
    assert kinds == {"random", "dependent", "repeated", "empty"}


def test_loaded_and_induced_filtrations_match_the_cumulative_spans(monkeypatch):
    v, built = weight_two(1), []
    build = _Filtration.from_int_rows.__func__

    def spy(cls, ambient, gens):
        got = build(cls, ambient, gens)
        built.append((got, cumulative_filtration(cls, ambient, gens)))
        return got

    monkeypatch.setattr(_Filtration, "from_int_rows", classmethod(spy))
    for name in SHIPPED:
        load_fixture(DATA / name)
    induce(v)
    # F of every fixture, W of those that list one, and F and W of H
    listed_w = sum("w" in json.loads((DATA / name).read_text()) for name in SHIPPED)
    assert len(built) == len(SHIPPED) + listed_w + 2
    assert all(got == want and got.steps == want.steps for got, want in built)


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


def weight_axioms_hold(wf: IncreasingFiltration, n_op: Mat, center: int):
    """Independently verify the two defining axioms of the weight filtration:
    N·W_l ⊆ W_{l-2}, and N^l an isomorphism Gr_{center+l} → Gr_{center-l}.

    Together with uniqueness, passing this check certifies a candidate
    filtration.  Returns (True, None) or (False, reason).
    """
    if not wf.is_exhaustive():
        return False, "filtration is not exhaustive"
    levels = wf.jump_levels
    lo, hi = min(levels), max(levels)
    for l in range(lo, hi + 1):
        moved = wf.at(l).apply(n_op)
        if not wf.at(l - 2).contains(moved):
            return False, f"operator does not shift level {l} down by two"
    for l in range(1, max(hi - center, center - lo, 0) + 1):
        d_hi = wf.at(center + l).dim - wf.at(center + l - 1).dim
        d_lo = wf.at(center - l).dim - wf.at(center - l - 1).dim
        if d_hi != d_lo:
            return False, f"graded dimensions at center±{l} differ ({d_hi} vs {d_lo})"
        below = wf.at(center - l - 1)
        pushed = wf.at(center + l).apply(n_op ** l) + below
        if pushed.dim - below.dim != d_hi:
            return False, f"power {l} is not an isomorphism on the graded pieces"
    return True, None


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
