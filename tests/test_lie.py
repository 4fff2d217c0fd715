"""Symmetry-algebra layers: classical dimension counts, a frozen golden
diamond family, bracket/action/cone compatibility, and the two verdicts.

The layer dimensions for the weight-one family were tabulated by hand from
the block decompositions (b = 3 - a):

    (-1,1): b(b+1)/2   (-1,0): ab   (-1,-1): a(a+1)/2
    (0,1):  ab         (0,0): a^2+b^2   (0,-1): ab
    (1,1):  a(a+1)/2   (1,0): ab    (1,-1): b(b+1)/2

and sum to 21 for every a.  The hermitian/smoothness verdicts for the
weight-two kinds were likewise worked out on paper and are frozen here.
"""

import json
import pathlib

import pytest

from hodgenorm import cli, fixtures, lie
from hodgenorm.exactlin import Mat, Subspace, commutator
from hodgenorm.induced import induce, induced_endomorphism
from hodgenorm.lie import (
    LieSplit,
    _adapted_algebra,
    _cut_out_layers,
    flatten_matrix,
    hermitian_test,
    lie_algebra,
    lie_deligne_split,
    smoothness_test,
    unflatten_matrix,
)
from hodgenorm.mhs import DeligneSplitting, is_infinitesimal_isometry


def span_of(g) -> Subspace:
    """The algebra's basis, flattened, as a subspace of End(V)."""
    return Subspace(g.ambient ** 2, [flatten_matrix(b) for b in g.basis])


def g_split(v) -> LieSplit:
    return lie_deligne_split(lie_algebra(v.q), v.structure())


def unpolarized_pair():
    """The pair fixture with f.1[0][4] = "1": F^1 is no longer isotropic, so
    Q links non-dual splitting pieces and some closed-form elements mix
    shifts."""
    doc = json.loads((pathlib.Path(cli.__file__).parent / "data" / "pair.json").read_text())
    doc["f"]["1"][0][4] = "1"
    return cli.parse_fixture(doc).data


def weight_one_g_diamond(a):
    b = 3 - a
    table = {
        (-1, 1): b * (b + 1) // 2,
        (-1, 0): a * b,
        (-1, -1): a * (a + 1) // 2,
        (0, 1): a * b,
        (0, 0): a * a + b * b,
        (0, -1): a * b,
        (1, 1): a * (a + 1) // 2,
        (1, 0): a * b,
        (1, -1): b * (b + 1) // 2,
    }
    return {pq: d for pq, d in table.items() if d}


# -- the algebra itself ------------------------------------------------------


def test_symplectic_and_orthogonal_dimension_counts():
    sp2 = lie_algebra(Mat([[0, 1], [-1, 0]]))
    assert sp2.dim == 3
    sp6 = lie_algebra(fixtures.weight_one(1).q)
    assert sp6.dim == 21
    for n in (3, 4, 5):
        assert lie_algebra(Mat.identity(n)).dim == n * (n - 1) // 2
    so6 = lie_algebra(fixtures.weight_two(0).q)
    assert so6.dim == 15


def test_basis_solves_the_defining_equation_and_is_independent():
    for q in (Mat([[0, 1], [-1, 0]]), Mat.identity(4), fixtures.weight_one(2).q):
        g = lie_algebra(q)
        assert all(is_infinitesimal_isometry(b, g.q) for b in g.basis)
        assert span_of(g).dim == g.dim


def test_bracket_closure():
    for q in (Mat([[0, 1], [-1, 0]]), Mat.identity(5), fixtures.weight_one(1).q):
        g = lie_algebra(q)
        span = span_of(g)
        assert all(span.contains_vector(flatten_matrix(commutator(a, b)))
                   for i, a in enumerate(g.basis) for b in g.basis[i + 1:])


def test_degenerate_and_lopsided_pairings_are_rejected():
    with pytest.raises(ValueError):
        lie_algebra(Mat([[1, 0], [0, 0]]))
    with pytest.raises(ValueError):
        lie_algebra(Mat([[1, 2], [0, 1]]))  # neither symmetric nor skew
    with pytest.raises(ValueError):
        lie_algebra(Mat([[1, 0], [0, 1], [0, 0]]))


# -- the layers --------------------------------------------------------------


@pytest.mark.parametrize("a", range(4))
def test_weight_one_layer_diamond_matches_the_hand_table(a):
    split = g_split(fixtures.weight_one(a))
    assert split.diamond() == weight_one_g_diamond(a)
    assert sum(split.diamond().values()) == 21


def test_pure_inputs_concentrate_on_the_antidiagonal():
    for v in (fixtures.weight_one(0), fixtures.weight_two(0)):
        assert all(p + q == 0 for p, q in g_split(v).pieces)


@pytest.mark.parametrize("make", [
    lambda: fixtures.weight_one(1),
    lambda: fixtures.weight_one(3),
    lambda: fixtures.weight_two(1),
    lambda: fixtures.weight_two(4),
])
def test_layers_sum_directly_to_the_whole_algebra(make):
    v = make()
    g = lie_algebra(v.q)
    split = lie_deligne_split(g, v.structure())
    assert sum(sub.dim for sub in split.pieces.values()) == g.dim
    total = split.span_where(lambda p, q: True)
    assert total.dim == g.dim
    assert all(total.contains_vector(flatten_matrix(b)) for b in g.basis)


def test_layer_members_shift_splitting_pieces_as_labelled(monkeypatch):
    cut_outs = []

    def counting(*args):
        cut_outs.append(args)
        return _cut_out_layers(*args)

    monkeypatch.setattr(lie, "_cut_out_layers", counting)
    # the unpolarized pair takes the cut-out route
    for v, cut_out in ((fixtures.weight_two(2), False), (unpolarized_pair(), True)):
        g = lie_algebra(v.q)
        split = lie_deligne_split(g, v.structure())
        assert bool(cut_outs) is cut_out
        pieces = v.split()
        for (p, q), sub in split.pieces.items():
            for x in split.slot_matrices(p, q):
                assert is_infinitesimal_isometry(x, g.q)
                for (r, s), piece in pieces.pieces.items():
                    target = pieces.piece(r + p, s + q)
                    for b in piece.basis:
                        image = x.apply(b)
                        assert target.contains_vector(image) or not any(image)
    # only 6 of the 15 dimensions of its g shift the pieces homogeneously
    assert split.diamond() == {(-1, -1): 3, (0, 0): 3}


def test_cut_out_route_agrees_with_the_bucketed_route():
    cases = [fixtures.weight_one(a) for a in range(4)]
    cases += [fixtures.weight_two(k) for k in range(6)]
    cases.append(fixtures.orbit_varying().structure)
    for v in cases:
        g = lie_algebra(v.q)
        bucketed = lie_deligne_split(g, v.structure()).pieces
        cut = _cut_out_layers(*_adapted_algebra(g, v.structure()))
        assert list(cut) == list(bucketed)
        assert cut == bucketed


def test_bracket_respects_the_bigrading():
    split = g_split(fixtures.weight_one(1))
    slots = {pq: split.slot_matrices(*pq) for pq in split.pieces}
    for (p, q), first in slots.items():
        for (r, s), second in slots.items():
            target = split.piece(p + r, q + s)
            for x in first:
                for y in second:
                    assert target.contains_vector(
                        flatten_matrix(commutator(x, y)))


def test_induced_action_respects_the_bigrading_on_h():
    # Λ^3 of the weight-one fixture: 21 symmetries acting on a 20-dim space.
    v = fixtures.weight_one(1)
    h = induce(v)
    split = g_split(v)
    pieces = h.predicted_split()
    for (r, s), sub in split.pieces.items():
        for x in split.slot_matrices(r, s):
            x_h = induced_endomorphism(x, h.factor_exponents)
            for (p, q), piece in pieces.pieces.items():
                target = pieces.piece(p + r, q + s)
                for b in piece.basis:
                    image = x_h.apply(b)
                    assert target.contains_vector(image) or not any(image)


def test_cone_generators_live_in_the_corner_layer():
    cases = [fixtures.weight_one(a) for a in (1, 2, 3)]
    cases += [fixtures.weight_two(k) for k in range(1, 6)]
    cases.append(fixtures.weight_one(2, split_cone=True))
    for v in cases:
        split = g_split(v)
        corner = split.span_where(lambda p, q: p <= -1 and q <= -1)
        for n in v.cone.generators:
            assert corner.contains_vector(flatten_matrix(n))
        assert split.m_x.contains(corner)


def test_layers_are_a_deligne_splitting_inside_end_v():
    v = fixtures.weight_one(1)
    split = g_split(v)
    assert isinstance(split, DeligneSplitting)
    assert split.ambient == v.dim * v.dim
    assert split.algebra.ambient == v.dim
    assert split.piece(5, 5) == Subspace.zero(v.dim * v.dim)


SPANS = {
    "s_f": lambda p, q: p >= 0,
    "s_f_perp": lambda p, q: p < 0,
    "s_w": lambda p, q: p + q <= 0,
    "m_x": lambda p, q: p <= 0 and q <= 0,
}


SPAN_CASES = {f"weight_one({a})": lambda a=a: fixtures.weight_one(a) for a in range(4)}
SPAN_CASES.update({f"weight_two({k})": lambda k=k: fixtures.weight_two(k) for k in range(6)})
SPAN_CASES["curve_pair"] = fixtures.curve_pair


@pytest.mark.parametrize("make", SPAN_CASES.values(), ids=SPAN_CASES.keys())
def test_named_spans_are_the_spans_of_their_layers(make):
    v = make()
    split = g_split(v)
    for name, chosen in SPANS.items():
        rows = [r for (p, q), sub in split.pieces.items() if chosen(p, q) for r in sub.basis]
        assert getattr(split, name) == Subspace(v.dim * v.dim, rows), name


def test_stabilizer_and_transverse_part_decompose_the_algebra():
    split = g_split(fixtures.weight_two(1))
    assert split.s_f.dim + split.s_f_perp.dim == 15
    assert split.s_f.intersect(split.s_f_perp).dim == 0
    # the stabilizers are subalgebras
    for sub in (split.s_f, split.s_w, split.m_x):
        mats = [unflatten_matrix(r, split.algebra.ambient) for r in sub.basis]
        for i, x in enumerate(mats):
            for y in mats[i + 1:]:
                assert sub.contains_vector(flatten_matrix(commutator(x, y)))


# -- verdicts ----------------------------------------------------------------


def test_weight_one_family_is_hermitian_and_smooth():
    for a in range(4):
        split = g_split(fixtures.weight_one(a))
        hermitian, detail = hermitian_test(split)
        assert hermitian, detail
        smooth, detail = smoothness_test(split)
        assert smooth, detail


def test_weight_two_kinds_all_fail_the_unit_box():
    for kind in range(6):
        split = g_split(fixtures.weight_two(kind))
        hermitian, detail = hermitian_test(split)
        assert not hermitian
        assert "unit box" in detail
        assert any(abs(p) > 1 or abs(q) > 1 for p, q in split.pieces)


def test_weight_two_smoothness_classification_is_the_frozen_one():
    expected = {0: True, 1: False, 2: True, 3: True, 4: True, 5: True}
    for kind, verdict in expected.items():
        split = g_split(fixtures.weight_two(kind))
        smooth, detail = smoothness_test(split)
        assert smooth is verdict, (kind, detail)
    # the single failure is witnessed by a transverse layer of degree +1
    offending = g_split(fixtures.weight_two(1))
    assert (-1, 2) in offending.pieces


def test_hermitian_fixtures_are_always_smooth():
    for v in [fixtures.weight_one(a) for a in range(4)] + \
             [fixtures.weight_two(k) for k in range(6)]:
        split = g_split(v)
        if hermitian_test(split)[0]:
            assert smoothness_test(split)[0]


def test_layer_verdict_agrees_with_literal_containment():
    for kind in (1, 2):
        split = g_split(fixtures.weight_two(kind))
        smooth, _ = smoothness_test(split)
        assert smooth == split.s_w.contains(split.s_f_perp)


def test_split_rejects_mismatched_inputs():
    v = fixtures.weight_one(1)
    small = lie_algebra(Mat([[0, 1], [-1, 0]]))
    with pytest.raises(ValueError):
        lie_deligne_split(small, v.structure())
    other = lie_algebra(Mat.identity(v.dim))
    with pytest.raises(ValueError):
        lie_deligne_split(other, v.structure())
