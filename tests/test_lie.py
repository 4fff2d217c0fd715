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

import test_cli
import test_induced
from hodgenorm import cli, exactlin, fixtures, lie
from hodgenorm.exactlin import Mat, Subspace, commutator, kernel
from hodgenorm.induced import induce, induced_endomorphism, PureHodgeData
from hodgenorm.lie import (
    LieSplit,
    _cut_out_layers,
    hermitian_test,
    lie_algebra,
    lie_deligne_split,
    smoothness_test,
)
from hodgenorm.mhs import DeligneSplitting, is_infinitesimal_isometry, NilpotentCone


def from_cols(cols):
    """The matrix with the given columns."""
    return Mat(cols).transpose()


def flatten_matrix(x: Mat):
    """Row-major coordinates of a matrix, as a vector of length nrows*ncols."""
    return tuple(entry for row in x.rows for entry in row)


def unflatten_matrix(v, n):
    """The n x n matrix with row-major coordinates v."""
    return Mat([v[k * n:(k + 1) * n] for k in range(n)])


def closed_form_basis(q: Mat) -> list:
    """The closed-form basis of the symmetry algebra of q, kept as the
    reference: q^{-1} S for each seed (i, j) in order, with S = E_ij - eps E_ji
    for i < j and S = E_ii when eps = -1, each product formed in full."""
    n = q.nrows
    eps = 1 if q.transpose() == q else -1
    q_inv = q.inverse()
    basis = []
    for i in range(n):
        for j in range(i + (eps == 1), n):
            s = [[0] * n for _ in range(n)]
            s[i][j] = 1
            if i != j:
                s[j][i] = -eps
            basis.append(q_inv * Mat(s))
    return basis


def span_of(basis) -> Subspace:
    """A basis of matrices, flattened, as a subspace of End(V)."""
    return Subspace(basis[0].nrows ** 2, [flatten_matrix(b) for b in basis])


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
        g, basis = lie_algebra(q), closed_form_basis(q)
        assert all(is_infinitesimal_isometry(b, g.q) for b in basis)
        assert span_of(basis).dim == g.dim == len(basis)


def test_each_seed_builds_its_reference_element():
    for q in (Mat([[0, 1], [-1, 0]]), Mat.identity(4), fixtures.weight_one(2).q,
              fixtures.weight_two(1).q, Mat([[2, 1], [1, 3]]), Mat([[0, 3], [-3, 0]])):
        g = lie_algebra(q)
        assert len(g.seeds) == g.dim
        assert [g.element(seed) for seed in g.seeds] == closed_form_basis(q)


# g^{-1,-1} of each shipped fixture, which `hodge check` builds for the
# isometry test and the cone containment
CORNER = {"a1": 11, "a1_input": 1, "hermitian": 18, "varying": 5, "pair": 4, "elliptic": 1}


@pytest.fixture
def built_seeds(monkeypatch):
    """Every seed whose element is built, in order."""
    built = []
    element = lie.LieAlgebraBasis.element
    monkeypatch.setattr(lie.LieAlgebraBasis, "element",
                        lambda self, seed: built.append(seed) or element(self, seed))
    return built


def test_hodge_commands_build_only_the_seeds_they_read(built_seeds, capsys):
    for name, corner in CORNER.items():
        path = str(test_cli.DATA / f"{name}.json")
        data = test_cli.load_fixture(path).data
        layers = lie_deligne_split(lie_algebra(data.q), data.structure()).layers
        built_seeds.clear()
        assert cli.main(["check", path]) == 0
        # each g^{-1,-1} seed once, and no other
        assert built_seeds == list(layers.get((-1, -1), ())), name
        assert len(built_seeds) == corner, name
        built_seeds.clear()
        assert cli.main(["lie", path]) == 0
        # a1, hermitian and varying fail the unit box, so no commutator is formed
        read = [] if name in ("a1", "hermitian", "varying") else \
            [seed for (p, q), seeds in layers.items() if p < 0 or p + q <= -2 for seed in seeds]
        assert sorted(built_seeds) == sorted(read), name
        assert len(set(built_seeds)) == len(built_seeds), name
    capsys.readouterr()


def test_bracket_closure():
    for q in (Mat([[0, 1], [-1, 0]]), Mat.identity(5), fixtures.weight_one(1).q):
        basis = closed_form_basis(q)
        span = span_of(basis)
        assert all(span.contains_vector(flatten_matrix(commutator(a, b)))
                   for i, a in enumerate(basis) for b in basis[i + 1:])


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
    assert all(total.contains_vector(flatten_matrix(b)) for b in closed_form_basis(g.q))


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
        bucketed = lie_deligne_split(g, v.structure())
        a, _, grades = bucketed.frame
        local = closed_form_basis(a.transpose() * g.q * a)
        cut = LieSplit(bucketed.frame, bucketed.local, _cut_out_layers(local, grades))
        assert cut.diamond() == bucketed.diamond()
        assert list(cut.pieces) == list(bucketed.pieces)
        assert cut.pieces == bucketed.pieces


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
    pieces = test_induced.predicted_split(h)
    for (r, s), sub in split.pieces.items():
        for x in split.slot_matrices(r, s):
            x_h = induced_endomorphism(x, h.factor_exponents)
            for (p, q), piece in pieces.pieces.items():
                target = pieces.piece(p + r, q + s)
                for b in piece.basis:
                    image = x_h.apply(b)
                    assert target.contains_vector(image) or not any(image)


# The named spans of the symmetry algebra, as bidegree tests for `span_where`:
# the stabilizer of F, the part transverse to it, the stabilizer of W, and the
# layers with p, q <= 0, where nilpotent cones land (in p, q <= -1).
SPANS = {
    "s_f": lambda p, q: p >= 0,
    "s_f_perp": lambda p, q: p < 0,
    "s_w": lambda p, q: p + q <= 0,
    "m_x": lambda p, q: p <= 0 and q <= 0,
}


def test_cone_generators_live_in_the_corner_layer():
    cases = [fixtures.weight_one(a) for a in (1, 2, 3)]
    cases += [fixtures.weight_two(k) for k in range(1, 6)]
    cases.append(fixtures.weight_one(2, split_cone=True))
    for v in cases:
        split = g_split(v)
        corner = split.span_where(lambda p, q: p <= -1 and q <= -1)
        for n in v.cone.generators:
            assert corner.contains_vector(flatten_matrix(n))
        assert split.span_where(SPANS["m_x"]).contains(corner)


def test_layers_are_a_deligne_splitting_inside_end_v():
    v = fixtures.weight_one(1)
    split = g_split(v)
    assert isinstance(split, DeligneSplitting)
    assert split.ambient == v.dim * v.dim
    assert split.local.ambient == v.dim
    assert split.piece(5, 5) == Subspace.zero(v.dim * v.dim)


def test_stabilizer_and_transverse_part_decompose_the_algebra():
    split = g_split(fixtures.weight_two(1))
    spans = {name: split.span_where(chosen) for name, chosen in SPANS.items()}
    assert spans["s_f"].dim + spans["s_f_perp"].dim == 15
    assert spans["s_f"].intersect(spans["s_f_perp"]).dim == 0
    # the stabilizers are subalgebras
    for sub in (spans["s_f"], spans["s_w"], spans["m_x"]):
        mats = [unflatten_matrix(r, split.local.ambient) for r in sub.basis]
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
        assert smooth == split.span_where(SPANS["s_w"]).contains(
            split.span_where(SPANS["s_f_perp"]))


def test_split_rejects_mismatched_inputs():
    v = fixtures.weight_one(1)
    small = lie_algebra(Mat([[0, 1], [-1, 0]]))
    with pytest.raises(ValueError):
        lie_deligne_split(small, v.structure())
    other = lie_algebra(Mat.identity(v.dim))
    with pytest.raises(ValueError):
        lie_deligne_split(other, v.structure())


# -- the frame against End(V) -------------------------------------------------


def reference_layers(algebra, structure) -> DeligneSplitting:
    """The layers by the End(V) round trip, kept as the reference.

    Each closed-form element X_a of the symmetry algebra of A^T q A, in the
    splitting frame A, is mapped to A X_a A^{-1} and flattened, and each
    bucket of one shift is eliminated at width n^2.  When an element has
    more than one shift, each layer is cut out instead: one kernel per
    shift, its coefficients applied to the flattened A X_a A^{-1}.
    """
    a, a_inv, grades = structure.split().frame
    local = closed_form_basis(a.transpose() * algebra.q * a)
    flats = [flatten_matrix(a * b * a_inv) for b in local]
    cell_shifts = [(pk - pl, qk - ql) for pk, qk in grades for pl, ql in grades]
    supports = [{d for d, x in zip(cell_shifts, flatten_matrix(b)) if x} for b in local]
    n2 = algebra.ambient ** 2
    if any(len(shifts) > 1 for shifts in supports):
        cells = from_cols([flatten_matrix(b) for b in local]).rows
        pieces = {}
        for d in sorted(set(cell_shifts)):
            coeffs = kernel(Mat([row for row, s in zip(cells, cell_shifts) if s != d]))
            if coeffs.dim:
                pieces[d] = Subspace(n2, (Mat(coeffs.basis) * Mat(flats)).rows)
        return DeligneSplitting(n2, pieces)
    layers = {}
    for (d,), flat in zip(supports, flats):
        layers.setdefault(d, []).append(flat)
    return DeligneSplitting(n2, {d: Subspace(n2, layers[d]) for d in sorted(layers)})


def hermitian_reference(pieces, n):
    """hermitian_test on the echelon bases of End(V) layers {(p, q): Subspace}."""
    bad = sorted(pq for pq in pieces if abs(pq[0]) > 1 or abs(pq[1]) > 1)
    if bad:
        p, q = bad[0]
        return False, f"layer ({p},{q}) lies outside the unit box"
    perp = [unflatten_matrix(r, n) for (p, q), sub in pieces.items() if p < 0 for r in sub.basis]
    deep = [unflatten_matrix(r, n) for (p, q), sub in pieces.items() if p + q <= -2
            for r in sub.basis]
    for x in perp:
        for y in deep:
            if not commutator(x, y).is_zero():
                raise ArithmeticError("unit-box layers fail the deep commutation identity")
    return True, "all layers lie in the unit box"


def cone_check(fixture):
    """The bracket suite's own bracket.cone-containment verdict and detail."""
    (check,) = [c for c in cli.suite_bracket(fixture, None)
                if c.name == "bracket.cone-containment"]
    return check.ok, check.detail


def cone_check_reference(fixture):
    """bracket.cone-containment in End(V): every generator, flattened, in
    the (-1,-1) layer of the round trip."""
    data = fixture.data
    if not len(data.cone):
        return True, "fixture has no cone"
    deg = reference_layers(lie_algebra(data.q), data.structure()).piece(-1, -1)
    return (all(deg.contains_vector(flatten_matrix(g)) for g in data.cone.generators),
            "every generator lies in g^{-1,-1}")


def isometry_check(fixture):
    """The bracket suite's own bracket.isometry-algebra verdict and detail."""
    (check,) = [c for c in cli.suite_bracket(fixture, None)
                if c.name == "bracket.isometry-algebra"]
    return check.ok, check.detail


def isometry_reference(fixture):
    """bracket.isometry-algebra as first written: x^T q + q x = 0 for every
    element of the closed-form basis of q."""
    q = fixture.data.q
    return (all(is_infinitesimal_isometry(x, q) for x in closed_form_basis(q)),
            "x^T Q + Q x = 0 on the basis; bracket closure follows")


def layer_cases():
    """((group, index), fixture) over the shipped fixtures, the fixture
    families with their moved copies, and the loadable fuzz mutations of
    elliptic and pair."""
    shipped = [test_cli.load_fixture(test_cli.DATA / name) for name in test_cli.SHIPPED]
    for group, cases in (("shipped", shipped), ("families", test_cli.family_fixtures()),
                         ("mutations", test_cli.structure_mutations())):
        for j, fx in enumerate(cases):
            yield (group, j), fx


def _outcome(check, *args):
    try:
        return check(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def rotated(labels):
    """Each label's layer under the next label, the last under the first."""
    return labels[1:] + labels[:1]


def test_frame_layers_read_in_end_v_are_the_round_trip_ones(monkeypatch):
    cut_outs = []
    monkeypatch.setattr(lie, "_cut_out_layers", lambda *a: cut_outs.append(a) or _cut_out_layers(*a))
    routes = {"shipped": 0, "families": 0, "mutations": 0}
    for (group, j), fx in layer_cases():
        data = fx.data
        before = len(cut_outs)
        split = _outcome(lie_deligne_split, lie_algebra(data.q), data.structure())
        routes[group] += len(cut_outs) > before
        ref = _outcome(reference_layers, lie_algebra(data.q), data.structure())
        if not isinstance(ref, DeligneSplitting):
            assert split == ref, (group, j)
            continue
        assert list(split.pieces) == list(ref.pieces), (group, j)
        assert split.pieces == ref.pieces, (group, j)
        assert split.diamond() == ref.diamond(), (group, j)
        for pq, piece in ref.pieces.items():
            expected = [unflatten_matrix(r, data.q.nrows) for r in piece.basis]
            assert split.slot_matrices(*pq) == expected, (group, j, pq)
    # 26 of the mutations of the full documents take the cut-out route
    assert routes["mutations"] >= 26


def test_isometry_certificate_agrees_with_the_per_element_reference():
    checked = 0
    for (group, j), fx in layer_cases():
        if group != "mutations":
            assert isometry_check(fx) == isometry_reference(fx), (group, j)
            checked += 1
    # the six shipped fixtures and the fifteen family fixtures
    assert checked == 21


def test_hermitian_verdict_and_cone_containment_match_the_end_v_reference():
    for (group, j), fx in layer_cases():
        data = fx.data
        assert _outcome(cone_check, fx) == _outcome(cone_check_reference, fx), (group, j)
        split = _outcome(lie_deligne_split, lie_algebra(data.q), data.structure())
        if not isinstance(split, LieSplit):
            continue
        ref = reference_layers(lie_algebra(data.q), data.structure())
        labels = list(split.layers)
        for moved in (labels, rotated(labels)):
            relabeled = LieSplit(split.frame, split.local,
                                 dict(zip(moved, split.layers.values())))
            pieces = dict(zip(moved, ref.pieces.values()))
            assert _outcome(hermitian_test, relabeled) == \
                _outcome(hermitian_reference, dict(sorted(pieces.items())), data.q.nrows), \
                (group, j, moved)


def test_a_cone_generator_outside_the_corner_layer_fails_in_both_coordinates():
    v = fixtures.weight_one(1)
    split = g_split(v)
    (n,) = v.cone.generators
    for bad in (split.slot_matrices(-1, 0)[0], n + split.slot_matrices(-1, 0)[-1]):
        seeded = PureHodgeData(v.weight, v.q, v.f, NilpotentCone([bad], v.q), v.w)
        fx = test_cli._carried(seeded)
        assert cone_check(fx) == cone_check_reference(fx) == \
            (False, "every generator lies in g^{-1,-1}")
    assert cone_check(test_cli._carried(v)) == (True, "every generator lies in g^{-1,-1}")


def test_swapped_layer_labels_break_the_deep_commutation_in_both_coordinates():
    # g^{0,0} filed under (-1,-1) is both F-transverse and deep, and it is
    # not abelian
    v = fixtures.weight_one(1)
    split = g_split(v)
    ref = reference_layers(lie_algebra(v.q), v.structure())
    swap = {(0, 0): (-1, -1), (-1, -1): (0, 0)}
    layers = {swap.get(pq, pq): xs for pq, xs in split.layers.items()}
    pieces = {swap.get(pq, pq): sub for pq, sub in ref.pieces.items()}
    message = "unit-box layers fail the deep commutation identity"
    with pytest.raises(ArithmeticError, match=message):
        hermitian_test(LieSplit(split.frame, split.local, layers))
    with pytest.raises(ArithmeticError, match=message):
        hermitian_reference(dict(sorted(pieces.items())), v.dim)


def test_lie_and_check_build_no_end_v_space(monkeypatch, capsys):
    # a1 is 20-dimensional: End(V) has dimension 400
    ambients = []
    set_rows = exactlin.Subspace._set

    def counting(self, *args):
        ambients.append(self.ambient)
        return set_rows(self, *args)

    monkeypatch.setattr(exactlin.Subspace, "_set", counting)
    for command in ("lie", "check"):
        assert cli.main([command, str(test_cli.DATA / "a1.json")]) == 0
    capsys.readouterr()
    assert 20 in ambients
    assert ambients.count(400) == 0
