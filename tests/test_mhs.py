"""Deligne splittings against hand-worked examples, plus rejection paths.

The weight-2 blocks here (a 3-chain and a pair of 2-chains) were split on
paper; their diamonds, primitive forms, and opposite filtrations are frozen.
"""

import contextlib
import pathlib
import random
import re

import pytest

import test_cli
from test_induced import fresh_families
from hodgenorm import cli, mhs
from hodgenorm.exactlin import (
    I,
    Mat,
    Subspace,
    hermitian_positive_definite,
    kernel,
    nilpotent_exp,
    qi,
    vec,
)
from hodgenorm.filtrations import (
    _Filtration,
    DecreasingFiltration,
    IncreasingFiltration,
    weight_filtration,
)
from hodgenorm.fixtures import (
    defective_inputs,
    elliptic,
    random_split_mixed_hodge,
    random_unimodular,
    weight_one,
    weight_two,
)
from hodgenorm.induced import PureHodgeData, induce, tate_normalize
from hodgenorm.lie import lie_algebra, lie_deligne_split
from hodgenorm.mhs import (
    DeligneSplitting,
    MixedHodge,
    NilpotentCone,
    check_symmetries,
    cone_compatibility,
    deligne_split,
    f_infinity,
    polarization_check,
)
from hodgenorm.orbit import orbit_spec


def span(n, *vs):
    return Subspace(n, [vec(v) for v in vs])


def test_elliptic_split_is_the_hand_computation():
    structure, cone = elliptic()
    split = deligne_split(structure)
    assert split.diamond() == {(0, 0): 1, (1, 1): 1}
    assert split.piece(1, 1) == span(2, (1, 0))
    assert split.piece(0, 0) == span(2, (0, 1))
    ok, detail = polarization_check(structure, cone)
    assert ok, detail


def test_non_split_variant_exercises_the_correction_term():
    # F^1 spanned by e0 + i e1: F^1 ∩ conj(F)^1 = 0, so the lower-weight
    # correction inside the splitting formula is what makes the piece appear.
    _, cone = elliptic()
    w = IncreasingFiltration.from_generators(
        2, {0: [vec((0, 1))], 2: [vec((1, 0))]})
    f = DecreasingFiltration.from_generators(
        2, {1: [vec((qi(1), qi(0, 1)))], 0: [vec((0, 1))]})
    structure = MixedHodge(1, w, f, Mat([[0, 1], [-1, 0]]))
    split = deligne_split(structure)
    assert split.diamond() == {(0, 0): 1, (1, 1): 1}
    assert split.piece(1, 1) == Subspace(2, [vec((qi(1), qi(0, 1)))])
    ok, detail = polarization_check(structure, cone)
    assert ok, detail


def test_pure_weight_one_polarization():
    # two independent (1,0)/(0,1) pairs, standard symplectic pairing
    q = Mat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    w = IncreasingFiltration(4, {1: Subspace.full(4)})
    f = DecreasingFiltration.from_generators(
        4, {1: [vec((1, qi(0, 1), 0, 0)), vec((0, 0, 1, qi(0, 1)))],
            0: [vec((0, 1, 0, 0)), vec((0, 0, 0, 1))]})
    structure = MixedHodge(1, w, f, q)
    assert structure.split().diamond() == {(1, 0): 2, (0, 1): 2}
    ok, detail = polarization_check(structure)
    assert ok, detail
    flipped = MixedHodge(1, w, f, q * -1)
    ok, detail = polarization_check(flipped)
    assert not ok and "positive" in detail


THREE_CHAIN_N = Mat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
THREE_CHAIN_Q = Mat([[0, 0, 1], [0, -1, 0], [1, 0, 0]])


def three_chain():
    """Weight-2 block x -> y -> z with Q(x,z) = 1, Q(y,y) = -1."""
    w = IncreasingFiltration.from_generators(
        3, {0: [vec((0, 0, 1))], 2: [vec((0, 1, 0))], 4: [vec((1, 0, 0))]})
    f = DecreasingFiltration.from_generators(
        3, {2: [vec((1, 0, 0))], 1: [vec((0, 1, 0))], 0: [vec((0, 0, 1))]})
    structure = MixedHodge(2, w, f, THREE_CHAIN_Q)
    return structure, NilpotentCone([THREE_CHAIN_N], THREE_CHAIN_Q)


def test_three_chain_split_and_polarization():
    structure, cone = three_chain()
    diamond = structure.split().diamond()
    assert diamond == {(2, 2): 1, (1, 1): 1, (0, 0): 1}
    ok, _ = check_symmetries(diamond, 2, limiting=True)
    assert ok
    ok, detail = polarization_check(structure, cone)
    assert ok, detail


def test_three_chain_f_infinity_is_the_opposite_filtration():
    structure, _ = three_chain()
    split = deligne_split(structure)
    fhat = f_infinity(split, 2)
    assert fhat.at(0) == Subspace.full(3)
    assert fhat.at(1) == span(3, (0, 1, 0), (0, 0, 1))
    assert fhat.at(2) == span(3, (0, 0, 1))
    assert fhat.at(3).dim == 0


def two_chain_pair():
    """Weight-2 block with two 2-chains a -> c, b -> d and F^2 = <a + ib>."""
    n_op = Mat([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
    q = Mat([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]])
    w = IncreasingFiltration.from_generators(
        4, {1: [vec((0, 0, 1, 0)), vec((0, 0, 0, 1))],
            3: [vec((1, 0, 0, 0)), vec((0, 1, 0, 0))]})
    # F^1 carries the conjugate line a - ib as well: it is the span of the
    # pieces (2,1), (1,2) and (1,0), hence three-dimensional.
    f = DecreasingFiltration.from_generators(
        4, {2: [vec((1, qi(0, 1), 0, 0))],
            1: [vec((0, 1, 0, 0)), vec((0, 0, 1, qi(0, 1)))],
            0: [vec((0, 0, 0, 1))]})
    structure = MixedHodge(2, w, f, q)
    return structure, NilpotentCone([n_op], q)


def test_two_chain_pair_split_and_polarization():
    structure, cone = two_chain_pair()
    diamond = structure.split().diamond()
    assert diamond == {(2, 1): 1, (1, 2): 1, (1, 0): 1, (0, 1): 1}
    ok, _ = check_symmetries(diamond, 2, limiting=True)
    assert ok
    ok, detail = polarization_check(structure, cone)
    assert ok, detail
    ok, _ = structure.f.isotropy(structure.q, 2)
    assert ok


def test_check_symmetries_flags_violations():
    ok, msg = check_symmetries({(1, 0): 2, (0, 1): 1}, 1)
    assert not ok and "h(" in msg
    # conjugation-symmetric but not centered: fails only as a limiting diamond
    ok, _ = check_symmetries({(1, 1): 1}, 0, limiting=False)
    assert ok
    ok, msg = check_symmetries({(1, 1): 1}, 0, limiting=True)
    assert not ok


def test_cone_compatibility_flags_wrong_direction():
    structure, _ = elliptic()
    backwards = NilpotentCone([Mat([[0, 1], [0, 0]])], structure.q)
    ok, detail = cone_compatibility(structure, backwards)
    assert not ok and "W_" in detail


def test_mixed_weight_needs_a_cone():
    structure, _ = elliptic()
    ok, detail = polarization_check(structure, None)
    assert not ok and "cone" in detail


def test_wrong_interior_weight_filtration_is_reported():
    structure, _ = elliptic()
    wrong_w = IncreasingFiltration.from_generators(
        2, {0: [vec((1, 0))], 2: [vec((0, 1))]})
    wrong = MixedHodge(1, wrong_w,
                       DecreasingFiltration.from_generators(
                           2, {1: [vec((0, 1))], 0: [vec((1, 0))]}),
                       structure.q)
    cone = NilpotentCone([Mat([[0, 0], [1, 0]])], structure.q)
    ok, detail = polarization_check(wrong, cone)
    assert not ok


def test_structure_validation():
    w = IncreasingFiltration(2, {1: Subspace.full(2)})
    f = DecreasingFiltration(3, {0: Subspace.full(3)})
    with pytest.raises(ValueError):
        MixedHodge(1, w, f)
    with pytest.raises(ValueError):
        MixedHodge(1, IncreasingFiltration(2, {0: span(2, (1, 0))}),
                   DecreasingFiltration(2, {0: Subspace.full(2)}))


def test_dimension_mismatch_names_f():
    w = IncreasingFiltration(2, {1: Subspace.full(2)})
    f = DecreasingFiltration(3, {0: Subspace.full(3)})
    with pytest.raises(ValueError, match=r"^f: W and F live on spaces of different dimension$"):
        MixedHodge(1, w, f)


def test_wrong_pairing_shape_names_q():
    w = IncreasingFiltration(2, {1: Subspace.full(2)})
    f = DecreasingFiltration(2, {0: Subspace.full(2)})
    with pytest.raises(ValueError, match=r"^q: pairing has the wrong shape$"):
        MixedHodge(1, w, f, Mat.identity(3))


def test_defective_inputs_are_rejected():
    for name, thunk in defective_inputs().items():
        with pytest.raises(ValueError):
            thunk()


def test_random_split_structures_pass_all_identities():
    rng = random.Random(2024)
    for _ in range(15):
        structure = random_split_mixed_hodge(rng)
        split = deligne_split(structure)  # raises on any defect
        ok, msg = check_symmetries(split.diamond(), structure.n)
        assert ok, msg
        assert split.total_dim() == structure.ambient


def test_deligne_split_forms_each_step_intersection_once(monkeypatch):
    # every meet of a step of F or conj(F) with W is read off that step's one
    # echelon in the W-adapted basis; no Zassenhaus meet or span of V is formed
    structure = weight_two(3).structure()
    written = []
    in_flag_coords = mhs._in_flag_coords
    monkeypatch.setattr(mhs, "_in_flag_coords",
                        lambda sub, b_inv: written.append(sub) or in_flag_coords(sub, b_inv))
    spaces = _spy_on_spaces(monkeypatch)
    first = deligne_split(structure)
    steps = [sub for _, sub in structure.f.steps]
    assert written == steps + [sub.conj() for sub in steps]
    assert spaces == []
    made = len(written)
    again = deligne_split(structure)  # the verified splitting is kept on the structure
    assert len(written) == made
    assert again is first
    assert structure.split() is first


def _spy_on_spaces(monkeypatch):
    """Record every Subspace.intersect and Subspace.sum call."""
    calls = []
    intersect, total = Subspace.intersect, Subspace.sum.__func__
    monkeypatch.setattr(Subspace, "intersect",
                        lambda self, other: calls.append("intersect") or intersect(self, other))
    monkeypatch.setattr(Subspace, "sum", classmethod(
        lambda cls, ambient, spaces: calls.append("sum") or total(cls, ambient, spaces)))
    return calls


def _moved(v, g):
    """The same polarized data written in the basis g: x -> g x."""
    g_inv = g.inverse()
    q = g_inv.transpose() * v.q * g_inv
    cone = NilpotentCone([g * n * g_inv for n in v.cone.generators], q)
    return PureHodgeData(v.weight, q, v.f.apply(g), cone, v.w.apply(g))


def _spy_on_splitting_defect(monkeypatch):
    checked = []
    defect = mhs.splitting_defect

    def spy(structure, split):
        checked.append(structure)
        return defect(structure, split)

    monkeypatch.setattr(mhs, "splitting_defect", spy)
    return checked


def test_split_then_polarize_verifies_the_splitting_once(monkeypatch):
    # deligne_split and then polarization_check on one induced structure,
    # which is spanned from its monomials with no Zassenhaus meet; its V,
    # which carries no basis, is split by meets when H is built
    meets = []
    zassenhaus = mhs._zassenhaus

    def spy(*args):
        meets.append(args)
        return zassenhaus(*args)

    monkeypatch.setattr(mhs, "_zassenhaus", spy)
    v = weight_one(2)
    ind = tate_normalize(induce(_moved(v, random_unimodular(random.Random(12), v.dim))))
    assert meets
    meets.clear()
    structure = ind.structure()
    checked = _spy_on_splitting_defect(monkeypatch)
    split = deligne_split(structure)
    assert polarization_check(structure, ind.cone) == (True, None)
    assert checked == [structure] and meets == []
    assert structure.split() is split
    assert deligne_split(structure) is split
    assert len(checked) == 1


def test_a_defective_splitting_is_rejected_on_every_call(monkeypatch):
    # F^1 is a rational line, so I^{1,0} and I^{0,1} coincide
    w = IncreasingFiltration(2, {1: Subspace.full(2)})
    f = DecreasingFiltration.from_generators(2, {1: [vec((1, 0))], 0: [vec((0, 1))]})
    structure = MixedHodge(1, w, f, Mat([[0, 1], [-1, 0]]))
    checked = _spy_on_splitting_defect(monkeypatch)
    with pytest.raises(ValueError, match=r"^f: not a mixed Hodge structure: ") as err:
        deligne_split(structure)
    assert polarization_check(structure) == (False, str(err.value))
    with pytest.raises(ValueError, match=r"^f: not a mixed Hodge structure: "):
        structure.split()
    assert len(checked) == 3


# -- the splitting verified in its frame -------------------------------------

DATA = pathlib.Path(cli.__file__).parent / "data"
SHIPPED = ("a1", "a1_input", "elliptic", "hermitian", "pair", "varying")


def reference_splitting_defect(structure, split):
    """The span-based verification, kept as the reference: one span of
    pieces for the total, one per F jump, one per W jump and one per piece."""
    total = split.span_where(lambda p, q: True)
    if split.total_dim() != total.dim:
        return "bigraded pieces are not independent"
    if total.dim != structure.ambient:
        return "bigraded pieces do not span the space"
    for k in structure.f.jump_levels:
        if structure.f.at(k) != split.span_where(lambda p, q: p >= k):
            return f"F^{k} is not the span of pieces with p >= {k}"
    for l in structure.w.jump_levels:
        if structure.w.at(l) != split.span_where(lambda p, q: p + q <= l):
            return f"W_{l} is not the span of pieces with p+q <= {l}"
    for (p, q), sub in split.pieces.items():
        target = split.span_where(lambda r, s: (r, s) == (q, p) or (r < q and s < p))
        if not target.contains(sub.conj()):
            return f"conjugate of piece ({p},{q}) escapes ({q},{p}) + lower"
    return None


def _shipped_structure(name):
    return cli.load_fixture(DATA / f"{name}.json").data.structure()


def seeded_defects(split):
    """(defect, pieces) made from a valid splitting: each piece missing, with
    its last basis vector dropped, conjugated, with an extra vector of the
    next piece, tilted by a vector of a piece of no lower p and no higher
    p+q (which keeps F and W), and under the free label one step up in p
    and down in q (which keeps W); and each two pieces of one dimension
    under each other's labels."""
    n, pieces = split.ambient, split.pieces
    labels = list(pieces)
    for i, pq in enumerate(labels):
        sub = pieces[pq]
        rest = {rs: other for rs, other in pieces.items() if rs != pq}
        yield "missing piece", rest
        yield "dropped basis vector", {**rest, pq: Subspace(n, sub.basis[:-1])}
        yield "conjugated piece", {**rest, pq: sub.conj()}
        extra = pieces[labels[(i + 1) % len(labels)]].basis[:1]
        yield "extra dependent vector", {**rest, pq: Subspace(n, sub.basis + extra)}
        for rs in labels:
            if rs != pq and rs[0] >= pq[0] and sum(rs) <= sum(pq):
                tilted = tuple(x + y for x, y in zip(sub.basis[0], pieces[rs].basis[0]))
                yield "tilted piece", {**rest, pq: Subspace(n, (tilted,) + sub.basis[1:])}
                break
        for rs in labels[i + 1:]:
            if pieces[rs].dim == sub.dim:
                yield "swapped piece label", {**pieces, pq: pieces[rs], rs: sub}
        raised = (pq[0] + 1, pq[1] - 1)
        if raised not in pieces:
            yield "raised piece label", {**rest, raised: sub}


def _compare_with_the_reference(monkeypatch):
    """Check every splitting deligne_split verifies against the reference too."""
    outcomes = []
    defect = mhs.splitting_defect

    def both(structure, split):
        got = defect(structure, split)
        outcomes.append((got, reference_splitting_defect(structure, split)))
        return got

    monkeypatch.setattr(mhs, "splitting_defect", both)
    return outcomes


def test_the_frame_verification_agrees_with_the_span_reference(monkeypatch):
    outcomes = _compare_with_the_reference(monkeypatch)
    structures = [_shipped_structure(name) for name in SHIPPED]
    structures += [fx.data.structure() for fx in test_cli.structure_mutations()]
    for st in structures:
        with contextlib.suppress(ValueError):
            MixedHodge(st.n, st.w, st.f, st.q).split()  # a new structure splits anew
    for thunk in defective_inputs().values():
        with contextlib.suppress(ValueError):
            thunk()
    # every structure verifies one splitting, and so do three defective inputs
    assert len(outcomes) == len(structures) + 3
    assert all(got == ref for got, ref in outcomes), [o for o in outcomes if o[0] != o[1]]
    refused = [got for got, _ in outcomes if got is not None]
    assert len(refused) >= 20
    assert set(refused) == {"bigraded pieces are not independent",
                            "bigraded pieces do not span the space"}


def test_seeded_splitting_defects_reach_every_message_as_the_reference_does():
    cases = [(name, _shipped_structure(name)) for name in SHIPPED]
    cases += [("three_chain", three_chain()[0]), ("two_chain_pair", two_chain_pair()[0])]
    reached = {}
    for name, st in cases:
        split = st.split()
        for defect, pieces in seeded_defects(split):
            seeded = DeligneSplitting(split.ambient, pieces)
            got = mhs.splitting_defect(st, seeded)
            assert got == reference_splitting_defect(st, seeded), (name, defect)
            reached.setdefault(re.sub(r"-?\d+", "#", str(got)), set()).add(defect)
    assert reached == {
        "bigraded pieces are not independent": {"conjugated piece", "extra dependent vector"},
        "bigraded pieces do not span the space": {"missing piece", "dropped basis vector"},
        "F^# is not the span of pieces with p >= #": {"swapped piece label",
                                                       "raised piece label"},
        "W_# is not the span of pieces with p+q <= #": {"swapped piece label"},
        "conjugate of piece (#,#) escapes (#,#) + lower": {"tilted piece",
                                                            "raised piece label"},
        # R-split pieces on the diagonal are their own conjugates
        "None": {"conjugated piece"},
    }


def test_a_splitting_has_a_frame_exactly_when_its_pieces_are_a_basis():
    split = _shipped_structure("varying").split()
    a, a_inv, grades = split.frame
    assert a * a_inv == Mat.identity(split.ambient)
    assert grades == tuple(pq for pq, sub in split.pieces.items() for _ in sub.basis)
    for defect, pieces in seeded_defects(split):
        seeded = DeligneSplitting(split.ambient, pieces)
        dependent = sum(sub.dim for sub in pieces.values()) != Subspace.sum(
            split.ambient, pieces.values()).dim
        spanning = Subspace.sum(split.ambient, pieces.values()).dim == split.ambient
        assert (seeded.frame is not None) == (spanning and not dependent), defect


def _spy_on_sums(monkeypatch):
    calls = []
    total = Subspace.sum.__func__

    def spy(cls, ambient, spaces):
        calls.append(ambient)
        return total(cls, ambient, spaces)

    monkeypatch.setattr(Subspace, "sum", classmethod(spy))
    return calls


@pytest.mark.parametrize("name", ["a1_input", "varying", "hermitian"])
def test_the_splitting_is_verified_without_a_span(name, monkeypatch):
    st = _shipped_structure(name)
    split = st.split()
    calls = _spy_on_sums(monkeypatch)
    assert mhs.splitting_defect(st, split) is None
    assert calls == []  # 10, 24 and 18 sums when each identity spanned its pieces


def _spy(monkeypatch, owner, name):
    """Record the arguments of every call of owner.name."""
    calls = []
    call = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return call(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _fresh_induced():
    """The Tate-normalized induced structure of each fresh family of the
    benchmark, built and not yet split."""
    return [(name, tate_normalize(induce(v))) for name, v in fresh_families()]


def test_the_splitting_defect_forms_no_product_and_picks_no_block(monkeypatch):
    cases = [_shipped_structure(name) for name in SHIPPED]
    cases += [h.structure() for _, h in _fresh_induced()]
    splits = [st.split() for st in cases]
    products = _spy(monkeypatch, Mat, "__mul__")
    blocks = _spy(monkeypatch, Mat, "submatrix")
    for st, split in zip(cases, splits):
        assert mhs.splitting_defect(st, split) is None
    assert products == [] and blocks == []


def test_an_induced_splitting_forms_one_product_its_c(monkeypatch):
    for name, h in _fresh_induced():
        products = _spy(monkeypatch, Mat, "__mul__")
        split = deligne_split(h.structure())
        monkeypatch.undo()
        a, a_inv, _ = split.frame
        assert products == [(a_inv, a.conj())], name
        assert split.conj_frame == a_inv * a.conj()


def test_the_primitive_forms_take_no_meet_and_no_kernel_wider_than_a_piece(monkeypatch):
    for name, h in _fresh_induced():
        st = h.structure()
        widest = max(sub.dim for sub in st.split().pieces.values())
        meets = _spy(monkeypatch, Subspace, "intersect")
        kernels = _spy(monkeypatch, mhs, "kernel")
        assert polarization_check(st, h.cone) == (True, None), name
        monkeypatch.undo()
        assert meets == [], name
        assert kernels and all(m.ncols <= widest < st.ambient for (m,) in kernels), name


def test_the_splitting_keeps_c_exactly_beside_a_frame():
    for name in ("varying", "hermitian"):
        st = _shipped_structure(name)
        split = st.split()
        a, a_inv, _ = split.frame
        assert split.conj_frame == a_inv * a.conj()
        for defect, pieces in seeded_defects(split):
            seeded = DeligneSplitting(split.ambient, pieces)
            assert (seeded.conj_frame is None) == (seeded.frame is None), defect
        # the layers of g live in End(V): the slot is set, and holds nothing
        assert lie_deligne_split(lie_algebra(st.q), st).conj_frame is None


def test_the_twist_grade_check_builds_no_span_or_filtration(monkeypatch):
    fx = cli.load_fixture(DATA / "varying.json")
    assert fx.zeta
    orbit_spec(fx.data, None, fx.n_coords)  # the shared facts are built once here
    built = []
    init = _Filtration.__init__

    def counting(filt, *args):
        built.append(type(filt).__name__)
        return init(filt, *args)

    monkeypatch.setattr(_Filtration, "__init__", counting)
    sums = _spy_on_sums(monkeypatch)
    orbit_spec(fx.data, None, fx.n_coords)
    without = (len(sums), len(built))
    orbit_spec(fx.data, fx.zeta, fx.n_coords)
    assert (len(sums), len(built)) == (2 * without[0], 2 * without[1])


# -- the meets and the polarization against their first constructions ---------


def reference_deligne_split(structure):
    """The meet loop of the first construction, kept as the reference: each
    F^a ∩ W_b and conj(F)^a ∩ W_b one Zassenhaus intersection, the corr
    sums spans of those meets, and the verification unchanged."""
    w, f = structure.w, structure.f
    fbar = DecreasingFiltration(f.ambient, {l: sub.conj() for l, sub in f.steps})
    pieces = {}
    p_lo, p_hi = f.jump_levels[0], f.jump_levels[-1]
    l_lo, l_hi = w.jump_levels[0], w.jump_levels[-1]
    for p in range(p_lo, p_hi + 1):
        for l in range(l_lo, l_hi + 1):
            q = l - p
            base = f.at(p).intersect(w.at(l))
            if not base.dim:
                continue
            corr = fbar.at(q).intersect(w.at(l))
            j = 1
            while w.at(l - j - 1).dim:
                corr = corr + fbar.at(q - j).intersect(w.at(l - j - 1))
                j += 1
            piece = base.intersect(corr)
            if piece.dim:
                pieces[(p, q)] = piece
    split = DeligneSplitting(structure.ambient, pieces)
    defect = mhs.splitting_defect(structure, split)
    if defect is not None:
        raise ValueError(f"f: not a mixed Hodge structure: {defect}")
    return split


def reference_cone_compatibility(structure, cone):
    """cone_compatibility as first written: each step moved by each generator."""
    for idx, g in enumerate(cone):
        l = structure.w.first_escape(g, -2)
        if l is not None:
            return False, f"generator {idx} does not move W_{l} into W_{l - 2}"
        p = structure.f.first_escape(g, -1)
        if p is not None:
            return False, f"generator {idx} does not move F^{p} into F^{p - 1}"
    return True, None


def reference_polarization_check(structure, cone=None):
    """polarization_check as first written, on the reference splitting: the
    weight filtration of each distinct interior element built and compared,
    and the compatibility by moving each step."""
    if structure.q is None:
        return False, "no pairing to polarize"
    try:
        split = reference_deligne_split(structure)
    except ValueError as err:
        return False, str(err)
    n = structure.n
    ok, witness = structure.f.isotropy(structure.q, n)
    if not ok:
        a, b, _, _ = witness
        return False, f"pairing does not vanish on F^{a} x F^{b}"
    if cone is not None and len(cone):
        k = len(cone)
        for coeffs in dict.fromkeys(((1,) * k, tuple(range(1, k + 1)))):
            if weight_filtration(cone.element(coeffs), center=n) != structure.w:
                return False, f"W differs from the weight filtration at {coeffs}"
        ok, detail = reference_cone_compatibility(structure, cone)
        if not ok:
            return False, detail
        n_int = cone.element((1,) * k)
    else:
        if structure.w.jump_levels != (n,):
            return False, "a genuinely mixed W needs a cone to polarize it"
        n_int = Mat.zeros(structure.ambient)
    for (p, q), sub in split.pieces.items():
        l = p + q - n
        if l < 0:
            continue
        prim = sub.intersect(kernel(n_int ** (l + 1)))
        if not prim.dim:
            continue
        basis = Mat(prim.basis)
        gram = mhs.i_power(p - q) * (basis * structure.q * n_int ** l * basis.conj_t())
        try:
            if not hermitian_positive_definite(gram):
                return False, f"primitive form on ({p},{q}) is not positive"
        except (ValueError, ArithmeticError):
            return False, f"primitive form on ({p},{q}) is not Hermitian"
    return True, None


def _split_outcome(split_fn, structure):
    try:
        return split_fn(structure).pieces
    except ValueError as err:
        return str(err)


def fresh_cases(passes=3, seed=3):
    """(structure, cone) for every splitting that passes of the benchmark's
    fresh workload build, with the cone that polarization_check was handed
    for it, or None; each structure is unsplit."""
    cases, cones = [], {}
    split, check = mhs.deligne_split, mhs.polarization_check

    def splitting(st):
        cases.append(st)
        return split(st)

    def checking(st, cone=None):
        cones[id(st)] = cone
        return check(st, cone)

    raw = test_cli.LOADS.fresh_setup()
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mhs, "deligne_split", splitting)
        patch.setattr(mhs, "polarization_check", checking)
        for _ in range(passes):
            for _, label, _, run in test_cli.LOADS.fresh_ops(rng, raw,
                                                             test_cli.REFERENCE["fresh"]):
                assert run() is None, label
    return [(MixedHodge(st.n, st.w, st.f, st.q), cones.get(id(st))) for st in cases]


def differential_cases():
    """(group, structure, cone): the shipped fixtures, the fixture families,
    the loadable structure mutations, the families with F tilted off the
    real splitting and the splittings of three fresh passes."""
    shipped = [cli.load_fixture(DATA / f"{name}.json") for name in SHIPPED]
    for group, fixtures in (("shipped", shipped), ("families", test_cli.family_fixtures()),
                            ("mutations", test_cli.structure_mutations())):
        for fx in fixtures:
            st = fx.data.structure()
            yield group, MixedHodge(st.n, st.w, st.f, st.q), fx.data.cone
    for fx in test_cli.family_fixtures():
        # (W, exp(iN) F) is mixed Hodge and, for N != 0, not split over R,
        # so its pieces need the lower-weight correction terms
        data = fx.data
        if len(data.cone):
            tilt = nilpotent_exp(data.cone.element((1,) * len(data.cone)) * I)
            yield "tilted", MixedHodge(data.weight, data.w, data.f.apply(tilt), data.q), data.cone
    for st, cone in fresh_cases():
        yield "fresh", st, cone


def test_the_splitting_and_the_polarization_match_their_first_constructions():
    counts, verdicts = {}, set()
    for group, st, cone in differential_cases():
        counts[group] = counts.get(group, 0) + 1
        twin = MixedHodge(st.n, st.w, st.f, st.q)  # split by the reference only
        assert _split_outcome(deligne_split, st) == _split_outcome(
            reference_deligne_split, twin), group
        got = polarization_check(st, cone)
        assert got == reference_polarization_check(twin, cone), group
        verdicts.add(re.sub(r"-?\d+", "#", str(got[1])))
    assert counts["shipped"] == 6 and counts["fresh"] == 48
    assert counts["families"] == 15 and counts["mutations"] >= 60 and counts["tilted"] >= 10
    assert {"None", "W differs from the weight filtration at (#,)",
            "W differs from the weight filtration at (#, #)",
            "a genuinely mixed W needs a cone to polarize it",
            "f: not a mixed Hodge structure: bigraded pieces are not independent",
            "f: not a mixed Hodge structure: bigraded pieces do not span the space",
            "pairing does not vanish on F^# x F^#",
            "primitive form on (#,#) is not positive"} <= verdicts


def seeded_cones(structure, generator):
    """(defect, one-generator cone): elements of the layers g^{a,b} of the
    symmetry algebra, each nilpotent and skew, that move W backwards, lower
    it by one, lower it by two but F by two, or lower W by two and F by one
    (g^{-1,-1}) without the ranks that W = W(N) needs on Gr; and the cone's
    generator plus an element that lowers W by one, which keeps those ranks.
    The first three elements of each such layer."""
    layers = lie_deligne_split(lie_algebra(structure.q), structure)
    a, a_inv, _ = layers.frame
    kinds = {"backwards": lambda r, s: r + s > 0,
             "lowers W by one": lambda r, s: r + s == -1,
             "misses F": lambda r, s: r + s == -2 and r < -1,
             "degenerate on Gr": lambda r, s: (r, s) == (-1, -1),
             "tilted by one": lambda r, s: r + s == -1}
    for defect, kind in kinds.items():
        for r, s in layers.layers:
            if kind(r, s):
                for x in layers.matrices(r, s)[:3]:
                    seeded = a * x * a_inv
                    if defect == "tilted by one":
                        seeded = generator + seeded
                    yield defect, NilpotentCone([seeded], structure.q)


def test_seeded_cone_defects_get_the_reference_messages():
    reached = {}
    for name in ("elliptic", "pair", "varying", "hermitian"):
        fx = cli.load_fixture(DATA / f"{name}.json")
        st = fx.data.structure()
        for defect, cone in seeded_cones(st, fx.data.cone.generators[0]):
            compatible = cone_compatibility(st, cone)
            assert compatible == reference_cone_compatibility(st, cone), (name, defect)
            got = polarization_check(st, cone)
            assert got == reference_polarization_check(st, cone), (name, defect)
            for verdict in (compatible, got):
                message = re.sub(r"-?\d+", "#", str(verdict[1]))
                reached.setdefault(defect, set()).add(message)
    moved = "generator # does not move {0}_# into {0}_#"
    assert reached == {
        "backwards": {moved.format("W"), "W differs from the weight filtration at (#,)"},
        "lowers W by one": {moved.format("W"), "W differs from the weight filtration at (#,)"},
        "misses F": {moved.format("F").replace("F_", "F^"),
                     "W differs from the weight filtration at (#,)"},
        # compatible with W and F, so only the ranks on Gr tell; the cone's
        # own generator lies in g^{-1,-1} and passes
        "degenerate on Gr": {"None", "W differs from the weight filtration at (#,)",
                             "primitive form on (#,#) is not positive"},
        # the ranks on Gr are the generator's, so only the lowering by one tells
        "tilted by one": {moved.format("W"), "W differs from the weight filtration at (#,)"},
    }


@pytest.mark.parametrize("name", ["elliptic", "pair", "varying", "hermitian"])
def test_the_polarization_is_read_in_the_frame(name, monkeypatch):
    fx = cli.load_fixture(DATA / f"{name}.json")
    st = fx.data.structure()
    st.split()
    calls = _spy_on_spaces(monkeypatch)
    applied = []
    apply = Subspace.apply
    monkeypatch.setattr(Subspace, "apply", lambda self, mat: applied.append(mat) or apply(self, mat))
    assert cone_compatibility(st, fx.data.cone) == (True, None)
    assert applied == [] and calls == []
    assert polarization_check(st, fx.data.cone) == (True, None)
    assert applied == []
