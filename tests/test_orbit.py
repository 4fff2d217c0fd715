"""Orbit frames over the divisor: exact evaluation, strata, and symmetries.

The two-dimensional curve orbit is solvable on paper — its frame is
exp((ell + t) N), every pairing is a one-line computation — and anchors the
hand oracles.  The larger fixtures freeze exact rationals whose structure was
cross-checked against the slot bookkeeping of the induced diamonds (which
layers can move which marker), and every claimed identity — conjugated twist,
deck transformation, branch shifts, stratum compatibility, cone rescaling —
is asserted with exact arithmetic.  No tolerances appear anywhere in this
file.
"""

import collections
import dataclasses
import random
from fractions import Fraction

import pytest

import test_induced
from hodgenorm.exactlin import (
    GaussianRational,
    Mat,
    Subspace,
    nilpotent_exp,
    qi,
    vec,
)
from hodgenorm.filtrations import DecreasingFiltration, IncreasingFiltration
from hodgenorm.fixtures import (
    curve,
    orbit_elliptic,
    orbit_hermitian,
    orbit_pair,
    orbit_varying,
    orbit_weight_one,
)
from hodgenorm.induced import PureHodgeData, induce, tate_normalize
from hodgenorm.lie import lie_algebra, lie_deligne_split
from hodgenorm.mhs import (
    FixtureError,
    MixedHodge,
    NilpotentCone,
    polarization_check,
)
from hodgenorm.orbit import (
    _Exact,
    adapted_basis,
    check_powers,
    cross_term,
    deck_transform,
    eval_frame,
    generator_level_check,
    limit_norm,
    lowers_grade,
    monodromy_check,
    orbit_spec,
    stratum_value,
    triangularity_check,
)

F = Fraction
G = GaussianRational


def sample_point(spec, rng):
    """A random interior point with exact coordinates and complex ell-values."""
    t = tuple(F(rng.randint(1, 5), rng.randint(6, 11)) for _ in range(spec.n_coords))
    ell = tuple(G(F(rng.randint(-3, 3), 7), F(rng.randint(1, 4), 5))
                for _ in range(spec.k))
    return t, ell


def exact_cross_term(spec, powers, t, ell):
    """Q(zeta_hat N^powers e0, conj(zeta_hat einf)) in exact arithmetic, with
    zeta_hat = eta theta^-1 = theta zeta theta^-1 and theta^-1 the exact
    inverse of the frame's own theta: the reference for the cross terms."""
    kit = _Exact(spec)
    fr = eval_frame(spec, t, ell)
    return cross_term(kit, fr.eta * fr.theta.inverse(), check_powers(kit, powers))


def pure_line_structure(entries):
    """Weight-0 structure whose whole space is the (0,0) layer, Q = diag."""
    n = len(entries)
    q = Mat([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])
    w = IncreasingFiltration(n, {0: Subspace.full(n)})
    f = DecreasingFiltration(n, {0: Subspace.full(n)})
    return f, w, q


def negated_curve():
    """The curve data with the pairing sign flipped: nothing polarizes it."""
    c = curve()
    q = -1 * c.q
    return PureHodgeData(c.weight, q, c.f, NilpotentCone(c.cone.generators, q))


# -- adapted bases -------------------------------------------------------------


ORBITS = (orbit_elliptic, orbit_weight_one, orbit_pair, orbit_varying, orbit_hermitian)


def columns(b):
    return b.transpose().rows


def column_bigrades(structure, b):
    """The bigrade of each column of b, asserting that the column lies in
    exactly one splitting layer."""
    pieces = structure.split().pieces
    grades = []
    for col in columns(b):
        (pq,) = [pq for pq, sub in pieces.items() if sub.contains_vector(col)]
        grades.append(pq)
    return tuple(grades)


def test_curve_basis_is_the_standard_one():
    st = tate_normalize(induce(curve())).structure()
    b = adapted_basis(st)
    assert b == Mat([[1, 0], [0, 1]])
    assert column_bigrades(st, b) == ((1, 1), (0, 0))
    assert st.n == 1 and b.shape == (2, 2)
    assert columns(b)[0] == vec((1, 0))
    assert b.inverse().apply(vec((0, 1))) == vec((0, 1))


def test_basis_ends_at_the_markers():
    # two algorithms, one answer: the adapted basis starts at the top line
    # e0 and ends at its dual ed on every orbit
    for build in ORBITS:
        spec = build()
        st, mk = spec.structure.structure(), spec.markers
        b = adapted_basis(st)
        assert columns(b)[0] == mk.e0 and columns(b)[-1] == mk.ed, build.__name__
        assert b.inverse().apply(mk.e0) == Mat.identity(spec.dim).rows[0]
    spec = orbit_weight_one()
    grades = column_bigrades(spec.structure.structure(),
                             adapted_basis(spec.structure.structure()))
    assert grades[0] == (3, 1)
    assert grades[-1] == (0, 2)


def test_basis_columns_span_both_filtrations():
    for spec in (orbit_elliptic(), orbit_pair(), orbit_varying()):
        st = spec.structure
        b = adapted_basis(st.structure())
        cols, grades = columns(b), column_bigrades(st.structure(), b)
        d = b.ncols
        for p in st.f.jump_levels:
            assert Subspace(d, [c for c, g in zip(cols, grades) if g[0] >= p]) == st.f.at(p)
        for l in st.w.jump_levels:
            assert Subspace(d, [c for c, g in zip(cols, grades) if sum(g) <= l]) == st.w.at(l)


def test_basis_columns_have_pure_bigrades():
    for build in ORBITS:
        st = build().structure.structure()
        grades = column_bigrades(st, adapted_basis(st))   # one layer per column
        assert list(grades) == sorted(grades, reverse=True), build.__name__
        assert collections.Counter(grades) == st.split().diamond(), build.__name__


def test_gram_is_the_anti_identity():
    # the pair fixture has a four-dimensional middle layer, the varying one
    # a three-dimensional middle whose pivots only fold in pairs
    for spec in (orbit_pair(), orbit_varying()):
        st = spec.structure
        b = adapted_basis(st.structure())
        d = b.ncols - 1
        gram = b.transpose() * st.q * b
        for i in range(d + 1):
            for j in range(d + 1):
                want = 1 if i + j == d else 0
                assert gram[i, j] == want


def test_middle_layer_folds_without_square_roots():
    f, w, q = pure_line_structure([2, -2])
    b = adapted_basis(MixedHodge(0, w, f, q))
    gram = b.transpose() * q * b
    assert gram[0, 1] == 1
    assert gram[0, 0] == 0
    assert gram[1, 1] == 0


def test_lone_middle_pivot_needs_a_square_root():
    f, w, q = pure_line_structure([-1])
    b = adapted_basis(MixedHodge(0, w, f, q))   # -1 = i^2 is a square over the Gaussians
    assert (b.transpose() * q * b)[0, 0] == 1
    f, w, q = pure_line_structure([2])
    with pytest.raises(ValueError, match="square root"):
        adapted_basis(MixedHodge(0, w, f, q))


def test_unfoldable_pivots_are_rejected():
    f, w, q = pure_line_structure([1, 1, 2])
    with pytest.raises(ValueError, match="fold"):
        adapted_basis(MixedHodge(0, w, f, q))


def test_odd_weight_span_has_no_center():
    w = IncreasingFiltration(2, {0: Subspace(2, [vec((1, 0))]), 1: Subspace.full(2)})
    f = DecreasingFiltration(2, {0: Subspace.full(2)})
    q = Mat([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="no compatible basis"):
        adapted_basis(MixedHodge(0, w, f, q))


# -- building orbit specs ------------------------------------------------------


def test_coefficient_validation():
    spec = orbit_varying()
    h = spec.structure
    sym = Mat.identity(h.dim)
    with pytest.raises(ValueError, match="isometry"):
        orbit_spec(h, {(): sym}, n_coords=1)
    # entrywise conjugation flips a lowering layer into a raising one and
    # keeps it skew for the real pairing of this fixture
    raising = spec.zeta_coeffs[frozenset()][(1, 0)].conj()
    with pytest.raises(ValueError, match="strictly lower"):
        orbit_spec(h, {(): raising}, n_coords=1)
    f_skew = spec.zeta_coeffs[frozenset()][(1, 0)]
    with pytest.raises(ValueError, match="commute with generator 0"):
        orbit_spec(h, {(0,): f_skew}, n_coords=1)
    with pytest.raises(ValueError, match="outside the divisor"):
        orbit_spec(h, {(3,): f_skew}, n_coords=4)
    with pytest.raises(ValueError, match="at least one coordinate"):
        orbit_spec(h, {}, n_coords=0)
    with pytest.raises(ValueError, match="square matrices"):
        orbit_spec(h, {(): Mat([[0, 1]])}, n_coords=1)


def _lowers_the_grade_by_filtration(split, coeff):
    """The twist grade check as a filtration, kept as the reference: G_p
    spans the pieces of grade p or less, and coeff must map each G_p into
    G_{p-1}."""
    grades = IncreasingFiltration(split.ambient, {
        p: split.span_where(lambda r, s: r <= p) for p in {p for p, _ in split.pieces}})
    return grades.first_escape(coeff, -1) is None


def test_a_twist_that_keeps_a_grade_is_refused_as_the_filtration_check_refuses_it():
    # one element of each symmetry-algebra layer of the varying orbit, as a twist
    spec = orbit_varying()
    h = spec.structure
    split = h.structure().split()
    a, a_inv, _ = split.frame
    layers = lie_deligne_split(lie_algebra(h.q), h.structure())
    refused = {}
    for p, q in layers.layers:
        coeff = a * layers.matrices(p, q)[0] * a_inv
        try:
            orbit_spec(h, {(): coeff}, n_coords=1)
            refused[p, q] = False
        except ValueError as err:
            refused[p, q] = str(err).endswith("does not strictly lower the filtration grade")
        assert refused[p, q] == (not _lowers_the_grade_by_filtration(split, coeff)), (p, q)
    assert refused == {pq: pq[0] >= 0 for pq in layers.layers}
    # a g^{0,-2} element keeps every p grade and leaks into the equal one
    leak = a * layers.matrices(0, -2)[0] * a_inv
    with pytest.raises(ValueError) as err:
        orbit_spec(h, {(): leak}, n_coords=1)
    assert str(err.value) == ("zeta['']: f_[] at exponent (0,) does not strictly lower the"
                              " filtration grade")


def test_a_frame_matrix_that_keeps_a_grade_fails_the_grade_check():
    grades = orbit_varying().structure.split().frame[2]
    d = len(grades)
    rng = random.Random(22)
    cells = [(k, l) for k in range(d) for l in range(d)]
    lowering = [c for c in cells if grades[c[0]][0] < grades[c[1]][0]]
    keeping = [c for c in cells if grades[c[0]][0] == grades[c[1]][0]]
    rows = [[0] * d for _ in range(d)]
    for k, l in rng.sample(lowering, 12):
        rows[k][l] = rng.choice([-3, -2, -1, 1, 2, 3])
    assert lowers_grade(Mat(rows), grades)
    k, l = rng.choice(keeping)
    rows[k][l] = 1
    assert not lowers_grade(Mat(rows), grades)


def test_a_polarizing_generator_that_keeps_a_grade_is_refused():
    # N plus an element of g^{0,-3}: it lowers W by 3 and keeps F, so W(N')
    # is still W and the cone polarizes, but N' keeps p on a cell
    spec = orbit_varying()
    h = spec.structure
    a, a_inv, _ = h.split().frame
    x = lie_deligne_split(lie_algebra(h.q), h.structure()).matrices(0, -3)[0]
    cone = NilpotentCone((spec.cone.generators[0] + a * x * a_inv,), h.q)
    assert polarization_check(h.structure(), cone) == (True, None)
    with pytest.raises(FixtureError) as err:
        orbit_spec(dataclasses.replace(h, cone=cone), {}, n_coords=1)
    assert str(err.value) == "cone[0]: generator 0 does not strictly lower the filtration grade"
    assert err.value.field == "cone[0]"
    assert err.value.message == "generator 0 does not strictly lower the filtration grade"


def test_nonpolarized_cone_is_rejected():
    h = tate_normalize(induce(negated_curve()))
    with pytest.raises(ValueError, match="polarize"):
        orbit_spec(h, {}, n_coords=1)


# -- frames ---------------------------------------------------------------------


def test_curve_frame_by_hand():
    spec = orbit_elliptic()
    x, ell = F(1, 3), G(F(1, 5), F(1, 2))
    fr = eval_frame(spec, (F(1, 2), x), (ell,))
    n_op = spec.cone.generators[0]
    assert fr.theta == nilpotent_exp(ell * n_op)
    assert fr.zeta == nilpotent_exp(x * n_op)
    assert fr.theta * fr.zeta == fr.zeta * fr.theta
    assert fr.eta.apply(spec.markers.e0) == vec((1, ell + x))
    assert fr.q01 == 1 and fr.h_tilde == 1


def test_frame_factorizations():
    spec = orbit_varying()
    fr = eval_frame(spec, (F(1, 2), F(1, 3)), (G(0, F(2, 7)),))
    assert fr.eta == fr.theta * fr.zeta
    assert fr.theta * fr.zeta != fr.zeta * fr.theta


def test_branch_is_an_ell_shift():
    spec = orbit_varying()
    t, ell = (F(1, 2), F(1, 3)), (G(F(1, 5), F(1, 2)),)
    shifted = eval_frame(spec, t, (ell[0] + 3,))
    via_branch = eval_frame(spec, t, ell, branch=(3,))
    assert shifted.eta == via_branch.eta
    assert shifted.h_tilde == via_branch.h_tilde


def test_deck_matrix_is_the_cone_exponential():
    spec = orbit_pair()
    n0, n1 = spec.cone.generators
    assert deck_transform(spec, (2, -1)) == nilpotent_exp(2 * n0 + (-1) * n1)


def test_frames_are_triangular_in_the_splitting_frame():
    rng = random.Random(11)
    for spec in (orbit_elliptic(), orbit_weight_one(), orbit_pair(),
                 orbit_varying(), orbit_hermitian()):
        t, ell = sample_point(spec, rng)
        ok, detail = triangularity_check(eval_frame(spec, t, ell))
        assert ok, detail


def test_frame_input_guards():
    spec = orbit_elliptic()
    with pytest.raises(ValueError, match="coordinate 0 is zero"):
        eval_frame(spec, (0, F(1, 2)), (F(1, 3),))
    with pytest.raises(TypeError, match="exact"):
        eval_frame(spec, (0.5, F(1, 2)), (F(1, 3),))
    with pytest.raises(TypeError, match="exact"):
        eval_frame(spec, (F(1, 2), F(1, 2)), (0.25,))
    with pytest.raises(ValueError, match="expected 2 coordinates"):
        eval_frame(spec, (F(1, 2),), (F(1, 3),))
    with pytest.raises(ValueError, match="expected 1 ell-values"):
        eval_frame(spec, (F(1, 2), F(1, 3)), (F(1, 3), F(1, 4)))
    with pytest.raises(TypeError, match="integers"):
        eval_frame(spec, (F(1, 2), F(1, 3)), (F(1, 3),), branch=(F(1, 2),))


# -- the extended norm and its symmetries ----------------------------------------


def test_marker_fixing_twists_leave_h_at_one():
    rng = random.Random(23)
    for spec in (orbit_elliptic(), orbit_weight_one(),
                 orbit_weight_one(split_cone=True), orbit_pair()):
        for _ in range(3):
            t, ell = sample_point(spec, rng)
            assert eval_frame(spec, t, ell).h_tilde == 1


def test_h_varies_once_the_twist_moves_the_markers():
    spec = orbit_varying()
    seen = []
    for t, ell in (
        ((F(1, 2), F(1, 3)), (G(F(0), F(2, 7)),)),
        ((F(1, 3), F(1, 3)), (G(F(1, 5), F(1, 2)),)),
        ((F(1, 2), F(2, 5)), (G(F(-1, 3), F(3, 4)),)),
    ):
        seen.append(eval_frame(spec, t, ell).h_tilde)
    assert seen == [F(83, 112), F(121, 162), F(93, 128)]


def test_monodromy_invariance():
    rng = random.Random(37)
    for spec in (orbit_elliptic(), orbit_weight_one(), orbit_varying(),
                 orbit_hermitian()):
        t, ell = sample_point(spec, rng)
        ok, detail = monodromy_check(spec, t, ell, (rng.randint(-5, 5),))
        assert ok, detail
    spec = orbit_pair()
    t, ell = sample_point(spec, rng)
    ok, detail = monodromy_check(spec, t, ell, (5, -3))
    assert ok, detail


def test_cone_rescaling_is_a_symmetry():
    spec = orbit_varying()
    factors = (F(5, 2),)
    cone = NilpotentCone(tuple(g * G(c) for g, c in zip(spec.cone.generators, factors)),
                         spec.cone.q)
    scaled = orbit_spec(dataclasses.replace(spec.structure, cone=cone),
                        spec.zeta_coeffs, spec.n_coords)
    t = (F(1, 2), F(1, 3))
    ell = (G(F(1, 5), F(1, 2)),)
    base = eval_frame(spec, t, ell)
    moved = eval_frame(scaled, t, (ell[0] / factors[0],))
    assert moved.h_tilde == base.h_tilde
    assert moved.q01 == base.q01


def test_pure_structure_with_empty_cone():
    h = tate_normalize(induce(test_induced.weight_three_line()))
    spec = orbit_spec(h, {}, n_coords=0)
    assert spec.k == 0 and spec.markers.n == spec.markers.m == 7
    fr = eval_frame(spec, (), ())
    assert fr.h_tilde == 1
    with pytest.raises(ValueError, match="empty cone"):
        limit_norm(spec)


# -- strata and limit values -----------------------------------------------------


def test_interior_stratum_reproduces_h():
    for spec in (orbit_varying(), orbit_pair()):
        rng = random.Random(41)
        t, ell = sample_point(spec, rng)
        assert stratum_value(spec, (), t=t, ell=ell) == eval_frame(spec, t, ell).h_tilde


def test_curve_strata_are_identically_one():
    spec = orbit_elliptic()
    for x in (F(1, 3), F(1, 2), F(-2, 5)):
        assert stratum_value(spec, (0,), t=(0, x)) == 1
    assert limit_norm(spec, t=(0, F(1, 3))) == 1


def test_mixed_strata_on_the_pair():
    spec = orbit_pair()
    ell = (G(0, F(1, 4)),)
    assert stratum_value(spec, (0,), t=(0, F(1, 3), F(1, 5)), ell=ell) == 1
    assert stratum_value(spec, (1,), t=(F(1, 3), 0, F(1, 5)), ell=ell) == 1
    assert stratum_value(spec, (0, 1), t=(0, 0, F(1, 5))) == 1


def test_limit_values_and_ratios():
    # limit values and stratum/limit ratios frozen from hand-checked runs
    expected = [
        (orbit_elliptic(), (0, F(1, 3)), 1, 1),
        (orbit_weight_one(), (0, F(1, 3)), 4, F(1, 4)),
        (orbit_weight_one(split_cone=True), (0, 0, F(1, 3)), 4, F(1, 4)),
        (orbit_pair(), (0, 0, F(1, 5)), 2, F(1, 2)),
        (orbit_varying(), (0, F(1, 3)), 3, F(1, 4)),
        (orbit_hermitian(), (0, 0, 0), 4, F(1, 4)),
        (orbit_hermitian(), (0, F(1, 4), 0), F(63, 16), F(1, 4)),
    ]
    for spec, t, limit, ratio in expected:
        value = limit_norm(spec, t=t)
        assert value == limit and value > 0
        if ratio is not None:
            deepest = tuple(range(spec.k))
            assert stratum_value(spec, deepest, t=t) / value == ratio


def test_stratum_to_limit_ratio_is_constant():
    spec = orbit_varying()
    ratios = {stratum_value(spec, (0,), t=(0, x)) / limit_norm(spec, t=(0, x))
              for x in (F(1, 3), F(1, 2), F(2, 7), F(5, 4), F(-1, 2))}
    assert ratios == {F(1, 4)}


def test_hermitian_stratum_value_formula():
    # the twist depends only on the sum of the transverse coordinates, and
    # the stratum value works out to 1 - |x+y|^2 / 4 exactly
    spec = orbit_hermitian()
    for x, y in ((F(0), F(0)), (F(1, 4), F(0)), (G(0, F(1, 4)), F(0)),
                 (F(1, 2), F(1, 2)), (G(F(1, 4), F(1, 4)), G(0, F(-1, 2)))):
        s = (GaussianRational(x) + GaussianRational(y))
        want = 1 - s.norm2() / 4
        assert stratum_value(spec, (0,), t=(0, x, y)) == want
    # flat direction: only x + y matters
    assert (stratum_value(spec, (0,), t=(0, F(1, 4), F(1, 4)))
            == stratum_value(spec, (0,), t=(0, F(1, 2), F(0))))


def test_stratum_input_errors():
    spec = orbit_pair()
    with pytest.raises(ValueError, match="must vanish"):
        stratum_value(spec, (0,), t=(F(1, 3), F(1, 3), F(1, 5)), ell=(F(1, 4),))
    with pytest.raises(ValueError, match="zero but not named"):
        stratum_value(spec, (0,), t=(0, 0, F(1, 5)), ell=(F(1, 4),))
    with pytest.raises(ValueError, match="need ell-values"):
        stratum_value(spec, (0,), t=(0, F(1, 3), F(1, 5)))
    with pytest.raises(ValueError, match="expected 1 ell-values"):
        stratum_value(spec, (0,), t=(0, F(1, 3), F(1, 5)), ell=(F(1, 4), F(1, 5)))
    with pytest.raises(ValueError, match="name divisor coordinates"):
        stratum_value(spec, (2,), t=(F(1, 3), F(1, 3), F(1, 5)), ell=(F(1, 4),))
    with pytest.raises(ValueError, match="pins every divisor"):
        limit_norm(spec, t=(F(1, 3), 0, F(1, 5)))


# -- term pairings ----------------------------------------------------------------


def test_terms_vanish_when_the_twist_rides_the_deep_stratum():
    spec = orbit_elliptic()
    t, ell = (F(1, 2), F(1, 3)), (G(F(1, 5), F(1, 2)),)
    assert exact_cross_term(spec, (1,), t, ell) == 0
    assert exact_cross_term(spec, (2,), t, ell) == 0
    pair = orbit_pair()
    t, ell = (F(1, 2), F(1, 3), F(1, 5)), (G(0, F(1, 3)), G(F(1, 7), F(2, 5)))
    for powers in ((1, 0), (0, 1), (1, 1), (2, 0)):
        assert exact_cross_term(pair, powers, t, ell) == 0


def test_term_survives_a_coordinate_free_twist():
    spec = orbit_varying()
    t, ell = (F(1, 2), F(1, 3)), (G(F(0), F(2, 7)),)
    assert exact_cross_term(spec, (1,), t, ell) == G(F(83, 1792))
    with pytest.raises(ValueError, match="one exponent per generator"):
        exact_cross_term(spec, (1, 0), t, ell)


# -- marker levels -----------------------------------------------------------------


def test_generator_levels():
    expected = {
        "elliptic": (orbit_elliptic(), 1, 2, [(0, 2, 0)]),
        "weight_one": (orbit_weight_one(), 3, 4, [(0, 4, 2)]),
        "split": (orbit_weight_one(split_cone=True), 3, 5, [(0, 4, 2), (1, 4, 2)]),
        "pair": (orbit_pair(), 2, 4, [(0, 3, 1), (1, 3, 1)]),
        "varying": (orbit_varying(), 4, 5, [(0, 5, 3)]),
    }
    for name, (spec, n, m, rows) in expected.items():
        report = generator_level_check(spec)
        assert report.ok and bool(report), name
        assert (report.n, report.m) == (n, m), name
        got = [(r.index, r.level, r.opposite_level) for r in report.per_generator]
        assert got == rows, name
        for r in report.per_generator:
            assert n <= r.level <= m
            assert r.opposite_level == 2 * n - r.level


def test_levels_require_a_polarizing_cone():
    pure = orbit_spec(tate_normalize(induce(test_induced.weight_three_line())), {}, n_coords=0)
    with pytest.raises(ValueError, match="no generators"):
        generator_level_check(pure)
