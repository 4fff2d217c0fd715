"""Numeric probes: radial limits, term decay, Levi spectra, filtration gaps.

The float pipeline is checked against the exact engine wherever both can
speak (agreement at rational points, stratum targets) and against closed
forms where only analysis can: the hermitian fixture's stratum value is
1 - |x + y|^2 / 4 on the nose, so its Levi matrix, eigenvalues, and flat
fibre direction are all known exactly, and the degenerate-curve filtration
rotates toward its limit with gap exactly 1/sqrt(1 + y^2).
"""

import gc
import math
import random
import weakref
from fractions import Fraction

import pytest

from hodgenorm.exactlin import GaussianRational, Mat
from hodgenorm.fixtures import (
    curve,
    curve_pair,
    orbit_elliptic,
    orbit_hermitian,
    orbit_pair,
    orbit_varying,
    orbit_weight_one,
    weight_three_line,
)
from hodgenorm.induced import induce, tate_normalize
from hodgenorm.orbit import eval_frame, stratum_value, term_pairing
from hodgenorm.probe import (
    DistanceReport,
    LeviReport,
    LimitReport,
    ProbeConfig,
    f_infinity_probe,
    levi_probe,
    norm_value,
    radial_limit,
    stratum_norm,
    term_value,
    term_vanishing,
)

F = Fraction
G = GaussianRational

ALL_ORBITS = [orbit_elliptic, orbit_weight_one, orbit_pair, orbit_varying,
              orbit_hermitian]


def sample_point(spec, rng):
    t = tuple(F(rng.randint(1, 5), rng.randint(6, 11)) for _ in range(spec.n_coords))
    ell = tuple(G(F(rng.randint(-3, 3), 7), F(rng.randint(1, 4), 5))
                for _ in range(spec.k))
    return t, ell


# -- configuration -----------------------------------------------------------


def test_config_rejects_bad_radii():
    with pytest.raises(ValueError):
        ProbeConfig(radii=())
    with pytest.raises(ValueError):
        ProbeConfig(radii=(1e-2, 1e-2))
    with pytest.raises(ValueError):
        ProbeConfig(radii=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        ProbeConfig(radii=(1e-2, 0.0))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ProbeConfig(radii=(bad, 1e-2))
        with pytest.raises(ValueError):
            ProbeConfig(radii=(1e-2, bad))


def test_config_rejects_bad_steps_and_tolerances():
    with pytest.raises(ValueError):
        ProbeConfig(fd_step=0.0)
    with pytest.raises(ValueError):
        ProbeConfig(tol=-1e-6)
    with pytest.raises(ValueError):
        ProbeConfig(n_angles=0)
    with pytest.raises(ValueError):
        ProbeConfig(angles=())
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ProbeConfig(fd_step=bad)
        with pytest.raises(ValueError):
            ProbeConfig(tol=bad)
        with pytest.raises(ValueError):
            ProbeConfig(angles=((0.5, bad),))


def test_default_angle_lattice_is_deterministic():
    cfg = ProbeConfig()
    first = cfg.angle_vectors(2)
    assert first == cfg.angle_vectors(2) == ProbeConfig().angle_vectors(2)
    assert len(first) == 8
    assert all(len(vec) == 2 for vec in first)
    assert all(0.0 <= a < 2.0 * math.pi for vec in first for a in vec)
    assert len(set(first)) == len(first)


def test_explicit_angles_override_the_lattice():
    cfg = ProbeConfig(angles=((0.0,), (1.5,)))
    assert cfg.angle_vectors(1) == ((0.0,), (1.5,))
    with pytest.raises(ValueError, match="entries"):
        cfg.angle_vectors(2)


# -- float against exact -----------------------------------------------------


@pytest.mark.parametrize("build", ALL_ORBITS)
def test_float_norm_matches_exact_engine(build):
    spec = build()
    rng = random.Random(11)
    for _ in range(3):
        t, ell = sample_point(spec, rng)
        exact = float(eval_frame(spec, t, ell).h_tilde)
        approx = norm_value(spec, t, ell)
        assert abs(approx - exact) <= 1e-10 * max(1.0, abs(exact))


@pytest.mark.parametrize("build", ALL_ORBITS)
def test_float_stratum_matches_exact_on_the_deep_stratum(build):
    spec = build()
    deep = tuple(range(spec.k))
    t = tuple(0 if j < spec.k else F(2, 7) for j in range(spec.n_coords))
    exact = float(stratum_value(spec, deep, t=t))
    approx = stratum_norm(spec, deep, t)
    assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact))


def test_norm_value_rejects_divisor_zeros_and_bad_shapes():
    spec = orbit_elliptic()
    with pytest.raises(ValueError, match="log"):
        norm_value(spec, (0.0, 0.5))
    with pytest.raises(ValueError, match="coordinates"):
        norm_value(spec, (0.5,))
    with pytest.raises(ValueError, match="ell-values"):
        norm_value(spec, (0.5, 0.5), ell=(1.0, 2.0))


def test_float_tables_die_with_their_spec():
    spec = orbit_elliptic.__wrapped__()  # a spec of its own, outside the builder's cache
    before = norm_value(spec, (0.5, 0.25))
    alive = weakref.ref(spec)
    del spec
    gc.collect()
    assert alive() is None
    # a fresh spec rebuilds its tables and gets the same value
    assert norm_value(orbit_elliptic.__wrapped__(), (0.5, 0.25)) == before


def test_exact_and_float_terms_refuse_negative_exponents_alike():
    spec = orbit_pair()
    t, ell = (F(1, 2), F(1, 3), F(1, 5)), (G(0, F(1, 3)), G(F(1, 7), F(2, 5)))
    messages = []
    for call in (lambda: term_pairing(spec, (-1, 0), t, ell),
                 lambda: term_value(spec, (-1, 0), (0.5, 1 / 3, 0.2))):
        with pytest.raises(ValueError) as refused:
            call()
        messages.append(str(refused.value))
    assert messages == ["exponents must be nonnegative"] * 2


def test_stratum_norm_mirrors_the_exact_validation():
    spec = orbit_pair()
    with pytest.raises(ValueError, match="divisor"):
        stratum_norm(spec, (5,), (0, 0, 0))
    with pytest.raises(ValueError, match="vanish"):
        stratum_norm(spec, (0,), (0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="not named"):
        stratum_norm(spec, (0,), (0.0, 0.0, 0.5))


# -- radial limits -------------------------------------------------------------


def test_radial_limit_is_flat_on_the_marker_fixing_fixture():
    report = radial_limit(orbit_elliptic(), (0,))
    assert report.passed
    assert report.target == pytest.approx(1.0, abs=1e-12)
    assert max(report.deviations) <= 1e-12
    assert report.clipped == ()


def test_radial_limit_converges_on_the_varying_fixture():
    report = radial_limit(orbit_varying(), (0,))
    assert report.passed
    exact = float(stratum_value(orbit_varying(), (0,), t=(0, F(1, 3))))
    assert abs(report.target - exact) <= 1e-14
    assert report.deviations[0] > 1e-6 > report.deviations[-1]
    assert report.limit == pytest.approx(report.target, abs=1e-9)


def test_radial_limit_is_angle_independent_at_the_bottom():
    report = radial_limit(orbit_varying(), (0,))
    last = report.observed[-1]
    assert len(last) == 8
    assert max(last) - min(last) <= 1e-8


def test_radial_limit_handles_partial_strata():
    report = radial_limit(orbit_pair(), (1,))
    assert report.passed
    assert report.deviations[-1] <= 1e-6


def test_radial_limit_matches_the_closed_stratum_formula():
    # the hermitian stratum value is 1 - |x + y|^2/4; the default base sits
    # at x = y = 1/3, so the target is 1 - (2/3)^2/4 = 8/9.
    report = radial_limit(orbit_hermitian(), (0,))
    assert report.passed
    assert report.target == pytest.approx(8.0 / 9.0, abs=1e-12)


def test_radial_limit_accepts_an_explicit_base():
    report = radial_limit(orbit_varying(), (0,), base=(0.0, 0.25))
    assert report.passed
    exact = float(stratum_value(orbit_varying(), (0,), t=(0, F(1, 4))))
    assert abs(report.target - exact) <= 1e-14


def test_radial_limit_validates_input():
    with pytest.raises(ValueError, match="divisor"):
        radial_limit(orbit_elliptic(), (3,))
    with pytest.raises(ValueError, match="coordinates"):
        radial_limit(orbit_elliptic(), (0,), base=(0.0,))
    with pytest.raises(ValueError, match="base value 0"):
        radial_limit(orbit_elliptic(), (0,), base=(0.5, 0.5))


def test_radial_reports_are_deterministic():
    assert radial_limit(orbit_varying(), (0,)) == radial_limit(orbit_varying(), (0,))


# -- term decay ----------------------------------------------------------------


def test_terms_vanish_identically_without_matching_twists():
    # the only twist of this fixture is transverse-polynomial, so zeta_hat
    # centralizes the cone and every weighted cross term is exactly zero.
    for powers in [(1,), (2,)]:
        report = term_vanishing(orbit_elliptic(), powers)
        assert report.passed
        assert all(v <= 1e-12 for row in report.observed for v in row)


def test_terms_decay_on_the_varying_fixture():
    for powers in [(1,), (2,)]:
        report = term_vanishing(orbit_varying(), powers)
        assert report.passed
        assert report.target == 0.0
        assert report.deviations[-1] <= 1e-6
    first = term_vanishing(orbit_varying(), (1,))
    assert first.deviations[-1] < first.deviations[0] * 1e-4


def test_term_control_does_not_vanish():
    report = term_vanishing(orbit_varying(), (0,))
    assert report.target == pytest.approx(3.0, abs=1e-12)
    assert report.passed
    assert min(report.observed[-1]) > 1.0


def test_term_vanishing_validates_input():
    with pytest.raises(ValueError, match="one exponent"):
        term_vanishing(orbit_elliptic(), (1, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        term_vanishing(orbit_elliptic(), (-1,))
    pure = tate_normalize(induce(weight_three_line()))
    from hodgenorm.orbit import orbit_spec
    with pytest.raises(ValueError, match="empty cone"):
        term_vanishing(orbit_spec(pure, {}, n_coords=0), ())


def test_term_value_agrees_with_its_own_prefactor_split():
    spec = orbit_varying()
    t = (0.01 + 0.003j, 0.25)
    one = term_value(spec, (1,), t)
    two = term_value(spec, (2,), t)
    assert isinstance(one, complex) and isinstance(two, complex)
    assert abs(two) < abs(one) < 1.0


# -- Levi spectra ----------------------------------------------------------------


def test_levi_matrix_matches_the_closed_form_at_the_origin():
    # -log(1 - |x + y|^2/4) has Levi (1/4) [[1,1],[1,1]] at the origin.
    report = levi_probe(orbit_hermitian(), (0,), base=(0, 0, 0))
    assert report.psh
    assert report.clipped == ()
    for a in range(2):
        for b in range(2):
            assert report.matrix[a][b] == pytest.approx(0.25, abs=5e-7)
    assert report.eigenvalues[0] == pytest.approx(0.0, abs=1e-7)
    assert report.eigenvalues[1] == pytest.approx(0.5, abs=1e-6)


def test_levi_spectrum_away_from_the_origin():
    # at x = y = 1/3 the second derivative is (1/4)/(8/9)^2 = 81/256 and the
    # rank-one structure doubles it into the single nonzero eigenvalue.
    report = levi_probe(orbit_hermitian(), (0,))
    assert report.psh
    assert report.eigenvalues[0] == pytest.approx(0.0, abs=1e-7)
    assert report.eigenvalues[1] == pytest.approx(81.0 / 128.0, abs=1e-6)


def test_levi_fibre_direction_is_flat():
    report = levi_probe(orbit_hermitian(), (0,), base=(0, 0, 0), dirs=[(0, 1, -1)])
    assert report.clipped == ()
    assert abs(report.eigenvalues[0]) <= 1e-4


def test_levi_clips_directions_leaving_the_stratum():
    report = levi_probe(orbit_hermitian(), (0,), base=(0, 0, 0), dirs=[(1, 1, 0)])
    assert report.clipped == (0,)
    assert report.directions == ((0j, 1 + 0j, 0j),)
    assert report.eigenvalues[0] == pytest.approx(0.25, abs=1e-6)


def test_levi_rejects_purely_normal_directions():
    with pytest.raises(ValueError, match="tangent"):
        levi_probe(orbit_hermitian(), (0,), base=(0, 0, 0), dirs=[(1, 0, 0)])


def test_levi_rejects_non_positive_base_values():
    # |x + y| = 2.4 pushes 1 - |x+y|^2/4 below zero.
    with pytest.raises(ValueError, match="not positive"):
        levi_probe(orbit_hermitian(), (0,), base=(0, 1.2, 1.2))


def test_levi_respects_the_step_size():
    coarse = levi_probe(orbit_hermitian(), (0,), base=(0, 0, 0),
                        cfg=ProbeConfig(fd_step=1e-3))
    assert coarse.eigenvalues[1] == pytest.approx(0.5, abs=1e-4)


def test_levi_is_psh_on_the_varying_fixture_stratum():
    report = levi_probe(orbit_varying(), (0,))
    assert report.psh
    assert len(report.eigenvalues) == 1


# -- filtration convergence -------------------------------------------------------


def test_rotation_is_stationary_for_a_pure_structure():
    pure = tate_normalize(induce(weight_three_line())).structure()
    report = f_infinity_probe(pure, Mat.zeros(pure.ambient))
    assert report.passed
    assert all(d <= 1e-9 for d in report.distances)


def test_curve_gap_decays_like_one_over_y():
    data = curve()
    report = f_infinity_probe(data.structure(), data.cone.generators[0])
    assert report.passed
    for y, d in zip(report.y_values, report.distances):
        assert d == pytest.approx(1.0 / math.sqrt(1.0 + y * y), abs=1e-9)
    assert report.extrapolated <= 1e-6


def test_rotation_by_zero_does_not_converge_on_mixed_data():
    st = curve().structure()
    report = f_infinity_probe(st, Mat.zeros(st.ambient))
    assert not report.passed
    assert report.distances[0] == report.distances[-1] > 0.5


def test_interior_cone_choices_share_the_limit():
    data = curve_pair()
    st = data.structure()
    g0, g1 = data.cone.generators
    inner = f_infinity_probe(st, g0 + g1)
    skewed = f_infinity_probe(st, g0 + g0 + g1)
    assert inner.passed and skewed.passed
    assert inner.extrapolated <= 1e-6 and skewed.extrapolated <= 1e-6


def test_f_infinity_probe_validates_y_values():
    st = curve().structure()
    n = curve().cone.generators[0]
    with pytest.raises(ValueError, match="positive"):
        f_infinity_probe(st, n, y_values=(-1.0, 10.0))
    with pytest.raises(ValueError, match="increasing"):
        f_infinity_probe(st, n, y_values=(100.0, 10.0))


def test_reports_support_truth_testing():
    good = radial_limit(orbit_elliptic(), (0,))
    assert isinstance(good, LimitReport) and bool(good)
    levi = levi_probe(orbit_hermitian(), (0,), base=(0, 0, 0))
    assert isinstance(levi, LeviReport) and bool(levi)
    gap = f_infinity_probe(curve().structure(), curve().cone.generators[0])
    assert isinstance(gap, DistanceReport) and bool(gap)
