"""Numeric probes: radial limits, term decay, Levi spectra, filtration gaps.

The float pipeline is checked against the exact engine wherever both can
speak (agreement at rational points, stratum targets) and against closed
forms where only analysis can: the hermitian fixture's stratum value is
1 - |x + y|^2 / 4 on the nose, so its Levi matrix, eigenvalues, and flat
fibre direction are all known exactly, and the degenerate-curve filtration
rotates toward its limit with gap exactly 1/sqrt(1 + y^2).
"""

import gc
import itertools
import math
import pathlib
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from hodgenorm import cli, orbit, probe
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


# -- the sweep ---------------------------------------------------------------


def test_config_rejects_bad_steps_and_tolerances():
    # the sweep is fixed and tol is its one setting, which every probe checks alike
    data = curve()
    for bad in (0.0, -1e-6, math.inf, math.nan):
        for call in (lambda: radial_limit(orbit_elliptic(), (0,), tol=bad),
                     lambda: term_vanishing(orbit_elliptic(), (1,), tol=bad),
                     lambda: levi_probe(orbit_hermitian(), (0,), tol=bad),
                     lambda: f_infinity_probe(data.structure(), data.cone.generators[0],
                                              tol=bad)):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                call()


def test_default_angle_lattice_is_deterministic():
    first = probe.angle_vectors(2)
    assert first == probe.angle_vectors(2)
    assert len(first) == 8
    assert all(len(vec) == 2 for vec in first)
    assert all(0.0 <= a < 2.0 * math.pi for vec in first for a in vec)
    assert len(set(first)) == len(first)


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


@pytest.mark.parametrize("build", ALL_ORBITS)
def test_float_term_matches_exact_engine(build):
    # the exact side runs at the float run's own t and principal ell, each
    # part of an ell-value made exact by Fraction
    spec = build()
    kit = probe._kit(spec)
    rng = random.Random(11)
    missed = False
    for _ in range(3):
        t = sample_point(spec, rng)[0]
        ell = [probe._principal_ell(complex(x)) for x in t[:spec.k]]
        exact_ell = [G(F(e.real), F(e.imag)) for e in ell]
        eta = orbit.interior_frame(kit, orbit.check_point(kit, t),
                                   orbit.cone_exp(kit, zip(ell, kit.gens)))[2]
        for powers in itertools.product(range(3), repeat=spec.k):
            weight = orbit.monomial(orbit._Exact(spec), powers, exact_ell)
            exact = (term_pairing(spec, powers, t, exact_ell) * weight).to_complex()
            tol = 1e-10 * max(1.0, abs(exact))
            assert abs(term_value(spec, powers, t) - exact) <= tol
            unconjugated = orbit.monomial(kit, powers, ell) * orbit.cross_term(kit, eta, powers)
            missed |= abs(unconjugated - exact) > tol
    # only varying's twist fails to commute with its cone, so only there does
    # a term that skips theta^-1 miss the exact value
    assert missed == (build is orbit_varying)


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
    # radial_limit takes no base: it sweeps from the default base, which the
    # Levi probe reports, (0, 1/3) on this fixture
    spec = orbit_varying()
    assert levi_probe(spec, (0,)).base == (0.0, 1.0 / 3.0)
    report = radial_limit(spec, (0,))
    assert report.passed
    exact = float(stratum_value(spec, (0,), t=(0, F(1, 3))))
    assert abs(report.target - exact) <= 1e-14


def test_radial_limit_validates_input():
    with pytest.raises(ValueError, match="divisor"):
        radial_limit(orbit_elliptic(), (3,))


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
    # the fibre direction (1, -1) of the two free coordinates is a null
    # direction of the Levi matrix at the origin
    matrix = np.array(levi_probe(orbit_hermitian(), (0,), base=(0, 0, 0)).matrix)
    assert np.abs(matrix @ np.array([1.0, -1.0])).max() <= 1e-4


def test_levi_rejects_purely_normal_directions():
    # one generator and one coordinate: the stratum pins every coordinate
    spec = orbit.orbit_spec(tate_normalize(induce(curve())), {}, n_coords=1)
    with pytest.raises(ValueError, match="tangent"):
        levi_probe(spec, (0,))


def test_levi_validates_its_base_point():
    with pytest.raises(ValueError, match="coordinates"):
        levi_probe(orbit_elliptic(), (0,), base=(0.0,))
    with pytest.raises(ValueError, match="base value 0"):
        levi_probe(orbit_elliptic(), (0,), base=(0.5, 0.5))


def test_levi_rejects_non_positive_base_values():
    # |x + y| = 2.4 pushes 1 - |x+y|^2/4 below zero.
    with pytest.raises(ValueError, match="not positive"):
        levi_probe(orbit_hermitian(), (0,), base=(0, 1.2, 1.2))


def test_levi_is_psh_on_the_varying_fixture_stratum():
    report = levi_probe(orbit_varying(), (0,))
    assert report.psh
    assert len(report.eigenvalues) == 1


@pytest.mark.parametrize("build, free", [(orbit_hermitian, 2), (orbit_varying, 1)])
def test_levi_evaluates_each_stencil_point_once(build, free, monkeypatch):
    spec, norm, evaluated = build(), probe.stratum_norm, []

    def recorded(spec, stratum, t):
        evaluated.append((t, norm(spec, stratum, t)))
        return evaluated[-1][1]

    monkeypatch.setattr(probe, "stratum_norm", recorded)
    base = levi_probe(spec, (0,)).base
    assert len(evaluated) == 1 + 8 * free ** 2
    # the full stencil, repeats included: the base point, then four points for
    # each of the four (alpha, beta) of every pair a <= b of free directions
    h, n = probe.FD_STEP, spec.n_coords
    directions = [tuple(1.0 + 0.0j if j == f else 0.0j for j in range(n))
                  for f in range(1, n)]
    stencil = [base]
    for a, b in itertools.combinations_with_replacement(directions, 2):
        for alpha, beta in ((1.0, 1.0), (1.0j, 1.0j), (1.0, 1.0j), (1.0j, 1.0)):
            for ca, cb in ((alpha, beta), (alpha, -beta), (-alpha, beta), (-alpha, -beta)):
                stencil.append(tuple(x + h * (ca * u + cb * v) for x, u, v in zip(base, a, b)))
    assert len(stencil) == 1 + 8 * free * (free + 1)
    values = dict(evaluated)
    assert len(values) == len(evaluated) and set(values) == set(stencil)
    for point in stencil:
        assert repr(norm(spec, (0,), point)) == repr(values[point])


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


def test_reports_support_truth_testing():
    good = radial_limit(orbit_elliptic(), (0,))
    assert isinstance(good, LimitReport) and bool(good)
    levi = levi_probe(orbit_hermitian(), (0,), base=(0, 0, 0))
    assert isinstance(levi, LeviReport) and bool(levi)
    gap = f_infinity_probe(curve().structure(), curve().cone.generators[0])
    assert isinstance(gap, DistanceReport) and bool(gap)


# -- the float series, bounded by the p-levels ---------------------------------


def reference_expm(a):
    """The float exponential as first written, kept as the reference: the
    series runs until a computed power is zero, at most dim - 1 terms."""
    d = a.shape[0]
    out = np.eye(d, dtype=complex)
    term = np.eye(d, dtype=complex)
    for j in range(1, d):
        term = term @ a / j
        out = out + term
        if not term.any():
            break
    return out


class ReferenceFloats(probe._Floats):
    """The float kit with the reference exponential and zero test."""

    is_zero = staticmethod(lambda a: not a.any())

    def exp(self, a):
        return reference_expm(a)

    def exp_pair(self, a):
        return reference_expm(a), reference_expm(-a)


def _probe_values(spec, rng):
    """repr of every float entry point on seeded points with |t| up to 1."""
    deep = tuple(range(spec.k))
    points = []
    for _ in range(6):
        t = tuple(rng.uniform(0.01, 1.0) * complex(math.cos(a), math.sin(a))
                  for a in (rng.uniform(0, 2 * math.pi) for _ in range(spec.n_coords)))
        ell = tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(spec.k))
        points.append((t, ell, tuple(rng.randint(0, 2) for _ in range(spec.k))))

    def values():
        out = []
        for t, ell, powers in points:
            out += [norm_value(spec, t), norm_value(spec, t, ell), term_value(spec, powers, t)]
            for mask in range(1 << spec.k):
                stratum = [j for j in range(spec.k) if mask >> j & 1]
                out.append(stratum_norm(spec, stratum, tuple(
                    0.0 if j in stratum else x for j, x in enumerate(t))))
        out.append(radial_limit(spec, deep))
        out.append(term_vanishing(spec, (1,) + (0,) * (spec.k - 1)))
        if spec.n_coords > spec.k:
            out.append(levi_probe(spec, deep))
        out.append(f_infinity_probe(spec.structure.structure(),
                                    spec.cone.element((1,) * spec.k)))
        return [repr(x) for x in out]

    return values


@pytest.mark.parametrize("build", ALL_ORBITS)
def test_the_bounded_series_give_the_reference_values(build, monkeypatch):
    spec = build()
    values = _probe_values(spec, random.Random(f"bounded:{build.__name__}"))
    taken, expm = [], probe._expm
    monkeypatch.setattr(probe, "_expm", lambda a, terms, inverse=False: taken.append(a) or expm(
        a, terms, inverse))
    bounded = values()
    monkeypatch.setattr(probe, "_KITS", weakref.WeakKeyDictionary({spec: ReferenceFloats(spec)}))
    monkeypatch.setattr(probe, "_expm", lambda a, terms: reference_expm(a))
    assert bounded == values()
    # the probe values need not see every power, so the exponentials are compared too
    for a in taken:
        for got, x in zip(expm(a, probe._kit(spec).terms, inverse=True), (a, -a)):
            reference = reference_expm(x)
            assert np.abs(got - reference).max() <= 1e-13 * max(1.0, np.abs(reference).max())


@pytest.mark.parametrize("build, terms", [
    (orbit_elliptic, 1), (orbit_pair, 2), (orbit_hermitian, 3), (orbit_weight_one, 3),
    (orbit_varying, 4)])
def test_the_float_series_stop_at_the_p_levels_less_one(build, terms):
    assert probe._kit(build()).terms == terms


def test_the_float_exponential_builds_each_identity_once(monkeypatch):
    monkeypatch.setattr(probe, "_IDENTITIES", {})
    sizes, eye = [], np.eye
    monkeypatch.setattr(np, "eye", lambda d, *args, **kwargs: sizes.append(d) or eye(
        d, *args, **kwargs))
    for build in ALL_ORBITS:
        spec = build()
        for _ in range(2):
            radial_limit(spec, tuple(range(spec.k)))
            f_infinity_probe(spec.structure.structure(), spec.cone.element((1,) * spec.k))
    assert sorted(sizes) == [2, 6, 15, 20]


def test_a_zero_exponent_returns_the_shared_identity():
    zero = np.zeros((6, 6), dtype=complex)
    out = probe._expm(zero, 5)
    assert out is probe._identity(6) and not out.flags.writeable
    assert np.array_equal(out, reference_expm(zero))
    assert probe._expm(-zero, 5) is out  # a signed zero is zero


class _CountedProducts(np.ndarray):
    """An array that counts the matrix products it, or an array computed
    from it, enters."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountedProducts.products += 1
        plain = lambda xs: tuple(x.view(np.ndarray) if isinstance(x, _CountedProducts) else x
                                 for x in xs)
        if "out" in kwargs:
            kwargs["out"] = plain(kwargs["out"])
        out = getattr(ufunc, method)(*plain(inputs), **kwargs)
        return out.view(_CountedProducts) if isinstance(out, np.ndarray) else out


def test_the_varying_twist_series_forms_at_most_four_powers():
    spec = orbit_varying()
    kit = probe._kit(spec)
    rng = random.Random(22)
    for _ in range(4):
        log_zeta = orbit.zeta_log(kit, tuple(rng.uniform(0.05, 0.6)
                                             for _ in range(spec.n_coords)))
        _CountedProducts.products = 0
        bounded = probe._expm(log_zeta.view(_CountedProducts), kit.terms)
        assert _CountedProducts.products <= 4
        # the unbounded series forms all 14: rounding leaves the vanishing powers nonzero
        _CountedProducts.products = 0
        unbounded = reference_expm(log_zeta.view(_CountedProducts))
        assert _CountedProducts.products == 14
        assert np.abs(bounded - unbounded).max() <= 1e-15


def test_the_elliptic_series_form_no_product():
    # one p-level step, so exp(a) is I + a
    spec = orbit_elliptic()
    kit = probe._kit(spec)
    t = (0.3 + 0.1j, 0.4)
    for log in (orbit.cone_log(kit, zip([probe._principal_ell(t[0])], kit.gens)),
                orbit.zeta_log(kit, t)):
        _CountedProducts.products = 0
        out = kit.exp(log.view(_CountedProducts))
        assert _CountedProducts.products == 0
        assert np.array_equal(out, reference_expm(log))


@pytest.mark.parametrize("build", ALL_ORBITS)
def test_theta_inverse_costs_no_product_of_its_own(build):
    spec = build()
    kit = probe._kit(spec)
    t = tuple(0.3 + 0.1j * j for j in range(spec.n_coords))
    log = orbit.cone_log(kit, zip([probe._principal_ell(x) for x in t[:spec.k]], kit.gens))
    _CountedProducts.products = 0
    theta = kit.exp(log.view(_CountedProducts))
    alone, _CountedProducts.products = _CountedProducts.products, 0
    pair = kit.exp_pair(log.view(_CountedProducts))
    assert _CountedProducts.products == alone
    # bit for bit the separate series of theta and of theta^-1 = exp(-log)
    assert [x.tobytes() for x in pair] == [theta.tobytes(), kit.exp(-log).tobytes()]


def test_an_untwisted_frame_forms_no_theta_zeta_product():
    spec = cli.load_fixture(pathlib.Path(cli.__file__).parent / "data" / "a1.json").orbit()
    assert not spec.zeta_coeffs
    kit = probe._Floats(spec)
    kit.exp = lambda a: probe._expm(a, kit.terms).view(_CountedProducts)
    t = (0.3 + 0.1j,) * spec.n_coords
    _CountedProducts.products = 0
    theta, zeta, eta = orbit.interior_frame(kit, t, orbit.cone_exp(
        kit, zip([probe._principal_ell(t[0])], kit.gens)))
    assert _CountedProducts.products == 0
    assert eta is theta and zeta is kit.identity
    frame = eval_frame(spec, (F(1, 3),) * spec.n_coords, (G(F(1, 7), F(1, 5)),))
    assert frame.eta is frame.theta and frame.zeta == Mat.identity(spec.dim)
