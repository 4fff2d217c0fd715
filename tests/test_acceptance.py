"""End-to-end acceptance gate: golden tables, exact invariants, probe bounds.

One test per criterion, numbered; each prints a single summary line so a
verbose run reads as a checklist.  Golden diamond tables are shared with
the module-level tests (test_induced, test_lie) rather than duplicated.
"""

import itertools
import pathlib
import random
import time
from fractions import Fraction

import pytest

import test_induced
import test_lie

from hodgenorm import cli
from hodgenorm.exactlin import GaussianRational
from hodgenorm.fixtures import (
    defective_inputs,
    orbit_elliptic,
    orbit_hermitian,
    orbit_pair,
    orbit_varying,
    orbit_weight_one,
    random_split_mixed_hodge,
    weight_one,
    weight_two,
    weight_two_minimum_classes,
)
from hodgenorm.induced import induce, locate_markers, tate_normalize
from hodgenorm.lie import hermitian_test, lie_algebra, lie_deligne_split, smoothness_test
from hodgenorm.mhs import check_symmetries, deligne_split
from hodgenorm.orbit import generator_level_check, limit_norm, monodromy_check, stratum_value
from hodgenorm.probe import levi_probe, norm_value, radial_limit, term_vanishing

DATA = pathlib.Path(cli.__file__).parent / "data"
ALL_ORBITS = (orbit_elliptic, orbit_weight_one, orbit_pair, orbit_varying,
              orbit_hermitian)


def sample_point(spec, rng):
    t = tuple(Fraction(rng.randint(1, 5), rng.randint(6, 11))
              for _ in range(spec.n_coords))
    ell = tuple(GaussianRational(Fraction(rng.randint(-3, 3), 7),
                                 Fraction(rng.randint(1, 4), 5))
                for _ in range(spec.k))
    return t, ell


def test_criterion_01_weight_one_golden_tables():
    started = time.perf_counter()
    for a in range(4):
        v = weight_one(a)
        want_v = {pq: d for pq, d in
                  {(1, 1): a, (0, 0): a, (1, 0): 3 - a, (0, 1): 3 - a}.items()
                  if d}
        assert deligne_split(v.structure()).diamond() == want_v

        algebra = lie_algebra(v.q)
        layers = lie_deligne_split(algebra, v.structure())
        assert layers.diamond() == test_lie.weight_one_g_diamond(a)
        assert sum(layers.diamond().values()) == algebra.dim == 21

        h = tate_normalize(induce(v))
        assert h.dim == 20
        assert deligne_split(h.structure()).diamond() == \
            test_induced.WEIGHT_ONE_DIAMONDS[a]
        assert locate_markers(h).m == 3 + a
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 1: PASS — four input/algebra/induced diamond triples and "
          f"m=3..6, exact, {elapsed:.2f}s")


def test_criterion_02_weight_two_golden_tables():
    started = time.perf_counter()
    dims = []
    for kind in range(6):
        h_mid = weight_two_minimum_classes(kind)
        v = weight_two(kind)
        assert deligne_split(v.structure()).diamond() == \
            test_induced.weight_two_v_diamond(kind, h_mid)
        ind = tate_normalize(induce(v))
        dims.append(ind.dim)
        assert deligne_split(ind.structure()).diamond() == \
            test_induced.weight_two_h_diamond(kind, h_mid)
        assert locate_markers(ind).m == test_induced.WEIGHT_TWO_M[kind]
    # the four kinds realizable with two middle classes land on dim 15
    assert sorted(dims) == [15, 15, 15, 15, 21, 28]
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 2: PASS — six induced diamonds with m = "
          f"{test_induced.WEIGHT_TWO_M}, dims {tuple(dims)}, {elapsed:.2f}s")


def test_criterion_03_random_splitting_axioms():
    rng = random.Random(7)
    checked = 0
    for _ in range(100):
        structure = random_split_mixed_hodge(rng, max_dim=8)
        split = deligne_split(structure)  # checks every identity
        ok, msg = check_symmetries(split.diamond(), structure.n)
        assert ok, msg
        assert split.total_dim() == structure.ambient
        checked += 1
    rejected = 0
    for name, thunk in defective_inputs().items():
        with pytest.raises(ValueError):
            thunk()
        rejected += 1
    print(f"criterion 3: PASS — {checked} random structures split exactly, "
          f"{rejected} defective inputs rejected")


def test_criterion_04_isotropy_and_compatibility_suites(capsys):
    ran = 0
    for path in sorted(DATA.glob("*.json")):
        for suite in ("isotropy", "bracket"):
            code = cli.main(["check", str(path), "--suite", suite])
            out = capsys.readouterr()
            assert code == 0, f"{path.name} {suite}:\n{out.out}{out.err}"
            assert "FAIL" not in out.out
            ran += 1
    print(f"criterion 4: PASS — isotropy and bracket/action/containment "
          f"suites exact on {ran // 2} fixtures")


def test_criterion_05_monodromy_invariance():
    rng = random.Random(11)
    exact_points = float_points = 0
    for build in ALL_ORBITS:
        spec = build()
        for _ in range(3):
            t, ell = sample_point(spec, rng)
            shifts = tuple(rng.randint(-3, 3) for _ in range(spec.k))
            ok, detail = monodromy_check(spec, t, ell, shifts)
            assert ok, detail
            exact_points += 1
        for _ in range(20):
            t = tuple(rng.uniform(0.05, 0.6) for _ in range(spec.n_coords))
            ell = tuple(complex(rng.uniform(-1, 1), rng.uniform(0.1, 1))
                        for _ in range(spec.k))
            shifted = tuple(l + rng.randint(-3, 3) for l in ell)
            base = norm_value(spec, t, ell)
            moved = norm_value(spec, t, shifted)
            assert abs(moved - base) <= 1e-12 * max(abs(base), 1e-300)
            float_points += 1
    print(f"criterion 5: PASS — branch shifts invisible at {exact_points} "
          f"exact and {float_points} float points (rel 1e-12)")


def test_criterion_06_extension_limits():
    radial = terms = 0
    for build in ALL_ORBITS:
        spec = build()
        deep = tuple(range(spec.k))
        report = radial_limit(spec, deep)
        assert report.passed, (build.__wrapped__.__name__, report.deviations)
        assert report.radii[-1] == 1e-8 and report.tol == 1e-6
        assert len(report.angles) >= 8
        final = report.observed[-1]
        assert max(final) - min(final) <= 1e-8  # angle independence
        radial += 1
        for total in (1, 2):
            for powers in itertools.product(range(total + 1), repeat=spec.k):
                if sum(powers) != total:
                    continue
                term = term_vanishing(spec, powers)
                assert term.passed, (build.__wrapped__.__name__, powers,
                                     term.deviations)
                terms += 1
    print(f"criterion 6: PASS — {radial} radial limits (tol 1e-6 at r=1e-8, "
          f"8 angles) and {terms} vanishing terms")


def test_criterion_07_norm_relation_on_strata():
    rng = random.Random(23)
    bound = Fraction(1, 10 ** 8)
    ratios = {}
    for build in ALL_ORBITS:
        spec = build()
        deep = tuple(range(spec.k))
        seen = []
        for _ in range(10):
            t = tuple(Fraction(0) if j < spec.k
                      else Fraction(rng.randint(1, 9), rng.randint(10, 19))
                      for j in range(spec.n_coords))
            reference = limit_norm(spec, t)
            assert reference > 0
            seen.append(stratum_value(spec, deep, t) / reference)
        first = seen[0]
        assert all(abs(r - first) <= bound * first for r in seen)
        ratios[build.__wrapped__.__name__] = first
    print(f"criterion 7: PASS — positive limit norms; extension/limit ratio "
          f"constant on 10 stratum points per fixture: "
          f"{ {k: str(v) for k, v in ratios.items()} }")


def test_criterion_08_hermitian_classification():
    for a in range(4):
        v = weight_one(a)
        layers = lie_deligne_split(lie_algebra(v.q), v.structure())
        herm, detail = hermitian_test(layers)
        assert herm, (a, detail)
        smooth, detail = smoothness_test(layers)
        assert smooth, (a, detail)  # hermitian fixtures must classify smooth
    wide = []
    for kind in range(6):
        v = weight_two(kind)
        layers = lie_deligne_split(lie_algebra(v.q), v.structure())
        spread = [pq for pq in layers.diamond() if abs(pq[0]) == 2]
        assert spread, kind
        herm, _ = hermitian_test(layers)
        assert not herm, kind
        wide.append(spread[0])
    print(f"criterion 8: PASS — 4 hermitian+smooth inputs; 6 non-hermitian "
          f"inputs each exhibiting a |p|=2 layer, e.g. {wide[0]}")


def test_criterion_09_two_generator_level_brackets():
    reports = []
    for build in (orbit_pair, lambda: orbit_weight_one(split_cone=True)):
        spec = build()
        assert spec.k == 2
        report = generator_level_check(spec)
        assert report.ok
        for record in report.per_generator:
            assert report.n <= record.level <= report.m
            assert record.opposite_level == 2 * report.n - record.level
        reports.append((report.n, report.m,
                        tuple(r.level for r in report.per_generator)))
    print(f"criterion 9: PASS — per-generator marker levels bracketed on two "
          f"two-generator cones: {reports}")


def test_criterion_10_levi_positivity():
    spec = orbit_hermitian()
    lows = []
    for i in range(5):
        for j in range(5):
            base = (0.0, 0.05 + 0.1 * i, 0.05 + 0.1 * j)
            report = levi_probe(spec, (0,), base=base)
            lows.append(min(report.eigenvalues))
    assert len(lows) == 25
    assert min(lows) >= -1e-6
    print(f"criterion 10: PASS — Levi spectrum bounded below by "
          f"{min(lows):.2e} >= -1e-6 over 25 stratum points")
