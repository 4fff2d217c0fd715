"""Command-line layer: fixture codec, commands, suites, exit codes."""

import ast
import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hodgenorm import cli, fixtures, lie, mhs, orbit
from hodgenorm.exactlin import GaussianRational, Mat
from hodgenorm.filtrations import _Filtration, DecreasingFiltration
from hodgenorm.lie import lie_algebra, LieSplit
from hodgenorm.mhs import DirectSumError
from hodgenorm.cli import (
    dump_document,
    Fixture,
    fixture_document,
    FixtureError,
    load_fixture,
    main,
    parse_fixture,
)

DATA = pathlib.Path(cli.__file__).parent / "data"
ROOT = DATA.parents[2]
SHIPPED = sorted(p.name for p in DATA.glob("*.json"))


def run(capsys, *argv):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def elliptic_doc():
    return json.loads((DATA / "elliptic.json").read_text())


# -- scalar and matrix codec ---------------------------------------------------


def test_scalar_codec_round_trips():
    for token in ("3", "-7/2", "0", ["1/3", "-2"], ["0", "1"]):
        value = cli._parse_scalar(token, "x")
        again = cli._show_scalar(value)
        assert cli._parse_scalar(again, "x") == value


def test_real_scalars_serialize_without_imaginary_part():
    value = cli._parse_scalar(["5/3", "0"], "x")
    assert cli._show_scalar(value) == "5/3"


def test_bad_rational_names_the_field():
    with pytest.raises(FixtureError, match=r"f\.0\[0\]\[1\]\[1\]: bad rational"):
        cli._parse_row([["1", "0"], ["0", "1/x"]], "f.0[0]", 2)


BIT_CAP = "numerator or denominator exceeds 2048 bits"


@pytest.mark.parametrize("token, message", [
    ("1e40000", BIT_CAP), ("-1e40000", BIT_CAP), ("1/1e700", "bad rational '1/1e700'"),
    ("3e-617", BIT_CAP), (2 ** 2048, BIT_CAP), ("1e999999999", "exponent out of range"),
    ("0e0000123456", "exponent out of range")])
def test_rationals_past_the_bit_cap_name_the_field(token, message):
    with pytest.raises(FixtureError, match=rf"^q\[0\]\[1\]: {re.escape(message)}"):
        cli._parse_fraction(token, "q[0][1]")


def test_rationals_up_to_the_bit_cap_are_accepted():
    # 10^616 has 2047 bits
    for token in ("1e616", "-1e-616", 2 ** 2048 - 1, f"1/{2 ** 2048 - 1}", "0e99999"):
        assert cli._parse_fraction(token, "q") == Fraction(token)


def test_a_computed_value_past_the_bit_cap_is_shown_by_its_digit_count():
    huge = GaussianRational(10 ** 40000)
    assert cli._abbreviated(huge) == "a value with a 40001-digit part"
    assert cli._abbreviated(-huge + 1) == "a value with a 40000-digit part"
    assert cli._abbreviated(GaussianRational(0, Fraction(1, 10 ** 616))) == f"1/{10 ** 616}i"
    data = type("Data", (), {"markers": type("Markers", (), {"lam": huge})})
    fixture = type("Computed", (), {"data": data})()
    with pytest.raises(FixtureError) as err:
        cli._verify_expectations(fixture, {"lam": "1"})
    assert str(err.value) == "markers.lam: fixture says 1, computed a value with a 40001-digit part"


def test_scalar_rejects_wrong_shapes():
    with pytest.raises(FixtureError, match="re, im"):
        cli._parse_scalar(["1", "2", "3"], "q")
    with pytest.raises(FixtureError, match="num/den"):
        cli._parse_scalar(1.5, "q")


# -- fixture documents ----------------------------------------------------------


def test_shipped_fixtures_all_parse():
    assert SHIPPED == ["a1.json", "a1_input.json", "elliptic.json",
                       "hermitian.json", "pair.json", "varying.json"]
    for name in SHIPPED:
        fx = load_fixture(DATA / name)
        assert isinstance(fx, Fixture)
        assert fx.data.dim >= 2


def _nonzero_entries(doc):
    """The scalars of a fixture document with a part other than "0"."""
    def count(rows):
        return sum(any(part not in ("0", 0) for part in (x if isinstance(x, list) else [x]))
                   for row in rows for x in row)
    matrices = [doc["q"], *doc["cone"]]
    matrices += [term["matrix"] for terms in doc.get("zeta", {}).values() for term in terms]
    vectors = [v for key in ("f", "w") for vs in doc.get(key, {}).values() for v in vs]
    lam = [[doc["markers"]["lam"]]] if "lam" in doc.get("markers", {}) else []
    return sum(map(count, matrices)) + count(vectors) + count(lam)


def test_loading_builds_no_scalar_per_zero_entry(monkeypatch):
    # zero entries build nothing and matrices land in int form, so a load
    # builds fewer GaussianRationals than the document has nonzero entries,
    # the marker checks included
    built = []
    init, raw = GaussianRational.__init__, GaussianRational._raw.__func__
    monkeypatch.setattr(GaussianRational, "__init__",
                        lambda self, *a: built.append(1) or init(self, *a))
    monkeypatch.setattr(GaussianRational, "_raw",
                        classmethod(lambda cls, re, im: built.append(1) or raw(cls, re, im)))
    for name in SHIPPED:
        doc = json.loads((DATA / name).read_text())
        built.clear()
        load_fixture(DATA / name)
        assert 0 < len(built) <= _nonzero_entries(doc), name


def test_write_read_write_is_byte_identical():
    for name in SHIPPED:
        original = (DATA / name).read_text()
        fx = parse_fixture(json.loads(original))
        again = dump_document(fixture_document(
            fx.data, fx.zeta, fx.n_coords, fx.expectations))
        assert again == original, name


def test_missing_required_field():
    doc = elliptic_doc()
    del doc["q"]
    with pytest.raises(FixtureError, match="q: required field is missing"):
        parse_fixture(doc)


def test_unknown_field_rejected():
    doc = elliptic_doc()
    doc["extra"] = 1
    with pytest.raises(FixtureError, match="unknown fixture field"):
        parse_fixture(doc)


def test_wrong_version_tag():
    doc = elliptic_doc()
    doc["version"] = "hodge-fixture/9"
    with pytest.raises(FixtureError, match="version"):
        parse_fixture(doc)


def test_zeta_key_outside_divisor_range():
    doc = elliptic_doc()
    doc["zeta"] = {"5": []}
    with pytest.raises(FixtureError, match="outside the divisor"):
        parse_fixture(doc)


def test_zeta_powers_must_match_coordinate_count():
    doc = elliptic_doc()
    bad = doc["zeta"]["0"][0]["powers"][:1]
    doc["zeta"]["0"][0]["powers"] = bad
    with pytest.raises(FixtureError, match="nonnegative integers"):
        parse_fixture(doc)


def test_marker_expectation_mismatch_is_caught():
    doc = elliptic_doc()
    doc["markers"]["m"] = 5
    with pytest.raises(FixtureError, match="fixture says 5, computed 2"):
        parse_fixture(doc)


def test_pairing_validation_happens_at_load():
    doc = elliptic_doc()
    doc["q"] = [["0", "1"], ["1", "0"]]  # symmetric, but weight is odd
    with pytest.raises(FixtureError, match="skew"):
        parse_fixture(doc)
    doc["cone"] = []
    doc["zeta"] = {}
    doc.pop("markers")
    with pytest.raises(FixtureError, match="symmetric"):
        parse_fixture(doc)


BOOLEANS_AS_INTEGERS = [
    ("dim", lambda doc: doc.update(dim=True)),
    ("weight", lambda doc: doc.update(weight=True)),
    ("n_coords", lambda doc: doc.update(n_coords=True)),
    ("zeta['0,1'][0].powers", lambda doc: doc["zeta"]["0,1"][0]["powers"].__setitem__(2, True)),
    ("q[0][0]", lambda doc: doc["q"][0].__setitem__(0, True)),
    ("cone[0][0][1]", lambda doc: doc["cone"][0][0].__setitem__(1, False)),
    ("markers.n", lambda doc: doc["markers"].update(n=True)),
]


@pytest.mark.parametrize("field, mutate", BOOLEANS_AS_INTEGERS,
                         ids=[field for field, _ in BOOLEANS_AS_INTEGERS])
def test_json_booleans_are_not_integers(field, mutate, tmp_path, capsys):
    doc = json.loads((DATA / "pair.json").read_text())
    mutate(doc)
    path = tmp_path / "booleans.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "diamond", path)
    assert code == 2
    assert err.startswith(f"error: {field}: ")


def _drop_level(field, level):
    return lambda doc: doc[field].pop(level)


def _pairing(rows):
    def mutate(doc):
        doc["q"] = rows
        doc["cone"], doc["zeta"] = [], {}
        doc.pop("markers")
    return mutate


# One case per message MixedHodge raises on fixture data, and one per marker
# refusal that the loader reports under markers; each names its field.
STRUCTURE_ERRORS = [
    ("pair.json", _drop_level("w", "4"), "w: W must reach the full space"),
    ("pair.json", _drop_level("f", "0"), "f: F must start at the full space"),
    ("elliptic.json", _pairing([["0", "1"], ["1", "0"]]),
     "q: pairing must be (-1)^n-symmetric"),
    ("elliptic.json", _pairing([["0", "0"], ["0", "0"]]), "q: pairing is degenerate"),
    ("elliptic.json", lambda doc: doc["cone"].__setitem__(0, [["0", "0"], ["0", "0"]]),
     "cone[0]: generator 0 is zero"),
    ("elliptic.json", lambda doc: doc["cone"].__setitem__(0, [["1", "0"], ["0", "1"]]),
     "cone[0]: generator 0 is not nilpotent"),
    ("elliptic.json", lambda doc: doc.update(q=[["0", "1"], ["1", "0"]]),
     "cone[0]: generator 0 is not infinitesimally skew"),
    # a nilpotent infinitesimal isometry of pair's q that moves generator 0
    ("pair.json", lambda doc: doc["cone"].__setitem__(1, [
        ["0", "0", "0", "1", "0", "0"], ["0"] * 6, ["1", "0", "0", "0", "0", "0"],
        ["0"] * 6, ["0"] * 6, ["0"] * 6]),
     "cone: generators do not commute"),
    # the marker expectations make the loader build the markers
    ("pair.json", lambda doc: doc["w"]["0"][0].__setitem__(1, "1e400"),
     "markers: the top and opposite lines do not pair"),
    ("elliptic.json", _drop_level("f", "1"),
     "markers: top filtration level is not a line — normalize first"),
    ("elliptic.json", _drop_level("w", "0"), "markers: W_0 ∩ F^0 has dimension 0, not 1"),
]


@pytest.mark.parametrize("name, mutate, message", STRUCTURE_ERRORS,
                         ids=[m.split(":")[0] + "-" + m.split()[-1] for _, _, m in STRUCTURE_ERRORS])
def test_structure_errors_start_with_their_field(name, mutate, message, tmp_path, capsys):
    doc = json.loads((DATA / name).read_text())
    mutate(doc)
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "diamond", path)
    assert code == 2
    assert err == f"error: {message}\n"


def test_w_is_optional_and_recomputed():
    doc = elliptic_doc()
    saved = doc.pop("w")
    fx = parse_fixture(doc)
    assert cli._show_levels(fx.data.w) == saved


# -- diamond / markers / split / lie ------------------------------------------


def test_diamond_matches_the_printed_table(capsys):
    code, out, _ = run(capsys, "diamond", DATA / "a1.json")
    assert code == 0
    assert "m = 4" in out
    dims = [int(line.rsplit(":", 1)[1]) for line in out.splitlines()
            if line.startswith("  (")]
    assert sorted(dims) == [1, 1, 1, 1, 4, 4, 4, 4]
    # only check and probe have numeric verdicts, so only they take --tol
    with pytest.raises(SystemExit) as exc:
        run(capsys, "diamond", DATA / "a1.json", "--tol", "1e-3")
    assert exc.value.code == 2


def test_markers_on_the_elliptic_fixture(capsys):
    code, out, _ = run(capsys, "markers", DATA / "elliptic.json")
    assert code == 0
    assert "m = 2" in out
    assert "lam = 1" in out
    assert "(0, 1, 1)" in out


def test_split_lists_every_piece(capsys):
    code, out, _ = run(capsys, "split", DATA / "elliptic.json")
    assert code == 0
    assert "(1, 1): dim 1" in out
    assert "(0, 0): dim 1" in out


def test_lie_reports_dims_and_verdicts(capsys):
    code, out, _ = run(capsys, "lie", DATA / "elliptic.json")
    assert code == 0
    assert "symmetry algebra dimension 3" in out
    assert "hermitian: True" in out
    assert "smooth: True" in out


def test_induce_emits_the_shipped_induced_fixture(capsys):
    code, out, _ = run(capsys, "induce", DATA / "a1_input.json")
    assert code == 0
    summary, _, rest = out.partition("\n")
    assert "dim 20" in summary
    emitted = json.loads(rest)
    shipped = json.loads((DATA / "a1.json").read_text())
    shipped.pop("markers")
    assert emitted == shipped


# -- eval -------------------------------------------------------------------------


def test_eval_exact_mode(capsys):
    code, out, _ = run(capsys, "eval", DATA / "elliptic.json",
                       "--t", "1/3", "1/4", "--ell", "0,1")
    assert code == 0
    assert "h = 1" in out
    assert "triangular frame: True" in out


def test_eval_float_mode(capsys):
    code, out, _ = run(capsys, "eval", DATA / "elliptic.json",
                       "--t", "1/100", "1/4")
    assert code == 0
    assert "h ~ 1.0" in out


def test_a_float_eval_that_leaves_double_range_exits_2(tmp_path, capsys):
    report = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        code, out, err = run(capsys, "eval", DATA / "varying.json",
                             "--t", "1" + "0" * 200, "1/30", "--report", report)
    assert (code, out) == (2, "")
    assert err == ("error: --t: the float norm leaves double range at this point; "
                   "give --ell for the exact value\n")
    assert not report.exists()


def test_a_cone_that_keeps_a_grade_is_refused_by_eval(tmp_path, capsys):
    # the varying generator plus an element of g^{0,-3} still polarizes;
    # without the twist, whose coefficients it does not commute with, only
    # the grade check refuses it
    data = load_fixture(DATA / "varying.json").data
    a, a_inv, _ = data.split().frame
    x = lie.lie_deligne_split(lie_algebra(data.q), data.structure()).matrices(0, -3)[0]
    doc = json.loads((DATA / "varying.json").read_text())
    doc["cone"][0] = cli._show_matrix(data.cone.generators[0] + a * x * a_inv)
    doc.pop("zeta")
    path = tmp_path / "keeps-p.json"
    path.write_text(dump_document(doc))
    code, out, err = run(capsys, "eval", path, "--t", "1/20", "1/30")
    assert (code, out) == (2, "")
    assert err == "error: cone[0]: generator 0 does not strictly lower the filtration grade\n"


def _exit_and_numpy(*argv):
    """The exit code of `hodge argv` in a new process, and whether numpy was imported."""
    code = ("import sys; from hodgenorm.cli import main; "
            f"code = main({[str(a) for a in argv]!r}); "
            "print(code, 'numpy' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_exact_eval_starts_without_numpy():
    # the float layer, and numpy with it, loads only in the float branch
    assert _exit_and_numpy("eval", DATA / "elliptic.json",
                           "--t", "1/3", "1/4", "--ell", "0,1") == "0 False"


@pytest.mark.parametrize("command, printed", [("check", "0 False"), ("probe", "2 False")])
def test_runs_whose_float_work_is_skipped_or_refused_start_without_numpy(command, printed):
    # a1_input has no markers: check skips its four orbit suites, probe exits 2
    assert _exit_and_numpy(command, DATA / "a1_input.json") == printed


def test_eval_branch_shift_changes_nothing(capsys):
    base = run(capsys, "eval", DATA / "pair.json",
               "--t", "1/3", "1/5", "1/7", "--ell", "0,1", "1,1")
    moved = run(capsys, "eval", DATA / "pair.json",
                "--t", "1/3", "1/5", "1/7", "--ell", "0,1", "1,1",
                "--branch", "3", "-2")
    assert base[0] == moved[0] == 0
    h_of = lambda out: [l for l in out.splitlines() if l.startswith("h = ")]
    assert h_of(base[1]) == h_of(moved[1])


def test_eval_requires_coordinates(capsys):
    code, _, err = run(capsys, "eval", DATA / "elliptic.json")
    assert code == 2
    assert "needs --t" in err


def test_eval_branch_requires_exact_mode(capsys):
    code, out, err = run(capsys, "eval", DATA / "elliptic.json",
                         "--t", "1/3", "1/4", "--branch", "1")
    # FIELD_PATH matches no option name, so the whole message stands in for it
    assert (code, out) == (2, "")
    assert err == "error: --branch: needs --ell (exact mode)\n"


def test_eval_bad_coordinate_token(capsys):
    code, _, err = run(capsys, "eval", DATA / "elliptic.json", "--t", "x", "1")
    assert code == 2
    assert "bad coordinate" in err


COORDINATES = "use 're' or 're,im' rationals"
INTERIOR = ("divisor coordinate is zero; eval takes interior points only, "
            "where every divisor coordinate is nonzero")
# Option values the fixture's numbers would refuse, and option counts that do
# not fit the fixture: each exits 2 naming the option before any work.
OPTION_ERRORS = [
    (("eval", "elliptic", "--t", "1e5000", "1/2", "--ell", "0,1"), f"--t[0]: {BIT_CAP}"),
    (("eval", "elliptic", "--t", "1/3", "1/2", "--ell", "1e5000,1"), f"--ell[0]: {BIT_CAP}"),
    (("eval", "elliptic", "--t", "1/3", "1/2", "--ell", "0,1e-5000"), f"--ell[0]: {BIT_CAP}"),
    (("eval", "elliptic", "--t", "1/3", "1e999999"),
     "--t[1]: exponent out of range in '1e999999'"),
    (("eval", "elliptic", "--t", "x", "1"), f"--t[0]: bad coordinate 'x': {COORDINATES}"),
    (("eval", "elliptic", "--t", "1/3", "1,2,3"),
     f"--t[1]: bad coordinate '1,2,3': {COORDINATES}"),
    (("eval", "elliptic", "--t", "1/3", "1." + "0" * 5001 + "x"),
     f"--t[1]: bad coordinate '1.000000000000000000'... (5004 characters): {COORDINATES}"),
    (("eval", "elliptic", "--t", "1/3"), "--t: expected 2 values, got 1"),
    (("eval", "elliptic"), "--t: eval needs --t with one value per coordinate"),
    (("eval", "elliptic", "--t", "0", "1/2", "--ell", "0,1"), f"--t[0]: {INTERIOR}"),
    (("eval", "elliptic", "--t", "0", "1/2"), f"--t[0]: {INTERIOR}"),
    (("eval", "pair", "--t", "1/3", "0,0", "1/7", "--ell", "0,1", "1,1"), f"--t[1]: {INTERIOR}"),
    (("eval", "elliptic", "--t", "1/3", "1/4", "--ell", "0,1", "1"),
     "--ell: expected 1 value, got 2"),
    (("eval", "pair", "--t", "1/3", "1/5", "1/7", "--ell", "0,1", "1,1", "--branch", "3"),
     "--branch: expected 2 integers, one per cone generator, got 1"),
    (("check", "pair", "--branch", "1"),
     "--branch: expected 2 integers, one per cone generator, got 1"),
    (("check", "elliptic", "--suite", "monodromy", "--branch", "1", "2"),
     "--branch: expected 1 integer, one per cone generator, got 2"),
    (("check", "a1_input", "--suite", "symmetries", "--branch", "1", "2"),
     "--branch: expected 1 integer, one per cone generator, got 2"),
    (("check", "elliptic", "--tol", "-1"), "--tol: expected a finite positive number, got -1.0"),
    (("check", "elliptic", "--tol", "nan"), "--tol: expected a finite positive number, got nan"),
    (("check", "elliptic", "--suite", "limits", "--tol", "0"),
     "--tol: expected a finite positive number, got 0.0"),
    (("probe", "elliptic", "--tol", "inf"), "--tol: expected a finite positive number, got inf"),
    (("probe", "elliptic", "--tol=-1e-6"),
     "--tol: expected a finite positive number, got -1e-06"),
]


@pytest.mark.parametrize("argv, message", OPTION_ERRORS, ids=[m for _, m in OPTION_ERRORS])
def test_bad_option_values_exit_2_naming_the_option(argv, message, capsys):
    command, name, *rest = argv
    code, out, err = run(capsys, command, DATA / f"{name}.json", *rest)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# -- check ---------------------------------------------------------------------------


def test_check_passes_on_the_elliptic_fixture(capsys):
    code, out, err = run(capsys, "check", DATA / "elliptic.json")
    assert code == 0
    assert err == ""
    assert "0 failed" in out
    assert "FAIL" not in out


def test_check_passes_on_the_two_generator_fixture(capsys):
    code, out, _ = run(capsys, "check", DATA / "pair.json")
    assert code == 0
    assert "isotropy.generator-1" in out
    assert "levels.generator-1" in out


def test_check_monodromy_with_a_branch_shift(capsys):
    code, out, _ = run(capsys, "check", DATA / "pair.json",
                       "--suite", "monodromy", "--branch", "3", "0")
    assert code == 0
    assert "monodromy.shift-3,0" in out


def test_check_single_suite_runs_nothing_else(capsys):
    code, out, _ = run(capsys, "check", DATA / "elliptic.json",
                       "--suite", "isotropy")
    assert code == 0
    names = [line.split()[1] for line in out.splitlines() if "  " in line][:-1]
    assert names and all(n.startswith("isotropy.") for n in names)


def test_check_skips_orbit_suites_without_markers(capsys):
    code, out, _ = run(capsys, "check", DATA / "a1_input.json")
    assert code == 0
    skips = [l for l in out.splitlines() if l.startswith("skip")]
    assert len(skips) == 4
    assert "norm machinery undefined" in out


def test_check_fails_on_a_tampered_weight_filtration(tmp_path, capsys):
    doc = elliptic_doc()
    doc["w"] = {"2": [["1", "0"], ["0", "1"]]}
    doc.pop("markers")
    path = tmp_path / "tampered.json"
    path.write_text(dump_document(doc))
    code, out, err = run(capsys, "check", path)
    assert code == 1
    assert "first failing invariant:" in err
    assert "FAIL" in out


def test_a_splitting_whose_pieces_are_not_a_basis_fails_direct_sum(tmp_path, capsys):
    # pure weight 1 with F^1 a rational line: I^{1,0} and I^{0,1} coincide
    doc = elliptic_doc()
    doc.update(w={"1": [["1", "0"], ["0", "1"]]}, cone=[], n_coords=0, zeta={})
    doc.pop("markers")
    path = tmp_path / "rational_line.json"
    path.write_text(dump_document(doc))
    code, out, err = run(capsys, "check", "--suite", "symmetries", path)
    message = "f: not a mixed Hodge structure: bigraded pieces are not independent"
    assert code == 1
    assert out.splitlines() == [
        "pass  symmetries.pairing-symmetry  Q^T = (-1)Q",
        "pass  symmetries.pairing-nondegenerate  det Q != 0",
        "pass  symmetries.filtration-orthogonality  Q(F^a, F^b) = 0 for a+b > n",
        f"FAIL  symmetries.direct-sum  {message}",
        "4 checks: 3 passed, 1 failed"]
    assert err == f"first failing invariant: symmetries.direct-sum — {message}\n"


def test_every_direct_sum_defect_is_reported_under_direct_sum():
    reported = set()
    for fx in structure_mutations():
        try:
            fx.data.split()
        except DirectSumError as exc:
            checks = cli.suite_symmetries(fx, None)
            assert [c.name for c in checks[:-1]] == [
                "symmetries.pairing-symmetry", "symmetries.pairing-nondegenerate",
                "symmetries.filtration-orthogonality"]
            assert checks[-1] == cli.Check("symmetries.direct-sum", False, str(exc))
            reported.add(str(exc).rpartition(": ")[2])
        except ValueError:
            with pytest.raises(ValueError):
                cli.suite_symmetries(fx, None)
    assert reported == {"bigraded pieces are not independent",
                        "bigraded pieces do not span the space"}


def test_check_names_the_first_failure_deterministically(tmp_path, capsys):
    doc = elliptic_doc()
    doc["w"] = {"2": [["1", "0"], ["0", "1"]]}
    doc.pop("markers")
    path = tmp_path / "tampered.json"
    path.write_text(dump_document(doc))
    first = run(capsys, "check", path)
    second = run(capsys, "check", path)
    assert first == second


def test_bracket_suite_agrees_with_direct_commutators(capsys):
    """The suite derives graded bracket compatibility instead of computing
    every commutator; on a small fixture the direct computation must agree."""
    from hodgenorm.exactlin import commutator
    from hodgenorm.lie import lie_algebra, lie_deligne_split

    fx = load_fixture(DATA / "elliptic.json")
    st = fx.data.structure()
    lsplit = lie_deligne_split(lie_algebra(fx.data.q), st)
    for (p, q) in lsplit.pieces:
        for (r, s) in lsplit.pieces:
            target = lsplit.piece(p + r, q + s)
            for x in lsplit.slot_matrices(p, q):
                for y in lsplit.slot_matrices(r, s):
                    bracket = commutator(x, y)
                    assert target.contains_vector([e for row in bracket.rows for e in row])

    code, out, _ = run(capsys, "check", DATA / "elliptic.json", "--suite", "bracket")
    assert code == 0
    assert "pass  bracket.bracket-compatibility" in out


# -- probe ---------------------------------------------------------------------------


def test_probe_all_on_the_varying_fixture(capsys):
    code, out, _ = run(capsys, "probe", DATA / "varying.json")
    assert code == 0
    for tag in ("radial:", "term (1,):", "levi:", "finf:"):
        assert tag in out
    assert "passed False" not in out
    assert "psh True" in out


def test_probe_single_suite(capsys):
    code, out, _ = run(capsys, "probe", DATA / "elliptic.json",
                       "--suite", "radial")
    assert code == 0
    assert out.startswith("radial:")
    assert "levi" not in out


def test_probe_levi_skips_point_strata(capsys):
    code, out, _ = run(capsys, "probe", DATA / "a1.json", "--suite", "levi")
    assert code == 0
    assert "skipped — the deepest stratum is a point" in out


def test_probe_needs_a_cone(tmp_path, capsys):
    doc = elliptic_doc()
    doc["cone"] = []
    doc["n_coords"] = 2
    doc["zeta"] = {}
    doc.pop("markers")
    path = tmp_path / "coneless.json"
    path.write_text(dump_document(doc))
    code, _, err = run(capsys, "probe", path)
    assert code == 2
    assert FIELD_PATH.match(err), err
    assert err == "error: cone: probe needs a fixture with a nonempty cone\n"


# -- reports and exit codes ------------------------------------------------------------


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(capsys, "diamond", DATA / "a1.json", "--report", r1)[0] == 0
    assert run(capsys, "diamond", DATA / "a1.json", "--report", r2)[0] == 0
    assert r1.read_bytes() == r2.read_bytes()
    payload = json.loads(r1.read_text())
    assert payload["version"] == "hodge-report/1"
    assert payload["exit"] == 0
    assert payload["body"]["m"] == 4


def test_check_report_embeds_every_check(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "check", DATA / "elliptic.json",
                     "--suite", "symmetries", "--report", out_path)
    assert code == 0
    payload = json.loads(out_path.read_text())
    names = [c["name"] for c in payload["body"]["checks"]]
    assert names == sorted(names, key=names.index)  # stable, as emitted
    assert all(c["ok"] for c in payload["body"]["checks"])


def test_missing_file_is_a_parse_error(capsys):
    code, _, err = run(capsys, "diamond", "/nonexistent/f.json")
    assert code == 2
    assert "cannot read" in err


def test_a_file_that_is_not_utf8_is_refused_naming_its_path(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"version": "hodge-fixture/1", "dim": "\xff"}')
    code, _, err = run(capsys, "diamond", path)
    assert code == 2
    assert err.startswith(f"error: {path}: cannot read: 'utf-8' codec can't decode byte 0xff")


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"version": "hodge-fixture/1", "dim": 2\n')
    code, _, err = run(capsys, "diamond", path)
    assert code == 2
    assert "line 2" in err


def test_markers_exit_2_when_undefined(capsys):
    # markers, eval and probe all read the markers, which F's top level defines
    for argv in (["markers"], ["eval", "--t", "1/3"], ["probe"]):
        code, out, err = run(capsys, argv[0], DATA / "a1_input.json", *argv[1:])
        assert (code, out) == (2, "")
        assert FIELD_PATH.match(err), err
        assert err == "error: f: top filtration level is not a line — normalize first\n"


# -- facts computed once --------------------------------------------------------------


def count_orbit_builds(monkeypatch):
    calls = []
    build = cli.orbit_spec

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "orbit_spec", counting)
    return calls


def test_check_builds_the_orbit_spec_once(monkeypatch, capsys):
    calls = count_orbit_builds(monkeypatch)
    code, _, _ = run(capsys, "check", DATA / "elliptic.json")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["a1", "elliptic", "hermitian", "pair", "varying"])
def test_check_finds_the_markers_once(name, monkeypatch, capsys):
    from hodgenorm import induced, orbit
    calls = []
    find = induced.locate_markers

    def counting(data):
        calls.append(data)
        return find(data)

    for module in (cli, induced, orbit):
        if getattr(module, "locate_markers", None) is find:
            monkeypatch.setattr(module, "locate_markers", counting)
    code, _, _ = run(capsys, "check", DATA / f"{name}.json")
    assert code == 0
    assert len(calls) == 1  # the loader's and orbit_spec's read share one search


def count_mhs_calls(monkeypatch, *names):
    """Count calls of the named mhs functions through every module binding them."""
    from hodgenorm import induced, lie, mhs, orbit, probe
    counts = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(mhs, name)

        def counting(*args, _name=name, _orig=orig, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for module in (cli, fixtures, induced, lie, mhs, orbit, probe):
            if getattr(module, name, None) is orig:
                monkeypatch.setattr(module, name, counting)
    return counts


@pytest.mark.parametrize("name", ["varying", "hermitian"])
def test_check_splits_and_polarizes_the_structure_once(name, monkeypatch, capsys):
    counts = count_mhs_calls(monkeypatch, "deligne_split", "polarization_check")
    counts["f_isotropy"] = 0
    isotropy = _Filtration.isotropy

    def counting(filt, *args):
        counts["f_isotropy"] += isinstance(filt, DecreasingFiltration)
        return isotropy(filt, *args)

    monkeypatch.setattr(_Filtration, "isotropy", counting)
    code, _, _ = run(capsys, "check", DATA / f"{name}.json")
    assert code == 0
    assert counts == {"deligne_split": 1, "polarization_check": 1, "f_isotropy": 1}


def test_failed_orbit_build_is_reported_by_every_suite(tmp_path, monkeypatch, capsys):
    doc = elliptic_doc()
    doc["zeta"]["0"][0]["matrix"] = [["1", "0"], ["0", "0"]]  # not an isometry of Q
    path = tmp_path / "bad-twist.json"
    path.write_text(dump_document(doc))
    calls = count_orbit_builds(monkeypatch)
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    failed = [line.split("  ", 2) for line in out.splitlines() if line.startswith("FAIL")]
    assert [name for _, name, _ in failed] == [
        "monodromy.orbit-data", "limits.orbit-data", "levels.orbit-data", "psh.levi"]
    assert {detail for _, _, detail in failed} == {
        "zeta['0']: f_[0] at exponent (0, 1) is not an infinitesimal isometry of the pairing"}
    assert len(calls) == 4  # a failed build is not cached


def _divides_by_zero(spec):
    return 1 / 0


def _raises_without_a_field(spec):
    raise ValueError("no field")


@pytest.mark.parametrize("defect, error", [(_divides_by_zero, ZeroDivisionError),
                                           (_raises_without_a_field, ValueError)],
                         ids=["zero-division", "value-error"])
def test_a_seeded_code_defect_in_a_suite_raises_out_of_main(defect, error, monkeypatch, capsys):
    # only a FixtureError is a refusal: any other exception inside a suite is
    # a defect, not a failed invariant or an exit 2
    monkeypatch.setattr(cli, "generator_level_check", defect)
    with pytest.raises(error):
        main(["check", str(DATA / "elliptic.json"), "--suite", "levels"])
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("name, builds", [
    ("elliptic", 1), ("varying", 1), ("hermitian", 1), ("a1", 1), ("pair", 3)])
def test_isotropy_builds_one_weight_filtration_per_distinct_cone_element(name, builds,
                                                                        monkeypatch):
    fixture = load_fixture(DATA / f"{name}.json")
    calls, build = [], cli.weight_filtration

    def counting(*args, **kwargs):
        calls.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "weight_filtration", counting)
    checks = cli.suite_isotropy(fixture, None)
    assert all(c.ok for c in checks)
    assert len(calls) == len(set(calls)) == builds


def test_isotropy_witness_names_the_largest_partner_level(tmp_path, capsys):
    # Q(e1, e1) = 1, so W_0 = <e1> pairs with both W_0 and W_1 although
    # 0 + 0 and 0 + 1 are below 2n = 4; the witness names the larger level.
    doc = json.loads((DATA / "pair.json").read_text())
    doc.pop("markers")
    unit = [["1" if j == i else "0" for j in range(6)] for i in range(6)]
    doc["w"] = {"0": unit[:1], "1": unit[1:2], "4": unit}
    path = tmp_path / "isotropic-failure.json"
    path.write_text(dump_document(doc))
    code, out, _ = run(capsys, "check", path, "--suite", "isotropy")
    assert code == 1
    assert ("FAIL  isotropy.common-filtration  pairing survives at levels (0, 1)"
            in out.splitlines())


# -- mutation fuzz at the input boundary -----------------------------------------------


def _paths(node, path=()):
    """Every path into a JSON document, the root () first."""
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


FUZZ_DOCS = {name: json.loads((DATA / name).read_text()) for name in ("elliptic.json", "pair.json")}
FUZZ_SITES = [(name, path) for name, doc in FUZZ_DOCS.items() for path in _paths(doc)]
# a bool, null, string, nested list, rationals beyond either end of the float
# range, and one beyond the bit cap
FUZZ_VALUES = [True, None, "x", [["1"]], "1e400", "1e-400", "1e40000"]
# elliptic's pairing scaled by 10^40000, which keeps it antisymmetric
HUGE_Q = [["0", "1e40000"], ["-1e40000", "0"]]
# json.dumps cannot write an int of more than 4300 digits, so a document
# carries this marker where the bare integer 10^5000 is written in its place
HUGE_INT = "<the bare JSON integer 10^5000>"
# input text that an exit-2 message must not echo in full
LONG_DECIMAL = "1." + "0" * 5001
LONG_KEY = "1" + "0" * 5000
FIELD_PATH = re.compile(r"error: [\w$]+(\[[^\]]*\]|\.\w+)*: ")


def _mutated(doc, path, kind, value):
    """A copy of doc with the node at path swapped for value, dropped, given
    one more (unknown) entry, or with its sign flipped."""
    box = [copy.deepcopy(doc)]
    *above, key = (0,) + path
    parent = box
    for step in above:
        parent = parent[step]
    node = parent[key]
    if kind == "swap":
        parent[key] = value
    elif kind == "drop":
        del parent[key]
    elif kind == "add" and isinstance(node, dict):
        node["unknown"] = value
    elif kind == "add" and isinstance(node, list):
        node.append(value)
    elif kind == "flip" and isinstance(node, str):
        parent[key] = node[1:] if node.startswith("-") else "-" + node
    elif kind == "flip" and cli._is_int(node):
        parent[key] = -node
    return box[0] if box else {}


@settings(max_examples=60, deadline=None, derandomize=True)
@example(site=("elliptic.json", ("q",)), kind="swap", value=HUGE_Q, command="check")
@example(site=("elliptic.json", ("q",)), kind="swap", value=HUGE_Q, command="diamond")
@example(site=("elliptic.json", ("q",)), kind="swap", value=HUGE_Q, command="lie")
@example(site=("elliptic.json", ("q", 0, 1)), kind="swap", value="1e40000", command="markers")
@example(site=("elliptic.json", ("markers", "lam")), kind="swap", value="1e40000",
         command="check")
@example(site=("pair.json", ("markers", "lam")), kind="swap", value="-1e40000",
         command="diamond")
@example(site=("elliptic.json", ("weight",)), kind="swap", value=HUGE_INT, command="diamond")
@example(site=("elliptic.json", ("q", 0, 1)), kind="swap", value=HUGE_INT, command="check")
@example(site=("elliptic.json", ("q", 0, 1)), kind="swap", value=LONG_DECIMAL, command="diamond")
@example(site=("elliptic.json", ("f",)), kind="swap", value={LONG_KEY: []}, command="diamond")
@example(site=("elliptic.json", ("w",)), kind="swap", value={LONG_KEY: []}, command="diamond")
@example(site=("elliptic.json", ("zeta",)), kind="swap", value={LONG_KEY: []}, command="diamond")
@example(site=("elliptic.json", ("zeta", "0", 0, "powers")), kind="swap", value=[0, 100000],
         command="check")
# every command that takes no option; eval is left out, since its --t count
# follows the mutated n_coords and FIELD_PATH matches no option name
@given(site=st.sampled_from(FUZZ_SITES),
       kind=st.sampled_from(["swap", "drop", "add", "flip"]),
       value=st.sampled_from(FUZZ_VALUES),
       command=st.sampled_from(["diamond", "check", "markers", "lie", "split", "probe",
                                "induce"]))
def test_mutated_fixtures_exit_cleanly_and_name_the_field(site, kind, value, command,
                                                          tmp_path_factory):
    name, path = site
    target = tmp_path_factory.mktemp("fuzz") / name
    text = json.dumps(_mutated(FUZZ_DOCS[name], path, kind, value))
    target.write_text(text.replace(json.dumps(HUGE_INT), "1" + "0" * 5000))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(target)])
    assert code in (0, 1, 2)
    if code == 2:
        assert FIELD_PATH.match(err.getvalue()), err.getvalue()
        assert len(err.getvalue()) < 500, err.getvalue()[:200]


def test_twist_exponents_are_capped_at_parse_time(tmp_path, capsys):
    doc = elliptic_doc()
    refused = "error: zeta['0'][0].powers: an exponent exceeds 64\n"
    for exponent, code, err in ((64, 0, ""), (65, 2, refused), (100000, 2, refused)):
        doc["zeta"]["0"][0]["powers"] = [0, exponent]
        path = tmp_path / f"power-{exponent}.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "check", path, "--suite", "monodromy")[0::2] == (code, err)


def _respelled(doc, field, key, value):
    doc[field][key] = value
    return doc


def _twin_term(doc):
    terms = doc["zeta"]["0"]
    terms.append(copy.deepcopy(terms[0]))
    return doc


VARYING_EVAL = ("eval", "--t", "1/3", "1/4", "--ell", "1/7,1/5")
# a key spelled twice, or two twist terms with equal powers, once let the
# later entry overwrite the earlier: with "00" beside "0" this eval printed
# h = 809/810 instead of 1213/1620 and exited 0
RESPELLINGS = [
    ("varying", lambda d: _respelled(d, "zeta", "00", []), VARYING_EVAL,
     "zeta['00']: a second spelling of the index set [0]"),
    ("varying", _twin_term, VARYING_EVAL, "zeta['0'][2].powers: a second term with powers [0, 0]"),
    ("elliptic", lambda d: _respelled(d, "f", "01", []), ("check",),
     "f.01: a second spelling of level 1"),
    ("varying", lambda d: _respelled(d, "w", "03", []), ("diamond",),
     "w.03: a second spelling of level 3"),
]


@pytest.mark.parametrize("name, respell, argv, err", RESPELLINGS,
                         ids=["zeta key", "twist powers", "f level", "w level"])
def test_a_second_spelling_of_a_key_is_refused(name, respell, argv, err, tmp_path, capsys):
    doc = json.loads((DATA / f"{name}.json").read_text())
    assert run(capsys, argv[0], DATA / f"{name}.json", *argv[1:])[0] == 0
    path = tmp_path / "respelled.json"
    path.write_text(json.dumps(respell(doc)))
    assert run(capsys, argv[0], path, *argv[1:])[0::2] == (2, f"error: {err}\n")


# -- resource and float-range preconditions -----------------------------------------


def _scaled_pairing_doc(exponent):
    """The elliptic fixture with its pairing scaled by 10^exponent."""
    doc = elliptic_doc()
    doc.pop("markers")  # lam scales with the pairing
    scale = {"1": f"1e{exponent}", "-1": f"-1e{exponent}"}
    doc["q"] = [[scale.get(x, x) for x in row] for row in doc["q"]]
    return doc


FLOAT_COMMANDS = [("check",), ("check", "--suite", "limits"), ("probe",),
                  ("eval", "--t", "1/20", "1/30")]
EXACT_COMMANDS = [("diamond",), ("split",), ("markers",), ("lie",), ("induce",),
                  ("check", "--suite", "bracket"),
                  ("eval", "--t", "1/3", "1/4", "--ell", "1/7,1/5")]


@pytest.mark.parametrize("argv", FLOAT_COMMANDS, ids=" ".join)
def test_float_range_is_checked_before_float_work(argv, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_scaled_pairing_doc(400)))
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 2
    assert out == ""
    assert err == "error: q[0][1]: entry is too large for a double-precision float\n"


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=" ".join)
def test_exact_commands_accept_entries_beyond_the_float_range(argv, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_scaled_pairing_doc(400)))
    code, _, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 0, err


def test_float_eval_names_a_coordinate_beyond_the_float_range(capsys):
    code, _, err = run(capsys, "eval", DATA / "elliptic.json", "--t", "1/20", "1e400")
    assert code == 2
    assert err == "error: --t[1]: entry is too large for a double-precision float\n"


# q scaled by 10^-400 becomes 0.0 as a double; scaled by 10^-310 it fits (as
# subnormals), but lam, the inverse of the marker pairing, does not.
SMALL_PAIRINGS = [(-400, "q[0][1]: entry is too small for a double-precision float"),
                  (-310, "markers.lam: entry is too large for a double-precision float")]


@pytest.mark.parametrize("exponent, message", SMALL_PAIRINGS, ids=["q", "markers.lam"])
@pytest.mark.parametrize("argv", FLOAT_COMMANDS, ids=" ".join)
def test_float_range_covers_underflow_and_the_markers(argv, exponent, message, tmp_path, capsys):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(_scaled_pairing_doc(exponent)))
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("exponent", [e for e, _ in SMALL_PAIRINGS])
@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=" ".join)
def test_exact_commands_accept_entries_below_the_float_range(argv, exponent, tmp_path, capsys):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(_scaled_pairing_doc(exponent)))
    code, _, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 0, err


def test_float_eval_names_a_coordinate_below_the_float_range(capsys):
    code, _, err = run(capsys, "eval", DATA / "elliptic.json", "--t", "1e-400", "1/30")
    assert code == 2
    assert err == "error: --t[0]: entry is too small for a double-precision float\n"


def _weight_three_doc():
    """Dim 12, weight 3, Hodge numbers (1, 5, 5, 1), no cone.

    With x_j = e_2j, y_j = e_2j+1 and Q(x_j, y_j) = 1, F^3 is spanned by
    x_0 - i y_0 and I^{2,1} by x_j + i y_j, j = 1..5.  The induced H is
    Λ^1 V ⊗ Λ^6 V, of dimension 12 * C(12, 6) = 11,088.
    """
    dim = 12
    q = [["0"] * dim for _ in range(dim)]
    for j in range(0, dim, 2):
        q[j][j + 1], q[j + 1][j] = "1", "-1"

    def vector(j, sign):
        v = [["0", "0"] for _ in range(dim)]
        v[2 * j], v[2 * j + 1] = ["1", "0"], ["0", sign]
        return v

    f = {"3": [vector(0, "-1")], "2": [vector(j, "1") for j in range(1, 6)],
         "1": [vector(j, "-1") for j in range(1, 6)], "0": [vector(0, "1")]}
    return {"version": cli.FIXTURE_TAG, "dim": dim, "weight": 3, "q": q, "f": f, "cone": []}


def test_induce_refuses_an_oversized_structure_before_building_it(tmp_path):
    path = tmp_path / "weight-three.json"
    path.write_text(json.dumps(_weight_three_doc()))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # building the structure would take hours; the refusal takes a parse
    done = subprocess.run([sys.executable, "-m", "hodgenorm.cli", "induce", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("error: f: the induced structure would have dimension 11088, "
                           "above the bound 256\n")


# -- agreement with the benchmark reference ---------------------------------------------


def _script(relative):
    """A script of the repository, loaded read-only as a module."""
    spec = importlib.util.spec_from_file_location(pathlib.Path(relative).stem, ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# perfbench/loads.py builds the benchmark's argv and fresh inputs
LOADS = _script("perfbench/loads.py")
BENCH_ARGV = dict(LOADS.cli_ops(ROOT))
with open(ROOT / "perfbench" / "reference.json", encoding="utf-8") as _handle:
    REFERENCE = json.load(_handle)


# every exact command on the small fixtures; varying and hermitian run all
# but induce, whose output there is too large to build
EXACT_OPS = ([(name, command) for name in ("elliptic", "pair", "a1_input")
              for command in ("diamond", "split", "markers", "lie", "check", "eval-exact",
                              "induce")]
             + [(name, command) for name in ("varying", "hermitian")
                for command in ("diamond", "split", "markers", "lie", "check")])


@pytest.mark.parametrize("name,command", EXACT_OPS)
def test_outputs_match_the_benchmark_reference(name, command, tmp_path, monkeypatch, capsys):
    _assert_matches_the_reference(f"{command}.{name}", tmp_path, monkeypatch, capsys)


# probe and float eval print floats, so these pin float results bit for bit;
# varying and hermitian add the larger twist tables
PROBE_AND_EVAL_OPS = ([f"{command}.{name}" for name in ("elliptic", "pair", "a1_input")
                       for command in ("probe", "eval-float")]
                      + [f"{command}.{name}" for name in ("varying", "hermitian")
                         for command in ("probe", "eval-exact", "eval-float")])


@pytest.mark.parametrize("op_id", PROBE_AND_EVAL_OPS)
def test_probe_and_eval_outputs_match_the_benchmark_reference(op_id, tmp_path, monkeypatch,
                                                             capsys):
    _assert_matches_the_reference(op_id, tmp_path, monkeypatch, capsys)


# a1.json has no benchmark reference entry: these are its exit code and the
# sha256 of its stdout and --report, recorded with the conventions below
A1_REFERENCE = {
    "check": {"exit": 0,
              "stdout": "f7412093e8d534508d2845d09724f60853e18d2bbdd81c15bbefa756e8d8334d",
              "report": "9aebb0146d80edaf4066320d1b03da96ccbec628978ec78b17064d38d48e9f9e"},
    "lie": {"exit": 0,
            "stdout": "ae0d3eddc0409faa197d2f73b2b58cf401c2a97beb3e957b8cc9d2d817e9b027",
            "report": "ae0a08d8d10385625a3fd221c912917b9b4e8cacb2335b202555f9b59581663f"},
    "probe": {"exit": 0,
              "stdout": "aed0d63dfedf7efee59c7559cffa902f4af2ef04eff3a13c2ba4e961cc5de19c",
              "report": "33d66886a07e7d611bedced305b0e8740265dc26a783ba0c8322c5e2bcf3d0fe"},
}


@pytest.mark.parametrize("command", sorted(A1_REFERENCE))
def test_a1_outputs_match_their_pinned_digests(command, tmp_path, monkeypatch, capsys):
    argv = [command, LOADS.fixture_path("a1")]
    assert _digests(argv, tmp_path, monkeypatch, capsys) == A1_REFERENCE[command]


# tol is the one sweep value a probe run sets; the benchmark runs only the
# default, so these pin a non-default tol through the reports, recorded
# like A1_REFERENCE
TOL_REFERENCE = {
    "probe varying --tol 1e-9": {
        "exit": 0,
        "stdout": "3b0d23da00568787ac5210a3e6c1244381fdc5170c4c5c5d6be95a7fdaf5d5c1",
        "report": "16879474e4f07bba99a694654dc4f06f4365f67e691c81cf8b7129bf1cb6e4ce"},
    "check hermitian --suite limits --tol 1e-3": {
        "exit": 0,
        "stdout": "ef52753f359369baabaaa77fee836db8fb803a72d7a4ab2d720de6698995c28c",
        "report": "54f617b53fea3d4dc6bc0b9c487229aed46e5f5f1893b7933d175d715df70684"},
}


@pytest.mark.parametrize("run_id", sorted(TOL_REFERENCE))
def test_a_set_tol_matches_its_pinned_digests(run_id, tmp_path, monkeypatch, capsys):
    command, name, *options = run_id.split()
    argv = [command, LOADS.fixture_path(name), *options]
    assert _digests(argv, tmp_path, monkeypatch, capsys) == TOL_REFERENCE[run_id]


def _assert_matches_the_reference(op_id, tmp_path, monkeypatch, capsys):
    got = _digests(BENCH_ARGV[op_id], tmp_path, monkeypatch, capsys)
    assert got == REFERENCE["cli"][op_id]


def _digests(argv, tmp_path, monkeypatch, capsys):
    """Exit code and sha256 of stdout and --report of one in-process run."""
    monkeypatch.chdir(ROOT)  # the report embeds the fixture path as given
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, *argv, "--report", report)
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.encode("utf-8")).hexdigest(),
        "report": hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None,
    }


@pytest.mark.parametrize("family", LOADS.FRESH_FAMILIES)
def test_a_moved_dense_family_matches_the_benchmark_reference(family):
    # the benchmark's fixed dense basis change for this family, without the
    # random signed permutation it adds per pass
    v, g = LOADS.fresh_setup()[family]
    facts = LOADS.structure_facts(LOADS.moved(v, g))
    assert facts == REFERENCE["fresh"][family]


def test_one_sweep_pass_of_the_benchmark_runs_clean(monkeypatch):
    monkeypatch.chdir(ROOT)  # the benchmark loads its fixtures by relative path
    ops = LOADS.sweep_ops(random.Random(22), LOADS.sweep_setup())
    assert [(label, reason) for _, label, _, run_op in ops
            if (reason := run_op()) is not None] == []


# -- shipped files and their builders ----------------------------------------------------


def test_shipped_fixtures_are_what_their_builders_make():
    docs = _script("tools/build_fixtures.py").documents()
    assert sorted(docs) == SHIPPED
    for name, doc in docs.items():
        assert dump_document(doc) == (DATA / name).read_text(), name


# -- the bracket suite's action check ------------------------------------------------------


def action_by_images(fixture):
    """bracket.action-compatibility in its first formulation, kept as the
    reference: every layer element applied to every splitting piece, each
    image tested for membership in its target piece, and the last failure
    named."""
    data = fixture.data
    split = data.split()
    layers = cli.lie_deligne_split(lie_algebra(data.q), data.structure())
    ok, detail = True, "g^{p,q} I^{r,s} <= I^{r+p, s+q}"
    for (p, q) in sorted(layers.pieces):
        for x in layers.slot_matrices(p, q):
            for (r, s), sub in sorted(split.pieces.items()):
                target = split.pieces.get((r + p, s + q))
                image = sub.apply(x)
                if not (target.contains(image) if target is not None else image.dim == 0):
                    ok, detail = False, f"g^({p},{q}) breaks out of I^({r + p},{s + q})"
    return ok, detail


def action_in_frame(fixture):
    """The suite's own bracket.action-compatibility verdict and detail."""
    (check,) = [c for c in cli.suite_bracket(fixture, None)
                if c.name == "bracket.action-compatibility"]
    return check.ok, check.detail


def _carried(data):
    return Fixture(data=data, zeta={}, n_coords=len(data.cone), expectations={})


def family_fixtures():
    """The fixture families, as built and written in a dense basis."""
    plain = [fixtures.weight_one(a) for a in range(4)]
    plain += [fixtures.weight_two(k) for k in range(6)]
    plain += [fixtures.weight_one(2, split_cone=True), fixtures.curve_pair()]
    moved = [LOADS.moved(v, fixtures.random_unimodular(random.Random(f"moved:{j}"), v.dim))
             for j, v in enumerate((fixtures.weight_one(1), fixtures.weight_two(1),
                                    fixtures.curve_pair()))]
    return [_carried(v) for v in plain + moved]


# the fields a structure is built from; mutations elsewhere (cone, zeta,
# markers) leave q, F and W as they were
STRUCTURE_FIELDS = {"dim", "weight", "q", "f", "w"}


def structure_mutations():
    """Each distinct structure the loader accepts among the fuzz mutations
    of elliptic and pair at a structure field.

    The documents are mutated without their twists and marker expectations,
    which only refuse more: every structure a full document loads is here.
    """
    bare = {name: {key: node for key, node in doc.items() if key not in ("zeta", "markers")}
            for name, doc in FUZZ_DOCS.items()}
    # only a swap reads the value; "-0" is 0, so a flipped zero is no mutation
    mutations = [("drop", None), ("add", None), ("flip", None)]
    mutations += [("swap", value) for value in FUZZ_VALUES]
    docs = {json.dumps(doc).replace('"-0"', '"0"'): doc
            for name, path in FUZZ_SITES if path[:1] and path[0] in STRUCTURE_FIELDS
            for kind, value in mutations
            for doc in [_mutated(bare[name], path, kind, value)]}
    kept = {}
    for doc in docs.values():
        try:
            data = parse_fixture(doc).data
        except (ValueError, ArithmeticError):
            continue
        key = json.dumps([cli._show_matrix(data.q), cli._show_levels(data.f),
                          cli._show_levels(data.w), data.weight])
        kept.setdefault(key, _carried(data))
    return list(kept.values())


def _outcome(check, fixture):
    try:
        return check(fixture)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def test_action_check_agrees_with_the_images_reference(monkeypatch):
    cut_outs = []
    cut_out = lie._cut_out_layers
    monkeypatch.setattr(lie, "_cut_out_layers", lambda *a: cut_outs.append(a) or cut_out(*a))
    shipped = [load_fixture(DATA / name) for name in SHIPPED]
    routes = {}
    for group, cases in (("shipped", shipped), ("families", family_fixtures()),
                         ("mutations", structure_mutations())):
        routes[group] = 0
        for j, fx in enumerate(cases):
            before = len(cut_outs)
            assert _outcome(action_in_frame, fx) == _outcome(action_by_images, fx), (group, j)
            routes[group] += len(cut_outs) > before
    # 26 of the mutations of the full documents take the cut-out route
    assert routes["mutations"] >= 26


ROTATED = {"hermitian": "g^(3,1) breaks out of I^(4,1)",
           "varying": "g^(3,0) breaks out of I^(4,2)",
           "pair": "g^(1,1) breaks out of I^(2,2)",
           "elliptic": "g^(1,1) breaks out of I^(2,2)"}


@pytest.mark.parametrize("name", sorted(ROTATED))
def test_action_check_names_the_last_leak_under_rotated_layer_labels(name, monkeypatch):
    layers_of = cli.lie_deligne_split

    def rotated(algebra, structure):
        # each layer under the label of the next one, the last under the first
        layers = layers_of(algebra, structure)
        labels = list(layers.layers)
        return LieSplit(layers.frame, layers.local,
                        dict(zip(labels[1:] + labels[:1], layers.layers.values())))

    monkeypatch.setattr(cli, "lie_deligne_split", rotated)
    fx = load_fixture(DATA / f"{name}.json")
    assert action_in_frame(fx) == (False, ROTATED[name])
    assert action_by_images(fx) == (False, ROTATED[name])


def bracket_failures(fixture):
    return {c.name: c.detail for c in cli.suite_bracket(fixture, None)
            if not c.ok and c.name in ("bracket.layer-sum", "bracket.action-compatibility")}


def from_cols(cols):
    """The matrix with the given columns."""
    return Mat(cols).transpose()


def _swapped_first_grade(a, a_inv, grades):
    return a, a_inv, (grades[0][::-1],) + grades[1:]


def _first_column_moved(a, a_inv, grades):
    # column 0 plus the first column of another piece
    k = next(k for k, pq in enumerate(grades) if pq != grades[0])
    cols = [list(a.col(j)) for j in range(a.ncols)]
    cols[0] = [x + y for x, y in zip(cols[0], cols[k])]
    return from_cols(cols), a_inv, grades


# a frame defect in the splitting leaves closed-form elements of no single
# shift, so the cut-out layers no longer fill g
SEEDED_FRAMES = {"hermitian": "layer dims 174 fill the algebra dim 210",
                 "varying": "layer dims 79 fill the algebra dim 105"}
# the same wrong grade after the layers are bucketed names a leak
LEAKS = {"hermitian": "g^(3,1) breaks out of I^(4,1)",
         "varying": "g^(3,0) breaks out of I^(6,0)"}


@pytest.mark.parametrize("name", sorted(SEEDED_FRAMES))
def test_the_bracket_suite_refuses_a_seeded_frame_defect(name, monkeypatch):
    assert bracket_failures(load_fixture(DATA / f"{name}.json")) == {}
    for tamper in (_swapped_first_grade, _first_column_moved):
        fx = load_fixture(DATA / f"{name}.json")
        split = fx.data.split()
        split.frame = tamper(*split.frame)
        assert bracket_failures(fx) == {"bracket.layer-sum": SEEDED_FRAMES[name]}, tamper
    layers_of = cli.lie_deligne_split

    def regraded(algebra, structure):
        layers = layers_of(algebra, structure)
        return LieSplit(_swapped_first_grade(*layers.frame), layers.local, layers.layers)

    monkeypatch.setattr(cli, "lie_deligne_split", regraded)
    assert bracket_failures(load_fixture(DATA / f"{name}.json")) == {
        "bracket.action-compatibility": LEAKS[name]}


@pytest.mark.parametrize("name", sorted(SEEDED_FRAMES))
def test_layer_sum_reads_the_frame_after_bucketing(name, monkeypatch):
    # the same moved column as above, but after the layers are bucketed, with
    # A^{-1} left stale: every bucket still counts, so only A A^{-1} = I tells
    layers_of = cli.lie_deligne_split

    def moved(algebra, structure):
        layers = layers_of(algebra, structure)
        return LieSplit(_first_column_moved(*layers.frame), layers.local, layers.layers)

    monkeypatch.setattr(cli, "lie_deligne_split", moved)
    checks = {c.name: c for c in cli.suite_bracket(load_fixture(DATA / f"{name}.json"), None)}
    failed = sorted(n for n, c in checks.items() if not c.ok)
    assert failed == ["bracket.bracket-compatibility", "bracket.layer-sum"]
    assert checks["bracket.layer-sum"].detail == "A A^{-1} is not I in the splitting frame"


# The bracket suite's two self-checks against seeded defects of the layers.
# Each split is tampered after bucketing: its local pairing Q' = A^T Q A, its
# inverse, or where a seed is filed.


def _cell(n, k, l):
    """The n x n matrix with a single 1 at (k, l)."""
    return Mat([[int((r, c) == (k, l)) for c in range(n)] for r in range(n)])


def _wrong_inverse_cell(split):
    local = lie.LieAlgebraBasis(split.local.q, split.local.eps)
    n = local.ambient
    wrong = local.q.inverse() + _cell(n, 0, n - 1)
    local.__dict__["columns"] = wrong.transpose().int_form()
    return LieSplit(split.frame, local, split.layers)


def _unsymmetric_pairing(split):
    n = split.local.ambient
    local = lie.LieAlgebraBasis(split.local.q + _cell(n, 0, n - 1), split.local.eps)
    # its inverse is its own: only the symmetry of Q' is wrong
    assert local.q * Mat._of_ints(local.columns, n).transpose() == Mat.identity(n)
    return LieSplit(split.frame, local, split.layers)


def _misfiled_seed(split):
    layers = dict(split.layers)
    first, second = list(layers)[:2]
    layers[second] += layers[first][:1]
    layers[first] = layers[first][1:]
    return LieSplit(split.frame, split.local, layers)


SEEDED_SPLITS = {"wrong inverse cell": (_wrong_inverse_cell, "bracket.isometry-algebra"),
                 "unsymmetric pairing": (_unsymmetric_pairing, "bracket.isometry-algebra"),
                 "misfiled seed": (_misfiled_seed, "bracket.action-compatibility")}
SELF_CHECKS = ("bracket.isometry-algebra", "bracket.action-compatibility")


def self_check_failures(fixture):
    return {c.name for c in cli.suite_bracket(fixture, None) if not c.ok and c.name in SELF_CHECKS}


# weight_one(0) has no g^{-1,-1}, so no built element stands in for the
# certificate on Q' and Q'^{-1} there
SPLIT_CASES = {name: lambda name=name: load_fixture(DATA / f"{name}.json")
               for name in ("a1", "hermitian", "pair", "varying")}
SPLIT_CASES["weight_one(0)"] = lambda: _carried(fixtures.weight_one(0))


@pytest.mark.parametrize("defect", sorted(SEEDED_SPLITS))
@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_a_seeded_split_defect_fails_a_bracket_self_check(case, defect, monkeypatch):
    assert self_check_failures(SPLIT_CASES[case]()) == set()
    tamper, check = SEEDED_SPLITS[defect]
    layers_of = cli.lie_deligne_split
    monkeypatch.setattr(cli, "lie_deligne_split",
                        lambda algebra, structure: tamper(layers_of(algebra, structure)))
    assert self_check_failures(SPLIT_CASES[case]()) == {check}


@pytest.mark.parametrize("name", SHIPPED)
def test_a_seed_built_with_a_misplaced_column_fails_the_isometry_check(name, monkeypatch):
    # every column moved one place on: the certificate on Q' and Q'^{-1}
    # still holds, and only the built g^{-1,-1} elements show the defect
    element = lie.LieAlgebraBasis.element

    def misplaced(self, seed):
        n = self.ambient
        return element(self, seed) * Mat([[int(c == (r + 1) % n) for c in range(n)]
                                          for r in range(n)])

    monkeypatch.setattr(lie.LieAlgebraBasis, "element", misplaced)
    assert self_check_failures(load_fixture(DATA / name)) == {"bracket.isometry-algebra"}


# a 1-dimensional weight-0 input: its symmetry algebra has no seed, and q = [[1]]
EMPTY_ALGEBRA_DOC = {"version": cli.FIXTURE_TAG, "dim": 1, "weight": 0, "q": [["1"]],
                     "f": {"0": [["1"]]}, "w": {"0": [["1"]]}, "cone": [], "n_coords": 0,
                     "zeta": {}}
EMPTY_ALGEBRA = {
    "lie": """\
symmetry algebra dimension 0
bigraded layer dimensions
hermitian: True — all layers lie in the unit box
smooth: True — the F-transverse part sits in nonpositive total degree
""",
    "check": """\
pass  symmetries.pairing-symmetry  Q^T = (1)Q
pass  symmetries.pairing-nondegenerate  det Q != 0
pass  symmetries.filtration-orthogonality  Q(F^a, F^b) = 0 for a+b > n
pass  symmetries.conjugate-dimensions  dim I^{p,q} = dim I^{q,p}
pass  symmetries.direct-sum  1 piece dims fill dimension 1
skip  isotropy.weight-filtrations  fixture has no cone
pass  bracket.isometry-algebra  x^T Q + Q x = 0 on the basis; bracket closure follows
pass  bracket.layer-sum  layer dims 0 fill the algebra dim 0
pass  bracket.action-compatibility  g^{p,q} I^{r,s} <= I^{r+p, s+q}
pass  bracket.bracket-compatibility  [g^{p,q}, g^{r,s}] <= g^{p+r,q+s}, entailed by the three checks above
skip  bracket.cone-containment  fixture has no cone
skip  monodromy.branch-shifts  fixture has no cone
skip  limits.radial  fixture has no cone
skip  levels.generators  fixture has no cone
skip  psh.levi  fixture has no cone
9 checks: 9 passed, 0 failed, 6 skipped
""",
    "diamond": """\
diamond of a 1-dimensional weight-0 structure
  (0, 0): 1
m = 0
""",
}


@pytest.mark.parametrize("command", sorted(EMPTY_ALGEBRA))
def test_an_input_with_an_empty_symmetry_algebra_runs_clean(command, tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(dump_document(EMPTY_ALGEBRA_DOC))
    assert run(capsys, command, path) == (0, EMPTY_ALGEBRA[command], "")


def test_induce_refuses_an_input_with_no_level_above_the_middle(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(dump_document(EMPTY_ALGEBRA_DOC))
    code, out, err = run(capsys, "induce", path)
    assert (code, out) == (2, "")
    assert FIELD_PATH.match(err), err
    assert err == "error: f: every filtration level above the middle is empty\n"


# -- the kind of every check ---------------------------------------------------------
#
# Every name `check` prints, with its generator or shift index stripped, has
# one kind: INPUT, a loadable input fails it, in the test named; DEFECT, only
# a seeded code defect fails it, in the test named; or LOADER, the loader
# refuses with the message given every input that would fail it, a message
# test_structure_errors_start_with_their_field asserts.  A name missing here
# fails test_every_check_name_has_a_kind.

INPUT, DEFECT, LOADER = "input", "defect", "loader"
CHECK_KINDS = {
    "symmetries.pairing-symmetry": (LOADER, "q: pairing must be (-1)^n-symmetric"),
    "symmetries.pairing-nondegenerate": (LOADER, "q: pairing is degenerate"),
    "symmetries.filtration-orthogonality":
        (INPUT, "test_cli.py::test_every_direct_sum_defect_is_reported_under_direct_sum"),
    "symmetries.conjugate-dimensions":
        (DEFECT, "test_cli.py::test_a_seeded_defect_fails_a_self_check"),
    "symmetries.direct-sum":
        (INPUT, "test_cli.py::test_a_splitting_whose_pieces_are_not_a_basis_fails_direct_sum"),
    "isotropy.interior-weight-filtration":
        (INPUT, "test_cli.py::test_check_fails_on_a_tampered_weight_filtration"),
    "isotropy.generator": (DEFECT, "test_cli.py::test_a_seeded_defect_fails_a_self_check"),
    "isotropy.common-filtration":
        (INPUT, "test_cli.py::test_isotropy_witness_names_the_largest_partner_level"),
    "isotropy.lowering": (INPUT, "test_cli.py::test_check_fails_on_a_tampered_weight_filtration"),
    "bracket.isometry-algebra":
        (DEFECT, "test_cli.py::test_a_seeded_split_defect_fails_a_bracket_self_check"),
    # loader-accepted fuzz mutations of pair fail these two there
    "bracket.layer-sum": (INPUT, "test_cli.py::test_action_check_agrees_with_the_images_reference"),
    "bracket.bracket-compatibility":
        (INPUT, "test_cli.py::test_action_check_agrees_with_the_images_reference"),
    "bracket.action-compatibility":
        (DEFECT, "test_cli.py::test_a_seeded_split_defect_fails_a_bracket_self_check"),
    "bracket.cone-containment": (
        INPUT, "test_lie.py::test_a_cone_generator_outside_the_corner_layer_fails_in_both_coordinates"),
    "bracket.applicability": (INPUT, "test_cli.py::test_check_fails_on_a_tampered_weight_filtration"),
    "monodromy.orbit-data": (INPUT, "test_cli.py::test_failed_orbit_build_is_reported_by_every_suite"),
    "monodromy.shift": (DEFECT, "test_cli.py::test_a_seeded_defect_fails_a_self_check"),
    "monodromy.unipotent-frame":
        (DEFECT, "test_cli.py::test_a_seeded_defect_fails_a_self_check"),
    "limits.orbit-data": (INPUT, "test_cli.py::test_failed_orbit_build_is_reported_by_every_suite"),
    "limits.radial":
        (INPUT, "test_cli.py::test_a_first_order_twist_fails_the_radial_limit_at_a_tight_tol"),
    "limits.term": (DEFECT, "test_cli.py::test_a_seeded_defect_fails_a_self_check"),
    "levels.orbit-data": (INPUT, "test_cli.py::test_failed_orbit_build_is_reported_by_every_suite"),
    "levels.generator": (DEFECT, "test_cli.py::test_a_seeded_defect_fails_a_self_check"),
    "psh.levi": (INPUT, "test_cli.py::test_failed_orbit_build_is_reported_by_every_suite"),
}
# names printed only on `skip` lines, for a suite that did not run: no input
# passes or fails them
SKIP_ONLY = {"isotropy.weight-filtrations", "monodromy.branch-shifts", "levels.generators"}


def _kind_name(name):
    """A check name without its generator or shift index."""
    return re.sub(r"-[-\d,]+$", "", name)


def printed_checks(capsys, path, *options):
    """(status, name without index) for every check line `check` prints."""
    _, out, _ = run(capsys, "check", path, *options)
    return {(status, _kind_name(name))
            for status, name, _ in (line.split("  ", 2) for line in out.splitlines()[:-1])}


def test_every_check_name_has_a_kind(tmp_path, capsys):
    paths = [DATA / name for name in SHIPPED]
    for name, doc in (("weight-one-0.json", fixture_document(fixtures.weight_one(0))),
                      ("point.json", EMPTY_ALGEBRA_DOC)):
        paths.append(tmp_path / name)
        paths[-1].write_text(dump_document(doc))
    printed = set().union(*(printed_checks(capsys, path) for path in paths))
    ran = {name for status, name in printed if status != "skip"}
    assert ran - CHECK_KINDS.keys() == set()
    assert {name for _, name in printed} - ran == SKIP_ONLY
    tests = {path.name: {node.name for node in ast.parse(path.read_text()).body
                         if isinstance(node, ast.FunctionDef)}
             for path in ROOT.joinpath("tests").glob("test_*.py")}
    refusals = {message for _, _, message in STRUCTURE_ERRORS}
    for check, (kind, where) in CHECK_KINDS.items():
        if kind == LOADER:
            assert where in refusals, check
        else:
            module, _, test = where.partition("::")
            assert kind in (INPUT, DEFECT) and test in tests[module], check


def test_a_first_order_twist_fails_the_radial_limit_at_a_tight_tol(tmp_path, capsys):
    # varying's t_0 f_skew term at power 0 moves h at first order in t_0, so
    # its radial deviation at r = 1e-8 is near 1e-9, where varying's own is 0
    limits = ("--suite", "limits", "--tol", "1e-10")
    assert printed_checks(capsys, DATA / "varying.json", *limits) == {
        ("pass", "limits.radial"), ("pass", "limits.term")}
    doc = json.loads((DATA / "varying.json").read_text())
    doc["zeta"][""][0]["powers"] = [0, 0]
    path = tmp_path / "first-order.json"
    path.write_text(dump_document(doc))
    assert printed_checks(capsys, path, "--suite", "limits") == {
        ("pass", "limits.radial"), ("pass", "limits.term")}
    assert printed_checks(capsys, path, *limits) == {
        ("FAIL", "limits.radial"), ("pass", "limits.term")}


def _lopsided_diamond(monkeypatch):
    diamond = mhs.DeligneSplitting.diamond

    def lopsided(self):
        dims = diamond(self)
        pq = max(key for key in dims if key[0] != key[1])
        return {**dims, pq: dims[pq] + 1}

    monkeypatch.setattr(mhs.DeligneSplitting, "diamond", lopsided)


def _off_centre_filtrations(monkeypatch):
    build = cli.weight_filtration
    monkeypatch.setattr(cli, "weight_filtration",
                        lambda x, center: build(x, center=center - 1))


def _doubled_deck_shifts(monkeypatch):
    deck = orbit.deck_transform
    monkeypatch.setattr(orbit, "deck_transform",
                        lambda spec, shifts: deck(spec, [2 * b for b in shifts]))


def _doubled_frame(monkeypatch):
    frame = orbit.interior_frame

    def doubled(kit, t, ell):
        theta, zeta, eta = frame(kit, t, ell)
        return theta, zeta, eta + eta

    monkeypatch.setattr(orbit, "interior_frame", doubled)


def _raised_marker_levels(monkeypatch):
    level = orbit.level
    monkeypatch.setattr(orbit, "level", lambda v, w: level(v, w) + 1)


def _unweighted_cross_term(monkeypatch):
    cross = orbit.cross_term
    monkeypatch.setattr(orbit, "cross_term",
                        lambda kit, zeta_hat, powers: cross(kit, zeta_hat, [0] * len(powers)))


SEEDED_DEFECTS = {"symmetries.conjugate-dimensions": _lopsided_diamond,
                  "isotropy.generator": _off_centre_filtrations,
                  "monodromy.shift": _doubled_deck_shifts,
                  "monodromy.unipotent-frame": _doubled_frame,
                  "levels.generator": _raised_marker_levels,
                  "limits.term": _unweighted_cross_term}


@pytest.mark.parametrize("check", sorted(SEEDED_DEFECTS))
def test_a_seeded_defect_fails_a_self_check(check, monkeypatch, capsys):
    suite = ("--suite", check.partition(".")[0])
    assert ("FAIL", check) not in printed_checks(capsys, DATA / "varying.json", *suite)
    SEEDED_DEFECTS[check](monkeypatch)
    assert ("FAIL", check) in printed_checks(capsys, DATA / "varying.json", *suite)
