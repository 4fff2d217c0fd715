"""Command-line front end: fixture files, check suites, and reports.

A fixture is a single JSON document carrying exact data — rationals as
"num/den" strings, Gaussian rationals as [re, im] pairs of such strings —
describing a polarized limit structure and, optionally, the twist table of
a degenerating frame over the polydisc.  Every command prints a
deterministic human-readable summary (sorted bigrades, sorted indices) and
can additionally write a machine-readable JSON report; identical inputs
produce byte-identical reports.  Exit status: 0 when every check passes,
1 when a check fails (the first failing invariant is named on stderr), 2
when the input or an option value is refused.  A refusal, here or in the
library, is a `FixtureError` whose `field` names the field or option at
fault; `main` catches that type alone, so any other exception is a defect
and surfaces as a traceback.
"""

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactlin import GaussianRational, Mat, _scaled_ints
from .filtrations import DecreasingFiltration, IncreasingFiltration, weight_filtration
from .induced import induce, induced_endomorphism, PureHodgeData, tate_normalize
from .lie import hermitian_test, lie_algebra, lie_deligne_split, smoothness_test
# deligne_split stays bound here for callers that reach it through this module
from .mhs import deligne_split  # noqa: F401
from .mhs import (check_symmetries, DirectSumError, FixtureError,
                  is_infinitesimal_isometry, NilpotentCone)
from .orbit import (
    adapted_basis,
    eval_frame,
    generator_level_check,
    monodromy_check,
    orbit_spec,
    triangularity_check,
)

# The float probe layer (and numpy with it) is imported inside the commands,
# and the branches of `eval`, that use it, so exact-only runs start without it.

FIXTURE_TAG = "hodge-fixture/1"
REPORT_TAG = "hodge-report/1"

SUITES = ("symmetries", "isotropy", "bracket", "monodromy", "limits", "levels", "psh")
FLOAT_SUITES = {"limits", "psh"}  # the suites that run float probes
PROBES = ("radial", "terms", "levi", "finf")


# -- scalar / vector / matrix codec -------------------------------------------


def _is_int(node):
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(node, int) and not isinstance(node, bool)


# The largest numerator or denominator a fixture may give, in bits.  The
# shipped fixtures need 3; 10^±400 (1329 bits) is accepted, so that the
# float-range checks name such an entry themselves.
MAX_PART_BITS = 2048
# Fraction builds 10^e in full, so a six-digit exponent is refused unbuilt.
_LONG_EXPONENT = re.compile(r"[eE][-+]?0*[1-9][0-9]{5}")
# An integer with more digits than 2^MAX_PART_BITS is over the cap.  int()
# fails past 4300 digits naming no field, so the loader keeps such a JSON
# literal as its text, and the field that holds it refuses it by name.
_LONG_INTEGER = re.compile(r"-?[1-9][0-9]{%d,}" % len(str(2 ** MAX_PART_BITS)))
_OVER_CAP = f"numerator or denominator exceeds {MAX_PART_BITS} bits"
# The largest exponent of a twist term.  The shipped fixtures need 1; the
# exact twist at a point grows with the exponent, and 10^5 runs for minutes.
MAX_TWIST_EXPONENT = 64


# Input text longer than this is echoed as its start and its length, so that
# no message grows with its input.
MAX_ECHO = 40


def _json_int(text):
    return text if _LONG_INTEGER.fullmatch(text) else int(text)


def _echoed(text):
    """repr(text) or, for text over MAX_ECHO characters, its start and length."""
    if len(text) <= MAX_ECHO:
        return repr(text)
    return f"{text[:MAX_ECHO // 2]!r}... ({len(text)} characters)"


# Most entries are zero: a "0" entry of a vector is skipped unparsed, and
# any other zero part is this one shared Fraction.
_NO_PART = Fraction(0)


def _parse_fraction(node, path):
    if node == "0" or (type(node) is int and not node):
        return _NO_PART
    if isinstance(node, str):
        value = _text_fraction(node, path)
        if value is None:
            raise FixtureError(path, f"bad rational {_echoed(node)}")
        return value
    if not _is_int(node):
        raise FixtureError(path, f"expected a rational string, got {type(node).__name__}")
    return _capped(Fraction(node), path)


def _text_fraction(text, path):
    """The rational text spells, within the bit cap, or None if it spells
    none; an exponent or integer too long to build is refused unbuilt."""
    if _LONG_EXPONENT.search(text):
        raise FixtureError(path, f"exponent out of range in {_echoed(text)}")
    if _LONG_INTEGER.fullmatch(text):
        raise FixtureError(path, _OVER_CAP)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None
    return _capped(value, path)


def _capped(value, path):
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_PART_BITS:
        raise FixtureError(path, _OVER_CAP)
    return value


def _parse_parts(node, path):
    """The real and imaginary parts of a scalar entry, one Fraction per nonzero part."""
    if isinstance(node, (int, str)):
        return _parse_fraction(node, path), _NO_PART
    if isinstance(node, list) and len(node) == 2:
        return _parse_fraction(node[0], path + "[0]"), _parse_fraction(node[1], path + "[1]")
    raise FixtureError(path, "expected 'num/den' or a [re, im] pair")


def _parse_scalar(node, path):
    return GaussianRational(*_parse_parts(node, path))


def _parse_row(node, path, dim):
    """A vector in int form: its nonzero entries as (index, re, im) int
    triples over the lcm of their denominators, and that lcm."""
    if not isinstance(node, list) or len(node) != dim:
        raise FixtureError(path, f"expected a vector of {dim} entries")
    parts = [(j, *_parse_parts(x, f"{path}[{j}]")) for j, x in enumerate(node) if x != "0"]
    return _scaled_ints([(j, re, im) for j, re, im in parts if re or im])


def _parse_matrix(node, path, dim):
    """A matrix in int form; its `GaussianRational` rows are built only if read."""
    if not isinstance(node, list) or len(node) != dim:
        raise FixtureError(path, f"expected {dim} rows")
    return Mat._of_ints([_parse_row(row, f"{path}[{i}]", dim) for i, row in enumerate(node)], dim)


def _show_scalar(x: GaussianRational):
    if not x.im:
        return str(x.re)
    return [str(x.re), str(x.im)]


def _show_vector(v):
    return [_show_scalar(x) for x in v]


def _show_matrix(m: Mat):
    return [_show_vector(row) for row in m.rows]


def _parse_levels(node, path, dim, cls):
    if not isinstance(node, dict) or not node:
        raise FixtureError(path, "expected a non-empty object of level -> spanning vectors")
    gens = {}
    for key, vectors in node.items():
        where = f"{path}.{key}" if len(key) <= MAX_ECHO else f"{path}[{_echoed(key)}]"
        try:
            level = int(key)
        except ValueError:
            raise FixtureError(where, "level keys must be integers")
        if level in gens:
            raise FixtureError(where, f"a second spelling of level {level}")
        if not isinstance(vectors, list):
            raise FixtureError(where, "expected a list of spanning vectors")
        gens[level] = [_parse_row(v, f"{where}[{j}]", dim) for j, v in enumerate(vectors)]
    return cls.from_int_rows(dim, gens)


def _show_levels(filtration):
    return {str(level): [_show_vector(v) for v in filtration.at(level).basis]
            for level in filtration.jump_levels}


def _parse_zeta(node, path, k, n_coords, dim):
    if not isinstance(node, dict):
        raise FixtureError(path, "expected an object keyed by comma-joined index sets")
    table = {}
    for key, terms in node.items():
        where = f"{path}[{_echoed(key)}]"
        try:
            idx = frozenset(int(s) for s in key.split(",")) if key else frozenset()
        except ValueError:
            raise FixtureError(
                where, "keys must be comma-joined divisor indices, '' for the empty set")
        if not idx <= set(range(k)):
            raise FixtureError(where, "index set reaches outside the divisor coordinates")
        if idx in table:
            raise FixtureError(where, f"a second spelling of the index set {sorted(idx)}")
        if not isinstance(terms, list):
            raise FixtureError(where, "expected a list of {powers, matrix} terms")
        poly = {}
        for j, term in enumerate(terms):
            at = f"{where}[{j}]"
            if not isinstance(term, dict) or set(term) != {"powers", "matrix"}:
                raise FixtureError(at, "each term needs exactly the keys 'powers' and 'matrix'")
            powers = term["powers"]
            if (not isinstance(powers, list) or len(powers) != n_coords
                    or not all(_is_int(e) and e >= 0 for e in powers)):
                raise FixtureError(f"{at}.powers", f"expected {n_coords} nonnegative integers")
            if any(e > MAX_TWIST_EXPONENT for e in powers):
                raise FixtureError(f"{at}.powers", f"an exponent exceeds {MAX_TWIST_EXPONENT}")
            if tuple(powers) in poly:
                raise FixtureError(f"{at}.powers", f"a second term with powers {powers}")
            poly[tuple(powers)] = _parse_matrix(term["matrix"], f"{at}.matrix", dim)
        table[idx] = poly
    return table


def _show_zeta(table):
    out = {}
    for idx, poly in table.items():
        key = ",".join(str(i) for i in sorted(idx))
        out[key] = [{"powers": list(expo), "matrix": _show_matrix(coeff)}
                    for expo, coeff in sorted(poly.items())]
    return out


# -- fixture documents ----------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    """A parsed fixture: exact structure data plus optional twist table.

    The orbit spec is built at most once per fixture, and the markers are
    the data's own (`data.markers`).  A build that raises is not cached, so
    every caller gets the same error.
    """

    data: PureHodgeData
    zeta: dict
    n_coords: int
    expectations: dict

    def orbit(self):
        return self._orbit

    @cached_property
    def _orbit(self):
        return orbit_spec(self.data, self.zeta, self.n_coords)


def parse_fixture(doc) -> Fixture:
    if not isinstance(doc, dict):
        raise FixtureError("$", "fixture must be a JSON object")
    if doc.get("version") != FIXTURE_TAG:
        raise FixtureError("version", f"expected {FIXTURE_TAG!r}, got {doc.get('version')!r}")
    known = {"version", "dim", "weight", "q", "f", "w", "cone", "n_coords",
             "zeta", "markers"}
    for key in sorted(set(doc) - known):
        raise FixtureError(key, "unknown fixture field")
    for key in ("dim", "weight", "q", "f", "cone"):
        if key not in doc:
            raise FixtureError(key, "required field is missing")
    dim = doc["dim"]
    if not _is_int(dim) or dim < 1:
        raise FixtureError("dim", "expected a positive integer")
    weight = doc["weight"]
    if not _is_int(weight):
        raise FixtureError("weight", "expected an integer")

    q = _parse_matrix(doc["q"], "q", dim)
    f = _parse_levels(doc["f"], "f", dim, DecreasingFiltration)
    w = _parse_levels(doc["w"], "w", dim, IncreasingFiltration) if "w" in doc else None
    if not isinstance(doc["cone"], list):
        raise FixtureError("cone", "expected a list of generator matrices")
    generators = [_parse_matrix(g, f"cone[{j}]", dim)
                  for j, g in enumerate(doc["cone"])]
    cone = NilpotentCone(generators, q)
    data = PureHodgeData(weight=weight, q=q, f=f, cone=cone, w=w)

    k = len(generators)
    n_coords = doc.get("n_coords", k)
    if not _is_int(n_coords) or n_coords < k:
        raise FixtureError("n_coords", f"expected an integer >= {k}")
    zeta = _parse_zeta(doc.get("zeta", {}), "zeta", k, n_coords, dim)

    expectations = doc.get("markers", {})
    fixture = Fixture(data=data, zeta=zeta, n_coords=n_coords, expectations=expectations)
    if expectations:
        if not isinstance(expectations, dict):
            raise FixtureError("markers", "expected an object")
        _verify_expectations(fixture, expectations)
    return fixture


def _verify_expectations(fixture, expectations):
    try:
        markers = fixture.data.markers
    except FixtureError as exc:
        raise FixtureError("markers", exc.message) from exc
    for key in sorted(set(expectations) - {"n", "m", "lam"}):
        raise FixtureError(f"markers.{key}", "unknown marker expectation")
    for key in ("n", "m"):
        if key in expectations and not _is_int(expectations[key]):
            raise FixtureError(f"markers.{key}", "expected an integer")
        if key in expectations and expectations[key] != getattr(markers, key):
            raise FixtureError(f"markers.{key}", f"fixture says {expectations[key]}, "
                                                 f"computed {getattr(markers, key)}")
    if "lam" in expectations:
        lam = _parse_scalar(expectations["lam"], "markers.lam")
        if lam != markers.lam:
            raise FixtureError("markers.lam", f"fixture says {expectations['lam']}, "
                                              f"computed {_abbreviated(markers.lam)}")


def _abbreviated(x: GaussianRational):
    """x as it prints or, with a part over MAX_PART_BITS, that part's digit
    count: str() refuses an int of more than 4300 digits."""
    widest = max(abs(k) for part in (x.re, x.im) for k in part.as_integer_ratio())
    if widest.bit_length() <= MAX_PART_BITS:
        return str(x)
    digits = int((widest.bit_length() - 1) * math.log10(2)) + 1
    digits += widest >= 10 ** digits
    return f"a value with a {digits}-digit part"


def fixture_document(data, zeta=None, n_coords=None, expectations=None) -> dict:
    """The canonical JSON document of structure data plus optional twists."""
    doc = {
        "version": FIXTURE_TAG,
        "dim": data.dim,
        "weight": data.weight,
        "q": _show_matrix(data.q),
        "f": _show_levels(data.f),
        "w": _show_levels(data.w),
        "cone": [_show_matrix(g) for g in data.cone.generators],
        "n_coords": len(data.cone) if n_coords is None else int(n_coords),
    }
    doc["zeta"] = _show_zeta(zeta or {})
    if expectations:
        doc["markers"] = dict(expectations)
    return doc


def dump_document(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_fixture(path) -> Fixture:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle, parse_int=_json_int)
    except (OSError, UnicodeError) as exc:
        raise FixtureError(path, f"cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureError(
            path, f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_fixture(doc)


# -- option values ------------------------------------------------------------------


def _parse_cli_values(tokens, option, count):
    """The values of --t or --ell, one 're' or 're,im' token per coordinate,
    each part checked as a fixture rational is and named option[j]."""
    if len(tokens) != count:
        raise FixtureError(option, f"expected {_counted(count, 'value')}, got {len(tokens)}")
    values = []
    for j, token in enumerate(tokens):
        path = f"{option}[{j}]"
        parts = token.split(",")
        parts = [_text_fraction(part, path) for part in parts] if len(parts) <= 2 else [None]
        if None in parts:
            raise FixtureError(
                path, f"bad coordinate {_echoed(token)}: use 're' or 're,im' rationals")
        values.append(GaussianRational(*parts))
    return tuple(values)


def _require_branch(branch, k):
    if len(branch) != k:
        raise FixtureError("--branch", f"expected {_counted(k, 'integer')}, "
                                       f"one per cone generator, got {len(branch)}")
    return tuple(branch)


def _counted(count, noun):
    return f"{count} {noun}" + ("" if count == 1 else "s")


def _require_tol(tol):
    if not (math.isfinite(tol) and tol > 0):
        raise FixtureError("--tol", f"expected a finite positive number, got {tol!r}")


# -- float range -------------------------------------------------------------------


def _require_float(parts, path):
    """Refuse an entry given by its (numerator, denominator) int parts when
    a part overflows a double or a nonzero part rounds to 0.0; int true
    division rounds as the conversion of the exact rational does."""
    try:
        values = [num / den for num, den in parts]
    except OverflowError:
        raise FixtureError(path, "entry is too large for a double-precision float")
    if any(num and not x for (num, _), x in zip(parts, values)):
        raise FixtureError(path, "entry is too small for a double-precision float")


def _require_floats(fixture):
    """Refuse, naming the field, an entry the float layer reads but cannot convert.

    The float layer reads the pairing, the echelon bases of F, the cone, the
    twist table and, when they can be built, the markers e0, einf and lam.
    A nonzero entry that would become 0.0 is refused like one that would
    overflow.  Matrices and F are read in int form, so no scalar is built.
    This runs before any float work, so every command that does float work
    refuses such input the same way.
    """
    data = fixture.data
    matrices = [("q", data.q)]
    matrices += [(f"cone[{j}]", g) for j, g in enumerate(data.cone.generators)]
    for idx, poly in fixture.zeta.items():
        key = ",".join(str(i) for i in sorted(idx))
        matrices += [(f"zeta[{key!r}][{j}].matrix", m) for j, m in enumerate(poly.values())]
    for path, m in matrices:
        for i, (row, d) in enumerate(m.int_form()):
            for j, a, b in row:
                _require_float(((a, d), (b, d)), f"{path}[{i}][{j}]")
    for p in data.f.jump_levels:
        for col, re, im in data.f.at(p).int_rows:
            for a, b in zip(re, im):
                _require_float(((a, re[col]), (b, re[col])), f"f.{p}")
    try:
        markers = data.markers
    except FixtureError:
        return  # the commands that need markers report why they are undefined
    for name, values in (("e0", markers.e0), ("einf", markers.einf), ("lam", (markers.lam,))):
        for x in values:
            _require_float((x.re.as_integer_ratio(), x.im.as_integer_ratio()), f"markers.{name}")


# -- command helpers ----------------------------------------------------------------


def _diamond_lines(split):
    return [f"  ({p}, {q}): {sub.dim}" for (p, q), sub in sorted(split.pieces.items())]


def _proportional_column(basis, vector):
    """The column j that vector is a nonzero multiple of, or None: the
    columns are a basis, so j must be vector's only nonzero coordinate."""
    support = [j for j, c in enumerate(basis.inv.apply(vector)) if c]
    return support[0] if len(support) == 1 else None


def cmd_diamond(fixture, args):
    data = fixture.data
    split = data.split()
    lines = [f"diamond of a {data.dim}-dimensional weight-{data.weight} structure"]
    lines += _diamond_lines(split)
    report = {"diamond": {f"{p},{q}": sub.dim
                          for (p, q), sub in sorted(split.pieces.items())}}
    try:
        markers = data.markers
        lines.append(f"m = {markers.m}")
        report["m"] = markers.m
    except FixtureError:
        lines.append("m is undefined (top filtration level is not a line)")
        report["m"] = None
    return 0, lines, report


def cmd_split(fixture, args):
    split = fixture.data.split()
    lines = ["bigraded pieces and their echelon bases"]
    report = {}
    for (p, q), sub in sorted(split.pieces.items()):
        lines.append(f"  ({p}, {q}): dim {sub.dim}")
        entry = []
        for v in sub.basis:
            shown = _show_vector(v)
            entry.append(shown)
            lines.append("    " + json.dumps(shown))
        report[f"{p},{q}"] = entry
    return 0, lines, report


def cmd_induce(fixture, args):
    ind = tate_normalize(induce(fixture.data))
    zeta = {idx: {expo: induced_endomorphism(coeff, ind.factor_exponents)
                  for expo, coeff in poly.items()}
            for idx, poly in fixture.zeta.items()}
    doc = fixture_document(ind, zeta, fixture.n_coords)
    text = dump_document(doc)
    lines = [f"induced structure: dim {ind.dim}, weight {ind.weight}, twist {ind.twist}",
             text.rstrip("\n")]
    return 0, lines, doc


def cmd_markers(fixture, args):
    data = fixture.data
    markers = data.markers
    basis = adapted_basis(data.structure())
    indices = tuple(_proportional_column(basis, v)
                    for v in (markers.e0, markers.einf, markers.ed))
    lines = [
        f"n = {markers.n}",
        f"m = {markers.m}",
        f"lam = {markers.lam}",
        f"e0   = {json.dumps(_show_vector(markers.e0))}",
        f"einf = {json.dumps(_show_vector(markers.einf))}",
        f"ed   = {json.dumps(_show_vector(markers.ed))}",
        "adapted-basis indices (e0, einf, ed) = "
        + str(tuple("-" if j is None else j for j in indices)),
    ]
    report = {
        "n": markers.n, "m": markers.m, "lam": _show_scalar(markers.lam),
        "e0": _show_vector(markers.e0), "einf": _show_vector(markers.einf),
        "ed": _show_vector(markers.ed),
        "indices": [None if j is None else j for j in indices],
    }
    return 0, lines, report


def cmd_lie(fixture, args):
    data = fixture.data
    algebra = lie_algebra(data.q)
    split = lie_deligne_split(algebra, data.structure())
    herm, herm_why = hermitian_test(split)
    smooth, smooth_why = smoothness_test(split)
    lines = [f"symmetry algebra dimension {algebra.dim}",
             "bigraded layer dimensions"]
    lines += [f"  ({p}, {q}): {d}" for (p, q), d in sorted(split.diamond().items())]
    lines.append(f"hermitian: {herm} — {herm_why}")
    lines.append(f"smooth: {smooth} — {smooth_why}")
    report = {
        "algebra_dim": algebra.dim,
        "layers": {f"{p},{q}": d for (p, q), d in sorted(split.diamond().items())},
        "hermitian": herm, "hermitian_detail": herm_why,
        "smooth": smooth, "smooth_detail": smooth_why,
    }
    return 0, lines, report


def cmd_eval(fixture, args):
    if args.t is None:
        raise FixtureError("--t", "eval needs --t with one value per coordinate")
    t = _parse_cli_values(args.t, "--t", fixture.n_coords)
    for j in range(len(fixture.data.cone)):
        if not t[j]:
            raise FixtureError(f"--t[{j}]", "divisor coordinate is zero; eval takes interior "
                                            "points only, where every divisor coordinate "
                                            "is nonzero")
    spec = fixture.orbit()
    branch = _require_branch(args.branch, spec.k) if args.branch else None
    report = {"t": [_show_scalar(x) for x in t]}
    lines = []
    if args.ell is not None:
        ell = _parse_cli_values(args.ell, "--ell", spec.k)
        frame = eval_frame(spec, t, ell, branch=branch)
        lines.append(f"h = {frame.h_tilde}")
        lines.append(f"q01 = {frame.q01}")
        lines.append(f"triangular frame: {triangularity_check(frame)[0]}")
        report.update({
            "mode": "exact",
            "ell": [_show_scalar(x) for x in frame.ell],
            "h": str(frame.h_tilde),
            "q01": _show_scalar(frame.q01),
        })
    else:
        if branch:
            raise FixtureError("--branch", "needs --ell (exact mode)")
        _require_floats(fixture)
        for j, x in enumerate(t):
            _require_float((x.re.as_integer_ratio(), x.im.as_integer_ratio()), f"--t[{j}]")
        import numpy as np
        from .probe import norm_value
        with np.errstate(all="ignore"):  # a value out of range is refused below
            value = norm_value(spec, tuple(x.to_complex() for x in t))
        if not math.isfinite(value):
            raise FixtureError("--t", "the float norm leaves double range at this point; "
                                      "give --ell for the exact value")
        lines.append(f"h ~ {value!r}  (principal-branch ell)")
        report.update({"mode": "float", "h": value})
    return 0, lines, report


# -- check suites -------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str
    skipped: bool = False


def _skip(name, why):
    return Check(name, True, why, skipped=True)


def suite_symmetries(fixture, args):
    data = fixture.data
    st = data.structure()
    sign = 1 if st.n % 2 == 0 else -1
    out = [Check("symmetries.pairing-symmetry",
                 st.q.transpose() == st.q * sign,
                 f"Q^T = ({sign})Q")]
    out.append(Check("symmetries.pairing-nondegenerate", bool(st.q.det()),
                     "det Q != 0"))
    ok, witness = st.f_isotropy
    out.append(Check("symmetries.filtration-orthogonality", ok,
                     "Q(F^a, F^b) = 0 for a+b > n" if ok else f"witness {witness}"))
    try:
        dims = data.split().diamond()
    except DirectSumError as exc:
        # the pieces are not a basis of V, so there is no diamond to compare
        return out + [Check("symmetries.direct-sum", False, str(exc))]
    out.append(Check("symmetries.conjugate-dimensions", check_symmetries(dims, st.n)[0],
                     "dim I^{p,q} = dim I^{q,p}"))
    out.append(Check("symmetries.direct-sum", True,
                     f"{sum(dims.values())} piece dims fill dimension {st.ambient}"))
    return out


def suite_isotropy(fixture, args):
    data = fixture.data
    if not len(data.cone):
        return [_skip("isotropy.weight-filtrations", "fixture has no cone")]
    n, q = data.weight, data.q
    interior = data.cone.element((1,) * len(data.cone))
    # one filtration per distinct element: on a one-generator cone the
    # interior element is the generator
    filtrations = {x: weight_filtration(x, center=n)
                   for x in dict.fromkeys((interior, *data.cone.generators))}
    out = [Check("isotropy.interior-weight-filtration", filtrations[interior] == data.w,
                 "W equals the interior element's weight filtration")]
    named = [(f"isotropy.generator-{j}", filtrations[g])
             for j, g in enumerate(data.cone.generators)]
    for name, filtration in named + [("isotropy.common-filtration", data.w)]:
        ok, witness = filtration.isotropy(q, 2 * n)
        out.append(Check(name, ok, "Q(W_a, W_b) = 0 for a+b < 2n" if ok
                         else f"pairing survives at levels {witness[:2]}"))
    for j, g in enumerate(data.cone.generators):
        out.append(Check(f"isotropy.lowering-{j}", data.w.first_escape(g, -2) is None,
                         "N W_l <= W_{l-2}"))
    return out


def suite_bracket(fixture, args):
    data = fixture.data
    algebra = lie_algebra(data.q)
    lsplit = lie_deligne_split(algebra, data.structure())
    local = lsplit.local
    q_t = local.q.transpose()
    # Each seed (i, j) stands for A X A^{-1}, with X = Q'^{-1} S its closed
    # form on Q' = A^T Q A and S = E_ij - eps E_ji.  The identity behind each
    # check: isometry-algebra, Q'^T = eps Q' and C Q'^T = I for the matrix C
    # whose rows are the columns of Q'^{-1} the seeds are built from, so that
    # X^T Q' + Q' X = eps S^T + S = 0 for every seed, as S^T = -eps S; it makes
    # [x, y]^T Q' = -Q' [x, y] an identity, so closure needs no pairwise
    # commutators, and the built g^{-1,-1} elements are tested as isometries
    # of Q' too; layer-sum, A A^{-1} = I, so the layer sizes count the layers
    # of g; and action-compatibility, each element's columns on the one shift
    # its layer is filed under.
    isometry_ok = (q_t == local.q * local.eps
                   and Mat._of_ints(local.columns, local.ambient) * q_t == Mat.identity(local.ambient)
                   and all(is_infinitesimal_isometry(x, local.q)
                           for x in lsplit.matrices(-1, -1)))
    out = [Check("bracket.isometry-algebra", isometry_ok,
                 "x^T Q + Q x = 0 on the basis; bracket closure follows")]
    layer_total = lsplit.total_dim()
    a, a_inv, grades = lsplit.frame
    counted = layer_total == algebra.dim
    layers_fill = counted and a * a_inv == Mat.identity(a.nrows)
    out.append(Check("bracket.layer-sum", layers_fill,
                     f"layer dims {layer_total} fill the algebra dim {algebra.dim}"
                     if layers_fill or not counted else "A A^{-1} is not I in the splitting frame"))
    # column l of an element shifts grades[l]; name the last leak
    leak = None
    for (p, q), xs in lsplit.layers.items():
        for x in xs:
            leaks = [grades[l] for l, shifts in local.column_shifts(x, grades).items()
                     if shifts - {(p, q)}]
            if leaks:
                r, s = max(leaks)
                leak = f"g^({p},{q}) breaks out of I^({r + p},{s + q})"
    out.append(Check("bracket.action-compatibility", leak is None,
                     leak or "g^{p,q} I^{r,s} <= I^{r+p, s+q}"))
    # Exhaustive layers (layer-sum) acting compatibly on the direct sum of
    # the I^{p,q} force each commutator into the expected layer: a product
    # of two layer elements shifts every piece by the summed bidegree, and
    # a member of the algebra doing so can only be its (p+r, q+s) part.
    entailed = isometry_ok and layers_fill and leak is None
    out.append(Check("bracket.bracket-compatibility", entailed,
                     "[g^{p,q}, g^{r,s}] <= g^{p+r,q+s}, entailed by the three"
                     " checks above"))
    if len(data.cone):
        contained = all(lsplit.in_layer(-1, -1, g) for g in data.cone.generators)
        out.append(Check("bracket.cone-containment", contained,
                         "every generator lies in g^{-1,-1}"))
    else:
        out.append(_skip("bracket.cone-containment", "fixture has no cone"))
    return out


def _suite_orbit(fixture, skip_name, failure_name):
    """The fixture's orbit spec, or the one Check a suite reports without it.

    The Check skips `skip_name` when the fixture has no cone or no markers,
    and fails `failure_name` when the orbit data are rejected.
    """
    if not len(fixture.data.cone):
        return _skip(skip_name, "fixture has no cone")
    try:
        fixture.data.markers  # raises when the markers are undefined
    except FixtureError as exc:
        return _skip(skip_name, f"norm machinery undefined: {exc.message}")
    try:
        return fixture.orbit()
    except FixtureError as exc:
        return Check(failure_name, False, str(exc))


def _deterministic_points(spec):
    points = []
    for s in range(2):
        t = tuple(Fraction(1 + ((s + j) % 3), 3 + ((s + 2 * j) % 4))
                  for j in range(spec.n_coords))
        ell = tuple(GaussianRational(Fraction(s - 1, 7 + j), Fraction(1 + j, 5))
                    for j in range(spec.k))
        points.append((t, ell))
    return points


def suite_monodromy(fixture, args):
    spec = _suite_orbit(fixture, "monodromy.branch-shifts", "monodromy.orbit-data")
    if isinstance(spec, Check):
        return [spec]
    shifts = [tuple(args.branch)] if args.branch else []
    shifts += [(1,) * spec.k, tuple(2 if j == 0 else -1 for j in range(spec.k))]
    out = []
    for t, ell in _deterministic_points(spec):
        for shift in shifts:
            ok, detail = monodromy_check(spec, t, ell, shift)
            out.append(Check(f"monodromy.shift-{','.join(map(str, shift))}", ok,
                             detail if not ok else f"invariant at t={t}"))
        ok, detail = triangularity_check(eval_frame(spec, t, ell))
        out.append(Check("monodromy.unipotent-frame", ok,
                         detail if not ok else "frame factors are unipotent"))
    return out


def suite_limits(fixture, args):
    spec = _suite_orbit(fixture, "limits.radial", "limits.orbit-data")
    if isinstance(spec, Check):
        return [spec]
    from .probe import radial_limit, term_vanishing
    deep = tuple(range(spec.k))
    report = radial_limit(spec, deep, tol=args.tol)
    out = [Check("limits.radial", report.passed,
                 f"final deviation {report.deviations[-1]:.3e} against tol {report.tol}")]
    for j in range(spec.k):
        powers = tuple(1 if i == j else 0 for i in range(spec.k))
        term = term_vanishing(spec, powers, tol=args.tol)
        out.append(Check(f"limits.term-{j}", term.passed,
                         f"|term| {term.deviations[-1]:.3e} at r={term.radii[-1]:.0e}"))
    return out


def suite_levels(fixture, args):
    spec = _suite_orbit(fixture, "levels.generators", "levels.orbit-data")
    if isinstance(spec, Check):
        return [spec]
    report = generator_level_check(spec)
    out = []
    for rec in report.per_generator:
        out.append(Check(
            f"levels.generator-{rec.index}", rec.bounds_ok and rec.opposite_ok,
            f"level {rec.level} within [{report.n}, {report.m}], "
            f"opposite {rec.opposite_level}"))
    return out


def suite_psh(fixture, args):
    spec = _suite_orbit(fixture, "psh.levi", "psh.levi")
    if isinstance(spec, Check):
        return [spec]
    if spec.n_coords == spec.k:
        return [_skip("psh.levi", "the deepest stratum is a point")]
    from .probe import levi_probe
    try:
        report = levi_probe(spec, tuple(range(spec.k)), tol=args.tol)
    except ValueError as exc:  # the stratum value is not positive
        return [Check("psh.levi", False, str(exc))]
    eigs = ", ".join(f"{x:.3e}" for x in report.eigenvalues)
    return [Check("psh.levi", report.psh, f"eigenvalues [{eigs}]")]


SUITE_RUNNERS = {
    "symmetries": suite_symmetries,
    "isotropy": suite_isotropy,
    "bracket": suite_bracket,
    "monodromy": suite_monodromy,
    "limits": suite_limits,
    "levels": suite_levels,
    "psh": suite_psh,
}


def cmd_check(fixture, args):
    _require_tol(args.tol)
    if args.branch:
        _require_branch(args.branch, len(fixture.data.cone))
    names = SUITES if args.suite == "all" else (args.suite,)
    if FLOAT_SUITES.intersection(names):
        _require_floats(fixture)
    checks = []
    for name in names:
        try:
            checks.extend(SUITE_RUNNERS[name](fixture, args))
        except FixtureError as exc:
            # the loader accepted the data but the mathematics rejects it
            checks.append(Check(f"{name}.applicability", False, str(exc)))
    lines = []
    for c in checks:
        status = "skip" if c.skipped else ("pass" if c.ok else "FAIL")
        lines.append(f"{status:4}  {c.name}  {c.detail}")
    failed = [c for c in checks if not c.ok]
    ran = sum(1 for c in checks if not c.skipped)
    skipped = len(checks) - ran
    summary = f"{ran} checks: {ran - len(failed)} passed, {len(failed)} failed"
    if skipped:
        summary += f", {skipped} skipped"
    lines.append(summary)
    report = {
        "checks": [{"name": c.name, "ok": c.ok, "skipped": c.skipped,
                    "detail": c.detail} for c in checks],
        "failed": len(failed),
    }
    if failed:
        print(f"first failing invariant: {failed[0].name} — {failed[0].detail}",
              file=sys.stderr)
    return (1 if failed else 0), lines, report


def cmd_probe(fixture, args):
    _require_tol(args.tol)
    if not len(fixture.data.cone):
        raise FixtureError("cone", "probe needs a fixture with a nonempty cone")
    _require_floats(fixture)
    spec = fixture.orbit()
    from .probe import f_infinity_probe, levi_probe, radial_limit, term_vanishing
    which = PROBES if args.suite == "all" else (args.suite,)
    deep = tuple(range(spec.k))
    lines, report, code = [], {}, 0
    if "radial" in which:
        rep = radial_limit(spec, deep, tol=args.tol)
        lines.append(f"radial: target {rep.target!r}, final deviation "
                     f"{rep.deviations[-1]:.3e}, passed {rep.passed}")
        report["radial"] = {"target": rep.target, "radii": list(rep.radii),
                            "deviations": list(rep.deviations),
                            "passed": rep.passed}
        code = code or (0 if rep.passed else 1)
    if "terms" in which:
        entry = {}
        for j in range(spec.k):
            powers = tuple(1 if i == j else 0 for i in range(spec.k))
            rep = term_vanishing(spec, powers, tol=args.tol)
            lines.append(f"term {powers}: final {rep.deviations[-1]:.3e}, "
                         f"passed {rep.passed}")
            entry[",".join(map(str, powers))] = {
                "final": rep.deviations[-1], "passed": rep.passed}
            code = code or (0 if rep.passed else 1)
        report["terms"] = entry
    if "levi" in which:
        if spec.n_coords == spec.k:
            lines.append("levi: skipped — the deepest stratum is a point")
            report["levi"] = {"skipped": "the deepest stratum is a point"}
        else:
            rep = levi_probe(spec, deep, tol=args.tol)
            eigs = ", ".join(f"{x:.6e}" for x in rep.eigenvalues)
            lines.append(f"levi: eigenvalues [{eigs}], psh {rep.psh}")
            report["levi"] = {"eigenvalues": list(rep.eigenvalues), "psh": rep.psh}
            code = code or (0 if rep.psh else 1)
    if "finf" in which:
        st = fixture.data.structure()
        interior = fixture.data.cone.element((1,) * spec.k)
        rep = f_infinity_probe(st, interior, tol=args.tol)
        gaps = ", ".join(f"{d:.3e}" for d in rep.distances)
        lines.append(f"finf: gaps [{gaps}], extrapolated {rep.extrapolated:.3e}, "
                     f"passed {rep.passed}")
        report["finf"] = {"y": list(rep.y_values), "distances": list(rep.distances),
                          "extrapolated": rep.extrapolated, "passed": rep.passed}
        code = code or (0 if rep.passed else 1)
    if code:
        print("first failing invariant: probe verdict", file=sys.stderr)
    return code, lines, report


COMMANDS = {
    "diamond": cmd_diamond,
    "split": cmd_split,
    "induce": cmd_induce,
    "markers": cmd_markers,
    "lie": cmd_lie,
    "eval": cmd_eval,
    "check": cmd_check,
    "probe": cmd_probe,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hodge",
        description="Exact asymptotic Hodge data: diamonds, markers, checks, probes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("diamond", "bigraded dimension table of the fixture"),
        ("split", "bigraded pieces with echelon bases"),
        ("induce", "emit the normalized induced-structure fixture"),
        ("markers", "distinguished vectors, level m, and scaling"),
        ("lie", "symmetry-algebra layers and smoothness verdicts"),
        ("eval", "evaluate the frame and norm at a point"),
        ("check", "run an invariant suite"),
        ("probe", "run a numeric probe"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("fixture", help="fixture JSON file")
        p.add_argument("--report", metavar="OUT.json",
                       help="also write a machine-readable report")
        if name in ("check", "probe"):
            p.add_argument("--tol", type=float, default=1e-6,
                           help="tolerance for numeric verdicts (default 1e-6)")
        if name == "eval":
            p.add_argument("--t", nargs="+", metavar="RE[,IM]",
                           help="coordinates, exact rationals")
            p.add_argument("--ell", nargs="+", metavar="RE[,IM]",
                           help="exact ell-values (enables exact mode)")
            p.add_argument("--branch", nargs="+", type=int,
                           help="integer branch shifts (exact mode)")
        if name == "check":
            p.add_argument("--suite", choices=SUITES + ("all",), default="all",
                           help="which invariant suite to run")
            p.add_argument("--branch", nargs="+", type=int,
                           help="extra branch shift for the monodromy suite")
        if name == "probe":
            p.add_argument("--suite", choices=PROBES + ("all",), default="all",
                           help="which probe to run")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        fixture = load_fixture(args.fixture)
        code, lines, report = COMMANDS[args.command](fixture, args)
    except FixtureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    if args.report:
        payload = {"version": REPORT_TAG, "command": args.command,
                   "fixture": args.fixture, "exit": code, "body": report}
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(dump_document(payload))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
