"""Span tracer for the traced benchmark run.

The tracer wraps the public functions listed in TARGETS in every hodgenorm
module namespace (and dispatch table) that binds them, so a call made
through any import path opens a span.  Spans are kept in memory as plain
lists and written out when the run ends; `layer_stats` turns them into the
per-layer metrics listed in PER_LAYER.

GaussianRational dunders are deliberately not wrapped: a single `check`
makes millions of `__bool__` calls, so a span there would measure the
tracer rather than the program.
"""

import dataclasses
import importlib
import statistics
import time
from fractions import Fraction

MODULES = ("exactlin", "filtrations", "mhs", "induced", "lie", "orbit", "probe", "cli")

# (defining module, attribute path) of each traced public function.
TARGETS = (
    ("cli", "load_fixture"),
    ("cli", "cmd_check"),
    ("cli", "suite_symmetries"),
    ("cli", "suite_isotropy"),
    ("cli", "suite_bracket"),
    ("cli", "suite_monodromy"),
    ("cli", "suite_limits"),
    ("cli", "suite_levels"),
    ("cli", "suite_psh"),
    ("mhs", "deligne_split"),
    ("mhs", "polarization_check"),
    ("filtrations", "weight_filtration"),
    ("induced", "induce"),
    ("induced", "locate_markers"),
    ("lie", "lie_algebra"),
    ("lie", "lie_deligne_split"),
    ("orbit", "orbit_spec"),
    ("orbit", "adapted_basis"),
    ("orbit", "eval_frame"),
    ("orbit", "stratum_value"),
    ("orbit", "limit_norm"),
    ("orbit", "generator_level_check"),
    ("probe", "norm_value"),
    ("probe", "stratum_norm"),
    ("probe", "radial_limit"),
    ("probe", "term_vanishing"),
    ("probe", "levi_probe"),
    ("probe", "f_infinity_probe"),
    ("exactlin", "Mat.__mul__"),
    ("exactlin", "Mat.apply"),
    ("exactlin", "rref"),
    ("exactlin", "Subspace.intersect"),
    ("exactlin", "Subspace.contains_vector"),
    ("exactlin", "nilpotent_exp"),
)

# Hot kernels whose outputs are not scanned for entry size: scanning every
# product and echelon form would cost more than the kernels themselves.
UNSCANNED = {"exactlin.Mat.__mul__", "exactlin.Mat.apply", "exactlin.rref",
             "exactlin.Subspace.intersect", "exactlin.Subspace.contains_vector"}

SUITES = ("symmetries", "isotropy", "bracket", "monodromy", "limits", "levels", "psh")
FIXTURES = ("a1_input", "elliptic", "pair", "varying", "hermitian")


def _span_name(module, attr):
    if attr.startswith("suite_"):
        return f"cli.suite.{attr[len('suite_'):]}"
    if attr == "cmd_check":
        return "cli.check"
    return f"{module}.{attr}"


# Per-layer metrics reported by a traced run: (name, unit).
PER_LAYER = (
    [("cli.import_s", "s"), ("cli.load_fixture.s", "s")]
    + [(f"cli.suite.{name}.s", "s") for name in SUITES]
    + [(f"cli.check.{name}.s", "s") for name in FIXTURES]
    + [("cli.orbit_spec.calls", "count"),
       ("mhs.deligne_split.calls", "count"), ("mhs.deligne_split.self_s", "s"),
       ("mhs.polarization_check.calls", "count"), ("mhs.polarization_check.s", "s"),
       ("filtrations.weight_filtration.calls", "count"),
       ("filtrations.weight_filtration.s", "s"),
       ("induced.induce.s", "s"), ("induced.locate_markers.calls", "count"),
       ("lie.lie_algebra.s", "s"), ("lie.lie_deligne_split.s", "s"),
       ("orbit.orbit_spec.calls", "count"), ("orbit.orbit_spec.s", "s"),
       ("orbit.adapted_basis.s", "s"),
       ("orbit.eval_frame.per_call", "s"), ("orbit.stratum_value.per_call", "s"),
       ("orbit.limit_norm.per_call", "s"), ("orbit.generator_level_check.s", "s"),
       ("probe.norm_value.calls", "count"), ("probe.norm_value.per_call", "s"),
       ("probe.stratum_norm.calls", "count"), ("probe.stratum_norm.per_call", "s"),
       ("probe.radial_limit.s", "s"), ("probe.term_vanishing.s", "s"),
       ("probe.levi_probe.s", "s"), ("probe.f_infinity_probe.s", "s")]
    + [(f"exactlin.{fn}.{stat}", unit)
       for fn in ("Mat.__mul__", "Mat.apply", "rref", "Subspace.intersect",
                  "Subspace.contains_vector")
       for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [("exactlin.nilpotent_exp.calls", "count"),
       ("exactlin.max_entry_bits", "bits"),
       ("trace.overhead_ratio", "ratio")]
)


def entry_bits(obj, top=True):
    """Largest numerator or denominator bit length among exact entries of obj."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, (bool, int, float, complex, str)) or obj is None:
        return 0
    slots = getattr(type(obj), "__slots__", ())
    if slots == ("re", "im"):
        return max(entry_bits(obj.re), entry_bits(obj.im))
    if slots in (("rows",), ("ambient", "rows")):
        return max((entry_bits(x) for row in obj.rows for x in row), default=0)
    if isinstance(obj, (tuple, list)):
        return max((entry_bits(x, False) for x in obj), default=0)
    if isinstance(obj, dict):
        return max((entry_bits(x, False) for x in obj.values()), default=0)
    if hasattr(obj, "pieces"):
        return entry_bits(obj.pieces, False)
    if hasattr(obj, "steps"):
        return entry_bits(obj.steps, False)
    if dataclasses.is_dataclass(obj):
        # A frame carries its whole spec; only the top-level spec is scanned.
        return max((entry_bits(getattr(obj, f.name), False)
                    for f in dataclasses.fields(obj)
                    if top or type(getattr(obj, f.name)).__name__ != "OrbitSpec"),
                   default=0)
    return max((entry_bits(getattr(obj, name), False) for name in slots), default=0)


class Tracer:
    """Records one span per call of each target while installed."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, op id, nested]
        self.op = None
        self.max_bits = 0
        self._stack = []
        self._depth = {}
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        scan = name not in UNSCANNED
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nested = depth.get(name, 0) > 0
            idx = len(spans)
            record = [name, clock(), None, stack[-1] if stack else -1, self.op, nested]
            spans.append(record)
            stack.append(idx)
            depth[name] = depth.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                depth[name] -= 1
                stack.pop()
            if scan:
                self.max_bits = max(self.max_bits, entry_bits(result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Patch every binding of every target; undone by uninstall()."""
        modules = [importlib.import_module(f"hodgenorm.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        for module_name, attr in TARGETS:
            owner = by_name[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self._wrap(_span_name(module_name, attr), orig)
                self._patch(setattr, cls, meth, wrapped, orig)
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(_span_name(module_name, attr), orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(setattr, module, key, wrapped, orig)
                    elif isinstance(value, dict):  # dispatch tables such as SUITE_RUNNERS
                        for k, v in list(value.items()):
                            if v is orig:
                                self._patch(dict.__setitem__, value, k, wrapped, orig)

    def _patch(self, store, owner, key, wrapped, orig):
        store(owner, key, wrapped)
        self._undo.append((store, owner, key, orig))

    def uninstall(self):
        while self._undo:
            store, owner, key, orig = self._undo.pop()
            store(owner, key, orig)


def layer_stats(spans, op_kinds=None):
    """Aggregate spans into {name: {calls, s, self_s}} and check times per op.

    `spans` rows are [name, start, end, parent, op, nested] with parent
    indices local to the list.  `op_kinds` maps op id to (command, fixture)
    for cli ops; it yields per-fixture check times and the number of
    orbit_spec calls made inside check commands.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, nested in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for i, (name, start, end, parent, op, nested) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        if not nested:
            entry["s"] += end - start
    per_fixture, check_orbits = {}, 0
    for name, start, end, parent, op, nested in spans:
        kind = (op_kinds or {}).get(op)
        if not kind or kind[0] != "check":
            continue
        if name == "cli.check":
            per_fixture[kind[1]] = per_fixture.get(kind[1], 0.0) + (end - start)
        elif name == "orbit.orbit_spec":
            check_orbits += 1
    return stats, per_fixture, check_orbits


def overhead_ratio(passes):
    """Median traced pass wall time over median untraced pass wall time."""
    walls = lambda traced: [p["wall"] for p in passes if p["traced"] is traced]
    return statistics.median(walls(True)) / statistics.median(walls(False))


def per_layer_metrics(stats, per_fixture, check_orbits, import_s, max_bits, overhead):
    """The PER_LAYER metric values; layers a workload never calls read 0."""
    values = {"cli.import_s": import_s, "cli.orbit_spec.calls": check_orbits,
              "exactlin.max_entry_bits": max_bits, "trace.overhead_ratio": overhead}
    for fixture in FIXTURES:
        values[f"cli.check.{fixture}.s"] = per_fixture.get(fixture, 0.0)
    out = {}
    for name, unit in PER_LAYER:
        if name not in values:
            span, stat = name.rsplit(".", 1)
            entry = stats.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
            if stat == "per_call":
                value = entry["s"] / entry["calls"] if entry["calls"] else 0.0
            else:
                value = entry[stat]
            values[name] = value
        out[name] = {"value": values[name], "unit": unit}
    return out
