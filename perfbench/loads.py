"""Operation lists of the three workloads and the exact facts each checks.

Every operation is a (kind, label, weight, fn) tuple: `fn()` runs the
program and returns None when its outputs are right, or a short reason when
they are not; `weight` is how many evaluations it counts toward its kind's
throughput.  Inputs are drawn from a `random.Random` that the seed drives,
before the operation is timed.
"""

import json
import random
import time
from fractions import Fraction

DATA = "src/hodgenorm/data"
# a1 is left out of cli: it is the same 20-dimensional Λ³ weight-one kind of
# structure as hermitian, and with it one cli pass takes 64-67 s, so the
# traced run (an untraced and a traced pass) comes near its 180 s limit and
# the runs near the benchmark's time budget.  sweep still uses a1.
FIXTURES = ("a1_input", "elliptic", "pair", "varying", "hermitian")
ORBIT_FIXTURES = ("elliptic", "pair", "varying", "hermitian", "a1")
# `induce` on a1 and hermitian would build a 3,695,120-dimensional structure
# and on varying a 45,045-dimensional one, with no size check before the work
# starts; a1 was killed for memory.  Only these three stay small.
INDUCE_FIXTURES = ("a1_input", "elliptic", "pair")
CLI_COMMANDS = ("check", "lie", "probe", "diamond", "split", "markers")

# Moved copies of these families go through the full exact pipeline, one of
# each per pass.  Each family has one fixed dense basis change, drawn once
# with fixtures.random_unimodular; every input composes it with a seeded
# random signed permutation.  So no input repeats, while density and entry
# sizes, which set the cost, stay those of the fixed change: with a fresh
# random change per input the cost of one copy varies by a factor of two to
# three (CV 0.3-0.4), more than a run can average out.  weight_two(3) and
# weight_two(4) (induced dimensions 28 and 21) are left out: one moved copy
# takes 12-14 s, most of a run.
FRESH_FAMILIES = ("weight_one(1)", "weight_one(2)", "weight_one(3)",
                  "weight_two(1)", "weight_two(2)", "weight_two(5)", "curve_pair")
RANDOM_SPLITS = 2

SWEEP_EXACT_POINTS = 4
SWEEP_STRATUM_POINTS = 3
SWEEP_FLOAT_POINTS = 300
LEVI_GRID = 5


def schedule(run_pass, seconds, trace):
    """Whole passes while they fit in `seconds`, at least one.

    `run_pass(index, traced)` runs one pass and returns a dict with its
    "wall" time.  With `trace` the passes alternate untraced and traced,
    at least one of each.
    """
    passes = []
    started = time.monotonic()
    while True:
        done = run_pass(len(passes), trace and len(passes) % 2 == 1)
        passes.append(done)
        elapsed = time.monotonic() - started
        if len(passes) >= (2 if trace else 1) and elapsed + done["wall"] > seconds:
            return passes


# -- cli -----------------------------------------------------------------------


def fixture_path(name):
    return f"{DATA}/{name}.json"


def cli_ops(root):
    """(op id, argv) for every command on every fixture where it applies."""
    ops = []
    for name in FIXTURES:
        path = fixture_path(name)
        with open(root / path, encoding="utf-8") as handle:
            doc = json.load(handle)
        k = len(doc["cone"])
        n_coords = doc.get("n_coords", k)
        for command in CLI_COMMANDS:
            ops.append((f"{command}.{name}", [command, path]))
        t_exact = [f"1/{3 + j}" for j in range(n_coords)]
        ell = [f"{j + 1}/7,{j + 1}/5" for j in range(k)]
        t_float = [f"1/{20 + 10 * j}" for j in range(n_coords)]
        ops.append((f"eval-exact.{name}", ["eval", path, "--t", *t_exact, "--ell", *ell]))
        ops.append((f"eval-float.{name}", ["eval", path, "--t", *t_float]))
        if name in INDUCE_FIXTURES:
            ops.append((f"induce.{name}", ["induce", path]))
    return ops


def cli_metric(op_id):
    """Which per-command sum an op's wall time goes to."""
    command = op_id.split(".", 1)[0]
    return f"{command}_s" if command in ("check", "lie", "probe") else "query_s"


# -- sweep ---------------------------------------------------------------------


def sweep_setup():
    from hodgenorm.cli import load_fixture
    return {name: load_fixture(fixture_path(name)).orbit() for name in ORBIT_FIXTURES}


def sweep_ops(rng, specs):
    # Functions are looked up on their modules at call time, so a traced
    # pass sees the tracer's wrappers.
    from hodgenorm import orbit, probe
    from hodgenorm.exactlin import GaussianRational

    def exact_point(spec, t, ell, shifts):
        def run():
            orbit.eval_frame(spec, t, ell)
            ok, detail = orbit.monodromy_check(spec, t, ell, shifts)
            return None if ok else f"monodromy: {detail}"
        return run

    def strata(spec, points):
        def run():
            deep = tuple(range(spec.k))
            ratios = []
            for t in points:
                reference = orbit.limit_norm(spec, t)
                if not reference > 0:
                    return f"limit norm {reference} is not positive"
                ratios.append(orbit.stratum_value(spec, deep, t) / reference)
            # the tolerance of acceptance criterion 7
            if any(abs(r - ratios[0]) > ratios[0] / 10 ** 8 for r in ratios):
                return f"stratum/limit ratio varies: {[str(r) for r in ratios]}"
            return None
        return run

    def floats(spec, points):
        def run():
            for t, ell, shifted in points:
                base = probe.norm_value(spec, t, ell)
                moved = probe.norm_value(spec, t, shifted)
                if not abs(moved - base) <= 1e-12 * max(abs(base), 1e-300):
                    return f"norm moved under a branch shift: {base!r} -> {moved!r}"
            return None
        return run

    def verdict(name, *args, **kwargs):
        def run():
            report = getattr(probe, name)(*args, **kwargs)
            return None if report else f"{name} verdict failed"
        return run

    ops = []
    for name, spec in specs.items():
        for _ in range(SWEEP_EXACT_POINTS):
            t = tuple(Fraction(rng.randint(1, 5), rng.randint(6, 11))
                      for _ in range(spec.n_coords))
            ell = tuple(GaussianRational(Fraction(rng.randint(-3, 3), 7),
                                         Fraction(rng.randint(1, 4), 5))
                        for _ in range(spec.k))
            shifts = tuple(rng.randint(-3, 3) for _ in range(spec.k))
            ops.append(("exact", f"frame.{name}", 1, exact_point(spec, t, ell, shifts)))
        points = [tuple(Fraction(0) if j < spec.k
                        else Fraction(rng.randint(1, 9), rng.randint(10, 19))
                        for j in range(spec.n_coords))
                  for _ in range(SWEEP_STRATUM_POINTS)]
        ops.append(("exact", f"strata.{name}", len(points), strata(spec, points)))
        points = []
        for _ in range(SWEEP_FLOAT_POINTS):
            t = tuple(rng.uniform(0.05, 0.6) for _ in range(spec.n_coords))
            ell = tuple(complex(rng.uniform(-1, 1), rng.uniform(0.1, 1))
                        for _ in range(spec.k))
            points.append((t, ell, tuple(x + rng.randint(-3, 3) for x in ell)))
        ops.append(("float", f"norms.{name}", 2 * len(points), floats(spec, points)))
        deep = tuple(range(spec.k))
        ops.append(("probe", f"radial.{name}", 1, verdict("radial_limit", spec, deep)))
        for total in (1, 2):
            for powers in _compositions(total, spec.k):
                ops.append(("probe", f"term{powers}.{name}", 1,
                            verdict("term_vanishing", spec, powers)))
    spec = specs["hermitian"]
    for i in range(LEVI_GRID):
        for j in range(LEVI_GRID):
            base = (0.0, 0.05 + 0.1 * i + rng.uniform(-0.02, 0.02),
                    0.05 + 0.1 * j + rng.uniform(-0.02, 0.02))
            ops.append(("probe", f"levi{i}{j}.hermitian", 1,
                        verdict("levi_probe", spec, (0,), base=base)))
    return ops


def _compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in _compositions(total - first, parts - 1)]


# -- fresh ---------------------------------------------------------------------


def fresh_setup():
    """Each family's unmoved input and its fixed basis change."""
    from hodgenorm import fixtures
    builders = {"curve_pair": fixtures.curve_pair}
    for a in (1, 2, 3):
        builders[f"weight_one({a})"] = lambda a=a: fixtures.weight_one(a)
    for kind in (1, 2, 5):
        builders[f"weight_two({kind})"] = lambda kind=kind: fixtures.weight_two(kind)
    out = {}
    for name in FRESH_FAMILIES:
        v = builders[name]()
        out[name] = (v, fixtures.random_unimodular(random.Random(f"perfbench:{name}"), v.dim))
    return out


def signed_permutation(rng, n):
    from hodgenorm.exactlin import Mat
    order = list(range(n))
    rng.shuffle(order)
    return Mat([[rng.choice((-1, 1)) if j == order[i] else 0 for j in range(n)]
                for i in range(n)])


def moved(v, g):
    """The same structure written in the basis g: x -> g x."""
    from hodgenorm.induced import PureHodgeData
    from hodgenorm.mhs import NilpotentCone
    g_inv = g.inverse()
    q = g_inv.transpose() * v.q * g_inv
    cone = NilpotentCone([g * n * g_inv for n in v.cone.generators], q)
    return PureHodgeData(v.weight, q, v.f.apply(g), cone, v.w.apply(g))


def structure_facts(v):
    """Basis-independent facts of one input: induced diamond, m, verdicts."""
    from hodgenorm.induced import induce, locate_markers, tate_normalize
    from hodgenorm.lie import hermitian_test, lie_algebra, lie_deligne_split, smoothness_test
    from hodgenorm.mhs import deligne_split, polarization_check

    ind = tate_normalize(induce(v))
    st = ind.structure()
    split = deligne_split(st)
    m = locate_markers(ind).m
    polarized, _ = polarization_check(st, ind.cone)
    layers = lie_deligne_split(lie_algebra(v.q), v.structure())
    return {
        "dim": ind.dim,
        "diamond": {f"{p},{q}": d for (p, q), d in sorted(split.diamond().items())},
        "m": m,
        "polarized": polarized,
        "layers": {f"{p},{q}": d for (p, q), d in sorted(layers.diamond().items())},
        "hermitian": hermitian_test(layers)[0],
        "smooth": smoothness_test(layers)[0],
    }


def fresh_ops(rng, raw, expected):
    from hodgenorm import mhs
    from hodgenorm.fixtures import random_split_mixed_hodge

    def family(name, v, g):
        def run():
            facts = structure_facts(moved(v, g))
            if facts != expected[name]:
                wrong = sorted(k for k in facts if facts[k] != expected[name].get(k))
                return f"moved {name} differs in {wrong}"
            return None
        return run

    def split_random(st):
        def run():
            split = mhs.deligne_split(st)
            ok, detail = mhs.check_symmetries(split.diamond(), st.n)
            if not ok:
                return detail
            if split.total_dim() != st.ambient:
                return f"pieces fill {split.total_dim()} of {st.ambient}"
            return None
        return run

    ops = [("moved", name, 1, family(name, v, signed_permutation(rng, v.dim) * base))
           for name, (v, base) in raw.items()]
    for j in range(RANDOM_SPLITS):
        st = random_split_mixed_hodge(rng, max_dim=12)
        ops.append(("random", f"split{j}", 1, split_random(st)))
    return ops
