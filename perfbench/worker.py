"""One benchmark child process: set up a workload, then optionally run it.

    python3 perfbench/worker.py WORKLOAD SEED T0 OUT.json [SECONDS TRACE]

T0 is the parent's time.monotonic() just before it started this process
(the clock is system-wide), so the recorded setup time covers interpreter
start, `import hodgenorm.cli`, fixture loading and the workload's own set-up.
Without SECONDS the process stops after set-up; with it, it runs the
library workload (`sweep` or `fresh`) in this one process: whole passes
while they fit in SECONDS, at least one.  With TRACE=1 passes alternate
untraced and traced (each traced pass on the inputs of the untraced one
before it), and the per-layer numbers come from the set-up plus the first
traced pass.
"""

import json
import pathlib
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import loads  # noqa: E402
import tracer as tracing  # noqa: E402


def setup(workload):
    if workload == "cli":
        from hodgenorm.cli import load_fixture
        return {name: load_fixture(loads.fixture_path(name)) for name in loads.FIXTURES}
    if workload == "sweep":
        return loads.sweep_setup()
    return loads.fresh_setup()


def make_ops(workload, seed, inputs, reference):
    if workload == "sweep":
        ops = loads.sweep_ops(random.Random(f"{seed}:sweep"), inputs)
        return lambda index: ops
    expected = reference["fresh"]
    return lambda index: loads.fresh_ops(random.Random(f"{seed}:fresh:{index}"),
                                         inputs, expected)


def run_pass(ops, tracer=None):
    records = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for index, (kind, label, weight, fn) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            problem = fn()
        except Exception as exc:  # an operation that raises is a failed operation
            problem = f"{type(exc).__name__}: {exc}"
        records.append({"kind": kind, "label": label, "weight": weight,
                        "wall": time.perf_counter() - start, "error": problem})
    return {"wall": time.perf_counter() - wall0, "cpu": time.process_time() - cpu0,
            "traced": tracer is not None, "ops": records}


def main(argv):
    workload, seed, t0, out = argv[0], int(argv[1]), float(argv[2]), argv[3]
    seconds = float(argv[4]) if len(argv) > 4 else None
    trace = len(argv) > 5 and argv[5] == "1"
    started = time.perf_counter()
    import hodgenorm.cli  # noqa: F401
    import_s = time.perf_counter() - started
    with open(ROOT / "perfbench" / "reference.json", encoding="utf-8") as handle:
        reference = json.load(handle)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.op = "setup"
        tracer.install()
    inputs = setup(workload)
    setup_s = time.monotonic() - t0
    result = {"setup_s": setup_s, "import_s": import_s}
    if seconds is not None:
        if tracer is not None:
            tracer.uninstall()
        ops_for = make_ops(workload, seed, inputs, reference)
        kept = []

        def one_pass(index, traced):
            # a traced pass repeats the inputs of the untraced pass before it,
            # so the overhead ratio compares like with like
            ops = ops_for(index // 2 if trace else index)
            if not traced:
                return run_pass(ops)
            if kept:  # keep the set-up spans for the first traced pass
                tracer.spans.clear()
            tracer.install()
            try:
                return run_pass(ops, tracer)
            finally:
                tracer.uninstall()
                if not kept:
                    kept.extend(tracer.spans)

        result["passes"] = passes = loads.schedule(one_pass, seconds, trace)
        if trace:
            stats, per_fixture, check_orbits = tracing.layer_stats(kept)
            result["per_layer"] = tracing.per_layer_metrics(
                stats, per_fixture, check_orbits, import_s, tracer.max_bits,
                tracing.overhead_ratio(passes))
            result["spans"] = kept
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
