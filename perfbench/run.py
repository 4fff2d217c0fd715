"""hodgenorm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli,sweep,fresh} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/`, nothing is installed.  Workloads:

* cli    every `hodge` command on every shipped fixture, each a fresh
         `python -m hodgenorm.cli` process, one at a time, in an order the
         seed shuffles; exit code, stdout and `--report` bytes are checked
         against digests recorded at the seed commit (reference.json).
* sweep  library calls in one process on the five orbit fixtures: exact
         frames, monodromy and stratum values, float norms and probes at
         seeded points, each checked against a seed-independent fact.
* fresh  seeded random basis changes of the cone-carrying input families
         through the whole exact pipeline, plus random split structures,
         in one process; never the same input twice.

A run measures whole passes over the workload's operation list while they
fit in --seconds (at least one).  Set-up (fresh interpreter, import, fixture
loading, workload set-up) is measured in five separate processes and its
median reported.  Every process runs under a 2 GiB address-space cap, so a
blow-up fails one operation instead of the machine.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics (see tracer.py), writing
spans next to the result file in .perfbench-out/.  The last line of stdout
is the JSON result; the lines before it are the same numbers for people,
with the workload-specific figures, provenance and the fail ratio.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import pathlib
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 5
ADDRESS_SPACE_CAP = 2 << 30

sys.path.insert(0, str(BENCH))

import loads  # noqa: E402
import tracer as tracing  # noqa: E402

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# -- child processes ---------------------------------------------------------


def spawn(argv, env=None, capture=False):
    """Run one child to completion; wall, CPU and peak RSS from wait4."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        out = proc.stdout.read() if capture else b""
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        if capture:
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": time.perf_counter() - started,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode, "stdout": out}


def run_worker(workload, seed, out, extra=()):
    """A worker process; returns its result file merged with its usage."""
    if out.exists():
        out.unlink()
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
            repr(time.monotonic()), str(out), *extra]
    usage = spawn(argv)
    if usage["exit"] != 0 or not out.exists():
        raise BenchError(f"{workload} worker exited {usage['exit']}")
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    result["usage"] = {k: usage[k] for k in ("wall", "cpu", "rss_mb")}
    return result


def setup_samples(workload, seed, count):
    return [run_worker(workload, seed, OUT / f"setup-{workload}-{i}.json")
            for i in range(count)]


# -- cli workload ------------------------------------------------------------


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def cli_op(op_id, argv, expected, traced):
    """Run one `hodge` command; returns its record and, if traced, its spans."""
    report = OUT / "reports" / f"{op_id}.json"
    if report.exists():
        report.unlink()
    hodge = [*argv, "--report", str(report)]
    spans_file = OUT / "spans" / f"{op_id}.json"
    if traced:
        cmd = [sys.executable, str(BENCH / "launch.py"), str(spans_file), op_id, "--", *hodge]
    else:
        cmd = [sys.executable, "-m", "hodgenorm.cli", *hodge]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    usage = spawn(cmd, env=env, capture=True)
    got = {"exit": usage["exit"], "stdout": sha256(usage["stdout"]),
           "report": sha256(report.read_bytes()) if report.exists() else None}
    wrong = sorted(k for k in got if got[k] != expected.get(k))
    record = {"id": op_id, "metric": loads.cli_metric(op_id), "wall": usage["wall"],
              "cpu": usage["cpu"], "rss_mb": usage["rss_mb"], "exit": usage["exit"],
              "digests": got, "error": f"differs from reference in {wrong}" if wrong else None}
    spans = None
    if traced and spans_file.exists():
        with open(spans_file, encoding="utf-8") as handle:
            spans = json.load(handle)
        spans_file.unlink()
    return record, spans


def cli_pass(ops, reference, traced=False):
    records, traces = [], []
    started = time.perf_counter()
    for op_id, argv in ops:
        record, spans = cli_op(op_id, argv, reference.get(op_id, {}), traced)
        records.append(record)
        if traced:
            traces.append((op_id, spans))
    wall = time.perf_counter() - started
    return {"wall": wall, "cpu": sum(r["cpu"] for r in records), "traced": traced,
            "ops": records}, traces


def cli_layers(traces):
    """Per-layer stats of one traced cli pass, plus all its spans."""
    total, per_fixture, check_orbits = {}, {}, 0
    imports, max_bits, spans = [], 0, []
    for op_id, data in traces:
        if data is None:
            continue
        command, fixture = op_id.split(".", 1)
        stats, fixture_s, orbits = tracing.layer_stats(
            data["spans"], {op_id: (command, fixture)})
        for name, entry in stats.items():
            into = total.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
        for name, s in fixture_s.items():
            per_fixture[name] = per_fixture.get(name, 0.0) + s
        check_orbits += orbits
        imports.append(data["import_s"])
        max_bits = max(max_bits, data["max_bits"])
        offset = len(spans)
        spans += [[n, a, b, p + offset if p >= 0 else -1, op, nested]
                  for n, a, b, p, op, nested in data["spans"]]
    import_s = statistics.median(imports) if imports else 0.0
    return total, per_fixture, check_orbits, import_s, max_bits, spans


def run_cli(seed, seconds, trace, reference):
    ops = loads.cli_ops(ROOT)
    random.Random(f"{seed}:cli").shuffle(ops)
    for sub in ("reports", "spans"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    setups = [] if trace else setup_samples("cli", seed, SETUP_SAMPLES)
    first_trace = []

    def one_pass(index, traced):
        done, traces = cli_pass(ops, reference["cli"], traced)
        if traced and not first_trace:
            first_trace.extend(traces)
        return done

    passes = loads.schedule(one_pass, seconds, trace)
    result = {"setups": setups, "passes": passes}
    if trace:
        stats, per_fixture, orbits, import_s, max_bits, spans = cli_layers(first_trace)
        result["per_layer"] = tracing.per_layer_metrics(
            stats, per_fixture, orbits, import_s, max_bits, tracing.overhead_ratio(passes))
        result["spans"] = spans
    return result


# -- library workloads -------------------------------------------------------


def run_library(workload, seed, seconds, trace):
    setups = [] if trace else setup_samples(workload, seed, SETUP_SAMPLES - 1)
    extra = (repr(float(seconds)), "1" if trace else "0")
    result = run_worker(workload, seed, OUT / f"run-{workload}.json", extra)
    if not trace:
        setups.append(result)
    result["setups"] = setups
    return result


# -- metrics -----------------------------------------------------------------


def summary(samples):
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    for q in (99.9, 99, 95, 90, 75):
        if n * (1 - q / 100) >= 10:
            out[f"p{q:g}"] = ordered[min(n - 1, -(-int(q * n) // 100) - 1)]
            break
    return out


def describe(stats):
    tail = [f"{k} {v:.4g}" for k, v in stats.items() if k.startswith("p")]
    return f"median {stats['median']:.4g}" + "".join(f", {t}" for t in tail) + f", n={stats['n']}"


def workload_figures(workload, passes):
    """The workload-specific end-to-end figures, from untraced passes."""
    figures = {}
    if workload == "cli":
        for name in ("check_s", "lie_s", "probe_s", "query_s"):
            sums = [sum(op["wall"] for op in p["ops"] if op["metric"] == name)
                    for p in passes]
            figures[name] = (statistics.median(sums), "s")
        return figures
    ops = [op for p in passes for op in p["ops"]]

    def rate(kinds):
        done = [op for op in ops if op["kind"] in kinds]
        return sum(op["weight"] for op in done) / sum(op["wall"] for op in done)

    if workload == "sweep":
        figures["exact_evals_per_s"] = (rate({"exact"}), "1/s")
        figures["float_evals_per_s"] = (rate({"float"}), "1/s")
        figures["probes_per_s"] = (rate({"probe"}), "1/s")
    else:
        figures["structures_per_s"] = (rate({"moved", "random"}), "1/s")
    return figures


def provenance():
    def commit():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                 capture_output=True, text=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"commit": commit(), "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "loadavg_before": os.getloadavg()}


def check_checkout():
    if not (ROOT / "src" / "hodgenorm" / "cli.py").is_file():
        raise BenchError(f"no hodgenorm sources under {ROOT / 'src'}")
    reference = BENCH / "reference.json"
    if not reference.is_file():
        raise BenchError(f"missing {reference}")
    with open(reference, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli", "sweep", "fresh"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        reference = check_checkout()
        OUT.mkdir(exist_ok=True)
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
        prov = dict(provenance(), workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace)
        if args.workload == "cli":
            result = run_cli(args.seed, args.seconds, args.trace, reference)
        else:
            result = run_library(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    prov["loadavg_after"] = os.getloadavg()
    report(args, prov, result)
    return 0


def report(args, prov, result):
    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["error"]]
    setups = result["setups"]
    rss = [op["rss_mb"] for p in passes for op in p["ops"] if "rss_mb" in op]
    rss += [s["usage"]["rss_mb"] for s in setups]
    if "usage" in result:
        rss.append(result["usage"]["rss_mb"])
    timings = {"pass_s": summary([p["wall"] for p in untraced]),
               "pass_cpu_s": summary([p["cpu"] for p in untraced])}
    if setups:
        timings["setup_s"] = summary([s["setup_s"] for s in setups])
    kinds = sorted({op.get("metric") or op["kind"] for op in ops})
    for kind in kinds:
        walls = [op["wall"] for op in ops if (op.get("metric") or op["kind"]) == kind]
        timings[f"op.{kind}"] = summary(walls)
    figures = workload_figures(args.workload, untraced)
    fail_ratio = len(failed) / len(ops)

    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
             f"commit={prov['commit']} nproc={prov['nproc']} python={prov['python']} "
             f"numpy={prov['numpy']} loadavg {prov['loadavg_before'][0]:.2f} -> "
             f"{prov['loadavg_after'][0]:.2f}"]
    for name, stats in timings.items():
        lines.append(f"  {name:<22} {describe(stats)} s")
    for name, (value, unit) in figures.items():
        lines.append(f"  {name:<22} {value:.6g} {unit}")
    lines.append(f"  {'peak_rss_mb':<22} {max(rss):.1f} MB")
    lines.append(f"  {'fail_ratio':<22} {fail_ratio:.4g} ({len(failed)}/{len(ops)})")
    for op in failed[:10]:
        lines.append(f"  FAILED {op.get('id') or op['label']}: {op['error']}")

    if args.trace:
        metrics = result["per_layer"]
        for name, entry in metrics.items():
            lines.append(f"  {name:<44} {entry['value']:.6g} {entry['unit']}")
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump({"provenance": prov, "per_layer": metrics,
                       "spans": result.get("spans", [])}, handle)
    else:
        values = {"setup_s": timings["setup_s"]["median"],
                  "pass_s": timings["pass_s"]["median"], "peak_rss_mb": max(rss)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump({"provenance": prov, "metrics": metrics, "timings": timings,
                   "figures": figures, "fail_ratio": fail_ratio,
                   "setups": [{k: s[k] for k in ("setup_s", "import_s", "usage")}
                              for s in setups],
                   "passes": passes}, handle, indent=1)
    for line in lines:
        print(line)
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    raise SystemExit(main())
