"""Checks of the benchmark itself: its correctness gates can fail.

    python3 -m pytest perfbench -q
"""

import argparse
import copy
import json
import random
import sys

import loads
import run
import tracer

sys.path.insert(0, str(run.ROOT / "src"))


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _report(capsys, workload, result):
    args = argparse.Namespace(workload=workload, seed=0, seconds=1, trace=0)
    prov = {"commit": None, "nproc": 1, "python": "", "numpy": "",
            "loadavg_before": (0.0,), "loadavg_after": (0.0,)}
    run.OUT.mkdir(exist_ok=True)
    run.report(args, prov, result)
    return _last_json(capsys)


def _setup_sample():
    return {"setup_s": 0.5, "import_s": 0.2, "usage": {"wall": 0.5, "cpu": 0.5, "rss_mb": 30.0}}


def test_tampered_cli_digest_raises_fail_ratio(capsys):
    reference = run.check_checkout()["cli"]
    ops = [op for op in loads.cli_ops(run.ROOT) if op[0] == "diamond.elliptic"]
    (run.OUT / "reports").mkdir(parents=True, exist_ok=True)

    good, _ = run.cli_pass(ops, reference)
    result = _report(capsys, "cli", {"setups": [_setup_sample()], "passes": [good]})
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1

    tampered = copy.deepcopy(reference)
    tampered["diamond.elliptic"]["report"] = "0" * 64
    bad, _ = run.cli_pass(ops, tampered)
    result = _report(capsys, "cli", {"setups": [_setup_sample()], "passes": [bad]})
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


def test_tampered_fresh_fact_fails_the_structure():
    raw = {"curve_pair": loads.fresh_setup()["curve_pair"]}
    expected = run.check_checkout()["fresh"]
    ops = [op for op in loads.fresh_ops(random.Random(1), raw, expected)
           if op[0] == "moved"]
    assert [fn() for _, _, _, fn in ops] == [None]

    tampered = copy.deepcopy(expected)
    tampered["curve_pair"]["m"] += 1
    ops = [op for op in loads.fresh_ops(random.Random(1), raw, tampered)
           if op[0] == "moved"]
    assert "m" in ops[0][3]()


def test_benchmark_json_lists_what_the_runs_print():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == ["cli", "sweep", "fresh"]


def test_tracer_counts_calls_through_every_binding():
    from hodgenorm import cli, mhs
    from hodgenorm.fixtures import elliptic

    structure, _ = elliptic()
    t = tracer.Tracer()
    t.install()
    try:
        mhs.deligne_split(structure)
        cli.deligne_split(structure)
    finally:
        t.uninstall()
    assert not hasattr(cli.deligne_split, "__wrapped__")
    assert not hasattr(cli.SUITE_RUNNERS["bracket"], "__wrapped__")
    stats, _, _ = tracer.layer_stats(t.spans)
    assert stats["mhs.deligne_split"]["calls"] == 2
    assert stats["exactlin.rref"]["calls"] > 0
    for name, _, _, parent, _, _ in t.spans:
        if name == "exactlin.rref":
            assert parent >= 0
