"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit whose outputs are the
reference.  Writes perfbench/reference.json with, for every cli operation,
the exit code and the SHA-256 of stdout and of the `--report` bytes, and,
for every fresh-workload family, the basis-independent facts of its
unmoved input.
"""

import json
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(BENCH))

import loads  # noqa: E402
import run  # noqa: E402


def main():
    (run.OUT / "reports").mkdir(parents=True, exist_ok=True)
    cli = {}
    for op_id, argv in loads.cli_ops(ROOT):
        record, _ = run.cli_op(op_id, argv, {}, traced=False)
        cli[op_id] = record["digests"]
        print(f"{op_id}: exit {record['exit']}", file=sys.stderr)
    fresh = {name: loads.structure_facts(v) for name, (v, _) in loads.fresh_setup().items()}
    with open(BENCH / "reference.json", "w", encoding="utf-8") as handle:
        json.dump({"cli": cli, "fresh": fresh}, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
