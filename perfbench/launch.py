"""Traced `hodge` process: run one command with every layer wrapped in spans.

    python3 perfbench/launch.py SPANS.json OP_ID -- HODGE ARGS...

Behaves like `python -m hodgenorm.cli HODGE ARGS...` (same stdout, report
and exit code) and, at exit, writes its import time, largest exact entry
size and spans to SPANS.json.
"""

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402


def main(argv):
    spans_path, op_id, separator, *hodge_args = argv
    if separator != "--":
        raise SystemExit("usage: launch.py SPANS.json OP_ID -- HODGE ARGS...")
    started = time.perf_counter()
    from hodgenorm import cli
    import_s = time.perf_counter() - started
    tracer = tracing.Tracer()
    tracer.op = op_id
    tracer.install()
    try:
        code = cli.main(hodge_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "max_bits": tracer.max_bits,
                       "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
