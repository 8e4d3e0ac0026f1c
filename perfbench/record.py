#!/usr/bin/env python3
"""Record the reference outputs that run.py checks against.

    python3 perfbench/record.py [--workload NAME ...]

Runs every pooled command of the chosen workloads (all by default) once and
stores its exit code, report pass field, hypothesis block and aggregates, or
the partition JSON, in perfbench/reference.json. Record only at a commit whose
outputs are known good: the benchmark treats these as ground truth.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    cli, _, spectral = harness.import_library()
    data = {"meta": {}, "commands": {}}
    if REFERENCE.exists():
        data = json.loads(REFERENCE.read_text(encoding="ascii"))
    harness.OUT.mkdir(exist_ok=True)
    runner = harness.Runner(cli, spectral, None, harness.OUT / "record-scratch")
    for name in args.workload or sorted(WORKLOADS):
        for op in WORKLOADS[name].reference_ops():
            t0 = time.perf_counter()
            outcome = runner.execute(op)
            if outcome.errors:
                raise SystemExit(f"{op.ref_key} crashed: {outcome.errors[0]}")
            data["commands"][op.ref_key] = outcome.summary
            print(f"{op.ref_key} exit={outcome.summary['exit']} "
                  f"{time.perf_counter() - t0:.2f}s", flush=True)
    data["meta"] = {"commit": harness.git_commit(),
                    "source_sha256": harness.source_digest()}
    REFERENCE.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
