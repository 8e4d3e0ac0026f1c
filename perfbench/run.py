#!/usr/bin/env python3
"""kcirculant benchmark: one workload per call, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload lsd-radial --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload's operations run in this process
through kcirculant.cli.main and the layer functions, pass after pass, until
--seconds have gone by (at least MIN_PASSES passes). Every operation's output
is checked against perfbench/reference.json or against spectrum invariants.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs one
seeded pass alternately untraced and traced, and reports the per-layer metrics
from the spans of the traced passes. Full results, provenance and the spans go
to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2
SETUP_REPEATS = 5
IMPORT_PROFILE_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def tail_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if there is one."""
    n = len(values)
    if n < 11:
        return f"no tail percentile ({n} samples, need 11)"
    ordered = sorted(values)
    return f"p{100.0 * (n - 10) / n:.0f} {ordered[n - 11]:.4f}"


def provenance(seed: int, pool_size: int) -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "trial_pool_workers": pool_size,
        "KCIRC_THREADS": os.environ.get("KCIRC_THREADS"),
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": harness.git_commit(),
        "source_sha256": harness.source_digest(),
        "workload_seed": seed,
    }


def run_pass(runner, ops, failures: list, op_times: dict) -> tuple[float, float, list[str]]:
    """Execute one pass; returns (wall s, cpu s, output digests)."""
    wall = cpu = 0.0
    digests = []
    for op in ops:
        outcome = runner.execute(op)
        wall += outcome.wall
        cpu += outcome.cpu
        digests.append(outcome.digest)
        op_times.setdefault(op.slot, []).append([outcome.wall, outcome.cpu])
        failures.extend(f"{op.name}: {err}" for err in outcome.errors[:1])
    return wall, cpu, digests


def end_to_end(workload, runner, args, failures):
    """run_s and cpu_s sum, over the positions of a pass, the median time at that
    position. A burst of load on a shared machine then spoils single operations,
    which the medians drop, rather than whole passes."""
    rng = np.random.default_rng(args.seed)
    walls, cpus, attempted, op_times = [], [], 0, {}
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        ops = workload.draw_pass(rng, len(walls))
        wall, cpu, _ = run_pass(runner, ops, failures, op_times)
        walls.append(wall)
        cpus.append(cpu)
        attempted += len(ops)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_s = sum(statistics.median(w for w, _ in t) for t in op_times.values())
    cpu_s = sum(statistics.median(c for _, c in t) for t in op_times.values())
    notes = [f"run_s {run_s:.4f} s; pass wall median {statistics.median(walls):.4f} s, "
             f"{tail_percentile(walls)}, {len(walls)} passes"]
    metrics = {"run_s": run_s, "cpu_s": cpu_s, "peak_rss_mb": peak_mb}
    return metrics, attempted, notes, {"pass_wall_s": walls, "pass_cpu_s": cpus,
                                       "op_wall_cpu_s": op_times}


def per_layer(workload, runner, args, failures, self_errors):
    ops = workload.draw_pass(np.random.default_rng(args.seed), 0)
    plain, traced, layers, unbound, op_times = [], [], [], set(), {}
    start = time.perf_counter()
    spans_file = harness.OUT / f"{workload.name}-seed{args.seed}-spans.jsonl"
    while len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        # alternate which side goes first, so that drift within the run cancels
        untraced_first = len(traced) % 2 == 0
        if untraced_first:
            wall, _, reference_digests = run_pass(runner, ops, failures, op_times)
            plain.append(wall)
        runner.cache_hits = runner.cache_misses = 0
        with tracing.Tracer() as tracer:
            wall, _, digests = run_pass(runner, ops, failures, op_times)
        traced.append(wall)
        if not untraced_first:
            wall, _, reference_digests = run_pass(runner, ops, failures, op_times)
            plain.append(wall)
        unbound.update(tracer.unbound)
        if digests != reference_digests:
            self_errors.append("traced outputs differ from untraced outputs")
        metrics = tracing.layer_metrics(tracer.spans)
        lookups = runner.cache_hits + runner.cache_misses
        metrics["spectral.structure_misses"] = runner.cache_misses if lookups else None
        metrics["spectral.structure_hit_ratio"] = (runner.cache_hits / lookups
                                                   if lookups else None)
        layers.append(metrics)
        if len(layers) == 1:
            with open(spans_file, "w", encoding="ascii") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    for name in tracing.EXACT_COUNTS:
        if len({m[name] for m in layers}) > 1:
            self_errors.append(f"{name} differs between traced passes: "
                               f"{[m[name] for m in layers]}")
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers if m[name] is not None]
        exact = all(isinstance(v, int) for v in values)  # counts stay whole numbers
        median = statistics.median_low if exact else statistics.median
        metrics[name] = median(values) if values else None
    profiles = [harness.import_profile() for _ in range(IMPORT_PROFILE_REPEATS)]
    for package in ("scipy", "numpy", "kcirculant"):
        metrics[f"cli.import.{package}_s"] = statistics.median(p[package] for p in profiles)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    notes = [f"traced passes {len(traced)}: median {statistics.median(traced):.4f} s "
             f"vs untraced {statistics.median(plain):.4f} s"]
    if unbound:
        notes.append(f"trace targets the library no longer binds: {sorted(unbound)}")
    extra = {"untraced_pass_s": plain, "traced_pass_s": traced, "per_pass": layers,
             "op_wall_cpu_s": op_times,
             "spans_file": str(spans_file.relative_to(harness.ROOT))}
    return metrics, 2 * len(ops) * len(traced), notes, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(harness.ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    try:
        cli, montecarlo, spectral = harness.import_library()
        setup_times = [] if args.trace else harness.measure_setup(SETUP_REPEATS)
        reference = harness.load_reference()
    except (harness.SetupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    harness.OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    runner = harness.Runner(cli, spectral, reference, harness.OUT / f"{tag}-scratch")
    failures, self_errors = [], []
    with harness.PoolProbe(montecarlo) as probe:
        for argv_warm in workload.warmup:
            runner.run_cli(argv_warm)
        if args.trace:
            values, attempted, notes, extra = per_layer(workload, runner, args, failures,
                                                        self_errors)
            declared = spec["per_layer"]
        else:
            values, attempted, notes, extra = end_to_end(workload, runner, args, failures)
            values["setup_s"] = statistics.median(setup_times)
            declared = spec["end_to_end"]

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"BENCHMARK.json names metrics this run does not compute: {missing}")
    absent = [m["name"] for m in declared if values[m["name"]] is None]
    metrics = {m["name"]: {"value": values[m["name"]] or 0, "unit": m["unit"]}
               for m in declared}

    failed = len(failures)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(note)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"setup_s samples {[round(t, 4) for t in setup_times]}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations)")
    if absent:
        print(f"absent (this workload never exercises them; 0 in the result line): "
              f"{', '.join(absent)}")
    for message in (failures + self_errors)[:10]:
        print(f"check failed: {message}", file=sys.stderr)
    prov = provenance(args.seed, probe.pool_size)
    print("provenance " + json.dumps(prov, sort_keys=True))

    result = {"correct": not failures and not self_errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(harness.OUT / f"{tag}.json", "w", encoding="ascii") as fh:
        json.dump({"result": result, "absent": absent, "notes": notes,
                   "provenance": prov, "setup_s": setup_times, "failures": failures,
                   "self_check_errors": self_errors, **extra}, fh, indent=1)
    shutil.rmtree(runner.scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
