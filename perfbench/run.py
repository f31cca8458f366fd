#!/usr/bin/env python3
"""The repository benchmark: λ-trim pipeline speed and fleet replay speed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload trim --seed 1 --seconds 10 --trace 0

Workloads are ``trim``, ``replay-day`` and ``replay-chaos`` (see
``perfbench/README.md``).  With ``--trace 0`` the last stdout line is a
JSON object carrying the end-to-end metrics listed in ``BENCHMARK.json``;
with ``--trace 1`` a separate traced run reports the per-layer metrics.
Earlier stdout lines carry human-readable detail: workload-specific
numbers (``trim_s``, ``init_saved_pct``, ``replay_inv_per_s``, ...), the
deterministic counts and whether they match
``perfbench/counts.json``.  ``--record-counts`` stores this run's counts
there (maintainers only; the counts pin replay exports byte for byte).

Scratch files live under ``.perfbench-work/`` in the checkout and are
removed at exit, except the traced run's spans
(``.perfbench-work/spans-<workload>-seed<seed>.jsonl``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
COUNTS = HERE / "counts.json"
SPEC = ROOT / "BENCHMARK.json"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-counts", action="store_true")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(
            f"perfbench: program sources not found under {SRC.name}/repro "
            "(run from the root of a full checkout)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    factory = WORKLOADS[args.workload]
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        measured, attempted, failed, counts = run(args, factory, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    recorded = json.loads(COUNTS.read_text(encoding="utf-8")) if COUNTS.is_file() else {}
    pinned = recorded.get(args.workload, {}).get(str(args.seed))
    counts = json.loads(json.dumps(counts))
    if pinned is None:
        state = "unrecorded"
    elif pinned == counts:
        state = "match"
    else:
        state = "CHANGED"
        for reason in factory.regressions(pinned, counts):
            print(f"perfbench: regression vs counts.json: {reason}", file=sys.stderr)
            failed = attempted
    print(f"counts {args.workload} seed={args.seed} vs counts.json: {state}")
    print("counts " + json.dumps(counts, sort_keys=True))
    if args.record_counts:
        recorded.setdefault(args.workload, {})[str(args.seed)] = counts
        COUNTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        value, unit = measured[entry["name"]]
        if unit != entry["unit"]:
            raise SystemExit(f"perfbench: {entry['name']} unit {unit} != {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run(args, factory, run_dir: Path):
    """Set up, measure, check; returns (metrics, attempted, failed, counts)."""
    import layers
    from tracer import Tracer
    from workloads import fresh_dir

    tracer = Tracer() if args.trace else None
    setups = []
    for _ in range(factory.setup_repeats):
        # Drop the previous set-up first, so its inputs are not alive
        # (and traversed by the garbage collector) while the next is built.
        workload = None
        target = fresh_dir(run_dir / "setup")
        gc.collect()
        workload = factory(args.seed)
        workload.tracer = tracer
        started = time.perf_counter()
        workload.setup(target)
        setups.append(time.perf_counter() - started)
        workload.tracer = None

    out = run_dir / "out"

    def measure(traced: bool):
        fresh_dir(out)
        gc.collect()
        if traced:
            layers.install(tracer)
            workload.tracer = tracer
        try:
            unit = workload.measure(out)
        finally:
            if traced:
                tracer.uninstall()
                workload.tracer = None
        workload.check(unit)
        return unit

    units = []
    started = time.perf_counter()
    while True:
        units.append(measure(traced=False))
        if args.trace or time.perf_counter() - started >= args.seconds:
            break
    rss = peak_rss_mb()
    traced = None
    if args.trace:
        # The first unit warms what later units reuse (the bundles'
        # compiled bytecode, the allocator), so the overhead compares the
        # traced unit with an untraced unit measured after it.
        traced = measure(traced=True)
        units.append(measure(traced=False))

    checked = units + ([traced] if traced is not None else [])
    attempted = sum(u.attempted for u in checked)
    failed = sum(u.failed for u in checked)
    failed += workload.final_check(units[-1], out)
    if any(u.counts != checked[0].counts for u in checked):
        print("perfbench: deterministic counts differ between units of one run",
              file=sys.stderr)
        failed = attempted

    for name, (value, unit_name) in workload.summary(units).items():
        print(f"{args.workload} {name} {value} {unit_name}")
    print(f"{args.workload} fail_ratio {failed / attempted} ratio")
    print(f"{args.workload} units {len(checked)} setups "
          + " ".join(f"{s:.3f}" for s in setups))

    if traced is not None:
        warm = units[-1]
        measured = layers.metrics(tracer)
        measured.update(workload.layer_counts(traced))
        measured["bench.trace_overhead_pct"] = (
            100.0 * (traced.seconds - warm.seconds) / warm.seconds, "%"
        )
        tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        measured = {
            "setup_s": (statistics.median(setups), "s"),
            "work_s": (statistics.median(u.seconds for u in units), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    return measured, attempted, failed, units[-1].counts


if __name__ == "__main__":
    sys.exit(main())
