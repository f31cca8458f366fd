"""The benchmark's workloads: λ-trim over catalog apps, and fleet replay.

Each workload builds its inputs from the seed (:meth:`setup`), runs one
timed unit of work through the program's public entry points
(:meth:`measure`), and checks that unit's outputs outside the timed
region (:meth:`check`).  ``trim`` drives ``LambdaTrim.run``; the two
``replay-*`` workloads drive ``FleetTrace.generate_invocations`` +
``replay_fleet`` the way ``repro replay`` users run it (per-function log
shards, a merged log, spill threshold and dead-letter export).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from repro.core.fallback import TRIGGER_ERRORS
from repro.core.oracle import OracleSpec
from repro.core.pipeline import LambdaTrim, TrimConfig
from repro.platform import (
    FaultPlan,
    FaultRates,
    HostConfig,
    HostFault,
    LambdaEmulator,
    RetryPolicy,
    replay_fleet,
)
from repro.traces import FleetTrace
from repro.workloads.apps import build_app
from repro.workloads.toy import build_toy_torch_app

from tracer import Tracer

#: Two probe-heavy apps (resnet 422 probes, huggingface 439) and three
#: light ones where analyze/profile/call graph dominate: 1022 probes.
TRIM_APPS = ("resnet", "huggingface", "scikit", "jsym", "dna-visualization")
FLEET_EVENT = {"x": [1.0, 2.0], "y": [3.0, 4.0]}
#: Merged logs above ~560k rows (256 MiB) take replay_fleet's streaming
#: merge; both fleet sizes stay well clear of that threshold so every seed
#: takes the same path (replay-day streams, replay-chaos sorts in memory).
DAY_INVOCATIONS = 700_000
CHAOS_INVOCATIONS = 150_000
MAX_PER_FUNCTION = 6250
SPILL_THRESHOLD = 4096
#: Reference-engine cross-check budget (the reference engine replays at
#: ~2k inv/s, so the sample stays small).
SAMPLE_FUNCTIONS = 6
SAMPLE_ARRIVALS = 5000


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclasses.dataclass
class Unit:
    """One timed unit of work and what its checks found."""

    seconds: float
    attempted: int
    failed: int = 0
    counts: dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Workload-specific values the checks derive (per-app savings, ...).
    extra: dict[str, Any] = dataclasses.field(default_factory=dict)


class Workload:
    name = ""
    #: Set-ups per run, each on a fresh instance; ``setup_s`` is their median.
    setup_repeats = 9

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer: Tracer | None = None

    def span(self, name: str, ident: str | None = None):
        return self.tracer.span(name, ident) if self.tracer else nullcontext()

    def setup(self, root: Path) -> None:
        raise NotImplementedError

    def measure(self, out: Path) -> Unit:
        raise NotImplementedError

    def check(self, unit: Unit) -> None:
        raise NotImplementedError

    def final_check(self, unit: Unit, out: Path) -> int:
        """Extra out-of-band checks on the last unit; returns failures."""
        return 0

    def summary(self, units: list[Unit]) -> dict[str, tuple[float, str]]:
        """Workload-specific numbers printed on human-readable lines."""
        return {}

    @staticmethod
    def regressions(pinned: dict[str, Any], counts: dict[str, Any]) -> list[str]:
        """Why counts that differ from the pinned ones fail the run.

        Replay exports are pinned byte for byte: a speed change must
        leave every count and digest alone.
        """
        return ["deterministic counts changed"]

    def layer_counts(self, unit: Unit) -> dict[str, tuple[float, str]]:
        """Per-layer numbers that come from results rather than spans.

        Every workload reports all of them; a layer the workload bypasses
        reads zero.
        """
        return {**_trim_counts({}), **_replay_counts({})}


# ---------------------------------------------------------------------------
# trim


class TrimWorkload(Workload):
    name = "trim"

    def setup(self, root: Path) -> None:
        self.bundles = [build_app(app, root / app) for app in TRIM_APPS]

    def measure(self, out: Path) -> Unit:
        unit = Unit(seconds=0.0, attempted=len(self.bundles))
        reports = {}
        for bundle in self.bundles:
            started = time.perf_counter()
            try:
                with self.span("core.pipeline.run", bundle.name):
                    report = LambdaTrim(TrimConfig(seed=self.seed)).run(
                        bundle, out / bundle.name
                    )
            except Exception:
                traceback.print_exc()
                reports[bundle.name] = None
                continue
            finally:
                unit.seconds += time.perf_counter() - started
            reports[bundle.name] = report
        unit.extra["reports"] = reports
        return unit

    def check(self, unit: Unit) -> None:
        """Every oracle case, original vs trimmed, through the emulator."""
        reports = unit.extra.pop("reports")
        totals = {"init_original": 0.0, "init_trimmed": 0.0,
                  "cost_original": 0.0, "cost_trimmed": 0.0}
        apps: dict[str, dict[str, Any]] = {}
        for bundle in self.bundles:
            report = reports[bundle.name]
            if report is None:
                unit.failed += 1
                continue
            try:
                row = self._emulate(bundle, report.output)
            except Exception:
                traceback.print_exc()
                unit.failed += 1
                continue
            if not (row.pop("outputs_equal") and report.verify_passed):
                unit.failed += 1
            for key in totals:
                totals[key] += row[key]
            row.update(
                probes=report.oracle_calls,
                cache_hits=sum(r.cache_hits for r in report.module_results),
                attributes_removed=report.attributes_removed,
                verify_passed=report.verify_passed,
                init_saved_pct=_saved_pct(row["init_original"], row["init_trimmed"]),
            )
            apps[bundle.name] = row
        unit.extra["apps"] = apps
        unit.extra["init_saved_pct"] = _saved_pct(
            totals["init_original"], totals["init_trimmed"]
        )
        unit.extra["cold_cost_saved_pct"] = _saved_pct(
            totals["cost_original"], totals["cost_trimmed"]
        )
        unit.counts = {
            "apps": {name: {k: repr(v) if isinstance(v, float) else v
                            for k, v in row.items()}
                     for name, row in apps.items()},
            "probes": sum(row["probes"] for row in apps.values()),
            "attributes_removed": sum(
                row["attributes_removed"] for row in apps.values()
            ),
            "init_saved_pct": repr(unit.extra["init_saved_pct"]),
            "cold_cost_saved_pct": repr(unit.extra["cold_cost_saved_pct"]),
        }

    @staticmethod
    def _emulate(original, trimmed) -> dict[str, Any]:
        """Forced cold start of both bundles, then every case warm.

        The reference is the original app's own output, not λ-trim's
        oracle: values must match, and the trimmed bundle must never hit
        a fallback trigger (AttributeError/NameError/ImportError).
        """
        emulator = LambdaEmulator()
        emulator.deploy(original, name="original")
        emulator.deploy(trimmed, name="trimmed")
        row: dict[str, Any] = {"outputs_equal": True}
        for index, case in enumerate(OracleSpec.from_bundle(original)):
            first = index == 0
            before = emulator.invoke(
                "original", case.event, case.context, force_cold=first
            )
            after = emulator.invoke(
                "trimmed", case.event, case.context, force_cold=first
            )
            if first:
                row["init_original"] = before.init_duration_s
                row["init_trimmed"] = after.init_duration_s
                row["cost_original"] = before.cost_usd
                row["cost_trimmed"] = after.cost_usd
            if not (
                before.ok
                and after.ok
                and after.error_type not in TRIGGER_ERRORS
                and before.value == after.value
            ):
                row["outputs_equal"] = False
        return row

    def summary(self, units: list[Unit]) -> dict[str, tuple[float, str]]:
        last = units[-1]
        return {
            "trim_s": (statistics.median(u.seconds for u in units), "s"),
            "init_saved_pct": (last.extra.get("init_saved_pct", 0.0), "%"),
            "cold_cost_saved_pct": (last.extra.get("cold_cost_saved_pct", 0.0), "%"),
        }

    def layer_counts(self, unit: Unit) -> dict[str, tuple[float, str]]:
        return {**super().layer_counts(unit), **_trim_counts(unit.extra)}

    @staticmethod
    def regressions(pinned: dict[str, Any], counts: dict[str, Any]) -> list[str]:
        """Trim quality may not drop below the pinned run's.

        Probe and attribute counts may move with the search; they are
        reported, not failed.
        """
        found = [
            f"{key} {counts[key]} < {pinned[key]}"
            for key in ("init_saved_pct", "cold_cost_saved_pct")
            if float(counts[key]) < float(pinned[key]) - 1e-9
        ]
        found += [
            f"{app} verify_passed lost"
            for app, row in pinned["apps"].items()
            if row["verify_passed"]
            and not counts["apps"].get(app, {}).get("verify_passed")
        ]
        return found


def _trim_counts(extra: dict[str, Any]) -> dict[str, tuple[float, str]]:
    values = {
        "trim.init_saved_pct": (extra.get("init_saved_pct", 0.0), "%"),
        "trim.cold_cost_saved_pct": (extra.get("cold_cost_saved_pct", 0.0), "%"),
    }
    apps = extra.get("apps", {})
    for app in TRIM_APPS:
        values[f"app.{app}.init_saved_pct"] = (
            apps.get(app, {}).get("init_saved_pct", 0.0), "%"
        )
    return values


def _saved_pct(original: float, trimmed: float) -> float:
    return 100.0 * (1.0 - trimmed / original) if original else 0.0


# ---------------------------------------------------------------------------
# replay


class ReplayWorkload(Workload):
    invocations: int
    result = None

    def replay_options(self) -> dict[str, Any]:
        return {}

    def setup(self, root: Path) -> None:
        self.bundle = build_toy_torch_app(root / "toy")
        with self.span("traces.fleet.generate"):
            self.trace = FleetTrace.generate_invocations(
                self.invocations, seed=self.seed, max_per_function=MAX_PER_FUNCTION
            )

    def _replay(self, trace: FleetTrace, out: Path, **extra):
        return replay_fleet(
            self.bundle,
            trace,
            FLEET_EVENT,
            workers=1,
            log_dir=out / "logs",
            merged_log=out / "merged.jsonl",
            spill_threshold=SPILL_THRESHOLD,
            dead_letters=out / "dead-letters.jsonl",
            verify_ledger=True,
            **self.replay_options(),
            **extra,
        )

    def measure(self, out: Path) -> Unit:
        # Only the latest unit's result is kept (final_check reads it),
        # so memory does not grow with the number of units in a run.
        self.result = None
        arrivals = self.trace.invocations
        started = time.perf_counter()
        try:
            with self.span("platform.fleet"):
                result = self._replay(self.trace, out)
        except Exception:
            traceback.print_exc()
            result = None
        unit = Unit(seconds=time.perf_counter() - started, attempted=arrivals)
        self.result = result
        unit.extra["wall_s"] = result.wall_s if result is not None else 0.0
        return unit

    def check(self, unit: Unit) -> None:
        result = self.result
        if result is None:
            unit.failed = unit.attempted
            return
        # Every arrival must be delivered or dead-lettered (lost == 0).
        unit.failed += max(0, unit.attempted - result.arrivals) + sum(
            max(0, s.arrivals - s.delivered - s.dead_letters)
            for s in result.stats.values()
        )
        stats = result.stats.values()
        meta = result.report.meta
        unit.counts = {
            "functions": len(result.stats),
            "arrivals": result.arrivals,
            "records": result.records,
            "delivered": result.delivered,
            "dead_letters": sum(s.dead_letters for s in stats),
            "retries": sum(s.retries for s in stats),
            "cold_starts": sum(s.cold_starts for s in stats),
            "warm_starts": sum(s.warm_starts for s in stats),
            "status_counts": dict(sorted(result.status_counts().items())),
            "hosts": {
                key: meta["hosts"][key]
                for key in ("placements", "evictions", "instances_lost",
                            "capacity_throttles", "host_crashes", "spot_reclaims")
            } if "hosts" in meta else None,
            "cost_usd": repr(result.total_cost),
            "merged_log_sha256": sha256_file(result.merged_log),
            "dead_letters_sha256": sha256_file(result.dead_letters),
        }

    def final_check(self, unit: Unit, out: Path) -> int:
        """Replay a seeded sample of functions on the reference engine.

        Per-function log shards, rollups, bills, stats and dead letters
        must be identical to the timed run's (the last unit measured).
        Returns the arrivals of sampled functions that differ.
        """
        result = self.result
        if result is None:
            return 0
        rng = random.Random(f"perfbench:{self.seed}:reference-sample")
        names = sorted(self.trace.functions)
        rng.shuffle(names)
        picked: list[str] = []
        budget = SAMPLE_ARRIVALS
        for name in names:
            size = self.trace.for_function(name).invocations
            if size <= budget:
                picked.append(name)
                budget -= size
            if len(picked) == SAMPLE_FUNCTIONS:
                break
        sample = FleetTrace(tuple(self.trace.for_function(n) for n in picked))
        reference = self._replay(sample, out / "reference", engine="reference")
        fast_letters = _letters_by_function(result.dead_letters)
        ref_letters = _letters_by_function(reference.dead_letters)
        failed = 0
        for name in picked:
            same = (
                result.log_paths[name].read_bytes()
                == reference.log_paths[name].read_bytes()
                and _rollups(result.report, name) == _rollups(reference.report, name)
                and dataclasses.astuple(result.ledger.bills[name])
                == dataclasses.astuple(reference.ledger.bills[name])
                and result.stats[name] == reference.stats[name]
                and fast_letters.get(name) == ref_letters.get(name)
            )
            if not same:
                print(f"reference mismatch: {name}", file=sys.stderr)
                failed += result.stats[name].arrivals
        unit.extra["reference_functions"] = len(picked)
        unit.extra["reference_arrivals"] = sample.invocations
        return failed

    def summary(self, units: list[Unit]) -> dict[str, tuple[float, str]]:
        call = statistics.median(u.seconds for u in units)
        wall = statistics.median(u.extra["wall_s"] for u in units)
        last = units[-1]
        return {
            "replay_inv_per_s": (last.attempted / call, "1/s"),
            "wall_s_inv_per_s": (last.attempted / wall, "1/s"),
            "call_over_wall_s": (call / wall, "ratio"),
            "reference_functions": (last.extra.get("reference_functions", 0), "count"),
            "reference_arrivals": (last.extra.get("reference_arrivals", 0), "count"),
        }

    def layer_counts(self, unit: Unit) -> dict[str, tuple[float, str]]:
        return {**super().layer_counts(unit), **_replay_counts(unit.counts)}


def _replay_counts(counts: dict[str, Any]) -> dict[str, tuple[float, str]]:
    hosts = counts.get("hosts") or {}
    status = counts.get("status_counts", {})
    values = {
        f"platform.hosts.{key}": (hosts.get(key, 0), "count")
        for key in ("placements", "evictions", "instances_lost",
                    "capacity_throttles")
    }
    values.update({
        "platform.faults.throttled": (status.get("throttled", 0), "count"),
        "platform.faults.crashed": (status.get("crashed", 0), "count"),
        "platform.retry.retries": (counts.get("retries", 0), "count"),
        "platform.retry.dead_letters": (counts.get("dead_letters", 0), "count"),
    })
    return values


def _rollups(report, name: str) -> str:
    return json.dumps([w.to_dict() for w in report.rollups(name)], sort_keys=True)


def _letters_by_function(path: Path | None) -> dict[str, list[str]]:
    letters: dict[str, list[str]] = {}
    if path is None:
        return letters
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            letters.setdefault(json.loads(line)["function"], []).append(line)
    return letters


class ReplayDayWorkload(ReplayWorkload):
    """A fault-free 700k-invocation day through the vector engine."""

    name = "replay-day"
    invocations = DAY_INVOCATIONS
    # One set-up takes ~5 s, long enough to average out short swings in
    # machine speed; three keep the run inside its time budget.
    setup_repeats = 3


class ReplayChaosWorkload(ReplayWorkload):
    """The same fleet shape under faults, retries and host loss.

    Exec and cold-start crash rates and the host pool disqualify the
    vector batch path, so every function takes the scalar kernel and the
    per-row emitters.  Hosts are sized so capacity runs short after one
    host crashes and another is reclaimed.
    """

    name = "replay-chaos"
    invocations = CHAOS_INVOCATIONS

    def replay_options(self) -> dict[str, Any]:
        return {
            "faults": FaultPlan(
                seed=self.seed,
                default=FaultRates(
                    throttle=0.02, exec_crash=0.01, cold_start_crash=0.02
                ),
                host_faults=(
                    HostFault(at_s=21600.0, kind="crash", host=0),
                    HostFault(at_s=54000.0, kind="spot", host=1),
                ),
            ),
            "hosts": HostConfig(count=3, memory_mb=80.0, default_reserve_mb=40.0),
            "retry": RetryPolicy(max_attempts=2, base_delay_s=0.5, seed=self.seed),
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (TrimWorkload, ReplayDayWorkload, ReplayChaosWorkload)
}


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
