"""Where the traced run wraps each layer, and the per-layer metrics.

Each callable is wrapped where its caller looks it up: the pipeline's
stage methods on ``LambdaTrim``, the debloater's ``rebuild_source`` and
``decompose_module`` in ``repro.core.debloater``, the replay engines in
``repro.platform.fleet``, and the emitters on their classes.
"""

from __future__ import annotations

from repro.core import debloater, pipeline
from repro.core.execution import LoadedApp
from repro.core.journal import ProbeJournal
from repro.core.oracle import OracleRunner
from repro.platform import fleet
from repro.platform.billing import BillingLedger, FunctionBill
from repro.platform.logs import ExecutionLog
from repro.platform.telemetry import TelemetrySink

from tracer import Span, Tracer, quantile
from workloads import TRIM_APPS

ENGINE = "platform.engine"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    wrap = tracer.wrap
    # core: pipeline stages and the modules they call.
    wrap(pipeline.LambdaTrim, "analyze", "core.pipeline.analyze")
    wrap(pipeline.LambdaTrim, "profile", "core.pipeline.profile")
    wrap(pipeline.LambdaTrim, "select_modules", "core.pipeline.rank")
    wrap(pipeline, "build_call_graph", "core.callgraph")
    wrap(pipeline, "build_bundle_call_graph", "core.callgraph")
    wrap(pipeline.ModuleDebloater, "debloat_module", "core.debloater")
    wrap(debloater, "rebuild_source", "core.ast_transform")
    wrap(debloater, "decompose_module", "core.granularity")
    wrap(
        debloater.DeltaDebugger, "minimize", "core.dd",
        after=lambda span, _args, outcome: span.attrs.update(
            cache_hits=outcome.cache_hits
        ),
    )
    wrap(
        OracleRunner, "check", "core.oracle",
        after=lambda span, _args, result: span.attrs.update(passed=result.passed),
    )
    wrap(ProbeJournal, "append", "core.journal")
    wrap(LoadedApp, "load", "core.execution.load")

    # platform: engines as replay_fleet looks them up.  VectorReplayer
    # inherits ``replay`` from KernelReplayer; a function counts as
    # vector only once the batch path actually ran for it, otherwise the
    # scalar kernel served it.
    for cls, engine in (
        (fleet.KernelReplayer, "kernel"),
        (fleet.TraceReplayer, "reference"),
    ):
        wrap(
            cls, "replay", ENGINE,
            ident=lambda _self, name, *a, **k: name,
            after=_tag(engine),
        )
    tracer.observe(
        fleet.VectorReplayer, "_run_batch",
        lambda _: tracer.enclosing(ENGINE).attrs.update(engine="vector"),
    )
    aggregate = tracer.aggregate
    for method in ("append_columns", "append_rows"):
        aggregate(ExecutionLog, method, "platform.logs.bulk", size=len)
    for method in ("append_row", "append"):
        aggregate(ExecutionLog, method, "platform.logs.row")
    wrap(ExecutionLog, "flush_spill", "platform.logs.spill")
    for method in ("observe", "observe_row", "observe_rows", "observe_columns",
                   "observe_host"):
        aggregate(TelemetrySink, method, "platform.telemetry")
    for method in ("charge_batch", "charge_block"):
        aggregate(FunctionBill, method, "platform.billing")
    for method in ("charge_invocation", "charge_throttle",
                   "charge_snapstart_restore", "charge_snapstart_cache"):
        aggregate(BillingLedger, method, "platform.billing")
    wrap(BillingLedger, "reconcile", "platform.billing.reconcile")


def _tag(engine: str):
    def after(span: Span, _args, _result) -> None:
        span.attrs.setdefault("engine", engine)

    return after


def metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics derived from the recorded spans."""
    spans = tracer.spans
    kids = tracer.children()
    named: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        named.setdefault(span.name, []).append(index)

    def total(name: str, indices=None) -> float:
        return sum((spans[i].duration for i in (named.get(name, [])
                                                if indices is None else indices)), 0.0)

    def self_total(name: str) -> float:
        return sum((tracer.self_time(i, kids) for i in named.get(name, [])), 0.0)

    def under(index: int, name: str) -> bool:
        parent = spans[index].parent
        while parent is not None:
            if spans[parent].name == name:
                return True
            parent = spans[parent].parent
        return False

    checks = named.get("core.oracle", [])
    probes = [i for i in checks if under(i, "core.dd")]
    verify = [i for i in checks if spans[i].parent is not None
              and spans[spans[i].parent].name == "core.pipeline.run"]
    probe_ms = [spans[i].duration * 1000.0 for i in probes]
    passed = sum(1 for i in probes if spans[i].attrs.get("passed"))
    dd_spans = named.get("core.dd", [])

    out: dict[str, tuple[float, str]] = {
        "core.pipeline.analyze_s": (total("core.pipeline.analyze"), "s"),
        "core.pipeline.profile_s": (total("core.pipeline.profile"), "s"),
        "core.pipeline.rank_s": (total("core.pipeline.rank"), "s"),
        "core.pipeline.verify_s": (total("core.oracle", verify), "s"),
        "core.pipeline.self_s": (self_total("core.pipeline.run"), "s"),
        "core.dd.s": (total("core.dd"), "s"),
        "core.dd.probes": (len(probes), "count"),
        "core.dd.cache_hits": (
            sum(spans[i].attrs.get("cache_hits", 0) for i in dd_spans), "count"
        ),
        "core.dd.pass_ratio": (passed / len(probes) if probes else 0.0, "ratio"),
        "core.oracle.s": (total("core.oracle", probes), "s"),
        "core.oracle.calls": (len(probes), "count"),
        "core.oracle.p50_ms": (quantile(probe_ms, 0.50), "ms"),
        "core.oracle.p99_ms": (quantile(probe_ms, 0.99), "ms"),
        "core.execution.load_s": (total("core.execution.load"), "s"),
        "core.execution.loads": (len(named.get("core.execution.load", [])), "count"),
        "core.ast_transform.s": (total("core.ast_transform"), "s"),
        "core.ast_transform.calls": (
            len(named.get("core.ast_transform", [])), "count"
        ),
        "core.granularity.s": (total("core.granularity"), "s"),
        "core.callgraph.s": (total("core.callgraph"), "s"),
        "core.callgraph.calls": (len(named.get("core.callgraph", [])), "count"),
        "core.journal.s": (total("core.journal"), "s"),
        "core.journal.records": (len(named.get("core.journal", [])), "count"),
        "core.debloater.self_s": (self_total("core.debloater"), "s"),
    }
    runs = named.get("core.pipeline.run", [])
    for app in TRIM_APPS:
        mine = [i for i in runs if spans[i].ident == app]
        out[f"app.{app}.trim_s"] = (total("core.pipeline.run", mine), "s")
        out[f"app.{app}.probes"] = (
            sum(1 for i in probes if spans[i].ident == app), "count"
        )

    generate = sorted(spans[i].duration for i in named.get("traces.fleet.generate", []))
    out["traces.fleet.generate_s"] = (
        generate[len(generate) // 2] if generate else 0.0, "s"
    )
    out["platform.fleet.s"] = (total("platform.fleet"), "s")
    out["platform.fleet.self_s"] = (self_total("platform.fleet"), "s")

    engines = {"vector": [], "kernel": [], "reference": []}
    for index in named.get(ENGINE, []):
        engines[spans[index].attrs["engine"]].append(index)
    for kind, indices in engines.items():
        out[f"platform.engine.{kind}_s"] = (total(ENGINE, indices), "s")
        out[f"platform.engine.{kind}_functions"] = (len(indices), "count")

    agg = tracer.agg_totals()
    empty = [0, 0.0, 0]
    bulk = agg.get("platform.logs.bulk", empty)
    row = agg.get("platform.logs.row", empty)
    telemetry = agg.get("platform.telemetry", empty)
    billing = agg.get("platform.billing", empty)
    all_rows = bulk[2] + row[2]
    out.update({
        "platform.logs.bulk_s": (bulk[1], "s"),
        "platform.logs.bulk_rows": (bulk[2], "count"),
        "platform.logs.row_s": (row[1], "s"),
        "platform.logs.rows": (row[2], "count"),
        "platform.logs.spill_s": (total("platform.logs.spill"), "s"),
        "platform.logs.batch_row_share": (
            bulk[2] / all_rows if all_rows else 0.0, "ratio"
        ),
        "platform.telemetry.s": (telemetry[1], "s"),
        "platform.telemetry.calls": (telemetry[0], "count"),
        "platform.billing.s": (billing[1], "s"),
        "platform.billing.reconcile_s": (total("platform.billing.reconcile"), "s"),
    })
    return out
