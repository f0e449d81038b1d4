"""Which public functions the traced pass wraps, and the per-layer
metrics derived from the spans and from the program's own counters.

Span names are ``<layer>.<what>``; a per-layer time metric is the
summed self time of its span names.  Set-up metrics are totals over one
set-up; search-path metrics are per search request of the traced pass;
ingest-path metrics are per ingest.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from repro.corpus.xmlparser import XMLParser
from repro.index.catalog import IndexCatalog
from repro.replica.group import ReplicaGroup
from repro.retrieval import engine as engine_module
from repro.retrieval.engine import TrexEngine
from repro.retrieval.ta import TaSession
from repro.retrieval.wand import WandSession
from repro.service.autopilot import Autopilot
from repro.shard.engine import ShardedEngine
from repro.summary.base import PartitionSummary

from .tracing import (
    QUEUE_WAIT,
    Patches,
    Span,
    SpanRecorder,
    outermost_counts,
    self_time_by_name,
)

STRATEGIES = ("era", "ta", "merge", "wand")

#: Per-layer metrics: name -> unit.  Kept in step with BENCHMARK.json
#: and layers.json by the tests.
METRICS: dict[str, str] = {
    "service.search.self_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.cache.hit_rate": "ratio",
    "service.cache.invalidations": "count",
    "nexi.translate_ms": "ms",
    "retrieval.plan_ms": "ms",
    **{f"retrieval.{name}_ms": "ms" for name in STRATEGIES},
    **{f"retrieval.{name}.calls": "count" for name in STRATEGIES},
    "retrieval.combine_ms": "ms",
    "retrieval.entries_decoded_per_answer": "ratio",
    "retrieval.blocks_skipped_frac": "ratio",
    "retrieval.wand.docs_evaluated": "docs/query",
    "storage.charges_per_query": "count",
    "storage.comparisons_per_query": "count",
    "storage.heap_steps_per_query": "count",
    "storage.block_cache.hit_rate": "ratio",
    "storage.block_cache.evictions": "count",
    "index.add_document_ms": "ms",
    "index.delta_bytes_per_doc_byte": "ratio",
    "index.compact_ms": "ms",
    "index.delta_runs_folded": "count",
    "index.delta_runs_live": "count",
    "index.build_tables_ms": "ms",
    "shard.coordinator_ms": "ms",
    "shard.probed_per_query": "count",
    "replica.run_read_ms": "ms",
    "replica.records_shipped": "count",
    "build.warm_ms": "ms",
    "build.collection_scans": "count",
    "selfmanage.cycle_ms": "ms",
    "selfmanage.bytes_materialized": "bytes",
    "corpus.parse_ms": "ms",
    "summary.build_ms": "ms",
    "trace.overhead_frac": "ratio",
}

#: Span names per search-path time metric.
SEARCH_TIMES = {
    "service.search.self_ms": ("service.search",),
    "service.queue_wait_ms": (QUEUE_WAIT,),
    "nexi.translate_ms": ("nexi.translate",),
    "retrieval.plan_ms": ("retrieval.plan",),
    **{f"retrieval.{name}_ms": (f"retrieval.{name}",) for name in STRATEGIES},
    "retrieval.combine_ms": ("retrieval.combine",),
    "shard.coordinator_ms": ("shard.coordinator",),
    "replica.run_read_ms": ("replica.run_read",),
}
INGEST_TIMES = {
    "index.add_document_ms": ("index.add_document",),
    "index.compact_ms": ("index.compact",),
}
SETUP_TIMES = {
    "build.warm_ms": ("build.warm",),
    "selfmanage.cycle_ms": ("selfmanage.cycle",),
    "corpus.parse_ms": ("corpus.parse",),
    "summary.build_ms": ("summary.build",),
    "index.build_tables_ms": ("index.build_tables",),
}


def _evaluate_name(args: tuple, kwargs: dict) -> str:
    # NEXI-mode evaluate_translated is clause retrieval + combination;
    # its self time (retrieval spans removed) is the combination step.
    return ("retrieval.combine" if kwargs.get("mode", "nexi") == "nexi"
            else "retrieval.flat")


class LayerProbe:
    """The traced pass's patches plus counters the spans cannot give."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.patches = Patches(recorder)
        self.collection_scans = 0
        #: Delta-run bytes appended per catalog (keyed by id()).
        self.delta_bytes: dict[int, int] = defaultdict(int)

    def install(self, services: list[Any] = ()) -> None:
        wrap = self.patches.wrap
        for name in STRATEGIES:
            wrap(engine_module, f"{name}_retrieve", f"retrieval.{name}")
        # The coordinator's distributed TA/WAND drives sessions directly.
        wrap(TaSession, "step", "retrieval.ta")
        wrap(WandSession, "step", "retrieval.wand")
        for cls in (TrexEngine, ShardedEngine):
            wrap(cls, "translate", "nexi.translate")
            wrap(cls, "missing_segments", "retrieval.plan")
            wrap(cls, "choose_method", "retrieval.plan")
            wrap(cls, "compact_segments", "index.compact")
            wrap(cls, "warm_segments", "build.warm")
        wrap(TrexEngine, "evaluate_translated", _evaluate_name)
        wrap(ShardedEngine, "evaluate_translated", "shard.coordinator")
        wrap(ShardedEngine, "add_document", "shard.route")
        wrap(TrexEngine, "add_document", "index.add_document")
        wrap(TrexEngine, "apply_replicated_document", "replica.apply")
        wrap(TrexEngine, "__init__", "index.build_tables")
        wrap(TrexEngine, "build_plan", "build.warm", after=self._count_scans)
        wrap(ReplicaGroup, "run_read", "replica.run_read")
        wrap(ReplicaGroup, "add_document", "replica.ship")
        wrap(ReplicaGroup, "compact_segments", "index.compact")
        wrap(ReplicaGroup, "warm_segments", "build.warm")
        wrap(Autopilot, "run_cycle", "selfmanage.cycle")
        wrap(XMLParser, "parse", "corpus.parse")
        wrap(PartitionSummary, "__init__", "summary.build")
        wrap(PartitionSummary, "extend", "summary.extend")
        append_delta = IndexCatalog.append_delta

        def counted(catalog: IndexCatalog, segment_id: int,
                    *args: Any, **kwargs: Any) -> Any:
            if not self.recorder.active:
                return append_delta(catalog, segment_id, *args, **kwargs)
            before = catalog.delta_bytes(segment_id)
            result = append_delta(catalog, segment_id, *args, **kwargs)
            self.delta_bytes[id(catalog)] += (catalog.delta_bytes(segment_id)
                                              - before)
            return result

        self.patches.replace(IndexCatalog, "append_delta", counted)
        self.watch(services)

    def watch(self, services: list[Any]) -> None:
        """Note each service's executor submissions (queue wait)."""
        recorder = self.recorder
        for service in services:
            executor = service.executor
            submit = executor.submit

            def noted(*args: Any, _submit: Any = submit,
                      **kwargs: Any) -> Any:
                recorder.note_submit()
                return _submit(*args, **kwargs)

            self.patches.replace(executor, "submit", noted)

    def remove(self) -> None:
        self.patches.remove()

    def _count_scans(self, _args: tuple, result: Any) -> None:
        report, _installed = result
        self.collection_scans += report.collection_scans


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _ms(seconds: dict[str, float], names: tuple[str, ...],
        per: int) -> float:
    return _ratio(1e3 * sum(seconds.get(name, 0.0) for name in names), per)


def span_metrics(setup_spans: list[Span], pass_spans: list[Span],
                 searches: int, ingests: int) -> dict[str, float]:
    """Time and call-count metrics from the recorded spans."""
    metrics: dict[str, float] = {}
    setup_self = self_time_by_name(setup_spans)
    for metric, names in SETUP_TIMES.items():
        metrics[metric] = _ms(setup_self, names, 1)
    pass_self = self_time_by_name(pass_spans)
    for metric, names in SEARCH_TIMES.items():
        metrics[metric] = _ms(pass_self, names, searches)
    for metric, names in INGEST_TIMES.items():
        metrics[metric] = _ms(pass_self, names, ingests)
    calls = outermost_counts(pass_spans)
    for name in STRATEGIES:
        metrics[f"retrieval.{name}.calls"] = float(
            calls.get(f"retrieval.{name}", 0))
    return metrics


def payload_metrics(payloads: list[dict]) -> dict[str, float]:
    """Useful-to-attempted ratios from evaluated (uncached) payloads."""
    evaluated = [p for p in payloads if not p.get("cached")]
    answers = sum(p["total"] for p in evaluated)
    entries = sum(p["entries_decoded"] for p in evaluated)
    read = sum(p["blocks_read"] for p in evaluated)
    skipped = sum(p["blocks_skipped"] for p in evaluated)
    wand = [p for p in evaluated if p["method"] == "wand"]
    probed = [p["shards"]["probed"] for p in evaluated if "shards" in p]
    return {
        "retrieval.entries_decoded_per_answer": _ratio(entries, answers),
        "retrieval.blocks_skipped_frac": _ratio(skipped, read + skipped),
        "retrieval.wand.docs_evaluated": _ratio(
            sum(p["docs_evaluated"] for p in wand), len(wand)),
        "shard.probed_per_query": _ratio(sum(probed), len(probed)),
    }


def counter_snapshot(workload: Any) -> dict[str, float]:
    """Monotonic program counters, summed over the workload's services
    (diffed across the traced pass)."""
    totals: dict[str, float] = defaultdict(float)
    for service in workload.services.values():
        stats = service.stats()
        cache = stats["cache"]
        totals["cache.hits"] += cache["hits"]
        totals["cache.misses"] += cache["misses"]
        totals["cache.invalidations"] += cache["invalidations"]
        counters = stats["worker_costs"]["counters"]
        totals["charges"] += sum(counters.values())
        totals["comparisons"] += counters.get("comparisons", 0)
        totals["heap_steps"] += (counters.get("heap_inserts", 0)
                                 + counters.get("heap_removes", 0))
        totals["answered"] += stats["telemetry"]["counters"].get(
            "search.answered", 0)
        block_cache = stats["block_cache"]
        totals["block.hits"] += block_cache["hits"]
        totals["block.misses"] += block_cache["misses"]
        totals["block.evictions"] += block_cache["evictions"]
        deltas = stats["deltas"]
        totals["delta_runs_folded"] += deltas["delta_runs_folded"]
        totals["delta_runs_live"] += deltas["delta_runs"]
        totals["records_shipped"] += stats.get("replication", {}).get(
            "records_shipped", 0)
    return dict(totals)


def counter_metrics(before: dict[str, float],
                    after: dict[str, float]) -> dict[str, float]:
    diff = {key: after[key] - before.get(key, 0.0) for key in after}
    answered = diff["answered"]
    return {
        "service.cache.hit_rate": _ratio(
            diff["cache.hits"], diff["cache.hits"] + diff["cache.misses"]),
        "service.cache.invalidations": diff["cache.invalidations"],
        "storage.charges_per_query": _ratio(diff["charges"], answered),
        "storage.comparisons_per_query": _ratio(diff["comparisons"], answered),
        "storage.heap_steps_per_query": _ratio(diff["heap_steps"], answered),
        "storage.block_cache.hit_rate": _ratio(
            diff["block.hits"], diff["block.hits"] + diff["block.misses"]),
        "storage.block_cache.evictions": diff["block.evictions"],
        "index.delta_runs_folded": diff["delta_runs_folded"],
        "index.delta_runs_live": after["delta_runs_live"],
        "replica.records_shipped": diff["records_shipped"],
    }
