"""The self-managing index advisor: measure → select → apply.

Ties the pieces of §4 together.  Given an engine and a workload, the
advisor measures per-query method costs and index sizes, runs one of
the two selectors under a disk budget, materializes the chosen
query-scoped segments, and can then report the workload's expected and
actually-achieved weighted evaluation cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, TypeVar

from ..backend import COMPRESSIONS, PROFILES
from ..errors import OptimizationError
from ..index.catalog import IndexSegment
from ..retrieval.engine import TrexEngine
from .greedy import GreedyIndexSelector
from .ilp import IlpIndexSelector
from .measure import QueryCosts, measure_workload
from .selection import SelectionPlan
from .workload import Workload, WorkloadQuery

__all__ = ["IndexAdvisorBase", "IndexAdvisor", "AppliedPlan"]

EngineT = TypeVar("EngineT")
AppliedT = TypeVar("AppliedT")


@dataclass
class AppliedPlan:
    """A selection plan after materialization."""

    plan: SelectionPlan
    segments: list[IndexSegment]
    #: query_id -> method that the stored indexes support ('merge' or
    #: 'wand' for ERPL choices — whichever measured cheaper — 'ta' for
    #: RPL choices), or 'era' for unsupported queries.
    methods: dict[str, str]

    @property
    def total_bytes(self) -> int:
        return sum(segment.size_bytes for segment in self.segments)


class IndexAdvisorBase(Generic[EngineT, AppliedT]):
    """Measure → select → apply, independent of the engine kind.

    A subclass says how a workload is measured (:meth:`_measure`), under
    which cost keys each query is priced (:meth:`_cost_keys`) and how a
    plan is stored (:meth:`apply`); selection and the cost predictions
    are shared.
    """

    _SELECTORS = {
        "greedy": GreedyIndexSelector,
        "ilp": IlpIndexSelector,
    }

    def __init__(self, engine: EngineT) -> None:
        self.engine = engine
        self._costs_cache: dict[int, dict[str, QueryCosts]] = {}

    # ------------------------------------------------------------------
    def _measure(self, workload: Workload) -> dict[str, QueryCosts]:
        raise NotImplementedError

    def _cost_keys(self, workload: Workload) -> list[tuple[WorkloadQuery, str]]:
        """``(query, cost key)`` pairs the workload's cost sums run over."""
        return [(query, query.query_id) for query in workload]

    def apply(self, workload: Workload, plan: SelectionPlan) -> AppliedT:
        raise NotImplementedError

    def measure(self, workload: Workload) -> dict[str, QueryCosts]:
        """Measure (and cache) per-query costs for *workload*."""
        key = id(workload)
        if key not in self._costs_cache:
            self._costs_cache[key] = self._measure(workload)
        return self._costs_cache[key]

    def invalidate_measurements(self) -> None:
        """Drop cached measurements (call after the collection changes,
        e.g. :meth:`~repro.retrieval.engine.TrexEngine.add_document`)."""
        self._costs_cache.clear()

    def autotune(self, workload: Workload, disk_budget: int,
                 method: str = "greedy", *,
                 compression: bool = False) -> AppliedT:
        """The full §4 cycle in one call: re-measure, select under the
        budget, and materialize the chosen segments."""
        self.invalidate_measurements()
        plan = self.recommend(workload, disk_budget, method=method,
                              compression=compression)
        return self.apply(workload, plan)

    def recommend(self, workload: Workload, disk_budget: int,
                  method: str = "greedy", *,
                  compression: bool = False) -> SelectionPlan:
        """Select which indexes to store under *disk_budget* bytes.

        With *compression* on, every candidate index also competes in a
        zlib variant — smaller footprint, gain reduced by the
        per-cold-block decompress charge — so a tight budget can prefer
        storing more (compressed) indexes over fewer flat ones.
        """
        selector_cls = self._SELECTORS.get(method)
        if selector_cls is None:
            raise OptimizationError(
                f"unknown selection method {method!r}; choose from "
                f"{sorted(self._SELECTORS)}")
        costs = self.measure(workload)
        return selector_cls().select(costs, disk_budget,
                                     compression=compression)

    def expected_cost(self, workload: Workload, plan: SelectionPlan) -> float:
        """Predicted weighted evaluation cost under *plan* (from measures)."""
        costs = self.measure(workload)
        total = 0.0
        for query, key in self._cost_keys(workload):
            cost = costs[key]
            choice = plan.choice_for(key)
            if choice is None:
                total += query.frequency * cost.t_era
            elif choice.kind == "erpl":
                # An ERPL choice is served by the cheaper of Merge and
                # WAND (see IndexAdvisor.apply).
                total += query.frequency * (
                    min(cost.t_merge_zlib, cost.t_wand_zlib)
                    if choice.compression == "zlib"
                    else min(cost.t_merge, cost.t_wand))
            else:
                total += query.frequency * (
                    cost.t_ta_zlib if choice.compression == "zlib"
                    else cost.t_ta)
        return total

    def baseline_cost(self, workload: Workload) -> float:
        """Weighted cost of answering everything with ERA (no indexes)."""
        costs = self.measure(workload)
        return sum(query.frequency * costs[key].t_era
                   for query, key in self._cost_keys(workload))


class IndexAdvisor(IndexAdvisorBase[TrexEngine, AppliedPlan]):
    """Self-manages redundant top-k indexes for a query workload."""

    def _measure(self, workload: Workload) -> dict[str, QueryCosts]:
        return measure_workload(self.engine, workload)

    def apply(self, workload: Workload, plan: SelectionPlan) -> AppliedPlan:
        """Materialize the plan's query-scoped segments on the engine.

        Each segment is stored under its choice's codec — a zlib choice
        lands compressed even in an otherwise-flat catalog."""
        segments: list[IndexSegment] = []
        methods: dict[str, str] = {query.query_id: "era" for query in workload}
        costs = self.measure(workload)
        for choice in plan.choices:
            query = workload.query(choice.query_id)
            translated = self.engine.translate(query.nexi)
            for clause in translated.clauses:
                for term in clause.terms:
                    if choice.kind == "erpl":
                        segments.append(self.engine.materialize_erpl(
                            term, clause.sids,
                            compression=choice.compression))
                    else:
                        segments.append(self.engine.materialize_rpl(
                            term, clause.sids,
                            compression=choice.compression))
            if choice.kind == "erpl":
                # The ERPL supports both Merge and document-at-a-time
                # WAND; route to whichever the measurement pass found
                # cheaper for this query's k.
                cost = costs[choice.query_id]
                if choice.compression == "zlib":
                    use_wand = cost.t_wand_zlib < cost.t_merge_zlib
                else:
                    use_wand = cost.t_wand < cost.t_merge
                methods[choice.query_id] = "wand" if use_wand else "merge"
            else:
                methods[choice.query_id] = "ta"
        return AppliedPlan(plan=plan, segments=segments, methods=methods)

    # ------------------------------------------------------------------
    def achieved_cost(self, workload: Workload, applied: AppliedPlan) -> float:
        """Actually evaluate the workload with the applied plan's methods."""
        previous = self.engine.auto_materialize
        self.engine.auto_materialize = False
        try:
            total = 0.0
            for query in workload:
                method = applied.methods[query.query_id]
                k = query.k if method in ("ta", "wand") else None
                result = self.engine.evaluate(query.nexi, k=k, method=method)
                total += query.frequency * result.stats.cost
            return total
        finally:
            self.engine.auto_materialize = previous

    # ------------------------------------------------------------------
    def backend_report(self, workload: Workload) -> dict[str, dict[str, dict[str, float]]]:
        """What storing every measured index costs per backend × codec.

        For each backend the build cost scales by the backend's write
        factor (sqlite row inserts are dearer than pager file writes,
        mmap serialization sits between) and the footprint switches
        between the flat and zlib measurements.  The advisor surfaces
        this so operators can see the t_build/size trade-off of
        ``--backend``/``--compress`` before committing to one.
        """
        costs = self.measure(workload)
        t_build = sum(cost.t_build for cost in costs.values())
        flat_bytes = sum(cost.s_rpl + cost.s_erpl for cost in costs.values())
        zlib_bytes = sum(cost.s_rpl_zlib + cost.s_erpl_zlib
                         for cost in costs.values())
        report: dict[str, dict[str, dict[str, float]]] = {}
        for backend, profile in PROFILES.items():
            report[backend] = {}
            for codec in COMPRESSIONS:
                size = flat_bytes if codec == "none" else zlib_bytes
                report[backend][codec] = {
                    "size_bytes": float(size),
                    "t_build": round(t_build * profile.write_factor, 2),
                }
        return report

    def recommend_compression(self, workload: Workload, *,
                              min_saving: float = 0.1) -> dict[str, str]:
        """Per-segment-kind codec recommendation from measured sizes.

        Recommends ``zlib`` for a kind when compressing shaves at least
        *min_saving* (fraction) off its measured bytes; otherwise
        ``none`` — the decompress charges are not worth marginal
        savings.
        """
        costs = self.measure(workload)
        totals = {
            "rpl": (sum(c.s_rpl for c in costs.values()),
                    sum(c.s_rpl_zlib for c in costs.values())),
            "erpl": (sum(c.s_erpl for c in costs.values()),
                     sum(c.s_erpl_zlib for c in costs.values())),
        }
        recommendation = {}
        for kind, (flat, compressed) in totals.items():
            saving = (flat - compressed) / flat if flat else 0.0
            recommendation[kind] = "zlib" if saving >= min_saving else "none"
        return recommendation
