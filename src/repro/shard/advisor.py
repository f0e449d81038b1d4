"""Shard-aware index advisor: one disk budget, N shard-local plans.

The paper's advisor (§4) picks, per query, whether to store an RPL
(supports TA) or an ERPL (supports Merge) under a global disk budget.
With partitioned indexes the same decision exists *per shard*: a query
may be worth an RPL on the shard holding its hot documents and nothing
on the others, because gains and index sizes both vary with shard
content.

The extension keeps the paper's machinery intact by reduction: measure
each query **on each shard** (the shard engine is a complete TrexEngine,
so :func:`~repro.selfmanage.measure.measure_query` applies verbatim),
tag the resulting cost rows with ``s{shard}:{query_id}``, and hand the
union to the unmodified selector.  The greedy selector's 2-approximation
guarantee is preserved — it is the same multiple-choice knapsack, just
over ``N × |workload|`` option groups — and the resulting split of the
budget across shards is exactly "proportional to observed per-shard
workload gain": a shard whose options dominate the gain-per-byte
frontier receives more bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..errors import OptimizationError
from ..index.catalog import IndexSegment
from ..selfmanage.advisor import IndexAdvisorBase
from ..selfmanage.measure import QueryCosts, measure_workload
from ..selfmanage.selection import SelectionPlan
from ..selfmanage.workload import Workload, WorkloadQuery
from .engine import ShardedEngine

__all__ = ["ShardedIndexAdvisor", "ShardedAppliedPlan",
           "split_shard_query_id"]

_SEPARATOR = ":"


def _shard_query_id(shard_index: int, query_id: str) -> str:
    return f"s{shard_index}{_SEPARATOR}{query_id}"


def split_shard_query_id(tagged: str) -> tuple[int, str]:
    """Invert the ``s{shard}:{query_id}`` tagging of plan choices."""
    prefix, _, query_id = tagged.partition(_SEPARATOR)
    if not prefix.startswith("s") or not prefix[1:].isdigit() or not query_id:
        raise OptimizationError(f"not a shard-tagged query id: {tagged!r}")
    return int(prefix[1:]), query_id


@dataclass
class ShardedAppliedPlan:
    """A sharded selection plan after materialization."""

    plan: SelectionPlan
    #: shard index -> segments materialized there by this plan.
    segments: dict[int, list[IndexSegment]] = field(default_factory=dict)
    #: shard index -> bytes of the budget spent on that shard.
    budget_split: dict[int, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(self.budget_split.values())

    def describe(self) -> list[str]:
        lines = self.plan.describe()
        for shard_index in sorted(self.budget_split):
            lines.append(f"  shard {shard_index}: "
                         f"{self.budget_split[shard_index]} B in "
                         f"{len(self.segments.get(shard_index, []))} segments")
        return lines


class ShardedIndexAdvisor(
        IndexAdvisorBase[ShardedEngine, ShardedAppliedPlan]):
    """Splits one disk budget across shards by measured workload gain.

    Selection and the cost predictions are the monolithic advisor's;
    only measurement (per shard, ``s{shard}:`` tagged) and :meth:`apply`
    (on the owning shard) are sharded.  The scatter-gather evaluation
    touches every shard, so a query's predicted cost is the sum of its
    per-shard costs.
    """

    def _measure(self, workload: Workload) -> dict[str, QueryCosts]:
        """Per-(shard, query) costs, keyed ``s{shard}:{query_id}``.

        Queries whose translation is empty on a shard still measure
        (at near-zero cost on every method) and simply yield no
        positive-gain options there.
        """
        combined: dict[str, QueryCosts] = {}
        for shard in self.engine.shards:
            local = measure_workload(shard.engine, workload)
            for query_id, costs in local.items():
                tagged = _shard_query_id(shard.index, query_id)
                combined[tagged] = replace(costs, query_id=tagged)
        return combined

    def _cost_keys(self, workload: Workload) -> list[tuple[WorkloadQuery, str]]:
        return [(query, _shard_query_id(shard.index, query.query_id))
                for shard in self.engine.shards for query in workload]

    def apply(self, workload: Workload,
              plan: SelectionPlan) -> ShardedAppliedPlan:
        """Materialize each chosen index on its owning shard."""
        applied = ShardedAppliedPlan(plan=plan)
        for choice in plan.choices:
            shard_index, query_id = split_shard_query_id(choice.query_id)
            shard_engine = self.engine.shards[shard_index].engine
            query = workload.query(query_id)
            translated = shard_engine.translate(query.nexi)
            segments = applied.segments.setdefault(shard_index, [])
            materialize = (shard_engine.materialize_erpl
                           if choice.kind == "erpl"
                           else shard_engine.materialize_rpl)
            for clause in translated.clauses:
                for term in clause.terms:
                    segments.append(materialize(
                        term, clause.sids, compression=choice.compression))
        # Budget split reports the *actual* bytes stored per shard.
        for shard_index, segments in applied.segments.items():
            applied.budget_split[shard_index] = sum(
                segment.size_bytes for segment in segments)
        return applied
