"""TReX engine: builds the indexes and evaluates NEXI queries.

The engine owns everything an instance of TReX owns in the paper: the
collection, a structural summary, the Elements and PostingLists tables,
the catalog of materialized RPL/ERPL segments, a scorer, and a cost
model.  ``evaluate`` runs the two-phase scheme of §3.1 — translation
(each about path → sids + terms) and retrieval (one of ERA / TA / ITA /
Merge per clause) — then combines clause results into ranked target
elements.

Multi-clause semantics (the paper leaves ranking details open; we
follow common INEX practice and document the choice in DESIGN.md):

* the query's *target* elements are those matching the full path;
* an about clause attached to ``.`` of the last step scores targets
  directly; a clause with a relative path (``.//bdy``) scores
  descendants, which vote for their target-sid ancestors; predicates on
  earlier steps act as *support*: their scores are added, discounted by
  ``support_weight``, to contained targets, but do not filter;
* the last step's boolean predicate structure *is* enforced: an
  ``and`` requires every operand clause to be satisfied for the target.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from typing import Callable, Generic, Protocol, TypeVar

from .. import sanitizer
from ..build.batch import compute_document_entries, filter_scope
from ..build.executor import BuildExecutor, BuildReport
from ..build.planner import BuildPlan, BuildPlanner, BuildTarget
from ..corpus.alias import AliasMapping
from ..corpus.collection import Collection
from ..corpus.document import Document
from ..corpus.tokenizer import Tokenizer
from ..corpus.xmlparser import XMLParser
from ..errors import MissingIndexError, RetrievalError
from ..index.catalog import IndexCatalog, IndexSegment
from ..index.elements import BlockedElements, build_elements_table
from ..index.postings import (
    BlockedPostings,
    build_posting_lists_table,
    extend_posting_lists,
)
from ..index.rpl import RplEntry, compute_rpl_entries
from ..nexi.ast import (
    AboutClause,
    BooleanPredicate,
    ComparisonClause,
    NexiQuery,
    Predicate,
)
from ..nexi.parser import parse_nexi
from ..nexi.translate import (
    TranslatedClause,
    TranslatedComparison,
    TranslatedQuery,
    translate_query,
)
from ..scoring.combine import ScoredHit
from ..scoring.scorers import BM25Scorer, ElementScorer
from ..scoring.stats import ScoringStats
from ..storage.blocks import DEFAULT_BLOCK_SIZE
from ..storage.cost import CostModel
from ..storage.pager import PageCache
from ..summary.base import PartitionSummary
from ..summary.variants import IncomingSummary
from .era import era_retrieve
from .iterators import ExtentIterator
from .merge import merge_retrieve
from .race import race as race_strategies
from .result import EvaluationStats, ResultSet
from .ta import DEFAULT_BATCH_SIZE, TaSession, ta_retrieve
from .wand import WandSession, wand_retrieve

__all__ = ["TrexEngine", "QueryPlanner", "METHODS", "MODES", "METHOD_KINDS",
           "RACE_LEGS", "race_result"]

METHODS = ("era", "ta", "ita", "merge", "wand", "race", "auto")

#: Evaluation semantics (see :meth:`QueryPlanner.evaluate`).
MODES = ("nexi", "flat")

#: Index kinds each forced method reads.  ERA reads only the base
#: tables and ``auto`` picks a method the stored kinds support, so
#: neither needs anything up front.
METHOD_KINDS: dict[str, tuple[str, ...]] = {
    "ta": ("rpl",),
    "ita": ("rpl",),
    "merge": ("erpl",),
    # WAND evaluates the ERPL document-at-a-time; RPL block-max headers
    # only sharpen its static bounds and are probed opportunistically.
    "wand": ("erpl",),
    "race": ("rpl", "erpl"),
}

#: Paper §4's race: these legs run over one translation and the
#: cheaper finisher is returned.
RACE_LEGS = ("ta", "merge")


def race_result(ta_result: ResultSet, merge_result: ResultSet,
                k: int | None) -> ResultSet:
    """The outcome of a race between a TA leg and a Merge leg."""
    outcome = race_strategies((ta_result.hits, ta_result.stats),
                              (merge_result.hits, merge_result.stats))
    return ResultSet(hits=outcome.hits, stats=outcome.stats, k=k)


class _Translation(Protocol):
    @property
    def clauses(self) -> tuple[TranslatedClause, ...]: ...


TranslationT = TypeVar("TranslationT", bound=_Translation)


class QueryPlanner(Generic[TranslationT]):
    """The per-query decisions every engine kind shares (paper §4).

    Request validation, the ``race`` legs and the ``auto`` rule depend
    only on the translation and on which segments are stored, so they
    live here once.  An engine supplies translation, segment probing
    (:meth:`missing_segments`) and the evaluation of one resolved
    method (:meth:`_evaluate_method`): :class:`TrexEngine` runs it over
    its own catalog, the sharded coordinator scatters it over shards.
    """

    auto_materialize: bool

    def translate(self, query: str | NexiQuery, *,
                  vague: bool = True) -> TranslationT:
        raise NotImplementedError

    def missing_segments(self, translated: TranslationT,
                         kinds: tuple[str, ...] = ("rpl", "erpl"), *,
                         mode: str = "nexi") -> list[tuple]:
        raise NotImplementedError

    def _evaluate_method(self, translated: TranslationT, k: int | None,
                         method: str, mode: str,
                         require_phrases: bool) -> ResultSet:
        """Evaluate with a concrete method (never ``race``/``auto``)."""
        raise NotImplementedError

    def evaluate(self, query: str | NexiQuery, k: int | None = None,
                 method: str = "auto", *, vague: bool = True,
                 mode: str = "nexi", require_phrases: bool = False) -> ResultSet:
        """Evaluate *query*, returning all answers or the top *k*.

        ``method`` is one of :data:`METHODS`.  ``ita`` runs TA but
        reports the ideal-heap cost; ``race`` runs the :data:`RACE_LEGS`
        and keeps the cheaper; ``auto`` applies :meth:`choose_method`.

        ``mode`` selects the evaluation semantics:

        * ``'nexi'`` (default) — full NEXI semantics: clauses evaluated
          separately, descendant votes and ancestor support combined by
          containment, the last step's boolean predicate enforced.  In
          this mode multi-clause queries evaluate each clause
          exhaustively, so TA's top-k early termination only helps
          single-clause queries.
        * ``'flat'`` — the paper's §2.2 single-task evaluation: one
          retrieval over the union of all clause sids and terms, ranked
          directly.  This is what the paper's experiments time (each
          query of Table 1 is one sid list + one term list) and what
          the benchmark harness uses.
        """
        translated = self.translate(query, vague=vague)
        return self.evaluate_translated(translated, k, method, mode=mode,
                                        require_phrases=require_phrases)

    def evaluate_translated(self, translated: TranslationT,
                            k: int | None = None, method: str = "auto", *,
                            mode: str = "nexi",
                            require_phrases: bool = False) -> ResultSet:
        """Evaluate an already-translated query (see :meth:`evaluate`).

        Splitting translation from retrieval lets callers translate once
        and run several strategies over the same translation — the race
        legs do exactly that, and the serving layer uses it to run them
        on two executor workers.
        """
        if method not in METHODS:
            raise RetrievalError(f"unknown method {method!r}; choose from {METHODS}")
        if mode not in MODES:
            raise RetrievalError(f"unknown mode {mode!r}; choose 'nexi' or 'flat'")
        if k is not None and k < 1:
            raise RetrievalError(f"k must be at least 1 or None, got {k}")
        if method == "race":
            ta_result, merge_result = [
                self.evaluate_translated(translated, k, leg, mode=mode,
                                         require_phrases=require_phrases)
                for leg in RACE_LEGS]
            return race_result(ta_result, merge_result, k)
        if method == "auto":
            method = self.choose_method(translated, k, mode=mode)
        return self._evaluate_method(translated, k, method, mode,
                                     require_phrases)

    def choose_method(self, translated: TranslationT, k: int | None, *,
                      mode: str = "nexi") -> str:
        """The ``auto`` rule: the cheapest method the stored segments
        support, by the cheap signals of the paper's §4 strategy map.

        Availability is probed for the segments *mode* actually reads
        (one per term over the union of sids in flat mode), so the
        chosen method always runs.  With ``auto_materialize`` on every
        method can build what it lacks, and nothing is probed.
        """
        if self.auto_materialize:
            have_rpl = have_erpl = True
        else:
            have_rpl = not self.missing_segments(translated, ("rpl",),
                                                 mode=mode)
            have_erpl = not self.missing_segments(translated, ("erpl",),
                                                  mode=mode)
        if k is not None and k <= 10 and have_rpl:
            return "ta"
        distinct_terms = {term for clause in translated.clauses
                          for term in clause.terms}
        if k is not None and k > 10 and len(distinct_terms) >= 2 and have_erpl:
            # Many moderately-selective terms at a large finite k: the
            # DAAT pivot skips what Merge would stream and what TA
            # would heap — WAND's sweet spot.
            return "wand"
        if have_erpl:
            return "merge"
        if have_rpl:
            return "ta"
        return "era"


class TrexEngine(QueryPlanner[TranslatedQuery]):
    """A fully materialized TReX instance over one collection."""

    def __init__(self, collection: Collection,
                 summary: PartitionSummary | None = None, *,
                 alias: AliasMapping | None = None,
                 scorer: ElementScorer | None = None,
                 tokenizer: Tokenizer | None = None,
                 cost_model: CostModel | None = None,
                 support_weight: float = 0.5,
                 auto_materialize: bool = True,
                 fragment_size: int = 64,
                 btree_order: int = 64,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 ta_batch_size: int = DEFAULT_BATCH_SIZE,
                 compaction_ratio: float = 0.5,
                 backend: str = "pager",
                 compression: str = "none") -> None:
        self.collection = collection
        self.cost_model = cost_model if cost_model is not None else CostModel()
        if summary is None:
            summary = IncomingSummary(
                collection, alias if alias is not None else AliasMapping.identity())
        self.summary = summary
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        if scorer is None:
            scorer = BM25Scorer(ScoringStats.from_collection(collection))
        self.scorer = scorer
        self.support_weight = support_weight
        self.auto_materialize = auto_materialize
        #: Sorted accesses between TA stopping-condition checks.
        self.ta_batch_size = ta_batch_size
        #: Delta-to-base size ratio at which :meth:`compact_segments`
        #: folds a segment's LSM delta runs into its base run.
        self.compaction_ratio = compaction_ratio
        #: Report of the most recent :meth:`build_plan` run (telemetry).
        self.last_build_report: BuildReport | None = None
        #: Per-segment delta rows appended by the most recent
        #: :meth:`add_document` — the payload a replica group ships to
        #: followers so their LSM runs stay byte-identical.
        self.last_ingest_deltas: list[tuple[int, tuple[RplEntry, ...]]] = []
        #: Monotonic data-version counter.  Bumped whenever the answers
        #: the engine would give can change (document ingestion, scorer
        #: rebuild, index reload) — result caches key their entries on
        #: it to detect staleness.
        self.epoch = 0

        self.block_size = block_size
        #: Storage backend for the catalog's persisted segments and the
        #: charge profile of cold block reads (see ``repro.backend``).
        self.backend = backend
        #: Default block-payload compression for newly built segments.
        self.compression = compression
        with self.cost_model.muted():
            self.elements = build_elements_table(
                collection, summary, cost_model=self.cost_model,
                btree_order=btree_order)
            self.postings = build_posting_lists_table(
                collection, cost_model=self.cost_model,
                fragment_size=fragment_size, btree_order=btree_order)
            self.catalog = IndexCatalog(cost_model=self.cost_model,
                                        btree_order=btree_order,
                                        block_size=block_size,
                                        backend=backend,
                                        compression=compression)
            # Block-compressed access paths over the base tables.  The
            # tables stay the ingestion-side source of truth; queries
            # read these block sequences (skip directory resident,
            # payloads decoded per block).
            self.blocked_elements = BlockedElements(
                self.elements, cost_model=self.cost_model,
                block_size=block_size)
            self.blocked_postings = BlockedPostings(
                self.postings, cost_model=self.cost_model)

    # ------------------------------------------------------------------
    # Materialization of redundant indexes
    # ------------------------------------------------------------------
    def materialize_rpl(self, term: str, sids: frozenset[int] | None = None,
                        compression: str | None = None) -> IndexSegment:
        """Materialize an RPL segment for *term* (universal when sids=None)."""
        with self.cost_model.muted():
            entries = compute_rpl_entries(self.collection, self.summary, term,
                                          self.scorer, sids=sids)
            return self.catalog.add_rpl_segment(term, entries, scope=sids,
                                                compression=compression)

    def materialize_erpl(self, term: str, sids: frozenset[int] | None = None,
                         compression: str | None = None) -> IndexSegment:
        """Materialize an ERPL segment for *term* (universal when sids=None)."""
        with self.cost_model.muted():
            entries = compute_rpl_entries(self.collection, self.summary, term,
                                          self.scorer, sids=sids)
            return self.catalog.add_erpl_segment(term, entries, scope=sids,
                                                 compression=compression)

    def plan_for_query(self, query: str | NexiQuery,
                       kinds: tuple[str, ...] = ("rpl", "erpl"), *,
                       scope: str = "universal") -> BuildPlan:
        """The deduplicated build plan covering the query's clauses.

        Repeated ``(term, sids)`` pairs across clauses collapse to one
        target (their cover sets merge), so the batched builder pays
        for each distinct segment once however many clauses want it.
        """
        if scope not in ("universal", "query", "flat"):
            raise RetrievalError(f"unknown materialization scope {scope!r}")
        translated = self.translate(query)
        planner = BuildPlanner()

        def request(term: str, sids: frozenset[int]) -> None:
            stored_scope = None if scope == "universal" else sids
            for kind in kinds:
                planner.add(kind, term, scope=stored_scope, cover=sids)

        if scope == "flat":
            flat_sids = translated.flat_sids()
            for term in translated.flat_term_weights():
                request(term, flat_sids)
        else:
            for clause in translated.clauses:
                for term in clause.terms:
                    request(term, clause.sids)
        return planner.plan()

    def materialize_for_query(self, query: str | NexiQuery,
                              kinds: tuple[str, ...] = ("rpl", "erpl"), *,
                              scope: str = "universal",
                              workers: int = 0) -> list[IndexSegment]:
        """Materialize every missing segment the query's clauses need.

        ``scope='universal'`` builds whole-term lists (shared across
        queries; TA reads and skips through them); ``scope='query'``
        builds lists restricted to each clause's sids; ``scope='flat'``
        builds lists restricted to the union of the query's sids — the
        redundant index a flat-mode evaluation of exactly this query
        reads without any skipping.

        All missing segments are built by one batched collection pass
        (optionally fanned over *workers* processes) instead of one
        ERA-style scan per term.
        """
        plan = self.plan_for_query(query, kinds, scope=scope)
        _report, installed = self.build_plan(plan, workers=workers)
        return installed

    def _target_satisfied(self, target: BuildTarget) -> bool:
        """Is a catalog segment already good enough for *target*?"""
        cover = target.cover if target.cover is not None else target.scope
        if cover is None:
            # A universal request with no cover set demands an actual
            # universal segment, not merely one covering some sids.
            return any(segment.scope is None and segment.term == target.term
                       for segment in self.catalog.segments(target.kind))
        return self.catalog.find_segment(target.kind, target.term,
                                         cover) is not None

    @sanitizer.mutates_engine_state
    def build_plan(self, plan: BuildPlan, *,
                   workers: int = 0) -> tuple[BuildReport, list[IndexSegment]]:
        """Execute a build plan: one shared batched pass (or a process
        pool when ``workers > 1``), installing every still-missing
        target into the catalog.  Returns the report and the installed
        segments in plan order."""
        report = BuildReport(requested=len(plan), workers=max(1, workers))
        installed: list[IndexSegment] = []
        with self.cost_model.muted():
            todo = BuildPlanner()
            for target in plan:
                if self._target_satisfied(target):
                    report.reused += 1
                else:
                    todo.add_target(target)
            pending = todo.plan()
            if pending.is_empty:
                return report, installed
            executor = BuildExecutor(workers=workers,
                                     block_size=self.block_size,
                                     compression=self.compression)
            images, scans = executor.build_images(
                self.collection, self.summary, self.scorer, pending)
            report.collection_scans = scans
            for target, image in images:
                segment = self.catalog.install_segment_bytes(
                    target.kind, target.term, image, scope=target.scope)
                installed.append(segment)
                report.built += 1
                report.entries += segment.entry_count
                report.bytes_built += segment.size_bytes
                report.segments.append(segment.describe())
        return report, installed

    def build_segments(self, targets: list[BuildTarget] | BuildPlan, *,
                       workers: int = 0) -> BuildReport:
        """Materialize *targets* (deduplicating first); see
        :meth:`build_plan`."""
        planner = BuildPlanner()
        for target in targets:
            planner.add_target(target)
        report, _installed = self.build_plan(planner.plan(), workers=workers)
        return report

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def translate(self, query: str | NexiQuery, *, vague: bool = True) -> TranslatedQuery:
        if isinstance(query, str):
            query = parse_nexi(query)
        return translate_query(query, self.summary, self.tokenizer, vague=vague)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _evaluate_method(self, translated: TranslatedQuery, k: int | None,
                         method: str, mode: str,
                         require_phrases: bool) -> ResultSet:
        if mode == "flat":
            return self._evaluate_flat(translated, method, k)

        total = EvaluationStats(method=method)
        # With several clauses, each must be evaluated exhaustively for
        # the combination step to be exact (see :meth:`evaluate`).
        clause_k = k if len(translated.clauses) == 1 else None
        clause_hits: list[list[ScoredHit]] = []
        for clause in translated.clauses:
            hits, stats = self._evaluate_clause(clause, method, clause_k)
            clause_hits.append(hits)
            total.merge_with(stats)

        hits = self._combine(translated, clause_hits)
        if require_phrases:
            hits = self._filter_phrases(translated, hits)
        if method == "ita":
            total.cost = total.ideal_cost
        if k is not None:
            hits = hits[:k]
        return ResultSet(hits=hits, stats=total, k=k)

    def _filter_phrases(self, translated: TranslatedQuery,
                        hits: list[ScoredHit]) -> list[ScoredHit]:
        """Keep only hits containing every target-clause quoted phrase.

        Phrases are matched by positional adjacency of the surviving
        tokens — stopwords consume no position, so ``"state of the
        art"`` matches the adjacent tokens ``state art``.
        """
        phrases = [phrase for clause in translated.target_clauses
                   for phrase in clause.phrases]
        if not phrases:
            return hits
        kept = []
        for hit in hits:
            document = self.collection.document(hit.docid)
            if all(self._contains_phrase(document, hit, phrase)
                   for phrase in phrases):
                kept.append(hit)
        return kept

    def _contains_phrase(self, document: Document, hit: ScoredHit,
                         phrase: tuple[str, ...]) -> bool:
        tokens = document.tokens_in_span(hit.start_pos, hit.end_pos)
        by_position = {t.position: t.term for t in tokens}
        for token in tokens:
            self.cost_model.compare()
            if token.term != phrase[0]:
                continue
            if all(by_position.get(token.position + offset) == word
                   for offset, word in enumerate(phrase[1:], start=1)):
                return True
        return False

    def flat_clause(self, translated: TranslatedQuery) -> TranslatedClause:
        """The paper's §2.2 single retrieval task for *translated*: one
        clause over the union of all clause sids and merged term
        weights.  Exposed so coordinators (the sharded engine) can set
        up flat-mode sessions without re-deriving the union."""
        weights = translated.flat_term_weights()
        return TranslatedClause(
            step_index=len(translated.query.steps) - 1,
            pattern=translated.target_pattern,
            sids=translated.flat_sids(),
            term_weights=tuple(sorted(weights.items())),
            excluded_terms=(),
            is_target=True,
        )

    def _evaluate_flat(self, translated: TranslatedQuery, method: str,
                       k: int | None) -> ResultSet:
        hits, stats = self._evaluate_clause(self.flat_clause(translated),
                                            method, k)
        if method == "ita":
            stats.method = "ita"
            stats.cost = stats.ideal_cost
        if k is not None:
            hits = hits[:k]
        return ResultSet(hits=hits, stats=stats, k=k)

    def _evaluate_clause(self, clause: TranslatedClause, method: str,
                         k: int | None) -> tuple[list[ScoredHit], EvaluationStats]:
        if not clause.sids or not clause.terms:
            return [], EvaluationStats(method=method)
        weights = dict(clause.term_weights)
        if method == "era":
            return era_retrieve(self.blocked_elements, self.blocked_postings,
                                sorted(clause.sids), list(clause.terms),
                                self.scorer, self.cost_model, weights)
        if method in ("ta", "ita"):
            segments = self.segments_for(clause, "rpl")
            hits, stats = ta_retrieve(self.catalog, segments, clause.sids,
                                      _effective_k(k, segments),
                                      self.cost_model, weights,
                                      batch_size=self.ta_batch_size)
            if method == "ita":
                stats.method = "ita"
            return hits, stats
        if method == "merge":
            segments = self.segments_for(clause, "erpl")
            return merge_retrieve(self.catalog, segments, clause.sids,
                                  self.cost_model, weights)
        if method == "wand":
            segments = self.segments_for(clause, "erpl")
            return wand_retrieve(self.catalog, segments, clause.sids,
                                 _effective_k(k, segments), self.cost_model,
                                 weights,
                                 bound_segments=self.bound_segments_for(clause),
                                 batch_size=self.ta_batch_size)
        raise RetrievalError(f"unknown method {method!r}")

    def open_session(self, method: str, clause: TranslatedClause,
                     k: int) -> TaSession | WandSession:
        """A resumable top-*k* session over this engine's catalog: WAND
        over the ERPLs (resident RPL headers as static bounds) for
        ``wand``, TA over the RPLs otherwise.  The sharded coordinator
        drives one per shard, batch by batch."""
        weights = dict(clause.term_weights)
        if method == "wand":
            return WandSession(self.catalog, self.segments_for(clause, "erpl"),
                               clause.sids, k, self.cost_model, weights,
                               bound_segments=self.bound_segments_for(clause),
                               batch_size=self.ta_batch_size)
        return TaSession(self.catalog, self.segments_for(clause, "rpl"),
                         clause.sids, k, self.cost_model, weights,
                         batch_size=self.ta_batch_size)

    def segments_for(self, clause: TranslatedClause,
                     kind: str) -> dict[str, IndexSegment]:
        """Resolve one segment per clause term (materializing universal
        lists on demand unless ``auto_materialize`` is off)."""
        segments: dict[str, IndexSegment] = {}
        for term in clause.terms:
            segment = self.catalog.find_segment(kind, term, clause.sids)
            if segment is None:
                if not self.auto_materialize:
                    raise MissingIndexError(kind, term=term)
                if kind == "rpl":
                    segment = self.materialize_rpl(term)
                else:
                    segment = self.materialize_erpl(term)
            segments[term] = segment
        return segments

    def bound_segments_for(
            self, clause: TranslatedClause) -> dict[str, IndexSegment | None]:
        """Resident RPL segments per clause term, for WAND's static
        upper bounds.  Pure probe: absent segments map to ``None`` (the
        evaluator falls back to the ERPL headers) — nothing is
        materialized, so this is safe under a read lock."""
        return {term: self.catalog.find_segment("rpl", term, clause.sids)
                for term in clause.terms}

    # ------------------------------------------------------------------
    # Clause combination
    # ------------------------------------------------------------------
    def _combine(self, translated: TranslatedQuery,
                 clause_hits: list[list[ScoredHit]]) -> list[ScoredHit]:
        clauses = translated.clauses
        last_step = len(translated.query.steps) - 1

        # 1. Candidate targets and their direct scores.
        candidates: dict[tuple[int, int], ScoredHit] = {}
        satisfied: dict[tuple[int, int], set[int]] = {}

        def note(key: tuple[int, int], clause_index: int) -> None:
            satisfied.setdefault(key, set()).add(clause_index)

        for index, (clause, hits) in enumerate(zip(clauses, clause_hits)):
            if clause.is_target:
                for hit in hits:
                    key = hit.element_key()
                    note(key, index)
                    existing = candidates.get(key)
                    if existing is None:
                        candidates[key] = ScoredHit(hit.score, hit.docid, hit.end_pos,
                                                    sid=hit.sid, length=hit.length)
                    else:
                        existing.score += hit.score
            elif clause.step_index == last_step:
                # relative-path clause on the last step: descendants vote
                # for their target-sid ancestors.
                for hit in hits:
                    for ancestor in self._ancestors_in_sids(
                            hit, translated.target_sids):
                        key = ancestor.element_key()
                        note(key, index)
                        if key not in candidates:
                            candidates[key] = ancestor
                        candidates[key].score += self.support_weight * hit.score
                        self.cost_model.score_combine()

        # 2. Support from earlier steps: discounted ancestor contributions.
        for index, (clause, hits) in enumerate(zip(clauses, clause_hits)):
            if clause.is_target or clause.step_index == last_step:
                continue
            for hit in hits:
                for key, candidate in candidates.items():
                    self.cost_model.compare()
                    if hit.docid != candidate.docid:
                        continue
                    if (hit.contains(candidate)
                            or hit.element_key() == key
                            or candidate.contains(hit)):
                        candidate.score += self.support_weight * hit.score
                        note(key, index)
                        self.cost_model.score_combine()

        # Pure structural / comparison queries carry no about clauses:
        # every target-sid element is a candidate (at score zero).
        if not clauses:
            for sid in sorted(translated.target_sids):
                for span in ExtentIterator(self.elements, sid).scan():
                    candidates[(span.docid, span.endpos)] = ScoredHit(
                        0.0, span.docid, span.endpos, sid=span.sid,
                        length=span.length)

        # 3. Value comparisons: satisfaction per candidate, by positional
        # relation to an element satisfying the comparison.
        comparison_hits = [self._comparison_hits(tc)
                           for tc in translated.comparisons]

        def comparison_ok(comp_index: int, candidate: ScoredHit) -> bool:
            comparison = translated.comparisons[comp_index]
            for hit in comparison_hits[comp_index]:
                self.cost_model.compare()
                if hit.docid != candidate.docid:
                    continue
                if (hit.contains(candidate) or candidate.contains(hit)
                        or hit.element_key() == candidate.element_key()):
                    return True
                # Sibling case: the compared element and the candidate
                # are joined through the comparison's step element
                # (e.g. //article[.//yr > 2000]//sec — yr and sec are
                # siblings under the shared article).
                for ancestor in self._ancestors_in_sids(
                        hit, comparison.step_sids):
                    if (ancestor.contains(candidate)
                            or ancestor.element_key() == candidate.element_key()):
                        return True
            return False

        # 4. Enforce the last step's boolean predicate (about clauses by
        # recorded satisfaction, comparisons by positional test), and
        # AND in any comparisons from earlier steps.
        predicate = translated.query.steps[last_step].predicate
        about_ids = _about_indices_for_step(clauses, last_step)
        comp_ids = [index for index, tc in enumerate(translated.comparisons)
                    if tc.step_index == last_step]
        earlier_comp_ids = [index for index, tc
                            in enumerate(translated.comparisons)
                            if tc.step_index != last_step]

        kept = {}
        for key, candidate in candidates.items():
            if predicate is not None and not _predicate_satisfied(
                    predicate, about_ids, comp_ids, satisfied.get(key, set()),
                    lambda ci, c=candidate: comparison_ok(ci, c)):
                continue
            if any(not comparison_ok(ci, candidate)
                   for ci in earlier_comp_ids):
                continue
            kept[key] = candidate
        candidates = kept

        hits = list(candidates.values())
        self.cost_model.sort(len(hits))
        hits.sort(key=lambda h: (-h.score, h.docid, h.end_pos))
        return hits

    def _comparison_hits(self, comparison: TranslatedComparison) -> list[ScoredHit]:
        """Elements of the comparison's sids satisfying its value test."""
        hits: list[ScoredHit] = []
        if not comparison.sids:
            return hits
        for document in self.collection:
            positions = [t.position for t in document.tokens]
            for node in document.elements():
                sid = self.summary.sid_of(document.docid, node.end_pos)
                if sid not in comparison.sids:
                    continue
                lo = bisect_right(positions, node.start_pos)
                hi = bisect_left(positions, node.end_pos)
                for occurrence in document.tokens[lo:hi]:
                    self.cost_model.compare()
                    if comparison.clause.matches(occurrence.term):
                        hits.append(ScoredHit(0.0, document.docid,
                                              node.end_pos, sid=sid,
                                              length=node.length))
                        break
        return hits

    def _ancestors_in_sids(self, hit: ScoredHit,
                           target_sids: frozenset[int]) -> list[ScoredHit]:
        """Ancestors-or-self of *hit* whose sid is in *target_sids*."""
        document = self.collection.document(hit.docid)
        node = document.find_by_end(hit.end_pos)
        result = []
        while node is not None:
            sid = self.summary.sid_of(hit.docid, node.end_pos)
            if sid in target_sids:
                result.append(ScoredHit(0.0, hit.docid, node.end_pos,
                                        sid=sid, length=node.length))
            node = node.parent
        return result

    # ------------------------------------------------------------------
    # Segment availability (the ``auto`` rule lives on QueryPlanner)
    # ------------------------------------------------------------------
    def missing_segments(self, translated: TranslatedQuery,
                         kinds: tuple[str, ...] = ("rpl", "erpl"), *,
                         mode: str = "nexi") -> list[tuple[str, str, frozenset[int]]]:
        """``(kind, term, sids)`` triples the query needs but lacks.

        The serving layer consults this before evaluation: an empty
        list means every forced-method evaluation can proceed without
        mutating the catalog, so the query may run under a read lock.
        """
        if mode == "flat":
            sids = translated.flat_sids()
            wanted = [(term, sids) for term in translated.flat_term_weights()]
        else:
            wanted = [(term, clause.sids) for clause in translated.clauses
                      for term in clause.terms]
        missing = []
        for term, sids in wanted:
            for kind in kinds:
                if self.catalog.find_segment(kind, term, sids) is None:
                    missing.append((kind, term, frozenset(sids)))
        return missing

    @sanitizer.mutates_engine_state
    def warm_segments(self, missing: list[tuple], *, workers: int = 0) -> int:
        """Materialize a universal segment for each ``(kind, term, ...)``
        entry of *missing* (as produced by :meth:`missing_segments`)
        that is still absent.  Returns the number of segments created.

        The serving layer calls this under its write lock before
        retrying a forced-method evaluation that reported missing
        indexes.  All absent segments are built by one batched
        collection pass via :meth:`build_plan` instead of one per-term
        scan each.
        """
        planner = BuildPlanner()
        planner.add_missing(missing)
        report, _installed = self.build_plan(planner.plan(), workers=workers)
        #: Scan accounting + built counts are kept for telemetry.
        self.last_build_report = report
        return report.built

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    @sanitizer.mutates_engine_state
    def add_document(self, source: str | Document, docid: int | None = None) -> Document:
        """Add one document to the live engine.

        Updates the collection, summary (path-determined summaries
        extend in place), Elements and PostingLists tables — all
        incrementally: docid allocation is O(1), only the extents the
        new document touches are re-blocked, and instead of dropping
        every RPL/ERPL segment whose term occurs in the document, the
        document's scored entries are appended to each affected segment
        as a small LSM **delta run**.  The read path merges base +
        deltas (byte-identical results to a from-scratch rebuild);
        :meth:`compact_segments` folds deltas back into the base when
        their size ratio trips.

        Scoring note: the engine's scorer keeps the corpus-statistics
        snapshot taken at construction, so scores of existing elements
        are unchanged by the insert — which is exactly why appending a
        delta run is exact.  Call :meth:`rebuild_scorer` to refresh
        statistics (which drops all segments, since every stored score
        depends on them).
        """
        if isinstance(source, str):
            parser = XMLParser(self.tokenizer)
            next_id = docid if docid is not None else self.collection.next_docid
            document = parser.parse(source, next_id)
        else:
            document = source
        self._ingest(document, None)
        return document

    @sanitizer.mutates_engine_state
    def apply_replicated_document(
            self, document: Document,
            deltas: tuple[tuple[int, str, str, tuple[RplEntry, ...]], ...]
            ) -> Document:
        """Install a leader-ingested document on a follower replica.

        Structural state (collection, summary, Elements/PostingLists
        tables) is recomputed locally — it is cheap and deterministic —
        but the scored delta rows are the *shipped* ones, keyed by the
        leader's ``(segment id, kind, term)``, so every replica appends
        exactly the leader's LSM runs without re-running the scorer.
        """
        self._ingest(document, deltas)
        return document

    def _ingest(self, document: Document,
                shipped: tuple[tuple[int, str, str,
                                     tuple[RplEntry, ...]], ...] | None
                ) -> None:
        with self.cost_model.muted():
            self.collection.add(document)
            self.summary.extend(document)
            affected_sids: set[int] = set()
            for node in document.elements():
                sid = self.summary.sid_of(document.docid, node.end_pos)
                affected_sids.add(sid)
                self.elements.insert((sid, document.docid, node.end_pos,
                                      node.length))
            affected = extend_posting_lists(self.postings, document)
            self.blocked_elements.rebuild(sids=affected_sids)
            self.blocked_postings.rebuild(terms=affected)
            self.last_ingest_deltas = []
            applied_ids: set[int] = set()
            if shipped is not None:
                for segment_id, kind, term, rows in shipped:
                    # A shipped id this replica lacks — or holds a
                    # *different* replica-local lazy build under — is a
                    # leader-local materialization: skip it.  A later
                    # on-demand build here scans the (already extended)
                    # collection and produces the complete list anyway.
                    if not self.catalog.has_segment(segment_id):
                        continue
                    resident = self.catalog.get_segment(segment_id)
                    if (resident.kind, resident.term) != (kind, term):
                        continue
                    self.catalog.append_delta(segment_id, list(rows))
                    self.last_ingest_deltas.append((segment_id, rows))
                    applied_ids.add(segment_id)
            # Segments no shipped rows landed on — all of them on a
            # leader/standalone ingest, replica-local lazy builds on a
            # follower — compute their delta rows locally.
            stale = [segment for segment in self.catalog.segments()
                     if segment.term in affected
                     and segment.segment_id not in applied_ids]
            if stale:
                delta_entries = compute_document_entries(
                    document, self.summary,
                    sorted({segment.term for segment in stale}),
                    self.scorer)
                for segment in stale:
                    rows = filter_scope(delta_entries, segment.term,
                                        segment.scope)
                    # A scoped segment whose scope excludes every new
                    # entry is untouched — it is still exact as-is.
                    if rows:
                        self.catalog.append_delta(segment.segment_id,
                                                  rows)
                        self.last_ingest_deltas.append(
                            (segment.segment_id, tuple(rows)))
        self.epoch += 1

    @sanitizer.mutates_engine_state
    def compact_segments(self, *, ratio: float | None = None,
                         force: bool = False) -> int:
        """Fold LSM delta runs into base runs where the delta-to-base
        size ratio trips (``force=True`` folds every segment carrying
        deltas).  Returns the number of segments compacted.

        Compaction never changes query answers — the merged run holds
        exactly the entries the iterators were already merging — so the
        epoch is *not* bumped and result caches stay valid.
        """
        limit = self.compaction_ratio if ratio is None else ratio
        with self.cost_model.muted():
            candidates = self.catalog.compaction_candidates(limit, force=force)
            for segment_id in candidates:
                self.catalog.compact_segment(segment_id)
        return len(candidates)

    @sanitizer.mutates_engine_state
    def rebuild_scorer(self, scorer_factory: Callable[[ScoringStats], ElementScorer] | None = None) -> None:
        """Refresh corpus statistics and drop every stored segment.

        ``scorer_factory`` receives the fresh :class:`ScoringStats` and
        returns a scorer; by default a BM25 scorer is built.
        """
        with self.cost_model.muted():
            stats = ScoringStats.from_collection(self.collection)
            if scorer_factory is None:
                self.scorer = BM25Scorer(stats)
            else:
                self.scorer = scorer_factory(stats)
            for segment in list(self.catalog.segments()):
                self.catalog.drop_segment(segment.segment_id)
        self.epoch += 1

    # ------------------------------------------------------------------
    # Plan explanation
    # ------------------------------------------------------------------
    def explain(self, query: str | NexiQuery, k: int | None = None, *,
                vague: bool = True) -> dict:
        """Describe how the engine would evaluate *query* — translation,
        per-method index availability, and the auto-chosen method —
        without charging the cost model or running anything."""
        with self.cost_model.muted():
            translated = self.translate(query, vague=vague)
            clause_plans = []
            for clause in translated.clauses:
                terms = {}
                for term in clause.terms:
                    rpl = self.catalog.find_segment("rpl", term, clause.sids)
                    erpl = self.catalog.find_segment("erpl", term, clause.sids)
                    terms[term] = {
                        "rpl": rpl.describe() if rpl else None,
                        "erpl": erpl.describe() if erpl else None,
                        "postings": sum(
                            len(row[3]) for row in
                            self.postings.scan_prefix((term,))),
                    }
                clause_plans.append({
                    "pattern": str(clause.pattern),
                    "role": "target" if clause.is_target else "support",
                    "sids": sorted(clause.sids),
                    "extent_sizes": {
                        sid: self.summary.extent_size(sid)
                        for sid in sorted(clause.sids)},
                    "terms": terms,
                })
            return {
                "query": str(translated.query),
                "target_pattern": str(translated.target_pattern),
                "num_sids": translated.num_sids,
                "num_terms": translated.num_terms,
                "comparisons": [str(tc.clause) for tc in translated.comparisons],
                "clauses": clause_plans,
                "chosen_method": self.choose_method(translated, k),
            }

    # ------------------------------------------------------------------
    # Index persistence
    # ------------------------------------------------------------------
    def save_indexes(self, directory: str) -> None:
        """Persist Elements, PostingLists and the RPL/ERPL catalog.

        The collection and summary are *not* saved — they are cheap to
        rebuild from the source documents deterministically, while the
        index tables are the expensive artifacts (paper §5.1's
        gigabytes).
        """
        os.makedirs(directory, exist_ok=True)
        with self.cost_model.muted():
            self.elements.save(os.path.join(directory, "elements.tbl"))
            self.postings.save(os.path.join(directory, "postings.tbl"))
            self.catalog.save(os.path.join(directory, "catalog"))

    @sanitizer.mutates_engine_state
    def load_indexes(self, directory: str) -> None:
        """Replace this engine's index tables from a saved directory."""
        with self.cost_model.muted():
            self.elements.load(os.path.join(directory, "elements.tbl"))
            self.postings.load(os.path.join(directory, "postings.tbl"))
            self.catalog.load(os.path.join(directory, "catalog"))
            # The catalog adopts whatever backend the store was written
            # with; keep the engine's view in step.
            self.backend = self.catalog.backend
            self.compression = self.catalog.compression
            self.blocked_elements.rebuild()
            self.blocked_postings.rebuild()
        self.epoch += 1

    # ------------------------------------------------------------------
    # Buffer-pool management
    # ------------------------------------------------------------------
    def use_page_cache(self, cache: PageCache) -> None:
        """Route every index structure through one shared buffer pool.

        Covers the Elements and PostingLists B+-trees, both blocked
        access paths, and every RPL/ERPL block sequence in the catalog
        — the single-cache configuration BerkeleyDB runs in the paper.
        """
        self.elements.tree.use_cache(cache)
        self.postings.tree.use_cache(cache)
        self.blocked_elements.use_cache(cache)
        self.blocked_postings.use_cache(cache)
        self.catalog.use_cache(cache)

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        return {
            "collection": self.collection.describe(),
            "summary": self.summary.describe(),
            "elements_rows": len(self.elements),
            "elements_bytes": self.elements.size_bytes,
            "postings_rows": len(self.postings),
            "postings_bytes": self.postings.size_bytes,
            "catalog_bytes": self.catalog.total_bytes,
            "segments": self.catalog.describe(),
            "storage": self.catalog.storage_snapshot(),
        }


def _effective_k(k: int | None, segments: dict[str, IndexSegment]) -> int:
    """*k*, or every stored entry when all answers are wanted."""
    return k if k is not None else max(
        1, sum(segment.entry_count for segment in segments.values()))


def _about_indices_for_step(clauses: list[TranslatedClause], step: int) -> dict[int, int]:
    """Map the i-th about clause of *step*'s predicate (in AST order) to
    its translated-clause index.  Translation enumerates about clauses
    in AST order, so positions line up."""
    mapping = {}
    position = 0
    for index, clause in enumerate(clauses):
        if clause.step_index == step:
            mapping[position] = index
            position += 1
    return mapping


def _predicate_satisfied(predicate: Predicate, about_ids: dict[int, int],
                         comp_ids: list[int], satisfied: set[int],
                         comparison_ok: Callable[[int], bool],
                         _counters: dict | None = None) -> bool:
    """Evaluate the predicate's boolean structure for one candidate.

    About-clause atoms consult the recorded *satisfied* clause indices;
    comparison atoms call *comparison_ok* with the translated
    comparison's index.  Atoms are matched positionally, in AST order.
    """
    if _counters is None:
        _counters = [0, 0]  # [about atoms seen, comparison atoms seen]
    if isinstance(predicate, AboutClause):
        position = _counters[0]
        _counters[0] += 1
        index = about_ids.get(position)
        return index is not None and index in satisfied
    if isinstance(predicate, ComparisonClause):
        position = _counters[1]
        _counters[1] += 1
        if position >= len(comp_ids):
            return False
        return comparison_ok(comp_ids[position])
    if isinstance(predicate, BooleanPredicate):
        results = [_predicate_satisfied(op, about_ids, comp_ids, satisfied,
                                        comparison_ok, _counters)
                   for op in predicate.operands]
        if predicate.op == "and":
            return all(results)
        return any(results)
    raise RetrievalError(f"unsupported predicate node {type(predicate).__name__}")
