"""WAND — document-at-a-time retrieval with block-max pivoting.

The fourth strategy on the TERMatat/DOCatat axis.  Where TA consumes
each RPL in score order and Merge streams every ERPL to the end, WAND
walks the ERPLs in *document order* and uses two tiers of upper bounds
to leap over elements that cannot reach the current top-k floor:

* a **static per-term bound** — when an RPL for the term is resident,
  the head of its block-max directory (``headers[0].max_score``, the
  term's best stored score; with LSM delta runs, the max over live
  runs), otherwise the max over the ERPL's block headers.  The classic
  WAND pivot test sorts terms by their current document and accumulates
  ``w_t · UB_t`` until the sum reaches the floor θ: the term where it
  crosses holds the *pivot* — the first document that could still make
  the top-k;
* a **shallow block-max bound** — before the prefix lists pay a deep
  descent (directory leap + block decode) to align on the pivot, the
  resident ERPL headers of the blocks that would hold the pivot refine
  the bound.  If even the block maxima cannot reach θ, every document
  up to the nearest block boundary (and below the first suffix head) is
  dead, and the prefix lists leap past it without decoding anything —
  the Block-Max-WAND step.

Scoring and tie handling are identical to ERA/TA/Merge: a document's
score is the weighted sum of its stored per-term scores (every stored
score is positive), candidates with upper bound **equal** to θ are
still evaluated (so score ties survive and resolve by smallest key),
and results sort by ``(-score, docid, endpos)`` — byte-identical top-k.

The loop is packaged as a resumable :class:`WandSession` mirroring
:class:`~repro.retrieval.ta.TaSession`: ``wand_retrieve`` runs one
session to completion, while the sharded coordinator advances one
session per shard and feeds the global k-th floor into each session's
pivot bound (``external_floor``) — distributed WAND.
"""

from __future__ import annotations

import heapq

from ..corpus.document import M_POS
from ..index.catalog import IndexCatalog, IndexSegment
from ..index.rpl import RplEntry
from ..scoring.combine import ScoredHit
from ..storage.cost import CostModel
from .heap import TopKHeap
from .iterators import Position, _ErplSidStream
from .result import EvaluationStats
from .ta import DEFAULT_BATCH_SIZE

__all__ = ["WandTermIterator", "WandSession", "wand_retrieve"]


class WandTermIterator:
    """Document-order access over one term's ERPL with WAND bounds.

    One skip-capable stream per (sid, run) pair — delta runs appended by
    ``add_document`` merge exactly like :class:`ErplIterator`'s streams
    — combined by a small heap keyed ``(docid, endpos)``.  ``skip_to``
    forwards the leap to every stream whose head is below the target,
    so blocks wholly under it are never decoded.

    ``static_bound`` is the term's WAND upper bound: the resident RPL
    block-max directory head when an RPL segment is stored (max over
    live runs), else the max over the ERPL's own block headers — both
    header-only, nothing is decoded for it.
    """

    def __init__(self, catalog: IndexCatalog, segment: IndexSegment,
                 bound_segment: IndexSegment | None,
                 sids: frozenset[int] | set[int],
                 cost_model: CostModel) -> None:
        self.term = segment.term
        self.length = segment.entry_count
        self._model = cost_model
        self.depth = 0
        self._discarded = 0
        self._heap: list[tuple[Position, int, RplEntry]] = []
        self._streams: list[_ErplSidStream] = []
        runs = catalog.runs_for(segment)
        stream_id = 0
        for sid in sorted(sids):
            for sequence in runs:
                self._streams.append(
                    _ErplSidStream(sequence, sid, cost_model))
                self._push_from(stream_id)
                stream_id += 1
        bound = 0.0
        if bound_segment is not None:
            # The RPL directory is score-descending: the first header's
            # max_score of each live run is the run's best stored score.
            for run in catalog.runs_for(bound_segment):
                if run.block_count:
                    head = run.headers[0].max_score
                    if head > bound:
                        bound = head
        else:
            for run in runs:
                for header in run.headers:
                    if header.max_score > bound:
                        bound = header.max_score
        self.static_bound = bound

    def _push_from(self, stream_id: int) -> None:
        row = self._streams[stream_id].next_row()
        if row is None:
            return
        self.depth += 1
        sid, docid, endpos, score, length = row
        entry = RplEntry(score, sid, docid, endpos, length)
        heapq.heappush(self._heap, ((docid, endpos), stream_id, entry))

    @property
    def exhausted(self) -> bool:
        return not self._heap

    @property
    def current_key(self) -> Position:
        """The head element key, or ``M_POS`` once exhausted."""
        if not self._heap:
            return M_POS
        return self._heap[0][0]

    def consume_head(self) -> RplEntry:
        """Pop and return the head entry (one element, fully scored)."""
        _key, stream_id, entry = heapq.heappop(self._heap)
        self._push_from(stream_id)
        return entry

    def skip_to(self, key: Position) -> int:
        """Leap every stream whose head is below *key*; afterwards the
        term's head (if any) is the first element at or past *key*.
        Returns the number of undecoded blocks leapt."""
        leapt = 0
        heap = self._heap
        while heap and heap[0][0] < key:
            _key, stream_id, _entry = heapq.heappop(heap)
            self._discarded += 1
            leapt += self._streams[stream_id].leap_to(key)
            self._push_from(stream_id)
        return leapt

    def shallow(self, key: Position) -> tuple[float, Position | None]:
        """Block-max refinement for elements at or past *key*.

        Returns ``(bound, boundary)``: *bound* is the max over the live
        streams' header probes — sound per element because an element
        key belongs to exactly one (sid, run) stream — and *boundary*
        the last key the probed blocks jointly cover (``None`` when
        they cover every remaining element).  Header walk only.
        """
        bound = 0.0
        boundary: Position | None = None
        for _key, stream_id, _entry in self._heap:
            stream_bound, stream_boundary = self._streams[stream_id].probe(key)
            if stream_bound > bound:
                bound = stream_bound
            if stream_boundary is not None and (boundary is None
                                                or stream_boundary < boundary):
                boundary = stream_boundary
        return bound, boundary

    def skip_tail(self) -> int:
        """Abandon the term: remaining blocks count as skipped."""
        skipped = 0
        for stream in self._streams:
            skipped += stream.skip_tail()
        self._heap.clear()
        return skipped

    @property
    def skipped(self) -> int:
        """Rows bypassed without individual materialization."""
        return self._discarded + sum(stream.rows_bypassed
                                     for stream in self._streams)


class WandSession:
    """One WAND run, advanced pivot-round by pivot-round.

    Mirrors :class:`~repro.retrieval.ta.TaSession`'s resumable surface
    (``threshold`` / ``can_prune`` / ``step`` / ``run`` / ``prune`` /
    ``finalize`` / ``stats_into``) so the sharded coordinator drives
    both interchangeably.  Unlike TA's candidate bounds, every heap
    entry here carries an **exact** full score — the document was
    evaluated completely when it was offered — which is what makes the
    distributed floor tight.  ``external_floor`` lets the coordinator
    feed the global k-th floor straight into the pivot test.
    """

    def __init__(self,
                 catalog: IndexCatalog,
                 segments: dict[str, IndexSegment],
                 sids: frozenset[int] | set[int],
                 k: int,
                 cost_model: CostModel,
                 term_weights: dict[str, float] | None = None,
                 bound_segments: dict[str, IndexSegment | None] | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if k < 1:
            raise ValueError("WAND requires k >= 1")
        self.k = k
        self.cost_model = cost_model
        self.batch_size = batch_size
        self.weights = {term: 1.0 for term in segments}
        if term_weights:
            self.weights.update({t: w for t, w in term_weights.items()
                                 if t in self.weights})
        bounds = bound_segments if bound_segments is not None else {}
        self.iterators = {
            term: WandTermIterator(catalog, segment, bounds.get(term),
                                   sids, cost_model)
            for term, segment in segments.items()}
        #: Evaluated element key -> (sid, length), for finalize().
        self.candidates: dict[tuple[int, int], tuple[int, int]] = {}
        self.heap = TopKHeap(k, cost_model)
        self.external_floor = float("-inf")
        self.early_stop = False
        self.pruned = False
        self.finished = False
        self.pivot_advances = 0
        self.blocks_skipped_shallow = 0
        self.docs_evaluated = 0

    # -- bounds ---------------------------------------------------------
    def threshold(self) -> float:
        """Σ_j w_j · UB_j over live terms — bound on any unseen element."""
        return sum(self.weights[term] * iterator.static_bound
                   for term, iterator in self.iterators.items()
                   if not iterator.exhausted)

    def _theta(self) -> float:
        floor = self.heap.min_score()
        if self.external_floor > floor:
            floor = self.external_floor
        return floor

    def can_prune(self, floor: float) -> bool:
        """Sound early-termination test against a global *floor*.

        Every heap entry is an exact full score, so the shard is dead
        once the floor strictly clears both the static threshold (no
        unseen element can reach it) and the best already-evaluated
        score (no collected hit would survive the global merge).
        Strict comparisons throughout, so cross-shard ties survive.
        """
        if floor == float("-inf"):
            return False
        self.cost_model.compare()
        if floor <= self.threshold():
            return False
        if len(self.heap):
            self.cost_model.compare()
            if self.heap.items()[0][0] >= floor:
                return False
        return True

    # -- advancement ----------------------------------------------------
    def step(self) -> bool:
        """Advance one batch of pivot rounds; False once ended."""
        if self.finished:
            return False
        for _ in range(self.batch_size):
            if not self._round():
                return False
        return True

    def run(self) -> None:
        while self.step():
            pass

    def _round(self) -> bool:
        """One pivot round: find the pivot, then evaluate it, leap the
        prefix lists onto it, or rule it out via the shallow bound."""
        live = [(term, iterator)
                for term, iterator in self.iterators.items()
                if not iterator.exhausted]
        if not live:
            self.finished = True
            return False
        # Nearly-sorted between rounds: one comparison sweep's worth.
        self.cost_model.compare(len(live))
        live.sort(key=lambda pair: pair[1].current_key)
        theta = self._theta()
        accumulated = 0.0
        pivot = -1
        for index, (term, iterator) in enumerate(live):
            accumulated += self.weights[term] * iterator.static_bound
            self.cost_model.compare()
            if accumulated >= theta:  # non-strict: ties must be evaluated
                pivot = index
                break
        if pivot < 0:
            # Even all live bounds together fall strictly below θ: no
            # remaining document can enter the top-k.
            self.early_stop = True
            self._finish()
            return False
        pivot_key = live[pivot][1].current_key
        if live[0][1].current_key == pivot_key:
            self._evaluate(pivot_key)
            return True
        prefix = live[:pivot + 1]
        shallow = 0.0
        boundary: Position | None = None
        for term, iterator in prefix:
            term_bound, term_boundary = iterator.shallow(pivot_key)
            shallow += self.weights[term] * term_bound
            self.cost_model.compare()
            if term_boundary is not None and (boundary is None
                                              or term_boundary < boundary):
                boundary = term_boundary
        if shallow < theta:
            # Block-Max-WAND: the blocks around the pivot cannot reach
            # θ, so everything up to the boundary (and below the first
            # suffix head) is dead — leap it without decoding.
            target = self._next_target(live, pivot, pivot_key, boundary)
            for term, iterator in prefix:
                self.blocks_skipped_shallow += iterator.skip_to(target)
            self.pivot_advances += 1
            return True
        # Deep descent: align the prefix lists on the pivot document.
        for term, iterator in live[:pivot]:
            iterator.skip_to(pivot_key)
        self.pivot_advances += 1
        return True

    @staticmethod
    def _next_target(live: list[tuple[str, "WandTermIterator"]], pivot: int,
                     pivot_key: Position,
                     boundary: Position | None) -> Position:
        """First key not ruled out by a failed shallow check: past the
        pivot and the probed block boundary, clipped to the first
        suffix head (a suffix term could score documents beyond it)."""
        target = (pivot_key[0], pivot_key[1] + 1)
        if boundary is None:
            target = M_POS  # the probed blocks cover every remaining key
        else:
            after = (boundary[0], boundary[1] + 1)
            if after > target:
                target = after
        if pivot + 1 < len(live):
            suffix_head = live[pivot + 1][1].current_key
            if suffix_head < target:
                target = suffix_head
        return target

    def _evaluate(self, key: Position) -> None:
        """Full evaluation of the aligned pivot document: consume its
        entry from every term positioned on it, in term order."""
        score = 0.0
        sid = 0
        length = 0
        for term, iterator in self.iterators.items():
            if iterator.exhausted or iterator.current_key != key:
                continue
            self.cost_model.compare()
            entry = iterator.consume_head()
            score += self.weights[term] * entry.score
            self.cost_model.score_combine()
            sid = entry.sid
            length = entry.length
        self.docs_evaluated += 1
        self.candidates[key] = (sid, length)
        self.heap.offer(score, key)

    def _finish(self) -> None:
        self.finished = True
        for iterator in self.iterators.values():
            iterator.skip_tail()

    def prune(self) -> None:
        """Abandon the session: its hits can no longer reach the global
        top-k; remaining blocks count as skipped."""
        self.pruned = True
        self._finish()

    # -- results --------------------------------------------------------
    def finalize(self) -> list[ScoredHit]:
        hits = [ScoredHit(score=score, docid=key[0], end_pos=key[1],
                          sid=self.candidates[key][0],
                          length=self.candidates[key][1])
                for score, key in self.heap.items()]
        hits.sort(key=lambda h: (-h.score, h.docid, h.end_pos))
        return hits

    def stats_into(self, stats: EvaluationStats) -> None:
        """Accumulate per-list depth/length/skip and pivot counters."""
        for term, iterator in self.iterators.items():
            stats.list_depths[term] = (stats.list_depths.get(term, 0)
                                       + iterator.depth)
            stats.list_lengths[term] = (stats.list_lengths.get(term, 0)
                                        + iterator.length)
            stats.rows_skipped += iterator.skipped
        stats.pivot_advances += self.pivot_advances
        stats.blocks_skipped_shallow += self.blocks_skipped_shallow
        stats.docs_evaluated += self.docs_evaluated


def wand_retrieve(catalog: IndexCatalog,
                  segments: dict[str, IndexSegment],
                  sids: frozenset[int] | set[int],
                  k: int,
                  cost_model: CostModel,
                  term_weights: dict[str, float] | None = None,
                  bound_segments: dict[str, IndexSegment | None] | None = None,
                  batch_size: int = DEFAULT_BATCH_SIZE,
                  ) -> tuple[list[ScoredHit], EvaluationStats]:
    """Run Block-Max-WAND for the top-*k* elements.

    Parameters
    ----------
    segments:
        For each query term, the ERPL segment to walk in document order.
    bound_segments:
        Optionally, for each term, a resident RPL segment whose
        block-max directory supplies the static upper bound (probed
        only — never decoded, never materialized).
    """
    snapshot = cost_model.snapshot()
    session = WandSession(catalog, segments, sids, k, cost_model,
                          term_weights, bound_segments, batch_size)
    session.run()
    hits = session.finalize()

    spent = cost_model.since(snapshot)
    stats = EvaluationStats(method="wand", cost=spent.total_cost,
                            ideal_cost=spent.ideal_cost,
                            candidates=len(session.candidates),
                            early_stop=session.early_stop)
    stats.record_block_io(spent)
    session.stats_into(stats)
    return hits, stats
