"""The three workloads: request streams, set-up and the ERA oracle.

Every stream is a sequence of *blocks*.  A block's multiset of requests
is fixed by the workload; ``--seed`` decides the order of the requests
in each block.  A run serves a fixed number of whole blocks, so every
run does the same work and the figures of two seeds are comparable.
The program only ever sees the generated requests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any

from repro.bench.queries import PAPER_QUERIES
from repro.corpus.alias import AliasMapping
from repro.corpus.collection import Collection
from repro.corpus.generator import SyntheticIEEECorpus, SyntheticWikipediaCorpus
from repro.corpus.xmlparser import XMLParser
from repro.retrieval.engine import TrexEngine
from repro.service import QueryService, ServiceConfig
from repro.shard.engine import ShardedEngine
from repro.summary.variants import IncomingSummary

#: Corpus seed of ``repro.bench.bench_engine`` (the paper-query corpora).
BASE_SEED = 42
IEEE_DOCS = 120
WIKI_DOCS = 200
#: Service worker threads: ``nproc`` of the reference machine.
WORKERS = 2


@dataclass(frozen=True)
class Op:
    """One request of a stream."""

    kind: str  # "search" | "ingest"
    target: str  # which service serves it
    query: str = ""
    k: int | None = None
    method: str = "auto"
    mode: str = "nexi"
    use_cache: bool = True
    xml: str = ""


@dataclass
class Corpus:
    collection: Collection
    source_bytes: int


def build_corpus(kind: str, num_docs: int, seed: int = BASE_SEED) -> Corpus:
    """Generate and parse a bench corpus (what ``bench_engine`` builds),
    keeping the size of the XML source."""
    generator: Any
    if kind == "ieee":
        generator = SyntheticIEEECorpus(num_docs=num_docs, seed=seed)
        name = f"synthetic-ieee-{num_docs}"
    else:
        generator = SyntheticWikipediaCorpus(num_docs=num_docs, seed=seed)
        name = f"synthetic-wikipedia-{num_docs}"
    parser = XMLParser()
    collection = Collection(name=name)
    source_bytes = 0
    for docid in range(num_docs):
        xml = generator.document_xml(docid)
        source_bytes += len(xml.encode("utf-8"))
        collection.add(parser.parse(xml, docid))
    return Corpus(collection, source_bytes)


def alias_for(kind: str) -> AliasMapping:
    return (AliasMapping.inex_ieee() if kind == "ieee"
            else AliasMapping.inex_wikipedia())


def build_engine(kind: str, num_docs: int) -> tuple[TrexEngine, int]:
    corpus = build_corpus(kind, num_docs)
    summary = IncomingSummary(corpus.collection, alias=alias_for(kind))
    return TrexEngine(corpus.collection, summary), corpus.source_bytes


def warm_universal(service: QueryService, query: str, mode: str) -> None:
    """Materialize the universal RPL and ERPL segments *query* reads."""
    engine = service.engine
    with service.lock.write():
        translated = engine.translate(query)
        missing = engine.missing_segments(translated, ("rpl", "erpl"),
                                          mode=mode)
        if missing:
            engine.warm_segments(missing)


# ----------------------------------------------------------------------
# NEXI templates over the IEEE planted topic terms
# ----------------------------------------------------------------------
def example_1_1(about: str, sec_terms: str) -> str:
    """The paper's Example 1.1 shape: an article about A, its sections
    about B C."""
    return f"//article[about(., {about})]//sec[about(., {sec_terms})]"


def q233_shape(first: str, second: str) -> str:
    """Q233's shape: an article whose body is about A and about B."""
    return (f"//article[about(.//bdy, {first}) and "
            f"about(.//bdy, {second})]")


Q202 = PAPER_QUERIES[202].nexi

#: The NEXI pool in popularity order (rank 1 first).  Shapes alternate
#: so that the hot end holds every shape.
NEXI_POOL = (
    Q202,
    q233_shape("synthesizers", "music"),
    example_1_1("xml", "query evaluation"),
    q233_shape("xml", "query"),
    example_1_1("information", "retrieval introduction"),
    q233_shape("checking", "explosion"),
    example_1_1("model", "state space"),
    q233_shape("case", "study"),
    example_1_1("code", "signing verification"),
)


def zipf_counts(size: int, total: int, exponent: float) -> list[int]:
    """*total* requests over *size* ranks in proportion to
    1/rank^exponent (largest-remainder rounding)."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(size)]
    scale = total / sum(weights)
    raw = [weight * scale for weight in weights]
    counts = [int(value) for value in raw]
    by_remainder = sorted(range(size), key=lambda i: (counts[i] - raw[i], i))
    for index in by_remainder[:total - sum(counts)]:
        counts[index] += 1
    return counts


class Workload:
    """Base class; subclasses define the stream and the set-up."""

    name = ""
    #: Blocks a run serves at the benchmark's ``run_seconds``: about
    #: that many seconds of timed work on the reference machine
    #: (2 vCPUs), and as many as put the tail percentile inside a
    #: cluster of similar latencies rather than between two.
    blocks = 6
    #: Searches per block.
    block_searches = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.services: dict[str, QueryService] = {}
        #: Bytes of XML source held by the engines (base + ingested).
        self.source_bytes = 0
        #: Extra setup facts for the per-layer report.
        self.setup_facts: dict[str, float] = {}

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{label}")

    # -- stream --------------------------------------------------------
    def block(self, index: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """One untimed block (own seed label) to fill caches."""
        return self.block(-1)

    # -- program -------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def leader_engines(self) -> list[TrexEngine]:
        """One engine per shard (replicas are copies of their leader)."""
        engines = []
        for service in self.services.values():
            engine = service.engine
            if isinstance(engine, ShardedEngine):
                engines.extend(shard.engine for shard in engine.shards)
            else:
                engines.append(engine)
        return engines

    def index_bytes(self) -> int:
        """Elements + PostingLists + catalog segments (delta runs
        included) over every leader engine."""
        return sum(engine.elements.size_bytes + engine.postings.size_bytes
                   + engine.catalog.total_bytes
                   for engine in self.leader_engines())


    def close(self) -> None:
        for service in self.services.values():
            service.close()


class PaperFlat(Workload):
    name = "paper-flat"
    blocks = 7
    methods = ("era", "ta", "merge", "wand", "auto")
    ks = (10, 50)
    block_searches = len(PAPER_QUERIES) * len(ks) * len(methods)

    def block(self, index: int) -> list[Op]:
        ops = []
        for query in PAPER_QUERIES.values():
            for k in self.ks:
                for method in self.methods:
                    ops.append(Op("search", query.collection, query.nexi,
                                  k, method, "flat", use_cache=False))
        self.rng(f"block{index}").shuffle(ops)
        return ops

    def setup(self) -> None:
        config = ServiceConfig(workers=WORKERS)
        for kind, docs in (("ieee", IEEE_DOCS), ("wiki", WIKI_DOCS)):
            engine, source_bytes = build_engine(kind, docs)
            self.source_bytes += source_bytes
            service = QueryService(engine, config)
            self.services[kind] = service
            for query in PAPER_QUERIES.values():
                if query.collection == kind:
                    warm_universal(service, query.nexi, "flat")


class NexiCached(Workload):
    name = "nexi-cached"
    blocks = 7
    ks = (10, 50)
    #: Requests per block beyond one per pool item, Zipf-skewed by rank.
    repeats = 4
    zipf_exponent = 1.5
    #: Result-cache entries: small against the pool, so the hit rate
    #: stays well below one half instead of climbing towards one.
    cache_capacity = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._blocks: dict[int, list[Op]] = {}

    def items(self) -> list[tuple[str, int]]:
        """Pool of (query, k) in rank order: k alternates down the
        ranks so both values are hot."""
        items = []
        for rank, query in enumerate(NEXI_POOL):
            first, second = self.ks if rank % 2 == 0 else self.ks[::-1]
            items.append((query, first))
            items.append((query, second))
        return items

    @property
    def block_searches(self) -> int:
        return len(self.items()) + self.repeats

    def block(self, index: int) -> list[Op]:
        """Every pool item once, each followed at once by its repeats.

        A repeat therefore always hits the cache, and the first request
        of an item always misses: block *index* starts with no item the
        previous block ended with (within the cache's reach), so every
        block has exactly :attr:`repeats` hits whatever the seed.
        """
        cached = self._blocks.get(index)
        if cached is not None:
            return cached
        items = self.items()
        counts = [1 + extra for extra in zipf_counts(
            len(items), self.repeats, self.zipf_exponent)]
        units = list(zip(items, counts))
        rng = self.rng(f"block{index}")
        reach = self.cache_capacity
        recent: set[tuple[str, int]] = set()
        if index >= 0:
            previous = self.block(index - 1)
            tail_items: list[tuple[str, int]] = []
            for op in reversed(previous):
                if (op.query, op.k) not in tail_items:
                    tail_items.append((op.query, op.k))
            recent = set(tail_items[:reach])
        while True:
            rng.shuffle(units)
            if not recent & {item for item, _count in units[:reach]}:
                break
        ops = [Op("search", "ieee", query, k, "auto", "nexi")
               for (query, k), count in units for _ in range(count)]
        self._blocks[index] = ops
        return ops

    def setup(self) -> None:
        engine, self.source_bytes = build_engine("ieee", IEEE_DOCS)
        service = QueryService(engine, ServiceConfig(
            workers=WORKERS, cache_capacity=self.cache_capacity))
        self.services["ieee"] = service
        # The autopilot learns the workload from a recorded prefix of
        # the stream and selects redundant indexes under its default
        # disk budget (paper §4), before any timed request.
        for op in self.block(0):
            service.recorder.record(op.query, op.k)
        report = service.autopilot.run_cycle()
        if report is None:
            raise RuntimeError("autopilot cycle did not run")
        self.setup_facts["selfmanage.bytes_materialized"] = float(
            report.materialized_bytes)
        service.cache.clear()


class IngestSharded(Workload):
    name = "ingest-sharded"
    blocks = 6
    shards = 2
    replicas = 2
    #: The first searches of the pool are asked twice a block; the
    #: second asking hits the cache.  Six repeats put the median among
    #: the cheap searches, whose latency barely depends on how many
    #: delta runs the block's ingest has left; the mid-priced ones
    #: (Q203, Q202 flat) move by a factor of two with them.
    repeats = 6
    #: Block *i* ingests document *i + 1* of a differently seeded IEEE
    #: generator (the warm-up block ingests document 0), so every seed
    #: grows the collection the same way and only the order of the
    #: searches differs.
    fresh_seed = BASE_SEED + 1
    flat_qids = (202, 203, 233, 260, 270)

    def searches(self) -> list[tuple[str, str]]:
        """(query, mode) pool: the flat Table-1 IEEE queries and NEXI
        templates."""
        pool = [(PAPER_QUERIES[qid].nexi, "flat") for qid in self.flat_qids]
        pool += [(query, "nexi") for query in NEXI_POOL[:3]]
        return pool

    @property
    def block_searches(self) -> int:
        return len(self.searches()) + self.repeats

    def block(self, index: int) -> list[Op]:
        pool = self.searches()
        chosen = pool + pool[:self.repeats]
        self.rng(f"block{index}").shuffle(chosen)
        fresh = SyntheticIEEECorpus(num_docs=1, seed=self.fresh_seed)
        ops = [Op("ingest", "ieee", xml=fresh.document_xml(index + 1))]
        ops += [Op("search", "ieee", query, 10, "auto", mode)
                for query, mode in chosen]
        return ops

    def setup(self) -> None:
        corpus = build_corpus("ieee", IEEE_DOCS)
        self.source_bytes = corpus.source_bytes
        engine = ShardedEngine(corpus.collection, self.shards,
                               alias=alias_for("ieee"),
                               replicas=self.replicas)
        service = QueryService(engine, ServiceConfig(workers=WORKERS,
                                                     auto_compact=True))
        self.services["ieee"] = service
        for query, mode in self.searches():
            warm_universal(service, query, mode)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperFlat, NexiCached, IngestSharded)}


@dataclass
class Oracle:
    """ERA answers per (service, query, mode, collection state)."""

    answers: dict[tuple, list[tuple]] = field(default_factory=dict)
    evaluations: int = 0

    def expected(self, service: QueryService, target: str, op: Op,
                 epoch: Any) -> list[tuple]:
        key = (target, op.query, op.mode, epoch)
        answer = self.answers.get(key)
        if answer is None:
            engine = service.engine
            if engine.epoch != epoch:
                raise RuntimeError(f"oracle for {op.query!r} asked about "
                                   f"epoch {epoch}, engine is at "
                                   f"{engine.epoch}")
            with service.lock.read():
                # ERA reads no redundant index and ignores k; the top k
                # is a prefix of the full ranking.
                result = engine.evaluate(op.query, None, "era", mode=op.mode)
            answer = [(hit.docid, hit.end_pos, hit.sid, round(hit.score, 6))
                      for hit in result.hits]
            self.answers[key] = answer
            self.evaluations += 1
        return answer if op.k is None else answer[:op.k]


def answer_of(payload: dict) -> list[tuple]:
    return [(hit["docid"], hit["end"], hit["sid"], hit["score"])
            for hit in payload["hits"]]
