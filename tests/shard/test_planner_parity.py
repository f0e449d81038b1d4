"""One planner for both engines: ShardedEngine and ShardedIndexAdvisor
must make exactly the decisions TrexEngine and IndexAdvisor make.

The per-query decisions — request validation, the ``race`` legs and the
``auto`` rule — are shared code, and the sharded advisor prices plans
with the monolithic advisor's arithmetic.  These tests pin that parity
against the single-engine oracle, plus the flat-mode ``auto`` defect
the shared rule fixes (auto picked TA from clause-scoped segments that
a flat evaluation cannot read, then raised MissingIndexError).
"""

import itertools

import pytest

from repro.corpus import Collection, Tokenizer, parse_document
from repro.errors import RetrievalError
from repro.retrieval import TrexEngine
from repro.selfmanage import IndexAdvisor, Workload, WorkloadQuery
from repro.service import QueryService, ServiceConfig
from repro.shard import ShardedEngine, ShardedIndexAdvisor
from repro.shard.advisor import split_shard_query_id
from repro.summary import IncomingSummary

from tests.shard.conftest import hit_keys

QUERY = "//article[about(., xml)]//sec[about(., retrieval)]"

AVAILABILITY = {
    "none": (),
    "rpl": ("rpl",),
    "erpl": ("erpl",),
    "both": ("rpl", "erpl"),
}


def _store_query_scoped(engine, query, kinds):
    """Clause-scoped segments — what the autopilot stores."""
    if kinds:
        engine.materialize_for_query(query, kinds, scope="query")


class TestChooseMethodParity:
    @pytest.mark.parametrize("num_shards", (1, 2, 4))
    @pytest.mark.parametrize("availability", sorted(AVAILABILITY))
    def test_matches_oracle(self, num_shards, availability, ieee_collection,
                            ieee_alias):
        kinds = AVAILABILITY[availability]
        oracle = TrexEngine(ieee_collection,
                            IncomingSummary(ieee_collection,
                                            alias=ieee_alias),
                            auto_materialize=False)
        sharded = ShardedEngine(ieee_collection, num_shards,
                                alias=ieee_alias, auto_materialize=False)
        _store_query_scoped(oracle, QUERY, kinds)
        for shard in sharded.shards:
            _store_query_scoped(shard.engine, QUERY, kinds)
        want_translation = oracle.translate(QUERY)
        got_translation = sharded.translate(QUERY)
        for k, mode in itertools.product((1, 10, 50, None),
                                         ("nexi", "flat")):
            want = oracle.choose_method(want_translation, k, mode=mode)
            got = sharded.choose_method(got_translation, k, mode=mode)
            assert got == want, (
                f"N={num_shards} availability={availability} k={k} "
                f"mode={mode}: sharded {got!r} != oracle {want!r}")
            # The chosen method must actually run on both engines.
            assert hit_keys(sharded.evaluate_translated(
                got_translation, k, "auto", mode=mode).hits) == hit_keys(
                oracle.evaluate_translated(
                    want_translation, k, "auto", mode=mode).hits)


class TestRaceParity:
    @pytest.mark.parametrize("num_shards", (1, 2))
    @pytest.mark.parametrize("mode", ("nexi", "flat"))
    def test_race_returns_oracle_hits(self, num_shards, mode,
                                      ieee_collection, ieee_alias, oracle):
        want = oracle.evaluate(QUERY, k=10, method="race", mode=mode)
        got = ShardedEngine(ieee_collection, num_shards,
                            alias=ieee_alias).evaluate(
            QUERY, k=10, method="race", mode=mode)
        assert hit_keys(got.hits) == hit_keys(want.hits)
        assert got.stats.method.startswith("race(")


class TestValidationParity:
    @pytest.mark.parametrize("kwargs", (
        {"mode": "xpath"},
        {"method": "bogus"},
        {"k": 0},
    ))
    def test_both_engines_reject(self, kwargs, ieee_collection, ieee_alias,
                                 oracle):
        sharded = ShardedEngine(ieee_collection, 2, alias=ieee_alias)
        for engine in (oracle, sharded):
            with pytest.raises(RetrievalError):
                engine.evaluate(QUERY, **{"k": 5, **kwargs})


class TestFlatAutoWithClauseScopedSegments:
    """Flat mode reads one segment per term over the union of sids;
    clause-scoped segments do not cover it, so auto must not pick a
    method that needs them."""

    QUERY = "//a[about(.//b, xml)]//sec[about(., retrieval)]"
    DOCS = (
        "<a><b>xml data</b><sec>retrieval models</sec></a>",
        "<a><b>xml</b><sec>retrieval of xml</sec></a>",
        "<a><sec>retrieval</sec></a>",
    )

    @pytest.fixture()
    def collection(self):
        tokenizer = Tokenizer(stopwords=())
        return Collection.from_documents(
            parse_document(text, docid, tokenizer=tokenizer)
            for docid, text in enumerate(self.DOCS))

    def _engine(self, collection):
        engine = TrexEngine(collection, IncomingSummary(collection),
                            tokenizer=Tokenizer(stopwords=()))
        _store_query_scoped(engine, self.QUERY, ("rpl",))
        engine.auto_materialize = False
        return engine

    def _want(self, collection):
        engine = TrexEngine(collection, IncomingSummary(collection),
                            tokenizer=Tokenizer(stopwords=()))
        return hit_keys(engine.evaluate(self.QUERY, k=5, method="era",
                                        mode="flat").hits)

    def test_trex_engine(self, collection):
        engine = self._engine(collection)
        translated = engine.translate(self.QUERY)
        result = engine.evaluate_translated(translated, 5, "auto",
                                            mode="flat")
        assert hit_keys(result.hits) == self._want(collection)
        assert engine.missing_segments(translated, ("rpl",), mode="flat")
        assert engine.choose_method(translated, 5, mode="flat") == "era"

    def test_sharded_engine(self, collection):
        sharded = ShardedEngine(collection, 1,
                                tokenizer=Tokenizer(stopwords=()))
        for shard in sharded.shards:
            _store_query_scoped(shard.engine, self.QUERY, ("rpl",))
        sharded.auto_materialize = False
        result = sharded.evaluate(self.QUERY, k=5, method="auto",
                                  mode="flat")
        assert hit_keys(result.hits) == self._want(collection)

    def test_service_answers_instead_of_409(self, collection):
        engine = self._engine(collection)
        service = QueryService(engine, ServiceConfig(
            workers=2, queue_depth=8, cache_capacity=0,
            autopilot_interval=None))
        try:
            payload = service.search(self.QUERY, 5, "auto", mode="flat",
                                     use_cache=False)
        finally:
            service.close()
        assert payload["method"] == "era"
        assert [(hit["docid"], hit["end"]) for hit in payload["hits"]] == \
            [key for key, _score in self._want(collection)]


class TestAdvisorParity:
    """At N=1 the sharded advisor is the monolithic one, tags aside."""

    @pytest.fixture()
    def workload(self):
        return Workload([
            WorkloadQuery("q1", "//sec[about(., xml)]", 5, 0.6),
            WorkloadQuery("q2", "//article[about(., database systems)]",
                          10, 0.3),
            WorkloadQuery("q3", "//sec[about(., query evaluation)]", 10,
                          0.1),
        ], normalize=True)

    @pytest.mark.parametrize("budget", (0, 50_000, 200_000))
    def test_single_shard_matches_index_advisor(self, budget, workload,
                                                ieee_collection,
                                                ieee_alias):
        mono = IndexAdvisor(TrexEngine(
            ieee_collection, IncomingSummary(ieee_collection,
                                             alias=ieee_alias)))
        sharded = ShardedIndexAdvisor(ShardedEngine(ieee_collection, 1,
                                                    alias=ieee_alias))
        want_costs = mono.measure(workload)
        got_costs = {split_shard_query_id(tagged)[1]: row
                     for tagged, row in sharded.measure(workload).items()}
        assert set(got_costs) == set(want_costs)
        for query_id, row in want_costs.items():
            assert got_costs[query_id].t_era == row.t_era
            assert got_costs[query_id].t_ta == row.t_ta
            assert got_costs[query_id].t_merge == row.t_merge
            assert got_costs[query_id].t_wand == row.t_wand
            assert got_costs[query_id].s_rpl == row.s_rpl
            assert got_costs[query_id].s_erpl == row.s_erpl

        want_plan = mono.recommend(workload, budget)
        got_plan = sharded.recommend(workload, budget)
        assert sorted((split_shard_query_id(c.query_id)[1], c.kind,
                       c.compression) for c in got_plan.choices) == \
            sorted((c.query_id, c.kind, c.compression)
                   for c in want_plan.choices)
        assert sharded.expected_cost(workload, got_plan) == \
            mono.expected_cost(workload, want_plan)
        assert sharded.baseline_cost(workload) == \
            mono.baseline_cost(workload)
