"""Tests of the benchmark itself.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
from collections import OrderedDict, defaultdict

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import run  # noqa: E402
from perfbench.layers import (  # noqa: E402
    METRICS,
    LayerProbe,
    counter_metrics,
    counter_snapshot,
)
from perfbench.tracing import (  # noqa: E402
    Span,
    SpanRecorder,
    self_time_by_name,
    self_times,
)
from perfbench.workloads import WORKLOADS, NexiCached, Oracle  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def load(name: str) -> dict:
    with open(os.path.join(ROOT, name), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_the_same_stream(name):
    first, again, other = (WORKLOADS[name](seed) for seed in (7, 7, 8))
    blocks = range(-1, 4)
    assert ([first.block(i) for i in blocks]
            == [again.block(i) for i in blocks])
    assert ([first.block(i) for i in blocks]
            != [other.block(i) for i in blocks])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_blocks_hold_a_fixed_mix(name):
    workload = WORKLOADS[name](3)
    def mix(block):
        return sorted((op.kind, op.query, op.k, op.method, op.mode)
                      for op in block)
    searches = [op for op in workload.block(0) if op.kind == "search"]
    assert len(searches) == workload.block_searches
    assert mix(workload.block(0)) == mix(workload.block(5))


@pytest.mark.parametrize("count", [11, 44, 110, 280, 1000])
def test_tail_has_ten_samples_beyond_it(count):
    values = [float(i) for i in range(count)]
    pct, _value, beyond = run.tail(values)
    assert beyond >= 10
    assert run.tail_pct(count) == pct
    # The next whole percentile would leave fewer than ten beyond.
    assert sum(1 for v in values if v > run.percentile(values, pct + 1)) < 10


def test_nexi_blocks_hit_the_cache_exactly_repeats_times():
    workload = NexiCached(11)
    cache: OrderedDict = OrderedDict()
    for index in range(-1, 8):
        hits = 0
        for op in workload.block(index):
            key = (op.query, op.k)
            if key in cache:
                cache.move_to_end(key)
                hits += 1
            else:
                cache[key] = True
                if len(cache) > workload.cache_capacity:
                    cache.popitem(last=False)
        if index >= 0:
            assert hits == workload.repeats
    assert workload.repeats / workload.block_searches < 0.5


# ----------------------------------------------------------------------
# Names and the benchmark description
# ----------------------------------------------------------------------
def test_names_and_benchmark_json_agree():
    bench = load("BENCHMARK.json")
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"]]
             + [m["name"] for m in bench["per_layer"]]
             + list(run.REPORTED_ONLY))
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for entry in bench["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == METRICS
    assert set(load("perfbench/layers.json")) == set(METRICS)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1, 0),
        Span(2, "a", 1.0, 4.0, 1, 1, 0),
        Span(3, "b", 3.0, 6.0, 1, 1, 1),  # overlaps a
        Span(4, "a", 2.0, 3.0, 2, 1, 0),  # nested in a
    ]
    own = self_time_by_name(spans)
    assert own["root"] == pytest.approx(5.0)
    assert own["a"] == pytest.approx(2.0 + 1.0)
    assert own["b"] == pytest.approx(3.0)


def test_worker_spans_parent_to_the_open_request():
    recorder = SpanRecorder()

    def worker():
        recorder.call("engine.work", lambda: None, (), {})

    with recorder.root("service.search"):
        recorder.note_submit()
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    names = {span.name: span for span in recorder.spans}
    root = names["service.search"]
    assert names["engine.work"].parent == root.span_id
    assert names["service.queue_wait"].parent == root.span_id
    recorder.call("outside", lambda: None, (), {})
    assert "outside" not in {span.name for span in recorder.spans}


# ----------------------------------------------------------------------
# Whole passes (each sets a workload up: tens of seconds)
# ----------------------------------------------------------------------
def one_block_pass(name, seed, probe=None):
    workload = WORKLOADS[name](seed)
    workload.setup()
    try:
        run.run_warmup(workload)
        before = counter_snapshot(workload)
        if probe is not None:
            probe.install(list(workload.services.values()))
        try:
            outcome = run.run_pass(workload, 1, Oracle(),
                                   probe.recorder if probe else None)
        finally:
            if probe is not None:
                probe.remove()
        counters = counter_metrics(before, counter_snapshot(workload))
    finally:
        workload.close()
    return outcome, run.end_to_end(workload, outcome, 0.0), counters


def deterministic(outcome, metrics, counters):
    payloads = [{key: value for key, value in payload.items()
                 if key not in ("shards",)} for payload in outcome.payloads]
    kept = ("sim_cost_per_query", "index_bytes_per_doc_byte")
    return ({name: metrics[name] for name in kept},
            {name: counters[name] for name in (
                "service.cache.hit_rate", "service.cache.invalidations",
                "storage.charges_per_query", "storage.comparisons_per_query",
                "index.delta_runs_folded", "index.delta_runs_live",
                "replica.records_shipped")},
            payloads)


def request_self_sums(spans):
    """(sum of self times, wall time) per request root."""
    own = self_times(spans)
    sums = defaultdict(float)
    for span in spans:
        sums[span.request] += own[span.span_id]
    return [(sums[span.span_id], span.end - span.start)
            for span in spans if span.parent is None]


def test_same_seed_same_deterministic_metrics_and_traced_spans_add_up():
    first, first_metrics, first_counters = one_block_pass(
        "ingest-sharded", 5)
    probe = LayerProbe(SpanRecorder())
    again, again_metrics, again_counters = one_block_pass(
        "ingest-sharded", 5, probe)
    assert first.failed == again.failed == 0
    assert (deterministic(first, first_metrics, first_counters)
            == deterministic(again, again_metrics, again_counters))

    spans = probe.recorder.spans
    sums = request_self_sums(spans)
    assert len(sums) == first.attempted
    for self_sum, wall in sums:
        assert self_sum <= wall + 1e-9
    names = {span.name for span in spans}
    assert {"retrieval.combine", "shard.coordinator", "index.add_document",
            "replica.run_read", "nexi.translate"} <= names


@pytest.fixture(scope="module")
def paper_flat():
    workload = WORKLOADS["paper-flat"](2)
    workload.setup()
    yield workload
    workload.close()


def test_paper_flat_never_combines(paper_flat):
    probe = LayerProbe(SpanRecorder())
    probe.install(list(paper_flat.services.values()))
    try:
        for op in paper_flat.block(0)[:20]:
            with probe.recorder.root("service.search"):
                run.serve(paper_flat, op)
    finally:
        probe.remove()
    names = {span.name for span in probe.recorder.spans}
    assert "retrieval.combine" not in names
    assert not any(name.startswith("shard.") for name in names)
    assert "retrieval.flat" in names


class Lying:
    """A service whose answers lose their best hit."""

    def __init__(self, service):
        self.engine, self.lock = service.engine, service.lock
        self.service = service

    def search(self, *args, **kwargs):
        payload = self.service.search(*args, **kwargs)
        return dict(payload, hits=payload["hits"][1:])


def test_wrong_answers_are_counted(paper_flat, monkeypatch):
    monkeypatch.setattr(paper_flat, "services", {
        key: Lying(service) for key, service in paper_flat.services.items()})
    outcome = run.run_pass(paper_flat, 1, Oracle())
    answered = sum(1 for payload in outcome.payloads if payload["total"])
    assert outcome.failed == answered > 0


def test_missing_program_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "paper-flat", "--seed", "1"]) == 2
