"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-flat --seed 1 --seconds 18 --trace 0

Run from the repository root.  The run

1. sets the workload up in this process (timed from process start to
   the first timed request: ``setup_s``), and -- with ``--trace 0`` --
   twice more in two concurrent child processes (``--setup-only``),
   reporting the median of the three;
2. serves one untimed warm-up block;
3. serves a fixed number of whole blocks of the seeded stream through
   ``QueryService`` from one closed-loop client: the workload's
   ``blocks`` at ``--seconds 18`` (about eighteen seconds of work on
   the reference machine), in proportion to ``--seconds`` otherwise;
4. after each block, outside the timed section, checks every answer's
   top k against ERA on the same collection state.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the timed pass runs twice, untraced then traced, and the
last line reports the per-layer metrics (spans are written to
``.perfbench/``).  Any failed or wrong answer makes the run exit 1.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Any  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: String hashing, and with it the iteration order of every set and dict
#: of strings, changes the program's speed by up to a fifth from one
#: process to the next.  Every run uses the same hash seed.
HASH_SEED = "0"
SETUP_RUNS = 3
CHILD_TIMEOUT = 150.0
#: ``--seconds`` at which a run serves each workload's ``blocks``.
REFERENCE_SECONDS = 18.0

END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_qps": "1/s",
    "sim_cost_per_query": "cost",
    "index_bytes_per_doc_byte": "ratio",
    "peak_rss_mb": "MB",
}
#: Printed by name but not bounded: they do not apply to every
#: workload, read zero on a correct run, or (the tails) spread from run
#: to run by more than the largest bound the benchmark may set.
REPORTED_ONLY = {
    "query_tail_ms": "ms",
    "ingest_p50_ms": "ms",
    "ingest_tail_ms": "ms",
    "ingest_docs_per_s": "1/s",
    "failed_frac": "ratio",
}


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of *values* (0 <= pct <= 100)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_pct(count: int) -> int:
    """The highest whole percentile of *count* distinct samples with at
    least ten samples beyond it (needs more than ten samples): the
    largest p with (count - 1) * p / 100 < count - 10."""
    return (100 * (count - 10) - 1) // (count - 1)


def tail(values: list[float]) -> tuple[int, float, int]:
    """The tail percentile of *values*, its value, and how many samples
    lie beyond it."""
    pct = tail_pct(len(values))
    value = percentile(values, pct)
    return pct, value, sum(1 for v in values if v > value)


def blocks_for(workload: Any, seconds: float) -> int:
    """Blocks a run of *seconds* serves: the workload's ``blocks`` at
    :data:`REFERENCE_SECONDS`, in proportion otherwise, at least one."""
    return max(1, round(workload.blocks * seconds / REFERENCE_SECONDS))


@dataclass
class PassResult:
    """What one timed pass served and measured."""

    search_ms: list[float] = field(default_factory=list)
    #: Searches per second of each block's timed wall time.
    block_qps: list[float] = field(default_factory=list)
    ingest_ms: list[float] = field(default_factory=list)
    ingest_bytes: int = 0
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    payloads: list[dict] = field(default_factory=list)
    #: Index bytes over source bytes when the pass ended.
    index_ratio: float = 0.0
    errors: list[str] = field(default_factory=list)


def serve(workload: Any, op: Any) -> dict:
    service = workload.services[op.target]
    if op.kind == "ingest":
        return service.ingest(op.xml)
    return service.search(op.query, k=op.k, method=op.method, mode=op.mode,
                          use_cache=op.use_cache)


def run_pass(workload: Any, blocks: int, oracle: Any,
             recorder: Any = None, first: int = 0) -> PassResult:
    """Serve blocks *first* .. *first* + *blocks* - 1; with a
    *recorder*, each request is a root span."""
    from perfbench.workloads import answer_of

    result = PassResult()
    for index in range(first, first + blocks):
        checks = []
        started = time.perf_counter()
        for op in workload.block(index):
            result.attempted += 1
            scope = (recorder.root(f"service.{op.kind}")
                     if recorder is not None else nullcontext())
            begin = time.perf_counter()
            try:
                with scope:
                    payload = serve(workload, op)
            except Exception as exc:  # a failed operation is counted, not fatal
                result.failed += 1
                result.errors.append(f"{op.kind} {op.query!r}: {exc!r}")
                continue
            elapsed_ms = 1e3 * (time.perf_counter() - begin)
            if op.kind == "ingest":
                result.ingest_ms.append(elapsed_ms)
                size = len(op.xml.encode("utf-8"))
                result.ingest_bytes += size
                workload.source_bytes += size
                continue
            result.search_ms.append(elapsed_ms)
            result.payloads.append(payload)
            checks.append((op, payload))
        block_s = time.perf_counter() - started
        result.timed_s += block_s
        result.block_qps.append(len(checks) / block_s)
        # Outside the timed section: the ERA oracle on the same state.
        for op, payload in checks:
            service = workload.services[op.target]
            expected = oracle.expected(service, op.target, op,
                                       payload["epoch"])
            if answer_of(payload) != expected:
                result.failed += 1
                result.errors.append(
                    f"wrong answer: {op.query!r} k={op.k} "
                    f"method={payload['method']} mode={op.mode}")
    result.index_ratio = workload.index_bytes() / workload.source_bytes
    return result


def end_to_end(workload: Any, outcome: PassResult,
               setup_s: float) -> dict[str, float]:
    latencies = outcome.search_ms
    metrics = {
        "setup_s": setup_s,
        "query_p50_ms": percentile(latencies, 50.0),
        "query_tail_ms": tail(latencies)[1],
        "query_qps": statistics.median(outcome.block_qps),
        "sim_cost_per_query": statistics.fmean(
            payload["cost"] for payload in outcome.payloads),
        "index_bytes_per_doc_byte": outcome.index_ratio,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if outcome.ingest_ms:
        metrics["ingest_p50_ms"] = percentile(outcome.ingest_ms, 50.0)
        if len(outcome.ingest_ms) > 10:
            metrics["ingest_tail_ms"] = tail(outcome.ingest_ms)[1]
        metrics["ingest_docs_per_s"] = (len(outcome.ingest_ms)
                                        / (sum(outcome.ingest_ms) / 1e3))
    metrics["failed_frac"] = outcome.failed / outcome.attempted
    return metrics


def child_setup_seconds(args: argparse.Namespace, runs: int) -> list[float]:
    """Set the workload up in *runs* fresh processes at once (one per
    core of the reference machine); their setup_s values."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    children = [subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
                for _ in range(runs)]
    results = []
    try:
        for child in children:
            out, err = child.communicate(timeout=CHILD_TIMEOUT)
            if child.returncode != 0:
                raise RuntimeError(f"set-up child failed: {err[-2000:]}")
            results.append(float(json.loads(out.strip().splitlines()[-1])
                                 ["setup_s"]))
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
    return results


def print_metrics(metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.4f} {units[name]}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}})


def layer_metrics(workload: Any, probe: Any, setup_spans: list,
                  traced: PassResult, counters: tuple[dict, dict],
                  untraced_qps: float) -> dict[str, float]:
    """Every per-layer metric of the traced pass, in METRICS order."""
    from perfbench.layers import (
        METRICS,
        counter_metrics,
        payload_metrics,
        span_metrics,
    )

    layer = span_metrics(setup_spans, probe.recorder.spans,
                         len(traced.search_ms), len(traced.ingest_ms))
    layer.update(payload_metrics(traced.payloads))
    layer.update(counter_metrics(*counters))
    leader_catalogs = {id(engine.catalog)
                       for engine in workload.leader_engines()}
    appended = sum(value for key, value in probe.delta_bytes.items()
                   if key in leader_catalogs)
    layer["index.delta_bytes_per_doc_byte"] = (
        appended / traced.ingest_bytes if traced.ingest_bytes else 0.0)
    layer["build.collection_scans"] = float(probe.collection_scans)
    layer["selfmanage.bytes_materialized"] = workload.setup_facts.get(
        "selfmanage.bytes_materialized", 0.0)
    traced_qps = statistics.median(traced.block_qps)
    layer["trace.overhead_frac"] = 1.0 - traced_qps / untraced_qps
    print(f"traced pass: {len(traced.search_ms)} searches at "
          f"{traced_qps:.2f}/s against {untraced_qps:.2f}/s untraced")
    return {name: layer[name] for name in METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print setup_s as JSON and exit")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is "
              "missing", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench.layers import METRICS, LayerProbe, counter_snapshot
    from perfbench.tracing import SpanRecorder
    from perfbench.workloads import WORKLOADS, Oracle

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    probe = LayerProbe(SpanRecorder()) if args.trace else None
    if probe is not None:
        probe.install()
        with probe.recorder.root("setup"):
            workload.setup()
        probe.remove()
    else:
        workload.setup()
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    oracle = Oracle()
    try:
        if probe is None:
            setups = [setup_s, *child_setup_seconds(args, SETUP_RUNS - 1)]
            setup_s = statistics.median(setups)
        warm_errors = run_warmup(workload)
        if warm_errors:
            print("\n".join(warm_errors), file=sys.stderr)
            print(result_line(False, 1, 1, {}, {}))
            return 1
        # Like a long-running server, keep the collector from rescanning
        # the indexes built so far: a full collection over them stalls
        # one request for hundreds of milliseconds at random.
        gc.collect()
        gc.freeze()
        blocks = blocks_for(workload, args.seconds)
        outcome = run_pass(workload, blocks, oracle)
        passes = [outcome]
        if probe is not None:
            setup_spans = list(probe.recorder.spans)
            probe.recorder.spans.clear()
            before = counter_snapshot(workload)
            probe.install(list(workload.services.values()))
            try:
                traced = run_pass(workload, blocks, oracle, probe.recorder,
                                  first=blocks)
            finally:
                probe.remove()
            passes.append(traced)
            counters = (before, counter_snapshot(workload))
    finally:
        workload.close()

    print(f"workload {workload.name} seed {args.seed}: {blocks} blocks, "
          f"{len(outcome.search_ms)} searches, {len(outcome.ingest_ms)} "
          f"ingests in {outcome.timed_s:.2f} s; {oracle.evaluations} ERA "
          "oracle evaluations")
    e2e = end_to_end(workload, outcome, setup_s)
    pct, _value, beyond = tail(outcome.search_ms)
    print(f"query_tail_ms is p{pct} of {len(outcome.search_ms)} searches "
          f"({beyond} beyond it)")
    if outcome.ingest_ms and "ingest_tail_ms" not in e2e:
        print(f"ingest_tail_ms: no percentile has ten of "
              f"{len(outcome.ingest_ms)} ingests beyond it")
    units = {**END_TO_END, **REPORTED_ONLY}
    print_metrics(e2e, units)
    attempted = sum(one.attempted for one in passes)
    failed = sum(one.failed for one in passes)
    if failed:
        for error in [e for one in passes for e in one.errors][:20]:
            print(f"perfbench: {error}", file=sys.stderr)
        print(result_line(False, attempted, failed, {}, {}))
        return 1
    if probe is None:
        print(result_line(True, attempted, failed,
                          {name: e2e[name] for name in END_TO_END}, units))
        return 0

    layer = layer_metrics(workload, probe, setup_spans, traced, counters,
                          e2e["query_qps"])
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    span_file = os.path.join(ROOT, ".perfbench",
                             f"spans-{workload.name}-{args.seed}.jsonl")
    probe.recorder.spans.extend(setup_spans)
    probe.recorder.dump(span_file)
    print(f"spans written to {span_file}")
    print_metrics(layer, METRICS)
    print(result_line(True, attempted, failed, layer, METRICS))
    return 0


def run_warmup(workload: Any) -> list[str]:
    """Serve the untimed warm-up block; errors it raised."""
    errors = []
    for op in workload.warmup():
        try:
            serve(workload, op)
        except Exception as exc:  # reported, then the run fails
            errors.append(f"warm-up {op.kind} {op.query!r}: {exc!r}")
        else:
            if op.kind == "ingest":
                workload.source_bytes += len(op.xml.encode("utf-8"))
    return errors


def pin_hash_seed() -> None:
    """Re-execute this script under :data:`HASH_SEED` unless it runs
    under it already."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable,
                 [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
