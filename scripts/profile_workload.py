#!/usr/bin/env python3
"""cProfile one repeat of a perf-harness workload.

    python3 scripts/profile_workload.py {etl_ingest,query_inproc} [--smoke] [--seed N] [--top N]
    python3 scripts/profile_workload.py {query_inproc,cluster_scatter} --split [--smoke] [--seed N]

Runs the workload's repeat once to warm the process (imports, regex
caches, thread pools), profiles the next one, and prints the top
functions by cumulative and by self time. Threads the repeat starts
(``ReliableLLM``'s batch pool, executor workers) are profiled too: each
gets a profiler of its own and the tables are merged. One more repeat
then runs with no profiler, and the last line printed is the backend
calls of a repeat and its wall microseconds per call (and per question
on ``query_inproc``), which is the number to size a per-call change by.

``query_inproc --split`` profiles nothing. It captures the prompts of one
suite pass and replays them against the backend alone, against the
client (``ReliableLLM`` over that backend) alone, and as the full pass,
interleaved round after round, and prints the minimum and median
microseconds per backend call of each layer: what the simulated model
costs, what the client adds to it, and what everything above the client
(executor, DocSet, Luna, planner, rollups) adds to that.

``cluster_scatter --split`` profiles nothing either: cProfile cannot see
into worker processes. It runs the harness's segments on its cluster
config, one after another, and prints per segment the coordinator's
wall, each worker's busy time (the sum of the ``wall_s`` of its
``cluster.shard`` spans) and the gap between the wall and the busier
worker: scatter, pickling, IPC and gather.

The repeats are built from the pieces ``benchmarks/perf/workloads.py``
exposes, which this script imports and does not change. cProfile taxes
every Python call and no native one, so read the output for *where*, and
measure *how much* with ``benchmarks/perf/run.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks" / "perf")]

import workloads  # noqa: E402
from common import FULL, SMOKE, Sizes  # noqa: E402
from repro.cluster import ClusterCoordinator  # noqa: E402
from repro.cluster.bench import generate_bench_corpus  # noqa: E402
from repro.datagen import (  # noqa: E402
    build_full_suite,
    generate_earnings_corpus,
    generate_ntsb_corpus,
)
from repro.llm.base import LLMClient, LLMResponse  # noqa: E402
from repro.luna import Luna  # noqa: E402
from repro.observability import MetricsRegistry, Tracer  # noqa: E402


#: What a workload hands back: one repeat, which returns (backend calls
#: it made, units of work it did, the unit's name), and what to close
#: after the last.
Repeat = Tuple[Callable[[], Tuple[int, int, str]], Callable[[], None]]


def etl_ingest(seed: int, sizes: Sizes) -> Repeat:
    """A fresh context, warmed on a tenth of the corpus, ingests all of it."""
    _, ntsb = generate_ntsb_corpus(sizes.etl_ntsb, seed=2 * seed)
    _, earnings = generate_earnings_corpus(sizes.etl_earnings, seed=2 * seed + 1)

    def repeat() -> Tuple[int, int, str]:
        stack = workloads.build_stack(
            parallelism=workloads.CPU_BOUND_PARALLELISM, latency_scale=0.0, traced=False
        )
        try:
            stack.ingest(ntsb[: max(1, len(ntsb) // 10)], workloads.NTSB_SCHEMA, "warm-ntsb")
            stack.ingest(earnings[: max(1, len(earnings) // 10)], workloads.EARNINGS_SCHEMA, "warm-earn")
            written = stack.ingest(ntsb, workloads.NTSB_SCHEMA, "ntsb")
            written += stack.ingest(earnings, workloads.EARNINGS_SCHEMA, "earnings")
            return stack.sim.calls, written, "document"
        finally:
            stack.ctx.close()

    return repeat, lambda: None


def _query_stack(seed: int, sizes: Sizes) -> Tuple[Any, List[Any], Luna]:
    """``query_inproc``'s long-lived context with both corpora ingested:
    (stack, the question suite, a Luna over the stack)."""
    ntsb_records, ntsb = generate_ntsb_corpus(sizes.query_ntsb, seed=2 * seed)
    earn_records, earnings = generate_earnings_corpus(sizes.query_earnings, seed=2 * seed + 1)
    stack = workloads.build_stack(
        parallelism=workloads.CPU_BOUND_PARALLELISM, latency_scale=0.0, traced=False
    )
    stack.ingest(ntsb, workloads.NTSB_SCHEMA, "ntsb")
    stack.ingest(earnings, workloads.EARNINGS_SCHEMA, "earnings")
    return stack, build_full_suite(ntsb_records, earn_records), Luna(stack.ctx)


def query_inproc(seed: int, sizes: Sizes) -> Repeat:
    """One pass of the question suite on one long-lived context."""
    stack, suite, luna = _query_stack(seed, sizes)

    def repeat() -> Tuple[int, int, str]:
        before = stack.sim.calls
        workloads._suite_pass(luna, suite)
        return stack.sim.calls - before, len(suite), "question"

    return repeat, stack.ctx.close


WORKLOADS = {"etl_ingest": etl_ingest, "query_inproc": query_inproc}

#: Interleaved rounds of ``--split`` (and under ``--smoke``).
SPLIT_ROUNDS, SPLIT_ROUNDS_SMOKE = 15, 3


class _Recorder(LLMClient):
    """Stands in front of the backend for one pass and keeps its calls."""

    def __init__(self, inner: LLMClient):
        self.inner = inner
        self.calls: List[Tuple[str, str, Optional[int], float]] = []

    def complete(
        self,
        prompt: str,
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        temperature: float = 0.0,
    ) -> LLMResponse:
        self.calls.append((prompt, model, max_output_tokens, temperature))
        return self.inner.complete(prompt, model, max_output_tokens, temperature)


def split(seed: int, sizes: Sizes, rounds: int) -> None:
    """Per backend call: the backend, the client over it, the full pass."""
    stack, suite, luna = _query_stack(seed, sizes)
    llm, tracer = stack.ctx.llm, stack.ctx.tracer
    try:
        workloads._suite_pass(luna, suite)  # warm
        recorder = _Recorder(llm.backend)
        llm.backend = recorder
        workloads._suite_pass(luna, suite)
        llm.backend = recorder.inner
        captured = recorder.calls

        def replay(client: LLMClient) -> None:
            # One root span per replay, as a query is: the client's spans
            # are children, and the finished trace can be evicted.
            with tracer.span("split:replay", kind="query"):
                for prompt, model, max_output_tokens, temperature in captured:
                    client.complete(prompt, model, max_output_tokens, temperature)

        layers: Dict[str, Callable[[], Any]] = {
            "backend": lambda: replay(stack.sim),
            "client": lambda: replay(llm),
            "full pass": lambda: workloads._suite_pass(luna, suite),
        }
        per_call_us: Dict[str, List[float]] = {name: [] for name in layers}
        for _ in range(rounds):
            for name, run in layers.items():
                before = stack.sim.calls
                started = time.perf_counter()
                run()
                wall_us = (time.perf_counter() - started) * 1e6
                assert stack.sim.calls - before == len(captured), name
                per_call_us[name].append(wall_us / len(captured))
    finally:
        stack.ctx.close()
    print(
        f"{len(captured)} backend calls per pass of {len(suite)} questions, "
        f"seed {seed}, {rounds} interleaved rounds; us per call"
    )
    print(f"{'layer':<18} {'min':>8} {'median':>8}")
    low = {name: min(values) for name, values in per_call_us.items()}
    mid = {name: statistics.median(values) for name, values in per_call_us.items()}
    for name in layers:
        print(f"{name:<18} {low[name]:>8.1f} {mid[name]:>8.1f}")
    for name, outer, inner in (
        ("client - backend", "client", "backend"),
        ("full - client", "full pass", "client"),
    ):
        print(f"{name:<18} {low[outer] - low[inner]:>8.1f} {mid[outer] - mid[inner]:>8.1f}")


def split_cluster(seed: int, sizes: Sizes, rounds: int) -> None:
    """Per segment: the coordinator's wall, each worker's busy time, the gap."""
    config, spec = workloads.CLUSTER_CONFIG, workloads.EXTRACT_SPEC
    # The harness's corpus seeds: every segment a fresh corpus.
    corpus_seeds = iter(range(1000 * seed, 1000 * seed + 1000))
    tracer = Tracer()
    coordinator = ClusterCoordinator(config, tracer=tracer, registry=MetricsRegistry())
    rows: List[Tuple[float, List[float], List[float]]] = []
    try:
        warm = generate_bench_corpus(max(8, sizes.cluster_docs // 3), seed=next(corpus_seeds))
        coordinator.run_segment(warm, spec)
        for _ in range(rounds):
            documents = generate_bench_corpus(sizes.cluster_docs, seed=next(corpus_seeds))
            wall_s = coordinator.run_segment(documents, spec).wall_s
            spans = tracer.spans()
            segment = [span for span in spans if span.name == "cluster.segment"][-1]
            busy_s = [0.0] * config.n_workers
            shard_s = []
            for span in spans:
                if span.parent_id == segment.span_id and "wall_s" in span.attributes:
                    busy_s[span.attributes["worker"]] += span.attributes["wall_s"]
                    shard_s.append(span.attributes["wall_s"])
            rows.append((wall_s, busy_s, shard_s))
    finally:
        coordinator.close()
    print(
        f"{rounds} segments of {sizes.cluster_docs} docs, seed {seed}, "
        f"{config.n_workers} workers x {config.shards_per_worker} shards; ms"
    )
    workers = [f"worker {slot}" for slot in range(config.n_workers)]
    print(f"{'segment':<8} {'wall':>8} " + " ".join(f"{w:>9}" for w in workers) + f" {'gap':>8} {'shard p50':>9}")
    for index, (wall_s, busy_s, shard_s) in enumerate(rows):
        print(
            f"{index:<8} {wall_s * 1e3:>8.1f} "
            + " ".join(f"{b * 1e3:>9.1f}" for b in busy_s)
            + f" {(wall_s - max(busy_s)) * 1e3:>8.1f} {statistics.median(shard_s) * 1e3:>9.1f}"
        )
    walls = [wall_s for wall_s, _, _ in rows]
    gaps = [wall_s - max(busy_s) for wall_s, busy_s, _ in rows]
    print(
        f"median wall {statistics.median(walls) * 1e3:.1f} ms, "
        f"median gap {statistics.median(gaps) * 1e3:.1f} ms, "
        f"{sizes.cluster_docs / statistics.median(walls):.0f} docs/s at the median wall"
    )


SPLITS: Dict[str, Callable[[int, Sizes, int], None]] = {
    "query_inproc": split,
    "cluster_scatter": split_cluster,
}


def profile(repeat: Callable[[], object]) -> pstats.Stats:
    """Warm with one repeat, then profile the next on every thread."""
    thread_profiles: List[cProfile.Profile] = []

    def profile_new_thread(*_event: object) -> None:
        # The first profile event of a thread: hand the thread to a
        # profiler of its own (enable() replaces this hook there).
        profiler = cProfile.Profile()
        thread_profiles.append(profiler)
        profiler.enable()

    threading.setprofile(profile_new_thread)
    try:
        repeat()
        for profiler in thread_profiles:
            profiler.clear()  # pool threads that outlive the warm-up
        main = cProfile.Profile()
        main.enable()
        try:
            repeat()
        finally:
            main.disable()
    finally:
        threading.setprofile(None)
    stats = pstats.Stats(main)
    for profiler in thread_profiles:
        stats.add(profiler)
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(set(WORKLOADS) | set(SPLITS)))
    parser.add_argument("--smoke", action="store_true", help="one tenth of the benchmark's sizes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=30, help="rows per table")
    parser.add_argument(
        "--split",
        action="store_true",
        help="no profiler: query_inproc's us per call of backend, client and full pass, "
        "or cluster_scatter's wall, worker busy time and gap per segment",
    )
    args = parser.parse_args()
    if args.split:
        if args.workload not in SPLITS:
            parser.error(f"--split runs on {' and '.join(SPLITS)} only")
        SPLITS[args.workload](
            args.seed,
            SMOKE if args.smoke else FULL,
            SPLIT_ROUNDS_SMOKE if args.smoke else SPLIT_ROUNDS,
        )
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"{args.workload} runs in worker processes cProfile cannot see; use --split")

    repeat, close = WORKLOADS[args.workload](args.seed, SMOKE if args.smoke else FULL)
    try:
        stats = profile(repeat)
        started = time.perf_counter()
        calls, units, unit = repeat()
        wall_us = (time.perf_counter() - started) * 1e6
    finally:
        close()
    stats.strip_dirs()
    for order in ("cumulative", "tottime"):
        stats.sort_stats(order).print_stats(args.top)
    print(
        f"unprofiled repeat: {calls} backend calls, {wall_us / max(calls, 1):.1f} us wall per call, "
        f"{wall_us / max(units, 1):.1f} us per {unit} ({units} {unit}s, {wall_us / 1e6:.3f} s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
