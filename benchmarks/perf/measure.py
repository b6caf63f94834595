"""One workload, once: what the child interpreter does.

Prints one JSON document as its last line: the end-to-end metrics of an
untraced run and, with ``--trace 1``, the per-layer metrics of a second,
traced run plus the layer microbenches. Before it returns it checks that
nothing it started is still alive.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import multiprocessing
import resource
import sys
import threading
from dataclasses import replace
from typing import Any, Dict, List

from common import CHILD_TIMEOUT_S, FULL, OUT_DIR, SMOKE, median, per, percentile
from layers import run_layers
from probes import BENCH_KINDS, PROGRAM_KINDS, adopt_serve_spans, self_times
from workloads import WORKLOADS, Outcome


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    walls = outcome.ref_repeat_wall_s
    if outcome.pooled_throughput:
        throughput = [per(sum(outcome.repeat_units), sum(walls))]
    else:
        throughput = [per(units, wall) for units, wall in zip(outcome.repeat_units, walls)]
    return {
        "setup_s": median(outcome.ref_setup_s),
        "throughput_per_s": median(throughput),
        "latency_p50_ms": percentile(outcome.ref_latencies_ms, 0.50),
        "latency_p90_ms": percentile(outcome.ref_latencies_ms, 0.90),
        "correct_share": per(outcome.checks_passed, outcome.checks_total),
        "llm_calls_per_unit": per(outcome.llm_calls, outcome.attempted),
        "cost_usd_per_unit": per(outcome.cost_usd, outcome.attempted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def drift(outcome: Outcome) -> float:
    """Median wall per unit of the last three repeats over the first three."""
    costs = [per(wall, units) for wall, units in zip(outcome.repeat_wall_s, outcome.repeat_units)]
    k = min(3, len(costs) // 2)
    return per(median(costs[-k:]), median(costs[:k])) if k else 1.0


def per_layer(untraced: Outcome, traced: Outcome) -> Dict[str, float]:
    """Layer metrics the traced workload run itself gives."""
    counters = traced.counters
    metrics = {
        name: counters.get(name, 0.0)
        for name in (
            "llm.calls",
            "llm.retries",
            "llm.cache_hits",
            "llm.backend_busy_s",
            "execution.task_retries",
            "execution.dead_letters",
            "observability.dropped_spans",
            "gateway.responses_non2xx",
            "serving.rejected",
            "cluster.shard_retries",
            "cluster.worker_deaths",
        )
    }
    for cache in ("result_cache", "plan_cache"):
        metrics[f"serving.{cache}_hit_share"] = per(
            counters.get(f"serving.{cache}_hits", 0.0), counters.get(f"serving.{cache}_lookups", 0.0)
        )
    metrics["gateway.hit_latency_ms_p50"] = median(traced.samples.get("hit_ms", []))
    metrics["gateway.selective_miss_ms_p50"] = median(traced.samples.get("distinct_ms", []))
    metrics["gateway.ingest_ms_p50"] = median(traced.samples.get("ingest_ms", []))

    adopt_serve_spans(traced.spans)
    totals: Dict[str, float] = {}
    for window_start, window_end in traced.windows:
        for kind, seconds in self_times(traced.spans, window_start, window_end).items():
            totals[kind] = totals.get(kind, 0.0) + seconds
    named = PROGRAM_KINDS + BENCH_KINDS + ("unattributed",)
    for kind in named:
        metrics[f"trace.self_s.{kind}"] = totals.get(kind, 0.0)
    metrics["trace.self_s.other"] = sum(s for kind, s in totals.items() if kind not in named)
    metrics["trace.wall_s"] = sum(end - start for start, end in traced.windows)

    cost = lambda o: per(sum(o.repeat_wall_s), sum(o.repeat_units))  # noqa: E731
    metrics["bench.tracing_overhead_share"] = per(cost(traced), cost(untraced)) - 1.0
    metrics["bench.drift_x"] = drift(untraced)
    metrics["bench.box_speed_x"] = untraced.kernel.box_speed()
    metrics["bench.cpu_s_per_unit"] = per(untraced.cpu_s, untraced.cpu_units)
    metrics["bench.failed_share"] = per(untraced.failed, untraced.attempted)
    return metrics


def leaks() -> Dict[str, List[str]]:
    """Worker processes and non-daemon threads still alive."""
    processes = [str(process.name) for process in multiprocessing.active_children()]
    threads = [
        thread.name
        for thread in threading.enumerate()
        if thread is not threading.main_thread() and thread.is_alive() and not thread.daemon
    ]
    return {"processes": processes, "threads": threads}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    # A run that hangs says where: every thread's stack goes to stderr
    # shortly before run.py's watchdog kills the process group.
    faulthandler.dump_traceback_later(CHILD_TIMEOUT_S - 15.0)

    sizes = SMOKE if args.smoke else FULL
    workload = WORKLOADS[args.workload]
    seconds = args.seconds
    if args.trace:
        # With tracing the budget is split: an untraced run to compare
        # against, then the traced one, each with one set-up and at
        # least two repeats. The run then ends in about 30 s like an
        # untraced one, which leaves the contract's 180 s room for the
        # box's slow spells (three times slower for minutes was seen).
        seconds = args.seconds / 2
        sizes = replace(sizes, setups=1, min_repeats=min(sizes.min_repeats, 2))
    untraced = workload(args.seed, seconds, sizes, False)
    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes.as_dict(),
        "unit": untraced.unit,
        "attempted": untraced.attempted,
        "failed": untraced.failed,
        "correct": untraced.correct,
        "problems": untraced.problems,
        "repeat_wall_s": untraced.repeat_wall_s,
        "latency_samples": len(untraced.latencies_ms),
        "box_speed_x": untraced.kernel.box_speed(),
        "at_reference_speed": untraced.at_reference_speed,
        "end_to_end": end_to_end(untraced),
    }
    if args.trace:
        traced = workload(args.seed, seconds, sizes, True)
        report["correct"] = report["correct"] and traced.correct
        report["problems"] += traced.problems
        report["per_layer"] = {**per_layer(untraced, traced), **run_layers(args.seed, sizes)}
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace_{args.workload}.json", "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "clock": "time.monotonic seconds",
                    "windows": traced.windows,
                    "self_s": {
                        name[len("trace.self_s.") :]: value
                        for name, value in report["per_layer"].items()
                        if name.startswith("trace.self_s.")
                    },
                    "spans": traced.spans,
                },
                handle,
            )

    leaked = leaks()
    report["leaked_processes"] = len(leaked["processes"])
    report["leaked_threads"] = len(leaked["threads"])
    print(json.dumps(report))
    if leaked["processes"] or leaked["threads"]:
        print(f"leaked: {leaked}", file=sys.stderr)
        return 3
    return 0
