"""The repository's performance benchmark. See README.md beside this file.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
        One run of one workload. The last line printed is the result
        object BENCHMARK.json's contract asks for.

    python3 benchmarks/perf/run.py [--seed N] [--workload NAME] [--smoke]
        The whole benchmark: five rounds of one untraced run per
        workload, then one traced run of each, a table of every metric,
        and out/results.json.

    python3 benchmarks/perf/run.py compare A.json B.json
        Two results files, one row per metric and workload.

Every run is a child interpreter in a session of its own that this
process waits for; nothing is left running when it returns.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    CHILD_TIMEOUT_S,
    OUT_DIR,
    PERF_DIR,
    ROOT,
    SRC_DIR,
    load_manifest,
    quartiles,
)

#: How long processes of the child's group may take to end after it.
GROUP_GRACE_S = 5.0
#: Untraced runs per workload in the whole benchmark. Five is the fewest
#: whose quartiles are not simply the fastest and the slowest run.
RUNS = 5
#: Counts the program makes. Where one repeats exactly over the runs of
#: both files, `compare` takes any difference for a change.
COUNTS = ("correct_share", "llm_calls_per_unit", "cost_usd_per_unit")
#: Dollars are float sums gathered in arrival order; this much is rounding.
EXACT = 1e-9


class RunFailed(RuntimeError):
    """A child run produced no usable result."""


def _group_members(pgid: int) -> List[str]:
    """The live processes of a process group, as "pid command" (Linux /proc)."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # the process ended while we were looking
        # Fields after the parenthesised command name: state ppid pgrp ...
        fields = stat.rsplit(")", 1)[-1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(f"{entry.name} {stat[stat.index('(') + 1 : stat.rindex(')')]}")
    return members


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter and wait for it.

    The child leads a session of its own, so whatever it starts shares
    its process group: on timeout, and if anything outlives the child,
    the whole group is killed and the leak is reported.
    """
    command = [
        sys.executable,
        str(PERF_DIR / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    timed_out = False
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        stdout = ""
    # multiprocessing's resource tracker ends by itself once the child's
    # pipe closes, a moment after the child; give the group that moment.
    deadline = time.monotonic() + (0.0 if timed_out else GROUP_GRACE_S)
    while (survivors := _group_members(child.pid)) and time.monotonic() < deadline:
        time.sleep(0.02)
    if survivors:
        state = "still running" if child.poll() is None else f"exited {child.returncode}"
        print(
            f"{workload}: child {child.pid} {state}; killing what is left of its group: {survivors}",
            file=sys.stderr,
        )
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
        while _group_members(child.pid):
            time.sleep(0.02)
    if timed_out:
        raise RunFailed(f"{workload}: no result after {CHILD_TIMEOUT_S:.0f} s; process group killed")
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunFailed(f"{workload}: child exited {child.returncode} without a result") from None
    # Processes that outlived the child are leaks the child could not see.
    report["leaked_processes"] += len(survivors)
    if "per_layer" in report:
        report["per_layer"]["bench.leaked_processes"] = float(report["leaked_processes"])
        report["per_layer"]["bench.leaked_threads"] = float(report["leaked_threads"])
    return report


def contract_result(report: Dict[str, Any], manifest: Dict[str, Any]) -> Dict[str, Any]:
    """The object the driver reads: every metric of the group it asked for."""
    group = "per_layer" if report["trace"] else "end_to_end"
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {
            metric["name"]: {"value": report[group][metric["name"]], "unit": metric["unit"]}
            for metric in manifest[group]
        },
    }


# ----------------------------------------------------------------------
# One run (the driver's contract)
# ----------------------------------------------------------------------


def single_run(args: argparse.Namespace, manifest: Dict[str, Any]) -> int:
    report = run_child(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    result = contract_result(report, manifest)
    print(
        f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"repeats={len(report['repeat_wall_s'])} latency_samples={report['latency_samples']} "
        f"box_speed_x={report['box_speed_x']:.3f}"
        + (" (times at reference speed)" if report["at_reference_speed"] else "")
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:46s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in report["problems"]:
        print(f"  incorrect: {problem}")
    if report["leaked_processes"] or report["leaked_threads"]:
        print(
            f"leaked_processes={report['leaked_processes']} leaked_threads={report['leaked_threads']}",
            file=sys.stderr,
        )
        return 3
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# The whole benchmark
# ----------------------------------------------------------------------


def _git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )  # fmt: skip
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def _summary(values: Sequence[float], spec: Dict[str, Any], group: str) -> Dict[str, Any]:
    q1, q2, q3 = quartiles(values)
    entry = {"group": group, "unit": spec["unit"], "better": spec["better"]}
    if "bound" in spec:
        entry["bound"] = spec["bound"]
    entry.update({"median": q2, "q1": q1, "q3": q3, "n": len(values)})
    return entry


def full_run(args: argparse.Namespace, manifest: Dict[str, Any]) -> int:
    workloads = [w for w in manifest["workloads"] if args.workload in (None, w["name"])]
    # A smoke run makes one traced child per workload; its untraced half
    # gives the end-to-end numbers.
    runs = 0 if args.smoke else RUNS
    seconds = 0.0 if args.smoke else args.seconds
    results: Dict[str, Any] = {
        "schema": 1,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "seed": args.seed,
        "seconds": seconds,
        "runs": runs,
        "smoke": args.smoke,
        "workloads": {},
    }
    # The runs of a workload are dealt over the whole command, one per
    # round: a spell in which the box is faster or slower then widens
    # every workload's quartiles instead of shifting all runs of one.
    untraced: Dict[str, List[Dict[str, Any]]] = {w["name"]: [] for w in workloads}
    for _ in range(runs):
        for workload in workloads:
            name = workload["name"]
            untraced[name].append(run_child(name, args.seed, seconds, 0, args.smoke))
    status = 0
    for workload in workloads:
        name = workload["name"]
        traced = run_child(name, args.seed, seconds, 1, args.smoke)
        measured = untraced[name] or [traced]
        reports = untraced[name] + [traced]
        metrics: Dict[str, Any] = {}
        for spec in manifest["end_to_end"]:
            values = [r["end_to_end"][spec["name"]] for r in measured]
            metrics[spec["name"]] = _summary(values, spec, "end_to_end")
        for spec in manifest["per_layer"]:
            metrics[spec["name"]] = _summary([traced["per_layer"][spec["name"]]], spec, "per_layer")
        entry = {
            "why": workload["why"],
            "unit": traced["unit"],
            "sizes": measured[0]["sizes"],
            "correct": all(r["correct"] for r in reports),
            "problems": sorted({p for r in reports for p in r["problems"]}),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "leaked_processes": sum(r["leaked_processes"] for r in reports),
            "leaked_threads": sum(r["leaked_threads"] for r in reports),
            "trace_file": f"trace_{name}.json",
            "metrics": metrics,
        }
        results["workloads"][name] = entry
        print(
            f"\n{name}: correct={entry['correct']} attempted={entry['attempted']} "
            f"failed={entry['failed']} leaked_processes={entry['leaked_processes']} "
            f"leaked_threads={entry['leaked_threads']}"
        )
        for metric, summary in metrics.items():
            print(
                f"  {metric:46s} {summary['median']:>14.6g} {summary['unit']:10s}"
                f" [{summary['q1']:.6g} .. {summary['q3']:.6g}] n={summary['n']}"
            )
        for problem in entry["problems"]:
            print(f"  incorrect: {problem}")
        if not entry["correct"] or entry["leaked_processes"] or entry["leaked_threads"]:
            status = 1
    OUT_DIR.mkdir(exist_ok=True)
    path = Path(args.out) if args.out else OUT_DIR / "results.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    print(f"\nwrote {path}")
    return status


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def _relative_spread(summary: Dict[str, Any]) -> float:
    return abs(summary["q3"] - summary["q1"]) / abs(summary["median"]) if summary["median"] else 0.0


def verdict(metric: str, base: Dict[str, Any], new: Dict[str, Any]) -> Dict[str, Any]:
    """Compare one metric on one workload; ``base`` is the ratio's base.

    ``worse_by`` is the change as a share of the base median, positive
    when the metric got worse. A change counts only beyond both the
    metric's bound and the quartile spread of either side; inside that,
    a spread wider than the bound makes the row ``unresolved`` instead
    of ``unchanged``. One of ``COUNTS`` that repeated exactly over
    several runs on both sides has no noise to allow for: there any
    difference counts.
    """
    a, b = base["median"], new["median"]
    if a:
        worse_by = (b - a) / abs(a) if base["better"] == "lower" else (a - b) / abs(a)
        ratio = b / a
    else:
        worse_by = 0.0 if b == a else (1.0 if (b > a) == (base["better"] == "lower") else -1.0)
        ratio = 1.0 if b == a else float("inf")
    spread = max(_relative_spread(base), _relative_spread(new))
    bound = base.get("bound")
    if bound is None:
        return {"ratio": ratio, "worse_by": worse_by, "spread": spread, "bound": None, "status": "-"}
    exact = metric in COUNTS and spread < EXACT and min(base["n"], new["n"]) > 1
    threshold = EXACT if exact else max(bound, spread)
    if worse_by > threshold:
        status = "regressed"
    elif -worse_by > threshold:
        status = "improved"
    elif spread > bound:
        status = "unresolved"
    else:
        status = "unchanged"
    return {"ratio": ratio, "worse_by": worse_by, "spread": spread, "bound": bound, "status": status}


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, "r", encoding="utf-8") as handle:
        base = json.load(handle)
    with open(path_b, "r", encoding="utf-8") as handle:
        new = json.load(handle)
    print(f"base A = {path_a} (rev {base['git_rev']}), B = {path_b} (rev {new['git_rev']})")
    print(
        f"{'workload':16s} {'metric':44s} {'A median':>12s} {'B median':>12s} "
        f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  status"
    )
    regressed = 0
    for name, entry in base["workloads"].items():
        other = new["workloads"].get(name)
        if other is None:
            continue
        for metric, summary in entry["metrics"].items():
            if metric not in other["metrics"]:
                continue
            row = verdict(metric, summary, other["metrics"][metric])
            regressed += row["status"] == "regressed"
            bound = f"{row['bound']:.2f}" if row["bound"] is not None else "-"
            print(
                f"{name:16s} {metric:44s} {summary['median']:>12.5g} "
                f"{other['metrics'][metric]['median']:>12.5g} {row['ratio']:>7.3f} "
                f"{row['spread']:>7.3f} {bound:>6s}  {row['status']}"
            )
    print(f"{regressed} regressed")
    return 1 if regressed else 0


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC_DIR / 'repro'} is missing", file=sys.stderr)
        return 2
    manifest = load_manifest()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(manifest["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), help="make one run and print its result")
    parser.add_argument("--smoke", action="store_true", help="one-tenth sizes, one short run each")
    parser.add_argument("--out", help="results file (default out/results.json)")
    args = parser.parse_args(argv)
    try:
        if args.trace is not None:
            if not args.workload:
                parser.error("--trace needs --workload")
            return single_run(args, manifest)
        return full_run(args, manifest)
    except RunFailed as failure:
        print(failure, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
