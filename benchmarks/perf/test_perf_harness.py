"""Self-test of the perf harness. Not in Tier-1 ``testpaths``; run it with

    PYTHONPATH=src python -m pytest benchmarks/perf -q

It makes two same-seed ``--smoke`` runs (about a minute together).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

import run as harness  # noqa: E402
from common import MANIFEST_PATH, load_manifest, percentile  # noqa: E402
from probes import self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Workloads whose LLM traffic is a pure function of the seed.
EXACT = ("etl_ingest", "query_inproc", "cluster_scatter")


def _run(*args: str, cwd: Path = harness.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )  # fmt: skip


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> list:
    results = []
    for i in range(2):
        out = tmp_path_factory.mktemp("perf") / f"smoke{i}.json"
        done = _run("--smoke", "--seed", "7", "--out", str(out))
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        results.append((out, json.loads(out.read_text())))
    return results


def test_manifest_is_in_the_contract_shape() -> None:
    manifest = load_manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert manifest["paths"] == ["benchmarks/perf"]
    assert 2 <= len(manifest["workloads"]) <= 8
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert 1 <= len(manifest["end_to_end"]) <= 16 and 1 <= len(manifest["per_layer"]) <= 128
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in manifest[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert MANIFEST_PATH.stat().st_size <= 64 * 1024


def test_results_schema_and_every_metric_on_every_workload(smoke: list) -> None:
    manifest = load_manifest()
    _, results = smoke[0]
    for key in ("schema", "git_rev", "python", "nproc", "loadavg", "seed", "runs", "workloads"):
        assert key in results
    assert list(results["workloads"]) == [w["name"] for w in manifest["workloads"]]
    for name, entry in results["workloads"].items():
        assert entry["sizes"] and entry["correct"], entry["problems"]
        assert entry["attempted"] >= 1 and entry["failed"] == 0
        assert (PERF_DIR / "out" / entry["trace_file"]).is_file()
        for group in ("end_to_end", "per_layer"):
            for spec in manifest[group]:
                summary = entry["metrics"][spec["name"]]
                assert summary["group"] == group and summary["unit"] == spec["unit"]
                assert summary["q1"] <= summary["median"] <= summary["q3"] and summary["n"] >= 1
        for spec in manifest["end_to_end"]:
            assert entry["metrics"][spec["name"]]["median"] > 0, (name, spec["name"])
        assert entry["metrics"]["observability.dropped_spans"]["median"] == 0


def test_trace_accounts_for_the_wall(smoke: list) -> None:
    _, results = smoke[0]
    for name, entry in results["workloads"].items():
        metrics = entry["metrics"]
        parts = sum(m["median"] for key, m in metrics.items() if key.startswith("trace.self_s."))
        assert parts == pytest.approx(metrics["trace.wall_s"]["median"], rel=0.10), name
        trace = json.loads((PERF_DIR / "out" / entry["trace_file"]).read_text())
        assert {"id", "parent", "request_id", "name", "kind", "start_s", "end_s"} <= set(
            trace["spans"][0]
        )


def test_exact_counts_repeat_across_same_seed_runs(smoke: list) -> None:
    (_, first), (_, second) = smoke
    for name in EXACT:
        for metric in ("llm_calls_per_unit", "cost_usd_per_unit", "correct_share"):
            a = first["workloads"][name]["metrics"][metric]["median"]
            b = second["workloads"][name]["metrics"][metric]["median"]
            # Dollars are float sums gathered in arrival order.
            assert a == pytest.approx(b, rel=1e-9), (name, metric)


def test_leak_guard_passes(smoke: list) -> None:
    for _, results in smoke:
        for entry in results["workloads"].values():
            assert entry["leaked_processes"] == 0 and entry["leaked_threads"] == 0
            assert entry["metrics"]["bench.leaked_processes"]["median"] == 0
    assert harness._group_members(2**22 + 12345) == []


def test_compare_two_results_files(smoke: list) -> None:
    (path_a, _), (path_b, _) = smoke
    done = _run("compare", str(path_a), str(path_b))
    assert done.returncode in (0, 1), done.stderr
    rows = [line for line in done.stdout.splitlines() if line.startswith("etl_ingest")]
    assert len(rows) == len(load_manifest()["end_to_end"]) + len(load_manifest()["per_layer"])
    assert _run("compare", str(path_a), str(path_a)).returncode == 0


def _summary(
    median: float, q1: float, q3: float, better: str = "lower", bound: float = 0.1, n: int = 5
) -> dict:
    return {"median": median, "q1": q1, "q3": q3, "better": better, "bound": bound, "n": n}


def test_verdicts() -> None:
    def status(base: dict, new: dict, metric: str = "latency_p50_ms") -> str:
        return harness.verdict(metric, base, new)["status"]

    base = _summary(100, 99, 101)
    assert status(base, _summary(105, 104, 106)) == "unchanged"
    assert status(base, _summary(120, 119, 121)) == "regressed"
    assert status(base, _summary(80, 79, 81)) == "improved"
    # A spread wider than the bound hides a change of that size.
    assert status(base, _summary(112, 100, 125)) == "unresolved"
    assert status(base, _summary(200, 180, 220)) == "regressed"
    higher = _summary(100, 99, 101, better="higher")
    assert status(higher, _summary(80, 79, 81, better="higher")) == "regressed"
    row = harness.verdict("latency_p50_ms", base, _summary(120, 119, 121))
    assert row["ratio"] == pytest.approx(1.2) and row["worse_by"] == pytest.approx(0.2)
    assert status({**base, "bound": None}, _summary(300, 300, 300)) == "-"
    # A count that repeated exactly on both sides may not move at all;
    # a time that happened to, or a count seen once, still gets its bound.
    exact = _summary(8, 8, 8)
    assert status(exact, _summary(8.1, 8.1, 8.1), "llm_calls_per_unit") == "regressed"
    assert status(exact, _summary(8, 8, 8), "llm_calls_per_unit") == "unchanged"
    assert status(exact, _summary(8.1, 8.1, 8.1), "latency_p50_ms") == "unchanged"
    assert status(exact, _summary(8.1, 8.1, 8.1, n=1), "llm_calls_per_unit") == "unchanged"
    assert status(exact, _summary(8.1, 8.0, 8.2), "llm_calls_per_unit") == "unchanged"


def test_one_run_prints_the_contract_object_last() -> None:
    manifest = load_manifest()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(
            "--workload", "etl_ingest", "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"
        )  # fmt: skip
        assert done.returncode == 0, done.stderr[-3000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in manifest[group]]
        assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())


def test_a_second_seed_changes_the_inputs() -> None:
    from common import SMOKE
    from workloads import serve_schedule

    assert serve_schedule(1, 0, 0, SMOKE) == serve_schedule(1, 0, 0, SMOKE)
    assert serve_schedule(1, 0, 0, SMOKE) != serve_schedule(2, 0, 0, SMOKE)
    assert serve_schedule(1, 0, 0, SMOKE) != serve_schedule(1, 0, 1, SMOKE)
    assert sorted(serve_schedule(1, 0, 0, SMOKE)) != sorted(serve_schedule(1, 1, 0, SMOKE))


def test_no_result_without_the_program(tmp_path: Path) -> None:
    shutil.copy(MANIFEST_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        PERF_DIR, tmp_path / "benchmarks" / "perf", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "etl_ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    assert done.returncode != 0 and done.stdout.strip() == ""


def test_self_times_share_the_window_among_open_leaves() -> None:
    def span(span_id: str, parent: object, kind: str, start: float, end: float) -> dict:
        return {"id": span_id, "parent": parent, "kind": kind, "start_s": start, "end_s": end}

    rows = [
        span("a", None, "query", 0.0, 10.0),
        span("b", "a", "llm_request", 2.0, 6.0),
        span("c", "a", "llm_request", 4.0, 8.0),  # overlaps b for two seconds
        span("d", None, "plan", 12.0, 13.0),
    ]
    totals = self_times(rows, 0.0, 14.0)
    assert totals["query"] == pytest.approx(4.0)  # 0-2 and 8-10
    assert totals["llm_request"] == pytest.approx(6.0)  # 2-8, shared while both are open
    assert totals["plan"] == pytest.approx(1.0)
    assert totals["unattributed"] == pytest.approx(3.0)
    assert sum(totals.values()) == pytest.approx(14.0)
    assert percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 0.9) == 9
    assert percentile([5.0], 0.9) == 5.0


def test_times_are_reported_at_reference_speed() -> None:
    from common import SMOKE
    from measure import end_to_end
    from pace import REFERENCE_S, ReferenceKernel
    from workloads import Outcome

    kernel = ReferenceKernel(n_docs=60)
    assert kernel.box_speed() == 1.0
    kernel.seconds = [REFERENCE_S] * 4  # a group at reference speed
    assert kernel.run(calls=2) > 0 and len(kernel.seconds) == 6
    kernel.seconds[4:] = [3 * REFERENCE_S] * 2
    kernel.seconds += [REFERENCE_S]
    assert kernel.run(calls=0) == pytest.approx(1 / 3)  # the last two groups only

    def outcome(at_reference_speed: bool) -> Outcome:
        run = Outcome(unit="document", at_reference_speed=at_reference_speed)
        speeds = iter([1.0, 0.5, 0.5])  # the box halves its speed after the first group
        run.kernel.run = lambda calls: next(speeds)
        run.pace()
        run.setup_s, run.latencies_ms = [1.0], [100.0]
        run.add_repeat([(0.0, 2.0)], units=10, cpu_s=2.0)
        assert run.more_repeats(1.5, SMOKE) is at_reference_speed  # 2 s measured, 1 s at reference
        return run

    raw, paced = end_to_end(outcome(False)), end_to_end(outcome(True))
    assert (raw["setup_s"], raw["throughput_per_s"], raw["latency_p50_ms"]) == (1.0, 5.0, 100.0)
    assert (paced["setup_s"], paced["throughput_per_s"], paced["latency_p90_ms"]) == (0.5, 10.0, 50.0)
