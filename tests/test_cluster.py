"""Tests for repro.cluster: sharding, envelopes, spill, scatter/gather.

The contracts under test, in the order the module docstrings state them:

* shard assignment is a pure function of the document id — identical
  across processes and ``PYTHONHASHSEED`` values (asserted with real
  subprocesses);
* the gather merge is order-stable: worker completion order cannot
  perturb the output, so a sharded run is byte-identical to a
  single-process run of the same spec;
* a worker killed mid-shard is detected, its shard retried on a live
  peer, and the pool healed — with the *same* merged output;
* deadlines cross the process boundary: an expired scope either raises
  the typed :class:`DeadlineExceeded` or (``partial="typed"``) returns a
  ``status="partial"`` result naming the unfinished shards;
* cluster admission sheds with the serving layer's typed
  :class:`Overloaded` (``reason="cluster_busy"``);
* journal shard checkpoints make a re-run reuse completed shards;
* spill-to-disk round-trips documents byte-identically in insertion
  order under a bounded resident budget;
* sharded keyword/vector indexes return exactly the unsharded ranking.

The multi-process tests use small corpora: spawn cost dominates, the
invariants do not depend on scale (the perf harness's ``cluster_scatter``
workload covers scale).
"""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterCoordinator,
    ClusterError,
    SpillableDocSet,
)
from repro.cluster.bench import generate_bench_corpus
from repro.cluster.envelope import (
    _UNPICKLABLE_TYPES,
    NonPicklableTaskError,
    ShardOp,
    ShardPlanSpec,
    _check_value,
)
from repro.cluster.sharding import (
    merge_shard_outputs,
    partition_documents,
    shard_for,
)
from repro.cluster.worker import build_worker_context, run_spec_locally
from repro.docmodel.document import Document
from repro.indexes.keyword import KeywordIndex
from repro.indexes.sharded import ShardedKeywordIndex, ShardedVectorIndex
from repro.indexes.vector import VectorIndex
from repro.lifecycle import CancelScope, Deadline, DeadlineExceeded, QueryJournal
from repro.llm import ReliableLLM, SimulatedLLM
from repro.luna import Luna
from repro.luna.executor import LunaExecutor
from repro.luna.operators import LogicalPlan
from repro.luna.operators import PlanNode as LunaPlanNode
from repro.serving import Overloaded

EXTRACT_SPEC = ShardPlanSpec.from_ops(
    [ShardOp.make("LlmExtract", field="cause", type="string")],
    default_model="sim-small",
)


def _doc_bytes(documents):
    return "\n".join(doc.to_json() for doc in documents)


def _run_locally(config: ClusterConfig, documents, spec):
    """The single-process reference: the exact worker code path.

    Returns the output documents and the LLM calls the run made.
    """
    context = build_worker_context(config.worker_config())
    try:
        output, _ = run_spec_locally(context, documents, spec)
        llm_calls = context.cost_tracker.summary().calls
    finally:
        context.close()
    return output, llm_calls


# ----------------------------------------------------------------------
# Placement: pure, deterministic, PYTHONHASHSEED-proof
# ----------------------------------------------------------------------


class TestSharding:
    def test_shard_for_is_pure_and_bounded(self):
        ids = [f"doc-{i}" for i in range(200)]
        first = [shard_for(doc_id, 7) for doc_id in ids]
        second = [shard_for(doc_id, 7) for doc_id in ids]
        assert first == second
        assert all(0 <= shard < 7 for shard in first)
        # All shards get traffic at this scale; a degenerate constant
        # assignment would make "sharding" a no-op.
        assert len(set(first)) == 7

    def test_shard_for_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            shard_for("doc", 0)

    def test_shard_for_identical_across_hash_seeds(self):
        """Placement must survive process restarts: two interpreters with
        different hash salts must compute the same partition map."""
        child = (
            "import json\n"
            "from repro.cluster.sharding import shard_for\n"
            "from repro.execution.materialize import stable_seed\n"
            "ids = [f'doc-{i}' for i in range(64)]\n"
            "print(json.dumps([[shard_for(i, 5) for i in ids],"
            " [stable_seed(i) for i in ids]]))\n"
        )

        def run(hash_seed: str) -> str:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", child],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.strip()

        assert run("0") == run("314159")

    def test_partition_covers_every_document_once(self):
        documents = generate_bench_corpus(50)
        shards = partition_documents(documents, 6)
        assert [shard.shard_id for shard in shards] == list(range(6))
        seen = [doc.doc_id for shard in shards for doc in shard.documents]
        assert sorted(seen) == sorted(doc.doc_id for doc in documents)
        for shard in shards:
            assert len(shard.documents) == len(shard.positions)
            # Within a shard, input order is preserved.
            assert shard.positions == sorted(shard.positions)

    def test_merge_ignores_completion_order(self):
        documents = generate_bench_corpus(30)
        shards = partition_documents(documents, 4)
        outputs = {s.shard_id: (s.documents, s.positions) for s in shards}
        reversed_outputs = {
            s.shard_id: (s.documents, s.positions) for s in reversed(shards)
        }
        merged = merge_shard_outputs(outputs)
        assert [d.doc_id for d in merged] == [d.doc_id for d in documents]
        assert _doc_bytes(merge_shard_outputs(reversed_outputs)) == _doc_bytes(
            merged
        )

    def test_merge_interleaves_filtered_shards(self):
        """A filter drops documents; survivors keep their original
        relative order across shard boundaries."""
        documents = generate_bench_corpus(20)
        shards = partition_documents(documents, 3)
        outputs = {}
        for shard in shards:
            kept = [
                (doc, pos)
                for doc, pos in zip(shard.documents, shard.positions)
                if pos % 2 == 0
            ]
            outputs[shard.shard_id] = (
                [doc for doc, _ in kept],
                [pos for _, pos in kept],
            )
        merged = merge_shard_outputs(outputs)
        expected = [doc for pos, doc in enumerate(documents) if pos % 2 == 0]
        assert [d.doc_id for d in merged] == [d.doc_id for d in expected]

    def test_merge_rejects_mismatched_positions(self):
        with pytest.raises(ValueError):
            merge_shard_outputs({0: ([Document.from_text("x")], [0, 1])})


# ----------------------------------------------------------------------
# Envelopes: declarative, picklable, typed rejections
# ----------------------------------------------------------------------


class TestEnvelopes:
    def test_rejects_non_shardable_operation(self):
        with pytest.raises(ValueError, match="not shardable"):
            ShardPlanSpec.from_ops([ShardOp.make("TopK", k=3)])

    def test_rejects_empty_plan(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardPlanSpec.from_ops([])

    def test_rejects_lambda_capture(self):
        with pytest.raises(NonPicklableTaskError, match="function"):
            ShardPlanSpec.from_ops(
                [ShardOp.make("BasicFilter", predicate=lambda doc: True)]
            )

    def test_rejects_nested_lock_capture(self):
        with pytest.raises(NonPicklableTaskError, match="LlmFilter.options"):
            ShardPlanSpec.from_ops(
                [
                    ShardOp.make(
                        "LlmFilter",
                        condition="x",
                        options={"guard": threading.Lock()},
                    )
                ]
            )

    def test_fingerprint_tracks_plan_identity(self):
        a = ShardPlanSpec.from_ops([ShardOp.make("LlmExtract", field="f")])
        b = ShardPlanSpec.from_ops([ShardOp.make("LlmExtract", field="f")])
        c = ShardPlanSpec.from_ops([ShardOp.make("LlmExtract", field="g")])
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_fingerprint_tracks_error_policy(self):
        ops = [ShardOp.make("LlmExtract", field="f")]
        fail = ShardPlanSpec.from_ops(ops)
        dead_letter = ShardPlanSpec.from_ops(ops, error_policy="dead_letter")
        assert fail.error_policy == "fail"
        assert fail.fingerprint() != dead_letter.fingerprint()

    def test_unknown_error_policy_rejected(self):
        with pytest.raises(ValueError, match="retry"):
            ShardPlanSpec.from_ops(
                [ShardOp.make("LlmExtract", field="f")], error_policy="retry"
            )


class TestEnvelopeHardening:
    """``_check_value`` rejects synchronization primitives anywhere in a
    plan parameter, including ones only its duck-typed check sees."""

    def test_lock_rejected_by_envelope_check(self):
        with pytest.raises(NonPicklableTaskError):
            _check_value("op.param", threading.Lock())

    def test_lock_rejected_inside_containers(self):
        with pytest.raises(NonPicklableTaskError):
            _check_value("op.param", {"inner": [threading.RLock()]})

    def test_multiprocessing_lock_rejected_alone_and_nested(self):
        lock = multiprocessing.Lock()
        # Not an instance of any type in the tuple: the duck-typed
        # acquire/release check is what rejects it.
        assert not isinstance(lock, _UNPICKLABLE_TYPES)
        for value in (lock, {"inner": lock}, [1, lock]):
            with pytest.raises(NonPicklableTaskError):
                _check_value("op.param", value)

    def test_plain_values_still_pass(self):
        _check_value("op.param", {"a": [1, "two", 3.0, None, True]})


# ----------------------------------------------------------------------
# Spill-to-disk
# ----------------------------------------------------------------------


class TestSpillableDocSet:
    def test_roundtrip_is_byte_identical_in_order(self, tmp_path):
        documents = generate_bench_corpus(40)
        docset = SpillableDocSet(
            spill_dir=tmp_path, max_resident_docs=10, n_partitions=4
        )
        docset.extend(documents)
        assert len(docset) == 40
        assert docset.resident_docs <= 10
        assert docset.spilled_docs > 0
        assert _doc_bytes(list(docset)) == _doc_bytes(documents)
        # Iteration is repeatable (files + buffers are not consumed).
        assert _doc_bytes(list(docset)) == _doc_bytes(documents)
        docset.close()

    def test_partitions_agree_with_shard_for(self, tmp_path):
        documents = generate_bench_corpus(24)
        with SpillableDocSet(
            spill_dir=tmp_path, max_resident_docs=5, n_partitions=3
        ) as docset:
            docset.extend(documents)
            docset.flush()
            for partition in range(3):
                for doc in docset.partition_documents(partition):
                    assert shard_for(doc.doc_id, 3) == partition

    def test_stats_and_cleanup(self, tmp_path):
        docset = SpillableDocSet(
            spill_dir=tmp_path, max_resident_docs=4, n_partitions=2
        )
        docset.extend(generate_bench_corpus(12))
        stats = docset.stats()
        assert stats["documents"] == 12
        assert stats["spilled_docs"] + stats["resident_docs"] == 12
        assert stats["spilled_bytes"] > 0
        docset.close()
        assert not any(tmp_path.glob("partition-*.jsonl"))

    def test_rejects_degenerate_budgets(self):
        with pytest.raises(ValueError):
            SpillableDocSet(max_resident_docs=0)
        with pytest.raises(ValueError):
            SpillableDocSet(n_partitions=0)


# ----------------------------------------------------------------------
# Sharded indexes: exact fan-out
# ----------------------------------------------------------------------

_TEXTS = {
    f"doc-{i}": " ".join(
        ["wind"] * (i % 4)
        + ["engine"] * (i % 3)
        + ["failure", "report", f"sector{i % 5}"]
    )
    for i in range(30)
}


class TestShardedIndexes:
    def test_keyword_search_matches_unsharded(self):
        single = KeywordIndex()
        sharded = ShardedKeywordIndex(n_shards=4)
        for doc_id, text in _TEXTS.items():
            single.add(doc_id, text)
            sharded.add(doc_id, text)
        for query in ("wind", "engine failure", "sector2 report"):
            expected = single.search(query, k=10)
            actual = sharded.search(query, k=10)
            assert [h.doc_id for h in actual] == [h.doc_id for h in expected]
            for got, want in zip(actual, expected):
                assert got.score == pytest.approx(want.score)

    def test_keyword_global_stats_make_scores_exact(self):
        """The distributed-IDF round: per-shard document frequencies sum
        to the global ones, which is what makes scores comparable."""
        single = KeywordIndex()
        sharded = ShardedKeywordIndex(n_shards=3)
        for doc_id, text in _TEXTS.items():
            single.add(doc_id, text)
            sharded.add(doc_id, text)
        global_stats = sharded.global_stats("wind engine")
        local_stats = single.local_stats({"wind", "engine"})
        assert global_stats.n_docs == local_stats.n_docs
        assert global_stats.avg_length == pytest.approx(local_stats.avg_length)
        assert global_stats.doc_freqs == local_stats.doc_freqs

    def test_vector_search_matches_unsharded(self):
        single = VectorIndex(dimensions=4)
        sharded = ShardedVectorIndex(dimensions=4, n_shards=3)
        for i in range(24):
            vector = [(i % 5) + 1.0, (i % 3) + 0.5, 1.0, (i % 7) * 0.25]
            single.add(f"doc-{i}", vector)
            sharded.add(f"doc-{i}", vector)
        expected = single.search([1.0, 0.8, 1.2, 0.3], k=8)
        actual = sharded.search([1.0, 0.8, 1.2, 0.3], k=8)
        assert [h.doc_id for h in actual] == [h.doc_id for h in expected]
        for got, want in zip(actual, expected):
            assert got.score == pytest.approx(want.score)

    def test_membership_and_removal_route_by_shard(self):
        sharded = ShardedKeywordIndex(n_shards=4)
        sharded.add("doc-1", "some text")
        assert "doc-1" in sharded
        assert len(sharded) == 1
        assert sharded.remove("doc-1")
        assert "doc-1" not in sharded
        assert not sharded.remove("doc-1")


# ----------------------------------------------------------------------
# Scatter/gather with real worker processes
# ----------------------------------------------------------------------


class TestClusterExecution:
    def test_worker_stack_calls_its_llm_directly(self):
        """A worker runs its shard on one thread: no scheduler batches or
        dedups its calls, they go to the worker's reliability layer."""
        context = build_worker_context(ClusterConfig().worker_config())
        try:
            assert context.scheduler is None
            assert isinstance(context.llm, ReliableLLM)
            assert isinstance(context.llm.backend, SimulatedLLM)
        finally:
            context.close()

    def test_sharded_output_byte_identical_to_single_process(self):
        """The cluster's core invariant at small scale: same bytes, and
        the same traffic (one call per document) on both sides, on a
        clean pool (no retry, no death, every worker still alive)."""
        documents = generate_bench_corpus(80)
        config = ClusterConfig(
            n_workers=2, shards_per_worker=2, seed=0, default_model="sim-small"
        )
        expected, local_calls = _run_locally(config, documents, EXTRACT_SPEC)
        with ClusterCoordinator(config) as coordinator:
            run = coordinator.run_segment(documents, EXTRACT_SPEC)
            stats = coordinator.stats()
        assert _doc_bytes(run.documents) == _doc_bytes(expected)
        assert len(run.documents) == 80
        assert run.completed_shards == 4
        assert run.worker_deaths == 0
        assert local_calls == 80
        assert run.llm_calls == local_calls
        assert run.retried_shards == 0
        assert stats["workers"]["alive"] == 2

    def test_worker_death_is_healed_by_peer_retry(self):
        """Kill one worker mid-shard: the coordinator must notice, retry
        the shard elsewhere, heal the pool, and merge the same bytes."""
        documents = generate_bench_corpus(40)
        config = ClusterConfig(
            n_workers=2, seed=0, default_model="sim-small", chaos_kill_shard=0
        )
        expected, _ = _run_locally(config, documents, EXTRACT_SPEC)
        with ClusterCoordinator(config) as coordinator:
            run = coordinator.run_segment(documents, EXTRACT_SPEC)
            stats = coordinator.stats()
        assert run.worker_deaths >= 1
        assert run.retried_shards >= 1
        assert run.status == "ok"
        assert _doc_bytes(run.documents) == _doc_bytes(expected)
        assert stats["workers"]["alive"] == 2  # the dead slot respawned
        assert stats["worker_deaths"] >= 1

    def test_expired_deadline_raises_or_returns_typed_partial(self):
        documents = generate_bench_corpus(24)
        config = ClusterConfig(n_workers=2, seed=0, default_model="sim-small")
        scope = CancelScope(deadline=Deadline(0.001), query_id="q-deadline")
        time.sleep(0.01)  # the budget is gone before the scatter starts
        with ClusterCoordinator(config) as coordinator:
            with pytest.raises(DeadlineExceeded):
                coordinator.run_segment(
                    documents, EXTRACT_SPEC, scope=scope, partial="raise"
                )
            run = coordinator.run_segment(
                documents, EXTRACT_SPEC, scope=scope, partial="typed"
            )
        assert run.status == "partial"
        assert run.deadline_shards  # the unfinished shards are named
        assert run.completed_shards + len(run.deadline_shards) == run.n_shards

    def test_admission_sheds_with_cluster_busy(self):
        config = ClusterConfig(n_workers=1, max_inflight_segments=0)
        coordinator = ClusterCoordinator(config)
        try:
            with pytest.raises(Overloaded) as excinfo:
                coordinator.run_segment(
                    generate_bench_corpus(4), EXTRACT_SPEC
                )
            assert excinfo.value.reason == "cluster_busy"
            assert excinfo.value.retry_after_s > 0
            assert coordinator.tenant.rejected == 1
        finally:
            coordinator.close()

    def test_rejects_invalid_partial_mode(self):
        coordinator = ClusterCoordinator(ClusterConfig(n_workers=1))
        try:
            with pytest.raises(ValueError, match="partial"):
                coordinator.run_segment(
                    generate_bench_corpus(2), EXTRACT_SPEC, partial="maybe"
                )
        finally:
            coordinator.close()

    def test_journal_checkpoints_let_a_rerun_reuse_shards(self, tmp_path):
        documents = generate_bench_corpus(30)
        journal = QueryJournal(tmp_path)
        config = ClusterConfig(n_workers=2, seed=0, default_model="sim-small")
        with ClusterCoordinator(config, journal=journal) as coordinator:
            first = coordinator.run_segment(
                documents, EXTRACT_SPEC, query_id="q-journal"
            )
            assert first.reused_shards == 0
            second = coordinator.run_segment(
                documents, EXTRACT_SPEC, query_id="q-journal"
            )
        # Every non-empty shard replays from its checkpoint; the merged
        # output is identical without re-running a single worker task.
        non_empty = sum(
            1 for s in partition_documents(documents, first.n_shards) if len(s)
        )
        assert second.reused_shards == non_empty
        assert second.llm_calls == 0
        assert _doc_bytes(second.documents) == _doc_bytes(first.documents)

    def test_a_failing_shard_stops_at_the_retry_bound(self):
        # A shard that reports an error was run to completion under the
        # spec's containment policy; running it again would ask the same
        # questions of the same records. It is dispatched once. Only a
        # dead worker's shard is re-dispatched.
        spec = ShardPlanSpec.from_ops(
            [ShardOp.make("LlmExtract", field="cause", type="string")],
            default_model="no-such-model",
        )
        config = ClusterConfig(n_workers=1, shards_per_worker=1)
        with ClusterCoordinator(config) as coordinator:
            with pytest.raises(ClusterError) as excinfo:
                coordinator.run_segment(generate_bench_corpus(2), spec)
            stats = coordinator.stats()
        assert excinfo.value.attempts == 1
        assert stats["shards"]["retried"] == 0

    def test_closed_coordinator_rejects_segments(self):
        coordinator = ClusterCoordinator(ClusterConfig(n_workers=1))
        coordinator.close()
        with pytest.raises(ClusterError, match="closed"):
            coordinator.run_segment(generate_bench_corpus(2), EXTRACT_SPEC)


# ----------------------------------------------------------------------
# Luna routing
# ----------------------------------------------------------------------


class TestLunaClusterRouting:
    QUESTION = "How many incidents were caused by wind?"

    def test_cluster_routed_query_matches_in_process(self, indexed_context):
        ctx = indexed_context
        luna = Luna(ctx, policy="balanced")
        baseline = luna.query(self.QUESTION, index="ntsb")
        config = ClusterConfig(n_workers=2, seed=0)
        try:
            with ClusterCoordinator(
                config, tracer=ctx.tracer, registry=ctx.registry
            ) as coordinator:
                ctx.cluster = coordinator
                routed = luna.query(self.QUESTION, index="ntsb")
                stats = coordinator.stats()
        finally:
            ctx.cluster = None
        assert routed.answer == baseline.answer
        assert stats["segments"] >= 1
        # Worker-side LLM traffic is folded into the parent trace, so
        # cost accounting survives the process boundary.
        assert routed.trace.total_llm_calls() >= stats["shards"]["completed"]

    def test_routed_operator_honours_the_query_error_policy(self, indexed_context):
        # Every record of the filter fails (unknown model). Under
        # dead_letter both paths drop each record to the dead-letter
        # queue and flag the answer partial; the cluster must not retry
        # the shard and then degrade the filter into a pass-through.
        ctx = indexed_context
        failing = LogicalPlan(
            nodes=[
                LunaPlanNode(operation="QueryIndex", params={"index": "ntsb"}),
                LunaPlanNode(
                    operation="LlmFilter",
                    inputs=[0],
                    params={"condition": "caused by wind", "model": "no-such-model"},
                ),
                LunaPlanNode(operation="Count", inputs=[1]),
            ]
        )
        executor = LunaExecutor(ctx, error_policy="dead_letter")
        local_answer, local = executor.execute(failing)
        config = ClusterConfig(n_workers=1, shards_per_worker=1, min_cluster_docs=1)
        try:
            with ClusterCoordinator(
                config, tracer=ctx.tracer, registry=ctx.registry
            ) as coordinator:
                ctx.cluster = coordinator
                routed_answer, routed = executor.execute(failing)
                stats = coordinator.stats()
        finally:
            ctx.cluster = None
        n_docs = len(ctx.catalog.get("ntsb").all_documents())
        assert local_answer == routed_answer == 0
        assert local.total_dead_lettered() == routed.total_dead_lettered() == n_docs
        assert local.partial and routed.partial
        assert local.errors == routed.errors == []
        assert stats["shards"]["completed"] == 1
        assert stats["shards"]["retried"] == 0

    def test_small_inputs_stay_in_process(self, indexed_context):
        ctx = indexed_context
        config = ClusterConfig(n_workers=1, min_cluster_docs=10_000)
        try:
            with ClusterCoordinator(
                config, tracer=ctx.tracer, registry=ctx.registry
            ) as coordinator:
                ctx.cluster = coordinator
                luna = Luna(ctx, policy="balanced")
                result = luna.query(self.QUESTION, index="ntsb")
                stats = coordinator.stats()
        finally:
            ctx.cluster = None
        assert result.answer is not None
        assert stats["segments"] == 0  # below the routing threshold
