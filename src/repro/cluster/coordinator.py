"""Scatter/gather coordination over a pool of worker processes.

The :class:`ClusterCoordinator` is the control plane of the shared-
nothing layer: it partitions a document set into deterministic shards
(:mod:`~repro.cluster.sharding`), scatters per-shard envelopes across a
fixed pool of worker processes, and gathers results back into an
order-stable merge. Its obligations mirror what the paper gets from Ray
plus OpenSearch sharding:

* **Admission** — segments are admitted against a serving
  :class:`~repro.serving.session.Tenant` quota and shed with the same
  typed :class:`~repro.serving.service.Overloaded` the query service
  raises, so a caller cannot distinguish cluster saturation from
  service saturation (and handles both with one retry policy).
* **Lifecycle** — the ambient :class:`~repro.lifecycle.CancelScope` is
  honoured at every gather step, and the *remaining* budget is
  serialized into each envelope so workers enforce the same end-to-end
  deadline from the other side of the process boundary. A shard that
  dies with the deadline raises the same typed
  :class:`~repro.lifecycle.DeadlineExceeded`; ``partial="typed"``
  instead returns a :class:`ClusterRunResult` naming the unfinished
  shards.
* **Fault tolerance** — a worker that disappears mid-shard is detected
  by exit code, its outstanding shards are re-dispatched to a live peer
  (attempt-bounded), and the pool is healed by respawning the slot.
  This is the only retry the cluster owns. A shard that *reports* an
  error is not re-run: its records already met the query's containment
  policy on the worker, and its LLM calls were already retried there.
  With a journal attached, completed shards are checkpointed so a
  resumed query re-runs only the shards that were lost.
* **Observability** — ``cluster.*`` metrics and per-shard spans linked
  under one ``cluster.segment`` span in the parent trace.

Gather never blocks unboundedly: every queue wait carries a timeout and
re-checks the scope and the worker pool, the same discipline the
static-analysis rules enforce on the serving hot path.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from queue import Empty
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..docmodel.document import Document
from ..execution.materialize import stable_fingerprint
from ..lifecycle.deadline import CancelScope, DeadlineExceeded, current_scope
from ..lifecycle.journal import JournalError, QueryJournal
from ..observability.metrics import MetricsRegistry, get_registry
from ..observability.tracing import Span, Tracer
from ..serving.service import Overloaded
from ..serving.session import Tenant, TenantQuota
from .envelope import ShardOp, ShardPlanSpec, ShardResult, TaskEnvelope, WorkerConfig
from .sharding import (
    Shard,
    merge_shard_outputs,
    partition_documents,
    partition_fingerprint,
)
from .worker import worker_main

#: How long one gather wait blocks before re-checking the scope and the
#: worker pool. Worker death is therefore detected within one poll.
RESULT_POLL_S = 0.2

#: How long close() waits for a worker to exit gracefully before
#: terminating it.
SHUTDOWN_GRACE_S = 2.0

#: How many times one shard may be re-dispatched after its worker died
#: before the segment fails with :class:`ClusterError`.
MAX_SHARD_RETRIES = 2


class ClusterError(RuntimeError):
    """A shard failed, or its workers kept dying past the retry bound."""

    def __init__(self, message: str, shard_id: int = -1, attempts: int = 0):
        super().__init__(message)
        self.shard_id = shard_id
        self.attempts = attempts


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster sizing, placement determinism, and chaos knobs.

    Workers are spawned (the portable start method, which also enforces
    the picklable-envelope discipline end to end) and run each shard's
    plan on one thread.
    """

    n_workers: int = 2
    #: A segment splits into ``shards_per_worker * n_workers`` shards. More
    #: shards than workers gives finer retry granularity and better load
    #: balance; shard *assignment* stays a pure function of doc ids.
    shards_per_worker: int = 2
    #: Segments admitted (running or waiting) at once; beyond this the
    #: coordinator sheds load with a typed ``Overloaded``.
    max_inflight_segments: int = 4
    #: Worker stack configuration (see WorkerConfig for semantics).
    seed: int = 0
    default_model: str = "sim-large"
    real_latency_scale: float = 0.0
    #: Chaos hook: poison the first attempt of this shard id so its
    #: worker dies mid-shard (proving death detection + peer retry).
    chaos_kill_shard: Optional[int] = None
    #: Below this many documents, engines should run an operator
    #: in-process rather than pay scatter overhead (Luna's routing
    #: threshold; the coordinator itself does not enforce it).
    min_cluster_docs: int = 8

    def effective_shards(self) -> int:
        """The shard count this config partitions into."""
        return max(1, self.n_workers * self.shards_per_worker)

    def worker_config(self) -> WorkerConfig:
        """The plain-value config shipped to every worker process."""
        return WorkerConfig(
            seed=self.seed,
            default_model=self.default_model,
            real_latency_scale=self.real_latency_scale,
        )


@dataclass
class ClusterRunResult:
    """Outcome of one scatter/gather segment."""

    documents: List[Document]
    #: "ok", or "partial" when ``partial="typed"`` absorbed a deadline.
    status: str = "ok"
    n_shards: int = 0
    completed_shards: int = 0
    #: Shards replayed from journal checkpoints instead of re-run.
    reused_shards: int = 0
    retried_shards: int = 0
    #: Shards unfinished when the deadline hit (``partial="typed"``).
    deadline_shards: List[int] = field(default_factory=list)
    worker_deaths: int = 0
    llm_calls: int = 0
    cost_usd: float = 0.0
    dead_lettered: int = 0
    skipped: int = 0
    wall_s: float = 0.0


@dataclass
class _WorkerHandle:
    """One worker slot: the live process and its private task queue."""

    slot: int
    generation: int
    process: Any
    task_queue: Any


@dataclass
class _Assignment:
    """Where one in-flight shard currently lives."""

    slot: int
    generation: int
    envelope: TaskEnvelope
    span: Optional[Span] = None


class ClusterCoordinator:
    """Scatter/gather control plane over a worker-process pool.

    Segments run one at a time (admission bounds how many may *wait*);
    parallelism lives inside a segment, across its shards and workers.
    The coordinator owns its workers: :meth:`close` shuts the pool down
    and is required (``with`` works), matching QueryService's contract.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        journal: Optional[QueryJournal] = None,
    ):
        self.config = config or ClusterConfig()
        if self.config.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.tracer = tracer
        self.registry = registry if registry is not None else get_registry()
        self.journal = journal
        self._mp = multiprocessing.get_context("spawn")
        self._slots: List[_WorkerHandle] = []
        self._result_queue: Any = None
        self._generations = itertools.count()
        self._run_tokens = itertools.count()
        self._dispatch_rr = itertools.count()
        self._lock = threading.RLock()
        self._run_lock = threading.Lock()
        self._closed = False
        self.tenant = Tenant(
            name="cluster",
            quota=TenantQuota(max_inflight=self.config.max_inflight_segments),
        )
        self._tenant_lock = threading.Lock()
        reg = self.registry
        self._m_segments = reg.counter("cluster.segments")
        self._m_rejected = reg.counter("cluster.rejected_segments")
        self._m_shards = reg.counter("cluster.shards_completed")
        self._m_reused = reg.counter("cluster.shards_reused")
        self._m_retries = reg.counter("cluster.shard_retries")
        self._m_deaths = reg.counter("cluster.worker_deaths")
        self._m_deadline = reg.counter("cluster.deadline_shards")
        self._m_llm_calls = reg.counter("cluster.llm_calls")
        self._m_docs_in = reg.counter("cluster.documents_in")
        self._m_docs_out = reg.counter("cluster.documents_out")
        self._m_errors = reg.counter("cluster.errors")
        self._g_workers = reg.gauge("cluster.workers_alive")
        #: Cumulative counters mirrored into :meth:`stats`.
        self.segments_run = 0
        self.shards_completed = 0
        self.shards_reused = 0
        self.shards_retried = 0
        self.worker_deaths = 0

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    def _ensure_started(self) -> None:
        with self._lock:
            if self._closed:
                raise ClusterError("cluster coordinator is closed")
            if self._result_queue is None:
                self._result_queue = self._mp.Queue()
            while len(self._slots) < self.config.n_workers:
                self._slots.append(self._spawn(slot=len(self._slots)))
            self._g_workers.set(self._alive_workers())

    def _spawn(self, slot: int) -> _WorkerHandle:
        task_queue = self._mp.Queue()
        process = self._mp.Process(
            target=worker_main,
            args=(slot, self.config.worker_config(), task_queue, self._result_queue),
            name=f"repro-cluster-worker-{slot}",
            daemon=True,
        )
        process.start()
        return _WorkerHandle(
            slot=slot,
            generation=next(self._generations),
            process=process,
            task_queue=task_queue,
        )

    def _alive_workers(self) -> int:
        return sum(1 for handle in self._slots if handle.process.is_alive())

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run_op(
        self,
        documents: Sequence[Document],
        operation: str,
        query_id: str = "",
        scope: Optional[CancelScope] = None,
        partial: str = "raise",
        default_model: Optional[str] = None,
        **params: Any,
    ) -> ClusterRunResult:
        """Run one shardable operator as a single-op segment."""
        spec = ShardPlanSpec.from_ops(
            [ShardOp.make(operation, **params)],
            default_model=default_model or self.config.default_model,
        )
        return self.run_segment(
            documents, spec, query_id=query_id, scope=scope, partial=partial
        )

    def run_segment(
        self,
        documents: Sequence[Document],
        spec: ShardPlanSpec,
        query_id: str = "",
        scope: Optional[CancelScope] = None,
        partial: str = "raise",
    ) -> ClusterRunResult:
        """Scatter a spec over shards of ``documents`` and gather.

        ``partial`` chooses the deadline contract: ``"raise"`` surfaces
        the typed :class:`DeadlineExceeded`; ``"typed"`` returns a
        ``status="partial"`` result listing the unfinished shards.
        """
        if partial not in ("raise", "typed"):
            raise ValueError('partial must be "raise" or "typed"')
        with self._tenant_lock:
            if self.tenant.inflight >= self.tenant.quota.max_inflight:
                self.tenant.rejected += 1
                self._m_rejected.inc()
                raise Overloaded(
                    f"cluster saturated: {self.tenant.inflight} segments in flight",
                    reason="cluster_busy",
                    retry_after_s=1.0,
                    inflight=self.tenant.inflight,
                )
            self.tenant.inflight += 1
            self.tenant.submitted += 1
        try:
            with self._run_lock:
                result = self._run_segment_locked(
                    list(documents), spec, query_id, scope, partial
                )
            with self._tenant_lock:
                self.tenant.completed += 1
            return result
        except BaseException:
            with self._tenant_lock:
                self.tenant.failed += 1
            self._m_errors.inc()
            raise
        finally:
            with self._tenant_lock:
                self.tenant.inflight -= 1

    # ------------------------------------------------------------------
    # Segment execution
    # ------------------------------------------------------------------

    def _run_segment_locked(
        self,
        documents: List[Document],
        spec: ShardPlanSpec,
        query_id: str,
        scope: Optional[CancelScope],
        partial: str,
    ) -> ClusterRunResult:
        spec.validate()
        if scope is None:
            scope = current_scope()
        self._ensure_started()
        started = time.monotonic()
        n_shards = self.config.effective_shards()
        shards = partition_documents(documents, n_shards)
        segment_fp = stable_fingerprint(
            [spec.fingerprint(), partition_fingerprint(documents, n_shards)]
        )
        run_token = f"{query_id or 'segment'}#{next(self._run_tokens)}"
        self._m_segments.inc()
        self._m_docs_in.inc(len(documents))
        self.segments_run += 1

        result = ClusterRunResult(documents=[], n_shards=n_shards)
        outputs: Dict[int, Tuple[Sequence[Document], Sequence[int]]] = {}

        # Journal resume: shards checkpointed under this exact segment
        # fingerprint replay from disk instead of re-running.
        if self.journal is not None and query_id:
            try:
                state = self.journal.load(query_id)
            except JournalError:
                state = None  # first attempt: nothing to resume from
            if state is not None:
                for shard in shards:
                    record = state.shards.get(shard.shard_id)
                    if record is not None and record.get("fingerprint") == segment_fp:
                        outputs[shard.shard_id] = (
                            record["documents"],
                            record["positions"],
                        )
                        result.reused_shards += 1
                        self._m_reused.inc()
        self.shards_reused += result.reused_shards

        # Empty shards complete trivially — never dispatched.
        for shard in shards:
            if shard.shard_id not in outputs and len(shard) == 0:
                outputs[shard.shard_id] = ([], [])

        pending: Dict[int, Shard] = {
            shard.shard_id: shard
            for shard in shards
            if shard.shard_id not in outputs
        }
        deaths_before = self.worker_deaths

        segment_span: Optional[Span] = None
        if self.tracer is not None:
            segment_span = self.tracer.start_span(
                "cluster.segment",
                query_id=query_id,
                run_token=run_token,
                shards=n_shards,
                dispatched_shards=len(pending),
                reused_shards=result.reused_shards,
                workers=self.config.n_workers,
                documents=len(documents),
            )

        assignments: Dict[int, _Assignment] = {}
        status = "ok"
        error: Optional[BaseException] = None
        try:
            self._drain_stale_results()
            for shard in pending.values():
                self._dispatch(
                    shard_id=shard.shard_id,
                    documents=list(shard.documents),
                    positions=list(shard.positions),
                    spec=spec,
                    attempt=0,
                    query_id=query_id,
                    run_token=run_token,
                    scope=scope,
                    assignments=assignments,
                    segment_span=segment_span,
                )

            while pending:
                if scope is not None:
                    try:
                        scope.check()
                    except DeadlineExceeded:
                        if partial != "typed":
                            raise
                        for shard_id in sorted(pending):
                            result.deadline_shards.append(shard_id)
                            self._m_deadline.inc()
                            self._finish_shard_span(
                                assignments.pop(shard_id, None),
                                status="error",
                                outcome="deadline",
                            )
                        pending.clear()
                        status = "partial"
                        break
                try:
                    shard_result: ShardResult = self._result_queue.get(
                        timeout=RESULT_POLL_S
                    )
                except Empty:
                    self._reap_dead_workers(
                        pending, assignments, result, scope, segment_span
                    )
                    continue
                if (
                    shard_result.run_token != run_token
                    or shard_result.shard_id not in pending
                ):
                    continue  # stale result from an abandoned run, or a duplicate
                self._absorb_result(
                    shard_result,
                    pending,
                    assignments,
                    outputs,
                    result,
                    partial,
                    query_id,
                    segment_fp,
                )

            result.documents = merge_shard_outputs(outputs)
            result.status = status
            result.completed_shards = len(outputs)
            result.worker_deaths = self.worker_deaths - deaths_before
            result.wall_s = time.monotonic() - started
            self._m_docs_out.inc(len(result.documents))
            return result
        except BaseException as exc:
            error = exc
            for assignment in assignments.values():
                self._finish_shard_span(
                    assignment, status="error", outcome="abandoned"
                )
            raise
        finally:
            if segment_span is not None and self.tracer is not None:
                segment_span.set_attributes(
                    status=status if error is None else "error",
                    completed_shards=result.completed_shards,
                    retried_shards=result.retried_shards,
                    deadline_shards=list(result.deadline_shards),
                    worker_deaths=self.worker_deaths - deaths_before,
                    llm_calls=result.llm_calls,
                    cost_usd=round(result.cost_usd, 6),
                )
                self.tracer.finish(
                    segment_span,
                    status="ok" if error is None else "error",
                    error=str(error) if error is not None else None,
                )

    # ------------------------------------------------------------------
    # Scatter/gather internals
    # ------------------------------------------------------------------

    def _dispatch(
        self,
        shard_id: int,
        documents: List[Document],
        positions: List[int],
        spec: ShardPlanSpec,
        attempt: int,
        query_id: str,
        run_token: str,
        scope: Optional[CancelScope],
        assignments: Dict[int, _Assignment],
        segment_span: Optional[Span],
    ) -> None:
        budget_s: Optional[float] = None
        if scope is not None and scope.deadline is not None:
            budget_s = scope.remaining()
        poison = None
        if attempt == 0 and self.config.chaos_kill_shard == shard_id:
            poison = "die"
        envelope = TaskEnvelope(
            query_id=query_id,
            shard_id=shard_id,
            attempt=attempt,
            spec=spec,
            documents=documents,
            positions=positions,
            budget_s=budget_s,
            poison=poison,
            run_token=run_token,
        )
        with self._lock:
            slot = next(self._dispatch_rr) % len(self._slots)
            handle = self._slots[slot]
            handle.task_queue.put(envelope)
        span: Optional[Span] = None
        if self.tracer is not None:
            span = self.tracer.start_span(
                "cluster.shard",
                parent=segment_span,
                shard_id=shard_id,
                attempt=attempt,
                worker=slot,
                documents=len(documents),
                poisoned=poison is not None,
            )
        assignments[shard_id] = _Assignment(
            slot=slot,
            generation=handle.generation,
            envelope=envelope,
            span=span,
        )

    def _absorb_result(
        self,
        shard_result: ShardResult,
        pending: Dict[int, Shard],
        assignments: Dict[int, _Assignment],
        outputs: Dict[int, Tuple[Sequence[Document], Sequence[int]]],
        result: ClusterRunResult,
        partial: str,
        query_id: str,
        segment_fp: str,
    ) -> None:
        shard_id = shard_result.shard_id
        assignment = assignments.pop(shard_id, None)
        result.llm_calls += shard_result.llm_calls
        result.cost_usd += shard_result.cost_usd
        self._m_llm_calls.inc(shard_result.llm_calls)

        if shard_result.status == "ok":
            pending.pop(shard_id, None)
            outputs[shard_id] = (shard_result.documents, shard_result.positions)
            result.dead_lettered += shard_result.dead_lettered
            result.skipped += shard_result.skipped
            self._m_shards.inc()
            self.shards_completed += 1
            self._finish_shard_span(
                assignment,
                status="ok",
                outcome="ok",
                wall_s=round(shard_result.wall_s, 4),
                llm_calls=shard_result.llm_calls,
                cost_usd=round(shard_result.cost_usd, 6),
                output_documents=len(shard_result.documents),
            )
            if self.journal is not None and query_id:
                self.journal.shard_complete(
                    query_id,
                    shard_id,
                    fingerprint=segment_fp,
                    documents=list(shard_result.documents),
                    positions=list(shard_result.positions),
                )
            return

        if shard_result.status == "deadline":
            self._finish_shard_span(
                assignment, status="error", outcome="deadline"
            )
            self._m_deadline.inc()
            if partial == "typed":
                pending.pop(shard_id, None)
                result.deadline_shards.append(shard_id)
                result.status = "partial"
                return
            raise DeadlineExceeded(
                f"shard {shard_id} exceeded the query deadline: "
                f"{shard_result.error or 'budget exhausted'}",
                budget_s=shard_result.budget_s,
                elapsed_s=shard_result.elapsed_s,
            )

        # status == "error": the worker ran the shard and it failed under
        # the spec's containment policy. Running it again asks the same
        # question of the same records, so the segment fails here.
        self._finish_shard_span(
            assignment,
            status="error",
            outcome="error",
            error=shard_result.error,
        )
        attempts = shard_result.attempt + 1
        raise ClusterError(
            f"shard {shard_id} failed on attempt {attempts}: "
            f"{shard_result.error or 'shard failed'}",
            shard_id=shard_id,
            attempts=attempts,
        )

    def _retry_shard(
        self,
        shard_id: int,
        assignment: Optional[_Assignment],
        cause: str,
        pending: Dict[int, Shard],
        assignments: Dict[int, _Assignment],
        result: ClusterRunResult,
        scope: Optional[CancelScope],
        segment_span: Optional[Span],
    ) -> None:
        if assignment is None:  # pragma: no cover - defensive
            raise ClusterError(
                f"shard {shard_id} failed with no assignment: {cause}",
                shard_id=shard_id,
            )
        envelope = assignment.envelope
        attempt = envelope.attempt + 1
        if attempt > MAX_SHARD_RETRIES:
            raise ClusterError(
                f"shard {shard_id} failed after {attempt} attempts: {cause}",
                shard_id=shard_id,
                attempts=attempt,
            )
        self._m_retries.inc()
        self.shards_retried += 1
        result.retried_shards += 1
        self._dispatch(
            shard_id=shard_id,
            documents=envelope.documents,
            positions=envelope.positions,
            spec=envelope.spec,
            attempt=attempt,
            query_id=envelope.query_id,
            run_token=envelope.run_token,
            scope=scope,
            assignments=assignments,
            segment_span=segment_span,
        )

    def _reap_dead_workers(
        self,
        pending: Dict[int, Shard],
        assignments: Dict[int, _Assignment],
        result: ClusterRunResult,
        scope: Optional[CancelScope],
        segment_span: Optional[Span],
    ) -> None:
        """Detect dead workers, heal the pool, re-dispatch lost shards."""
        with self._lock:
            dead = [
                handle
                for handle in self._slots
                if not handle.process.is_alive()
            ]
            for handle in dead:
                self._m_deaths.inc()
                self.worker_deaths += 1
                handle.task_queue.close()
                handle.task_queue.cancel_join_thread()
                self._slots[handle.slot] = self._spawn(handle.slot)
            self._g_workers.set(self._alive_workers())
        for handle in dead:
            lost = [
                shard_id
                for shard_id, assignment in assignments.items()
                if assignment.slot == handle.slot
                and assignment.generation == handle.generation
            ]
            for shard_id in lost:
                assignment = assignments.pop(shard_id)
                self._finish_shard_span(
                    assignment,
                    status="error",
                    outcome="worker_died",
                    exitcode=handle.process.exitcode,
                )
                self._retry_shard(
                    shard_id,
                    assignment,
                    cause=f"worker {handle.slot} died "
                    f"(exitcode {handle.process.exitcode})",
                    pending=pending,
                    assignments=assignments,
                    result=result,
                    scope=scope,
                    segment_span=segment_span,
                )

    def _finish_shard_span(
        self,
        assignment: Optional[_Assignment],
        status: str,
        outcome: str,
        **attributes: Any,
    ) -> None:
        if (
            assignment is None
            or assignment.span is None
            or self.tracer is None
        ):
            return
        assignment.span.set_attributes(outcome=outcome, **attributes)
        self.tracer.finish(
            assignment.span,
            status=status,
            error=attributes.get("error"),
        )
        assignment.span = None

    def _drain_stale_results(self) -> None:
        """Discard results left over from abandoned or failed runs."""
        while True:
            try:
                self._result_queue.get_nowait()
            except Empty:
                return

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Counters for `repro cluster-stats` and the serving stats view."""
        with self._lock:
            alive = self._alive_workers()
            configured = self.config.n_workers
        payload = {
            "workers": {"configured": configured, "alive": alive},
            "shards": {
                "per_segment": self.config.effective_shards(),
                "completed": self.shards_completed,
                "reused": self.shards_reused,
                "retried": self.shards_retried,
            },
            "segments": self.segments_run,
            "worker_deaths": self.worker_deaths,
            "tenant": self.tenant.as_dict(),
        }
        return payload

    def close(self) -> None:
        """Stop every worker (graceful sentinel, then terminate)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            slots, self._slots = self._slots, []
        for handle in slots:
            try:
                handle.task_queue.put(None)
            except (ValueError, OSError):  # queue already closed
                pass
        deadline_at = time.monotonic() + SHUTDOWN_GRACE_S
        for handle in slots:
            handle.process.join(timeout=max(0.1, deadline_at - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            handle.task_queue.close()
            handle.task_queue.cancel_join_thread()
        if self._result_queue is not None:
            self._result_queue.close()
            self._result_queue.cancel_join_thread()
            self._result_queue = None
        self._g_workers.set(0)

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
