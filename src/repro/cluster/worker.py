"""The worker process: a private single-process engine per shard.

Each cluster worker is a full, isolated copy of the in-process stack —
its own :class:`~repro.llm.simulated.SimulatedLLM` (same seed as the
parent, so completions are placement-independent), its own
:class:`~repro.llm.client.ReliableLLM` reliability layer and executor.
Nothing is shared with the coordinator but the task/result queues; this
is the paper's shared-nothing Ray-worker shape scaled down to
``multiprocessing``. A hosted model call is network-bound, so a worker
keeps :data:`CALLS_IN_FLIGHT` of its shard's calls in flight on executor
threads, each straight to the worker's ``ReliableLLM``; the executor
emits records in input order, so the overlap cannot reorder the output.

Byte-identity with local execution is structural, not tested-in:
:func:`run_spec_locally` is the *only* implementation of a shard plan,
used both by workers and by the single-process baseline, and it lowers
each operator through :data:`repro.luna.lowering.LOWERING`, the table
Luna's executor runs in-process.

The main loop is deliberately boring: bounded queue waits (so shutdown
and the lint rule's timeout discipline both hold), a ``None`` sentinel
to exit, and one :class:`~repro.cluster.envelope.ShardResult` per
envelope — including typed ``deadline`` results when the parent's
serialized budget runs out mid-shard.
"""

from __future__ import annotations

import os
import time
from queue import Empty
from typing import Any, Dict, List, Optional, Tuple

from ..docmodel.document import Document
from ..execution.executor import ExecutionStats
from ..lifecycle.deadline import (
    CancelScope,
    Deadline,
    DeadlineExceeded,
    attach_scope,
)
from ..llm.cost import CostTracker
from ..llm.simulated import SimulatedLLM
from ..luna.lowering import Scope, lower
from ..sycamore.context import SycamoreContext
from .envelope import ShardPlanSpec, ShardResult, TaskEnvelope, WorkerConfig

#: How long a worker blocks on its task queue per wait. Bounded so a
#: worker whose coordinator died (queue never drained, sentinel never
#: sent) still reaches its shutdown checks instead of hanging forever.
TASK_POLL_S = 0.2

#: LLM calls a worker keeps in flight: the executor parallelism of every
#: shard it runs. Past sixteen ``cluster_scatter`` gains nothing: its two
#: workers and the coordinator then compete for 2 vCPUs (DESIGN.md §13
#: has the sweep).
CALLS_IN_FLIGHT = 16


def run_spec_locally(
    context: SycamoreContext,
    documents: List[Document],
    spec: ShardPlanSpec,
) -> Tuple[List[Document], ExecutionStats]:
    """Run a shard spec over documents in the calling process.

    This one function is both the worker's shard body and the
    single-process baseline — shared code, so sharded output can only
    differ from local output through partitioning or merging bugs, both
    of which the cluster tests pin down directly. The spec's operators
    chain into one DocSet through the lowering table Luna's executor
    uses, so a shard runs them fused, record by record, under the spec's
    ``error_policy``.
    """
    scope = Scope(context)
    docset = context.read.documents(documents)
    for shard_op in spec.ops:
        params = shard_op.param_dict()
        params["model"] = params.get("model") or spec.default_model
        docset = lower(shard_op.operation, params, scope, [docset])
    return docset.execute(on_error=spec.error_policy)


def _occurrence_groups(
    documents: List[Document], positions: List[int]
) -> List[Tuple[List[Document], List[int]]]:
    """Split a shard so no ``doc_id`` repeats within a group.

    An operator's output carries its input's ``doc_id``, which is how
    outputs find their positions again; a join can emit one id several
    times. The k-th occurrence of each id goes to group k, so within a
    group the id is a key. With unique ids this is one group.
    """
    groups: List[Tuple[List[Document], List[int]]] = []
    seen: Dict[str, int] = {}
    for document, position in zip(documents, positions):
        occurrence = seen.get(document.doc_id, 0)
        seen[document.doc_id] = occurrence + 1
        if occurrence == len(groups):
            groups.append(([], []))
        groups[occurrence][0].append(document)
        groups[occurrence][1].append(position)
    return groups


def build_worker_context(config: WorkerConfig) -> SycamoreContext:
    """The worker's private stack, rebuilt from plain config values."""
    tracker = CostTracker()
    backend = SimulatedLLM(
        seed=config.seed,
        tracker=tracker,
        real_latency_scale=config.real_latency_scale,
    )
    context = SycamoreContext(
        llm=backend,
        parallelism=CALLS_IN_FLIGHT,
        default_model=config.default_model,
        seed=config.seed,
    )
    # The context builds its own (empty) tracker before wrapping the
    # backend; point it at the backend's ledger so shard stats are real.
    context.cost_tracker = tracker
    return context


def execute_envelope(
    context: SycamoreContext, envelope: TaskEnvelope, worker_id: int
) -> ShardResult:
    """Run one shard envelope to a ShardResult (never raises)."""
    if envelope.poison == "die":
        # Chaos hook: simulate a worker crash with the shard in flight.
        os._exit(137)

    started = time.monotonic()
    before = context.cost_tracker.summary()
    result = ShardResult(
        shard_id=envelope.shard_id,
        attempt=envelope.attempt,
        worker_id=worker_id,
        status="ok",
        run_token=envelope.run_token,
    )
    try:
        scope: Optional[CancelScope] = None
        if envelope.budget_s is not None:
            if envelope.budget_s <= 0:
                raise DeadlineExceeded(
                    "no budget left at dispatch", budget_s=float(envelope.budget_s)
                )
            scope = CancelScope(
                deadline=Deadline(envelope.budget_s), query_id=envelope.query_id
            )
        with attach_scope(scope):
            for documents, positions in _occurrence_groups(
                envelope.documents, envelope.positions
            ):
                outputs, stats = run_spec_locally(context, documents, envelope.spec)
                position_of = {
                    document.doc_id: position
                    for document, position in zip(documents, positions)
                }
                result.documents.extend(outputs)
                result.positions.extend(
                    position_of[document.doc_id] for document in outputs
                )
                result.dead_lettered += stats.total_dead_lettered()
                result.skipped += stats.total_skipped()
    except DeadlineExceeded as exc:
        result.status = "deadline"
        result.budget_s = exc.budget_s
        result.elapsed_s = exc.elapsed_s
        result.error = str(exc)
    except Exception as exc:  # noqa: BLE001 - workers must report, not die
        result.status = "error"
        result.error = f"{type(exc).__name__}: {exc}"
    if result.status != "ok":  # drop the groups that did finish
        result.documents, result.positions = [], []

    after = context.cost_tracker.summary()
    result.wall_s = time.monotonic() - started
    result.llm_calls = after.calls - before.calls
    result.cost_usd = after.cost_usd - before.cost_usd
    return result


def worker_main(
    worker_id: int,
    config: WorkerConfig,
    task_queue: Any,
    result_queue: Any,
) -> None:
    """Entry point of a cluster worker process.

    Module-level (not a closure) so it pickles under the ``spawn`` start
    method. The context is built lazily on the first envelope, so a
    worker that is spawned and immediately shut down costs nothing.
    """
    context: Optional[SycamoreContext] = None
    try:
        while True:
            try:
                envelope = task_queue.get(timeout=TASK_POLL_S)
            except Empty:
                continue
            if envelope is None:
                break
            if context is None:
                context = build_worker_context(config)
            result_queue.put(execute_envelope(context, envelope, worker_id))
    finally:
        if context is not None:
            context.close()
