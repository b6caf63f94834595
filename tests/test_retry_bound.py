"""How many backend asks one failure can cost.

Each failure class has one owner (DESIGN.md §7, "Failure ownership"):
``ReliableLLM.complete`` retries transport errors, ``complete_json``
re-asks malformed output, the planner re-plans an invalid plan, and the
cluster re-dispatches a dead worker's shard. Nothing else retries, so one
record costs one layer's attempts, at any parallelism, in-process or on a
worker. The backends here always fail, which makes every count exact.
"""

import threading

import pytest

from repro.cluster import ClusterConfig, ClusterCoordinator, ClusterError
from repro.cluster.envelope import ShardOp, ShardPlanSpec, WorkerConfig
from repro.cluster.worker import build_worker_context, run_spec_locally
from repro.docmodel import Document
from repro.embedding import HashingEmbedder
from repro.execution import TaskError
from repro.indexes import NamedIndex
from repro.llm import LLMResponse, RateLimitError, ReliableLLM, TransientLLMError, Usage
from repro.llm.base import LLMClient
from repro.luna.operators import PlanValidationError
from repro.luna.planner import LunaPlanner
from repro.observability import MetricsRegistry, Tracer
from repro.sycamore import SycamoreContext

#: Backend asks one call may cost: transport retries at the client's
#: defaults, and malformed-output re-asks in ``complete_json``.
TRANSPORT_ASKS = 5
MALFORMED_ASKS = 3

N_RECORDS = 6


class AlwaysRateLimited(LLMClient):
    """Answers every ask with a 429; counts asks across threads."""

    def __init__(self):
        self.asks = 0
        self._lock = threading.Lock()

    def _ask(self):
        with self._lock:
            self.asks += 1

    def complete(self, prompt, model="sim-large", max_output_tokens=None, temperature=0.0):
        self._ask()
        raise RateLimitError(retry_after_s=0.0)


class AlwaysMalformed(AlwaysRateLimited):
    """Answers every ask with text no JSON repair can parse."""

    def complete(self, prompt, model="sim-large", max_output_tokens=None, temperature=0.0):
        self._ask()
        return LLMResponse(text="no json here", model=model, usage=Usage(1, 1, 1))


BACKENDS = [(AlwaysRateLimited, TRANSPORT_ASKS), (AlwaysMalformed, MALFORMED_ASKS)]


def client(backend):
    return ReliableLLM(backend, sleeper=lambda s: None)


def records():
    return [Document.from_text(f"Report {i}: the engine failed over Ohio.") for i in range(N_RECORDS)]


@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("backend_cls, asks", BACKENDS)
def test_an_extract_asks_one_layers_attempts_per_record(backend_cls, asks, parallelism):
    backend = backend_cls()
    with SycamoreContext(llm=client(backend), parallelism=parallelism) as ctx:
        out = (
            ctx.read.documents(records())
            .extract_properties({"cause": "string"}, on_error="dead_letter")
            .take_all()
        )
        assert out == []
        assert ctx.last_stats.total_dead_lettered() == N_RECORDS
    assert backend.asks == asks * N_RECORDS


@pytest.mark.parametrize(
    "backend_cls, asks, error",
    [
        (AlwaysRateLimited, TRANSPORT_ASKS, TransientLLMError),
        (AlwaysMalformed, MALFORMED_ASKS, PlanValidationError),
    ],
)
def test_the_planner_asks_one_layers_attempts(backend_cls, asks, error):
    backend = backend_cls()
    planner = LunaPlanner(client(backend))
    index = NamedIndex(name="ntsb", embedder=HashingEmbedder(), schema={"state": "string"})
    with pytest.raises(error):
        planner.plan("How many incidents were caused by wind?", index)
    assert backend.asks == asks


@pytest.mark.parametrize("backend_cls, asks", BACKENDS)
def test_a_worker_shard_asks_one_layers_attempts_per_record(backend_cls, asks):
    context = build_worker_context(WorkerConfig())
    backend = backend_cls()
    context.llm.backend = backend
    context.llm.backoff_base_s = 0.0
    ops = [ShardOp.make("LlmExtract", field="cause", type="string")]
    try:
        documents, stats = run_spec_locally(
            context, records(), ShardPlanSpec.from_ops(ops, error_policy="dead_letter")
        )
        assert documents == []
        assert stats.total_dead_lettered() == N_RECORDS
        assert backend.asks == asks * N_RECORDS
        # Under the spec's default ``fail`` policy the first failing record
        # ends the shard: one record's asks, no more.
        with pytest.raises(TaskError):
            run_spec_locally(context, records(), ShardPlanSpec.from_ops(ops))
        assert backend.asks == asks * (N_RECORDS + 1)
    finally:
        context.close()


def test_an_erroring_shard_is_dispatched_once():
    spec = ShardPlanSpec.from_ops(
        [ShardOp.make("LlmExtract", field="cause", type="string")],
        default_model="no-such-model",
    )
    tracer, registry = Tracer(), MetricsRegistry()
    config = ClusterConfig(n_workers=1, shards_per_worker=1)
    with ClusterCoordinator(config, tracer=tracer, registry=registry) as coordinator:
        with pytest.raises(ClusterError) as excinfo:
            coordinator.run_segment(records(), spec)
    assert excinfo.value.attempts == 1
    assert [span.name for span in tracer.spans()].count("cluster.shard") == 1
    assert registry.counter("cluster.shard_retries").value() == 0
