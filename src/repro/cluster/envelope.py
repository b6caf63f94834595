"""Task envelopes: what crosses the process boundary, and nothing else.

A worker process receives a :class:`TaskEnvelope` — the shard's
documents, a *declarative* :class:`ShardPlanSpec` (operator names and
JSON-able params, mirroring Luna's logical-plan nodes) and the remaining
deadline budget — and sends back a :class:`ShardResult`. Nothing else is
shared: no closures, no locks, no live LLM clients. The worker rebuilds
its pipeline by lowering the spec through the operator table the
in-process engine runs (:data:`repro.luna.lowering.LOWERING`), which is
what makes sharded output byte-identical to local execution.

:func:`ensure_picklable_spec` enforces the boundary at submit time with
a typed error instead of a ``PicklingError`` deep inside a queue feeder
thread.
"""

from __future__ import annotations

import threading
import types
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..docmodel.document import Document
from ..execution.materialize import stable_fingerprint

#: Operations a shard plan may carry — the per-record subset of Luna's
#: operator algebra (each document's output depends only on that
#: document), which is exactly what makes them shardable. The planner
#: owns the canonical definition; re-exported here for the worker side.
from ..luna.operators import SHARDABLE_OPERATIONS


class NonPicklableTaskError(TypeError):
    """A task envelope captured something that cannot cross processes."""


@dataclass(frozen=True)
class ShardOp:
    """One declarative per-record operator (operation name + params)."""

    operation: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, operation: str, **params: Any) -> "ShardOp":
        """Build an op from keyword params (sorted for stable identity)."""
        return cls(operation=operation, params=tuple(sorted(params.items())))

    def param_dict(self) -> Dict[str, Any]:
        """The params as a plain dict."""
        return dict(self.params)


@dataclass(frozen=True)
class ShardPlanSpec:
    """A declarative sub-plan: the ops every shard runs over its slice."""

    ops: Tuple[ShardOp, ...]
    default_model: str = "sim-large"

    @classmethod
    def from_ops(cls, ops: "List[ShardOp] | Tuple[ShardOp, ...]", default_model: str = "sim-large") -> "ShardPlanSpec":
        spec = cls(ops=tuple(ops), default_model=default_model)
        spec.validate()
        return spec

    def validate(self) -> None:
        """Typed rejection of non-shardable or non-picklable specs."""
        if not self.ops:
            raise ValueError("a shard plan needs at least one operator")
        for op in self.ops:
            if op.operation not in SHARDABLE_OPERATIONS:
                raise ValueError(
                    f"operation {op.operation!r} is not shardable "
                    f"(shardable: {', '.join(SHARDABLE_OPERATIONS)})"
                )
        ensure_picklable_spec(self)

    def fingerprint(self) -> str:
        """Stable identity of this sub-plan (journal shard records key
        on it, so a resume never replays shards of a different plan)."""
        return stable_fingerprint(
            [
                self.default_model,
                [[op.operation, list(op.params)] for op in self.ops],
            ]
        )


#: Types that must never ride an envelope across the process boundary.
_UNPICKLABLE_TYPES: Tuple[type, ...] = (
    types.FunctionType,
    types.LambdaType,
    types.MethodType,
    types.GeneratorType,
    types.ModuleType,
    type(threading.Lock()),
    type(threading.RLock()),
    threading.Condition,
    threading.Event,
    threading.Semaphore,
    threading.Thread,
)


def ensure_picklable_spec(spec: "ShardPlanSpec") -> None:
    """Raise :class:`NonPicklableTaskError` when a spec captures state
    that cannot (or must not) cross the process boundary."""
    for op in spec.ops:
        for key, value in op.params:
            _check_value(f"{op.operation}.{key}", value)


def _is_lock_like(value: Any) -> bool:
    """Duck-typed lock check: ``multiprocessing.Lock``/``RLock``/
    ``Semaphore`` are not instances of any type in the tuple above, so
    only this check rejects them. Anything exposing both ``acquire``
    and ``release`` callables is a synchronization primitive and must
    not cross the process boundary in a plan parameter."""
    return callable(getattr(value, "acquire", None)) and callable(
        getattr(value, "release", None)
    )


def _check_value(path: str, value: Any) -> None:
    if isinstance(value, _UNPICKLABLE_TYPES) or _is_lock_like(value):
        raise NonPicklableTaskError(
            f"shard plan param {path} captures {type(value).__name__}; "
            f"task envelopes must carry declarative JSON-able values only"
        )
    if isinstance(value, dict):
        for key, item in value.items():
            _check_value(f"{path}.{key}", item)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for index, item in enumerate(value):
            _check_value(f"{path}[{index}]", item)


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to rebuild its private stack.

    A plain-value dataclass: it crosses the process boundary at worker
    start, so it carries seeds and knobs, never live objects. The LLM
    seed equals the parent's — the simulated backend is deterministic
    per (model, prompt, seed), so shard placement cannot change
    completions.
    """

    seed: int = 0
    default_model: str = "sim-large"
    #: Fraction of virtual LLM latency really slept (see SimulatedLLM).
    real_latency_scale: float = 0.0


@dataclass
class TaskEnvelope:
    """One shard's work order, serialized into a worker task queue."""

    query_id: str
    shard_id: int
    attempt: int
    spec: ShardPlanSpec
    documents: List[Document]
    #: Original positions of ``documents`` (parallel), for the merge.
    positions: List[int]
    #: Remaining end-to-end budget at dispatch (None: unbounded). The
    #: worker rebuilds a Deadline from it, so the parent's lifecycle
    #: discipline crosses the process boundary.
    budget_s: Optional[float] = None
    #: Chaos hook: "die" makes the worker exit hard mid-shard, proving
    #: worker-death detection and shard retry on a peer.
    poison: Optional[str] = None
    #: Opaque coordinator run token, echoed back on the ShardResult so a
    #: gather loop can discard stale results from an abandoned run.
    run_token: str = ""


@dataclass
class ShardResult:
    """What a worker sends back for one envelope."""

    shard_id: int
    attempt: int
    worker_id: int
    #: "ok" | "deadline" | "error"
    status: str
    documents: List[Document] = field(default_factory=list)
    positions: List[int] = field(default_factory=list)
    error: str = ""
    #: Deadline context when status == "deadline".
    budget_s: float = 0.0
    elapsed_s: float = 0.0
    #: Worker-side execution stats, folded into coordinator metrics and
    #: the per-shard span (worker spans cannot join the parent tracer).
    wall_s: float = 0.0
    llm_calls: int = 0
    cost_usd: float = 0.0
    dead_lettered: int = 0
    skipped: int = 0
    #: Echo of the envelope's run token (stale-result guard).
    run_token: str = ""
