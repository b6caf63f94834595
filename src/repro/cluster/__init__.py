"""repro.cluster — sharded multi-process DocSet execution.

The shared-nothing scale-out layer (stands in for the paper's
Ray-over-OpenSearch-shards deployment): deterministic stable-hash
partitioning (:mod:`.sharding`), picklable task envelopes
(:mod:`.envelope`), per-process worker stacks (:mod:`.worker`), the
scatter/gather control plane (:mod:`.coordinator`), and bounded-memory
spill-to-disk collections (:mod:`.spill`). Shard-aware index fan-out
lives with the indexes (:mod:`repro.indexes.sharded`) but shares this
layer's placement function.
"""

from .envelope import (
    SHARDABLE_OPERATIONS,
    NonPicklableTaskError,
    ShardOp,
    ShardPlanSpec,
    ShardResult,
    TaskEnvelope,
    WorkerConfig,
    ensure_picklable_spec,
)
from .sharding import (
    Shard,
    merge_shard_outputs,
    partition_documents,
    partition_fingerprint,
    shard_for,
)
from .spill import SpillableDocSet
from .worker import build_worker_context, run_spec_locally
from .coordinator import (
    ClusterConfig,
    ClusterCoordinator,
    ClusterError,
    ClusterRunResult,
)

__all__ = [
    "SHARDABLE_OPERATIONS",
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterError",
    "ClusterRunResult",
    "NonPicklableTaskError",
    "Shard",
    "ShardOp",
    "ShardPlanSpec",
    "ShardResult",
    "SpillableDocSet",
    "TaskEnvelope",
    "WorkerConfig",
    "build_worker_context",
    "ensure_picklable_spec",
    "merge_shard_outputs",
    "partition_documents",
    "partition_fingerprint",
    "run_spec_locally",
    "shard_for",
]
