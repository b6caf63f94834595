"""repro — a from-scratch reproduction of the Aryn LLM-powered
unstructured analytics system (Anderson et al., CIDR 2025).

Layered like the paper's architecture (Figure 1):

* :mod:`repro.docmodel` — hierarchical multi-modal documents (§5.1).
* :mod:`repro.partitioner` — the Aryn Partitioner (§4).
* :mod:`repro.sycamore` — the DocSet processing engine (§5).
* :mod:`repro.luna` — natural-language query planning & execution (§6).
* :mod:`repro.llm`, :mod:`repro.embedding`, :mod:`repro.indexes`,
  :mod:`repro.execution` — the substrates (LLM runtime, embeddings,
  keyword/vector/graph stores, Ray-like dataflow execution).
* :mod:`repro.observability` — query tracing, the process metrics
  registry, and per-query cost accounting (see docs/ARCHITECTURE.md).
* :mod:`repro.serving` — the concurrent query-serving layer: admission
  control, tenants/sessions, single-flight plan/result caching.
* :mod:`repro.cluster` — sharded multi-process execution: deterministic
  stable-hash partitioning, scatter/gather coordination with
  re-dispatch of shards whose worker died, journal checkpoints, and
  spill-to-disk document sets.
* :mod:`repro.rag` — the retrieval-augmented-generation baseline.
* :mod:`repro.datagen`, :mod:`repro.evaluation` — synthetic corpora and
  the benchmark harnesses.

Quickstart::

    from repro import Luna, SycamoreContext, ArynPartitioner
    from repro.datagen import generate_ntsb_corpus

    records, raw_docs = generate_ntsb_corpus(100, seed=0)
    ctx = SycamoreContext(parallelism=4)
    (ctx.read.raw(raw_docs)
        .partition(ArynPartitioner())
        .extract_properties({"state": "string", "weather_related": "bool"})
        .write.index("ntsb"))
    luna = Luna(ctx)
    result = luna.query(
        "What percent of environmentally caused incidents were due to wind?",
        index="ntsb",
    )
"""

from .docmodel import Document, Element, Table
from .lifecycle import (
    CancelScope,
    Deadline,
    DeadlineExceeded,
    QueryCancelled,
    QueryJournal,
)
from .luna import Luna, LunaResult
from .observability import (
    CostAccount,
    MetricsRegistry,
    Span,
    Tracer,
    get_registry,
    render_trace_tree,
    write_trace_json,
)
from .partitioner import ArynPartitioner, NaiveTextPartitioner
from .rag import RagPipeline
from .serving import QueryService, ServiceConfig
from .sycamore import DocSet, SycamoreContext

# Imported last: the cluster layer sits atop luna and serving, and the
# sharded index fan-out sits atop the cluster's placement function.
from .cluster import (
    ClusterConfig,
    ClusterCoordinator,
    ClusterError,
    SpillableDocSet,
)
from .indexes.sharded import ShardedKeywordIndex, ShardedVectorIndex

__version__ = "0.1.0"

__all__ = [
    "ArynPartitioner",
    "CancelScope",
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterError",
    "CostAccount",
    "Deadline",
    "DeadlineExceeded",
    "DocSet",
    "Document",
    "Element",
    "Luna",
    "LunaResult",
    "MetricsRegistry",
    "NaiveTextPartitioner",
    "QueryCancelled",
    "QueryJournal",
    "QueryService",
    "RagPipeline",
    "ServiceConfig",
    "ShardedKeywordIndex",
    "ShardedVectorIndex",
    "Span",
    "SpillableDocSet",
    "SycamoreContext",
    "Table",
    "Tracer",
    "get_registry",
    "render_trace_tree",
    "write_trace_json",
    "__version__",
]
