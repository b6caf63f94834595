"""The Sycamore context: shared services and DocSet readers.

A :class:`SycamoreContext` bundles everything transforms need — the LLM
client, embedder, index catalog, executor configuration and lineage
tracker — and exposes ``context.read.*`` entry points mirroring the
paper's programming model (Figure 3 starts with ``ctx.read.binary``;
Luna's generated code starts with ``context.read.opensearch``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from ..docmodel.document import Document
from ..docmodel.raw import RawDocument
from ..embedding.embedder import Embedder, HashingEmbedder
from ..execution.executor import Executor
from ..execution.lineage import Lineage
from ..indexes.catalog import IndexCatalog
from ..indexes.docstore import DocStore
from ..llm.base import LLMClient
from ..llm.client import ReliableLLM
from ..llm.cost import CostTracker
from ..llm.simulated import SimulatedLLM
from ..observability.metrics import MetricsRegistry, get_registry
from ..observability.tracing import Tracer

if TYPE_CHECKING:
    from .docset import DocSet


class SycamoreContext:
    """Shared state for a Sycamore session.

    Parameters default to a fully self-contained stack: a simulated LLM
    wrapped in the reliability layer, a hashing embedder, a fresh index
    catalog, and single-threaded execution. ``default_model`` is what
    LLM-powered transforms use when not told otherwise. Every call site
    uses the one reliability-wrapped client, ``context.llm``.

    Each context owns a :class:`~repro.observability.Tracer` (``tracer``
    injects one) so query traces from concurrent contexts stay separate;
    metrics go to the shared process :class:`MetricsRegistry` unless
    ``registry`` overrides it. The tracer is threaded into the LLM
    reliability layer and every executor the context creates.
    """

    #: Always None. Kept only because the perf harness reads
    #: ``local.scheduler`` on a worker context
    #: (``benchmarks/perf/workloads.py:673`` and ``layers.py:383``).
    scheduler = None

    def __init__(
        self,
        llm: Optional[LLMClient] = None,
        embedder: Optional[Embedder] = None,
        parallelism: int = 1,
        default_model: str = "sim-large",
        seed: int = 0,
        on_error: str = "fail",
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.cost_tracker = CostTracker()
        self.tracer = tracer if tracer is not None else Tracer()
        self.registry = registry if registry is not None else get_registry()
        if llm is None:
            llm = ReliableLLM(
                SimulatedLLM(seed=seed, tracker=self.cost_tracker),
                tracer=self.tracer,
                registry=self.registry,
            )
        elif not isinstance(llm, ReliableLLM):
            llm = ReliableLLM(llm, tracer=self.tracer, registry=self.registry)
        else:
            if llm.tracer is None:
                llm.tracer = self.tracer
        self.llm: ReliableLLM = llm
        self.embedder: Embedder = embedder or HashingEmbedder(seed=seed)
        self.catalog = IndexCatalog(embedder=self.embedder)
        self.lineage = Lineage()
        self.parallelism = parallelism
        self.default_model = default_model
        self.on_error = on_error
        #: Optional :class:`repro.cluster.ClusterCoordinator`. When set,
        #: engines may scatter large per-record LLM operators across
        #: worker processes (Luna routes LlmFilter/LlmExtract through it
        #: past ``min_cluster_docs``). Injected: the creator owns its
        #: lifecycle, ``close()`` leaves it running.
        self.cluster = None
        #: ExecutionStats of the most recent DocSet terminal run through
        #: this context (dead letters, skips — see repro.execution).
        self.last_stats = None
        self.read = _Readers(self)

    def close(self) -> None:
        """Release background resources the context owns.

        The reliability-wrapped LLM lazily builds a batch thread pool
        (``complete_many``); a context that is dropped without closing
        it leaks those non-daemon workers. The cluster, when present, is
        *not* closed here: it is injected, so its creator owns its
        lifecycle.
        """
        self.llm.close()

    def __enter__(self) -> "SycamoreContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def executor(self, on_error: Optional[str] = None) -> Executor:
        """A fresh executor honouring this context's configuration.

        ``on_error`` overrides the context's default failure-containment
        policy for this one execution (e.g. Luna's graceful-degradation
        mode runs DocSet plans with ``dead_letter``).
        """
        return Executor(
            parallelism=self.parallelism,
            lineage=self.lineage,
            on_error=on_error or self.on_error,
            tracer=self.tracer,
            registry=self.registry,
        )


class _Readers:
    """The ``context.read`` namespace."""

    def __init__(self, context: SycamoreContext):
        self._context = context

    def documents(self, documents: Sequence[Document]) -> "DocSet":
        """DocSet over already-built documents."""
        from .docset import DocSet

        return DocSet.from_documents(self._context, documents)

    def raw(self, raw_documents: Sequence[RawDocument]) -> "DocSet":
        """DocSet over raw documents, as single-node binary documents.

        This is the just-read-a-PDF state of §5.1: each document is one
        node whose content is the raw binary, awaiting ``partition``. The
        raw documents are held as given (and must not be mutated while
        the DocSet is in use); their bytes are encoded only on demand.
        """
        from .docset import DocSet

        documents = [Document.from_raw(raw) for raw in raw_documents]
        return DocSet.from_documents(self._context, documents)

    def docstore(self, store: DocStore) -> "DocSet":
        """DocSet over the documents of a DocStore."""
        from .docset import DocSet

        return DocSet.from_documents(self._context, list(store.scan()))

    def index(self, name: str, query: Optional[str] = None, k: Optional[int] = None) -> "DocSet":
        """Read from a catalog index: full scan, or top-k retrieval.

        Mirrors ``context.read.opensearch(index_name=...)`` in the
        paper's generated code (§6.2).
        """
        from .docset import DocSet

        index = self._context.catalog.get(name)
        if query is None:
            documents = index.all_documents()
        else:
            documents = index.search_hybrid(query, k=k or 10)
        return DocSet.from_documents(self._context, documents)

    def lake(self, lake: "Path | object") -> "DocSet":
        """Lazily read raw documents from a data lake directory (Fig. 1).

        Accepts a :class:`repro.indexes.lake.DataLake` or a path to one.
        Documents stream from disk during execution — the corpus is never
        fully resident before partitioning.
        """
        from ..indexes.lake import DataLake
        from ..execution.plan import Plan
        from .docset import DocSet

        if not isinstance(lake, DataLake):
            lake = DataLake(Path(lake))

        def read_lake():
            for doc_id in lake.doc_ids():
                yield Document(doc_id=doc_id, binary=lake.read_bytes(doc_id))

        return DocSet(self._context, Plan.source(read_lake, name="read_lake"))

    def jsonl(self, path: Path) -> "DocSet":
        """DocSet over documents stored as JSON lines."""
        from .docset import DocSet

        documents: List[Document] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    documents.append(Document.from_json(line))
        return DocSet.from_documents(self._context, documents)
