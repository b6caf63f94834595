"""The synthetic corpus the cluster tests and the perf harness scatter.

This module is the generator and nothing else. Cluster speed is
measured by ``benchmarks/perf`` (``cluster_scatter``:
``cluster.speedup_vs_local_x``, ``cluster.efficiency``), which imports
:func:`generate_bench_corpus` from this path.
"""

from __future__ import annotations

from typing import List

from ..docmodel.document import Document

_CAUSES = (
    "wind gusts tore through the approach path",
    "engine failure on climb-out",
    "fuel exhaustion over the ridge",
    "bird strike shattered the windscreen",
    "icing built up on both wings",
)


def generate_bench_corpus(n_docs: int, seed: int = 0) -> List[Document]:
    """A deterministic synthetic corpus of plain single-element documents.

    Ids and text are derived only from the index and seed, so every run
    and every process builds the same bytes.
    """
    documents: List[Document] = []
    for i in range(n_docs):
        cause = _CAUSES[i % len(_CAUSES)]
        doc = Document.from_text(
            f"Incident report {seed}-{i:06d}: the aircraft was lost after "
            f"{cause}. Field teams recovered the wreckage in sector {i % 97}.",
            properties={
                "entity": f"incident {i:06d}",
                "sector": i % 97,
            },
        )
        doc.doc_id = f"bench-{seed}-{i:06d}"
        documents.append(doc)
    return documents
