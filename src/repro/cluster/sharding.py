"""Deterministic shard assignment and order-stable gather.

The paper's production system scales DocSet execution across a Ray
cluster over OpenSearch shards; this layer's first obligation is that
*which shard owns a document* is a pure function of the document id —
never of process identity, worker count beyond the modulus, or Python's
randomized string hashing. Assignment therefore routes through
:func:`~repro.execution.materialize.stable_fingerprint` (the same
PYTHONHASHSEED-proof digest that stamps materialization sidecars,
journal fingerprints and serving-cache keys), so a resumed query, a
peer worker retrying a lost shard, and yesterday's run all agree on the
partition map.

The second obligation is that the *gather* side is order-stable: the
merged output must not depend on which worker finished first. Partition
records each document's original position and the merge reassembles by
position, so the scatter/gather round trip is byte-identical to running
the same operators in a single process — the invariant the sharding
benchmark gate asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from ..docmodel.document import Document
from ..execution.materialize import stable_fingerprint


def shard_for(doc_id: str, n_shards: int) -> int:
    """The shard owning ``doc_id`` — stable across processes and runs."""
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    return int(stable_fingerprint([doc_id]), 16) % n_shards


@dataclass
class Shard:
    """One shard of a partitioned document set."""

    shard_id: int
    documents: List[Document] = field(default_factory=list)
    #: Original position of each document in the pre-partition order —
    #: parallel to ``documents``; what the gather-side merge sorts by.
    positions: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.documents)


def partition_documents(
    documents: Sequence[Document], n_shards: int
) -> List[Shard]:
    """Split documents into ``n_shards`` shards by stable id hash.

    Every shard is returned (possibly empty) so shard ids are dense; the
    relative order of documents *within* a shard follows the input order.
    """
    shards = [Shard(shard_id=i) for i in range(n_shards)]
    for position, document in enumerate(documents):
        shard = shards[shard_for(document.doc_id, n_shards)]
        shard.documents.append(document)
        shard.positions.append(position)
    return shards


def merge_shard_outputs(
    outputs: Dict[int, Tuple[Sequence[Document], Sequence[int]]],
) -> List[Document]:
    """Reassemble shard outputs into the original document order.

    ``outputs`` maps shard id -> (documents, original positions), with
    the two sequences parallel. Filters may drop documents (the shard
    then reports fewer positions than it was scattered with); surviving
    documents interleave back into their original relative order. The
    result is a pure function of the outputs — worker completion order
    cannot perturb it.
    """
    merged: List[Tuple[int, Document]] = []
    for shard_id in sorted(outputs):
        documents, positions = outputs[shard_id]
        if len(documents) != len(positions):
            raise ValueError(
                f"shard {shard_id}: {len(documents)} documents but "
                f"{len(positions)} positions"
            )
        merged.extend(zip(positions, documents))
    merged.sort(key=lambda pair: pair[0])
    return [document for _, document in merged]


def partition_fingerprint(documents: Iterable[Document], n_shards: int) -> str:
    """Fingerprint of the partition map (for journal shard records)."""
    return stable_fingerprint(
        [n_shards] + [document.doc_id for document in documents]
    )
