"""Materialization caches for plan execution.

"To assist with debugging and avoid redundant execution, Sycamore also
supports a flexible *materialize* operation that can save the output of
intermediate transformations to memory or disk" (§5.3). A cache object is
attached to a ``materialize`` plan node; the first execution writes
through it, later executions read from it and skip the upstream pipeline
entirely.

A disk cache outlives the process that wrote it, so "available" is not
the same as "still correct": the upstream pipeline may have changed
since the file was written. :class:`DiskCache` therefore accepts a
*fingerprint* of the producing computation — :func:`plan_fingerprint`
derives one from a dataflow plan's structure — writes it to a sidecar
file alongside the data, and treats a mismatch as a cache miss. The
serving layer's caches key on the same :func:`stable_fingerprint`
helper (see :mod:`repro.serving.cache`).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any, Iterable, List, Optional

from ..docmodel.document import Document

#: Auto-generated plan-node names end in a process-local counter
#: (``map_17``); strip it so structurally identical pipelines built in
#: different processes (or twice in one) fingerprint identically.
_AUTO_NAME_SUFFIX = re.compile(r"_\d+$")


def stable_fingerprint(parts: Iterable[Any]) -> str:
    """A deterministic hex digest over a sequence of JSON-able parts.

    The shared fingerprint primitive for every cache in the system:
    materialization sidecars, the serving layer's plan/result cache keys.
    Parts are serialized with sorted keys so dict ordering never leaks
    into the digest; non-JSON values fall back to ``str()``.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(json.dumps(part, sort_keys=True, default=str).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()[:16]


def stable_seed(*parts: Any) -> int:
    """A deterministic non-negative RNG seed from JSON-able parts.

    Builtin ``hash()`` on strings is salted per process
    (PYTHONHASHSEED), so seeding ``random.Random(hash(some_id))``
    yields different sequences run to run; anything that derives
    randomness from an *identifier* must go through here instead (the
    same discipline as :func:`~repro.cluster.sharding.shard_for` for
    placement).
    """
    return int(stable_fingerprint(parts), 16) & 0x7FFFFFFF


def plan_fingerprint(plan: Any) -> str:
    """Structural fingerprint of a dataflow plan's lineage chain.

    Accepts a :class:`~repro.execution.plan.Plan` or a ``PlanNode`` and
    folds each upstream node's kind, normalized name and failure policy
    into one digest. Two pipelines with the same operator chain agree;
    inserting, removing, renaming or re-policying a stage changes it.
    """
    node = getattr(plan, "node", plan)
    parts = [
        {
            "kind": n.kind,
            "name": _AUTO_NAME_SUFFIX.sub("", n.name),
            "on_error": n.on_error,
            "retries": n.retries,
        }
        for n in node.lineage_chain()
    ]
    return stable_fingerprint(parts)


class MemoryCache:
    """Holds materialized records in process memory."""

    def __init__(self) -> None:
        self._records: Optional[List[Any]] = None

    def is_valid(self) -> bool:
        """True when cached contents are available."""
        return self._records is not None

    def write(self, records: List[Any]) -> None:
        """Store the given records."""
        self._records = list(records)

    def read(self) -> List[Any]:
        """Return the cached records."""
        if self._records is None:
            raise RuntimeError("reading from an unfilled MemoryCache")
        return list(self._records)

    def invalidate(self) -> None:
        """Discard cached contents so the next run recomputes."""
        self._records = None


class DiskCache:
    """Persists materialized records to a JSONL file: documents through
    the Document codec, any other record as a JSON value.

    ``fingerprint`` identifies the computation that produces the records
    (usually :func:`plan_fingerprint` of the upstream plan). When set,
    :meth:`write` records it in a ``<path>.fp`` sidecar and
    :meth:`is_valid` requires the sidecar to match — so a materialization
    written by a *different* upstream pipeline is recomputed instead of
    silently served stale.
    """

    def __init__(
        self,
        path: Path,
        fingerprint: Optional[str] = None,
    ):
        self.path = Path(path)
        self.fingerprint = fingerprint

    @property
    def fingerprint_path(self) -> Path:
        """The sidecar file recording the producing plan's fingerprint."""
        return self.path.with_suffix(self.path.suffix + ".fp")

    def is_valid(self) -> bool:
        """True when cached contents exist *and* match our fingerprint.

        Without a fingerprint this degrades to the historical existence
        check. With one, a missing or mismatched sidecar (file written by
        older code, or by a different pipeline) invalidates the cache.
        """
        if not self.path.exists():
            return False
        if self.fingerprint is None:
            return True
        try:
            return self.fingerprint_path.read_text(encoding="utf-8").strip() == (
                self.fingerprint
            )
        except OSError:
            return False

    def write(self, records: List[Any]) -> None:
        """Store the given records (and the fingerprint sidecar)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(_encode(record))
                handle.write("\n")
        tmp.replace(self.path)  # atomic publish: readers never see partial files
        if self.fingerprint is not None:
            fp_tmp = self.fingerprint_path.with_suffix(".fp.tmp")
            fp_tmp.write_text(self.fingerprint + "\n", encoding="utf-8")
            fp_tmp.replace(self.fingerprint_path)

    def read(self) -> List[Any]:
        """Return the cached records."""
        if not self.path.exists():
            raise RuntimeError(f"reading from missing cache file {self.path}")
        records = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(_decode(line))
        return records

    def invalidate(self) -> None:
        """Discard cached contents so the next run recomputes."""
        if self.path.exists():
            self.path.unlink()
        if self.fingerprint_path.exists():
            self.fingerprint_path.unlink()


def _encode(record: Any) -> str:
    if isinstance(record, Document):
        return json.dumps({"__document__": record.to_dict()})
    return json.dumps({"__value__": record})


def _decode(line: str) -> Any:
    data = json.loads(line)
    if "__document__" in data:
        return Document.from_dict(data["__document__"])
    return data["__value__"]
