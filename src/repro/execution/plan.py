"""Logical dataflow plans.

Sycamore "adopts a Spark-like execution model where operations are
pipelined and executed lazily when materialization is required" (§5.3).
A :class:`Plan` is an immutable DAG of operator nodes over a stream of
records; nothing runs until an :class:`~repro.execution.executor.Executor`
pulls from it. Per-record operators (map/filter/flat_map) pipeline and
parallelize; blocking operators (aggregate) drain their input first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence

_counter = itertools.count()

#: Per-record failure-containment policies. A task runs once; on failure
#: ``fail`` aborts the execution with a ``TaskError``, ``skip`` silently
#: drops the record, and ``dead_letter`` captures (record, node, cause) in
#: the run's dead-letter queue and drops the record from the output.
ON_ERROR_POLICIES = ("fail", "skip", "dead_letter")


def check_on_error(policy: str) -> None:
    """Reject an unknown failure-containment policy."""
    if policy not in ON_ERROR_POLICIES:
        raise ValueError(
            f"unknown error policy {policy!r}; known: {ON_ERROR_POLICIES}"
        )


def _auto_name(kind: str) -> str:
    return f"{kind}_{next(_counter)}"


@dataclass(frozen=True)
class PlanNode:
    """One operator in the logical DAG.

    ``kind`` is one of: ``source`` (items_fn yields records), ``map``,
    ``filter``, ``flat_map`` (fn applies per record), ``aggregate``
    (fn maps the full record list to a new record list — a pipeline
    barrier), and ``materialize`` (cache boundary; ``cache`` is a
    MemoryCache/DiskCache from :mod:`repro.execution.materialize`).
    """

    kind: str
    name: str
    fn: Optional[Callable[..., Any]] = None
    items_fn: Optional[Callable[[], Iterable[Any]]] = None
    parent: Optional["PlanNode"] = None
    cache: Any = None
    #: Failure-containment policy for per-record failures (one of
    #: :data:`ON_ERROR_POLICIES`). ``None`` defers to the executor's
    #: default (see Executor.on_error).
    on_error: Optional[str] = None
    #: A ``filter`` whose predicate is pure in-memory work that cannot
    #: fail (a property comparison): the executor applies it in the
    #: pulling thread, with no span, containment policy or pool task.
    inline: bool = False

    def __post_init__(self) -> None:
        if self.on_error is not None:
            check_on_error(self.on_error)

    def lineage_chain(self) -> List["PlanNode"]:
        """Nodes from source to this node, in execution order."""
        chain: List[PlanNode] = []
        node: Optional[PlanNode] = self
        while node is not None:
            chain.append(node)
            node = node.parent
        chain.reverse()
        return chain


class Plan:
    """Builder handle over a :class:`PlanNode` DAG. Immutable and shareable:
    every transformation returns a new Plan, so a base plan can fan out to
    several downstream plans (as Luna's percentage queries do).
    """

    def __init__(self, node: PlanNode):
        self.node = node

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------

    @classmethod
    def source(cls, items_fn: Callable[[], Iterable[Any]], name: Optional[str] = None) -> "Plan":
        """Lazy source: ``items_fn`` is called once per execution."""
        return cls(PlanNode(kind="source", name=name or _auto_name("source"), items_fn=items_fn))

    @classmethod
    def from_items(cls, items: Sequence[Any], name: Optional[str] = None) -> "Plan":
        """Source over an already-realized sequence (copied defensively)."""
        snapshot = list(items)
        return cls.source(lambda: iter(snapshot), name=name or _auto_name("items"))

    # ------------------------------------------------------------------
    # Per-record operators (pipelined, parallelizable)
    # ------------------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        name: Optional[str] = None,
        on_error: Optional[str] = None,
    ) -> "Plan":
        """Per-record transform node (pipelined, parallelizable)."""
        return Plan(
            PlanNode(
                kind="map",
                name=name or _auto_name("map"),
                fn=fn,
                parent=self.node,
                on_error=on_error,
            )
        )

    def filter(
        self,
        fn: Callable[[Any], bool],
        name: Optional[str] = None,
        on_error: Optional[str] = None,
        inline: bool = False,
    ) -> "Plan":
        """Per-record predicate node; keeps matching records."""
        return Plan(
            PlanNode(
                kind="filter",
                name=name or _auto_name("filter"),
                fn=fn,
                parent=self.node,
                on_error=on_error,
                inline=inline,
            )
        )

    def flat_map(
        self,
        fn: Callable[[Any], Iterable[Any]],
        name: Optional[str] = None,
        on_error: Optional[str] = None,
    ) -> "Plan":
        """Per-record expansion node (zero or more outputs each)."""
        return Plan(
            PlanNode(
                kind="flat_map",
                name=name or _auto_name("flat_map"),
                fn=fn,
                parent=self.node,
                on_error=on_error,
            )
        )

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------

    def aggregate(
        self, fn: Callable[[List[Any]], Iterable[Any]], name: Optional[str] = None
    ) -> "Plan":
        """Blocking operator: ``fn`` sees the complete input list."""
        return Plan(
            PlanNode(
                kind="aggregate", name=name or _auto_name("aggregate"), fn=fn, parent=self.node
            )
        )

    def materialize(self, cache: Any, name: Optional[str] = None) -> "Plan":
        """Cache boundary: first execution fills ``cache``, later ones read it."""
        return Plan(
            PlanNode(
                kind="materialize",
                name=name or _auto_name("materialize"),
                cache=cache,
                parent=self.node,
            )
        )

    # ------------------------------------------------------------------

    def explain(self) -> str:
        """Human-readable plan rendering (the debugging view Luna exposes)."""
        lines = []
        for depth, node in enumerate(self.node.lineage_chain()):
            indent = "  " * depth
            lines.append(f"{indent}{node.kind}[{node.name}]")
        return "\n".join(lines)

    def nodes(self) -> List[PlanNode]:
        """All plan nodes from source to sink."""
        return self.node.lineage_chain()
