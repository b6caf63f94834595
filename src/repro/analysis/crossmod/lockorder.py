"""``lock-order-inversion``: the global lock-acquisition-order graph.

Every declared lock (``self._lock = threading.Lock()`` attributes,
module-level locks) is a node. An edge ``A -> B`` means "somewhere, B
is acquired while A is held" — either directly (a nested ``with``) or
*across call-graph hops*: a function that holds A and calls into
another module that eventually takes B contributes the same edge, which
is exactly the shape single-file analysis cannot see. A cycle in the
graph is a potential deadlock: two threads entering the cycle from
different edges can each hold one lock and wait forever for the other.
Unlike a runtime monitor, the rule sees orders no test exercises.

Approximations, chosen to keep false positives low:

* ``with`` statements are the acquisition model; bare ``.acquire()``
  calls contribute edges at the call point but are not tracked as held
  across subsequent statements (the single-file ``bare-lock-acquire``
  rule polices those shapes).
* ``Condition.wait`` releases the condition's lock while waiting; the
  walk keeps it held, which over-approximates (safe direction).
* Reentrant re-acquisition of the *same* lock id is not an edge.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..engine import Finding, ProgramRule, register
from .index import FunctionInfo, LockDecl, ProjectIndex

__all__ = ["LockOrderGraph", "LockEdge", "build_lock_graph", "LockOrderInversion"]

_DEFERRED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


@dataclass(frozen=True)
class LockEdge:
    """Evidence that ``b`` is acquired while ``a`` is held."""

    a: str
    b: str
    path: str
    line: int
    via: str  #: human-readable provenance ("direct" or the call chain)


@dataclass
class LockOrderGraph:
    """The global acquisition-order graph plus per-lock declarations."""

    edges: Dict[Tuple[str, str], LockEdge]
    locks: Dict[str, LockDecl]

    def successors(self, node: str) -> List[str]:
        return sorted({b for (a, b) in self.edges if a == node})

    def cycles(self) -> List[List[str]]:
        """Elementary cycles, one per strongly connected component with
        more than one node (deterministic order)."""
        adjacency: Dict[str, List[str]] = {}
        for a, b in self.edges:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, [])
        for node in adjacency:
            adjacency[node].sort()
        sccs = _tarjan(adjacency)
        cycles: List[List[str]] = []
        for scc in sccs:
            if len(scc) < 2:
                continue
            cycle = _find_cycle(sorted(scc), adjacency)
            if cycle:
                cycles.append(cycle)
        cycles.sort()
        return cycles

    def edge(self, a: str, b: str) -> Optional[LockEdge]:
        return self.edges.get((a, b))


def build_lock_graph(index: ProjectIndex) -> LockOrderGraph:
    """Walk every function once; combine direct nesting with call-graph
    reachability to produce the global edge set."""
    direct_acquires: Dict[str, Set[str]] = {}
    direct_edges: List[LockEdge] = []
    held_calls: List[Tuple[str, Tuple[str, ...], str, int, str]] = []

    for fn in index.iter_functions():
        acquired: Set[str] = set()
        _walk_function(index, fn, acquired, direct_edges, held_calls)
        direct_acquires[fn.qualname] = acquired

    reach = _reachable_acquires(index, direct_acquires)

    edges: Dict[Tuple[str, str], LockEdge] = {}
    for edge in direct_edges:
        edges.setdefault((edge.a, edge.b), edge)
    for caller, held, callee, line, path in sorted(held_calls):
        for lock_b in sorted(reach.get(callee, set())):
            for lock_a in held:
                if lock_a == lock_b:
                    continue
                key = (lock_a, lock_b)
                if key in edges:
                    continue
                chain = _acquire_chain(index, callee, lock_b, direct_acquires)
                via = f"{_short(caller)} -> " + " -> ".join(_short(q) for q in chain)
                edges[key] = LockEdge(
                    a=lock_a, b=lock_b, path=path, line=line, via=via
                )
    return LockOrderGraph(edges=edges, locks=dict(index.locks))


def _walk_function(
    index: ProjectIndex,
    fn: FunctionInfo,
    acquired: Set[str],
    direct_edges: List[LockEdge],
    held_calls: List[Tuple[str, Tuple[str, ...], str, int, str]],
) -> None:
    def walk(node: ast.AST, held: List[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFERRED_SCOPES):
                continue  # nested defs analyzed as their own functions
            if isinstance(child, ast.With):
                new_locks: List[str] = []
                for item in child.items:
                    decl = index.resolve_lock(fn, item.context_expr)
                    if decl is None:
                        # Non-lock context manager: its expression may
                        # still contain calls made while locks are held.
                        walk(item.context_expr, held)
                        continue
                    acquired.add(decl.lock_id)
                    for held_id in held:
                        if held_id != decl.lock_id:
                            direct_edges.append(
                                LockEdge(
                                    a=held_id,
                                    b=decl.lock_id,
                                    path=fn.path,
                                    line=item.context_expr.lineno,
                                    via="direct",
                                )
                            )
                    new_locks.append(decl.lock_id)
                body = ast.Module(body=child.body, type_ignores=[])
                walk(body, held + new_locks)
                continue
            if isinstance(child, ast.Call):
                self_call_handled = _classify_call(child, held)
                if not self_call_handled:
                    walk(child, held)
                continue
            walk(child, held)

    def _classify_call(call: ast.Call, held: List[str]) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in ("acquire", "release"):
            decl = index.resolve_lock(fn, func.value)
            if decl is not None:
                if func.attr == "acquire":
                    acquired.add(decl.lock_id)
                    for held_id in held:
                        if held_id != decl.lock_id:
                            direct_edges.append(
                                LockEdge(
                                    a=held_id,
                                    b=decl.lock_id,
                                    path=fn.path,
                                    line=call.lineno,
                                    via="direct",
                                )
                            )
                return True
        target = index.resolve_call_target(fn, call)
        if target is not None and held:
            held_calls.append(
                (fn.qualname, tuple(held), target, call.lineno, fn.path)
            )
        # Walk the receiver chain and arguments: nested calls (e.g.
        # `self.registry.counter(...).inc()`) may acquire locks too.
        walk(call.func, held)
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            walk(arg, held)
        return True

    walk(fn.node, [])


def _reachable_acquires(
    index: ProjectIndex, direct: Dict[str, Set[str]]
) -> Dict[str, Set[str]]:
    """Fixpoint: locks acquired by a function or anything it can reach."""
    reach: Dict[str, Set[str]] = {q: set(s) for q, s in direct.items()}
    changed = True
    while changed:
        changed = False
        for qualname in reach:
            for edge in index.callees_of(qualname):
                callee_locks = reach.get(edge.callee)
                if callee_locks and not callee_locks <= reach[qualname]:
                    reach[qualname] |= callee_locks
                    changed = True
    return reach


def _acquire_chain(
    index: ProjectIndex,
    start: str,
    lock_id: str,
    direct: Dict[str, Set[str]],
) -> List[str]:
    """Shortest call chain from ``start`` to a function that directly
    acquires ``lock_id`` (BFS; deterministic)."""
    if lock_id in direct.get(start, set()):
        return [start]
    seen = {start}
    queue: List[List[str]] = [[start]]
    while queue:
        path = queue.pop(0)
        for edge in index.callees_of(path[-1]):
            if edge.callee in seen:
                continue
            seen.add(edge.callee)
            next_path = path + [edge.callee]
            if lock_id in direct.get(edge.callee, set()):
                return next_path
            queue.append(next_path)
    return [start]


def _tarjan(adjacency: Dict[str, List[str]]) -> List[List[str]]:
    """Iterative Tarjan SCC (recursion-free: lock graphs are small but
    call stacks are precious)."""
    index_counter = [0]
    indices: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []

    for root in sorted(adjacency):
        if root in indices:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                indices[node] = index_counter[0]
                lowlink[node] = index_counter[0]
                index_counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            children = adjacency.get(node, [])
            advanced = False
            for i in range(child_i, len(children)):
                child = children[i]
                if child not in indices:
                    work[-1] = (node, i + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], indices[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == indices[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs


def _find_cycle(nodes: Sequence[str], adjacency: Dict[str, List[str]]) -> List[str]:
    """One simple cycle through the SCC, starting at its smallest node."""
    start = nodes[0]
    members = set(nodes)
    path = [start]
    seen = {start}
    while True:
        candidates = [
            n for n in adjacency.get(path[-1], []) if n in members
        ]
        if not candidates:
            return []
        nxt = candidates[0]
        for candidate in candidates:
            if candidate == start and len(path) > 1:
                return path
            if candidate not in seen:
                nxt = candidate
                break
        else:
            if start in candidates and len(path) > 1:
                return path
            return []
        if nxt in seen:
            if nxt == start and len(path) > 1:
                return path
            return []
        path.append(nxt)
        seen.add(nxt)


def _short(qualname: str) -> str:
    """``repro.runtime.scheduler:RequestScheduler.submit`` ->
    ``scheduler:RequestScheduler.submit`` (keep output readable)."""
    module, _, rest = qualname.partition(":")
    return f"{module.rsplit('.', 1)[-1]}:{rest}" if rest else qualname


@register
class LockOrderInversion(ProgramRule):
    id = "lock-order-inversion"
    description = (
        "A cycle in the global lock-acquisition-order graph: two threads "
        "entering the cycle from different edges can each hold one lock "
        "and wait forever for the other (cross-module deadlock)."
    )

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        graph = build_lock_graph(index)
        for cycle in graph.cycles():
            edges = []
            for i, node in enumerate(cycle):
                nxt = cycle[(i + 1) % len(cycle)]
                edge = graph.edge(node, nxt)
                if edge is not None:
                    edges.append(edge)
            if not edges:
                continue
            first = edges[0]
            description = "; ".join(
                f"{e.a} -> {e.b} at {e.path}:{e.line}"
                + (f" (via {e.via})" if e.via != "direct" else "")
                for e in edges
            )
            yield self.finding(
                path=first.path,
                line=first.line,
                col=0,
                message=(
                    "lock-order inversion "
                    + " -> ".join(cycle + [cycle[0]])
                    + f": {description}"
                ),
            )
