"""The whole-program :class:`ProjectIndex` behind the program rules.

A single-file rule (:mod:`repro.analysis.rules`) must reach its verdict
from one AST. The bugs that survive that filter are *cross-module by
construction*: a future minted in ``runtime`` is swallowed in
``serving``, a lock taken in ``llm/client.py`` nests under one held in
``observability``, a document body read in ``docmodel`` is interpolated
into a planner prompt three imports away. Those need one index of the
whole program.

The index is built from the trees the lint runner already parsed (each
file is parsed once per run) and layers four resolution tables on top:

* **Module table** — dotted module names and per-module import maps
  (``local name -> "pkg.module"`` or ``"pkg.module:Symbol"``), with
  relative imports resolved against the importing package.
* **Class table** — per-class method tables, resolved base classes,
  the *attribute type table* (``self._scheduler = RequestScheduler(...)``
  records ``_scheduler -> repro.runtime.scheduler:RequestScheduler``),
  and the *lock table* (every ``threading.Lock/RLock/Condition/
  Semaphore`` attribute, with its creation site).
* **Function table** — module functions, methods, and *nested*
  functions (the per-document closures built by transform factories
  are where prompt assembly actually happens).
* **Approximate call graph** — call sites resolved through imports,
  ``self``-method dispatch with MRO walking over known repro classes,
  attribute chains through the class attribute table
  (``self._service._scheduler.submit`` resolves two hops), and
  parameter annotations.

Resolution is deliberately *approximate and sound-ish*: when a callee
cannot be resolved it is dropped, never guessed, so interprocedural
rules trade recall for a low false-positive rate — the same bargain
the single-file rules made.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from ..engine import FileContext

__all__ = [
    "CallEdge",
    "ClassInfo",
    "FunctionInfo",
    "LockDecl",
    "ModuleInfo",
    "ProjectIndex",
]

#: threading constructors that create a lock-like synchronization object.
_LOCK_CTORS = {
    "Lock": "Lock",
    "RLock": "RLock",
    "Condition": "Condition",
    "Semaphore": "Semaphore",
    "BoundedSemaphore": "Semaphore",
}


@dataclass(frozen=True)
class LockDecl:
    """One declared lock: a ``self.X = threading.Lock()`` attribute or a
    module-level lock binding.

    ``lock_id`` is the global node name used by the lock-order graph
    (``module:Class.attr`` or ``module:name``); ``path``/``line`` is the
    creation site.
    """

    lock_id: str
    kind: str
    path: str
    line: int


@dataclass
class FunctionInfo:
    """One function, method, or nested function in the program."""

    qualname: str  #: ``module:Class.method`` / ``module:func`` / ``module:outer.<locals>.inner``
    module: str
    cls: Optional[str]  #: owning class name, for methods
    name: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    path: str

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class: methods, resolved bases, attribute types, locks."""

    qualname: str  #: ``module:Class``
    name: str
    module: str
    path: str
    bases: List[str] = field(default_factory=list)  #: resolved ``module:Class`` names
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)  #: attr -> ``module:Class``
    lock_attrs: Dict[str, LockDecl] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module plus its local resolution tables."""

    name: str
    path: str
    tree: ast.Module
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    module_locks: Dict[str, LockDecl] = field(default_factory=dict)
    var_types: Dict[str, str] = field(default_factory=dict)  #: module var -> ``module:Class``


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site: ``caller`` invokes ``callee`` at ``line``."""

    caller: str
    callee: str
    line: int


class ProjectIndex:
    """Whole-program tables over one parse of every module."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.locks: Dict[str, LockDecl] = {}
        #: caller qualname -> outgoing resolved edges (sorted by line).
        self.calls: Dict[str, List[CallEdge]] = {}
        self._ctor_memo: Dict[str, Dict[str, str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, files: Iterable["FileContext"]) -> "ProjectIndex":
        """Build all tables over already-parsed files (a file that does
        not parse is left out; the runner reports it)."""
        index = cls()
        for ctx in files:
            if ctx.syntax_error is not None:
                continue
            name = _module_name_for(Path(ctx.path))
            index.modules[name] = ModuleInfo(name=name, path=ctx.path, tree=ctx.tree)
        for info in index.modules.values():
            index._collect_imports(info)
            index._collect_definitions(info)
        for info in index.modules.values():
            index._resolve_bases(info)
            index._collect_attr_types(info)
        index._build_call_graph()
        return index

    def _collect_imports(self, info: ModuleInfo) -> None:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    info.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = info.name.split(".")
                    # level=1 is the current package for modules, so drop
                    # `level` trailing parts from the *module* name.
                    anchor = parts[: len(parts) - node.level]
                    base = ".".join(anchor + ([base] if base else []))
                elif not base:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    # `from pkg import module` vs `from module import Symbol`
                    # is decided later, when targets are looked up; encode
                    # both candidates as module:Symbol and resolve lazily.
                    info.imports[local] = f"{base}:{alias.name}"

    def _collect_definitions(self, info: ModuleInfo) -> None:
        def visit_function(
            node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
            prefix: str,
            cls_name: Optional[str],
        ) -> None:
            qualname = f"{info.name}:{prefix}{node.name}"
            fn = FunctionInfo(
                qualname=qualname,
                module=info.name,
                cls=cls_name,
                name=node.name,
                node=node,
                path=info.path,
            )
            self.functions[qualname] = fn
            if cls_name is None and prefix == "":
                info.functions[node.name] = fn
            for child in node.body:
                collect(child, f"{prefix}{node.name}.<locals>.", None)

        def collect(node: ast.stmt, prefix: str, cls_name: Optional[str]) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_function(node, prefix, cls_name)
            elif isinstance(node, ast.ClassDef):
                cls_qual = f"{info.name}:{prefix}{node.name}"
                cinfo = ClassInfo(
                    qualname=cls_qual,
                    name=node.name,
                    module=info.name,
                    path=info.path,
                )
                cinfo.bases = [ast.unparse(b) for b in node.bases]
                self.classes[cls_qual] = cinfo
                if prefix == "":
                    info.classes[node.name] = cinfo
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method_qual = f"{info.name}:{prefix}{node.name}.{child.name}"
                        fn = FunctionInfo(
                            qualname=method_qual,
                            module=info.name,
                            cls=f"{prefix}{node.name}",
                            name=child.name,
                            node=child,
                            path=info.path,
                        )
                        self.functions[method_qual] = fn
                        cinfo.methods[child.name] = fn
                        for inner in child.body:
                            collect(
                                inner,
                                f"{prefix}{node.name}.{child.name}.<locals>.",
                                None,
                            )
                    else:
                        collect(child, f"{prefix}{node.name}.", None)

        for node in info.tree.body:
            collect(node, "", None)
            # Module-level locks and typed module vars.
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    lock_kind = self._lock_ctor_kind(info, node.value)
                    if lock_kind is not None:
                        decl = LockDecl(
                            lock_id=f"{info.name}:{target.id}",
                            kind=lock_kind,
                            path=info.path,
                            line=node.value.lineno,
                        )
                        info.module_locks[target.id] = decl
                        self.locks[decl.lock_id] = decl
                    elif isinstance(node.value, ast.Call):
                        ctor = self.resolve_symbol(info, node.value.func)
                        if ctor in self.classes:
                            info.var_types[target.id] = ctor

    def _resolve_bases(self, info: ModuleInfo) -> None:
        for cinfo in info.classes.values():
            resolved = []
            for base in cinfo.bases:
                target = self._resolve_dotted(info, base)
                if target in self.classes:
                    resolved.append(target)
            cinfo.bases = resolved

    def _collect_attr_types(self, info: ModuleInfo) -> None:
        for cinfo in info.classes.values():
            for method in cinfo.methods.values():
                for node in ast.walk(method.node):
                    if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                        continue
                    target = node.targets[0]
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    lock_kind = self._lock_ctor_kind(info, node.value)
                    if lock_kind is not None:
                        decl = LockDecl(
                            lock_id=f"{cinfo.qualname}.{target.attr}",
                            kind=lock_kind,
                            path=info.path,
                            line=node.value.lineno,
                        )
                        cinfo.lock_attrs.setdefault(target.attr, decl)
                        self.locks.setdefault(decl.lock_id, decl)
                    elif isinstance(node.value, ast.Call):
                        ctor = self.resolve_symbol(info, node.value.func)
                        if ctor in self.classes:
                            cinfo.attr_types.setdefault(target.attr, ctor)

    def _lock_ctor_kind(self, info: ModuleInfo, value: ast.AST) -> Optional[str]:
        """The lock kind when ``value`` constructs (or falls back to
        constructing, e.g. ``lock or threading.Lock()``) a threading
        primitive."""
        for call in ast.walk(value):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name: Optional[str] = None
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                if func.value.id == "threading":
                    name = func.attr
            elif isinstance(func, ast.Name):
                target = info.imports.get(func.id, "")
                if target.startswith("threading:"):
                    name = target.split(":", 1)[1]
            if name in _LOCK_CTORS:
                return _LOCK_CTORS[name]
        return None

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def _resolve_dotted(self, info: ModuleInfo, dotted: str) -> Optional[str]:
        """Resolve a dotted source-level name (``exc.PlanError`` /
        ``Base``) to a ``module:Symbol`` qualname via the import map."""
        parts = dotted.split(".")
        head = parts[0]
        if head in info.classes and len(parts) == 1:
            return f"{info.name}:{head}"
        target = info.imports.get(head)
        if target is None:
            return None
        if ":" in target:
            mod, sym = target.split(":", 1)
            resolved = self._resolve_symbol_target(mod, sym)
            if resolved is None:
                return None
            if len(parts) == 1:
                return resolved
            # e.g. `from repro import luna` then `luna.Luna`
            if resolved in self.modules:
                return self._lookup_in_module(resolved, parts[1:])
            return None
        if len(parts) == 1:
            return target if target in self.modules else None
        return self._lookup_in_module(target, parts[1:])

    def _lookup_in_module(self, module: str, parts: Sequence[str]) -> Optional[str]:
        info = self.modules.get(module)
        if info is None or not parts:
            return None
        name = parts[0]
        if len(parts) == 1:
            if name in info.classes or name in info.functions:
                return f"{module}:{name}"
            return None
        return None

    def _resolve_symbol_target(
        self, mod: str, sym: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[str]:
        """Disambiguate ``from mod import sym``: a submodule, or a symbol
        defined in (or re-exported by) ``mod``."""
        if _seen is None:
            _seen = set()
        if (mod, sym) in _seen:  # re-export cycle: give up
            return None
        _seen.add((mod, sym))
        submodule = f"{mod}.{sym}"
        if submodule in self.modules:
            return submodule
        owner = self.modules.get(mod)
        if owner is not None:
            if sym in owner.classes or sym in owner.functions:
                return f"{mod}:{sym}"
            # Package __init__ re-export: chase the import chain.
            reexport = owner.imports.get(sym)
            if reexport is not None and ":" in reexport:
                inner_mod, inner_sym = reexport.split(":", 1)
                return self._resolve_symbol_target(inner_mod, inner_sym, _seen)
            if reexport is not None:
                return reexport if reexport in self.modules else None
        # Unparsed external module (threading, json, ...): keep the raw
        # module:symbol shape so callers can pattern-match on it.
        if mod not in self.modules:
            return f"{mod}:{sym}"
        return None

    def resolve_symbol(self, info: ModuleInfo, expr: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute expression to a ``module:Symbol`` or
        module qualname, without type inference."""
        if isinstance(expr, ast.Name):
            return self._resolve_dotted(info, expr.id)
        if isinstance(expr, ast.Attribute):
            try:
                return self._resolve_dotted(info, ast.unparse(expr))
            except Exception:  # pragma: no cover - unparse is total on exprs
                return None
        return None

    def mro(self, class_qualname: str) -> List[ClassInfo]:
        """The class and its known bases, nearest first (approximate MRO)."""
        seen: Set[str] = set()
        order: List[ClassInfo] = []
        stack = [class_qualname]
        while stack:
            qual = stack.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            cinfo = self.classes.get(qual)
            if cinfo is None:
                continue
            order.append(cinfo)
            stack.extend(cinfo.bases)
        return order

    def lookup_method(self, class_qualname: str, name: str) -> Optional[FunctionInfo]:
        for cinfo in self.mro(class_qualname):
            if name in cinfo.methods:
                return cinfo.methods[name]
        return None

    def lookup_attr_type(self, class_qualname: str, attr: str) -> Optional[str]:
        for cinfo in self.mro(class_qualname):
            if attr in cinfo.attr_types:
                return cinfo.attr_types[attr]
        return None

    def lookup_lock_attr(self, class_qualname: str, attr: str) -> Optional[LockDecl]:
        for cinfo in self.mro(class_qualname):
            if attr in cinfo.lock_attrs:
                return cinfo.lock_attrs[attr]
        return None

    def owning_class(self, fn: FunctionInfo) -> Optional[str]:
        """Qualname of the class a method belongs to, else None."""
        if fn.cls is None:
            return None
        return f"{fn.module}:{fn.cls}"

    def resolve_annotation(self, info: ModuleInfo, ann: Optional[ast.AST]) -> Optional[str]:
        """Resolve a parameter/return annotation to a class qualname."""
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            # String annotation: strip quotes/generics, take the head name.
            text = ann.value.split("[")[0].strip()
            return self._resolve_dotted(info, text) if text else None
        if isinstance(ann, ast.Subscript):  # Optional[X] / List[X]
            base = ann.value
            if isinstance(base, ast.Name) and base.id in ("Optional", "List", "Sequence"):
                return self.resolve_annotation(info, ann.slice)
            return None
        if isinstance(ann, (ast.Name, ast.Attribute)):
            return self.resolve_symbol(info, ann)
        return None

    def _local_ctors(self, fn: FunctionInfo) -> Dict[str, str]:
        """``name -> class`` for ``name = KnownClass(...)`` assignments in
        ``fn`` (first one wins), computed once per function."""
        ctors = self._ctor_memo.get(fn.qualname)
        if ctors is None:
            ctors = {}
            info = self.modules[fn.module]
            for node in ast.walk(fn.node):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id not in ctors
                    and isinstance(node.value, ast.Call)
                ):
                    ctor = self.resolve_symbol(info, node.value.func)
                    if ctor in self.classes:
                        ctors[node.targets[0].id] = ctor
            self._ctor_memo[fn.qualname] = ctors
        return ctors

    def resolve_type(self, fn: FunctionInfo, expr: ast.AST) -> Optional[str]:
        """Resolve an expression inside ``fn`` to a class qualname (for
        instances) or a module name (for module aliases)."""
        info = self.modules[fn.module]
        if isinstance(expr, ast.Name):
            if expr.id == "self" and fn.cls is not None:
                return self.owning_class(fn)
            # Parameter annotation?
            args = fn.node.args
            all_args = (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
            for arg in all_args:
                if arg.arg == expr.id:
                    resolved = self.resolve_annotation(info, arg.annotation)
                    if resolved is not None:
                        return resolved
            # Local assignment from a known constructor?
            ctor = self._local_ctors(fn).get(expr.id)
            if ctor is not None:
                return ctor
            # Module-level var or module alias.
            if expr.id in info.var_types:
                return info.var_types[expr.id]
            target = info.imports.get(expr.id)
            if target is not None and ":" not in target:
                return target  # a module name
            if target is not None:
                resolved = self._resolve_symbol_target(*target.split(":", 1))
                if resolved in self.modules:
                    return resolved
            return None
        if isinstance(expr, ast.Attribute):
            base = self.resolve_type(fn, expr.value)
            if base is None:
                return None
            if base in self.classes:
                return self.lookup_attr_type(base, expr.attr)
            if base in self.modules:
                owner = self.modules[base]
                if expr.attr in owner.var_types:
                    return owner.var_types[expr.attr]
            return None
        if isinstance(expr, ast.Call):
            ctor = self.resolve_call_target(fn, expr)
            if ctor is not None and ctor in self.classes:
                return ctor
            return None
        return None

    def resolve_call_target(self, fn: FunctionInfo, call: ast.Call) -> Optional[str]:
        """Resolve a call expression to the qualname of the function,
        method, or class (constructor) it invokes."""
        func = call.func
        info = self.modules[fn.module]
        if isinstance(func, ast.Name):
            # Sibling nested function in the same enclosing scope.
            sibling = self._nested_sibling(fn, func.id)
            if sibling is not None:
                return sibling
            resolved = self._resolve_dotted(info, func.id)
            if resolved is not None and (
                resolved in self.functions
                or resolved in self.classes
                or resolved in self.modules
            ):
                return resolved
            if func.id in info.functions:
                return info.functions[func.id].qualname
            return resolved
        if isinstance(func, ast.Attribute):
            receiver_type = self.resolve_type(fn, func.value)
            if receiver_type is not None:
                if receiver_type in self.classes:
                    method = self.lookup_method(receiver_type, func.attr)
                    if method is not None:
                        return method.qualname
                    return None
                if receiver_type in self.modules:
                    owner = self.modules[receiver_type]
                    if func.attr in owner.functions:
                        return owner.functions[func.attr].qualname
                    if func.attr in owner.classes:
                        return owner.classes[func.attr].qualname
            # Module alias attribute (repro.llm.prompts.render_task_prompt).
            resolved = self.resolve_symbol(info, func)
            if resolved is not None and (
                resolved in self.functions or resolved in self.classes
            ):
                return resolved
            return None
        return None

    def _nested_sibling(self, fn: FunctionInfo, name: str) -> Optional[str]:
        """A nested function defined in the same enclosing scope as
        ``fn`` (factories calling their own helpers)."""
        prefix = fn.qualname.rsplit(".", 1)[0] if "." in fn.qualname else None
        if prefix is None:
            return None
        candidate = f"{prefix}.{name}"
        if candidate in self.functions:
            return candidate
        return None

    def resolve_lock(self, fn: FunctionInfo, expr: ast.AST) -> Optional[LockDecl]:
        """Resolve an expression to a declared lock, or None."""
        info = self.modules[fn.module]
        if isinstance(expr, ast.Attribute):
            base = self.resolve_type(fn, expr.value)
            if base is not None and base in self.classes:
                return self.lookup_lock_attr(base, expr.attr)
            if base is not None and base in self.modules:
                return self.modules[base].module_locks.get(expr.attr)
            return None
        if isinstance(expr, ast.Name):
            if expr.id in info.module_locks:
                return info.module_locks[expr.id]
            target = info.imports.get(expr.id)
            if target is not None and ":" in target:
                mod, sym = target.split(":", 1)
                owner = self.modules.get(mod)
                if owner is not None:
                    return owner.module_locks.get(sym)
            return None
        return None

    # ------------------------------------------------------------------
    # Call graph
    # ------------------------------------------------------------------

    def _build_call_graph(self) -> None:
        for fn in self.functions.values():
            edges: List[CallEdge] = []
            for node in ast.walk(fn.node):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node is not fn.node:
                        continue  # nested functions indexed separately
                if not isinstance(node, ast.Call):
                    continue
                # Skip call sites inside nested defs: they belong to the
                # nested FunctionInfo's own edges.
                target = self.resolve_call_target(fn, node)
                if target is None:
                    continue
                if target in self.classes:
                    ctor = self.lookup_method(target, "__init__")
                    target = ctor.qualname if ctor is not None else target
                if target in self.functions or target in self.classes:
                    edges.append(CallEdge(fn.qualname, target, node.lineno))
            # Drop edges that actually live in nested function bodies.
            nested_spans = [
                (child.lineno, getattr(child, "end_lineno", child.lineno))
                for child in ast.walk(fn.node)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child is not fn.node
            ]
            if nested_spans:
                edges = [
                    e
                    for e in edges
                    if not any(lo <= e.line <= hi for lo, hi in nested_spans)
                ]
            edges.sort(key=lambda e: e.line)
            self.calls[fn.qualname] = edges

    def callees_of(self, qualname: str) -> List[CallEdge]:
        return self.calls.get(qualname, [])

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qualname in sorted(self.functions):
            yield self.functions[qualname]


def _module_name_for(path: Path) -> str:
    """Dotted module name: rooted at the last ``repro`` path component
    when present (src layouts), else the file stem chain after the last
    directory that is not part of a package walk we can see. Fixture
    trees without a package simply use the stem."""
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[anchor:]
    else:
        parts = parts[-1:]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem
