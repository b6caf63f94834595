"""The lint engine: one registry, one parse per file, one runner.

Two kinds of rule share the registry :data:`RULES` (both register with
the :func:`register` decorator):

* a :class:`Rule` inspects one parsed file (:class:`FileContext`) and
  yields :class:`Finding` objects (catalog: :mod:`repro.analysis.rules`);
* a :class:`ProgramRule` inspects the whole-program
  :class:`~repro.analysis.crossmod.ProjectIndex` (catalog:
  :mod:`repro.analysis.crossmod`).

:func:`lint_files` is the runner. It runs the single-file rules on each
file and builds the project index from the same parsed trees, so a run
parses every file exactly once. A file that does not parse is reported
once, as a ``syntax-error`` finding, and no rule sees it.

One escape hatch covers both kinds: ``# repro: lint-ignore[rule-id]`` on
the offending line (or the line directly above) silences that rule
there, and a bare ``# repro: lint-ignore`` silences every rule.
Suppressions are deliberate, reviewable markers for false positives and
by-design exceptions (e.g. a semaphore released by a different thread).
"""

from __future__ import annotations

import ast
import re
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
    Union,
)

if TYPE_CHECKING:
    from .crossmod.index import ProjectIndex

__all__ = [
    "Finding",
    "FileContext",
    "LintReport",
    "ProgramRule",
    "Rule",
    "RULES",
    "lint_files",
    "lint_paths",
    "lint_source",
    "load_rules",
    "read_files",
    "register",
]

#: Matches ``# repro: lint-ignore`` / ``# repro: lint-ignore[a, b]``.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*lint-ignore(?:\[([\w\-, ]+)\])?")

#: Sentinel for "all rules suppressed on this line".
_ALL_RULES = "*"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class FileContext:
    """One parsed source file plus its suppression map.

    A file that does not parse keeps its :class:`SyntaxError` in
    ``syntax_error`` and an empty ``tree``.
    """

    def __init__(self, path: str, source: str):
        self.path = path
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree: ast.Module = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.tree = ast.Module(body=[], type_ignores=[])
            self.syntax_error = exc
        self.suppressions: Dict[int, Set[str]] = _parse_suppressions(source)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True when the line (or the one above it) suppresses the rule."""
        for candidate in (line, line - 1):
            rules = self.suppressions.get(candidate)
            if rules is not None and (_ALL_RULES in rules or rule_id in rules):
                return True
        return False


def _parse_suppressions(source: str) -> Dict[int, Set[str]]:
    suppressions: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        listed = match.group(1)
        if listed is None:
            suppressions[lineno] = {_ALL_RULES}
        else:
            suppressions[lineno] = {
                name.strip() for name in listed.split(",") if name.strip()
            }
    return suppressions


class Rule:
    """Base class for single-file rules. Subclasses set
    ``id``/``description`` and implement :meth:`check`."""

    id: str = ""
    description: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        """Convenience constructor anchored at an AST node."""
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class ProgramRule:
    """Base class for whole-program rules: :meth:`check` sees the
    :class:`~repro.analysis.crossmod.ProjectIndex` of every linted file."""

    id: str = ""
    description: str = ""

    def check(self, index: "ProjectIndex") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, path: str, line: int, col: int, message: str) -> Finding:
        return Finding(rule=self.id, path=path, line=line, col=col, message=message)


#: The rule registry, id -> instance, for both kinds of rule. Importing
#: a rule module fills it; :func:`load_rules` imports them all.
RULES: Dict[str, Union[Rule, ProgramRule]] = {}


def register(cls: type) -> type:
    """Class decorator adding one instance of the rule to :data:`RULES`."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    RULES[rule.id] = rule
    return cls


def load_rules() -> Dict[str, Union[Rule, ProgramRule]]:
    """Import every rule module and return the full :data:`RULES`.

    Done on first use, not at package import: the query path imports
    :mod:`repro.analysis` for plan validation and needs no lint rule.
    """
    from . import crossmod, rules  # noqa: F401  (importing registers the rules)

    return RULES


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------


@dataclass
class LintReport:
    """The outcome of one lint run: ``findings`` fail the run,
    ``suppressed`` counts findings silenced inline."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "findings": [f.to_dict() for f in self.findings],
        }

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append(
            f"{len(self.findings)} finding(s) in {self.files_checked} file(s) "
            f"({self.suppressed} suppressed)"
        )
        return "\n".join(lines)


def _selected_rules(
    rules: Optional[Iterable[str]],
) -> List[Union[Rule, ProgramRule]]:
    registry = load_rules()
    if rules is None:
        return [registry[rule_id] for rule_id in sorted(registry)]
    selected = []
    for rule_id in rules:
        if rule_id not in registry:
            raise KeyError(f"unknown rule {rule_id!r}; known: {sorted(registry)}")
        selected.append(registry[rule_id])
    return selected


def iter_python_files(paths: Iterable[Union[str, Path]]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def read_files(paths: Iterable[Union[str, Path]]) -> List[FileContext]:
    """Parse every ``.py`` file under ``paths``, once."""
    return [
        FileContext(str(path), path.read_text(encoding="utf-8"))
        for path in iter_python_files(paths)
    ]


def lint_files(
    files: Sequence[FileContext], rules: Optional[Iterable[str]] = None
) -> LintReport:
    """Run the selected rules (default: all) over parsed files.

    Single-file rules run on each file; whole-program rules run on one
    :class:`~repro.analysis.crossmod.ProjectIndex` built from the same
    trees.
    """
    selected = _selected_rules(rules)
    report = LintReport(files_checked=len(files))
    by_path = {ctx.path: ctx for ctx in files}
    raw: List[Finding] = []
    for ctx in files:
        if ctx.syntax_error is not None:
            exc = ctx.syntax_error
            report.findings.append(
                Finding(
                    rule="syntax-error",
                    path=ctx.path,
                    line=exc.lineno or 0,
                    col=exc.offset or 0,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        for rule in selected:
            if isinstance(rule, Rule):
                raw.extend(rule.check(ctx))
    program_rules = [rule for rule in selected if isinstance(rule, ProgramRule)]
    if program_rules:
        from .crossmod.index import ProjectIndex

        index = ProjectIndex.build(files)
        for program_rule in program_rules:
            raw.extend(program_rule.check(index))
    for finding in raw:
        ctx = by_path.get(finding.path)
        if ctx is not None and ctx.is_suppressed(finding.rule, finding.line):
            report.suppressed += 1
        else:
            report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


def lint_paths(
    paths: Iterable[Union[str, Path]], rules: Optional[Iterable[str]] = None
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` as one program."""
    return lint_files(read_files(paths), rules)


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one source string as a one-file program; suppressed
    findings are dropped."""
    return lint_files([FileContext(path, source)], rules).findings
