"""The docs name only paths and anchors that exist, and state the
numbers the code has; and the layering the docs promise holds.

Runs ``scripts/check_doc_links.py`` in-process, so a doc that still
names a deleted file fails Tier-1 and not only the CI ``docs`` job.
"""

import ast
import re
import runpy
from pathlib import Path

from repro.cluster.coordinator import MAX_SHARD_RETRIES
from repro.llm import ReliableLLM, SimulatedLLM
from repro.llm.client import JSON_RETRIES
from repro.luna.planner import MAX_PLAN_RETRIES

REPO = Path(__file__).resolve().parent.parent
CHECKER = REPO / "scripts" / "check_doc_links.py"


def test_doc_links_and_path_references_resolve(capsys):
    status = runpy.run_path(str(CHECKER))["main"]()
    assert status == 0, capsys.readouterr().out


def test_failure_ownership_table_matches_the_retry_constants():
    """DESIGN.md's failure-ownership table: owner -> maximum asks."""
    text = (REPO / "DESIGN.md").read_text()
    table = text.split("| Failure class | Owner | Maximum asks |", 1)[1].split("\n\n", 1)[0]
    asks = {}
    for row in table.strip().splitlines()[1:]:  # skip the |---| rule
        _, owner, maximum = [cell.strip() for cell in row.strip("|").split("|")]
        asks[owner.split("`")[1]] = int(re.match(r"\d+", maximum).group())
    assert asks == {
        "ReliableLLM.complete": ReliableLLM(SimulatedLLM()).max_retries + 1,
        "ReliableLLM.complete_json": JSON_RETRIES + 1,
        "LunaPlanner.plan": MAX_PLAN_RETRIES + 1,
        "ClusterCoordinator": MAX_SHARD_RETRIES + 1,
        "on_error": 1,
    }


def _imported_modules(path, package):
    """Dotted-name tuples of every module ``path`` imports, relative
    imports resolved against ``package``; ``from a import b`` yields both
    ``a`` and ``a.b``, since ``b`` may be a submodule."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield tuple(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = base + tuple(node.module.split(".") if node.module else ())
            yield module
            for alias in node.names:
                yield module + (alias.name,)


def test_nothing_outside_the_request_scheduler_imports_it():
    """``repro.runtime`` is a leaf: no other module of the package imports
    it, so deleting it (DESIGN.md §8) stays a pure ``git rm``."""
    src = REPO / "src"
    importers = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[:2] == ("repro", "runtime"):
            continue
        if any(m[:2] == ("repro", "runtime") for m in _imported_modules(path, parts[:-1])):
            importers.append(str(path.relative_to(src)))
    assert importers == []
