"""Project-specific static analysis for the repro codebase.

Three parts (see DESIGN.md §11 and docs/ANALYSIS.md):

* **One lint** — :mod:`repro.analysis.engine` holds the rule registry
  and the runner behind ``python -m repro lint``. Every file is parsed
  once; the single-file rules (:mod:`repro.analysis.rules`: blocking
  calls under locks, metric-name drift, wall-clock timing, unbounded
  waits on hot paths, ...) run on each tree, and the whole-program rules
  (:mod:`repro.analysis.crossmod`: lock-order inversion, future escape,
  prompt taint) run on one project index built from the same trees.
* :mod:`repro.analysis.plancheck` — a static validator for Luna
  :class:`~repro.luna.operators.LogicalPlan` DAGs, run by the planner
  (reject + replan), the executor (structural gate), and the serving
  plan cache (invalid plans are never admitted).
* :mod:`repro.analysis.leakcheck` — thread/executor leak detection
  behind the pytest leak-sanitizer fixture.
"""

from .engine import (
    Finding,
    FileContext,
    LintReport,
    ProgramRule,
    Rule,
    RULES,
    lint_files,
    lint_paths,
    lint_source,
    load_rules,
    read_files,
    register,
)
from .plancheck import (
    PlanCheckError,
    PlanCheckIssue,
    PlanCheckReport,
    check_plan,
    ensure_valid_plan,
)

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
    "PlanCheckError",
    "PlanCheckIssue",
    "PlanCheckReport",
    "check_plan",
    "ensure_valid_plan",
]

# The rule modules (repro.analysis.rules, repro.analysis.crossmod) load
# on the first lint run (load_rules): nothing on the query path needs them.
