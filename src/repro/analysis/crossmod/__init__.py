"""Whole-program rules over one :class:`ProjectIndex`.

Where :mod:`repro.analysis.rules` sees one file at a time, the rules
here see every linted module at once, through the index the lint runner
builds from the same parse, and follow facts across function and module
boundaries:

* ``lock-order-inversion`` — cycles in the global lock-acquisition-order
  graph (:mod:`.lockorder`);
* ``future-escape`` — futures that cross a function/module boundary and
  are dropped on a hot path (:mod:`.dataflow`);
* ``prompt-taint`` — untrusted text reaching prompt construction
  unsanitized (:mod:`.taint`).

Entry point: ``python -m repro lint`` or
:func:`repro.analysis.lint_paths`.
"""

from .index import ProjectIndex, FunctionInfo, ClassInfo, ModuleInfo, LockDecl

# Importing the rule modules registers them in repro.analysis.RULES.
from . import lockorder  # noqa: F401  (registers lock-order-inversion)
from . import dataflow  # noqa: F401  (registers future-escape)
from . import taint  # noqa: F401  (registers prompt-taint)

from .lockorder import LockOrderGraph, build_lock_graph

__all__ = [
    "ProjectIndex",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "LockDecl",
    "LockOrderGraph",
    "build_lock_graph",
]
