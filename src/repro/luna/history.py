"""Query execution history.

"Luna solves this by exposing a logical query execution plan, data
lineage, and execution history for all queries" (§6). The history is a
log of the most recent :class:`~repro.luna.luna.LunaResult` records with
a render view, search, and *replay*: re-running a past query's exact
(possibly user-edited) plan against the current data — the quick
iteration loop the paper's interactive tenet calls for.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, List, Optional

if TYPE_CHECKING:
    from .luna import Luna, LunaResult

#: How many of the most recent results :class:`QueryHistory` keeps. A
#: result holds its plans, trace and cost account (~8 KB), so this is
#: what bounds a long-lived ``Luna``; sequence numbers keep counting.
RECENT_RESULTS = 256


@dataclass
class HistoryEntry:
    """One recorded query execution."""

    sequence: int
    result: "LunaResult"

    def summary(self) -> str:
        """One-line human-readable summary."""
        answer = repr(self.result.answer)
        if len(answer) > 48:
            answer = answer[:45] + "..."
        return (
            f"#{self.sequence} [{self.result.index}] {self.result.question} "
            f"-> {answer} (${self.result.trace.total_cost_usd():.4f}, "
            f"{self.result.trace.total_llm_calls()} LLM calls)"
        )


class QueryHistory:
    """The last :data:`RECENT_RESULTS` executed Luna queries, oldest first."""

    def __init__(self) -> None:
        self._lock = threading.Lock()  # queries on several threads may record
        self._entries: Deque[HistoryEntry] = deque(maxlen=RECENT_RESULTS)
        self._recorded = 0

    def record(self, result: "LunaResult") -> HistoryEntry:
        """Append one entry, evicting the oldest past the bound."""
        with self._lock:
            entry = HistoryEntry(sequence=self._recorded, result=result)
            self._recorded += 1
            self._entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self, index: Optional[str] = None) -> List[HistoryEntry]:
        """The retained entries (a snapshot), optionally of one data index."""
        with self._lock:
            entries = list(self._entries)
        if index is None:
            return entries
        return [e for e in entries if e.result.index == index]

    def get(self, sequence: int) -> HistoryEntry:
        """Fetch by sequence number; ``IndexError`` when never recorded
        or already evicted."""
        entries = self.entries()
        oldest = entries[0].sequence if entries else 0
        if 0 <= sequence < oldest:
            raise IndexError(
                f"history entry #{sequence} was evicted; the oldest kept is #{oldest}"
            )
        if not oldest <= sequence < oldest + len(entries):
            raise IndexError(f"no history entry #{sequence}")
        return entries[sequence - oldest]

    def last(self) -> Optional[HistoryEntry]:
        """The most recent entry, or None."""
        with self._lock:
            return self._entries[-1] if self._entries else None

    def search(self, text: str) -> List[HistoryEntry]:
        """Entries whose question mentions ``text`` (case-insensitive)."""
        lowered = text.lower()
        return [e for e in self.entries() if lowered in e.result.question.lower()]

    def total_cost_usd(self) -> float:
        """Sum of dollar costs across the retained entries."""
        return sum(e.result.trace.total_cost_usd() for e in self.entries())

    def render(self, index: Optional[str] = None) -> str:
        """Render a human-readable text view."""
        entries = self.entries(index)
        if not entries:
            return "(no queries recorded)"
        return "\n".join(e.summary() for e in entries)

    def replay(self, sequence: int, luna: "Luna") -> "LunaResult":
        """Re-execute a past query's exact plan against current data.

        The recorded *pre-optimization* plan is reused (including any
        human edits it carried), so replay reflects data changes, not
        planner drift.
        """
        entry = self.get(sequence)
        return luna.execute_plan(
            entry.result.question, entry.result.index, entry.result.plan.copy()
        )
