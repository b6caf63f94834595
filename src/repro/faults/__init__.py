"""Deterministic fault injection for chaos testing.

The resilience claims of the paper ("Sycamore handles retries and
model-specific details", §5.2) are only worth anything if they are
exercised. This package injects the failure modes of hosted-LLM backends
— transient errors, rate-limit storms, latency spikes, malformed output,
timeouts, and timed brownouts — reproducibly from a seed, so every chaos
test can be replayed call-for-call.

Typical wiring::

    from repro.faults import BrownoutWindow, FaultInjector, FaultSchedule

    schedule = FaultSchedule(seed=42, transient_rate=0.2,
                             brownouts=[BrownoutWindow(10, 20)])
    injector = FaultInjector(schedule)
    flaky = injector.wrap_llm(backend)       # an LLMClient
    llm = ReliableLLM(flaky)                 # the layer under test
    ...
    print(injector.report())

Invariants:

* **Seeded determinism.** The fault decision for call *i* is a pure
  function of ``(seed, i)`` (splitmix64-style mixing) — no RNG state is
  shared between calls, so the injected sequence is identical across
  runs and independent of thread interleaving. What *can* vary under
  concurrency is which caller claims which index; the per-index
  decisions themselves never do. Adding a draw per decision or reusing
  a stateful RNG would break replayability.
* **Decision log is the ground truth.** :class:`FaultInjector` claims
  indexes under a lock and appends every decision to a replayable log;
  ``report()`` and the per-kind counters derive from it. The
  ``faults.*`` metrics published to the global registry
  (:mod:`repro.observability`) are process-wide aggregates across all
  injectors and may exceed any single injector's ledger.
"""

from .injector import FaultInjector, FaultyLLM
from .schedule import (
    BROWNOUT,
    BrownoutWindow,
    FAULT_KINDS,
    FaultDecision,
    FaultSchedule,
)

__all__ = [
    "BROWNOUT",
    "BrownoutWindow",
    "FAULT_KINDS",
    "FaultDecision",
    "FaultInjector",
    "FaultSchedule",
    "FaultyLLM",
]
