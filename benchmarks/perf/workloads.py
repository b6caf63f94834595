"""The four workloads. Each runs in the child interpreter ``child.py``.

Every workload builds its inputs from the seed, times only calls into
the shipped public API, checks the outputs, and tears down what it
started in ``finally``. ``traced=True`` adds the wrappers of
``probes.py`` and keeps the spans; the end-to-end numbers always come
from a run with ``traced=False``.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.cluster.bench import generate_bench_corpus
from repro.cluster.envelope import ShardOp, ShardPlanSpec
from repro.cluster.worker import build_worker_context, run_spec_locally
from repro.datagen import (
    CAUSE_TAXONOMY,
    build_full_suite,
    generate_earnings_corpus,
    generate_ntsb_corpus,
)
from repro.embedding.embedder import HashingEmbedder
from repro.evaluation.grading import Grade
from repro.evaluation.harness import grade_answer
from repro.gateway import Gateway, GatewayClient
from repro.gateway.client import GatewayError
from repro.llm.client import ReliableLLM
from repro.llm.cost import CostTracker
from repro.llm.knowledge import US_STATES
from repro.llm.simulated import SimulatedLLM
from repro.luna import Luna
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer
from repro.partitioner import ArynPartitioner
from repro.serving import QueryService, ServiceConfig
from repro.sycamore import SycamoreContext

from common import Sizes
from pace import ReferenceKernel
from probes import TimedBackend, TimedEmbedder, TimedPartitioner, span_rows

NTSB_SCHEMA = {
    "state": "string",
    "incident_year": "int",
    "weather_related": "bool",
    "injuries_fatal": "int",
    "aircraft": "string",
}
EARNINGS_SCHEMA = {
    "company": "string",
    "sector": "string",
    "fiscal_year": "int",
    "revenue_musd": "float",
    "revenue_growth_pct": "float",
    "ceo_changed": "bool",
}
#: Extracted property -> ground-truth attribute of the generator record.
NTSB_TRUTH = {**{name: name for name in NTSB_SCHEMA}, "incident_year": "year"}
EARNINGS_TRUTH = {name: name for name in EARNINGS_SCHEMA}

#: ``etl_ingest`` and ``query_inproc`` run on the context's shipped
#: default, one executor thread. Under the GIL a second thread made
#: ingest a fifth slower, and three times more sensitive to anything else
#: that wants a core of the sandbox's two (block medians spread 11%
#: against 3% beside a process that is busy every other 20 s).
CPU_BOUND_PARALLELISM = 1

#: ``query_inproc`` latency class: the NTSB questions that make one LLM
#: call per document. Four cost one scan and ``ntsb-02`` costs about
#: 1.4, so the median falls inside the first group and the 90th
#: percentile inside the second, neither on the boundary (README).
SCAN_QUESTIONS = ("ntsb-01", "ntsb-02", "ntsb-03", "ntsb-05", "ntsb-06")

#: ``serve_mixed`` hot set: six full-scan questions, so a result-cache
#: miss on any of them costs one LLM call per document.
HOT_QUESTIONS = (
    "How many incidents were caused by wind?",
    "How many incidents were caused by icing?",
    "How many incidents were caused by engine failure?",
    "What percent of incidents were caused by mechanical failure?",
    "Which state had the most incidents caused by wind?",
    "Summarize the incidents involving bird strikes.",
)
HOT_SHARE = 0.55
SERVE_LATENCY_SCALE = 0.01

#: ``cluster_scatter``: two spawned workers that sleep a share of the
#: virtual LLM latency, and a one-operator segment over every document.
CLUSTER_CONFIG = ClusterConfig(
    n_workers=2, shards_per_worker=2, real_latency_scale=0.01, default_model="sim-small"
)
EXTRACT_SPEC = ShardPlanSpec.from_ops(
    [ShardOp.make("LlmExtract", field="cause", type="string")], default_model="sim-small"
)


@dataclass
class Outcome:
    """What one run of one workload measured."""

    unit: str
    setup_s: List[float] = field(default_factory=list)
    #: Per timed repeat: wall seconds and units of work done.
    repeat_wall_s: List[float] = field(default_factory=list)
    repeat_units: List[int] = field(default_factory=list)
    #: Monotonic-clock windows of the timed repeats (for span accounting).
    windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Samples of the workload's latency class.
    latencies_ms: List[float] = field(default_factory=list)
    cpu_s: float = 0.0
    cpu_units: int = 0
    llm_calls: int = 0
    cost_usd: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks_passed: float = 0.0
    checks_total: int = 0
    #: Invariants that must hold whatever the seed (see each workload).
    correct: bool = True
    problems: List[str] = field(default_factory=list)
    #: Counters of single layers over the run (traced run reports them).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Other samples worth a layer metric (cheap latency classes).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: The reference kernel (``pace.py``), run between the timed parts,
    #: and whether this workload reports its times at reference speed.
    kernel: ReferenceKernel = field(default_factory=ReferenceKernel)
    at_reference_speed: bool = False
    #: ``setup_s``, ``repeat_wall_s`` and ``latencies_ms`` again, each
    #: sample times the speed of the box around it (as measured where the
    #: workload is not at reference speed). ``pace`` fills them.
    ref_setup_s: List[float] = field(default_factory=list)
    ref_repeat_wall_s: List[float] = field(default_factory=list)
    ref_latencies_ms: List[float] = field(default_factory=list)
    #: Throughput is all units over all timed wall, not the median repeat's:
    #: for repeats that are one long run of a context that slows with age.
    pooled_throughput: bool = False

    def pace(self) -> None:
        """Time the reference kernel. Every time recorded since the last
        call lies between two groups of kernel calls, which say how fast
        the box was just then; slow spells last a few seconds, less than a
        run. Call between timed parts only."""
        speed = self.kernel.run(calls=4)
        if not self.at_reference_speed:
            speed = 1.0
        for measured, at_reference in (
            (self.setup_s, self.ref_setup_s),
            (self.repeat_wall_s, self.ref_repeat_wall_s),
            (self.latencies_ms, self.ref_latencies_ms),
        ):
            at_reference.extend(value * speed for value in measured[len(at_reference) :])

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def require(self, condition: bool, problem: str) -> None:
        if not condition:
            self.correct = False
            if len(self.problems) < 20:
                self.problems.append(problem)

    def more_repeats(self, seconds: float, sizes: Sizes) -> bool:
        """Pace, then say whether the timed repeats so far fall short of
        ``seconds``. A workload at reference speed counts them at that
        speed, so a run makes the same number of repeats whatever the
        box's speed: with ``query_inproc`` growing slower pass by pass, how
        many passes a run makes decides what it measures."""
        self.pace()
        timed = sum(self.ref_repeat_wall_s)
        return len(self.repeat_wall_s) < sizes.min_repeats or timed < seconds

    def add_repeat(
        self,
        windows: List[Tuple[float, float]],
        units: int,
        cpu_s: float,
        cpu_units: Optional[int] = None,
    ) -> None:
        """One timed repeat: its windows, its work, the CPU it took."""
        self.windows += windows
        self.repeat_wall_s.append(sum(end - start for start, end in windows))
        self.repeat_units.append(units)
        self.attempted += units
        self.cpu_s += cpu_s
        self.cpu_units += units if cpu_units is None else cpu_units


# ----------------------------------------------------------------------
# The stack every workload but cluster_scatter runs on
# ----------------------------------------------------------------------


@dataclass
class Stack:
    """One context over a simulated backend with the response cache off."""

    ctx: SycamoreContext
    sim: SimulatedLLM
    tracker: CostTracker
    timed_backend: Optional[TimedBackend]

    def partitioner(self) -> Any:
        inner = ArynPartitioner(seed=0)
        if self.timed_backend is None:
            return inner
        return TimedPartitioner(inner, self.ctx.tracer)

    def ingest(self, raws: Sequence[Any], schema: Dict[str, str], index: str) -> int:
        return (
            self.ctx.read.raw(raws)
            .partition(self.partitioner())
            .extract_properties(schema, model="sim-large")
            .write.index(index)
        )

    def spent(self) -> Tuple[int, float]:
        """(backend calls, simulated dollars) so far."""
        return self.sim.calls, self.tracker.summary().cost_usd

    def retire(self, outcome: Outcome) -> None:
        """Fold this stack's layer counters into the outcome and close it."""
        llm = self.ctx.llm.metrics()
        registry = self.ctx.registry
        tracer = self.ctx.tracer
        outcome.count("llm.calls", self.sim.calls)
        outcome.count("llm.retries", llm["retries_performed"])
        outcome.count("llm.cache_hits", llm["cache_hits"])
        outcome.count("execution.task_retries", registry.counter("executor.task_retries").value())
        outcome.count(
            "execution.dead_letters", registry.counter("executor.records_dead_lettered").value()
        )
        spans = tracer.spans()
        outcome.count("observability.spans", len(spans))
        outcome.count("observability.dropped_spans", tracer.dropped_spans)
        outcome.require(tracer.dropped_spans == 0, f"{tracer.dropped_spans} spans dropped")
        if self.timed_backend is not None:
            outcome.count("llm.backend_busy_s", self.timed_backend.busy_s)
            prefix = f"{int(outcome.counters.get('bench.stacks', 0))}:"
            outcome.spans.extend(span_rows(spans, prefix))
        outcome.count("bench.stacks", 1)
        self.ctx.close()


def build_stack(parallelism: int, latency_scale: float, traced: bool) -> Stack:
    """The shipped default stack, with the seams the harness uses made
    explicit: a private registry and tracer, the LLM response cache off,
    and (traced only) timing wrappers around backend and embedder."""
    registry = MetricsRegistry()
    tracer = Tracer()
    tracker = CostTracker()
    sim = SimulatedLLM(seed=0, tracker=tracker, real_latency_scale=latency_scale)
    embedder: Any = HashingEmbedder(seed=0)
    timed_backend = TimedBackend(sim, tracer) if traced else None
    if traced:
        embedder = TimedEmbedder(embedder, tracer)
    llm = ReliableLLM(
        timed_backend or sim,
        cache_enabled=False,
        tracker=tracker,
        tracer=tracer,
        registry=registry,
    )
    ctx = SycamoreContext(
        llm=llm, embedder=embedder, parallelism=parallelism, tracer=tracer, registry=registry
    )
    # The context makes its own empty ledger before it sees the backend;
    # point it at the backend's, as the shipped default stack has it.
    ctx.cost_tracker = tracker
    return Stack(ctx=ctx, sim=sim, tracker=tracker, timed_backend=timed_backend)


def _cpu_all_processes() -> float:
    """CPU seconds of this process plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# ----------------------------------------------------------------------
# etl_ingest
# ----------------------------------------------------------------------


def _check_extraction(
    outcome: Outcome, stack: Stack, index: str, records: Sequence[Any], truth: Dict[str, str]
) -> None:
    documents = stack.ctx.catalog.get(index).all_documents()
    outcome.require(
        len(documents) == len(records), f"{index}: {len(documents)} of {len(records)} documents"
    )
    by_id = {record.report_id: record for record in records}
    for document in documents:
        record = by_id.get(document.doc_id)
        for prop, attribute in truth.items():
            outcome.checks_total += 1
            if record is not None and document.properties.get(prop) == getattr(record, attribute):
                outcome.checks_passed += 1


def etl_ingest(seed: int, seconds: float, sizes: Sizes, traced: bool) -> Outcome:
    """Partition, extract and index a fresh corpus into a fresh context."""
    outcome = Outcome(unit="document", at_reference_speed=True)
    n_docs = sizes.etl_ntsb + sizes.etl_earnings
    first_spent: Optional[Tuple[int, float]] = None
    while outcome.more_repeats(seconds, sizes):
        gc.collect()
        started = time.perf_counter()
        ntsb_records, ntsb_raws = generate_ntsb_corpus(sizes.etl_ntsb, seed=2 * seed)
        earn_records, earn_raws = generate_earnings_corpus(sizes.etl_earnings, seed=2 * seed + 1)
        stack = build_stack(parallelism=CPU_BOUND_PARALLELISM, latency_scale=0.0, traced=traced)
        try:
            # Untimed warm-up on a tenth of the corpus: imports, regex
            # caches and the executor's pool are up before the clock starts.
            stack.ingest(ntsb_raws[: max(1, sizes.etl_ntsb // 10)], NTSB_SCHEMA, "warm-ntsb")
            stack.ingest(earn_raws[: max(1, sizes.etl_earnings // 10)], EARNINGS_SCHEMA, "warm-earn")
            outcome.setup_s.append(time.perf_counter() - started)

            calls_before, cost_before = stack.spent()
            window_start, cpu_start = time.monotonic(), time.process_time()
            written = stack.ingest(ntsb_raws, NTSB_SCHEMA, "ntsb")
            written += stack.ingest(earn_raws, EARNINGS_SCHEMA, "earnings")
            window_end, cpu_end = time.monotonic(), time.process_time()

            outcome.add_repeat([(window_start, window_end)], n_docs, cpu_end - cpu_start)
            outcome.latencies_ms.append((window_end - window_start) * 1000.0)
            calls, cost = stack.spent()
            outcome.llm_calls += calls - calls_before
            outcome.cost_usd += cost - cost_before
            stats = stack.ctx.last_stats
            outcome.failed += (n_docs - written) + stats.total_dead_lettered() + stats.total_skipped()
            _check_extraction(outcome, stack, "ntsb", ntsb_records, NTSB_TRUTH)
            _check_extraction(outcome, stack, "earnings", earn_records, EARNINGS_TRUTH)
            # Same inputs, so every repeat must spend exactly the same.
            spent = (calls - calls_before, round(cost - cost_before, 9))
            first_spent = first_spent or spent
            outcome.require(spent == first_spent, f"repeat spent {spent}, the first {first_spent}")
        finally:
            stack.retire(outcome)
    return outcome


# ----------------------------------------------------------------------
# query_inproc
# ----------------------------------------------------------------------

_GRADE_SCORE = {Grade.CORRECT: 1.0, Grade.PLAUSIBLE: 0.5, Grade.INCORRECT: 0.0}


def _suite_pass(luna: Luna, suite: Sequence[Any]) -> Tuple[List[Any], List[float], int]:
    """One pass over the suite: (answers, latencies in ms, failures)."""
    answers: List[Any] = []
    latencies: List[float] = []
    failures = 0
    for question in suite:
        started = time.perf_counter()
        try:
            result = luna.query(question.question, index=question.index)
            answer, partial = result.answer, result.partial
        except Exception as exc:  # a query that raises has failed, the pass goes on
            answer, partial = f"{type(exc).__name__}: {exc}", True
        latencies.append((time.perf_counter() - started) * 1000.0)
        answers.append(answer)
        failures += 1 if partial else 0
    return answers, latencies, failures


def query_inproc(seed: int, seconds: float, sizes: Sizes, traced: bool) -> Outcome:
    """The 18-question suite, pass after pass, on one long-lived context."""
    outcome = Outcome(unit="query", at_reference_speed=True, pooled_throughput=True)
    stack: Optional[Stack] = None
    try:
        for k in range(sizes.setups):
            if stack is not None:
                stack.retire(outcome)
                stack = None
            gc.collect()
            outcome.pace()
            started = time.perf_counter()
            # Each set-up has a corpus of its own: answers are graded on
            # all of them, the timed passes run on the last.
            corpus_seed = 2 * (seed * sizes.setups + k)
            ntsb_records, ntsb_raws = generate_ntsb_corpus(sizes.query_ntsb, seed=corpus_seed)
            earn_records, earn_raws = generate_earnings_corpus(
                sizes.query_earnings, seed=corpus_seed + 1
            )
            stack = build_stack(parallelism=CPU_BOUND_PARALLELISM, latency_scale=0.0, traced=traced)
            stack.ingest(ntsb_raws, NTSB_SCHEMA, "ntsb")
            stack.ingest(earn_raws, EARNINGS_SCHEMA, "earnings")
            suite = build_full_suite(ntsb_records, earn_records)
            luna = Luna(stack.ctx)
            # The warm-up pass also fixes the answers every timed pass
            # must repeat.
            reference, _, _ = _suite_pass(luna, suite)
            outcome.setup_s.append(time.perf_counter() - started)
            for question, answer in zip(suite, reference):
                outcome.checks_total += 1
                outcome.checks_passed += _GRADE_SCORE[grade_answer(question, answer).grade]

        scan_slots = [i for i, q in enumerate(suite) if q.qid in SCAN_QUESTIONS]
        calls_before, cost_before = stack.spent()
        while outcome.more_repeats(seconds, sizes):
            window_start, cpu_start = time.monotonic(), time.process_time()
            answers, latencies, failures = _suite_pass(luna, suite)
            window_end, cpu_end = time.monotonic(), time.process_time()
            outcome.add_repeat([(window_start, window_end)], len(suite), cpu_end - cpu_start)
            outcome.latencies_ms.extend(latencies[i] for i in scan_slots)
            outcome.failed += failures
            outcome.require(
                repr(answers) == repr(reference), "a timed pass answered unlike the warm-up pass"
            )
        calls, cost = stack.spent()
        outcome.llm_calls = calls - calls_before
        outcome.cost_usd = cost - cost_before
    finally:
        if stack is not None:
            stack.retire(outcome)
    return outcome


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------


def serve_schedule(seed: int, repeat: int, client: int, sizes: Sizes) -> List[Tuple[str, Any]]:
    """One client's ops for one repeat.

    Where each kind of op goes is the same for every seed: hot slots are
    dealt round-robin from a deck of six, and the two clients' ingests
    are staggered evenly (client 0 at 1/5 and 3/5 of its ops, client 1 at
    2/5 and 4/5), so that between any two ingests every hot question is
    asked many times whatever the thread timing. The pattern of cache
    hits and misses, and with it the work, then depends on neither the
    seed nor the interleaving. The seed decides which hot question each
    deck position is, which distinct questions are asked and what is
    ingested.
    """
    shape = random.Random(f"shape-{repeat}-{client}")
    content = random.Random(f"serve-{seed}-{repeat}-{client}")
    n_ops = sizes.serve_ops_per_client
    n_hot = round(HOT_SHARE * n_ops)
    n_ingest = sizes.serve_ingests_per_client
    causes = [detail.replace("_", " ") for details in CAUSE_TAXONOMY.values() for detail, _ in details]
    pairs = [(state, cause) for state in sorted(US_STATES) for cause in causes]
    # Clients draw from disjoint halves, so no distinct question repeats.
    distinct = [
        f"How many incidents in {state} were caused by {cause}?"
        for state, cause in content.sample(pairs[client::2], n_ops - n_hot - n_ingest)
    ]
    deck = content.sample(HOT_QUESTIONS, len(HOT_QUESTIONS))
    reads: List[Tuple[str, Any]] = [("hot", deck[i % len(deck)]) for i in range(n_hot)]
    reads += [("distinct", question) for question in distinct]
    shape.shuffle(reads)
    n_reads = len(reads)
    for k in range(n_ingest):
        position = n_reads * (2 * k + client + 1) // (2 * n_ingest + 1) + k
        reads.insert(position, ("ingest", 1000 * seed + 100 * repeat + 10 * client + k))
    return reads


@dataclass
class _Served:
    kind: str
    client_ms: float
    ok: bool
    payload: Dict[str, Any]


def _replay(
    client: GatewayClient,
    name: str,
    ops: List[Tuple[str, Any]],
    sizes: Sizes,
    tracer: Optional[Tracer],
    sink: List[_Served],
) -> None:
    def send(kind: str, argument: Any, request_id: str) -> Dict[str, Any]:
        if kind == "ingest":
            return client.ingest("ntsb", index="ntsb", docs=sizes.serve_ingest_docs, seed=argument)
        return client.query(argument, index="ntsb", request_id=request_id)

    for position, (kind, argument) in enumerate(ops):
        request_id = f"{name}-{position}"
        started = time.perf_counter()
        try:
            if tracer is None:
                payload = send(kind, argument, request_id)
            else:
                with tracer.span(
                    "bench:request", kind="bench.request", parent=None, request_id=request_id
                ):
                    payload = send(kind, argument, request_id)
            ok = True
        except GatewayError as exc:
            payload, ok = {"status": exc.status}, False
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        sink.append(_Served(kind, elapsed_ms, ok, payload))


def _as_served(answer: Any) -> Any:
    """An in-process answer in the shape the JSON response gives it."""
    return json.loads(json.dumps(answer, default=str))


def serve_mixed(seed: int, seconds: float, sizes: Sizes, traced: bool) -> Outcome:
    """Two HTTP clients replay a mixed read/write schedule on a gateway."""
    outcome = Outcome(unit="request")
    while outcome.more_repeats(seconds, sizes):
        schedules = [serve_schedule(seed, len(outcome.windows), c, sizes) for c in range(2)]
        n_ops = sum(len(ops) for ops in schedules)
        gc.collect()
        started = time.perf_counter()
        _, raws = generate_ntsb_corpus(sizes.serve_docs, seed=2 * seed)
        stack = build_stack(parallelism=4, latency_scale=SERVE_LATENCY_SCALE, traced=traced)
        gateway: Optional[Gateway] = None
        try:
            stack.ingest(raws, NTSB_SCHEMA, "ntsb")
            service = QueryService(stack.ctx, ServiceConfig(max_workers=2))
            gateway = Gateway(service).start()
            clients = [GatewayClient(gateway.host, gateway.port) for _ in schedules]
            # Warm the socket path and the service's per-thread Luna with
            # a question the schedule never asks.
            clients[0].health()
            clients[0].query("How many incidents happened in 2021?", index="ntsb")
            outcome.setup_s.append(time.perf_counter() - started)

            served: List[List[_Served]] = [[] for _ in schedules]
            tracer = stack.ctx.tracer if traced else None
            threads = [
                threading.Thread(
                    target=_replay,
                    args=(clients[i], f"r{len(outcome.windows)}c{i}", ops, sizes, tracer, served[i]),
                    name=f"bench-client-{i}",
                )
                for i, ops in enumerate(schedules)
            ]
            calls_before, cost_before = stack.spent()
            window_start, cpu_start = time.monotonic(), time.process_time()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            window_end, cpu_end = time.monotonic(), time.process_time()
            calls, cost = stack.spent()

            outcome.add_repeat([(window_start, window_end)], n_ops, cpu_end - cpu_start)
            outcome.llm_calls += calls - calls_before
            outcome.cost_usd += cost - cost_before
            responses = [response for sink in served for response in sink]
            outcome.require(len(responses) == n_ops, "a client thread stopped early")
            for response in responses:
                outcome.checks_total += 1
                outcome.checks_passed += 1 if response.ok else 0
                outcome.failed += 0 if response.ok else 1
                outcome.count("gateway.responses_non2xx", 0 if response.ok else 1)
                if not response.ok:
                    continue
                cache = response.payload.get("result_cache")
                if response.kind == "hot" and cache == "miss":
                    outcome.latencies_ms.append(response.client_ms)
                elif response.kind == "hot" and cache == "hit":
                    outcome.samples.setdefault("hit_ms", []).append(response.client_ms)
                elif response.kind != "hot":
                    outcome.samples.setdefault(f"{response.kind}_ms", []).append(response.client_ms)

            # After load stops, each hot question served over the socket
            # must equal the same question answered with every cache
            # bypassed: a stale result cache shows here.
            bypass = Luna(
                stack.ctx, policy=service.config.policy, error_policy=service.config.error_policy
            )
            for question in HOT_QUESTIONS:
                over_socket = clients[0].query(question, index="ntsb")["answer"]
                direct = _as_served(bypass.query(question, index="ntsb").answer)
                outcome.checks_total += 1
                outcome.checks_passed += 1 if over_socket == direct else 0
                outcome.require(over_socket == direct, f"served answer is stale: {question}")

            stats = service.stats()
            for cache in ("result_cache", "plan_cache"):
                outcome.count(f"serving.{cache}_hits", stats[cache]["hits"])
                outcome.count(
                    f"serving.{cache}_lookups",
                    stats[cache]["hits"] + stats[cache]["misses"] + stats[cache]["coalesced"],
                )
            outcome.count("serving.rejected", stats["rejected"])
        finally:
            # Clients hold no connection between requests; the gateway
            # stops accepting and then drains and closes the service.
            if gateway is not None:
                gateway.close()
            stack.retire(outcome)
    outcome.require(outcome.failed == 0, f"{outcome.failed} responses were not 2xx")
    return outcome


# ----------------------------------------------------------------------
# cluster_scatter
# ----------------------------------------------------------------------


def _docset_lines(documents: Sequence[Any]) -> List[str]:
    return [document.to_json() for document in documents]


def cluster_scatter(seed: int, seconds: float, sizes: Sizes, traced: bool) -> Outcome:
    """Scatter an LLM extract over two worker processes and gather."""
    outcome = Outcome(unit="document")
    # Every segment gets a corpus of its own, so no worker-side LLM
    # cache ever helps.
    corpus_seeds = iter(range(1000 * seed, 1000 * seed + 1000))
    reference: Optional[Tuple[List[Any], List[str]]] = None
    while outcome.more_repeats(seconds, sizes):
        gc.collect()
        started = time.perf_counter()
        cpu_start = _cpu_all_processes()
        tracer = Tracer() if traced else None
        coordinator = ClusterCoordinator(CLUSTER_CONFIG, tracer=tracer, registry=MetricsRegistry())
        windows: List[Tuple[float, float]] = []
        try:
            # The warm-up segment absorbs worker spawn and first imports.
            warm = generate_bench_corpus(max(8, sizes.cluster_docs // 3), seed=next(corpus_seeds))
            coordinator.run_segment(warm, EXTRACT_SPEC)
            outcome.setup_s.append(time.perf_counter() - started)
            for _ in range(sizes.cluster_segments):
                documents = generate_bench_corpus(sizes.cluster_docs, seed=next(corpus_seeds))
                window_start = time.monotonic()
                run = coordinator.run_segment(documents, EXTRACT_SPEC)
                window_end = time.monotonic()
                windows.append((window_start, window_end))
                outcome.latencies_ms.append((window_end - window_start) * 1000.0)
                outcome.llm_calls += run.llm_calls
                outcome.cost_usd += run.cost_usd
                outcome.failed += (
                    len(documents) - len(run.documents) + run.dead_lettered + run.skipped
                )
                outcome.require(run.status == "ok", f"segment status {run.status}")
                outcome.count("cluster.shard_retries", run.retried_shards)
                outcome.count("cluster.worker_deaths", run.worker_deaths)
                if reference is None:
                    reference = (documents, _docset_lines(run.documents))
        finally:
            coordinator.close()
        # Workers are reaped by close(), so this is the CPU of the
        # coordinator and both workers over the coordinator's life, and
        # it is shared among all documents scattered, the warm-up's too.
        timed_docs = sizes.cluster_segments * sizes.cluster_docs
        outcome.add_repeat(
            windows, timed_docs, _cpu_all_processes() - cpu_start, cpu_units=timed_docs + len(warm)
        )
        if tracer is not None:
            outcome.count("observability.spans", len(tracer.spans()))
            outcome.count("observability.dropped_spans", tracer.dropped_spans)
            outcome.spans.extend(span_rows(tracer.spans(), f"{len(outcome.repeat_wall_s)}:"))

    # The first timed segment again, in this process, on the worker's own
    # stack: the cluster's output must be byte-identical to it.
    documents, clustered = reference
    local = build_worker_context(CLUSTER_CONFIG.worker_config())
    try:
        local_documents, _ = run_spec_locally(local, documents, EXTRACT_SPEC)
    finally:
        if local.scheduler is not None:
            local.scheduler.close(drain=False)
        local.close()
    local_lines = _docset_lines(local_documents)
    outcome.checks_total += len(local_lines)
    outcome.checks_passed += sum(1 for a, b in zip(clustered, local_lines) if a == b)
    outcome.require(clustered == local_lines, "cluster output differs from run_spec_locally")
    return outcome


WORKLOADS: Dict[str, Callable[[int, float, Sizes, bool], Outcome]] = {
    "etl_ingest": etl_ingest,
    "query_inproc": query_inproc,
    "serve_mixed": serve_mixed,
    "cluster_scatter": cluster_scatter,
}
