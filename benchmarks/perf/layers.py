"""Layer microbenches: what each layer costs on its own.

Each times calls into one layer's public functions on a zero-latency
backend, so the number is this program's own CPU per document, per call
or per request. They run after the traced workload run and do not depend
on the workload; the inputs come from the seed.
"""

from __future__ import annotations

import copy
import pickle
import shutil
import time
from typing import Any, Callable, Dict, List, Sequence

from repro.cluster import ClusterCoordinator
from repro.cluster.bench import generate_bench_corpus
from repro.cluster.worker import build_worker_context, run_spec_locally
from repro.datagen import build_full_suite, generate_earnings_corpus, generate_ntsb_corpus
from repro.docmodel import Document
from repro.embedding.embedder import HashingEmbedder
from repro.gateway import Gateway, GatewayClient
from repro.indexes.catalog import IndexCatalog
from repro.lifecycle import QueryJournal
from repro.llm.base import LLMClient, LLMResponse
from repro.llm.client import ReliableLLM
from repro.llm.knowledge import CONCEPT_KEYWORDS, text_matches_concept
from repro.llm.simulated import SimulatedLLM
from repro.luna import Luna
from repro.luna.executor import PlanExecutionError
from repro.observability import CostAccount
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer
from repro.partitioner import ArynPartitioner
from repro.runtime import Priority, RequestScheduler, ScheduledLLM
from repro.serving import QueryService, ServiceConfig
from repro.sycamore import SycamoreContext

from common import OUT_DIR, Sizes, median, per
from workloads import (
    CLUSTER_CONFIG,
    EARNINGS_SCHEMA,
    EXTRACT_SPEC,
    HOT_QUESTIONS,
    NTSB_SCHEMA,
    Outcome,
    Stack,
    build_stack,
    serve_schedule,
)

ROUNDS = 3


def _wall(fn: Callable[[], Any]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _median_wall(fn: Callable[[], Any]) -> float:
    """Median wall of ``ROUNDS`` calls."""
    return median([_wall(fn) for _ in range(ROUNDS)])


def _each_ms(fn: Callable[[Any], Any], items: Sequence[Any]) -> List[float]:
    return [_wall(lambda: fn(item)) * 1000.0 for item in items]


def _text(document: Document) -> str:
    return document.text_representation() or document.text


# ----------------------------------------------------------------------
# partitioner, embedding, indexes, docmodel, knowledge, execution
# ----------------------------------------------------------------------


def document_layers(seed: int, sizes: Sizes) -> Dict[str, float]:
    n = max(6, int(60 * sizes.micro_scale))
    _, ntsb_raws = generate_ntsb_corpus(n, seed=2 * seed)
    _, earn_raws = generate_earnings_corpus(n, seed=2 * seed + 1)
    partitioner = ArynPartitioner(seed=0)
    metrics: Dict[str, float] = {}
    documents: List[Document] = []
    for name, raws in (("ntsb", ntsb_raws), ("earnings", earn_raws)):
        started = time.perf_counter()
        parsed = [partitioner.partition(raw) for raw in raws]
        metrics[f"partitioner.ms_per_doc.{name}"] = (time.perf_counter() - started) * 1000.0 / n
        documents += parsed
    texts = [_text(document) for document in documents]

    embedder = HashingEmbedder(seed=0)
    metrics["embedding.us_per_text"] = _wall(lambda: embedder.embed_many(texts)) * 1e6 / len(texts)

    index = IndexCatalog(embedder=HashingEmbedder(seed=0)).create("bench")
    metrics["indexes.write_ms_per_doc"] = (
        _wall(lambda: index.add_documents(documents)) * 1000.0 / len(documents)
    )
    metrics["indexes.scan_ms"] = _median_wall(index.all_documents) * 1000.0
    metrics["indexes.search_ms_p50"] = median(
        _each_ms(lambda query: index.search_hybrid(query, k=10), HOT_QUESTIONS * ROUNDS)
    )

    metrics["docmodel.roundtrip_us_per_doc"] = (
        _median_wall(lambda: [Document.from_dict(d.to_dict()) for d in documents])
        * 1e6
        / len(documents)
    )
    metrics["docmodel.pickle_us_per_doc"] = (
        _median_wall(lambda: [pickle.loads(pickle.dumps(d)) for d in documents])
        * 1e6
        / len(documents)
    )
    metrics["docmodel.pickle_bytes_per_doc"] = per(
        sum(len(pickle.dumps(d)) for d in documents), len(documents)
    )

    concepts = sorted(CONCEPT_KEYWORDS)[:8]
    metrics["llm.knowledge_match_us"] = (
        _median_wall(lambda: [text_matches_concept(t, c) for t in texts for c in concepts])
        * 1e6
        / (len(texts) * len(concepts))
    )

    stack = build_stack(parallelism=2, latency_scale=0.0, traced=False)
    try:
        docset = stack.ctx.read.documents(documents).map(lambda d: d, name="identity")
        metrics["execution.docset_us_per_doc"] = (
            _median_wall(docset.take_all) * 1e6 / len(documents)
        )
    finally:
        stack.retire(Outcome(unit="document"))
    return metrics


# ----------------------------------------------------------------------
# llm client, request scheduler, DocSet LLM transforms
# ----------------------------------------------------------------------


class _PromptRecorder(LLMClient):
    """A backend that keeps the prompts it is asked, so the same prompts
    can be replayed against each layer below the DocSet."""

    def __init__(self, inner: LLMClient):
        self.inner = inner
        self.prompts: List[str] = []

    def complete(self, prompt: str, model: str = "sim-large", *args: Any, **kwargs: Any) -> LLMResponse:
        self.prompts.append(prompt)
        return self.inner.complete(prompt, model, *args, **kwargs)


def llm_layers(seed: int, sizes: Sizes) -> Dict[str, float]:
    n = max(6, int(60 * sizes.micro_scale))
    _, raws = generate_ntsb_corpus(n, seed=2 * seed)
    partitioner = ArynPartitioner(seed=0)
    documents = [partitioner.partition(raw) for raw in raws]
    registry = MetricsRegistry()
    sim = SimulatedLLM(seed=0)
    recorder = _PromptRecorder(sim)
    llm = ReliableLLM(recorder, cache_enabled=False, registry=registry)
    ctx = SycamoreContext(llm=llm, parallelism=1, registry=registry)
    schedulers: List[RequestScheduler] = []

    def scheduler(max_wait_ms: float) -> RequestScheduler:
        schedulers.append(RequestScheduler(client=llm, max_wait_ms=max_wait_ms, registry=registry))
        return schedulers[-1]

    try:
        docset = ctx.read.documents(documents).llm_filter(
            "the incident was caused by wind", model="sim-large"
        )
        docset.take_all()
        prompts = list(recorder.prompts)
        model = "sim-large"
        docset_s = _median_wall(docset.take_all)
        backend_s = _median_wall(lambda: [sim.complete(p, model) for p in prompts])
        client_s = _median_wall(lambda: [llm.complete(p, model) for p in prompts])
        eager = scheduler(max_wait_ms=0.0)
        scheduled_s = _median_wall(lambda: [eager.complete(p, model) for p in prompts])
        # An isolated call through the shipped default window pays the
        # whole window; a burst of the same calls fills batches instead.
        windowed = scheduler(max_wait_ms=2.0)
        lone_ms = median(_each_ms(lambda p: windowed.complete(p, model), prompts[:20]))
        direct_ms = median(_each_ms(lambda p: llm.complete(p, model), prompts[:20]))
        burst = scheduler(max_wait_ms=2.0)
        ScheduledLLM(burst, Priority.BULK).complete_many(prompts, model=model)
        return {
            "llm.backend_us_per_call": backend_s * 1e6 / len(prompts),
            "llm.client_overhead_us_per_call": (client_s - backend_s) * 1e6 / len(prompts),
            "sycamore.llm_transform_overhead_us_per_doc": (docset_s - client_s) * 1e6 / n,
            "runtime.submit_us_per_call": (scheduled_s - client_s) * 1e6 / len(prompts),
            "runtime.lone_request_wait_ms_p50": lone_ms - direct_ms,
            "runtime.avg_batch_size": burst.stats().avg_batch_size(),
        }
    finally:
        for each in schedulers:
            each.close(drain=False)
        ctx.close()


# ----------------------------------------------------------------------
# luna, optimizer, lifecycle, observability, serving, gateway
# ----------------------------------------------------------------------


def _ask_suite(engine: Luna, suite: Sequence[Any], query_ids: bool = False) -> None:
    for i, question in enumerate(suite):
        try:
            engine.query(
                question.question,
                index=question.index,
                query_id=f"j{time.monotonic_ns()}-{i}" if query_ids else "",
            )
        except PlanExecutionError:
            # On a tiny corpus a percentage can divide by zero; the
            # workloads count such failures, here they are only not timed.
            continue


def _luna_layers(stack: Stack, suite: Sequence[Any], sizes: Sizes) -> Dict[str, float]:
    """Luna, optimizer, observability and journal, one query at a time."""
    tracer = stack.ctx.tracer
    luna = Luna(stack.ctx)
    metrics: Dict[str, float] = {}
    _ask_suite(luna, suite)  # warm-up
    first_trace = tracer.last_trace(kind="query")

    def rollup() -> None:
        CostAccount.from_spans(tracer.trace_spans(first_trace))

    metrics["observability.trace_rollup_ms_start"] = _median_wall(rollup) * 1000.0

    plan_ms: List[float] = []
    run_ms: List[float] = []
    optimize_us: List[float] = []
    by_class: Dict[str, List[float]] = {"scan": [], "selective": [], "structured": []}
    scan_s, scan_calls = 0.0, 0
    spans_before = len(tracer.spans())
    for _ in range(ROUNDS):
        for question in suite:
            index = stack.ctx.catalog.get(question.index)
            calls_before = stack.sim.calls
            started = time.perf_counter()
            session = luna.session(question.question, question.index)
            planned = time.perf_counter()
            try:
                session.run()
            except PlanExecutionError:
                continue
            finished = time.perf_counter()
            calls = stack.sim.calls - calls_before
            total_ms = (finished - started) * 1000.0
            plan_ms.append((planned - started) * 1000.0)
            run_ms.append((finished - planned) * 1000.0)
            # Beyond the planner's own call: none, a few, or one per document.
            if calls <= 1:
                by_class["structured"].append(total_ms)
            elif calls > len(index):
                by_class["scan"].append(total_ms)
                scan_s += finished - started
                scan_calls += calls
            else:
                by_class["selective"].append(total_ms)
            plan = copy.deepcopy(session.plan)
            optimize_us.append(
                _wall(
                    lambda: luna.optimizer.optimize_with_report(
                        plan, schema=index.schema, source_rows=float(len(index))
                    )
                )
                * 1e6
            )
    metrics["luna.plan_ms_p50"] = median(plan_ms)
    metrics["luna.run_ms_p50"] = median(run_ms)
    metrics["luna.us_per_llm_call"] = per(scan_s * 1e6, scan_calls)
    metrics["luna.selective_query_ms_p50"] = median(by_class["selective"])
    metrics["luna.structured_query_ms_p50"] = median(by_class["structured"])
    metrics["optimizer.optimize_us_p50"] = median(optimize_us)
    spans_per_query = (len(tracer.spans()) - spans_before) / (ROUNDS * len(suite))
    metrics["observability.spans_per_query"] = spans_per_query
    metrics["observability.trace_rollup_ms_end"] = _median_wall(rollup) * 1000.0

    scratch = Tracer()
    n_spans = max(200, int(5000 * sizes.micro_scale))

    def open_and_close_spans() -> None:
        for _ in range(n_spans):
            with scratch.span("bench:null", kind="internal"):
                pass

    span_us = _wall(open_and_close_spans) * 1e6 / n_spans
    metrics["observability.span_us"] = span_us
    query_us = median([p + r for p, r in zip(plan_ms, run_ms)]) * 1000.0
    metrics["observability.tax_share"] = per(spans_per_query * span_us, query_us)

    journal_dir = OUT_DIR / "journal"
    try:
        plain_s = _median_wall(lambda: _ask_suite(luna, suite))
        journaled = Luna(stack.ctx, journal=QueryJournal(journal_dir, registry=stack.ctx.registry))
        journaled_s = _median_wall(lambda: _ask_suite(journaled, suite, query_ids=True))
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)
    metrics["lifecycle.journal_overhead_share"] = per(journaled_s, plain_s) - 1.0
    return metrics


def _serving_layers(stack: Stack, seed: int, sizes: Sizes) -> Dict[str, float]:
    """QueryService in-process and Gateway over the socket, cache hits
    and paired misses."""
    luna = Luna(stack.ctx)
    gateway = Gateway(QueryService(stack.ctx, ServiceConfig(max_workers=2))).start()
    try:
        service = gateway.service
        client = GatewayClient(gateway.host, gateway.port)
        hot = HOT_QUESTIONS[0]
        n_requests = max(10, int(100 * sizes.micro_scale))
        service.query(hot, "ntsb")
        hit_ms = _each_ms(lambda _: service.query(hot, "ntsb"), range(n_requests))
        # Paired: the same never-seen question through the service (a
        # miss on both caches) and straight through Luna.
        distinct = [arg for kind, arg in serve_schedule(seed, 0, 0, sizes) if kind == "distinct"]
        overhead_ms = [
            _wall(lambda: service.query(question, "ntsb")) * 1000.0
            - _wall(lambda: luna.query(question, index="ntsb")) * 1000.0
            for question in distinct[:n_requests]
        ]
        null_ms = _each_ms(lambda _: client.health(), range(n_requests))
        gateway_ms = []
        for _ in range(n_requests):
            started = time.perf_counter()
            payload = client.query(hot, index="ntsb")
            gateway_ms.append((time.perf_counter() - started) * 1000.0 - payload["latency_ms"])
    finally:
        gateway.close()
    return {
        "serving.hit_ms_p50": median(hit_ms),
        "serving.overhead_ms_p50": median(overhead_ms),
        "gateway.null_request_ms_p50": median(null_ms),
        "gateway.overhead_ms_p50": median(gateway_ms),
    }


def query_layers(seed: int, sizes: Sizes) -> Dict[str, float]:
    n_ntsb = max(8, int(60 * sizes.micro_scale))
    n_earn = max(4, int(30 * sizes.micro_scale))
    ntsb_records, ntsb_raws = generate_ntsb_corpus(n_ntsb, seed=2 * seed)
    earn_records, earn_raws = generate_earnings_corpus(n_earn, seed=2 * seed + 1)
    stack = build_stack(parallelism=2, latency_scale=0.0, traced=False)
    try:
        stack.ingest(ntsb_raws, NTSB_SCHEMA, "ntsb")
        stack.ingest(earn_raws, EARNINGS_SCHEMA, "earnings")
        metrics = _luna_layers(stack, build_full_suite(ntsb_records, earn_records), sizes)
        metrics.update(_serving_layers(stack, seed, sizes))
    finally:
        stack.retire(Outcome(unit="query"))
    return metrics


# ----------------------------------------------------------------------
# cluster
# ----------------------------------------------------------------------


def cluster_layers(seed: int, sizes: Sizes) -> Dict[str, float]:
    n = max(16, int(300 * sizes.micro_scale))
    started = time.perf_counter()
    coordinator = ClusterCoordinator(CLUSTER_CONFIG, registry=MetricsRegistry())
    try:
        coordinator.run_segment(generate_bench_corpus(8, seed=1000 * seed + 900), EXTRACT_SPEC)
        spawn_s = time.perf_counter() - started
        corpora = [generate_bench_corpus(n, seed=1000 * seed + 901 + k) for k in range(ROUNDS)]
        segment_s = median([_wall(lambda: coordinator.run_segment(docs, EXTRACT_SPEC)) for docs in corpora])
    finally:
        coordinator.close()
    local = build_worker_context(CLUSTER_CONFIG.worker_config())
    try:
        local_s = _wall(lambda: run_spec_locally(local, corpora[-1], EXTRACT_SPEC))
    finally:
        if local.scheduler is not None:
            local.scheduler.close(drain=False)
        local.close()
    speedup = per(local_s, segment_s)
    return {
        "cluster.spawn_s": spawn_s,
        "cluster.speedup_vs_local_x": speedup,
        "cluster.efficiency": speedup / CLUSTER_CONFIG.n_workers,
    }


def run_layers(seed: int, sizes: Sizes) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for layer in (document_layers, llm_layers, query_layers, cluster_layers):
        metrics.update(layer(seed, sizes))
    return metrics
