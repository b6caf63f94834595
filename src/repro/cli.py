"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Build a synthetic NTSB corpus, run the Figure-3 ETL pipeline, and
    answer the paper's sample question (Figure 5) with a full explain.
``query``
    Ask an arbitrary natural-language question against a freshly-built
    corpus (``--dataset ntsb|earnings``).
``partition``
    Show the Aryn Partitioner's element inventory for one synthetic
    report (the Figure-2 view).
``chaos``
    Run a query while a seeded fault schedule batters the LLM backend
    (transient errors, rate limits, malformed output, an optional
    brownout window). Demonstrates failure containment: the run
    completes with a partial answer and a dead-letter report instead of
    crashing. All traffic flows through the shared request scheduler, so
    the report includes queue depth and dedup savings alongside the
    dead-letter counts. ``--kill-at N`` switches to the crash-recovery
    drill: a subprocess runs the query with a write-ahead journal and is
    killed hard right after node ``N`` checkpoints; the parent then
    resumes from the journal and verifies the resumed answer is
    byte-identical to an uninterrupted reference run while re-executing
    only the nodes past the last checkpoint. ``--workers N`` switches to
    the worker-kill drill: the query runs on an ``N``-worker cluster
    whose first shard is poisoned so its worker process dies mid-shard;
    the coordinator detects the death, retries the shard on a live peer,
    and the drill verifies the answer is byte-identical to a clean
    cluster run.
``cluster-stats``
    Run a query with a :class:`repro.cluster.ClusterCoordinator`
    attached to the context — so shardable LLM operators scatter across
    worker processes — and print the coordinator's shard/worker counters
    plus the ``cluster.*`` metrics registry.
``runtime-stats``
    Run the ETL build and a Luna query through the shared
    :class:`repro.runtime.RequestScheduler` and print its statistics —
    batch-size histogram, dedup hits, priority queue traffic, wait and
    service times.
``trace``
    Run a Luna query and print its span tree: query -> plan ->
    operators -> transforms -> LLM requests, each request line carrying
    its tokens, simulated dollars, cache/dedup provenance and scheduler
    batch link — plus the per-operator cost account. ``--json`` writes
    the same trace as a JSON document.
``metrics``
    Run the ETL build and a Luna query, then print the process-wide
    metrics registry (``--prefix`` filters, e.g. ``--prefix llm.``).
``serve``
    Stand up a :class:`repro.serving.QueryService` over a freshly-built
    corpus and serve questions through it — concurrently, with
    single-flight plan/result caching, per-tenant cost ledgers and
    admission control. ``--once`` runs a canned demonstration (repeated
    questions submitted concurrently, so the cache and coalescing
    behaviour is visible) and exits; otherwise questions are read from
    the command line or stdin.
``plan-explain``
    Run a query through the cost-based optimizer and print the
    optimizer report — the rewrites applied (predicate reorder,
    scan-filter folding, model selection, cascade annotation), the
    estimated cost before and after, and the actual cost observed —
    followed by the optimized plan. ``--policy cascade`` routes
    LLM filters/extracts through cheap-model-first cascades;
    ``--repeat N`` re-runs the question so the statistics store's
    learned selectivities feed back into later plans.
``lint``
    Run the project's static-analysis rules (``repro.analysis``) over
    source paths (default ``src``): each file is parsed once, and the
    single-file and whole-program rules (lock-order inversion, future
    escape, prompt taint) run on the same parse. Exits non-zero on any
    finding not suppressed inline; ``--json`` emits the report for CI.
``plancheck``
    Statically validate a Luna logical-plan JSON file (or stdin) —
    structure, arity, references, and, with ``--schema``, field-level
    dataflow — printing the full issue report.

All commands are offline and deterministic for a given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from . import ArynPartitioner, Luna, RequestScheduler, SycamoreContext
from .datagen import generate_earnings_corpus, generate_ntsb_corpus
from .faults import BrownoutWindow, FaultInjector, FaultSchedule
from .observability import get_registry, render_trace_tree, write_trace_json

_NTSB_SCHEMA = {
    "state": "string",
    "incident_year": "int",
    "weather_related": "bool",
    "injuries_fatal": "int",
}
_EARNINGS_SCHEMA = {
    "company": "string",
    "sector": "string",
    "revenue_musd": "float",
    "revenue_growth_pct": "float",
    "ceo_changed": "bool",
}


def _build_context(
    dataset: str,
    n_docs: int,
    seed: int,
    parallelism: int,
    scheduler: Optional[RequestScheduler] = None,
) -> SycamoreContext:
    ctx = SycamoreContext(parallelism=parallelism, seed=seed, scheduler=scheduler)
    if dataset == "ntsb":
        _, raws = generate_ntsb_corpus(n_docs, seed=seed)
        schema = _NTSB_SCHEMA
    else:
        _, raws = generate_earnings_corpus(n_docs, seed=seed)
        schema = _EARNINGS_SCHEMA
    (
        ctx.read.raw(raws)
        .partition(ArynPartitioner(seed=seed))
        .extract_properties(schema)
        .write.index(dataset)
    )
    return ctx


def _cmd_demo(args: argparse.Namespace) -> int:
    print(f"building {args.docs}-document NTSB corpus (seed {args.seed})...")
    ctx = _build_context("ntsb", args.docs, args.seed, args.parallelism)
    luna = Luna(ctx, policy=args.policy)
    result = luna.query(
        "What percent of environmentally caused incidents were due to wind?",
        index="ntsb",
    )
    print(result.explain())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    print(f"building {args.docs}-document {args.dataset} corpus (seed {args.seed})...")
    ctx = _build_context(args.dataset, args.docs, args.seed, args.parallelism)
    luna = Luna(ctx, policy=args.policy)
    result = luna.query(args.question, index=args.dataset)
    if args.explain:
        print(result.explain())
    else:
        print("plan:")
        print(result.optimized_plan.to_natural_language())
        print(f"\nanswer: {result.answer}")
        print(
            f"(LLM calls: {result.trace.total_llm_calls()}, "
            f"cost: ${result.trace.total_cost_usd():.4f})"
        )
    return 0


def _print_scheduler_stats(scheduler: RequestScheduler) -> None:
    m = scheduler.metrics()
    histogram = m.pop("batch_size_histogram")
    print("scheduler:")
    print(
        f"  admitted: {m['admitted']} (interactive+bulk)  "
        f"rejected: {m['rejected']}  dedup hits: {m['dedup_hits']}  "
        f"(upstream calls saved: {m['dedup_hits']})"
    )
    print(
        f"  completed: {m['completed']}  failed: {m['failed']}  "
        f"cancelled: {m['cancelled']}  "
        f"queue depth now: interactive={m['queue_depth_interactive']} "
        f"bulk={m['queue_depth_bulk']} (peak {m['peak_queue_depth']})"
    )
    print(
        f"  batches: {m['batches_dispatched']} "
        f"(avg size {m['avg_batch_size']})  "
        f"avg wait: {m['avg_wait_ms']}ms  avg service: {m['avg_service_ms']}ms  "
        f"starvation promotions: {m['starvation_promotions']}"
    )
    sizes = ", ".join(f"{size}x{count}" for size, count in histogram.items())
    print(f"  batch-size histogram: {sizes or '(empty)'}")


def _make_scheduler(args: argparse.Namespace) -> RequestScheduler:
    return RequestScheduler(
        max_batch_size=args.batch_size,
        max_wait_ms=args.max_wait_ms,
        max_queue_depth=args.queue_depth,
    )


def _print_registry(prefix: str = "") -> None:
    """Print the process metrics registry (the unified telemetry view)."""
    snapshot: Dict[str, Any] = get_registry().snapshot(prefix)
    if not snapshot:
        print("  (no metrics recorded)")
        return
    for name in sorted(snapshot):
        value = snapshot[name]
        if isinstance(value, dict):  # histogram summary
            print(
                f"  {name}: count={value['count']} mean={value['mean']:.4f} "
                f"p50={value['p50']:.4f} p90={value['p90']:.4f} "
                f"p99={value['p99']:.4f} max={value['max']:.4f}"
            )
        else:
            print(f"  {name}: {value:g}")


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.kill_child is not None:
        return _chaos_kill_child(args)
    if args.kill_at is not None:
        return _chaos_recovery_drill(args)
    if args.workers is not None:
        return _chaos_worker_kill_drill(args)
    print(f"building {args.docs}-document {args.dataset} corpus (seed {args.seed})...")
    scheduler = _make_scheduler(args)
    ctx = _build_context(
        args.dataset, args.docs, args.seed, args.parallelism, scheduler=scheduler
    )

    brownouts = [args.brownout] if args.brownout else []
    try:
        schedule = FaultSchedule(
            seed=args.fault_seed,
            transient_rate=args.transient_rate,
            rate_limit_rate=args.rate_limit_rate,
            malformed_rate=args.malformed_rate,
            brownouts=tuple(brownouts),
        )
    except ValueError as exc:
        print(f"repro chaos: error: {exc}", file=sys.stderr)
        scheduler.close()
        return 2
    injector = FaultInjector(schedule)
    # Inject between the reliability layer and the backend: the ETL build
    # above ran clean; only query-time traffic sees the weather. The
    # scheduler sits *above* the reliability layer, so queued requests
    # ride out the storm behind retries and the circuit breaker.
    ctx.llm.backend = injector.wrap_llm(ctx.llm.backend)

    luna = Luna(ctx, policy=args.policy, error_policy="dead_letter")
    result = luna.query(args.question, index=args.dataset)
    print("plan:")
    print(result.optimized_plan.to_natural_language())
    print(f"\nanswer: {result.answer}")
    print(f"partial: {result.partial}")
    print(f"faults: {injector.report()}")
    print(
        f"dead-lettered: {result.trace.total_dead_lettered()}  "
        f"skipped: {result.trace.total_skipped()}  "
        f"degraded operators: {len(result.trace.errors)}"
    )
    for line in result.trace.errors:
        print(f"  - {line}")
    print(f"llm metrics: {ctx.llm.metrics()}")
    _print_scheduler_stats(scheduler)
    print("\nmetrics registry (llm/scheduler/faults):")
    for prefix in ("llm.", "scheduler.", "faults."):
        _print_registry(prefix)
    if args.trace_json:
        spans = ctx.tracer.trace_spans(result.trace.trace_id)
        path = write_trace_json(args.trace_json, spans, result.trace.cost)
        print(f"\ntrace JSON written to {path}")
    scheduler.close()
    return 0


def _canonical_answer(result: Any) -> str:
    """Byte-comparable form of a LunaResult: the answer plus the document
    provenance, canonically serialized."""
    import json as json_module

    return json_module.dumps(
        {
            "answer": result.answer,
            "supporting_documents": sorted(result.trace.supporting_documents()),
        },
        sort_keys=True,
        default=repr,
    )


def _chaos_kill_child(args: argparse.Namespace) -> int:
    """Hidden child mode of the recovery drill: run the query under a
    write-ahead journal and die hard (``os._exit``) immediately after the
    requested node's checkpoint reaches disk. Fault injection is off —
    the drill proves checkpoint/resume identity, and injected faults
    would shift the backend call schedule between runs."""
    import os

    from .lifecycle import QueryJournal

    kill_after = args.kill_child
    scheduler = _make_scheduler(args)
    ctx = _build_context(
        args.dataset, args.docs, args.seed, args.parallelism, scheduler=scheduler
    )
    journal = QueryJournal(args.journal_dir)
    original = journal.node_complete

    def crashing_node_complete(
        query_id: str, index: int, operation: str, value: Any
    ) -> None:
        original(query_id, index, operation, value)
        if index >= kill_after:
            print(
                f"[child] crash after node {index} ({operation}) checkpointed",
                flush=True,
            )
            os._exit(137)

    journal.node_complete = crashing_node_complete  # type: ignore[method-assign]
    luna = Luna(ctx, policy=args.policy, error_policy="dead_letter", journal=journal)
    luna.query(args.question, index=args.dataset, query_id=args.query_id)
    print("[child] query completed without reaching the kill point", flush=True)
    scheduler.close()
    return 3


def _chaos_recovery_drill(args: argparse.Namespace) -> int:
    """Orchestrate the kill/resume proof: reference run, crashed
    subprocess, journal resume, byte-identity check."""
    import os
    import subprocess

    from .lifecycle import QueryJournal

    print(
        f"chaos recovery drill: kill after node {args.kill_at}, "
        f"journal at {args.journal_dir}/"
    )
    print(f"building {args.docs}-document {args.dataset} corpus (seed {args.seed})...")
    scheduler = _make_scheduler(args)
    ctx = _build_context(
        args.dataset, args.docs, args.seed, args.parallelism, scheduler=scheduler
    )
    luna = Luna(ctx, policy=args.policy, error_policy="dead_letter")
    reference = luna.query(args.question, index=args.dataset)
    ref_bytes = _canonical_answer(reference)
    total_nodes = reference.trace.nodes_executed
    print(f"reference run: {total_nodes} node(s), answer: {reference.answer!r}")

    child_cmd = [
        sys.executable,
        "-m",
        "repro",
        "chaos",
        args.question,
        "--kill-child",
        str(args.kill_at),
        "--journal-dir",
        str(args.journal_dir),
        "--query-id",
        args.query_id,
        "--dataset",
        args.dataset,
        "--docs",
        str(args.docs),
        "--seed",
        str(args.seed),
        "--parallelism",
        str(args.parallelism),
        "--policy",
        args.policy,
    ]
    proc = subprocess.run(
        child_cmd, capture_output=True, text=True, env=dict(os.environ), timeout=600
    )
    for line in proc.stdout.splitlines():
        if line.startswith("[child]"):
            print(line)
    if proc.returncode != 137:
        print(
            f"drill failed: child exited {proc.returncode}, expected the "
            f"simulated crash (137)",
            file=sys.stderr,
        )
        if proc.stderr:
            print(proc.stderr, file=sys.stderr)
        scheduler.close()
        return 1

    journal = QueryJournal(args.journal_dir)
    state = journal.load(args.query_id)
    print(
        f"journal: {len(state.completed)} checkpointed node(s), "
        f"last checkpoint node {state.last_checkpoint}"
    )
    resumed_luna = Luna(
        ctx, policy=args.policy, error_policy="dead_letter", journal=journal
    )
    resumed = resumed_luna.resume(args.query_id)
    res_bytes = _canonical_answer(resumed)
    identical = res_bytes == ref_bytes
    print(
        f"resumed: {resumed.trace.nodes_replayed} node(s) replayed from the "
        f"journal, {resumed.trace.nodes_executed} re-executed"
    )
    print(f"resumed answer: {resumed.answer!r}")
    print(f"byte-identical to reference: {identical}")
    if args.trace_json:
        spans = ctx.tracer.trace_spans(resumed.trace.trace_id)
        path = write_trace_json(args.trace_json, spans, resumed.trace.cost)
        print(f"resume trace JSON written to {path}")
    scheduler.close()
    return 0 if identical else 1


def _chaos_worker_kill_drill(args: argparse.Namespace) -> int:
    """The cluster chaos drill: kill a worker process mid-shard and prove
    the coordinator's death detection + peer retry keeps the answer
    byte-identical to a clean cluster run."""
    from .cluster import ClusterConfig, ClusterCoordinator

    print(
        f"chaos worker-kill drill: {args.workers} workers, shard 0 poisoned "
        f"so its worker dies mid-shard..."
    )
    print(f"building {args.docs}-document {args.dataset} corpus (seed {args.seed})...")
    ctx = _build_context(args.dataset, args.docs, args.seed, args.parallelism)
    luna = Luna(ctx, policy=args.policy, error_policy="dead_letter")

    reference_config = ClusterConfig(n_workers=args.workers, seed=args.seed)
    with ClusterCoordinator(
        reference_config, tracer=ctx.tracer, registry=ctx.registry
    ) as reference_cluster:
        ctx.cluster = reference_cluster
        reference = luna.query(args.question, index=args.dataset)
    ref_bytes = _canonical_answer(reference)
    print(f"reference cluster run: answer {reference.answer!r}")

    chaos_config = ClusterConfig(
        n_workers=args.workers, seed=args.seed, chaos_kill_shard=0
    )
    with ClusterCoordinator(
        chaos_config, tracer=ctx.tracer, registry=ctx.registry
    ) as chaos_cluster:
        ctx.cluster = chaos_cluster
        result = luna.query(args.question, index=args.dataset)
        stats = chaos_cluster.stats()
    ctx.cluster = None
    res_bytes = _canonical_answer(result)
    identical = res_bytes == ref_bytes

    print(f"chaos run answer: {result.answer!r}")
    print(
        f"worker deaths: {stats['worker_deaths']}  "
        f"shard retries: {stats['shards']['retried']}  "
        f"shards completed: {stats['shards']['completed']}  "
        f"workers alive after heal: {stats['workers']['alive']}"
        f"/{stats['workers']['configured']}"
    )
    print(f"byte-identical to clean run: {identical}")
    print("\nmetrics registry (cluster):")
    _print_registry("cluster.")
    if args.trace_json:
        spans = ctx.tracer.trace_spans(result.trace.trace_id)
        path = write_trace_json(args.trace_json, spans, result.trace.cost)
        print(f"\ntrace JSON written to {path}")
    survived = identical and stats["worker_deaths"] >= 1
    if stats["worker_deaths"] < 1:
        print("drill failed: no worker death was observed", file=sys.stderr)
    return 0 if survived else 1


def _cmd_cluster_stats(args: argparse.Namespace) -> int:
    from .cluster import ClusterConfig, ClusterCoordinator

    print(f"building {args.docs}-document {args.dataset} corpus (seed {args.seed})...")
    ctx = _build_context(args.dataset, args.docs, args.seed, args.parallelism)
    config = ClusterConfig(
        n_workers=args.workers,
        shards_per_worker=args.shards_per_worker,
        seed=args.seed,
    )
    with ClusterCoordinator(
        config, tracer=ctx.tracer, registry=ctx.registry
    ) as cluster:
        ctx.cluster = cluster
        luna = Luna(ctx, policy=args.policy)
        result = luna.query(args.question, index=args.dataset)
        stats = cluster.stats()
    ctx.cluster = None
    print(f"\nanswer: {result.answer}")
    print(
        f"(LLM calls: {result.trace.total_llm_calls()}, "
        f"cost: ${result.trace.total_cost_usd():.4f})"
    )
    print(
        f"\ncluster: {stats['workers']['alive']}/{stats['workers']['configured']} "
        f"workers alive, {stats['shards']['per_segment']} shards per segment"
    )
    print(
        f"  segments: {stats['segments']}  "
        f"shards completed: {stats['shards']['completed']}  "
        f"reused: {stats['shards']['reused']}  "
        f"retried: {stats['shards']['retried']}  "
        f"worker deaths: {stats['worker_deaths']}"
    )
    tenant = stats["tenant"]
    print(
        f"  admission: {tenant['submitted']} segment(s) admitted, "
        f"{tenant['rejected']} shed (cluster_busy)"
    )
    print("\nmetrics registry (cluster):")
    _print_registry("cluster.")
    return 0


def _cmd_runtime_stats(args: argparse.Namespace) -> int:
    print(f"building {args.docs}-document {args.dataset} corpus (seed {args.seed})...")
    scheduler = _make_scheduler(args)
    ctx = _build_context(
        args.dataset, args.docs, args.seed, args.parallelism, scheduler=scheduler
    )
    after_etl = scheduler.metrics()
    luna = Luna(ctx, policy=args.policy)
    result = luna.query(args.question, index=args.dataset)
    print(f"\nanswer: {result.answer}")
    print(
        f"\nETL (BULK) traffic: {after_etl['admitted']} requests in "
        f"{after_etl['batches_dispatched']} batches "
        f"(avg size {after_etl['avg_batch_size']})"
    )
    query_admitted = scheduler.metrics()["admitted"] - after_etl["admitted"]
    print(f"query (INTERACTIVE) traffic: {query_admitted} requests")
    versions = ", ".join(
        f"{name}@{version}" for name, version in sorted(ctx.catalog.versions().items())
    )
    print(
        f"catalog version: {ctx.catalog.version()} ({versions or 'no indexes'})"
    )
    _print_scheduler_stats(scheduler)
    print("\nmetrics registry (full):")
    _print_registry()
    scheduler.close()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    print(f"building {args.docs}-document {args.dataset} corpus (seed {args.seed})...")
    scheduler = _make_scheduler(args)
    ctx = _build_context(
        args.dataset, args.docs, args.seed, args.parallelism, scheduler=scheduler
    )
    luna = Luna(ctx, policy=args.policy)
    result = luna.query(args.question, index=args.dataset)
    spans = ctx.tracer.trace_spans(result.trace.trace_id)
    print(f"\nanswer: {result.answer}")
    print(f"\ntrace {result.trace.trace_id} ({len(spans)} spans):")
    print(render_trace_tree(spans, max_spans=args.max_spans))
    print("\ncost account:")
    print(result.trace.cost.render())
    if args.json:
        path = write_trace_json(args.json, spans, result.trace.cost)
        print(f"\ntrace JSON written to {path}")
    scheduler.close()
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    print(f"building {args.docs}-document {args.dataset} corpus (seed {args.seed})...")
    scheduler = _make_scheduler(args)
    ctx = _build_context(
        args.dataset, args.docs, args.seed, args.parallelism, scheduler=scheduler
    )
    luna = Luna(ctx, policy=args.policy)
    result = luna.query(args.question, index=args.dataset)
    print(f"\nanswer: {result.answer}")
    prefix = args.prefix
    print(f"\nmetrics registry{f' (prefix {prefix!r})' if prefix else ''}:")
    _print_registry(prefix)
    scheduler.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serving import Overloaded, QueryService, ServiceConfig

    print(f"building {args.docs}-document {args.dataset} corpus (seed {args.seed})...")
    ctx = _build_context(args.dataset, args.docs, args.seed, args.parallelism)
    config = ServiceConfig(
        max_workers=args.workers,
        max_queue_depth=args.service_queue_depth,
        policy=args.policy,
    )
    if args.port is not None:
        return _serve_gateway(args, ctx, config)
    default_question = "How many incidents were caused by wind?"
    if args.once:
        # The canned demo: the same question submitted concurrently (one
        # plan, one execution, N answers), then a rephrasing (result-cache
        # hit) and a distinct question (a genuine miss).
        questions = [default_question] * 3 + [
            "how many incidents were caused by wind",
            "How many incidents had fatal injuries?",
        ]
    elif args.questions:
        questions = list(args.questions)
    else:
        questions = [line.strip() for line in sys.stdin if line.strip()]
        if not questions:
            questions = [default_question]
    with QueryService(ctx, config) as service:
        session = service.open_session(tenant=args.tenant, index=args.dataset)
        tickets = []
        for question in questions:
            try:
                tickets.append(service.submit(question, session=session))
            except Overloaded as exc:
                print(
                    f"  shed ({exc.reason}, retry after "
                    f"{exc.retry_after_s:.2f}s): {question}"
                )
        for ticket in tickets:
            served = ticket.result(timeout=300)
            print(
                f"[{served.query_id}] {served.question}\n"
                f"  answer: {served.answer}\n"
                f"  plan cache: {served.plan_cache}  "
                f"result cache: {served.result_cache}  "
                f"spent ${served.cost_usd:.4f}  saved ${served.saved_usd:.4f}  "
                f"{served.latency_s * 1000:.0f}ms"
            )
        print()
        print(session.render())
        stats = service.stats()
        print(
            f"\nservice: {stats['completed']} completed, "
            f"{stats['rejected']} shed, "
            f"{stats['plans_computed']} plans computed, "
            f"{stats['executions']} executions, "
            f"plan cache {stats['plan_cache']['hit_rate']:.0%} hit, "
            f"result cache {stats['result_cache']['hit_rate']:.0%} hit"
        )
        ledger = service.tenant_account(args.tenant)
        print(
            f"tenant {args.tenant!r}: spent ${ledger.cost_usd:.4f}, "
            f"saved ${ledger.saved_usd:.4f} via serving caches"
        )
    return 0


def _serve_gateway(args: argparse.Namespace, ctx: Any, config: Any) -> int:
    """``serve --port N``: a real HTTP server in front of QueryService.

    Binds (port 0 = ephemeral), optionally writes the bound port to
    ``--port-file`` so scripts can discover it, then blocks until
    SIGTERM/SIGINT and drains gracefully (every admitted query finishes
    before exit).
    """
    from .gateway import Gateway, GatewayConfig
    from .serving import QueryService

    tokens = dict(pair.split("=", 1) for pair in args.token or [])
    gateway = Gateway(
        QueryService(ctx, config),
        GatewayConfig(
            host=args.host,
            port=args.port,
            tokens=tokens or None,
            rate_per_s=args.rate,
            log_sink=print if args.access_log else None,
        ),
    ).start()
    gateway.install_signal_handlers()
    print(f"gateway listening on http://{gateway.host}:{gateway.port}")
    print(f"  POST /v1/query {{'question': ..., 'index': {args.dataset!r}}}")
    print("  GET  /ops/health /ops/metrics /ops/stats ...  (SIGTERM drains)")
    if args.port_file:
        from pathlib import Path

        Path(args.port_file).write_text(str(gateway.port), encoding="utf-8")
    try:
        gateway.wait_for_shutdown()
    finally:
        print("draining gateway...")
        gateway.close(drain=True)
        print("gateway closed")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    _, raws = generate_ntsb_corpus(1, seed=args.seed)
    doc = ArynPartitioner(seed=args.seed).partition(raws[0])
    print(f"document {doc.doc_id}: {len(doc.elements)} elements")
    for element in doc.elements:
        preview = element.text_representation().replace("\n", " ")[:64]
        page = f"p{element.page}" if element.page is not None else "--"
        print(f"  [{page}] {element.type:<15} {preview}")
    return 0


def _parse_brownout(value: str) -> BrownoutWindow:
    start, sep, end = value.partition(":")
    try:
        if not sep:
            raise ValueError
        return BrownoutWindow(int(start), int(end))
    except ValueError as exc:
        detail = f" ({exc})" if str(exc) else ""
        raise argparse.ArgumentTypeError(
            f"expected START:END call-index window, e.g. 5:25; got {value!r}{detail}"
        ) from None


def _cmd_plan_explain(args: argparse.Namespace) -> int:
    from .optimizer import StatsStore

    print(f"building {args.docs}-document {args.dataset} corpus (seed {args.seed})...")
    ctx = _build_context(args.dataset, args.docs, args.seed, args.parallelism)
    stats = StatsStore(path=args.stats, registry=ctx.registry)
    luna = Luna(ctx, policy=args.policy, stats_store=stats)
    for run in range(max(1, args.repeat)):
        result = luna.query(args.question, index=args.dataset)
        if args.repeat > 1:
            print(f"\n=== run {run + 1}/{args.repeat} ===")
        print()
        print(result.trace.optimizer_report.render())
        print("\noptimized plan:")
        print(result.optimized_plan.to_natural_language())
        print(f"\nanswer: {result.answer}")
        print(
            f"(LLM calls: {result.trace.total_llm_calls()}, "
            f"cost: ${result.trace.total_cost_usd():.4f})"
        )
    if args.stats:
        stats.save()
        print(f"\nstatistics saved to {args.stats}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json

    from .analysis import lint_paths

    report = lint_paths(args.paths or ["src"])
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_plancheck(args: argparse.Namespace) -> int:
    import json as _json

    from .analysis import check_plan
    from .luna.operators import LogicalPlan, PlanValidationError

    if args.plan == "-":
        payload = sys.stdin.read()
    else:
        with open(args.plan, "r", encoding="utf-8") as handle:
            payload = handle.read()
    schema = None
    if args.schema:
        with open(args.schema, "r", encoding="utf-8") as handle:
            schema = _json.load(handle)
        # Accept both a bare field map and a schema_for_planner payload.
        if isinstance(schema, dict) and "fields" in schema:
            schema = schema["fields"]
    try:
        plan = LogicalPlan.from_json(payload)
    except (PlanValidationError, _json.JSONDecodeError) as exc:
        print(f"plan does not parse: {exc}")
        return 1
    report = check_plan(plan, schema=schema)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the Aryn LLM-powered unstructured analytics system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="corpus/model seed")
        p.add_argument("--docs", type=int, default=60, help="corpus size")
        p.add_argument("--parallelism", type=int, default=4)
        p.add_argument(
            "--policy",
            choices=("quality", "balanced", "cost", "cascade"),
            default="balanced",
            help="optimizer policy",
        )

    demo = sub.add_parser("demo", help="run the paper's Figure 3 + Figure 5 demo")
    common(demo)
    demo.set_defaults(handler=_cmd_demo)

    query = sub.add_parser("query", help="ask a natural-language question")
    common(query)
    query.add_argument("question", help="the natural-language question")
    query.add_argument(
        "--dataset", choices=("ntsb", "earnings"), default="ntsb"
    )
    query.add_argument(
        "--explain", action="store_true", help="print the full audit trail"
    )
    query.set_defaults(handler=_cmd_query)

    def scheduler_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--batch-size", type=int, default=8, help="scheduler max batch size"
        )
        p.add_argument(
            "--max-wait-ms",
            type=float,
            default=2.0,
            help="micro-batch window in milliseconds",
        )
        p.add_argument(
            "--queue-depth",
            type=int,
            default=1024,
            help="per-priority admission bound",
        )

    chaos = sub.add_parser(
        "chaos", help="run a query under seeded fault injection"
    )
    common(chaos)
    scheduler_opts(chaos)
    chaos.add_argument(
        "question",
        nargs="?",
        default="How many incidents were caused by wind?",
        help="the natural-language question",
    )
    chaos.add_argument("--dataset", choices=("ntsb", "earnings"), default="ntsb")
    chaos.add_argument("--fault-seed", type=int, default=42, help="fault schedule seed")
    chaos.add_argument("--transient-rate", type=float, default=0.15)
    chaos.add_argument("--rate-limit-rate", type=float, default=0.05)
    chaos.add_argument("--malformed-rate", type=float, default=0.05)
    chaos.add_argument(
        "--brownout",
        type=_parse_brownout,
        default=None,
        metavar="START:END",
        help="call-index window of 100%% transient failures, e.g. 5:25",
    )
    chaos.add_argument(
        "--trace-json",
        default=None,
        metavar="PATH",
        help="write the chaos query's trace as a JSON document",
    )
    chaos.add_argument(
        "--kill-at",
        type=int,
        default=None,
        metavar="NODE",
        help="crash-recovery drill: kill a subprocess query right after "
        "this plan node checkpoints, resume from the journal, and "
        "verify the answer is byte-identical to an uninterrupted run",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker-kill drill: run the query on an N-worker cluster with "
        "shard 0 poisoned so its worker dies mid-shard, and verify the "
        "retried answer is byte-identical to a clean cluster run",
    )
    chaos.add_argument("--kill-child", type=int, default=None, help=argparse.SUPPRESS)
    chaos.add_argument(
        "--journal-dir",
        default=".repro-journal",
        help="write-ahead journal directory for the recovery drill",
    )
    chaos.add_argument(
        "--query-id",
        default="chaos-drill",
        help="journal query id for the recovery drill",
    )
    chaos.set_defaults(handler=_cmd_chaos)

    runtime_stats = sub.add_parser(
        "runtime-stats",
        help="run ETL + a query through the request scheduler and report stats",
    )
    common(runtime_stats)
    scheduler_opts(runtime_stats)
    runtime_stats.add_argument(
        "question",
        nargs="?",
        default="How many incidents were caused by wind?",
        help="the natural-language question",
    )
    runtime_stats.add_argument(
        "--dataset", choices=("ntsb", "earnings"), default="ntsb"
    )
    runtime_stats.set_defaults(handler=_cmd_runtime_stats)

    trace = sub.add_parser(
        "trace",
        help="run a query and print its span tree with per-operator costs",
    )
    common(trace)
    scheduler_opts(trace)
    trace.add_argument(
        "question",
        nargs="?",
        default="How many incidents were caused by wind?",
        help="the natural-language question",
    )
    trace.add_argument("--dataset", choices=("ntsb", "earnings"), default="ntsb")
    trace.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the trace as a JSON document",
    )
    trace.add_argument(
        "--max-spans", type=int, default=400, help="tree-rendering span cap"
    )
    trace.set_defaults(handler=_cmd_trace)

    metrics = sub.add_parser(
        "metrics",
        help="run ETL + a query and print the process metrics registry",
    )
    common(metrics)
    scheduler_opts(metrics)
    metrics.add_argument(
        "question",
        nargs="?",
        default="How many incidents were caused by wind?",
        help="the natural-language question",
    )
    metrics.add_argument(
        "--dataset", choices=("ntsb", "earnings"), default="ntsb"
    )
    metrics.add_argument(
        "--prefix",
        default="",
        help="only print metrics whose name starts with this (e.g. llm.)",
    )
    metrics.set_defaults(handler=_cmd_metrics)

    serve = sub.add_parser(
        "serve",
        help="serve questions through the concurrent QueryService",
    )
    common(serve)
    serve.add_argument(
        "questions",
        nargs="*",
        help="questions to serve (default: read stdin, or --once demo)",
    )
    serve.add_argument("--dataset", choices=("ntsb", "earnings"), default="ntsb")
    serve.add_argument(
        "--once",
        action="store_true",
        help="run the canned cache/coalescing demonstration and exit",
    )
    serve.add_argument("--tenant", default="cli", help="tenant to serve as")
    serve.add_argument("--workers", type=int, default=4, help="service worker threads")
    serve.add_argument(
        "--service-queue-depth",
        type=int,
        default=32,
        help="admission bound (past it, submissions are shed)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="N",
        help="serve over HTTP on this port (0 = ephemeral) instead of "
        "answering in-process; SIGTERM drains gracefully",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound port here once listening (for scripts)",
    )
    serve.add_argument(
        "--token",
        action="append",
        metavar="TOKEN=TENANT",
        help="enable bearer auth; repeatable credential table entries",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=0.0,
        metavar="R",
        help="per-tenant token-bucket rate limit (requests/s; 0 = off)",
    )
    serve.add_argument(
        "--access-log",
        action="store_true",
        help="print one structured access-log line per request",
    )
    serve.set_defaults(handler=_cmd_serve)

    cluster_stats = sub.add_parser(
        "cluster-stats",
        help="run a query over a worker cluster and report shard/worker stats",
    )
    common(cluster_stats)
    cluster_stats.add_argument(
        "question",
        nargs="?",
        default="How many incidents were caused by wind?",
        help="the natural-language question",
    )
    cluster_stats.add_argument(
        "--dataset", choices=("ntsb", "earnings"), default="ntsb"
    )
    cluster_stats.add_argument(
        "--workers", type=int, default=2, help="cluster worker processes"
    )
    cluster_stats.add_argument(
        "--shards-per-worker", type=int, default=2, help="shards per worker"
    )
    cluster_stats.set_defaults(handler=_cmd_cluster_stats)

    partition = sub.add_parser(
        "partition", help="show the partitioner's output for one report"
    )
    partition.add_argument("--seed", type=int, default=0)
    partition.set_defaults(handler=_cmd_partition)

    plan_explain = sub.add_parser(
        "plan-explain",
        help="run a query and print the cost-based optimizer's report",
    )
    common(plan_explain)
    plan_explain.add_argument(
        "question",
        nargs="?",
        default="How many incidents were caused by wind?",
        help="the natural-language question",
    )
    plan_explain.add_argument(
        "--dataset", choices=("ntsb", "earnings"), default="ntsb"
    )
    plan_explain.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="ask the question N times so learned statistics feed back",
    )
    plan_explain.add_argument(
        "--stats",
        default=None,
        metavar="PATH",
        help="statistics store file to load from / save to",
    )
    plan_explain.set_defaults(handler=_cmd_plan_explain)

    lint = sub.add_parser(
        "lint", help="run the project static-analysis rules over source paths"
    )
    lint.add_argument(
        "paths", nargs="*", help="files/directories to lint (default: src)"
    )
    lint.add_argument(
        "--json", action="store_true", help="emit a JSON report (for CI artifacts)"
    )
    lint.set_defaults(handler=_cmd_lint)

    plancheck = sub.add_parser(
        "plancheck", help="statically validate a Luna logical-plan JSON file"
    )
    plancheck.add_argument(
        "plan", help="path to the plan JSON ('-' reads stdin)"
    )
    plancheck.add_argument(
        "--schema",
        help="JSON file with the index field schema (enables field checks)",
    )
    plancheck.add_argument(
        "--json", action="store_true", help="emit the issue report as JSON"
    )
    plancheck.set_defaults(handler=_cmd_plancheck)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
