"""Shared fixtures.

Expensive artefacts (generated corpora, partitioned and indexed contexts)
are session-scoped: the corpus generators and the simulated models are
deterministic, so sharing them across tests is safe.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.analysis import leakcheck
from repro.datagen import generate_earnings_corpus, generate_ntsb_corpus
from repro.docmodel import BoundingBox, Document, Element, Node, Table, TableCell
from repro.llm import CostTracker, ReliableLLM, SimulatedLLM
from repro.partitioner import ArynPartitioner
from repro.sycamore import SycamoreContext


@pytest.fixture(autouse=True)
def _leak_sanitizer():
    """Fail any test that leaves new non-daemon threads behind.

    Un-shutdown ``ThreadPoolExecutor`` instances are caught too: their
    workers are non-daemon threads. Intentional long-lived helpers must
    be daemonized or joined before the test returns.
    """
    before = leakcheck.thread_snapshot()
    yield
    leaked = leakcheck.find_leaked_threads(before)
    if leaked:
        pytest.fail(
            "test leaked non-daemon thread(s)/executor worker(s): "
            + ", ".join(leaked),
            pytrace=False,
        )


def without_generated_ids(document):
    """``document.to_dict()`` with the uuids the partitioner draws for
    elements and nodes blanked: what two partitionings of one raw
    document must agree on."""

    def scrub(value):
        if isinstance(value, dict):
            return {
                key: "-" if key in ("element_id", "node_id") else scrub(item)
                for key, item in value.items()
            }
        if isinstance(value, list):
            return [scrub(item) for item in value]
        return value

    return scrub(document.to_dict())


@pytest.fixture(scope="session")
def repo_lint_report():
    """``python -m repro lint --json`` over this repo's ``src/``, run once
    and shared by the lint self-tests: ``(exit code, JSON report)``."""
    from repro.cli import main

    src = Path(__file__).resolve().parents[1] / "src"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["lint", str(src), "--json"])
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="session")
def ntsb_corpus():
    """(records, raw_documents) — 30 synthetic NTSB reports."""
    return generate_ntsb_corpus(30, seed=101)


@pytest.fixture(scope="session")
def earnings_corpus():
    """(records, raw_documents) — 24 synthetic earnings reports."""
    return generate_earnings_corpus(24, seed=202)


@pytest.fixture()
def oracle_llm():
    """Reliability-wrapped zero-noise simulated LLM with a fresh tracker."""
    tracker = CostTracker()
    llm = ReliableLLM(SimulatedLLM(seed=0, tracker=tracker))
    yield llm
    llm.close()


@pytest.fixture()
def context():
    """A fresh single-threaded Sycamore context."""
    with SycamoreContext(parallelism=1, seed=0) as ctx:
        yield ctx


@pytest.fixture(scope="session")
def indexed_context(ntsb_corpus, earnings_corpus):
    """A context with both corpora partitioned, extracted, and indexed.

    Uses the oracle model for extraction so index properties match ground
    truth exactly; tests that need noisy models build their own context.
    """
    records, raws = ntsb_corpus
    e_records, e_raws = earnings_corpus
    ctx = SycamoreContext(parallelism=4, seed=0)
    (
        ctx.read.raw(raws)
        .partition(ArynPartitioner(seed=0))
        .extract_properties(
            {
                "state": "string",
                "incident_year": "int",
                "weather_related": "bool",
                "injuries_fatal": "int",
            },
            model="sim-oracle",
        )
        .write.index("ntsb")
    )
    (
        ctx.read.raw(e_raws)
        .partition(ArynPartitioner(seed=0))
        .extract_properties(
            {
                "company": "string",
                "sector": "string",
                "revenue_musd": "float",
                "revenue_growth_pct": "float",
                "ceo_changed": "bool",
            },
            model="sim-oracle",
        )
        .write.index("earnings")
    )
    yield ctx
    ctx.close()


def make_doc(text: str = "", **properties) -> Document:
    """Tiny helper used across tests."""
    return Document(text=text, properties=dict(properties))


@pytest.fixture()
def simple_table() -> Table:
    return Table.from_rows(
        [["Name", "Value"], ["alpha", "1"], ["beta", "2"]],
        caption="test table",
    )
