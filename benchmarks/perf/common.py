"""Paths, the benchmark manifest, workload sizes and order statistics."""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Sequence, Tuple

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
SRC_DIR = ROOT / "src"
OUT_DIR = PERF_DIR / "out"
MANIFEST_PATH = ROOT / "BENCHMARK.json"

#: The contract gives a run 180 s; ``run.py``'s watchdog fires before that.
CHILD_TIMEOUT_S = 165.0


def load_manifest() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units, directions
    and regression bounds are written down."""
    with open(MANIFEST_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the four workloads.

    The full sizes are what ``BENCHMARK.json`` describes; they are cut
    from the issue's so that set-up plus ``run_seconds`` of measurement
    fits the driver's per-run budget. ``SMOKE`` is one tenth of them.
    """

    etl_ntsb: int = 75
    etl_earnings: int = 25
    query_ntsb: int = 150
    query_earnings: int = 60
    serve_docs: int = 60
    serve_ops_per_client: int = 140
    serve_ingests_per_client: int = 2
    serve_ingest_docs: int = 4
    cluster_docs: int = 600
    cluster_segments: int = 3
    #: Timed repeats a run makes at least, however short ``--seconds`` is.
    min_repeats: int = 3
    #: Times the set-up of ``query_inproc`` is run (the other workloads
    #: set up once per repeat); ``setup_s`` is the median. Each set-up has
    #: a corpus of its own whose answers are graded: accuracy differs by
    #: 0.06 from corpus to corpus, and six keep the quartile spread of
    #: ``correct_share`` over ten seeds near 0.05, under half its bound.
    setups: int = 6
    #: Multiplier on the iteration counts of the layer microbenches.
    micro_scale: float = 1.0

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


FULL = Sizes()
SMOKE = Sizes(
    etl_ntsb=8,
    etl_earnings=3,
    query_ntsb=15,
    query_earnings=6,
    serve_docs=8,
    serve_ops_per_client=14,
    serve_ingests_per_client=1,
    serve_ingest_docs=2,
    cluster_docs=60,
    cluster_segments=1,
    min_repeats=1,
    setups=1,
    micro_scale=0.1,
)


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 on no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return float(ordered[min(max(rank, 1), len(ordered)) - 1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as the driver takes them."""
    if len(values) < 2:
        value = float(values[0]) if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def per(total: float, count: float) -> float:
    return total / count if count else 0.0
