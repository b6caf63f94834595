"""The reference kernel: how fast the box is while a run measures.

The sandbox is a few cores of a shared host. The same single-threaded
Python takes up to 40% more time for a few seconds at a stretch, and a
fifth more or less for minutes, whatever the program under test does,
and a run is too short to average that out. So every run also times a
fixed piece of work of the harness's own, before every set-up and timed
repeat and after the last, and the two workloads whose timed part is
single-threaded CPU report their times at reference speed: each
measured time x ``REFERENCE_S`` / median kernel time around it. Over
ten minutes of alternating kernel and ingest calls that took the spread
of 20-second medians from 4% to 1%.

The kernel does the kind of thing the program does (regex tokenising,
hashing tokens into a vector, postings in a dict, small dataclass
objects, a JSON round trip) but shares no code with it, so a change to
the program cannot move it.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import statistics
import time
from dataclasses import dataclass, field
from typing import List

#: Median seconds of one kernel call on the sandbox when it is quiet.
#: Times at reference speed are therefore close to the measured ones there.
REFERENCE_S = 0.023

_TOKEN = re.compile(r"[a-z0-9]+")
_SENTENCE_END = re.compile(r"(?<=[.])\s+")
_DOCS_PER_CALL = 60


@dataclass
class _Piece:
    text: str
    tokens: List[str] = field(default_factory=list)


def _digest(text: str) -> int:
    pieces = [_Piece(sentence) for sentence in _SENTENCE_END.split(text)]
    vector = [0.0] * 256
    postings: dict = {}
    for position, piece in enumerate(pieces):
        piece.tokens = _TOKEN.findall(piece.text.lower())
        for token in piece.tokens:
            digest = hashlib.blake2b(token.encode(), digest_size=8).digest()
            vector[int.from_bytes(digest[:4], "little") % 256] += 1.0 if digest[4] & 1 else -1.0
            postings.setdefault(token, []).append(position)
    blob = json.dumps({"pieces": [piece.text for piece in pieces], "terms": len(postings)})
    return len(json.loads(blob)["pieces"]) + len(postings)


class ReferenceKernel:
    """The fixed work and the seconds each run of it took."""

    def __init__(self, n_docs: int = 480):
        rng = random.Random(0)
        words = [hashlib.md5(str(i).encode()).hexdigest()[: 3 + i % 7] for i in range(3000)]
        self._pool = [
            " ".join(
                " ".join(rng.choice(words) for _ in range(rng.randint(6, 18))).capitalize() + "."
                for _ in range(rng.randint(15, 40))
            )
            for _ in range(n_docs)
        ]
        self.seconds: List[float] = []
        self._last_group = 0

    def run(self, calls: int) -> float:
        """Time the work ``calls`` times. Successive calls walk through
        the pool, so each touches memory the last one did not. Returns
        the speed of the box, as a multiple of the reference speed, over
        these calls and those of the previous ``run``: the speed at which
        whatever ran between the two ran."""
        previous = self._last_group
        self._last_group = len(self.seconds)
        for _ in range(calls):
            first = len(self.seconds) * _DOCS_PER_CALL
            started = time.perf_counter()
            for k in range(first, first + _DOCS_PER_CALL):
                _digest(self._pool[k % len(self._pool)])
            self.seconds.append(time.perf_counter() - started)
        return REFERENCE_S / statistics.median(self.seconds[previous:])

    def box_speed(self) -> float:
        """Speed of the box over all calls so far; 1.0 before the first."""
        return REFERENCE_S / statistics.median(self.seconds) if self.seconds else 1.0
