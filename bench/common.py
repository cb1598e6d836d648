"""Outcome bookkeeping and statistics shared by the workloads."""

from __future__ import annotations

import math
import os
import statistics
import traceback
from collections import Counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
AQLAB_DIR = os.path.join(SRC, "aqlab")


class Book:
    """Counts operations, failures and wrong answers.

    An operation fails if it exits nonzero, raises on valid input, or
    disagrees with its oracle.  ``known`` counts failures of the documented
    spin-basis defect; a run is correct when no output disagrees with its
    oracle and every failure is that defect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.known = Counter()
        self.by_layer = Counter()
        self.counts = Counter()
        self.notes: list[str] = []

    def fail(self, layer: str, what: str, wrong: bool = False,
             known: str | None = None) -> None:
        self.by_layer[layer] += 1
        if wrong:
            self.wrong += 1
        if known:
            self.known[known] += 1
        elif len(self.notes) < 20:
            self.notes.append(f"{layer}: {what}")

    def expect(self, layer: str, ok: bool, what: str) -> bool:
        """Record an oracle disagreement when ``ok`` is false."""
        if not ok:
            self.fail(layer, f"disagrees with oracle: {what}", wrong=True)
        return bool(ok)


def layer_of(exc: BaseException) -> str:
    """The aqlab module first entered on the way to ``exc``."""
    for frame in traceback.extract_tb(exc.__traceback__):
        path = os.path.abspath(frame.filename)
        if os.path.dirname(path) == AQLAB_DIR:
            return os.path.splitext(os.path.basename(path))[0]
    return "bench"


def tail(values, levels=(50.0, 75.0, 90.0, 95.0, 99.0, 99.9)):
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it, by nearest rank; None when there are too few."""
    xs = sorted(values)
    n = len(xs)
    best = None
    for p in levels:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            best = (p, xs[rank - 1])
    return best


def percentile(values, p: float) -> float:
    xs = sorted(values)
    return xs[max(1, math.ceil(p / 100.0 * len(xs))) - 1]


def median(values) -> float:
    return statistics.median(values)
