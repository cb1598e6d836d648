"""Spans around the benchmark's calls into each ``aqlab`` module.

A span is (name, start, end, parent, sample id, failed).  The name is the
metric it feeds, e.g. ``gxg.nabla_ms.so7``; its first component is the
layer.  Spans stay in memory and are written out when the run ends.  With
tracing off, :meth:`Tracer.call` is a plain call.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "liealg", "gxg", "piaq", "spinor", "quat", "scalars",
          "fourdim")


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.sample = -1

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.sample, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float, failed=False):
        """A span measured by the caller (e.g. a child process)."""
        if self.enabled:
            self.spans.append([name, start, end,
                               self._stack[-1] if self._stack else -1,
                               self.sample, failed])

    def root(self, name: str, sample: int):
        """Context manager for the benchmark's own span around one sample."""
        return _Root(self, name, sample)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_summary(self, failed_by_layer: dict) -> dict:
        """calls, busy_ms (self time) and failed per layer."""
        own = self.self_times()
        calls = defaultdict(int)
        busy = defaultdict(float)
        for s, t in zip(self.spans, own):
            layer = s[0].split(".", 1)[0]
            calls[layer] += 1
            busy[layer] += t
        return {layer: {"calls": calls[layer], "busy_ms": 1e3 * busy[layer],
                        "failed": int(failed_by_layer.get(layer, 0))}
                for layer in LAYERS}

    def by_name(self) -> dict[str, list[float]]:
        """Durations in seconds grouped by span name."""
        out = defaultdict(list)
        for s in self.spans:
            out[s[0]].append(s[2] - s[1])
        return out

    def named_medians(self) -> dict[str, tuple[float, str, int]]:
        """Median duration of each layer span name, in the unit its name
        declares (``_ms`` or ``_us``), with the count."""
        out = {}
        for name, durs in self.by_name().items():
            if name.split(".", 1)[0] not in LAYERS:
                continue
            scale, unit = ((1e6, "us") if "_us" in name else (1e3, "ms"))
            out[name] = (scale * statistics.median(durs), unit, len(durs))
        return out

    def dump(self, path) -> None:
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "sample", "failed"],
                       "spans": [[s[0], s[1] - t0, s[2] - t0, s[3], s[4],
                                  s[5]] for s in self.spans]}, fh)


class _Root:
    __slots__ = ("tr", "name", "sample")

    def __init__(self, tr: Tracer, name: str, sample: int):
        self.tr, self.name, self.sample = tr, name, sample

    def __enter__(self):
        tr = self.tr
        tr.sample = self.sample
        if tr.enabled:
            tr._stack.append(len(tr.spans))
            tr.spans.append([self.name, perf_counter(), 0.0, -1, self.sample,
                             False])

    def __exit__(self, exc_type, exc, tb):
        tr = self.tr
        if tr.enabled:
            rec = tr.spans[tr._stack.pop()]
            rec[2] = perf_counter()
            rec[5] = exc_type is not None
        return False
