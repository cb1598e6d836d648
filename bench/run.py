#!/usr/bin/env python3
"""The aqlab benchmark.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Runs one workload against the unmodified package in ``src/`` of the same
checkout, closed loop with one client (BLAS threads left at their defaults
and recorded): ``cli-mix`` (CLI processes) or ``kernels`` (in process),
the two that BENCHMARK.json declares, or one half of ``kernels`` alone,
``ladder`` or ``small-calls``.  Inputs come from the seed; every output is
checked against an oracle in ``oracles.py``.  A run repeats passes over
its fixed list of operations until ``--seconds`` have passed.  It sets up
its inputs before the first pass and again after every pass (at least five
times in all), so that ``setup_s``, their median, sees the same machine
as the passes.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes, reports per-layer metrics from
the spans of the traced ones and the tracing overhead from the difference
of their median passes.  ``pass_s`` is the median time of one untraced
pass over the workload's fixed operations, ``op_ms.p50`` the median time
of one of those operations: a CLI process on ``cli-mix``, a small-calls
sample on ``kernels`` (2000 of its 2008 operations), so that per-call cost
shows there even where the ladder's rungs dominate ``pass_s``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every pass repeats the same operations, so ``attempted`` and ``failed``
count distinct operations (failed on any pass) and ``<layer>.failed``
counts the failures of the first traced pass: all of them depend on the
seed alone, not on how many passes fit into the run.
Results, the run context and (traced) spans are written to ``bench/out``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from common import SRC, Book, layer_of, median
from spans import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = {
    "cli-mix": ("cli_mix", "CliMix"),
    "kernels": ("kernels", "Kernels"),
    "ladder": ("ladder", "Ladder"),
    "small-calls": ("small_calls", "SmallCalls"),
}
SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_context(args) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    threads = {k: os.environ.get(k, "default") for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": threads, "blas_threads_note":
            "left at the library defaults; recorded, not changed",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "commit": git_commit(),
    }


def run_op(w, op, tr, book, n: int):
    """One operation with its failure accounting; (wall time, failed)."""
    before = sum(book.by_layer.values())
    t0 = perf_counter()
    with tr.root(f"bench.{w.op_unit}", n):
        try:
            w.run_op(op, tr, book)
        except Exception as exc:  # a raise on valid input is a failure
            book.fail(layer_of(exc), f"{op['kind']}: {type(exc).__name__}: "
                                     f"{exc}")
    dt = perf_counter() - t0
    book.attempted += 1
    failed = sum(book.by_layer.values()) != before
    if failed:
        book.failed += 1
    return dt, failed


def timed_setup(w, seed: int, work: str):
    """(operations, seconds) of one set-up in a fresh work directory."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    t0 = perf_counter()
    ops = w.setup(seed, work)
    return ops, perf_counter() - t0


def measure(w, ops, args, resetup):
    book = Book()
    tr = Tracer(False)
    for op in w.warmup_ops(ops):  # fill caches and finish lazy set-up
        run_op(w, op, tr, Book(), -1)

    op_times, pass_times = [], {False: [], True: []}
    by_kind = defaultdict(list)
    traced_failed = None  # failures per layer on the first traced pass
    failed_ops = set()  # positions in ``ops`` that failed on some pass
    n = 0
    deadline = perf_counter() + args.seconds
    passes = 0
    while True:
        tr.enabled = bool(args.trace) and passes % 2 == 1
        snapshot = Counter(book.by_layer)
        t0 = perf_counter()
        for i, op in enumerate(ops):
            dt, failed = run_op(w, op, tr, book, n)
            if failed:
                failed_ops.add(i)
            n += 1
            if not tr.enabled:
                op_times.append(dt)
                by_kind[op["kind"]].append(dt)
        last = perf_counter() - t0
        pass_times[tr.enabled].append(last)
        if tr.enabled:
            if hasattr(w, "probe"):
                w.probe(ops, tr, book)
            if traced_failed is None:
                traced_failed = book.by_layer - snapshot
        resetup()
        passes += 1
        # Whole passes only; stop when another would end more than half a
        # pass past the deadline, so a run lasts --seconds give or take.
        if perf_counter() + last / 2 >= deadline and (
                not args.trace or (pass_times[False] and pass_times[True])):
            break
    return (book, tr, op_times, by_kind, pass_times, traced_failed,
            len(failed_ops))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "aqlab", "__init__.py")):
        print(f"error: no aqlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import aqlab
    if os.path.dirname(os.path.dirname(os.path.abspath(aqlab.__file__))) != SRC:
        print(f"error: imported aqlab from {aqlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    module, cls = WORKLOADS[args.workload]
    w = getattr(importlib.import_module(module), cls)()

    work = os.path.join(OUT, "work", args.workload)
    ops, first = timed_setup(w, args.seed, work)
    setup_times = [first]

    def resetup():  # identical inputs; only the time is kept
        setup_times.append(timed_setup(w, args.seed, work)[1])

    book, tr, op_times, by_kind, pass_times, traced_failed, failed = measure(
        w, ops, args, resetup)
    while len(setup_times) < SETUP_REPEATS:
        resetup()
    ctx = run_context(args)
    # Every pass repeats the same operations on the same inputs, so the
    # result counts each operation once (failed if it failed on any pass);
    # the counts then depend on the seed only, not on how many passes fit.
    ctx.update(attempted=len(ops), failed=failed,
               executions=book.attempted, failed_executions=book.failed,
               ops_per_pass=len(ops), passes_untraced=len(pass_times[False]),
               passes_traced=len(pass_times[True]),
               pass_times_s=[round(t, 4) for t in pass_times[False]])

    report = {"setup_s": (median(setup_times), "s", len(setup_times))}
    if args.trace:
        layers = tr.layer_summary(traced_failed or {})
        top = sum(s[2] - s[1] for s in tr.spans if s[3] < 0)
        untraced = median(pass_times[False])
        overhead = 100.0 * (median(pass_times[True]) - untraced) / untraced
        metrics = {}
        for layer in LAYERS:
            s = layers[layer]
            metrics[f"{layer}.calls"] = (s["calls"], "count")
            metrics[f"{layer}.busy_pct"] = (100.0 * s["busy_ms"] / 1e3 / top,
                                            "%")
            metrics[f"{layer}.failed"] = (s["failed"], "count")
            report[f"{layer}.busy_ms"] = (s["busy_ms"], "ms", s["calls"])
        metrics["trace.overhead_pct"] = (overhead, "%")
        metrics["trace.spans"] = (len(tr.spans), "count")
        report.update(tr.named_medians())
        report.update(w.report(ops, tr, book))
    else:
        metrics = {
            "setup_s": report["setup_s"][:2],
            "pass_s": (median(pass_times[False]), "s"),
            "op_ms.p50": (1e3 * median(op_times), "ms"),
            "peak_rss_mb": (w.peak_rss_mb() if hasattr(w, "peak_rss_mb") else
                            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        report.update(w.summary(op_times, by_kind, pass_times[False], book))
    report["fail_frac"] = (failed / len(ops), "ratio", len(ops))

    # Correct: no output disagrees with its oracle and every failure, on
    # timed passes and probes alike, is the known spin-basis defect.
    correct = book.wrong == 0 and (sum(book.by_layer.values())
                                   == sum(book.known.values()))
    for name, (value, unit, *n) in sorted(report.items()):
        count = f"  (n={n[0]})" if n else ""
        print(f"{name:48s} {value!s:>24} {unit}{count}")
    for note in book.notes:
        print(f"failure: {note}")
    for what, count in sorted(book.known.items()):
        print(f"known defect: {what}: {count} executions")
    print("context: " + json.dumps(ctx, sort_keys=True))

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"context": ctx, "correct": correct, "notes": book.notes,
                   "known_defects": dict(book.known),
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()},
                   "report": {k: list(v) for k, v in report.items()}},
                  fh, indent=1)
    if args.trace:
        tr.dump(stem + "-spans.json")
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
