"""kernels: the ladder and the small-calls stream in one in-process pass.

A pass runs the ladder's rungs (tensor kernels on doubled algebras up to
dimension 30, where the contractions of liealg, gxg and piaq dominate) and
then the small-calls sample stream (tiny scalar, quaternion, spin-basis,
orbit, self-dual, gxg and piaq samples, where per-call overhead
dominates).  Together they cover every in-process layer in one workload,
so the benchmark needs only two workloads and each run can be long enough
to be steady on a shared machine.  ``ladder`` and ``small-calls`` still
run alone for profiling one side.
"""

from __future__ import annotations

from ladder import Ladder
from small_calls import SmallCalls


class Kernels:
    name = "kernels"
    op_unit = "op"

    def __init__(self):
        self.ladder = Ladder()
        self.small = SmallCalls()

    def setup(self, seed: int, workdir: str) -> list[dict]:
        ladder = self.ladder.setup(seed, workdir)
        small = self.small.setup(seed, workdir)
        for part, ops in ((self.ladder, ladder), (self.small, small)):
            for op in ops:
                op["part"] = part
        self.n_ladder = len(ladder)
        return ladder + small

    def warmup_ops(self, ops):
        return (self.ladder.warmup_ops(ops[:self.n_ladder])
                + self.small.warmup_ops(ops[self.n_ladder:]))

    def run_op(self, op: dict, tr, book) -> None:
        op["part"].run_op(op, tr, book)

    def probe(self, ops, tr, book) -> None:
        self.ladder.probe(ops[:self.n_ladder], tr, book)

    def summary(self, op_times, by_kind, pass_times, book) -> dict:
        """Each side's own figures; ``op_times`` holds whole passes of
        untraced operation times in the order of the operations."""
        k, n = self.n_ladder, len(op_times) // len(pass_times)
        passes = [op_times[i:i + n] for i in range(0, len(op_times), n)]
        out = self.ladder.summary(None, None, [sum(p[:k]) for p in passes],
                                  book)
        out.update(self.small.summary([t for p in passes for t in p[k:]],
                                      None, None, book))
        return out

    def report(self, ops, tr, book) -> dict:
        out = self.ladder.report(ops[:self.n_ladder], tr, book)
        out.update(self.small.report(ops[self.n_ladder:], tr, book))
        return out
