"""The oracle pairs ``check`` runs, audited row by row from the same table,
:func:`aqlab.cli.check_pairs`, and through the same runner, ``cmd_check``:

* agreement, on random draws and on draws next to the degeneracy circle
  of the metric family (and the null cone of the split quaternions);
* independence: with the route's function patched to raise, the oracle
  still computes, and route and oracle share exactly what the row
  declares, besides the input rules and value constructors;
* sensitivity: a relative 1e-6 error in the route's output fails the row
  (DeMillo, Lipton & Sayward, "Hints on test data selection", 1978).
"""

import argparse
import importlib
import inspect
import itertools
import math
import os
import sys

import numpy as np
import pytest

import aqlab
from aqlab import cli
from aqlab import quat as qt
from aqlab.gxg import MetricFamily

PAIRS = cli.check_pairs()
NAMES = list(PAIRS)
#: what route and oracle may both run without declaring it: the input
#: rules and the value constructors, which compute nothing of a claim
PLUMBING = ("tensors.real_array", "scalars._check_alpha",
            "scalars._check_signatures", "quat.QuaternionA.__init__",
            "quat.SpinMatrix.__init__", "quat._ring_floats")
#: the values of 1 - lam^2 - mu^2 of the draws next to the degeneracy
#: circle, and of -N of the split quaternions next to the null cone
NEAR = (1e-3, -1e-3, 1e-6, -1e-6, 1e-9, -1e-9)


def run_check(monkeypatch, rows, seed=0, samples=10) -> dict:
    """The outputs of ``check`` with ``rows`` as its table."""
    monkeypatch.setattr(cli, "check_pairs", lambda: rows)
    _, outputs, _ = cli.cmd_check(argparse.Namespace(seed=seed, samples=samples))
    return outputs


def resolve(name):
    """(owner, attribute, code) of a dotted name under ``aqlab``; the code
    of a property or cached property is its getter's."""
    module, *path, attr = name.split(".")
    owner = importlib.import_module(f"aqlab.{module}")
    for part in path:
        owner = getattr(owner, part)
    f = inspect.getattr_static(owner, attr)
    f = getattr(f, "fget", None) or getattr(f, "func", f)
    return owner, attr, f.__code__


def entered(call, args) -> set:
    """The code of every library function (the CLI's table aside, and
    comprehensions, which belong to their function) that call(*args)
    enters."""
    root, seen = os.path.dirname(aqlab.__file__), set()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(root)
                and not code.co_filename.endswith("cli.py")
                and not code.co_name.startswith("<")):
            seen.add(code)

    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(None)
    return seen


def null_quaternion(rng, t: float):
    """A split quaternion (alpha = +1) of sup norm about 1 with
    N = a^2 - b^2 - c^2 + d^2 = -t."""
    u, v = rng.uniform(0, 2 * math.pi, size=2)
    w = math.sqrt(1 + t)
    return qt.from_coeffs([math.cos(u), w * math.cos(v), w * math.sin(v),
                           math.sin(u)], 1)


def near_degeneracy(sample):
    """``sample`` with each family moved onto 1 - lam^2 - mu^2 = t and each
    quaternion onto the split null cone, t running through ``NEAR``."""
    def draw(rng, n):
        out = []
        for args, t in zip(sample(rng, n), itertools.cycle(NEAR)):
            if isinstance(args[0], MetricFamily):
                u, r = rng.uniform(0, 2 * math.pi), math.sqrt(1 - t)
                fam = MetricFamily(args[0].model, r * math.cos(u), r * math.sin(u))
                out.append((fam, *args[1:]))
            else:
                out.append(tuple(null_quaternion(rng, t) for _ in args))
        return out
    return draw


def test_the_document_has_one_worst_entry_per_pair(monkeypatch):
    out = run_check(monkeypatch, PAIRS, seed=1, samples=5)
    assert out["passed"] is True and list(out["worst_residuals"]) == NAMES
    for entry in out["worst_residuals"].values():
        assert set(entry) == {"residual", "bound"}
        assert 0 <= entry["residual"] <= entry["bound"]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", NAMES)
def test_agreement_on_random_draws(monkeypatch, name, seed):
    assert run_check(monkeypatch, {name: PAIRS[name]}, seed, 20)["passed"] is True


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", NAMES)
def test_agreement_next_to_the_degeneracy_circle(monkeypatch, name, seed):
    sample, *rest = PAIRS[name]
    row = (near_degeneracy(sample), *rest)
    assert run_check(monkeypatch, {name: row}, seed, 12)["passed"] is True


def test_the_near_draws_reach_the_circle():
    rng = np.random.default_rng(0)
    sample = near_degeneracy(PAIRS["ricci_closed_vs_contracted"][0])
    assert min(abs(f.d0) for f, _ in sample(rng, 12)) < 2e-9
    p = null_quaternion(rng, 1e-9)
    assert abs(qt.qnormsq(p)) < 1e-8


@pytest.mark.parametrize("name", NAMES)
def test_the_oracle_runs_without_the_route(monkeypatch, name):
    sample, (target, route), oracle, *_ = PAIRS[name]
    draws = sample(np.random.default_rng(0), 2)
    owner, attr, _ = resolve(target)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{target} ran")

    monkeypatch.setattr(owner, attr,
                        property(refuse) if inspect.isclass(owner) else refuse)
    with pytest.raises(AssertionError, match=f"{target} ran"):
        route(*draws[0])
    for args in draws:
        oracle(*args)


@pytest.mark.parametrize("name", NAMES)
def test_route_and_oracle_share_what_the_row_declares(name):
    """Every declared dependency is run by both sides, and nothing else is
    but the plumbing."""
    def run(side):  # on a table of its own: no cache one side fills serves the other
        sample, (_, route), oracle, *_ = cli.check_pairs()[name]
        return entered((route, oracle)[side], sample(np.random.default_rng(0), 1)[0])

    shared = {resolve(n)[2] for n in PAIRS[name][3]}
    plumbing = {resolve(n)[2] for n in PLUMBING}
    assert (run(0) & run(1)) - plumbing == shared


@pytest.mark.parametrize("name", NAMES)
def test_a_relative_error_of_the_route_fails_the_pair(monkeypatch, name):
    sample, (target, route), *rest = PAIRS[name]
    wrong = (sample, (target, lambda *a: np.multiply(route(*a), 1 + 1e-6)), *rest)
    assert run_check(monkeypatch, {name: wrong})["passed"] is False
