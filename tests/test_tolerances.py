"""Every verdict reads a named module constant, documented in the README."""

import importlib
import inspect
import pathlib
import re

import pytest

MODULES = ("scalars", "quat", "spinor", "fourdim", "liealg", "piaq", "family",
           "gxg", "tensors", "cli")
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _public_callables(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if callable(member) and (attr == "__init__" or not attr.startswith("_")):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_no_public_callable_takes_a_tolerance():
    found = []
    for short in MODULES:
        mod = importlib.import_module(f"aqlab.{short}")
        for name, fn in _public_callables(mod):
            found += [f"{short}.{name}({p})" for p in inspect.signature(fn).parameters
                      if "tol" in p or p == "margin"]
    assert found == []


def _table_rows():
    rows = re.findall(r"^\| (\w+) \| `(\w+)` \| ([0-9.e-]+) \|", README.read_text(),
                      re.MULTILINE)
    assert len(rows) >= 19
    return rows


@pytest.mark.parametrize("module,name,value", _table_rows())
def test_readme_table_matches_constants(module, name, value):
    assert getattr(importlib.import_module(f"aqlab.{module}"), name) == float(value)


def test_readme_table_lists_every_tolerance_constant():
    listed = {(m, n) for m, n, _ in _table_rows()}
    for short in MODULES:
        source = inspect.getsource(importlib.import_module(f"aqlab.{short}"))
        for name in re.findall(r"^([A-Z_]+) = [0-9]", source, re.MULTILINE):
            assert (short, name) in listed, f"{short}.{name} missing from README"
