"""Numerics for generalized quaternionic geometry.

Subpackages:
    scalars  -- the ring R + iR with i^2 = alpha (complex or double numbers)
    quat     -- generalized quaternions and their 2x2 spin representation
    spinor   -- spin vectors, spin bases, orbit dimensions
    fourdim  -- self-dual two-form calculus on the 4-dimensional model fibre
    liealg   -- structure-constant Lie algebras and the doubled model
    piaq     -- canonical connections of twistor-pair structures
    family   -- the metric family's closed forms in (lam, mu), without numpy
    gxg      -- the two-parameter metric family on a doubled group
    tensors  -- the structure-tensor contractions liealg, piaq and gxg share
    cli      -- command-line interface

Importing the package loads none of them: each is imported on first
attribute access (PEP 562), so a caller pays only for the layers it uses.
"""

import importlib

__all__ = ["errors", "family", "fourdim", "gxg", "liealg", "piaq", "quat",
           "scalars", "spinor", "tensors"]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
