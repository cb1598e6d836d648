"""Numerics for generalized quaternionic geometry.

Subpackages:
    scalars  -- the ring R + iR with i^2 = alpha (complex or double numbers)
    quat     -- generalized quaternions and their 2x2 spin representation
    spinor   -- spin vectors, spin bases, orbit dimensions
    fourdim  -- self-dual two-form calculus on the 4-dimensional model fibre
    liealg   -- structure-constant Lie algebras and the doubled model
    piaq     -- canonical connections of twistor-pair structures
    gxg      -- the two-parameter metric family on a doubled group
    tensors  -- the structure-tensor contractions liealg, piaq and gxg share
    cli      -- command-line interface
"""

from . import (errors, fourdim, gxg, liealg, piaq, quat, scalars, spinor,
               tensors)

__all__ = ["errors", "fourdim", "gxg", "liealg", "piaq", "quat", "scalars",
           "spinor", "tensors"]

__version__ = "0.1.0"
