"""Pinned orthonormal bases of subspaces and explicit perturbation bounds.

An orthonormal basis matrix of a subspace is only unique up to rotation.
Requiring the product with a fixed target matrix ``d`` to be symmetric
positive semidefinite pins the basis down: completely when the product has
full rank, and up to a small orthogonal freedom otherwise.  This package
computes pinned bases, canonical-angle distances between subspaces, and
explicit bounds on how far a pinned basis can move when its subspace moves,
together with a reproducible experiment harness that measures how tight the
bounds are.
"""

from .alignment import *
from .bounds import *
from .errors import *
from .experiments import *
from .kernels import *
from .matrixio import *
from .metrics import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = (
    alignment.__all__
    + bounds.__all__
    + errors.__all__
    + experiments.__all__
    + kernels.__all__
    + matrixio.__all__
    + metrics.__all__
)
