"""Exact simulation of collective-measurement entanglement criteria on small
spin chains and two-mode bosonic lattices."""

__version__ = "0.1.0"

from .qcore import (
    DensityMatrix,
    GroundState,
    HilbertSpace,
    LinearOperator,
    ProductState,
    PureState,
    expectation,
)

__all__ = [
    "__version__",
    "DensityMatrix",
    "GroundState",
    "HilbertSpace",
    "LinearOperator",
    "ProductState",
    "PureState",
    "expectation",
]
