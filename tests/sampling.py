"""Random states for soundness and property testing.

Separable states are sampled as convex mixtures of random products of
single-site pure states: Haar-uniform site vectors combined with
Dirichlet-uniform mixture weights.
"""

from __future__ import annotations

import math

import numpy as np

from qlatwit.qcore import DensityMatrix, HilbertSpace, PureState


def haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_product_state(space: HilbertSpace, rng: np.random.Generator) -> PureState:
    """Tensor product of independent Haar-random single-site states, site 1 drawn first."""
    # np.ix_ puts each site's vector on its own axis, so their broadcast product is the kron
    v = math.prod(np.ix_(*[haar_vector(d, rng) for d in space.dims])).ravel()
    return PureState(space, v / np.linalg.norm(v))


def random_separable_density(
    space: HilbertSpace, rng: np.random.Generator, max_terms: int = 8
) -> DensityMatrix:
    """Random mixture (up to ``max_terms`` terms) of random product states."""
    n_terms = int(rng.integers(1, max_terms + 1))
    weights = rng.dirichlet(np.ones(n_terms))
    columns = np.stack(
        [np.sqrt(w) * random_product_state(space, rng).amplitudes for w in weights],
        axis=1,
    )
    mat = columns @ columns.conj().T
    mat = (mat + mat.conj().T) / 2
    return DensityMatrix(space, mat / np.trace(mat).real)


def random_direction(rng: np.random.Generator) -> np.ndarray:
    """Uniform random unit 3-vector."""
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)
