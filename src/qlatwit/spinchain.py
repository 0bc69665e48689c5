"""Qubit-chain builders: Pauli-string moments, three-site correlators, the
neighbor phase gate, cluster and product states, and the chain generator of
the Heisenberg solve and the pulse.

The chain is open: the three-site correlator at the ends drops the
out-of-range z factor, and the phase-gate exponent couples sites 1..N-1.
A Pauli string is a product of one-site matrices, applied or traced site by
site through ``qcore``, so expectations of Pauli sums need no 2^n x 2^n
matrix.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .qcore import DIM_CAP, HilbertSpace, PureState, Record, _apply_site, _local_mean, _real_part

_AXES = ("x", "y", "z")
# the Pauli matrices x, y, z, stacked (3, 2, 2)
PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_PAULI = dict(zip(_AXES, PAULIS))
_ID = np.eye(2, dtype=complex)

_QUBIT_EIGENSTATES = {
    ("x", +1): np.array([1, 1], dtype=complex) / np.sqrt(2),
    ("x", -1): np.array([1, -1], dtype=complex) / np.sqrt(2),
    ("y", +1): np.array([1, 1j], dtype=complex) / np.sqrt(2),
    ("y", -1): np.array([1, -1j], dtype=complex) / np.sqrt(2),
    ("z", +1): np.array([1, 0], dtype=complex),
    ("z", -1): np.array([0, 1], dtype=complex),
}


class ChainSpec(Record):
    """An open chain of ``n_sites`` qubits."""

    n_sites: int

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError("a chain needs at least 2 sites")

    def space(self) -> HilbertSpace:
        return HilbertSpace((2,) * self.n_sites, kind="qubit")


class ClusterSpec(Record):
    """Sign pattern (+1/-1 per site) selecting one cluster-state sector."""

    chain: ChainSpec
    lambdas: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(self.lambdas))
        if len(self.lambdas) != self.chain.n_sites:
            raise ValueError("need one sign per site")
        if any(lam not in (-1, +1) for lam in self.lambdas):
            raise ValueError("signs must be +1 or -1")


def _site_masks(n_sites: int) -> np.ndarray:
    # site s is bit n - s of the basis index: site 1 is the most significant
    return 1 << np.arange(n_sites - 1, -1, -1)


def _parity(values: np.ndarray) -> np.ndarray:
    """1 where a nonnegative int64 entry has an odd number of set bits, else 0."""
    for shift in (32, 16, 8, 4, 2, 1):
        values = values ^ (values >> shift)
    return values & 1


def _popcount(values: np.ndarray, n_bits: int) -> np.ndarray:
    """Number of set bits among the lowest ``n_bits`` of each entry."""
    return sum(((values >> shift) & 1 for shift in range(n_bits)), np.zeros_like(values))


def _chain_generator(n_sites: int, states: np.ndarray, jxx, jyy, jzz, hz) -> np.ndarray:
    """sum_k (jxx x_k x_{k+1} + jyy y_k y_{k+1} + jzz z_k z_{k+1}) / 4 + hz/2 sum_k z_k
    on the open chain, as a real symmetric matrix on ``states``.

    ``states`` are ascending basis indices that the generator maps among
    themselves.  With m_k the bit of site k, a bond k, k+1 links i to
    i ^ (m_k | m_{k+1}) with weight (jxx - jyy)/4 when its two bits are equal
    and (jxx + jyy)/4 when they differ.  A zero weight is skipped, so an S_z
    sector (jxx == jyy) is never left.
    """
    masks = _site_masks(n_sites)
    # bit s of antiparallel is set when bits s and s + 1 of the index differ
    antiparallel = states ^ (states >> 1)
    diag = hz / 2 * (n_sites - 2.0 * _popcount(states, n_sites))
    # a zero jzz adds nothing, not even a signed zero, which eigh would notice
    if jzz:
        diag += jzz / 4 * (n_sites - 1 - 2.0 * _popcount(antiparallel, n_sites - 1))
    mat = np.diag(diag)
    rows = np.arange(states.size)
    for k in range(n_sites - 1):
        differ = (antiparallel & masks[k + 1]) != 0
        for weight, hop in (((jxx - jyy) / 4, ~differ), ((jxx + jyy) / 4, differ)):
            if weight:
                targets = states[hop] ^ (masks[k] | masks[k + 1])
                mat[rows[hop], np.searchsorted(states, targets)] = weight
    return mat


def pauli_sum_moments(state, strings: Sequence[Mapping[int, str]]) -> tuple[float, float]:
    """<S> and <S^2> for the sum S of the given Pauli strings on a qubit chain.

    Each string is a product of one-site ``PAULIS`` matrices, so no operator
    matrix is built.  A pure state takes v = S psi site by site, with
    <S^2> = |v|^2, in O(len(strings) 2^n).  Any other state is read through
    ``qcore._local_mean``: <S^2> sums the means of the site-wise products
    P_a P_c over every pair of strings.
    """
    space = state.space
    if space.kind != "qubit":
        raise ValueError("Pauli strings act on qubit-chain states")
    for factors in strings:
        for site, axis in factors.items():
            space.check_site(site)
            if axis not in _AXES:
                raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    ops = [{site: _PAULI[axis] for site, axis in factors.items()} for factors in strings]
    if isinstance(state, PureState):
        psi = state.amplitudes
        v = np.zeros_like(psi)
        for factors in ops:
            term = psi
            for site, local in factors.items():
                term = _apply_site(local, space, site, term)
            v += term
        mean = _real_part(complex(np.vdot(psi, v)), "expectation value")
        return mean, float(np.vdot(v, v).real)
    mean = sum((_local_mean(state, a) for a in ops), 0j)
    products = ({s: a.get(s, _ID) @ c.get(s, _ID) for s in a.keys() | c.keys()} for a in ops for c in ops)
    second = sum((_local_mean(state, p) for p in products), 0j)
    return _real_part(mean, "expectation value"), _real_part(second, "second moment")


def tilde_factors(chain: ChainSpec, k: int) -> dict[int, str]:
    """Factors of the three-site correlator at site k; z factors past the ends drop."""
    chain.space().check_site(k)
    factors = {k: "x"}
    if k > 1:
        factors[k - 1] = "z"
    if k < chain.n_sites:
        factors[k + 1] = "z"
    return factors


def phase_gate_diagonal(chain: ChainSpec) -> np.ndarray:
    """Diagonal of the neighbor phase gate in the z basis.

    The generator (pi/4) * sum_k (1 - z_k)(1 - z_{k+1}) gives each basis
    string a phase pi times its count of adjacent 1-pairs, so every diagonal
    entry is +1 or -1 and the gate is both Hermitian and an involution.
    """
    idx = np.arange(2**chain.n_sites)
    return 1.0 - 2.0 * _parity(idx & (idx >> 1))


def product_state(site_specs: Sequence[tuple[str, int]]) -> PureState:
    """Tensor product of single-qubit eigenstates, one (axis, sign) per site."""
    if len(site_specs) < 2:
        raise ValueError("need at least 2 sites")
    space = ChainSpec(len(site_specs)).space()
    if space.dim > DIM_CAP:
        raise ValueError(f"dimension {space.dim} exceeds cap {DIM_CAP}")
    v = np.ones(1, dtype=complex)
    for axis, sign in site_specs:
        if (axis, sign) not in _QUBIT_EIGENSTATES:
            raise ValueError(f"bad site spec ({axis!r}, {sign!r})")
        v = np.kron(v, _QUBIT_EIGENSTATES[(axis, sign)])
    return PureState(space, v)


def cluster_state(spec: ClusterSpec) -> PureState:
    """Joint eigenstate of the three-site correlators with eigenvalues ``spec.lambdas``.

    A graph state in closed form: the neighbor phase gate applied to all
    sites along +x is the all +1 sector, and z on each site with lambda = -1
    flips the sign of that site's correlator alone.  Amplitude i is
    d[i] (-1)^(set bits of i on the lambda = -1 sites) / sqrt(2^n), with d
    the phase-gate diagonal.
    """
    chain = spec.chain
    space = chain.space()
    if space.dim > DIM_CAP:
        raise ValueError(f"dimension {space.dim} exceeds cap {DIM_CAP}")
    negative = _site_masks(chain.n_sites)[np.array(spec.lambdas) < 0].sum()
    parity = _parity(np.arange(space.dim) & negative)
    amps = phase_gate_diagonal(chain) * (1.0 - 2.0 * parity) / np.sqrt(space.dim)
    return PureState(space, amps)
