"""Qubit-chain builders: Pauli-string moments, three-site correlators, the
neighbor phase gate, cluster and product states, and the bond flips of the
open XY(Z) chain that the pulse and the Heisenberg sector are built from.

The chain is open: the three-site correlator at the ends drops the
out-of-range z factor, and the phase-gate exponent couples sites 1..N-1.
A Pauli string is a product of one-site matrices, applied or traced site by
site through ``qcore``, so expectations of Pauli sums need no 2^n x 2^n
matrix; on a stabilizer state it is read as bit masks, with no matrix at all.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .qcore import DIM_CAP, HilbertSpace, PureState, Record, _pauli_moments, _popcount, np

AXES = ("x", "y", "z")
# the most sites of a built 2^n vector, checked before anything n-sized is built
_MAX_QUBITS = DIM_CAP.bit_length() - 1


def paulis() -> np.ndarray:
    """The Pauli matrices x, y, z stacked (3, 2, 2), a new array at each call."""
    return np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


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


def _capped_space(chain: ChainSpec) -> HilbertSpace:
    """The chain's space, refused before it is built when 2^n passes DIM_CAP."""
    if chain.n_sites > _MAX_QUBITS:
        raise ValueError(f"dimension 2^{chain.n_sites} exceeds cap {DIM_CAP}")
    return chain.space()


def _site_masks(n_sites: int) -> np.ndarray:
    # site s is bit n - s of the basis index: site 1 is the most significant
    return 1 << np.arange(n_sites - 1, -1, -1)


def _bond_hops(
    n_sites: int, states: np.ndarray, equal: float, differ: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bond flips of the open chain as matrix entries (rows, cols) = weights
    on ``states``, ascending indices that the flips map among themselves.

    With m_k the bit of site k, bond k, k+1 links states[rows] to
    states[cols] = states[rows] ^ (m_k | m_{k+1}), with weight ``equal`` where
    its two bits agree and ``differ`` where they differ.  A zero weight is
    skipped, so at ``equal == 0`` an S_z sector is never left.  x x / 4 hops
    by (1/4, 1/4), y y / 4 by (-1/4, 1/4) and S . S by (0, 1/2).
    """
    masks = _site_masks(n_sites)
    # bit s of states ^ states >> 1 is set when bits s and s + 1 of the index
    # differ; bond k joins masks[k] and masks[k + 1], so it reads masks[k + 1]
    weight = np.where((states ^ states >> 1)[:, None] & masks[1:], differ, equal)
    rows, bond = np.nonzero(weight)
    cols = np.searchsorted(states, states[rows] ^ (masks[bond] | masks[bond + 1]))
    return rows, cols, weight[rows, bond]


def pauli_sum_moments(state, strings: Sequence[Mapping[int, str]]) -> tuple[float, float]:
    """<S> and <S^2> for the sum S of the given Pauli strings on a qubit chain,
    read by ``qcore._pauli_moments``: exactly from a StabilizerState's table,
    else as products of one-site ``paulis()`` matrices."""
    space = state.space
    if space.kind != "qubit":
        raise ValueError("Pauli strings act on qubit-chain states")
    for factors in strings:
        for site, axis in factors.items():
            space.check_site(site)
            if axis not in AXES:
                raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    return _pauli_moments(state, strings, paulis)


def tilde_factors(chain: ChainSpec, k: int) -> dict[int, str]:
    """Factors of the three-site correlator at site k; z factors past the ends drop."""
    chain.space().check_site(k)
    factors = {k: "x"}
    if k > 1:
        factors[k - 1] = "z"
    if k < chain.n_sites:
        factors[k + 1] = "z"
    return factors


def cluster_generators(chain: ChainSpec) -> list:
    """The cluster state's stabilizer generators: every correlator at lambda = +1."""
    return [(tilde_factors(chain, k), 1) for k in range(1, chain.n_sites + 1)]


def phase_gate_diagonal(chain: ChainSpec) -> np.ndarray:
    """Diagonal of the neighbor phase gate in the z basis.

    The generator (pi/4) * sum_k (1 - z_k)(1 - z_{k+1}) gives each basis
    string a phase pi times its count of adjacent 1-pairs, so every diagonal
    entry is +1 or -1 and the gate is both Hermitian and an involution.
    """
    idx = np.arange(_capped_space(chain).dim)
    return 1.0 - 2.0 * (_popcount(idx & (idx >> 1), chain.n_sites) & 1)


def product_state(site_specs: Sequence[tuple[str, int]]) -> PureState:
    """Tensor product of single-qubit eigenstates, one (axis, sign) per site."""
    space = _capped_space(ChainSpec(len(site_specs)))
    eigenstates = {
        ("x", +1): np.array([1, 1], dtype=complex) / np.sqrt(2),
        ("x", -1): np.array([1, -1], dtype=complex) / np.sqrt(2),
        ("y", +1): np.array([1, 1j], dtype=complex) / np.sqrt(2),
        ("y", -1): np.array([1, -1j], dtype=complex) / np.sqrt(2),
        ("z", +1): np.array([1, 0], dtype=complex),
        ("z", -1): np.array([0, 1], dtype=complex),
    }
    v = np.ones(1, dtype=complex)
    for axis, sign in site_specs:
        if (axis, sign) not in eigenstates:
            raise ValueError(f"bad site spec ({axis!r}, {sign!r})")
        v = np.kron(v, eigenstates[(axis, sign)])
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
    space = _capped_space(chain)
    negative = _site_masks(chain.n_sites)[np.array(spec.lambdas) < 0].sum()
    parity = _popcount(np.arange(space.dim) & negative, chain.n_sites) & 1
    amps = phase_gate_diagonal(chain) * (1.0 - 2.0 * parity) / np.sqrt(space.dim)
    return PureState(space, amps)
