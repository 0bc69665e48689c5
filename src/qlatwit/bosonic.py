"""Two-mode bosonic Fock lattices with Schwinger angular momentum operators.

Each lattice site holds two bosonic modes (a, b) truncated at ``n_max`` total
particles; a site with n particles behaves as a spin of length n/2.  The
Schwinger operators conserve the per-site particle number, so they are built
annihilation-first (a^dag b, b^dag a): no intermediate state ever leaves the
truncated basis and the spin algebra stays exact on every occupation shell.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import spinchain
from .qcore import DEGENERACY_GAP, DIM_CAP, GroundState, HilbertSpace, ProductState, PureState, Record, np

SPIN_UP = (1, 0)
SPIN_DOWN = (0, 1)
EMPTY = (0, 0)


class SiteFockSpace(Record):
    """Single-site two-mode Fock space with at most ``n_max`` particles.

    Basis states |n_a, n_b> are ordered by total occupation, then by
    decreasing n_a, so each fixed-total shell reads top spin down:
    (0,0); (1,0), (0,1); (2,0), (1,1), (0,2); ...
    """

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("site cutoff must be at least 1")

    @property
    def dim(self) -> int:
        return (self.n_max + 1) * (self.n_max + 2) // 2

    def basis(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (na, total - na)
            for total in range(self.n_max + 1)
            for na in range(total, -1, -1)
        )

    def index(self, na: int, nb: int) -> int:
        if na < 0 or nb < 0 or na + nb > self.n_max:
            raise ValueError(f"occupation ({na},{nb}) outside cutoff {self.n_max}")
        total = na + nb
        return total * (total + 1) // 2 + (total - na)

    def space(self) -> HilbertSpace:
        return HilbertSpace((self.dim,), kind="fock", fock_cutoff=self.n_max)


class FockLatticeSpec(Record):
    """Chain of ``n_sites`` identical two-mode Fock sites."""

    n_sites: int
    site_space: SiteFockSpace

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("lattice needs at least one site")
        d = self.site_space.dim
        # any() stops at the first power past the cap, so any n_sites is cheap
        if any(d**k > DIM_CAP for k in range(1, self.n_sites + 1)):
            raise ValueError(f"lattice dimension {d}^{self.n_sites} exceeds cap {DIM_CAP}")

    def space(self) -> HilbertSpace:
        return HilbertSpace(
            (self.site_space.dim,) * self.n_sites,
            kind="fock",
            fock_cutoff=self.site_space.n_max,
        )


def _ladder_matrices(n_max: int) -> dict[str, np.ndarray]:
    space = SiteFockSpace(n_max)
    d = space.dim
    a = np.zeros((d, d), dtype=complex)
    b = np.zeros((d, d), dtype=complex)
    for na, nb in space.basis():
        col = space.index(na, nb)
        if na >= 1:
            a[space.index(na - 1, nb), col] = np.sqrt(na)
        if nb >= 1:
            b[space.index(na, nb - 1), col] = np.sqrt(nb)
    return {"a": a, "b": b}


def _schwinger_matrices(space: SiteFockSpace) -> dict[str, np.ndarray]:
    """The one-site spin components "x", "y", "z" and the number operator "n"."""
    lad = _ladder_matrices(space.n_max)
    a, b = lad["a"], lad["b"]
    ad, bd = a.conj().T, b.conj().T
    # annihilate-before-create keeps every term inside the truncated basis
    return {
        "x": (ad @ b + bd @ a) / 2,
        "y": 1j * (bd @ a - ad @ b) / 2,
        "z": (ad @ a - bd @ b) / 2,
        "n": ad @ a + bd @ b,
    }


def occupation_basis_state(
    lattice: FockLatticeSpec, occupations: Sequence[tuple[int, int]]
) -> PureState:
    """Product basis state with the given (n_a, n_b) per site."""
    if len(occupations) != lattice.n_sites:
        raise ValueError("need one occupation pair per site")
    idx = 0
    d = lattice.site_space.dim
    for na, nb in occupations:
        idx = idx * d + lattice.site_space.index(na, nb)
    v = np.zeros(lattice.space().dim, dtype=complex)
    v[idx] = 1.0
    return PureState(lattice.space(), v)


def singlet_pair() -> PureState:
    """Two unit-filled sites sharing a spin singlet, normalized."""
    lattice = FockLatticeSpec(2, SiteFockSpace(1))
    up_down = occupation_basis_state(lattice, [SPIN_UP, SPIN_DOWN]).amplitudes
    down_up = occupation_basis_state(lattice, [SPIN_DOWN, SPIN_UP]).amplitudes
    return PureState(lattice.space(), (up_down - down_up) / np.sqrt(2))


def singlet_chain(n_pairs: int) -> ProductState:
    """Tensor product of adjacent-pair singlets over 2*n_pairs sites, held as
    n_pairs two-site ``singlet_pair`` blocks."""
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    return ProductState((singlet_pair(),) * n_pairs)


def _heisenberg_sector(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """The open chain sum_k S_k . S_{k+1} on the qubit-chain indices with popcount n // 2.

    Returns those indices, ascending, and the real symmetric matrix on them
    from ``spinchain._chain_generator`` at unit couplings: the bond's
    equal-bits hop has weight zero, so no term leaves the sector.
    """
    states = np.flatnonzero(spinchain._popcount(np.arange(2**n_sites), n_sites) == n_sites // 2)
    return states, spinchain._chain_generator(n_sites, states, 1, 1, 1, 0)


def heisenberg_ground_state(n_sites: int) -> GroundState:
    """Ground state of the open antiferromagnetic chain sum_k j_k . j_{k+1} on a
    cutoff-1 lattice, solved in one S_z sector.

    The bond conserves each site's occupation and the total S_z, so the solve
    runs on the unit-filled chain, as qubits, at S_z = 0 (even n) or +1/2 (odd
    n): qubit |0> is SPIN_UP, as in the tests' ``embed_qubit_chain``. The
    state returned is that 2^n qubit-chain state. ``energy``, ``gap`` and
    ``degenerate`` are those of the full cutoff-1 Fock space:

    - the ground level is the unit-filled one. A vacancy splits the chain into
      unit-filled segments whose energies add, and the ground energy E0 is
      subadditive: rotating one segment's ground state so the two boundary
      spins do not align makes the joining bond cost at most zero. So every
      vacancy pattern lies at or above E0(n - 1) >= E0(n), and one vacancy at
      an end reaches E0(n - 1).
    - odd n: the ground level is the S_z <-> -S_z doublet, so the gap is 0.
    - even n: every level has an S_z = 0 member, so the second level is the
      lower of the sector's second eigenvalue and E0(n - 1), with E0(1) = 0.
    """
    if n_sites < 1:
        raise ValueError("lattice needs at least one site")
    # C(n, j) grows with j up to n // 2, so any() stops soon after the cap
    if any(math.comb(n_sites, j) > DIM_CAP for j in range(n_sites // 2 + 1)):
        raise ValueError(f"S_z sector dimension C({n_sites}, {n_sites // 2}) exceeds cap {DIM_CAP}")
    states, mat = _heisenberg_sector(n_sites)
    w, v = np.linalg.eigh(mat)
    if n_sites % 2:
        gap = 0.0
    else:
        vacancy = np.linalg.eigvalsh(_heisenberg_sector(n_sites - 1)[1])[0]
        gap = float(min(w[1], vacancy) - w[0])
    amps = np.zeros(2**n_sites)
    amps[states] = v[:, 0]
    return GroundState(
        energy=float(w[0]),
        state=PureState(HilbertSpace((2,) * n_sites, kind="qubit"), amps),
        degenerate=gap < DEGENERACY_GAP,
        gap=gap,
    )
