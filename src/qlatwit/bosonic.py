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
from .qcore import (DEGENERACY_GAP, DIM_CAP, GroundState, HilbertSpace, ProductState, PureState, Record,
                    SectorState, np)

SPIN_UP = (1, 0)
SPIN_DOWN = (0, 1)
EMPTY = (0, 0)

# the Lanczos run stops once each wanted Ritz pair has a residual below this;
# a level is then within residual^2 / gap of the sector's
_RESIDUAL = 1e-12
# Lanczos steps between two convergence checks, each an O(k) bisection in Python
_CHECK_EVERY = 8
# the stored Lanczos basis grows by blocks of this many rows, so no step copies it
_BLOCK_ROWS = 32
# a zero pivot of a tridiagonal factorization is replaced by the float resolution
_PIVOT_FLOOR = 2.0**-52
# amplitudes within this fraction of the largest magnitude tie for the ground vector's sign
_TIE = 1e-9


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


def _heisenberg_hops(n_sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The open chain sum_k S_k . S_{k+1} on the qubit-chain indices with popcount n // 2.

    Returns those indices, ascending, the diagonal (n - 1 - 2 a) / 4 with a
    the count of antiparallel bonds, and the hops (rows, cols) of
    ``spinchain._bond_hops``: a bond whose two bits differ swaps them with
    weight 1/2.  The equal-bits hop has weight zero, so no term leaves the
    sector.
    """
    states = np.flatnonzero(spinchain._popcount(np.arange(2**n_sites), n_sites) == n_sites // 2)
    # bit s of antiparallel is set when bits s and s + 1 of the index differ
    antiparallel = states ^ (states >> 1)
    diag = (n_sites - 1 - 2.0 * spinchain._popcount(antiparallel, n_sites - 1)) / 4
    rows, cols, _ = spinchain._bond_hops(n_sites, states, 0.0, 0.5)
    return states, diag, rows, cols


def _tridiagonal_levels(alpha: list[float], beta: list[float], n_levels: int) -> list[float]:
    """The ``n_levels`` lowest eigenvalues of the symmetric tridiagonal matrix with
    diagonal ``alpha`` and off-diagonal ``beta[:k - 1]``, each bisected to float
    resolution inside the Gershgorin interval.

    The Sturm count, the number of negative pivots of T - x = L D L^T, is the
    number of eigenvalues below x (Sylvester's law of inertia).
    """
    off = [0.0] + beta[: len(alpha) - 1]
    squares = [b * b for b in off]

    def below(x: float) -> int:
        count, pivot = 0, 1.0
        for a, b2 in zip(alpha, squares):
            pivot = (a - x) - b2 / pivot
            if pivot < 0.0:
                count += 1
            elif pivot == 0.0:
                pivot = _PIVOT_FLOOR
        return count

    radius = [abs(b) + abs(c) for b, c in zip(off, off[1:] + [0.0])]
    lo = min(a - r for a, r in zip(alpha, radius))
    hi = max(a + r for a, r in zip(alpha, radius))
    levels = []
    for j in range(min(n_levels, len(alpha))):
        # level j stays in [lo, top): at most j eigenvalues lie below lo, more below top
        top = hi
        while lo < (mid := 0.5 * (lo + top)) < top:
            if below(mid) > j:
                top = mid
            else:
                lo = mid
        levels.append(lo)
    return levels


def _tridiagonal_vector(alpha: list[float], beta: list[float], level: float) -> list[float]:
    """Unit eigenvector of the tridiagonal matrix of ``_tridiagonal_levels`` at
    one of its eigenvalues, by two inverse-iteration solves of (T - level) y = y'
    with the Thomas algorithm: L U elimination without pivoting, a zero pivot
    replaced by the float resolution."""
    k = len(alpha)
    upper = beta[: k - 1] + [0.0]
    off = [0.0] + upper[:-1]
    y = [1.0] * k
    for _ in range(2):
        pivots, rhs = [], []
        pivot, carry = 1.0, 0.0
        for a, b, r in zip(alpha, off, y):
            m = b / pivot
            pivot = (a - level) - m * b or _PIVOT_FLOOR
            carry = r - m * carry
            pivots.append(pivot)
            rhs.append(carry)
        x, nxt = [0.0] * k, 0.0
        for i in range(k - 1, -1, -1):
            nxt = x[i] = (rhs[i] - upper[i] * nxt) / pivots[i]
        norm = math.sqrt(math.fsum(v * v for v in x))
        y = [v / norm for v in x]
    return y


def _heisenberg_lanczos(n_sites: int, n_levels: int) -> tuple[np.ndarray, list[float], np.ndarray]:
    """The sector of ``_heisenberg_hops`` by Lanczos with full reorthogonalization.

    Returns the sector's indices, its ``n_levels`` lowest distinct levels and
    the unit ground vector on the indices, its sign fixed by ``_sign_fixed``.

    The run starts from cos(2.39996 i + 0.3), neither even nor odd under the
    chain's spin flip or reflection, so no level is missed for want of overlap,
    as the triplet can be for a uniform or Neel start.  Each new vector is
    orthogonalized twice against every stored one ("twice is enough"), so no
    converged level comes back as a ghost copy.  Every ``_CHECK_EVERY`` steps
    the tridiagonal levels and vectors are taken without LAPACK, and the run
    stops when the residual of each of the ``n_levels`` lowest Ritz pairs is
    below ``_RESIDUAL``, or on breakdown, when the Krylov space closes (n <= 6
    does).
    """
    states, diag, rows, cols = _heisenberg_hops(n_sites)
    dim = states.size
    blocks = [np.empty((min(dim, _BLOCK_ROWS), dim))]
    start = np.cos(2.39996 * np.arange(dim) + 0.3)
    blocks[0][0] = start / np.linalg.norm(start)
    alpha: list[float] = []
    beta: list[float] = []
    for k in range(1, dim + 1):
        q = blocks[-1][(k - 1) % _BLOCK_ROWS]
        w = diag * q + 0.5 * np.bincount(rows, q[cols], minlength=dim)
        alpha.append(float(q @ w))
        done = [block[: k - i * _BLOCK_ROWS] for i, block in enumerate(blocks)]  # the k rows so far
        for block in done * 2:
            w -= block.T @ (block @ w)
        beta.append(float(np.linalg.norm(w)))
        if k % _CHECK_EVERY == 0 or beta[-1] <= _RESIDUAL or k == dim:
            levels = _tridiagonal_levels(alpha, beta, n_levels)
            vectors = [_tridiagonal_vector(alpha, beta, level) for level in levels]
            if k == dim or all(beta[-1] * abs(y[-1]) <= _RESIDUAL for y in vectors):
                break
        if k % _BLOCK_ROWS == 0:
            blocks.append(np.empty((min(_BLOCK_ROWS, dim - k), dim)))
        blocks[-1][k % _BLOCK_ROWS] = w / beta[-1]
    ground = sum(vectors[0][i * _BLOCK_ROWS : (i + 1) * _BLOCK_ROWS] @ block for i, block in enumerate(done))
    return states, levels, _sign_fixed(ground)


def _sign_fixed(vector: np.ndarray) -> np.ndarray:
    """``vector`` with its first amplitude within ``_TIE`` of the largest
    magnitude made positive, so amplitudes that tie by symmetry leave no
    choice to round-off."""
    size = np.abs(vector)
    return vector if vector[np.argmax(size >= (1 - _TIE) * size.max())] > 0 else -vector


def heisenberg_ground_state(n_sites: int) -> GroundState:
    """Ground state of the open antiferromagnetic chain sum_k j_k . j_{k+1} on a
    cutoff-1 lattice, solved in one S_z sector.

    The bond conserves each site's occupation and the total S_z, so the solve
    runs on the unit-filled chain, as qubits, at S_z = 0 (even n) or +1/2 (odd
    n): qubit |0> is SPIN_UP, as in the tests' ``embed_qubit_chain``. The
    state returned is the qubit chain's ``SectorState`` on that sector, with no
    2^n array. ``energy``, ``gap`` and ``degenerate`` are those of the full
    cutoff-1 Fock space:

    - the ground level is the unit-filled one. A vacancy splits the chain into
      unit-filled segments whose energies add, and the ground energy E0 is
      subadditive: rotating one segment's ground state so the two boundary
      spins do not align makes the joining bond cost at most zero. So every
      vacancy pattern lies at or above E0(n - 1) >= E0(n), and one vacancy at
      an end reaches E0(n - 1).
    - odd n: the ground level is the S_z <-> -S_z doublet, so the gap is 0.
    - even n: every level has an S_z = 0 member, so the second level is the
      lower of the sector's second eigenvalue and E0(n - 1), with E0(1) = 0.

    The sector is solved by ``_heisenberg_lanczos``, which finds each level
    once whatever its multiplicity in the sector.  That is enough: at even n
    the ground level is a non-degenerate total-spin singlet (Lieb & Mattis),
    so the second distinct level is the sector's second eigenvalue, and at odd
    n the gap is the exact 0.0 of the doublet, whatever the sector holds.
    """
    if n_sites < 1:
        raise ValueError("lattice needs at least one site")
    # C(n, j) grows with j up to n // 2, so any() stops soon after the cap
    if any(math.comb(n_sites, j) > DIM_CAP for j in range(n_sites // 2 + 1)):
        raise ValueError(f"S_z sector dimension C({n_sites}, {n_sites // 2}) exceeds cap {DIM_CAP}")
    states, levels, ground = _heisenberg_lanczos(n_sites, 1 if n_sites % 2 else 2)
    if n_sites % 2:
        gap = 0.0
    else:
        vacancy = _heisenberg_lanczos(n_sites - 1, 1)[1][0]
        gap = min(levels[1], vacancy) - levels[0]
    return GroundState(
        energy=levels[0],
        state=SectorState(HilbertSpace((2,) * n_sites, kind="qubit"), states, ground),
        degenerate=gap < DEGENERACY_GAP,
        gap=gap,
    )
