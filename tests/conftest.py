"""Shared independent oracles: dense operator builders written from scratch
here, so expected values never come from the code under test.  The package
itself builds no dense operator.  Beside the builders sit the dense-state
oracles that no command runs: ``oracle_density``, the kron-built
prod_g (I + g) / 2^n of stabilizer generators, ``pure_to_density``, the
partial-transpose ``negativity``, and the rotated-pair moment-matching state
that ``criteria.moment_matching_separable_state`` was before it became a
stabilizer state, kept as a ProductState test subject.  The reference helpers at the end wrap these oracles for the
acceptance gate and the differentials.  The two cluster readers
after them are the package's former state-vector forms of the decoherence echo
and the localized pair, kept to check the stabilizer forms at sizes the 4^n
density-matrix oracles cannot reach.  Last come the dense per-site channels,
which the in-place kernel ``_apply`` here runs on whole density matrices, the
qubit-to-Fock embedding and the unfold of a sector state into its 2^n
amplitudes; no command runs any of them."""

import math

import numpy as np
import pytest

from qlatwit.bosonic import FockLatticeSpec, SiteFockSpace
from qlatwit.channels import _CHANNELS, _channel, _check_p
from qlatwit.optimize import PulseParams
from qlatwit.qcore import (
    DEGENERACY_GAP,
    DensityMatrix,
    GroundState,
    HilbertSpace,
    LinearOperator,
    ProductState,
    PureState,
    Record,
    StabilizerState,
    variance_from_moments,
)
from qlatwit.spinchain import (
    ChainSpec,
    ClusterSpec,
    cluster_state,
    product_state,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
PAULIS = {"x": SX, "y": SY, "z": SZ}


def kron_all(mats):
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def oracle_site_pauli(axis, site, n):
    """Single-site Pauli on an n-qubit chain, site 1 most significant."""
    return kron_all([PAULIS[axis] if k == site else ID2 for k in range(1, n + 1)])


def oracle_pauli_string(factors, n):
    """Product of the Paulis in ``factors`` (site -> axis), identity elsewhere."""
    return kron_all([PAULIS[factors[s]] if s in factors else ID2 for s in range(1, n + 1)])


def oracle_tilde(k, n):
    """z(k-1) x(k) z(k+1) with identity past the chain ends."""
    op = oracle_site_pauli("x", k, n)
    if k > 1:
        op = oracle_site_pauli("z", k - 1, n) @ op
    if k < n:
        op = op @ oracle_site_pauli("z", k + 1, n)
    return op


def oracle_collective(axis, n):
    return sum(oracle_site_pauli(axis, k, n) for k in range(1, n + 1)) / 2


def oracle_density(generators, n):
    """prod_g (I + g) / 2^n for generators (factors, sign), built from the kron
    oracles and validated."""
    rho = kron_all([ID2] * n) / 2**n
    for factors, sign in generators:
        rho = rho @ (kron_all([ID2] * n) + sign * oracle_pauli_string(factors, n))
    return DensityMatrix(HilbertSpace((2,) * n), rho)


def oracle_product_dense(state):
    """A qcore.ProductState as one dense state, by kron products of its blocks:
    a PureState when every block is pure, a DensityMatrix otherwise.  A
    qcore.StabilizerState is the ``oracle_density`` of its generators."""
    if isinstance(state, StabilizerState):
        return oracle_density(state.generators, state.space.n_sites)
    blocks = state.blocks
    if all(isinstance(b, PureState) for b in blocks):
        return PureState(state.space, kron_all([b.amplitudes[:, None] for b in blocks])[:, 0])
    mats = [np.outer(b.amplitudes, b.amplitudes.conj()) if isinstance(b, PureState) else b.matrix
            for b in blocks]
    return DensityMatrix(state.space, kron_all(mats))


def rotated_matching_state(n_sites):
    """A separable ProductState with the cluster's first and second collective
    moments: a classical x-correlated pair on sites 1-2, a z-anticorrelated
    pair on sites 3-4, and fully mixed spins elsewhere, all rotated by 45
    degrees about the collective y axis.  The rotation turns the two pair
    correlations into the cross moment <J_z J_x + J_x J_z> = 1 and leaves every
    single-direction second moment at the fully mixed value.  Held as the two
    rotated 4x4 pair blocks and n - 4 one-site blocks I/2."""
    up, down = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    up_x, down_x = (up + down) / np.sqrt(2), (up - down) / np.sqrt(2)

    def proj(vec):
        return np.outer(vec, vec.conj())

    block_x = 0.5 * (proj(np.kron(up_x, up_x)) + proj(np.kron(down_x, down_x)))
    block_z = 0.5 * (proj(np.kron(up, down)) + proj(np.kron(down, up)))
    # exp(i pi/4 J_y) is exp(i pi/8 sigma_y) = cos(pi/8) + i sin(pi/8) sigma_y on every
    # site; it rotates each pair block by u x u and leaves the mixed sites' I/2 alone
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    uu = np.kron(*[np.array([[c, s], [-s, c]], dtype=complex)] * 2)
    pairs = tuple(DensityMatrix(HilbertSpace((2, 2)), uu @ b @ uu.conj().T) for b in (block_x, block_z))
    mixed = DensityMatrix(HilbertSpace((2,)), ID2 / 2)
    return ProductState(pairs + (mixed,) * (n_sites - 4))


def pure_to_density(state):
    v = state.amplitudes
    return DensityMatrix(state.space, np.outer(v, v.conj()))


def negativity(rho, side_a):
    """Sum of |negative eigenvalues| of the partial transpose on the sites in
    ``side_a`` (Peres): each of their bra and ket axes swapped."""
    n = rho.space.n_sites
    axes = list(range(2 * n))
    for s in side_a:
        axes[s - 1], axes[n + s - 1] = n + s - 1, s - 1
    t = rho.matrix.reshape(rho.space.dims * 2).transpose(axes).reshape(rho.space.dim, -1)
    eigs = np.linalg.eigvalsh(t)
    return float(-eigs[eigs < 0.0].sum())


def oracle_fock_basis(cutoff):
    """Two-mode occupations (n_a, n_b), by total number, then decreasing n_a."""
    return [(total - nb, nb) for total in range(cutoff + 1) for nb in range(total + 1)]


def oracle_schwinger_site(cutoff):
    """One-site Schwinger spin components and number operator from ladder matrices."""
    basis = oracle_fock_basis(cutoff)
    index = {occ: i for i, occ in enumerate(basis)}
    a = np.zeros((len(basis), len(basis)), dtype=complex)
    b = np.zeros_like(a)
    for (na, nb), col in index.items():
        if na > 0:
            a[index[(na - 1, nb)], col] = np.sqrt(na)
        if nb > 0:
            b[index[(na, nb - 1)], col] = np.sqrt(nb)
    ad, bd = a.conj().T, b.conj().T
    return {
        "x": (ad @ b + bd @ a) / 2,
        "y": (ad @ b - bd @ a) / 2j,
        "z": (ad @ a - bd @ b) / 2,
        "n": ad @ a + bd @ b,
    }


def oracle_fock_collective(name, cutoff, n):
    """Site sum of one Schwinger component (or the number operator), kron-embedded."""
    local = oracle_schwinger_site(cutoff)[name]
    eye = np.eye(local.shape[0], dtype=complex)
    return sum(
        kron_all([local if k == site else eye for k in range(1, n + 1)])
        for site in range(1, n + 1)
    )


def oracle_heisenberg(cutoff, n, sign):
    """sign * sum over bonds k and axes a of j_a(k) j_a(k+1), each term one kron product."""
    site = oracle_schwinger_site(cutoff)
    eye = np.eye(site["n"].shape[0], dtype=complex)
    return sign * sum(
        kron_all([eye] * (k - 1) + [site[a], site[a]] + [eye] * (n - k - 1))
        for k in range(1, n)
        for a in "xyz"
    )


def oracle_pulse_generator(n, params):
    """The pulse generator from kron products of sigma / 2, one matrix per term;
    a term at a zero angle is not built."""
    def site_term(k, mats):
        # mats act on the sites from k on, identity elsewhere
        return kron_all([ID2] * (k - 1) + mats + [ID2] * (n - k - len(mats) + 1))

    g = np.zeros((2**n, 2**n), dtype=complex)
    for angle, mats in ((params.theta_xx, [SX / 2, SX / 2]), (params.theta_yy, [SY / 2, SY / 2]),
                        (params.theta_z, [SZ / 2])):
        if angle:
            for k in range(1, n + 2 - len(mats)):
                g += angle * site_term(k, mats)
    return g


def oracle_pulse_fold(n):
    """The mirror-even sector by a dense fold: orbit of each even-parity
    index, its weight, and fold.T @ G @ fold for the three pulse terms, each
    G the kron-built ``oracle_pulse_generator`` at one unit angle, restricted
    to the even-parity indices, where it is real."""
    even = np.array([i for i in range(2**n) if bin(i).count("1") % 2 == 0])
    mirror = np.array([int(format(i, f"0{n}b")[::-1], 2) for i in even])
    reps, orbit = np.unique(np.minimum(even, mirror), return_inverse=True)
    weight = np.where(even == mirror, 1.0, np.sqrt(0.5))
    fold = np.zeros((even.size, reps.size))
    fold[np.arange(even.size), orbit] = weight
    terms = []
    for angles in ((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)):
        g = oracle_pulse_generator(n, PulseParams(*angles))[np.ix_(even, even)]
        assert not g.imag.any()
        terms.append(fold.T @ g.real @ fold)
    return orbit.ravel(), weight, terms


def _rotations(axis, angles):
    """Rotation matrices about the y or z axis, one per angle, shape angles.shape + (3, 3)."""
    c, s = np.cos(angles), np.sin(angles)
    zero, one = np.zeros_like(angles), np.ones_like(angles)
    if axis == "z":
        rows = [[c, -s, zero], [s, c, zero], [zero, zero, one]]
    else:
        rows = [[c, zero, s], [zero, one, zero], [-s, zero, c]]
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def oracle_squeezing_grid(mean, second, n_total, grid_points):
    """Lowest N Var(J_n1) / (<J_n2>^2 + <J_n3>^2) over a grid_points^3 grid of
    z-y-z Euler rotations whose columns are n1, n2, n3; inf when every
    denominator is below 1e-12."""
    angles = np.linspace(0.0, 2 * np.pi, grid_points, endpoint=False)
    betas = np.linspace(0.0, np.pi, grid_points)
    alpha, beta, gamma = np.meshgrid(angles, betas, angles, indexing="ij")
    rot = _rotations("z", alpha) @ _rotations("y", beta) @ _rotations("z", gamma)
    n1, n2, n3 = rot[..., 0], rot[..., 1], rot[..., 2]
    var1 = np.einsum("...i,ij,...j->...", n1, second, n1) - (n1 @ mean) ** 2
    denom = (n2 @ mean) ** 2 + (n3 @ mean) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(denom < 1e-12, np.inf, n_total * np.maximum(var1, 0.0) / denom)
    return float(ratio.min())


# ---------------------------------------------------------------------------
# reference helpers on the oracles above, with the package's argument types;
# operators are qcore.LinearOperator so that qcore.expectation applies


def _observable(space, matrix):
    return LinearOperator(space, matrix, hermitian_hint=True)


def tilde_sigma_x(chain, k):
    return _observable(chain.space(), oracle_tilde(k, chain.n_sites))


def schwinger_j(site_space, axis):
    return _observable(site_space.space(), oracle_schwinger_site(site_space.n_max)[axis])


def site_number_operator(site_space):
    return _observable(site_space.space(), oracle_schwinger_site(site_space.n_max)["n"])


def collective_j_operators(space):
    """J_x, J_y, J_z of a qubit chain or a Fock lattice, keyed by axis."""
    n = space.n_sites
    if space.kind == "qubit":
        return {ax: _observable(space, oracle_collective(ax, n)) for ax in "xyz"}
    return {ax: _observable(space, oracle_fock_collective(ax, space.fock_cutoff, n)) for ax in "xyz"}


def heisenberg_hamiltonian(lattice):
    """The antiferromagnetic open chain on ``lattice``."""
    matrix = oracle_heisenberg(lattice.site_space.n_max, lattice.n_sites, +1)
    return _observable(lattice.space(), matrix)


def maximal_angular_momentum_check(site_space):
    """Operator-norm residual of j^2 - (N/2)(1 + N/2) on one site; zero when every
    occupation shell carries the full spin-N/2 representation."""
    site = oracle_schwinger_site(site_space.n_max)
    half_n = site["n"] / 2
    residual = sum(site[a] @ site[a] for a in "xyz") - half_n @ (np.eye(len(half_n)) + half_n)
    return float(np.linalg.norm(residual, 2))


def ground_state(h):
    """Lowest eigenpair of ``h`` from one dense eigh, with its gap."""
    w, v = np.linalg.eigh(h.matrix)
    gap = float(w[1] - w[0])
    return GroundState(float(w[0]), PureState(h.space, v[:, 0]), gap < DEGENERACY_GAP, gap)


def pulse_unitary(chain, params):
    """exp(-i G) of the kron-built pulse generator G, from one eigh."""
    w, v = np.linalg.eigh(oracle_pulse_generator(chain.n_sites, params))
    return LinearOperator(chain.space(), (v * np.exp(-1j * w)) @ v.conj().T)


def variance(op, state):
    """<op^2> - <op>^2 on a pure state."""
    v = op.matrix @ state.amplitudes
    return variance_from_moments(np.vdot(state.amplitudes, v).real, np.vdot(v, v).real)


def basis_state(chain, bits):
    """Computational-basis state; bits[0] is site 1."""
    if len(bits) != chain.n_sites:
        raise ValueError("need one bit per site")
    idx = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        idx = (idx << 1) | b
    v = np.zeros(chain.space().dim, dtype=complex)
    v[idx] = 1.0
    return PureState(chain.space(), v)


def plus_chain(chain):
    """All sites in the +1 eigenstate of sigma_x."""
    return product_state([("x", +1)] * chain.n_sites)


def oracle_string_mean(amplitudes, factors, n):
    """<psi| prod_s PAULIS[factors[s]]^(s) |psi>: the kron product of the
    one-site Paulis applied one tensor axis at a time, so no 2^n x 2^n matrix
    is built."""
    t = amplitudes.reshape((2,) * n)
    out = t
    for site, axis in factors.items():
        out = np.moveaxis(np.tensordot(PAULIS[axis], out, axes=(1, site - 1)), 0, site - 1)
    return float(np.vdot(t, out).real)


def cluster_echo(n, p, kind):
    """The echo's per-site <x_k> read on the 2^n cluster state: the channel's
    scale of each correlator K_k = z(k-1) x(k) z(k+1) times <K_k> on the state."""
    f_xy, f_z = _CHANNELS[kind][0](p)
    scale = {"x": f_xy, "y": f_xy, "z": f_z}
    amps = cluster_state(ClusterSpec(ChainSpec(n), (1,) * n)).amplitudes
    echo = []
    for k in range(1, n + 1):
        factors = {s: a for s, a in ((k - 1, "z"), (k, "x"), (k + 1, "z")) if 1 <= s <= n}
        echo.append(math.prod(scale[a] for a in factors.values()) * oracle_string_mean(amps, factors, n))
    return echo


def cluster_pair_block(n, p, pair, outcomes, kind):
    """The localized pair's 4x4 block gathered from the 2^n cluster amplitudes.

    Rows hold the measured sites' bits in site order and columns the pair's.
    Branch b keeps entry c of the measured sites with the weight
    M[b, c] = <b|Phi(|c><c|)|b> = (1 + f_z (-1)^(b xor c))/2, and the
    channel then acts on both pair sites."""
    scales = _CHANNELS[kind][0](p)
    k1, k2 = pair
    amps = cluster_state(ClusterSpec(ChainSpec(n), (1,) * n)).amplitudes
    rows = np.moveaxis(amps.reshape((2,) * n), (k1 - 1, k2 - 1), (-2, -1)).reshape(-1, 4)
    weight_rows = (1.0 + scales[1] * np.array([[1.0, -1.0], [-1.0, 1.0]])) / 2.0
    weights = np.ones(1)
    for bit in outcomes:
        weights = np.kron(weights, weight_rows[bit])
    block = rows.T @ (weights[:, None] * rows.conj())
    block = _apply(_apply(block, 2, 1, scales), 2, 2, scales)
    return block / np.trace(block).real


# ---------------------------------------------------------------------------
# dense per-site channels on whole density matrices, through the kernel
# ``_apply``, and the qubit chain embedded in a Fock lattice


def _apply(mat, n_sites, site, scales):
    """The Pauli channel with scales (f_xy, f_z) on ``site`` of ``mat``, in place.

    ``mat`` is viewed as (left, bra bit, right, left, ket bit, right), so writes
    reach a C-contiguous ``mat``.  The off-diagonal blocks are scaled by f_xy;
    the diagonal blocks move (1 - f_z)/2 of their difference toward each other.
    """
    f_xy, f_z = scales
    left, right = 2 ** (site - 1), 2 ** (n_sites - site)
    t = mat.reshape(left, 2, right, left, 2, right)
    t[:, 0, :, :, 1] *= f_xy
    t[:, 1, :, :, 0] *= f_xy
    if f_z != 1.0:
        shift = t[:, 0, :, :, 0] - t[:, 1, :, :, 1]
        shift *= (1.0 - f_z) / 2.0
        t[:, 0, :, :, 0] -= shift
        t[:, 1, :, :, 1] += shift
    return t.reshape(mat.shape)


class DecoherenceModel(Record):
    """A per-site channel at a fixed exposure.

    ``p`` is the keep-state weight, (1 + exp(-kappa t)) / 2 after dephasing at
    rate kappa for a time t, which confines it to [1/2, 1].
    """

    kind: str
    p: float

    def __post_init__(self):
        _channel(self.kind)
        if not 0.5 <= self.p <= 1.0:
            raise ValueError(f"model weight p={self.p} outside [1/2, 1]")


def _check_qubit_density(rho):
    if rho.space.kind != "qubit":
        raise ValueError("channels act on qubit-chain density matrices")
    return rho.space.n_sites


def _one_site(kind, rho, site, p):
    n = _check_qubit_density(rho)
    rho.space.check_site(site)
    _check_p(p)
    scales = _CHANNELS[kind][0](p)
    return DensityMatrix(rho.space, _apply(rho.matrix.copy(), n, site, scales))


def phase_flip(rho, site, p):
    """p rho + (1-p) Z rho Z on one site."""
    return _one_site("phase_flip", rho, site, p)


def depolarizing(rho, site, p):
    """p rho + (1-p)/3 (X rho X + Y rho Y + Z rho Z) on one site."""
    return _one_site("depolarizing", rho, site, p)


def apply_all_sites(model, rho):
    """The model's channel applied to every site (order irrelevant)."""
    n = _check_qubit_density(rho)
    scales = _channel(model.kind)[0](model.p)
    mat = rho.matrix.copy()
    for site in range(1, n + 1):
        mat = _apply(mat, n, site, scales)
    return DensityMatrix(rho.space, mat)


def embed_qubit_chain(state):
    """Map a qubit chain into the unit-filled sector of an n_max=1 lattice.

    Qubit |0> becomes one atom in mode a (spin up), |1> one atom in mode b
    (spin down): qubit index i lands on Fock index sum_k (1 + b_k) 3^(n-k),
    with b_k the bit of site k.
    """
    if state.space.kind != "qubit":
        raise ValueError("embed_qubit_chain expects a qubit-chain state")
    n = state.space.n_sites
    lattice = FockLatticeSpec(n, SiteFockSpace(1))
    idx = np.arange(state.space.dim)
    fock_index = sum((1 + ((idx >> s) & 1)) * 3**s for s in range(n))
    amps = np.zeros(lattice.space().dim, dtype=complex)
    amps[fock_index] = state.amplitudes
    return PureState(lattice.space(), amps)


def unfold(state):
    """The PureState of a SectorState: its amplitudes scattered into a 2^n vector of zeros."""
    amps = np.zeros(state.space.dim, dtype=complex)
    amps[state.states] = state.amplitudes
    return PureState(state.space, amps)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
