"""Separability criteria and collective-moment comparisons.

Every criterion returns a CriterionReport stating the measured value, the
bound satisfied by all separable states, which side of the bound is
separable-compatible, and whether the state strictly violates it.  Bounds are
attained by separable states, so saturation never counts as a violation; a
violation requires crossing the bound by more than VIOLATION_TOL.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from . import bosonic, spinchain
# expectation is unused here; clibench/tests checks that its tracer rebinds this name
from .qcore import (  # noqa: F401
    DensityMatrix,
    HilbertSpace,
    ProductState,
    PureState,
    Record,
    _apply_site,
    _local_mean,
    _real_part,
    _site_block,
    _site_sum,
    expectation,
    variance_from_moments,
)

VIOLATION_TOL = 1e-9
INDISTINGUISHABLE_TOL = 1e-9
# the largest moment order compared, checked before the tables are built:
# (n/2)^1024 overflows for n >= 4, and J_n has at most 4 distinct eigenvalues
# on 2 or 3 sites, so no working order is lost
MAX_ORDER = 1023
_ORTHOGONALITY_TOL = 1e-10
_DENOMINATOR_TOL = 1e-12
_HALF_INTEGER_TOL = 1e-9

AXES = ("x", "y", "z")
_HALF_PAULIS = spinchain.PAULIS / 2


class Direction(Record):
    """Unit 3-vector of collective-spin direction cosines."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        norm = math.sqrt(self.x**2 + self.y**2 + self.z**2)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"direction norm {norm} deviates from 1")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "Direction":
        norm = math.sqrt(x * x + y * y + z * z)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(x / norm, y / norm, z / norm)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


AXIS_X = Direction(1.0, 0.0, 0.0)
AXIS_Y = Direction(0.0, 1.0, 0.0)
AXIS_Z = Direction(0.0, 0.0, 1.0)


class CriterionReport(Record):
    """Outcome of one separability criterion on one state.

    ``direction`` records which side is separable-compatible: "<=" means all
    separable states satisfy value <= bound (violation lies above), ">=" the
    reverse.  ``margin`` is always value - bound.
    """

    name: str
    value: float
    bound: float
    direction: str
    violated: bool
    margin: float
    aux: dict

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value": _jsonable(self.value),
            "bound": _jsonable(self.bound),
            "direction": self.direction,
            "violated": self.violated,
            "margin": _jsonable(self.margin),
            "aux": {k: _jsonable(v) for k, v in self.aux.items()},
        }


def _jsonable(v):
    if isinstance(v, (np.floating, float)):
        f = float(v)
        return None if math.isnan(f) else f
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _report(name: str, value: float, bound: float, direction: str, aux: dict) -> CriterionReport:
    if direction == "<=":
        violated = value > bound + VIOLATION_TOL
    elif direction == ">=":
        violated = value < bound - VIOLATION_TOL
    else:
        raise ValueError(f"direction must be '<=' or '>=', got {direction!r}")
    return CriterionReport(
        name=name,
        value=float(value),
        bound=float(bound),
        direction=direction,
        violated=violated,
        margin=float(value - bound),
        aux=aux,
    )


# ---------------------------------------------------------------------------
# collective spins for either site kind: site sums of one d x d matrix


def _require_qubit_chain(state, even: bool) -> spinchain.ChainSpec:
    space = state.space
    if space.kind != "qubit":
        raise ValueError("this criterion expects a qubit-chain state")
    if even and space.n_sites % 2 != 0:
        raise ValueError(f"this criterion requires an even number of sites, got {space.n_sites}")
    return spinchain.ChainSpec(space.n_sites)


def _site_spin_matrices(space: HilbertSpace) -> np.ndarray:
    """The one-site spin matrices j_x, j_y, j_z of this space, stacked (3, d, d).

    Every collective spin here is J_a = sum_k j_a^(k): sigma_a / 2 on a qubit
    chain, the Schwinger j_a on a two-mode Fock lattice.
    """
    if space.kind == "qubit":
        return _HALF_PAULIS
    if space.kind == "fock":
        js = bosonic._schwinger_matrices(bosonic.SiteFockSpace(space.fock_cutoff))
        return np.stack([js[ax] for ax in AXES])
    raise ValueError(f"no collective spin defined for space kind {space.kind!r}")


def _site_product(u: np.ndarray, space: HilbertSpace, values: np.ndarray) -> np.ndarray:
    """(u x u x ... x u) applied to the state index of ``values``."""
    for site in range(1, space.n_sites + 1):
        values = _apply_site(u, space, site, values)
    return values


def _rotated_diagonal(u: np.ndarray, space: HilbertSpace, matrix: np.ndarray) -> np.ndarray:
    """diag(U M U^dagger) for U = u x u x ... x u, one site at a time.

    Right after a site is rotated only its diagonal is kept,
    new[x, i, r, s] = sum_ab u[i, a] conj(u[i, b]) t[x, a, r, b, s], where x
    runs over the sites already done: the array shrinks by d per site, and
    neither U M U^dagger nor any other dim x dim product is formed.
    """
    d = u.shape[0]
    pair = u[:, :, None] * u.conj()[:, None, :]
    t = matrix.reshape((1,) + matrix.shape)
    for _ in range(space.n_sites):
        x, r = t.shape[0], t.shape[1] // d
        t = np.einsum("iab,xarbs->xirs", pair, t.reshape(x, d, r, d, r)).reshape(x * d, r, r)
    return t.reshape(-1)


def _real_array(values: np.ndarray, what: str) -> np.ndarray:
    return np.array([_real_part(complex(v), what) for v in values.flat]).reshape(values.shape)


def collective_moments(state) -> tuple[np.ndarray, np.ndarray]:
    """<J_k> and the symmetrized <(J_k J_l + J_l J_k) / 2> for k, l in x, y, z.

    No dim x dim operator is built.  A pure state takes v_k = J_k psi, applied
    site by site, and inner products.  A density matrix is read through its
    one- and two-site blocks: with J_k = sum_s j_k^(s), <J_k> and the
    same-site terms sum_s Tr(j_k j_l rho_s) come from the sum of the one-site
    blocks rho_s, and the cross terms from the sum over pairs s < t of the
    two-site blocks rho_st, as Tr((j_k x j_l) rho_st) plus its transpose.
    A ProductState is read block by block: the means add, and
    <J_k J_l> = sum_b <J_k J_l>_b + sum_{b != c} <J_k>_b <J_l>_c.
    """
    if isinstance(state, ProductState):
        parts = [collective_moments(block) for block in state.blocks]
        mean = sum(m for m, _ in parts)
        # sum_{b != c} m_b m_c^T is (sum_b m_b)(sum_c m_c)^T less the b == c terms
        return mean, sum(s - np.outer(m, m) for m, s in parts) + np.outer(mean, mean)
    space = state.space
    local = _site_spin_matrices(space)
    if isinstance(state, PureState):
        psi = state.amplitudes
        v = _site_sum(local, space, psi)
        mean = v @ psi.conj()
        gram = v.conj() @ v.T
    elif isinstance(state, DensityMatrix):
        d = local.shape[-1]
        one = _one_site_sum(space, state.matrix)
        two = sum(
            (_site_block(space, pair, state.matrix)
             for pair in itertools.combinations(range(1, space.n_sites + 1), 2)),
            np.zeros((d * d, d * d), dtype=complex),
        ).reshape(d, d, d, d)
        mean = np.einsum("kij,ji->k", local, one)
        cross = np.einsum("kab,lcd,bdac->kl", local, local, two)
        gram = np.einsum("kim,lmj,ji->kl", local, local, one) + cross + cross.T
    else:
        raise ValueError(f"cannot take moments of {type(state).__name__}")
    return (
        _real_array(mean, "expectation value"),
        _real_array((gram + gram.T) / 2, "second moment"),
    )


def _one_site_sum(space: HilbertSpace, matrix: np.ndarray) -> np.ndarray:
    """sum_s rho_s, the one-site blocks summed over sites: Tr(local @ it) is
    <sum_s local^(s)>."""
    return sum(_site_block(space, (s,), matrix) for s in range(1, space.n_sites + 1))


def total_particle_number(state) -> float:
    """<N_total>: the site count for qubit chains (one spin per site), else
    the sum of the one-site number means."""
    space = state.space
    if space.kind == "qubit":
        return float(space.n_sites)
    if space.kind != "fock":
        raise ValueError(f"no particle number defined for space kind {space.kind!r}")
    number = bosonic._schwinger_matrices(bosonic.SiteFockSpace(space.fock_cutoff))["n"]
    value = sum(_local_mean(state, {s: number}) for s in range(1, space.n_sites + 1))
    return _real_part(complex(value), "expectation value")


def _correlator_means(state, chain: spinchain.ChainSpec) -> list[float]:
    return [
        spinchain.pauli_sum_moments(state, [spinchain.tilde_factors(chain, k)])[0]
        for k in range(1, chain.n_sites + 1)
    ]


# ---------------------------------------------------------------------------
# qubit-chain criteria


def witness_criterion(state) -> CriterionReport:
    """Sum of three-site correlators; above n/2 certifies entanglement."""
    chain = _require_qubit_chain(state, even=True)
    correlators = _correlator_means(state, chain)
    value = float(sum(correlators))
    return _report(
        "witness",
        value,
        chain.n_sites / 2,
        "<=",
        {"n_sites": chain.n_sites, "correlators": correlators},
    )


def quadruplet_bound(witness_value: float, n_sites: int) -> float:
    """Lower bound on non-overlapping entangled quadruplets from the witness."""
    if n_sites % 2 != 0:
        raise ValueError("quadruplet bound is defined for even chains")
    return max(0.0, witness_value / 2 - n_sites / 4)


def squared_criterion(state) -> CriterionReport:
    """Sum of squared correlator expectations; detects both sign sectors."""
    chain = _require_qubit_chain(state, even=True)
    correlators = _correlator_means(state, chain)
    value = float(sum(c * c for c in correlators))
    return _report(
        "squared_witness",
        value,
        chain.n_sites / 2,
        "<=",
        {"n_sites": chain.n_sites, "correlators": correlators},
    )


def variance_x_criterion(state) -> CriterionReport:
    """Summed variances of the three every-third-site correlator sums.

    Grouping the correlators by site index mod 3 keeps overlapping triples in
    different groups, so for separable states the three variances add up to at
    least n/2; falling below that certifies entanglement.
    """
    chain = _require_qubit_chain(state, even=True)
    n = chain.n_sites
    class_variances = []
    for m in (1, 2, 3):
        terms = [spinchain.tilde_factors(chain, k) for k in range(1, n + 1) if k % 3 == m % 3]
        class_variances.append(variance_from_moments(*spinchain.pauli_sum_moments(state, terms)))
    value = float(sum(class_variances))
    return _report(
        "variance_x",
        value,
        n / 2,
        ">=",
        {"n_sites": n, "class_variances": class_variances},
    )


# ---------------------------------------------------------------------------
# collective-uncertainty criteria (qubit chains and Fock lattices)


def collective_uncertainty_criterion(state) -> CriterionReport:
    """Total collective-spin variance against half the mean particle number."""
    mean, second = collective_moments(state)
    variances = {
        ax: variance_from_moments(float(mean[i]), float(second[i, i])) for i, ax in enumerate(AXES)
    }
    value = float(sum(variances.values()))
    n_total = total_particle_number(state)
    return _report(
        "collective_uncertainty",
        value,
        n_total / 2,
        ">=",
        {"variances": variances, "total_number": n_total},
    )


def spin_squeezing_criterion(
    state, n1: Direction, n2: Direction, n3: Direction
) -> CriterionReport:
    """Variance along n1 against the mean spin in the n2/n3 plane.

    Separable states satisfy N Var(J_n1) / (<J_n2>^2 + <J_n3>^2) >= 1.  When
    the denominator vanishes the criterion carries no information and the
    report is flagged undefined instead of violated; states with zero mean
    spin in every direction are exactly the ones it cannot detect.
    """
    vecs = [n1.as_array(), n2.as_array(), n3.as_array()]
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(float(vecs[i] @ vecs[j])) > _ORTHOGONALITY_TOL:
                raise ValueError("spin squeezing directions must be mutually orthogonal")
    return _squeezing_report(state, *collective_moments(state), np.array(vecs))


def _squeezing_report(
    state, mean: np.ndarray, second: np.ndarray, vecs: np.ndarray
) -> CriterionReport:
    """The spin-squeezing report for the orthonormal rows n1, n2, n3 of ``vecs``."""
    n_total = total_particle_number(state)
    var1 = variance_from_moments(float(vecs[0] @ mean), float(vecs[0] @ second @ vecs[0]))
    mean2 = float(vecs[1] @ mean)
    mean3 = float(vecs[2] @ mean)
    denominator = mean2 * mean2 + mean3 * mean3
    aux = {
        "variance_n1": var1,
        "mean_n2": mean2,
        "mean_n3": mean3,
        "denominator": denominator,
        "total_number": n_total,
        "directions": vecs,
    }
    if denominator < _DENOMINATOR_TOL:
        aux["undefined"] = True
        aux["note"] = "zero mean spin in the measurement plane; criterion cannot detect this state"
        return CriterionReport(
            name="spin_squeezing",
            value=float("nan"),
            bound=1.0,
            direction=">=",
            violated=False,
            margin=float("nan"),
            aux=aux,
        )
    value = n_total * var1 / denominator
    return _report("spin_squeezing", value, 1.0, ">=", aux)


def spin_squeezing_best(state) -> CriterionReport:
    """The spin-squeezing report for the orthogonal triple with the lowest ratio.

    With m = <J> and C its covariance matrix, the ratio of a triple is
    N n1^T C n1 / n1^T (|m|^2 I - m m^T) n1 whichever n2, n3 complete it
    (Toth, Knapp, Guehne & Briegel, PRL 99, 250405 (2007)).  Writing
    n1 = a u + w with u = m / |m| and w orthogonal to m, the best a is
    -u^T C w / u^T C u (zero when u^T C u vanishes), and w is then the lowest
    eigenvector of the Schur complement of C's u entry on the plane
    orthogonal to m.  n2 is the part of m orthogonal to n1 and n3 = n1 x n2.
    A state with zero mean spin is reported for (x, z, y), flagged undefined.
    """
    mean, second = collective_moments(state)
    norm2 = float(mean @ mean)
    if norm2 < _DENOMINATOR_TOL:
        xzy = np.array([AXIS_X.as_array(), AXIS_Z.as_array(), AXIS_Y.as_array()])
        return _squeezing_report(state, mean, second, xzy)
    cov = second - np.outer(mean, mean)
    u = mean / math.sqrt(norm2)
    plane = np.linalg.svd(u[None, :])[2][1:]  # rows: an orthonormal basis orthogonal to u
    c_uu = float(u @ cov @ u)
    cross = plane @ cov @ u
    coupling = cross / c_uu if c_uu >= _DENOMINATOR_TOL else np.zeros(2)
    v = np.linalg.eigh(plane @ cov @ plane.T - np.outer(cross, coupling))[1][:, 0]
    n1 = plane.T @ v - (coupling @ v) * u
    n1 /= np.linalg.norm(n1)
    n2 = mean - (mean @ n1) * n1
    n2 /= np.linalg.norm(n2)
    return _squeezing_report(state, mean, second, np.array([n1, n2, np.cross(n1, n2)]))


# ---------------------------------------------------------------------------
# collective moments


def _site_eigenbasis(space: HilbertSpace, direction: Direction) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvector columns of the one-site n . j; on a qubit in closed form, with
    n = (sin t cos p, sin t sin p, cos t): (-e^{-ip} sin t/2, cos t/2), (cos t/2, e^{ip} sin t/2)."""
    if space.kind != "qubit":
        return np.linalg.eigh(np.tensordot(direction.as_array(), _site_spin_matrices(space), 1))
    half = math.atan2(math.hypot(direction.x, direction.y), direction.z) / 2
    c, s = math.cos(half), math.sin(half)
    phase = np.exp(1j * math.atan2(direction.y, direction.x))
    return np.array([-0.5, 0.5]), np.array([[-phase.conjugate() * s, c], [c, phase * s]])


def _moment_distribution(state, direction: Direction) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of J_n and the state's weights on its eigenbasis.

    J_n = sum_k (n . j)^(k) is diagonal in the product of the one-site
    eigenbases (a Fock site's from one d x d eigh, a qubit's in closed form):
    the state is rotated site by site, and the collective eigenvalues are the
    one-site ones summed over sites.  A density matrix keeps only the diagonal
    of each site once it is rotated (``_rotated_diagonal``).  For a
    ProductState J_n adds over the blocks, so its distribution is the
    convolution of the blocks'; there 2 J_n is an integer, and equal
    eigenvalues are merged so the support stays O(n).
    """
    if isinstance(state, ProductState):
        lowest, weights = 0, np.ones(1)
        for block in state.blocks:
            eig, w = _moment_distribution(block, direction)
            twice = np.rint(2 * eig)
            if np.abs(eig - twice / 2).max() > _HALF_INTEGER_TOL:
                raise ValueError("a block's J_n eigenvalue lies off the half-integer grid")
            low = int(twice.min())
            weights = np.convolve(weights, np.bincount((twice - low).astype(int), weights=w))
            lowest += low
        return (lowest + np.arange(weights.size)) / 2, weights
    space = state.space
    w, v = _site_eigenbasis(space, direction)
    if isinstance(state, PureState):
        weights = np.abs(_site_product(v.conj().T, space, state.amplitudes)) ** 2
    elif isinstance(state, DensityMatrix):
        weights = np.real(_rotated_diagonal(v.conj().T, space, state.matrix))
    else:
        raise ValueError(f"cannot take moments of {type(state).__name__}")
    eig = w
    for _ in range(space.n_sites - 1):
        eig = np.add.outer(eig, w).ravel()
    return eig, weights


def _moment(eig: np.ndarray, weights: np.ndarray, order: int) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(weights @ eig**order)
    if not math.isfinite(value):
        raise ValueError(f"the order-{order} moment overflows double precision")
    return value


def angular_moment(state, direction: Direction, order: int) -> float:
    """<(J_n)^m> along the given direction."""
    if order < 1:
        raise ValueError("moment order must be at least 1")
    return _moment(*_moment_distribution(state, direction), order)


def anticommutator_moments(state) -> np.ndarray:
    """Symmetric 3x3 table <J_k J_l + J_l J_k> for k, l in {x, y, z}."""
    return 2 * collective_moments(state)[1]


def _mixed_sites(n_sites: int) -> tuple[DensityMatrix, ...]:
    site = DensityMatrix(HilbertSpace((2,)), np.eye(2, dtype=complex) / 2)
    return (site,) * n_sites


def totally_mixed_state(n_sites: int) -> ProductState:
    """Uniform mixture of spin up/down at every site (identity / 2^n), held as
    n one-site blocks I/2."""
    spinchain.ChainSpec(n_sites)  # refuses fewer than 2 sites
    return ProductState(_mixed_sites(n_sites))


def moment_matching_separable_state(n_sites: int) -> ProductState:
    """Separable state with the same first and second collective moments as
    the matching cluster state.

    A classical x-correlated pair on sites 1-2, a z-anticorrelated pair on
    sites 3-4, and fully mixed spins elsewhere, all rotated by 45 degrees
    about the collective y axis.  The rotation converts the two classical
    pair correlations into the cross moment <J_z J_x + J_x J_z> = 1 that a
    cluster state carries from its chain ends, while leaving every
    single-direction second moment at the fully mixed value.  Needs at least
    4 sites for the two pair blocks.  Held as the two rotated 4x4 pair
    blocks and n - 4 one-site blocks I/2.
    """
    if n_sites < 4:
        raise ValueError("moment matching construction needs at least 4 sites")
    up = np.array([1, 0], dtype=complex)
    down = np.array([0, 1], dtype=complex)
    up_x = (up + down) / np.sqrt(2)
    down_x = (up - down) / np.sqrt(2)

    def proj(vec: np.ndarray) -> np.ndarray:
        return np.outer(vec, vec.conj())

    block_x = 0.5 * (proj(np.kron(up_x, up_x)) + proj(np.kron(down_x, down_x)))
    block_z = 0.5 * (proj(np.kron(up, down)) + proj(np.kron(down, up)))
    # exp(i pi/4 J_y) is exp(i pi/8 sigma_y) = cos(pi/8) + i sin(pi/8) sigma_y on every
    # site; it rotates each pair block by u x u and leaves the mixed sites' I/2 alone
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    u = np.array([[c, s], [-s, c]], dtype=complex)
    uu = np.kron(u, u)
    pair_space = HilbertSpace((2, 2))
    pairs = tuple(DensityMatrix(pair_space, uu @ b @ uu.conj().T) for b in (block_x, block_z))
    return ProductState(pairs + _mixed_sites(n_sites - 4))


class MomentComparison(Record, eq=False):
    """Moment-by-moment comparison of two states along a list of directions."""

    axes: tuple[Direction, ...]
    orders: tuple[int, ...]
    moments_a: np.ndarray
    moments_b: np.ndarray
    differences: np.ndarray
    indistinguishable: bool
    first_difference: tuple[int, int] | None  # (axis index, order)


def moment_indistinguishability(
    state_a, state_b, axes: Sequence[Direction], max_order: int
) -> MomentComparison:
    """Compare <J_n^m> for both states over the given axes up to max_order."""
    if state_a.space.dims != state_b.space.dims:
        raise ValueError("states live on different site structures")
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be between 1 and {MAX_ORDER}")
    axes = tuple(axes)
    orders = tuple(range(1, max_order + 1))
    ma = np.zeros((len(axes), max_order))
    mb = np.zeros((len(axes), max_order))
    for i, direction in enumerate(axes):
        for state, table in ((state_a, ma), (state_b, mb)):
            eig, weights = _moment_distribution(state, direction)
            table[i] = [_moment(eig, weights, order) for order in orders]
    diffs = np.abs(ma - mb)
    first = None
    for j in range(max_order):
        for i in range(len(axes)):
            if diffs[i, j] > INDISTINGUISHABLE_TOL:
                first = (i, orders[j])
                break
        if first is not None:
            break
    return MomentComparison(
        axes=axes,
        orders=orders,
        moments_a=ma,
        moments_b=mb,
        differences=diffs,
        indistinguishable=first is None,
        first_difference=first,
    )
