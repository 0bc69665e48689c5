"""Separability criteria and collective-moment comparisons.

Every criterion returns a CriterionReport stating the measured value, the
bound satisfied by all separable states, which side of the bound is
separable-compatible, and whether the state strictly violates it.  Bounds are
attained by separable states, so saturation never counts as a violation; a
violation requires crossing the bound by more than VIOLATION_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import bosonic, spinchain
from .qcore import (
    DensityMatrix,
    HilbertSpace,
    LinearOperator,
    PureState,
    expectation,
    matrix_exponential,
    variance,
    variance_from_moments,
)

VIOLATION_TOL = 1e-9
INDISTINGUISHABLE_TOL = 1e-9
_ORTHOGONALITY_TOL = 1e-10
_DENOMINATOR_TOL = 1e-12

AXES = ("x", "y", "z")


@dataclass(frozen=True)
class Direction:
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


@dataclass(frozen=True)
class CriterionReport:
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
    aux: dict = field(default_factory=dict)

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
# collective operators for either site kind


def _require_qubit_chain(state, even: bool) -> spinchain.ChainSpec:
    space = state.space
    if space.kind != "qubit":
        raise ValueError("this criterion expects a qubit-chain state")
    if even and space.n_sites % 2 != 0:
        raise ValueError(f"this criterion requires an even number of sites, got {space.n_sites}")
    return spinchain.ChainSpec(space.n_sites)


def _build_collective(kind: str, n_sites: int, cutoff: int | None):
    if kind == "qubit":
        chain = spinchain.ChainSpec(n_sites)
        ops = {ax: spinchain.collective_spin(chain, ax) for ax in AXES}
    elif kind == "fock":
        lattice = bosonic.FockLatticeSpec(n_sites, bosonic.SiteFockSpace(cutoff))
        ops = {ax: bosonic.collective_J_fock(lattice, ax) for ax in AXES}
    else:
        raise ValueError(f"no collective spin defined for space kind {kind!r}")
    return ops


@lru_cache(maxsize=8)
def _collective_cached(kind: str, n_sites: int, cutoff: int | None):
    return _build_collective(kind, n_sites, cutoff)


def collective_j_operators(space: HilbertSpace) -> dict[str, LinearOperator]:
    """The three collective angular momentum components for this space."""
    # only small spaces are worth keeping around
    if space.dim <= 1024:
        return _collective_cached(space.kind, space.n_sites, space.fock_cutoff)
    return _build_collective(space.kind, space.n_sites, space.fock_cutoff)


@lru_cache(maxsize=16)
def _fock_number_operator(n_sites: int, cutoff: int) -> LinearOperator:
    lattice = bosonic.FockLatticeSpec(n_sites, bosonic.SiteFockSpace(cutoff))
    return bosonic.lattice_number_operator(lattice)


def total_particle_number(state) -> float:
    """<N_total>: the site count for qubit chains (one spin per site)."""
    space = state.space
    if space.kind == "qubit":
        return float(space.n_sites)
    if space.kind == "fock":
        return expectation(_fock_number_operator(space.n_sites, space.fock_cutoff), state)
    raise ValueError(f"no particle number defined for space kind {space.kind!r}")


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
    ops = collective_j_operators(state.space)
    variances = {ax: variance(ops[ax], state) for ax in AXES}
    value = float(sum(variances.values()))
    n_total = total_particle_number(state)
    return _report(
        "collective_uncertainty",
        value,
        n_total / 2,
        ">=",
        {"variances": variances, "total_number": n_total},
    )


def _direction_operator(space: HilbertSpace, direction: Direction) -> LinearOperator:
    ops = collective_j_operators(space)
    mat = (
        direction.x * ops["x"].matrix
        + direction.y * ops["y"].matrix
        + direction.z * ops["z"].matrix
    )
    return LinearOperator(space, mat, hermitian_hint=True)


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
    n_total = total_particle_number(state)
    var1 = variance(_direction_operator(state.space, n1), state)
    mean2 = expectation(_direction_operator(state.space, n2), state)
    mean3 = expectation(_direction_operator(state.space, n3), state)
    denominator = mean2 * mean2 + mean3 * mean3
    aux = {
        "variance_n1": var1,
        "mean_n2": mean2,
        "mean_n3": mean3,
        "denominator": denominator,
        "total_number": n_total,
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


def spin_squeezing_best(state, grid_points: int = 24) -> CriterionReport:
    """Grid search over orthogonal direction triples for the lowest ratio.

    Scans Euler angles on a grid_points^3 grid using the precomputed first
    and symmetrized second moments, then re-evaluates the best triple.
    """
    ops = collective_j_operators(state.space)
    jvec = np.array([expectation(ops[ax], state) for ax in AXES])
    second = np.zeros((3, 3))
    mats = [ops[ax].matrix for ax in AXES]
    for i in range(3):
        for j in range(3):
            sym = (mats[i] @ mats[j] + mats[j] @ mats[i]) / 2
            second[i, j] = expectation(
                LinearOperator(state.space, sym, hermitian_hint=True), state
            )
    n_total = total_particle_number(state)

    def ratio_for(rot: np.ndarray) -> float:
        n1, n2, n3 = rot[:, 0], rot[:, 1], rot[:, 2]
        var1 = float(n1 @ second @ n1) - float(n1 @ jvec) ** 2
        denom = float(n2 @ jvec) ** 2 + float(n3 @ jvec) ** 2
        if denom < _DENOMINATOR_TOL:
            return float("inf")
        return n_total * max(var1, 0.0) / denom

    best = None
    angles = np.linspace(0.0, 2 * np.pi, grid_points, endpoint=False)
    betas = np.linspace(0.0, np.pi, grid_points)
    for alpha in angles:
        for beta in betas:
            for gamma in angles:
                rot = _euler_rotation(alpha, beta, gamma)
                r = ratio_for(rot)
                if best is None or r < best[0]:
                    best = (r, rot)
    if best is None or not np.isfinite(best[0]):
        return spin_squeezing_criterion(state, AXIS_X, AXIS_Z, AXIS_Y)
    rot = best[1]
    dirs = [Direction.normalized(*rot[:, i]) for i in range(3)]
    return spin_squeezing_criterion(state, *dirs)


def _euler_rotation(alpha: float, beta: float, gamma: float) -> np.ndarray:
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    rz1 = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rz2 = np.array([[cg, -sg, 0], [sg, cg, 0], [0, 0, 1]])
    return rz1 @ ry @ rz2


# ---------------------------------------------------------------------------
# collective moments


def angular_moment(state, direction: Direction, order: int) -> float:
    """<(J_n)^m> along the given direction."""
    if order < 1:
        raise ValueError("moment order must be at least 1")
    op = _direction_operator(state.space, direction)
    w, v = np.linalg.eigh(op.matrix)
    if isinstance(state, PureState):
        weights = np.abs(v.conj().T @ state.amplitudes) ** 2
    elif isinstance(state, DensityMatrix):
        weights = np.real(np.diagonal(v.conj().T @ state.matrix @ v))
    else:
        raise ValueError(f"cannot take moments of {type(state).__name__}")
    return float(weights @ w**order)


def anticommutator_moments(state) -> np.ndarray:
    """Symmetric 3x3 table <J_k J_l + J_l J_k> for k, l in {x, y, z}."""
    ops = collective_j_operators(state.space)
    mats = [ops[ax].matrix for ax in AXES]
    table = np.zeros((3, 3))
    for i in range(3):
        for j in range(i, 3):
            anti = mats[i] @ mats[j] + mats[j] @ mats[i]
            val = expectation(LinearOperator(state.space, anti, hermitian_hint=True), state)
            table[i, j] = val
            table[j, i] = val
    return table


def totally_mixed_state(n_sites: int) -> DensityMatrix:
    """Uniform mixture of spin up/down at every site (identity / 2^n)."""
    space = spinchain.ChainSpec(n_sites).space()
    return DensityMatrix(space, np.eye(space.dim, dtype=complex) / space.dim)


def moment_matching_separable_state(n_sites: int) -> DensityMatrix:
    """Separable state with the same first and second collective moments as
    the matching cluster state.

    A classical x-correlated pair on sites 1-2, a z-anticorrelated pair on
    sites 3-4, and fully mixed spins elsewhere, all rotated by 45 degrees
    about the collective y axis.  The rotation converts the two classical
    pair correlations into the cross moment <J_z J_x + J_x J_z> = 1 that a
    cluster state carries from its chain ends, while leaving every
    single-direction second moment at the fully mixed value.  Needs at least
    4 sites for the two pair blocks.
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
    mat = np.kron(block_x, block_z)
    for _ in range(n_sites - 4):
        mat = np.kron(mat, np.eye(2, dtype=complex) / 2)
    chain = spinchain.ChainSpec(n_sites)
    j_y = spinchain.collective_spin(chain, "y")
    u = matrix_exponential(j_y, 1j * np.pi / 4).matrix
    return DensityMatrix(chain.space(), u @ mat @ u.conj().T)


@dataclass(frozen=True, eq=False)
class MomentComparison:
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
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    axes = tuple(axes)
    orders = tuple(range(1, max_order + 1))
    ma = np.zeros((len(axes), max_order))
    mb = np.zeros((len(axes), max_order))
    for i, direction in enumerate(axes):
        for j, order in enumerate(orders):
            ma[i, j] = angular_moment(state_a, direction, order)
            mb[i, j] = angular_moment(state_b, direction, order)
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
