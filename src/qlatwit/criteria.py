"""Separability criteria and collective-moment comparisons.

Every criterion returns a CriterionReport stating the measured value, the
bound satisfied by all separable states, which side of the bound is
separable-compatible, and whether the state strictly violates it.  Bounds are
attained by separable states, so saturation never counts as a violation; a
violation requires crossing the bound by more than VIOLATION_TOL.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import bosonic, spinchain
from .spinchain import AXES
# expectation is unused here; clibench/tests checks that its tracer rebinds this name
from .qcore import (  # noqa: F401
    DensityMatrix,
    HilbertSpace,
    ProductState,
    Record,
    _collective_distribution,
    _collective_moments,
    expectation,
    np,
    variance_from_moments,
)

VIOLATION_TOL = 1e-9
# at order m, times max(1, j_max)^m with j_max the largest |J_n| level compared
INDISTINGUISHABLE_TOL = 1e-9
# the largest moment order compared, checked before the tables are built:
# (n/2)^1024 overflows for n >= 4, and J_n has at most 4 distinct eigenvalues
# on 2 or 3 sites, so no working order is lost
MAX_ORDER = 1023
_ORTHOGONALITY_TOL = 1e-10
_DENOMINATOR_TOL = 1e-12


class Direction(Record):
    """Unit 3-vector of collective-spin direction cosines."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        norm = math.hypot(self.x, self.y, self.z)
        # a NaN norm fails this test too, so non-finite components are refused
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"direction norm {norm} deviates from 1")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "Direction":
        # hypot scales its arguments, so no square overflows or underflows
        norm = math.hypot(x, y, z)
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
        return {f: _jsonable(getattr(self, f)) for f in self._fields}


def _jsonable(v):
    if isinstance(v, float):
        return None if math.isnan(v) else float(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    # a numpy scalar or array, converted to Python values without reading numpy
    if type(v).__module__ == "numpy":
        return _jsonable(v.tolist())
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


def _require_qubit_chain(state) -> spinchain.ChainSpec:
    space = state.space
    if space.kind != "qubit":
        raise ValueError("this criterion expects a qubit-chain state")
    if space.n_sites % 2 != 0:
        raise ValueError(f"this criterion requires an even number of sites, got {space.n_sites}")
    return spinchain.ChainSpec(space.n_sites)


def _site_spin_matrices(space: HilbertSpace) -> np.ndarray:
    """The one-site j_x, j_y, j_z stacked (3, d, d), with the number operator n as
    a fourth row on a Fock lattice.  A qubit chain has no n row: its <N> is n_sites.

    Every collective spin here is J_a = sum_k j_a^(k): sigma_a / 2 on a qubit
    chain, the Schwinger j_a on a two-mode Fock lattice.
    """
    if space.kind == "qubit":
        return spinchain.paulis() / 2
    if space.kind == "fock":
        js = bosonic._schwinger_matrices(bosonic.SiteFockSpace(space.fock_cutoff))
        return np.stack([js[ax] for ax in (*AXES, "n")])
    raise ValueError(f"no collective spin defined for space kind {space.kind!r}")


class Moments(Record, eq=False):
    """One state's <J_k>, symmetrized <(J_k J_l + J_l J_k) / 2> (k, l in x, y, z) and <N_total>:
    the site count on a qubit chain (one spin per site), else the mean site sum of n."""

    mean: np.ndarray
    second: np.ndarray
    number: float


def collective_moments(state) -> Moments:
    """The ``Moments`` of a state, from one ``qcore._collective_moments`` read
    of its one-site stack (a Fock lattice's <N> is the stack's fourth row)."""
    space = state.space
    mean, second = _collective_moments(state, _site_spin_matrices(space))
    number = float(space.n_sites) if space.kind == "qubit" else float(mean[3])
    return Moments(mean[:3], second[:3, :3], number)


def _correlator_means(state, chain: spinchain.ChainSpec) -> list[float]:
    return [
        spinchain.pauli_sum_moments(state, [spinchain.tilde_factors(chain, k)])[0]
        for k in range(1, chain.n_sites + 1)
    ]


# ---------------------------------------------------------------------------
# qubit-chain criteria


def _witness_report(name: str, value: float, chain: spinchain.ChainSpec, correlators) -> CriterionReport:
    """A criterion read from the three-site correlators: separable states keep it at or below n/2."""
    aux = {"n_sites": chain.n_sites, "correlators": correlators}
    return _report(name, value, chain.n_sites / 2, "<=", aux)


def witness_criterion(state) -> CriterionReport:
    """Sum of three-site correlators; above n/2 certifies entanglement."""
    chain = _require_qubit_chain(state)
    correlators = _correlator_means(state, chain)
    return _witness_report("witness", float(sum(correlators)), chain, correlators)


def quadruplet_bound(witness_value: float, n_sites: int) -> float:
    """Lower bound on non-overlapping entangled quadruplets from the witness."""
    if n_sites % 2 != 0:
        raise ValueError("quadruplet bound is defined for even chains")
    return max(0.0, witness_value / 2 - n_sites / 4)


def squared_criterion(state) -> CriterionReport:
    """Sum of squared correlator expectations; detects both sign sectors."""
    chain = _require_qubit_chain(state)
    correlators = _correlator_means(state, chain)
    return _witness_report("squared_witness", float(sum(c * c for c in correlators)), chain, correlators)


def variance_x_criterion(state) -> CriterionReport:
    """Summed variances of the three every-third-site correlator sums.

    Grouping the correlators by site index mod 3 keeps overlapping triples in
    different groups, so for separable states the three variances add up to at
    least n/2; falling below that certifies entanglement.
    """
    chain = _require_qubit_chain(state)
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


def uncertainty_report(moments: Moments) -> CriterionReport:
    """Total collective-spin variance against half the mean particle number."""
    mean, second = moments.mean, moments.second
    variances = {
        ax: variance_from_moments(float(mean[i]), float(second[i, i])) for i, ax in enumerate(AXES)
    }
    aux = {"variances": variances, "total_number": moments.number}
    return _report("collective_uncertainty", float(sum(variances.values())), moments.number / 2, ">=", aux)


def collective_uncertainty_criterion(state) -> CriterionReport:
    """The ``uncertainty_report`` of one state."""
    return uncertainty_report(collective_moments(state))


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
    return _squeezing_report(collective_moments(state), np.array(vecs))


def _squeezing_report(moments: Moments, vecs: np.ndarray) -> CriterionReport:
    """The spin-squeezing report for the orthonormal rows n1, n2, n3 of ``vecs``."""
    mean, second, n_total = moments.mean, moments.second, moments.number
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
        # NaN lies on neither side of the bound, so the report is not violated
        return _report("spin_squeezing", float("nan"), 1.0, ">=", aux)
    return _report("spin_squeezing", n_total * var1 / denominator, 1.0, ">=", aux)


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
    moments = collective_moments(state)
    mean, second = moments.mean, moments.second
    norm2 = float(mean @ mean)
    if norm2 < _DENOMINATOR_TOL:
        xzy = np.array([AXIS_X.as_array(), AXIS_Z.as_array(), AXIS_Y.as_array()])
        return _squeezing_report(moments, xzy)
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
    return _squeezing_report(moments, np.array([n1, n2, np.cross(n1, n2)]))


# ---------------------------------------------------------------------------
# collective moments


def _site_eigenbasis(space: HilbertSpace, direction: Direction) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvector columns of the one-site n . j; on a qubit in closed form, with
    n = (sin t cos p, sin t sin p, cos t): (-e^{-ip} sin t/2, cos t/2), (cos t/2, e^{ip} sin t/2)."""
    if space.kind != "qubit":
        return np.linalg.eigh(np.tensordot(direction.as_array(), _site_spin_matrices(space)[:3], 1))
    half = math.atan2(math.hypot(direction.x, direction.y), direction.z) / 2
    c, s = math.cos(half), math.sin(half)
    phase = np.exp(1j * math.atan2(direction.y, direction.x))
    return np.array([-0.5, 0.5]), np.array([[-phase.conjugate() * s, c], [c, phase * s]])


def _check_integer_order(order) -> None:
    # a real power of the eigenvalues is no moment, and the tables are indexed by order
    if not isinstance(order, (int, np.integer)):
        raise ValueError(f"moment order must be an integer, got {order!r}")


def _moment(lowest: int, weights: np.ndarray, order: int) -> float:
    """<L^m> of the law (lowest, weights) that ``qcore._collective_distribution`` returns."""
    levels = (lowest + np.arange(weights.size)) / 2
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(weights @ levels**order)
    if not math.isfinite(value):
        raise ValueError(f"the order-{order} moment overflows double precision")
    return value


def angular_moment(state, direction: Direction, order: int) -> float:
    """<(J_n)^m> along the given direction."""
    _check_integer_order(order)
    if order < 1:
        raise ValueError("moment order must be at least 1")
    basis = _site_eigenbasis(state.space, direction)
    return _moment(*_collective_distribution(state, *basis), order)


def anticommutator_moments(state) -> np.ndarray:
    """Symmetric 3x3 table <J_k J_l + J_l J_k> for k, l in {x, y, z}."""
    return 2 * collective_moments(state).second


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
    _check_integer_order(max_order)
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be between 1 and {MAX_ORDER}")
    axes = tuple(axes)
    orders = tuple(range(1, max_order + 1))
    ma = np.zeros((len(axes), max_order))
    mb = np.zeros((len(axes), max_order))
    # max(1, j_max) per axis
    scale = np.ones(len(axes))
    for i, direction in enumerate(axes):
        for state, table in ((state_a, ma), (state_b, mb)):
            basis = _site_eigenbasis(state.space, direction)
            lowest, weights = _collective_distribution(state, *basis)
            table[i] = [_moment(lowest, weights, order) for order in orders]
            scale[i] = max(scale[i], abs(lowest) / 2, abs(lowest + weights.size - 1) / 2)
    diffs = np.abs(ma - mb)
    # an order-m moment sums terms up to j_max^m, so its round-off grows with them;
    # every moment is finite here, so no power of the scale overflows
    tol = INDISTINGUISHABLE_TOL * scale[:, None] ** np.array(orders)
    # rows of the transposed table are orders, so the lowest order comes first
    hits = np.argwhere((diffs > tol).T)
    first = (int(hits[0, 1]), orders[hits[0, 0]]) if len(hits) else None
    return MomentComparison(
        axes=axes,
        orders=orders,
        moments_a=ma,
        moments_b=mb,
        differences=diffs,
        indistinguishable=first is None,
        first_difference=first,
    )
