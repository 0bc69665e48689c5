"""Pulse-sequence construction and derivative-free search that maximizes the
violation of the collective-uncertainty criterion from a product start state.

The pulse acts on a unit-filled chain treated as qubits (spin = sigma / 2):
exp(-i [ theta_xx * sum_k jx_k jx_{k+1} + theta_yy * sum_k jy_k jy_{k+1}
        + theta_z * sum_k jz_k ]) with open-chain coupling sums.

Every term of that generator is real (y x y is real) and flips an even number
of bits, so the pulse maps the start state |0...0> within the 2^(n-1)
even-popcount basis states. Every bond has the same couplings and the field is
uniform, so the generator also commutes with the site reversal k <-> n+1-k,
which leaves |0...0> fixed: the state never leaves the mirror-even part of the
parity sector. Its orthonormal basis has one vector per reversal orbit
{i, reverse(i)}, |i> for a palindrome and (|i> + |reverse(i)>)/sqrt(2)
otherwise, so it has (2^(n-1) + P)/2 rows with P the even-popcount
palindromes (72 at n = 8). ``_PulseSector`` folds the three terms of the
generator into that basis once per chain, the bond terms from the hops of
``spinchain._bond_hops`` and the field from the popcounts,
G = theta_xx G_xx + theta_yy G_yy + theta_z G_z; each pulse is then one
weighted sum, a Chebyshev series for exp(-i G) |0...0> (``_propagate``; a
real eigh at large angles) and an unfold into the 2^n amplitudes.
"""

from __future__ import annotations

import math
import random

from . import spinchain
from .criteria import CriterionReport, collective_uncertainty_criterion
from .qcore import PureState, Record, np

_MAX_SITES = 10
# simplex searches: one from the initial point, then seeded perturbations of it
_N_RESTARTS = 3
# eigh of a d-row sector costs ~1.5 d series terms: with one BLAS thread they met at
# 1.0-2.1 d for n = 7..10 (d = 36..272); up to n = 6 that is under the 31-term minimum
_SERIES_TERMS_PER_ROW = 1.5


class PulseParams(Record):
    theta_xx: float
    theta_yy: float
    theta_z: float

    def __post_init__(self):
        for v in (self.theta_xx, self.theta_yy, self.theta_z):
            if not math.isfinite(v):
                raise ValueError("pulse angles must be finite")


class _PulseSector:
    """The mirror-even, even-parity sector of the pulse on one chain: its
    orbit basis and the three term matrices of the generator folded into it."""

    def __init__(self, chain: spinchain.ChainSpec):
        n = chain.n_sites
        if n > _MAX_SITES:
            raise ValueError(f"pulse generator capped at {_MAX_SITES} sites")
        self.chain = chain
        self._even = even = np.flatnonzero((spinchain._popcount(np.arange(2**n), n) & 1) == 0)
        mirror = sum((((even >> s) & 1) << (n - 1 - s) for s in range(n)), np.zeros_like(even))
        # each orbit is represented by its smaller index, so |0...0> is orbit 0
        is_rep = even <= mirror
        reps = np.flatnonzero(is_rep)
        self._orbit = orbit = np.searchsorted(even[reps], np.minimum(even, mirror))
        self._weight = np.where(even == mirror, 1.0, np.sqrt(0.5))
        w = self._weight[reps]
        scale = w / w[:, None]

        def fold(equal, differ):
            # G is reversal-symmetric, so the orbit sums reduce to the rows of the
            # representatives: sum_{j in orbit b} G[rep(a), j] w_b / w_a
            rows, cols, weights = spinchain._bond_hops(n, even, equal, differ)
            mine = is_rep[rows]
            g = np.zeros((reps.size, reps.size))
            np.add.at(g, (orbit[rows[mine]], orbit[cols[mine]]), weights[mine])
            return g * scale

        field = np.diag((n - 2.0 * spinchain._popcount(even[reps], n)) / 2)
        self.terms = (fold(0.25, 0.25), fold(-0.25, 0.25), field)

    def state(self, params: PulseParams) -> PureState:
        """exp(-i G) |0...0>, solved in the sector and unfolded."""
        g_xx, g_yy, g_z = self.terms
        with np.errstate(over="ignore"):
            g = params.theta_xx * g_xx + params.theta_yy * g_yy + params.theta_z * g_z
        if not np.isfinite(g).all():
            raise ValueError("the pulse angles overflow the generator")
        sector = _propagate(g)
        amps = np.zeros(2**self.chain.n_sites, dtype=complex)
        amps[self._even] = self._weight * sector[self._orbit]
        return PureState(self.chain.space(), amps)


def _propagate(g: np.ndarray) -> np.ndarray:
    """exp(-i g) e_0 for a real symmetric g with Gershgorin bounds [c - r, c + r]:
    e^{-ic} (J_0(r) + 2 sum_k (-i)^k J_k(r) T_k((g - c) / r)) e_0 over e r / 2 + 30 terms
    (the rest add up to < 1e-18 for r >= 1), J_k(r) from Miller's backward recurrence
    normalised by J_0 + 2 (J_2 + J_4 + ...) = 1. Raising r to 1 keeps 2k/r finite. Past
    ``_SERIES_TERMS_PER_ROW`` terms per row, or for bounds past the float range, one real
    eigh is used.
    """
    diag = np.diag(g)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge g gets non-finite bounds
        radius = np.abs(g).sum(axis=1) - np.abs(diag)
        lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    c, r = (hi + lo) / 2, max((hi - lo) / 2, 1.0)
    terms = math.e * r / 2 + 30
    if not terms <= _SERIES_TERMS_PER_ROW * len(g):
        w, v = np.linalg.eigh(g)
        if not np.isfinite(w).all():  # a finite g can have a spectrum past the float range
            raise ValueError("the pulse angles overflow the generator")
        return v @ (np.exp(-1j * w) * v[0])
    terms = int(terms)
    j = [0.0] * terms + [1.0, 0.0]
    for k in range(terms, 0, -1):
        j[k - 1] = 2 * k / r * j[k] - j[k + 1]
    coef = np.array(j[:terms]) * np.resize([2.0, -2.0, -2.0, 2.0], terms) / (j[0] + 2 * sum(j[2::2]))
    coef[0] /= 2
    twice_x = (g - c * np.eye(len(g))) * (2 / r)
    t = np.zeros((terms, len(g)))
    t[0, 0], t[1] = 1.0, twice_x[:, 0] / 2
    for k in range(2, terms):
        np.matmul(twice_x, t[k - 1], out=t[k])
        t[k] -= t[k - 2]
    return np.exp(-1j * c) * (coef[0::2] @ t[0::2] + 1j * (coef[1::2] @ t[1::2]))


def pulse_state(chain: spinchain.ChainSpec, params: PulseParams) -> PureState:
    """exp(-i G) |0...0> for the pulse generator G, solved in its mirror-even
    sector."""
    return _PulseSector(chain).state(params)


def violation_ratio(state) -> float:
    """Normalized margin below the collective-uncertainty bound.

    1 - sum Var(J) / (<N>/2): zero at saturation, one at maximal violation,
    negative when the variance sum exceeds the bound.
    """
    return _ratio(collective_uncertainty_criterion(state))


def _ratio(report: CriterionReport) -> float:
    """``violation_ratio`` of the state a collective-uncertainty report was made on."""
    if report.bound <= 0.0:
        raise ValueError("violation ratio undefined for zero mean particle number")
    return 1.0 - report.value / report.bound


class PulseSearchResult(Record):
    params: PulseParams
    ratio: float
    evaluations: int
    trace: tuple[tuple[int, tuple[float, float, float], float], ...]
    # the collective-uncertainty report of the initial point, its first evaluation
    initial_report: CriterionReport


class _Stop(Exception):
    """Ends the search: raised by the objective once the evaluation budget is
    spent, and by the simplex search at its first point past the float range."""


# initial simplex edge, and the spread of vertex values that ends a simplex run
_STEP = 0.4
_TOL = 1e-10


def _toward(a: tuple[float, ...], t: float, b: tuple[float, ...]) -> tuple[float, ...]:
    """a + t (b - a), or ``_Stop`` when that leaves the float range."""
    x = tuple(p + t * (q - p) for p, q in zip(a, b))
    if not all(map(math.isfinite, x)):
        raise _Stop
    return x


def _nelder_mead(f, x0):
    """Minimize f from x0 until the simplex values agree within ``_TOL``;
    returns (x, fx) with x a tuple of floats. An exception from f ends the run,
    and so does ``_Stop`` at the first point past the float range.

    The vertices are tuples of Python floats, ordered by value with the stable
    ``sorted``, so tied vertices keep their order on every host."""
    x0 = tuple(map(float, x0))
    dim = len(x0)
    simplex = [x0] + [x0[:i] + (x0[i] + _STEP,) + x0[i + 1:] for i in range(dim)]
    values = [f(x) for x in simplex]

    while True:
        order = sorted(range(len(values)), key=values.__getitem__)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if abs(values[-1] - values[0]) < _TOL:
            return simplex[0], values[0]
        # a quarter of each point, so the sum cannot overflow; powers of two
        # scale exactly, so in the normal range this is the plain mean.  The sum
        # runs left to right from the first point, as numpy's reduction does
        # (``sum`` would start from 0 and lose a -0.0, and compensates on 3.12)
        total = [c / 4.0 for c in simplex[0]]
        for x in simplex[1:-1]:
            total = [s + c / 4.0 for s, c in zip(total, x)]
        centroid = tuple(s / dim * 4.0 for s in total)
        reflected = _toward(centroid, -1.0, simplex[-1])
        fr = f(reflected)
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
            continue
        if fr < values[0]:
            expanded = _toward(centroid, -2.0, simplex[-1])
            fe = f(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
            continue
        contracted = _toward(centroid, 0.5, simplex[-1])
        fc = f(contracted)
        if fc < values[-1]:
            simplex[-1], values[-1] = contracted, fc
            continue
        for i in range(1, dim + 1):
            simplex[i] = _toward(simplex[0], 0.5, simplex[i])
            values[i] = f(simplex[i])


def optimize_pulse(
    chain: spinchain.ChainSpec,
    initial: PulseParams,
    budget: int,
    seed: int = 0,
) -> PulseSearchResult:
    """Simplex search with seeded restarts maximizing the violation ratio.

    Deterministic for a fixed seed. The trace records every evaluation, the
    initial point first, and the result is its first best entry, so it is
    never worse than the initial point. A restart starts from the initial
    point plus three ``random.Random(seed).gauss(0, 0.5)`` draws; a negative
    seed is refused before the first evaluation.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    sector = _PulseSector(chain)
    trace: list[tuple[int, tuple[float, float, float], float]] = []
    reports: list[CriterionReport] = []  # the report of the first evaluation

    def objective(x: tuple[float, float, float]) -> float:
        if len(trace) == budget:
            raise _Stop
        report = collective_uncertainty_criterion(sector.state(PulseParams(*x)))
        if not trace:
            reports.append(report)
        r = _ratio(report)
        trace.append((len(trace) + 1, x, r))
        return -r

    x_init = (initial.theta_xx, initial.theta_yy, initial.theta_z)
    rng = random.Random(seed)
    try:
        _nelder_mead(objective, x_init)
        for _ in range(_N_RESTARTS - 1):
            _nelder_mead(objective, tuple(a + rng.gauss(0.0, 0.5) for a in x_init))
    except _Stop:
        pass
    _, best, ratio = max(trace, key=lambda entry: entry[2])  # the first of equal maxima
    return PulseSearchResult(
        params=PulseParams(*best),
        ratio=ratio,
        evaluations=len(trace),
        trace=tuple(trace),
        initial_report=reports[0],
    )
