"""Local decoherence channels and the cluster-state lifetime experiment.

The phase-flip channel on one site is rho -> p rho + (1-p) Z rho Z with
p(t) = (1 + exp(-kappa t)) / 2; the depolarizing channel used here is
rho -> p rho + (1-p)/3 (X rho X + Y rho Y + Z rho Z).  Both are Pauli
channels, which map each sigma_a to f_a sigma_a, and each kind is defined
once, by its scales (f_xy, f_z) at weight p in ``_CHANNELS``: 2p - 1 and 1
for the phase flip, (4p - 1)/3 for both in the depolarizing channel.  The
echo experiment and the localized pair read the cluster state through its
stabilizers K_k = z_{k-1} x_k z_{k+1} (Hein, Eisert & Briegel, PRA 69, 062311
(2004)), so both, and both crossing tests, are closed forms in the two scales:
O(1) per weight, with no state vector, density-matrix kernel or eigensolver.
"""

from __future__ import annotations

import math

from . import spinchain
from .criteria import CriterionReport, _report
# expectation is unused here; clibench/tests checks that its tracer rebinds this name
from .qcore import DensityMatrix, Record, expectation, np  # noqa: F401


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"channel weight p={p} outside [0, 1]")


# channel kind -> (Pauli scales (f_xy, f_z) at weight p, formula reported with results)
_CHANNELS = {
    "phase_flip": (lambda p: (2.0 * p - 1.0, 1.0), "p*rho + (1-p)*Z rho Z per site"),
    "depolarizing": (
        lambda p: ((4.0 * p - 1.0) / 3.0,) * 2,
        "p*rho + (1-p)/3*(X rho X + Y rho Y + Z rho Z) per site",
    ),
}


def _channel(kind: str):
    if kind not in _CHANNELS:
        raise ValueError(f"unknown channel kind {kind!r}")
    return _CHANNELS[kind]


def decoherence_experiment(n_sites: int, p: float, channel: str = "phase_flip") -> CriterionReport:
    """Phase-gate echo of a noisy cluster state, read out collectively.

    Pipeline: prepare all sites along +x, apply the neighbor phase gate, send
    every site through the channel with weight p, apply the gate again, and
    sum the single-site x expectations.  At p=1 the echo restores the start
    state and the value reaches n; the witness bound stays n/2.  It is
    evaluated in the Heisenberg picture: the gate maps x_k to K_k, whose mean
    on the cluster is 1, and the channel scales K_k by the f_a of its
    factors: f_xy f_z at the two ends, f_xy f_z f_z inside.  The value is
    the exact 2 end + (n - 2) inner, rounded once (int true division is
    correctly rounded), so it costs O(1) for any n.
    """
    if n_sites % 2 != 0:
        raise ValueError("the witness experiment requires an even chain")
    _check_p(p)
    scales, form = _channel(channel)
    f_xy, f_z = scales(p)
    spinchain.ChainSpec(n_sites)  # refuses fewer than 2 sites
    end, inner = f_xy * f_z, f_xy * f_z * f_z
    (a, b), (c, d) = end.as_integer_ratio(), inner.as_integer_ratio()
    value = (2 * a * d + (n_sites - 2) * c * b) / (b * d)
    return _report(
        "decoherence_witness",
        value,
        n_sites / 2,
        "<=",
        {
            "n_sites": n_sites,
            "p": p,
            "end_x": end,
            "inner_x": inner,
            "channel": f"{channel}: {form}",
        },
    )


def _bisect(detects, precision: float) -> float:
    """The weight in [1/2, 1] where ``detects`` turns true, to ``precision``.

    Stops early once the bracket is as narrow as floats allow, where the
    midpoint no longer lies strictly inside it.
    """
    if not precision > 0:
        raise ValueError(f"bisection precision must be positive, got {precision}")
    lo, hi = 0.5, 1.0
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        if detects(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def witness_threshold(n_sites: int, precision: float = 1e-3, channel: str = "phase_flip") -> float:
    """Bisect the channel weight where the echo witness crosses its bound.

    At p = 1 the echo is n, above the bound n/2, so there is always a crossing.
    """
    decoherence_experiment(n_sites, 1.0, channel)  # validates the request
    bound = n_sites / 2
    return _bisect(lambda p: decoherence_experiment(n_sites, p, channel).value > bound, precision)


def _pair_correlators(scales: tuple[float, float], c1: float, c2: float):
    """The localized pair's X(x)Z, Z(x)X and Y(x)Y coefficients (a1, a2, b),
    with c_j the x/y scale that the measured neighbour leaves on pair site j."""
    f_xy, f_z = scales
    return f_xy * f_z * c1, f_xy * f_z * c2, f_xy * f_xy * c1 * c2


def localized_pair_state(
    n_sites: int,
    p: float,
    pair: tuple[int, int] | None = None,
    outcomes: tuple[int, ...] | None = None,
    channel: str = "phase_flip",
) -> DensityMatrix:
    """Neighboring-pair state of the dephased cluster after measuring out the rest.

    Every site outside the pair is measured in the z basis and one outcome
    branch is kept (all +1 by default; ``outcomes`` selects another branch,
    one bit per non-pair site in site order).  (The plain partial trace would
    erase the entanglement: for an interior pair of a cluster state it is
    exactly the maximally mixed two-qubit state.)  A z measurement removes a
    graph-state vertex and leaves a z on its neighbours when it reads 1, so
    the pair holds the two-site graph state (II + XZ + ZX + YY)/4 with a z on
    each pair site whose measured neighbour reads 1; further outcomes add a
    global sign.  An x or y error on a neighbour, probability (1 - f_z)/2,
    flips its outcome, which z-dephases the pair site beside it by f_z.  The
    block is therefore (II + a1 XZ + a2 ZX + b YY)/4 with a1 = f_xy f_z c1,
    a2 = f_xy f_z c2 and b = f_xy^2 c1 c2, where c_j = (-1)^outcome f_z for a
    pair site whose measured neighbour has that outcome and c_j = 1 for a
    site with no measured neighbour.
    """
    if n_sites < 4 or n_sites % 2 != 0:
        raise ValueError("pair reduction defined for even chains of at least 4 sites")
    if pair is None:
        pair = (2, 3)  # interior by default; end sites have shorter correlators
    k1, k2 = pair
    if k2 != k1 + 1:
        raise ValueError("pair must be two neighboring sites")
    space = spinchain.ChainSpec(n_sites).space()
    space.check_site(k1)
    space.check_site(k2)
    _check_p(p)
    if outcomes is None:
        outcomes = (0,) * (n_sites - 2)
    if len(outcomes) != n_sites - 2 or any(b not in (0, 1) for b in outcomes):
        raise ValueError("need one 0/1 outcome per measured site")
    scales = _channel(channel)[0](p)
    # the k1 - 1 outcomes before the pair end with the left neighbour's
    c1, c2 = (
        (-1.0) ** outcomes[index] * scales[1] if has_neighbour else 1.0
        for has_neighbour, index in ((k1 > 1, k1 - 2), (k2 < n_sites, k1 - 1))
    )
    a1, a2, b = _pair_correlators(scales, c1, c2)
    x, y, z = spinchain.PAULIS
    block = (np.eye(4) + a1 * np.kron(x, z) + a2 * np.kron(z, x) + b * np.kron(y, y)) / 4.0
    return DensityMatrix(spinchain.ChainSpec(2).space(), block)


def pairwise_threshold(
    n_sites: int,
    pair: tuple[int, int] | None = None,
    precision: float = 1e-3,
    channel: str = "phase_flip",
) -> float:
    """Bisect the channel weight where the localized pair loses negativity.

    XZ, ZX and YY commute and XZ ZX = YY; the partial transpose flips the sign
    of Y(x)Y, so its smallest eigenvalue is (1 - |a1| - |a2| - |b|)/4 (see
    ``localized_pair_state``) and the pair is entangled while
    |a1| + |a2| + |b| > 1.  |c_j| is f_z or 1 whatever the outcome, so the
    crossing is the same on every measurement branch.  At p = 1 the sum is 3,
    so there is always a crossing.
    """
    localized_pair_state(n_sites, 1.0, pair, channel=channel)  # validates the request
    k1, k2 = pair or (2, 3)
    scales = _channel(channel)[0]

    def entangled(p: float) -> bool:
        f_xy, f_z = scales(p)
        a1, a2, b = _pair_correlators(
            (f_xy, f_z), f_z if k1 > 1 else 1.0, f_z if k2 < n_sites else 1.0)
        return abs(a1) + abs(a2) + abs(b) > 1.0

    return _bisect(entangled, precision)


class LifetimeComparison(Record):
    t_witness: float
    t_pairwise: float
    ratio: float


def _time_to_reach(p: float, kappa: float) -> float:
    # invert p(t) = (1 + exp(-kappa t)) / 2
    if not 0.5 < p < 1.0:
        raise ValueError(f"threshold p={p} must lie strictly between 1/2 and 1")
    return math.log(1.0 / (2.0 * p - 1.0)) / kappa


def lifetime_comparison(
    kappa: float, p_crit: float | None = None, n_sites: int = 4, witness_p: float = 0.75
) -> LifetimeComparison:
    """Entanglement lifetimes from the witness and pairwise thresholds.

    With dephasing the witness detects until p(t) drops to 3/4, giving
    t = ln(2)/kappa; the pair stays entangled until p(t) reaches the pairwise
    threshold (computed when not supplied).  The ratio is witness lifetime
    over pair lifetime.  ``witness_p`` admits the threshold of a different
    channel in place of 3/4.
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError("decay rate must be positive and finite")
    if p_crit is None:
        p_crit = pairwise_threshold(n_sites)
    t_witness = _time_to_reach(witness_p, kappa)
    t_pairwise = _time_to_reach(p_crit, kappa)
    return LifetimeComparison(t_witness, t_pairwise, t_witness / t_pairwise)
