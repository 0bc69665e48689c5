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
from .qcore import Record, expectation  # noqa: F401


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


def pairwise_threshold(
    n_sites: int,
    pair: tuple[int, int] = (2, 3),
    precision: float = 1e-3,
    channel: str = "phase_flip",
) -> float:
    """Bisect the channel weight where the localized pair loses negativity.

    The pair is two neighbouring sites of the noisy cluster once every other
    site is measured in z and one outcome branch kept (the partial trace of an
    interior pair is maximally mixed).  A z measurement removes a graph-state
    vertex and leaves a z on its neighbours when it reads 1, so the pair holds
    (II + XZ + ZX + YY)/4 up to those z's and a sign.  An x or y error on a
    neighbour, probability (1 - f_z)/2, flips its outcome, which z-dephases
    the pair site beside it by f_z.  The block is (II + a1 XZ + a2 ZX + b YY)/4
    with a1 = f_xy f_z c1, a2 = f_xy f_z c2, b = f_xy^2 c1 c2, where c_j is
    (-1)^outcome f_z for a pair site with a measured neighbour and 1 without.
    XZ, ZX and YY commute and XZ ZX = YY; the partial transpose flips the sign
    of Y(x)Y, so its smallest eigenvalue is (1 - |a1| - |a2| - |b|)/4 and the
    pair is entangled while |a1| + |a2| + |b| > 1 (Peres).  |c_j| is f_z or 1
    on every branch, so all branches share one crossing, which exists as the
    sum is 3 at p = 1.
    """
    if n_sites < 4 or n_sites % 2 != 0:
        raise ValueError("pair reduction defined for even chains of at least 4 sites")
    k1, k2 = pair
    if k2 != k1 + 1:
        raise ValueError("pair must be two neighboring sites")
    if k1 < 1 or k2 > n_sites:
        raise ValueError(f"pair {pair} out of range 1..{n_sites}")
    scales = _channel(channel)[0]

    def entangled(p: float) -> bool:
        f_xy, f_z = scales(p)
        c1, c2 = f_z if k1 > 1 else 1.0, f_z if k2 < n_sites else 1.0
        return abs(f_xy * f_z * c1) + abs(f_xy * f_z * c2) + abs(f_xy * f_xy * c1 * c2) > 1.0

    return _bisect(entangled, precision)


class LifetimeComparison(Record):
    t_witness: float
    t_pairwise: float
    ratio: float


def _time_to_reach(f: float, kappa: float) -> float:
    # the time at which a Pauli scale decaying as exp(-kappa t) reaches f
    if not 0.0 < f < 1.0:
        raise ValueError(f"threshold scale f={f} must lie strictly between 0 and 1")
    return math.log(1.0 / f) / kappa


def lifetime_comparison(kappa: float, p_crit: float | None = None) -> LifetimeComparison:
    """Entanglement lifetimes from the witness and pairwise thresholds.

    Both weights are phase-flip weights, with scale 2p(t) - 1 = exp(-kappa t):
    the witness detects until p(t) = 3/4, at t = ln(2)/kappa, and the pair
    until p(t) reaches the pairwise threshold, the same for every even n >= 4
    and computed when not supplied.  The ratio is witness over pair lifetime.
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError("decay rate must be positive and finite")
    if p_crit is None:
        p_crit = pairwise_threshold(4)
    # the witness weight 3/4 is the scale 2 * 3/4 - 1 = 1/2
    t_witness = _time_to_reach(0.5, kappa)
    t_pairwise = _time_to_reach(2.0 * p_crit - 1.0, kappa)
    return LifetimeComparison(t_witness, t_pairwise, t_witness / t_pairwise)
