import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    PAULIS,
    DecoherenceModel,
    apply_all_sites,
    cluster_echo,
    cluster_pair_block,
    depolarizing,
    kron_all,
    negativity,
    oracle_site_pauli,
    phase_flip,
    pure_to_density,
)
from qlatwit.channels import (
    _CHANNELS,
    _time_to_reach,
    decoherence_experiment,
    lifetime_comparison,
    pairwise_threshold,
    witness_threshold,
)
from qlatwit.criteria import witness_criterion
from qlatwit.qcore import DensityMatrix, HilbertSpace
from qlatwit.spinchain import ChainSpec, ClusterSpec, cluster_state, product_state
from sampling import haar_vector, random_separable_density


def cluster_density(n):
    return pure_to_density(cluster_state(ClusterSpec(ChainSpec(n), (1,) * n)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: DecoherenceModel("amplitude_damping", 0.9),
        lambda: decoherence_experiment(4, 0.9, "amplitude_damping"),
        lambda: pairwise_threshold(4, channel="amplitude_damping"),
    ],
)
def test_unknown_channel_kind_rejected(build):
    with pytest.raises(ValueError, match="unknown channel kind"):
        build()


# ---------------------------------------------------------------------------
# single-site channels


def test_phase_flip_identity_at_p_one():
    rho = cluster_density(4)
    out = phase_flip(rho, 2, 1.0)
    assert np.allclose(out.matrix, rho.matrix, atol=1e-14)


def test_phase_flip_fully_dephases_plus_state():
    plus = product_state([("x", 1), ("z", 1)])
    out = phase_flip(pure_to_density(plus), 1, 0.5)
    red_oracle = np.kron(np.eye(2) / 2, np.array([[1, 0], [0, 0]]))
    assert np.allclose(out.matrix, red_oracle, atol=1e-14)


def test_deterministic_single_flip_costs_two_correlators():
    n = 6
    flipped = phase_flip(cluster_density(n), 3, 0.0)
    rep = witness_criterion(flipped)
    assert rep.value == pytest.approx(n - 2, abs=1e-9)


def test_two_distinct_flips_cost_four_correlators():
    n = 6
    for k, l in [(2, 3), (2, 5), (1, 6)]:
        rho = phase_flip(phase_flip(cluster_density(n), k, 0.0), l, 0.0)
        assert witness_criterion(rho).value == pytest.approx(n - 4, abs=1e-9)


def test_phase_flip_rejects_bad_weight():
    with pytest.raises(ValueError):
        phase_flip(cluster_density(4), 1, 1.5)


def test_phase_flip_matches_dense_conjugation(rng):
    # oracle: explicit Z rho Z with dense kron operators
    n = 3
    space = HilbertSpace((2,) * n)
    rho = random_separable_density(space, rng)
    z2 = oracle_site_pauli("z", 2, n)
    want = 0.7 * rho.matrix + 0.3 * z2 @ rho.matrix @ z2
    got = phase_flip(rho, 2, 0.7)
    assert np.allclose(got.matrix, want, atol=1e-13)


def test_depolarizing_identity_at_p_one(rng):
    rho = random_separable_density(HilbertSpace((2, 2)), rng)
    out = depolarizing(rho, 1, 1.0)
    assert np.allclose(out.matrix, rho.matrix, atol=1e-14)


def test_depolarizing_quarter_weight_erases_a_qubit(rng):
    # twirl identity: rho + X rho X + Y rho Y + Z rho Z = 2 tr(rho) I
    v = haar_vector(2, rng)
    rho1 = np.outer(v, v.conj())
    twirl = rho1 + sum(PAULIS[ax] @ rho1 @ PAULIS[ax] for ax in "xyz")
    assert np.allclose(twirl, 2 * np.eye(2), atol=1e-12)

    space = HilbertSpace((2,))
    out = depolarizing(DensityMatrix(space, rho1), 1, 0.25)
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_depolarizing_matches_dense_conjugation(rng):
    n = 2
    rho = random_separable_density(HilbertSpace((2, 2)), rng)
    paulis = [oracle_site_pauli(ax, 2, n) for ax in "xyz"]
    p = 0.6
    want = p * rho.matrix + (1 - p) / 3 * sum(s @ rho.matrix @ s for s in paulis)
    got = depolarizing(rho, 2, p)
    assert np.allclose(got.matrix, want, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(p=st.floats(0.0, 1.0), seed=st.integers(0, 2**31))
def test_channels_preserve_trace_and_positivity(p, seed):
    gen = np.random.default_rng(seed)
    rho = random_separable_density(HilbertSpace((2, 2)), gen)
    for channel in (phase_flip, depolarizing):
        out = channel(rho, 1, p)  # construction re-checks trace and positivity
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out.matrix)[0] > -1e-10


def oracle_channel(kind, rho, site, n, p):
    """The channel on one site with explicit dense P rho P products."""
    axes = "z" if kind == "phase_flip" else "xyz"
    paulis = [oracle_site_pauli(ax, site, n) for ax in axes]
    return p * rho + (1 - p) / len(axes) * sum(s @ rho @ s for s in paulis)


@pytest.mark.parametrize("kind", ["phase_flip", "depolarizing"])
def test_channel_scales_match_dense_oracle(kind):
    # f_a = Tr(s_a Phi(s_a))/2 and M[b, c] = <b|Phi(|c><c|)|b>, the closed
    # forms the echo and the localized pair read from the table
    for p in np.linspace(0.0, 1.0, 21):
        f_xy, f_z = _CHANNELS[kind][0](p)
        for axis, want in zip("xyz", (f_xy, f_xy, f_z)):
            sigma = oracle_site_pauli(axis, 1, 1)
            phi_sigma = oracle_channel(kind, sigma, 1, 1, p)
            assert abs(np.trace(sigma @ phi_sigma).real / 2 - want) < 1e-15
        for b, c in itertools.product((0, 1), repeat=2):
            closed = (1 + f_z * (-1) ** (b ^ c)) / 2
            assert abs(oracle_channel(kind, np.diag(np.eye(2)[c]), 1, 1, p)[b, b] - closed) < 1e-15


def random_density(n, pure, gen):
    space = HilbertSpace((2,) * n)
    if pure:
        v = haar_vector(2**n, gen)
        return DensityMatrix(space, np.outer(v, v.conj()))
    return random_separable_density(space, gen)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), p=st.floats(0.0, 1.0), pure=st.booleans(), seed=st.integers(0, 2**31))
def test_site_channels_match_dense_oracle_on_every_site(n, p, pure, seed):
    rho = random_density(n, pure, np.random.default_rng(seed))
    before = rho.matrix.copy()
    for kind, channel in (("phase_flip", phase_flip), ("depolarizing", depolarizing)):
        for site in range(1, n + 1):
            got = channel(rho, site, p)
            want = oracle_channel(kind, before, site, n, p)
            assert np.abs(got.matrix - want).max() < 1e-13
    assert np.array_equal(rho.matrix, before)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 6), p=st.floats(0.5, 1.0), pure=st.booleans(), seed=st.integers(0, 2**31))
def test_apply_all_sites_matches_dense_site_by_site_composition(n, p, pure, seed):
    rho = random_density(n, pure, np.random.default_rng(seed))
    before = rho.matrix.copy()
    for kind in ("phase_flip", "depolarizing"):
        want = before
        for site in range(1, n + 1):
            want = oracle_channel(kind, want, site, n, p)
        got = apply_all_sites(DecoherenceModel(kind, p), rho)
        assert np.abs(got.matrix - want).max() < 1e-13
    assert np.array_equal(rho.matrix, before)


# ---------------------------------------------------------------------------
# whole-chain application


def test_apply_all_sites_identity_at_p_one():
    rho = cluster_density(4)
    model = DecoherenceModel("phase_flip", 1.0)
    assert np.allclose(apply_all_sites(model, rho).matrix, rho.matrix, atol=1e-14)


def test_site_channels_commute(rng):
    rho = random_separable_density(HilbertSpace((2, 2, 2)), rng)
    a = phase_flip(phase_flip(rho, 1, 0.8), 3, 0.6)
    b = phase_flip(phase_flip(rho, 3, 0.6), 1, 0.8)
    assert np.abs(a.matrix - b.matrix).max() < 1e-12


def test_apply_all_sites_matches_manual_composition():
    rho = cluster_density(4)
    model = DecoherenceModel("phase_flip", 0.9)
    manual = rho
    for site in (1, 2, 3, 4):
        manual = phase_flip(manual, site, 0.9)
    assert np.allclose(apply_all_sites(model, rho).matrix, manual.matrix, atol=1e-13)


def test_apply_all_sites_cluster_witness_value():
    rho = apply_all_sites(DecoherenceModel("phase_flip", 0.9), cluster_density(4))
    assert witness_criterion(rho).value == pytest.approx(4 * (2 * 0.9 - 1), abs=1e-9)


def test_model_validates_weight_range():
    with pytest.raises(ValueError):
        DecoherenceModel("phase_flip", 0.3)
    with pytest.raises(ValueError):
        DecoherenceModel("amplitude", 0.9)


# ---------------------------------------------------------------------------
# the echo experiment


def test_experiment_restores_state_without_noise():
    rep = decoherence_experiment(6, 1.0)
    assert rep.value == pytest.approx(6.0, abs=1e-9)
    assert rep.violated


def test_experiment_hits_bound_at_three_quarters():
    rep = decoherence_experiment(6, 0.75)
    assert rep.value == pytest.approx(3.0, abs=1e-9)
    assert not rep.violated


def test_experiment_low_weight_value():
    rep = decoherence_experiment(6, 0.6)
    assert rep.value == pytest.approx(6 * 0.2, abs=1e-9)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_experiment_matches_linear_law(n):
    for p in np.linspace(0.5, 1.0, 6):
        rep = decoherence_experiment(n, float(p))
        assert rep.value == pytest.approx(n * (2 * p - 1), abs=1e-9)


def test_experiment_rejects_odd_chains_and_runs_long_ones():
    with pytest.raises(ValueError):
        decoherence_experiment(5, 0.9)
    # the echo reads the stabilizers, so no chain length is too long for memory;
    # its value is the correctly rounded sum of n floats, each within 2^-53
    # relative of its exact term, so a few 2^-53 cover the float inputs
    n, p = 10**5, 0.8
    rel = 4 * 2.0**-53
    assert decoherence_experiment(n, p).value == pytest.approx(n * (2 * p - 1), rel=rel, abs=0)
    f = (4 * p - 1) / 3
    want = 2 * f**2 + (n - 2) * f**3
    assert decoherence_experiment(n, p, "depolarizing").value == pytest.approx(want, rel=rel, abs=0)


def test_witness_threshold_bisection():
    assert witness_threshold(6) == pytest.approx(0.75, abs=1e-3)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_witness_threshold_knife_edge(n):
    # the first midpoint is exactly p = 3/4, where the value is exactly n/2:
    # not above the bound, so the bisection moves up
    assert witness_threshold(n) == 0.75048828125


def test_echo_at_three_quarters_is_not_violated_on_ten_sites():
    assert decoherence_experiment(10, 0.75).violated is False


@pytest.mark.parametrize(
    "threshold", [witness_threshold, lambda n, precision: pairwise_threshold(n, precision=precision)]
)
def test_thresholds_refuse_a_precision_that_is_not_positive(threshold):
    for precision in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="precision must be positive"):
            threshold(4, precision=precision)


@pytest.mark.parametrize(
    "threshold, near",
    [
        (witness_threshold, 0.75),
        (lambda n, precision: pairwise_threshold(n, precision=precision), 1 / math.sqrt(2)),
    ],
)
def test_thresholds_stop_at_float_spacing(threshold, near):
    # below the float spacing near the crossing the midpoint stops moving;
    # the bisection must stop there instead of spinning.  Both crossing tests
    # are exact, so each lands on its crossing to within a few float spacings
    start = time.perf_counter()
    p = threshold(4, precision=1e-17)
    assert time.perf_counter() - start < 1.0
    assert p == pytest.approx(near, abs=1e-15)


def oracle_phase_gate(n):
    """The neighbor phase gate as a product of dense controlled-z gates."""
    gate = np.eye(2**n, dtype=complex)
    for k in range(1, n):
        zk, zl = oracle_site_pauli("z", k, n), oracle_site_pauli("z", k + 1, n)
        gate = gate @ (np.eye(2**n) + zk + zl - zk @ zl) / 2
    return gate


def oracle_noisy_cluster(kind, n, p):
    """G rho_+ G with the channel on every site, as dense P rho P products."""
    gate = oracle_phase_gate(n)
    rho = gate @ kron_all([np.full((2, 2), 0.5)] * n) @ gate
    for site in range(1, n + 1):
        rho = oracle_channel(kind, rho, site, n, p)
    return gate, rho


SIZES_AND_KINDS = list(itertools.product(range(2, 13, 2), ["phase_flip", "depolarizing"]))


def with_examples(cases, **fixed):
    """Explicit hypothesis examples: one per (n, kind) case, with ``fixed``."""
    def decorate(test):
        for n, kind in cases:
            test = example(n=n, kind=kind, **fixed)(test)
        return test
    return decorate


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from(range(2, 13, 2)),
    p=st.floats(0.5, 1.0),
    kind=st.sampled_from(["phase_flip", "depolarizing"]),
)
@with_examples(SIZES_AND_KINDS, p=0.8)
def test_echo_matches_dense_density_matrix_oracle(n, p, kind):
    # the dense 4^n oracle up to 8 sites; the 2^n cluster state's correlator
    # means at every size
    rep = decoherence_experiment(n, p, kind)
    want = cluster_echo(n, p, kind)
    if n <= 8:
        gate, rho = oracle_noisy_cluster(kind, n, p)
        echoed = gate @ rho @ gate
        dense = [np.trace(oracle_site_pauli("x", k, n) @ echoed).real for k in range(1, n + 1)]
        assert np.abs(np.array(want) - dense).max() < 1e-12
    per_site = [rep.aux["end_x"]] + [rep.aux["inner_x"]] * (n - 2) + [rep.aux["end_x"]]
    assert np.abs(np.array(per_site) - want).max() < 1e-12
    assert rep.value == pytest.approx(sum(want), abs=1e-12)


def pair_density(n, p, pair, outcomes, kind):
    """``cluster_pair_block`` as a two-site DensityMatrix, for ``negativity``."""
    return DensityMatrix(ChainSpec(2).space(), cluster_pair_block(n, p, pair, outcomes, kind))


def oracle_bisect(entangled, precision):
    """The weight in [1/2, 1] where ``entangled`` turns true, halving to ``precision``."""
    lo, hi = 0.5, 1.0
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if entangled(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


# the pairwise thresholds at the default precision 1e-3, by channel and pair
PAIR_THRESHOLDS = {
    ("phase_flip", (2, 3)): 0.70751953125,
    ("phase_flip", (1, 2)): 0.70751953125,
    ("depolarizing", (2, 3)): 0.78759765625,
    ("depolarizing", (1, 2)): 0.74267578125,
}


def test_pairwise_threshold_is_the_bisected_pair_negativity():
    # the closed-form threshold is the bisection, at the same precision, of the
    # negativity of the pair block gathered from the 2^n cluster state, on a
    # random measurement branch; at 1e-3 it is also the pinned value
    gen = np.random.default_rng(0)
    for n, (kind, pair) in itertools.product((4, 6, 8), PAIR_THRESHOLDS):
        outcomes = tuple(int(b) for b in gen.integers(0, 2, n - 2))

        def entangled(p):
            return negativity(pair_density(n, p, pair, outcomes, kind), [1]) > 0.0

        for precision in (1e-3, 2.0**-30):
            assert pairwise_threshold(n, pair, precision, kind) == oracle_bisect(entangled, precision)
        assert pairwise_threshold(n, pair, channel=kind) == PAIR_THRESHOLDS[kind, pair]


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from(range(4, 9, 2)),
    p=st.floats(0.5, 1.0),
    kind=st.sampled_from(["phase_flip", "depolarizing"]),
    seed=st.integers(0, 2**31),
)
@with_examples(SIZES_AND_KINDS[2:8], p=0.71, seed=0)
def test_localized_pair_matches_dense_density_matrix_oracle(n, p, kind, seed):
    # one random branch per pair: the block ``cluster_pair_block`` gathers from
    # the 2^n cluster state against the dense 4^n density matrix, measured and
    # renormalized
    gen = np.random.default_rng(seed)
    _, rho = oracle_noisy_cluster(kind, n, p)
    t = rho.reshape((2,) * (2 * n))
    for k in range(1, n):
        others = [s for s in range(1, n + 1) if s not in (k, k + 1)]
        outcomes = tuple(int(b) for b in gen.integers(0, 2, n - 2))
        index = [slice(None)] * (2 * n)
        for site, bit in zip(others, outcomes):
            index[site - 1] = index[n + site - 1] = bit
        want = t[tuple(index)].reshape(4, 4)
        want = want / np.trace(want).real
        got = cluster_pair_block(n, p, (k, k + 1), outcomes, kind)
        assert np.abs(got - want).max() < 1e-12


ECHO_WEIGHTS = [i / 64 for i in range(65)] + [0.123456789, 0.7071, 0.7500001, 0.987654321]


@pytest.mark.parametrize("kind", ["phase_flip", "depolarizing"])
@pytest.mark.parametrize("n", list(range(2, 65, 2)) + [10**3, 10**6])
def test_echo_is_the_correctly_rounded_sum_of_its_sites(n, kind):
    # the exactly rounded sum over the n sites, p < 1/2 (f_xy < 0) included
    for p in ECHO_WEIGHTS:
        rep = decoherence_experiment(n, p, kind)
        end, inner = rep.aux["end_x"], rep.aux["inner_x"]
        assert rep.value == math.fsum([end] * 2 + [inner] * (n - 2))


@pytest.mark.parametrize("kind", ["phase_flip", "depolarizing"])
def test_echo_costs_the_same_at_any_size(kind):
    # a sum over 10^15 sites could not finish, so the echo is O(1) in n
    n = 10**15
    for p in (0.3, 0.6, 0.75, 0.9):
        rep = decoherence_experiment(n, p, kind)
        end, inner = Fraction(rep.aux["end_x"]), Fraction(rep.aux["inner_x"])
        assert rep.value == float(2 * end + (n - 2) * inner)


@pytest.mark.parametrize("kind", ["phase_flip", "depolarizing"])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_localized_pair_partial_transpose_has_the_closed_form_eigenvalue(n, kind):
    # the smallest eigenvalue of the partial transpose is (1 - |a1| - |a2| - |b|)/4,
    # read from the block's X(x)Z, Z(x)X and Y(x)Y coefficients
    x, y, z = PAULIS["x"], PAULIS["y"], PAULIS["z"]
    for k, outcomes, p in itertools.product(
        range(1, n), itertools.product((0, 1), repeat=n - 2), (0.5, 0.6, 0.71, 0.8, 1.0)
    ):
        block = cluster_pair_block(n, p, (k, k + 1), outcomes, kind)
        a1, a2, b = (np.trace(block @ np.kron(u, v)).real for u, v in ((x, z), (z, x), (y, y)))
        transposed = block.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
        smallest = np.linalg.eigvalsh(transposed)[0]
        assert abs(smallest - (1 - abs(a1) - abs(a2) - abs(b)) / 4) < 1e-15


@pytest.mark.parametrize(
    "kind, pair, want",
    [
        ("phase_flip", (2, 3), 0.70751953125),
        ("phase_flip", (1, 2), 0.70751953125),
        ("depolarizing", (2, 3), 0.78759765625),
        ("depolarizing", (1, 2), 0.74267578125),
    ],
)
@pytest.mark.parametrize("n", [4, 10, 10**4])
def test_pairwise_threshold_is_pinned_at_default_precision(n, kind, pair, want):
    assert pairwise_threshold(n, pair, channel=kind) == want
    # the end pair at the far end of the chain is the mirror image
    if pair == (1, 2):
        assert pairwise_threshold(n, (n - 1, n), channel=kind) == want


def test_pair_and_lifetime_thresholds_run_with_numpy_blocked():
    # the pair is its closed form in the channel scales: on any chain, neither
    # threshold builds a state or imports numpy
    code = ("import json, sys; sys.modules['numpy'] = None\n"
            "from qlatwit.channels import lifetime_comparison, pairwise_threshold\n"
            "n = 10**5\n"
            "print(json.dumps([[pairwise_threshold(n, pair, channel=kind) for pair in ((2, 3), (1, 2), (n - 1, n))]"
            " for kind in ('phase_flip', 'depolarizing')]))\n"
            "print(repr(lifetime_comparison(1.0).ratio))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    thresholds, ratio = proc.stdout.splitlines()
    assert json.loads(thresholds) == [
        [PAIR_THRESHOLDS[kind, (2, 3)], PAIR_THRESHOLDS[kind, (1, 2)], PAIR_THRESHOLDS[kind, (1, 2)]]
        for kind in ("phase_flip", "depolarizing")
    ]
    assert float(ratio) == 0.7882202259311704


@pytest.mark.parametrize(
    "n, pair, match",
    [
        (2, (1, 2), "even chains of at least 4 sites"),
        (5, (2, 3), "even chains of at least 4 sites"),
        (7, (2, 3), "even chains of at least 4 sites"),
        (6, (2, 4), "two neighboring sites"),
        (6, (3, 2), "two neighboring sites"),
        (6, (0, 1), r"out of range 1\.\.6"),
        (6, (6, 7), r"out of range 1\.\.6"),
    ],
)
def test_pairwise_threshold_refuses_an_invalid_request(n, pair, match):
    with pytest.raises(ValueError, match=match):
        pairwise_threshold(n, pair)


@pytest.mark.parametrize("weights", [{"p_crit": 0.5}, {"p_crit": 1.0}])
def test_lifetime_comparison_refuses_a_weight_outside_the_open_half_interval(weights):
    # the scale 2p - 1 decays from 1 towards 0, so it reaches neither 0 nor 1 at t > 0
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        lifetime_comparison(1.0, **weights)


def test_depolarizing_echo_matches_twirl_algebra():
    # under per-site depolarizing every non-identity Pauli factor picks up
    # (4p-1)/3, so the echo value is 2c^2 + (n-2)c^3 on an open chain
    n = 6
    for p in (0.7, 0.85, 1.0):
        c = (4 * p - 1) / 3
        want = 2 * c**2 + (n - 2) * c**3
        got = decoherence_experiment(n, p, channel="depolarizing").value
        assert got == pytest.approx(want, abs=1e-9)


def depolarizing_witness_root(n):
    """The p where 2f^2 + (n - 2)f^3 = n/2, with f = (4p - 1)/3, by bisection."""
    lo, hi = 0.5, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        f = (4 * mid - 1) / 3
        if 2 * f**2 + (n - 2) * f**3 > n / 2:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


@pytest.mark.parametrize("n", [4, 8, 12, 10**5])
def test_depolarizing_thresholds_are_pinned(n):
    # the witness threshold is the root of the echo's closed form (0.816 at
    # n = 4, 0.836 at n = 12), to the bisection's default precision 1e-3;
    # the pairwise analog is reported, not pinned
    w_dep = witness_threshold(n, channel="depolarizing")
    assert abs(w_dep - depolarizing_witness_root(n)) <= 1e-3 / 2
    p_dep = pairwise_threshold(n, channel="depolarizing")
    assert p_dep is not None
    assert 0.5 < w_dep < 1.0
    assert 0.5 < p_dep < 1.0
    # both lifetimes follow the depolarizing scale f = (4p - 1)/3 = exp(-kappa t)
    f_w, f_p = (4 * w_dep - 1) / 3, (4 * p_dep - 1) / 3
    ratio_dep = _time_to_reach(f_w, 1.0) / _time_to_reach(f_p, 1.0)
    assert ratio_dep == pytest.approx(math.log(f_w) / math.log(f_p), rel=1e-15)
    assert 0.0 < ratio_dep <= 1.0 + 1e-9
    print(
        f"depolarizing analogs: witness threshold {w_dep:.4f}, pairwise {p_dep:.4f}, "
        f"lifetime ratio {ratio_dep:.4f}"
    )


# ---------------------------------------------------------------------------
# pairwise entanglement threshold


def test_localized_pair_is_entangled_without_noise():
    rho = pair_density(4, 1.0, (2, 3), (0, 0), "phase_flip")
    assert negativity(rho, [1]) == pytest.approx(0.5, abs=1e-10)


def test_localized_pair_negativity_branch_independent():
    for outcomes in itertools.product((0, 1), repeat=2):
        rho = pair_density(4, 0.85, (2, 3), outcomes, "phase_flip")
        assert negativity(rho, [1]) == pytest.approx(
            negativity(pair_density(4, 0.85, (2, 3), (0, 0), "phase_flip"), [1]), abs=1e-12
        )


def test_localized_pair_negativity_monotone_in_noise():
    grid = np.linspace(1.0, 0.5, 11)
    values = [negativity(pair_density(4, float(p), (2, 3), (0, 0), "phase_flip"), [1]) for p in grid]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12


# ---------------------------------------------------------------------------
# lifetimes


def test_lifetime_comparison_at_two_decimal_threshold():
    out = lifetime_comparison(1.0, p_crit=0.71)
    assert out.t_witness == pytest.approx(math.log(2), abs=1e-12)
    assert out.t_pairwise == pytest.approx(math.log(1 / 0.42), abs=1e-12)
    assert out.ratio == pytest.approx(0.80, abs=0.02)


def test_lifetime_scaling_with_rate():
    slow = lifetime_comparison(1.0, p_crit=0.71)
    fast = lifetime_comparison(2.0, p_crit=0.71)
    assert fast.t_witness == pytest.approx(slow.t_witness / 2, abs=1e-12)
    assert fast.t_pairwise == pytest.approx(slow.t_pairwise / 2, abs=1e-12)
    assert fast.ratio == pytest.approx(slow.ratio, abs=1e-12)


def test_identical_thresholds_give_unit_ratio():
    assert lifetime_comparison(1.0, p_crit=0.75).ratio == pytest.approx(1.0, abs=1e-12)


def test_lifetime_comparison_computes_threshold_when_missing():
    out = lifetime_comparison(1.0)
    assert out.ratio == pytest.approx(0.80, abs=0.02)


def test_lifetime_comparison_rejects_bad_rate():
    with pytest.raises(ValueError):
        lifetime_comparison(0.0, p_crit=0.71)


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
def test_lifetime_comparison_rejects_a_non_finite_rate(kappa):
    # a NaN rate gives NaN lifetimes, and an infinite one zero lifetimes
    with pytest.raises(ValueError, match="decay rate"):
        lifetime_comparison(kappa, p_crit=0.71)
