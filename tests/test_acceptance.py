"""Acceptance gate: every headline quantitative claim, one test per criterion.

Each test prints one PASS line (visible with ``pytest -s`` or in verbose test
listings) carrying the measured numbers next to their tolerances.
"""

import math

import numpy as np

from conftest import (
    basis_state,
    collective_j_operators,
    embed_qubit_chain,
    ground_state,
    heisenberg_hamiltonian,
    maximal_angular_momentum_check,
    oracle_product_dense,
    phase_flip,
    pulse_unitary,
    pure_to_density,
    schwinger_j,
    site_number_operator,
    tilde_sigma_x,
    variance,
)
from qlatwit import bosonic
from qlatwit.channels import decoherence_experiment, lifetime_comparison, pairwise_threshold, witness_threshold
from qlatwit.criteria import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    angular_moment,
    anticommutator_moments,
    collective_uncertainty_criterion,
    moment_indistinguishability,
    moment_matching_separable_state,
    spin_squeezing_criterion,
    totally_mixed_state,
    variance_x_criterion,
    witness_criterion,
)
from qlatwit.optimize import PulseParams, violation_ratio
from qlatwit.qcore import PureState, expectation
from qlatwit.spinchain import ChainSpec, ClusterSpec, cluster_state, product_state
import sampling


def make_cluster(n):
    return cluster_state(ClusterSpec(ChainSpec(n), (1,) * n))


def saturating(n):
    return product_state([("x", 1) if k % 2 == 1 else ("z", 1) for k in range(1, n + 1)])


def report_pass(num, name, detail):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


def test_criterion_01_witness_maximality():
    details = []
    for n in (4, 6, 8):
        value = witness_criterion(make_cluster(n)).value
        assert abs(value - n) < 1e-9
        sat = witness_criterion(saturating(n)).value
        assert abs(sat - n / 2) < 1e-9
        details.append(f"n={n}: cluster {value:.12f}, saturating {sat:.12f}")
    report_pass(1, "witness maximality", "; ".join(details))


def test_criterion_02_decoherence_law_and_crossing():
    for n in (4, 6, 8):
        for p in np.linspace(0.5, 1.0, 11):
            value = decoherence_experiment(n, float(p)).value
            assert abs(value - n * (2 * p - 1)) < 1e-9
    crossing = witness_threshold(6, precision=1e-3)
    assert abs(crossing - 0.750) <= 1e-3
    report_pass(2, "decoherence law", f"value=n(2p-1) on 11-point grids; crossing p={crossing:.4f} = 0.750 +/- 0.001")


def test_criterion_03_pairwise_threshold_and_lifetime_ratio():
    thresholds = {}
    for n in (4, 6):
        p_crit = pairwise_threshold(n)
        assert p_crit is not None
        assert abs(p_crit - 0.71) <= 0.01
        thresholds[n] = p_crit
    ratio = lifetime_comparison(1.0, p_crit=thresholds[4]).ratio
    assert abs(ratio - 0.80) <= 0.02
    report_pass(
        3,
        "pairwise threshold",
        f"p_crit={thresholds[4]:.4f}/{thresholds[6]:.4f} = 0.71 +/- 0.01; lifetime ratio {ratio:.4f} = 0.80 +/- 0.02",
    )


def test_criterion_04_flip_identities():
    n = 6
    rho = pure_to_density(make_cluster(n))
    single = witness_criterion(phase_flip(rho, 3, 0.0)).value
    assert abs(single - (n - 2)) < 1e-9
    double = witness_criterion(phase_flip(phase_flip(rho, 2, 0.0), 5, 0.0)).value
    assert abs(double - (n - 4)) < 1e-9
    report_pass(4, "flip identities", f"single {single:.12f} = n-2, double {double:.12f} = n-4")


def test_criterion_05_variance_criterion_and_soundness():
    value = variance_x_criterion(make_cluster(6)).value
    assert value < 1e-9
    checked = 0
    for n, count, seed in ((4, 1000, 11), (6, 1000, 13)):
        rng = np.random.default_rng(seed)
        space = ChainSpec(n).space()
        for _ in range(count):
            rho = sampling.random_separable_density(space, rng)
            assert not variance_x_criterion(rho).violated
            checked += 1
    report_pass(5, "variance criterion", f"cluster value {value:.2e} < 1e-9; {checked} separable states, zero false positives")


def test_criterion_06_collective_uncertainty():
    for state in (bosonic.singlet_chain(1), bosonic.singlet_chain(2)):
        rep = collective_uncertainty_criterion(state)
        assert rep.value < 1e-9 and rep.violated
    lattice = bosonic.FockLatticeSpec(4, bosonic.SiteFockSpace(1))
    gs = ground_state(heisenberg_hamiltonian(lattice))
    rep = collective_uncertainty_criterion(gs.state)
    assert rep.value < 1e-9 and rep.violated

    rng = np.random.default_rng(17)
    chain = ChainSpec(4)
    for _ in range(200):
        state = embed_qubit_chain(sampling.random_product_state(chain.space(), rng))
        prod = collective_uncertainty_criterion(state)
        assert abs(prod.value - prod.bound) < 1e-9

    checked = 0
    for n, cutoff, count, seed in ((4, 1, 1000, 19), (2, 2, 600, 23), (3, 2, 400, 29)):
        space = bosonic.FockLatticeSpec(n, bosonic.SiteFockSpace(cutoff)).space()
        gen = np.random.default_rng(seed)
        for _ in range(count):
            rho = sampling.random_separable_density(space, gen)
            assert not collective_uncertainty_criterion(rho).violated
            checked += 1
    report_pass(
        6,
        "collective uncertainty",
        f"singlets and Heisenberg ground state at zero variance; 200 products saturate; {checked} separable states clean",
    )


def test_criterion_07_two_mode_spin_identities():
    residuals = []
    for cutoff in (1, 2, 3, 4):
        r = maximal_angular_momentum_check(bosonic.SiteFockSpace(cutoff))
        assert r < 1e-10
        residuals.append(r)
    rng = np.random.default_rng(31)
    space = bosonic.SiteFockSpace(2)
    ops = [schwinger_j(space, ax) for ax in "xyz"]
    nhat = site_number_operator(space)

    for _ in range(1000):
        psi = PureState(space.space(), sampling.haar_vector(space.dim, rng))
        var_sum = sum(variance(op, psi) for op in ops)
        assert var_sum >= variance(nhat, psi) / 4 + expectation(nhat, psi) / 2 - 1e-10
    report_pass(
        7,
        "two-mode spin identities",
        f"max angular momentum residual {max(residuals):.2e} < 1e-10 (cutoffs 1-4); site uncertainty relation on 1000 random states",
    )


def test_criterion_08_collective_moments():
    mixed9 = totally_mixed_state(9)
    m2 = angular_moment(mixed9, AXIS_Z, 2)
    m4 = angular_moment(mixed9, AXIS_Z, 4)
    assert abs(m2 - 2.25) < 1e-9
    assert abs(m4 - 14.0625) < 1e-9

    comp = moment_indistinguishability(make_cluster(9), mixed9, [AXIS_X, AXIS_Y, AXIS_Z], 4)
    assert comp.indistinguishable and comp.differences.max() < 1e-9

    cluster4 = make_cluster(4)
    rho_s = moment_matching_separable_state(4)
    ops = list("xyz")
    firsts = [
        abs(expectation(collective_j_operators(rho_s.space)[ax], oracle_product_dense(rho_s))
            - expectation(collective_j_operators(cluster4.space)[ax], cluster4))
        for ax in ops
    ]
    assert max(firsts) < 1e-9
    table_diff = np.abs(
        anticommutator_moments(rho_s) - anticommutator_moments(cluster4)
    ).max()
    assert table_diff < 1e-9
    report_pass(
        8,
        "collective moments",
        f"<Jz^2>={m2:.10f}, <Jz^4>={m4:.10f}; 9-site cluster matches mixed to {comp.differences.max():.2e}; "
        f"separable match table diff {table_diff:.2e}",
    )


def test_criterion_09_pulse_violation():
    chain = ChainSpec(6)
    u = pulse_unitary(chain, PulseParams(-3.2, -9.6, 0.8))
    start = basis_state(chain, [0] * 6)
    state = PureState(chain.space(), u.matrix @ start.amplitudes)
    ratio = violation_ratio(state)
    assert abs(ratio - 0.50) <= 0.15
    assert abs(ratio - 0.49265671385397736) < 1e-9  # frozen regression value
    report_pass(9, "pulse violation", f"ratio {ratio:.12f} = 0.50 +/- 0.15")


def test_criterion_10_spin_squeezing_blind_spots():
    rep_cluster = spin_squeezing_criterion(make_cluster(6), AXIS_X, AXIS_Z, AXIS_Y)
    rep_singlet = spin_squeezing_criterion(bosonic.singlet_chain(2), AXIS_X, AXIS_Z, AXIS_Y)
    for rep in (rep_cluster, rep_singlet):
        assert rep.aux.get("undefined") is True
        assert not rep.violated
    report_pass(10, "spin squeezing blind spots", "cluster and singlet chain flagged undefined, not violated")


def test_criterion_11_product_state_pair_bound():
    rng = np.random.default_rng(37)
    n = 6
    chain = ChainSpec(n)
    tildes = [tilde_sigma_x(chain, k) for k in range(1, n + 1)]
    worst = -math.inf
    for _ in range(1000):
        state = sampling.random_product_state(chain.space(), rng)
        vals = [expectation(op, state) for op in tildes]
        worst = max(worst, max(vals[k] + vals[k + 1] for k in range(n - 1)))
        assert worst <= 1.0 + 1e-10
    report_pass(11, "product-state pair bound", f"max neighboring correlator sum {worst:.12f} <= 1 + 1e-10")
