import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    basis_state,
    collective_j_operators,
    oracle_collective,
    oracle_pauli_string,
    oracle_site_pauli,
    oracle_tilde,
    plus_chain,
    tilde_sigma_x,
)
from qlatwit.criteria import _site_spin_matrices
from qlatwit.qcore import DIM_CAP, LinearOperator, PureState, _site_sum, expectation
from qlatwit.spinchain import (
    ChainSpec,
    ClusterSpec,
    _MAX_QUBITS,
    _bond_hops,
    _popcount,
    cluster_state,
    pauli_sum_moments,
    phase_gate_diagonal,
    product_state,
    tilde_factors,
)
from sampling import haar_vector, random_direction, random_separable_density


def witness_value(state, n):
    chain = ChainSpec(n)
    return sum(expectation(tilde_sigma_x(chain, k), state) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# Pauli strings


def test_pauli_z_on_basis_state():
    psi = basis_state(ChainSpec(2), [0, 1])
    out = oracle_site_pauli("z", 1, 2) @ psi.amplitudes
    assert np.allclose(out, psi.amplitudes)


def test_pauli_x_flips_site_two():
    chain = ChainSpec(2)
    out = oracle_site_pauli("x", 2, 2) @ basis_state(chain, [0, 0]).amplitudes
    assert np.allclose(out, basis_state(chain, [0, 1]).amplitudes)


def test_pauli_commutator_algebra():
    x, y, z = (oracle_site_pauli(ax, 2, 3) for ax in "xyz")
    assert np.abs(x @ y - y @ x - 2j * z).max() < 1e-12


def test_pauli_site_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        pauli_sum_moments(basis_state(ChainSpec(2), [0, 0]), [{3: "x"}])


@st.composite
def pauli_strings(draw, n):
    sites = draw(st.sets(st.integers(1, n), max_size=n))
    return {site: draw(st.sampled_from("xyz")) for site in sorted(sites)}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(2, 8), n_terms=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_pauli_sum_moments_match_dense_oracle(data, n, n_terms, seed):
    strings = [data.draw(pauli_strings(n)) for _ in range(n_terms)]
    s_dense = sum(oracle_pauli_string(f, n) for f in strings)
    space = ChainSpec(n).space()
    gen = np.random.default_rng(seed)
    psi = haar_vector(space.dim, gen)
    mean, second = pauli_sum_moments(PureState(space, psi), strings)
    assert mean == pytest.approx(np.vdot(psi, s_dense @ psi).real, abs=1e-12)
    assert second == pytest.approx(np.vdot(s_dense @ psi, s_dense @ psi).real, abs=1e-12)
    rho = random_separable_density(space, gen)
    assert np.abs(rho.matrix - np.diag(np.diagonal(rho.matrix))).max() > 1e-8
    mean, second = pauli_sum_moments(rho, strings)
    assert mean == pytest.approx(np.trace(rho.matrix @ s_dense).real, abs=1e-12)
    assert second == pytest.approx(np.trace(rho.matrix @ s_dense @ s_dense).real, abs=1e-12)


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        pauli_sum_moments(basis_state(ChainSpec(2), [0, 0]), [{1: "w"}])


# ---------------------------------------------------------------------------
# three-site correlators


def test_tilde_left_boundary_drops_z():
    assert tilde_factors(ChainSpec(4), 1) == {1: "x", 2: "z"}


def test_tilde_interior_definition():
    assert tilde_factors(ChainSpec(4), 2) == {1: "z", 2: "x", 3: "z"}


def test_tilde_squares_to_identity():
    op = oracle_tilde(3, 5)
    assert np.abs(op @ op - np.eye(32)).max() < 1e-12


def test_tilde_out_of_range():
    with pytest.raises(ValueError):
        tilde_factors(ChainSpec(4), 5)


def test_tilde_operators_mutually_commute():
    ops = [oracle_tilde(k, 5) for k in range(1, 6)]
    for a in ops:
        for b in ops:
            assert np.abs(a @ b - b @ a).max() < 1e-10


# ---------------------------------------------------------------------------
# collective spin


def test_collective_z_on_all_up():
    chain = ChainSpec(4)
    psi = basis_state(chain, [0, 0, 0, 0])
    jz = collective_j_operators(chain.space())["z"]
    assert expectation(jz, psi) == pytest.approx(2.0, abs=1e-12)


def test_collective_spin_vanishes_on_cluster(rng):
    n = 5
    chain = ChainSpec(n)
    state = cluster_state(ClusterSpec(chain, (1,) * n))
    ops = collective_j_operators(chain.space())
    for ax in "xyz":
        assert abs(expectation(ops[ax], state)) < 1e-10
    for _ in range(20):
        d = random_direction(rng)
        mat = d[0] * ops["x"].matrix + d[1] * ops["y"].matrix + d[2] * ops["z"].matrix
        op = LinearOperator(chain.space(), mat, hermitian_hint=True)
        assert abs(expectation(op, state)) < 1e-10


@pytest.mark.parametrize("n", range(2, 7))
def test_collective_spin_matches_kron_oracle(n):
    # the site sums applied to every basis vector give their dense matrices
    space = ChainSpec(n).space()
    js = _site_sum(_site_spin_matrices(space), space, np.eye(space.dim, dtype=complex))
    for k, ax in enumerate("xyz"):
        assert np.array_equal(js[k], oracle_collective(ax, n))


def test_collective_z_on_singlet_pair():
    chain = ChainSpec(2)
    from qlatwit.qcore import PureState

    singlet = PureState(chain.space(), np.array([0, 1, -1, 0]) / np.sqrt(2))
    jz = collective_j_operators(chain.space())["z"]
    assert expectation(jz, singlet) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# phase gate


def test_phase_gate_action_on_z_basis():
    chain = ChainSpec(2)
    d = phase_gate_diagonal(chain)
    for bits, phase in [((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), -1)]:
        psi = basis_state(chain, list(bits)).amplitudes
        assert np.allclose(d * psi, phase * psi)


def test_phase_gate_matches_exponential_oracle():
    # direct matrix exponential of the pairwise generator, small sizes
    for n in (2, 3):
        gen = np.zeros((2**n, 2**n), dtype=complex)
        eye = np.eye(2**n)
        for k in range(1, n):
            zk = oracle_site_pauli("z", k, n)
            zk1 = oracle_site_pauli("z", k + 1, n)
            gen += (eye - zk) @ (eye - zk1)
        want = scipy.linalg.expm(1j * np.pi / 4 * gen)
        got = np.diag(phase_gate_diagonal(ChainSpec(n)))
        assert np.abs(got - want).max() < 1e-10


def test_phase_gate_is_unitary_and_diagonal():
    # a real diagonal gate is unitary, Hermitian and an involution when every entry is +-1
    d = phase_gate_diagonal(ChainSpec(4))
    assert d.shape == (16,)
    assert np.array_equal(np.abs(d), np.ones(16))


def test_phase_gate_squared_restores_z_products():
    # diagonal phases are +-1, so the square is exactly the identity
    chain = ChainSpec(3)
    d = phase_gate_diagonal(chain)
    for idx in range(8):
        bits = [(idx >> (2 - b)) & 1 for b in range(3)]
        psi = basis_state(chain, bits).amplitudes
        overlap = np.vdot(psi, d * (d * psi))
        assert abs(abs(overlap) - 1.0) < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_conjugation_identity_all_sites(n):
    # U sigma_x^(k) U = K_k, the three-site correlator, for the diagonal gate U
    d = phase_gate_diagonal(ChainSpec(n))
    for k in range(1, n + 1):
        got = d[:, None] * oracle_site_pauli("x", k, n) * d[None, :]
        assert np.abs(got - oracle_tilde(k, n)).max() < 1e-10


def test_conjugation_boundary_case_two_sites():
    d = phase_gate_diagonal(ChainSpec(2))
    got = d[:, None] * oracle_site_pauli("x", 1, 2) * d[None, :]
    want = oracle_site_pauli("x", 1, 2) @ oracle_site_pauli("z", 2, 2)
    assert np.allclose(got, want, atol=1e-12)


def test_conjugation_result_is_hermitian_involution():
    d = phase_gate_diagonal(ChainSpec(3))
    op = d[:, None] * oracle_site_pauli("x", 2, 3) * d[None, :]
    assert np.abs(op - op.conj().T).max() < 1e-12
    assert np.abs(op @ op - np.eye(8)).max() < 1e-12


# ---------------------------------------------------------------------------
# cluster states


def test_cluster_eigen_residuals_two_sites():
    chain = ChainSpec(2)
    state = cluster_state(ClusterSpec(chain, (1, 1)))
    for k in (1, 2):
        resid = oracle_tilde(k, 2) @ state.amplitudes - state.amplitudes
        assert np.linalg.norm(resid) < 1e-10


def test_cluster_witness_reaches_site_count():
    state = cluster_state(ClusterSpec(ChainSpec(4), (1, 1, 1, 1)))
    assert witness_value(state, 4) == pytest.approx(4.0, abs=1e-10)


def test_cluster_alternating_sector_squared_sum():
    n = 4
    chain = ChainSpec(n)
    lambdas = (1, -1, 1, -1)
    state = cluster_state(ClusterSpec(chain, lambdas))
    vals = [expectation(tilde_sigma_x(chain, k), state) for k in range(1, n + 1)]
    assert np.allclose(vals, lambdas, atol=1e-10)
    assert sum(v * v for v in vals) == pytest.approx(4.0, abs=1e-10)


@pytest.mark.parametrize("n", range(2, 9))
def test_cluster_equals_phase_gated_plus_chain(n):
    chain = ChainSpec(n)
    via_projector = cluster_state(ClusterSpec(chain, (1,) * n))
    via_gate = phase_gate_diagonal(chain) * plus_chain(chain).amplitudes
    fidelity = abs(np.vdot(via_gate, via_projector.amplitudes)) ** 2
    assert fidelity > 1 - 1e-10


@settings(max_examples=25, deadline=None)
@given(
    lambdas=st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=7).map(tuple)
)
def test_cluster_eigen_residuals_any_sector(lambdas):
    n = len(lambdas)
    chain = ChainSpec(n)
    state = cluster_state(ClusterSpec(chain, lambdas))
    for k in range(1, n + 1):
        out = oracle_tilde(k, n) @ state.amplitudes
        assert np.linalg.norm(out - lambdas[k - 1] * state.amplitudes) < 1e-10


@pytest.mark.parametrize("n", [63, 64])
def test_cluster_state_refuses_sizes_past_the_int64_range(n):
    with pytest.raises(ValueError, match="exceeds cap"):
        cluster_state(ClusterSpec(ChainSpec(n), (1,) * n))


@pytest.mark.parametrize("n", [13, 63])
def test_phase_gate_diagonal_refuses_sizes_past_the_cap(n):
    # 13 sites would be 8192 entries; 63 would overflow the int64 index arithmetic
    with pytest.raises(ValueError) as refused:
        phase_gate_diagonal(ChainSpec(n))
    assert str(refused.value) == f"dimension 2^{n} exceeds cap {DIM_CAP}"


def test_product_state_refuses_sizes_past_the_cap_before_building():
    # 13 sites would be 8192 amplitudes; the check comes before the kron loop
    with pytest.raises(ValueError, match="exceeds cap"):
        product_state([("z", 1)] * 13)


def test_qubit_builders_refuse_a_huge_chain_by_its_site_count():
    # 2^100000 has 30103 digits: the refusal neither multiplies it out nor prints it
    n = 100_000
    message = "dimension 2^100000 exceeds cap 4096"
    with pytest.raises(ValueError) as refused:
        product_state([("z", 1)] * n)
    assert str(refused.value) == message
    with pytest.raises(ValueError) as refused:
        cluster_state(ClusterSpec(ChainSpec(n), (1,) * n))
    assert str(refused.value) == message
    assert 2**_MAX_QUBITS <= DIM_CAP < 2 ** (_MAX_QUBITS + 1)


def test_cluster_spec_validates_lambdas():
    with pytest.raises(ValueError):
        ClusterSpec(ChainSpec(2), (1, 2))
    with pytest.raises(ValueError):
        ClusterSpec(ChainSpec(3), (1, 1))


# ---------------------------------------------------------------------------
# bit folds and the bond hops


def test_bit_folds_match_bin_count():
    values = np.concatenate([np.arange(4096), 2**62 + np.arange(-8, 8), 2**63 - 1 - np.arange(8)])
    counts = np.array([bin(int(v)).count("1") for v in values])
    assert np.array_equal(_popcount(values, 63), counts)


def oracle_chain(n, jxx, jyy, jzz, hz):
    bonds = sum(
        j / 4 * oracle_pauli_string({k: a, k + 1: a}, n)
        for k in range(1, n)
        for j, a in ((jxx, "x"), (jyy, "y"), (jzz, "z"))
    )
    return bonds + sum(hz / 2 * oracle_site_pauli("z", k, n) for k in range(1, n + 1))


@pytest.mark.parametrize("n", range(2, 8))
def test_chain_generator_matches_kron_oracle(n, rng):
    idx = np.arange(2**n)
    popcount = np.array([bin(i).count("1") for i in idx])
    even = idx[popcount % 2 == 0]
    half = idx[popcount == n // 2]
    for _ in range(5):
        jxx, jyy = rng.uniform(-3, 3, size=2)
        # any couplings keep the parity; an S_z sector is closed only at jxx == jyy
        for states, (a, b) in ((idx, (jxx, jyy)), (even, (jxx, jyy)), (half, (jxx, jxx))):
            rows, cols, weights = _bond_hops(n, states, (a - b) / 4, (a + b) / 4)
            assert weights.all()
            got = np.zeros((states.size, states.size))
            got[rows, cols] = weights
            dense = oracle_chain(n, a, b, 0, 0)
            assert np.allclose(got, dense[np.ix_(states, states)], atol=1e-12)
            others = np.setdiff1d(idx, states)
            assert others.size == 0 or np.abs(dense[np.ix_(others, states)]).max() == 0.0


# ---------------------------------------------------------------------------
# product states


def test_saturating_product_meets_half_bound():
    state = product_state([("x", 1), ("z", 1), ("x", 1), ("z", 1)])
    assert witness_value(state, 4) == pytest.approx(2.0, abs=1e-10)


def test_all_z_up_product_gives_zero_witness():
    state = product_state([("z", 1)] * 4)
    assert witness_value(state, 4) == pytest.approx(0.0, abs=1e-12)


def test_all_x_up_product_gives_zero_witness():
    state = product_state([("x", 1)] * 4)
    assert witness_value(state, 4) == pytest.approx(0.0, abs=1e-12)


def test_product_state_rejects_bad_spec():
    with pytest.raises(ValueError):
        product_state([("x", 1), ("w", 1)])
