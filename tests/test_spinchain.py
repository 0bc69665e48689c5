import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ID2, PAULIS, kron_all, oracle_collective, oracle_site_pauli
from qlatwit.qcore import LinearOperator, PureState, expectation
from qlatwit.sampling import (
    haar_vector,
    random_direction,
    random_hermitian,
    random_separable_density,
)
from qlatwit.spinchain import (
    ChainSpec,
    ClusterSpec,
    basis_state,
    cluster_state,
    collective_spin,
    conjugate_by_phase_gate,
    evolve,
    pauli,
    pauli_string,
    pauli_sum,
    pauli_sum_moments,
    phase_gate_unitary,
    plus_chain,
    product_state,
    tilde_sigma_x,
)


def witness_value(state, n):
    chain = ChainSpec(n)
    return sum(expectation(tilde_sigma_x(chain, k), state) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# Pauli builders


def test_pauli_z_on_basis_state():
    chain = ChainSpec(2)
    psi = basis_state(chain, [0, 1])
    out = pauli(chain, 1, "z").matrix @ psi.amplitudes
    assert np.allclose(out, psi.amplitudes)


def test_pauli_x_flips_site_two():
    chain = ChainSpec(2)
    out = pauli(chain, 2, "x").matrix @ basis_state(chain, [0, 0]).amplitudes
    assert np.allclose(out, basis_state(chain, [0, 1]).amplitudes)


def test_pauli_commutator_algebra():
    chain = ChainSpec(3)
    x, y, z = (pauli(chain, 2, ax).matrix for ax in "xyz")
    assert np.abs(x @ y - y @ x - 2j * z).max() < 1e-12


def test_pauli_site_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        pauli(ChainSpec(2), 3, "x")


def test_pauli_matches_oracle():
    chain = ChainSpec(4)
    for k in range(1, 5):
        for ax in "xyz":
            assert np.allclose(pauli(chain, k, ax).matrix, oracle_site_pauli(ax, k, 4))


@st.composite
def pauli_strings(draw, n):
    sites = draw(st.sets(st.integers(1, n), max_size=n))
    return {site: draw(st.sampled_from("xyz")) for site in sorted(sites)}


def oracle_pauli_string(factors, n):
    return kron_all([PAULIS[factors[s]] if s in factors else ID2 for s in range(1, n + 1)])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 8))
def test_pauli_string_matches_kron_oracle(data, n):
    factors = data.draw(pauli_strings(n))
    got = pauli_string(ChainSpec(n), factors).matrix
    assert np.array_equal(got, oracle_pauli_string(factors, n))


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
        pauli(ChainSpec(2), 1, "w")


# ---------------------------------------------------------------------------
# three-site correlators


def test_tilde_left_boundary_drops_z():
    got = tilde_sigma_x(ChainSpec(4), 1).matrix
    want = oracle_site_pauli("x", 1, 4) @ oracle_site_pauli("z", 2, 4)
    assert np.allclose(got, want)


def test_tilde_interior_definition():
    got = tilde_sigma_x(ChainSpec(4), 2).matrix
    want = (
        oracle_site_pauli("z", 1, 4)
        @ oracle_site_pauli("x", 2, 4)
        @ oracle_site_pauli("z", 3, 4)
    )
    assert np.allclose(got, want)


def test_tilde_squares_to_identity():
    op = tilde_sigma_x(ChainSpec(5), 3).matrix
    assert np.abs(op @ op - np.eye(32)).max() < 1e-12


def test_tilde_out_of_range():
    with pytest.raises(ValueError):
        tilde_sigma_x(ChainSpec(4), 5)


def test_tilde_operators_mutually_commute():
    chain = ChainSpec(5)
    ops = [tilde_sigma_x(chain, k).matrix for k in range(1, 6)]
    for a in ops:
        for b in ops:
            assert np.abs(a @ b - b @ a).max() < 1e-10


# ---------------------------------------------------------------------------
# collective spin


def test_collective_z_on_all_up():
    chain = ChainSpec(4)
    psi = basis_state(chain, [0, 0, 0, 0])
    assert expectation(collective_spin(chain, "z"), psi) == pytest.approx(2.0, abs=1e-12)


def test_collective_spin_vanishes_on_cluster(rng):
    n = 5
    chain = ChainSpec(n)
    state = cluster_state(ClusterSpec(chain, (1,) * n))
    ops = {ax: collective_spin(chain, ax) for ax in "xyz"}
    for ax in "xyz":
        assert abs(expectation(ops[ax], state)) < 1e-10
    for _ in range(20):
        d = random_direction(rng)
        mat = d[0] * ops["x"].matrix + d[1] * ops["y"].matrix + d[2] * ops["z"].matrix
        op = LinearOperator(chain.space(), mat, hermitian_hint=True)
        assert abs(expectation(op, state)) < 1e-10


def test_collective_z_on_singlet_pair():
    chain = ChainSpec(2)
    from qlatwit.qcore import PureState

    singlet = PureState(chain.space(), np.array([0, 1, -1, 0]) / np.sqrt(2))
    assert expectation(collective_spin(chain, "z"), singlet) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# phase gate


def test_phase_gate_action_on_z_basis():
    chain = ChainSpec(2)
    u = phase_gate_unitary(chain).matrix
    for bits, phase in [((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), -1)]:
        psi = basis_state(chain, list(bits)).amplitudes
        assert np.allclose(u @ psi, phase * psi)


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
        got = phase_gate_unitary(ChainSpec(n)).matrix
        assert np.abs(got - want).max() < 1e-10


def test_phase_gate_is_unitary_and_diagonal():
    u = phase_gate_unitary(ChainSpec(4)).matrix
    assert np.abs(u @ u.conj().T - np.eye(16)).max() < 1e-10
    assert np.abs(u - np.diag(np.diagonal(u))).max() == 0.0


def test_phase_gate_squared_restores_z_products():
    # diagonal phases are +-1, so the square is exactly the identity
    chain = ChainSpec(3)
    u = phase_gate_unitary(chain).matrix
    for idx in range(8):
        bits = [(idx >> (2 - b)) & 1 for b in range(3)]
        psi = basis_state(chain, bits).amplitudes
        out = u @ (u @ psi)
        overlap = np.vdot(psi, out)
        assert abs(abs(overlap) - 1.0) < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_conjugation_identity_all_sites(n):
    chain = ChainSpec(n)
    for k in range(1, n + 1):
        got = conjugate_by_phase_gate(chain, k).matrix
        want = tilde_sigma_x(chain, k).matrix
        assert np.abs(got - want).max() < 1e-10


def test_conjugation_boundary_case_two_sites():
    got = conjugate_by_phase_gate(ChainSpec(2), 1).matrix
    want = oracle_site_pauli("x", 1, 2) @ oracle_site_pauli("z", 2, 2)
    assert np.allclose(got, want, atol=1e-12)


def test_conjugation_result_is_hermitian_involution():
    op = conjugate_by_phase_gate(ChainSpec(3), 2).matrix
    assert np.abs(op - op.conj().T).max() < 1e-12
    assert np.abs(op @ op - np.eye(8)).max() < 1e-12


# ---------------------------------------------------------------------------
# cluster states


def test_cluster_eigen_residuals_two_sites():
    chain = ChainSpec(2)
    state = cluster_state(ClusterSpec(chain, (1, 1)))
    for k in (1, 2):
        resid = tilde_sigma_x(chain, k).matrix @ state.amplitudes - state.amplitudes
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
    via_gate = phase_gate_unitary(chain).matrix @ plus_chain(chain).amplitudes
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
        out = tilde_sigma_x(chain, k).matrix @ state.amplitudes
        assert np.linalg.norm(out - lambdas[k - 1] * state.amplitudes) < 1e-10


def test_cluster_spec_validates_lambdas():
    with pytest.raises(ValueError):
        ClusterSpec(ChainSpec(2), (1, 2))
    with pytest.raises(ValueError):
        ClusterSpec(ChainSpec(3), (1, 1))


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


# ---------------------------------------------------------------------------
# evolution


def test_evolve_zero_time_is_identity():
    chain = ChainSpec(2)
    psi = plus_chain(chain)
    out = evolve(collective_spin(chain, "z"), 0.0, psi)
    assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-12)


def test_evolve_pi_rotation_flips_x_eigenstates():
    # a pi rotation about z (spin = sigma/2) sends +x to -x up to phase
    chain = ChainSpec(2)
    h = collective_spin(chain, "z")
    psi = product_state([("x", 1), ("x", 1)])
    target = product_state([("x", -1), ("x", -1)])
    out = evolve(h, np.pi, psi)
    fidelity = abs(np.vdot(target.amplitudes, out.amplitudes)) ** 2
    assert fidelity == pytest.approx(1.0, abs=1e-10)


def test_evolve_norm_drift_stays_small(rng):
    chain = ChainSpec(3)
    h = LinearOperator(chain.space(), random_hermitian(8, rng), hermitian_hint=True)
    psi = plus_chain(chain)
    out = evolve(h, 100.0, psi)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


def test_evolve_requires_hermitian_generator():
    chain = ChainSpec(2)
    bad = LinearOperator(chain.space(), np.triu(np.ones((4, 4), dtype=complex)))
    with pytest.raises(ValueError, match="Hermitian"):
        evolve(bad, 1.0, plus_chain(chain))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(2, 8), n_terms=st.integers(1, 4))
def test_pauli_sum_matches_kron_oracle(data, n, n_terms):
    terms = [
        (data.draw(st.floats(-5, 5)), data.draw(pauli_strings(n))) for _ in range(n_terms)
    ]
    got = pauli_sum(ChainSpec(n), terms).matrix
    want = sum(w * oracle_pauli_string(f, n) for w, f in terms)
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 7))
def test_collective_spin_matches_kron_oracle(n):
    for ax in "xyz":
        assert np.array_equal(collective_spin(ChainSpec(n), ax).matrix, oracle_collective(ax, n))
