import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ID2, SX, SY, SZ, kron_all, oracle_fock_collective, oracle_heisenberg
from qlatwit.bosonic import (
    EMPTY,
    SPIN_DOWN,
    SPIN_UP,
    FockLatticeSpec,
    SiteFockSpace,
    collective_J_fock,
    _heisenberg_sector,
    embed_qubit_chain,
    heisenberg_ground_state,
    heisenberg_hamiltonian,
    lattice_number_operator,
    maximal_angular_momentum_check,
    mode_operator,
    occupation_basis_state,
    schwinger_j,
    singlet_chain,
    site_number_operator,
    total_spin_squared,
)
from qlatwit.criteria import collective_moments, collective_uncertainty_criterion
from qlatwit.qcore import (
    DEGENERACY_GAP,
    HilbertSpace,
    PureState,
    expectation,
    ground_state,
    variance,
)
from qlatwit.sampling import haar_vector
from qlatwit.spinchain import ChainSpec, basis_state, pauli_sum

SITE1 = SiteFockSpace(1)
SITE2 = SiteFockSpace(2)


def site_ket(space, na, nb):
    v = np.zeros(space.dim, dtype=complex)
    v[space.index(na, nb)] = 1.0
    return v


# ---------------------------------------------------------------------------
# basis bookkeeping


def test_basis_size_formula():
    for n_max in range(1, 6):
        space = SiteFockSpace(n_max)
        assert space.dim == (n_max + 1) * (n_max + 2) // 2
        assert len(space.basis()) == space.dim


def test_basis_index_round_trip():
    space = SiteFockSpace(3)
    for i, (na, nb) in enumerate(space.basis()):
        assert space.index(na, nb) == i


def test_index_rejects_overfull_site():
    with pytest.raises(ValueError):
        SITE1.index(1, 1)


# ---------------------------------------------------------------------------
# ladder operators


def test_annihilation_lowers_mode_a():
    a = mode_operator(SITE2, "a", "annihilate").matrix
    assert np.allclose(a @ site_ket(SITE2, 1, 0), site_ket(SITE2, 0, 0))


def test_creation_raises_mode_a():
    ad = mode_operator(SITE2, "a", "create").matrix
    assert np.allclose(ad @ site_ket(SITE2, 0, 0), site_ket(SITE2, 1, 0))


def test_creation_at_cutoff_maps_to_zero():
    ad = mode_operator(SITE1, "a", "create").matrix
    assert np.allclose(ad @ site_ket(SITE1, 0, 1), 0.0)


def test_canonical_commutator_below_cutoff():
    space = SiteFockSpace(3)
    a = mode_operator(space, "a", "annihilate").matrix
    ad = mode_operator(space, "a", "create").matrix
    comm = a @ ad - ad @ a
    for na, nb in space.basis():
        if na + nb < space.n_max:
            v = site_ket(space, na, nb)
            assert np.allclose(comm @ v, v)


# ---------------------------------------------------------------------------
# Schwinger operators


def test_jz_eigenvalue_on_single_atom():
    jz = schwinger_j(SITE1, "z").matrix
    assert np.allclose(jz @ site_ket(SITE1, 1, 0), 0.5 * site_ket(SITE1, 1, 0))


def test_jx_flips_single_atom():
    jx = schwinger_j(SITE1, "x").matrix
    assert np.allclose(jx @ site_ket(SITE1, 1, 0), 0.5 * site_ket(SITE1, 0, 1))


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_spin_algebra_exact_on_truncated_space(n_max):
    space = SiteFockSpace(n_max)
    jx, jy, jz = (schwinger_j(space, ax).matrix for ax in "xyz")
    assert np.abs(jx @ jy - jy @ jx - 1j * jz).max() < 1e-12


def test_number_operator_eigenvalues():
    assert expectation(
        site_number_operator(SITE2), PureState(SITE2.space(), site_ket(SITE2, 1, 1))
    ) == pytest.approx(2.0, abs=1e-12)
    assert expectation(
        site_number_operator(SITE2), PureState(SITE2.space(), site_ket(SITE2, 0, 0))
    ) == pytest.approx(0.0, abs=1e-12)


def test_number_operator_commutes_with_spin():
    # machine precision, not just small: any truncation artifact would be O(1)
    for n_max in (1, 2, 3):
        space = SiteFockSpace(n_max)
        nhat = site_number_operator(space).matrix
        for ax in "xyz":
            j = schwinger_j(space, ax).matrix
            assert np.abs(nhat @ j - j @ nhat).max() < 1e-14


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_maximal_angular_momentum_identity(n_max):
    assert maximal_angular_momentum_check(SiteFockSpace(n_max)) < 1e-10


def test_two_atom_site_has_spin_one():
    j2 = sum(
        schwinger_j(SITE2, ax).matrix @ schwinger_j(SITE2, ax).matrix for ax in "xyz"
    )
    v = site_ket(SITE2, 2, 0)
    assert np.allclose(j2 @ v, 2.0 * v)  # j(j+1) with j = 1


# ---------------------------------------------------------------------------
# single-site uncertainty relations on random states


def test_mean_spin_bounded_by_mean_number(rng):
    # <jx>^2 + <jy>^2 + <jz>^2 <= <N>^2 / 4 on every site state
    for n_max in (1, 2, 3):
        space = SiteFockSpace(n_max)
        ops = [schwinger_j(space, ax) for ax in "xyz"]
        nhat = site_number_operator(space)
        for _ in range(334):
            psi = PureState(space.space(), haar_vector(space.dim, rng))
            mean_sq = sum(expectation(op, psi) ** 2 for op in ops)
            assert mean_sq <= expectation(nhat, psi) ** 2 / 4 + 1e-10


def test_site_variance_uncertainty_relation(rng):
    # sum Var(j) >= Var(N)/4 + <N>/2 on every site state
    for n_max in (1, 2, 3):
        space = SiteFockSpace(n_max)
        ops = [schwinger_j(space, ax) for ax in "xyz"]
        nhat = site_number_operator(space)
        for _ in range(334):
            psi = PureState(space.space(), haar_vector(space.dim, rng))
            var_sum = sum(variance(op, psi) for op in ops)
            assert var_sum >= variance(nhat, psi) / 4 + expectation(nhat, psi) / 2 - 1e-10


# ---------------------------------------------------------------------------
# lattice operators and the qubit embedding


def test_collective_jz_counts_up_spins():
    lattice = FockLatticeSpec(2, SITE1)
    state = occupation_basis_state(lattice, [SPIN_UP, SPIN_UP])
    assert expectation(collective_J_fock(lattice, "z"), state) == pytest.approx(1.0, abs=1e-12)


def test_collective_spin_vanishes_on_pair_singlet():
    lattice = FockLatticeSpec(2, SITE1)
    state = singlet_chain(1)
    for ax in "xyz":
        assert abs(expectation(collective_J_fock(lattice, ax), state)) < 1e-12


def test_embedding_of_basis_states():
    chain = ChainSpec(2)
    embedded = embed_qubit_chain(basis_state(chain, [0, 1]))
    lattice = FockLatticeSpec(2, SITE1)
    want = occupation_basis_state(lattice, [SPIN_UP, SPIN_DOWN])
    assert np.allclose(embedded.amplitudes, want.amplitudes)


def test_embedding_preserves_norm_and_singlet():
    chain = ChainSpec(2)
    qubit_singlet = PureState(chain.space(), np.array([0, 1, -1, 0]) / np.sqrt(2))
    embedded = embed_qubit_chain(qubit_singlet)
    assert np.linalg.norm(embedded.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(embedded.amplitudes, singlet_chain(1).amplitudes)


def test_embedding_intertwines_collective_spin(rng):
    # <embed(phi)| J_fock |embed(psi)> = <phi| J_qubit |psi> for every axis
    n = 3
    chain = ChainSpec(n)
    lattice = FockLatticeSpec(n, SITE1)
    from qlatwit.spinchain import collective_spin

    for ax in "xyz":
        j_fock = collective_J_fock(lattice, ax).matrix
        j_qubit = collective_spin(chain, ax).matrix
        for _ in range(10):
            phi = haar_vector(2**n, rng)
            psi = haar_vector(2**n, rng)
            e_phi = embed_qubit_chain(PureState(chain.space(), phi)).amplitudes
            e_psi = embed_qubit_chain(PureState(chain.space(), psi)).amplitudes
            lhs = np.vdot(e_phi, j_fock @ e_psi)
            rhs = np.vdot(phi, j_qubit @ psi)
            assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_embedding_matches_kron_isometry(n, rng):
    iso = np.zeros((SITE1.dim, 2), dtype=complex)
    iso[SITE1.index(*SPIN_UP), 0] = 1.0
    iso[SITE1.index(*SPIN_DOWN), 1] = 1.0
    full = kron_all([iso] * n)
    for _ in range(5):
        psi = haar_vector(2**n, rng)
        got = embed_qubit_chain(PureState(HilbertSpace((2,) * n), psi)).amplitudes
        assert np.array_equal(got, full @ psi)


def test_collective_fock_matches_qubit_oracle_on_unit_sector():
    # reduction to the spin-1/2 picture under the unit-occupancy embedding
    n = 2
    lattice = FockLatticeSpec(n, SITE1)
    chain = ChainSpec(n)
    oracle = {
        "x": (kron_all([SX, ID2]) + kron_all([ID2, SX])) / 2,
        "y": (kron_all([SY, ID2]) + kron_all([ID2, SY])) / 2,
        "z": (kron_all([SZ, ID2]) + kron_all([ID2, SZ])) / 2,
    }
    for ax in "xyz":
        j_fock = collective_J_fock(lattice, ax).matrix
        for i in range(4):
            bits = [(i >> 1) & 1, i & 1]
            psi = basis_state(chain, bits)
            e_psi = embed_qubit_chain(psi).amplitudes
            want = oracle[ax] @ psi.amplitudes
            got = j_fock @ e_psi
            # compare through the embedding of the oracle output
            want_embedded = np.zeros_like(got)
            for j in range(4):
                if abs(want[j]) > 0:
                    bj = [(j >> 1) & 1, j & 1]
                    want_embedded += want[j] * embed_qubit_chain(
                        basis_state(chain, bj)
                    ).amplitudes
            assert np.allclose(got, want_embedded, atol=1e-12)


# ---------------------------------------------------------------------------
# singlet chains and the Heisenberg chain


def test_singlet_chain_variances_vanish():
    for n_pairs in (1, 2):
        state = singlet_chain(n_pairs)
        lattice = FockLatticeSpec(2 * n_pairs, SITE1)
        var_sum = sum(variance(collective_J_fock(lattice, ax), state) for ax in "xyz")
        assert var_sum < 1e-12
        assert expectation(lattice_number_operator(lattice), state) == pytest.approx(
            2 * n_pairs, abs=1e-12
        )


def test_heisenberg_two_sites_ground_is_singlet():
    # dense oracle on the unit-filled block: eigenvalues of (XX+YY+ZZ)/4
    oracle = (kron_all([SX, SX]) + kron_all([SY, SY]) + kron_all([SZ, SZ])) / 4
    oracle_energy = np.linalg.eigvalsh(oracle)[0]
    assert oracle_energy == pytest.approx(-0.75, abs=1e-12)

    lattice = FockLatticeSpec(2, SITE1)
    gs = ground_state(heisenberg_hamiltonian(lattice))
    assert gs.energy == pytest.approx(oracle_energy, abs=1e-10)
    fidelity = abs(np.vdot(singlet_chain(1).amplitudes, gs.state.amplitudes)) ** 2
    assert fidelity > 1 - 1e-10


def test_heisenberg_four_sites_ground_is_many_body_singlet():
    lattice = FockLatticeSpec(4, SITE1)
    gs = ground_state(heisenberg_hamiltonian(lattice))
    assert not gs.degenerate
    assert expectation(total_spin_squared(lattice), gs.state) < 1e-9


@pytest.mark.parametrize("n", range(2, 8))
def test_heisenberg_sector_solve_matches_dense_fock_ground_state(n):
    got = heisenberg_ground_state(n)
    want = ground_state(heisenberg_hamiltonian(FockLatticeSpec(n, SITE1)))
    assert got.energy == pytest.approx(want.energy, abs=1e-12)
    if n % 2 == 0:
        assert got.gap == pytest.approx(want.gap, abs=1e-12)
    else:
        assert got.gap < DEGENERACY_GAP and want.gap < DEGENERACY_GAP
    assert got.degenerate == want.degenerate
    rep_got = collective_uncertainty_criterion(got.state)
    rep_want = collective_uncertainty_criterion(want.state)
    assert rep_got.value == pytest.approx(rep_want.value, abs=1e-9)
    assert rep_got.bound == pytest.approx(rep_want.bound, abs=1e-9)
    j2_got = np.trace(collective_moments(got.state)[1])
    j2_want = np.trace(collective_moments(want.state)[1])
    assert j2_got == pytest.approx(j2_want, abs=1e-9)


def unit_filling_fock_index(i, n):
    """Fock index of qubit index i: bit 0 is one atom in mode a, bit 1 one in mode b."""
    bits = [(i >> (n - k)) & 1 for k in range(1, n + 1)]
    return sum(SITE1.index(*(SPIN_DOWN if b else SPIN_UP)) * 3 ** (n - k)
               for k, b in enumerate(bits, start=1))


@pytest.mark.parametrize("n", range(2, 7))
def test_heisenberg_sector_matches_kron_oracle_block(n):
    states, mat = _heisenberg_sector(n)
    assert all(bin(int(i)).count("1") == n // 2 for i in states)
    fock = [unit_filling_fock_index(int(i), n) for i in states]
    assert np.allclose(mat, oracle_heisenberg(1, n, +1)[np.ix_(fock, fock)], atol=1e-12)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_heisenberg_sector_matches_pauli_chain_block(n):
    states, mat = _heisenberg_sector(n)
    assert all(bin(int(i)).count("1") == n // 2 for i in states)
    chain = ChainSpec(n)
    terms = [(0.25, {k: a, k + 1: a}) for k in range(1, n) for a in "xyz"]
    dense = pauli_sum(chain, terms).matrix
    assert np.allclose(mat, dense[np.ix_(states, states)], atol=1e-12)
    # popcount n // 2 is one closed sector: no bond leaves it
    others = np.setdiff1d(np.arange(2**n), states)
    assert np.abs(dense[np.ix_(others, states)]).max() == 0.0


def test_heisenberg_commutes_with_collective_spin():
    lattice = FockLatticeSpec(3, SITE1)
    h = heisenberg_hamiltonian(lattice).matrix
    for ax in "xyz":
        j = collective_J_fock(lattice, ax).matrix
        assert np.abs(h @ j - j @ h).max() < 1e-12


def test_ferromagnetic_sign_flips_spectrum():
    lattice = FockLatticeSpec(2, SITE1)
    af = heisenberg_hamiltonian(lattice, sign=+1).matrix
    fm = heisenberg_hamiltonian(lattice, sign=-1).matrix
    assert np.allclose(af, -fm)


def test_total_spin_squared_eigenvalues():
    lattice = FockLatticeSpec(2, SITE1)
    j2 = total_spin_squared(lattice)
    assert expectation(j2, singlet_chain(1)) == pytest.approx(0.0, abs=1e-12)
    up_up = occupation_basis_state(lattice, [SPIN_UP, SPIN_UP])
    assert expectation(j2, up_up) == pytest.approx(2.0, abs=1e-12)


def test_total_spin_squared_ground_energy_is_zero():
    lattice = FockLatticeSpec(4, SITE1)
    gs = ground_state(total_spin_squared(lattice))
    assert gs.energy == pytest.approx(0.0, abs=1e-10)


def test_lattice_dimension_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        FockLatticeSpec(8, SITE2)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), n_max=st.integers(1, 3))
def test_empty_site_is_spin_zero(seed, n_max):
    space = SiteFockSpace(n_max)
    v = site_ket(space, *EMPTY)
    for ax in "xyz":
        assert np.allclose(schwinger_j(space, ax).matrix @ v, 0.0)


# ---------------------------------------------------------------------------
# dense builders against the kron-built oracles

FOCK_SIZES = [(cutoff, n) for cutoff in (1, 2) for n in (2, 3, 4)]


@pytest.mark.parametrize("cutoff,n", FOCK_SIZES)
def test_collective_and_number_operators_match_kron_oracle(cutoff, n):
    lattice = FockLatticeSpec(n, SiteFockSpace(cutoff))
    for ax in "xyz":
        got = collective_J_fock(lattice, ax).matrix
        assert np.allclose(got, oracle_fock_collective(ax, cutoff, n), atol=1e-12)
    got = lattice_number_operator(lattice).matrix
    assert np.allclose(got, oracle_fock_collective("n", cutoff, n), atol=1e-12)


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("cutoff,n", FOCK_SIZES)
def test_heisenberg_matches_kron_oracle(cutoff, n, sign):
    got = heisenberg_hamiltonian(FockLatticeSpec(n, SiteFockSpace(cutoff)), sign).matrix
    assert np.allclose(got, oracle_heisenberg(cutoff, n, sign), atol=1e-12)


@pytest.mark.parametrize("cutoff,n", FOCK_SIZES)
def test_total_spin_squared_matches_kron_oracle(cutoff, n):
    got = total_spin_squared(FockLatticeSpec(n, SiteFockSpace(cutoff))).matrix
    js = [oracle_fock_collective(ax, cutoff, n) for ax in "xyz"]
    assert np.allclose(got, sum(j @ j for j in js), atol=1e-12)
