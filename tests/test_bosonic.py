import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ID2,
    SX,
    SY,
    SZ,
    basis_state,
    collective_j_operators,
    embed_qubit_chain,
    ground_state,
    heisenberg_hamiltonian,
    kron_all,
    maximal_angular_momentum_check,
    oracle_collective,
    oracle_fock_collective,
    oracle_heisenberg,
    oracle_pauli_string,
    oracle_product_dense,
    schwinger_j,
    site_number_operator,
    unfold,
    variance,
)
from qlatwit import bosonic
from qlatwit.bosonic import (
    EMPTY,
    SPIN_DOWN,
    SPIN_UP,
    FockLatticeSpec,
    SiteFockSpace,
    _RESIDUAL,
    _heisenberg_hops,
    _heisenberg_lanczos,
    _ladder_matrices,
    heisenberg_ground_state,
    occupation_basis_state,
    singlet_chain,
)
from qlatwit.criteria import _site_spin_matrices, collective_moments, collective_uncertainty_criterion
from qlatwit.qcore import DEGENERACY_GAP, HilbertSpace, PureState, _site_sum, expectation
from qlatwit.spinchain import ChainSpec
from sampling import haar_vector, random_separable_density

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


def ladder(space):
    """The annihilation and creation matrices of mode a on one site."""
    a = _ladder_matrices(space.n_max)["a"]
    return a, a.conj().T


def test_annihilation_lowers_mode_a():
    a, _ = ladder(SITE2)
    assert np.allclose(a @ site_ket(SITE2, 1, 0), site_ket(SITE2, 0, 0))


def test_creation_raises_mode_a():
    _, ad = ladder(SITE2)
    assert np.allclose(ad @ site_ket(SITE2, 0, 0), site_ket(SITE2, 1, 0))


def test_creation_at_cutoff_maps_to_zero():
    _, ad = ladder(SITE1)
    assert np.allclose(ad @ site_ket(SITE1, 0, 1), 0.0)


def test_canonical_commutator_below_cutoff():
    space = SiteFockSpace(3)
    a, ad = ladder(space)
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
    jz = collective_j_operators(lattice.space())["z"]
    assert expectation(jz, state) == pytest.approx(1.0, abs=1e-12)


def test_collective_spin_vanishes_on_pair_singlet():
    lattice = FockLatticeSpec(2, SITE1)
    state = oracle_product_dense(singlet_chain(1))
    for op in collective_j_operators(lattice.space()).values():
        assert abs(expectation(op, state)) < 1e-12


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
    assert np.allclose(embedded.amplitudes, oracle_product_dense(singlet_chain(1)).amplitudes)


def test_embedding_intertwines_collective_spin(rng):
    # <embed(phi)| J_fock |embed(psi)> = <phi| J_qubit |psi> for every axis
    n = 3
    chain = ChainSpec(n)
    for ax in "xyz":
        j_fock = oracle_fock_collective(ax, 1, n)
        j_qubit = oracle_collective(ax, n)
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
    chain = ChainSpec(n)
    oracle = {
        "x": (kron_all([SX, ID2]) + kron_all([ID2, SX])) / 2,
        "y": (kron_all([SY, ID2]) + kron_all([ID2, SY])) / 2,
        "z": (kron_all([SZ, ID2]) + kron_all([ID2, SZ])) / 2,
    }
    for ax in "xyz":
        j_fock = oracle_fock_collective(ax, 1, n)
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
        state = oracle_product_dense(singlet_chain(n_pairs))
        var_sum = sum(variance(op, state) for op in collective_j_operators(state.space).values())
        assert var_sum < 1e-12
        number = oracle_fock_collective("n", 1, 2 * n_pairs)
        assert np.vdot(state.amplitudes, number @ state.amplitudes).real == pytest.approx(
            2 * n_pairs, abs=1e-12
        )


def test_heisenberg_two_sites_ground_is_singlet():
    # dense oracle on the unit-filled block: eigenvalues of (XX+YY+ZZ)/4
    oracle = (kron_all([SX, SX]) + kron_all([SY, SY]) + kron_all([SZ, SZ])) / 4
    oracle_energy = np.linalg.eigvalsh(oracle)[0]
    assert oracle_energy == pytest.approx(-0.75, abs=1e-12)

    gs = heisenberg_ground_state(2)
    assert gs.energy == pytest.approx(oracle_energy, abs=1e-10)
    embedded = embed_qubit_chain(unfold(gs.state)).amplitudes
    fidelity = abs(np.vdot(oracle_product_dense(singlet_chain(1)).amplitudes, embedded)) ** 2
    assert fidelity > 1 - 1e-10


def test_heisenberg_four_sites_ground_is_many_body_singlet():
    gs = heisenberg_ground_state(4)
    assert not gs.degenerate
    assert np.trace(collective_moments(gs.state).second) < 1e-9


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
    j2_got = np.trace(collective_moments(got.state).second)
    j2_want = np.trace(collective_moments(want.state).second)
    assert j2_got == pytest.approx(j2_want, abs=1e-9)


def unit_filling_fock_index(i, n, site=SITE1):
    """Fock index of qubit index i: bit 0 is one atom in mode a, bit 1 one in mode b."""
    bits = [(i >> (n - k)) & 1 for k in range(1, n + 1)]
    return sum(site.index(*(SPIN_DOWN if b else SPIN_UP)) * site.dim ** (n - k)
               for k, b in enumerate(bits, start=1))


def hop_block(n):
    """The sector's indices and its dense matrix assembled from the package's hops."""
    states, diag, rows, cols = _heisenberg_hops(n)
    mat = np.diag(diag)
    mat[rows, cols] = 0.5
    return states, mat


@pytest.mark.parametrize("n", range(2, 7))
def test_heisenberg_sector_matches_kron_oracle_block(n):
    states, mat = hop_block(n)
    assert all(bin(int(i)).count("1") == n // 2 for i in states)
    fock = [unit_filling_fock_index(int(i), n) for i in states]
    assert np.allclose(mat, oracle_heisenberg(1, n, +1)[np.ix_(fock, fock)], atol=1e-12)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_heisenberg_sector_matches_pauli_chain_block(n):
    states, mat = hop_block(n)
    assert all(bin(int(i)).count("1") == n // 2 for i in states)
    dense = sum(0.25 * oracle_pauli_string({k: a, k + 1: a}, n) for k in range(1, n) for a in "xyz")
    assert np.allclose(mat, dense[np.ix_(states, states)], atol=1e-12)
    # popcount n // 2 is one closed sector: no bond leaves it
    others = np.setdiff1d(np.arange(2**n), states)
    assert np.abs(dense[np.ix_(others, states)]).max() == 0.0


def bit_loop_heisenberg_block(n):
    """The popcount n // 2 indices and the block of sum_k S_k . S_{k+1} on them,
    one basis string and one bond at a time in pure Python: a bond adds 1/4 to
    the diagonal where its two bits agree, and where they differ adds -1/4 and
    swaps them with weight 1/2."""
    states = [i for i in range(2**n) if bin(i).count("1") == n // 2]
    position = {s: j for j, s in enumerate(states)}
    mat = np.zeros((len(states), len(states)))
    for j, s in enumerate(states):
        bits = format(s, f"0{n}b")
        for k in range(n - 1):
            if bits[k] == bits[k + 1]:
                mat[j, j] += 0.25
            else:
                mat[j, j] -= 0.25
                swapped = bits[:k] + bits[k + 1] + bits[k] + bits[k + 2:]
                mat[position[int(swapped, 2)], j] = 0.5
    return states, mat


@pytest.mark.parametrize("n", range(1, 13))
def test_heisenberg_hops_match_the_pulse_chain_generator(n):
    # the chain's generator at unit xx, yy and zz couplings, written out bit by
    # bit, is the block that the package's hops assemble, entry for entry
    states, mat = hop_block(n)
    want_states, want = bit_loop_heisenberg_block(n)
    assert states.tolist() == want_states
    assert np.array_equal(mat, want)


def dense_sector_levels(n):
    """The sector's eigenvalues and ground vector from one dense eigh of the
    hop block, its sign fixed by the package's rule: the first amplitude within
    1e-9 of the largest magnitude is positive."""
    w, v = np.linalg.eigh(hop_block(n)[1])
    ground = v[:, 0]
    first = next(i for i, a in enumerate(np.abs(ground)) if a >= (1 - 1e-9) * np.abs(ground).max())
    return w, ground * np.sign(ground[first])


@pytest.mark.parametrize("n", range(2, 13))
def test_heisenberg_lanczos_matches_dense_sector_eigh(n):
    w, ground = dense_sector_levels(n)
    states, levels, vector = _heisenberg_lanczos(n, 2)
    assert np.array_equal(states, hop_block(n)[0])
    # the ground level is non-degenerate in the sector, so w[1] is the second level
    assert w[1] - w[0] > 1e-3
    assert levels[0] == pytest.approx(w[0], abs=1e-12)
    assert levels[1] == pytest.approx(w[1], abs=1e-12)
    # the same vector, sign included
    assert np.abs(vector - ground).max() < 1e-10
    assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-14)


def test_heisenberg_sign_rule_is_tie_free_at_six_sites():
    # sector indices 5 and 14 tie in magnitude with opposite signs, so "the
    # largest amplitude positive" was decided by round-off
    w, ground = dense_sector_levels(6)
    _, _, vector = _heisenberg_lanczos(6, 2)
    assert abs(ground[5]) == pytest.approx(abs(ground[14]), rel=1e-12)
    assert ground[5] == pytest.approx(-ground[14], rel=1e-12)
    assert np.abs(vector - ground).max() < 1e-10
    assert np.abs(vector + ground).max() > 0.5


@pytest.mark.parametrize("vector,want", [
    ([0.1, 0.5, -0.5 * (1 + 1e-15)], [0.1, 0.5, -0.5 * (1 + 1e-15)]),
    ([0.1, -0.5 * (1 + 1e-15), 0.5], [-0.1, 0.5 * (1 + 1e-15), -0.5]),
    ([0.2, -0.5, 0.5 * (1 + 1e-6)], [0.2, -0.5, 0.5 * (1 + 1e-6)]),
])
def test_sign_rule_takes_the_first_of_the_tied_amplitudes(vector, want):
    # a relative difference of 1e-15 is a tie, one of 1e-6 is not
    assert bosonic._sign_fixed(np.array(vector)).tolist() == want


@pytest.mark.parametrize("n", range(2, 7))
def test_heisenberg_lanczos_breakdown_returns_the_sector_spectrum(n, monkeypatch):
    # a sector of distinct levels closes its Krylov space only after dim steps,
    # and the tridiagonal matrix is then the whole sector in another basis
    sizes = []
    levels_of = bosonic._tridiagonal_levels

    def recorded(alpha, beta, n_levels):
        sizes.append(len(alpha))
        return levels_of(alpha, beta, n_levels)

    monkeypatch.setattr(bosonic, "_tridiagonal_levels", recorded)
    w, _ = dense_sector_levels(n)
    _, levels, _ = _heisenberg_lanczos(n, 2)
    assert sizes[-1] == len(w) == 1 + np.count_nonzero(np.diff(w) > 1e-9)
    assert levels == pytest.approx(w[:2], abs=1e-12)


@pytest.mark.parametrize("n", [13, 14])
def test_heisenberg_lieb_mattis_spin_at_thirteen_and_fourteen_sites(n):
    # the ground multiplet has total spin 0 on an even chain and 1/2 on an odd one
    gs = heisenberg_ground_state(n)
    j2 = np.trace(collective_moments(gs.state).second)
    if n % 2 == 0:
        assert j2 < 1e-9
        assert gs.gap > 0.1 and not gs.degenerate
    else:
        assert j2 == pytest.approx(0.75, abs=1e-9)
        assert gs.gap == 0.0 and gs.degenerate


def test_heisenberg_lanczos_converges_below_the_residual():
    # the stopping rule leaves the ground vector an eigenvector to within _RESIDUAL
    for n in (7, 10, 14):
        _, levels, vector = _heisenberg_lanczos(n, 2)
        states, diag, rows, cols = _heisenberg_hops(n)
        hv = diag * vector + 0.5 * np.bincount(rows, vector[cols], minlength=states.size)
        assert np.linalg.norm(hv - levels[0] * vector) < 100 * _RESIDUAL


def test_heisenberg_commutes_with_collective_spin():
    h = oracle_heisenberg(1, 3, +1)
    for ax in "xyz":
        j = oracle_fock_collective(ax, 1, 3)
        assert np.abs(h @ j - j @ h).max() < 1e-12


def test_total_spin_squared_eigenvalues():
    lattice = FockLatticeSpec(2, SITE1)
    up_up = occupation_basis_state(lattice, [SPIN_UP, SPIN_UP])
    for state, want in ((singlet_chain(1), 0.0), (up_up, 2.0)):
        assert np.trace(collective_moments(state).second) == pytest.approx(want, abs=1e-12)


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
# the package's site-by-site operators and sector block against the kron oracles

FOCK_SIZES = [(cutoff, n) for cutoff in (1, 2) for n in (2, 3, 4)]


@pytest.mark.parametrize("cutoff,n", FOCK_SIZES)
def test_collective_and_number_operators_match_kron_oracle(cutoff, n):
    # the site sums applied to every basis vector give their dense matrices
    space = FockLatticeSpec(n, SiteFockSpace(cutoff)).space()
    eye = np.eye(space.dim, dtype=complex)
    # the one-site stack's rows are j_x, j_y, j_z and the number operator n
    js = _site_sum(_site_spin_matrices(space), space, eye)
    assert len(js) == 4
    for k, ax in enumerate("xyzn"):
        assert np.allclose(js[k], oracle_fock_collective(ax, cutoff, n), atol=1e-12)


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("cutoff,n", FOCK_SIZES)
def test_heisenberg_matches_kron_oracle(cutoff, n, sign):
    # heisenberg_ground_state solves this unit-filling block at every cutoff,
    # and no bond leaves it
    site = SiteFockSpace(cutoff)
    states, mat = hop_block(n)
    fock = [unit_filling_fock_index(int(i), n, site) for i in states]
    dense = oracle_heisenberg(cutoff, n, sign)
    assert np.allclose(sign * mat, dense[np.ix_(fock, fock)], atol=1e-12)
    others = np.setdiff1d(np.arange(len(dense)), fock)
    assert np.abs(dense[np.ix_(others, fock)]).max() < 1e-12


@pytest.mark.parametrize("cutoff,n", FOCK_SIZES)
def test_total_spin_squared_matches_kron_oracle(cutoff, n, rng):
    space = FockLatticeSpec(n, SiteFockSpace(cutoff)).space()
    js = [oracle_fock_collective(ax, cutoff, n) for ax in "xyz"]
    j2 = sum(j @ j for j in js)
    psi = haar_vector(space.dim, rng)
    pure = np.trace(collective_moments(PureState(space, psi)).second)
    assert pure == pytest.approx(np.vdot(psi, j2 @ psi).real, abs=1e-12)
    rho = random_separable_density(space, rng)
    mixed = np.trace(collective_moments(rho).second)
    assert mixed == pytest.approx(np.trace(rho.matrix @ j2).real, abs=1e-12)
