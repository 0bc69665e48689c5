import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ID2,
    SX,
    SY,
    SZ,
    ground_state,
    kron_all,
    negativity,
    oracle_product_dense,
    pure_to_density,
    unfold,
    variance,
)
from qlatwit import bosonic, qcore
from qlatwit.spinchain import paulis
from qlatwit.qcore import (
    DensityMatrix,
    HilbertSpace,
    LinearOperator,
    ProductState,
    PureState,
    SectorState,
    _apply_site,
    _collective_distribution,
    _collective_moments,
    _local_mean,
    _site_block,
    _sum_moments,
    expectation,
    variance_from_moments,
)
from sampling import haar_vector, random_product_state

Q1 = HilbertSpace((2,))
Q2 = HilbertSpace((2, 2))


def ket(*amps):
    v = np.array(amps, dtype=complex)
    n = int(np.log2(len(v)))
    return PureState(HilbertSpace((2,) * n), v / np.linalg.norm(v))


KET0 = ket(1, 0)
KET1 = ket(0, 1)
SINGLET = ket(0, 1, -1, 0)


def op1(matrix, hermitian=True):
    return LinearOperator(Q1, matrix, hermitian_hint=hermitian)


# ---------------------------------------------------------------------------
# construction invariants


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValueError, match="norm"):
        PureState(Q1, np.array([1.0, 1.0]))


def test_pure_state_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        PureState(Q1, np.array([np.nan, 0.0]))


def test_pure_state_rejects_wrong_length():
    with pytest.raises(ValueError):
        PureState(Q2, np.array([1.0, 0.0]))


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(Q1, m)


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(Q1, np.eye(2, dtype=complex))


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(Q1, m)


def test_density_matrix_rejects_rotated_negative_eigenvalue():
    # non-diagonal matrix exercising the factorization path
    u = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    m = u @ np.diag([1.3, -0.3]).astype(complex) @ u.conj().T
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(Q1, m)


def test_density_matrix_accepts_tiny_negative_roundoff():
    m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    DensityMatrix(Q1, m)


def test_operator_hermitian_hint_checked():
    with pytest.raises(ValueError, match="Hermitian"):
        LinearOperator(Q1, np.array([[0, 1], [0, 0]], dtype=complex), hermitian_hint=True)


@pytest.mark.parametrize(
    "build",
    [
        lambda space, m: DensityMatrix(space, m),
        lambda space, m: LinearOperator(space, m, hermitian_hint=True),
    ],
)
def test_hermiticity_check_reaches_the_last_band(build):
    # the only asymmetric pair lies in the last two rows
    d = 512
    m = np.eye(d, dtype=complex) / d
    m[d - 1, d - 2] = 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        build(HilbertSpace((2,) * 9), m)


@pytest.mark.parametrize("dims", [(2,) * 10, (3,) * 6])
@pytest.mark.parametrize("where", ["first", "last", "below", "above"])
def test_hermiticity_check_reaches_every_tile(dims, where):
    # one asymmetric pair near each corner or off the diagonal; 729 is not a power of two
    d = int(np.prod(dims))
    i, j = {"first": (1, 0), "last": (d - 1, d - 2), "below": (d - 3, 5), "above": (7, d - 4)}[where]
    m = np.eye(d, dtype=complex) / d
    m[i, j] = 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(HilbertSpace(dims, "generic"), m)
    m[j, i] = 1e-6
    DensityMatrix(HilbertSpace(dims, "generic"), m)


@pytest.mark.parametrize(
    "dims, cutoff, match",
    [
        ((3,), None, "integer fock_cutoff"),
        ((3,), 0, "integer fock_cutoff"),
        ((3,), 1.0, "integer fock_cutoff"),
        ((4, 4), 1, "dimension 3"),
        ((6, 3), 2, "dimension 6"),
    ],
)
def test_fock_space_needs_a_cutoff_matching_its_dims(dims, cutoff, match):
    with pytest.raises(ValueError, match=match):
        HilbertSpace(dims, "fock", cutoff)


def test_fock_space_accepts_matching_cutoff():
    assert HilbertSpace((6, 6), "fock", 2).dim == 36
    assert HilbertSpace((3,), "fock", np.int64(1)).fock_cutoff == 1


SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)


@pytest.mark.parametrize("call,match", [
    (lambda: HilbertSpace(()), "a Hilbert space needs at least one site"),
    (lambda: HilbertSpace((0,), "generic"), "local dimensions must be positive"),
    (lambda: LinearOperator(Q1, np.eye(4)), "does not match space dimension 2"),
    # <sigma_+> = i/2 on (|0> + i|1>)/sqrt 2: a non-Hermitian sum has no real mean
    (lambda: _sum_moments(PureState(Q1, np.array([1, 1j]) / np.sqrt(2)), [{1: SIGMA_PLUS}]),
     "expectation value has imaginary residue"),
    (lambda: variance_from_moments(0.0, -1.0), "variance -1.0 is negative beyond tolerance"),
], ids=["no sites", "zero dimension", "operator shape", "imaginary mean", "negative variance"])
def test_qcore_refuses_invalid_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


INVALID_DENSITIES = {
    "non_hermitian": np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex),
    "trace_two": np.eye(2, dtype=complex),
    "negative_diagonal": np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex),
    "negative_rotated": np.array([[0.5, 0.8], [0.8, 0.5]], dtype=complex),
    "nan": np.array([[np.nan, 0.0], [0.0, 0.5]], dtype=complex),
    "wrong_shape": np.eye(4, dtype=complex) / 4,
}


@pytest.mark.parametrize("name", sorted(INVALID_DENSITIES))
def test_invalid_density_matrices_are_refused(name):
    with pytest.raises(ValueError):
        DensityMatrix(Q1, INVALID_DENSITIES[name])


def test_public_constructor_copies():
    m = np.diag([0.25, 0.75]).astype(complex)
    rho = DensityMatrix(Q1, m)
    m[0, 0] = 9.0
    assert rho.matrix[0, 0] == 0.25
    assert m.flags.writeable and not rho.matrix.flags.writeable
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


def test_values_are_immutable():
    with pytest.raises(ValueError):
        KET0.amplitudes[0] = 2.0


# ---------------------------------------------------------------------------
# expectation, and the variance reference in conftest


def test_expectation_eigenstate():
    assert expectation(op1(SZ), KET0) == pytest.approx(1.0, abs=1e-14)


def test_expectation_orthogonal_component():
    assert expectation(op1(SX), KET0) == pytest.approx(0.0, abs=1e-14)


def test_expectation_singlet_anticorrelation():
    zz = LinearOperator(Q2, np.kron(SZ, SZ), hermitian_hint=True)
    assert expectation(zz, SINGLET) == pytest.approx(-1.0, abs=1e-14)


def test_expectation_requires_hermitian_hint():
    raising = LinearOperator(Q1, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="hermitian"):
        expectation(raising, KET0)


def test_expectation_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="match"):
        expectation(op1(SZ), SINGLET)


def test_variance_eigenstate_is_zero():
    assert variance(op1(SZ), KET0) == pytest.approx(0.0, abs=1e-14)


def test_variance_of_sigma_x_on_z_up():
    assert variance(op1(SX), KET0) == pytest.approx(1.0, abs=1e-14)


def test_variance_collective_z_on_product():
    jz = LinearOperator(Q2, (np.kron(SZ, ID2) + np.kron(ID2, SZ)) / 2, hermitian_hint=True)
    assert variance(jz, ket(1, 0, 0, 0)) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# the negativity oracle of conftest


def test_negativity_product_state_zero():
    rho = pure_to_density(ket(0, 1, 0, 0))
    assert negativity(rho, [1]) == pytest.approx(0.0, abs=1e-12)


def test_negativity_singlet_half():
    assert negativity(pure_to_density(SINGLET), [1]) == pytest.approx(0.5, abs=1e-12)


def test_negativity_werner_crossing_at_one_third():
    # partial transpose of p*singlet + (1-p)*I/4 has eigenvalues
    # (1+p)/4 (x3) and (1-3p)/4, so the crossing sits exactly at p = 1/3
    singlet_rho = pure_to_density(SINGLET).matrix

    def werner(p):
        return DensityMatrix(Q2, p * singlet_rho + (1 - p) * np.eye(4) / 4)

    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = (lo + hi) / 2
        if negativity(werner(mid), [1]) > 1e-12:
            hi = mid
        else:
            lo = mid
    assert (lo + hi) / 2 == pytest.approx(1 / 3, abs=1e-9)


def test_negativity_zero_for_random_products(rng):
    # 1000 random pairs of Haar single-site states
    for _ in range(1000):
        state = random_product_state(Q2, rng)
        assert negativity(pure_to_density(state), [1]) < 1e-10


def schmidt_negativity(amplitudes, dims, side_a):
    """((sum of Schmidt coefficients)^2 - 1) / 2, the negativity of a pure state
    across the cut, from an SVD of its amplitudes with side A's axes first."""
    first = [s - 1 for s in side_a]
    t = np.moveaxis(amplitudes.reshape(dims), first, list(range(len(first))))
    s = np.linalg.svd(t.reshape(math.prod(dims[i] for i in first), -1), compute_uv=False)
    return (s.sum() ** 2 - 1) / 2


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 2), (3, 2, 2, 2), (2, 3, 2, 3)])
def test_negativity_of_pure_states_matches_the_schmidt_coefficients_on_every_cut(dims, rng):
    # non-contiguous cuts such as [1, 3] and [2, 4] included
    n = len(dims)
    for _ in range(3):
        amps = haar_vector(math.prod(dims), rng)
        rho = pure_to_density(PureState(HilbertSpace(dims, "generic"), amps))
        for size in range(1, n):
            for side_a in itertools.combinations(range(1, n + 1), size):
                want = schmidt_negativity(amps, dims, side_a)
                assert want > 1e-3
                assert negativity(rho, list(side_a)) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("dims", [(2,) * 6, (3, 2, 3)])
def test_random_product_state_is_the_kron_loop_bit_for_bit(dims):
    # the reference: the kron loop over the same haar_vector draws, site 1 first
    rng = np.random.default_rng(5)
    v = np.ones(1, dtype=complex)
    for d in dims:
        v = np.kron(v, haar_vector(d, rng))
    want = v / np.linalg.norm(v)
    got = random_product_state(HilbertSpace(dims, kind="generic"), np.random.default_rng(5))
    assert np.array_equal(got.amplitudes, want)


# ---------------------------------------------------------------------------
# the ground-state reference in conftest


def test_ground_state_sigma_z():
    gs = ground_state(op1(SZ))
    assert gs.energy == pytest.approx(-1.0, abs=1e-12)
    assert abs(gs.state.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)
    assert not gs.degenerate


def test_ground_state_total_spin_two_qubits():
    mats = [(np.kron(s, ID2) + np.kron(ID2, s)) / 2 for s in (SX, SY, SZ)]
    j2 = LinearOperator(Q2, sum(m @ m for m in mats), hermitian_hint=True)
    gs = ground_state(j2)
    assert gs.energy == pytest.approx(0.0, abs=1e-12)
    fid = abs(np.vdot(SINGLET.amplitudes, gs.state.amplitudes)) ** 2
    assert fid == pytest.approx(1.0, abs=1e-10)


def test_ground_state_flags_degeneracy():
    flat = LinearOperator(Q1, np.zeros((2, 2), dtype=complex), hermitian_hint=True)
    assert ground_state(flat).degenerate


# ---------------------------------------------------------------------------
# property tests


def test_pure_and_density_expectations_agree(rng):
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        space = HilbertSpace((dim,), kind="generic")
        psi = PureState(space, haar_vector(dim, rng))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = LinearOperator(space, m + m.conj().T, hermitian_hint=True)
        a = expectation(op, psi)
        b = expectation(op, pure_to_density(psi))
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_variance_is_nonnegative(seed):
    gen = np.random.default_rng(seed)
    space = HilbertSpace((2, 2))
    psi = PureState(space, haar_vector(4, gen))
    m = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    op = LinearOperator(space, m + m.conj().T, hermitian_hint=True)
    assert variance(op, psi) >= 0.0


def test_apply_site_acts_on_the_named_site(rng):
    dims = (2, 3, 3, 2)
    space = HilbertSpace(dims, kind="generic")
    for site in range(1, len(dims) + 1):
        d = dims[site - 1]
        for shape in ((d, d), (3, d, d)):
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            dense = [kron_all([m if k == site else np.eye(dims[k - 1]) for k in range(1, 5)])
                     for m in a.reshape(-1, d, d)]
            for columns in ((), (5,)):
                values = (rng.normal(size=(space.dim,) + columns)
                          + 1j * rng.normal(size=(space.dim,) + columns))
                got = _apply_site(a, space, site, values)
                want = np.array([m @ values for m in dense]).reshape(shape[:-2] + values.shape)
                assert got.shape == want.shape
                assert np.allclose(got, want, atol=1e-12), (site, shape, columns)


@pytest.mark.parametrize("sites", [(1,), (3,), (4,), (1, 2), (1, 4), (2, 4), (3, 4), (1, 3, 4),
                                   (1, 2, 3, 4)])
def test_site_block_traces_out_every_other_site(sites, rng):
    # oracle: reorder the basis so the kept sites lead, then trace the rest
    dims = (2, 3, 2, 3)
    space = HilbertSpace(dims, kind="generic")
    stack = rng.normal(size=(2, space.dim, space.dim)) + 1j * rng.normal(size=(2, space.dim, space.dim))
    order = [s - 1 for s in sites] + [k for k in range(len(dims)) if k + 1 not in sites]
    index = np.arange(space.dim).reshape(dims).transpose(order).ravel()
    block_dim = int(np.prod([dims[s - 1] for s in sites]))
    rest = space.dim // block_dim
    reordered = stack[:, index][:, :, index].reshape(2, block_dim, rest, block_dim, rest)
    want = np.trace(reordered, axis1=2, axis2=4)
    assert np.allclose(_site_block(space, sites, stack), want, atol=1e-12)


def _random_density(space, rng):
    a = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    rho = a @ a.conj().T
    return DensityMatrix(space, rho / np.trace(rho))


def _mixed_qubit_blocks(rng):
    """Pure and mixed qubit blocks of 1 to 3 sites, 7 sites in all."""
    return ProductState([
        PureState(HilbertSpace((2, 2)), haar_vector(4, rng)),
        _random_density(HilbertSpace((2,)), rng),
        _random_density(HilbertSpace((2, 2, 2)), rng),
        PureState(HilbertSpace((2,)), haar_vector(2, rng)),
    ])


LOCAL_MEAN_STATES = {
    "pure": lambda rng: PureState(HilbertSpace((2, 3, 2), "generic"), haar_vector(12, rng)),
    "density": lambda rng: _random_density(HilbertSpace((3, 2, 2), "generic"), rng),
    "qubit-blocks": _mixed_qubit_blocks,
    "singlets": lambda rng: bosonic.singlet_chain(2),
}


@pytest.mark.parametrize("builder", LOCAL_MEAN_STATES.values(), ids=LOCAL_MEAN_STATES.keys())
def test_local_mean_matches_the_kron_built_operator(builder, rng):
    state = builder(rng)
    dims = state.space.dims
    n = len(dims)
    dense = oracle_product_dense(state) if isinstance(state, ProductState) else state
    for sites in ((), (n,), (1, n - 1), tuple(range(1, n + 1))):
        factors = {s: rng.normal(size=(dims[s - 1],) * 2) + 1j * rng.normal(size=(dims[s - 1],) * 2)
                   for s in sites}
        op = kron_all([factors.get(k, np.eye(dims[k - 1])) for k in range(1, n + 1)])
        if isinstance(dense, PureState):
            want = np.vdot(dense.amplitudes, op @ dense.amplitudes)
        else:
            want = np.trace(op @ dense.matrix)
        assert abs(_local_mean(state, factors) - want) < 1e-12, sites


def test_dim_is_exact_past_the_int64_range():
    assert HilbertSpace((2,) * 64).dim == 2**64
    assert HilbertSpace((3,) * 41, kind="generic").dim == 3**41


# ---------------------------------------------------------------------------
# a SectorState is read in its sector, against its 2^n unfold


def random_sector_state(n, p, rng):
    """A random real unit vector on a random nonempty subset of the popcount-p indices."""
    states = np.array([i for i in range(2**n) if bin(i).count("1") == p])
    keep = rng.random(states.size) < 0.7
    keep[rng.integers(states.size)] = True
    amps = rng.normal(size=keep.sum())
    return SectorState(HilbertSpace((2,) * n), states[keep], amps / np.linalg.norm(amps))


def random_hermitian_stack(k, rng):
    """k complex Hermitian 2 x 2 matrices, each of spectral norm 1."""
    a = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
    h = a + a.conj().transpose(0, 2, 1)
    return h / np.abs(np.linalg.eigvalsh(h)).max(axis=1)[:, None, None]


@pytest.mark.parametrize("n", range(2, 13))
def test_sector_moments_match_the_unfold_on_the_ground_state(n):
    state = bosonic.heisenberg_ground_state(n).state
    assert isinstance(state, SectorState) and state.popcount == n // 2
    spins = paulis() / 2
    for got, want in zip(_collective_moments(state, lambda: spins), _collective_moments(unfold(state), lambda: spins)):
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_sector_moments_match_the_unfold_on_random_stacks(n, rng):
    for p in range(n + 1):
        state, local = random_sector_state(n, p, rng), random_hermitian_stack(4, rng)
        got, want = _collective_moments(state, lambda: local), _collective_moments(unfold(state), lambda: local)
        assert state.popcount == p
        assert np.abs(got[0] - want[0]).max() < 1e-12
        assert np.abs(got[1] - want[1]).max() < 1e-12


SECTOR_REFUSALS = {
    "mixed popcount": ((2, 2, 2), [1, 3], [0.6, 0.8], "popcount"),
    "unsorted": ((2, 2, 2), [2, 1], [0.6, 0.8], "ascend"),
    "duplicate": ((2, 2, 2), [1, 1], [0.6, 0.8], "ascend"),
    "negative index": ((2, 2, 2), [-1, 1], [0.6, 0.8], "ascend"),
    "index past 2^n": ((2, 2), [2, 4], [0.6, 0.8], "ascend"),
    "empty": ((2, 2), [], [], "ascend"),
    "NaN": ((2, 2, 2), [1, 2], [0.6, np.nan], "NaN"),
    "wrong norm": ((2, 2, 2), [1, 2], [0.6, 0.7], "norm"),
    "length mismatch": ((2, 2, 2), [1, 2, 4], [0.6, 0.8], "one amplitude"),
    "complex": ((2, 2, 2), [1, 2], [0.6, 0.8j], "real"),
}


@pytest.mark.parametrize("dims,states,amps,match", SECTOR_REFUSALS.values(), ids=SECTOR_REFUSALS.keys())
def test_sector_state_refuses_invalid_input(dims, states, amps, match):
    with pytest.raises(ValueError, match=match):
        SectorState(HilbertSpace(dims), states, amps)


def test_sector_state_refuses_a_fock_space():
    with pytest.raises(ValueError, match="qubit"):
        SectorState(HilbertSpace((3, 3), kind="fock", fock_cutoff=1), [1, 3], [0.6, 0.8])


def test_sector_state_is_read_only():
    state = SectorState(HilbertSpace((2, 2)), [1, 2], [0.6, 0.8])
    for arr in (state.states, state.amplitudes):
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(AttributeError):
        state.popcount = 0


def test_other_readers_refuse_a_sector_state():
    state = SectorState(HilbertSpace((2, 2)), [1, 2], [0.6, 0.8])
    w, v = np.linalg.eigh(SZ / 2)
    with pytest.raises(ValueError, match="SectorState"):
        _local_mean(state, {1: SZ})
    with pytest.raises(ValueError, match="SectorState"):
        _sum_moments(state, [{1: SZ}])
    with pytest.raises(ValueError, match="SectorState"):
        _collective_distribution(state, None, lambda: (w, v))


# ---------------------------------------------------------------------------
# qcore is the only module that reads how a state is stored

STATE_TYPES = {"PureState", "DensityMatrix", "ProductState", "SectorState", "StabilizerState"}
STORAGE = {"amplitudes", "matrix", "blocks", "table"}
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qlatwit"


def state_type_branches(tree: ast.AST) -> list[int]:
    """Lines of the isinstance calls in ``tree`` that name a state type."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            named = {n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
                     for n in ast.walk(node.args[1])}
            if named & STATE_TYPES:
                lines.append(node.lineno)
    return lines


def storage_reads(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in STORAGE]


def test_only_qcore_branches_on_the_state_type():
    modules = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert state_type_branches(modules["qcore.py"])
    branches = {name: state_type_branches(t) for name, t in modules.items() if name != "qcore.py"}
    assert all(not lines for lines in branches.values()), branches
    reads = {name: storage_reads(modules[name]) for name in ("criteria.py", "spinchain.py")}
    assert all(not lines for lines in reads.values()), reads


def test_the_layout_check_sees_a_branch_and_a_read():
    tree = ast.parse("if isinstance(s, (qcore.PureState, int)):\n    v = s.amplitudes\n")
    assert state_type_branches(tree) == [1] and storage_reads(tree) == [2]
    assert state_type_branches(ast.parse("isinstance(s, float)")) == []


def numpy_imports(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function or class path, line) of each numpy import in ``tree``."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{path}.{child.name}" if path else child.name)
                continue
            names = ([a.name for a in child.names] if isinstance(child, ast.Import)
                     else [child.module or ""] if isinstance(child, ast.ImportFrom) else [])
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                found.append((path, child.lineno))
            visit(child, path)

    visit(tree, "")
    return found


def test_only_the_qcore_proxy_imports_numpy():
    # every other module reads numpy through qcore.np, so numpy loads at its first use
    found = {p.name: [path for path, _ in numpy_imports(ast.parse(p.read_text()))]
             for p in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("qcore.py") == ["_LazyNumpy.__getattr__"]
    assert all(not paths for paths in found.values()), found


def test_the_numpy_import_check_sees_every_form():
    tree = ast.parse("import numpy as np\nfrom numpy import linalg\nimport os, numpy.linalg\n"
                     "def f():\n    import numpy\n")
    assert numpy_imports(tree) == [("", 1), ("", 2), ("", 3), ("f", 5)]
    assert numpy_imports(ast.parse("import numpyish\nfrom .qcore import np\n")) == []


def test_the_numpy_proxy_keeps_each_name_it_reads():
    proxy = qcore._LazyNumpy()
    assert proxy.linalg is np.linalg and proxy.zeros is np.zeros
    assert vars(proxy) == {"linalg": np.linalg, "zeros": np.zeros}
    # introspection probes load nothing and find nothing
    assert not hasattr(proxy, "__wrapped__")
    with pytest.raises(AttributeError):
        proxy.no_such_numpy_name
    assert qcore.np.ndarray is np.ndarray
