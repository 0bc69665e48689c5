import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SX,
    SY,
    SZ,
    embed_qubit_chain,
    kron_all,
    negativity,
    oracle_collective,
    oracle_fock_collective,
    oracle_product_dense,
    oracle_site_pauli,
    oracle_squeezing_grid,
    pure_to_density,
    tilde_sigma_x,
)
from qlatwit import bosonic, cli, criteria, qcore
from qlatwit.criteria import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    Direction,
    _site_eigenbasis,
    angular_moment,
    anticommutator_moments,
    collective_moments,
    collective_uncertainty_criterion,
    moment_indistinguishability,
    moment_matching_separable_state,
    quadruplet_bound,
    spin_squeezing_best,
    spin_squeezing_criterion,
    squared_criterion,
    totally_mixed_state,
    variance_x_criterion,
    witness_criterion,
)
from qlatwit.qcore import (
    DensityMatrix,
    HilbertSpace,
    LinearOperator,
    PureState,
    expectation,
)
from qlatwit.spinchain import ChainSpec, ClusterSpec, cluster_state, pauli_sum_moments, product_state
import sampling

TILTED_XZ = Direction.normalized(1.0, 0.0, 1.0)


def make_cluster(n, lambdas=None):
    chain = ChainSpec(n)
    return cluster_state(ClusterSpec(chain, tuple(lambdas or (1,) * n)))


def saturating(n):
    return product_state([("x", 1) if k % 2 == 1 else ("z", 1) for k in range(1, n + 1)])


# ---------------------------------------------------------------------------
# independent oracle: correlators of product states from single-site algebra


_BLOCH = {
    ("x", 1): {"x": 1.0, "z": 0.0},
    ("x", -1): {"x": -1.0, "z": 0.0},
    ("y", 1): {"x": 0.0, "z": 0.0},
    ("y", -1): {"x": 0.0, "z": 0.0},
    ("z", 1): {"x": 0.0, "z": 1.0},
    ("z", -1): {"x": 0.0, "z": -1.0},
}


def oracle_product_correlators(site_specs):
    """<z(k-1) x(k) z(k+1)> of a product of axis eigenstates, site by site."""
    n = len(site_specs)
    vals = []
    for k in range(1, n + 1):
        v = _BLOCH[site_specs[k - 1]]["x"]
        if k > 1:
            v *= _BLOCH[site_specs[k - 2]]["z"]
        if k < n:
            v *= _BLOCH[site_specs[k]]["z"]
        vals.append(v)
    return vals


# ---------------------------------------------------------------------------
# report mechanics


def test_report_margin_and_violation_consistency():
    rep = witness_criterion(make_cluster(4))
    assert rep.margin == pytest.approx(rep.value - rep.bound, abs=1e-12)
    assert rep.violated == (rep.value > rep.bound + 1e-9)
    assert rep.direction == "<="


def test_saturation_is_not_violation():
    rep = witness_criterion(saturating(6))
    assert rep.value == pytest.approx(rep.bound, abs=1e-10)
    assert not rep.violated


def test_report_serializes_to_json_types():
    import json

    doc = witness_criterion(make_cluster(4)).to_json_dict()
    json.dumps(doc)  # every entry must be plain python


# ---------------------------------------------------------------------------
# witness


def test_witness_cluster_maximal():
    rep = witness_criterion(make_cluster(6))
    assert rep.value == pytest.approx(6.0, abs=1e-10)
    assert rep.bound == 3.0
    assert rep.violated


def test_witness_all_up_zero():
    rep = witness_criterion(product_state([("z", 1)] * 6))
    assert rep.value == pytest.approx(0.0, abs=1e-12)
    assert not rep.violated


def test_witness_rejects_odd_chains():
    with pytest.raises(ValueError, match="even"):
        witness_criterion(make_cluster(5))


def test_witness_accepts_density_matrices():
    rep = witness_criterion(pure_to_density(make_cluster(4)))
    assert rep.value == pytest.approx(4.0, abs=1e-10)


# ---------------------------------------------------------------------------
# quadruplet count


def test_quadruplet_bound_at_maximal_violation():
    assert quadruplet_bound(8.0, 8) == pytest.approx(2.0)


def test_quadruplet_bound_at_the_boundary():
    assert quadruplet_bound(4.0, 8) == pytest.approx(0.0)


def test_quadruplet_bound_fractional():
    assert quadruplet_bound(5.0, 8) == pytest.approx(0.5)


def test_quadruplet_bound_clamps_to_zero():
    assert quadruplet_bound(0.0, 8) == 0.0


# ---------------------------------------------------------------------------
# squared criterion


@pytest.mark.parametrize("lambdas", [(1, 1, 1, 1), (1, -1, 1, -1), (-1, -1, -1, -1)])
def test_squared_detects_every_sign_sector(lambdas):
    rep = squared_criterion(make_cluster(4, lambdas))
    assert rep.value == pytest.approx(4.0, abs=1e-10)
    assert rep.violated


def test_squared_saturating_product_matches_oracle():
    specs = [("x", 1), ("z", 1), ("x", 1), ("z", 1)]
    oracle = sum(c * c for c in oracle_product_correlators(specs))
    assert oracle == 2.0
    rep = squared_criterion(product_state(specs))
    assert rep.value == pytest.approx(oracle, abs=1e-10)
    assert not rep.violated


def test_squared_on_fully_mixed_is_zero():
    rep = squared_criterion(totally_mixed_state(4))
    assert rep.value == pytest.approx(0.0, abs=1e-12)


def test_squared_value_cannot_exceed_site_count(rng):
    space = ChainSpec(4).space()
    for _ in range(50):
        rho = sampling.random_separable_density(space, rng)
        assert squared_criterion(rho).value <= 4.0 + 1e-9


# ---------------------------------------------------------------------------
# variance criterion


def test_variance_x_cluster_reaches_zero():
    rep = variance_x_criterion(make_cluster(6))
    assert rep.value == pytest.approx(0.0, abs=1e-9)
    assert rep.bound == 3.0
    assert rep.violated


def test_variance_x_on_any_correlator_eigenstate_is_exactly_zero():
    rep = variance_x_criterion(make_cluster(6, (1, -1, -1, 1, -1, 1)))
    assert rep.value == pytest.approx(0.0, abs=1e-10)


def test_variance_x_saturating_product_matches_oracle():
    specs = [("x", 1) if k % 2 == 1 else ("z", 1) for k in range(1, 7)]
    # group members sit >= 3 sites apart, so the product-state variance
    # is a sum of single-correlator variances 1 - <c_k>^2
    oracle = sum(1.0 - c * c for c in oracle_product_correlators(specs))
    assert oracle == 3.0
    rep = variance_x_criterion(product_state(specs))
    assert rep.value == pytest.approx(oracle, abs=1e-10)
    assert not rep.violated


def test_variance_x_fully_mixed():
    rep = variance_x_criterion(totally_mixed_state(6))
    assert rep.value == pytest.approx(6.0, abs=1e-10)
    assert not rep.violated


# ---------------------------------------------------------------------------
# collective uncertainty


def test_collective_uncertainty_singlet_chain():
    rep = collective_uncertainty_criterion(bosonic.singlet_chain(2))
    assert rep.value == pytest.approx(0.0, abs=1e-12)
    assert rep.bound == pytest.approx(2.0, abs=1e-12)
    assert rep.violated


def test_collective_uncertainty_product_saturates():
    lattice = bosonic.FockLatticeSpec(4, bosonic.SiteFockSpace(1))
    state = bosonic.occupation_basis_state(lattice, [bosonic.SPIN_UP] * 4)
    rep = collective_uncertainty_criterion(state)
    assert rep.value == pytest.approx(rep.bound, abs=1e-10)
    assert not rep.violated


def test_collective_uncertainty_heisenberg_ground_state():
    gs = bosonic.heisenberg_ground_state(4)
    rep = collective_uncertainty_criterion(gs.state)
    assert rep.value == pytest.approx(0.0, abs=1e-9)
    assert rep.violated


def test_collective_uncertainty_on_qubit_chain():
    rep = collective_uncertainty_criterion(product_state([("z", 1)] * 4))
    assert rep.value == pytest.approx(rep.bound, abs=1e-10)


# ---------------------------------------------------------------------------
# spin squeezing


def test_spin_squeezing_cannot_detect_cluster():
    rep = spin_squeezing_criterion(make_cluster(4), AXIS_X, AXIS_Z, AXIS_Y)
    assert rep.aux.get("undefined") is True
    assert not rep.violated


def test_spin_squeezing_cannot_detect_singlet_chain():
    rep = spin_squeezing_criterion(bosonic.singlet_chain(2), AXIS_X, AXIS_Z, AXIS_Y)
    assert rep.aux.get("undefined") is True
    assert not rep.violated


def test_a_boolean_in_a_report_aux_is_written_as_a_boolean():
    # bool is a subclass of int, so an int conversion would write True as 1
    doc = spin_squeezing_best(bosonic.singlet_chain(2)).to_json_dict()
    assert doc["aux"]["undefined"] is True
    assert '"undefined": true' in json.dumps(doc)


def test_the_undefined_spin_squeezing_report_field_by_field():
    # the totally mixed state has zero mean spin, so no measurement plane carries a denominator
    rep = spin_squeezing_best(totally_mixed_state(2))
    assert rep.name == "spin_squeezing"
    assert math.isnan(rep.value) and math.isnan(rep.margin)
    assert rep.bound == 1.0 and rep.direction == ">="
    assert rep.violated is False
    assert rep.aux["undefined"] is True
    assert rep.aux["note"] == "zero mean spin in the measurement plane; criterion cannot detect this state"
    doc = rep.to_json_dict()
    assert list(doc) == ["name", "value", "bound", "direction", "violated", "margin", "aux"]
    assert doc["value"] is None and doc["margin"] is None
    assert doc["name"] == "spin_squeezing" and doc["direction"] == ">="
    assert doc["bound"] == 1.0 and doc["violated"] is False
    assert doc["aux"]["undefined"] is True and doc["aux"]["note"] == rep.aux["note"]
    assert doc["aux"]["directions"] == [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    assert json.loads(json.dumps(doc)) == doc


def test_spin_squeezing_coherent_product_saturates():
    rep = spin_squeezing_criterion(product_state([("z", 1)] * 4), AXIS_X, AXIS_Z, AXIS_Y)
    assert rep.value == pytest.approx(1.0, abs=1e-10)
    assert not rep.violated


def test_spin_squeezing_rejects_non_orthogonal_directions():
    with pytest.raises(ValueError, match="orthogonal"):
        spin_squeezing_criterion(make_cluster(4), AXIS_X, AXIS_X, AXIS_Y)


def test_spin_squeezing_grid_search_handles_undetectable_states():
    rep = spin_squeezing_best(make_cluster(4))
    assert not rep.violated


def test_spin_squeezing_grid_search_on_polarized_state():
    rep = spin_squeezing_best(product_state([("z", 1)] * 4))
    assert not rep.violated  # separable states never dip below the bound


def test_spin_squeezing_best_detects_noisy_twisted_state():
    # exp(-0.3i Jz^2)|+x>^6, rotated on every site, mixed with 19.3% white noise:
    # squeezed just enough to cross the bound, which a 24^3 Euler grid missed
    n = 6
    jz = np.diagonal(oracle_collective("z", n)).real
    psi = np.exp(-0.3j * jz**2) / np.sqrt(2**n)
    site = (np.cos(0.025) * np.eye(2) - 1j * np.sin(0.025) * SY) @ (
        np.cos(0.5) * np.eye(2) - 1j * np.sin(0.5) * SZ
    )
    psi = kron_all([site] * n) @ psi
    rho = 0.807 * np.outer(psi, psi.conj()) + 0.193 * np.eye(2**n) / 2**n
    rep = spin_squeezing_best(DensityMatrix(ChainSpec(n).space(), rho))
    assert rep.violated
    assert rep.value == pytest.approx(0.9937417, abs=1e-6)


def test_qubit_eigenbasis_diagonalizes_half_pauli_sum(rng):
    points = rng.normal(size=(20, 3))
    directions = [Direction.normalized(*p) for p in points] + [AXIS_Z, Direction(0.0, 0.0, -1.0)]
    for direction in directions:
        w, v = _site_eigenbasis(HilbertSpace((2,)), direction)
        assert np.array_equal(w, [-0.5, 0.5])
        half_n_sigma = np.tensordot(direction.as_array(), np.array([SX, SY, SZ]) / 2, 1)
        assert np.abs(half_n_sigma @ v - v * np.array([-0.5, 0.5])).max() < 1e-14
        assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-14


def test_direction_requires_unit_norm():
    with pytest.raises(ValueError):
        Direction(1.0, 1.0, 0.0)


@pytest.mark.parametrize("components", [
    (math.nan, 0.0, 0.0), (1.0, math.nan, 0.0), (math.inf, 0.0, 0.0), (1.0, 0.0, -math.inf),
])
def test_direction_refuses_non_finite_components(components):
    # NaN fails every comparison, so the norm test must be one that NaN fails
    with pytest.raises(ValueError, match="direction norm"):
        Direction(*components)
    with pytest.raises(ValueError, match="direction norm"):
        Direction.normalized(*components)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e308, 1e-300])
def test_direction_normalizes_huge_and_tiny_components(scale):
    # squaring 1e200 overflows and squaring 1e-200 underflows; hypot does neither
    assert Direction.normalized(scale, 0.0, 0.0) == AXIS_X
    assert Direction.normalized(0.0, -scale, 0.0) == Direction(0.0, -1.0, 0.0)
    d = Direction.normalized(scale, 0.0, scale)
    assert (d.x, d.y, d.z) == pytest.approx((math.sqrt(0.5), 0.0, math.sqrt(0.5)), abs=1e-15)


def test_direction_refuses_a_huge_norm_with_a_value_error():
    with pytest.raises(ValueError, match="direction norm"):
        Direction(1e200, 0.0, 0.0)


def test_lazily_built_array_constants_keep_their_names_and_values():
    import importlib
    import pkgutil

    import qlatwit
    from qlatwit import spinchain

    want = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    paulis = spinchain.paulis()
    assert np.array_equal(paulis, want) and paulis.dtype == complex
    # one cached array, shared by every caller, so no caller may write it
    assert spinchain.paulis() is paulis and not paulis.flags.writeable
    # no module keeps a PEP 562 hook that writes its own globals()
    for info in pkgutil.iter_modules(qlatwit.__path__):
        module = importlib.import_module(f"qlatwit.{info.name}")
        assert "__getattr__" not in vars(module), info.name
        assert "globals()" not in Path(module.__file__).read_text(), info.name


# ---------------------------------------------------------------------------
# moments


def test_mixed_state_second_moment():
    rho = totally_mixed_state(9)
    assert angular_moment(rho, AXIS_Z, 2) == pytest.approx(9 / 4, abs=1e-10)


def test_mixed_state_fourth_moment():
    rho = totally_mixed_state(9)
    assert angular_moment(rho, AXIS_Z, 4) == pytest.approx(9 * 25 / 16, abs=1e-10)


def test_first_moment_of_singlet_vanishes():
    assert angular_moment(bosonic.singlet_chain(1), AXIS_Z, 1) == pytest.approx(0.0, abs=1e-12)


def test_moment_order_must_be_positive():
    with pytest.raises(ValueError):
        angular_moment(totally_mixed_state(2), AXIS_Z, 0)


@pytest.mark.parametrize("order", [2.5, 2.0, float("nan")])
def test_a_non_integer_moment_order_is_refused(order):
    # an order is a count: 2.5 must not read as an overflow, nor reach range() as max_order
    state = totally_mixed_state(4)
    message = f"moment order must be an integer, got {order!r}"
    with pytest.raises(ValueError) as refused:
        angular_moment(state, AXIS_Z, order)
    assert str(refused.value) == message
    with pytest.raises(ValueError) as refused:
        moment_indistinguishability(state, state, [AXIS_Z], order)
    assert str(refused.value) == message


def test_an_integer_moment_order_of_any_integer_type_is_read():
    state = totally_mixed_state(4)
    assert angular_moment(state, AXIS_Z, np.int64(2)) == angular_moment(state, AXIS_Z, 2) == 1.0
    comparison = moment_indistinguishability(state, state, [AXIS_Z], np.int64(2))
    assert comparison.orders == (1, 2) and comparison.indistinguishable


def test_moment_overflow_raises_instead_of_returning_nan():
    with pytest.raises(ValueError, match="overflows"):
        angular_moment(totally_mixed_state(4), AXIS_Z, 2000)


# ---------------------------------------------------------------------------
# J_n's law (lowest, weights) on its half-integer grid, J_n = (lowest + i) / 2


def law(state, direction):
    return qcore._collective_distribution(state, None, lambda: _site_eigenbasis(state.space, direction))


def test_the_law_of_a_twelve_site_cluster_has_thirteen_levels():
    # a qubit's levels are -1/2 and 1/2, so J_x = -6, -5, ..., 6 sit on every
    # other point of the grid; the cluster's law there is the binomial one of
    # the totally mixed state
    lowest, weights = law(make_cluster(12), AXIS_X)
    assert lowest == -12 and weights.size == 25
    assert not weights[1::2].any()
    binomial = np.array([math.comb(12, k) for k in range(13)]) / 4096
    assert np.abs(weights[::2] - binomial).max() < 1e-15


def test_the_law_of_a_three_site_density_matrix_bins_the_dense_spectrum(rng):
    space = HilbertSpace((2,) * 3)
    rho = random_density(space, rng)
    direction = Direction(*sampling.random_direction(rng))
    lowest, weights = law(rho, direction)
    assert lowest == -3 and weights.size == 7
    js = [oracle_collective(axis, 3) for axis in "xyz"]
    w, v = np.linalg.eigh(sum(c * j for c, j in zip(direction.as_array(), js)))
    dense = np.real(np.einsum("ai,ab,bi->i", v.conj(), rho.matrix, v))
    want = np.bincount((np.rint(2 * w) + 3).astype(int), weights=dense)
    assert np.abs(weights - want).max() < 1e-12


@pytest.mark.parametrize("direction", [AXIS_X, AXIS_Y, AXIS_Z, TILTED_XZ], ids="x y z xz".split())
def test_the_law_of_a_fock_singlet_chain_sits_at_zero(direction):
    # two Fock singlet pairs: each site's j_n has levels -1/2, 0, 1/2, and a
    # singlet has J = 0, so J_n = 0 along every direction
    lowest, weights = law(bosonic.singlet_chain(2), direction)
    assert lowest == -4 and weights.size == 9
    assert np.abs(weights - np.eye(9)[4]).max() < 1e-12


@pytest.mark.parametrize(
    "state",
    [PureState(HilbertSpace((2, 2)), [1, 0, 0, 0]),
     DensityMatrix(HilbertSpace((2, 2)), np.eye(4) / 4),
     totally_mixed_state(2)],
    ids=["pure", "density", "product"],
)
def test_one_site_eigenvalues_off_the_half_integer_grid_are_refused(state):
    with pytest.raises(ValueError, match="one-site eigenvalue lies off the half-integer grid"):
        qcore._collective_distribution(state, None, lambda: (np.array([-0.3, 0.3]), np.eye(2)))


# ---------------------------------------------------------------------------
# site-by-site collective spins against dense kron-built oracles


def qubit_space(n):
    return HilbertSpace((2,) * n, kind="qubit")


def fock_space(n, cutoff):
    return bosonic.FockLatticeSpec(n, bosonic.SiteFockSpace(cutoff)).space()


def dense_collective(space):
    """The dense J_x, J_y, J_z and total number of a qubit chain or Fock lattice."""
    n = space.n_sites
    if space.kind == "qubit":
        return [oracle_collective(ax, n) for ax in "xyz"], n * np.eye(space.dim)
    cutoff = space.fock_cutoff
    js = [oracle_fock_collective(ax, cutoff, n) for ax in "xyz"]
    return js, oracle_fock_collective("n", cutoff, n)


@st.composite
def collective_spaces(draw):
    """A qubit chain of 2..7 sites, or a Fock lattice of 1..3 sites with cutoff 1..2,
    with the dense oracles of J_x, J_y, J_z and the total particle number."""
    if draw(st.booleans()):
        space = qubit_space(draw(st.integers(2, 7)))
    else:
        space = fock_space(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    return (space, *dense_collective(space))


def oracle_mean(op, state):
    if hasattr(state, "amplitudes"):
        return np.vdot(state.amplitudes, op @ state.amplitudes).real
    return np.trace(state.matrix @ op).real


@settings(max_examples=60, deadline=None)
@given(spec=collective_spaces(), mixed=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_collective_path_matches_dense_oracles(spec, mixed, seed):
    space, js, number = spec
    gen = np.random.default_rng(seed)
    if mixed:
        state = sampling.random_separable_density(space, gen)
        assert np.abs(state.matrix - np.diag(np.diagonal(state.matrix))).max() > 1e-8
    else:
        state = PureState(space, sampling.haar_vector(space.dim, gen))
    moments = collective_moments(state)
    mean, second = moments.mean, moments.second
    for k in range(3):
        assert mean[k] == pytest.approx(oracle_mean(js[k], state), abs=1e-12)
        for m in range(3):
            want = oracle_mean((js[k] @ js[m] + js[m] @ js[k]) / 2, state)
            assert second[k, m] == pytest.approx(want, abs=1e-12)
    assert np.array_equal(anticommutator_moments(state), 2 * second)
    assert moments.number == pytest.approx(oracle_mean(number, state), abs=1e-12)
    direction = sampling.random_direction(gen)
    j_n = sum(c * j for c, j in zip(direction, js))
    for order in range(1, 5):
        want = oracle_mean(np.linalg.matrix_power(j_n, order), state)
        got = angular_moment(state, Direction(*direction), order)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    best = spin_squeezing_best(state)
    if not best.aux.get("undefined"):
        dense_mean = np.array([oracle_mean(j, state) for j in js])
        dense_second = np.array(
            [[oracle_mean((a @ b + b @ a) / 2, state) for b in js] for a in js]
        )
        n_total = oracle_mean(number, state)
        grid = oracle_squeezing_grid(dense_mean, dense_second, n_total, grid_points=12)
        assert best.value <= grid + 1e-9
        triple = best.aux["directions"]
        assert np.abs(triple @ triple.T - np.eye(3)).max() < 1e-12
        j1, j2, j3 = (sum(c * j for c, j in zip(n, js)) for n in triple)
        var1 = oracle_mean(j1 @ j1, state) - oracle_mean(j1, state) ** 2
        denominator = oracle_mean(j2, state) ** 2 + oracle_mean(j3, state) ** 2
        assert n_total * var1 / denominator == pytest.approx(best.value, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# density-matrix moments (one- and two-site blocks, rotated diagonals) against
# dense oracles, on generic mixed states that correlate every pair of sites


def random_density(space, gen):
    """G G^dagger / Tr for a complex Gaussian G: full rank, no product structure."""
    g = gen.standard_normal((space.dim,) * 2) + 1j * gen.standard_normal((space.dim,) * 2)
    rho = g @ g.conj().T
    return DensityMatrix(space, rho / np.trace(rho).real)


def oracle_moment_table(js, rho, axes, max_order):
    """<J_n^m> from the eigh of each dense J_n and the weights diag(V^dagger rho V)."""
    table = np.zeros((len(axes), max_order))
    for i, direction in enumerate(axes):
        w, v = np.linalg.eigh(sum(c * j for c, j in zip(direction.as_array(), js)))
        weights = np.real(np.einsum("ai,ab,bi->i", v.conj(), rho, v))
        table[i] = [weights @ w**m for m in range(1, max_order + 1)]
    return table


def assert_density_moments_match_oracles(rho, other, gen):
    js, number = dense_collective(rho.space)
    moments = collective_moments(rho)
    mean, second = moments.mean, moments.second
    for k in range(3):
        assert mean[k] == pytest.approx(oracle_mean(js[k], rho), abs=1e-12)
        for m in range(3):
            want = oracle_mean((js[k] @ js[m] + js[m] @ js[k]) / 2, rho)
            assert second[k, m] == pytest.approx(want, abs=1e-12)
    assert moments.number == pytest.approx(oracle_mean(number, rho), abs=1e-12)
    axes = [AXIS_X, AXIS_Y, AXIS_Z, Direction(*sampling.random_direction(gen))]
    want_a = oracle_moment_table(js, rho.matrix, axes, 5)
    want_b = oracle_moment_table(js, other.matrix, axes, 5)
    for i, direction in enumerate(axes):
        for order in range(1, 6):
            got = angular_moment(rho, direction, order)
            assert got == pytest.approx(want_a[i, order - 1], rel=1e-12, abs=1e-12)
    comp = moment_indistinguishability(rho, other, axes, 5)
    assert np.allclose(comp.moments_a, want_a, rtol=1e-12, atol=1e-12)
    assert np.allclose(comp.moments_b, want_b, rtol=1e-12, atol=1e-12)
    assert np.array_equal(comp.differences, np.abs(comp.moments_a - comp.moments_b))


@pytest.mark.parametrize(
    "space",
    [qubit_space(1), qubit_space(2), qubit_space(5), fock_space(1, 2), fock_space(2, 2), fock_space(5, 1)],
    ids=["qubit1", "qubit2", "qubit5", "fock1", "fock2", "fock5"],
)
def test_density_moments_match_dense_oracles(space, rng):
    assert_density_moments_match_oracles(random_density(space, rng), random_density(space, rng), rng)


@pytest.mark.parametrize("pair", [(1, 3), (1, 5), (2, 4), (2, 5), (3, 5), (4, 5)])
def test_density_moments_read_correlations_of_distant_pairs(pair, rng):
    # a Bell pair on sites s < t, every other site fully mixed: the only
    # correlation, J_a^2 gaining <sigma_a^s sigma_a^t> / 2, sits on that pair
    n, (s, t) = 5, pair
    paulis = [oracle_site_pauli(ax, s, n) @ oracle_site_pauli(ax, t, n) for ax in "xyz"]
    bell = (np.eye(2**n) + paulis[0] - paulis[1] + paulis[2]) / 2**n
    rho = DensityMatrix(qubit_space(n), bell)
    moments = collective_moments(rho)
    mean, second = moments.mean, moments.second
    assert np.abs(mean).max() < 1e-12
    assert np.allclose(second, np.diag([n / 4 + 0.5, n / 4 - 0.5, n / 4 + 0.5]), atol=1e-12)
    mixture = DensityMatrix(qubit_space(n), (bell + random_density(qubit_space(n), rng).matrix) / 2)
    assert_density_moments_match_oracles(mixture, rho, rng)


@settings(max_examples=40, deadline=None)
@given(
    qubits=st.booleans(),
    n=st.integers(1, 6),
    cutoff=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_density_moments_match_dense_oracles_for_any_size(qubits, n, cutoff, seed):
    if qubits:
        space = qubit_space(n)
    else:
        space = fock_space(min(n, 3), cutoff)
    gen = np.random.default_rng(seed)
    assert_density_moments_match_oracles(random_density(space, gen), random_density(space, gen), gen)


def test_one_site_readers_refuse_an_operator():
    qubits = LinearOperator(qubit_space(2), np.eye(4))
    with pytest.raises(ValueError, match="LinearOperator"):
        pauli_sum_moments(qubits, [{1: "x"}])
    fock = fock_space(2, 1)
    with pytest.raises(ValueError, match="LinearOperator"):
        collective_moments(LinearOperator(fock, np.eye(fock.dim)))


@pytest.fixture
def reads(monkeypatch):
    """The type of every state ``qcore._collective_moments`` reads, a
    ProductState's blocks after the product itself."""
    calls = []
    read = qcore._collective_moments

    def counted(state, local):
        calls.append(type(state).__name__)
        return read(state, local)

    monkeypatch.setattr(qcore, "_collective_moments", counted)
    monkeypatch.setattr(criteria, "_collective_moments", counted)
    return calls


def test_singlet_suite_reads_the_chain_once(reads, capsys):
    # one read of the product and one of each block: O(n), where a per-site
    # read of the product walked every block for every site
    assert cli.main(["singlet-suite", "--n", "7"]) == 0
    report = json.loads(capsys.readouterr().out)["results"]["report"]
    assert report["aux"]["total_number"] == pytest.approx(14.0, abs=1e-12)
    assert reads == ["ProductState"] + ["PureState"] * 7


def test_heisenberg_reads_the_ground_state_once(reads):
    assert cli.main(["heisenberg", "--n", "4"]) == 0
    assert reads == ["SectorState"]


@pytest.mark.parametrize(
    "criterion",
    [
        collective_uncertainty_criterion,
        lambda state: spin_squeezing_criterion(state, AXIS_X, AXIS_Y, AXIS_Z),
        spin_squeezing_best,
    ],
    ids=["uncertainty", "squeezing", "squeezing_best"],
)
@pytest.mark.parametrize("fock", ["singlets", "dense"])
def test_each_collective_criterion_reads_a_state_once(criterion, fock, reads, rng):
    if fock == "singlets":
        state, want = bosonic.singlet_chain(2), ["ProductState", "PureState", "PureState"]
    else:
        state, want = random_density(fock_space(2, 1), rng), ["DensityMatrix"]
    criterion(state)
    assert reads == want


@pytest.mark.parametrize("n", [4, 12])
def test_a_qubit_chain_number_and_bound_are_exact(n):
    # a qubit chain's <N> is its site count, not a read of an identity row
    for state in (make_cluster(n), totally_mixed_state(n)):
        assert collective_moments(state).number == float(n)
        assert collective_uncertainty_criterion(state).bound == n / 2


@pytest.mark.parametrize("n", range(4, 10))
def test_cluster_anticommutator_table(n):
    # the zx entry comes from the two chain-end correlators and stays 1 at
    # every size; the off-diagonal xy and yz entries vanish
    table = anticommutator_moments(make_cluster(n))
    assert table[2, 0] == pytest.approx(1.0, abs=1e-9)  # zx
    assert table[0, 1] == pytest.approx(0.0, abs=1e-9)  # xy
    assert table[1, 2] == pytest.approx(0.0, abs=1e-9)  # yz
    for i in range(3):
        assert table[i, i] == pytest.approx(n / 2, abs=1e-9)


def test_singlet_chain_anticommutator_off_diagonals_vanish():
    table = anticommutator_moments(bosonic.singlet_chain(2))
    for i in range(3):
        for j in range(3):
            if i != j:
                assert abs(table[i, j]) < 1e-10


def test_mixed_state_anticommutator_is_diagonal():
    n = 4
    table = anticommutator_moments(totally_mixed_state(n))
    for i in range(3):
        for j in range(3):
            want = n / 2 if i == j else 0.0  # 2 <J_i^2> = 2 * n/4 on the diagonal
            assert table[i, j] == pytest.approx(want, abs=1e-10)


def test_totally_mixed_basics():
    rho = totally_mixed_state(3)
    assert np.trace(oracle_product_dense(rho).matrix).real == pytest.approx(1.0, abs=1e-12)
    for d in (AXIS_X, AXIS_Y, AXIS_Z, TILTED_XZ):
        assert angular_moment(rho, d, 1) == pytest.approx(0.0, abs=1e-12)
    assert angular_moment(rho, AXIS_Z, 2) == pytest.approx(3 / 4, abs=1e-12)


# ---------------------------------------------------------------------------
# the moment-matching separable state


def test_moment_matching_first_moments_vanish():
    rho = moment_matching_separable_state(4)
    for d in (AXIS_X, AXIS_Y, AXIS_Z):
        assert angular_moment(rho, d, 1) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_moment_matching_anticommutator_table_matches_cluster(n):
    table_sep = anticommutator_moments(moment_matching_separable_state(n))
    table_cl = anticommutator_moments(make_cluster(n))
    assert np.abs(table_sep - table_cl).max() < 1e-9


def test_moment_matching_state_is_ppt_across_every_cut():
    rho = moment_matching_separable_state(4)
    cuts = [[1], [2], [3], [4], [1, 2], [1, 3], [1, 4]]
    for cut in cuts:
        assert negativity(oracle_product_dense(rho), cut) < 1e-9


def test_moment_matching_needs_four_sites():
    with pytest.raises(ValueError, match="at least 4"):
        moment_matching_separable_state(3)


def test_moment_matching_second_moments_any_direction(rng):
    # first plus second moments fix <J_n^m> for m <= 2 along any direction; a
    # stabilizer state has a law along x, y and z only, so its dense form is read
    rho = oracle_product_dense(moment_matching_separable_state(4))
    cl = make_cluster(4)
    for _ in range(10):
        d = Direction.normalized(*sampling.random_direction(rng))
        for m in (1, 2):
            assert angular_moment(rho, d, m) == pytest.approx(
                angular_moment(cl, d, m), abs=1e-9
            )


# ---------------------------------------------------------------------------
# moment indistinguishability


def test_cluster_nine_matches_mixed_up_to_fourth_order():
    comp = moment_indistinguishability(
        make_cluster(9), totally_mixed_state(9), [AXIS_X, AXIS_Y, AXIS_Z], 4
    )
    assert comp.indistinguishable
    assert comp.differences.max() < 1e-9


def test_cluster_four_differs_along_tilted_axis():
    comp = moment_indistinguishability(
        make_cluster(4), totally_mixed_state(4), [AXIS_X, AXIS_Y, AXIS_Z, TILTED_XZ], 4
    )
    assert not comp.indistinguishable
    # along the axis directions every moment matches; the cross moment shows
    # up only for the tilted direction, first at second order
    assert comp.first_difference == (3, 2)
    assert comp.differences[3, 1] == pytest.approx(0.5, abs=1e-9)


def test_cluster_five_differs_at_third_order_on_x():
    comp = moment_indistinguishability(
        make_cluster(5), totally_mixed_state(5), [AXIS_X], 3
    )
    assert comp.first_difference == (0, 3)
    assert comp.differences[0, 2] == pytest.approx(0.75, abs=1e-9)


def test_state_is_indistinguishable_from_itself():
    c = make_cluster(4)
    comp = moment_indistinguishability(c, c, [AXIS_X, AXIS_Y, AXIS_Z, TILTED_XZ], 4)
    assert comp.indistinguishable
    assert comp.differences.max() == 0.0


def test_list_dims_share_the_site_structure_of_tuple_dims():
    up = PureState(HilbertSpace([2, 2]), [1, 0, 0, 0])
    comp = moment_indistinguishability(up, totally_mixed_state(2), [AXIS_Z], 2)
    assert not comp.indistinguishable and comp.first_difference == (0, 1)


def test_first_difference_takes_the_lowest_order_before_the_lowest_axis():
    # |00> against (|00> + |11>)/sqrt(2): along x the means agree (0) and the
    # second moments differ (1/2 against 1); along z the means differ (1 against 0)
    up = PureState(HilbertSpace((2, 2)), [1, 0, 0, 0])
    bell = PureState(HilbertSpace((2, 2)), np.array([1, 0, 0, 1]) / math.sqrt(2))
    comp = moment_indistinguishability(up, bell, [AXIS_X, AXIS_Z], 2)
    assert comp.differences[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert comp.differences[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert comp.first_difference == (1, 1)
    assert all(type(v) is int for v in comp.first_difference)


def test_mismatched_sizes_rejected():
    with pytest.raises(ValueError):
        moment_indistinguishability(make_cluster(4), totally_mixed_state(6), [AXIS_Z], 2)


@pytest.mark.parametrize("n", [4, 12])
def test_cluster_matches_mixed_on_the_axes_up_to_order_thirty(n):
    # the laws agree, so what differs is round-off, which grows as (n/2)^m
    comp = moment_indistinguishability(
        make_cluster(n), totally_mixed_state(n), [AXIS_X, AXIS_Y, AXIS_Z], 30
    )
    assert comp.indistinguishable and comp.first_difference is None


@pytest.mark.parametrize("n", range(3, 12, 2))
def test_odd_clusters_first_differ_from_mixed_along_x_at_half_their_length(n):
    comp = moment_indistinguishability(
        make_cluster(n), totally_mixed_state(n), [AXIS_X, AXIS_Y, AXIS_Z], 30
    )
    assert comp.first_difference == (0, (n + 1) // 2)


def test_the_eight_site_cluster_differs_from_mixed_along_y_at_sixth_order():
    comp = moment_indistinguishability(
        make_cluster(8), totally_mixed_state(8), [AXIS_X, AXIS_Y, AXIS_Z], 30
    )
    assert comp.first_difference == (1, 6)
    assert comp.differences[1, 5] == pytest.approx(11.25, abs=1e-9)


# ---------------------------------------------------------------------------
# soundness: separable states never violate any criterion


@pytest.mark.parametrize("n_sites,count", [(4, 1000), (6, 1000)])
def test_qubit_separable_states_never_violate(n_sites, count):
    rng = np.random.default_rng(5150 + n_sites)
    space = ChainSpec(n_sites).space()
    for _ in range(count):
        rho = sampling.random_separable_density(space, rng)
        assert not witness_criterion(rho).violated
        assert not squared_criterion(rho).violated
        assert not variance_x_criterion(rho).violated
        assert not collective_uncertainty_criterion(rho).violated
        assert not spin_squeezing_criterion(rho, AXIS_X, AXIS_Z, AXIS_Y).violated
        assert not spin_squeezing_best(rho).violated


@pytest.mark.parametrize(
    "n_sites,cutoff,count", [(4, 1, 1000), (2, 2, 600), (3, 2, 400)]
)
def test_fock_separable_states_never_violate(n_sites, cutoff, count):
    rng = np.random.default_rng(7000 + 10 * n_sites + cutoff)
    space = bosonic.FockLatticeSpec(n_sites, bosonic.SiteFockSpace(cutoff)).space()
    for _ in range(count):
        rho = sampling.random_separable_density(space, rng)
        assert not collective_uncertainty_criterion(rho).violated


def test_neighboring_correlator_pair_bound_on_products(rng):
    # <c_k + c_{k+1}> <= 1 for every product state and every k
    n = 6
    chain = ChainSpec(n)
    tildes = [tilde_sigma_x(chain, k) for k in range(1, n + 1)]
    for _ in range(1000):
        state = sampling.random_product_state(chain.space(), rng)
        vals = [expectation(op, state) for op in tildes]
        pair_max = max(vals[k] + vals[k + 1] for k in range(n - 1))
        assert pair_max <= 1.0 + 1e-10


def test_unit_filled_products_saturate_collective_bound(rng):
    n = 4
    chain = ChainSpec(n)
    for _ in range(200):
        state = embed_qubit_chain(sampling.random_product_state(chain.space(), rng))
        rep = collective_uncertainty_criterion(state)
        assert rep.value == pytest.approx(rep.bound, abs=1e-9)
        assert not rep.violated
