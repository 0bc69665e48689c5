"""The stabilizer-state readers against the kron oracles of conftest.py.

Every Pauli moment of a stabilizer state is an integer, so each read is
compared with ``==`` to the integer nearest the dense oracle's float, and
that float must lie within 1e-9 of it.  The laws of J_x, J_y and J_z are
integers over 2^n: each equals a brute-force scan of the 2^n strings
sigma_a^S exactly, and the dense law of the same state within 1e-12.
"""

import itertools

import numpy as np
import pytest

from conftest import ID2, PAULIS, negativity, oracle_density, oracle_pauli_string, oracle_product_dense
from qlatwit import criteria
from qlatwit.criteria import AXIS_X, AXIS_Y, AXIS_Z, Direction, angular_moment, collective_moments
from qlatwit.qcore import (
    HilbertSpace,
    LinearOperator,
    PureState,
    StabilizerState,
    _collective_distribution,
    _local_mean,
    _pauli_bits,
    _reduce,
    _sum_moments,
    expectation,
)
from qlatwit.spinchain import (
    ChainSpec,
    ClusterSpec,
    cluster_generators as package_cluster_generators,
    cluster_state,
    pauli_sum_moments,
    product_state,
    tilde_factors,
)

AXES = "xyz"
SIX_EIGENSTATES = [(axis, sign) for axis in AXES for sign in (1, -1)]


def cluster_generators(chain, lambdas):
    return [(tilde_factors(chain, k), lam) for k, lam in enumerate(lambdas, 1)]


def dense_generator(factors, sign, n):
    return sign * oracle_pauli_string(factors, n)


def times(g, h, n):
    """The generator g h as (factors, sign).  Kron products multiply site by
    site, so each site's 2 x 2 product of the Pauli oracles gives its axis and
    a phase tr(P m) / 2, and the sign is the product of the phases."""
    axes, phase = {}, g[1] * h[1]
    for site in sorted(g[0].keys() | h[0].keys()):
        m = PAULIS.get(g[0].get(site), ID2) @ PAULIS.get(h[0].get(site), ID2)
        axis = next((a for a in AXES if abs(np.trace(PAULIS[a] @ m)) > 1), None)
        if axis is not None:
            axes[site] = axis
        phase *= np.trace(PAULIS.get(axis, ID2) @ m) / 2
    assert abs(phase.imag) < 1e-12 and abs(abs(phase) - 1) < 1e-12
    return axes, int(round(phase.real))


def mixed_generators(rng, generators, n):
    """A random subset of commuting independent generators, recombined by a
    few products g_i <- g_i g_j, which keeps them commuting and independent
    and puts y factors into them."""
    keep = [generators[i] for i in sorted(rng.choice(len(generators), rng.integers(len(generators) + 1),
                                                     replace=False))]
    for _ in range(2 * len(keep) if len(keep) > 1 else 0):
        i, j = rng.choice(len(keep), 2, replace=False)
        keep[i] = times(keep[i], keep[j], n)
    return keep


def random_strings(rng, n, count):
    """``count`` random Pauli strings on random sites of n, y among the axes."""
    strings = []
    for _ in range(count):
        sites = sorted(rng.choice(n, rng.integers(1, n + 1), replace=False) + 1)
        strings.append({int(s): AXES[rng.integers(3)] for s in sites})
    return strings


def oracle_moments(state, strings, n):
    """<S> and <S^2> of a PureState or DensityMatrix from the kron-built S."""
    s = sum(oracle_pauli_string(f, n) for f in strings)
    if isinstance(state, PureState):
        v = s @ state.amplitudes
        return np.vdot(state.amplitudes, v).real, np.vdot(v, v).real
    return np.trace(state.matrix @ s).real, np.trace(state.matrix @ s @ s).real


def assert_exact(got, want):
    for g, w in zip(got, want, strict=True):
        assert type(g) is float and g == round(w) and abs(w - round(w)) < 1e-9, (got, want)


def check_reads(stabilizer, oracle, rng, n):
    chain = ChainSpec(n)
    classes = [[tilde_factors(chain, k) for k in range(m, n + 1, 3)] for m in (1, 2, 3)]
    for strings in [s for s in classes if s] + [random_strings(rng, n, 4) for _ in range(4)]:
        assert_exact(pauli_sum_moments(stabilizer, strings), oracle_moments(oracle, strings, n))


@pytest.mark.parametrize("n", range(2, 11))
def test_cluster_generators_read_as_the_dense_cluster_state(n, rng):
    chain = ChainSpec(n)
    # the commands' cluster is the all +1 sector
    assert package_cluster_generators(chain) == cluster_generators(chain, (1,) * n)
    patterns = itertools.product((1, -1), repeat=n) if n <= 4 else (
        tuple(int(s) for s in rng.choice((1, -1), n)) for _ in range(3))
    for lambdas in patterns:
        generators = cluster_generators(chain, lambdas)
        psi = cluster_state(ClusterSpec(chain, lambdas))
        for g in generators:  # the oracle is the generators' joint +1 eigenvector
            assert np.abs(dense_generator(*g, n) @ psi.amplitudes - psi.amplitudes).max() < 1e-12
        check_reads(StabilizerState(chain.space(), generators), psi, rng, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_one_site_generators_read_as_the_dense_product(n, rng):
    specs = (itertools.product(SIX_EIGENSTATES, repeat=n) if n == 2 else
             ([SIX_EIGENSTATES[i] for i in rng.integers(6, size=n)] for _ in range(6)))
    for spec in specs:
        generators = [({k: axis}, sign) for k, (axis, sign) in enumerate(spec, 1)]
        check_reads(StabilizerState(ChainSpec(n).space(), generators), product_state(spec), rng, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_partial_generator_sets_read_as_the_dense_mixed_state(n, rng):
    chain = ChainSpec(n)
    lambdas = tuple(int(s) for s in rng.choice((1, -1), n))
    products = [({k: AXES[rng.integers(3)]}, int(rng.choice((1, -1)))) for k in range(1, n + 1)]
    for full in (cluster_generators(chain, lambdas), products) * 3:
        generators = mixed_generators(rng, full, n)
        state = StabilizerState(chain.space(), generators)
        assert len(state.table) == len(generators)
        check_reads(state, oracle_density(generators, n), rng, n)


def test_no_generators_is_the_totally_mixed_state():
    state = StabilizerState(HilbertSpace((2,) * 4), [])
    assert pauli_sum_moments(state, [{1: "x"}, {2: "y", 3: "z"}]) == (0.0, 2.0)
    assert pauli_sum_moments(state, [{1: "x"}, {1: "x"}]) == (0.0, 4.0)


def test_anticommuting_strings_leave_no_imaginary_part():
    # <X Y> = i and <Y X> = -i on |0>, which cancel in <(X + Y)^2> = 2
    state = StabilizerState(HilbertSpace((2,)), [({1: "z"}, 1)])
    assert pauli_sum_moments(state, [{1: "x"}, {1: "y"}]) == (0.0, 2.0)
    assert pauli_sum_moments(state, [{1: "z"}, {1: "y"}]) == (1.0, 2.0)


def test_the_caller_cannot_change_the_generators_after_construction():
    factors = {1: "z"}
    state = StabilizerState(HilbertSpace((2, 2)), [(factors, -1)])
    factors[1] = "x"
    assert pauli_sum_moments(state, [{1: "z"}]) == (-1.0, 1.0)
    with pytest.raises(AttributeError):
        state.table = ()


STABILIZER_REFUSALS = {
    "non-commuting": ([({1: "x"}, 1), ({1: "z"}, 1)], "commute"),
    "non-commuting strings": ([({1: "x", 2: "x"}, 1), ({1: "y", 2: "x"}, 1)], "commute"),
    "dependent": ([({1: "z"}, 1), ({2: "z"}, 1), ({1: "z", 2: "z"}, -1)], "independent"),
    "repeated": ([({1: "x"}, 1), ({1: "x"}, 1)], "independent"),
    "identity": ([({}, 1)], "independent"),
    "minus identity": ([({}, -1)], "independent"),
    "bad axis": ([({1: "w"}, 1)], "axis"),
    "site past the end": ([({3: "x"}, 1)], "out of range"),
    "site zero": ([({0: "x"}, 1)], "out of range"),
    "zero sign": ([({1: "x"}, 0)], "sign"),
    "sign two": ([({1: "x"}, 2)], "sign"),
}


@pytest.mark.parametrize("generators,match", STABILIZER_REFUSALS.values(), ids=STABILIZER_REFUSALS.keys())
def test_stabilizer_state_refuses_invalid_generators(generators, match):
    with pytest.raises(ValueError, match=match):
        StabilizerState(HilbertSpace((2, 2)), generators)


@pytest.mark.parametrize("space", [HilbertSpace((3, 3), kind="fock", fock_cutoff=1),
                                   HilbertSpace((2, 2), kind="generic")])
def test_stabilizer_state_refuses_a_non_qubit_space(space):
    with pytest.raises(ValueError, match="qubit"):
        StabilizerState(space, [({1: "z"}, 1)])


def test_other_readers_refuse_a_stabilizer_state():
    state = StabilizerState(HilbertSpace((2, 2)), [({1: "z"}, 1), ({2: "x"}, 1)])
    sz = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(ValueError, match="StabilizerState"):
        _local_mean(state, {1: sz})
    with pytest.raises(ValueError, match="StabilizerState"):
        _sum_moments(state, [{1: sz}])
    with pytest.raises(ValueError, match="StabilizerState"):
        expectation(LinearOperator(state.space, np.eye(4), hermitian_hint=True), state)


# ---------------------------------------------------------------------------
# the laws of J_x, J_y and J_z and the collective table, read from the table

DIRECTIONS = {"x": AXIS_X, "y": AXIS_Y, "z": AXIS_Z}


def not_called():
    pytest.fail("a stabilizer read called a dense input")


def stabilizer_law(state, axis):
    return _collective_distribution(state, axis, not_called)


def subset_scan_law(state, axis):
    """The law of J_axis from all 2^n means <sigma_axis^S>, each reduced by the
    table: an outcome x, the set of spins at -1/2, has probability
    sum_S <sigma_axis^S> (-1)^|x & S| / 2^n."""
    n = state.space.n_sites
    means = {}
    for subset in range(2**n):
        x, z, e = _reduce(state.table, n, _pauli_bits({s + 1: axis for s in range(n) if subset >> s & 1}))
        if not x | z:
            means[subset] = (1, 1j, -1, -1j)[e]
    counts = [0] * (n + 1)
    for outcome in range(2**n):
        counts[outcome.bit_count()] += sum(m * (-1) ** (outcome & t).bit_count() for t, m in means.items())
    weights = [0.0] * (2 * n + 1)
    for w, count in enumerate(counts):
        assert count == int(count.real)
        weights[2 * (n - w)] = int(count.real) / 2**n
    return -n, weights


def dense_law(state, axis):
    direction = DIRECTIONS[axis]
    return _collective_distribution(state, None, lambda: criteria._site_eigenbasis(state.space, direction))


def stabilizer_vector(generators, n, rng):
    """The joint +1 eigenvector of a full generator set: prod_g (I + g) / 2
    applied to a random vector, with each g built by the kron oracle."""
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    for g in generators:
        v = v + dense_generator(*g, n) @ v
    return PureState(HilbertSpace((2,) * n), v / np.linalg.norm(v))


def random_generator_sets(rng, n, count):
    """``count`` recombined subsets, y factors among them, of the cluster
    generators at a random sign pattern and of random one-site generators,
    the first of each kind full (n generators), the rest of random size."""
    chain = ChainSpec(n)
    sets = []
    for i in range(count):
        lambdas = tuple(int(s) for s in rng.choice((1, -1), n))
        products = [({k: AXES[rng.integers(3)]}, int(rng.choice((1, -1)))) for k in range(1, n + 1)]
        full = cluster_generators(chain, lambdas) if i % 2 == 0 else products
        keep = full if i < 2 else mixed_generators(rng, full, n)
        for _ in range(2 * n if i < 2 else 0):
            a, b = rng.choice(n, 2, replace=False)
            keep[a] = times(keep[a], keep[b], n)
        sets.append(keep)
    return sets


def assert_laws_close(got, want):
    assert got[0] == want[0] and len(got[1]) == len(want[1])
    assert np.abs(np.array(got[1]) - want[1]).max() < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_the_laws_equal_the_subset_scan(n, rng):
    chain = ChainSpec(n)
    states = [StabilizerState(chain.space(), g) for g in random_generator_sets(rng, n, 6)]
    states.append(StabilizerState(chain.space(), cluster_generators(chain, (1,) * n)))
    states.append(StabilizerState(chain.space(), [({k: "x"}, 1) for k in range(1, n + 1)]))
    states.append(StabilizerState(chain.space(), []))
    for state in states:
        for axis in AXES:
            assert stabilizer_law(state, axis) == subset_scan_law(state, axis)


@pytest.mark.parametrize("n", range(2, 7))
def test_the_laws_match_the_dense_cluster_at_every_sign_pattern(n):
    chain = ChainSpec(n)
    for lambdas in itertools.product((1, -1), repeat=n):
        state = StabilizerState(chain.space(), cluster_generators(chain, lambdas))
        psi = cluster_state(ClusterSpec(chain, lambdas))
        for axis in AXES:
            assert_laws_close(stabilizer_law(state, axis), dense_law(psi, axis))


@pytest.mark.parametrize("n", range(2, 11))
def test_the_laws_match_the_dense_laws_of_random_generator_sets(n, rng):
    # the full sets against their joint eigenvector; a partial set's 4^n density
    # oracle is built for n <= 8 and for one set at 9 and 10
    for i, generators in enumerate(random_generator_sets(rng, n, 6 if n <= 8 else 3)):
        state = StabilizerState(ChainSpec(n).space(), generators)
        if len(generators) == n:
            dense = stabilizer_vector(generators, n, rng)
        elif n <= 8 or i == 2:
            dense = oracle_density(generators, n)
        else:
            continue
        for axis in AXES:
            assert_laws_close(stabilizer_law(state, axis), dense_law(dense, axis))


@pytest.mark.parametrize("n", range(2, 9))
def test_the_collective_table_matches_the_dense_one(n, rng):
    for generators in random_generator_sets(rng, n, 4):
        state = StabilizerState(ChainSpec(n).space(), generators)
        mean, second, number = criteria._moments(state)
        # every entry is an integer over 4, read exactly
        assert all(type(v) is float and 4 * v == round(4 * v) for v in [*mean, *sum(second, [])])
        want = collective_moments(oracle_density(generators, n))
        assert np.abs(np.array(mean) - want.mean).max() < 1e-12
        assert np.abs(np.array(second) - want.second).max() < 1e-12
        assert number == want.number == n


def test_a_tilted_direction_is_refused():
    state = StabilizerState(HilbertSpace((2,) * 4), cluster_generators(ChainSpec(4), (1,) * 4))
    tilted = Direction.normalized(1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="StabilizerState off the x, y and z axes"):
        angular_moment(state, tilted, 2)
    with pytest.raises(ValueError, match="StabilizerState"):
        _collective_distribution(state, None, not_called)


@pytest.mark.parametrize("n", range(4, 9))
def test_the_moment_matching_state_is_ppt_on_every_cut(n):
    rho = oracle_product_dense(criteria.moment_matching_separable_state(n))
    # every bipartition, named by its side holding site 1
    for bits in range(2 ** (n - 1) - 1):
        side = [1] + [s + 2 for s in range(n - 1) if bits >> s & 1]
        assert negativity(rho, side) < 1e-12


@pytest.mark.parametrize("n", range(4, 13))
def test_the_moment_matching_table_equals_the_cluster_table(n):
    chain = ChainSpec(n)
    cluster = StabilizerState(chain.space(), cluster_generators(chain, (1,) * n))
    matching = criteria.moment_matching_separable_state(n)
    assert criteria._moments(matching) == criteria._moments(cluster)
    mean, second, _ = criteria._moments(cluster)
    assert mean == [0.0] * 3
    assert second == [[n / 4, 0.0, 0.5], [0.0, n / 4, 0.0], [0.5, 0.0, n / 4]]
