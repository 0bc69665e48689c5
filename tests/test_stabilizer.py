"""The stabilizer-state reader against the kron oracles of conftest.py.

Every Pauli moment of a stabilizer state is an integer, so each read is
compared with ``==`` to the integer nearest the dense oracle's float, and
that float must lie within 1e-9 of it.
"""

import itertools

import numpy as np
import pytest

from conftest import ID2, kron_all, oracle_pauli_string
from qlatwit.qcore import (
    DensityMatrix,
    HilbertSpace,
    LinearOperator,
    PureState,
    StabilizerState,
    _collective_distribution,
    _collective_moments,
    _local_mean,
    _sum_moments,
    expectation,
)
from qlatwit.spinchain import (
    ChainSpec,
    ClusterSpec,
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
    """The generator g h as (factors, sign), its sign read from the kron oracle."""
    axes = {}
    for site in sorted(g[0].keys() | h[0].keys()):
        a, b = g[0].get(site), h[0].get(site)
        if a is None or b is None:
            axes[site] = a or b
        elif a != b:
            axes[site] = (set(AXES) - {a, b}).pop()
    product = dense_generator(*g, n) @ dense_generator(*h, n)
    c = np.vdot(oracle_pauli_string(axes, n), product) / 2**n
    assert abs(c.imag) < 1e-12 and abs(abs(c) - 1) < 1e-12
    return axes, int(round(c.real))


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


def oracle_density(generators, n):
    """prod_g (I + g) / 2^n, built from the kron oracles and validated."""
    rho = kron_all([ID2] * n) / 2**n
    for g in generators:
        rho = rho @ (kron_all([ID2] * n) + dense_generator(*g, n))
    return DensityMatrix(HilbertSpace((2,) * n), rho)


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
    w, v = np.linalg.eigh(sz / 2)
    with pytest.raises(ValueError, match="StabilizerState"):
        _local_mean(state, {1: sz})
    with pytest.raises(ValueError, match="StabilizerState"):
        _sum_moments(state, [{1: sz}])
    with pytest.raises(ValueError, match="StabilizerState"):
        _collective_moments(state, np.stack([sz / 2]))
    with pytest.raises(ValueError, match="StabilizerState"):
        _collective_distribution(state, w, v)
    with pytest.raises(ValueError, match="StabilizerState"):
        expectation(LinearOperator(state.space, np.eye(4), hermitian_hint=True), state)
