"""ProductState and its block readers, each checked against the same reader on
the kron-densified state (conftest.oracle_product_dense)."""

import math
import time

import numpy as np
import pytest

from conftest import collective_j_operators, oracle_product_dense, rotated_matching_state
from qlatwit import bosonic, spinchain
from qlatwit.criteria import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    Direction,
    angular_moment,
    collective_moments,
    totally_mixed_state,
    variance_x_criterion,
    witness_criterion,
)
from qlatwit.qcore import (
    DensityMatrix,
    HilbertSpace,
    ProductState,
    PureState,
    expectation,
)
import sampling

TILTED = Direction.normalized(0.3, -0.5, 0.8)
AXES4 = (AXIS_X, AXIS_Y, AXIS_Z, TILTED)

PRODUCT_STATES = (
    [pytest.param(totally_mixed_state, n, id=f"mixed-{n}") for n in range(4, 10)]
    + [pytest.param(rotated_matching_state, n, id=f"matching-{n}") for n in range(4, 10)]
    + [pytest.param(bosonic.singlet_chain, p, id=f"singlets-{p}") for p in (1, 2, 3)]
)


def _random_qubit_product(rng):
    """Pure and mixed qubit blocks of 1 to 3 sites, 7 sites in all."""
    blocks = []
    for sites, pure in ((2, True), (1, False), (3, False), (1, True)):
        space = HilbertSpace((2,) * sites)
        if pure:
            blocks.append(PureState(space, sampling.haar_vector(space.dim, rng)))
        else:
            blocks.append(sampling.random_separable_density(space, rng))
    return ProductState(blocks)


def _random_strings(rng, n_sites, count):
    strings = []
    for _ in range(count):
        sites = rng.choice(np.arange(1, n_sites + 1), size=rng.integers(1, 4), replace=False)
        strings.append({int(s): "xyz"[rng.integers(3)] for s in sites})
    return strings


@pytest.mark.parametrize("builder,size", PRODUCT_STATES)
def test_collective_moments_match_the_dense_state(builder, size):
    state = builder(size)
    got, want = collective_moments(state), collective_moments(oracle_product_dense(state))
    assert np.abs(got.mean - want.mean).max() < 1e-12
    assert np.abs(got.second - want.second).max() < 1e-12


@pytest.mark.parametrize("builder,size", PRODUCT_STATES)
def test_total_particle_number_matches_the_dense_state(builder, size):
    state = builder(size)
    want = collective_moments(oracle_product_dense(state)).number
    assert collective_moments(state).number == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("builder,size", PRODUCT_STATES)
def test_angular_moments_match_the_dense_state(builder, size):
    state = builder(size)
    dense = oracle_product_dense(state)
    for direction in AXES4:
        for order in (1, 2, 3, 4):
            want = angular_moment(dense, direction, order)
            assert angular_moment(state, direction, order) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("builder,size", PRODUCT_STATES)
def test_pauli_sum_moments_match_the_dense_state(builder, size, rng):
    state = builder(size)
    dense = oracle_product_dense(state)
    n = state.space.n_sites
    if state.space.kind != "qubit":
        for target in (state, dense):
            with pytest.raises(ValueError, match="qubit"):
                spinchain.pauli_sum_moments(target, [{1: "x"}])
        return
    chain = spinchain.ChainSpec(n)
    classes = [[spinchain.tilde_factors(chain, k) for k in range(m, n + 1, 3)] for m in (1, 2, 3)]
    for strings in classes + [_random_strings(rng, n, 4) for _ in range(5)]:
        got = spinchain.pauli_sum_moments(state, strings)
        want = spinchain.pauli_sum_moments(dense, strings)
        assert got == pytest.approx(want, abs=1e-12)


def test_readers_on_pure_and_mixed_qubit_blocks(rng):
    state = _random_qubit_product(rng)
    dense = oracle_product_dense(state)
    for strings in [_random_strings(rng, 7, 5) for _ in range(10)]:
        got = spinchain.pauli_sum_moments(state, strings)
        assert got == pytest.approx(spinchain.pauli_sum_moments(dense, strings), abs=1e-12)
    got, want = collective_moments(state), collective_moments(dense)
    for field in ("mean", "second", "number"):
        assert np.abs(getattr(got, field) - getattr(want, field)).max() < 1e-12
    for direction in AXES4:
        for order in (1, 2, 3, 4):
            want = angular_moment(dense, direction, order)
            assert angular_moment(state, direction, order) == pytest.approx(want, abs=1e-12)


def test_forty_site_mixed_state_in_closed_form():
    n = 40
    t0 = time.perf_counter()
    state = totally_mixed_state(n)
    witness = witness_criterion(state)
    variance = variance_x_criterion(state)
    fourth = angular_moment(state, AXIS_Z, 4)
    elapsed = time.perf_counter() - t0
    assert witness.value == 0.0 and witness.bound == n / 2
    # every string squares to the identity and distinct strings have zero trace
    assert variance.value == pytest.approx(n, abs=1e-12) and variance.bound == n / 2
    binomial = sum(math.comb(n, k) * (k - n / 2) ** 4 for k in range(n + 1)) / 2**n
    assert fourth == pytest.approx(binomial, rel=1e-13)
    assert elapsed < 1.0


def test_product_state_space_concatenates_the_blocks():
    state = rotated_matching_state(6)
    assert state.space == HilbertSpace((2,) * 6)
    assert [b.space.n_sites for b in state.blocks] == [2, 2, 1, 1]
    chain = bosonic.singlet_chain(3)
    assert chain.space == HilbertSpace((3,) * 6, kind="fock", fock_cutoff=1)


def test_product_state_rejects_bad_blocks():
    site = DensityMatrix(HilbertSpace((2,)), np.eye(2) / 2)
    with pytest.raises(ValueError, match="at least one block"):
        ProductState(())
    with pytest.raises(ValueError, match="more than 4 sites"):
        ProductState((DensityMatrix(HilbertSpace((2,) * 5), np.eye(32) / 32),))
    with pytest.raises(ValueError, match="cannot be a ndarray"):
        ProductState((np.eye(2) / 2,))
    with pytest.raises(ValueError, match="one site kind"):
        ProductState((site, bosonic.singlet_pair()))


def test_dense_only_readers_refuse_a_product_state():
    state = totally_mixed_state(3)
    with pytest.raises(ValueError, match="ProductState"):
        expectation(collective_j_operators(state.space)["z"], state)


