import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis_state, oracle_pulse_fold, oracle_pulse_generator, pulse_unitary
from qlatwit import bosonic, cli, criteria, optimize
from qlatwit.optimize import PulseParams, _PulseSector, optimize_pulse, pulse_state, violation_ratio
from qlatwit.qcore import PureState
from qlatwit.spinchain import ChainSpec, _bond_hops, product_state

REFERENCE_PULSE = PulseParams(-3.2, -9.6, 0.8)
# frozen regression value of the reference pulse on a 6-site chain under the
# open-sum conventions of the generator in the qlatwit.optimize docstring
REFERENCE_RATIO = 0.49265671385397736


def pulsed_state(chain, params):
    u = pulse_unitary(chain, params)
    start = basis_state(chain, [0] * chain.n_sites)
    return PureState(chain.space(), u.matrix @ start.amplitudes)


def test_params_must_be_finite():
    with pytest.raises(ValueError):
        PulseParams(float("nan"), 0.0, 0.0)


def test_zero_pulse_is_identity():
    chain = ChainSpec(4)
    u = pulse_unitary(chain, PulseParams(0.0, 0.0, 0.0))
    assert np.abs(u.matrix - np.eye(16)).max() < 1e-12


def test_z_rotation_periodicity():
    # spin-1/2 z rotations return to the identity after a 4 pi angle
    chain = ChainSpec(3)
    u = pulse_unitary(chain, PulseParams(0.0, 0.0, 4 * np.pi)).matrix
    phase = u[0, 0]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.abs(u - phase * np.eye(8)).max() < 1e-10


def test_pulse_unitarity_on_random_parameters(rng):
    chain = ChainSpec(4)
    eye = np.eye(16)
    for _ in range(100):
        params = PulseParams(*rng.uniform(-10, 10, size=3))
        u = pulse_unitary(chain, params).matrix
        assert np.abs(u @ u.conj().T - eye).max() < 1e-10


def test_reference_pulse_violation_ratio():
    chain = ChainSpec(6)
    ratio = violation_ratio(pulsed_state(chain, REFERENCE_PULSE))
    assert ratio == pytest.approx(0.5, abs=0.15)
    assert ratio == pytest.approx(REFERENCE_RATIO, abs=1e-9)


def test_violation_ratio_extremes():
    assert violation_ratio(bosonic.singlet_chain(2)) == pytest.approx(1.0, abs=1e-10)
    assert violation_ratio(product_state([("z", 1)] * 4)) == pytest.approx(0.0, abs=1e-10)


def test_violation_ratio_rejects_vacuum():
    lattice = bosonic.FockLatticeSpec(2, bosonic.SiteFockSpace(1))
    vacuum = bosonic.occupation_basis_state(lattice, [bosonic.EMPTY, bosonic.EMPTY])
    with pytest.raises(ValueError, match="particle"):
        violation_ratio(vacuum)


def test_violation_ratio_never_exceeds_one(rng):
    # the ratio tops out at 1, reached only when the variance sum vanishes
    chain = ChainSpec(4)
    from sampling import haar_vector

    for _ in range(50):
        state = PureState(chain.space(), haar_vector(16, rng))
        assert violation_ratio(state) <= 1.0 + 1e-12


def test_optimizer_keeps_reference_quality():
    chain = ChainSpec(6)
    result = optimize_pulse(chain, REFERENCE_PULSE, budget=200, seed=3)
    assert result.ratio >= REFERENCE_RATIO - 1e-12
    assert result.ratio >= 0.35


def test_optimizer_never_worse_than_start():
    chain = ChainSpec(4)
    result = optimize_pulse(chain, PulseParams(0.0, 0.0, 0.0), budget=60, seed=1)
    assert result.ratio >= 0.0


def test_optimizer_is_deterministic():
    chain = ChainSpec(4)
    a = optimize_pulse(chain, REFERENCE_PULSE, budget=80, seed=11)
    b = optimize_pulse(chain, REFERENCE_PULSE, budget=80, seed=11)
    assert a.params == b.params
    assert a.ratio == b.ratio
    assert a.trace == b.trace


def test_reported_ratio_reproducible_from_params():
    chain = ChainSpec(4)
    result = optimize_pulse(chain, REFERENCE_PULSE, budget=80, seed=2)
    fresh = violation_ratio(pulsed_state(chain, result.params))
    assert fresh == pytest.approx(result.ratio, abs=1e-10)


def test_optimizer_trace_and_budget_accounting():
    chain = ChainSpec(4)
    result = optimize_pulse(chain, REFERENCE_PULSE, budget=50, seed=0)
    assert len(result.trace) == result.evaluations
    assert result.evaluations <= 50
    iterations = [entry[0] for entry in result.trace]
    assert iterations == sorted(iterations)


@pytest.mark.parametrize("budget", [1, 40])
def test_optimizer_solves_each_evaluation_once(monkeypatch, budget):
    # the result and the initial state are read from the trace, not solved again
    calls = []
    solve = _PulseSector.state
    monkeypatch.setattr(
        _PulseSector, "state", lambda self, params: calls.append(params) or solve(self, params)
    )
    result = optimize_pulse(ChainSpec(6), REFERENCE_PULSE, budget=budget, seed=1)
    assert len(calls) == result.evaluations
    assert result.ratio >= result.trace[0][2]


@pytest.mark.parametrize("budget", [2, 3, 4, 5, 6, 40])
def test_optimizer_result_is_the_first_best_trace_entry(budget):
    # the start point is evaluated once, so the second evaluation is a new vertex
    result = optimize_pulse(ChainSpec(6), REFERENCE_PULSE, budget=budget, seed=1)
    assert result.trace[0][1] == tuple(REFERENCE_PULSE.as_array())
    assert result.trace[0][1] != result.trace[1][1]
    assert result.evaluations == len(result.trace) == budget
    top = max(entry[2] for entry in result.trace)
    first_best = next(entry for entry in result.trace if entry[2] == top)
    assert (tuple(result.params.as_array()), result.ratio) == first_best[1:]


def test_nelder_mead_converges_on_a_quadratic_and_stops_when_spent():
    centre = np.array([1.0, -2.0, 0.5])
    values = []

    def quadratic(x):
        values.append(float((x - centre) ** 2 @ [1.0, 2.0, 3.0]))
        return values[-1]

    x, fx = optimize._nelder_mead(quadratic, np.zeros(3))
    assert fx == min(values) < optimize._TOL
    assert np.abs(x - centre).max() < 1e-4
    assert len(values) > 10

    values.clear()
    refused = []

    def spends_ten(x):
        if len(values) == 10:
            refused.append(x)
            raise optimize._Stop
        return quadratic(x)

    with pytest.raises(optimize._Stop):
        optimize._nelder_mead(spends_ten, np.zeros(3))
    assert len(values) == 10 and len(refused) == 1


def test_nelder_mead_orders_tied_vertices_stably():
    # the start values tie as (2, 2, 1, 1): the stable order [2, 3, 0, 1] reflects
    # the start point through the other three; numpy's argsort may give [3, 2, 1, 0]
    points = []

    def step(x):
        points.append(x)
        if len(points) == 5:
            raise optimize._Stop
        return 1.0 if max(x[1], x[2]) > 0.2 else 2.0

    with pytest.raises(optimize._Stop):
        optimize._nelder_mead(step, (0.0, 0.0, 0.0))
    assert tuple(points[4]) == (-0.4, 0.26666666666666666, 0.26666666666666666)
    assert all(type(c) is float for point in points for c in point)


def test_pulse_command_builds_one_sector_and_solves_the_given_pulse_once(monkeypatch, capsys):
    # the given pulse is the search's first evaluation, so the command reuses
    # the search's sector and state instead of solving it on its own
    builds, solves = [], []
    build, solve = _PulseSector.__init__, _PulseSector.state
    monkeypatch.setattr(
        _PulseSector, "__init__", lambda self, chain: builds.append(chain) or build(self, chain)
    )
    monkeypatch.setattr(
        _PulseSector, "state", lambda self, params: solves.append(params) or solve(self, params)
    )
    argv = ["pulse", "--n", "8", "--params=-3.2,-9.6,0.8", "--optimize", "--budget", "40"]
    assert cli.main(argv) == 0
    optimized = json.loads(capsys.readouterr().out)["results"]["optimized"]
    assert len(builds) == 1
    assert len(solves) == optimized["evaluations"]


@pytest.mark.parametrize("argv, calls", [
    (["pulse", "--n", "8", "--params=-3.2,-9.6,0.8", "--optimize", "--budget", "40"], 40),
    (["pulse", "--n", "8", "--params=-3.2,-9.6,0.8"], 1),
    (["pulse", "--n", "8", "--params=-3.2,-9.6,0.8", "--optimize", "--seed", "-1"], 0),
])
def test_pulse_command_evaluates_the_criterion_once_per_pulse(monkeypatch, capsys, argv, calls):
    # the given pulse's report and ratio come from the search's first evaluation
    criterion = criteria.collective_uncertainty_criterion
    want = criterion(pulse_state(ChainSpec(8), REFERENCE_PULSE))
    counted = []

    def counting(state):
        counted.append(state)
        return criterion(state)

    monkeypatch.setattr(criteria, "collective_uncertainty_criterion", counting)
    monkeypatch.setattr(optimize, "collective_uncertainty_criterion", counting)
    cli.main(argv)
    out = capsys.readouterr().out
    assert len(counted) == calls
    if calls:
        doc = json.loads(out)["results"]
        assert doc["report"] == want.to_json_dict()
        assert doc["ratio"] == 1.0 - want.value / want.bound


def test_optimizer_rejects_empty_budget():
    with pytest.raises(ValueError):
        optimize_pulse(ChainSpec(4), REFERENCE_PULSE, budget=0)


def test_optimizer_rejects_negative_seed_before_evaluating(monkeypatch):
    # every evaluation of the search objective starts by building the pulse state
    calls = []
    monkeypatch.setattr(_PulseSector, "state", lambda self, params: calls.append(params))
    with pytest.raises(ValueError, match="seed"):
        optimize_pulse(ChainSpec(4), REFERENCE_PULSE, budget=3, seed=-1)
    assert calls == []


def test_optimizer_restarts_follow_the_seed():
    # at n = 6 the first simplex run stops after 115 evaluations; the seeded
    # restarts spend the rest of the budget
    chain = ChainSpec(6)
    one = optimize_pulse(chain, REFERENCE_PULSE, budget=200, seed=1)
    two = optimize_pulse(chain, REFERENCE_PULSE, budget=200, seed=2)
    assert one.trace[:115] == two.trace[:115]
    assert one.trace[115] != two.trace[115]
    assert optimize_pulse(chain, REFERENCE_PULSE, budget=200, seed=1).trace == one.trace


@pytest.mark.parametrize("n", range(2, 7))
def test_generator_matches_kron_oracle(n, rng):
    # the even-parity block that _PulseSector folds its three terms from: the
    # xx and yy hops and the field, and no term leaves it
    even = np.array([i for i in range(2**n) if bin(i).count("1") % 2 == 0])
    odd = np.setdiff1d(np.arange(2**n), even)
    popcount = np.array([bin(i).count("1") for i in even])
    for _ in range(5):
        params = PulseParams(*rng.uniform(-10, 10, size=3))
        gen = np.diag(params.theta_z * (n - 2.0 * popcount) / 2)
        for angle, equal in ((params.theta_xx, 0.25), (params.theta_yy, -0.25)):
            rows, cols, weights = _bond_hops(n, even, equal, 0.25)
            gen[rows, cols] += angle * weights
        dense = oracle_pulse_generator(n, params)
        assert np.allclose(gen, dense[np.ix_(even, even)], atol=1e-12)
        assert np.abs(dense[np.ix_(odd, even)]).max() == 0.0


angles = st.floats(-10.0, 10.0, allow_nan=False)


def _reversed_sites(amps, n):
    return amps.reshape((2,) * n).transpose(range(n - 1, -1, -1)).reshape(-1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), theta_xx=angles, theta_yy=angles, theta_z=angles)
def test_pulse_state_matches_dense_unitary(n, theta_xx, theta_yy, theta_z):
    chain = ChainSpec(n)
    params = PulseParams(theta_xx, theta_yy, theta_z)
    got = pulse_state(chain, params).amplitudes
    want = pulsed_state(chain, params).amplitudes
    assert np.abs(got - want).max() < 1e-12
    popcount = np.array([bin(i).count("1") for i in range(2**n)])
    assert np.all(got[popcount % 2 == 1] == 0)
    # the oracle state is reversal-invariant, the premise of the mirror-even sector
    assert np.abs(want - _reversed_sites(want, n)).max() < 1e-12
    assert np.array_equal(got, _reversed_sites(got, n))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("sign", [1, -1])
def test_pulse_state_with_zero_weight_hops(n, sign):
    # theta_yy = +-theta_xx zeroes the equal-bits or the differing-bits hops
    chain = ChainSpec(n)
    params = PulseParams(1.7, sign * 1.7, 0.3)
    got = pulse_state(chain, params).amplitudes
    assert np.abs(got - pulsed_state(chain, params).amplitudes).max() < 1e-12


def test_pulse_state_reference_ratio():
    ratio = violation_ratio(pulse_state(ChainSpec(6), REFERENCE_PULSE))
    assert ratio == pytest.approx(REFERENCE_RATIO, abs=1e-9)


@pytest.mark.parametrize("n", range(2, 11))
def test_pulse_sector_dimension(n):
    # one row per reversal orbit of the even-popcount states
    words = [format(i, f"0{n}b") for i in range(2**n) if bin(i).count("1") % 2 == 0]
    palindromes = sum(w == w[::-1] for w in words)
    dim = (2 ** (n - 1) + palindromes) // 2
    assert dim == {8: 72, 9: 136, 10: 272}.get(n, dim)
    assert [t.shape for t in _PulseSector(ChainSpec(n)).terms] == [(dim, dim)] * 3


@pytest.mark.parametrize("n", range(2, 11))
def test_pulse_sector_gathers_match_the_dense_fold(n):
    orbit, weight, terms = oracle_pulse_fold(n)
    sector = _PulseSector(ChainSpec(n))
    assert np.array_equal(sector._orbit, orbit)
    assert np.array_equal(sector._weight, weight)
    for got, want in zip(sector.terms, terms):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15


def test_pulse_state_capped():
    with pytest.raises(ValueError, match="cap"):
        pulse_state(ChainSpec(11), REFERENCE_PULSE)


def _sector_generator(n, theta):
    g_xx, g_yy, g_z = _PulseSector(ChainSpec(n)).terms
    return theta[0] * g_xx + theta[1] * g_yy + theta[2] * g_z


def _eigh_propagate(g, eigh=np.linalg.eigh):
    w, v = eigh(g)
    return v @ (np.exp(-1j * w) * v[0])


@pytest.mark.parametrize("n", range(2, 11))
def test_propagate_series_matches_eigh(n, monkeypatch):
    # an unbounded crossover sends every input through the series, also the
    # small sectors that take eigh by default; zero and subnormal angles
    # leave a half-width far below 1
    monkeypatch.setattr(optimize, "_SERIES_TERMS_PER_ROW", np.inf)
    rng = np.random.default_rng(n)
    thetas = [rng.uniform(-12, 12, size=3) for _ in range(4)] + [
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 1.1125369292536007e-308),
        (5e-324, -5e-324, 2.2e-308),
    ]
    for theta in thetas:
        g = _sector_generator(n, theta)
        got = optimize._propagate(g)
        assert np.abs(got - _eigh_propagate(g)).max() < 1e-12, theta


def test_propagate_takes_eigh_past_the_crossover(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    reference = _sector_generator(8, REFERENCE_PULSE.as_array())
    got = optimize._propagate(reference)
    assert calls == []
    assert np.abs(got - _eigh_propagate(reference, eigh)).max() < 1e-12
    # ten times the reference angles need ~350 terms, past 1.5 per row of 72
    strong = 10 * reference
    got = optimize._propagate(strong)
    assert calls == [(72, 72)]
    assert np.abs(got - _eigh_propagate(strong, eigh)).max() < 1e-12


@pytest.mark.filterwarnings("error")
def test_overflowing_pulse_angles_raise_a_value_error():
    with pytest.raises(ValueError, match="overflow the generator"):
        pulse_state(ChainSpec(4), PulseParams(1e308, 1e308, 1e308))
    assert np.isfinite(pulse_state(ChainSpec(4), PulseParams(1e307, 1e307, 1e307)).amplitudes).all()
    # a finite generator whose eigenvalues are not
    with pytest.raises(ValueError, match="overflow the generator"):
        pulse_state(ChainSpec(4), PulseParams(1.7e308, 1.7e308, 0.0))


@pytest.mark.filterwarnings("error")
def test_nelder_mead_stops_at_the_first_point_past_the_float_range():
    points = []

    def unbounded(x):
        points.append(x)
        return -x[0]

    with pytest.raises(optimize._Stop):
        optimize._nelder_mead(unbounded, np.zeros(3))
    assert np.isfinite(points).all() and points[-1][0] > 1e307


@pytest.mark.filterwarnings("error")
def test_search_near_the_float_range_keeps_its_budget():
    # the centroid of three points near 1e308 is in range, though their sum is not
    result = optimize_pulse(ChainSpec(4), PulseParams(1.0, 1e308, 0.0), budget=8)
    assert result.evaluations == 8
    assert result.ratio >= result.trace[0][2]


@pytest.mark.filterwarnings("error")
def test_search_ends_at_its_first_point_past_the_float_range():
    result = optimize_pulse(ChainSpec(4), PulseParams(1.0, 1e308, 0.0), budget=200)
    assert 8 < result.evaluations < 200
    assert np.isfinite([point for _, point, _ in result.trace]).all()
