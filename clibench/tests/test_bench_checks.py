import copy
import json

import pytest

import checks

CLUSTER = ["cluster-witness", "--n", "10"]
MOMENTS = ["moments-compare", "--n", "9"]
SCAN = ["decoherence-scan", "--n", "10", "--steps", "3"]
PULSE = ["pulse", "--n", "8", "--params=-3.2,-9.6,0.8", "--optimize", "--budget", "40"]
HEIS = ["heisenberg", "--n", "6"]
SINGLET = ["singlet-suite", "--n", "3"]


def _reports(witness, squared, variance):
    return [{"name": "witness", "value": witness},
            {"name": "squared_witness", "value": squared},
            {"name": "variance_x", "value": variance}]


# Documents holding the paper's values, in the shape the CLI prints.
GOOD = {
    "cluster-witness": {"command": "cluster-witness", "results": {"reports": {
        "cluster": _reports(10.0, 10.0, 0.0),
        "saturating_product": _reports(4.999999999999998, 5.0, 5.0),
        "totally_mixed": _reports(0.0, 0.0, 10.0)}}},
    "moments-compare": {"command": "moments-compare", "results": {
        "cluster_vs_mixed": {"indistinguishable": True, "differences": [[1e-16, 1e-14]] * 3},
        "moment_matching_state": {"max_table_difference": 1e-16}}},
    "decoherence-scan": {"command": "decoherence-scan", "results": {
        "rows": [{"p": 0.5, "value": 0.0}, {"p": 0.75, "value": 5.0}, {"p": 1.0, "value": 10.0}],
        "summary": {"slope_value_over_n": 2.0, "crossing_p_bisection": 0.75048828125}}},
    "pulse": {"command": "pulse", "results": {
        "ratio": 0.283682226549712,
        "optimized": {"ratio": 0.3269201566775122, "evaluations": 40}}},
    "heisenberg": {"command": "heisenberg", "results": {
        "energy": -2.4935771338879267, "report": {"value": 1e-31},
        "total_spin_squared": -6e-17}},
    "singlet-suite": {"command": "singlet-suite", "results": {
        "report": {"value": 0.0, "bound": 2.9999999999999982}, "total_spin_squared": 0.0}},
}
ARGV = {"cluster-witness": CLUSTER, "moments-compare": MOMENTS, "decoherence-scan": SCAN,
        "pulse": PULSE, "heisenberg": HEIS, "singlet-suite": SINGLET}


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


CORRUPTIONS = [
    ("cluster-witness", ("results", "reports", "cluster", 0, "value"), 9.0),
    ("cluster-witness", ("results", "reports", "cluster", 1, "value"), 10.001),
    ("cluster-witness", ("results", "reports", "cluster", 2, "value"), 1e-6),
    ("cluster-witness", ("results", "reports", "saturating_product", 0, "value"), 6.0),
    ("cluster-witness", ("results", "reports", "totally_mixed", 0, "value"), 0.5),
    ("moments-compare", ("results", "cluster_vs_mixed", "indistinguishable"), False),
    ("moments-compare", ("results", "cluster_vs_mixed", "differences"), [[0.0, 0.25]]),
    ("moments-compare", ("results", "moment_matching_state", "max_table_difference"), 1e-3),
    ("decoherence-scan", ("results", "rows", 1, "value"), 5.1),
    ("decoherence-scan", ("results", "summary", "slope_value_over_n"), 1.9),
    ("decoherence-scan", ("results", "summary", "crossing_p_bisection"), 0.76),
    ("decoherence-scan", ("results", "rows"), []),
    ("pulse", ("results", "ratio"), 0.2836822),
    ("pulse", ("results", "optimized", "ratio"), 0.2),
    ("pulse", ("results", "optimized", "evaluations"), 41),
    ("heisenberg", ("results", "energy"), -2.49),
    ("heisenberg", ("results", "report", "value"), 0.1),
    ("heisenberg", ("results", "total_spin_squared"), 2.0),
    ("singlet-suite", ("results", "report", "value"), 0.5),
    ("singlet-suite", ("results", "report", "bound"), 6.0),
    ("singlet-suite", ("results", "report", "value"), None),
    ("singlet-suite", ("command",), "heisenberg"),
    ("heisenberg", ("results",), {}),
]


@pytest.mark.parametrize("command", sorted(GOOD))
def test_paper_values_pass(command):
    assert checks.check(ARGV[command], copy.deepcopy(GOOD[command])) == []


@pytest.mark.parametrize("command,path,value", CORRUPTIONS)
def test_corrupted_document_fails(command, path, value):
    doc = copy.deepcopy(GOOD[command])
    _set(doc, path, value)
    assert checks.check(ARGV[command], doc)


def test_non_document_fails():
    assert checks.check(HEIS, None)
    assert checks.check(HEIS, [1, 2])


def test_real_output_passes(capsys):
    from qlatwit import cli

    assert cli.main(SINGLET) == 0
    assert checks.check(SINGLET, json.loads(capsys.readouterr().out)) == []
