import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qlatwit import cli
from qlatwit.cli import main


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


def python_process(code, **env_vars):
    """``code`` run in a fresh interpreter that imports qlatwit from src/."""
    env = dict(os.environ, **env_vars)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def run_python(code):
    """Stdout of ``code`` run by ``python_process``, which must exit 0."""
    proc = python_process(code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_linalg_unloaded():
    # no command uses scipy, and only --format csv writes CSV; every module
    # loaded at start-up is paid for by each short command
    code = ("import qlatwit.cli, sys\n"
            "print(*(m in sys.modules for m in ('scipy', 'scipy.linalg', 'csv')))")
    assert run_python(code) == "False False False"


def test_cli_import_leaves_dataclasses_unloaded():
    # the value classes are qcore.Record subclasses, which generate no code at import
    assert run_python("import qlatwit.cli, sys; print('dataclasses' in sys.modules)") == "False"


# each command's options with their defaults, and a small run of it
OUTPUT_OPTIONS = {"format": "json", "out": None}
COMMAND_OPTIONS = {
    "cluster-witness": ({"n": None}, ["--n", "2"]),
    "decoherence-scan": ({"n": None, "p_min": 0.5, "p_max": 1.0, "steps": 11},
                         ["--n", "2", "--steps", "2"]),
    "singlet-suite": ({"n": None}, ["--n", "1"]),
    "heisenberg": ({"n": None}, ["--n", "2"]),
    "moments-compare": ({"n": None, "max_order": 4}, ["--n", "2"]),
    "pulse": ({"n": 6, "params": None, "optimize": False, "budget": 200, "seed": 0,
               "trace": None}, ["--n", "2", "--params=1,1,0.3"]),
}


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_each_command_takes_and_records_only_its_own_options(name, capsys):
    defaults, argv = COMMAND_OPTIONS[name]
    args = cli.build_parser().parse_args([name])
    assert vars(args) == {"command": name, **defaults, **OUTPUT_OPTIONS}
    # --trace, like --format and --out, routes output and is not recorded
    config = run_json(capsys, [name, *argv])["config"]
    assert set(config) == set(defaults) - {"trace"}


@pytest.mark.parametrize("argv", [
    ["heisenberg", "--n", "4", "--seed", "3"],
    ["pulse", "--n", "4", "--params=1,1,0.3", "--steps", "3"],
    ["cluster-witness", "--n", "4", "--max-order", "2"],
])
def test_another_commands_option_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert "unrecognized arguments" in captured.err
    assert captured.out == ""


def test_heisenberg_leaves_scipy_linalg_and_sparse_unloaded():
    code = ("import contextlib, io, sys; from qlatwit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()): rc = main(['heisenberg', '--n', '6'])\n"
            "print(rc, *(m in sys.modules for m in ('scipy', 'scipy.linalg', 'scipy.sparse')))")
    assert run_python(code) == "0 False False False"


@pytest.mark.parametrize("argv", [
    ["heisenberg", "--n", "6"],
    ["pulse", "--n", "4", "--params=1,1,0.3"],
    ["cluster-witness", "--n", "4"],
    ["moments-compare", "--n", "4"],
    ["singlet-suite", "--n", "2"],
    ["decoherence-scan", "--n", "4", "--steps", "2"],
])
def test_each_command_runs_without_scipy(argv):
    # scipy is only a test dependency; a None entry makes any import of it fail
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from qlatwit.cli import main\n"
            f"sys.exit(main({argv!r}))")
    proc = python_process(code)
    assert proc.returncode == 0, proc.stderr
    # numpy is listed exactly when the command loaded it, which all but the scan, the
    # witness and the moment comparison do
    numpy_free = argv[0] in ("decoherence-scan", "cluster-witness", "moments-compare")
    versions = ["python", "qlatwit"] if numpy_free else ["numpy", "python", "qlatwit"]
    assert sorted(json.loads(proc.stdout)["versions"]) == versions


@pytest.mark.parametrize("argv", [
    None,
    ["--help"],
    ["decoherence-scan", "--n", "4", "--bogus"],
    ["decoherence-scan", "--n", "12", "--steps", "11"],
    ["decoherence-scan", "--n", "12", "--steps", "11", "--format", "csv"],
    ["cluster-witness", "--n", "12"],
    ["moments-compare", "--n", "9"],
])
def test_the_scan_usage_and_import_leave_numpy_unloaded(argv):
    # the echo is scalar arithmetic, the witness and the moment comparison read
    # stabilizer tables, and numpy costs ~120 ms and ~13 MB to import
    code = "import contextlib, io, sys; from qlatwit.cli import main\n"
    if argv is not None:
        code += ("with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
                 f"    try: main({argv!r})\n"
                 "    except SystemExit: pass\n")
    assert run_python(code + "print('numpy' in sys.modules)") == "False"


SCAN_12 = ["decoherence-scan", "--n", "12", "--steps", "11"]
WITNESS_12 = ["cluster-witness", "--n", "12"]
MOMENTS_9 = ["moments-compare", "--n", "9"]
MOMENTS_12 = ["moments-compare", "--n", "12", "--max-order", "396"]


def run_with_numpy_blocked(argv):
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from qlatwit.cli import main\n"
            f"sys.exit(main({argv!r}))")
    return python_process(code)


@pytest.mark.parametrize("argv,fmt", [
    pytest.param(SCAN_12, "json", id="json"),
    pytest.param(SCAN_12, "csv", id="csv"),
    pytest.param(WITNESS_12, "json", id="cluster-witness-json"),
    pytest.param(WITNESS_12, "csv", id="cluster-witness-csv"),
    pytest.param(MOMENTS_9, "json", id="moments-compare-json"),
    pytest.param(MOMENTS_9, "csv", id="moments-compare-csv"),
    pytest.param(MOMENTS_12, "json", id="moments-compare-order-396-json"),
])
def test_decoherence_scan_runs_with_numpy_blocked(argv, fmt):
    proc = run_with_numpy_blocked(argv + ["--format", fmt])
    assert proc.returncode == 0, proc.stderr
    if fmt == "csv":
        # a header and one row per grid point, per state and criterion, or per axis and order
        assert len(proc.stdout.splitlines()) == {SCAN_12[0]: 12, WITNESS_12[0]: 10, MOMENTS_9[0]: 13}[argv[0]]
        return
    doc = json.loads(proc.stdout)
    assert sorted(doc["versions"]) == ["python", "qlatwit"]
    if argv is SCAN_12:
        assert doc["results"]["summary"]["crossing_p_fit"] == pytest.approx(0.75, abs=1e-12)
    elif argv[0] == "moments-compare":
        # the laws agree along x, y and z up to these orders, so every difference is an
        # exact zero, and the moments-matching table is the cluster's, exactly
        section, matching = doc["results"]["cluster_vs_mixed"], doc["results"]["moment_matching_state"]
        assert section["indistinguishable"] and {d for row in section["differences"] for d in row} == {0.0}
        half = int(argv[2]) / 2
        assert matching["anticommutator_cluster"] == [[half, 0, 1], [0, half, 0], [1, 0, half]]
        assert matching["anticommutator_separable"] == matching["anticommutator_cluster"]
        assert matching["max_table_difference"] == 0.0
    else:
        values = {label: [r["value"] for r in reps] for label, reps in doc["results"]["reports"].items()}
        # witness, squared and variance_x, each an exact integer
        assert values == {"cluster": [12.0, 12.0, 0.0], "saturating_product": [6.0, 6.0, 6.0],
                          "totally_mixed": [0.0, 0.0, 12.0]}


def test_an_overflowing_order_is_one_line_with_numpy_blocked():
    # 6^397 overflows in the pure-Python moment as in the array one
    proc = run_with_numpy_blocked(["moments-compare", "--n", "12", "--max-order", "397"])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "order-397 moment overflows double precision" in proc.stderr


def test_pulse_optimize_adds_no_numpy_random():
    # the seeded restarts draw from the standard library's random module; numpy
    # 1.x imports numpy.random itself, so only what the command adds is checked
    code = ("import contextlib, io, sys; from qlatwit.cli import main\n"
            "before = 'numpy.random' in sys.modules\n"
            "argv = ['pulse', '--n', '8', '--params=-3.2,-9.6,0.8', '--optimize', '--budget', '40']\n"
            "with contextlib.redirect_stdout(io.StringIO()): rc = main(argv)\n"
            "print(rc, before, 'numpy.random' in sys.modules)")
    rc, before, after = run_python(code).split()
    assert rc == "0"
    assert after == before


def assert_no_eigensolver_call_and_no_new_random(argv):
    # the pulse takes a Chebyshev series, moments-compare the stabilizer laws
    # of its two states and the Heisenberg sector a Lanczos run; a first LAPACK
    # eigensolver call costs 0.5-2.2 MB of memory.  numpy 1.x imports
    # numpy.random itself, so only what the command adds is checked
    code = ("import contextlib, io, sys, numpy.linalg as la\n"
            "calls = []\n"
            "def counted(name, solve):\n"
            "    return lambda *a, **k: calls.append(name) or solve(*a, **k)\n"
            "for name in ('eigh', 'eigvalsh', 'svd'):\n"
            "    setattr(la, name, counted(name, getattr(la, name)))\n"
            "from qlatwit.cli import main\n"
            "before = 'numpy.random' in sys.modules\n"
            f"with contextlib.redirect_stdout(io.StringIO()): rc = main({argv!r})\n"
            "print(rc, calls, ('numpy.random' in sys.modules) == before)")
    assert run_python(code) == "0 [] True"


@pytest.mark.parametrize("argv", [
    ["pulse", "--n", "8", "--params=-3.2,-9.6,0.8", "--optimize", "--budget", "40"],
    ["moments-compare", "--n", "9"],
])
def test_pulse_search_and_moments_compare_call_no_lapack_eigensolver(argv):
    assert_no_eigensolver_call_and_no_new_random(argv)


def test_pulse_search_calls_no_numpy_sort():
    # the simplex orders its four vertices with Python's stable sorted(); a
    # first numpy sort faults in ~0.24 MB of its SIMD sort code
    argv = ["pulse", "--n", "8", "--params=-3.2,-9.6,0.8", "--optimize", "--budget", "40"]
    code = ("import contextlib, io, numpy\n"
            "calls = []\n"
            "def counted(name, sort):\n"
            "    return lambda *a, **k: calls.append(name) or sort(*a, **k)\n"
            "for name in ('argsort', 'sort'):\n"
            "    setattr(numpy, name, counted(name, getattr(numpy, name)))\n"
            "from qlatwit.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()): rc = main({argv!r})\n"
            "print(rc, calls)")
    assert run_python(code) == "0 []"


@pytest.mark.parametrize("argv", [
    ["heisenberg", "--n", "2"],
    ["heisenberg", "--n", "6"],
    ["heisenberg", "--n", "14"],
    ["singlet-suite", "--n", "3"],
])
def test_lattice_ground_commands_call_no_lapack_eigensolver(argv):
    assert_no_eigensolver_call_and_no_new_random(argv)


def peak_rss_mb(args):
    """Peak resident memory of ``python <args>`` run to a 0 exit with src/ on
    the path and one BLAS thread, read from ``os.wait4`` in MB."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, args
    return usage.ru_maxrss / 1024


NUMPY_BASELINE = ["-c", "import numpy; numpy.linalg.eigh(numpy.eye(2))"]
CLI_BASELINE = ["-c", "import qlatwit.cli"]


# Each command at its cap holds megabytes above its baseline child, not the
# 268 MB of one dense 4096^2 complex operator.  Measured above the baseline
# (2 vCPUs, OpenBLAS): pulse 6.3 MB, heisenberg 4.5 MB, singlet-suite 2.0 MB; the
# scan 36.6 MB, its 10^5 rows.  cluster-witness and moments-compare read
# stabilizer tables and load no numpy: cluster-witness -0.03 to 0.09 MB and
# moments-compare 0.0 MB (7 of 7 runs) above `import qlatwit.cli`, so 2 MB is far
# below the ~13 MB that importing numpy would add.
CAP_RUNS = [
    (["cluster-witness", "--n", "12"], CLI_BASELINE, 2),
    (["moments-compare", "--n", "12", "--max-order", "396"], CLI_BASELINE, 2),
    (["pulse", "--n", "10", "--params=-3.2,-9.6,0.8", "--optimize", "--budget", "100", "--seed", "1"],
     NUMPY_BASELINE, 16),
    (["heisenberg", "--n", "14"], NUMPY_BASELINE, 16),
    (["singlet-suite", "--n", "1000"], NUMPY_BASELINE, 16),
    (["decoherence-scan", "--n", "1000000", "--steps", "100000"], CLI_BASELINE, 64),
]


@pytest.mark.parametrize("argv,baseline,bound_mb", CAP_RUNS, ids=[argv[0] for argv, _, _ in CAP_RUNS])
def test_each_command_at_its_cap_fits_in_megabytes(argv, baseline, bound_mb):
    base = peak_rss_mb(baseline)
    assert peak_rss_mb(["-m", "qlatwit.cli", *argv]) - base < bound_mb


# ---------------------------------------------------------------------------
# cluster-witness


def test_cluster_witness_reports(capsys):
    doc = run_json(capsys, ["cluster-witness", "--n", "6"])
    reports = doc["results"]["reports"]
    by_name = {r["name"]: r for r in reports["cluster"]}
    assert by_name["witness"]["value"] == pytest.approx(6.0, abs=1e-9)
    assert by_name["witness"]["violated"] is True
    sat = {r["name"]: r for r in reports["saturating_product"]}
    assert sat["witness"]["violated"] is False
    assert sat["witness"]["margin"] == pytest.approx(0.0, abs=1e-9)
    mixed = {r["name"]: r for r in reports["totally_mixed"]}
    assert mixed["witness"]["value"] == pytest.approx(0.0, abs=1e-9)


def test_cluster_witness_rejects_odd_size(capsys):
    rc = main(["cluster-witness", "--n", "5"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "even" in captured.err
    assert captured.out == ""


def test_violation_never_changes_exit_code(capsys):
    assert main(["cluster-witness", "--n", "4"]) == 0


def test_json_output_is_reproducible(capsys):
    a = main(["cluster-witness", "--n", "4"])
    text_a = capsys.readouterr().out
    b = main(["cluster-witness", "--n", "4"])
    text_b = capsys.readouterr().out
    assert a == b == 0
    assert text_a == text_b


def test_json_includes_command_config_versions():
    # in a fresh process, so the versions are what the command loaded, not what
    # this test module imported: the witness loads no numpy
    doc = json.loads(run_python("from qlatwit.cli import main; main(['cluster-witness', '--n', '4'])"))
    assert doc["command"] == "cluster-witness"
    assert doc["config"]["n"] == 4
    assert sorted(doc["versions"]) == ["python", "qlatwit"]


# ---------------------------------------------------------------------------
# decoherence-scan


def test_decoherence_scan_summary(capsys):
    doc = run_json(
        capsys,
        ["decoherence-scan", "--n", "6", "--p-min", "0.5", "--p-max", "1.0", "--steps", "11"],
    )
    summary = doc["results"]["summary"]
    assert summary["slope_value_over_n"] == pytest.approx(2.0, abs=1e-6)
    assert summary["crossing_p_fit"] == pytest.approx(0.75, abs=1e-6)
    assert summary["crossing_p_bisection"] == pytest.approx(0.75, abs=1e-3)
    rows = doc["results"]["rows"]
    assert len(rows) == 11
    assert rows[-1]["value"] == pytest.approx(6.0, abs=1e-9)


def test_decoherence_scan_csv_format(capsys, tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(
        ["decoherence-scan", "--n", "4", "--steps", "6", "--format", "csv", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "slope_value_over_n" in captured.err
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert rows[0]["p"] == "0.5"
    assert "," not in rows[-1]["value"]  # one numeric token per cell
    assert float(rows[-1]["value"]) == pytest.approx(4.0, abs=1e-9)


@pytest.mark.parametrize("argv, header", [
    (["cluster-witness", "--n", "4"], "state,criterion,value,bound,violated,margin"),
    (["decoherence-scan", "--n", "4", "--steps", "2"], "p,value,bound,violated"),
    (["singlet-suite", "--n", "1"], "quantity,value"),
    (["heisenberg", "--n", "2"], "quantity,value"),
    (["moments-compare", "--n", "2"], "axis,order,difference"),
    (["pulse", "--n", "3", "--params=1,1,0.3"], "stage,theta_xx,theta_yy,theta_z,ratio"),
    (["pulse", "--n", "3", "--optimize", "--budget", "2"], "stage,theta_xx,theta_yy,theta_z,ratio"),
])
def test_each_command_writes_its_csv_header(argv, header, capsys):
    assert main(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.split("\n", 1)[0] == header


@pytest.mark.parametrize("steps", range(2, 12))
def test_line_fit_matches_polyfit(steps):
    rng = np.random.default_rng(steps)
    x = np.sort(rng.uniform(0.5, 1.0, size=steps))
    y = 2 * x - 1 + rng.normal(0.0, 0.1, size=steps)
    want = np.polyfit(x, y, 1)
    assert np.allclose(cli._fit_line(x, y), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("lo, hi", [
    (0.5, 1.0), (0.5, 0.75), (0.6, 0.9), (0.75, 1.0), (0.51, 0.99), (0.1, 0.7), (0.5, 0.5000000000000001),
    (0.9999999999999999, 1.0), (0.7071067811865476, 0.9),
])
def test_scan_grid_equals_linspace(lo, hi):
    for steps in [*range(1, 130), 1000, 4097, 99_999]:
        assert cli._grid(lo, hi, steps) == np.linspace(lo, hi, steps).tolist(), steps


def test_decoherence_scan_caps_the_grid_before_building_it(capsys, monkeypatch):
    # 3e8 points would be a 2.4 GB grid; the refusal comes first
    assert cli._MAX_STEPS == 100_000
    for cap, steps in ((cli._MAX_STEPS, cli._MAX_STEPS + 1), (cli._MAX_STEPS, 300_000_000), (5, 6)):
        monkeypatch.setattr(cli, "_MAX_STEPS", cap)
        rc = main(["decoherence-scan", "--n", "4", "--steps", str(steps)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: --steps must be at most {cap}\n"
        assert captured.out == ""
    # the cap itself is allowed
    assert len(run_json(capsys, ["decoherence-scan", "--n", "4", "--steps", "5"])["results"]["rows"]) == 5


def test_decoherence_scan_rejects_empty_grid(capsys):
    rc = main(["decoherence-scan", "--n", "4", "--steps", "0"])
    assert rc == 1
    assert "grid" in capsys.readouterr().err


def test_decoherence_scan_rejects_bad_range(capsys):
    rc = main(["decoherence-scan", "--n", "4", "--p-min", "0.2"])
    assert rc == 1


def test_decoherence_scan_rejects_a_repeated_grid_point(capsys):
    # a fit through copies of one point would report a fabricated slope
    argv = ["decoherence-scan", "--n", "4", "--p-min", "0.8", "--p-max", "0.8", "--steps", "3"]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: need p-min < p-max for more than one grid point\n"
    assert captured.out == ""


def test_decoherence_scan_single_point_is_allowed(capsys):
    doc = run_json(capsys, ["decoherence-scan", "--n", "4", "--p-min", "0.8", "--p-max", "0.8",
                            "--steps", "1"])
    assert doc["results"]["rows"][0]["value"] == pytest.approx(4 * (2 * 0.8 - 1), abs=1e-9)
    assert "slope_value_over_n" not in doc["results"]["summary"]


def test_decoherence_scan_runs_up_to_the_dimension_cap(capsys):
    doc = run_json(capsys, ["decoherence-scan", "--n", "12", "--steps", "2"])
    assert doc["results"]["summary"]["crossing_p_bisection"] == 0.75048828125
    assert cli._MAX_SCAN_SITES == 1_000_000
    rc = main(["decoherence-scan", "--n", "1000002", "--steps", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_decoherence_scan_takes_a_hundred_thousand_sites(capsys):
    # the echo is O(n), so the scan reaches lattice sizes
    n = 100_000
    results = run_json(capsys, ["decoherence-scan", "--n", str(n), "--steps", "3"])["results"]
    rows = results["rows"]
    assert [r["p"] for r in rows] == [0.5, 0.75, 1.0]
    assert rows[-1]["value"] == n and rows[-1]["violated"] is True
    assert all(r["bound"] == n / 2 for r in rows)
    assert results["summary"]["crossing_p_fit"] == pytest.approx(0.75, abs=1e-12)
    assert results["summary"]["crossing_p_bisection"] == pytest.approx(0.75, abs=1e-3)


@pytest.mark.parametrize("dest", ["stdout", "out"])
def test_json_spanning_several_write_batches_is_the_one_shot_text(capsys, tmp_path, dest):
    argv = ["decoherence-scan", "--n", "4", "--steps", "5000"]
    out = tmp_path / "scan.json"
    assert main(argv + (["--out", str(out)] if dest == "out" else [])) == 0
    text = capsys.readouterr().out if dest == "stdout" else out.read_text()
    doc = json.loads(text)
    assert len(doc["results"]["rows"]) == 5000
    # the document is several batches of 2^14 encoder chunks
    assert sum(1 for _ in json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)) > 3 << 14
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# singlet-suite / heisenberg


def test_singlet_suite(capsys):
    doc = run_json(capsys, ["singlet-suite", "--n", "2"])
    rep = doc["results"]["report"]
    assert rep["value"] == pytest.approx(0.0, abs=1e-9)
    assert rep["bound"] == pytest.approx(2.0, abs=1e-9)
    assert rep["violated"] is True
    assert doc["results"]["total_spin_squared"] == pytest.approx(0.0, abs=1e-9)


def test_singlet_suite_respects_cap(capsys):
    assert cli._MAX_PAIRS == 1000
    rc = main(["singlet-suite", "--n", "1001"])
    assert rc == 1
    assert "cap" in capsys.readouterr().err


def test_singlet_suite_runs_ten_pairs(capsys):
    doc = run_json(capsys, ["singlet-suite", "--n", "10"])
    rep = doc["results"]["report"]
    assert rep["value"] == pytest.approx(0.0, abs=1e-9)
    assert rep["bound"] == pytest.approx(10.0, abs=1e-9)
    assert rep["violated"] is True


def test_singlet_suite_runs_a_thousand_pairs(capsys):
    rep = run_json(capsys, ["singlet-suite", "--n", "1000"])["results"]["report"]
    assert rep["value"] == pytest.approx(0.0, abs=1e-9)
    assert rep["bound"] == pytest.approx(1000.0, abs=1e-9)
    assert rep["violated"] is True


def test_heisenberg_two_sites(capsys):
    doc = run_json(capsys, ["heisenberg", "--n", "2"])
    assert doc["results"]["singlet_fidelity"] > 1 - 1e-10
    assert doc["results"]["energy"] == pytest.approx(-0.75, abs=1e-9)


def test_heisenberg_four_sites_violates(capsys):
    doc = run_json(capsys, ["heisenberg", "--n", "4"])
    assert doc["results"]["report"]["violated"] is True
    assert doc["results"]["total_spin_squared"] == pytest.approx(0.0, abs=1e-9)


def test_heisenberg_twelve_sites_violates(capsys):
    doc = run_json(capsys, ["heisenberg", "--n", "12"])
    assert doc["results"]["report"]["violated"] is True
    assert doc["results"]["total_spin_squared"] < 1e-9


def test_heisenberg_refuses_a_sector_past_the_cap(capsys):
    # C(15, 7) = 6435 basis states exceed the default cap of 4096
    rc = main(["heisenberg", "--n", "15"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "cap" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["singlet-suite", "--n", "1001"], ["singlet-suite", "--n", "100000000"],
     ["heisenberg", "--n", "1000000"]],
)
def test_oversized_lattices_are_refused_in_one_short_line(argv, capsys):
    # the exact dimension would be a number of up to ~10^8 digits; it is never formed
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err) < 200
    assert captured.out == ""


# ---------------------------------------------------------------------------
# moments-compare


def test_moments_compare_cluster_nine(capsys):
    doc = run_json(capsys, ["moments-compare", "--n", "9", "--max-order", "4"])
    section = doc["results"]["cluster_vs_mixed"]
    assert section["indistinguishable"] is True
    flat = [d for row in section["differences"] for d in row]
    assert max(flat) < 1e-9
    matching = doc["results"]["moment_matching_state"]
    assert matching["max_table_difference"] < 1e-9


def test_moments_compare_small_chain(capsys):
    doc = run_json(capsys, ["moments-compare", "--n", "4"])
    assert doc["results"]["cluster_vs_mixed"]["indistinguishable"] is True
    assert "moment_matching_state" in doc["results"]


def test_moments_compare_rejects_oversize(capsys):
    rc = main(["moments-compare", "--n", "13"])
    assert rc == 1


def test_moments_compare_twelve_sites(capsys):
    doc = run_json(capsys, ["moments-compare", "--n", "12"])
    assert doc["results"]["cluster_vs_mixed"]["indistinguishable"] is True
    assert doc["results"]["moment_matching_state"]["max_table_difference"] < 1e-9


def test_moments_compare_overflowing_order_is_one_line_error(capsys):
    # (n/2)^397 = 6^397 overflows double precision; the document must not carry NaN
    rc = main(["moments-compare", "--n", "12", "--max-order", "400"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_moments_compare_reads_twelve_sites_up_to_the_last_finite_order(capsys):
    # 6^396 is finite and 6^397 is not; round-off that grows as 6^m is no moment difference
    doc = run_json(capsys, ["moments-compare", "--n", "12", "--max-order", "396"])
    assert doc["results"]["cluster_vs_mixed"]["indistinguishable"] is True
    assert main(["moments-compare", "--n", "12", "--max-order", "397"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_moments_compare_refuses_a_huge_order_before_allocating():
    # the order tuple alone would take ~8 GB; under a 2 GiB address-space limit
    # the refusal must come before any allocation is attempted
    code = ("import contextlib, io, resource, sys; from qlatwit.cli import main\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "soft = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    rc = main(['moments-compare', '--n', '4', '--max-order', '1000000000'])\n"
            "print(rc, repr(out.getvalue()))")
    proc = python_process(code, OPENBLAS_NUM_THREADS="1")
    assert proc.stdout.strip() == "1 ''", proc.stderr
    assert proc.stderr.count("\n") == 1 and "--max-order" in proc.stderr


# ---------------------------------------------------------------------------
# pulse


def test_pulse_with_reference_parameters(capsys):
    doc = run_json(capsys, ["pulse", "--n", "6", "--params=-3.2,-9.6,0.8"])
    assert doc["results"]["ratio"] == pytest.approx(0.5, abs=0.15)
    assert doc["results"]["report"]["violated"] is True


def test_pulse_records_its_default_chain_length(capsys):
    doc = run_json(capsys, ["pulse", "--params=1,1,0.3"])
    assert doc["config"]["n"] == doc["results"]["n_sites"] == 6


def test_pulse_reference_ratio_at_eight_sites(capsys):
    doc = run_json(capsys, ["pulse", "--n", "8", "--params=-3.2,-9.6,0.8"])
    assert doc["results"]["ratio"] == pytest.approx(0.283682226549712, abs=1e-9)


def test_pulse_optimize_with_trace(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    doc = run_json(
        capsys,
        [
            "pulse", "--n", "4", "--params=-3.2,-9.6,0.8",
            "--optimize", "--budget", "60", "--seed", "5", "--trace", str(trace),
        ],
    )
    optimized = doc["results"]["optimized"]
    assert optimized["ratio"] >= doc["results"]["ratio"] - 1e-12
    lines = trace.read_text().strip().splitlines()
    assert len(lines) == optimized["evaluations"]
    first = json.loads(lines[0])
    assert set(first) == {"iteration", "params", "ratio"}
    # the search evaluates the given pulse first
    assert first["ratio"] == doc["results"]["ratio"]


def test_pulse_optimize_deterministic_given_seed(capsys):
    argv = ["pulse", "--n", "4", "--optimize", "--budget", "40", "--seed", "9"]
    assert main(argv) == 0
    text_a = capsys.readouterr().out
    assert main(argv) == 0
    text_b = capsys.readouterr().out
    assert text_a == text_b


def test_pulse_optimize_rejects_negative_seed(capsys):
    # at --budget 3 no restart runs, so the refusal cannot come from drawing one
    rc = main(["pulse", "--n", "4", "--params=-3.2,-9.6,0.8", "--optimize", "--budget", "3",
               "--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("budget", range(1, 6))
def test_pulse_optimize_stays_within_budget(capsys, budget):
    # the simplex's starting vertices count against the budget too
    argv = ["pulse", "--n", "4", "--params=-3.2,-9.6,0.8", "--optimize", "--budget", str(budget)]
    assert run_json(capsys, argv)["results"]["optimized"]["evaluations"] <= budget


@pytest.mark.parametrize("params", ["1e6,-1e6,3", "1e300,0,0"])
def test_pulse_with_huge_angles_finishes(capsys, params):
    ratio = run_json(capsys, ["pulse", "--n", "8", f"--params={params}"])["results"]["ratio"]
    assert -1.0 <= ratio <= 1.0


def test_pulse_with_overflowing_angles_fails_with_one_line(capsys):
    with np.errstate(over="ignore"):
        rc = main(["pulse", "--n", "8", "--params=1e308,1e308,1e308"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--n", "4", "--params=1e308,1e308,1e308"],
                                  ["--n", "10", "--params=-1e308,1e308,-1e308"]])
def test_pulse_overflow_is_one_line_error_in_a_fresh_process(argv):
    # no errstate here: numpy's overflow warning must not reach stderr either
    proc = python_process(f"import sys; from qlatwit.cli import main; sys.exit(main({['pulse', *argv]!r}))")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv, code", [
    # a finite generator whose spectrum overflows
    (["pulse", "--n", "4", "--params=1.7e308,1.7e308,0"], 1),
    # a search whose simplex points sum past the float range
    (["pulse", "--n", "4", "--params=1,1e308,0", "--optimize", "--budget", "8"], 0),
    # a p window of adjacent floats, where every value/n rounds alike and the slope is 0
    (["decoherence-scan", "--n", "12", "--p-min", "0.8412174306221887",
      "--p-max", "0.8412174306221888", "--steps", "3"], 1),
], ids=["pulse-spectrum", "pulse-centroid", "scan-narrow-window"])
def test_float_range_edges_end_cleanly_with_warnings_as_errors(argv, code):
    proc = python_process(f"import sys; from qlatwit.cli import main; sys.exit(main({argv!r}))",
                          PYTHONWARNINGS="error::RuntimeWarning")
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
    else:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_pulse_requires_parameters_or_optimize(capsys):
    rc = main(["pulse", "--n", "4"])
    assert rc == 1
    assert "params" in capsys.readouterr().err


def test_pulse_refuses_a_chain_past_the_generator_cap(capsys):
    rc = main(["pulse", "--n", "11", "--params=1,1,1"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: pulse needs --n between 2 and {cli.optimize._MAX_SITES}\n"


def test_pulse_rejects_malformed_params(capsys):
    rc = main(["pulse", "--n", "4", "--params", "1.0,2.0"])
    assert rc == 1


def test_pulse_trace_without_optimize_is_refused_before_any_build(tmp_path, capsys, monkeypatch):
    # a trace records the search, so without --optimize the path is refused, not ignored
    calls = []
    monkeypatch.setattr(cli.optimize, "pulse_state", lambda *a: calls.append(a))
    trace = tmp_path / "trace.jsonl"
    rc = main(["pulse", "--n", "4", "--params=1,1,0.3", "--trace", str(trace)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert calls == [] and not trace.exists()


# ---------------------------------------------------------------------------
# output plumbing


def test_out_file_json(tmp_path, capsys):
    out = tmp_path / "doc.json"
    rc = main(["heisenberg", "--n", "2", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "heisenberg"


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code != 0


def test_memory_error_becomes_one_line_error(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError("Unable to allocate 4.00 GiB")

    monkeypatch.setitem(cli._COMMANDS, "cluster-witness", exhausted)
    rc = main(["cluster-witness", "--n", "4"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: Unable to allocate 4.00 GiB\n"
    assert captured.out == ""


def test_unwritable_out_path_is_one_line_error(tmp_path, capsys):
    rc = main(["heisenberg", "--n", "2", "--out", str(tmp_path / "missing" / "doc.json")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_unwritable_trace_path_is_one_line_error(tmp_path, capsys):
    trace = tmp_path / "missing" / "trace.jsonl"
    rc = main(["pulse", "--n", "2", "--optimize", "--budget", "2", "--trace", str(trace)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_empty_trace_path_is_one_line_error(capsys):
    # an empty path is an unwritable path, not a missing --trace
    rc = main(["pulse", "--n", "2", "--optimize", "--budget", "2", "--trace", ""])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unwritable_trace_path_fails_before_the_search(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.optimize, "optimize_pulse", lambda *a, **k: calls.append(a))
    trace = tmp_path / "missing" / "trace.jsonl"
    rc = main(["pulse", "--n", "2", "--optimize", "--budget", "2", "--trace", str(trace)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert calls == []


@pytest.mark.parametrize("argv,code", [(["heisenberg", "--n", "2"], 0), (["heisenberg", "--n", "1"], 1)])
def test_entry_point_exit_codes(argv, code, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["qlatwit"] + argv)
    with pytest.raises(SystemExit) as err:
        cli.entry_point()
    capsys.readouterr()
    assert err.value.code == code
