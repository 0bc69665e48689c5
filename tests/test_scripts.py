"""Smoke runs of the experiment scripts at small sizes, each in its own process."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def script_process(name, *args, preexec_fn=None, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=preexec_fn,
    )


def run_script(name, *args):
    proc = script_process(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def limit_address_space_to_2_gib():
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_moment_tables():
    out = run_script("moment_tables.py", "--n", "6", "--max-order", "3")
    assert "cluster vs fully mixed, 6 sites, orders 1..3" in out
    assert "max anticommutator-table difference" in out


def test_moment_tables_refuses_a_huge_order_before_allocating():
    # the order tuple alone would take ~8 GB; the library refuses the order
    # before building it, so the script ends in a ValueError, not a MemoryError
    proc = script_process("moment_tables.py", "--n", "4", "--max-order", "1000000000",
                          preexec_fn=limit_address_space_to_2_gib, OPENBLAS_NUM_THREADS="1")
    assert proc.returncode != 0
    assert "ValueError: max_order must be between 1 and 1023" in proc.stderr
    assert "MemoryError" not in proc.stderr


def test_decoherence_scan(tmp_path):
    out = run_script("decoherence_scan.py", "--sizes", "4", "--steps", "3", "--out-dir", tmp_path)
    assert "n=4: witness crosses its bound at p = 0.75" in out
    rows = (tmp_path / "decoherence_scan.csv").read_text().splitlines()
    assert rows[0] == "n,p,value,bound,violated" and len(rows) == 4
    curve = (tmp_path / "witness_decay_n4.dat").read_text().split()
    assert float(curve[-1]) == pytest.approx(1.0, abs=1e-12)  # value / n at p = 1


def test_pulse_search_prints_the_start_ratio(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    out = run_script("pulse_search.py", "--n", "4", "--budget", "10", "--trace", trace_path)
    first = json.loads(trace_path.read_text().splitlines()[0])
    start_line = next(line for line in out.splitlines() if line.startswith("start   ratio:"))
    assert float(start_line.split(":")[1]) == pytest.approx(first["ratio"], abs=1e-12)
