"""End-to-end benchmark of the qlatwit command line.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: each command of the workload runs in a fresh
process, one at a time, because a CLI user pays the import and the cold
lru_caches on every invocation. A round runs every command of the workload
once, in an order drawn from the seed; rounds repeat until ``--seconds`` have
passed. Every output is checked against the paper's values (checks.py).
Children run with one BLAS thread, a 60 s timeout and a 2 GiB address space.

With ``--trace 0`` the last stdout line carries the end-to-end metrics (medians
over rounds). With ``--trace 1`` rounds run in pairs, untraced then traced in
the same order; the traced child wraps each layer's public functions
(spans.py) and the line carries per-layer metrics. ``--workload all`` runs every
workload in turn. Details, the environment and the spans go to
``.clibench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".clibench"
CHILD = HERE / "child.py"

COMMAND_TIMEOUT_S = 60  # seed's slowest command takes ~15 s
ADDRESS_SPACE_BYTES = 2 << 30  # seed's largest VmPeak is ~0.6 GB
RUN_DEADLINE_S = 170  # a run exits within 180 s
# Two BLAS threads on two vCPUs stall together whenever the host steals one
# vCPU: at 3% steal a round took 17% longer with two threads, 2% with one.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = {
    "witness_cold": [["cluster-witness", "--n", "10"], ["moments-compare", "--n", "9"]],
    "dephasing_scan": [["decoherence-scan", "--n", "10", "--steps", "3"]],
    "pulse_search": [["pulse", "--n", "8", "--params=-3.2,-9.6,0.8", "--optimize",
                      "--budget", "40", "--seed", "{seed}"]],
    "lattice_ground": [["heisenberg", "--n", "6"], ["singlet-suite", "--n", "3"]],
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "success_rate": "ratio"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_built"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def _child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child with wait4 for its own rusage; kill it at the timeout."""
    box = []
    reaper = threading.Thread(target=lambda: box.append(os.wait4(proc.pid, 0)), daemon=True)
    reaper.start()
    try:
        reaper.join(max(timeout, 0.0))
    finally:
        # not is_alive(): a signal raised inside join() marks the thread stopped
        timed_out = not box
        if timed_out:
            os.kill(proc.pid, signal.SIGKILL)
            reaper.join()
    _, status, usage = box[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, timed_out


def run_child(args: list[str], deadline: float) -> dict:
    """One child process; returns its timings, stdout and report."""
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        tmp = Path(tmp)
        cmd = [sys.executable, str(CHILD), "--report", str(tmp / "report.json")] + args
        with open(tmp / "out", "wb") as out, open(tmp / "err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=_child_env(),
                                    preexec_fn=_limit_child)
            code, usage, timed_out = _wait(proc, min(COMMAND_TIMEOUT_S, deadline - t0))
            wall = time.perf_counter() - t0
        try:
            report = json.loads((tmp / "report.json").read_text())
        except (OSError, json.JSONDecodeError):
            report = {}
        return {
            "exit": code,
            "timed_out": timed_out,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "stdout": (tmp / "out").read_bytes(),
            "stderr": (tmp / "err").read_text(errors="replace")[-2000:],
            "report": report,
        }


def run_command(argv: list[str], round_id: int, traced: bool, deadline: float) -> dict:
    res = run_child((["--trace"] if traced else []) + ["--"] + argv, deadline)
    problems = []
    if res["timed_out"]:
        problems.append("timed out")
    elif res["exit"] != 0:
        problems.append(f"exit code {res['exit']}: {res['stderr'].strip()[-300:]}")
    else:
        try:
            problems = checks.check(argv, json.loads(res["stdout"]))
        except json.JSONDecodeError as exc:
            problems = [f"stdout is not JSON: {exc}"]
    res.update(argv=argv, round=round_id, traced=traced, problems=problems)
    return res


def round_metrics(results: list[dict]) -> dict:
    return {
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }


def by_round(results: list[dict], traced: bool) -> list[list[dict]]:
    rounds: dict[int, list[dict]] = {}
    for r in results:
        if r["traced"] == traced:
            rounds.setdefault(r["round"], []).append(r)
    return list(rounds.values())


def medians(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def environment(deadline: float) -> dict:
    """Warm-up child: byte-compiles and pages in the imports, and records the
    environment. Fails if qlatwit is not importable from this checkout."""
    res = run_child(["--env"], deadline)
    env = res["report"].get("env")
    if res["exit"] != 0 or env is None:
        raise SystemExit(f"cannot import qlatwit.cli from {ROOT / 'src'}:\n{res['stderr']}")
    if not Path(env["qlatwit_file"]).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qlatwit imported from {env['qlatwit_file']}, not this checkout")
    env["nproc"] = len(os.sched_getaffinity(0))
    env["l3_bytes"] = _l3_bytes()
    env["git_commit"] = _git_commit()
    env["command_timeout_s"] = COMMAND_TIMEOUT_S
    env["address_space_bytes"] = ADDRESS_SPACE_BYTES
    return env


def _l3_bytes():
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                return int(size.rstrip("KM")) * {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
        except (OSError, ValueError):
            return None
    return None


def _steal_jiffies() -> int:
    """Time the host ran something else on this machine's CPUs (cpu line of /proc/stat)."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8])


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    """Rounds until ``seconds`` have passed; with ``trace``, each round runs
    untraced and then traced in the same order."""
    deadline = started + RUN_DEADLINE_S
    env = environment(deadline)
    rng = random.Random(seed)
    commands = [[a.replace("{seed}", str(seed % 2**31)) for a in argv]
                for argv in WORKLOADS[name]]
    results = []
    t_start, steal_start = time.perf_counter(), _steal_jiffies()
    round_id = 0
    while round_id == 0 or (time.perf_counter() - t_start < seconds
                            and time.perf_counter() < deadline):
        order = rng.sample(commands, len(commands))
        plain = [run_command(argv, round_id, False, deadline) for argv in order]
        results += plain
        if trace:
            for p in plain:
                t = run_command(p["argv"], round_id, True, deadline)
                if p["exit"] == 0 and t["stdout"] != p["stdout"]:
                    t["problems"].append("traced output differs from untraced output")
                results.append(t)
        round_id += 1
    # share of the CPUs taken by the host while the run measured; noisy runs show here
    env["cpu_steal_share"] = ((_steal_jiffies() - steal_start) / os.sysconf("SC_CLK_TCK")
                              / ((time.perf_counter() - t_start) * env["nproc"]))

    failed = sum(1 for r in results if r["problems"])
    if trace:
        metrics = traced_metrics(by_round(results, False), by_round(results, True))
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = medians([round_metrics(rnd) for rnd in by_round(results, False)])
        metrics["setup_s"] = statistics.median(r["report"]["setup_s"] for r in results
                                               if "setup_s" in r["report"])
        metrics["success_rate"] = (len(results) - failed) / len(results)
        units = END_TO_END_UNITS
    summary = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps({"workload": name, "error_rate": failed / len(results),
                      "environment": env}, sort_keys=True))
    save(f"{name}-seed{seed}-trace{int(trace)}", env, results, summary)
    return summary


def traced_metrics(plain_rounds: list[list[dict]], traced_rounds: list[list[dict]]) -> dict:
    """Per-layer metrics summed over each traced round; medians over rounds."""
    rows = []
    for plain, traced in zip(plain_rounds, traced_rounds):
        row = spans.layer_metrics([])
        row["cache.hits"] = row["cache.misses"] = 0
        for res in traced:
            for key, value in spans.layer_metrics(res["report"].get("spans", [])).items():
                row[key] += value
            cache = res["report"].get("cache", {})
            row["cache.hits"] += cache.get("hits", 0)
            row["cache.misses"] += cache.get("misses", 0)
        lookups = row["cache.hits"] + row["cache.misses"]
        row["cache.hit_ratio"] = row["cache.hits"] / lookups if lookups else 0.0
        row["trace.main_s"] = sum(r["report"].get("main_s", 0.0) for r in traced)
        row["trace.unattributed_s"] = row["trace.main_s"] - sum(
            row[f"{layer}.self_s"] for layer in spans.LAYERS)
        row["trace.overhead_s"] = (round_metrics(traced)["wall_s"]
                                   - round_metrics(plain)["wall_s"])
        rows.append(row)
    return medians(rows)


def save(stem: str, env: dict, results: list[dict], summary: dict) -> None:
    """Write the run's record, and the spans of a traced run, under .clibench/."""
    commands, all_spans = [], []
    for res in results:
        commands.append({key: res[key] for key in ("round", "traced", "argv", "exit",
                                                   "timed_out", "wall_s", "cpu_s", "rss_mb",
                                                   "problems")})
        commands[-1].update(setup_s=res["report"].get("setup_s"),
                            main_s=res["report"].get("main_s"))
        offset = len(all_spans)
        for span in res["report"].get("spans", []):
            parent = span["parent"]
            all_spans.append(dict(span, round=res["round"], command=res["argv"][0],
                                  parent=None if parent is None else parent + offset))
    record = {"environment": env, "commands": commands, "summary": summary,
              "error_rate": summary["failed"] / summary["attempted"]}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if all_spans:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(all_spans) + "\n")


def main() -> int:
    started = time.perf_counter()
    # a terminated run unwinds, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qlatwit" / "cli.py").is_file():
        print(f"error: no qlatwit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    if args.workload != "all":
        summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), started)
        print(json.dumps(summary))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               time.perf_counter())
        print(json.dumps({"workload": name, **summary}))
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in summary["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
