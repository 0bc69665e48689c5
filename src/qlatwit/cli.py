"""Command-line front end: named experiments with JSON/CSV artifacts.

Commands are deterministic given their configuration and seed; JSON output is
key-sorted so identical invocations produce byte-identical documents.  Data
level results ("violated" flags) never affect the exit status: 0 means the
run completed, nonzero means it could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys

from . import __version__, bosonic, channels, criteria, optimize, spinchain
# expectation is unused here; clibench/tests checks that its tracer rebinds this name
from .qcore import StabilizerState, expectation, np  # noqa: F401


def _versions() -> dict:
    versions = {"qlatwit": __version__, "python": ".".join(str(v) for v in sys.version_info[:3])}
    # numpy is listed when the command loaded it (decoherence-scan, cluster-witness and
    # moments-compare do not)
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        versions["numpy"] = numpy.__version__
    return versions


def _fmtsig(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_output(doc: dict, rows: list[dict], fmt: str, out_path: str | None) -> None:
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        if fmt == "json":
            # written in batches of encoder chunks, so the whole text is never held
            chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)
            while batch := "".join(itertools.islice(chunks, 1 << 14)):
                fh.write(batch)
            fh.write("\n")
        else:
            import csv  # only this branch writes CSV

            # every command returns at least one row, and its keys are the columns
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(rows[0].keys())
            writer.writerows([_fmtsig(v) for v in row.values()] for row in rows)


def _fit_line(x: list[float], y: list[float]) -> tuple[float, float]:
    """Least-squares slope and intercept of y against x, in closed form, from
    exactly rounded sums."""
    x_bar, y_bar = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [xi - x_bar for xi in x]
    slope = math.fsum(d * (yi - y_bar) for d, yi in zip(dx, y)) / math.fsum(d * d for d in dx)
    return slope, y_bar - slope * x_bar


def _grid(start: float, stop: float, steps: int) -> list[float]:
    """``steps`` evenly spaced points from start to stop, equal to np.linspace:
    point i is start + i * step, and the last point is stop itself."""
    if steps == 1:
        return [start]
    step = (stop - start) / (steps - 1)
    return [start + i * step for i in range(steps - 1)] + [stop]


# the largest --n of decoherence-scan; its echo is O(1) scalar arithmetic per grid point
_MAX_SCAN_SITES = 1_000_000
# the most pairs of singlet-suite, read block by block in O(n)
_MAX_PAIRS = 1000
# the most grid points of decoherence-scan, checked before the grid is built
_MAX_STEPS = 100_000


def _qubit_reports(state) -> list[dict]:
    return [
        criteria.witness_criterion(state).to_json_dict(),
        criteria.squared_criterion(state).to_json_dict(),
        criteria.variance_x_criterion(state).to_json_dict(),
    ]


def cmd_cluster_witness(args) -> tuple[dict, list[dict]]:
    n = args.n
    if n is None or n % 2 != 0 or not 2 <= n <= spinchain._MAX_QUBITS:
        raise ValueError(f"cluster-witness needs --n even, between 2 and {spinchain._MAX_QUBITS}")
    chain, sites = spinchain.ChainSpec(n), range(1, n + 1)
    # each state by its stabilizer generators, so every Pauli moment is read exactly:
    # the cluster, alternating +x / +z (the pattern that meets the witness bound)
    # and none for I / 2^n
    generators = {
        "cluster": spinchain.cluster_generators(chain),
        "saturating_product": [({k: "x" if k % 2 else "z"}, 1) for k in sites],
        "totally_mixed": [],
    }
    results = {label: _qubit_reports(StabilizerState(chain.space(), gens))
               for label, gens in generators.items()}
    rows = [
        {"state": label, "criterion": rep["name"], "value": rep["value"],
         "bound": rep["bound"], "violated": rep["violated"], "margin": rep["margin"]}
        for label, reps in results.items()
        for rep in reps
    ]
    return {"reports": results}, rows


def cmd_decoherence_scan(args) -> tuple[dict, list[dict]]:
    n = args.n
    if n is None or n % 2 != 0 or not 2 <= n <= _MAX_SCAN_SITES:
        raise ValueError(f"decoherence-scan needs --n even, between 2 and {_MAX_SCAN_SITES}")
    p_min, p_max, steps = args.p_min, args.p_max, args.steps
    if not 0.5 <= p_min <= p_max <= 1.0:
        raise ValueError("need 0.5 <= p-min <= p-max <= 1.0")
    if steps < 1:
        raise ValueError("need at least one grid point")
    if steps > _MAX_STEPS:
        raise ValueError(f"--steps must be at most {_MAX_STEPS}")
    if steps > 1 and p_min == p_max:
        raise ValueError("need p-min < p-max for more than one grid point")
    rows = []
    for p in _grid(p_min, p_max, steps):
        rep = channels.decoherence_experiment(n, p)
        rows.append({"p": p, "value": rep.value, "bound": rep.bound, "violated": rep.violated})
    if len(rows) > 1:
        slope, intercept = _fit_line([r["p"] for r in rows], [r["value"] / n for r in rows])
        if slope == 0.0:
            # over a few adjacent floats every value/n can round to one float
            raise ValueError("the p window is too narrow to fit: every value/n is the same float")
        summary = {
            "slope_value_over_n": slope,
            "intercept_value_over_n": intercept,
            "crossing_p_fit": (0.5 - intercept) / slope,
        }
    else:
        summary = {}
    summary["crossing_p_bisection"] = float(channels.witness_threshold(n))
    doc = {"rows": rows, "summary": summary}
    if args.format == "csv":
        for key, val in summary.items():
            print(f"{key} = {_fmtsig(val)}", file=sys.stderr)
    return doc, rows


def _uncertainty_summary(state) -> tuple[dict, list[dict], np.ndarray]:
    """The collective-uncertainty report and <J^2> of a lattice state, their CSV
    rows, and the mean spin <J>."""
    moments = criteria.collective_moments(state)
    report = criteria.uncertainty_report(moments)
    j_total_sq = float(np.trace(moments.second))
    doc = {"report": report.to_json_dict(), "total_spin_squared": j_total_sq}
    rows = [{"quantity": "variance_sum", "value": report.value},
            {"quantity": "bound", "value": report.bound},
            {"quantity": "total_spin_squared", "value": j_total_sq}]
    return doc, rows, moments.mean


def cmd_singlet_suite(args) -> tuple[dict, list[dict]]:
    n_pairs = args.n
    if n_pairs is None or not 1 <= n_pairs <= _MAX_PAIRS:
        raise ValueError(
            f"singlet-suite needs --n between 1 and {_MAX_PAIRS}: the cap is {_MAX_PAIRS} singlet pairs")
    doc, rows, mean = _uncertainty_summary(bosonic.singlet_chain(n_pairs))
    doc["mean_spin"] = dict(zip(spinchain.AXES, mean.tolist()))
    return doc, rows


def cmd_heisenberg(args) -> tuple[dict, list[dict]]:
    n = args.n
    if n is None or n < 2:
        raise ValueError("heisenberg needs --n >= 2 lattice sites")
    gs = bosonic.heisenberg_ground_state(n)  # sector dimension checked against the cap
    summary, rows, _ = _uncertainty_summary(gs.state)
    doc = {"energy": gs.energy, "degenerate": gs.degenerate, "gap": gs.gap, **summary}
    if n == 2:
        singlet = np.array([1.0, -1.0]) / np.sqrt(2)  # (|01> - |10>) / sqrt(2) on the sector |01>, |10>
        fidelity = float(abs(np.vdot(singlet, gs.state.amplitudes)) ** 2)
        doc["singlet_fidelity"] = fidelity
    return doc, [{"quantity": "energy", "value": gs.energy}] + rows


def cmd_moments_compare(args) -> tuple[dict, list[dict]]:
    n = args.n
    max_order = args.max_order
    if n is None or not 2 <= n <= spinchain._MAX_QUBITS:
        raise ValueError(f"moments-compare needs --n between 2 and {spinchain._MAX_QUBITS}")
    if not 1 <= max_order <= criteria.MAX_ORDER:
        raise ValueError(f"--max-order must be between 1 and {criteria.MAX_ORDER}")
    # every state by its stabilizer generators, so each law and moment is read exactly
    chain = spinchain.ChainSpec(n)
    cluster = StabilizerState(chain.space(), spinchain.cluster_generators(chain))
    mixed = StabilizerState(chain.space(), [])
    axes = [criteria.AXIS_X, criteria.AXIS_Y, criteria.AXIS_Z]
    orders, _, _, differences, first = criteria._moment_tables(cluster, mixed, axes, max_order)
    doc = {
        "cluster_vs_mixed": {
            "axes": list(spinchain.AXES),
            "orders": list(orders),
            "differences": differences,
            "indistinguishable": first is None,
        }
    }
    rows = [
        {"axis": axis, "order": m, "difference": differences[i][j]}
        for i, axis in enumerate(spinchain.AXES)
        for j, m in enumerate(orders)
    ]
    if n >= 4:
        cluster_mean, cluster_second, _ = criteria._moments(cluster)
        rho_s_mean, rho_s_second, _ = criteria._moments(criteria.moment_matching_separable_state(n))
        # the anticommutator table is twice the symmetrized second moments
        table_cluster = [[2 * v for v in row] for row in cluster_second]
        table_rho_s = [[2 * v for v in row] for row in rho_s_second]
        doc["moment_matching_state"] = {
            "first_moments_cluster": cluster_mean,
            "first_moments_separable": rho_s_mean,
            "anticommutator_cluster": table_cluster,
            "anticommutator_separable": table_rho_s,
            "max_table_difference": max(abs(a - b) for ra, rb in zip(table_cluster, table_rho_s)
                                        for a, b in zip(ra, rb)),
        }
    return doc, rows


def cmd_pulse(args) -> tuple[dict, list[dict]]:
    n = args.n
    if not 2 <= n <= optimize._MAX_SITES:
        raise ValueError(f"pulse needs --n between 2 and {optimize._MAX_SITES}")
    if args.params is None and not args.optimize:
        raise ValueError("pulse needs --params A,B,C and/or --optimize")
    if args.trace is not None and not args.optimize:
        raise ValueError("--trace records the search, so it needs --optimize")
    chain = spinchain.ChainSpec(n)
    doc: dict = {"n_sites": n}
    rows = []
    params = None
    if args.params is not None:
        pieces = args.params.split(",")
        if len(pieces) != 3:
            raise ValueError("--params expects three comma-separated angles")
        params = optimize.PulseParams(*(float(x) for x in pieces))
    result = None
    if args.optimize:
        initial = params if params is not None else optimize.PulseParams(0.0, 0.0, 0.0)
        # open --trace before the search, so an unwritable path fails before
        # the budget is spent
        with open(args.trace, "w") if args.trace is not None else contextlib.nullcontext() as fh:
            result = optimize.optimize_pulse(chain, initial, budget=args.budget, seed=args.seed)
            if fh is not None:
                for iteration, point, ratio in result.trace:
                    fh.write(json.dumps(
                        {"iteration": iteration, "params": list(point), "ratio": ratio},
                        sort_keys=True) + "\n")
    if params is not None:
        if result is not None:
            # the search evaluated the given pulse first
            report, ratio = result.initial_report, result.trace[0][2]
        else:
            report = criteria.collective_uncertainty_criterion(optimize.pulse_state(chain, params))
            ratio = optimize._ratio(report)
        doc["params"] = [params.theta_xx, params.theta_yy, params.theta_z]
        doc["ratio"] = ratio
        doc["report"] = report.to_json_dict()
        rows.append({"stage": "given", "theta_xx": params.theta_xx,
                     "theta_yy": params.theta_yy, "theta_z": params.theta_z, "ratio": ratio})
    if result is not None:
        doc["optimized"] = {
            "params": [result.params.theta_xx, result.params.theta_yy, result.params.theta_z],
            "ratio": result.ratio,
            "evaluations": result.evaluations,
        }
        rows.append({"stage": "optimized", "theta_xx": result.params.theta_xx,
                     "theta_yy": result.params.theta_yy, "theta_z": result.params.theta_z,
                     "ratio": result.ratio})
    return doc, rows


_COMMANDS = {
    "cluster-witness": cmd_cluster_witness,
    "decoherence-scan": cmd_decoherence_scan,
    "singlet-suite": cmd_singlet_suite,
    "heisenberg": cmd_heisenberg,
    "moments-compare": cmd_moments_compare,
    "pulse": cmd_pulse,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlatwit",
        description="Collective-measurement entanglement criteria on small lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name) for name in _COMMANDS}
    for name, p in commands.items():
        p.add_argument("--n", type=int, default=6 if name == "pulse" else None,
                       help="sites (pairs for singlet-suite)")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", type=str, default=None)
    scan = commands["decoherence-scan"]
    scan.add_argument("--p-min", type=float, default=0.5)
    scan.add_argument("--p-max", type=float, default=1.0)
    scan.add_argument("--steps", type=int, default=11)
    commands["moments-compare"].add_argument("--max-order", type=int, default=4)
    pulse = commands["pulse"]
    pulse.add_argument("--params", type=str, default=None,
                       help="pulse angles as three comma-separated floats")
    pulse.add_argument("--optimize", action="store_true")
    pulse.add_argument("--budget", type=int, default=200)
    pulse.add_argument("--seed", type=int, default=0)
    pulse.add_argument("--trace", type=str, default=None,
                       help="path for the optimizer trace (JSON lines)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        results, rows = _COMMANDS[args.command](args)
        # the options the command read, less those that only route its output
        config = {key: value for key, value in vars(args).items()
                  if key not in ("command", "trace", "format", "out")}
        doc = {
            "command": args.command,
            "config": config,
            "results": results,
            "versions": _versions(),
        }
        # an unwritable --out or --trace path is an OSError
        _write_output(doc, rows, args.format, args.out)
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
