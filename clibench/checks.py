"""Output checks for the benchmark's commands, against the paper's values.

Each check takes the parsed JSON document of one command and returns the list
of problems found; an empty list means the output is right. The reference
values come from the paper (witness = n for the cluster state, n/2 for the
saturating product state, the 2p - 1 decay with its 0.75 crossing, zero
collective variance for singlets), not from the code under test. The two
exceptions are recorded numbers: the pulse ratio frozen at the seed commit and
the exact ground-state energy of the open six-site Heisenberg chain.
"""

from __future__ import annotations

TOL = 1e-9
PULSE_RATIO = 0.283682226549712  # pulse --n 8 --params=-3.2,-9.6,0.8
HEISENBERG6_E0 = -2.4935771338879267  # open chain, H = sum S_k . S_{k+1}


class _Problems(list):
    def near(self, label: str, got, want: float, tol: float = TOL) -> None:
        if not isinstance(got, (int, float)) or isinstance(got, bool) or abs(got - want) > tol:
            self.append(f"{label} = {got!r}, expected {want} +- {tol}")

    def below(self, label: str, got, limit: float = TOL) -> None:
        if not isinstance(got, (int, float)) or isinstance(got, bool) or abs(got) >= limit:
            self.append(f"|{label}| = {got!r}, expected < {limit}")

    def true(self, label: str, ok: bool) -> None:
        if not ok:
            self.append(f"{label} does not hold")


def _cluster_witness(doc, argv, p):
    n = int(argv[argv.index("--n") + 1])
    reports = {label: {r["name"]: r["value"] for r in reps}
               for label, reps in doc["results"]["reports"].items()}
    p.near("cluster witness", reports["cluster"]["witness"], n)
    p.near("cluster squared_witness", reports["cluster"]["squared_witness"], n)
    p.below("cluster variance_x", reports["cluster"]["variance_x"])
    p.near("saturating_product witness", reports["saturating_product"]["witness"], n / 2)
    p.below("totally_mixed witness", reports["totally_mixed"]["witness"])


def _moments_compare(doc, argv, p):
    res = doc["results"]
    p.true("cluster_vs_mixed indistinguishable", res["cluster_vs_mixed"]["indistinguishable"] is True)
    p.below("max cluster/mixed moment difference",
            max(max(row) for row in res["cluster_vs_mixed"]["differences"]))
    p.below("max_table_difference", res["moment_matching_state"]["max_table_difference"])


def _decoherence_scan(doc, argv, p):
    n = int(argv[argv.index("--n") + 1])
    res = doc["results"]
    p.true("rows present", len(res["rows"]) > 0)
    for row in res["rows"]:
        p.near(f"value at p={row['p']}", row["value"], n * (2 * row["p"] - 1))
    p.near("slope_value_over_n", res["summary"]["slope_value_over_n"], 2.0)
    p.near("crossing_p_bisection", res["summary"]["crossing_p_bisection"], 0.75, 1e-3)


def _pulse(doc, argv, p):
    res = doc["results"]
    budget = int(argv[argv.index("--budget") + 1])
    p.near("given ratio", res["ratio"], PULSE_RATIO)
    p.true("optimized ratio >= given ratio", res["optimized"]["ratio"] >= res["ratio"])
    p.true("evaluations <= budget", 1 <= res["optimized"]["evaluations"] <= budget)


def _heisenberg(doc, argv, p):
    res = doc["results"]
    p.near("ground energy", res["energy"], HEISENBERG6_E0)
    p.below("variance sum", res["report"]["value"])
    p.below("<J^2>", res["total_spin_squared"])


def _singlet_suite(doc, argv, p):
    n_pairs = int(argv[argv.index("--n") + 1])
    res = doc["results"]
    p.below("variance sum", res["report"]["value"])
    p.near("bound", res["report"]["bound"], n_pairs)


CHECKS = {
    "cluster-witness": _cluster_witness,
    "moments-compare": _moments_compare,
    "decoherence-scan": _decoherence_scan,
    "pulse": _pulse,
    "heisenberg": _heisenberg,
    "singlet-suite": _singlet_suite,
}


def check(argv: list[str], doc) -> list[str]:
    """Problems with the document ``qlatwit <argv>`` printed; [] when right."""
    problems = _Problems()
    if not isinstance(doc, dict) or doc.get("command") != argv[0]:
        return [f"document is not the output of {argv[0]!r}"]
    try:
        CHECKS[argv[0]](doc, argv, problems)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems.append(f"malformed document: {type(exc).__name__}: {exc}")
    return list(problems)
