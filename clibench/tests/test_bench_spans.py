import functools
import types

import pytest

import run
import spans
from qlatwit import bosonic, channels, cli, criteria, optimize, qcore, spinchain


@pytest.fixture
def tracer():
    t = spans.Tracer()
    originals = {"expectation": qcore.expectation, "main": cli.main,
                 "heisenberg": cli._COMMANDS["heisenberg"],
                 "post_init": qcore.LinearOperator.__post_init__}
    t.wrappers = t.install()
    yield t, originals
    t.uninstall()
    assert qcore.expectation is originals["expectation"]
    assert criteria.expectation is originals["expectation"]
    assert cli._COMMANDS["heisenberg"] is originals["heisenberg"]
    assert qcore.LinearOperator.__post_init__ is originals["post_init"]


def test_every_layer_has_wrapped_functions(tracer):
    t, _ = tracer
    names = {w.__wrapped__.__module__ for w in t.wrappers.values()}
    assert names == {f"qlatwit.{layer}" for layer in spans.LAYERS}
    for mod in (qcore, spinchain, bosonic, criteria, channels, optimize, cli):
        public = [obj for name, obj in vars(mod).items()
                  if not name.startswith("_") and isinstance(obj, types.FunctionType)
                  and getattr(obj, "__wrapped__", obj).__module__ == mod.__name__]
        assert public and all(hasattr(f, "__wrapped__") for f in public), mod.__name__


def test_imported_names_are_rebound(tracer):
    t, originals = tracer
    wrapped = t.wrappers[originals["expectation"]]
    assert qcore.expectation is wrapped
    assert criteria.expectation is wrapped
    assert channels.expectation is wrapped
    assert cli.expectation is wrapped
    assert optimize.collective_uncertainty_criterion is criteria.collective_uncertainty_criterion
    assert hasattr(criteria.collective_uncertainty_criterion, "__wrapped__")
    assert cli._COMMANDS["heisenberg"] is t.wrappers[originals["heisenberg"]]
    assert qcore.LinearOperator.__post_init__.__wrapped__ is originals["post_init"]


def test_traced_run_matches_untraced_and_accounts_for_main(capsys):
    argv = ["singlet-suite", "--n", "1"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    t = spans.Tracer()
    t.install()
    try:
        assert cli.main(argv) == 0
    finally:
        t.uninstall()
    assert capsys.readouterr().out == plain

    roots = [s for s in t.spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"]
    for s in t.spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = t.spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    m = spans.layer_metrics(t.spans)
    total_self = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total_self == pytest.approx(roots[0]["end"] - roots[0]["start"], rel=1e-9)
    assert sorted(s["name"] for s in t.spans if s["layer"] == "cli") == [
        "cli.build_parser", "cli.cmd_singlet_suite", "cli.main"]
    assert m["cli.calls"] == 3
    assert m["bosonic.bytes_built"] > 0
    assert m["spinchain.calls"] == 0 and m["spinchain.bytes_built"] == 0
    assert m["qcore.validate.calls"] > 0 and m["qcore.validate_s"] > 0


def test_returned_bytes_counts_arrays_states_and_operators():
    import numpy as np

    mat = np.zeros((4, 4), dtype=complex)
    op = qcore.LinearOperator(qcore.HilbertSpace((2, 2)), mat)
    state = qcore.PureState(qcore.HilbertSpace((2, 2)), np.eye(4)[0])
    assert spans.returned_bytes(mat) == 256
    assert spans.returned_bytes(op) == 256
    assert spans.returned_bytes(state) == 64
    assert spans.returned_bytes(1.5) == 0


def test_cache_totals_with_zero_caches():
    assert spans.cache_totals([]) == {"caches": 0, "hits": 0, "misses": 0}
    empty = types.ModuleType("qlatwit.empty")
    assert spans.cache_totals([empty]) == {"caches": 0, "hits": 0, "misses": 0}


def test_cache_totals_finds_caches_by_type():
    mod = types.ModuleType("qlatwit.fake")
    mod.anything = functools.lru_cache(maxsize=4)(lambda x: x)
    mod.alias = mod.anything
    mod.anything(1)
    mod.anything(1)
    assert spans.cache_totals([mod]) == {"caches": 1, "hits": 1, "misses": 1}


def test_hit_ratio_without_lookups_is_zero():
    plain = [{"wall_s": 1.0, "cpu_s": 1.0, "rss_mb": 10.0, "report": {}}]
    traced = [{"wall_s": 1.5, "cpu_s": 1.5, "rss_mb": 10.0,
               "report": {"spans": [], "cache": {"caches": 0, "hits": 0, "misses": 0},
                          "main_s": 0.0}}]
    m = run.traced_metrics([plain], [traced])
    assert m["cache.hits"] == 0 and m["cache.misses"] == 0
    assert m["cache.hit_ratio"] == 0.0
    assert m["trace.overhead_s"] == pytest.approx(0.5)
