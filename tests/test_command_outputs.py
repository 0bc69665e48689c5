"""Every command's JSON document against a frozen copy.

``data/command_outputs.json`` maps each command line below to the document it
printed, less its ``versions`` key, when the file was written.  A refactor that
leaves the numbers alone passes; floats may move within rel/abs 1e-12, and
every other value (keys, booleans, integers, strings, list lengths) must be
exact.
"""

import json
import math
import shlex
from pathlib import Path

import pytest

from qlatwit.cli import main

FROZEN = json.loads((Path(__file__).parent / "data" / "command_outputs.json").read_text())


def mismatches(got, want, path="$"):
    """Paths at which ``got`` differs from ``want``."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12) else [f"{path}: {got} != {want}"]
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("run", sorted(FROZEN))
def test_command_document_matches_the_frozen_copy(run, capsys):
    assert main(shlex.split(run)) == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["versions"]
    assert mismatches(doc, FROZEN[run]) == []


def test_a_moved_float_is_a_mismatch():
    want = {"a": [1.0, {"b": True}], "c": "x"}
    assert mismatches(want, want) == []
    assert mismatches({"a": [1.0 + 1e-9, {"b": True}], "c": "x"}, want) == ["$.a[0]: 1.000000001 != 1.0"]
    assert mismatches({"a": [1.0, {"b": 1}], "c": "x"}, want) == ["$.a[1].b: 1 != True"]
    assert mismatches({"a": [1.0], "c": "x"}, want) == ["$.a: length 1 != 2"]
