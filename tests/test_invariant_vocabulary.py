"""The exact set of ``invariant`` names the diagnostics can carry.

Every JSON diagnostic reports the invariant its error names, so the set is
an interface, like the public names in test_public_api.py.  Each is a
string literal at an ``invariant=`` keyword in the package source (or one
of two literals of a conditional expression).  Adding, removing or
renaming one is an interface change: update this list deliberately and
name the change in CHANGES.md."""

import ast
from pathlib import Path

import qobs

INVARIANTS = {
    # inputs: shapes, entries and ranges
    "bloch-shape", "dim-range", "finite-entries", "matching-dims",
    "matrix-list", "numeric-entries", "parallel-lists", "positive-dim",
    "square",
    # states
    "bloch-ball", "hermitian", "psd", "unit-trace",
    # observables and outcomes
    "commuting-effects", "completeness", "distinct-labels",
    "distinct-outcomes", "effect-lower-bound", "effect-upper-bound",
    "finite-outcome", "known-outcome", "real-outcomes", "total-function",
    # instruments
    "nonnegative-weights", "unit-total",
    # statistics and the qubit fixtures
    "axis", "mu-range", "slack-identity", "uncertainty-equation",
    "uncertainty-inequality",
    # fuzz, demos and the CLI
    "flag-range", "integer-list", "nonempty-grid", "outcomes-range",
    "positive-dims", "positive-trials", "real-list", "samples-range",
    "tolerance-range", "writable-output",
}


def _literals(node: ast.expr, where: str) -> set:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _literals(node.body, where) | _literals(node.orelse, where)
    raise AssertionError(f"{where}: invariant is not a string literal")


def _source_invariants() -> set:
    found = set()
    for path in sorted(Path(qobs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.keyword) and node.arg == "invariant":
                found |= _literals(node.value, f"{path.name}:{node.lineno}")
    return found


def test_diagnostics_name_exactly_the_listed_invariants():
    assert _source_invariants() == INVARIANTS
    assert len(INVARIANTS) == 40
