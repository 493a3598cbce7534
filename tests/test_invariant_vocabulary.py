"""The exact set of ``invariant`` names the diagnostics can carry.

Every JSON diagnostic reports the invariant its error names, so the set is
an interface, like the public names in test_public_api.py.  Each is a
string literal at an ``invariant=`` keyword in the package source (or one
of two literals of a conditional expression).  Adding, removing or
renaming one is an interface change: update this list deliberately and
name the change in CHANGES.md.

Each invariant is raised under one exception class, so a diagnostic's
``type`` follows from its ``invariant``."""

import ast
from collections import defaultdict
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


def _trees():
    for path in sorted(Path(qobs.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _source_invariants() -> set:
    found = set()
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg == "invariant":
                found |= _literals(node.value, f"{name}:{node.lineno}")
    return found


def _error_calls():
    """(class, invariants, where) for each call of a toolkit exception class
    in the package source, by its name or through a module attribute."""
    classes = {name for name, value in vars(qobs.errors).items()
               if isinstance(value, type) and issubclass(value, qobs.QobsError)}
    for module, tree in _trees():
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            cls = getattr(func, "id", None) or getattr(func, "attr", None)
            if isinstance(node, ast.Call) and cls in classes:
                where = f"{module}:{node.lineno}"
                yield cls, set().union(*(_literals(k.value, where)
                                         for k in node.keywords
                                         if k.arg == "invariant")), where


def test_diagnostics_name_exactly_the_listed_invariants():
    assert _source_invariants() == INVARIANTS
    assert len(INVARIANTS) == 40


def test_each_invariant_is_raised_under_one_class():
    raised = defaultdict(set)
    for cls, invariants, where in _error_calls():
        if cls in ("ValidationError", "InternalConsistencyError"):
            assert invariants, f"{where}: {cls} names no invariant"
        for invariant in invariants:
            raised[invariant].add(cls)
    assert set(raised) == INVARIANTS  # no invariant outside an error call
    assert {key: cls for key, cls in raised.items() if len(cls) > 1} == {}
