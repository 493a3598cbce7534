"""The exact set of ``invariant`` names the diagnostics can carry.

Every JSON diagnostic reports the invariant its error names, so the set is
an interface, like the public names in test_public_api.py.  Each is a
string literal at an ``invariant=`` keyword in the package source (or one
of two literals of a conditional expression).  Adding, removing or
renaming one is an interface change: update this list deliberately and
name the change in CHANGES.md.

Each invariant is raised under one exception class, so a diagnostic's
``type`` follows from its ``invariant``.  Its message is rendered from the
record: it begins with the error's field, and no raise site formats the
field or the numbers of the record into its own text."""

import ast
import contextlib
import io
import json
import math
import os
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import qobs
from qobs import demos, fuzz, serialization as ser
from qobs.cli import main
from qobs.statistics import uncertainty_report

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
    """(class, invariants, where, call) for each call of a toolkit exception
    class in the package source, by its name or through a module attribute."""
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
                                         if k.arg == "invariant")), where, node


def test_diagnostics_name_exactly_the_listed_invariants():
    assert _source_invariants() == INVARIANTS
    assert len(INVARIANTS) == 40


def test_each_invariant_is_raised_under_one_class():
    raised = defaultdict(set)
    for cls, invariants, where, _ in _error_calls():
        if cls in ("ValidationError", "InternalConsistencyError"):
            assert invariants, f"{where}: {cls} names no invariant"
        for invariant in invariants:
            raised[invariant].add(cls)
    assert set(raised) == INVARIANTS  # no invariant outside an error call
    assert {key: cls for key, cls in raised.items() if len(cls) > 1} == {}


def test_no_message_restates_its_record():
    """A raise site passes its field, violation and bound in the record
    only: the message is rendered from the record, so an expression
    formatted into the text as well would be printed twice.  A record value
    is matched with each of its subexpressions, so ``{defect:.3e}`` beside
    ``violation=float(defect)`` is a restatement too."""
    calls = list(_error_calls())
    assert len(calls) > 70  # the walk sees the raise sites
    for _, _, where, call in calls:
        record = {ast.dump(node) for k in call.keywords
                  if k.arg in ("field", "violation", "bound")
                  for node in ast.walk(k.value) if isinstance(node, ast.expr)}
        formatted = {ast.dump(node.value) for arg in call.args[:1]
                     for node in ast.walk(arg) if isinstance(node, ast.FormattedValue)}
        assert not formatted & record, where


HALF = np.eye(2) / 2


def _raised(build, *args, **kw) -> dict:
    """The diagnostic record of the toolkit error build(*args, **kw) raises."""
    with pytest.raises(qobs.QobsError) as info:
        build(*args, **kw)
    e = info.value
    return {"invariant": e.invariant, "field": e.field, "violation": e.violation,
            "bound": e.bound, "message": str(e)}


def _cli(tmp_path, *argv, doc=None) -> dict:
    """The JSON diagnostic of ``qobs *argv --json``, which must exit 2; with
    ``doc``, written to a file whose path stands for FILE in argv."""
    if doc is not None:
        (tmp_path / "in.json").write_text(json.dumps(doc))
        argv = [str(tmp_path / "in.json") if a == "FILE" else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--json"]) == 2
    return json.loads(out.getvalue())["error"]


def _slack_off(tmp_path, monkeypatch):
    """The noisy-spin closed forms off by 1e-9 fail the slack identity."""
    forms = demos.noisy_spin_closed_forms
    monkeypatch.setattr(demos, "noisy_spin_closed_forms", lambda mu, r: {
        key: value + 1e-9 for key, value in forms(mu, r).items()})
    return _raised(demos.sweep_noisy_spin, [0.5], [(0.0, 0.0, 1.0)])


# case -> (invariant, field, provoke(tmp_path, monkeypatch) -> diagnostic):
# one case per invariant, then each path that renames a field, and two
# parse errors, which name no invariant.
_MESSAGE_CASES = {
    "bloch-shape": ("bloch-shape", "r", lambda t, m: _raised(
        qobs.bloch_state, [1.0, 2.0])),
    "dim-range": ("dim-range", "dims", lambda t, m: _raised(
        fuzz.RunConfig, dims=(65,))),
    "finite-entries": ("finite-entries", "effect[0]", lambda t, m: _raised(
        qobs.Observable, [0.0], [[[math.nan]]])),
    "matching-dims": ("matching-dims", "effect[1]", lambda t, m: _raised(
        qobs.Observable, [0.0, 1.0], [np.eye(2), np.eye(3)])),
    "matrix-list": ("matrix-list", "kraus[0]", lambda t, m: _raised(
        qobs.Instrument, [0.0], [[]])),
    "numeric-entries": ("numeric-entries", "effect[0]", lambda t, m: _raised(
        qobs.Observable, [0.0], [[["a"]]])),
    "parallel-lists": ("parallel-lists", None, lambda t, m: _raised(
        qobs.Observable, [0.0, 1.0], [np.eye(2)])),
    "positive-dim": ("positive-dim", None, lambda t, m: _raised(
        qobs.maximally_mixed, 0)),
    "square": ("square", "effect[0]", lambda t, m: _raised(
        qobs.Observable, [0.0], [np.ones((2, 3))])),
    "bloch-ball": ("bloch-ball", "r", lambda t, m: _raised(
        qobs.bloch_state, (0.0, 0.0, 2.0))),
    "hermitian": ("hermitian", "state", lambda t, m: _raised(
        qobs.DensityOperator, [[1.0, 1.0], [0.0, 0.0]])),
    "psd": ("psd", "state", lambda t, m: _raised(
        qobs.DensityOperator, np.diag([1.5, -0.5]))),
    "unit-trace": ("unit-trace", "state", lambda t, m: _raised(
        qobs.DensityOperator, np.diag([0.6, 0.6]))),
    "commuting-effects": ("commuting-effects", None, lambda t, m: _raised(
        qobs.commuting_joint, qobs.noisy_spin(1.0, "x"), qobs.noisy_spin(1.0, "y"))),
    "completeness": ("completeness", None, lambda t, m: _raised(
        qobs.Observable, [0.0, 1.0], [HALF, 0.8 * HALF])),
    "distinct-labels": ("distinct-labels", None, lambda t, m: _raised(
        qobs.Observable, ["a", "a"], [HALF, HALF])),
    "distinct-outcomes": ("distinct-outcomes", None, lambda t, m: _raised(
        qobs.Observable, [0.0, -0.0], [HALF, HALF])),
    "effect-lower-bound": ("effect-lower-bound", "effect[0]", lambda t, m: _raised(
        qobs.Observable, [0.0, 1.0], [-HALF, 3 * HALF])),
    "effect-upper-bound": ("effect-upper-bound", "effect[1]", lambda t, m: _raised(
        qobs.Observable, [0.0, 1.0], [0 * HALF, 4 * HALF])),
    "finite-outcome": ("finite-outcome", None, lambda t, m: _raised(
        qobs.Observable, [math.nan], [np.eye(2)])),
    "known-outcome": ("known-outcome", "5.0", lambda t, m: _raised(
        qobs.coarse_grain, qobs.noisy_spin(0.5), {-1.0: 0.0, 1.0: 1.0, 5.0: 2.0})),
    "real-outcomes": ("real-outcomes", "observable", lambda t, m: _raised(
        qobs.stochastic_operator, qobs.Observable(["a", "b"], [HALF, HALF]))),
    "total-function": ("total-function", "1.0", lambda t, m: _raised(
        qobs.coarse_grain, qobs.noisy_spin(0.5), {-1.0: 0.0})),
    "nonnegative-weights": ("nonnegative-weights", None, lambda t, m: _raised(
        qobs.trivial_instrument, {0.0: -0.5, 1.0: 1.5}, 2)),
    "unit-total": ("unit-total", None, lambda t, m: _raised(
        qobs.trivial_instrument, {0.0: 0.5, 1.0: 0.6}, 2)),
    "axis": ("axis", None, lambda t, m: _raised(qobs.noisy_spin, 0.5, "w")),
    "mu-range": ("mu-range", None, lambda t, m: _raised(qobs.noisy_spin, 2.0)),
    "slack-identity": ("slack-identity", None, _slack_off),
    "uncertainty-equation": ("uncertainty-equation", None, lambda t, m: _raised(
        uncertainty_report, qobs.maximally_mixed(2), qobs.SIGMA_X, qobs.SIGMA_Y,
        tol=-1.0)),
    "uncertainty-inequality": ("uncertainty-inequality", None, lambda t, m: _raised(
        uncertainty_report, qobs.bloch_state([0.6, 0.0, 0.8]),
        qobs.noisy_spin(1.0, "x"), qobs.noisy_spin(1.0, "y"), tol=0.0)),
    "flag-range": ("flag-range", "--tol-lin", lambda t, m: _cli(
        t, "fuzz", "--tol-lin", "-1")),
    "integer-list": ("integer-list", "--dims", lambda t, m: _cli(
        t, "fuzz", "--dims", "x")),
    "nonempty-grid": ("nonempty-grid", "--mu-grid", lambda t, m: _cli(
        t, "sweep-example4", "--mu-grid", ",")),
    "outcomes-range": ("outcomes-range", "--outcomes", lambda t, m: _cli(
        t, "demo", "example6", "--outcomes", "5000")),
    "positive-dims": ("positive-dims", "dims", lambda t, m: _raised(
        fuzz.RunConfig, dims=(0,))),
    "positive-trials": ("positive-trials", "trials", lambda t, m: _raised(
        fuzz.RunConfig, trials=0)),
    "real-list": ("real-list", "--mu-grid", lambda t, m: _cli(
        t, "sweep-example4", "--mu-grid", "a")),
    "samples-range": ("samples-range", "--samples", lambda t, m: _cli(
        t, "sweep-example4", "--samples", "100000", "--mu-grid", "0,1")),
    "tolerance-range": ("tolerance-range", "tol_lin", lambda t, m: _raised(
        fuzz.RunConfig, tol_lin=-1.0)),
    "writable-output": ("writable-output", "--output", lambda t, m: _cli(
        t, "fuzz", "--trials", "1", "--output", str(t / "missing" / "x.json"))),
    # the paths that rename a field
    "Instrument -> kraus[i]": ("effect-upper-bound", "kraus[1]", lambda t, m: _raised(
        qobs.Instrument, [0.0, 1.0, 2.0],
        [[np.eye(2) / np.sqrt(2)], [2 * np.eye(2)], [np.eye(2) / np.sqrt(2)]])),
    "validate -> observable.effects[i]": (
        "effect-upper-bound", "observable.effects[0]", lambda t, m: _cli(
            t, "validate", "FILE", doc={
                "type": "observable", "outcomes": [0.0, 1.0],
                "effects": [ser.encode_matrix(np.diag(d))
                            for d in ([2.0, 0.5], [-1.0, 0.5])]})),
    "validate -> instrument.states[i]": (
        "unit-trace", "instrument.states[1]", lambda t, m: _cli(
            t, "validate", "FILE", doc={
                "type": "instrument", "family": "holevo",
                "observable": ser.encode_observable(qobs.noisy_spin(0.0)),
                "states": [{"type": "density", "matrix": ser.encode_matrix(m)}
                           for m in (HALF, np.eye(2))]})),
    "validate -> instrument.kraus[i][j]": (
        "matching-dims", "instrument.kraus[1][1]", lambda t, m: _cli(
            t, "validate", "FILE", doc={
                "type": "instrument", "family": "kraus", "outcomes": [0.0, 1.0],
                "kraus": [[ser.encode_matrix(HALF)],
                          [ser.encode_matrix(HALF), ser.encode_matrix(np.eye(3))]]})),
    "validate -> instrument.omega": ("unit-total", "instrument.omega", lambda t, m: _cli(
        t, "validate", "FILE", doc={"type": "instrument", "family": "trivial",
                                    "dim": 2, "omega": {"0": 0.5, "1": 0.6}})),
    "validate -> state": ("psd", "state", lambda t, m: _cli(
        t, "validate", "FILE", doc={
            "type": "density", "matrix": ser.encode_matrix(np.diag([1.5, -0.5]))})),
    # parse errors
    "missing field": (None, "observable.effects", lambda t, m: _cli(
        t, "validate", "FILE", doc={"type": "observable", "outcomes": [0.0]})),
    "unreadable file": (None, os.path.join(os.devnull, "x"), lambda t, m: _cli(
        t, "validate", os.path.join(os.devnull, "x"))),
}


def test_every_invariant_has_a_message_case():
    assert {case[0] for case in _MESSAGE_CASES.values()} == INVARIANTS | {None}


@pytest.mark.parametrize("case", list(_MESSAGE_CASES))
def test_message_begins_with_the_field(case, tmp_path, monkeypatch):
    """The message names the diagnostic's field, the one a renaming caller
    set, and states the violation and bound the record carries."""
    invariant, field, provoke = _MESSAGE_CASES[case]
    error = provoke(tmp_path, monkeypatch)
    assert (error["invariant"], error["field"]) == (invariant, field)
    message = error["message"]
    if field is not None:
        assert message.startswith(f"{field}: "), message
    for key in ("violation", "bound"):
        if error.get(key) is not None:
            assert f"{key} {error[key]:.3e}" in message
