"""The exact set of ``invariant`` names the diagnostics can carry.

Every JSON diagnostic reports the invariant its error names, so the set is
an interface, like the public names in test_public_api.py.  Each is a
string literal at an ``invariant=`` keyword in the package source (or one
of two literals of a conditional expression, or one of a tuple that
``linalg.require_margin`` reads at the failing rule).  Adding, removing or
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
    "matrix-list", "numeric-entries", "parallel-lists", "square",
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
    "positive-trials", "real-list", "samples-range", "seed-range",
    "tolerance-range", "writable-output",
}


def _literals(node: ast.expr, where: str) -> set:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _literals(node.body, where) | _literals(node.orelse, where)
    if isinstance(node, ast.Tuple):  # require_margin's, one per rule
        return set().union(*(_literals(elt, where) for elt in node.elts))
    raise AssertionError(f"{where}: invariant is not a string literal")


def _trees():
    for path in sorted(Path(qobs.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


MARGIN = "require_margin"  # the linalg helper that decides every margin
FORWARD = f"linalg.py:{MARGIN}"  # its raise, of the record its caller passed


def _calls():
    """(scope, call) for each call in the package source; ``scope`` is
    ``module:name`` of the top-level definition that holds it."""
    for module, tree in _trees():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    yield f"{module}:{getattr(top, 'name', '')}", node


def _name(node: ast.expr | None):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _source_invariants() -> set:
    found = set()
    for scope, call in _calls():
        for k in call.keywords:
            if k.arg == "invariant" and scope != FORWARD:
                found |= _literals(k.value, f"{scope}:{call.lineno}")
    return found


def _error_calls():
    """(class, invariants, where, message, record) for each call that raises
    a toolkit error: a toolkit exception class, by its name or through a
    module attribute, whose message is its first argument; or
    ``require_margin``, whose ``error`` keyword names the class
    (``ValidationError`` if absent), whose message is its ``detail`` and
    whose residual and bound are the record's violation and bound.  The
    raise inside ``require_margin`` forwards its caller's record."""
    classes = {name for name, value in vars(qobs.errors).items()
               if isinstance(value, type) and issubclass(value, qobs.QobsError)}
    for scope, call in _calls():
        cls, where = _name(call.func), f"{scope.split(':')[0]}:{call.lineno}"
        keywords = {k.arg: k.value for k in call.keywords}
        if cls in classes:
            message = call.args[:1]
            record = [keywords.get(key) for key in ("field", "violation", "bound")]
        elif cls == MARGIN:
            cls = _name(keywords.get("error")) or "ValidationError"
            message, record = call.args[2:3], [*call.args[:2], keywords.get("field")]
        else:
            continue
        invariants = (_literals(keywords["invariant"], where)
                      if "invariant" in keywords else set())
        yield cls, invariants, where, message, [n for n in record if n is not None]


def test_diagnostics_name_exactly_the_listed_invariants():
    assert _source_invariants() == INVARIANTS
    assert len(INVARIANTS) == 39


def test_each_invariant_is_raised_under_one_class():
    raised = defaultdict(set)
    for cls, invariants, where, *_ in _error_calls():
        if cls in ("ValidationError", "InternalConsistencyError"):
            assert invariants, f"{where}: {cls} names no invariant"
        for invariant in invariants:
            raised[invariant].add(cls)
    assert set(raised) == INVARIANTS  # no invariant outside an error call
    assert {key: cls for key, cls in raised.items() if len(cls) > 1} == {}


SHAPE_RULES = ("matching-dims", "dim-range", "parallel-lists")
ONE_SITE_RULES = (*SHAPE_RULES, "tolerance-range", "psd")


def test_each_shape_rule_is_raised_at_one_site_in_linalg():
    """A shape rule, the tolerance rule and the psd rule are each stated
    once, by their ``linalg.require_*`` or ``parallel_keys`` helper, which
    every entry point calls; a second raise site would be the rule written
    out by hand again."""
    sites = {rule: [where.split(":")[0] for _, invariants, where, *_ in _error_calls()
                    if rule in invariants] for rule in ONE_SITE_RULES}
    assert sites == {rule: ["linalg.py"] for rule in ONE_SITE_RULES}


def test_each_margin_is_raised_at_one_site_in_linalg():
    """Every residual is decided against its bound by ``require_margin``,
    which raises the record of the first failing entry, NaN included; so
    the only call that passes a ``violation`` is its raise.  A second one
    would be a margin decided by hand again, where ``residual > bound``
    lets a NaN pass."""
    sites = [scope for scope, call in _calls()
             if any(k.arg == "violation" for k in call.keywords)]
    assert sites == [FORWARD]


def test_the_floor_of_a_relative_bound_is_written_once_in_linalg():
    """``linalg.scale`` is the one max(1, magnitude) that every relative
    bound reads; a ``max(1.0, ...)`` or ``np.maximum(1.0, ...)`` elsewhere
    would be the floor written out by hand again.  Int floors on counts,
    such as a rank of at least 1, are not bounds."""
    sites = [scope for scope, call in _calls()
             if _name(call.func) in ("max", "maximum") and call.args
             and isinstance(call.args[0], ast.Constant)
             and type(call.args[0].value) is float and call.args[0].value == 1.0]
    assert sites == ["linalg.py:scale"]


def _adjoint_of(node: ast.expr):
    """The source of X, if ``node`` is X.conj() then .T or .swapaxes(...),
    in either order; else None."""
    steps = []
    while len(steps) < 2:
        if isinstance(node, ast.Call) and _name(node.func) in ("conj", "swapaxes"):
            steps.append(_name(node.func) == "conj")
            node = node.func.value
        elif isinstance(node, ast.Attribute) and node.attr == "T":
            steps.append(False)
            node = node.value
        else:
            return None
    return ast.unparse(node) if sorted(steps) == [False, True] else None


def test_a_hermitian_part_is_formed_only_by_linalg():
    """X + X* is written once, in ``linalg._hermitian_part``, as halves that
    cannot overflow; every builder that symmetrises a matrix calls it."""
    sites = []
    for module, tree in _trees():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                    pair = node.left, node.right
                elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                    pair = node.target, node.value
                else:
                    continue
                if any(ast.unparse(x) == _adjoint_of(y) for x, y in (pair, pair[::-1])):
                    sites.append(f"{module}:{getattr(top, 'name', '')}")
    assert sites == ["linalg.py:_hermitian_part"]


# Where a held matrix is made exactly Hermitian: where it enters (the checks
# that accept it) or where a builder or a sampler forms it.  Every other
# function reads it as it is, the eigensolvers included.
HERMITIAN_PART_SITES = {
    "linalg.py:require_hermitian", "linalg.py:_eigendecomposition",
    "linalg.py:_root", "observables.py:_check_effects",
    "observables.py:conjugate", "observables.py:_pair_keyed",
    "instruments.py:Instrument._build", "instruments.py:Instrument.channel",
    "instruments.py:conditioned_observable", "sampling.py:random_hermitian",
    "sampling.py:random_observable", "sampling.py:random_commutative_observable",
}


def test_the_hermitian_part_is_taken_once_where_a_matrix_enters_or_is_made():
    """Each function that calls ``_hermitian_part``.  The eigensolvers and
    the CLI are not among them: an eigensolver reads one triangle of a
    matrix that is exactly Hermitian already, and a file's matrix gets its
    part from ``require_hermitian``, where it is checked."""
    sites = {f"{module}:{scope}" for module, tree in _trees()
             for scope, top in _scopes(tree) for call in ast.walk(top)
             if isinstance(call, ast.Call) and _name(call.func) == "_hermitian_part"}
    assert sites == HERMITIAN_PART_SITES
    assert not {"linalg.py:_eigh", "linalg.py:hermitian_eigenvalues"} & sites
    assert not any(site.startswith("cli.py:") for site in sites)


# Where an input is checked: each function that calls a checked constructor,
# or passes one as a callable.  The builders and samplers check nothing.
CHECKED_INPUTS = {
    "serialization.py:decode_state", "serialization.py:decode_observable",
    "instruments.py:Instrument.__init__", "qubit.py:noisy_spin",
    "states.py:maximally_mixed", "sampling.py:random_density",
    "sampling.py:random_faithful_density", "demos.py:demo_example1",
    "demos.py:demo_example2", "demos.py:demo_example8",
}


def _scopes(tree: ast.Module):
    """(name, node) for each top-level statement, a class's split into its
    methods' ``Class.method``."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{getattr(item, 'name', '')}", item)
                        for item in top.body)
        else:
            yield getattr(top, "name", ""), top


def test_the_checked_constructors_are_called_only_at_input_boundaries():
    """``Observable`` and ``DensityOperator`` check what they are given; a
    builder or a sampler builds through ``X.__new__(X)._build``, and
    ``derived.effect_spectrum`` checks what it makes.  So a new call of a
    checked constructor is a second check or a new input boundary, and one
    gone is a boundary that no longer checks: either shows here."""
    checked = ("Observable", "DensityOperator")
    sites = set()
    for module, tree in _trees():
        for scope, top in _scopes(tree):
            for call in ast.walk(top):
                if not isinstance(call, ast.Call) or _name(call.func) in (
                        "isinstance", "__new__"):
                    continue
                operands = call.func, *call.args, *(k.value for k in call.keywords)
                if any(isinstance(x, (ast.Name, ast.Attribute)) and _name(x) in checked
                       for x in operands):
                    sites.add(f"{module}:{scope}")
    assert sites == CHECKED_INPUTS


def test_no_message_restates_its_record():
    """A raise site passes its field, violation and bound in the record
    only: the message is rendered from the record, so an expression
    formatted into the text as well would be printed twice.  A record value
    is matched with each of its subexpressions, so ``{defect:.3e}`` beside
    ``violation=float(defect)`` is a restatement too."""
    calls = list(_error_calls())
    assert len(calls) >= 65  # the walk sees the raise sites and margin calls
    for _, _, where, message, record in calls:
        record = {ast.dump(node) for value in record
                  for node in ast.walk(value) if isinstance(node, ast.expr)}
        formatted = {ast.dump(node.value) for arg in message
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
        uncertainty_report, qobs.bloch_state([0.3, 0.4, 0.2]),
        qobs.noisy_spin(1.0, "x"), qobs.noisy_spin(1.0, "y"), tol=0.0)),
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
    "positive-trials": ("positive-trials", "trials", lambda t, m: _raised(
        fuzz.RunConfig, trials=0)),
    "real-list": ("real-list", "--mu-grid", lambda t, m: _cli(
        t, "sweep-example4", "--mu-grid", "a")),
    "samples-range": ("samples-range", "--samples", lambda t, m: _cli(
        t, "sweep-example4", "--samples", "100000", "--mu-grid", "0,1")),
    "seed-range": ("seed-range", "seed", lambda t, m: _raised(
        fuzz.RunConfig, seed=-1)),
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
    "validate -> instrument.states[i] of another dim": (
        "matching-dims", "instrument.states[1]", lambda t, m: _cli(
            t, "validate", "FILE", doc={
                "type": "instrument", "family": "holevo",
                "observable": ser.encode_observable(qobs.noisy_spin(0.0)),
                "states": [{"type": "density", "matrix": ser.encode_matrix(m)}
                           for m in (HALF, np.eye(3) / 3)]})),
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
