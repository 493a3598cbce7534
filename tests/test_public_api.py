"""The exact set of public names the package exports, the public members
of its three domain classes, and the modules the instrument layer uses.

Adding or removing one is an API change: update this list deliberately and
name the change in CHANGES.md."""

import ast
import types
from pathlib import Path

import qobs

PUBLIC_NAMES = {
    # errors
    "CompletenessViolationError", "ConvergenceFailureError",
    "DimensionMismatchError", "DuplicateOutcomeError",
    "InternalConsistencyError", "MissingLabelError", "NotAnEffectError",
    "NotAProbabilityError", "NotCommutingError", "NotHermitianError",
    "NotPSDError", "OutsideBlochBallError", "ParseError", "QobsError",
    "TraceNotOneError", "UnknownOutcomeError", "ValidationError",
    # linalg
    "TOL_LIN", "TOL_PSD", "TOL_REL", "TOL_STAT", "commutator", "max_abs",
    "psd_sqrt",
    # states
    "DensityOperator", "bloch_state", "is_faithful", "maximally_mixed",
    "state_form",
    # observables
    "Observable", "coarse_grain", "commuting_joint", "conjugate",
    "conjugate_joint", "is_commutative", "is_sharp", "sharp_version",
    "stochastic_operator",
    # statistics
    "EqualityDiagnosis", "LinearRelation", "UncertaintyReport", "average",
    "commutator_expectation", "correlation", "covariance", "deviation",
    "equality_diagnosis", "linear_relation", "uncertainty_report",
    "variance",
    # instruments
    "Instrument", "conditioned_observable", "holevo_instrument",
    "lueders_instrument", "sequential_product", "trivial_instrument",
    # qubit
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "noisy_spin",
}


def test_package_exports_exactly_the_public_names():
    exported = {name for name, value in vars(qobs).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 60


# An instrument's statistics are those of its measured observable, so the
# class has no statistic of its own.
PUBLIC_MEMBERS = {
    qobs.Observable: {"dim", "effects", "keys", "outcomes", "pairs"},
    qobs.DensityOperator: {"dim", "eigenvalues", "matrix"},
    qobs.Instrument: {"apply", "channel", "coarse_grain", "dim", "dual_apply",
                      "measured_observable", "outcomes"},
}


def test_domain_classes_have_exactly_the_public_members():
    for cls, members in PUBLIC_MEMBERS.items():
        assert {name for name in dir(cls) if not name.startswith("_")} == members


def test_instrument_layer_does_not_import_statistics():
    """``qobs.instruments`` builds on linalg, states and observables; the
    statistics of an instrument are reached through its observables."""
    tree = ast.parse((Path(qobs.__file__).parent / "instruments.py")
                     .read_text(encoding="utf-8"))
    used = {node.module or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}
    assert used == {"errors", "linalg", "observables", "states"}
    absolute = [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.level == 0]
    assert not any("qobs" in line for line in absolute)
