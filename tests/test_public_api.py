"""The exact set of public names the package exports.

Adding or removing one is an API change: update this list deliberately and
name the change in CHANGES.md."""

import types

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
    "TOL_LIN", "TOL_PSD", "TOL_REL", "TOL_STAT", "EigenDecomposition",
    "commutator", "hermitian_eigendecomposition", "is_hermitian", "max_abs",
    "psd_sqrt",
    # states
    "DensityOperator", "bloch_state", "is_faithful", "maximally_mixed",
    "normalized_density", "state_form",
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
    "lueders_instrument", "product_statistics", "sequential_product",
    "trivial_instrument",
    # qubit
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "noisy_spin",
}


def test_package_exports_exactly_the_public_names():
    exported = {name for name, value in vars(qobs).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 65
