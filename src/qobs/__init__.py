"""qobs: finite-dimensional quantum measurement toolkit.

Real-valued observables (finite POVMs), density operators, the generalized
uncertainty principle with covariance term, sharp versions and conjugates,
real-valued coarse graining, and quantum instruments (trivial, Holevo,
Lueders) in operator-sum form.  ``qobs demo`` runs nine checked worked examples.
"""

from .errors import (
    ConvergenceFailureError,
    InternalConsistencyError,
    ParseError,
    QobsError,
    ValidationError,
)
from .linalg import (
    TOL_LIN,
    TOL_PSD,
    TOL_REL,
    TOL_STAT,
    commutator,
    max_abs,
    psd_sqrt,
)
from .states import (
    DensityOperator,
    bloch_state,
    is_faithful,
    maximally_mixed,
    state_form,
)
from .observables import (
    Observable,
    coarse_grain,
    commuting_joint,
    conjugate,
    conjugate_joint,
    is_commutative,
    is_sharp,
    sharp_version,
    stochastic_operator,
)
from .statistics import (
    EqualityDiagnosis,
    LinearRelation,
    UncertaintyReport,
    average,
    commutator_expectation,
    correlation,
    covariance,
    deviation,
    equality_diagnosis,
    linear_relation,
    uncertainty_report,
    variance,
)
from .instruments import (
    Instrument,
    conditioned_observable,
    holevo_instrument,
    lueders_instrument,
    sequential_product,
    trivial_instrument,
)
from .qubit import SIGMA_X, SIGMA_Y, SIGMA_Z, noisy_spin

__version__ = "0.1.0"
