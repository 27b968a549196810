"""somplab: simultaneous greedy recovery of row-sparse signals, exact
restricted-isometry constants at desk scale, executable recovery
guarantees, and a Monte Carlo harness that checks the guarantees against
what actually happens.
"""

from types import ModuleType as _ModuleType

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptySupport,
    InvalidConfig,
    InvalidOrder,
    InvalidSparsity,
    ParseError,
    PreconditionViolated,
    SomplabError,
    SubsetBudgetExceeded,
    TraceMismatch,
    ZeroReference,
)
from .guarantees import (
    MODES,
    GuaranteeReport,
    check_guarantee,
    error_amplification,
    perturbation_magnitude,
    recovery_threshold,
)
from .harness import (
    ExperimentReport,
    FilterDeviationDiagnostic,
    FilterProximityDiagnostic,
    PointSummary,
    TrialChecks,
    TrialRecord,
    filter_deviation_diagnostic,
    matched_filter_oracle,
    render_report,
    run_experiment,
    run_trial,
    selected_scores_vanish,
    trial_seeds,
)
from .matrixio import read_matrix, write_matrix
from .model import (
    min_support_row_norm,
    relative_frobenius_error,
    support_of,
)
from .perturb import (
    B_MODES,
    ENSEMBLES,
    InstanceConfig,
    PerturbationSpec,
    apply_perturbation,
    calibrate_perturbation,
    coherent_pair_matrix,
    gen_sensing_matrix,
    gen_sparse_signal,
    low_coherence_frame,
)
from .rip import (
    DEFAULT_SUBSET_BUDGET,
    PerturbationLevels,
    RicEstimate,
    measure_perturbation_levels,
    residual_sensing_matrix,
    ric_exact,
    submatrix_spectral_norm,
)
from .solver import (
    IterationTrace,
    RecoveryResult,
    least_squares_on_support,
    somp_solve,
)

__version__ = "0.1.0"

# Every public name imported above, so the imports are the one list of them.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
