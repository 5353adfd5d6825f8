"""Tropical spectral data and Perron eigenvector asymptotics of exp(kA)."""

from .core import (
    MAX_PLUS,
    MIN_PLUS,
    FloatPoint,
    ProjectivePoint,
    StarDivergenceError,
    TropicalMatrix,
    as_rational,
    float_point,
    in_span,
    kleene_star,
    normalize_projective,
    span_distance,
    trop_project_onto_span,
)
from .spectral import (
    SpectralData,
    eigenspace_equal,
    max_cycle_mean,
    spectral_data,
)
from .perron import (
    ConvergenceError,
    EstimateError,
    PerronSample,
    PerronTrajectory,
    PinfEstimate,
    estimate_p_infinity,
    geometric_schedule,
    log_perron_eigenpair,
    normalized_trajectory,
    row_coupling_mass,
    trajectory_csv,
)
from .schur import (
    Candidate,
    SchurLevel,
    SchurReport,
    candidate_exponents,
    compare_prediction,
    minplus_schur,
    schur_sequence,
)
from .conjectures import (
    ConjectureVerdict,
    TranslationChain,
    conjecture1_test,
    conjecture2_test,
    eigenspace_preserving_perturbations,
    export_samples,
    random_matrix,
    translation_chain,
)

__version__ = "0.1.0"
