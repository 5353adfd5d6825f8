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
    scale_matrix,
    span_distance,
    trop_add,
    trop_matmul,
    trop_project_onto_span,
)
from .spectral import (
    SpectralData,
    cycle_mean_oracle,
    eigenspace_equal,
    hadamard_lemma_check,
    max_cycle_mean,
    spectral_data,
    verify_eigenvector,
)
from .perron import (
    ConvergenceError,
    EstimateError,
    OracleError,
    PerronSample,
    PerronTrajectory,
    PinfEstimate,
    estimate_p_infinity,
    geometric_schedule,
    log_perron_eigenpair,
    normalized_trajectory,
    perron_float_oracle,
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
    read_samples,
    translation_chain,
)

__version__ = "0.1.0"
