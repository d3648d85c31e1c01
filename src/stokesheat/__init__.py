"""Spectrum, observability and null control of a Stokes flow coupled to a
boundary heat equation on the periodic strip.

The package computes the exact eigen-system of the coupled operator
semi-analytically (validated against an independent finite-difference
oracle), verifies the exponential spectral and observability inequalities
that govern how well low-mode combinations are seen from a subregion, and
synthesizes null controls by the dyadic scheme that alternates free decay
with finite-mode minimal-norm steering.
"""

from .control import (
    ControlSegment,
    LRSchedule,
    ObservabilityConstant,
    RunReport,
    Stage,
    StageRecord,
    advance_window,
    cost_and_constant_fit,
    fit_telescoping_constant,
    make_schedule,
    obs_constant,
    run_lr,
    stage_control,
    stage_gramian,
    window_observation,
)
from .errors import (
    BasisFormatError,
    BasisVersionError,
    ConfigError,
    DegenerateBranchError,
    IncompleteBasisError,
    InvalidArgumentError,
    InvalidBracketError,
    MultiplicityError,
    NotAnEigenvalueError,
    ObservabilityDefectError,
    OracleFailureError,
    StokesHeatError,
)
from .hilbert import (
    FULL_REGION,
    ModalGramian,
    ObservationRegion,
    StateVector,
    apply_B,
    basis_state,
    inner,
    load_basis,
    norm,
    obs_gramian,
    project,
    rayleigh_matrix,
    sampled_velocity_factor,
    save_basis,
    semigroup,
    trace_gramian,
)
from .oracle import OracleEigs, oracle_eigs
from .spectral import (
    EigenBasis,
    EigenMode,
    StreamProfile,
    ZeroModeProfile,
    assemble_basis,
    bracket_roots,
    build_mode,
    dispersion,
    eval_mode,
    refine_root,
    sector_eigenvalues,
    zero_mode,
)
from .specineq import (
    AugmentedField,
    Kernel,
    SpectralInequalityReport,
    augmented_field,
    kappa_sq_integral,
    mineig_weighted_gramian,
    residual_augmented,
    spec_ineq_report,
    weighted_gramian,
)

__version__ = "0.1.0"
