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
    cost_and_constant_fit,
    make_schedule,
    obs_constant,
    run_lr,
    stage_control,
    stage_gramian,
)
from .errors import (
    BasisFormatError,
    BasisVersionError,
    ConfigError,
    DegenerateBranchError,
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
    ObservationRegion,
    StateVector,
    load_basis,
    norm,
    obs_gramian,
    rayleigh_matrix,
    save_basis,
    semigroup,
    trace_gramian,
)
from .oracle import oracle_eigs
from .spectral import assemble_basis, sector_eigenvalues, zero_mode
from .specineq import (
    Kernel,
    augmented_field,
    residual_augmented,
    spec_ineq_report,
)

__version__ = "0.1.0"
