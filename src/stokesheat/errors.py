"""Exception types shared across the package."""


class StokesHeatError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(StokesHeatError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateBranchError(StokesHeatError):
    """lambda is not above k**2 and the guard interval around it, where the
    fundamental system of the stream ODE degenerates; every sector-k
    eigenvalue lies above."""


class InvalidBracketError(StokesHeatError):
    """Root bracket endpoints do not have opposite dispersion signs."""


class NotAnEigenvalueError(StokesHeatError):
    """Mode construction requested at a lambda that does not annihilate
    the boundary matrix, or a root refinement that ran out of iterations
    before it resolved one."""


class MultiplicityError(StokesHeatError):
    """Boundary matrix nullspace has dimension >= 2 within a sector; the
    build refuses to pick a splitting convention."""


class OracleFailureError(StokesHeatError):
    """The discretization oracle's eigenvalue iteration did not converge."""

    def __init__(self, message, shift=None):
        super().__init__(message)
        self.shift = shift


class BasisFormatError(StokesHeatError):
    """Basis cache file is malformed; nothing was loaded."""


class BasisVersionError(BasisFormatError):
    """Basis cache file carries an unsupported schema version."""


class KernelQuadratureError(StokesHeatError):
    """The spectral-inequality kernel's quadrature rule is still moving at
    its finest level; no result computed with it would be resolved."""


class ObservabilityDefectError(StokesHeatError):
    """Observation Gramian is numerically singular; carries a coefficient
    direction that is nearly invisible on the observation region."""

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


class ConfigError(StokesHeatError):
    """Configuration file or flag violates the schema; maps to exit code 2."""
