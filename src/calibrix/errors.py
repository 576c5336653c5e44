"""Exception types shared across the package."""


class CalibrixError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(CalibrixError):
    """Material parameter outside its admissible range."""


class GeometryError(CalibrixError):
    """Degenerate element geometry (non-positive Jacobian determinant)."""


class SolverError(CalibrixError):
    """Singular or ill-conditioned linear system."""


class DataCoverageError(CalibrixError):
    """Observation data does not cover the required degrees of freedom."""


class InterpolationError(CalibrixError):
    """Query point could not be located inside the mesh."""


class WeightingError(CalibrixError):
    """Invalid (non-positive) data-block weight."""


class IntegrationError(CalibrixError):
    """Local material-point iteration failed to converge."""


class DriverError(CalibrixError):
    """Mixed-control material-point driver failed at a load step."""


class JacobianError(CalibrixError):
    """Forward evaluation failed while building a finite-difference Jacobian."""


class IdentifiabilityError(CalibrixError):
    """Normal-equation system is rank deficient; parameters not identifiable."""


class DivergenceError(CalibrixError):
    """Iterative solver produced a non-finite iterate, or no sampler chain finished."""


class NumericalError(CalibrixError):
    """Numerical consistency check failed beyond tolerance."""


class ConfigError(CalibrixError):
    """Malformed or incomplete configuration."""
