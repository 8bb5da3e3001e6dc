"""Exception types shared across the package.

`exit_code` is the `nwflow` command's exit status for each error: 3 for a
numerical failure, 2 for the configuration and input errors listed at the end.
"""


class NwflowError(Exception):
    """Base class for all nwflow errors."""

    exit_code = 3


class DimError(NwflowError):
    """Dimension mismatch between a query, a support set, or a parameter matrix."""


class NormError(NwflowError):
    """Input violates a unit-norm requirement (spherical kernels)."""


class DivergentBandwidth(NwflowError):
    """The de-scaled bandwidth diverges at t = 0; use the closed-form limit instead."""


class InputError(NwflowError):
    """Non-finite or otherwise unusable numeric input."""


class StepLimit(NwflowError):
    """Adaptive integrator exceeded its step budget."""


class NumericalBlowup(NwflowError):
    """Integration state became non-finite."""


class ConfigError(NwflowError):
    """Inconsistent configuration (e.g. base law does not match the field)."""


class SamplerStall(NwflowError):
    """Rejection sampler acceptance rate fell below the workable floor."""


class SingularCovariance(NwflowError):
    """Covariance is singular and no ridge was supplied."""


class FormatError(NwflowError):
    """File does not parse under the declared format."""


class DataError(NwflowError):
    """Parsed data contains non-finite entries."""


class EmptyTable(NwflowError):
    """Table parsed correctly but holds zero data rows."""


class SizeError(NwflowError):
    """Sample too small for the requested statistic."""


class DegenerateScale(NwflowError):
    """All points identical; no pairwise scale exists."""


class LogDomainError(NwflowError):
    """Nonpositive value where a log transform is required."""


for _cls in (ConfigError, DataError, DegenerateScale, DimError, EmptyTable, FormatError, SizeError):
    _cls.exit_code = 2
del _cls
