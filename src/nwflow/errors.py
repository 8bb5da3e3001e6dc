"""Exception types shared across the package.

`exit_code` is the `nwflow` command's exit status for each error, so the class
alone decides it: 2 for a configuration or input error, 3 for a numerical
failure.
"""


class NwflowError(Exception):
    """Base class for all nwflow errors."""

    exit_code = 3


class ConfigError(NwflowError):
    """Configuration or input the computation cannot accept: a flag, shape, file or sample size."""

    exit_code = 2


class NumericalError(NwflowError):
    """The computation itself failed: a non-finite state, a step budget, a singular spectrum."""

    exit_code = 3
