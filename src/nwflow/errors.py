"""Exception types shared across the package, and the input checks that raise them.

`exit_code` is the `nwflow` command's exit status for each error, so the class
alone decides it: 2 for a configuration or input error, 3 for a numerical
failure.  Every rejected parameter is a ConfigError, which is also a
ValueError.  A count goes through `_count`, a scale through `_scale` and a
value in the unit interval through `_unit`, so each kind of parameter has one
check and one message everywhere.
"""

import math
import numbers
import operator


class NwflowError(Exception):
    """Base class for all nwflow errors."""

    exit_code = 3


class ConfigError(NwflowError, ValueError):
    """Configuration or input the computation cannot accept: a flag, shape, file or sample size."""

    exit_code = 2


class NumericalError(NwflowError):
    """The computation itself failed: a non-finite state, a step budget, a singular spectrum."""

    exit_code = 3


def _count(value: object, name: str, least: int = 1) -> int:
    """`value` as an int >= `least`, else ConfigError; a float, bool or str is rejected, not truncated."""
    n = operator.index(value) if isinstance(value, numbers.Integral) and not isinstance(value, bool) else None
    if n is None or n < least:
        raise ConfigError(f"need {name} >= {least}, got {value!r}")
    return n


def _scale(value: object, name: str, zero: bool = False) -> float:
    """`value` as a finite float > 0 (>= 0 with `zero`), else ConfigError; a bool or str is rejected."""
    x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    if not (math.isfinite(x) and (x > 0.0 or zero and x == 0.0)):
        raise ConfigError(f"{name} must be {'>= 0' if zero else 'positive'} and finite, got {value!r}")
    return x


def _unit(value: object, name: str, zero: bool = False) -> float:
    """`value` as a float in (0, 1] ([0, 1] with `zero`), else ConfigError."""
    x = _scale(value, name, zero)
    if x > 1.0:
        raise ConfigError(f"{name} must lie in {'[' if zero else '('}0, 1], got {value!r}")
    return x
