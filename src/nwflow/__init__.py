"""Support-conditioned flow-matching velocity fields as kernel smoothers.

The package exposes the exact plug-in velocity field of a finite support set
under the linear-Gaussian path, its single-head attention realization, ODE
sample generation, synthetic task families, two-sample metrics, and the
desk-scale experiment suite behind the `nwflow` command-line tool.
"""

from .errors import NwflowError
from .kernels import *
from .metrics import *
from .ode import *
from .schedule import *
from .tasks import *
from .velocity import *

__version__ = "0.1.0"
