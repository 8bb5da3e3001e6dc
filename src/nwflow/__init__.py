"""Support-conditioned flow-matching velocity fields as kernel smoothers.

The package exposes the exact plug-in velocity field of a finite support set
under the linear-Gaussian path, its single-head attention realization, ODE
sample generation, synthetic task families, two-sample metrics, and the
desk-scale experiment suite behind the `nwflow` command-line tool.
"""

from .errors import NwflowError
from .kernels import (
    BilinearLogit,
    IsotropicGaussian,
    Mahalanobis,
    SupportSet,
    Vmf,
    kde_descaled_log_density,
    kde_descaled_score,
    local_mean,
    logits,
    nw_weights,
)
from .metrics import c2st_1nn, fit_power_law, median_heuristic, mmd2_unbiased, neff_profile
from .ode import (
    AdaptiveRK45,
    Euler,
    SampleBatch,
    generate,
    integrate,
    kde_direct_sample,
)
from .schedule import PathSchedule
from .tasks import (
    FeatureTable,
    FourierDensity,
    Gmm,
    Moons,
    Rings,
    Shell,
    Spirals,
    load_feature_table,
    make_support_and_eval,
    sample_task,
    split_table,
    whiten,
)
from .velocity import (
    MultiHeadParams,
    PluginField,
    affine_postmap,
    attention_realized_velocity,
    dot_product_lift,
    logit_rank,
    multihead_forward,
    velocity_from_score,
)

__version__ = "0.1.0"
