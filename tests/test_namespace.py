import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nwflow

# The package's public names: 40 exports and the 7 submodules that `import nwflow` loads.
# A name added here, or dropped, is a change to the public API.
PUBLIC = [
    "AdaptiveRK45", "BilinearLogit", "Euler", "FeatureTable", "FourierDensity", "Gmm",
    "IsotropicGaussian", "Mahalanobis", "Moons", "NwflowError", "PathSchedule",
    "PluginField", "Rings", "Shell", "Spirals", "SupportSet", "Vmf", "affine_postmap",
    "attention_realized_velocity", "c2st_1nn", "dot_product_lift", "errors", "fit_power_law",
    "generate", "integrate", "kde_descaled_log_density", "kde_descaled_score", "kde_direct_sample",
    "kernels", "load_feature_table", "local_mean", "logits", "make_support_and_eval",
    "median_heuristic", "metrics", "mmd2_unbiased", "multihead_forward", "neff_profile", "nw_weights",
    "ode", "sample_task", "schedule", "split_table", "tasks", "velocity", "velocity_from_score",
    "whiten",
]
REEXPORTED = ["kernels", "metrics", "ode", "schedule", "tasks", "velocity"]


def test_package_namespace_is_pinned():
    # A fresh process: importing nwflow.cli or nwflow.experiments, as other tests
    # do, binds those submodules on the package too.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import nwflow; print(*sorted(n for n in dir(nwflow) if not n.startswith('_')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == PUBLIC


@pytest.mark.parametrize("name", REEXPORTED)
def test_module_all_resolves_and_is_exported(name):
    module = importlib.import_module(f"nwflow.{name}")
    for public in module.__all__:
        assert getattr(module, public) is getattr(nwflow, public)


def test_init_names_no_export_by_hand():
    # Each module's __all__ is the one list of what the package exports; only
    # NwflowError, from a module without __all__, is imported by name.
    tree = ast.parse(Path(nwflow.__file__).read_text(encoding="utf-8"))
    imports = {
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imports == {("errors", "NwflowError")} | {(name, "*") for name in REEXPORTED}
