"""Stable kernel toolkit for regularized impulse-response estimation.

Submodules are imported on first attribute access so the command-line
entry point can pin thread environment variables before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # kernels
    "KernelSpec": "kernels",
    "ss": "kernels",
    "tc": "kernels",
    "dc": "kernels",
    "spline1": "kernels",
    "spline2": "kernels",
    "genspline1": "kernels",
    "eval_kernel": "kernels",
    "stable_params": "kernels",
    "verify_stable_spline_identity": "kernels",
    # grids
    "TimeGrid": "grids",
    "unit_grid": "grids",
    "halfline_grid": "grids",
    # quadrature
    "QuadratureConfig": "quadrature",
    "DEFAULT_QUADRATURE": "quadrature",
    "integrate_unit": "quadrature",
    "integrate_halfline": "quadrature",
    # mercer
    "EigenSystem": "mercer",
    "eigenvalue": "mercer",
    "eigenvalues": "mercer",
    "eigenfunction": "mercer",
    "expansion_grid": "mercer",
    "spline1_tail_bound": "mercer",
    # rkhs
    "FunctionHandle": "rkhs",
    "MembershipVerdict": "rkhs",
    "membership_necessary_check": "rkhs",
    "dc_norm_integral": "rkhs",
    "tc_norm_integral": "rkhs",
    "dc_norm_series": "rkhs",
    # maxent
    "GaussianSample": "maxent",
    "SampleBatch": "maxent",
    "sample_dc_process": "maxent",
    "sample_dc_markov": "maxent",
    "verify_maxent_constraints": "maxent",
    "gaussian_log_det": "maxent",
    # kernelmat
    "KernelMatrix": "kernelmat",
    "assemble": "kernelmat",
    "markov_factors": "kernelmat",
    "tridiagonal_inverse": "kernelmat",
    "QuasiseparableGram": "kernelmat",
    # estimator
    "ImpulseInput": "estimator",
    "StepInput": "estimator",
    "ExpSumInput": "estimator",
    "ZohInput": "estimator",
    "Dataset": "estimator",
    "estimate": "estimator",
    "reconstruct": "estimator",
    "grid_search_gamma": "estimator",
    "output_kernel": "estimator",
    # verification
    "run_suite": "verification",
    "CheckResult": "verification",
    # errors
    "DomainError": "errors",
    "ConfigError": "errors",
    "ConditioningError": "errors",
    "QuadratureError": "errors",
    "DivergenceError": "errors",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
