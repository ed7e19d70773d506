"""Sample-path regularity of Gaussian processes from their covariance kernels.

The package pairs a symbolic calculus with numeric verification:

* :mod:`pathreg.kernels` and :mod:`pathreg.dsl` define composable kernel
  expression trees and a small textual language for them;
* :mod:`pathreg.regularity` infers sample-path orders, one per tensor
  factor (how many derivatives the paths of the centred GP admit, and the
  Holder exponent beyond), together with a Sobolev order;
* :mod:`pathreg.verify` checks the inferred orders against the kernel
  numerically through diagonal difference quotients and exponent fits;
* :mod:`pathreg.sampling` and :mod:`pathreg.structure` draw reproducible
  sample paths and estimate their regularity from structure functions.

The ``pathreg`` command line ties the pipeline together.

Importing the package loads none of its modules: each name below, and
each submodule, is imported on first access, so a program that only
parses and analyses kernels never loads numpy.
"""

import importlib

# name -> the module that defines it
_EXPORTS = {
    "dsl": ("ParseError", "parse_kernel", "print_kernel"),
    "kernels": (
        "AbsPower",
        "Affine",
        "Conic",
        "DomainError",
        "Feature",
        "Kernel",
        "KernelError",
        "Linear",
        "Matern",
        "ParameterError",
        "Periodic",
        "Polynomial",
        "Product",
        "RationalQuadratic",
        "SquaredExponential",
        "StructureError",
        "TensorProduct",
        "Warp",
        "Wendland",
        "Wiener",
        "classify",
        "eval_kernel",
        "eval_radial",
        "eval_stationary",
        "pairwise",
        "partials",
    ),
    "regularity": ("Regularity", "RegularityReport", "infer_regularity"),
    "sampling": (
        "Axis",
        "FactorizationError",
        "Grid",
        "PathSamples",
        "build_gram",
        "cholesky_with_jitter",
        "sample_derivative_paths",
        "sample_paths",
    ),
    "structure": ("EstimateResult", "axiswise_regularity", "estimate_path_regularity"),
    "verify": (
        "BeyondProbeRange",
        "ExponentFit",
        "SmoothToOrder",
        "VerifyConfig",
        "VerifyReport",
        "detect_order",
        "loglog_fit",
        "verify_regularity",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", "dsl", "kernels", "regularity", "sampling", "specfun", "structure", "verify")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
