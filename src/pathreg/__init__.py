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
"""

from .dsl import ParseError, parse_kernel, print_kernel
from .kernels import (
    Conic,
    DomainError,
    Feature,
    Kernel,
    KernelError,
    Linear,
    Matern,
    ParameterError,
    Periodic,
    Polynomial,
    Product,
    RationalQuadratic,
    SquaredExponential,
    StructureError,
    TensorProduct,
    Warp,
    Wendland,
    Wiener,
    classify,
    eval_kernel,
    eval_radial,
    eval_stationary,
    pairwise,
    partials,
)
from .regularity import (
    Regularity,
    RegularityReport,
    infer_regularity,
)
from .sampling import (
    Axis,
    FactorizationError,
    Grid,
    PathSamples,
    build_gram,
    cholesky_with_jitter,
    sample_derivative_paths,
    sample_paths,
)
from .structure import (
    EstimateResult,
    axiswise_regularity,
    estimate_path_regularity,
)
from .verify import (
    BeyondProbeRange,
    ExponentFit,
    SmoothToOrder,
    VerifyConfig,
    VerifyReport,
    detect_order,
    loglog_fit,
    verify_regularity,
)

__version__ = "0.1.0"
