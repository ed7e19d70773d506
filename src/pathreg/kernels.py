"""Covariance kernel expression trees and their evaluation semantics.

A kernel expression is an immutable tree of leaf kernels (Matern, Wendland,
squared exponential, rational quadratic, periodic, Wiener, linear,
polynomial, feature) and combinators (conic combination, product, tensor
product, coordinate warp).  Trees are pure values: evaluation, structural
classification and printing never mutate them, so they are safe to share
across threads.

Evaluation is exact recursion over the tree: a conic node is the weighted
sum of its children, a product node the pointwise product, a tensor node the
product over factor blocks of the input coordinates, and a warp node the
child evaluated at the warped points.  Leaves delegate to
:mod:`pathreg.specfun`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import specfun

__all__ = [
    "KernelError",
    "ParameterError",
    "DomainError",
    "StructureError",
    "Kernel",
    "Matern",
    "Wendland",
    "SquaredExponential",
    "RationalQuadratic",
    "Periodic",
    "Wiener",
    "Linear",
    "Polynomial",
    "Feature",
    "Conic",
    "Product",
    "TensorProduct",
    "Warp",
    "StructureClass",
    "General",
    "Stationary",
    "Isotropic",
    "Tensor",
    "classify",
    "eval_kernel",
    "eval_radial",
    "eval_stationary",
    "pairwise",
    "FEATURE_FAMILIES",
    "WARP_FAMILIES",
]


class KernelError(Exception):
    """Base class for kernel expression errors."""


class ParameterError(KernelError):
    """A kernel parameter is outside its admissible range."""


class DomainError(KernelError):
    """A point lies outside the kernel's domain or has the wrong dimension."""


class StructureError(KernelError):
    """An operation requires a structural class the expression lacks."""


def _check_positive(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ParameterError(f"parameter {name} must be positive, got {value!r}")
    return value


def _check_int(name: str, value, minimum: int) -> int:
    if value != int(value):
        raise ParameterError(f"parameter {name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ParameterError(f"parameter {name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class Kernel:
    """Base class of all kernel expression nodes."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def children(self) -> tuple["Kernel", ...]:
        return ()


@dataclass(frozen=True)
class Matern(Kernel):
    nu: float
    lengthscale: float = 1.0
    input_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "nu", _check_positive("nu", self.nu))
        object.__setattr__(self, "lengthscale", _check_positive("lengthscale", self.lengthscale))
        object.__setattr__(self, "input_dim", _check_int("dim", self.input_dim, 1))

    @property
    def dim(self) -> int:
        return self.input_dim


@dataclass(frozen=True)
class Wendland(Kernel):
    d: int
    n: int
    lengthscale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "d", _check_int("d", self.d, 1))
        object.__setattr__(self, "n", _check_int("n", self.n, 0))
        object.__setattr__(self, "lengthscale", _check_positive("lengthscale", self.lengthscale))

    @property
    def dim(self) -> int:
        return self.d

    @property
    def polynomial(self) -> specfun.PiecewisePolynomial:
        return _wendland_poly_cached(self.d, self.n)


_WENDLAND_CACHE: dict[tuple[int, int], specfun.PiecewisePolynomial] = {}


def _wendland_poly_cached(d: int, n: int) -> specfun.PiecewisePolynomial:
    key = (d, n)
    if key not in _WENDLAND_CACHE:
        _WENDLAND_CACHE[key] = specfun.wendland_polynomial(d, n)
    return _WENDLAND_CACHE[key]


@dataclass(frozen=True)
class SquaredExponential(Kernel):
    lengthscale: float = 1.0
    input_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "lengthscale", _check_positive("lengthscale", self.lengthscale))
        object.__setattr__(self, "input_dim", _check_int("dim", self.input_dim, 1))

    @property
    def dim(self) -> int:
        return self.input_dim


@dataclass(frozen=True)
class RationalQuadratic(Kernel):
    a: float
    lengthscale: float = 1.0
    input_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "a", _check_positive("a", self.a))
        object.__setattr__(self, "lengthscale", _check_positive("lengthscale", self.lengthscale))
        object.__setattr__(self, "input_dim", _check_int("dim", self.input_dim, 1))

    @property
    def dim(self) -> int:
        return self.input_dim


@dataclass(frozen=True)
class Periodic(Kernel):
    """exp(-sin(pi (x - y) / lengthscale)^2) on the real line."""

    lengthscale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "lengthscale", _check_positive("lengthscale", self.lengthscale))

    @property
    def dim(self) -> int:
        return 1


@dataclass(frozen=True)
class Wiener(Kernel):
    """min(x, y) on the open positive half-line."""

    @property
    def dim(self) -> int:
        return 1


@dataclass(frozen=True)
class Linear(Kernel):
    input_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "input_dim", _check_int("dim", self.input_dim, 1))

    @property
    def dim(self) -> int:
        return self.input_dim


@dataclass(frozen=True)
class Polynomial(Kernel):
    m: int
    input_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "m", _check_int("m", self.m, 1))
        object.__setattr__(self, "input_dim", _check_int("dim", self.input_dim, 1))

    @property
    def dim(self) -> int:
        return self.input_dim


FEATURE_FAMILIES = ("monomials", "trig")


@dataclass(frozen=True)
class Feature(Kernel):
    """Explicit feature-map kernel phi(x)^T phi(y) over a built-in family.

    ``monomials`` maps x to (1, x, ..., x^degree); ``trig`` maps x to the
    cosine/sine pairs at frequencies 1..degree.  Both families are smooth,
    so the declared sample-path order is infinite (as a sufficient bound).
    """

    family: str
    degree: int

    def __post_init__(self):
        if self.family not in FEATURE_FAMILIES:
            raise ParameterError(
                f"unknown feature family {self.family!r}; choose from {FEATURE_FAMILIES}"
            )
        object.__setattr__(self, "degree", _check_int("degree", self.degree, 1))

    @property
    def dim(self) -> int:
        return 1

    @property
    def declared_order(self):
        return math.inf

    def feature_map(self, X: np.ndarray) -> np.ndarray:
        x = X[:, 0]
        if self.family == "monomials":
            return np.stack([x**j for j in range(self.degree + 1)], axis=1)
        cols = []
        for j in range(1, self.degree + 1):
            cols.append(np.cos(2.0 * math.pi * j * x))
            cols.append(np.sin(2.0 * math.pi * j * x))
        return np.stack(cols, axis=1)


@dataclass(frozen=True)
class Conic(Kernel):
    terms: tuple[Kernel, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not self.terms:
            raise ParameterError("conic combination needs at least one child")
        if len(self.terms) != len(self.weights):
            raise ParameterError("conic combination needs one weight per child")
        for w in self.weights:
            if not math.isfinite(w) or w <= 0.0:
                raise ParameterError(f"conic weights must be positive, got {w!r}")
        dims = {c.dim for c in self.terms}
        if len(dims) != 1:
            raise DomainError(f"conic children disagree on input dimension: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.terms[0].dim

    @property
    def children(self) -> tuple[Kernel, ...]:
        return self.terms


@dataclass(frozen=True)
class Product(Kernel):
    factors: tuple[Kernel, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 2:
            raise ParameterError("product combines at least two children")
        dims = {c.dim for c in self.factors}
        if len(dims) != 1:
            raise DomainError(f"product children disagree on input dimension: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.factors[0].dim

    @property
    def children(self) -> tuple[Kernel, ...]:
        return self.factors


@dataclass(frozen=True)
class TensorProduct(Kernel):
    factors: tuple[Kernel, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 2:
            raise ParameterError("tensor product combines at least two children")

    @property
    def dim(self) -> int:
        return sum(c.dim for c in self.factors)

    @property
    def children(self) -> tuple[Kernel, ...]:
        return self.factors


WARP_FAMILIES = ("affine", "abs_power")


@dataclass(frozen=True)
class Warp(Kernel):
    """Child kernel evaluated at componentwise-warped inputs.

    ``affine`` applies x -> a x + b (smooth); ``abs_power`` applies
    x -> |x|^beta with beta in (0, 1], whose declared Holder order is beta.
    """

    child: Kernel
    family: str
    params: tuple[float, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.family == "affine":
            if len(self.params) != 2:
                raise ParameterError("affine warp takes parameters (a, b)")
            if not all(math.isfinite(p) for p in self.params):
                raise ParameterError("affine warp parameters must be finite")
        elif self.family == "abs_power":
            if len(self.params) != 1:
                raise ParameterError("abs_power warp takes a single parameter beta")
            beta = self.params[0]
            if not (0.0 < beta <= 1.0):
                raise ParameterError(f"parameter beta must lie in (0, 1], got {beta!r}")
        else:
            raise ParameterError(
                f"unknown warp family {self.family!r}; choose from {WARP_FAMILIES}"
            )

    @property
    def dim(self) -> int:
        return self.child.dim

    @property
    def children(self) -> tuple[Kernel, ...]:
        return (self.child,)

    @property
    def declared_order(self):
        if self.family == "affine":
            return math.inf
        return Fraction(self.params[0])

    def apply(self, X: np.ndarray) -> np.ndarray:
        if self.family == "affine":
            a, b = self.params
            return a * X + b
        return np.abs(X) ** self.params[0]


# --- structural classification ------------------------------------------


@dataclass(frozen=True)
class StructureClass:
    pass


@dataclass(frozen=True)
class General(StructureClass):
    pass


@dataclass(frozen=True)
class Stationary(StructureClass):
    pass


@dataclass(frozen=True)
class Isotropic(Stationary):
    pass


@dataclass(frozen=True)
class Tensor(StructureClass):
    factors: tuple[StructureClass, ...]


def classify(expr: Kernel) -> StructureClass:
    """Syntactic structural class of an expression.

    Leaves come from a fixed table; conic combinations and products of
    stationary (isotropic) children are stationary (isotropic); warps and
    nested tensor products demote to general.  A ``Tensor`` class is
    returned only for a top-level tensor product node.
    """
    if isinstance(expr, TensorProduct):
        return Tensor(tuple(_classify_inner(c) for c in expr.factors))
    return _classify_inner(expr)


def _classify_inner(expr: Kernel) -> StructureClass:
    if isinstance(expr, (Matern, Wendland, SquaredExponential, RationalQuadratic)):
        return Isotropic()
    if isinstance(expr, Periodic):
        return Stationary()
    if isinstance(expr, (Wiener, Linear, Polynomial, Feature)):
        return General()
    if isinstance(expr, (Conic, Product)):
        classes = [_classify_inner(c) for c in expr.children]
        if all(isinstance(c, Isotropic) for c in classes):
            return Isotropic()
        if all(isinstance(c, Stationary) for c in classes):
            return Stationary()
        return General()
    if isinstance(expr, (Warp, TensorProduct)):
        return General()
    raise TypeError(f"not a kernel expression: {expr!r}")


# --- evaluation -----------------------------------------------------------


def _as_points(x, dim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim == 1:
        if dim == 1 and arr.shape[0] != 1:
            arr = arr.reshape(-1, 1)
        else:
            arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DomainError(
            f"expected points of dimension {dim}, got array of shape {np.shape(x)}"
        )
    return arr


def _radial_profile(expr: Kernel, r: np.ndarray) -> np.ndarray:
    if isinstance(expr, Matern):
        return specfun.matern_radial(expr.nu, r / expr.lengthscale)
    if isinstance(expr, Wendland):
        return expr.polynomial(r / expr.lengthscale)
    if isinstance(expr, SquaredExponential):
        q = r / expr.lengthscale
        return np.exp(-(q * q))
    if isinstance(expr, RationalQuadratic):
        q = r / expr.lengthscale
        return (1.0 + q * q) ** (-expr.a)
    if isinstance(expr, Conic):
        acc = expr.weights[0] * _radial_profile(expr.terms[0], r)
        for w, c in zip(expr.weights[1:], expr.terms[1:]):
            acc = acc + w * _radial_profile(c, r)
        return acc
    if isinstance(expr, Product):
        acc = _radial_profile(expr.factors[0], r)
        for c in expr.factors[1:]:
            acc = acc * _radial_profile(c, r)
        return acc
    raise StructureError(f"{type(expr).__name__} node has no radial form")


def _stationary_profile(expr: Kernel, h: np.ndarray) -> np.ndarray:
    # h has shape (..., dim); returns values of k_delta at each lag
    if isinstance(expr, Periodic):
        q = h[..., 0] / expr.lengthscale
        s = np.sin(math.pi * q)
        return np.exp(-(s * s))
    if isinstance(expr, (Matern, Wendland, SquaredExponential, RationalQuadratic)):
        return _radial_profile(expr, np.sqrt(np.sum(h * h, axis=-1)))
    if isinstance(expr, Conic):
        acc = expr.weights[0] * _stationary_profile(expr.terms[0], h)
        for w, c in zip(expr.weights[1:], expr.terms[1:]):
            acc = acc + w * _stationary_profile(c, h)
        return acc
    if isinstance(expr, Product):
        acc = _stationary_profile(expr.factors[0], h)
        for c in expr.factors[1:]:
            acc = acc * _stationary_profile(c, h)
        return acc
    raise StructureError(f"{type(expr).__name__} node has no stationary form")


def _check_wiener_domain(X: np.ndarray) -> None:
    if np.any(X <= 0.0):
        raise DomainError("the Wiener kernel is defined on strictly positive inputs")


def pairwise(expr: Kernel, X, Y) -> np.ndarray:
    """Matrix of kernel values k(X[i], Y[j]) for point arrays of shape (n, d)."""
    X = _as_points(X, expr.dim)
    Y = _as_points(Y, expr.dim)
    return _pairwise(expr, X, Y)


def _pairwise(expr: Kernel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    if isinstance(expr, (Matern, Wendland, SquaredExponential, RationalQuadratic)):
        diff = X[:, None, :] - Y[None, :, :]
        r = np.sqrt(np.sum(diff * diff, axis=-1))
        return _radial_profile(expr, r)
    if isinstance(expr, Periodic):
        return _stationary_profile(expr, X[:, None, :] - Y[None, :, :])
    if isinstance(expr, Wiener):
        _check_wiener_domain(X)
        _check_wiener_domain(Y)
        return np.minimum(X[:, 0][:, None], Y[:, 0][None, :])
    if isinstance(expr, Linear):
        return X @ Y.T
    if isinstance(expr, Polynomial):
        return (1.0 + X @ Y.T) ** expr.m
    if isinstance(expr, Feature):
        return expr.feature_map(X) @ expr.feature_map(Y).T
    if isinstance(expr, Conic):
        acc = expr.weights[0] * _pairwise(expr.terms[0], X, Y)
        for w, c in zip(expr.weights[1:], expr.terms[1:]):
            acc = acc + w * _pairwise(c, X, Y)
        return acc
    if isinstance(expr, Product):
        acc = _pairwise(expr.factors[0], X, Y)
        for c in expr.factors[1:]:
            acc = acc * _pairwise(c, X, Y)
        return acc
    if isinstance(expr, TensorProduct):
        acc = None
        offset = 0
        for c in expr.factors:
            block = _pairwise(c, X[:, offset : offset + c.dim], Y[:, offset : offset + c.dim])
            acc = block if acc is None else acc * block
            offset += c.dim
        return acc
    if isinstance(expr, Warp):
        return _pairwise(expr.child, expr.apply(X), expr.apply(Y))
    raise TypeError(f"not a kernel expression: {expr!r}")


def eval_kernel(expr: Kernel, x, y) -> float:
    """Evaluate k(x, y) for single points x, y of the expression's dimension."""
    X = _as_points(x, expr.dim)
    Y = _as_points(y, expr.dim)
    if X.shape[0] != 1 or Y.shape[0] != 1:
        raise DomainError("eval_kernel expects single points; use pairwise for batches")
    return float(_pairwise(expr, X, Y)[0, 0])


def eval_radial(expr: Kernel, r):
    """Radial profile k_r(r) of an isotropic expression; r scalar or ndarray."""
    if not isinstance(classify(expr), Isotropic):
        raise StructureError(
            f"eval_radial needs an isotropic expression, got {classify(expr)!r}"
        )
    arr = np.asarray(r, dtype=float)
    if arr.size and np.any(arr < 0.0):
        raise DomainError("radial distance must be >= 0")
    out = _radial_profile(expr, np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out.reshape(np.shape(r))


def eval_stationary(expr: Kernel, h):
    """Lag profile k_delta(h) of a stationary expression; h is a lag vector."""
    cls = classify(expr)
    if not isinstance(cls, Stationary):
        raise StructureError(
            f"eval_stationary needs a stationary expression, got {cls!r}"
        )
    arr = np.asarray(h, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.shape[0] != expr.dim:
        raise DomainError(
            f"expected a lag vector of dimension {expr.dim}, got shape {np.shape(h)}"
        )
    return float(_stationary_profile(expr, arr[None, :])[0])
