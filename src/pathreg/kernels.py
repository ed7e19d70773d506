"""Covariance kernel expression trees and their evaluation semantics.

A kernel expression is an immutable tree of leaf kernels and combinators
(conic combination, product, tensor product, coordinate warp).  Trees are
pure values: evaluation, structural classification and printing never
mutate them, so they are safe to share across threads.

Each leaf is one dataclass below, listed in ``LEAVES``, and that class is
the only place the leaf is described.  It declares

* its DSL name, ``name``;
* its parameters, which are its fields: a field without a default is
  required, an ``int`` field takes integers of at least its ``minimum``
  metadata (1 when absent), a ``str`` field takes one of its ``choices``
  and is an identifier in the DSL, and any other field takes a positive
  real; the ``dsl`` metadata renames a field in the DSL (``input_dim`` is
  ``dim`` there);
* its structural class, ``structure``: ``Isotropic``, ``Stationary`` or
  ``General``;
* its sample-path order, ``path_order``: (order, sharp, log-corrected);
* its value: ``radial(r)`` for an isotropic leaf, ``lag(h)`` for a
  stationary one, ``cross(X, Y)`` for a general one (the base class builds
  the other two forms from the one declared);
* for a stationary leaf, which derivatives of its lag profile exist at the
  origin (``lag_exists``) and those derivatives with the magnitudes of the
  terms summed into them (``lag_terms``).

The DSL's parser and printer, ``classify``, evaluation,
``regularity.leaf_regularity`` and ``verify`` read these declarations.
Warp families are rows of ``WARPS`` in the same way.

Evaluation is exact recursion over the tree: a conic node is the weighted
sum of its children, a product node the pointwise product, a tensor node the
product over factor blocks of the input coordinates, and a warp node the
child evaluated at the warped points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, ClassVar

import numpy as np

from . import specfun

__all__ = [
    "KernelError",
    "ParameterError",
    "DomainError",
    "StructureError",
    "Kernel",
    "Leaf",
    "Matern",
    "Wendland",
    "SquaredExponential",
    "RationalQuadratic",
    "Periodic",
    "Wiener",
    "Linear",
    "Polynomial",
    "Feature",
    "LEAVES",
    "leaf_params",
    "Conic",
    "Product",
    "TensorProduct",
    "Warp",
    "WarpFamily",
    "WARPS",
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
    """A kernel parameter is outside its admissible range.

    ``param`` is the parameter at fault as the DSL spells it, or None when
    the error is not about one parameter.
    """

    def __init__(self, message: str, param: str | None = None):
        super().__init__(message)
        self.param = param


class DomainError(KernelError):
    """A point lies outside the kernel's domain or has the wrong dimension."""


class StructureError(KernelError):
    """An operation requires a structural class the expression lacks."""


def _check_positive(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ParameterError(f"parameter {name} must be positive, got {value!r}", name)
    return value


def _check_int(name: str, value, minimum: int) -> int:
    try:
        integer = int(value)
    except (OverflowError, ValueError):  # inf, nan
        integer = None
    if value != integer:
        raise ParameterError(f"parameter {name} must be an integer, got {value!r}", name)
    if integer < minimum:
        raise ParameterError(f"parameter {name} must be >= {minimum}, got {integer}", name)
    return integer


# --- structural classes ------------------------------------------------------


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


@dataclass(frozen=True)
class Kernel:
    """Base class of all kernel expression nodes."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def children(self) -> tuple["Kernel", ...]:
        return ()


# --- leaves -------------------------------------------------------------------


def leaf_params(cls) -> dict:
    """The fields of a leaf class keyed by their DSL names, in order.
    Annotations are strings here (postponed evaluation), so a field's
    ``type`` reads ``'int'``, ``'float'`` or ``'str'``."""
    return {f.metadata.get("dsl", f.name): f for f in fields(cls)}


@dataclass(frozen=True)
class Leaf(Kernel):
    """Base class of the leaf kernels; the module docstring lists what a
    leaf declares."""

    name: ClassVar[str]
    structure: ClassVar[type[StructureClass]]

    def __post_init__(self):
        # fields in declaration order, so the first bad one is reported
        for key, f in leaf_params(type(self)).items():
            value = getattr(self, f.name)
            if f.type == "int":
                value = _check_int(key, value, f.metadata.get("minimum", 1))
            elif f.type == "str":
                if value not in f.metadata["choices"]:
                    raise ParameterError(
                        f"unknown {self.name} {key} {value!r}; choose from {f.metadata['choices']}",
                        key,
                    )
            else:
                value = _check_positive(key, value)
            object.__setattr__(self, f.name, value)

    @property
    def dim(self) -> int:
        return getattr(self, "input_dim", 1)

    def lag(self, h: np.ndarray) -> np.ndarray:
        # lags h of shape (..., dim); an isotropic leaf's value at |h|
        return self.radial(np.sqrt(np.sum(h * h, axis=-1)))

    def cross(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        # the matrix k(X[i], Y[j]); a stationary leaf's value at X[i] - Y[j]
        return self.lag(X[:, None, :] - Y[None, :, :])

    def lag_exists(self, m: int) -> np.ndarray:
        # whether phi^(j), j = 0..m, exists at the origin: smooth by default
        return np.ones(m + 1, bool)


@dataclass(frozen=True)
class Matern(Leaf):
    nu: float
    lengthscale: float = 1.0
    input_dim: int = field(default=1, metadata={"dsl": "dim"})

    name = "matern"
    structure = Isotropic

    @property
    def path_order(self):
        nu = Fraction(self.nu)
        return (nu, True, nu.denominator == 1)

    def radial(self, r):
        return specfun.matern_radial(self.nu, r / self.lengthscale)

    def lag_exists(self, m: int) -> np.ndarray:
        return np.array([self.nu > j / 2.0 for j in range(m + 1)])

    def lag_terms(self, t: np.ndarray, m: int):
        """G(u) = c z^nu K_nu(z) with u = z^2 / 2, so by DLMF 10.29.4
        G^(k)(u) = c (-1)^k z^(nu-k) K_(nu-k)(z), with K_(-mu) = K_mu, one
        Bessel call per distinct order; at the origin it is the limit
        c (-1)^k 2^(nu-k-1) Gamma(nu-k), finite for k < nu."""
        nu = self.nu
        z = math.sqrt(2.0 * nu) * t / self.lengthscale
        pos = z > 0.0
        c = 2.0 ** (1.0 - nu) / specfun.gamma(nu)
        bessel: dict[float, np.ndarray] = {}
        g = []
        for k in range(m + 1):
            order = abs(nu - k)
            if order not in bessel:
                bessel[order] = specfun.bessel_k(order, z[pos])
            gk = np.full_like(t, np.inf)
            gk[pos] = (-1.0) ** k * c * z[pos] ** (nu - k) * bessel[order]
            if k < nu:
                gk[~pos] = (-1.0) ** k * c * 2.0 ** (nu - k - 1.0) * math.gamma(nu - k)
            g.append(gk)
        return _quadratic_inner(nu / self.lengthscale**2, g, t)


@dataclass(frozen=True)
class Wendland(Leaf):
    d: int
    n: int = field(metadata={"minimum": 0})
    lengthscale: float = 1.0

    name = "wendland"
    structure = Isotropic

    @property
    def dim(self) -> int:
        return self.d

    @property
    def path_order(self):
        return (Fraction(self.n) + Fraction(1, 2), True, False)

    @property
    def polynomial(self) -> specfun.PiecewisePolynomial:
        return _wendland_polynomial(self.d, self.n)

    def radial(self, r):
        return self.polynomial(r / self.lengthscale)

    def lag_exists(self, m: int) -> np.ndarray:
        # phi is even, so phi^(j) exists at the origin only if no odd power
        # of exponent <= j survives in its polynomial
        coeffs = self.polynomial.coeffs
        odd = [coeffs[i] != 0 for i in range(1, len(coeffs), 2)]
        return np.array([not any(odd[: (j + 1) // 2]) for j in range(m + 1)])

    def lag_terms(self, t: np.ndarray, m: int):
        # phi(t) = P(t / ell) from the stored rational polynomial, zero from
        # the support radius on
        ell = self.lengthscale
        rho = t / ell
        poly = self.polynomial
        values, scale = [], []
        for j in range(m + 1):
            values.append(poly(rho) / ell**j)
            magnitude = specfun.PiecewisePolynomial(tuple(abs(c) for c in poly.coeffs))
            scale.append(magnitude(rho) / ell**j)
            poly = poly.derivative()
        return np.stack(values), np.stack(scale)


_wendland_polynomial = functools.lru_cache(maxsize=None)(specfun.wendland_polynomial)


@dataclass(frozen=True)
class SquaredExponential(Leaf):
    lengthscale: float = 1.0
    input_dim: int = field(default=1, metadata={"dsl": "dim"})

    name = "se"
    structure = Isotropic
    path_order = (math.inf, True, False)

    def radial(self, r):
        q = r / self.lengthscale
        return np.exp(-(q * q))

    def lag_terms(self, t: np.ndarray, m: int):
        # G(u) = e^-u, u = t^2 / ell^2
        ell2 = self.lengthscale**2
        e = np.exp(-(t * t) / ell2)
        return _quadratic_inner(1.0 / ell2, [(-1.0) ** k * e for k in range(m + 1)], t)


@dataclass(frozen=True)
class RationalQuadratic(Leaf):
    a: float
    lengthscale: float = 1.0
    input_dim: int = field(default=1, metadata={"dsl": "dim"})

    name = "rq"
    structure = Isotropic
    path_order = (math.inf, True, False)

    def radial(self, r):
        q = r / self.lengthscale
        return (1.0 + q * q) ** (-self.a)

    def lag_terms(self, t: np.ndarray, m: int):
        # G(u) = (1 + u)^-a, u = t^2 / ell^2
        ell2 = self.lengthscale**2
        base = 1.0 + t * t / ell2
        g, rising = [], 1.0
        for k in range(m + 1):
            g.append(rising * base ** (-self.a - k))
            rising *= -self.a - k
        return _quadratic_inner(1.0 / ell2, g, t)


def _quadratic_inner(a: float, g: list, t: np.ndarray):
    """Derivatives 0..m of phi(t) = G(a t^2) and their term magnitudes,
    from g = [G^(k)(a t^2) for k = 0..m], through
    d^j/dt^j G(a t^2) = sum_i j!/(i! (j-2i)!) (2at)^(j-2i) a^i G^(j-i)(a t^2);
    at the origin only the term with j = 2i survives."""
    m = len(g) - 1
    x = 2.0 * a * t
    values = np.zeros((m + 1,) + t.shape)
    scale = np.zeros_like(values)
    zero = t == 0.0
    with np.errstate(invalid="ignore"):
        for j in range(m + 1):
            for i in range(j // 2 + 1):
                p = j - 2 * i
                coef = math.factorial(j) / (math.factorial(i) * math.factorial(p)) * a**i
                term = coef * x**p * g[j - i]
                if p:
                    term[zero] = 0.0
                values[j] += term
                scale[j] += np.abs(term)
    return values, scale


@dataclass(frozen=True)
class Periodic(Leaf):
    """exp(-sin(pi (x - y) / lengthscale)^2) on the real line."""

    lengthscale: float = 1.0

    name = "periodic"
    structure = Stationary
    path_order = (math.inf, True, False)

    def lag(self, h):
        q = h[..., 0] / self.lengthscale
        s = np.sin(math.pi * q)
        return np.exp(-(s * s))

    def lag_terms(self, t: np.ndarray, m: int):
        """phi(t) = e^(-u) with u = sin^2(w t / 2), w = 2 pi / ell, by
        (e^(-u))^(j) = -sum_i C(j-1, i) u^(i+1) (e^(-u))^(j-1-i), where
        u^(k) = -(w^k / 2) cos^(k)(w t) for k >= 1."""
        w = 2.0 * math.pi / self.lengthscale
        s = np.sin(math.pi * (t / self.lengthscale))
        cos, sin = np.cos(w * t), np.sin(w * t)
        # cos^(k) cycles through cos, -sin, -cos, sin
        du = [None] + [-0.5 * w**k * (cos, -sin, -cos, sin)[k % 4] for k in range(1, m + 1)]
        values = [np.exp(-(s * s))]
        scale = [values[0]]
        for j in range(1, m + 1):
            weights = [math.comb(j - 1, i) * du[i + 1] for i in range(j)]
            values.append(-sum(w * values[j - 1 - i] for i, w in enumerate(weights)))
            scale.append(sum(np.abs(w) * scale[j - 1 - i] for i, w in enumerate(weights)))
        return np.stack(values), np.stack(scale)


def _check_wiener_domain(X: np.ndarray) -> None:
    if np.any(X <= 0.0):
        raise DomainError("the Wiener kernel is defined on strictly positive inputs")


@dataclass(frozen=True)
class Wiener(Leaf):
    """min(x, y) on the open positive half-line."""

    name = "wiener"
    structure = General
    path_order = (Fraction(1, 2), True, False)

    def cross(self, X, Y):
        _check_wiener_domain(X)
        _check_wiener_domain(Y)
        return np.minimum(X[:, 0][:, None], Y[:, 0][None, :])


@dataclass(frozen=True)
class Linear(Leaf):
    input_dim: int = field(default=1, metadata={"dsl": "dim"})

    name = "linear"
    structure = General
    path_order = (math.inf, True, False)

    def cross(self, X, Y):
        return _inner(X, Y)


@dataclass(frozen=True)
class Polynomial(Leaf):
    m: int
    input_dim: int = field(default=1, metadata={"dsl": "dim"})

    name = "poly"
    structure = General
    path_order = (math.inf, True, False)

    def cross(self, X, Y):
        return (1.0 + _inner(X, Y)) ** self.m


FEATURE_FAMILIES = ("monomials", "trig")


@dataclass(frozen=True)
class Feature(Leaf):
    """Explicit feature-map kernel phi(x)^T phi(y) over a built-in family.

    ``monomials`` maps x to (1, x, ..., x^degree); ``trig`` maps x to the
    cosine/sine pairs at frequencies 1..degree.  Both families are smooth,
    so the declared sample-path order is infinite (as a sufficient bound).
    """

    family: str = field(metadata={"choices": FEATURE_FAMILIES})
    degree: int

    name = "feature"
    structure = General
    path_order = (math.inf, False, False)

    def feature_map(self, X: np.ndarray) -> np.ndarray:
        x = X[:, 0]
        if self.family == "monomials":
            return np.stack([x**j for j in range(self.degree + 1)], axis=1)
        cols = []
        for j in range(1, self.degree + 1):
            cols.append(np.cos(2.0 * math.pi * j * x))
            cols.append(np.sin(2.0 * math.pi * j * x))
        return np.stack(cols, axis=1)

    def cross(self, X, Y):
        return _inner(self.feature_map(X), self.feature_map(Y))


def _inner(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # A @ B.T summed one column at a time, so an entry does not depend on
    # the shape of the block it sits in: BLAS picks dot, gemv or gemm by
    # shape, and these round differently
    acc = A[:, 0, None] * B[None, :, 0]
    for j in range(1, A.shape[1]):
        acc += A[:, j, None] * B[None, :, j]
    return acc


LEAVES = (
    Matern, Wendland, SquaredExponential, RationalQuadratic, Periodic,
    Wiener, Linear, Polynomial, Feature,
)


# --- combinators ----------------------------------------------------------------


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

    structure = General  # nested in another node; classify gives a top-level one Tensor

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

    def cross(self, X, Y):
        acc = None
        offset = 0
        for c in self.factors:
            block = _pairwise(c, X[:, offset : offset + c.dim], Y[:, offset : offset + c.dim])
            acc = block if acc is None else acc * block
            offset += c.dim
        return acc


@dataclass(frozen=True)
class WarpFamily:
    """A coordinate warp family: its parameter names in order, a check
    that raises ParameterError on bad parameters, the warp's declared
    componentwise Holder order, and the warp itself."""

    params: tuple[str, ...]
    check: Callable[[tuple], None]
    order: Callable[[tuple], object]
    apply: Callable[[tuple, np.ndarray], np.ndarray]


def _check_affine(params):
    if len(params) != 2:
        raise ParameterError("affine warp takes parameters (a, b)")
    if not all(math.isfinite(p) for p in params):
        raise ParameterError("affine warp parameters must be finite")


def _check_abs_power(params):
    if len(params) != 1:
        raise ParameterError("abs_power warp takes a single parameter beta")
    if not (0.0 < params[0] <= 1.0):
        raise ParameterError(f"parameter beta must lie in (0, 1], got {params[0]!r}", "beta")


WARPS = {
    # x -> a x + b, smooth
    "affine": WarpFamily(("a", "b"), _check_affine, lambda p: math.inf, lambda p, X: p[0] * X + p[1]),
    # x -> |x|^beta, beta in (0, 1], of Holder order beta
    "abs_power": WarpFamily(
        ("beta",), _check_abs_power, lambda p: Fraction(p[0]), lambda p, X: np.abs(X) ** p[0]
    ),
}

WARP_FAMILIES = tuple(WARPS)


@dataclass(frozen=True)
class Warp(Kernel):
    """Child kernel evaluated at componentwise-warped inputs of one of the
    ``WARPS`` families."""

    child: Kernel
    family: str
    params: tuple[float, ...] = field(default=())

    structure = General

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.family not in WARPS:
            raise ParameterError(
                f"unknown warp family {self.family!r}; choose from {WARP_FAMILIES}"
            )
        WARPS[self.family].check(self.params)

    @property
    def dim(self) -> int:
        return self.child.dim

    @property
    def children(self) -> tuple[Kernel, ...]:
        return (self.child,)

    @property
    def declared_order(self):
        return WARPS[self.family].order(self.params)

    def apply(self, X: np.ndarray) -> np.ndarray:
        return WARPS[self.family].apply(self.params, X)

    def cross(self, X, Y):
        return _pairwise(self.child, self.apply(X), self.apply(Y))


# --- structural classification ------------------------------------------


def classify(expr: Kernel) -> StructureClass:
    """Syntactic structural class of an expression.

    Leaves declare theirs; conic combinations and products of stationary
    (isotropic) children are stationary (isotropic); warps and nested
    tensor products are general.  A ``Tensor`` class is returned only for
    a top-level tensor product node.
    """
    if isinstance(expr, TensorProduct):
        return Tensor(tuple(_classify_inner(c) for c in expr.factors))
    return _classify_inner(expr)


def _classify_inner(expr: Kernel) -> StructureClass:
    if isinstance(expr, (Conic, Product)):
        classes = [_classify_inner(c) for c in expr.children]
        if all(isinstance(c, Isotropic) for c in classes):
            return Isotropic()
        if all(isinstance(c, Stationary) for c in classes):
            return Stationary()
        return General()
    return expr.structure()


# --- evaluation -----------------------------------------------------------


def _fold(expr: Kernel, value):
    """Value of an expression whose conic and product nodes combine the
    values that ``value(node)`` gives for the other nodes beneath them."""
    if isinstance(expr, Conic):
        acc = expr.weights[0] * _fold(expr.terms[0], value)
        for w, c in zip(expr.weights[1:], expr.terms[1:]):
            acc = acc + w * _fold(c, value)
        return acc
    if isinstance(expr, Product):
        acc = _fold(expr.factors[0], value)
        for c in expr.factors[1:]:
            acc = acc * _fold(c, value)
        return acc
    return value(expr)


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


def pairwise(expr: Kernel, X, Y) -> np.ndarray:
    """Matrix of kernel values k(X[i], Y[j]) for point arrays of shape (n, d)."""
    X = _as_points(X, expr.dim)
    Y = _as_points(Y, expr.dim)
    return _pairwise(expr, X, Y)


def _pairwise(expr: Kernel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return _fold(expr, lambda node: node.cross(X, Y))


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
    # the leaves' radial forms at r itself: k(r e_1, 0) would take
    # sqrt(r * r), which under- or overflows far from 1
    r1 = np.atleast_1d(arr)
    out = _fold(expr, lambda leaf: leaf.radial(r1))
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
    return float(_fold(expr, lambda leaf: leaf.lag(arr[None, :]))[0])
