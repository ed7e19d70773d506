"""Covariance kernel expression trees and their evaluation semantics.

A kernel expression is an immutable tree of leaf kernels and combinators
(conic combination, product, tensor product, warp, derivative).  Trees are
pure values: evaluation, structural classification and printing never
mutate them, so they are safe to share across threads.

Each leaf is one frozen record class below (``_base.record``), listed in
``LEAVES``, and that class is the only place the leaf is described.  It
declares

* its DSL name, ``name``;
* its parameters, which are its fields: a field without a default is
  required, an ``int`` field takes integers of at least its ``minimum``
  metadata (1 when absent), a ``str`` field takes one of its ``choices``
  and is an identifier in the DSL, a field with ``real`` metadata takes any
  finite real, and any other field takes a positive real, at most its
  ``maximum`` metadata when present; the ``dsl`` metadata renames a field
  in the DSL (``input_dim`` is ``dim`` there);
* its structural class, ``structure``: ``Isotropic``, ``Stationary`` or
  ``General``;
* its sample-path order, ``path_order``: (order, sharp, log-corrected);
* its value: ``radial(r)`` for an isotropic leaf, ``lag(h)`` for a
  stationary one, ``cross(X, Y)`` for a general one (the base class builds
  the other two forms from the one declared);
* for a stationary leaf, which derivatives of its lag profile exist at the
  origin (``lag_exists``) and those derivatives with the magnitudes of the
  terms summed into them (``lag_terms``); an isotropic leaf declares them
  through G^(k)(u), its profile as a function of u = a r^2
  (``quadratic``);
* its exact mixed partials d_x^a d_y^b k (``jet``), which a stationary leaf
  takes from the declarations above: from ``lag_terms`` on points of one
  coordinate where it declares them, otherwise from G^(k)(u).

Each warp family is declared in the same way, by one record class listed
in ``WARPS`` whose fields are its parameters under the same rules.  It
declares its DSL name, ``name``; its componentwise Holder order,
``order``; the map itself, ``__call__``; and its k-th derivative at
coordinates z, ``derivative(z, k)`` for k >= 1, NaN where it has none.
``Warp(child, family)`` holds one family instance.

The DSL's parser and printer, ``classify``, evaluation,
``regularity.infer_regularity`` and ``verify`` read these declarations.

Evaluation is exact recursion over the tree: a conic node is the weighted
sum of its children, a product node the pointwise product (both combined
in place by ``_fold``, with which ``sampling.build_gram`` folds Grams), a
tensor node the product over factor blocks of the input coordinates, a
warp node the child evaluated at the warped points, and a derivative node
``Derivative(child, alpha)`` the child's exact partial d_x^alpha d_y^alpha,
the covariance of the child's derivative process.

Mixed partials are exact recursion too.  A node's jet on point sets X and
Y up to multi-indices (alpha, beta) maps every pair (a, b) with a <= alpha
and b <= beta componentwise to the matrices of d_x^a d_y^b k(X[i], Y[j])
and of the summed magnitudes of the terms that make each value (so
eps * magnitude bounds its rounding); NaN marks a partial that does not
exist there.  A conic node sums its children's jets, a product node
combines them by the bivariate Leibniz rule, a tensor node multiplies its
factors' jets over their coordinate blocks, and a warp node applies Faa di
Bruno's formula per coordinate to its child's jet at the warped points,
and a derivative node re-keys its child's jet at orders shifted by alpha.
Conic and product nodes share one check that their children agree on the
input dimension, which is the first child's, and one ``lag_exists``: a lag
derivative exists at the origin where all their children's do, and a
derivative node's where its child's of order 2|alpha| higher does.

Values (``cross``) and jets broadcast over leading batch dimensions: points
of shapes (..., n, d) and (..., m, d) give (..., n, m) matrices, and each
member equals the 2-D call on its own points bitwise, since every entry is
computed elementwise by the same operations.  ``pairwise`` and ``partials``
take 2-D points; ``verify`` batches its probe points through ``_pairwise``
and the node jets.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import ClassVar

from ._base import LazyModule, field, fields, record

# parsing, inference and printing load neither numpy nor specfun
np = LazyModule(globals(), "np", "numpy")
specfun = LazyModule(globals(), "specfun", f"{__package__}.specfun")

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
    "Parametric",
    "Affine",
    "AbsPower",
    "WARPS",
    "Warp",
    "Derivative",
    "derivative",
    "StructureClass",
    "General",
    "Stationary",
    "Isotropic",
    "classify",
    "eval_kernel",
    "eval_radial",
    "eval_stationary",
    "pairwise",
    "partials",
    "FEATURE_FAMILIES",
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


def _check_positive(name: str, value, maximum=None) -> float:
    value = float(value)
    if maximum is not None and not 0.0 < value <= maximum:
        raise ParameterError(f"parameter {name} must lie in (0, {maximum}], got {value!r}", name)
    if not math.isfinite(value) or value <= 0.0:
        raise ParameterError(f"parameter {name} must be positive, got {value!r}", name)
    return value


def _check_real(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"parameter {name} must be finite, got {value!r}", name)
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


@record
class StructureClass:
    pass


@record
class General(StructureClass):
    pass


@record
class Stationary(StructureClass):
    pass


@record
class Isotropic(Stationary):
    pass


@record
class Kernel:
    """Base class of all kernel expression nodes.  A node's input dimension
    is its first child's unless its class declares another."""

    @property
    def dim(self) -> int:
        return self.children[0].dim

    @property
    def children(self) -> tuple["Kernel", ...]:
        return ()


# --- leaves -------------------------------------------------------------------


def leaf_params(cls) -> dict:
    """The fields of a leaf or warp family class keyed by their DSL names,
    in order.  Annotations are strings here (postponed evaluation), so a
    field's ``type`` reads ``'int'``, ``'float'`` or ``'str'``."""
    return {f.metadata.get("dsl", f.name): f for f in fields(cls)}


class Parametric:
    """Base class of the leaves and the warp families, whose fields are
    their DSL parameters; it checks each field by the rules in the module
    docstring."""

    name: ClassVar[str]

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
            elif f.metadata.get("real"):
                value = _check_real(key, value)
            else:
                value = _check_positive(key, value, f.metadata.get("maximum"))
            object.__setattr__(self, f.name, value)


@record
class Leaf(Kernel, Parametric):
    """Base class of the leaf kernels; the module docstring lists what a
    leaf declares."""

    structure: ClassVar[type[StructureClass]]

    @property
    def dim(self) -> int:
        return getattr(self, "input_dim", 1)

    def lag(self, h: np.ndarray) -> np.ndarray:
        # lags h of shape (..., dim); an isotropic leaf's value at |h|
        return self.radial(np.sqrt(np.sum(h * h, axis=-1)))

    def cross(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        # the matrix k(X[i], Y[j]); a stationary leaf's value at X[i] - Y[j]
        return self.lag(X[..., :, None, :] - Y[..., None, :, :])

    def lag_exists(self, m: int) -> np.ndarray:
        # whether phi^(j), j = 0..m, exists at the origin: smooth by default
        return np.ones(m + 1, bool)

    def jet(self, X: np.ndarray, Y: np.ndarray, alpha: tuple, beta: tuple) -> dict:
        # a stationary leaf's partials in the lag t = x - y: from its lag
        # profile on points of one coordinate where it declares one,
        # otherwise from G^(k)
        t = X[..., :, None, :] - Y[..., None, :, :]
        if t.shape[-1] == 1 and hasattr(self, "lag_terms"):
            return _lag_jet(self, t[..., 0], alpha[0], beta[0])
        return _quadratic_jet(self, t, alpha, beta)


@record
class Matern(Leaf):
    nu: float
    lengthscale: float = 1.0
    input_dim: int = field(default=1, metadata={"dsl": "dim"})

    name = "matern"
    structure = Isotropic

    @property
    def path_order(self):
        nu = Fraction(repr(self.nu))
        return (nu, True, nu.denominator == 1)

    def radial(self, r):
        return specfun.matern_radial(self.nu, r / self.lengthscale)

    def lag_exists(self, m: int) -> np.ndarray:
        return np.array([self.nu > j / 2.0 for j in range(m + 1)])

    def quadratic(self, t: np.ndarray, m: int):
        """G(u) = c (z/2)^nu K_nu(z) with u = z^2 / 2 and c = 2 / Gamma(nu),
        so by DLMF 10.29.4 G^(k)(u) = c (-1/2)^k (z/2)^(nu-k) K_|nu-k|(z),
        every k from one ``specfun.bessel_ladder``; at the origin it is the
        limit c (-1/2)^k Gamma(nu-k) / 2, finite for k < nu."""
        nu = self.nu
        z = math.sqrt(2.0 * nu) * t / self.lengthscale
        pos = z > 0.0
        c = 2.0 / specfun.gamma(nu)
        ladder = specfun.bessel_ladder(nu, m, z[pos])
        g = []
        for k in range(m + 1):
            gk = np.full_like(t, np.inf)
            gk[pos] = (-0.5) ** k * c * ladder[k]
            if k < nu:
                gk[~pos] = (-0.5) ** k * c * 0.5 * math.gamma(nu - k)
            g.append(gk)
        return nu / self.lengthscale**2, g, [np.abs(gk) for gk in g]


@record
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

    def quadratic(self, t: np.ndarray, m: int):
        """G(u) = P(rho) with u = rho^2 / 2, rho = t / ell, so G^(k) is
        (rho^-1 d/drho)^k P, which maps rho^i to i (i-2) ... (i-2k+2)
        rho^(i-2k); zero from the support radius on, and infinite at the
        origin where an odd power leaves a negative one."""
        rho = t / self.lengthscale
        inside = rho < 1.0
        g, magnitude = [], []
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(m + 1):
                value, size = np.zeros_like(rho), np.zeros_like(rho)
                for i, c in enumerate(self.polynomial.coeffs):
                    c = float(c * math.prod(range(i, i - 2 * k, -2)))
                    if c:
                        term = c * rho ** (i - 2 * k)
                        value += term
                        size += np.abs(term)
                g.append(np.where(inside, value, 0.0))
                magnitude.append(np.where(inside, size, 0.0))
        return 0.5 / self.lengthscale**2, g, magnitude


@functools.lru_cache(maxsize=None)
def _wendland_polynomial(d: int, n: int) -> specfun.PiecewisePolynomial:
    return specfun.wendland_polynomial(d, n)


@record
class SquaredExponential(Leaf):
    lengthscale: float = 1.0
    input_dim: int = field(default=1, metadata={"dsl": "dim"})

    name = "se"
    structure = Isotropic
    path_order = (math.inf, True, False)

    def radial(self, r):
        q = r / self.lengthscale
        return np.exp(-(q * q))

    def quadratic(self, t: np.ndarray, m: int):
        # G(u) = e^-u, u = t^2 / ell^2; 1 / ell^2 first raises where ell^2 underflows
        ell2 = self.lengthscale**2
        a = 1.0 / ell2
        e = np.exp(-(t * t) / ell2)
        return a, [(-1.0) ** k * e for k in range(m + 1)], [e] * (m + 1)


@record
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

    def quadratic(self, t: np.ndarray, m: int):
        # G(u) = (1 + u)^-a, u = t^2 / ell^2; 1 / ell^2 first, as for se
        ell2 = self.lengthscale**2
        scale = 1.0 / ell2
        base = 1.0 + t * t / ell2
        g, rising = [], 1.0
        for k in range(m + 1):
            g.append(rising * base ** (-self.a - k))
            rising *= -self.a - k
        return scale, g, [np.abs(gk) for gk in g]


def _lag_jet(leaf: Leaf, t: np.ndarray, alpha: int, beta: int) -> dict:
    """Jet of a 1-D stationary leaf at lags t = x - y: d_x^a d_y^b phi(t)
    = (-1)^b phi^(a+b)(t), and phi^(j)(t) = sign(t)^j psi^(j)(|t|) from the
    derivatives psi^(j) that ``lag_terms`` gives at |t|; NaN at t = 0 where
    the derivative does not exist at the origin (where it does, an odd one
    is 0 there)."""
    m = alpha + beta
    values, scale = leaf.lag_terms(np.abs(t), m)
    missing = (t == 0.0) & ~leaf.lag_exists(m).reshape((-1,) + (1,) * t.ndim)
    values, scale = np.where(missing, np.nan, values), np.where(missing, np.nan, scale)
    negative = t < 0.0
    jet = {}
    for a in range(alpha + 1):
        for b in range(beta + 1):
            # (-1)^b sign(t)^(a+b) is (-1)^a where t < 0
            sign = np.where(negative, (-1.0) ** a, (-1.0) ** b)
            jet[(a,), (b,)] = (sign * values[a + b], scale[a + b])
    return jet


def _quadratic_jet(leaf: Leaf, t: np.ndarray, alpha: tuple, beta: tuple) -> dict:
    """Jet of an isotropic leaf G(a |t|^2) at lags t = x - y of shape
    (n, m, d): d_x^a d_y^b = (-1)^|b| d_t^c with c = a + b, and per axis
    d_t^c G = sum_i prod_axis [c!/(i! (c-2i)!) (2a t)^(c-2i) a^i]
    G^(|c|-|i|), the axiswise form of
    d^j/dt^j G(a t^2) = sum_i j!/(i! (j-2i)!) (2at)^(j-2i) a^i G^(j-i)(a t^2);
    at the origin only the terms with c = 2i survive.  The terms are taken
    at |t| and the sum signed by sign(t)^c per axis, since c - 2i has the
    parity of c: numpy's power is not sign-symmetric, and this keeps the jet
    exactly odd or even in each coordinate."""
    top = sum(alpha) + sum(beta)
    r = np.sqrt(np.sum(t * t, axis=-1))
    a, g, magnitude = leaf.quadratic(r, top)
    x = 2.0 * a * np.abs(t)
    negative = t < 0.0
    origin = r == 0.0
    exists = leaf.lag_exists(top)
    jet = {}
    with np.errstate(invalid="ignore"):
        for key in _pairs(alpha, beta):
            c = [p + q for p, q in zip(*key)]
            values, scale = np.zeros_like(r), np.zeros_like(r)
            for i in _indices([ci // 2 for ci in c]):
                coef = math.prod(
                    math.factorial(ci) / (math.factorial(ii) * math.factorial(ci - 2 * ii)) * a**ii
                    for ci, ii in zip(c, i)
                )
                mono = math.prod(x[..., ax] ** (ci - 2 * ii) for ax, (ci, ii) in enumerate(zip(c, i)))
                k = sum(c) - sum(i)
                term = coef * mono * g[k]
                size = np.abs(coef * mono) * magnitude[k]
                if any(ci - 2 * ii for ci, ii in zip(c, i)):
                    term[origin] = size[origin] = 0.0
                values += term
                scale += size
            if not exists[sum(c)]:
                values[origin] = scale[origin] = np.nan
            sign = math.prod(
                np.where(negative[..., ax], (-1.0) ** ci, 1.0) for ax, ci in enumerate(c)
            )
            jet[key] = ((-1.0) ** sum(key[1]) * (sign * values), scale)
    return jet


def _indices(alpha) -> list[tuple[int, ...]]:
    # every multi-index a <= alpha componentwise, in row-major order
    return list(itertools.product(*(range(int(a) + 1) for a in alpha)))


def _pairs(alpha, beta) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [(a, b) for a in _indices(alpha) for b in _indices(beta)]


@record
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


@record
class Wiener(Leaf):
    """min(x, y) on the open positive half-line."""

    name = "wiener"
    structure = General
    path_order = (Fraction(1, 2), True, False)

    def cross(self, X, Y):
        _check_wiener_domain(X)
        _check_wiener_domain(Y)
        return np.minimum(X[..., :, 0, None], Y[..., None, :, 0])

    def jet(self, X, Y, alpha, beta):
        # no partial derivative above order 0
        k = self.cross(X, Y)
        nan = np.full_like(k, np.nan)
        return {
            key: (k, np.abs(k)) if key == ((0,), (0,)) else (nan, nan)
            for key in _pairs(alpha, beta)
        }


class _FeatureLeaf(Leaf):
    """A general leaf k(x, y) = sum_j w_j f_j(x) f_j(y); it declares the
    columns d^a f_j at points P (``features(P, a)``) and the weights w_j."""

    weights = 1.0

    def cross(self, X, Y):
        zero = (0,) * self.dim
        return _inner(self.weights * self.features(X, zero), self.features(Y, zero))

    def jet(self, X, Y, alpha, beta):
        fx = {a: self.weights * self.features(X, a) for a in _indices(alpha)}
        fy = {b: self.features(Y, b) for b in _indices(beta)}
        return {
            (a, b): (_inner(A, B), _inner(np.abs(A), np.abs(B)))
            for a, A in fx.items()
            for b, B in fy.items()
        }


@record
class Linear(_FeatureLeaf):
    input_dim: int = field(default=1, metadata={"dsl": "dim"})

    name = "linear"
    structure = General
    path_order = (math.inf, True, False)

    def features(self, P, a):
        # f_j(x) = x_j: the points, a unit column, or zero
        if sum(a) == 0:
            return P
        if sum(a) == 1:
            return np.broadcast_to(np.array(a, float), P.shape)
        return np.zeros_like(P)


@record
class Polynomial(_FeatureLeaf):
    m: int
    input_dim: int = field(default=1, metadata={"dsl": "dim"})

    name = "poly"
    structure = General
    path_order = (math.inf, True, False)

    def cross(self, X, Y):
        return (1.0 + _inner(X, Y)) ** self.m

    @property
    def exponents(self) -> list[tuple[int, ...]]:
        # (1 + x.y)^m = sum_kappa m!/((m-|kappa|)! kappa!) x^kappa y^kappa
        return [k for k in _indices([self.m] * self.dim) if sum(k) <= self.m]

    @property
    def weights(self) -> np.ndarray:
        f = math.factorial
        return np.array([
            f(self.m) / (f(self.m - sum(k)) * math.prod(f(ki) for ki in k)) for k in self.exponents
        ])

    def features(self, P, a):
        cols = []
        for kappa in self.exponents:
            coef = math.prod(math.perm(k, ai) for k, ai in zip(kappa, a))
            col = np.full(P.shape[:-1], float(coef))
            if coef:
                for axis, (k, ai) in enumerate(zip(kappa, a)):
                    col = col * P[..., axis] ** (k - ai)
            cols.append(col)
        return np.stack(cols, axis=-1)


FEATURE_FAMILIES = ("monomials", "trig")


@record
class Feature(_FeatureLeaf):
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

    def features(self, P, a):
        (a,) = a
        x = P[..., 0]
        if self.family == "monomials":
            return np.stack([
                math.perm(j, a) * x ** (j - a) if j >= a else np.zeros_like(x)
                for j in range(self.degree + 1)
            ], axis=-1)
        cols = []
        for j in range(1, self.degree + 1):
            # cos^(a) and sin^(a) cycle through +-cos and +-sin
            w = 2.0 * math.pi * j
            c, s = np.cos(w * x), np.sin(w * x)
            cols.append(w**a * (c, -s, -c, s)[a % 4])
            cols.append(w**a * (s, c, -s, -c)[a % 4])
        return np.stack(cols, axis=-1)


def _inner(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # A @ B.T summed one column at a time, so an entry does not depend on
    # the shape of the block it sits in: BLAS picks dot, gemv or gemm by
    # shape, and these round differently
    acc = A[..., :, 0, None] * B[..., None, :, 0]
    for j in range(1, A.shape[-1]):
        acc += A[..., :, j, None] * B[..., None, :, j]
    return acc


LEAVES = (
    Matern, Wendland, SquaredExponential, RationalQuadratic, Periodic,
    Wiener, Linear, Polynomial, Feature,
)


# --- combinators ----------------------------------------------------------------


@record
class _Pointwise(Kernel):
    """Base class of Conic and Product, whose children take the same points."""

    def __post_init__(self):
        dims = sorted({c.dim for c in self.children})
        if len(dims) != 1:
            kind = type(self).__name__.lower()
            raise DomainError(f"{kind} children disagree on input dimension: {dims}")

    def lag_exists(self, m: int) -> np.ndarray:
        return np.logical_and.reduce([c.lag_exists(m) for c in self.children])


@record
class Conic(_Pointwise):
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
        super().__post_init__()

    @property
    def children(self) -> tuple[Kernel, ...]:
        return self.terms

    def jet(self, X, Y, alpha, beta):
        parts = [c.jet(X, Y, alpha, beta) for c in self.terms]
        return {
            key: tuple(sum(w * p[key][i] for w, p in zip(self.weights, parts)) for i in (0, 1))
            for key in parts[0]
        }


@record
class Product(_Pointwise):
    factors: tuple[Kernel, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 2:
            raise ParameterError("product combines at least two children")
        super().__post_init__()

    @property
    def children(self) -> tuple[Kernel, ...]:
        return self.factors

    def jet(self, X, Y, alpha, beta):
        return functools.reduce(_leibniz_jet, (c.jet(X, Y, alpha, beta) for c in self.factors))


def _leibniz_jet(f: dict, g: dict) -> dict:
    # the bivariate Leibniz rule: d_x^a d_y^b (f g) sums
    # C(a, a') C(b, b') d^(a', b') f d^(a - a', b - b') g over a' <= a, b' <= b
    out = {}
    for a, b in f:
        value = scale = 0.0
        for a1 in _indices(a):
            for b1 in _indices(b):
                c = _binomial(a, a1) * _binomial(b, b1)
                (fv, fs), (gv, gs) = f[a1, b1], g[_minus(a, a1), _minus(b, b1)]
                value = value + c * fv * gv
                scale = scale + c * fs * gs
        out[a, b] = (value, scale)
    return out


def _binomial(a: tuple, b: tuple) -> int:
    return math.prod(math.comb(p, q) for p, q in zip(a, b))


def _minus(a: tuple, b: tuple) -> tuple:
    return tuple(p - q for p, q in zip(a, b))


@record
class TensorProduct(Kernel):
    factors: tuple[Kernel, ...]

    structure = General

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
            block = _pairwise(c, X[..., offset : offset + c.dim], Y[..., offset : offset + c.dim])
            acc = block if acc is None else acc * block
            offset += c.dim
        return acc

    def jet(self, X, Y, alpha, beta):
        # each factor's jet on its own block of coordinates, multiplied
        blocks, offset = [], 0
        for c in self.factors:
            axes = slice(offset, offset + c.dim)
            blocks.append((axes, c.jet(X[..., axes], Y[..., axes], alpha[axes], beta[axes])))
            offset += c.dim
        out = {}
        for a, b in _pairs(alpha, beta):
            parts = [jet[a[axes], b[axes]] for axes, jet in blocks]
            out[a, b] = tuple(math.prod(p[i] for p in parts) for i in (0, 1))
        return out


# --- warp families --------------------------------------------------------------


@record
class Affine(Parametric):
    """x -> a x + b, smooth."""

    a: float = field(metadata={"real": True})
    b: float = field(metadata={"real": True})

    name = "affine"
    order = math.inf

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.a * X + self.b

    def derivative(self, z: np.ndarray, k: int) -> np.ndarray:
        return np.full_like(z, self.a if k == 1 else 0.0)


@record
class AbsPower(Parametric):
    """x -> |x|^beta, beta in (0, 1], of Holder order beta."""

    beta: float = field(metadata={"maximum": 1})

    name = "abs_power"

    @property
    def order(self):
        return Fraction(repr(self.beta))

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return np.abs(X) ** self.beta

    def derivative(self, z: np.ndarray, k: int) -> np.ndarray:
        # d^k |z|^beta = beta (beta-1) ... (beta-k+1) sign(z)^k |z|^(beta-k)
        falling = math.prod(self.beta - i for i in range(k))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = falling * np.sign(z) ** k * np.abs(z) ** (self.beta - k)
        return np.where(z == 0.0, np.nan, out)


WARPS = (Affine, AbsPower)


@record
class Warp(Kernel):
    """Child kernel evaluated at inputs warped componentwise by a family
    instance from ``WARPS``."""

    child: Kernel
    family: Parametric

    structure = General

    def __post_init__(self):
        if not isinstance(self.family, WARPS):
            names = ", ".join(w.name for w in WARPS)
            raise KernelError(f"warp family must be one of {names}, got {self.family!r}")

    @property
    def children(self) -> tuple[Kernel, ...]:
        return (self.child,)

    def cross(self, X, Y):
        return _pairwise(self.child, self.family(X), self.family(Y))

    def jet(self, X, Y, alpha, beta):
        # Faa di Bruno on each coordinate of each argument in turn
        jet = self.child.jet(self.family(X), self.family(Y), alpha, beta)
        for side, (points, index) in enumerate(((X, alpha), (Y, beta))):
            for axis, top in enumerate(index):
                if top:
                    z = points[..., :, axis, None] if side == 0 else points[..., None, :, axis]
                    dw = [self.family.derivative(z, k) for k in range(1, top + 1)]
                    jet = _chain_rule(jet, side, axis, dw)
        return jet


@record
class Derivative(Kernel):
    """d_x^alpha d_y^alpha of the child: the covariance of its derivatives."""

    child: Kernel
    alpha: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_multiindex(self.alpha, self.child.dim))

    @property
    def children(self) -> tuple[Kernel, ...]:
        return (self.child,)

    def cross(self, X, Y):
        a = self.alpha
        return self.child.jet(X, Y, a, a)[a, a][0]

    def jet(self, X, Y, alpha, beta):
        # the child's partials at orders shifted by alpha
        def up(index):
            return tuple(p + q for p, q in zip(index, self.alpha))

        jet = self.child.jet(X, Y, up(alpha), up(beta))
        return {(a, b): jet[up(a), up(b)] for a, b in _pairs(alpha, beta)}

    def lag_exists(self, m: int) -> np.ndarray:
        top = 2 * sum(self.alpha)
        return self.child.lag_exists(m + top)[top:]


def derivative(expr: Kernel, alpha) -> Kernel:
    """d_x^alpha d_y^alpha k of expr: expr itself at alpha = 0, a tensor of
    its factors' derivatives, each at its own part of alpha, so that it
    keeps its per-axis factorisation, and otherwise a ``Derivative``."""
    alpha = _as_multiindex(alpha, expr.dim)
    if not any(alpha):
        return expr
    if isinstance(expr, TensorProduct):
        ends = itertools.accumulate(c.dim for c in expr.factors)
        parts = (derivative(c, alpha[end - c.dim:end]) for c, end in zip(expr.factors, ends))
        return TensorProduct(tuple(parts))
    return Derivative(expr, alpha)


def _as_multiindex(alpha, dim: int) -> tuple[int, ...]:
    # a scalar stands for (alpha,) in 1-D, and 0 for the zero index of any dim
    try:
        index = tuple(int(a) for a in alpha)
    except TypeError:
        index = (int(alpha),) if dim == 1 or int(alpha) else (0,) * dim
    if len(index) != dim or min(index) < 0:
        raise DomainError(f"a multi-index is {dim} non-negative integers, got {alpha!r}")
    return index


def _chain_rule(jet: dict, side: int, axis: int, dw: list) -> dict:
    """Faa di Bruno's formula on one coordinate of one argument (side 0 is
    x, 1 is y): d^j/dz^j F(w(z)) = sum_k B_(j,k)(w', w'', ...) F^(k)(w(z)),
    B the partial Bell polynomials of the warp's derivatives dw."""
    bell, bell_abs = _bell(dw), _bell([np.abs(d) for d in dw])
    out = {}
    for key, part in jet.items():
        j = key[side][axis]
        if j == 0:
            out[key] = part
            continue
        value = scale = 0.0
        for k in range(1, j + 1):
            index = list(key[side])
            index[axis] = k
            source = (tuple(index), key[1]) if side == 0 else (key[0], tuple(index))
            # a coefficient whose every part is 0 adds nothing, even where
            # F^(k) does not exist: so affine(a=0, b), which makes the kernel
            # constant in this coordinate, gives it exact zero partials
            zero = bell_abs[j][k] == 0.0
            value = value + np.where(zero, 0.0, bell[j][k] * jet[source][0])
            scale = scale + np.where(zero, 0.0, bell_abs[j][k] * jet[source][1])
        out[key] = (value, scale)
    return out


def _bell(dw: list) -> list:
    # B_(j,k) = sum_i C(j-1, i-1) w^(i) B_(j-i,k-1), B_(0,0) = 1
    q = len(dw)
    bell = [[1.0] + [0.0] * q] + [[0.0] * (q + 1) for _ in range(q)]
    for j in range(1, q + 1):
        for k in range(1, j + 1):
            bell[j][k] = sum(
                math.comb(j - 1, i - 1) * dw[i - 1] * bell[j - i][k - 1] for i in range(1, j - k + 2)
            )
    return bell


# --- structural classification ------------------------------------------


def classify(expr: Kernel) -> StructureClass:
    """Syntactic structural class of an expression.

    Leaves declare theirs; conic combinations and products of stationary
    (isotropic) children are stationary (isotropic); a derivative of a
    stationary child with one input is stationary; warps, tensor products
    and other derivatives, wherever they sit in the tree, are general.
    """
    if isinstance(expr, Derivative):
        one_d = expr.dim == 1 and isinstance(classify(expr.child), Stationary)
        return Stationary() if one_d else General()
    if isinstance(expr, _Pointwise):
        classes = [classify(c) for c in expr.children]
        if all(isinstance(c, Isotropic) for c in classes):
            return Isotropic()
        if all(isinstance(c, Stationary) for c in classes):
            return Stationary()
        return General()
    return expr.structure()


# --- evaluation -----------------------------------------------------------


def _fold(expr: Kernel, value):
    """Value of an expression whose conic and product nodes combine the
    values that ``value(node)`` gives for the other nodes beneath them, in
    place and in child order, freeing each child's value before the next is
    built; so ``value`` must return a new array that nothing else holds."""
    if isinstance(expr, Conic):
        acc = _fold(expr.terms[0], value)
        acc *= expr.weights[0]
        for w, c in zip(expr.weights[1:], expr.terms[1:]):
            part = _fold(c, value)
            part *= w
            acc += part
            del part
        return acc
    if isinstance(expr, Product):
        acc = _fold(expr.factors[0], value)
        for c in expr.factors[1:]:
            acc *= _fold(c, value)
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


def partials(expr: Kernel, X, Y, alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    """Exact mixed partials d_x^alpha d_y^beta k(X[i], Y[j]) for point
    arrays of shape (n, d) and multi-indices of length d, with the summed
    magnitudes of the terms that make each value: returns (values, scale).
    NaN marks a partial that does not exist at that entry."""
    X = _as_points(X, expr.dim)
    Y = _as_points(Y, expr.dim)
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(b) for b in beta)
    if len(alpha) != expr.dim or len(beta) != expr.dim or min(alpha + beta) < 0:
        raise DomainError(f"multi-indices must be {expr.dim} non-negative integers")
    return expr.jet(X, Y, alpha, beta)[alpha, beta]


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
    return float(_pairwise(expr, arr[None, :], np.zeros((1, expr.dim)))[0, 0])
