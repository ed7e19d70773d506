"""Numeric verification of inferred sample-path regularity.

Turns the kernel-side characterisation into executable checks: the diagonal
second difference k(x+h,x+h) - k(x+h,x) - k(x,x+h) + k(x,x) (equal to
E(f(x+h) - f(x))^2), kernel derivatives (exact for stationary kernels,
finite differences otherwise), detection of the deepest stable derivative
order, and a log-log regression of the order-n diagonal deviation against
the lag, whose slope estimates twice the fractional part of the
sample-path order.

Order detection deliberately avoids finite-difference steps: it tracks the
mean-square difference quotients

    E[(Delta_h^n f(x))^2] / h^(2n)
        = sum_{j,k} (-1)^(j+k) C(n,j) C(n,k) k(x + j h, x + k h) / h^(2n),

which are exact kernel evaluations and converge precisely when the order-n
diagonal derivatives of the kernel exist and are continuous.  A divergent or
non-Cauchy quotient sequence (the integer-order Matern case drifts
logarithmically) rejects the order.

The lags are h = l_min 2^-j, l_min being the expression's smallest
lengthscale (1 when it has none), and quotients and deviations are taken in
units of l_min, so a lengthscale moves neither the window nor the noise
floors relative to the kernel.

Stationary and isotropic kernels reduce to one lag profile phi(t) =
k(t e_1, 0): every stationary expression is isotropic or 1-D.  Its
quotient lattice {d h} for one order comes from one array call, and the
deviation |phi^(2n)(h) - phi^(2n)(0)| from exact derivatives: each leaf
differentiates its profile in closed form (Matern through the Bessel order
recursion, SE and RQ in u = a t^2, Wendland its stored rational polynomial,
periodic as e^-u with u = sin^2(pi t / l)), conic combinations sum the
children's derivatives and products combine them by Leibniz's rule, and
each derivative carries the magnitude of the terms summed into it, which
sets its rounding-noise estimate.  Whether a derivative exists at the
origin follows from the leaves' rules alone, and caps the detected order.

General (non-stationary) kernels are checked at fixed probe points with
finite-difference kernel derivatives and Richardson extrapolation, the
base step widened for higher orders to balance truncation against
rounding.  Their kernel values come in blocks: each finite-difference
stencil, each diagonal second difference and each difference-quotient
lattice is one ``pairwise`` call over its distinct points, whose entries
equal the single-point values bitwise.  Each probe's deviation series is
computed once; the all-probe series is their elementwise maximum, and the
same per-probe series give the probe slopes.

Scales whose estimated rounding noise pollutes the deviation are dropped,
as is the small end of the window while the fit residual exceeds the
configured cap.  A deviation that cannot be fitted inside the window (too
few usable scales, or no order-2n lag derivative at the origin) gives a
failing verdict with a "beyond probe range" note rather than an error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .kernels import (
    Conic,
    DomainError,
    Isotropic,
    Kernel,
    KernelError,
    Matern,
    Periodic,
    Product,
    RationalQuadratic,
    SquaredExponential,
    Stationary,
    Wendland,
    classify,
    eval_kernel,
    pairwise,
)
from .regularity import RegularityReport, infer_regularity, report_to_dict

__all__ = [
    "VerifyConfig",
    "ExponentFit",
    "VerifyReport",
    "SmoothToOrder",
    "BeyondProbeRange",
    "loglog_fit",
    "second_difference",
    "cross_difference_bound",
    "radial_derivative",
    "kernel_derivative",
    "estimate_diagonal_exponent",
    "detect_order",
    "verify_regularity",
    "derivative_kernel_matrix",
    "verify_to_dict",
]

MAX_MIXED_ORDER = 4  # per-argument derivative depth of the stencil table
MAX_RADIAL_ORDER = 8
_EPS = float(np.finfo(float).eps)

# base finite-difference steps per derivative order; higher orders need wider
# stencils or rounding noise eps/step^m swamps the value
_BASE_STEPS = {0: 1e-3, 1: 1e-3, 2: 1e-3, 3: 4e-3, 4: 2e-2, 5: 3e-2, 6: 5e-2, 7: 8e-2, 8: 1e-1}


class SmoothToOrder(KernelError):
    """Raised when the diagonal deviation underflows at every probed scale,
    i.e. the kernel is smooth to the probed order and no exponent exists."""

    def __init__(self, n: int):
        super().__init__(
            f"diagonal deviation underflows at order {n}; kernel smooth to this order"
        )
        self.n = n


class BeyondProbeRange(KernelError):
    """Raised when the order-n deviation cannot be fitted inside the probe
    window: too few usable scales, or no order-2n lag derivative at the
    origin.  ``verify_regularity`` reports it as a failing verdict."""


@dataclass(frozen=True)
class VerifyConfig:
    window: tuple[int, int] = (4, 12)  # dyadic lags h = l_min 2^-j, j in [lo, hi]
    tol: float = 0.15
    log_tol: float = 0.25
    max_order: int = 3
    n_probes: int = 8
    probe_low: float = 0.25
    probe_span: float = 1.0
    seq_ratio: float = 0.75
    residual_cap: float = 0.1
    snr_min: float = 10.0


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares line through (log h, log deviation)."""

    slope: float
    intercept: float
    r_squared: float
    scales: tuple[float, ...]
    residual_max: float


@dataclass(frozen=True)
class VerifyReport:
    detected_order_n: int
    exponent_fit: ExponentFit | None
    predicted: RegularityReport
    verdict: str  # 'pass' | 'fail' | 'log-flagged'
    probe_slopes: tuple[float, ...] = field(default=())
    smooth_to_order: int | None = None
    note: str | None = None

    @property
    def detected_total(self) -> float | None:
        if self.exponent_fit is None:
            return None
        return self.detected_order_n + self.exponent_fit.slope / 2.0


def loglog_fit(points) -> ExponentFit:
    """Ordinary least squares on (log h, log value); needs >= 4 positive points."""
    pts = sorted(((float(h), float(v)) for h, v in points), reverse=True)
    if len(pts) < 4:
        raise ValueError(f"loglog_fit needs at least 4 points, got {len(pts)}")
    hs = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    if np.any(vs <= 0.0):
        raise ValueError("loglog_fit needs strictly positive values")
    if len(set(hs.tolist())) != len(hs):
        raise ValueError("loglog_fit needs distinct abscissae")
    x = np.log(hs)
    y = np.log(vs)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return ExponentFit(
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        scales=tuple(hs.tolist()),
        residual_max=float(np.max(np.abs(resid))),
    )


# --- finite-difference machinery ------------------------------------------


def _central_stencil(m: int) -> tuple[np.ndarray, np.ndarray]:
    # offsets and weights of the second-order central difference for the
    # m-th derivative (weights to be divided by step**m)
    p = (m + 1) // 2
    offsets = np.arange(-p, p + 1, dtype=float)
    v = np.vander(offsets, increasing=True).T  # v[q, j] = offsets[j]**q
    rhs = np.zeros(len(offsets))
    rhs[m] = math.factorial(m)
    return offsets, np.linalg.solve(v, rhs)


_STENCILS = {m: _central_stencil(m) for m in range(0, MAX_RADIAL_ORDER + 1)}


def _richardson(sample, step: float, rtol: float) -> tuple[float, bool, float]:
    # two Richardson levels over the second-order central differences:
    # D(s), D(s/2), D(s/4) -> eliminates the s^2 and s^4 error terms
    d0 = sample(step)
    d1 = sample(step / 2.0)
    d2 = sample(step / 4.0)
    r1a = (4.0 * d1 - d0) / 3.0
    r1b = (4.0 * d2 - d1) / 3.0
    r2 = (16.0 * r1b - r1a) / 15.0
    spread = abs(r2 - r1b)
    stable = math.isfinite(r2) and spread <= max(rtol * abs(r2), 1e-12)
    return r2, stable, spread


def _fd_noise(order: int, step: float) -> float:
    # rounding-noise estimate of the Richardson result: the finest level
    # divides eps-sized evaluation errors by (step/4)^order
    if order == 0:
        return _EPS
    weight_sum = float(np.sum(np.abs(_STENCILS[order][1])))
    return 3.0 * weight_sum * _EPS / (step / 4.0) ** order


def kernel_derivative(
    expr: Kernel, x, y, alpha, beta, step: float | None = None
) -> tuple[float, bool, float]:
    """Mixed partial derivative of k at (x, y) by nested central differences.

    alpha acts on the first argument, beta on the second.  Returns
    (value, stable, spread) where stable means two successive Richardson
    refinements agreed to the configured relative tolerance.  Each
    refinement level evaluates its stencil as one ``pairwise`` block.
    """
    alpha = _as_multiindex(alpha, expr.dim)
    beta = _as_multiindex(beta, expr.dim)
    if max(alpha.sum(), beta.sum()) > MAX_MIXED_ORDER:
        raise KernelError(
            f"mixed derivatives supported up to order {MAX_MIXED_ORDER} per argument"
        )
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    npow = int(alpha.sum() + beta.sum())
    if npow == 0:
        return eval_kernel(expr, x, y), True, 0.0
    if step is None:
        step = _BASE_STEPS[min(npow, MAX_RADIAL_ORDER)]
    off_x, off_y, coeffs = _stencil_terms(tuple(alpha.tolist()), tuple(beta.tolist()))

    def sample(s: float) -> float:
        # term t pairs x offset t // len(off_y) with y offset t % len(off_y),
        # so the raveled block lists the term values in coefficient order
        vals = pairwise(expr, x + off_x * s, y + off_y * s).ravel()
        return float(np.dot(coeffs, vals)) / s**npow

    return _richardson(sample, step, 1e-4)


@functools.lru_cache(maxsize=None)
def _stencil_terms(alpha: tuple[int, ...], beta: tuple[int, ...]):
    """Distinct x offsets, distinct y offsets and term coefficients of the
    nested central differences for d^(alpha, beta).

    The terms are the Cartesian product of the per-axis stencils, alpha's
    axes first and each axis varying fastest within the one before it, so
    the x offsets times the y offsets enumerate them in order.  Arrays are
    read-only because the cache shares them.
    """
    dim = len(alpha)
    terms = [(np.zeros(dim), np.zeros(dim), 1.0)]
    for i, a in enumerate(alpha):
        if a == 0:
            continue
        offsets, weights = _STENCILS[a]
        terms = [
            (ox + o * _unit(dim, i), oy, c * w)
            for ox, oy, c in terms
            for o, w in zip(offsets, weights)
            if w != 0.0
        ]
    n_x = len(terms)
    for i, b in enumerate(beta):
        if b == 0:
            continue
        offsets, weights = _STENCILS[b]
        terms = [
            (ox, oy + o * _unit(dim, i), c * w)
            for ox, oy, c in terms
            for o, w in zip(offsets, weights)
            if w != 0.0
        ]
    n_y = len(terms) // n_x
    off_x = np.stack([ox for ox, _oy, _c in terms[::n_y]])
    off_y = np.stack([oy for _ox, oy, _c in terms[:n_y]])
    coeffs = np.array([c for _ox, _oy, c in terms])
    for arr in (off_x, off_y, coeffs):
        arr.setflags(write=False)
    return off_x, off_y, coeffs


def _unit(dim: int, i: int) -> np.ndarray:
    e = np.zeros(dim)
    e[i] = 1.0
    return e


def _as_multiindex(alpha, dim: int) -> np.ndarray:
    arr = np.asarray(alpha, dtype=int)
    if arr.ndim == 0:
        if dim == 1:
            arr = arr.reshape(1)
        elif int(arr) == 0:
            arr = np.zeros(dim, dtype=int)
    if arr.shape != (dim,):
        raise DomainError(f"multi-index must have length {dim}, got shape {arr.shape}")
    if np.any(arr < 0):
        raise DomainError("multi-index entries must be non-negative")
    return arr


def second_difference(expr: Kernel, x, h, alpha) -> float:
    """Diagonal second difference of the alpha-alpha derivative of k.

    With alpha = 0 this is k(x+h,x+h) - k(x+h,x) - k(x,x+h) + k(x,x),
    computed exactly from kernel evaluations; higher orders differentiate
    numerically first.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    h = np.asarray(h, dtype=float).reshape(-1)
    alpha = _as_multiindex(alpha, expr.dim)
    xh = x + h
    if alpha.sum() == 0:
        pts = np.stack([xh, x])
        (k_hh, k_h0), (k_0h, k_00) = pairwise(expr, pts, pts).tolist()
        return k_hh - k_h0 - k_0h + k_00
    corners = [(xh, xh, 1.0), (xh, x, -1.0), (x, xh, -1.0), (x, x, 1.0)]
    acc = 0.0
    for a, b, sign in corners:
        val, _stable, _spread = kernel_derivative(expr, a, b, alpha, alpha)
        acc += sign * val
    return acc


def cross_difference_bound(expr: Kernel, x, h, alpha, beta) -> tuple[float, float]:
    """Cross-derivative second difference and its Cauchy-Schwarz bound.

    The alpha-beta diagonal combination is the covariance of two derivative
    increments, so its magnitude is bounded by the geometric mean of the two
    diagonal (alpha-alpha and beta-beta) combinations.  Verification probes
    only the diagonal pairs; this check backs that choice up.  Returns
    (|cross|, bound).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    h = np.asarray(h, dtype=float).reshape(-1)
    alpha = _as_multiindex(alpha, expr.dim)
    beta = _as_multiindex(beta, expr.dim)
    xh = x + h
    corners = [(xh, xh, 1.0), (xh, x, -1.0), (x, xh, -1.0), (x, x, 1.0)]
    cross = 0.0
    for a, b, sign in corners:
        val, _st, _sp = kernel_derivative(expr, a, b, alpha, beta)
        cross += sign * val
    diag_a = second_difference(expr, x, h, alpha)
    diag_b = second_difference(expr, x, h, beta)
    bound = math.sqrt(max(diag_a, 0.0) * max(diag_b, 0.0))
    return abs(cross), bound


# --- exact lag-profile derivatives ------------------------------------------


def _lag_derivatives(expr: Kernel, t, m: int):
    """Derivatives of orders 0..m of a stationary expression's lag profile
    phi(t) = k(t e_1, 0) at lags t >= 0.

    Returns (values, scale, exists): ``values[j]`` holds phi^(j) at each
    lag, ``scale[j]`` the sum of the magnitudes of the terms that make it
    (so eps * scale bounds its rounding), and ``exists[j]`` whether phi^(j)
    exists at the origin; where it does not, its origin value is NaN.  Every
    stationary expression is isotropic or 1-D (periodic has one input), so
    the profile along the first axis stands for every axis.
    """
    t = np.asarray(t, dtype=float)
    exists = _lag_exists(expr, m)
    values, scale = _lag_terms(expr, t, m)
    values[np.ix_(~exists, t == 0.0)] = np.nan
    return values, scale, exists


def _lag_exists(expr: Kernel, m: int) -> np.ndarray:
    """Whether each derivative of orders 0..m of a stationary expression's
    lag profile exists at the origin.

    Matern: phi^(j) exists there exactly when nu > j/2.  Wendland: phi is
    even, so phi^(j) exists only if no odd power of exponent <= j survives
    in its polynomial.  The other leaves are smooth, and a sum or product
    has a derivative where all its terms have.
    """
    if isinstance(expr, Matern):
        return np.array([expr.nu > j / 2.0 for j in range(m + 1)])
    if isinstance(expr, Wendland):
        coeffs = expr.polynomial.coeffs
        odd = [coeffs[i] != 0 for i in range(1, len(coeffs), 2)]
        return np.array([not any(odd[: (j + 1) // 2]) for j in range(m + 1)])
    if isinstance(expr, (SquaredExponential, RationalQuadratic, Periodic)):
        return np.ones(m + 1, bool)
    if isinstance(expr, (Conic, Product)):
        return np.logical_and.reduce([_lag_exists(c, m) for c in expr.children])
    raise KernelError(f"{type(expr).__name__} node has no lag profile")


def _lag_terms(expr: Kernel, t: np.ndarray, m: int):
    if isinstance(expr, (Matern, SquaredExponential, RationalQuadratic)):
        return _quadratic_inner(expr, t, m)
    if isinstance(expr, Wendland):
        return _wendland_terms(expr, t, m)
    if isinstance(expr, Periodic):
        return _periodic_terms(expr, t, m)
    parts = [_lag_terms(c, t, m) for c in expr.children]
    if isinstance(expr, Conic):
        values = sum(w * v for w, (v, _s) in zip(expr.weights, parts))
        scale = sum(w * s for w, (_v, s) in zip(expr.weights, parts))
        return values, scale
    if isinstance(expr, Product):
        values, scale = parts[0]
        for v, s in parts[1:]:
            values, scale = _leibniz(values, v), _leibniz(scale, s)
        return values, scale
    raise KernelError(f"{type(expr).__name__} node has no lag profile")


def _leibniz(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    # derivatives of a product from those of its factors
    return np.stack([
        sum(math.comb(j, k) * f[k] * g[j - k] for k in range(j + 1)) for j in range(len(f))
    ])


def _quadratic_inner(expr: Kernel, t: np.ndarray, m: int):
    """Leaves phi(t) = G(a t^2), through
    d^j/dt^j G(a t^2) = sum_i j!/(i! (j-2i)!) (2at)^(j-2i) a^i G^(j-i)(a t^2);
    at the origin only the term with j = 2i survives."""
    a, g = _profile_u_derivatives(expr, t, m)
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


def _profile_u_derivatives(expr: Kernel, t: np.ndarray, m: int):
    """(a, [G^(k)(a t^2) for k = 0..m]) of a leaf phi(t) = G(a t^2).

    Matern: G(u) = c z^nu K_nu(z) with u = z^2 / 2, so by DLMF 10.29.4
    G^(k)(u) = c (-1)^k z^(nu-k) K_(nu-k)(z), with K_(-mu) = K_mu, one
    Bessel call per distinct order; at the origin it is the limit
    c (-1)^k 2^(nu-k-1) Gamma(nu-k), finite for k < nu.
    """
    ell2 = expr.lengthscale**2
    if isinstance(expr, SquaredExponential):
        e = np.exp(-(t * t) / ell2)
        return 1.0 / ell2, [(-1.0) ** k * e for k in range(m + 1)]
    if isinstance(expr, RationalQuadratic):
        base = 1.0 + t * t / ell2
        g, rising = [], 1.0
        for k in range(m + 1):
            g.append(rising * base ** (-expr.a - k))
            rising *= -expr.a - k
        return 1.0 / ell2, g
    nu = expr.nu
    z = math.sqrt(2.0 * nu) * t / expr.lengthscale
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
    return nu / ell2, g


def _wendland_terms(expr: Wendland, t: np.ndarray, m: int):
    """phi(t) = P(t / ell) from the stored rational polynomial, zero from
    the support radius on."""
    ell = expr.lengthscale
    rho = t / ell
    poly = expr.polynomial
    values, scale = [], []
    for j in range(m + 1):
        values.append(poly(rho) / ell**j)
        magnitude = specfun.PiecewisePolynomial(tuple(abs(c) for c in poly.coeffs))
        scale.append(magnitude(rho) / ell**j)
        poly = poly.derivative()
    return np.stack(values), np.stack(scale)


def _periodic_terms(expr: Periodic, t: np.ndarray, m: int):
    """phi(t) = e^(-u) with u = sin^2(w t / 2), w = 2 pi / ell, by
    (e^(-u))^(j) = -sum_i C(j-1, i) u^(i+1) (e^(-u))^(j-1-i), where
    u^(k) = -(w^k / 2) cos^(k)(w t) for k >= 1."""
    w = 2.0 * math.pi / expr.lengthscale
    s = np.sin(math.pi * (t / expr.lengthscale))
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


def radial_derivative(
    expr: Kernel, order: int, r: float, cfg: VerifyConfig | None = None
) -> float:
    """Derivative k_r^(order)(r) of an isotropic expression, exact up to
    rounding and the special functions' accuracy; NaN at r = 0 when the
    derivative does not exist there.  ``cfg`` is not used."""
    if order != int(order) or order < 0 or order > MAX_RADIAL_ORDER:
        raise KernelError(f"radial derivative order must lie in 0..{MAX_RADIAL_ORDER}")
    if not isinstance(classify(expr), Isotropic):
        raise KernelError("radial_derivative needs an isotropic expression")
    if r < 0.0:
        raise DomainError("radial distance must be >= 0")
    values, _scale, _exists = _lag_derivatives(expr, np.array([float(r)]), int(order))
    return float(values[int(order), 0])


# --- order detection via mean-square difference quotients ------------------


def _binom_weights(n: int) -> np.ndarray:
    return np.array([(-1.0) ** j * math.comb(n, j) for j in range(n + 1)])


def _ms_quotient(block, n: int, h: float) -> tuple[float, float]:
    """(E[(Delta_h^n f)^2] / h^(2n), rounding-noise estimate) from the
    lattice block[j][k] = k(x + j h, x + k h), j, k = 0..n, with h in the
    units the quotient is taken in."""
    w = _binom_weights(n)
    acc = 0.0
    kmax = 0.0
    for j in range(n + 1):
        for k in range(n + 1):
            val = block[j][k]
            kmax = max(kmax, abs(val))
            acc += w[j] * w[k] * val
    noise = (float(np.sum(np.abs(w))) ** 2) * _EPS * max(1.0, kmax)
    return acc / h ** (2 * n), noise / h ** (2 * n)


def _ms_quotient_general(
    expr: Kernel, x: np.ndarray, axis: int, n: int, s: float, ell: float = 1.0
):
    # the lattice x + j (ell s) e_axis, quotient in units of ell
    e = _unit(expr.dim, axis)
    pts = np.stack([x + j * (ell * s) * e for j in range(n + 1)])
    return _ms_quotient(pairwise(expr, pts, pts).tolist(), n, s)


def _sequence_converges(seq: list[tuple[float, float]], cfg: VerifyConfig) -> bool:
    """Does a quotient sequence (value, noise) over halving lags settle?

    Accepts when the final increment sits at the noise floor or the
    increments decay geometrically; logarithmic drift (constant increments)
    and growth are rejected.
    """
    vals = [v for v, _ in seq]
    noises = [e for _, e in seq]
    if len(vals) < 4 or not all(math.isfinite(v) for v in vals):
        return False
    scale = max(1.0, abs(vals[-1]))
    deltas = [abs(b - a) for a, b in zip(vals, vals[1:])]
    floor = max(4.0 * (noises[-1] + noises[-2]), 1e-9 * scale)
    if deltas[-1] <= floor:
        return True
    ratios = []
    for d0, d1 in zip(deltas[:-1], deltas[1:]):
        if d0 > floor:
            ratios.append(d1 / d0)
    if not ratios:
        return True
    tail = ratios[-3:]
    return sorted(tail)[len(tail) // 2] <= cfg.seq_ratio


def _order_exists(expr: Kernel, n: int, cfg: VerifyConfig) -> bool:
    """Do the order-n diagonal derivatives of k exist near the diagonal?

    Probes the mean-square difference quotients over halving lags; the
    noise floor eps/h^(2n) bounds how deep each order can be probed.  A
    stationary expression whose lag profile has no order-2n derivative at
    the origin has no order-n derivative, whatever its quotients show.
    """
    if n == 0:
        return True
    if isinstance(classify(expr), Stationary) and not _lag_exists(expr, 2 * n)[2 * n]:
        return False
    return all(
        _sequence_converges(_trim_noisy(seq), cfg) for seq in _quotient_sequences(expr, n, cfg)
    )


def _quotient_sequences(expr: Kernel, n: int, cfg: VerifyConfig):
    """The order-n quotient sequences over the lags h = l_min s,
    s = 2^-j for j = lo..lo+8, in units of l_min (divided by s^(2n), not
    h^(2n)), so that a lengthscale moves neither the lags nor the noise
    floors relative to the kernel.  A stationary expression has one
    sequence, whose whole lattice {d h} comes from one lag-profile call;
    a general one has one per probe point and axis."""
    ell = _min_lengthscale(expr)
    steps = [2.0**-j for j in range(cfg.window[0], cfg.window[0] + 9)]
    if isinstance(classify(expr), Stationary):
        lags = np.array([d * (ell * s) for s in steps for d in range(n + 1)])
        rows = _lag_profile(expr, lags).reshape(len(steps), n + 1).tolist()
        return [[
            _ms_quotient([[row[abs(j - k)] for k in range(n + 1)] for j in range(n + 1)], n, s)
            for s, row in zip(steps, rows)
        ]]
    return [
        [_ms_quotient_general(expr, x, axis, n, s, ell) for s in steps]
        for x in _probe_points(expr, cfg)
        for axis in range(expr.dim)
    ]


def _lag_profile(expr: Kernel, t: np.ndarray) -> np.ndarray:
    # k(t e_1, 0), as in _lag_derivatives; its entries equal eval_radial(t)
    # (eval_stationary for 1-D) bitwise, since sqrt(t*t) == t
    return pairwise(expr, np.outer(t, _unit(expr.dim, 0)), np.zeros((1, expr.dim)))[:, 0]


def _min_lengthscale(expr: Kernel) -> float:
    """Smallest lengthscale in the expression, or 1 when it has none: the
    probe lags scale with it, so a lengthscale never moves the window."""
    scales = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if hasattr(node, "lengthscale"):
            scales.append(node.lengthscale)
        stack.extend(node.children)
    return min(scales, default=1.0)


def _trim_noisy(seq: list[tuple[float, float]]) -> list[tuple[float, float]]:
    # drop the deep end of the lag range once rounding noise overtakes the values
    out = []
    for v, e in seq:
        if e > 0.05 * max(1.0, abs(v)):
            break
        out.append((v, e))
    return out if len(out) >= 4 else seq[: max(4, len(out))]


def detect_order(expr: Kernel, cfg: VerifyConfig | None = None) -> int:
    """Largest n <= cfg.max_order whose order-n diagonal derivatives stabilise."""
    cfg = cfg or VerifyConfig()
    n = 0
    while n < cfg.max_order and _order_exists(expr, n + 1, cfg):
        n += 1
    return n


# --- deviation series and exponent fit -------------------------------------


def _probe_points(expr: Kernel, cfg: VerifyConfig) -> np.ndarray:
    # deterministic probe set in a compact box on the positive orthant,
    # which lies inside every catalogue domain (Wiener needs x > 0)
    d = expr.dim
    ticks = np.linspace(cfg.probe_low, cfg.probe_low + cfg.probe_span, cfg.n_probes)
    pts = np.zeros((cfg.n_probes, d))
    for i in range(d):
        pts[:, i] = np.roll(ticks, i)
    return pts


def _deviation_series(expr: Kernel, n: int, cfg: VerifyConfig, x: np.ndarray | None = None):
    """Rows (h, deviation, noise) of the order-n diagonal deviation over the
    dyadic window h = l_min 2^-j, the deviation in units of l_min (times
    l_min^(2n)), so the underflow floor does not move with the lengthscale.

    A stationary expression's deviation is |phi^(2n)(h) - phi^(2n)(0)| from
    one exact lag-derivative call over every h and the origin, with noise
    eps times the magnitudes summed into the two values.  General kernels
    take the largest diagonal second difference over the axes at each
    probe point.
    """
    lo, hi = cfg.window
    ell = _min_lengthscale(expr)
    unit = ell ** (2 * n)
    hs = [ell * 2.0 ** (-j) for j in range(lo, hi + 1)]
    if isinstance(classify(expr), Stationary):
        values, scale, exists = _lag_derivatives(expr, np.array([0.0, *hs]), 2 * n)
        if not exists[2 * n]:
            raise BeyondProbeRange(f"no order-{2 * n} lag derivative at the origin")
        d = (unit * values[2 * n]).tolist()
        noise = (unit * _EPS * (scale[2 * n] + scale[2 * n, 0])).tolist()
        return [(h, abs(d[i] - d[0]), noise[i]) for i, h in enumerate(hs, start=1)]
    if x is None:
        return _max_series(
            [_deviation_series(expr, n, cfg, x=base) for base in _probe_points(expr, cfg)]
        )
    corner_noise = 4.0 * _fd_noise(2 * n, _BASE_STEPS[min(2 * n, MAX_RADIAL_ORDER)]) if n else 4.0 * _EPS
    rows = []
    for h in hs:
        best = 0.0
        for axis in range(expr.dim):
            alpha = np.zeros(expr.dim, dtype=int)
            alpha[axis] = n
            val = second_difference(expr, x, h * _unit(expr.dim, axis), alpha)
            if math.isfinite(val):
                best = max(best, abs(val))
        rows.append((h, unit * best, unit * corner_noise))
    return rows


def _max_series(per_probe: list[list[tuple[float, float, float]]]):
    # the all-probe deviation at each lag is the largest per-probe one; the
    # general path's noise estimate does not depend on the probe
    return [
        (rows[0][0], max(r[1] for r in rows), rows[0][2]) for rows in zip(*per_probe)
    ]


def estimate_diagonal_exponent(
    expr: Kernel, n: int, cfg: VerifyConfig | None = None, x=None
) -> ExponentFit:
    """Log-log fit of the order-n diagonal deviation against the lag.

    The fitted slope estimates 2*epsilon in the Holder condition at
    derivative order n.  Raises SmoothToOrder when the deviation underflows
    at every scale.
    """
    cfg = cfg or VerifyConfig()
    base = None if x is None else np.asarray(x, dtype=float).reshape(-1)
    return _fit_series(_deviation_series(expr, n, cfg, x=base), n, cfg)


def _fit_series(rows, n: int, cfg: VerifyConfig) -> ExponentFit:
    """Fit of a deviation series: drop noisy or underflowing scales, then
    trim the small end while the residual exceeds the cap."""
    floor = 50.0 * _EPS
    pts = [(h, v) for h, v, noise in rows if v > max(cfg.snr_min * noise, floor)]
    if not pts:
        raise SmoothToOrder(n)
    if len(pts) < 4:
        raise BeyondProbeRange(
            f"only {len(pts)} usable scales at order {n}; deviation too small or too noisy"
        )
    fit = loglog_fit(pts)
    while fit.residual_max > cfg.residual_cap and len(pts) > 4:
        pts = [p for p in pts if p[0] != min(q[0] for q in pts)]
        fit = loglog_fit(pts)
    return fit


def verify_regularity(
    expr: Kernel,
    predicted: RegularityReport | None = None,
    cfg: VerifyConfig | None = None,
) -> VerifyReport:
    """Compare the numerically detected order against the symbolic prediction.

    Detects n as the deepest stable derivative order, fits the deviation
    exponent there, and passes when n + slope/2 matches the predicted order
    within the configured tolerance (widened, and flagged, for the
    log-corrected integer Matern case).  Smooth predictions are probed up to
    cfg.max_order and reported as 'smooth to probed order'.
    """
    cfg = cfg or VerifyConfig()
    predicted = predicted or infer_regularity(expr)
    target = min(r.order for r in predicted.per_axis)
    attaining = [r for r in predicted.per_axis if r.order == target]
    log_flag = any(r.log_corrected for r in attaining)
    sharp = all(r.sharp for r in attaining)
    cls = classify(expr)

    n_hat = detect_order(expr, cfg)

    if target == math.inf:
        fit = None
        try:
            fit = estimate_diagonal_exponent(expr, n_hat, cfg)
        except (SmoothToOrder, KernelError, ValueError):
            fit = None
        verdict = "pass" if n_hat >= cfg.max_order else "fail"
        return VerifyReport(
            detected_order_n=n_hat,
            exponent_fit=fit,
            predicted=predicted,
            verdict=verdict,
            smooth_to_order=cfg.max_order if n_hat >= cfg.max_order else None,
        )

    # the all-probe series of a non-stationary kernel is the elementwise max
    # of the per-probe series, which also give the probe slopes below
    per_probe = []
    saturated_cap = False
    try:
        if isinstance(cls, Stationary):
            rows = _deviation_series(expr, n_hat, cfg)
        else:
            per_probe = [_deviation_series(expr, n_hat, cfg, x=b) for b in _probe_points(expr, cfg)]
            rows = _max_series(per_probe)
        fit = _fit_series(rows, n_hat, cfg)
        total = n_hat + fit.slope / 2.0
    except SmoothToOrder:
        fit = None
        total = float(n_hat + 1)
        saturated_cap = True
    except BeyondProbeRange as exc:
        return VerifyReport(
            detected_order_n=n_hat,
            exponent_fit=None,
            predicted=predicted,
            verdict="fail",
            note=f"beyond probe range: {exc}",
        )
    tol = cfg.log_tol if log_flag else cfg.tol
    if (
        fit is not None
        and n_hat == cfg.max_order
        and fit.slope >= 2.0 - 0.2
        and float(target) >= n_hat + 1 - tol
    ):
        # detection capped out and the deviation saturates at slope 2: the
        # true order is at least max_order + 1, consistent with the target
        ok = True
    elif saturated_cap:
        ok = float(target) >= total - tol
    elif not sharp:
        # a sufficient-only prediction is a lower bound on regularity, so
        # detecting more than predicted is consistent (e.g. a warp whose
        # roughness concentrates outside the probe box)
        ok = total >= float(target) - tol
    else:
        ok = abs(total - float(target)) <= tol

    probe_slopes: tuple[float, ...] = ()
    if per_probe and fit is not None:
        slopes = []
        for series in per_probe:
            try:
                slopes.append(_fit_series(series, n_hat, cfg).slope)
            except (SmoothToOrder, KernelError, ValueError):
                continue
        probe_slopes = tuple(slopes)

    verdict = ("log-flagged" if log_flag else "pass") if ok else "fail"
    return VerifyReport(
        detected_order_n=n_hat,
        exponent_fit=fit,
        predicted=predicted,
        verdict=verdict,
        probe_slopes=probe_slopes,
    )


def derivative_kernel_matrix(
    expr: Kernel, alpha, X, step: float | None = None, Y=None
) -> np.ndarray:
    """Gram matrix of the derivative kernel d^(alpha,alpha) k on points X.

    Built from single-level central differences over shifted copies of the
    point set (the derivative-process law is tested against this matrix, so
    it is deliberately not obtained by differencing sampled paths).  The
    default step widens with the total derivative order: the entries suffer
    cancellation of size step^(2|alpha|), and too small a step leaves
    rounding noise that makes the matrix indefinite.  With Y given, the
    cross matrix between X and Y is returned instead.
    """
    alpha = _as_multiindex(alpha, expr.dim)
    if step is None:
        step = _BASE_STEPS[min(2 * int(alpha.sum()), MAX_RADIAL_ORDER)]
    X = np.asarray(X, dtype=float)
    Y = X if Y is None else np.asarray(Y, dtype=float)
    terms = [(np.zeros(expr.dim), 1.0)]
    npow = 0
    for i, a in enumerate(alpha):
        if a == 0:
            continue
        offsets, weights = _STENCILS[int(a)]
        npow += int(a)
        terms = [
            (off + o * _unit(expr.dim, i), c * w)
            for off, c in terms
            for o, w in zip(offsets, weights)
            if w != 0.0
        ]
    if npow == 0:
        return pairwise(expr, X, Y)
    acc = None
    for off_a, ca in terms:
        for off_b, cb in terms:
            block = ca * cb * pairwise(expr, X + off_a * step, Y + off_b * step)
            acc = block if acc is None else acc + block
    return acc / step ** (2 * npow)


def verify_to_dict(report: VerifyReport) -> dict:
    detected: dict = {"n": report.detected_order_n}
    if report.exponent_fit is not None:
        detected.update(
            slope=report.exponent_fit.slope,
            r2=report.exponent_fit.r_squared,
            scales=list(report.exponent_fit.scales),
        )
    else:
        detected.update(slope=None, r2=None, scales=[])
    out = {
        "predicted": report_to_dict(report.predicted),
        "detected": detected,
        "verdict": report.verdict,
        "probes": [{"slope": s} for s in report.probe_slopes],
    }
    if report.detected_total is not None:
        out["detected"]["total"] = report.detected_total
    if report.smooth_to_order is not None:
        out["smooth_to_order"] = report.smooth_to_order
    if report.note is not None:
        out["note"] = report.note
    return out
