"""Numeric verification of inferred sample-path regularity.

Turns the kernel-side characterisation into executable checks: the diagonal
second difference k(x+h,x+h) - k(x+h,x) - k(x,x+h) + k(x,x) (equal to
E(f(x+h) - f(x))^2), finite-difference kernel derivatives with Richardson
extrapolation, detection of the deepest stable derivative order, and a
log-log regression of the order-n diagonal deviation against the lag, whose
slope estimates twice the fractional part of the sample-path order.

Order detection deliberately avoids finite-difference steps: it tracks the
mean-square difference quotients

    E[(Delta_h^n f(x))^2] / h^(2n)
        = sum_{j,k} (-1)^(j+k) C(n,j) C(n,k) k(x + j h, x + k h) / h^(2n),

which are exact kernel evaluations and converge precisely when the order-n
diagonal derivatives of the kernel exist and are continuous.  A divergent or
non-Cauchy quotient sequence (the integer-order Matern case drifts
logarithmically) rejects the order.

Derivative values for the exponent regression are exact for Wendland
subtrees (differentiating the stored rational polynomial, with parity
accounting at the origin) and finite differences elsewhere, with the base
step widened for higher orders to balance truncation against rounding.
Scales whose estimated rounding noise pollutes the deviation are dropped,
as is the small end of the window while the fit residual exceeds the
configured cap.

Stationary and isotropic kernels reduce to one lag profile.  General
(non-stationary) kernels are checked at fixed probe points, and their
kernel values come in blocks: each finite-difference stencil, each
diagonal second difference and each difference-quotient lattice is one
``pairwise`` call over its distinct points, whose entries equal the
single-point values bitwise.  Each probe's deviation series is computed
once; the all-probe series is their elementwise maximum, and the same
per-probe series give the probe slopes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    Conic,
    DomainError,
    Isotropic,
    Kernel,
    KernelError,
    Stationary,
    Wendland,
    classify,
    eval_kernel,
    eval_radial,
    eval_stationary,
    pairwise,
)
from .regularity import RegularityReport, infer_regularity, report_to_dict

__all__ = [
    "VerifyConfig",
    "ExponentFit",
    "VerifyReport",
    "SmoothToOrder",
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


@dataclass(frozen=True)
class VerifyConfig:
    window: tuple[int, int] = (4, 12)  # dyadic lags h = 2^-j, j in [lo, hi]
    tol: float = 0.15
    log_tol: float = 0.25
    max_order: int = 3
    n_probes: int = 8
    probe_low: float = 0.25
    probe_span: float = 1.0
    fd_step: float = 1e-3
    stab_rtol: float = 1e-4
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


def _fd_1d(f, t: float, m: int, step: float) -> float:
    if m == 0:
        return f(t)
    offsets, weights = _STENCILS[m]
    vals = [f(t + o * step) for o in offsets]
    return math.fsum(w * v for w, v in zip(weights, vals)) / step**m


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


# --- radial derivatives ----------------------------------------------------


def _wendland_radial_exact(expr: Kernel, order: int, r: float):
    """Exact radial derivative for Wendland leaves and conic combinations of
    them; returns None when the subtree has no exact path."""
    if isinstance(expr, Wendland):
        poly = expr.polynomial
        ell = expr.lengthscale
        rho = r / ell
        if rho >= 1.0:
            return (0.0, True)
        deriv = poly
        for _ in range(order):
            deriv = deriv.derivative()
        value = deriv(rho) / ell**order
        if r == 0.0:
            # k_r(x) = P(|x|): the derivative exists at 0 only if no odd
            # power of exponent <= order survives in the polynomial
            exists = all(
                poly.coeffs[i] == 0 for i in range(1, min(order, poly.degree) + 1, 2)
            )
            return (value, exists)
        return (value, True)
    if isinstance(expr, Conic):
        parts = [_wendland_radial_exact(c, order, r) for c in expr.terms]
        if any(p is None for p in parts):
            return None
        value = math.fsum(w * p[0] for w, p in zip(expr.weights, parts))
        return (value, all(p[1] for p in parts))
    return None


def _radial_derivative_diag(
    expr: Kernel, order: int, r: float, cfg: VerifyConfig, local: bool = False
) -> tuple[float, bool, float, float]:
    """(value, stable, spread, noise) of k_r^(order) at r.

    ``local`` additionally caps the step by a fraction of r so the stencil
    never spans the origin, where radial profiles may lose smoothness.
    """
    exact = _wendland_radial_exact(expr, order, r)
    if exact is not None:
        return exact[0], exact[1], 0.0, 0.0
    if order == 0:
        return float(eval_radial(expr, r)), True, 0.0, _EPS

    def f(t: float) -> float:
        return float(eval_radial(expr, abs(t)))  # radial profiles are even

    step = _BASE_STEPS[order] * max(1.0, abs(r))
    if local and r > 0.0:
        # keep the whole stencil (half-width p * step) on one side of the
        # origin, where radial profiles may lose smoothness
        p = (order + 1) // 2
        step = min(step, r / p)
    value, stable, spread = _richardson(
        lambda s: _fd_1d(f, r, order, s), step, cfg.stab_rtol
    )
    return value, stable, spread, _fd_noise(order, step)


def radial_derivative(
    expr: Kernel, order: int, r: float, cfg: VerifyConfig | None = None
) -> float:
    """Derivative k_r^(order)(r) of an isotropic expression.

    Wendland subtrees are differentiated exactly from their stored
    polynomials; otherwise central finite differences with two Richardson
    extrapolation levels are used.
    """
    if order != int(order) or order < 0 or order > MAX_RADIAL_ORDER:
        raise KernelError(f"radial derivative order must lie in 0..{MAX_RADIAL_ORDER}")
    if not isinstance(classify(expr), Isotropic):
        raise KernelError("radial_derivative needs an isotropic expression")
    cfg = cfg or VerifyConfig()
    value, _st, _sp, _noise = _radial_derivative_diag(expr, int(order), float(r), cfg)
    return value


# --- order detection via mean-square difference quotients ------------------


def _binom_weights(n: int) -> np.ndarray:
    return np.array([(-1.0) ** j * math.comb(n, j) for j in range(n + 1)])


def _ms_quotient_1d(profile, n: int, h: float) -> tuple[float, float]:
    """(E[(Delta_h^n f)^2] / h^(2n), rounding-noise estimate) from a lag
    profile k_delta restricted to one axis (an even function of the lag)."""
    w = _binom_weights(n)
    acc = 0.0
    kmax = 0.0
    for j in range(n + 1):
        for k in range(n + 1):
            val = profile(abs(j - k) * h)
            kmax = max(kmax, abs(val))
            acc += w[j] * w[k] * val
    noise = (float(np.sum(np.abs(w))) ** 2) * _EPS * max(1.0, kmax)
    return acc / h ** (2 * n), noise / h ** (2 * n)


def _ms_quotient_general(expr: Kernel, x: np.ndarray, axis: int, n: int, h: float):
    w = _binom_weights(n)
    e = _unit(expr.dim, axis)
    pts = np.stack([x + j * h * e for j in range(n + 1)])
    block = pairwise(expr, pts, pts).tolist()
    acc = 0.0
    kmax = 0.0
    for j in range(n + 1):
        for k in range(n + 1):
            val = block[j][k]
            kmax = max(kmax, abs(val))
            acc += w[j] * w[k] * val
    noise = (float(np.sum(np.abs(w))) ** 2) * _EPS * max(1.0, kmax)
    return acc / h ** (2 * n), noise / h ** (2 * n)


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
    noise floor eps/h^(2n) bounds how deep each order can be probed.
    """
    if n == 0:
        return True
    cls = classify(expr)
    lo = cfg.window[0]
    js = range(lo, lo + 9)
    if isinstance(cls, Isotropic):
        seq = [_ms_quotient_1d(lambda t: float(eval_radial(expr, t)), n, 2.0**-j) for j in js]
        return _sequence_converges(_trim_noisy(seq), cfg)
    if isinstance(cls, Stationary):
        for axis in range(expr.dim):
            def profile(t: float, a=axis) -> float:
                hvec = np.zeros(expr.dim)
                hvec[a] = t
                return float(eval_stationary(expr, hvec))

            seq = [_ms_quotient_1d(profile, n, 2.0**-j) for j in js]
            if not _sequence_converges(_trim_noisy(seq), cfg):
                return False
        return True
    for x in _probe_points(expr, cfg):
        for axis in range(expr.dim):
            seq = [_ms_quotient_general(expr, x, axis, n, 2.0**-j) for j in js]
            if not _sequence_converges(_trim_noisy(seq), cfg):
                return False
    return True


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
    dyadic window."""
    cls = classify(expr)
    lo, hi = cfg.window
    hs = [2.0 ** (-j) for j in range(lo, hi + 1)]
    rows = []
    if isinstance(cls, Isotropic):
        v0, _s0, _sp0, noise0 = _radial_derivative_diag(expr, 2 * n, 0.0, cfg)
        for h in hs:
            v, _st, _sp, noise = _radial_derivative_diag(expr, 2 * n, h, cfg, local=True)
            rows.append((h, abs(v - v0), noise + noise0))
        return rows
    if isinstance(cls, Stationary):
        for h in hs:
            best, worst_noise = 0.0, 0.0
            for axis in range(expr.dim):
                v0, n0 = _stationary_axis_derivative(expr, axis, 2 * n, 0.0, cfg)
                v, nh = _stationary_axis_derivative(expr, axis, 2 * n, h, cfg)
                best = max(best, abs(v - v0))
                worst_noise = max(worst_noise, n0 + nh)
            rows.append((h, best, worst_noise))
        return rows
    if x is None:
        return _max_series(
            [_deviation_series(expr, n, cfg, x=base) for base in _probe_points(expr, cfg)]
        )
    corner_noise = 4.0 * _fd_noise(2 * n, _BASE_STEPS[min(2 * n, MAX_RADIAL_ORDER)]) if n else 4.0 * _EPS
    for h in hs:
        best = 0.0
        for axis in range(expr.dim):
            alpha = np.zeros(expr.dim, dtype=int)
            alpha[axis] = n
            val = second_difference(expr, x, h * _unit(expr.dim, axis), alpha)
            if math.isfinite(val):
                best = max(best, abs(val))
        rows.append((h, best, corner_noise))
    return rows


def _max_series(per_probe: list[list[tuple[float, float, float]]]):
    # the all-probe deviation at each lag is the largest per-probe one; the
    # general path's noise estimate does not depend on the probe
    return [
        (rows[0][0], max(r[1] for r in rows), rows[0][2]) for rows in zip(*per_probe)
    ]


def _stationary_axis_derivative(
    expr: Kernel, axis: int, order: int, t: float, cfg: VerifyConfig
) -> tuple[float, float]:
    if order == 0:
        hvec = np.zeros(expr.dim)
        hvec[axis] = t
        return float(eval_stationary(expr, hvec)), _EPS

    def f(s: float) -> float:
        hvec = np.zeros(expr.dim)
        hvec[axis] = s
        return float(eval_stationary(expr, hvec))

    step = _BASE_STEPS[min(order, MAX_RADIAL_ORDER)] * max(1.0, abs(t))
    if t != 0.0:
        p = (order + 1) // 2
        step = min(step, abs(t) / p)
    value, _stable, _spread = _richardson(
        lambda s: _fd_1d(f, t, order, s), step, cfg.stab_rtol
    )
    return value, _fd_noise(order, step)


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
        raise KernelError(
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
    if isinstance(cls, Stationary):
        rows = _deviation_series(expr, n_hat, cfg)
    else:
        per_probe = [_deviation_series(expr, n_hat, cfg, x=b) for b in _probe_points(expr, cfg)]
        rows = _max_series(per_probe)
    saturated_cap = False
    try:
        fit = _fit_series(rows, n_hat, cfg)
        total = n_hat + fit.slope / 2.0
    except SmoothToOrder:
        fit = None
        total = float(n_hat + 1)
        saturated_cap = True
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
    return out
