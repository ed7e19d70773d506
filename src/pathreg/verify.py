"""Numeric verification of inferred sample-path regularity.

Turns the kernel-side characterisation into executable checks: the diagonal
second difference k(x+h,x+h) - k(x+h,x) - k(x,x+h) + k(x,x) (equal to
E(f(x+h) - f(x))^2), exact kernel derivatives, detection of the deepest
stable derivative order, and a log-log regression of the order-n diagonal
deviation against the lag, whose slope estimates twice the fractional part
of the sample-path order.

Order detection uses kernel values only: it tracks the mean-square
difference quotients

    E[(Delta_h^n f(x))^2] / h^(2n)
        = sum_{j,k} (-1)^(j+k) C(n,j) C(n,k) k(x + j h, x + k h) / h^(2n),

which converge precisely when the order-n diagonal derivatives of the
kernel exist and are continuous.  A sequence converges when its last
increment sits at the noise floor or its increments shrink by a median
ratio of at most 0.75; a divergent or non-Cauchy quotient sequence (the
integer-order Matern case drifts logarithmically) rejects the order.

The lags are h = l_min 2^-j, l_min being the expression's smallest
lengthscale (1 when it has none; a lengthscale under affine warps counts
divided by their |a|), and quotients and deviations are taken in units of
l_min, so a lengthscale moves neither the window nor the noise floors
relative to the kernel.

Stationary and isotropic kernels reduce to one lag profile phi(t) =
k(t e_1, 0): every stationary expression is isotropic or 1-D.  Its
quotient lattice {d h} for one order comes from one array call, and the
deviation |phi^(2n)(h) - phi^(2n)(0)| from the column d_x^j k(t, 0) of
the expression's exact jet on points of one coordinate, where each leaf
differentiates its profile in closed form (Matern through the Bessel order
recursion, SE and RQ in u = a t^2, Wendland its stored rational
polynomial, periodic as e^-u with u = sin^2(pi t / l)) and sums and
products combine their children's jets as on every other path.  Each
derivative carries the magnitude of the terms summed into it, which sets
its rounding-noise estimate.  Whether a derivative exists at the origin
is what the nodes declare (``lag_exists``), and caps the detected order.

General (non-stationary) kernels are checked along each axis at eight
fixed probe points, whose coordinates are the ticks linspace(0.25, 1.25, 8)
shifted cyclically per axis.  Every probe's and axis's quotient lattices
{x + j h e} for one order are one batched kernel call, and the deviation
series is the second difference of the exact partials d^(n e, n e) k
(:func:`pathreg.kernels.partials`) over the points x and x + h e: per
axis, one batched call over every probe and lag takes just the four
corners (x+h, x+h), (x+h, x), (x, x+h) and (x, x), as single pairs.
Batched entries equal the single-point values bitwise.  The noise estimate
is eps times the magnitudes summed into the four corners, as on the
stationary path.  Quotients and deviations are
numpy tables over the lags, a row per probe (and axis, for quotients; one
row for a stationary expression); the all-probe deviation is their column
maximum, and each probe's row gives its slope.

A scale is fitted only where its deviation exceeds ten times its estimated
rounding noise (and 50 eps); the small end of the window is then dropped
while the largest log residual of the fit exceeds 0.1 and more than four
scales remain.  A deviation that cannot be fitted inside the window (too
few usable scales, or no order-2n lag derivative at the origin) gives a
failing verdict with a "beyond probe range" note rather than an error, as
do quotients or deviations that leave the float range (extreme lengthscales)
and a general kernel whose window lags are too short to move its probe
points (fewer than four of them do when l_min is below about 1e-13).

The lag window j in [4, 12], the probe design and the fit calibration
above are fixed, and a log-corrected target is met within max(tol, 0.25);
``VerifyConfig`` sets only the exponent tolerance and the order cap.
"""

from __future__ import annotations

import math

import numpy as np

from ._base import field, record
from .kernels import (
    Affine,
    Kernel,
    KernelError,
    ParameterError,
    Stationary,
    Warp,
    _check_int,
    _pairwise,
    classify,
    derivative,
    pairwise,
)
from .regularity import RegularityReport, _collapse, infer_regularity, report_to_dict

__all__ = [
    "VerifyConfig",
    "ExponentFit",
    "VerifyReport",
    "SmoothToOrder",
    "BeyondProbeRange",
    "loglog_fit",
    "detect_order",
    "verify_regularity",
    "derivative_kernel_matrix",
    "verify_to_dict",
]

_EPS = float(np.finfo(float).eps)
_WINDOW = (4, 12)  # dyadic lags h = l_min 2^-j, j in [lo, hi]
_LOG_TOL = 0.25  # least tolerance of a log-corrected target
# the probe design and the fit calibration, as the module docstring describes
_N_PROBES = 8  # probe points, evenly spaced over [_PROBE_LOW, _PROBE_HIGH]
_PROBE_LOW, _PROBE_HIGH = 0.25, 1.25
_SEQ_RATIO = 0.75  # largest median increment ratio of a converging sequence
_RESIDUAL_CAP = 0.1  # largest log residual at which a fit keeps its smallest lag
_MIN_FIT_POINTS = 4
_SNR_MIN = 10.0  # a scale is fitted where its deviation exceeds this times its noise


class SmoothToOrder(KernelError):
    """Raised when the diagonal deviation underflows at every probed scale,
    i.e. the kernel is smooth to the probed order and no exponent exists."""

    def __init__(self, n: int):
        super().__init__(
            f"diagonal deviation underflows at order {n}; kernel smooth to this order"
        )
        self.n = n


class BeyondProbeRange(KernelError):
    """Raised when the probe window cannot resolve the kernel: too few
    usable scales, no order-2n lag derivative at the origin, too few lags
    that move a probe point, or arithmetic that leaves the float range.
    ``verify_regularity`` reports it as a failing verdict."""


@record
class VerifyConfig:
    """tol finite and >= 0, max_order an integer >= 0; else ParameterError."""

    tol: float = 0.15
    max_order: int = 3

    def __post_init__(self):
        object.__setattr__(self, "max_order", _check_int("max_order", self.max_order, 0))
        if not 0.0 <= self.tol < math.inf:
            raise ParameterError(f"parameter tol must be finite and >= 0, got {self.tol!r}", "tol")


@record
class ExponentFit:
    """Least-squares line through (log h, log deviation)."""

    slope: float
    intercept: float
    r_squared: float
    scales: tuple[float, ...]
    residual_max: float


@record
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
    """Ordinary least squares on (log h, log value); needs >= 4 positive points.

    A fit has a few points, so it is taken on Python floats: logs by
    ``math.log`` and every sum by ``math.fsum``, which rounds it once.  A
    log that is not finite (an abscissa not positive and finite, an infinite
    or NaN value) makes slope, intercept and residual NaN, and r^2 0.0
    unless the values are equal and finite.
    """
    pts = sorted(((float(h), float(v)) for h, v in points), reverse=True)
    if len(pts) < 4:
        raise ValueError(f"loglog_fit needs at least 4 points, got {len(pts)}")
    if any(v <= 0.0 for _, v in pts):
        raise ValueError("loglog_fit needs strictly positive values")
    hs = [h for h, _ in pts]
    if len(set(hs)) != len(hs):
        raise ValueError("loglog_fit needs distinct abscissae")
    n = len(pts)
    x = [_log(h) for h in hs]
    y = [_log(v) for _, v in pts]
    xm, ym = math.fsum(x) / n, math.fsum(y) / n
    dx = [a - xm for a in x]
    dy = [b - ym for b in y]
    slope = math.fsum([a * b for a, b in zip(dx, dy)]) / math.fsum([a * a for a in dx])
    intercept = ym - slope * xm
    resid = [b - (intercept + slope * a) for a, b in zip(x, y)]
    ss_res = math.fsum([r * r for r in resid])
    ss_tot = math.fsum([b * b for b in dy])
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return ExponentFit(
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        scales=tuple(hs),
        residual_max=max(abs(r) for r in resid),
    )


def _log(v: float) -> float:
    # NaN where the log is not finite, so that fsum propagates it (it
    # raises on inf - inf) and every fitted quantity is NaN
    return math.log(v) if 0.0 < v < math.inf else math.nan


# --- exact kernel derivatives ------------------------------------------------


def _unit(dim: int, i: int) -> np.ndarray:
    e = np.zeros(dim)
    e[i] = 1.0
    return e


def _derivative_block(expr: Kernel, X: np.ndarray, Y: np.ndarray, alpha: tuple):
    """d^(alpha,alpha) k between the point sets X and Y, of shapes
    (..., n, d) and (..., m, d), with its noise scale: at alpha = 0 the
    kernel values (which the exact partials of order 0 need not equal
    bitwise), each scaled 1 as the rounding of one evaluation; otherwise
    the exact partials with their term magnitudes."""
    if not any(alpha):
        values = _pairwise(expr, X, Y)
        return values, np.ones_like(values)
    return expr.jet(X, Y, alpha, alpha)[alpha, alpha]


def _lag_derivatives(expr: Kernel, t, m: int):
    """Derivatives of orders 0..m of a stationary expression's lag profile
    phi(t) = k(t e_1, 0) at lags t >= 0.

    Returns (values, scale, exists): ``values[j]`` holds phi^(j) at each
    lag, ``scale[j]`` the sum of the magnitudes of the terms that make it
    (so eps * scale bounds its rounding), and ``exists[j]`` whether phi^(j)
    exists at the origin; where it does not, its origin value is NaN.  They
    are the column d_x^j k(t, 0) of the jet on points of one coordinate:
    every stationary expression is isotropic or 1-D (periodic has one
    input), so the profile along the first axis stands for every axis.
    """
    jet = expr.jet(np.asarray(t, dtype=float)[:, None], np.zeros((1, 1)), (m,), (0,))
    values, scale = (np.stack([jet[(j,), (0,)][i][:, 0] for j in range(m + 1)]) for i in (0, 1))
    return values, scale, expr.lag_exists(m)


# --- order detection via mean-square difference quotients ------------------


def _binom_weights(n: int) -> np.ndarray:
    return np.array([(-1.0) ** j * math.comb(n, j) for j in range(n + 1)])


def _ms_quotients(lattices: np.ndarray, n: int, steps: np.ndarray):
    """E[(Delta_h^n f)^2] / h^(2n) and its rounding noise, (sequences x steps)
    tables from lattices[q, i, j, k] = k(x + j h, x + k h), h = ell s_i, in
    units of ell; the terms are added in (j, k) order, the largest skips NaN."""
    w = _binom_weights(n)
    acc = np.zeros(lattices.shape[:2])
    kmax = np.zeros(lattices.shape[:2])
    for j in range(n + 1):
        for k in range(n + 1):
            val = lattices[..., j, k]
            kmax = np.fmax(kmax, np.abs(val))
            acc += w[j] * w[k] * val
    noise = (float(np.sum(np.abs(w))) ** 2) * _EPS * np.maximum(1.0, kmax)
    scale = steps ** (2 * n)
    return acc / scale, noise / scale


def _sequence_converges(values: np.ndarray, noise: np.ndarray) -> bool:
    """Does a quotient sequence over halving lags (a row of values and their
    noise) settle?

    Accepts when the final increment sits at the noise floor or the
    increments decay geometrically; logarithmic drift (constant increments)
    and growth are rejected, and so is a sequence that moves only at its
    last lag, whose increments give no ratio to judge.
    """
    vals, noises = values.tolist(), noise.tolist()  # a few values: floats beat numpy calls
    if len(vals) < 4 or not all(math.isfinite(v) for v in vals):
        return False
    scale = max(1.0, abs(vals[-1]))
    deltas = [abs(b - a) for a, b in zip(vals, vals[1:])]
    floor = max(4.0 * (noises[-1] + noises[-2]), 1e-9 * scale)
    if deltas[-1] <= floor:
        return True
    ratios = [d1 / d0 for d0, d1 in zip(deltas, deltas[1:]) if d0 > floor]
    if not ratios:
        return False
    tail = ratios[-3:]
    return sorted(tail)[len(tail) // 2] <= _SEQ_RATIO


def _in_float_range(series):
    # an order-n series builder whose overflow, division by zero or invalid
    # value, in numpy or in Python floats, is beyond the probe range
    def run(expr: Kernel, n: int):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return series(expr, n)
        except ArithmeticError as exc:
            raise BeyondProbeRange(f"order-{n} arithmetic leaves the float range: {exc!r}") from exc

    return run


def _order_exists(expr: Kernel, n: int) -> bool:
    """Do the order-n diagonal derivatives of k exist near the diagonal?

    Probes the mean-square difference quotients over halving lags; the
    noise floor eps/h^(2n) bounds how deep each order can be probed.  A
    stationary expression whose lag profile has no order-2n derivative at
    the origin has no order-n derivative, whatever its quotients show.
    """
    if isinstance(classify(expr), Stationary) and not expr.lag_exists(2 * n)[2 * n]:
        return False
    values, noise = _quotient_sequences(expr, n)
    return all(_sequence_converges(*_trim_noisy(v, e)) for v, e in zip(values, noise))


@_in_float_range
def _quotient_sequences(expr: Kernel, n: int):
    """The order-n quotient sequences over the lags h = l_min s,
    s = 2^-j for j = lo..lo+8, in units of l_min (divided by s^(2n), not
    h^(2n)), so that a lengthscale moves neither the lags nor the noise
    floors relative to the kernel; tables of values and noise, a row per
    sequence.  A stationary expression has one sequence, whose lattice
    {d h} comes from one lag-profile call; a general one has one per probe
    point and axis, every lattice from one batched call."""
    ell = _min_lengthscale(expr)
    steps = 2.0 ** -np.arange(_WINDOW[0], _WINDOW[0] + 9)
    # offsets[i, j] = j (ell s_i), the lattice points of step s_i
    offsets = np.arange(n + 1)[None, :] * (ell * steps)[:, None]
    if isinstance(classify(expr), Stationary):
        rows = _lag_profile(expr, offsets.ravel()).reshape(offsets.shape)
        lag = np.abs(np.subtract.outer(np.arange(n + 1), np.arange(n + 1)))
        return _ms_quotients(rows[:, lag][None], n, steps)
    # pts[p, a, i, j] = x_p + j (ell s_i) e_a, so the batch of blocks
    # k(pts, pts) holds each probe's and axis's lattices, probe first
    probes = _probe_points(expr)
    pts = probes[:, None, None, None, :] + offsets[:, :, None] * np.eye(expr.dim)[:, None, None, :]
    lattices = _pairwise(expr, pts, pts)
    return _ms_quotients(lattices.reshape(-1, *lattices.shape[2:]), n, steps)


def _lag_profile(expr: Kernel, t: np.ndarray) -> np.ndarray:
    # k(t e_1, 0), as in _lag_derivatives; its entries equal eval_radial(t)
    # (eval_stationary for 1-D) bitwise, since sqrt(t*t) == t
    return pairwise(expr, np.outer(t, _unit(expr.dim, 0)), np.zeros((1, expr.dim)))[:, 0]


def _min_lengthscale(expr: Kernel) -> float:
    """Smallest lengthscale in the expression, or 1 when it has none: the
    probe lags scale with it, so a lengthscale never moves the window.  A
    lengthscale under affine warps x -> a x + b counts divided by their
    |a|, as the leaf at lengthscale l / |a| is the same kernel; under a = 0
    the child is constant and its lengthscales count for none."""
    scales = []
    stack = [(expr, 1.0)]
    while stack:
        node, stretch = stack.pop()
        if isinstance(node, Warp) and isinstance(node.family, Affine):
            if node.family.a == 0.0:
                continue
            stretch *= abs(node.family.a)
        if hasattr(node, "lengthscale"):
            scales.append(node.lengthscale / stretch)
        stack.extend((c, stretch) for c in node.children)
    return min(scales, default=1.0)


def _trim_noisy(values: np.ndarray, noise: np.ndarray):
    # drop the deep end of the lag range once rounding noise overtakes the
    # values, keeping at least four lags; a NaN value counts as 1
    noisy = noise > 0.05 * np.fmax(1.0, np.abs(values))
    keep = max([*noisy.tolist(), True].index(True), 4)  # up to the first noisy lag
    return values[:keep], noise[:keep]


def detect_order(expr: Kernel, cfg: VerifyConfig | None = None) -> int:
    """Largest n <= cfg.max_order whose order-n diagonal derivatives
    stabilise; BeyondProbeRange, with the order detected below it as its
    ``resolved``, when the quotients leave the float range."""
    cfg = cfg or VerifyConfig()
    n = 0
    try:
        while n < cfg.max_order and _order_exists(expr, n + 1):
            n += 1
    except BeyondProbeRange as exc:
        exc.resolved = n
        raise
    return n


# --- deviation series and exponent fit -------------------------------------


def _probe_points(expr: Kernel) -> np.ndarray:
    # deterministic probe set in a compact box on the positive orthant,
    # which lies inside every catalogue domain (Wiener needs x > 0); a lag
    # below half a coordinate's ulp leaves the probe point where it is
    d = expr.dim
    ticks = np.linspace(_PROBE_LOW, _PROBE_HIGH, _N_PROBES)
    lags = _min_lengthscale(expr) * 2.0 ** -np.arange(_WINDOW[0], _WINDOW[1] + 1)
    moved = np.count_nonzero(ticks[:, None] + lags != ticks[:, None], axis=1).min()
    if moved < _MIN_FIT_POINTS:
        raise BeyondProbeRange(f"only {moved} of the {lags.size} window lags move a probe point")
    pts = np.zeros((_N_PROBES, d))
    for i in range(d):
        pts[:, i] = np.roll(ticks, i)
    return pts


@_in_float_range
def _deviation_series(expr: Kernel, n: int):
    """The order-n diagonal deviation over the dyadic window h = l_min 2^-j,
    as (h, deviation, noise): the deviation and its rounding-noise estimate
    are (probes x lags) tables in units of l_min (times l_min^(2n)), so the
    underflow floor does not move with the lengthscale.

    A stationary expression is one probe: |phi^(2n)(h) - phi^(2n)(0)| from
    one exact lag-derivative call over every h and the origin, with noise
    eps times the magnitudes summed into the two values.  A general kernel
    has a row per probe point, the largest diagonal second difference over
    the axes there; each axis takes the four corners of every probe and
    lag as a batch of single pairs in one call.
    """
    ell = _min_lengthscale(expr)
    h = ell * 2.0 ** -np.arange(_WINDOW[0], _WINDOW[1] + 1)
    unit = ell ** (2 * n)
    if isinstance(classify(expr), Stationary):
        values, scale, exists = _lag_derivatives(expr, np.concatenate(([0.0], h)), 2 * n)
        if not exists[2 * n]:
            raise BeyondProbeRange(f"no order-{2 * n} lag derivative at the origin")
        d = unit * values[2 * n]
        noise = unit * _EPS * (scale[2 * n] + scale[2 * n, 0])
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, as floats give
            return h, np.abs(d[1:] - d[0])[None], noise[None, 1:]
    probes = _probe_points(expr)
    best = np.zeros((len(probes), h.size))
    noise = np.zeros_like(best)
    # pts[:, 0] is each probe x and pts[:, i] its point x + h_i e; the pairs
    # (x + h, x + h), (x + h, x), (x, x + h) for every lag, then (x, x)
    lag = np.arange(1, h.size + 1)
    left, right = np.r_[lag, lag, 0 * lag, 0], np.r_[lag, 0 * lag, lag, 0]
    for axis in range(expr.dim):
        e = _unit(expr.dim, axis)
        pts = np.concatenate([probes[:, None, :], probes[:, None, :] + h[:, None] * e], axis=1)
        alpha = tuple(n * int(i == axis) for i in range(expr.dim))
        block = _derivative_block(expr, pts[:, left, None], pts[:, right, None], alpha)
        # (probes, 3 lags + 1) corners, each lag's four summed left to right;
        # an inf or NaN sum is skipped
        values, scale = (b[..., 0, 0] for b in block)
        with np.errstate(over="ignore", invalid="ignore"):
            v, s = (b[:, :-1].reshape(-1, 3, h.size) for b in (values, scale))
            val = v[:, 0] - v[:, 1] - v[:, 2] + values[:, -1:]
            corners = s[:, 0] + s[:, 1] + s[:, 2] + scale[:, -1:]
        finite = np.isfinite(val)
        best = np.maximum(best, np.where(finite, np.abs(val), 0.0))
        noise = np.fmax(noise, np.where(finite, _EPS * corners, 0.0))
    with np.errstate(over="ignore"):  # inf, as floats give
        return h, unit * best, unit * noise


def _fit_series(h: np.ndarray, dev: np.ndarray, noise: np.ndarray, n: int) -> ExponentFit:
    """Fit of a deviation row at the lags h: drop noisy or underflowing
    scales, then trim the small end while the residual exceeds the cap."""
    with np.errstate(over="ignore"):  # noise above max/10 leaves no scale usable
        usable = dev > np.maximum(_SNR_MIN * noise, 50.0 * _EPS)
    count = np.count_nonzero(usable)
    if not count:
        raise SmoothToOrder(n)
    if count < _MIN_FIT_POINTS:
        raise BeyondProbeRange(
            f"only {count} usable scales at order {n}; deviation too small or too noisy"
        )
    return _trimmed_fit(h[usable], dev[usable])


def _trimmed_fit(h: np.ndarray, v: np.ndarray) -> ExponentFit:
    """loglog_fit of the values v at the distinct lags h, refitted without
    the smallest h while the largest residual exceeds _RESIDUAL_CAP and
    more than _MIN_FIT_POINTS points remain."""
    points = sorted(zip(h.tolist(), v.tolist()), reverse=True)
    fit = loglog_fit(points)
    while fit.residual_max > _RESIDUAL_CAP and len(points) > _MIN_FIT_POINTS:
        points.pop()
        fit = loglog_fit(points)
    return fit


def verify_regularity(expr: Kernel, cfg: VerifyConfig | None = None) -> VerifyReport:
    """Compare the numerically detected order against ``infer_regularity(expr)``.

    Detects n as the deepest stable derivative order and fits the deviation
    exponent there.  The orders the detection admits are the fit's
    n + slope/2, and every order from n + 1 up when the deviation underflows
    at every scale or the fit saturates at slope 2 with n at cfg.max_order.
    One rule judges a finite target against them: a sharp prediction passes
    when it lies within tol of an admitted order, and a sufficient-only one,
    a lower bound on the order, when it lies at most tol above one.  tol is
    cfg.tol, and at least 0.25, with the verdict flagged, for the
    log-corrected integer Matern case.  Smooth predictions are probed up to
    cfg.max_order and reported as 'smooth to probed order'.
    """
    cfg = cfg or VerifyConfig()
    predicted = infer_regularity(expr)
    # the lowest axis order, flagged and sharp as its attaining axes are
    lowest = _collapse(predicted.per_axis)
    target, log_flag, sharp = lowest.order, lowest.log_corrected, lowest.sharp

    try:
        n_hat = detect_order(expr, cfg)
    except BeyondProbeRange as exc:
        return VerifyReport(exc.resolved, None, predicted, "fail", note=f"beyond probe range: {exc}")

    # the all-probe series is the largest probe deviation and noise at each
    # lag; each probe's row also gives a general kernel's probe slope below
    try:
        h, dev, noise = _deviation_series(expr, n_hat)
        fit = _fit_series(h, dev.max(axis=0), noise.max(axis=0), n_hat)
    except (SmoothToOrder, BeyondProbeRange) as exc:
        if isinstance(exc, BeyondProbeRange) and target != math.inf:
            return VerifyReport(n_hat, None, predicted, "fail", note=f"beyond probe range: {exc}")
        fit = None

    if target == math.inf:
        capped = n_hat >= cfg.max_order
        return VerifyReport(
            n_hat, fit, predicted, "pass" if capped else "fail",
            smooth_to_order=cfg.max_order if capped else None,
        )

    tol = max(cfg.tol, _LOG_TOL) if log_flag else cfg.tol
    target = float(target)
    # the deviation underflowing at every scale, or detection capped out with
    # the deviation saturating at slope 2, puts the order at n + 1 or above
    at_least = fit is None or (n_hat == cfg.max_order and fit.slope >= 2.0 - 0.2)
    if sharp:
        ok = (at_least and target >= n_hat + 1 - tol) or (
            fit is not None and abs(n_hat + fit.slope / 2.0 - target) <= tol
        )
    else:
        # a sufficient-only prediction is a lower bound on regularity, so
        # detecting more than predicted is consistent (e.g. a warp whose
        # roughness concentrates outside the probe box)
        ok = at_least or n_hat + fit.slope / 2.0 >= target - tol

    slopes = []
    if not isinstance(classify(expr), Stationary) and fit is not None:
        for probe_dev, probe_noise in zip(dev, noise):
            try:
                slopes.append(_fit_series(h, probe_dev, probe_noise, n_hat).slope)
            except (SmoothToOrder, BeyondProbeRange):
                continue

    verdict = ("log-flagged" if log_flag else "pass") if ok else "fail"
    return VerifyReport(
        detected_order_n=n_hat,
        exponent_fit=fit,
        predicted=predicted,
        verdict=verdict,
        probe_slopes=tuple(slopes),
    )


def derivative_kernel_matrix(expr: Kernel, alpha, X, Y=None) -> np.ndarray:
    """Gram matrix of the derivative kernel d^(alpha,alpha) k on points X,
    the exact partials of ``kernels.derivative(expr, alpha)``; with Y
    given, the cross matrix between X and Y."""
    return pairwise(derivative(expr, alpha), X, X if Y is None else Y)


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
