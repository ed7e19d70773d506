"""Sample-path regularity estimation from drawn paths.

The m-th order structure function S_m(h) is the mean over positions and
draws of the squared m-th difference of the path at lag h.  For a centred
GP it equals the kernel-side diagonal difference statistic, and its log-log
slope against h estimates 2 min(s, m), where s is the sample-path order.
The estimator raises the difference order m until the fitted slope leaves
the saturation band near 2m, then reports half the slope; paths smoother
than every probed order yield a lower bound instead of a point estimate.

S_m is summed along axis 1 of a (count, n, k) view of the draws: k = 1 for
1-D draws and for the rows of a 2-D field, and k = n2 for its columns, so
no axis is transposed or copied.  The draws are differenced _BLOCK_BYTES
(256 KB) at a time, and the differences of one block are the estimator's
only temporaries, whatever the size of the draw table.  Each block's sum is
numpy's pairwise reduction, not a BLAS dot, and the block sums are added in
draw order, so a value depends on the draws alone, not on the BLAS thread
count; it agrees with np.mean of the differences to a few ulps.  Samples
holding a NaN or an infinity are rejected.

The calibration is fixed: at least 50 draws, difference orders m up to 4,
at least four lags per fit (the fit itself is ``verify``'s trimmed log-log
fit), and order m counts as saturated when its slope exceeds 2m - 0.35.
That margin is calibrated on smooth (squared-exponential) fields, where the
large-lag plateau drags the fitted slope up to ~0.3 below the ideal 2m on
short grids.
"""

from __future__ import annotations

import math

import numpy as np

from ._base import record
from .sampling import Axis, PathSamples
from .verify import _MIN_FIT_POINTS, ExponentFit, _trimmed_fit

__all__ = [
    "EstimateResult",
    "default_lags",
    "estimate_path_regularity",
    "axiswise_regularity",
]

_MIN_SAMPLES = 50
# bytes of draws differenced at a time: the differences of one block are the
# estimator's only temporaries, and a block fits a core's L2 cache
_BLOCK_BYTES = 1 << 18
_MAX_M = 4
# slope > 2m - margin means order m saturated
_SATURATION_MARGIN = 0.35


@record
class EstimateResult:
    s_hat: float | None
    lower_bound: float | None
    fit: ExponentFit | None
    m_used: int
    degenerate: bool = False


def default_lags(n_points: int) -> list[int]:
    """Dyadic lag ladder in [4 dx, span/8], widened when the grid is short."""
    ceiling = max((n_points - 1) // 8, 1)
    lags = _dyadic(4, ceiling)
    if len(lags) < _MIN_FIT_POINTS:
        lags = _dyadic(2, max((n_points - 1) // 4, 1))
    if len(lags) < _MIN_FIT_POINTS:
        # short grids: log-spaced integer lags across [2, span/4]; lag 1 is
        # excluded to keep discrete-difference bias out of the fit
        hi = max((n_points - 1) // 4, 3)
        raw = np.unique(np.round(np.geomspace(2, hi, num=6)).astype(int))
        lags = [int(v) for v in raw if v >= 2]
    if len(lags) < _MIN_FIT_POINTS:
        raise ValueError(f"grid too short for {_MIN_FIT_POINTS} distinct lags")
    return lags


def _dyadic(lo: int, hi: int) -> list[int]:
    out = []
    v = lo
    while v <= hi:
        out.append(v)
        v *= 2
    return out


def _mean_squared_differences(table: np.ndarray, m: int, lag_steps) -> np.ndarray:
    """Mean squared m-th difference along axis 1 of a (count, n, k) table,
    one value per lag.  The draws are taken _BLOCK_BYTES at a time, so the
    differences of one block are the only temporaries, and each block's sum
    is numpy's pairwise reduction, which no BLAS thread count changes."""
    count, n, k = table.shape
    rows = max(_BLOCK_BYTES // (n * k * table.itemsize), 1)
    totals = [0.0] * len(lag_steps)
    for lo in range(0, count, rows):
        block = table[lo:lo + rows]
        for j, l in enumerate(lag_steps):
            diff = block
            for _ in range(m):
                diff = diff[:, l:] - diff[:, :-l]
            totals[j] += float(np.square(diff, out=diff).sum())
    return np.array([t / (count * (n - m * l) * k) for t, l in zip(totals, lag_steps)])


def _check_samples(samples: PathSamples, dim: int, caller: str) -> None:
    if samples.grid.dim != dim:
        raise ValueError(f"{caller} expects {dim}-D samples")
    if samples.count < _MIN_SAMPLES:
        raise ValueError(
            f"need at least {_MIN_SAMPLES} draws for a stable estimate, got {samples.count}"
        )


def estimate_path_regularity(samples: PathSamples) -> EstimateResult:
    """Adaptive structure-function estimate of the sample-path order."""
    _check_samples(samples, 1, "estimate_path_regularity")
    return _estimate(samples.samples[:, :, None], samples.grid.axes[0], samples.jitter_used)


def _estimate(table: np.ndarray, axis: Axis, jitter_used: float) -> EstimateResult:
    span = max(float(table.max()), -float(table.min())) if table.size else 0.0
    if not math.isfinite(span):
        raise ValueError("samples hold a non-finite value")
    # rounding noise of draws of this size, so the floor scales with them
    degen_floor = (span * 1e-14) ** 2
    jitter = jitter_used if math.isfinite(jitter_used) else 0.0
    # every default lag l has 4 l < n, so each order m <= 4 differences there
    lag_steps = default_lags(table.shape[1])
    lags = np.array(lag_steps) * axis.spacing
    fit = None
    m = 1
    while m <= _MAX_M:
        values = _mean_squared_differences(table, m, lag_steps)
        if np.all(values <= degen_floor):
            return EstimateResult(None, None, None, m_used=m, degenerate=True)
        # factorisation jitter adds white noise whose m-th differences have
        # variance C(2m, m) * jitter; lags buried in that floor carry no
        # information about the path and only flatten the fit
        noise_floor = 50.0 * math.comb(2 * m, m) * jitter
        usable = values > max(noise_floor, degen_floor)
        if np.count_nonzero(usable) < _MIN_FIT_POINTS:
            # the signal died below the noise floor at almost every lag;
            # the paths are smoother than order m resolves
            return EstimateResult(None, float(m), fit, m_used=m)
        fit = _trimmed_fit(lags[usable], values[usable])
        if fit.slope <= 2.0 * m - _SATURATION_MARGIN:
            return EstimateResult(fit.slope / 2.0, None, fit, m_used=m)
        m += 1
    return EstimateResult(None, float(_MAX_M), fit, m_used=_MAX_M)


def axiswise_regularity(samples: PathSamples) -> tuple[EstimateResult, EstimateResult]:
    """Per-axis estimates for a 2-D field: every 1-D slice along an axis is
    treated as a draw on that axis's grid and the slices are pooled; at
    least 50 fields are needed, as for a 1-D estimate."""
    _check_samples(samples, 2, "axiswise_regularity")
    n1, n2 = samples.grid.shape
    # axis 0 differences across the rows of each draw, all of its columns
    # at once, so no transposed copy is made; axis 1 takes each row as a draw
    tables = (
        samples.samples.reshape(samples.count, n1, n2),
        samples.samples.reshape(samples.count * n1, n2, 1),
    )
    return tuple(
        _estimate(table, axis, samples.jitter_used)
        for table, axis in zip(tables, samples.grid.axes)
    )
