"""Numeric verification: differences, derivatives, exponent fits, verdicts."""

import math

import numpy as np
import pytest

from pathreg import verify as V
from pathreg.dsl import parse_kernel
from pathreg.kernels import KernelError, eval_kernel
from pathreg.verify import (
    SmoothToOrder,
    VerifyConfig,
    detect_order,
    estimate_diagonal_exponent,
    kernel_derivative,
    loglog_fit,
    radial_derivative,
    second_difference,
    verify_regularity,
    verify_to_dict,
    _radial_derivative_diag,
)

CFG = VerifyConfig()


class TestLogLogFit:
    def test_exact_line(self):
        fit = loglog_fit([(2.0**-j, 2.0**-j) for j in range(4, 11)])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_quadratic(self):
        fit = loglog_fit([(2.0**-j, 4.0**-j) for j in range(4, 11)])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_affine_with_prefactor(self):
        fit = loglog_fit([(2.0**-j, 7.0 * 2.0 ** (-1.5 * j)) for j in range(4, 11)])
        assert fit.slope == pytest.approx(1.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-12)

    def test_scales_recorded_decreasing(self):
        fit = loglog_fit([(2.0**-j, 2.0**-j) for j in range(4, 8)])
        assert list(fit.scales) == sorted(fit.scales, reverse=True)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            loglog_fit([(0.5, 1.0), (0.25, 1.0), (0.125, 1.0)])
        with pytest.raises(ValueError):
            loglog_fit([(0.5, 1.0), (0.25, -1.0), (0.125, 1.0), (0.0625, 1.0)])
        with pytest.raises(ValueError):
            loglog_fit([(0.5, 1.0), (0.5, 2.0), (0.125, 1.0), (0.0625, 1.0)])


class TestSecondDifference:
    def test_wiener_equals_lag(self):
        expr = parse_kernel("wiener()")
        assert second_difference(expr, 0.5, 0.25, 0) == 0.25
        for x in np.linspace(0.3, 1.8, 7):
            for h in [2.0**-j for j in range(2, 9)]:
                assert second_difference(expr, x, h, 0) == pytest.approx(h, abs=1e-12)

    def test_se_stationary_identity(self):
        expr = parse_kernel("se()")
        for x in [0.0, 0.7, -1.3]:
            for h in [0.5, 0.1, 0.01]:
                expected = 2.0 * (1.0 - math.exp(-(h**2)))
                assert second_difference(expr, x, h, 0) == pytest.approx(expected, abs=1e-10)

    def test_stationary_identity_general(self):
        # second_difference(x, h, 0) = 2 (k_delta(0) - k_delta(h)) at every x
        from pathreg.kernels import eval_stationary

        for text in ["periodic()", "matern(nu=1.5)", "periodic() * se()"]:
            expr = parse_kernel(text)
            for x in [0.1, 0.9, 2.3]:
                for h in [0.4, 0.05]:
                    expected = 2.0 * (
                        eval_stationary(expr, 0.0) - eval_stationary(expr, h)
                    )
                    got = second_difference(expr, x, h, 0)
                    assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_nonnegative_for_psd_kernels(self):
        for text in ["se()", "matern(nu=0.5)", "wiener()", "poly(m=2)", "periodic()"]:
            expr = parse_kernel(text)
            for x in [0.3, 0.9, 1.4]:
                for h in [0.25, 0.03125]:
                    assert second_difference(expr, x, h, 0) >= -1e-10

    def test_order_cap(self):
        with pytest.raises(KernelError):
            second_difference(parse_kernel("se()"), 0.5, 0.1, 5)


class TestRadialDerivative:
    def test_wendland_exact_second_derivative(self):
        assert radial_derivative(parse_kernel("wendland(d=1,n=1)"), 2, 0.0) == -12.0

    def test_wendland_conic_combination_exact(self):
        expr = parse_kernel("2*wendland(d=1,n=1) + wendland(d=1,n=2)")
        # hand integration: the (1,2) profile is 1 - 7r^2 + 35r^4 - 56r^5
        # + 35r^6 - 8r^7, so the combination gives 2*(-12) + (-14)
        assert radial_derivative(expr, 2, 0.0) == pytest.approx(-38.0, abs=1e-12)

    def test_se_second_derivative_at_zero(self):
        assert radial_derivative(parse_kernel("se()"), 2, 0.0) == pytest.approx(-2.0, abs=1e-6)

    def test_se_matches_analytic_derivatives(self):
        # e^{-r^2}: k' = -2r k, k'' = (4r^2 - 2) k, k''' = (12r - 8r^3) k,
        # k'''' = (16r^4 - 48r^2 + 12) k
        expr = parse_kernel("se()")
        for r in np.linspace(0.1, 2.0, 8):
            k = math.exp(-r * r)
            analytic = {
                1: -2 * r * k,
                2: (4 * r * r - 2) * k,
                3: (12 * r - 8 * r**3) * k,
                4: (16 * r**4 - 48 * r * r + 12) * k,
            }
            for order, expected in analytic.items():
                assert radial_derivative(expr, order, r) == pytest.approx(
                    expected, rel=1e-5, abs=1e-5
                )

    def test_matern_half_kink_flagged_near_zero(self):
        # e^{-r} has one-sided slope -1 at 0+ and +1 at 0-; the stencil at the
        # spec's base step spans the kink and never settles
        expr = parse_kernel("matern(nu=0.5)")
        value, stable, _spread, _noise = _radial_derivative_diag(expr, 1, 1e-9, CFG)
        assert not stable
        v0, s0, _sp, _n = _radial_derivative_diag(expr, 2, 0.0, CFG)
        assert not s0

    def test_requires_isotropic(self):
        with pytest.raises(KernelError):
            radial_derivative(parse_kernel("wiener()"), 1, 0.5)

    def test_order_cap(self):
        with pytest.raises(KernelError):
            radial_derivative(parse_kernel("se()"), 9, 0.5)


class TestKernelDerivative:
    def test_se_mixed_second_derivative_diag(self):
        # d^{2,2} e^{-(x-y)^2} at x = y equals 12
        value, stable, _ = kernel_derivative(parse_kernel("se()"), 0.5, 0.5, 2, 2)
        assert stable
        assert value == pytest.approx(12.0, rel=1e-4)

    def test_wiener_first_derivative_unstable(self):
        _value, stable, _ = kernel_derivative(parse_kernel("wiener()"), 0.5, 0.5, 1, 1)
        assert not stable

    def test_cross_terms_bounded_by_diagonal(self):
        # the alpha != beta combinations never exceed the geometric mean of
        # the diagonal ones, so diagonal-only probing cannot miss them
        from pathreg.verify import cross_difference_bound

        for text in ["se(dim=2)", "tensor(matern(nu=1.5), se())", "matern(nu=2.5, dim=2)"]:
            expr = parse_kernel(text)
            for h in [0.25, 0.0625]:
                cross, bound = cross_difference_bound(
                    expr, [0.4, 0.7], [h, h], [1, 0], [0, 1]
                )
                assert cross <= bound * (1 + 1e-6) + 1e-9


class TestDetectOrder:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("matern(nu=0.5)", 0),
            ("matern(nu=1)", 0),
            ("matern(nu=1.5)", 1),
            ("matern(nu=2)", 1),
            ("matern(nu=2.5)", 2),
            ("wendland(d=1,n=0)", 0),
            ("wendland(d=1,n=1)", 1),
            ("wiener()", 0),
            ("se()", 3),
            ("periodic()", 3),
        ],
    )
    def test_catalogue(self, text, expected):
        assert detect_order(parse_kernel(text)) == expected


class TestDiagonalExponent:
    def test_matern_half_slope_one(self):
        fit = estimate_diagonal_exponent(parse_kernel("matern(nu=0.5)"), 0)
        assert fit.slope == pytest.approx(1.0, abs=0.05)
        assert fit.r_squared >= 0.999

    def test_wiener_slope_exact(self):
        fit = estimate_diagonal_exponent(parse_kernel("wiener()"), 0)
        assert fit.slope == pytest.approx(1.0, abs=1e-6)

    def test_wendland_second_order_slope(self):
        fit = estimate_diagonal_exponent(parse_kernel("wendland(d=1,n=1)"), 1)
        assert fit.slope == pytest.approx(1.0, abs=0.05)

    def test_smooth_signal_distinct(self):
        # the linear kernel's first-derivative diagonal deviation vanishes
        with pytest.raises(SmoothToOrder):
            estimate_diagonal_exponent(parse_kernel("linear()"), 1)


class TestVerifyRegularity:
    def test_matern_three_halves_passes(self):
        report = verify_regularity(parse_kernel("matern(nu=1.5)"))
        assert report.verdict == "pass"
        assert report.detected_order_n == 1
        assert report.detected_total == pytest.approx(1.5, abs=0.15)

    def test_smooth_probe_reports_bound(self):
        report = verify_regularity(parse_kernel("se()"))
        assert report.verdict == "pass"
        assert report.smooth_to_order == 3

    def test_integer_matern_log_flagged(self):
        report = verify_regularity(parse_kernel("matern(nu=1)"))
        assert report.verdict == "log-flagged"
        assert report.detected_total == pytest.approx(1.0, abs=0.25)

    def test_wiener_locally_uniform(self):
        report = verify_regularity(parse_kernel("wiener()"))
        assert report.verdict == "pass"
        assert len(report.probe_slopes) >= 8
        assert max(report.probe_slopes) - min(report.probe_slopes) <= 0.1

    def test_report_dict_schema(self):
        payload = verify_to_dict(verify_regularity(parse_kernel("matern(nu=1.5)")))
        assert set(payload) >= {"predicted", "detected", "verdict", "probes"}
        assert set(payload["detected"]) >= {"n", "slope", "r2", "scales"}

    def test_tolerance_override(self):
        tight = VerifyConfig(tol=1e-6)
        report = verify_regularity(parse_kernel("matern(nu=1.5)"), cfg=tight)
        assert report.verdict == "fail"


# --- batched evaluation against per-term scalar references -----------------


def _scalar_kernel_derivative(expr, x, y, alpha, beta):
    # one eval_kernel call per stencil term, as the batched path replaced
    alpha = V._as_multiindex(alpha, expr.dim)
    beta = V._as_multiindex(beta, expr.dim)
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    npow = int(alpha.sum() + beta.sum())
    if npow == 0:
        return eval_kernel(expr, x, y), True, 0.0
    step = V._BASE_STEPS[min(npow, V.MAX_RADIAL_ORDER)]
    terms = [(np.zeros_like(x), np.zeros_like(y), 1.0)]
    for which, index in ((0, alpha), (1, beta)):
        for i, a in enumerate(index):
            if a == 0:
                continue
            offsets, weights = V._STENCILS[int(a)]
            terms = [
                (ox + o * V._unit(expr.dim, i), oy, c * w) if which == 0
                else (ox, oy + o * V._unit(expr.dim, i), c * w)
                for ox, oy, c in terms
                for o, w in zip(offsets, weights)
                if w != 0.0
            ]
    coeffs = np.array([c for _ox, _oy, c in terms])

    def sample(s):
        vals = np.array([eval_kernel(expr, x + ox * s, y + oy * s) for ox, oy, _c in terms])
        return float(np.dot(coeffs, vals)) / s**npow

    return V._richardson(sample, step, 1e-4)


def _scalar_second_difference(expr, x, h, alpha):
    x = np.asarray(x, dtype=float).reshape(-1)
    xh = x + np.asarray(h, dtype=float).reshape(-1)
    if V._as_multiindex(alpha, expr.dim).sum() == 0:
        return (
            eval_kernel(expr, xh, xh)
            - eval_kernel(expr, xh, x)
            - eval_kernel(expr, x, xh)
            + eval_kernel(expr, x, x)
        )
    acc = 0.0
    for a, b, sign in [(xh, xh, 1.0), (xh, x, -1.0), (x, xh, -1.0), (x, x, 1.0)]:
        acc += sign * _scalar_kernel_derivative(expr, a, b, alpha, alpha)[0]
    return acc


def _scalar_cross_difference_bound(expr, x, h, alpha, beta):
    x = np.asarray(x, dtype=float).reshape(-1)
    xh = x + np.asarray(h, dtype=float).reshape(-1)
    cross = 0.0
    for a, b, sign in [(xh, xh, 1.0), (xh, x, -1.0), (x, xh, -1.0), (x, x, 1.0)]:
        cross += sign * _scalar_kernel_derivative(expr, a, b, alpha, beta)[0]
    diag_a = _scalar_second_difference(expr, x, h, alpha)
    diag_b = _scalar_second_difference(expr, x, h, beta)
    return abs(cross), math.sqrt(max(diag_a, 0.0) * max(diag_b, 0.0))


def _scalar_ms_quotient(expr, x, axis, n, h):
    w = V._binom_weights(n)
    e = V._unit(expr.dim, axis)
    pts = [x + j * h * e for j in range(n + 1)]
    acc = 0.0
    kmax = 0.0
    for j in range(n + 1):
        for k in range(n + 1):
            val = eval_kernel(expr, pts[j], pts[k])
            kmax = max(kmax, abs(val))
            acc += w[j] * w[k] * val
    noise = (float(np.sum(np.abs(w))) ** 2) * V._EPS * max(1.0, kmax)
    return acc / h ** (2 * n), noise / h ** (2 * n)


GENERAL_1D = [
    "warp(matern(nu=1.5), abs_power(beta=0.5))",
    "feature(family=trig,degree=2)",
    "poly(m=2)",
    "wiener() + linear()",
]
TENSOR_2D = "tensor(matern(nu=0.5), matern(nu=1.5))"
ORDERS_2D = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 3), (2, 1), (1, 2)]


class TestBatchedStencils:
    """The general path evaluates each stencil as one pairwise block; every
    value must equal the per-term scalar evaluation bitwise."""

    @pytest.mark.parametrize("text", GENERAL_1D)
    def test_kernel_derivative_1d(self, text):
        expr = parse_kernel(text)
        for x, y in [(0.4, 0.7), (0.6, 0.6)]:
            for a in range(4):
                for b in range(4):
                    got = kernel_derivative(expr, x, y, a, b)
                    assert got == _scalar_kernel_derivative(expr, x, y, a, b), (x, y, a, b)

    def test_kernel_derivative_tensor(self):
        expr = parse_kernel(TENSOR_2D)
        x, y = [0.4, 0.55], [0.7, 0.3]
        for a in ORDERS_2D:
            for b in ORDERS_2D:
                got = kernel_derivative(expr, x, y, a, b)
                assert got == _scalar_kernel_derivative(expr, x, y, a, b), (a, b)

    @pytest.mark.parametrize("text", GENERAL_1D)
    def test_second_difference_and_quotient_1d(self, text):
        expr = parse_kernel(text)
        x = np.array([0.45])
        for h in [2.0**-4, 2.0**-9]:
            for a in range(4):
                assert second_difference(expr, x, h, a) == _scalar_second_difference(
                    expr, x, h, a
                ), (h, a)
            for n in range(1, 4):
                assert V._ms_quotient_general(expr, x, 0, n, h) == _scalar_ms_quotient(
                    expr, x, 0, n, h
                ), (h, n)

    def test_second_difference_and_quotient_tensor(self):
        expr = parse_kernel(TENSOR_2D)
        x = np.array([0.4, 0.55])
        for h in [[2.0**-4, 0.0], [0.0, 2.0**-7], [2.0**-5, 2.0**-5]]:
            for a in ORDERS_2D:
                assert second_difference(expr, x, h, a) == _scalar_second_difference(
                    expr, x, h, a
                ), (h, a)
        for axis in range(2):
            for n in range(1, 4):
                assert V._ms_quotient_general(expr, x, axis, n, 2.0**-6) == _scalar_ms_quotient(
                    expr, x, axis, n, 2.0**-6
                ), (axis, n)


class TestSingleProbePass:
    """verify_regularity computes each probe's deviation series once; its
    fit and probe slopes must equal the per-probe estimates."""

    @pytest.mark.parametrize("text", ["warp(matern(nu=1.5), abs_power(beta=0.5))", "wiener()"])
    def test_probe_slopes_and_fit(self, text):
        expr = parse_kernel(text)
        report = verify_regularity(expr, cfg=CFG)
        n = report.detected_order_n
        expected = [
            estimate_diagonal_exponent(expr, n, CFG, x=b).slope
            for b in V._probe_points(expr, CFG)
        ]
        assert len(expected) == CFG.n_probes
        assert list(report.probe_slopes) == expected
        assert report.exponent_fit == estimate_diagonal_exponent(expr, n, CFG)
        # the all-probe series against one max over every probe and axis
        lo, hi = CFG.window
        hs = [2.0**-j for j in range(lo, hi + 1)]
        series = V._deviation_series(expr, n, CFG)
        assert len(series) == len(hs)
        for row, h in zip(series, hs):
            best = 0.0
            for base in V._probe_points(expr, CFG):
                for axis in range(expr.dim):
                    alpha = np.zeros(expr.dim, dtype=int)
                    alpha[axis] = n
                    val = second_difference(expr, base, h * V._unit(expr.dim, axis), alpha)
                    if math.isfinite(val):
                        best = max(best, abs(val))
            assert row[:2] == (h, best)

    @pytest.mark.parametrize("text", ["warp(matern(nu=1.5), abs_power(beta=0.5))", "wiener()"])
    def test_cross_difference_bound_matches_scalar(self, text):
        expr = parse_kernel(text)
        for h in [0.25, 2.0**-6]:
            for a, b in [(0, 1), (1, 2), (0, 3)]:
                got = V.cross_difference_bound(expr, 0.5, h, a, b)
                assert got == _scalar_cross_difference_bound(expr, 0.5, h, a, b), (h, a, b)
