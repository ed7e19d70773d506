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
        # e^{-r} has one-sided slope -1 at 0+ and +1 at 0-, so no derivative
        # of the even lag profile exists at the origin
        expr = parse_kernel("matern(nu=0.5)")
        values, _scale, exists = V._lag_derivatives(expr, np.array([0.0, 1e-9]), 2)
        assert exists.tolist() == [True, False, False]
        assert np.isnan(values[1:, 0]).all()
        assert values[1, 1] == pytest.approx(-1.0, rel=1e-8)
        assert math.isnan(radial_derivative(expr, 2, 0.0))

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

    @pytest.mark.parametrize(
        "text",
        [
            "matern(nu=2.5) * periodic()",
            "matern(nu=2.5) * periodic(lengthscale=0.5)",
            "matern(nu=2.5,lengthscale=0.1) * periodic(lengthscale=0.1)",
        ],
    )
    def test_no_order_past_the_lag_derivatives(self, text):
        # the profile has no sixth derivative at the origin, so no order 3,
        # however the smooth factor shapes the order-3 quotients
        report = verify_regularity(parse_kernel(text))
        assert report.detected_order_n == 2
        assert report.verdict == "pass"
        assert report.note is None


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


# --- exact lag-profile derivatives and the stationary path -----------------

STATIONARY_LEAVES = (
    [(f"matern(nu={nu},", float(nu), nu in ("1", "2", "3")) for nu in ("0.5", "1", "1.5", "2", "2.5", "3", "3.5")]
    + [(f"wendland(d=1,n={n},", n + 0.5, False) for n in (0, 1, 2)]
    + [(leaf, math.inf, False) for leaf in ("se(", "rq(a=1,", "periodic(")]
)


class TestStationarySweep:
    """Every stationary leaf at every catalogue lengthscale gets the verdict
    and order it promises; none raises."""

    @pytest.mark.parametrize("ell", ["0.1", "1", "10"])
    @pytest.mark.parametrize("leaf, order, log", STATIONARY_LEAVES)
    def test_promised_verdict(self, leaf, order, log, ell):
        report = verify_regularity(parse_kernel(f"{leaf}lengthscale={ell})"))
        assert report.note is None
        assert report.verdict == ("log-flagged" if log else "pass")
        if order == math.inf:
            assert report.smooth_to_order == CFG.max_order
        else:
            tol = CFG.log_tol if log else CFG.tol
            assert report.detected_total == pytest.approx(order, abs=tol)

    @pytest.mark.parametrize("leaf, order, log", STATIONARY_LEAVES)
    def test_lengthscale_invariant(self, leaf, order, log):
        # the window, quotients and deviations are in units of the
        # lengthscale, so it changes the detected order only by rounding
        totals = [
            verify_regularity(parse_kernel(f"{leaf}lengthscale={ell})")).detected_total
            for ell in ("0.1", "1", "10")
        ]
        if order != math.inf:
            assert max(totals) - min(totals) <= 1e-10


def _mp_profile(expr):
    # the lag profile phi(t) of a stationary expression in mpmath
    import mpmath as mp

    from pathreg import kernels as K

    if isinstance(expr, K.Matern):
        nu, ell = mp.mpf(expr.nu), mp.mpf(expr.lengthscale)
        if nu == int(nu):
            # mpmath differentiates integer-order K slowly; an order 1e-25
            # away changes the profile by about 1e-24 relative
            nu += mp.mpf(10) ** -25
        c = 2 ** (1 - nu) / mp.gamma(nu)

        def matern(t):
            z = mp.sqrt(2 * nu) * t / ell
            return c * z**nu * mp.besselk(nu, z)

        return matern
    if isinstance(expr, K.Wendland):
        coeffs = [mp.mpf(c.numerator) / c.denominator for c in expr.polynomial.coeffs]
        return lambda t: mp.polyval(coeffs[::-1], t / expr.lengthscale) if t < expr.lengthscale else 0
    if isinstance(expr, K.SquaredExponential):
        return lambda t: mp.exp(-((t / expr.lengthscale) ** 2))
    if isinstance(expr, K.RationalQuadratic):
        return lambda t: (1 + (t / expr.lengthscale) ** 2) ** (-mp.mpf(expr.a))
    if isinstance(expr, K.Periodic):
        return lambda t: mp.exp(-mp.sin(mp.pi * t / expr.lengthscale) ** 2)
    parts = [_mp_profile(c) for c in expr.children]
    if isinstance(expr, K.Conic):
        return lambda t: mp.fsum(w * f(t) for w, f in zip(expr.weights, parts))
    return lambda t: mp.fprod(f(t) for f in parts)


LAG_DERIVATIVE_CASES = [
    "matern(nu=0.5,lengthscale=0.7)",
    "matern(nu=1)",
    "matern(nu=1.5,lengthscale=2)",
    "matern(nu=2)",
    "matern(nu=2.5)",
    "matern(nu=3,lengthscale=0.3)",
    "matern(nu=3.5,lengthscale=10)",
    "wendland(d=1,n=0)",
    "wendland(d=1,n=2,lengthscale=1.5)",
    "wendland(d=3,n=1)",
    "se(lengthscale=0.8)",
    "rq(a=1.5,lengthscale=0.6)",
    "periodic(lengthscale=2)",
    "matern(nu=2.5) * periodic()",
    "2*se(lengthscale=0.5) + matern(nu=3.5)",
    "2*matern(nu=1.5) + wendland(d=1,n=1)",
]


class TestLagDerivatives:
    @pytest.mark.parametrize("text", LAG_DERIVATIVE_CASES)
    def test_match_mpmath(self, text):
        # orders 0..6 at lags across the verify window and beyond; relative
        # 1e-12 up to order 2 nu of each Matern leaf.  Past that, a
        # half-integer Matern's profile e^-z poly(z) is smooth while the
        # Bessel terms it sums diverge as t -> 0, so the error is relative
        # to the summed magnitudes `scale` (the deviation noise estimate)
        import mpmath as mp

        from pathreg.kernels import Matern

        expr = parse_kernel(text)
        ell = V._min_lengthscale(expr)
        nus = [c.nu for c in [expr, *expr.children] if isinstance(c, Matern)]
        lags = [ell * s for s in (2.0**-12, 2.0**-8, 2.0**-4, 0.3, 0.7, 1.3)]
        values, scale, _exists = V._lag_derivatives(expr, np.array(lags), 6)
        with mp.workdps(40):
            phi = _mp_profile(expr)
            for i, t in enumerate(lags):
                for m in range(7):
                    ref = mp.diff(phi, mp.mpf(t), m)
                    err = float(abs(values[m, i] - ref))
                    assert err <= 1e-14 * scale[m, i], (t, m)
                    if all(m <= 2 * nu for nu in nus):
                        assert err <= 1e-12 * float(abs(ref)), (t, m)

    @pytest.mark.parametrize("text", LAG_DERIVATIVE_CASES)
    def test_origin(self, text):
        # an even derivative that exists at the origin is the limit of its
        # values at lags approaching it; the odd ones vanish there
        expr = parse_kernel(text)
        ell = V._min_lengthscale(expr)
        values, _scale, exists = V._lag_derivatives(expr, np.array([0.0, ell * 1e-9]), 6)
        for m in range(7):
            if not exists[m]:
                assert math.isnan(values[m, 0])
            elif m % 2:
                assert values[m, 0] == 0.0
            else:
                assert values[m, 0] == pytest.approx(values[m, 1], rel=1e-3, abs=1e-12)

    def test_existence_rules(self):
        def exists(text):
            return V._lag_derivatives(parse_kernel(text), np.array([0.0]), 6)[2].tolist()

        assert exists("matern(nu=1.5)") == [True] * 3 + [False] * 4
        assert exists("matern(nu=3)") == [True] * 6 + [False]
        # Wendland (1,1) is 1 - 6r^2 + 8r^3 - 3r^4: the r^3 term breaks order 3
        assert exists("wendland(d=1,n=1)") == [True] * 3 + [False] * 4
        assert exists("se() * periodic()") == [True] * 7
        assert exists("se() + matern(nu=0.5)") == [True] + [False] * 6

    def test_radial_derivative_matches_helper(self):
        expr = parse_kernel("matern(nu=2.5,lengthscale=0.4) * rq(a=2)")
        values, _s, _e = V._lag_derivatives(expr, np.array([0.0, 0.3]), 4)
        for order in range(5):
            assert radial_derivative(expr, order, 0.3) == values[order, 1]
            assert radial_derivative(expr, order, 0.0) == values[order, 0]


def _scalar_quotients(expr, n, cfg):
    # the per-lag scalar loop the batched lattice replaced: one eval_radial
    # (eval_stationary for 1-D) call per lattice entry
    from pathreg.kernels import Isotropic, classify, eval_radial, eval_stationary

    if isinstance(classify(expr), Isotropic):
        profile = lambda t: float(eval_radial(expr, t))  # noqa: E731
    else:
        profile = lambda t: float(eval_stationary(expr, np.array([t])))  # noqa: E731
    ell = V._min_lengthscale(expr)
    w = V._binom_weights(n)
    seq = []
    for j in range(cfg.window[0], cfg.window[0] + 9):
        s = 2.0**-j
        acc = 0.0
        kmax = 0.0
        for a in range(n + 1):
            for b in range(n + 1):
                val = profile(abs(a - b) * (ell * s))
                kmax = max(kmax, abs(val))
                acc += w[a] * w[b] * val
        noise = (float(np.sum(np.abs(w))) ** 2) * V._EPS * max(1.0, kmax)
        seq.append((acc / s ** (2 * n), noise / s ** (2 * n)))
    return seq


class TestBatchedQuotients:
    @pytest.mark.parametrize(
        "text",
        [
            "matern(nu=2.5)",
            "matern(nu=3,lengthscale=0.1)",
            "matern(nu=1.5,lengthscale=10,dim=2)",
            "wendland(d=1,n=2,lengthscale=0.1)",
            "rq(a=1,lengthscale=10)",
            "periodic(lengthscale=0.1)",
            "periodic() * se()",
            "matern(nu=0.5) + 2*wendland(d=1,n=1)",
        ],
    )
    def test_lattice_matches_scalar_loop(self, text):
        expr = parse_kernel(text)
        for n in range(1, 4):
            assert V._quotient_sequences(expr, n, CFG) == [_scalar_quotients(expr, n, CFG)], n


class TestBeyondProbeRange:
    def test_narrow_window_gives_explicit_fail(self):
        narrow = VerifyConfig(window=(4, 6))
        report = verify_regularity(parse_kernel("matern(nu=1.5)"), cfg=narrow)
        assert report.verdict == "fail"
        assert report.exponent_fit is None
        assert report.note.startswith("beyond probe range: only 3 usable scales at order 1")
        payload = verify_to_dict(report)
        assert payload["note"] == report.note
        assert payload["detected"]["slope"] is None
        assert "total" not in payload["detected"]

    def test_note_absent_by_default(self):
        assert "note" not in verify_to_dict(verify_regularity(parse_kernel("matern(nu=1.5)")))

    def test_missing_origin_derivative(self):
        # order 1 needs the second lag derivative at the origin, which
        # e^-r lacks
        with pytest.raises(V.BeyondProbeRange):
            estimate_diagonal_exponent(parse_kernel("matern(nu=0.5)"), 1)
