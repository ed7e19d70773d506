"""Special-function accuracy against independent oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

from pathreg import specfun
from pathreg.dsl import parse_kernel
from pathreg.kernels import Matern, eval_radial, pairwise
from pathreg.sampling import Axis, Grid

mpmath.mp.dps = 50


def mp_besselk(nu, rho) -> float:
    return float(mpmath.besselk(mpmath.mpf(nu), mpmath.mpf(rho)))


class TestGamma:
    def test_half_is_sqrt_pi(self):
        assert abs(specfun.gamma(0.5) - math.sqrt(math.pi)) <= 1e-12 * math.sqrt(math.pi)

    def test_against_stdlib(self):
        for x in [0.1, 0.37, 1.0, 1.5, 2.5, 4.2, 9.9, 21.0]:
            assert specfun.gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    def test_reflection_negative(self):
        for x in [-0.5, -1.3, -3.7]:
            assert specfun.gamma(x) == pytest.approx(math.gamma(x), rel=1e-11)

    def test_poles_raise(self):
        for x in [0.0, -1.0, -2.0]:
            with pytest.raises(ValueError):
                specfun.gamma(x)


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(rho) = sqrt(pi / (2 rho)) e^{-rho}
        for rho in np.geomspace(1e-4, 20, 100):
            expected = math.sqrt(math.pi / (2 * rho)) * math.exp(-rho)
            assert specfun.bessel_k(0.5, rho) == pytest.approx(expected, rel=1e-9)

    def test_value_examples(self):
        assert specfun.bessel_k(0.5, 1.0) == pytest.approx(0.4610685, abs=1e-7)
        assert specfun.bessel_k(1.0, 1.0) == pytest.approx(0.6019072, abs=1e-6)

    def test_recurrence_from_half(self):
        # K_{3/2}(rho) = K_{1/2}(rho) (1 + 1/rho) via the three-term recurrence
        for rho in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]:
            lhs = specfun.bessel_k(1.5, rho)
            rhs = specfun.bessel_k(0.5, rho) + (1.0 / rho) * specfun.bessel_k(0.5, rho)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
    def test_three_term_recurrence(self, nu):
        # K_{nu+1} = K_{nu-1} + (2 nu / rho) K_nu, with K_{-a} = K_a
        for rho in [0.1, 0.3, 1.0, 3.0, 10.0]:
            low = abs(nu - 1.0)
            km = specfun.bessel_k(low, rho) if low > 0 else _k0(rho)
            kc = specfun.bessel_k(nu, rho)
            kp = specfun.bessel_k(nu + 1.0, rho)
            assert kp == pytest.approx(km + (2 * nu / rho) * kc, rel=1e-8)

    def test_against_high_precision_oracle(self):
        worst = 0.0
        for nu in [0.3, 0.7, 1.0, 1.5, 2.0, 2.5, 3.3, 4.5, 6.0]:
            for rho in [1e-6, 1e-3, 0.1, 1.0, 3.0, 5.0, 7.0, 12.0, 20.0, 25.0, 28.0, 30.0]:
                mine = specfun.bessel_k(nu, rho)
                ref = mp_besselk(nu, rho)
                worst = max(worst, abs(mine - ref) / abs(ref))
        assert worst <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_branch_agreement_near_integers(self, n):
        for rho in [0.5, 1.0, 2.0, 5.0]:
            center = specfun.bessel_k(float(n), rho)
            for eps in (-1e-6, 1e-6):
                near = specfun.bessel_k(n + eps, rho)
                assert abs(near - center) <= 1e-4 * abs(center)

    def test_vectorised_matches_scalar(self):
        rho = np.array([0.01, 0.5, 2.0, 8.0, 26.0])
        vec = specfun.bessel_k(1.5, rho)
        for r, v in zip(rho, vec):
            assert v == specfun.bessel_k(1.5, float(r))

    # a mixed small/large argument array is what a Gram lag table feeds in;
    # a convergence test over the whole array stops large arguments early
    @pytest.mark.parametrize("nu", [0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.5])
    def test_mixed_array_matches_scalar_elementwise(self, nu):
        rho = np.geomspace(1e-6, 80.0, 400)
        for f in (specfun.bessel_k, specfun.matern_radial):
            scalar = np.array([f(nu, float(r)) for r in rho])
            np.testing.assert_allclose(f(nu, rho), scalar, rtol=1e-12, atol=0.0)

    # an array is evaluated once per distinct argument; every value must
    # still be bitwise the scalar call's, in any order
    @pytest.mark.parametrize(
        "f,low,nus",
        [
            (specfun.bessel_k, 1e-6, (0.0, 0.3, 1.5, 2.5)),
            (specfun.matern_radial, 0.0, (0.3, 1.5, 2.5)),
        ],
    )
    def test_repeated_arguments_match_scalar_bitwise(self, f, low, nus):
        # the distinct arguments fit one chunk, the array does not
        distinct = np.r_[low, 1e-12, np.geomspace(1e-6, 80.0, 48)]
        rho = np.random.default_rng(11).permutation(np.repeat(distinct, 4)).reshape(8, 25)
        assert rho.size > specfun._K_CHUNK > len(np.unique(rho))
        for nu in nus:
            scalar = np.array([f(nu, r) for r in rho.ravel().tolist()]).reshape(rho.shape)
            assert f(nu, rho).tobytes() == scalar.tobytes()

    # each argument's nodes are summed on their own, so no value depends on
    # how many arguments share a chunk
    @pytest.mark.parametrize("f", [specfun.bessel_k, specfun.matern_radial])
    def test_values_do_not_depend_on_the_chunk(self, f, monkeypatch):
        rho = np.r_[np.geomspace(1e-6, 700.0, 300), np.linspace(0.01, 40.0, 211)]
        results = []
        for chunk in (1, 7, 64, 512):
            monkeypatch.setattr(specfun, "_K_CHUNK", chunk)
            results.append(b"".join(f(nu, rho).tobytes() for nu in (0.3, 0.5, 2.0, 2.5)))
        assert all(r == results[0] for r in results[1:])

    # the whole argument range at once, including large orders at large
    # arguments, where the terms of the large-argument expansion grow before
    # they shrink (4 nu^2 > (2k - 1)^2) and a stop at the first growing term
    # is off by a relative 0.74 at bessel_k(12, 26)
    @pytest.mark.parametrize(
        "nu,rtol",
        [(nu, 1e-13) for nu in (0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.5, 4.5)]
        + [(nu, 1e-12) for nu in (8.3, 12.0, 20.0)],
    )
    def test_matches_oracle_over_full_range(self, nu, rtol):
        rho = np.geomspace(1e-6, 700.0, 300)
        with mpmath.workdps(20):  # mpmath guards its own cancellation
            ref = np.array([mp_besselk(nu, r) for r in rho])
        np.testing.assert_allclose(specfun.bessel_k(nu, rho), ref, rtol=rtol, atol=0.0)

    # order 0: the integrand is flat out to t ~ log(1/rho) and then falls
    # double-exponentially, so the Gaussian cut-off sqrt(80 / rho) would
    # spread the nodes over thousands of units at small rho
    @pytest.mark.parametrize("nu", [0.0, 0.05])
    def test_small_orders(self, nu):
        rho = np.array([1e-6, 1e-3, 1e-2, 1.0, 30.0, 700.0])
        with mpmath.workdps(20):
            ref = np.array([mp_besselk(nu, r) for r in rho])
        np.testing.assert_allclose(specfun.bessel_k(nu, rho), ref, rtol=1e-13, atol=0.0)

    def test_cutoff_floor_inactive_from_order_0_1(self):
        # the curvature floor never binds for nu >= 0.1, so the values of
        # the orders the rule serves are those of the unfloored rule bitwise
        rho = np.geomspace(1e-6, 700.0, 50)
        for nu in (0.1, 0.7, 2.3):
            r = rho[:, None]
            k = np.arange(specfun._K_NODES)
            step = (np.arcsinh(nu / r) + np.sqrt(2.0 * specfun._K_TAIL / np.hypot(r, nu))) / (
                specfun._K_NODES - 1
            )
            t = step * k
            a = -2.0 * r * np.sinh(0.5 * t) ** 2
            f = np.exp(a + nu * t) + np.exp(a - nu * t)
            f[:, 0] *= 0.5
            unfloored = 0.5 * step[:, 0] * np.exp(-rho) * f.sum(axis=1)
            assert specfun.bessel_k(nu, rho).tobytes() == unfloored.tobytes()

    # the half-integer orders n + 1/2, n <= 20, take the closed form
    # sqrt(pi / (2 rho)) e^-rho sum_k (n+k)! / (k! (n-k)!) (2 rho)^-k
    @pytest.mark.parametrize("n", range(21))
    def test_half_integer_orders_match_oracle(self, n):
        rho = np.geomspace(1e-6, 700.0, 120)
        with mpmath.workdps(30):
            ref = np.array([mp_besselk(n + 0.5, r) for r in rho])
        np.testing.assert_allclose(specfun.bessel_k(n + 0.5, rho), ref, rtol=1e-14, atol=0.0)

    def test_half_integer_orders_satisfy_the_recurrence(self):
        # K_(nu+1) = K_(nu-1) + (2 nu / rho) K_nu, K_(-1/2) = K_(1/2): every
        # term is positive, so the sum is as accurate as its terms
        rho = np.geomspace(1e-6, 700.0, 200)
        k = {n: specfun.bessel_k(n + 0.5, rho) for n in range(21)}
        k[-1] = k[0]
        for n in range(20):
            np.testing.assert_allclose(
                k[n + 1], k[n - 1] + (2 * n + 1) / rho * k[n], rtol=1e-14, atol=0.0
            )

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 20])
    def test_half_integer_scalar_matches_array_bitwise(self, n):
        rho = np.r_[1e-6, np.geomspace(1e-3, 80.0, 37), 700.0, 720.0, 746.0]
        scalar = np.array([specfun.bessel_k(n + 0.5, r) for r in rho.tolist()])
        assert specfun.bessel_k(n + 0.5, rho).tobytes() == scalar.tobytes()
        assert specfun.bessel_k(n + 0.5, rho[::-1]).tobytes() == scalar[::-1].tobytes()

    def test_half_integer_underflow_follows_exp(self):
        # the closed form is subnormal from rho ~ 705 and 0 from ~ 742
        for n in (0, 2, 20):
            assert 0.0 < specfun.bessel_k(n + 0.5, 720.0) < 1e-308
            assert specfun.bessel_k(n + 0.5, 750.0) == 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            specfun.bessel_k(-1.0, 1.0)
        with pytest.raises(ValueError):
            specfun.bessel_k(-1e-300, 1.0)
        with pytest.raises(ValueError):
            specfun.bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            specfun.bessel_k(1.0, -2.0)


class TestMaternRadial:
    def test_rejects_non_positive_order(self):
        # bessel_k accepts order 0, the Matern profile does not
        for nu in (0.0, -0.5):
            with pytest.raises(ValueError):
                specfun.matern_radial(nu, 1.0)

    def test_value_at_zero_exact(self):
        for nu in [0.5, 1.0, 1.7, 2.5]:
            assert specfun.matern_radial(nu, 0.0) == 1.0

    def test_half_integer_closed_forms(self):
        r = np.linspace(0.01, 3.0, 40)
        half = np.exp(-r)
        three_half = (1 + math.sqrt(3) * r) * np.exp(-math.sqrt(3) * r)
        five_half = (1 + math.sqrt(5) * r + 5.0 * r**2 / 3.0) * np.exp(-math.sqrt(5) * r)
        assert np.allclose(specfun.matern_radial(0.5, r), half, rtol=1e-9)
        assert np.allclose(specfun.matern_radial(1.5, r), three_half, rtol=1e-9)
        assert np.allclose(specfun.matern_radial(2.5, r), five_half, rtol=1e-9)

    def test_frozen_examples(self):
        assert specfun.matern_radial(0.5, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-9)
        # (1 + sqrt(3)) e^{-sqrt(3)}; the closed form and the series agree
        assert specfun.matern_radial(1.5, 1.0) == pytest.approx(0.4833577245965, abs=1e-9)
        expected = (1 + math.sqrt(5) * 0.7 + 5 / 3 * 0.49) * math.exp(-math.sqrt(5) * 0.7)
        assert specfun.matern_radial(2.5, 0.7) == pytest.approx(expected, rel=1e-9)

    def test_large_order_beyond_former_asymptotic_radius(self):
        nu = 12.0
        r = np.geomspace(25.5 / math.sqrt(2 * nu), 140.0, 60)
        with mpmath.workdps(20):
            ref = [
                2 ** (1 - mpmath.mpf(nu)) / mpmath.gamma(nu) * x**nu * mpmath.besselk(nu, x)
                for x in (mpmath.sqrt(2 * nu) * mpmath.mpf(v) for v in r)
            ]
        np.testing.assert_allclose(
            specfun.matern_radial(nu, r), np.array(ref, dtype=float), rtol=1e-12, atol=0.0
        )

    def test_continuity_near_zero(self):
        for nu in [0.5, 1.0, 2.5]:
            vals = specfun.matern_radial(nu, np.array([1e-9, 1e-7, 1e-5]))
            assert np.all(np.abs(vals - 1.0) < 1e-3)
            assert np.all(np.diff(vals) <= 0)

    def test_small_distances_against_oracle(self):
        # below rho = 1e-10 the profile is its expansion at the origin; it
        # must stay in [0, 1] and within rounding of the exact value, down
        # to subnormal rho and for orders just either side of 1
        nus = [*np.linspace(0.01, 20.0, 25), 0.5, 1.0, 1 - 1e-8, 1 + 1e-8, 1 - 1e-12, 1 + 1e-12]
        rhos = [5e-324, 1e-310, 1e-200, 1e-160, 1e-50, 1e-20, 1e-14, 9.9e-11]
        with mpmath.workdps(80):
            for nu in nus:
                scale = math.sqrt(2.0 * nu)
                for rho in rhos:
                    r = rho / scale
                    got = specfun.matern_radial(nu, r)
                    z = mpmath.mpf(scale * r)  # the rho the profile sees
                    if z == 0:
                        continue
                    m = mpmath.mpf(nu)
                    ref = 2 ** (1 - m) / mpmath.gamma(m) * z**m * mpmath.besselk(m, z)
                    assert 0.0 <= got <= 1.0, (nu, rho, got)
                    assert abs(got - float(ref)) <= 4e-16, (nu, rho, got, float(ref))

    def test_small_distances_through_kernels(self):
        assert pairwise(Matern(nu=0.5), [[1e-160]], [[0.0]])[0, 0] <= 1.0
        assert eval_radial(Matern(nu=2.5), 1e-300) == 1.0
        # far out the radial form still answers (pairwise would square r)
        assert eval_radial(Matern(nu=1.5), 1e160) == 0.0

    def test_desk_field_surface_matches_per_point(self):
        # a report's surface of a Matern tensor: 16384 distances per factor,
        # 128 of them distinct, each value bitwise that of its own point; the
        # reference checks one row, one column and 256 random points
        grid = Grid((Axis(0.0, 1.0, 128), Axis(0.0, 1.0, 128)))
        expr = parse_kernel("tensor(matern(nu=0.5), matern(nu=1.5))")
        points, centre = grid.points(), np.array([[0.5, 0.5]])
        surface = pairwise(expr, points, centre)[:, 0]
        rng = np.random.default_rng(5)
        index = np.r_[np.arange(128) * 128 + 37, 5 * 128 + np.arange(128),
                      rng.choice(points.shape[0], 256, replace=False)]
        per_point = np.array([pairwise(expr, points[i][None, :], centre)[0, 0] for i in index])
        assert surface[index].tobytes() == per_point.tobytes()


def _k0(rho: float) -> float:
    # K_0 sits outside the nu > 0 contract; take it from the oracle
    return float(mpmath.besselk(0, rho))


def sympy_wendland(d: int, n: int) -> list[Fraction]:
    """Independent construction by symbolic integration."""
    t, rho = sympy.symbols("t rho", nonnegative=True)
    j = d // 2 + n + 1
    poly = (1 - t) ** j
    for _ in range(n):
        integrated = sympy.integrate(t * poly, (t, rho, 1))
        poly = (integrated / integrated.subs(rho, 0)).subs(rho, t)
        poly = sympy.expand(poly)
    expanded = sympy.Poly(poly.subs(t, rho), rho)
    coeffs = [Fraction(0)] * (expanded.degree() + 1)
    for (power,), coeff in expanded.terms():
        coeffs[power] = Fraction(int(sympy.numer(coeff)), int(sympy.denom(coeff)))
    return coeffs


class TestWendlandPolynomial:
    @pytest.mark.parametrize("d,n", [(1, 0), (1, 1), (3, 1), (2, 2), (5, 3)])
    def test_matches_symbolic_oracle_exactly(self, d, n):
        poly = specfun.wendland_polynomial(d, n)
        oracle = sympy_wendland(d, n)
        assert list(poly.coeffs) == oracle

    def test_known_coefficients(self):
        assert list(specfun.wendland_polynomial(1, 0).coeffs) == [1, -1]
        assert list(specfun.wendland_polynomial(1, 1).coeffs) == [1, 0, -6, 8, -3]
        assert list(specfun.wendland_polynomial(3, 1).coeffs) == [1, 0, -10, 20, -15, 4]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_structure_sweep(self, d, n):
        poly = specfun.wendland_polynomial(d, n)
        # exact values at 0 and 1: the constant term and the coefficient sum
        assert poly.coeffs[0] == 1
        assert sum(poly.coeffs) == 0
        assert poly.degree == d // 2 + 3 * n + 1
        odd_degrees = [
            i for i in range(1, poly.degree + 1, 2) if poly.coeffs[i] != 0
        ]
        assert odd_degrees[0] == 2 * n + 1

    def test_compact_support_evaluation(self):
        poly = specfun.wendland_polynomial(1, 1)
        assert poly(1.25) == 0.0
        assert poly(0.0) == 1.0
        mid = poly(np.array([0.25, 0.5, 2.0]))
        assert mid[2] == 0.0
        assert 0.0 < mid[1] < mid[0] < 1.0

    def test_derivative_of_stored_polynomial(self):
        poly = specfun.wendland_polynomial(1, 1)
        second = poly.derivative().derivative()
        assert second.coeffs[0] == -12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            specfun.wendland_polynomial(0, 1)
        with pytest.raises(ValueError):
            specfun.wendland_polynomial(1, -1)
