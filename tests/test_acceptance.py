"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion.  Every tolerance and budget is pinned here; the suite draws its
own samples inside the timed block so the timings are honest.
"""

import math
import random
import time

import numpy as np
import pytest

from pathreg.dsl import parse_kernel
from pathreg.kernels import Conic, Matern, Product, TensorProduct, Wendland, Wiener, pairwise
from pathreg.regularity import infer_regularity
from pathreg.sampling import Axis, Grid, build_gram, sample_derivative_paths, sample_paths
from pathreg.specfun import bessel_k, gamma, wendland_polynomial
from pathreg.structure import axiswise_regularity, estimate_path_regularity
from pathreg.verify import verify_regularity

from test_specfun import sympy_wendland


def _report(name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {name}: {verdict} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, detail
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
def test_criterion_1_matern_order_table(nu):
    start = time.perf_counter()
    report = verify_regularity(parse_kernel(f"matern(nu={nu})"))
    elapsed = time.perf_counter() - start
    ok = report.verdict == "pass" and abs(report.detected_total - nu) <= 0.15
    _report(
        f"1 (matern nu={nu})",
        ok,
        f"detected {report.detected_total:.3f} vs {nu}",
        elapsed,
        5.0,
    )


@pytest.mark.parametrize("nu", [1, 2])
def test_criterion_2_matern_integer_edge(nu):
    start = time.perf_counter()
    report = verify_regularity(parse_kernel(f"matern(nu={nu})"))
    elapsed = time.perf_counter() - start
    ok = report.verdict == "log-flagged" and abs(report.detected_total - nu) <= 0.25
    _report(
        f"2 (matern nu={nu})",
        ok,
        f"log-flagged, detected {report.detected_total:.3f} vs {nu}",
        elapsed,
        5.0,
    )


@pytest.mark.parametrize("d,n", [(1, 0), (1, 1), (3, 1)])
def test_criterion_3_wendland(d, n):
    start = time.perf_counter()
    poly = wendland_polynomial(d, n)
    coeffs_ok = list(poly.coeffs) == sympy_wendland(d, n)
    odd = [i for i in range(1, poly.degree + 1, 2) if poly.coeffs[i] != 0]
    odd_ok = odd[0] == 2 * n + 1
    report = verify_regularity(parse_kernel(f"wendland(d={d},n={n})"))
    order_ok = report.verdict == "pass" and abs(report.detected_total - (n + 0.5)) <= 0.15
    elapsed = time.perf_counter() - start
    _report(
        f"3 (wendland d={d},n={n})",
        coeffs_ok and odd_ok and order_ok,
        f"coeffs exact={coeffs_ok}, first odd degree {odd[0]}, "
        f"detected {report.detected_total:.3f} vs {n + 0.5}",
        elapsed,
        5.0,
    )


def test_criterion_4_wiener():
    start = time.perf_counter()
    expr = parse_kernel("wiener()")
    probe_rng = np.random.default_rng(4)
    diff_ok = True
    for _ in range(20):
        x = float(probe_rng.uniform(0.1, 2.0))
        h = float(probe_rng.uniform(0.01, 0.5))
        # the four corners k(x+h,x+h) - k(x+h,x) - k(x,x+h) + k(x,x)
        (k_hh, k_h0), (k_0h, k_00) = pairwise(expr, [[x + h], [x]], [[x + h], [x]]).tolist()
        if abs(k_hh - k_h0 - k_0h + k_00 - h) > 1e-12:
            diff_ok = False
    grid = Grid((Axis(0.25, 1.25, 4097),))
    samples = sample_paths(expr, grid, 200, 42)
    result = estimate_path_regularity(samples)
    est_ok = result.s_hat is not None and abs(result.s_hat - 0.5) <= 0.1
    elapsed = time.perf_counter() - start
    _report(
        "4 (wiener)",
        diff_ok and est_ok,
        f"second differences exact={diff_ok}, s_hat={result.s_hat:.3f}",
        elapsed,
        20.0,
    )


def test_criterion_5_fig1_reproduction():
    start = time.perf_counter()
    expr = parse_kernel("tensor(wendland(d=1,n=0), wendland(d=1,n=1))")
    grid = Grid((Axis(0.0, 1.0, 128), Axis(0.0, 1.0, 128)))
    samples = sample_paths(expr, grid, 100, 42)
    first, second = axiswise_regularity(samples)
    ok = (
        first.s_hat is not None
        and abs(first.s_hat - 0.5) <= 0.12
        and second.s_hat is not None
        and abs(second.s_hat - 1.5) <= 0.2
    )
    elapsed = time.perf_counter() - start
    _report(
        "5 (tensor figure)",
        ok,
        f"axis estimates ({first.s_hat:.3f}, {second.s_hat:.3f}) vs (0.5, 1.5)",
        elapsed,
        120.0,
    )


def test_criterion_6_smooth_kernels():
    start = time.perf_counter()
    details = []
    ok = True
    for text in ["se()", "rq(a=1)", "periodic()"]:
        expr = parse_kernel(text)
        symbolic = infer_regularity(expr)
        report = verify_regularity(expr)
        good = (
            symbolic.order == math.inf
            and report.verdict == "pass"
            and report.smooth_to_order == 3
        )
        ok = ok and good
        details.append(f"{text}:order inf,probed {report.detected_order_n}")
    elapsed = time.perf_counter() - start
    _report("6 (smooth kernels)", ok, "; ".join(details), elapsed, 10.0)


def test_criterion_7_derivative_law():
    start = time.perf_counter()
    expr = parse_kernel("matern(nu=1.5)")
    grid = Grid((Axis(0.25, 1.25, 2049),))
    samples = sample_derivative_paths(expr, 1, grid, 200, 42)
    result = estimate_path_regularity(samples)
    ok = result.s_hat is not None and abs(result.s_hat - 0.5) <= 0.12
    elapsed = time.perf_counter() - start
    _report(
        "7 (derivative law)",
        ok,
        f"derivative-path s_hat={result.s_hat:.3f} vs 0.5",
        elapsed,
        60.0,
    )


def _random_tree(rng: random.Random, depth: int):
    leaves = [
        lambda: Matern(nu=rng.choice([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])),
        lambda: Wendland(1, rng.choice([0, 1, 2])),
        lambda: Wiener(),
        lambda: parse_kernel(rng.choice(["se()", "rq(a=1)", "periodic()", "linear()", "poly(m=2)"])),
    ]
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(leaves)()
    kind = rng.choice(["conic", "product"])
    children = tuple(_random_tree(rng, depth - 1) for _ in range(rng.choice([2, 3])))
    if kind == "conic":
        weights = tuple(rng.choice([0.5, 1.0, 2.0, 3.0]) for _ in children)
        return Conic(children, weights)
    return Product(children)


def test_criterion_8_kernel_algebra():
    start = time.perf_counter()
    rng = random.Random(8)
    checked = 0
    ok = True
    for _ in range(50):
        a = _random_tree(rng, 2)
        b = _random_tree(rng, 2)
        ra = infer_regularity(a)
        rb = infer_regularity(b)
        expected = min(ra.order, rb.order)
        conic = infer_regularity(Conic((a, b), (1.0, 2.0)))
        product = infer_regularity(Product((a, b)))
        tensor = infer_regularity(TensorProduct((a, b)))
        scaled = infer_regularity(Conic((a,), (rng.choice([0.5, 2.0, 7.0]),)))
        ok = ok and conic.order == expected  # exact Fraction comparison
        ok = ok and product.order == expected
        ok = ok and tensor.per_axis == ra.per_axis + rb.per_axis
        ok = ok and scaled.order == ra.order
        ok = ok and scaled.sobolev_order == ra.sobolev_order
        checked += 1
    elapsed = time.perf_counter() - start
    _report("8 (kernel algebra)", ok and checked == 50, f"{checked} random trees", elapsed, 5.0)


def test_criterion_9_special_functions():
    start = time.perf_counter()
    half_ok = True
    for rho in np.geomspace(1e-4, 20.0, 100):
        expected = math.sqrt(math.pi / (2 * rho)) * math.exp(-rho)
        if abs(bessel_k(0.5, rho) - expected) > 1e-9 * expected:
            half_ok = False
    rec_ok = True
    for nu in [0.5, 1.5, 2.5, 3.5]:
        for rho in [0.1, 1.0, 5.0, 10.0]:
            lhs = bessel_k(nu + 1.0, rho)
            rhs = bessel_k(abs(nu - 1.0), rho) + (2 * nu / rho) * bessel_k(nu, rho)
            if abs(lhs - rhs) > 1e-8 * abs(rhs):
                rec_ok = False
    gamma_ok = abs(gamma(0.5) - math.sqrt(math.pi)) <= 1e-12 * math.sqrt(math.pi)
    elapsed = time.perf_counter() - start
    _report(
        "9 (special functions)",
        half_ok and rec_ok and gamma_ok,
        f"K_half={half_ok}, recurrence={rec_ok}, gamma_half={gamma_ok}",
        elapsed,
        1.0,
    )


def test_criterion_10_sampler_statistics():
    start = time.perf_counter()
    expr = parse_kernel("se()")
    grid = Grid((Axis(0.0, 1.0, 257),))
    a = sample_paths(expr, grid, 2000, 42)
    b = sample_paths(expr, grid, 2000, 42)
    bitwise = np.array_equal(a.samples, b.samples)
    emp = a.samples.T @ a.samples / a.count
    gram = build_gram(expr, grid)
    max_err = float(np.max(np.abs(emp - gram)))
    elapsed = time.perf_counter() - start
    _report(
        "10 (sampler statistics)",
        bitwise and max_err <= 0.1,
        f"bitwise={bitwise}, max covariance error {max_err:.4f}",
        elapsed,
        30.0,
    )
