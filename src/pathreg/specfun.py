"""Special functions backing the kernel catalogue.

Provides the modified Bessel function of the second kind K_nu, evaluated
at the half-integer orders n + 1/2 (n <= 20) by their elementary closed
form and at every other order by one trapezoidal rule on its integral
representation, the Matern radial profile built on it, a gamma function
that rejects poles, and exact-rational Wendland radial polynomials
constructed by repeated integration.

All functions accept floats; ``bessel_k`` and ``matern_radial`` also accept
numpy arrays for the argument and evaluate elementwise, with array and
scalar results bitwise equal.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ._base import LazyModule, record

__all__ = [
    "gamma",
    "bessel_k",
    "matern_radial",
    "PiecewisePolynomial",
    "wendland_polynomial",
]

# K_nu(rho) = e^{-rho} int_0^inf e^{-rho (cosh t - 1)} cosh(nu t) dt by the
# trapezoidal rule (Trefethen & Weideman 2014, SIAM Rev. 56:385).  The
# integrand is positive and even in t, so the rule on [0, T] with a halved
# t = 0 node is the full-line rule: no cancellation, geometric convergence.
# The log-integrand peaks near t* = asinh(nu/rho) with curvature about
# hypot(rho, nu); the nodes stop where a Gaussian of that curvature has
# fallen by e^{-_K_TAIL}.  Beyond the peak the integrand decays
# double-exponentially (its logarithm drops by at least
# kappa (e^s - 1 - s) a distance s past the peak), so the curvature is
# floored at _K_KAPPA_MIN: that bounds the cut-off as nu and rho both go to
# zero (K_0 at small rho), where the nodes then reach sqrt(800) ~ 28 past
# the peak and that drop exceeds _K_TAIL for any kappa above 1e-10, and
# never binds for nu >= _K_KAPPA_MIN.  Step and
# cut-off depend only on (nu, rho_i), so an element's value does not depend
# on the array it arrives in, and an array can be evaluated once per
# distinct argument.
_K_NODES = 128
_K_TAIL = 40.0
_K_KAPPA_MIN = 0.1
_K_CHUNK = 64  # arguments per (chunk, node) temporary
_K_HALF_MAX = 20  # orders n + 1/2 up to this n take the closed form
_MATERN_SMALL = 1e-10  # below this rho the Matern profile is its expansion


# numpy is imported on first use, so ``gamma`` and the Wendland
# polynomials need none
np = LazyModule(globals(), "np", "numpy")


def gamma(x: float) -> float:
    """Gamma function (``math.gamma``).

    Raises ``ValueError`` for non-finite arguments and at poles
    (non-positive integers).
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"gamma: non-finite argument {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma: pole at non-positive integer {x!r}")
    return math.gamma(x)


def _validate_bessel_args(nu: float, rho: np.ndarray) -> None:
    if not math.isfinite(nu) or nu < 0.0:
        raise ValueError(f"bessel_k: order must be a non-negative finite real, got {nu!r}")
    if rho.size and (not np.all(np.isfinite(rho)) or np.any(rho <= 0.0)):
        raise ValueError("bessel_k: argument must be positive and finite")


def bessel_k(nu: float, rho):
    """Modified Bessel function of the second kind, K_nu(rho).

    nu must be non-negative; rho positive (scalar or ndarray).  The
    half-integer orders nu = n + 1/2, n <= 20, take the closed form
    (DLMF 10.49.12)

        K_(n+1/2)(rho) = sqrt(pi / (2 rho)) e^(-rho)
                         sum_(k<=n) (n+k)! / (k! (n-k)!) (2 rho)^(-k),

    elementwise, within 1e-14 relative for rho in [1e-6, 700]; it follows
    e^(-rho), so it is subnormal from rho ~ 705 and zero from rho ~ 742.
    Every other order takes the trapezoidal rule, whose relative error is
    at or below 1e-13 for nu in [0, 20] and rho in [1e-6, 700] (near 1e-14
    for nu <= 12), and which is subnormal from rho ~ 705 and zero from
    rho ~ 738.5; an array is evaluated there once per distinct argument
    and the values are gathered back.  A value depends on (nu, rho) alone,
    so array and scalar results are bitwise equal.
    """
    nu = float(nu)
    arr = np.asarray(rho, dtype=float)
    _validate_bessel_args(nu, arr)
    n = nu - 0.5
    if n == int(n) and 0 <= n <= _K_HALF_MAX:
        out = _bessel_k_half(int(n), arr.ravel())
    else:
        out = _bessel_k_rule(nu, arr.ravel())
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


@lru_cache(maxsize=_K_HALF_MAX + 1)
def _half_coefficients(n: int) -> tuple[float, ...]:
    # (n+k)! / (k! (n-k)!) for k = n down to 0, from the exact integers;
    # term k + 1 is term k times (n+k+1)(n-k) / (k+1), an exact division
    terms = [1]
    for k in range(n):
        terms.append(terms[-1] * (n + k + 1) * (n - k) // (k + 1))
    return tuple(float(c) for c in reversed(terms))


def _bessel_k_half(n: int, rho: np.ndarray) -> np.ndarray:
    """K_(n+1/2) at the 1-D array rho by its closed form, Horner's rule in
    x = 1/(2 rho); every term is positive, so nothing cancels."""
    x = 0.5 / rho
    coeffs = _half_coefficients(n)
    s = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        s *= x
        s += c
    return np.sqrt(np.pi * x) * s * np.exp(-rho)


def _bessel_k_rule(nu: float, rho: np.ndarray) -> np.ndarray:
    """K_nu at the 1-D array rho by the trapezoidal rule, once per distinct
    argument."""
    distinct, inverse = np.unique(rho, return_inverse=True)
    out = np.empty_like(distinct)
    k = np.arange(_K_NODES)
    for lo in range(0, distinct.size, _K_CHUNK):
        r = distinct[lo:lo + _K_CHUNK, None]
        kappa = np.maximum(np.hypot(r, nu), _K_KAPPA_MIN)
        step = (np.arcsinh(nu / r) + np.sqrt(2.0 * _K_TAIL / kappa)) / (_K_NODES - 1)
        t = step * k
        a = -2.0 * r * np.sinh(0.5 * t) ** 2  # -rho (cosh t - 1)
        f = np.exp(a + nu * t) + np.exp(a - nu * t)  # 2 cosh(nu t) e^a
        f[:, 0] *= 0.5
        out[lo:lo + _K_CHUNK] = 0.5 * step[:, 0] * np.exp(-r[:, 0]) * f.sum(axis=1)
    return out[inverse]


def matern_radial(nu: float, r):
    """Matern radial profile 2^{1-nu}/Gamma(nu) (sqrt(2 nu) r)^nu K_nu(sqrt(2 nu) r).

    Normalised to 1 at r = 0 (the limit value, returned exactly).  r may be
    a scalar or ndarray of non-negative values.  Below rho = sqrt(2 nu) r =
    _MATERN_SMALL the profile is its expansion at the origin,
    1 - Gamma(1-nu)/Gamma(1+nu) rho^(2 nu) 2^(-2 nu) + rho^2 / (4 (1-nu))
    for nu < 1 and 1 for nu >= 1, whose dropped terms are below rounding
    there; the product form keeps rho^(2 nu) from underflowing with rho / 2
    at subnormal rho.
    """
    nu = float(nu)
    if not math.isfinite(nu) or nu <= 0.0:
        raise ValueError(f"matern_radial: order must be positive, got {nu!r}")
    arr = np.asarray(r, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0.0)):
        raise ValueError("matern_radial: distance must be finite and >= 0")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).copy()
    rho = math.sqrt(2.0 * nu) * arr
    out = np.ones_like(rho)
    big = rho >= _MATERN_SMALL
    if np.any(big):
        pref = 2.0 ** (1.0 - nu) / gamma(nu)
        out[big] = pref * rho[big] ** nu * bessel_k(nu, rho[big])
    small = (rho > 0.0) & ~big
    if nu < 1.0 and np.any(small):
        s = rho[small]
        c = gamma(1.0 - nu) / gamma(1.0 + nu) * 2.0 ** (-2.0 * nu)
        out[small] = 1.0 - c * s ** (2.0 * nu) + s * s / (4.0 * (1.0 - nu))
    return float(out[0]) if scalar else out.reshape(np.shape(r))


@record
class PiecewisePolynomial:
    """Polynomial on [0, 1] with exact rational coefficients, zero beyond 1.

    ``coeffs[i]`` multiplies rho**i.  Evaluation converts to float via
    Horner's rule; the rational coefficients themselves are never rounded.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d] == 0:
            d -= 1
        return d

    def derivative(self) -> "PiecewisePolynomial":
        if len(self.coeffs) <= 1:
            return PiecewisePolynomial((Fraction(0),))
        return PiecewisePolynomial(
            tuple(i * c for i, c in enumerate(self.coeffs) if i > 0)
        )

    def __call__(self, rho):
        arr = np.asarray(rho, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        acc = np.zeros_like(arr)
        for c in reversed([float(c) for c in self.coeffs]):
            acc = acc * arr + c
        acc = np.where(arr < 1.0, acc, 0.0)
        # the polynomial vanishes at 1 for the constructed radial profiles,
        # so using the zero branch from 1 onward keeps continuity
        return float(acc[0]) if scalar else acc.reshape(np.shape(rho))


def _integrate_radial(coeffs: list[Fraction]) -> list[Fraction]:
    # q(rho) = int_rho^1 t p(t) dt, normalised so q(0) = 1
    q0 = sum(c / Fraction(i + 2) for i, c in enumerate(coeffs))
    if q0 == 0:
        raise ValueError("radial integration produced a zero normaliser")
    out = [Fraction(0)] * (len(coeffs) + 2)
    out[0] = q0
    for i, c in enumerate(coeffs):
        out[i + 2] -= c / Fraction(i + 2)
    return [c / q0 for c in out]


def wendland_polynomial(d: int, n: int) -> PiecewisePolynomial:
    """Wendland radial polynomial for ambient dimension d and degree index n.

    Applies the normalised radial integration operator n times to the
    truncated power (1 - rho)^(floor(d/2) + n + 1), entirely in exact
    rational arithmetic.  The result has value 1 at 0, value 0 at 1, and
    degree floor(d/2) + 3n + 1.
    """
    if d != int(d) or d < 1:
        raise ValueError(f"wendland_polynomial: d must be a positive integer, got {d!r}")
    if n != int(n) or n < 0:
        raise ValueError(f"wendland_polynomial: n must be a non-negative integer, got {n!r}")
    d, n = int(d), int(n)
    j = d // 2 + n + 1
    coeffs = [Fraction(math.comb(j, i)) * (-1) ** i for i in range(j + 1)]
    for _ in range(n):
        coeffs = _integrate_radial(coeffs)
    poly = PiecewisePolynomial(tuple(coeffs))
    assert poly.degree == d // 2 + 3 * n + 1
    return poly
