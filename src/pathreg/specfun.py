"""Special functions backing the kernel catalogue.

Provides the modified Bessel function of the second kind K_nu (series form
for non-integer orders, digamma form for integer orders, asymptotic form for
large arguments), the Matern radial profile built on it, digamma at positive
integers, a Lanczos gamma function, and exact-rational Wendland radial
polynomials constructed by repeated integration.

All functions accept floats; ``bessel_k`` and ``matern_radial`` also accept
numpy arrays for the argument and evaluate elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

__all__ = [
    "EULER_GAMMA",
    "gamma",
    "digamma_int",
    "bessel_k",
    "matern_radial",
    "PiecewisePolynomial",
    "wendland_polynomial",
]

EULER_GAMMA = 0.5772156649015328606065120900824024

# Lanczos approximation, g=7, n=9 (Godfrey coefficients); relative error
# below 1e-13 on the positive axis, which clears the 1e-12 contract.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Branch switching for K_nu.  Orders within _INTEGER_EPS of an integer use
# the digamma (integer) formula.  Double-precision series evaluation loses
# roughly 2*rho/ln(10) digits to cancellation, so beyond _DOUBLE_RADIUS the
# series runs in guarded mpmath precision; beyond _ASYMPTOTIC_RADIUS the
# large-argument expansion takes over.  Non-integer orders closer than
# _NEAR_INTEGER to an integer also use guarded precision because the
# 1/sin(pi*nu) reflection amplifies the cancellation.
_INTEGER_EPS = 1e-8
_NEAR_INTEGER = 1e-3
_DOUBLE_RADIUS = 5.0
_ASYMPTOTIC_RADIUS = 25.0
_SERIES_RTOL = 1e-17
_SERIES_MAX_TERMS = 500


def gamma(x: float) -> float:
    """Gamma function via the Lanczos approximation (g=7, 9 terms).

    Handles negative non-integer arguments through the reflection formula.
    Raises ``ValueError`` at poles (non-positive integers).
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"gamma: non-finite argument {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma: pole at non-positive integer {x!r}")
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    x -= 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (x + i)
    t = x + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * acc


def digamma_int(m: int) -> float:
    """Digamma at a positive integer: psi(m) = -gamma_E + sum_{k<m} 1/k."""
    if m != int(m) or m < 1:
        raise ValueError(f"digamma_int: need a positive integer, got {m!r}")
    return -EULER_GAMMA + math.fsum(1.0 / k for k in range(1, int(m)))


def _validate_bessel_args(nu: float, rho: np.ndarray) -> None:
    if not math.isfinite(nu) or nu <= 0.0:
        raise ValueError(f"bessel_k: order must be a positive finite real, got {nu!r}")
    if rho.size and (not np.all(np.isfinite(rho)) or np.any(rho <= 0.0)):
        raise ValueError("bessel_k: argument must be positive and finite")


def _series_noninteger(nu: float, rho: np.ndarray) -> np.ndarray:
    # K_nu = (pi/2) (I_{-nu} - I_nu) / sin(nu pi), both I series summed with
    # running-term recurrences; valid while cancellation stays below the
    # double-precision budget (rho <= _DOUBLE_RADIUS).
    q = (rho / 2.0) ** 2
    tp = (rho / 2.0) ** nu / gamma(1.0 + nu)
    tm = (rho / 2.0) ** (-nu) / gamma(1.0 - nu)
    sp = tp.copy()
    sm = tm.copy()
    active = np.ones(rho.shape, dtype=bool)
    for j in range(1, _SERIES_MAX_TERMS):
        tp = tp * q / (j * (j + nu))
        tm = tm * q / (j * (j - nu))
        sp += np.where(active, tp, 0.0)
        sm += np.where(active, tm, 0.0)
        active &= np.maximum(np.abs(tp), np.abs(tm)) >= _SERIES_RTOL * np.maximum(
            np.abs(sp), np.abs(sm)
        )
        if not active.any():
            break
    return (math.pi / 2.0) * (sm - sp) / math.sin(nu * math.pi)


def _series_integer(n: int, rho: np.ndarray) -> np.ndarray:
    # Digamma form of K_n: finite sum + (-1)^{n+1} log(rho/2) I_n(rho)
    # + (-1)^n (1/2)(rho/2)^n sum_j (psi(j+1)+psi(n+j+1)) q^j / (j!(n+j)!).
    q = (rho / 2.0) ** 2
    half_pow = (rho / 2.0) ** n

    finite = np.zeros_like(rho)
    if n > 0:
        t = float(math.factorial(n - 1))  # j = 0 term
        finite = finite + t
        tj = np.full_like(rho, t)
        for j in range(1, n):
            tj = tj * (-q) / j * (1.0 / (n - j))  # ratio of (n-j-1)!/j! terms
            finite = finite + tj
        finite = 0.5 * finite / half_pow

    t_i = half_pow / math.factorial(n)
    s_i = t_i.copy()
    t_psi = np.full_like(rho, 1.0 / math.factorial(n))
    c_psi = digamma_int(1) + digamma_int(n + 1)
    s_psi = c_psi * t_psi
    active = np.ones(rho.shape, dtype=bool)
    for j in range(1, _SERIES_MAX_TERMS):
        t_i = t_i * q / (j * (j + n))
        s_i += np.where(active, t_i, 0.0)
        t_psi = t_psi * q / (j * (j + n))
        c_psi += 1.0 / j + 1.0 / (n + j)
        s_psi += np.where(active, c_psi * t_psi, 0.0)
        active &= (np.abs(t_i) >= _SERIES_RTOL * np.abs(s_i)) | (
            np.abs(c_psi * t_psi) >= _SERIES_RTOL * np.maximum(np.abs(s_psi), 1e-300)
        )
        if not active.any():
            break

    sign = -1.0 if n % 2 == 0 else 1.0  # (-1)^(n+1)
    return finite + sign * np.log(rho / 2.0) * s_i - sign * 0.5 * half_pow * s_psi


def _asymptotic(nu: float, rho: np.ndarray) -> np.ndarray:
    # K_nu(rho) ~ sqrt(pi/(2 rho)) e^{-rho} sum_k a_k, a_0 = 1,
    # a_k = a_{k-1} (4 nu^2 - (2k-1)^2) / (8 rho k); each element stops at
    # its smallest term, adding it only when it fell below the previous one.
    four_nu2 = 4.0 * nu * nu
    acc = np.ones_like(rho)
    term = np.ones_like(rho)
    prev = np.full_like(rho, np.inf)
    active = np.ones(rho.shape, dtype=bool)
    for k in range(1, 80):
        term = term * (four_nu2 - (2 * k - 1) ** 2) / (8.0 * rho * k)
        size = np.abs(term)
        active &= size < prev
        acc += np.where(active, term, 0.0)
        active &= size >= 1e-18
        if not active.any():
            break
        prev = size
    return np.sqrt(math.pi / (2.0 * rho)) * np.exp(-rho) * acc


def _bessel_mp(nu: float, rho: float) -> float:
    # Same series formulas evaluated in mpmath with enough guard digits to
    # absorb the e^{2 rho} cancellation; used on the mid range and very near
    # integer orders.
    dps = 26 + int(math.ceil(0.87 * rho))
    with mpmath.workdps(dps):
        r = mpmath.mpf(rho)
        q = (r / 2) ** 2
        n = int(round(nu))
        if abs(nu - n) < _INTEGER_EPS:
            half_pow = (r / 2) ** n
            finite = mpmath.mpf(0)
            for j in range(n):
                finite += (
                    mpmath.factorial(n - j - 1) / mpmath.factorial(j) * (-q) ** j
                )
            finite = finite / (2 * half_pow) if n > 0 else mpmath.mpf(0)
            t_i = half_pow / mpmath.factorial(n)
            s_i = t_i
            t_p = 1 / mpmath.factorial(n)
            c_p = mpmath.digamma(1) + mpmath.digamma(n + 1)
            s_p = c_p * t_p
            for j in range(1, _SERIES_MAX_TERMS):
                t_i = t_i * q / (j * (j + n))
                s_i += t_i
                t_p = t_p * q / (j * (j + n))
                c_p += mpmath.mpf(1) / j + mpmath.mpf(1) / (n + j)
                s_p += c_p * t_p
                if t_i < mpmath.mpf(10) ** (-dps - 5) * s_i:
                    break
            sign = -1 if n % 2 == 0 else 1  # (-1)^(n+1)
            val = finite + sign * mpmath.log(r / 2) * s_i - sign * half_pow * s_p / 2
        else:
            v = mpmath.mpf(nu)
            tp = (r / 2) ** v / mpmath.gamma(1 + v)
            tm = (r / 2) ** (-v) / mpmath.gamma(1 - v)
            sp, sm = tp, tm
            for j in range(1, _SERIES_MAX_TERMS):
                tp = tp * q / (j * (j + v))
                tm = tm * q / (j * (j - v))
                sp += tp
                sm += tm
                if abs(tp) + abs(tm) < mpmath.mpf(10) ** (-dps - 5) * (
                    abs(sp) + abs(sm)
                ):
                    break
            val = mpmath.pi / 2 * (sm - sp) / mpmath.sin(mpmath.pi * v)
        return float(val)


def bessel_k(nu: float, rho):
    """Modified Bessel function of the second kind, K_nu(rho).

    nu must be positive; rho positive (scalar or ndarray).  Relative error
    is at or below 1e-10 for rho in [1e-6, 30] away from the immediate
    neighbourhood of integer orders, where accuracy degrades gracefully to
    the integer-order value.
    """
    nu = float(nu)
    arr = np.asarray(rho, dtype=float)
    _validate_bessel_args(nu, arr)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)

    n = int(round(nu))
    integral = abs(nu - n) < _INTEGER_EPS and n >= 0
    near_integral = not integral and abs(nu - n) < _NEAR_INTEGER

    asym = arr > _ASYMPTOTIC_RADIUS
    if np.any(asym):
        out[asym] = _asymptotic(nu, arr[asym])
    if near_integral:
        mid = ~asym
    else:
        mid = ~asym & (arr > _DOUBLE_RADIUS)
    if np.any(mid):
        vals, inverse = np.unique(arr[mid], return_inverse=True)
        out[mid] = np.array([_bessel_mp(nu, v) for v in vals])[inverse]
    low = ~asym & ~mid
    if np.any(low):
        if integral:
            out[low] = _series_integer(n, arr[low])
        else:
            out[low] = _series_noninteger(nu, arr[low])

    return float(out[0]) if scalar else out.reshape(np.shape(rho))


def matern_radial(nu: float, r):
    """Matern radial profile 2^{1-nu}/Gamma(nu) (sqrt(2 nu) r)^nu K_nu(sqrt(2 nu) r).

    Normalised to 1 at r = 0 (the limit value, returned exactly).  r may be
    a scalar or ndarray of non-negative values.
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
    pos = rho > 0.0
    if np.any(pos):
        pref = 2.0 ** (1.0 - nu) / gamma(nu)
        out[pos] = pref * rho[pos] ** nu * bessel_k(nu, rho[pos])
    return float(out[0]) if scalar else out.reshape(np.shape(r))


@dataclass(frozen=True)
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

    def value_exact(self, rho: Fraction) -> Fraction:
        """Exact evaluation at a rational point inside [0, 1]."""
        rho = Fraction(rho)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * rho + c
        return acc

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
