"""Exact mixed partials of every node type against sympy.

Each kernel is rebuilt as a sympy expression in the coordinates of x and y
and differentiated symbolically (each derivative evaluated in mpmath at 30
digits); ``kernels.partials`` must match it to about 1e-10 relative error
for every d_x^a d_y^b with |a|, |b| <= 3, off the diagonal and on it.  A
1-D stationary leaf's profile is written in the lag times its sign at the
point, not in its absolute value; on the diagonal, where a partial exists
it equals that one-sided form's derivative, and where it does not,
``partials`` gives NaN.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

sp = pytest.importorskip("sympy")
mp = pytest.importorskip("mpmath")

from pathreg import kernels as K  # noqa: E402
from pathreg.dsl import parse_kernel  # noqa: E402
from pathreg.kernels import partials  # noqa: E402


def _profile(leaf, r):
    """Closed form of a stationary leaf's profile at the distance r (at the
    lag r for periodic)."""
    ell = sp.nsimplify(leaf.lengthscale)
    if isinstance(leaf, K.Matern):
        nu = sp.nsimplify(leaf.nu)
        z = sp.sqrt(2 * nu) * r / ell
        if nu.q == 2:
            # half-integer order p + 1/2: e^-z times a polynomial
            p = int(nu - sp.Rational(1, 2))
            poly = sum(
                sp.factorial(p + i) / (sp.factorial(i) * sp.factorial(p - i)) * (2 * z) ** (p - i)
                for i in range(p + 1)
            )
            return sp.exp(-z) * sp.factorial(p) / sp.factorial(2 * p) * poly
        return 2 ** (1 - nu) / sp.gamma(nu) * z**nu * sp.besselk(nu, z)
    if isinstance(leaf, K.Wendland):
        coeffs = leaf.polynomial.coeffs
        return sum(sp.Rational(c.numerator, c.denominator) * (r / ell) ** i for i, c in enumerate(coeffs))
    if isinstance(leaf, K.SquaredExponential):
        return sp.exp(-((r / ell) ** 2))
    if isinstance(leaf, K.RationalQuadratic):
        return (1 + (r / ell) ** 2) ** (-sp.nsimplify(leaf.a))
    if isinstance(leaf, K.Periodic):
        return sp.exp(-sp.sin(sp.pi * r / ell) ** 2)
    raise TypeError(leaf)


# evaluators of the opaque leaf functions, by name, for lambdify
_OPAQUE = {}


def _opaque(form, variable):
    """A sympy function f(k, u) standing for the k-th derivative of
    form(variable) at u.  Differentiating it gives f(k + 1, u), so sympy's
    chain rule runs over a composite without expanding the closed form,
    which is differentiated once per order in its own variable and
    evaluated in mpmath."""
    name = f"leaf{len(_OPAQUE)}"

    @functools.lru_cache(maxsize=None)
    def derivative(k):
        return sp.lambdify(variable, sp.diff(form, variable, k), "mpmath")

    def fdiff(self, argindex=2):
        return cls(self.args[0] + 1, self.args[1])

    cls = type(name, (sp.Function,), {"nargs": 2, "fdiff": fdiff})
    _OPAQUE[name] = lambda k, u: derivative(int(k))(u)
    return lambda u: cls(0, u)


def _sym(expr, xs, ys, signs):
    """sympy form of a kernel expression at coordinate symbols xs, ys.  A
    1-D stationary leaf on coordinate i is its profile at signs[i] (x_i -
    y_i), signs[i] being the sign of x_i - y_i (1 on the diagonal); an
    isotropic leaf of higher dimension is its profile at sqrt(v), v the
    squared distance."""
    if isinstance(expr, K.Conic):
        return sum(sp.nsimplify(w) * _sym(c, xs, ys, signs) for w, c in zip(expr.weights, expr.terms))
    if isinstance(expr, K.Product):
        return sp.Mul(*[_sym(c, xs, ys, signs) for c in expr.factors])
    if isinstance(expr, K.TensorProduct):
        out, offset = 1, 0
        for c in expr.factors:
            axes = slice(offset, offset + c.dim)
            out *= _sym(c, xs[axes], ys[axes], signs[axes])
            offset += c.dim
        return out
    if isinstance(expr, K.Warp):
        f = expr.family

        def warp(v):
            if isinstance(f, K.Affine):
                return sp.nsimplify(f.a) * v + sp.nsimplify(f.b)
            return v ** sp.nsimplify(f.beta)

        return _sym(expr.child, [warp(v) for v in xs], [warp(v) for v in ys], signs)
    if isinstance(expr, K.Linear):
        return sum(a * b for a, b in zip(xs, ys))
    if isinstance(expr, K.Polynomial):
        return (1 + sum(a * b for a, b in zip(xs, ys))) ** expr.m
    if isinstance(expr, K.Feature):
        (x,), (y,) = xs, ys
        if expr.family == "monomials":
            return sum((x * y) ** j for j in range(expr.degree + 1))
        return sum(
            sp.cos(2 * sp.pi * j * x) * sp.cos(2 * sp.pi * j * y)
            + sp.sin(2 * sp.pi * j * x) * sp.sin(2 * sp.pi * j * y)
            for j in range(1, expr.degree + 1)
        )
    if isinstance(expr, K.Wiener):
        return sp.Min(xs[0], ys[0])
    if isinstance(expr, K.Derivative):
        # differentiated in coordinates of its own, which a warp above it
        # replaces by the warped ones
        us, vs = ([sp.Dummy(positive=True) for _ in range(expr.dim)] for _side in "xy")
        out = _sym(expr.child, us, vs, signs)
        for u, v, a in zip(us, vs, expr.alpha):
            out = sp.diff(out, u, a, v, a)
        return out.subs({**dict(zip(us, xs)), **dict(zip(vs, ys))}, simultaneous=True)
    t = [a - b for a, b in zip(xs, ys)]
    if len(t) == 1:
        r = sp.Symbol("r", real=True)
        return _opaque(_profile(expr, r), r)(signs[0] * t[0])
    v = sp.Symbol("v", positive=True)
    return _opaque(_profile(expr, sp.sqrt(v)), v)(sum(c * c for c in t))


def _multi_indices(dim, top):
    return [a for a in np.ndindex(*(top + 1,) * dim) if sum(a) <= top]


def _check(text, x, y):
    """Compare every partial up to order 3 per argument (2 in three
    dimensions, which would take 400 derivatives) at (x, y) with sympy;
    returns the (a, b) where ``partials`` gives NaN."""
    expr = parse_kernel(text)
    d = expr.dim
    top = 3 if d <= 2 else 2
    xs = sp.symbols(f"x0:{d}", positive=True)
    ys = sp.symbols(f"y0:{d}", positive=True)
    signs = [1 if p >= q else -1 for p, q in zip(x, y)]
    base = _sym(expr, list(xs), list(ys), signs)
    with mp.workdps(30):
        point = [mp.mpf(v) for v in (*x, *y)]

    @functools.lru_cache(maxsize=None)
    def diff(a, b):
        # one more derivative of an already differentiated expression
        if sum(a) + sum(b) == 0:
            return base
        for i in range(d):
            if b[i]:
                return sp.diff(diff(a, b[:i] + (b[i] - 1,) + b[i + 1:]), ys[i])
        i = next(i for i in range(d) if a[i])
        return sp.diff(diff(a[:i] + (a[i] - 1,) + a[i + 1:], b), xs[i])

    missing, found = [], []
    for a in _multi_indices(d, top):
        for b in _multi_indices(d, top):
            value, scale = partials(expr, [x], [y], a, b)
            value, scale = float(value[0, 0]), float(scale[0, 0])
            if math.isnan(value):
                missing.append((a, b))
            else:
                found.append((a, b, value, scale))
    # one lambdified function for every derivative
    refs = sp.lambdify((*xs, *ys), [diff(a, b) for a, b, _v, _s in found], [_OPAQUE, "mpmath"])
    with mp.workdps(30):
        refs = [float(mp.re(r)) for r in refs(*point)]
    for (a, b, value, scale), ref in zip(found, refs):
        # the floor is the 30-digit reference's own rounding, where it is 0
        assert abs(value - ref) <= 1e-10 * abs(ref) + 1e-13 * scale + 1e-25, (text, a, b, ref)
    return missing


OFF_DIAGONAL = [
    "matern(nu=0.5,lengthscale=0.7)",
    "matern(nu=1)",
    "matern(nu=1.5,lengthscale=2)",
    "matern(nu=2)",
    "matern(nu=2.5)",
    "matern(nu=3.5,lengthscale=10)",
    "matern(nu=1.5,dim=2)",
    "wendland(d=1,n=0,lengthscale=2)",
    "wendland(d=1,n=2,lengthscale=1.5)",
    "wendland(d=3,n=1,lengthscale=3)",
    "se(lengthscale=0.8)",
    "rq(a=1.5,lengthscale=0.6)",
    "rq(a=2,dim=2)",
    "periodic(lengthscale=2)",
    "linear()",
    "linear(dim=2)",
    "poly(m=3)",
    "poly(m=2,dim=2)",
    "feature(family=monomials,degree=3)",
    "feature(family=trig,degree=2)",
    "warp(matern(nu=1.5), abs_power(beta=0.5))",
    "warp(se(), abs_power(beta=0.75))",
    "warp(matern(nu=2.5), affine(a=2,b=0.5))",
    "warp(tensor(matern(nu=2.5), se()), abs_power(beta=0.5))",
    "tensor(matern(nu=0.5), matern(nu=1.5))",
    "tensor(wendland(d=1,n=1), poly(m=2))",
    "tensor(se(dim=2), periodic())",
    "2*matern(nu=2.5) + linear()",
    "matern(nu=1.5) * se()",
    "linear() * feature(family=trig,degree=1) * periodic()",
    "warp(matern(nu=1.5) * linear(), abs_power(beta=0.5)) + 3*se()",
    "deriv(matern(nu=3.5,lengthscale=2), 1)",
    "deriv(se(lengthscale=0.8), 2)",
    "deriv(matern(nu=2.5,dim=2), 1, 0)",
    "deriv(linear() * se(), 1) + warp(deriv(periodic(), 1), abs_power(beta=0.5))",
]


@pytest.mark.parametrize("text", OFF_DIAGONAL)
def test_off_diagonal(text):
    d = parse_kernel(text).dim
    x = [0.7, 0.45, 0.6][:d]
    y = [0.4, 0.6, 0.35][:d]
    assert _check(text, x, y) == []


# (kernel, how many derivatives its profile along the first axis has at
# the origin)
ON_DIAGONAL = [
    ("matern(nu=0.5)", 0),
    ("matern(nu=1.5,lengthscale=2)", 2),
    ("matern(nu=2.5)", 4),
    ("matern(nu=3.5,lengthscale=0.5)", 6),
    ("wendland(d=1,n=0)", 0),
    ("wendland(d=1,n=1,lengthscale=2)", 2),
    ("wendland(d=1,n=2)", 4),
    ("se(lengthscale=0.8)", 6),
    ("se(dim=2)", 6),
    ("rq(a=1.5,lengthscale=0.6)", 6),
    ("periodic(lengthscale=2)", 6),
    ("linear(dim=2)", 6),
    ("poly(m=3)", 6),
    ("feature(family=trig,degree=2)", 6),
    ("warp(matern(nu=2.5), abs_power(beta=0.5))", 4),
    ("warp(matern(nu=1.5), affine(a=2,b=0.5))", 2),
    ("tensor(matern(nu=1.5), se())", 2),
    ("2*matern(nu=2.5) + wendland(d=1,n=1)", 2),
    ("matern(nu=2.5) * periodic()", 4),
    ("deriv(matern(nu=2.5), 1)", 2),
    ("deriv(matern(nu=3.5,lengthscale=0.5), 2)", 2),
    ("deriv(wendland(d=1,n=2), 1) + se()", 2),
]


@pytest.mark.parametrize("text, exists", ON_DIAGONAL)
def test_on_diagonal(text, exists):
    d = parse_kernel(text).dim
    x = [0.6, 0.45][:d]
    # a partial is missing exactly where it is past the profile's
    # derivatives at the origin
    expected = [
        (a, b) for a in _multi_indices(d, 3) for b in _multi_indices(d, 3) if a[0] + b[0] > exists
    ]
    assert _check(text, x, x) == expected


def test_wiener_has_order_zero_only():
    expr = parse_kernel("wiener()")
    for x, y in [(0.4, 0.7), (0.5, 0.5)]:
        assert partials(expr, [x], [y], [0], [0])[0][0, 0] == min(x, y)
        for a, b in [(1, 0), (0, 1), (1, 1), (2, 3)]:
            assert np.isnan(partials(expr, [x], [y], [a], [b])[0][0, 0])


def test_abs_power_undefined_at_zero():
    expr = parse_kernel("warp(se(), abs_power(beta=0.5))")
    assert np.isfinite(partials(expr, [0.0], [0.3], [0], [1])[0][0, 0])
    assert np.isnan(partials(expr, [0.0], [0.3], [1], [0])[0][0, 0])


# affine(a=0, b) maps every point to b: the warped kernel is constant, so
# its partials are 0, also where the child's partials at lag 0 do not exist
@pytest.mark.parametrize("leaf", ["matern(nu=0.5)", "matern(nu=2.5)"])
def test_constant_affine_warp_has_zero_partials(leaf):
    expr = parse_kernel(f"warp({leaf}, affine(a=0, b=0.5))")
    X = np.array([[0.1], [0.5], [0.9]])
    for alpha, beta in [((1,), (1,)), ((1,), (0,)), ((0,), (2,)), ((3,), (3,))]:
        values, scale = partials(expr, X, X, alpha, beta)
        assert np.array_equal(values, np.zeros((3, 3))), (alpha, beta)
        assert np.array_equal(scale, np.zeros((3, 3))), (alpha, beta)
    assert np.allclose(partials(expr, X, X, (0,), (0,))[0], 1.0, rtol=1e-14, atol=0.0)


def test_stationary_lag_column():
    # the derivative Gram's lag column is (-1)^|alpha| phi^(2|alpha|)(h)
    from pathreg import verify as V

    expr = parse_kernel("matern(nu=2.5,lengthscale=0.5)")
    h = np.array([0.0, 0.01, 0.3, 1.2])
    values, _scale, _exists = V._lag_derivatives(expr, h, 4)
    for n in (1, 2):
        column = V.derivative_kernel_matrix(expr, n, h[:, None], Y=np.zeros((1, 1)))[:, 0]
        np.testing.assert_allclose(column, (-1) ** n * values[2 * n], rtol=1e-14)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "text",
    ["matern(nu=2.5,dim=2)", "se(dim=3)", "rq(a=1,dim=2)", "wendland(d=3,n=1)", "wendland(d=2,n=2)"],
)
def test_one_coordinate_jet_is_the_lag_profile(text):
    # on points of one coordinate an isotropic leaf's jet is its lag
    # profile's, NaN at the origin where a derivative does not exist there:
    # a leaf that declares lag_terms gives those bits, a leaf in G(a t^2)
    # the bits of its partials along e_1 on full-dimension points
    leaf = parse_kernel(text)
    t = np.array([0.0, 1e-9, 2.0**-8, 0.3, 0.7, 1.3, 2.5])
    m = 8
    jet = leaf.jet(t[:, None], np.zeros((1, 1)), (m,), (0,))
    missing = ~leaf.lag_exists(m)
    if hasattr(leaf, "lag_terms"):
        values, scale = leaf.lag_terms(t, m)
        values[missing, 0] = scale[missing, 0] = np.nan
    along = np.outer(t, np.eye(leaf.dim)[0])
    for j in range(m + 1):
        got = [part[:, 0] for part in jet[(j,), (0,)]]
        assert np.isnan(got[0][0]) == missing[j], j
        if hasattr(leaf, "lag_terms"):
            assert _same_bits(got[0], values[j]) and _same_bits(got[1], scale[j]), j
        else:
            alpha = (j,) + (0,) * (leaf.dim - 1)
            full = partials(leaf, along, np.zeros((1, leaf.dim)), alpha, (0,) * leaf.dim)
            assert all(_same_bits(f[:, 0], g) for f, g in zip(full, got)), j


def _stationary_composites():
    from test_verify import CATALOGUE_COMPOSITES

    texts = [text for text, _n in CATALOGUE_COMPOSITES] + [
        "matern(nu=2.5) * periodic()",
        "deriv(matern(nu=2.5), 1)",
        "deriv(matern(nu=3.5) * periodic(), 1)",
        "deriv(wendland(d=1,n=2), 1) + se()",
    ]
    return [t for t in texts if isinstance(K.classify(parse_kernel(t)), K.Stationary)]


@pytest.mark.parametrize("text", _stationary_composites())
def test_lag_exists_matches_the_jet_at_the_origin(text):
    # the declared existence of each lag derivative at the origin is where
    # the one-coordinate jet there is not NaN
    expr = parse_kernel(text)
    m = 8
    jet = expr.jet(np.zeros((1, 1)), np.zeros((1, 1)), (m,), (0,))
    at_origin = np.array([jet[(j,), (0,)][0][0, 0] for j in range(m + 1)])
    assert expr.lag_exists(m).tolist() == (~np.isnan(at_origin)).tolist()
