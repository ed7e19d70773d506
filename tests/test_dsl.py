"""Parser and canonical printer for the kernel DSL."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from pathreg._base import fields
from pathreg.cli import main
from pathreg.dsl import ParseError, parse_kernel, print_kernel
from pathreg.kernels import (
    LEAVES,
    WARPS,
    AbsPower,
    Affine,
    Conic,
    Derivative,
    Feature,
    General,
    Isotropic,
    Linear,
    Matern,
    ParameterError,
    Periodic,
    Polynomial,
    Product,
    RationalQuadratic,
    SquaredExponential,
    Stationary,
    TensorProduct,
    Warp,
    Wendland,
    classify,
)
from pathreg.regularity import Regularity

from conftest import kernel_trees


class TestParseExamples:
    def test_matern_defaults(self):
        expr = parse_kernel("matern(nu=0.5)")
        assert expr == Matern(nu=0.5)
        assert expr.dim == 1

    def test_tensor_of_wendlands(self):
        expr = parse_kernel("tensor(wendland(d=1,n=0), wendland(d=1,n=1))")
        assert expr == TensorProduct((Wendland(1, 0), Wendland(1, 1)))
        assert expr.dim == 2

    def test_unknown_name_offset(self):
        with pytest.raises(ParseError) as err:
            parse_kernel("matern(nu=0.5) + bogus(3)")
        assert err.value.offset == 17
        assert "unknown kernel name" in str(err.value)

    def test_parameter_out_of_range_names_parameter(self):
        with pytest.raises(ParseError) as err:
            parse_kernel("matern(nu=-1)")
        assert "nu" in str(err.value)
        assert "at offset" in str(err.value)

    def test_whitespace_insensitive(self):
        a = parse_kernel("2*matern(nu=0.5)+se()")
        b = parse_kernel("  2 * matern( nu = 0.5 )  +  se( )  ")
        assert a == b

    def test_weights_and_products(self):
        expr = parse_kernel("2*matern(nu=0.5) * se() + wiener()")
        assert isinstance(expr, Conic)
        assert expr.weights == (2.0, 1.0)
        assert isinstance(expr.terms[0], Product)

    def test_single_weighted_term_is_conic(self):
        expr = parse_kernel("3*se()")
        assert isinstance(expr, Conic)
        assert expr.weights == (3.0,)

    def test_parenthesised_grouping(self):
        expr = parse_kernel("(se() + wiener()) * matern(nu=1.5)")
        assert isinstance(expr, Product)
        assert isinstance(expr.factors[0], Conic)

    def test_warp_forms(self):
        expr = parse_kernel("warp(matern(nu=0.5), abs_power(beta=0.5))")
        assert isinstance(expr, Warp)
        assert expr.family == AbsPower(0.5)
        affine = parse_kernel("warp(se(), affine(a=2, b=-1))")
        assert affine.family == Affine(2.0, -1.0)

    def test_feature_identifier_value(self):
        expr = parse_kernel("feature(family=trig, degree=2)")
        assert expr.family == "trig"

    def test_error_paths(self):
        cases = [
            "matern(nu=0.5",  # unclosed paren
            "se() +",  # dangling operator
            "3",  # bare number
            "se() * 3",  # number in factor position
            "matern(0.5)",  # positional argument
            "matern(nu=0.5, nu=1.0)",  # duplicate
            "tensor(se())",  # one factor
            "warp(se(), spiral(a=1))",  # unknown warp
            "wendland(d=1)",  # missing n
            "matern(nu=0.5) se()",  # trailing input
            "se(lengthscale=monomials)",  # identifier where number expected
            "feature(family=5, degree=1)",  # number where identifier expected
            "matern(nu=0.5, colour=1)",  # unknown parameter
        ]
        for text in cases:
            with pytest.raises(ParseError):
                parse_kernel(text)

    def test_conic_weight_must_be_positive(self):
        with pytest.raises(ParseError):
            parse_kernel("-2*se()")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_kernel("se() @ matern(nu=1)")
        assert err.value.offset == 5

    def test_integer_parameters_reject_fractions(self):
        with pytest.raises(ParseError):
            parse_kernel("wendland(d=1.5, n=0)")
        with pytest.raises(ParseError):
            parse_kernel("poly(m=2.7)")


class TestRejectedValues:
    @pytest.mark.parametrize(
        "source, offset",
        [
            ("matern(nu=1.5, dim=1e999)", 19),
            ("wendland(d=1e999, n=1)", 11),
            ("poly(m=1e999)", 7),
            ("feature(family=trig, degree=1e999)", 28),
        ],
    )
    def test_non_finite_integer_parameter(self, source, offset):
        with pytest.raises(ParseError) as err:
            parse_kernel(source)
        assert err.value.offset == offset
        assert "must be an integer" in str(err.value)

    def test_non_finite_integer_in_the_library(self):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ParameterError) as err:
                Matern(1.5, input_dim=value)
            assert err.value.param == "dim"

    def test_infinite_conic_weight(self):
        with pytest.raises(ParseError) as err:
            parse_kernel("1e999*se()")
        assert err.value.offset == 0
        assert str(err.value) == "conic weight must be finite at offset 0"
        with pytest.raises(ParseError) as err:
            parse_kernel("se() + 1e999*se()")
        assert err.value.offset == 7

    def test_feature_family_reported_at_its_value(self):
        with pytest.raises(ParseError) as err:
            parse_kernel("feature(family=bogus, degree=2)")
        assert err.value.offset == 15
        assert str(err.value) == (
            "unknown feature family 'bogus'; choose from ('monomials', 'trig') at offset 15"
        )


class TestPrinter:
    def test_examples_print_canonically(self):
        assert print_kernel(parse_kernel("matern(nu=0.5)")) == "matern(nu=0.5)"
        assert (
            print_kernel(parse_kernel("tensor(wendland(d=1,n=0), wendland(d=1,n=1))"))
            == "tensor(wendland(d=1, n=0), wendland(d=1, n=1))"
        )
        assert print_kernel(parse_kernel("2*se()+matern(nu=1.5)")) == "2*se() + matern(nu=1.5)"

    def test_defaults_omitted(self):
        assert print_kernel(Matern(nu=2.0)) == "matern(nu=2)"
        assert print_kernel(Matern(nu=2.0, lengthscale=0.5)) == "matern(nu=2, lengthscale=0.5)"

    def test_nested_structure_parenthesised(self):
        expr = Product((Product((Matern(nu=0.5), Matern(nu=1.5))), Matern(nu=2.5)))
        text = print_kernel(expr)
        assert parse_kernel(text) == expr


@settings(max_examples=150, deadline=None)
@given(kernel_trees())
def test_print_parse_round_trip(expr):
    assert parse_kernel(print_kernel(expr)) == expr


# deriv builds kernels.derivative: order 0 is the kernel itself, and a
# tensor product's derivative is the tensor of its factors' derivatives,
# each at its own part of alpha, nested tensors included
@pytest.mark.parametrize(
    "source, expected",
    [
        ("deriv(se(), 0)", SquaredExponential()),
        ("deriv(se(dim=2), 0, 0)", SquaredExponential(input_dim=2)),
        ("deriv(matern(nu=2.5), 2)", Derivative(Matern(2.5), (2,))),
        ("deriv(2*se() + linear(), 1)", Derivative(Conic((SquaredExponential(), Linear()), (2, 1)), (1,))),
        ("deriv(tensor(matern(nu=1.5), se()), 1, 0)",
         TensorProduct((Derivative(Matern(1.5), (1,)), SquaredExponential()))),
        ("deriv(tensor(matern(nu=2.5, dim=2), se()), 1, 1, 1)",
         TensorProduct((Derivative(Matern(2.5, input_dim=2), (1, 1)),
                        Derivative(SquaredExponential(), (1,))))),
        ("deriv(tensor(tensor(se(), se()), se()), 0, 2, 0)",
         TensorProduct((TensorProduct((SquaredExponential(), Derivative(SquaredExponential(), (2,)))),
                        SquaredExponential()))),
        ("deriv(deriv(se(), 1), 2)", Derivative(Derivative(SquaredExponential(), (1,)), (2,))),
        ("warp(deriv(se(), 1), affine(a=2, b=0)) * se()",
         Product((Warp(Derivative(SquaredExponential(), (1,)), Affine(2, 0)), SquaredExponential()))),
    ],
)
def test_deriv_builds_the_derivative(source, expected):
    expr = parse_kernel(source)
    assert expr == expected
    assert parse_kernel(print_kernel(expr)) == expr


# Canonical print and `analyze` JSON of every leaf at its defaults and away
# from them, both warp families and one composite: source text, printed
# form, per-axis (order, sharp, log_corrected), Sobolev order, and the
# derivation lines before the closing Sobolev line.
GOLDEN_ANALYZE = [
    ("matern(nu=1.5)", "matern(nu=1.5)", [(1.5, True, False)], 1, ["matern leaf: order 3/2, sharp"]),
    ("wendland(d=1, n=0)", "wendland(d=1, n=0)", [(0.5, True, False)], 0, ["wendland leaf: order 1/2, sharp"]),
    ("se()", "se()", [("inf", True, False)], "inf", ["squaredexponential leaf: order inf, sharp"]),
    ("rq(a=2)", "rq(a=2)", [("inf", True, False)], "inf", ["rationalquadratic leaf: order inf, sharp"]),
    ("periodic()", "periodic()", [("inf", True, False)], "inf", ["periodic leaf: order inf, sharp"]),
    ("wiener()", "wiener()", [(0.5, True, False)], 0, ["wiener leaf: order 1/2, sharp"]),
    ("linear()", "linear()", [("inf", True, False)], "inf", ["linear leaf: order inf, sharp"]),
    ("poly(m=2)", "poly(m=2)", [("inf", True, False)], "inf", ["polynomial leaf: order inf, sharp"]),
    ("feature(family=monomials, degree=2)", "feature(family=monomials, degree=2)",
     [("inf", False, False)], "inf", ["feature leaf: order inf, sufficient-only"]),
    ("matern(nu=2, lengthscale=0.5, dim=2)", "matern(nu=2, lengthscale=0.5, dim=2)",
     [(2.0, True, True)], 1, ["matern leaf: order 2, sharp, log-corrected"]),
    ("matern(nu=1e-05, lengthscale=1e+20)", "matern(nu=1e-05, lengthscale=1e+20)",
     [(1e-05, True, False)], 0,
     ["matern leaf: order 1/100000, sharp"]),
    ("wendland(d=3, n=2, lengthscale=2.5)", "wendland(d=3, n=2, lengthscale=2.5)",
     [(2.5, True, False)], 2, ["wendland leaf: order 5/2, sharp"]),
    ("se(lengthscale=0.1, dim=3)", "se(lengthscale=0.1, dim=3)", [("inf", True, False)], "inf",
     ["squaredexponential leaf: order inf, sharp"]),
    ("rq(a=0.5, lengthscale=3, dim=2)", "rq(a=0.5, lengthscale=3, dim=2)", [("inf", True, False)],
     "inf", ["rationalquadratic leaf: order inf, sharp"]),
    ("periodic(lengthscale=0.25)", "periodic(lengthscale=0.25)", [("inf", True, False)], "inf",
     ["periodic leaf: order inf, sharp"]),
    ("linear(dim=2)", "linear(dim=2)", [("inf", True, False)], "inf", ["linear leaf: order inf, sharp"]),
    ("poly(m=3, dim=2)", "poly(m=3, dim=2)", [("inf", True, False)], "inf",
     ["polynomial leaf: order inf, sharp"]),
    ("feature(family=trig, degree=3)", "feature(family=trig, degree=3)", [("inf", False, False)],
     "inf", ["feature leaf: order inf, sufficient-only"]),
    ("warp(matern(nu=1.5), affine(a=2, b=-0.5))", "warp(matern(nu=1.5), affine(a=2, b=-0.5))",
     [(1.5, False, False)], 1,
     ["matern leaf: order 3/2, sharp",
      "warp(affine): n=1, gamma=1/2, delta=1 -> order 3/2, sufficient-only"]),
    ("warp(wiener(), abs_power(beta=0.5))", "warp(wiener(), abs_power(beta=0.5))",
     [(0.25, False, False)], 0,
     ["wiener leaf: order 1/2, sharp",
      "warp(abs_power): n=0, gamma=1/2, delta=1/2 -> order 1/4, sufficient-only"]),
    ("warp(matern(nu=2.5), abs_power(beta=1))", "warp(matern(nu=2.5), abs_power(beta=1))",
     [(1.0, False, False)], 0,
     ["matern leaf: order 5/2, sharp",
      "warp(abs_power): n=0, gamma=1, delta=1 -> order 1, sufficient-only"]),
    ("tensor(2*matern(nu=0.5) * se() + wiener(), periodic())",
     "tensor(2*(matern(nu=0.5) * se()) + wiener(), periodic())",
     [(0.5, False, False), ("inf", True, False)], 0,
     ["matern leaf: order 1/2, sharp",
      "squaredexponential leaf: order inf, sharp",
      "product: order = min of children = 1/2, sufficient-only",
      "wiener leaf: order 1/2, sharp",
      "conic: order = min of children = 1/2, sufficient-only",
      "periodic leaf: order inf, sharp",
      "tensor: per-axis orders [1/2, inf], sharpness preserved per axis"]),
    # a non-dyadic order is the fraction its decimal text names, not its
    # float's binary fraction (5404319552844595/18014398509481984 for 0.3)
    ("matern(nu=0.3)", "matern(nu=0.3)", [(0.3, True, False)], 0, ["matern leaf: order 3/10, sharp"]),
    ("warp(matern(nu=0.3), abs_power(beta=0.3))", "warp(matern(nu=0.3), abs_power(beta=0.3))",
     [(0.09, False, False)], 0,
     ["matern leaf: order 3/10, sharp",
      "warp(abs_power): n=0, gamma=3/10, delta=3/10 -> order 9/100, sufficient-only"]),
    # a derivative's order is its child's minus |alpha|, sharp and
    # log-corrected as the child is in 1-D and sufficient-only with more
    # inputs; a tensor's derivative is its factors' derivatives
    ("deriv(matern(nu=2.5), 1)", "deriv(matern(nu=2.5), 1)", [(1.5, True, False)], 1,
     ["matern leaf: order 5/2, sharp", "deriv: child order minus |alpha|=1 -> order 3/2, sharp"]),
    ("deriv(matern(nu=3), 2)", "deriv(matern(nu=3), 2)", [(1.0, True, True)], 0,
     ["matern leaf: order 3, sharp, log-corrected",
      "deriv: child order minus |alpha|=2 -> order 1, sharp, log-corrected"]),
    ("deriv(matern(nu=2.5, dim=2), 1, 0)", "deriv(matern(nu=2.5, dim=2), 1, 0)",
     [(1.5, False, False)], 1,
     ["matern leaf: order 5/2, sharp",
      "deriv: child order minus |alpha|=1 -> order 3/2, sufficient-only"]),
    ("deriv(tensor(matern(nu=1.5), se()), 1, 2)", "tensor(deriv(matern(nu=1.5), 1), deriv(se(), 2))",
     [(0.5, True, False), ("inf", True, False)], 0,
     ["matern leaf: order 3/2, sharp",
      "deriv: child order minus |alpha|=1 -> order 1/2, sharp",
      "squaredexponential leaf: order inf, sharp",
      "deriv: child order minus |alpha|=2 -> order inf, sharp",
      "tensor: per-axis orders [1/2, inf], sharpness preserved per axis"]),
]


@pytest.mark.parametrize("source, printed, axes, sobolev, derivation", GOLDEN_ANALYZE)
def test_golden_print_and_analyze_bytes(capsys, source, printed, axes, sobolev, derivation):
    assert print_kernel(parse_kernel(source)) == printed
    assert main(["analyze", "-k", source]) == 0
    expected = {
        "kernel": printed,
        "per_axis": [{"order": o, "sharp": s, "log_corrected": g} for o, s, g in axes],
        "sobolev_order": sobolev,
        "derivation": derivation
        + [f"sobolev: largest m with 2m below diagonal differentiability -> {sobolev}"],
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


# Rejected sources: exception type and full message, offset included.
GOLDEN_ERRORS = [
    ("matern(nu=-1)", ParseError, "parameter nu must be positive, got -1.0 at offset 10"),
    ("matern(nu=0.5, dim=0)", ParseError, "parameter dim must be >= 1, got 0 at offset 19"),
    ("matern(nu=0.5, dim=1.5)", ParseError, "parameter 'dim' must be an integer at offset 19"),
    ("matern(nu=1e999)", ParseError, "parameter nu must be positive, got inf at offset 10"),
    ("wendland(d=1.5, n=0)", ParseError, "parameter 'd' must be an integer at offset 11"),
    ("wendland(d=1, n=-1)", ParseError, "parameter n must be >= 0, got -1 at offset 16"),
    ("wendland(d=1)", ParseError, "wendland requires parameter 'n' at offset 0"),
    ("wendland(d=0, n=1)", ParseError, "parameter d must be >= 1, got 0 at offset 11"),
    ("rq(a=0)", ParseError, "parameter a must be positive, got 0.0 at offset 5"),
    ("se(lengthscale=monomials)", ParseError,
     "parameter 'lengthscale' of se expects a number at offset 15"),
    ("feature(family=5, degree=1)", ParseError,
     "parameter 'family' of feature expects an identifier at offset 15"),
    ("feature(family=trig, degree=0)", ParseError,
     "parameter degree must be >= 1, got 0 at offset 28"),
    ("feature(degree=1)", ParseError, "feature requires parameter 'family' at offset 0"),
    ("poly(m=0)", ParseError, "parameter m must be >= 1, got 0 at offset 7"),
    ("poly(m=2.5, dim=0.5)", ParseError, "parameter 'm' must be an integer at offset 7"),
    ("matern(nu=0.5, colour=1)", ParseError, "unknown parameter 'colour' for matern at offset 22"),
    ("periodic(dim=2)", ParseError, "unknown parameter 'dim' for periodic at offset 13"),
    ("warp(se(), spiral(a=1))", ParseError, "unknown warp family 'spiral' at offset 11"),
    ("warp(se(), affine(a=1))", ParseError, "affine requires parameter 'b' at offset 11"),
    ("warp(se(), affine(a=1, b=x))", ParseError,
     "parameter 'b' of affine expects a number at offset 25"),
    ("warp(se(), affine(a=1, c=2))", ParseError, "unknown parameter 'c' for affine at offset 25"),
    ("warp(se(), abs_power(beta=2))", ParseError,
     "parameter beta must lie in (0, 1], got 2.0 at offset 26"),
    ("warp(se(), abs_power(beta=0))", ParseError,
     "parameter beta must lie in (0, 1], got 0.0 at offset 26"),
    ("warp(se(), affine(a=1e999, b=0))", ParseError,
     "parameter a must be finite, got inf at offset 20"),
    ("0*se()", ParseError, "conic weight must be positive at offset 0"),
    ("-2*se()", ParseError, "conic weight must be positive at offset 0"),
    ("tensor(se())", ParseError, "tensor(...) needs at least two factors at offset 0"),
    ("se() + wendland(d=2, n=0)", ParseError,
     "term of input dimension 2 where the first has 1 at offset 7"),
    ("se() * wendland(d=2, n=0)", ParseError,
     "factor of input dimension 2 where the first has 1 at offset 7"),
    ("se(dim=2) + se(dim=2) + 2*linear()", ParseError,
     "term of input dimension 1 where the first has 2 at offset 24"),
    ("(se() + se()) * se(dim=3)", ParseError,
     "factor of input dimension 3 where the first has 1 at offset 16"),
    ("matern(nu=0.5, nu=1)", ParseError, "duplicate parameter 'nu' at offset 15"),
    ("matern(nu=-1, dim=1.5)", ParseError, "parameter 'dim' must be an integer at offset 18"),
    # one non-negative integer order per input: a missing order is reported
    # at the closing parenthesis, an extra one at itself
    ("deriv(se())", ParseError, "deriv takes one order per input (1), got 0 at offset 10"),
    ("deriv(se(), 1, 1)", ParseError, "deriv takes one order per input (1), got 2 at offset 15"),
    ("deriv(se(dim=2), 1)", ParseError, "deriv takes one order per input (2), got 1 at offset 18"),
    ("deriv(tensor(se(), se()), 1, 0, 2)", ParseError,
     "deriv takes one order per input (2), got 3 at offset 32"),
    ("deriv(se(), -1)", ParseError, "a derivative order must be a non-negative integer at offset 12"),
    ("deriv(se(), 1.5)", ParseError, "a derivative order must be a non-negative integer at offset 12"),
    ("deriv(se(), 1e999)", ParseError,
     "a derivative order must be a non-negative integer at offset 12"),
    ("deriv(se(), n)", ParseError, "a derivative order must be a non-negative integer at offset 12"),
    ("deriv(se(), )", ParseError, "a derivative order must be a non-negative integer at offset 12"),
    ("deriv(se() 1)", ParseError, "expected ')' at offset 11"),
]


@pytest.mark.parametrize("source, error, message", GOLDEN_ERRORS)
def test_golden_parse_errors(source, error, message):
    with pytest.raises(error) as err:
        parse_kernel(source)
    assert type(err.value) is error
    assert str(err.value) == message


_SE = SquaredExponential()

# Constructor errors of the library API.
GOLDEN_CONSTRUCTOR_ERRORS = [
    (lambda: Matern(-1), "parameter nu must be positive, got -1.0"),
    (lambda: Matern(1.5, input_dim=1.5), "parameter dim must be an integer, got 1.5"),
    (lambda: Matern(1.5, input_dim=0), "parameter dim must be >= 1, got 0"),
    (lambda: Wendland(1.5, 0), "parameter d must be an integer, got 1.5"),
    (lambda: Wendland(1, -1), "parameter n must be >= 0, got -1"),
    (lambda: Feature("bogus", 2), "unknown feature family 'bogus'; choose from ('monomials', 'trig')"),
    (lambda: Feature("trig", 0), "parameter degree must be >= 1, got 0"),
    (lambda: Polynomial(0), "parameter m must be >= 1, got 0"),
    (lambda: Periodic(lengthscale=0), "parameter lengthscale must be positive, got 0.0"),
    (lambda: RationalQuadratic(float("inf")), "parameter a must be positive, got inf"),
    (lambda: Linear(input_dim=2.5), "parameter dim must be an integer, got 2.5"),
    (lambda: Affine(float("nan"), 0.0), "parameter a must be finite, got nan"),
    (lambda: Affine(1.0, float("inf")), "parameter b must be finite, got inf"),
    (lambda: AbsPower(0), "parameter beta must lie in (0, 1], got 0.0"),
    (lambda: AbsPower(float("nan")), "parameter beta must lie in (0, 1], got nan"),
    (lambda: AbsPower(2), "parameter beta must lie in (0, 1], got 2.0"),
    (lambda: Conic((_SE,), (0,)), "conic weights must be positive, got 0.0"),
]


@pytest.mark.parametrize("build, message", GOLDEN_CONSTRUCTOR_ERRORS)
def test_golden_constructor_errors(build, message):
    with pytest.raises(ParameterError) as err:
        build()
    assert str(err.value) == message


# The README leaf table: per DSL name, a source at the defaults, a source
# with every parameter set, the structural class and the declared
# (order, sharp, log-corrected).
README_LEAVES = {
    "matern": ("matern(nu=2.5)", "matern(nu=2.5, lengthscale=0.5, dim=2)", Isotropic,
               (Fraction(5, 2), True, False)),
    "wendland": ("wendland(d=1, n=1)", "wendland(d=3, n=1, lengthscale=4)", Isotropic,
                 (Fraction(3, 2), True, False)),
    "se": ("se()", "se(lengthscale=2, dim=3)", Isotropic, (math.inf, True, False)),
    "rq": ("rq(a=1)", "rq(a=0.5, lengthscale=2, dim=2)", Isotropic, (math.inf, True, False)),
    "periodic": ("periodic()", "periodic(lengthscale=0.5)", Stationary, (math.inf, True, False)),
    "wiener": ("wiener()", "wiener()", General, (Fraction(1, 2), True, False)),
    "linear": ("linear()", "linear(dim=2)", General, (math.inf, True, False)),
    "poly": ("poly(m=2)", "poly(m=3, dim=2)", General, (math.inf, True, False)),
    "feature": ("feature(family=monomials, degree=2)", "feature(family=trig, degree=1)",
                General, (math.inf, False, False)),
}


def test_leaf_registry_matches_readme_table():
    assert [cls.name for cls in LEAVES] == list(README_LEAVES)
    for cls in LEAVES:
        at_defaults, full, structure, order = README_LEAVES[cls.name]
        for source in (at_defaults, full):
            expr = parse_kernel(source)
            assert type(expr) is cls
            assert print_kernel(expr) == source
            assert parse_kernel(print_kernel(expr)) == expr
            assert type(classify(expr)) is structure
            assert Regularity(*expr.path_order) == Regularity(*order)
        # the full source names every parameter of the leaf
        assert len(fields(cls)) == full.count("=")


# The README warp families: per DSL name, a warp naming every parameter
# and the family's declared Holder order.
README_WARPS = {
    "affine": ("warp(se(), affine(a=2, b=-0.5))", math.inf),
    "abs_power": ("warp(se(), abs_power(beta=0.5))", Fraction(1, 2)),
}


def test_warp_registry_matches_readme():
    assert [cls.name for cls in WARPS] == list(README_WARPS)
    for cls in WARPS:
        source, order = README_WARPS[cls.name]
        expr = parse_kernel(source)
        assert type(expr.family) is cls
        assert print_kernel(expr) == source
        assert parse_kernel(print_kernel(expr)) == expr
        assert expr.family.order == order
        assert len(fields(cls)) == source.count("=")
