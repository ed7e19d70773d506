"""Symbolic regularity inference rules and invariants."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from pathreg.dsl import parse_kernel
from pathreg.kernels import (
    Conic,
    Derivative,
    KernelError,
    Matern,
    Product,
    SquaredExponential,
    TensorProduct,
    Wendland,
)
from pathreg.regularity import Regularity, infer_regularity, report_to_dict

from conftest import kernel_trees


class TestLeafTable:
    def test_matern_sharp(self):
        reg = Regularity(*Matern(nu=2.5).path_order)
        assert reg.order == Fraction(5, 2)
        assert reg.sharp and not reg.log_corrected

    def test_matern_integer_log_corrected(self):
        reg = Regularity(*Matern(nu=2.0).path_order)
        assert reg.order == 2 and reg.sharp and reg.log_corrected

    def test_wendland(self):
        reg = Regularity(*Wendland(1, 1).path_order)
        assert reg.order == Fraction(3, 2) and reg.sharp

    def test_wiener(self):
        reg = Regularity(*parse_kernel("wiener()").path_order)
        assert reg.order == Fraction(1, 2) and reg.sharp

    def test_smooth_leaves(self):
        for text in ["se()", "rq(a=1)", "periodic()", "linear()", "poly(m=3)"]:
            reg = Regularity(*parse_kernel(text).path_order)
            assert reg.order == math.inf and reg.sharp

    def test_feature_declared_sufficient_only(self):
        reg = Regularity(*parse_kernel("feature(family=monomials, degree=2)").path_order)
        assert reg.order == math.inf and not reg.sharp

    def test_orders_positive(self):
        for text in ["matern(nu=0.5)", "wendland(d=1,n=0)", "wiener()", "se()"]:
            assert Regularity(*parse_kernel(text).path_order).order > 0


class TestCombinators:
    def test_conic_min_rule_sufficient_only(self):
        r = infer_regularity(parse_kernel("matern(nu=0.5) + se()"))
        assert r.order == Fraction(1, 2)
        assert not r.per_axis[0].sharp

    def test_single_child_scaling_preserves_verdict(self):
        base = infer_regularity(parse_kernel("matern(nu=0.5)"))
        scaled = infer_regularity(parse_kernel("2.5*matern(nu=0.5)"))
        assert scaled.per_axis == base.per_axis
        assert scaled.sobolev_order == base.sobolev_order

    def test_product_min_rule(self):
        r = infer_regularity(parse_kernel("se() * matern(nu=1.5)"))
        assert r.order == Fraction(3, 2)
        assert not r.per_axis[0].sharp

    def test_product_of_smooth_is_smooth_sharp(self):
        r = infer_regularity(parse_kernel("se() * rq(a=1)"))
        assert r.order == math.inf and r.per_axis[0].sharp

    def test_tensor_concatenates_axes(self):
        r = infer_regularity(parse_kernel("tensor(wendland(d=1,n=0), wendland(d=1,n=1))"))
        assert [a.order for a in r.per_axis] == [Fraction(1, 2), Fraction(3, 2)]
        assert all(a.sharp for a in r.per_axis)

    # one entry per tensor factor, or one for any other kernel, however many
    # inputs it has: per_axis does not line up with the input axes
    @pytest.mark.parametrize(
        "text, inputs, entries",
        [
            ("matern(nu=1.5,dim=2)", 2, 1),
            ("tensor(matern(nu=1.5,dim=2), se())", 3, 2),
            ("tensor(tensor(se(), wiener()), matern(nu=0.5))", 3, 3),
        ],
    )
    def test_per_axis_has_one_entry_per_factor(self, text, inputs, entries):
        expr = parse_kernel(text)
        assert expr.dim == inputs
        assert len(infer_regularity(expr).per_axis) == entries

    def test_warp_orders(self):
        r = infer_regularity(parse_kernel("warp(matern(nu=0.5), abs_power(beta=0.5))"))
        assert r.order == Fraction(1, 4)
        assert not r.per_axis[0].sharp
        affine = infer_regularity(parse_kernel("warp(matern(nu=1.5), affine(a=2, b=0))"))
        assert affine.order == Fraction(3, 2)
        smooth_rough = infer_regularity(parse_kernel("warp(se(), abs_power(beta=0.5))"))
        assert smooth_rough.order == Fraction(1, 2)

    def test_log_flag_propagates_through_min(self):
        r = infer_regularity(parse_kernel("matern(nu=1) + se()"))
        assert r.order == 1 and r.per_axis[0].log_corrected


class TestDerivatives:
    # the child's order minus |alpha|, its flags kept in 1-D
    @pytest.mark.parametrize(
        "text, order, sharp, log",
        [
            ("deriv(matern(nu=2.5), 1)", Fraction(3, 2), True, False),
            ("deriv(matern(nu=4), 3)", Fraction(1), True, True),
            ("deriv(wendland(d=1,n=2), 2)", Fraction(1, 2), True, False),
            ("deriv(matern(nu=1.5) + se(), 1)", Fraction(1, 2), False, False),
            ("deriv(deriv(se(), 1), 2)", math.inf, True, False),
            ("deriv(matern(nu=2.5,dim=2), 1, 1)", Fraction(1, 2), False, False),
            ("deriv(se(dim=2), 0, 1)", math.inf, False, False),
        ],
    )
    def test_order_is_the_childs_minus_alpha(self, text, order, sharp, log):
        (reg,) = infer_regularity(parse_kernel(text)).per_axis
        assert reg == Regularity(order, sharp, log)

    # the one check that a derivative process exists, wherever the node sits
    @pytest.mark.parametrize(
        "text, message",
        [
            ("deriv(matern(nu=1.5), 2)", "|alpha|=2 is not below the sample-path order 3/2"),
            ("deriv(wiener(), 1)", "|alpha|=1 is not below the sample-path order 1/2"),
            ("se() + 2*deriv(matern(nu=2.5), 1) * deriv(matern(nu=1), 1)",
             "|alpha|=1 is not below the sample-path order 1;"),
            ("deriv(deriv(matern(nu=2.5), 1), 2)", "|alpha|=2 is not below the sample-path order 3/2"),
            ("deriv(tensor(matern(nu=2.5), matern(nu=0.5)), 2, 1)",
             "|alpha|=1 is not below the sample-path order 1/2"),
        ],
    )
    def test_gate(self, text, message):
        with pytest.raises(KernelError) as err:
            infer_regularity(parse_kernel(text))
        assert str(err.value).startswith(f"derivative order {message}")
        assert str(err.value).endswith("; the derivative process does not exist")

    # a node built on a whole tensor, not by kernels.derivative, has one
    # entry: the lowest factor order minus |alpha|, sufficient-only
    def test_node_over_a_tensor(self):
        tensor = TensorProduct((Matern(2.5), SquaredExponential()))
        (reg,) = infer_regularity(Derivative(tensor, (1, 0))).per_axis
        assert reg == Regularity(Fraction(3, 2), False)


class TestSobolev:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("matern(nu=1.5)", 1),
            ("matern(nu=2)", 1),
            ("matern(nu=2.5)", 2),
            ("wendland(d=1,n=1)", 1),
            ("wiener()", 0),
            ("se()", math.inf),
            ("tensor(wendland(d=1,n=0), wendland(d=1,n=1))", 0),
        ],
    )
    def test_orders(self, text, expected):
        assert infer_regularity(parse_kernel(text)).sobolev_order == expected

    def test_consistency_with_holder(self):
        for text in ["matern(nu=0.5)", "matern(nu=3)", "wendland(d=3,n=2)", "wiener()"]:
            r = infer_regularity(parse_kernel(text))
            assert r.sobolev_order <= min(a.order for a in r.per_axis) + 1


class TestReportSerialisation:
    def test_json_schema(self):
        r = infer_regularity(parse_kernel("tensor(wendland(d=1,n=0), se())"))
        payload = report_to_dict(r)
        text = json.dumps(payload)
        parsed = json.loads(text)
        assert set(parsed) == {"per_axis", "sobolev_order", "derivation"}
        for axis in parsed["per_axis"]:
            assert set(axis) == {"order", "sharp", "log_corrected"}
            assert axis["order"] == "inf" or isinstance(axis["order"], float)
        assert parsed["sobolev_order"] == "inf" or isinstance(parsed["sobolev_order"], int)
        assert all(isinstance(line, str) for line in parsed["derivation"])

    def test_infinite_order_serialises_as_string(self):
        payload = report_to_dict(infer_regularity(parse_kernel("se()")))
        assert payload["per_axis"][0]["order"] == "inf"
        assert payload["sobolev_order"] == "inf"


@settings(max_examples=60, deadline=None)
@given(kernel_trees(allow_tensor=False), kernel_trees(allow_tensor=False))
def test_min_rule_invariants(a, b):
    if a.dim != b.dim:
        return
    ra, rb = infer_regularity(a), infer_regularity(b)
    conic = infer_regularity(Conic((a, b), (1.0, 1.0)))
    product = infer_regularity(Product((a, b)))
    expected = min(ra.order, rb.order)
    assert conic.order == expected
    assert product.order == expected


@settings(max_examples=60, deadline=None)
@given(kernel_trees(allow_tensor=False))
def test_scale_invariance(expr):
    for w in (0.25, 1.0, 7.5):
        scaled = infer_regularity(Conic((expr,), (w,)))
        base = infer_regularity(expr)
        assert scaled.per_axis[0].order == min(r.order for r in base.per_axis)
        assert scaled.sobolev_order == base.sobolev_order


@settings(max_examples=40, deadline=None)
@given(kernel_trees(allow_tensor=False), kernel_trees(allow_tensor=False))
def test_tensor_concatenation(a, b):
    tensor = infer_regularity(TensorProduct((a, b)))
    assert tensor.per_axis == infer_regularity(a).per_axis + infer_regularity(b).per_axis


@settings(max_examples=40, deadline=None)
@given(kernel_trees())
def test_inference_deterministic(expr):
    first = infer_regularity(expr)
    second = infer_regularity(expr)
    assert first == second
