"""Kernel tree evaluation semantics, structural classification, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from pathreg.dsl import print_kernel
from pathreg.kernels import (
    LEAVES,
    WARPS,
    AbsPower,
    Affine,
    Conic,
    Derivative,
    DomainError,
    Feature,
    General,
    Isotropic,
    KernelError,
    Linear,
    Matern,
    ParameterError,
    Periodic,
    Polynomial,
    Product,
    RationalQuadratic,
    SquaredExponential,
    Stationary,
    StructureError,
    TensorProduct,
    Warp,
    Wendland,
    Wiener,
    _indices,
    _pairwise,
    classify,
    derivative,
    eval_kernel,
    eval_radial,
    eval_stationary,
    pairwise,
)

from conftest import domain_points, kernel_trees


class TestEvalExamples:
    def test_wiener_is_min(self):
        assert eval_kernel(Wiener(), 1.0, 2.0) == 1.0

    def test_se_on_diagonal(self):
        assert eval_kernel(SquaredExponential(), 0.83, 0.83) == 1.0

    def test_matern_three_halves_unit_distance(self):
        # closed half-integer form (1 + sqrt(3)) e^{-sqrt(3)}
        assert eval_kernel(Matern(nu=1.5), 0.0, 1.0) == pytest.approx(0.4833577246, abs=1e-6)

    def test_lengthscale_rescales_argument(self):
        wide = Matern(nu=1.5, lengthscale=2.0)
        assert eval_kernel(wide, 0.0, 2.0) == pytest.approx(
            eval_kernel(Matern(nu=1.5), 0.0, 1.0), rel=1e-12
        )

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DomainError):
            eval_kernel(SquaredExponential(input_dim=2), 1.0, 2.0)

    def test_wiener_domain_violation(self):
        with pytest.raises(DomainError):
            eval_kernel(Wiener(), 0.0, 1.0)

    def test_tensor_blocks_multiply(self):
        expr = TensorProduct((SquaredExponential(), Wendland(1, 0)))
        x, y = np.array([0.0, 0.2]), np.array([1.0, 0.7])
        expected = math.exp(-1.0) * 0.5
        assert eval_kernel(expr, x, y) == pytest.approx(expected, rel=1e-12)

    def test_warp_applies_componentwise(self):
        expr = Warp(SquaredExponential(), Affine(2.0, 0.0))
        assert eval_kernel(expr, 0.0, 1.0) == pytest.approx(math.exp(-4.0), rel=1e-12)


class TestRadialAndStationary:
    def test_wendland_radial_values(self):
        assert eval_radial(Wendland(1, 0), 0.5) == 0.5
        for dn in [(1, 0), (1, 1), (3, 1)]:
            assert eval_radial(Wendland(*dn), 1.25) == 0.0

    def test_matern_radial_example(self):
        assert eval_radial(Matern(nu=0.5), 1.0) == pytest.approx(0.367879, abs=1e-6)

    def test_radial_on_nonisotropic_raises(self):
        with pytest.raises(StructureError):
            eval_radial(Wiener(), 1.0)
        with pytest.raises(StructureError):
            eval_radial(Periodic(), 1.0)

    def test_stationary_on_general_raises(self):
        with pytest.raises(StructureError):
            eval_stationary(Wiener(), 1.0)

    def test_periodic_lag_profile(self):
        expr = Periodic()
        h = 0.37
        assert eval_stationary(expr, h) == pytest.approx(
            math.exp(-math.sin(math.pi * h) ** 2), rel=1e-12
        )
        assert eval_stationary(expr, 1.0) == pytest.approx(1.0, rel=1e-12)

    # d_x d_y e^-(x-y)^2 = (2 - 4 h^2) e^-h^2 at lag h = x - y
    def test_derivative_lag_profile(self):
        expr = Derivative(SquaredExponential(), (1,))
        for h in (0.0, 0.37, -1.2):
            assert eval_stationary(expr, h) == pytest.approx(
                (2.0 - 4.0 * h * h) * math.exp(-h * h), rel=1e-14, abs=1e-300
            )
            assert eval_stationary(expr, h) == pairwise(expr, [[h]], [[0.0]])[0, 0]


class TestClassify:
    def test_leaf_table(self):
        assert isinstance(classify(Matern(nu=1.0)), Isotropic)
        assert isinstance(classify(Wendland(1, 1)), Isotropic)
        assert isinstance(classify(SquaredExponential()), Isotropic)
        assert isinstance(classify(RationalQuadratic(a=1.0)), Isotropic)
        cls = classify(Periodic())
        assert isinstance(cls, Stationary) and not isinstance(cls, Isotropic)
        assert type(classify(Wiener())) is General

    def test_closure_rules(self):
        iso = Conic((SquaredExponential(), Matern(nu=1.5)), (1.0, 1.0))
        assert isinstance(classify(iso), Isotropic)
        stat = Product((Periodic(), SquaredExponential()))
        cls = classify(stat)
        assert isinstance(cls, Stationary) and not isinstance(cls, Isotropic)
        assert type(classify(Conic((Wiener(), SquaredExponential()), (1.0, 1.0)))) is General
        assert type(classify(Warp(SquaredExponential(), Affine(1.0, 0.0)))) is General

    def test_tensor_product_is_general_at_any_depth(self):
        # a tensor of isotropic factors is not stationary, whether it is the
        # whole expression or sits under a conic or product node
        expr = TensorProduct((Wendland(1, 0), Wendland(1, 1)))
        assert type(classify(expr)) is General
        assert type(classify(Conic((expr,), (2.0,)))) is General
        assert type(classify(Product((expr, expr)))) is General


class TestDerivative:
    # a derivative of a stationary child is stationary (never isotropic)
    # with one input, and general otherwise
    @pytest.mark.parametrize(
        "child, alpha, structure",
        [
            (SquaredExponential(), (1,), Stationary),
            (Product((Periodic(), Matern(2.5))), (1,), Stationary),
            (SquaredExponential(input_dim=2), (1, 0), General),
            (Linear(), (1,), General),
            (Warp(SquaredExponential(), Affine(2.0, 0.0)), (1,), General),
        ],
    )
    def test_classify(self, child, alpha, structure):
        assert type(classify(Derivative(child, alpha))) is structure

    # the lag profile is (-1)^|alpha| phi^(2 alpha): its j-th derivative
    # exists at the origin where the child's (j + 2|alpha|)-th does
    def test_lag_exists_shifts_the_childs(self):
        assert Derivative(Matern(2.5), (1,)).lag_exists(3).tolist() == [True, True, True, False]
        assert Derivative(Matern(1.5), (1,)).lag_exists(2).tolist() == [True, False, False]
        assert Derivative(Wendland(1, 2), (2,)).lag_exists(2).tolist() == [True, False, False]

    def test_constructor(self):
        se, m = SquaredExponential(), Matern(1.5)
        assert derivative(se, 0) is se
        assert derivative(TensorProduct((se, m)), 0) == TensorProduct((se, m))
        assert derivative(se, 2) == Derivative(se, (2,))
        assert derivative(TensorProduct((se, m)), (0, 1)) == TensorProduct((se, Derivative(m, (1,))))
        assert Derivative(se, 1).alpha == (1,)
        assert Derivative(SquaredExponential(input_dim=2), np.array([1, 0])).alpha == (1, 0)
        assert derivative(SquaredExponential(input_dim=2), 0) == SquaredExponential(input_dim=2)

    @pytest.mark.parametrize("alpha", [(1,), 1, (1, 0, 0), (1, -1), -1])
    def test_multi_index_checked(self, alpha):
        message = f"a multi-index is 2 non-negative integers, got {alpha!r}"
        for build in (derivative, Derivative):
            with pytest.raises(DomainError) as err:
                build(SquaredExponential(input_dim=2), alpha)
            assert str(err.value) == message


class TestValidation:
    def test_parameter_ranges(self):
        with pytest.raises(ParameterError):
            Matern(nu=-1.0)
        with pytest.raises(ParameterError):
            Matern(nu=1.0, lengthscale=0.0)
        with pytest.raises(ParameterError):
            Wendland(1, -1)
        with pytest.raises(ParameterError):
            RationalQuadratic(a=0.0)
        with pytest.raises(ParameterError):
            Conic((Wiener(),), (-1.0,))
        with pytest.raises(ParameterError):
            AbsPower(1.5)
        with pytest.raises(ParameterError):
            Affine(1.0, math.inf)

    # a family that is no WARPS instance once constructed, and failed
    # only later, in print_kernel, pairwise or infer_regularity
    @pytest.mark.parametrize("family", ["affine", SquaredExponential()])
    def test_warp_checks_its_family(self, family):
        with pytest.raises(KernelError, match="warp family must be one of affine, abs_power"):
            Warp(SquaredExponential(), family)

    def test_dimension_consistency(self):
        with pytest.raises(DomainError, match=r"conic children disagree on input dimension: \[1, 2\]"):
            Conic((SquaredExponential(), SquaredExponential(input_dim=2)), (1.0, 1.0))
        with pytest.raises(DomainError, match=r"product children disagree on input dimension: \[1, 2\]"):
            Product((SquaredExponential(input_dim=2), SquaredExponential()))
        tensor = TensorProduct((SquaredExponential(), SquaredExponential(input_dim=2)))
        assert tensor.dim == 3


@settings(max_examples=40, deadline=None)
@given(kernel_trees())
def test_symmetry_invariant(expr):
    rng = np.random.default_rng(7)
    pts = domain_points(expr, rng, 6)
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            a = eval_kernel(expr, pts[i], pts[j])
            b = eval_kernel(expr, pts[j], pts[i])
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(kernel_trees())
def test_positive_semidefinite_invariant(expr):
    rng = np.random.default_rng(11)
    pts = domain_points(expr, rng, 16)
    gram = pairwise(expr, pts, pts)
    gram = (gram + gram.T) / 2.0
    eigs = np.linalg.eigvalsh(gram)
    norm = max(abs(eigs[0]), abs(eigs[-1]))
    assert eigs[0] >= -1e-8 * max(norm, 1e-30)


@settings(max_examples=30, deadline=None)
@given(kernel_trees(include_wiener=False, allow_tensor=False))
def test_stationary_shift_invariance(expr):
    if not isinstance(classify(expr), Stationary):
        return
    rng = np.random.default_rng(13)
    x, y = rng.uniform(0.1, 2.0, size=2)
    for shift in rng.uniform(-1.0, 1.0, size=3):
        a = eval_kernel(expr, x, y)
        b = eval_kernel(expr, x + shift, y + shift)
        assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


def test_isotropy_rotation_invariance(rng):
    expr = Conic((SquaredExponential(input_dim=2), Matern(nu=1.5, input_dim=2)), (0.5, 2.0))
    assert isinstance(classify(expr), Isotropic)
    theta = 0.83
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    for _ in range(5):
        x = rng.uniform(-1, 1, size=2)
        y = rng.uniform(-1, 1, size=2)
        a = eval_kernel(expr, x, y)
        b = eval_kernel(expr, rot @ x, rot @ y)
        assert b == pytest.approx(a, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(kernel_trees(include_wiener=False, allow_tensor=False))
def test_radial_consistency(expr):
    if not isinstance(classify(expr), Isotropic):
        return
    rng = np.random.default_rng(17)
    for _ in range(3):
        x, y = rng.uniform(0.0, 2.0, size=2)
        direct = eval_kernel(expr, x, y)
        radial = eval_radial(expr, abs(x - y))
        assert radial == pytest.approx(direct, rel=1e-12, abs=1e-12)
        stationary = eval_stationary(expr, x - y)
        assert stationary == pytest.approx(direct, rel=1e-12, abs=1e-12)


# one instance of each leaf class
LEAF_EXAMPLES = [
    Matern(nu=1.5), Wendland(1, 1), SquaredExponential(), RationalQuadratic(a=2.0), Periodic(),
    Wiener(), Linear(), Polynomial(m=2), Feature("trig", 2),
]


# a sum or product combines its children's values in place, so each value
# must be a new array: one that aliased the points or another value would
# overwrite the caller's points or the value it aliases
@pytest.mark.parametrize("leaf", LEAF_EXAMPLES, ids=lambda leaf: leaf.name)
def test_fold_owns_its_values(leaf):
    assert {type(k) for k in LEAF_EXAMPLES} == set(LEAVES)
    X = np.linspace(0.1, 2.0, 5)[:, None]
    Y = np.linspace(0.3, 1.5, 4)[:, None]
    alone = pairwise(leaf, X.copy(), Y.copy())
    expected = [alone, 2.0 * alone + 3.0 * alone, alone * alone]
    for expr, want in zip([leaf, Conic((leaf, leaf), (2.0, 3.0)), Product((leaf, leaf))], expected):
        x, y = X.copy(), Y.copy()
        values = pairwise(expr, x, y)
        assert not np.shares_memory(values, x) and not np.shares_memory(values, y)
        assert x.tobytes() == X.tobytes() and y.tobytes() == Y.tobytes()
        assert values.tobytes() == want.tobytes()


# --- leading batch dimensions ---------------------------------------------------

# every leaf class (both feature families, and 2-D leaves), every combinator
# and a warp over every family, alone and inside a tensor
BATCH_EXAMPLES = [
    *LEAF_EXAMPLES,
    Feature("monomials", 3), Matern(nu=0.5, input_dim=2), Wendland(2, 1), Linear(input_dim=2),
    Polynomial(m=2, input_dim=2),
    Conic((Matern(nu=2.5), Linear(), Wiener()), (1.0, 2.0, 0.5)),
    Product((SquaredExponential(), Periodic(), Polynomial(m=1))),
    TensorProduct((Matern(nu=0.5), Matern(nu=1.5))),
    TensorProduct((Wendland(1, 2), Warp(Feature("trig", 1), AbsPower(0.5)), Linear(input_dim=2))),
    Warp(Matern(nu=1.5), Affine(2.0, 0.5)),
    Warp(Matern(nu=1.5), AbsPower(0.5)),
    Warp(Conic((Wiener(), RationalQuadratic(a=1.0)), (1.0, 1.0)), Affine(-0.5, 3.0)),
    Warp(Matern(nu=2.5, input_dim=2), AbsPower(0.25)),
]


def _batch_points(dim, batch, n, m):
    # points in (0.1, 2], with a repeated point in each member so that the
    # zero lag, where some partials do not exist, is among the entries
    rng = np.random.default_rng(7)
    X = rng.uniform(0.1, 2.0, size=(*batch, n, dim))
    Y = rng.uniform(0.1, 2.0, size=(*batch, m, dim))
    Y[..., 0, :] = X[..., -1, :]
    return X, Y


@pytest.mark.parametrize("expr", BATCH_EXAMPLES, ids=print_kernel)
@pytest.mark.parametrize("batch, n, m", [((3,), 4, 3), ((2, 2), 1, 1), ((5,), 1, 1), ((2, 1, 2), 2, 5)])
def test_batched_members_equal_their_2d_calls(expr, batch, n, m):
    kinds = {type(k) for k in BATCH_EXAMPLES}
    assert set(LEAVES) | {Conic, Product, TensorProduct, Warp} <= kinds
    assert {type(k.family) for k in BATCH_EXAMPLES if isinstance(k, Warp)} == set(WARPS)
    X, Y = _batch_points(expr.dim, batch, n, m)
    alpha, beta = (2,) * expr.dim, (1,) * expr.dim
    values = _pairwise(expr, X, Y)
    jet = expr.jet(X, Y, alpha, beta)
    assert values.shape == (*batch, n, m)
    assert set(jet) == {(a, b) for a in _indices(alpha) for b in _indices(beta)}
    for member in np.ndindex(*batch):
        assert values[member].tobytes() == _pairwise(expr, X[member], Y[member]).tobytes()
        single = expr.jet(X[member], Y[member], alpha, beta)
        for key, (value, scale) in jet.items():
            assert value[member].tobytes() == single[key][0].tobytes(), (member, key)
            assert scale[member].tobytes() == single[key][1].tobytes(), (member, key)
