"""Shared strategies and fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

# property tests run the same examples on every invocation
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

from pathreg.kernels import (
    AbsPower,
    Affine,
    Conic,
    Feature,
    Linear,
    Matern,
    Periodic,
    Polynomial,
    Product,
    RationalQuadratic,
    SquaredExponential,
    TensorProduct,
    Warp,
    Wendland,
    Wiener,
)

# values that survive repr round-trips and keep the numerics tame
_nu = st.sampled_from([0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.5])
_ls = st.sampled_from([0.5, 1.0, 2.0])
_rq_a = st.sampled_from([0.5, 1.0, 2.0])
_weight = st.sampled_from([0.5, 1.0, 2.0, 3.0])


def leaf_kernels(include_wiener: bool = True):
    leaves = [
        st.builds(Matern, nu=_nu, lengthscale=_ls),
        # Wendland input dimension equals d; mixed trees here are 1-D
        st.builds(Wendland, d=st.just(1), n=st.sampled_from([0, 1, 2])),
        st.builds(SquaredExponential, lengthscale=_ls),
        st.builds(RationalQuadratic, a=_rq_a, lengthscale=_ls),
        st.builds(Periodic, lengthscale=_ls),
        st.builds(Linear),
        st.builds(Polynomial, m=st.sampled_from([1, 2, 3])),
        st.builds(
            Feature,
            family=st.sampled_from(["monomials", "trig"]),
            degree=st.sampled_from([1, 2, 3]),
        ),
    ]
    if include_wiener:
        leaves.append(st.builds(Wiener))
    return st.one_of(leaves)


def kernel_trees(max_depth: int = 3, include_wiener: bool = True, allow_tensor: bool = True):
    """Recursive strategy over 1-D kernel expressions (plus 2-D tensors)."""

    def extend(children):
        composite = st.one_of(
            st.builds(
                lambda ks, ws: Conic(tuple(ks), tuple(ws[: len(ks)])),
                st.lists(children, min_size=1, max_size=3),
                st.lists(_weight, min_size=3, max_size=3),
            ),
            st.builds(lambda ks: Product(tuple(ks)), st.lists(children, min_size=2, max_size=3)),
            st.builds(
                # positive-preserving affine maps keep Wiener children in-domain
                Warp,
                child=children,
                family=st.builds(
                    Affine, a=st.sampled_from([0.5, 1.0, 2.0]), b=st.sampled_from([0.0, 0.5, 1.0])
                ),
            ),
            st.builds(
                Warp,
                child=children,
                family=st.builds(AbsPower, beta=st.sampled_from([0.25, 0.5, 1.0])),
            ),
        )
        return composite

    tree = st.recursive(leaf_kernels(include_wiener), extend, max_leaves=4)
    if not allow_tensor:
        return tree
    return st.one_of(
        tree,
        st.builds(lambda a, b: TensorProduct((a, b)), tree, tree),
    )


def domain_points(expr, rng: np.random.Generator, count: int) -> np.ndarray:
    """Random points valid for every leaf domain in the tree (kept positive,
    since the Wiener kernel and abs_power warps live on the positive axis)."""
    return rng.uniform(0.1, 2.0, size=(count, expr.dim))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
