"""Gram assembly, jittered factorisation, reproducible draws, serialisation."""

import hashlib
import inspect
import io
import itertools
import json
import math
import random
import struct
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathreg import sampling
from pathreg.cli import main
from pathreg.dsl import parse_kernel
from pathreg.kernels import DomainError, KernelError, Stationary, classify, pairwise
from pathreg.sampling import (
    _DRAW_BLOCK,
    Axis,
    FactorizationError,
    Grid,
    PathSamples,
    build_gram,
    cholesky_with_jitter,
    read_samples_csv,
    sample_derivative_paths,
    sample_paths,
    write_samples,
    write_samples_csv,
    write_sidecar,
)
from pathreg.verify import derivative_kernel_matrix

_DESK_GRID = Grid((Axis(0.25, 1.25, 4097),))


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Axis(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            Axis(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Grid((Axis(0, 1, 200), Axis(0, 1, 200)))  # above the dense cap

    # a non-finite end or spacing once gave a NaN lag column, on which the
    # Schur jitter ladder never stopped
    @pytest.mark.parametrize(
        "start, stop",
        [(0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308), (math.nan, 1.0), (0.0, math.nan)],
    )
    def test_non_finite_axis_rejected(self, start, stop):
        with pytest.raises(ValueError, match="axis needs"):
            Axis(start, stop, 9)

    def test_row_major_flattening(self):
        grid = Grid((Axis(0.0, 1.0, 2), Axis(0.0, 1.0, 3)))
        pts = grid.points()
        assert pts.shape == (6, 2)
        assert pts[0].tolist() == [0.0, 0.0]
        assert pts[1].tolist() == [0.0, 0.5]
        assert pts[3].tolist() == [1.0, 0.0]


class TestBuildGram:
    def test_wiener_min_table(self):
        grid = Grid((Axis(1.0, 3.0, 3),))
        gram = build_gram(parse_kernel("wiener()"), grid)
        assert gram.tolist() == [[1, 1, 1], [1, 2, 2], [1, 2, 3]]

    def test_se_three_points(self):
        grid = Grid((Axis(0.0, 2.0, 3),))
        gram = build_gram(parse_kernel("se()"), grid)
        assert np.allclose(np.diag(gram), 1.0)
        assert gram[0, 2] == pytest.approx(math.exp(-4.0), rel=1e-12)

    def test_bitwise_symmetry(self):
        grid = Grid((Axis(0.1, 2.0, 40),))
        gram = build_gram(parse_kernel("matern(nu=1.5) + wiener()"), grid)
        assert np.array_equal(gram, gram.T)

    # the pointwise path mirrors its strict upper triangle in place; the
    # reference is the triangle sum it replaced, over the same row blocks.
    # Across the origin the linear kernel has -0.0 entries, which that sum
    # turned into +0.0
    @pytest.mark.parametrize("text", ["linear()", "2*se() + linear()"])
    @pytest.mark.parametrize("grid", [Grid((Axis(0.25, 1.25, 1025),)), Grid((Axis(-1.0, 1.0, 1025),))])
    def test_pointwise_mirror_matches_triangle_sum(self, text, grid, monkeypatch):
        expr = parse_kernel(text)
        gram = build_gram(expr, grid)
        assemble = sampling._assemble_gram

        def triangle_sum(expr, grid, cross):
            if isinstance(classify(expr), Stationary):
                return assemble(expr, grid, cross)
            pts = grid.points()
            n = pts.shape[0]
            full = np.empty((n, n))
            for lo in range(0, n, sampling._GRAM_BLOCK_ROWS):
                full[lo : lo + sampling._GRAM_BLOCK_ROWS] = cross(
                    pts[lo : lo + sampling._GRAM_BLOCK_ROWS], pts
                )
            return np.triu(full) + np.triu(full, 1).T

        monkeypatch.setattr(sampling, "_assemble_gram", triangle_sum)
        assert gram.tobytes() == build_gram(expr, grid).tobytes()

    def test_pointwise_mirror_copies_upper_triangle(self):
        # kernel values are symmetric bitwise, so an asymmetric cross shows
        # which triangle is kept, across several row blocks
        grid = Grid((Axis(-1.0, 1.0, 2 * sampling._GRAM_BLOCK_ROWS + 52),))
        pts = grid.points()

        def cross(X, Y):
            return X[:, 0, None] - 2.0 * Y[None, :, 0]

        full = cross(pts, pts)
        gram = sampling._assemble_gram(parse_kernel("linear()"), grid, cross)
        assert gram.tobytes() == (np.triu(full) + np.triu(full, 1).T).tobytes()

    # each row block evaluates its entries from the diagonal block on, about
    # half the Gram; evaluating whole rows and mirroring over the left part
    # evaluated all n^2 entries
    def test_pointwise_gram_evaluates_upper_part(self):
        grid = Grid((Axis(0.25, 1.25, 1025),))
        expr = parse_kernel("linear()")
        entries = []

        def cross(X, Y):
            entries.append(X.shape[0] * Y.shape[0])
            return pairwise(expr, X, Y)

        gram = sampling._assemble_gram(expr, grid, cross)
        n = grid.n_points
        rows = min(sampling._GRAM_BLOCK_ROWS, -(-n // 8))
        assert sum(entries) <= (n * n + n * rows) // 2
        assert gram.tobytes() == build_gram(expr, grid).tobytes()

    def test_pointwise_gram_peak_memory(self):
        # the Gram plus one fill block (an eighth of the rows here); the
        # triangle sum peaked at over three Gram sizes
        grid = Grid((Axis(0.25, 1.25, 4097),))
        expr = parse_kernel("linear()")
        tracemalloc.start()
        try:
            gram = build_gram(expr, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * gram.nbytes

    # a sum or product folds its children's Grams in place and frees each
    # before the next is built, so three children hold the sum, one child's
    # Gram and a fill block; keeping the previous child's Gram read 3.13
    @pytest.mark.parametrize("text", ["wiener() + linear() + 2*wiener()", "linear() * wiener() * linear()"])
    def test_fold_peak_memory(self, text):
        grid = Grid((Axis(0.25, 1.25, 2049),))
        expr = parse_kernel(text)
        tracemalloc.start()
        try:
            gram = build_gram(expr, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * gram.nbytes

    def test_pointwise_gram_block_is_an_eighth(self):
        # below 8 * _GRAM_BLOCK_ROWS points the fill block is capped at n/8
        # rows; a block of _GRAM_BLOCK_ROWS rows made this 2.0 Gram sizes
        grid = Grid((Axis(0.25, 1.25, 1025),))
        tracemalloc.start()
        try:
            gram = build_gram(parse_kernel("linear()"), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * gram.nbytes

    # stationary Grams are gathered from a lag table; the pointwise
    # evaluation of the same expression is the reference
    @pytest.mark.parametrize(
        "text, grid",
        [
            (text, grid)
            for text in (
                "matern(nu=0.5)",
                "matern(nu=2.5)",
                "matern(nu=3.5)",
                "wendland(d=1,n=1)",
                "se(lengthscale=0.3)",
                "rq(a=2)",
                "periodic(lengthscale=0.7)",
                "matern(nu=0.5) + 2*wendland(d=1,n=2)",
                "matern(nu=1.5) * periodic()",
            )
            for grid in (
                Grid((Axis(0.25, 1.25, 1025),)),
                Grid((Axis(0.0, 3.0, 700),)),
            )
        ]
        + [("matern(nu=1.5,dim=2)", Grid((Axis(0.0, 1.0, 9), Axis(-1.0, 2.0, 7))))],
    )
    def test_lag_table_matches_pairwise(self, text, grid):
        expr = parse_kernel(text)
        gram = build_gram(expr, grid)
        pts = grid.points()
        assert np.max(np.abs(gram - pairwise(expr, pts, pts))) <= 1e-12
        assert np.array_equal(gram, gram.T)

    # non-stationary composites are assembled from their children's Grams;
    # the pointwise evaluation of the whole expression is the reference
    @pytest.mark.parametrize(
        "text, grid",
        [
            (text, grid)
            for text in (
                "matern(nu=1.5) + wiener()",
                "matern(nu=0.5) * wiener()",
                "(se() + wiener()) * matern(nu=1.5)",
                "2*se() + linear()",
            )
            for grid in (
                Grid((Axis(0.25, 1.25, 1025),)),
                Grid((Axis(0.1, 3.0, 700),)),
            )
        ],
    )
    def test_per_term_gram_matches_pairwise(self, text, grid):
        expr = parse_kernel(text)
        gram = build_gram(expr, grid)
        pts = grid.points()
        reference = pairwise(expr, pts, pts)
        assert np.max(np.abs(gram - reference)) <= 1e-12 * np.max(np.abs(reference))
        assert np.array_equal(gram, gram.T)

    def test_domain_violation_propagates(self):
        with pytest.raises(DomainError):
            build_gram(parse_kernel("wiener()"), Grid((Axis(0.0, 1.0, 5),)))

    def test_dimension_mismatch(self):
        with pytest.raises(KernelError):
            build_gram(parse_kernel("se(dim=2)"), Grid((Axis(0.0, 1.0, 5),)))


@pytest.mark.parametrize(
    "fn, params",
    [
        (cholesky_with_jitter, ["matrix"]),
        (sample_derivative_paths, ["expr", "alpha", "grid", "count", "seed"]),
    ],
)
def test_no_unused_parameters(fn, params):
    # the jitter budget is fixed at _MAX_REL_JITTER; derivative paths take
    # exact partials, so no difference step
    assert list(inspect.signature(fn).parameters) == params


class TestCholeskyWithJitter:
    def test_identity_no_jitter(self):
        lower, jitter = cholesky_with_jitter(np.eye(4))
        assert jitter == 0.0
        assert np.array_equal(lower, np.eye(4))

    def test_wiener_gram_positive_definite(self):
        gram = build_gram(parse_kernel("wiener()"), Grid((Axis(1.0, 3.0, 3),)))
        _lower, jitter = cholesky_with_jitter(gram)
        assert jitter == 0.0

    def test_rank_one_needs_jitter(self):
        lower, jitter = cholesky_with_jitter(np.ones((3, 3)))
        assert 0.0 < jitter <= 1e-6
        rebuilt = lower @ lower.T
        assert np.allclose(rebuilt, np.ones((3, 3)) + jitter * np.eye(3))

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_ladder_needs_a_positive_finite_scale(self, scale):
        # a NaN or infinite scale once kept the ladder climbing forever
        calls = []

        def never_factors(jitter):
            calls.append(jitter)
            if len(calls) > 100:
                raise RuntimeError("the ladder did not stop")
            raise np.linalg.LinAlgError

        with pytest.raises(FactorizationError, match="is not positive and finite"):
            sampling._jitter_ladder(never_factors, np.full(3, scale))
        assert calls == []

    def test_indefinite_exceeds_budget(self):
        bad = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(FactorizationError):
            cholesky_with_jitter(bad)
        assert np.array_equal(bad, [[1.0, 0.0], [0.0, -1.0]])

    # the jitter goes onto the diagonal in place instead of into a shifted
    # copy; the factor must be that of the copy and the input left as it was
    def test_jittered_factor_equals_shifted_copy(self):
        gram = build_gram(parse_kernel("se()"), Grid((Axis(0.0, 1.0, 129),)))
        before = gram.copy()
        lower, jitter = cholesky_with_jitter(gram)
        assert jitter > 0.0
        assert np.array_equal(gram, before)
        expected = np.linalg.cholesky(before + jitter * np.eye(len(before)))
        assert np.array_equal(lower, expected)

    def test_read_only_input(self):
        ones = np.ones((3, 3))
        ones.setflags(write=False)
        lower, jitter = cholesky_with_jitter(ones)
        assert jitter > 0.0
        assert np.array_equal(lower, np.linalg.cholesky(ones + jitter * np.eye(3)))


def _dense_schur(column, jitter):
    """The reference: the generalised Schur algorithm holding its whole
    upper factor, returned as the lower factor of T + jitter I."""
    n = column.shape[0]
    t0 = column[0] + jitter
    if not t0 > 0.0:
        raise np.linalg.LinAlgError("Toeplitz matrix is not positive definite")
    upper = np.zeros((n, n))
    u = upper[0]
    u[0] = t0
    u[1:] = column[1:]
    u /= math.sqrt(t0)
    v = u.copy()
    v[0] = 0.0
    work = np.empty(n)
    for k in range(1, n):
        shifted = upper[k - 1, k - 1:n - 1]
        vk = v[k:]
        rho = vk[0] / shifted[0]
        if not abs(rho) < 1.0:
            raise np.linalg.LinAlgError("Toeplitz matrix is not positive definite")
        c = math.sqrt((1.0 - rho) * (1.0 + rho))
        row = upper[k, k:]
        w = work[: n - k]
        np.multiply(vk, rho, out=w)
        np.subtract(shifted, w, out=row)
        np.divide(row, c, out=row)
        np.multiply(row, rho, out=w)
        np.multiply(vk, c, out=vk)
        np.subtract(vk, w, out=vk)
    return upper.T


def _dense_toeplitz_cholesky(column):
    diag = np.full(column.shape[0], column[0])
    return sampling._jitter_ladder(lambda jitter: _dense_schur(column, jitter), diag)


def _table_source(z):
    # a normal source serving the blocks of a table of normals
    return lambda r0, r1, k0, k1: z[r0:r1, k0:k1].copy()


def _reflection_column(n, reflections):
    """The first column of the Toeplitz matrix whose partial
    autocorrelations (Schur reflection coefficients) are ``reflections``
    ({lag: value}, 0 elsewhere), by the inverse Durbin-Levinson recursion."""
    column = np.zeros(n)
    column[0] = variance = 1.0
    coefficients = np.zeros(0)
    for k in range(1, n):
        phi = reflections.get(k, 0.0)
        column[k] = phi * variance + coefficients @ column[k - 1:0:-1]
        coefficients = np.concatenate([coefficients - phi * coefficients[::-1], [phi]])
        variance *= 1.0 - phi * phi
    return column


class TestToeplitzCholesky:
    # the streamed Schur draws of the lag column against the dense Schur
    # factor and the gathered Toeplitz Gram; 60 draws end in a short block
    @pytest.mark.parametrize(
        "text, grid",
        [
            (text.format(ls), grid)
            for text in (
                "matern(nu=0.5,lengthscale={})",
                "matern(nu=1.5,lengthscale={})",
                "matern(nu=2,lengthscale={})",
                "matern(nu=2.5,lengthscale={})",
                "wendland(d=1,n=1,lengthscale={})",
                "se(lengthscale={})",
                "rq(a=2,lengthscale={})",
                "periodic(lengthscale={})",
                "matern(nu=0.5,lengthscale={0}) + 2*wendland(d=1,n=2,lengthscale={0})",
                "matern(nu=1.5,lengthscale={0}) * periodic(lengthscale={0})",
            )
            for ls in ("0.1", "1", "10")
            for grid in (
                Grid((Axis(0.25, 1.25, 1025),)),
                Grid((Axis(0.0, 3.0, 700),)),
                Grid((Axis(0.0, 1.0, 257),)),
            )
        ],
    )
    def test_residual_within_first_jitter_rung(self, text, grid):
        gram = build_gram(parse_kernel(text), grid)
        draw = sampling._toeplitz_draws(gram[:, 0])
        lower, jitter = sampling._lower_factor(draw, grid.n_points)
        reference, reference_jitter = _dense_toeplitz_cholesky(gram[:, 0])
        assert jitter == reference_jitter
        assert np.array_equal(lower, reference)
        z = np.random.default_rng(grid.n_points).standard_normal((2 * _DRAW_BLOCK, grid.n_points))
        draws, _jitter = draw(_table_source(z), 60)
        assert np.max(np.abs(draws - z[:60] @ reference.T)) <= 1e-12 * np.max(np.abs(draws))
        assert np.array_equal(lower, np.tril(lower))
        shifted = gram + jitter * np.eye(grid.n_points)
        assert np.max(np.abs(lower @ lower.T - shifted)) <= 1e-12 * gram[0, 0]

    # the benchmark's stationary kernels keep the dense path's jitter
    @pytest.mark.parametrize(
        "text, grid",
        [
            (text, Grid((Axis(0.25, 1.25, 4097),)))
            for text in ("matern(nu=0.5)", "matern(nu=2.5)", "se()")
        ]
        + [
            (text, Grid((Axis(0.25, 1.25, 1025),)))
            for text in ("matern(nu=1.5,lengthscale=0.1)", "matern(nu=2,lengthscale=0.1)")
        ]
        + [
            (text, Grid((Axis(0.0, 1.0, 128),)))
            for text in (
                "wendland(d=1,n=0)",
                "wendland(d=1,n=1)",
                "matern(nu=0.5)",
                "matern(nu=1.5)",
            )
        ],
    )
    def test_jitter_equals_dense(self, text, grid):
        expr = parse_kernel(text)
        _lower, jitter = cholesky_with_jitter(build_gram(expr, grid))
        assert sample_paths(expr, grid, 1, 0).jitter_used == jitter

    def test_derivative_jitter_equals_dense(self):
        expr = parse_kernel("matern(nu=1.5)")
        grid = Grid((Axis(0.25, 1.25, 2049),))
        gram = sampling._assemble_gram(
            expr, grid, lambda X, Y: derivative_kernel_matrix(expr, 1, X, Y=Y)
        )
        _lower, jitter = cholesky_with_jitter(gram)
        assert sample_derivative_paths(expr, 1, grid, 1, 0).jitter_used == jitter

    @pytest.mark.parametrize("column", [[1.0, 2.0], [-1.0, 0.5], [1.0, 0.9, 0.9, -0.9]])
    def test_indefinite_column_raises_dense_message(self, column):
        toeplitz = np.array([[column[abs(i - j)] for j in range(len(column))]
                             for i in range(len(column))])
        with pytest.raises(FactorizationError) as dense:
            cholesky_with_jitter(toeplitz)
        with pytest.raises(FactorizationError) as schur:
            sampling._lower_factor(sampling._toeplitz_draws(np.array(column)), len(column))
        assert str(schur.value) == str(dense.value)

    # partial autocorrelation 1 + 1e-12 at lag 300 makes the rungs below
    # 1e-11 fail at row 300, after the Schur blocks below it have been
    # added: each retry restarts the normals' streams at column 0, and the
    # last matches a fresh attempt
    def test_failed_rung_restarts_the_normals(self):
        column = _reflection_column(400, {1: 0.5, 300: 1.0 + 1e-12})
        source = sampling._seeded_normals(5)
        starts = []

        def normals(r0, r1, k0, k1):
            starts.append(k0)
            return source(r0, r1, k0, k1)

        draws, jitter = sampling._toeplitz_draws(column)(normals, 60)
        assert jitter == 1e-11
        blocks = sampling._schur_blocks(400)
        failed = [k0 for k0, size in blocks if k0 + size <= 300]
        assert failed, "no Schur block is added before row 300"
        assert starts == 2 * failed + [k0 for k0, _size in blocks]
        fresh = sampling._schur(column, jitter, sampling._seeded_normals(5), 60)
        assert np.array_equal(draws, fresh)

    # the Wiener kernel's exact factor, its running sums of the identity,
    # against LAPACK's on its dense Gram: bitwise where every increment is a
    # power of two.  Draws sum in another order than a BLAS product does
    @pytest.mark.parametrize(
        "grid, rel",
        [
            (Grid((Axis(0.25, 1.25, 4097),)), 0.0),
            (Grid((Axis(0.1, 3.0, 700),)), 1e-13),
            (Grid((Axis(0.5, 40.0, 1000),)), 1e-13),
        ],
    )
    def test_brownian_factor_matches_dense(self, grid, rel):
        expr = parse_kernel("wiener()")
        draw = sampling._factorise(expr, grid, (0,))
        lower, jitter = sampling._lower_factor(draw, grid.n_points)
        dense, dense_jitter = cholesky_with_jitter(build_gram(expr, grid))
        assert jitter == dense_jitter == 0.0
        assert np.max(np.abs(lower - dense)) <= rel * np.max(np.abs(dense))
        z = np.random.default_rng(grid.n_points).standard_normal((2 * _DRAW_BLOCK, grid.n_points))
        draws, _jitter = draw(_table_source(z), 60)
        assert np.max(np.abs(draws - z[:60] @ dense.T)) <= 1e-13 * np.max(np.abs(draws))

    # the dense operator adds LAPACK's upper factor into zeroed draws as one
    # block of factor rows: its factor is LAPACK's exactly, and its draws
    # are z L^T up to the rounding of the column spans past 1024 points
    @pytest.mark.parametrize("n", [257, 1025])
    def test_dense_draws_are_factor_products(self, n):
        expr = parse_kernel("linear() + se()")
        grid = Grid((Axis(0.0, 1.0, n),))
        draw = sampling._factorise(expr, grid, (0,))
        lower, jitter = sampling._lower_factor(draw, n)
        dense, dense_jitter = cholesky_with_jitter(build_gram(expr, grid))
        assert jitter == dense_jitter
        assert np.array_equal(lower, dense)
        z = np.random.default_rng(n).standard_normal((2 * _DRAW_BLOCK, n))
        draws, _jitter = draw(_table_source(z), 60)
        assert np.max(np.abs(draws - z[:60] @ dense.T)) <= 1e-13 * np.max(np.abs(draws))

    # the 1-D stationary paths factor the lag column and the Wiener kernel
    # has an exact factor; a dense Gram is waste
    def test_no_dense_gram(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense Gram built")

        monkeypatch.setattr(sampling, "build_gram", refuse)
        monkeypatch.setattr(sampling, "_assemble_gram", refuse)
        monkeypatch.setattr(sampling, "cholesky_with_jitter", refuse)
        grid = Grid((Axis(0.25, 1.25, 65),))
        sample_paths(parse_kernel("matern(nu=1.5)"), grid, 2, 1)
        sample_derivative_paths(parse_kernel("se()"), 1, grid, 2, 1)
        sample_paths(
            parse_kernel("tensor(se(), matern(nu=0.5))"),
            Grid((Axis(0.0, 1.0, 9), Axis(0.0, 1.0, 7))),
            2,
            1,
        )
        sample_paths(parse_kernel("wiener()"), grid, 2, 1)
        sample_paths(
            parse_kernel("tensor(wiener(), se())"),
            Grid((Axis(0.5, 1.0, 9), Axis(0.0, 1.0, 7))),
            2,
            1,
        )


class TestSamplePaths:
    def test_bitwise_reproducibility(self):
        grid = Grid((Axis(0.0, 1.0, 65),))
        expr = parse_kernel("se()")
        a = sample_paths(expr, grid, 4, 123)
        b = sample_paths(expr, grid, 4, 123)
        assert np.array_equal(a.samples, b.samples)
        c = sample_paths(expr, grid, 4, 124)
        assert not np.array_equal(a.samples, c.samples)

    # n >= 257 and counts on both sides of a block boundary: a product's
    # leading rows are not bitwise those of a shorter product there
    @pytest.mark.parametrize(
        "draw",
        [
            lambda c: sample_paths(parse_kernel("se()"), Grid((Axis(0.0, 1.0, 257),)), c, 9),
            lambda c: sample_paths(
                parse_kernel("tensor(se(), matern(nu=1.5))"),
                Grid((Axis(0.0, 1.0, 17), Axis(0.0, 1.0, 16))),
                c,
                9,
            ),
            lambda c: sample_derivative_paths(
                parse_kernel("se()"), 1, Grid((Axis(0.0, 1.0, 257),)), c, 9
            ),
            lambda c: sample_paths(
                parse_kernel("wiener()"), Grid((Axis(0.1, 3.0, 257),)), c, 9
            ),
            # three Schur blocks, whose normals are streamed by columns
            lambda c: sample_paths(
                parse_kernel("matern(nu=1.5)"), Grid((Axis(0.0, 1.0, 600),)), c, 9
            ),
            lambda c: sample_paths(
                parse_kernel("linear() + se()"), Grid((Axis(0.0, 1.0, 257),)), c, 9
            ),
        ],
        ids=["dense", "kronecker", "derivative", "wiener", "schur", "pointwise"],
    )
    def test_draws_keyed_independently_of_count(self, draw):
        few = draw(2)
        many = draw(_DRAW_BLOCK + 3)
        assert np.array_equal(few.samples, many.samples[:2])
        assert np.array_equal(draw(_DRAW_BLOCK + 1).samples, many.samples[: _DRAW_BLOCK + 1])

    # only a BLAS product pads its last block of draws: an operator that
    # overwrites its normals row by row asks for the count rows alone
    @pytest.mark.parametrize(
        "text, grid",
        [
            ("wiener()", Grid((Axis(0.1, 3.0, 257),))),
            ("tensor(se(), matern(nu=1.5))", Grid((Axis(0.0, 1.0, 17), Axis(0.0, 1.0, 16)))),
        ],
        ids=["wiener", "kronecker"],
    )
    def test_unpadded_operators_take_count_rows(self, text, grid):
        source = sampling._seeded_normals(9)
        asked = []

        def normals(r0, r1, k0, k1):
            asked.append((r0, r1))
            return source(r0, r1, k0, k1)

        count = _DRAW_BLOCK + 1
        draws, _jitter = sampling._factorise(parse_kernel(text), grid, (0,) * grid.dim)(
            normals, count
        )
        assert asked == [(0, count)]
        assert draws.shape == (count, grid.n_points)

    # a draw's table holds its count rows alone, not a view of a table
    # padded to whole draw blocks
    @pytest.mark.parametrize(
        "text, grid, alpha",
        [
            ("matern(nu=1.5)", _DESK_GRID, 0),
            ("wiener()", _DESK_GRID, 0),
            ("matern(nu=1.5)", Grid((Axis(0.25, 1.25, 2049),)), 1),
            ("linear() + se()", Grid((Axis(0.0, 1.0, 257),)), 0),
            ("tensor(matern(nu=0.5), matern(nu=1.5))", Grid((Axis(0.0, 1.0, 128),) * 2), 0),
        ],
    )
    def test_samples_hold_count_rows(self, text, grid, alpha):
        count = _DRAW_BLOCK + 1
        samples = sample_derivative_paths(parse_kernel(text), alpha, grid, count, 42)
        assert samples.samples.base is None
        assert samples.samples.nbytes == count * grid.n_points * 8

    # a Schur draw holds its draws, the buffer of _SCHUR_BLOCK * n factor
    # values, one block of normals for 100 draws and the widest factor
    # block, and one product tile; a Wiener draw sums in place and holds
    # its table of count rows alone, unpadded; either with 1 MB for the
    # draws' normal streams and numpy's ufunc buffers.  That is 1.65 draw
    # tables for 200 Schur draws on the desk grid, which take 1.54, and
    # 1.16 for 200 Wiener draws, which take 1.03.  128 rows of all n
    # columns and a running sum of 100 Wiener draws made this 1.87 and
    # 1.53, a stored factor and Gram 11-22, a table of normals beside the
    # draws 3.6, and 256-row factor blocks with a product temporary per 50
    # draws 2.64-2.76.  101 Wiener draws take 1.04 tables against a bound
    # of 1.32; with a padded last block of normals they took 2.06
    @pytest.mark.parametrize(
        "draw, schur",
        [
            (lambda: sample_paths(parse_kernel("matern(nu=2.5)"), _DESK_GRID, 200, 42), True),
            (lambda: sample_paths(parse_kernel("wiener()"), _DESK_GRID, 200, 42), False),
            (
                lambda: sample_paths(parse_kernel("wiener()"), _DESK_GRID, _DRAW_BLOCK + 1, 42),
                False,
            ),
            (lambda: sample_paths(parse_kernel("se()"), _DESK_GRID, 200, 42), True),
            (
                lambda: sample_derivative_paths(
                    parse_kernel("matern(nu=1.5)"), 1, Grid((Axis(0.25, 1.25, 2049),)), 200, 42
                ),
                True,
            ),
        ],
        ids=["matern2.5", "wiener", "wiener-unpadded", "se", "derivative"],
    )
    def test_draw_peak_memory(self, draw, schur):
        # numpy.random loads on first use; its import is not the draw's
        import numpy.random  # noqa: F401

        tracemalloc.start()
        try:
            samples = draw()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = samples.grid.n_points
        values = samples.count * n
        if schur:
            widest = max(size for _k0, size in sampling._schur_blocks(n))
            values += (
                sampling._SCHUR_BLOCK * n
                + _DRAW_BLOCK * widest
                + _DRAW_BLOCK * sampling._PRODUCT_COLUMNS
            )
        assert peak <= values * 8 + 2**20

    # each field's second product overwrites its own normals; a new array
    # per product made this 2.02 draw tables, a product of 50 fields at a
    # time 1.52, and a tensor's derivative draws took a pointwise 16384^2
    # derivative Gram
    @pytest.mark.parametrize(
        "draw",
        [
            lambda grid: sample_paths(
                parse_kernel("tensor(matern(nu=0.5), matern(nu=1.5))"), grid, 100, 42
            ),
            lambda grid: sample_derivative_paths(
                parse_kernel("tensor(matern(nu=1.5), matern(nu=2.5))"), (1, 0), grid, 100, 42
            ),
        ],
        ids=["paths", "derivative"],
    )
    def test_kronecker_draw_peak_memory(self, draw):
        grid = Grid((Axis(0.0, 1.0, 128), Axis(0.0, 1.0, 128)))
        tracemalloc.start()
        try:
            samples = draw(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * samples.samples.nbytes

    # bitwise L1 Z L2^T per block of normals, across a block boundary; a
    # derivative draw takes each axis's factor at its own part of alpha
    @pytest.mark.parametrize("alpha", [None, (1, 0), (0, 1), (1, 1)])
    def test_kronecker_draws_are_two_sided_products(self, alpha):
        expr = parse_kernel("tensor(se(), matern(nu=1.5))")
        grid = Grid((Axis(0.0, 1.0, 17), Axis(0.0, 1.0, 16)))
        if alpha is None:
            samples = sample_paths(expr, grid, _DRAW_BLOCK + 3, 9)
            alpha = (0, 0)
        else:
            samples = sample_derivative_paths(expr, alpha, grid, _DRAW_BLOCK + 3, 9)
        l1, l2 = (
            sampling._lower_factor(sampling._factorise(f, Grid((axis,)), (a,)), axis.count)[0]
            for f, axis, a in zip(expr.factors, grid.axes, alpha)
        )
        z = np.stack(
            [sampling._normal_stream(9, i).standard_normal(17 * 16) for i in range(2 * _DRAW_BLOCK)]
        )
        expected = np.concatenate(
            [(l1 @ z[lo:lo + _DRAW_BLOCK].reshape(-1, 17, 16) @ l2.T).reshape(-1, 17 * 16)
             for lo in (0, _DRAW_BLOCK)]
        )
        assert np.array_equal(samples.samples, expected[:_DRAW_BLOCK + 3])

    def test_empirical_covariance_matches_gram(self):
        grid = Grid((Axis(0.0, 1.0, 257),))
        expr = parse_kernel("se()")
        samples = sample_paths(expr, grid, 2000, 42)
        emp = samples.samples.T @ samples.samples / samples.count
        gram = build_gram(expr, grid)
        assert np.max(np.abs(emp - gram)) <= 0.1

    def test_empirical_mean_bound(self):
        grid = Grid((Axis(0.0, 1.0, 129),))
        samples = sample_paths(parse_kernel("se()"), grid, 2000, 7)
        assert np.max(np.abs(samples.samples.mean(axis=0))) <= 4.0 / math.sqrt(2000)

    def test_stationary_path_variance_band(self):
        # ergodicity heuristic: the span must cover many correlation lengths
        grid = Grid((Axis(0.0, 100.0, 4097),))
        samples = sample_paths(parse_kernel("matern(nu=0.5)"), grid, 1, 42)
        assert 0.7 <= float(np.var(samples.samples[0])) <= 1.3

    # the guard build_gram gives the dense path; the Toeplitz path keeps it
    def test_dimension_mismatch(self):
        with pytest.raises(KernelError, match="kernel has dimension 2 but the grid is 1-D"):
            sample_paths(parse_kernel("se(dim=2)"), Grid((Axis(0.0, 1.0, 5),)), 2, 1)

    # the exact Wiener factor keeps the kernel's domain check
    def test_wiener_domain(self):
        with pytest.raises(DomainError) as raised:
            sample_paths(parse_kernel("wiener()"), Grid((Axis(0.0, 1.0, 9),)), 2, 1)
        with pytest.raises(DomainError) as reference:
            pairwise(parse_kernel("wiener()"), [0.0], [1.0])
        assert str(raised.value) == str(reference.value)

    def test_tensor_factorisation_matches_dense_gram(self):
        expr = parse_kernel("tensor(wendland(d=1,n=0), wendland(d=1,n=1))")
        grid = Grid((Axis(0.0, 1.0, 9), Axis(0.0, 1.0, 7)))
        dense = build_gram(expr, grid)
        g1 = build_gram(parse_kernel("wendland(d=1,n=0)"), Grid((grid.axes[0],)))
        g2 = build_gram(parse_kernel("wendland(d=1,n=1)"), Grid((grid.axes[1],)))
        assert np.allclose(np.kron(g1, g2), dense, rtol=1e-12, atol=1e-14)

    def test_tensor_draw_covariance(self):
        expr = parse_kernel("tensor(wendland(d=1,n=0), wendland(d=1,n=1))")
        grid = Grid((Axis(0.0, 1.0, 6), Axis(0.0, 1.0, 5)))
        samples = sample_paths(expr, grid, 4000, 3)
        emp = samples.samples.T @ samples.samples / samples.count
        dense = build_gram(expr, grid)
        assert np.max(np.abs(emp - dense)) <= 0.12


class TestDerivativePaths:
    # 1-D derivative paths are factored from the lag column without a Gram;
    # the factor, jitter taken off, must reproduce the pointwise matrix
    # a non-stationary sum and product keep the pointwise derivative Gram:
    # the derivative covariance of a product is not a product of Grams.
    # A tensor's derivative Gram is the Kronecker product of its axes', so
    # its draws factor per axis as the kernel's do
    _LINE = Grid((Axis(0.25, 1.25, 257),))
    _FIELD = Grid((Axis(0.25, 1.25, 9), Axis(0.0, 2.0, 7)))

    @pytest.mark.parametrize(
        "text, alpha, grid",
        [
            ("matern(nu=1.5)", 1, _LINE),
            ("se()", 2, _LINE),
            ("linear() + se()", 1, _LINE),
            ("linear() * se()", 1, _LINE),
            ("tensor(matern(nu=1.5), matern(nu=2.5))", (1, 0), _FIELD),
            ("tensor(matern(nu=1.5), matern(nu=2.5))", (0, 1), _FIELD),
            ("tensor(matern(nu=1.5), matern(nu=2.5))", (1, 1), _FIELD),
        ],
    )
    def test_lag_table_matches_derivative_kernel_matrix(self, text, alpha, grid, monkeypatch):
        factorise = sampling._factorise
        factors = []

        # only the sampled grid's operator: a tensor's axes are factorised
        # by nested calls on their own 1-D grids
        def keep(expr, on, alpha):
            draw = factorise(expr, on, alpha)
            if on is grid:
                factors.append(draw)
            return draw

        monkeypatch.setattr(sampling, "_factorise", keep)
        expr = parse_kernel(text)
        sample_derivative_paths(expr, alpha, grid, 1, 0)
        (draw,) = factors
        lower, jitter = sampling._lower_factor(draw, grid.n_points)
        covariance = lower @ lower.T - jitter * np.eye(grid.n_points)
        reference = derivative_kernel_matrix(expr, alpha, grid.points())
        assert np.max(np.abs(covariance - reference)) <= 1e-8

    # alpha = 0 is the kernel: the same draw operator as sample_paths, a
    # scalar 0 included on a 2-D grid
    @pytest.mark.parametrize(
        "text, grid",
        [
            ("matern(nu=1.5)", Grid((Axis(0.25, 1.25, 65),))),
            ("linear() + se()", Grid((Axis(0.25, 1.25, 65),))),
            ("wiener()", Grid((Axis(0.25, 1.25, 65),))),
            ("se(dim=2)", Grid((Axis(0.0, 1.0, 6), Axis(0.0, 1.0, 5)))),
            ("tensor(se(), matern(nu=1.5))", Grid((Axis(0.0, 1.0, 6), Axis(0.0, 1.0, 5)))),
        ],
    )
    def test_alpha_zero_draws_are_sample_paths(self, text, grid):
        expr = parse_kernel(text)
        expected = sample_paths(expr, grid, 3, 4)
        samples = sample_derivative_paths(expr, 0, grid, 3, 4)
        assert samples.alpha == (0,) * grid.dim
        assert np.array_equal(samples.samples, expected.samples)
        assert samples.jitter_used == expected.jitter_used

    # a top-level tensor's derivative exists when each axis's does; any
    # other kernel needs |alpha| below its order
    def test_tensor_gate_is_per_axis(self):
        grid = Grid((Axis(0.0, 1.0, 6), Axis(0.0, 1.0, 5)))
        tensor = parse_kernel("tensor(matern(nu=1.5), matern(nu=1.5))")
        assert sample_derivative_paths(tensor, (1, 1), grid, 2, 1).alpha == (1, 1)
        with pytest.raises(KernelError, match=r"\|alpha\|=2 is not below .* order 3/2"):
            sample_derivative_paths(tensor, (2, 0), grid, 2, 1)
        with pytest.raises(KernelError, match=r"\|alpha\|=2 is not below .* order 3/2"):
            sample_derivative_paths(tensor, (0, 2), grid, 2, 1)
        rough_second = parse_kernel("tensor(matern(nu=2.5), matern(nu=0.5))")
        with pytest.raises(KernelError, match=r"\|alpha\|=1 is not below .* order 1/2"):
            sample_derivative_paths(rough_second, (1, 1), grid, 2, 1)
        isotropic = parse_kernel("matern(nu=2.5,dim=2)")
        assert sample_derivative_paths(isotropic, (1, 1), grid, 2, 1).alpha == (1, 1)
        with pytest.raises(KernelError, match=r"\|alpha\|=3 is not below .* order 5/2"):
            sample_derivative_paths(isotropic, (2, 1), grid, 2, 1)

    # affine(a=0, b) makes the paths constant, so their derivative Gram is
    # exactly zero whatever the child's roughness, and the derivative
    # process is drawn as exact zeros with no jitter, for a rough child and
    # a smooth one alike, on its own and as a tensor factor
    @pytest.mark.parametrize("leaf", ["matern(nu=0.5)", "matern(nu=2.5)"])
    def test_constant_affine_warp_has_a_zero_derivative_gram(self, leaf):
        grid = Grid((Axis(0.0, 1.0, 17),))
        expr = parse_kernel(f"warp({leaf}, affine(a=0, b=0.5))")
        gram = derivative_kernel_matrix(expr, 1, grid.points())
        assert np.array_equal(gram, np.zeros((17, 17)))
        samples = sample_derivative_paths(expr, 1, grid, 3, 1)
        assert samples.samples.tobytes() == np.zeros((3, 17)).tobytes()
        assert samples.jitter_used == 0.0
        assert samples.alpha == (1,)
        field = Grid((Axis(0.0, 1.0, 9), Axis(0.0, 1.0, 5)))
        tensor = parse_kernel(f"tensor(warp({leaf}, affine(a=0, b=0.5)), se())")
        fields = sample_derivative_paths(tensor, (1, 0), field, 2, 1)
        assert fields.samples.tobytes() == np.zeros((2, 45)).tobytes()
        assert fields.jitter_used == 0.0

    # a bad count is reported before the kernel is judged
    def test_count_checked_before_the_gate(self):
        grid = Grid((Axis(0.25, 1.25, 17),))
        with pytest.raises(ValueError, match="count must be >= 1"):
            sample_derivative_paths(parse_kernel("matern(nu=0.5)"), 1, grid, 0, 1)

    def test_engine_gate_blocks_rough_kernels(self):
        grid = Grid((Axis(0.25, 1.25, 17),))
        with pytest.raises(KernelError):
            sample_derivative_paths(parse_kernel("matern(nu=0.5)"), 1, grid, 2, 1)

    def test_matern_derivative_draws_exist(self):
        grid = Grid((Axis(0.25, 1.25, 33),))
        samples = sample_derivative_paths(parse_kernel("matern(nu=1.5)"), 1, grid, 3, 1)
        assert samples.alpha == (1,)
        assert samples.samples.shape == (3, 33)

    def test_se_second_derivative_variance(self):
        grid = Grid((Axis(0.0, 1.0, 257),))
        samples = sample_derivative_paths(parse_kernel("se()"), 2, grid, 2000, 7)
        var = float(np.var(samples.samples[:, 128]))
        assert abs(var - 12.0) / 12.0 <= 0.15


class TestSerialisation:
    def test_csv_round_trip(self, tmp_path):
        grid = Grid((Axis(0.0, 1.0, 17),))
        samples = sample_paths(parse_kernel("se()"), grid, 3, 5)
        path = str(tmp_path / "paths.csv")
        write_samples_csv(samples, path)
        loaded = read_samples_csv(path)
        assert np.array_equal(loaded.samples, samples.samples)
        assert loaded.grid.axes[0] == grid.axes[0]
        # no sidecar: provenance is unknown
        assert loaded.seed == -1
        assert math.isnan(loaded.jitter_used)

    def test_csv_header_and_precision(self, tmp_path):
        grid = Grid((Axis(0.0, 1.0, 3), Axis(0.0, 1.0, 3)))
        samples = sample_paths(parse_kernel("tensor(se(), se())"), grid, 2, 5)
        path = str(tmp_path / "field.csv")
        write_samples_csv(samples, path)
        with open(path, "rb") as fh:
            raw = fh.read().decode()
        assert raw.endswith("\r\n")
        lines = raw.split("\r\n")[:-1]
        assert not any("\n" in line or "\r" in line for line in lines)
        assert lines[0] == "x,y,s0,s1"
        assert len(lines) == 1 + 9
        table = np.column_stack([grid.points(), samples.samples.T])
        for line, row in zip(lines[1:], table):
            assert line.split(",") == [f"{v:.17g}" for v in row]

    @staticmethod
    def _large_file(tmp_path):
        # several read blocks of rows on a 2-D grid, 3.3 MB of draws
        grid = Grid((Axis(0.0, 1.0, 64), Axis(0.0, 1.0, 64)))
        samples = sample_paths(parse_kernel("tensor(se(), matern(nu=0.5))"), grid, 100, 3)
        path = str(tmp_path / "large.csv")
        write_samples_csv(samples, path)
        return path, samples

    def test_block_read_equals_whole_table(self, tmp_path):
        path, samples = self._large_file(tmp_path)
        assert samples.grid.n_points > sampling._CSV_READ_ROWS
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        loaded = read_samples_csv(path)
        assert np.array_equal(loaded.samples, table[:, 2:].T)
        assert np.array_equal(loaded.samples, samples.samples)
        assert loaded.grid == samples.grid

    def test_block_read_peak_memory(self, tmp_path):
        # the draws plus one block of rows; the whole table and its
        # transposed copy made this over 2 draw sizes
        path, _samples = self._large_file(tmp_path)
        tracemalloc.start()
        try:
            loaded = read_samples_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * loaded.samples.nbytes

    def test_row_width_must_match_header(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x,s0,s1\r\n0,1,2\r\n1,3\r\n")
        with pytest.raises(ValueError):
            read_samples_csv(str(path))

    # a first x that is NaN matches no row, and an x run that comes back
    # later miscounts the columns: both are refused, not divided by
    @pytest.mark.parametrize(
        "rows",
        [
            ["nan,0,1", "nan,1,2", "1,0,3", "1,1,4"],
            ["0,0,1", "0,1,2", "1,0,3", "1,1,4", "0,2,5", "1,2,6"],
        ],
        ids=["nan", "split-run"],
    )
    def test_field_rows_must_form_a_grid(self, tmp_path, rows):
        path = tmp_path / "field.csv"
        path.write_text("\r\n".join(["x,y,s0", *rows, ""]))
        with pytest.raises(ValueError, match="grid"):
            read_samples_csv(str(path))

    def test_header_only_file_has_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,s0,s1\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="samples file contains no rows"):
                read_samples_csv(str(path))

    # np.loadtxt would skip a '#' line that the row count takes for a row,
    # leaving the last rows' buffers unfilled
    @pytest.mark.parametrize("at, line", [(4, 5), (10, 11)])
    def test_comment_line_is_rejected(self, tmp_path, at, line):
        path = tmp_path / "noted.csv"
        write_samples_csv(sample_paths(parse_kernel("se()"), Grid((Axis(0.0, 1.0, 9),)), 2, 5), str(path))
        lines = path.read_bytes().split(b"\r\n")
        lines.insert(at, b"# note")
        path.write_bytes(b"\r\n".join(lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"line {line} of the samples file is a comment"):
                read_samples_csv(str(path))

    # a blank line is no row, for the row count as for the reader: it is
    # skipped silently, whether empty or whitespace only
    @pytest.mark.parametrize("blank", [b"", b"  "])
    def test_blank_line_is_skipped(self, tmp_path, blank):
        path = tmp_path / "spaced.csv"
        path.write_bytes(b"x,s0\r\n0,1\r\n" + blank + b"\r\n1,2\r\n2,5\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = read_samples_csv(str(path))
        assert loaded.grid == Grid((Axis(0.0, 2.0, 3),))
        assert loaded.samples.tolist() == [[1.0, 2.0, 5.0]]

    # only ASCII whitespace is blank: both passes read bytes, so a line of
    # another space character is a row for both, and a malformed one
    @pytest.mark.parametrize("space", ["\u00a0", "\x1c"])
    def test_non_ascii_space_line_is_a_bad_row(self, tmp_path, space):
        path = tmp_path / "spaced.csv"
        path.write_bytes(f"x,s0\r\n0,1\r\n{space}\r\n1,2\r\n2,5\r\n".encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                read_samples_csv(str(path))

    def test_blank_lines_across_read_blocks(self, tmp_path):
        path, samples = self._large_file(tmp_path)
        spaced = tmp_path / "spaced.csv"
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\r\n")
        for at in (600, sampling._CSV_READ_ROWS + 1, 3):
            lines.insert(at, b" \t")
            lines.insert(at, b"")
        spaced.write_bytes(b"\r\n".join(lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = read_samples_csv(str(spaced))
        assert np.array_equal(loaded.samples, samples.samples)

    @staticmethod
    def _write_twinless_sidecar(samples, path):
        # a sidecar without the "twin" key, as one beside a CSV written by
        # write_samples_csv alone: the reader takes its provenance and
        # parses the CSV
        write_sidecar(samples, path, {})
        with open(path) as fh:
            meta = json.load(fh)
        del meta["twin"]
        with open(path, "w") as fh:
            json.dump(meta, fh)

    def test_sidecar_round_trip(self, tmp_path):
        grid = Grid((Axis(0.25, 1.25, 33),))
        samples = sample_derivative_paths(parse_kernel("se()"), 1, grid, 3, 5)
        write_samples_csv(samples, str(tmp_path / "d.csv"))
        self._write_twinless_sidecar(samples, str(tmp_path / "d.json"))
        loaded = read_samples_csv(str(tmp_path / "d.csv"))
        assert loaded.grid == grid
        assert (loaded.kernel, loaded.seed, loaded.alpha) == ("se()", 5, (1,))
        assert loaded.jitter_used == samples.jitter_used
        assert np.array_equal(loaded.samples, samples.samples)

    def test_sidecar_grid_must_match(self, tmp_path):
        grid = Grid((Axis(0.0, 1.0, 17),))
        samples = sample_paths(parse_kernel("se()"), grid, 2, 5)
        write_samples_csv(samples, str(tmp_path / "p.csv"))
        other = sample_paths(parse_kernel("se()"), Grid((Axis(0.0, 1.0, 9),)), 2, 5)
        self._write_twinless_sidecar(other, str(tmp_path / "p.json"))
        with pytest.raises(ValueError, match="grid"):
            read_samples_csv(str(tmp_path / "p.csv"))

    def test_sidecar_contents(self, tmp_path):
        grid = Grid((Axis(0.5, 1.5, 5),))
        samples = sample_paths(parse_kernel("wiener()"), grid, 2, 11)
        path = str(tmp_path / "meta.json")
        write_sidecar(samples, path, {"csv_sha256": "c", "npy_sha256": "n"})
        with open(path) as fh:
            meta = json.load(fh)
        assert meta["kernel"] == "wiener()"
        assert meta["seed"] == 11
        assert meta["grid"]["axes"][0]["count"] == 5
        assert meta["jitter_used"] == samples.jitter_used
        assert meta["alpha"] == [0]
        assert set(meta["twin"]) == {"csv_sha256", "npy_sha256", "sidecar_sha256"}
        assert (meta["twin"]["csv_sha256"], meta["twin"]["npy_sha256"]) == ("c", "n")


def _twin_source(kind: str):
    if kind == "1-D":
        return sample_paths(parse_kernel("matern(nu=1.5)"), Grid((Axis(0.25, 1.25, 65),)), 7, 3)
    if kind == "2-D tensor":
        grid = Grid((Axis(0.0, 1.0, 9), Axis(-1.0, 2.0, 6)))
        return sample_paths(parse_kernel("tensor(matern(nu=0.5), se())"), grid, 4, 5)
    grid = Grid((Axis(0.25, 1.25, 33),))
    return sample_derivative_paths(parse_kernel("matern(nu=2.5)"), 1, grid, 5, 2)


def _csv_parse(path: str, monkeypatch):
    # the reader with the twin disabled: a fresh parse of the CSV
    with monkeypatch.context() as m:
        m.setattr(sampling, "_sha256_file", lambda _path: "")
        return read_samples_csv(path)


def _assert_same(a, b) -> None:
    assert a.samples.dtype == b.samples.dtype == np.float64
    assert a.samples.tobytes() == b.samples.tobytes()
    assert a.grid == b.grid
    assert (a.kernel, a.seed, a.alpha) == (b.kernel, b.seed, b.alpha)
    assert a.jitter_used == b.jitter_used or (math.isnan(a.jitter_used) and math.isnan(b.jitter_used))


def _edit_csv_value(path) -> None:
    # the first draw at the first grid point becomes 0.5
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[1].split(b",")
    coords = 2 if lines[0].startswith(b"x,y,") else 1
    assert cells[coords] != b"0.5"
    cells[coords] = b"0.5"
    lines[1] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))


def _edit_twin_value(path) -> None:
    draws = np.load(path)
    draws[0, 0] += 1.0
    np.save(path, draws)


def _edit_sidecar(path, edit) -> None:
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta, indent=2) + "\n")


class TestBinaryTwin:
    """A samples file written with its twin reads back exactly as the CSV
    parses, whichever of the three files is missing or edited."""

    @pytest.mark.parametrize("kind", ["1-D", "2-D tensor", "derivative"])
    def test_files_and_hashes(self, tmp_path, kind):
        samples = _twin_source(kind)
        write_samples(samples, str(tmp_path / "s.csv"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.json", "s.npy"]
        buf = io.BytesIO()
        np.save(buf, samples.samples)
        assert (tmp_path / "s.npy").read_bytes() == buf.getvalue()
        # the CSV is the one write_samples_csv writes alone
        write_samples_csv(samples, str(tmp_path / "alone.csv"))
        csv_bytes = (tmp_path / "s.csv").read_bytes()
        assert csv_bytes == (tmp_path / "alone.csv").read_bytes()
        twin = json.loads((tmp_path / "s.json").read_text())["twin"]
        assert twin["csv_sha256"] == hashlib.sha256(csv_bytes).hexdigest()
        assert twin["npy_sha256"] == hashlib.sha256(buf.getvalue()).hexdigest()

    @pytest.mark.parametrize("kind", ["1-D", "2-D tensor", "derivative"])
    @pytest.mark.parametrize(
        "case",
        ["matching", "missing twin", "stale twin", "edited twin", "no twin key", "no sidecar",
         "edited sidecar"],
    )
    def test_reads_as_the_csv_parses(self, tmp_path, monkeypatch, kind, case):
        samples = _twin_source(kind)
        csv, npy, sidecar = (tmp_path / f"s.{ext}" for ext in ("csv", "npy", "json"))
        write_samples(samples, str(csv))
        if case == "missing twin":
            npy.unlink()
        elif case == "stale twin":
            _edit_csv_value(csv)
        elif case == "edited twin":
            _edit_twin_value(npy)
        elif case == "no twin key":
            _edit_sidecar(sidecar, lambda meta: meta.pop("twin"))
        elif case == "no sidecar":
            sidecar.unlink()
        elif case == "edited sidecar":
            _edit_sidecar(sidecar, lambda meta: meta.update(seed=meta["seed"] + 1))
        loaded = read_samples_csv(str(csv))
        parsed = _csv_parse(str(csv), monkeypatch)
        _assert_same(loaded, parsed)
        if case == "stale twin":
            assert loaded.samples[0, 0] == 0.5 != samples.samples[0, 0]
        elif case == "edited sidecar":
            assert loaded.seed == samples.seed + 1
        else:
            assert loaded.samples.tobytes() == samples.samples.tobytes()

    def test_sidecar_is_decoded_once(self, tmp_path, monkeypatch):
        samples = _twin_source("1-D")
        write_samples(samples, str(tmp_path / "s.csv"))
        (tmp_path / "s.npy").unlink()
        load = json.load
        loads = []

        def counted(fh, *args, **kwargs):
            loads.append(fh.name)
            return load(fh, *args, **kwargs)

        monkeypatch.setattr(json, "load", counted)
        assert read_samples_csv(str(tmp_path / "s.csv")).seed == samples.seed
        assert loads == [str(tmp_path / "s.json")]

    def test_malformed_sidecar_is_reported_before_the_parse(self, tmp_path, monkeypatch):
        write_samples(_twin_source("1-D"), str(tmp_path / "s.csv"))
        _edit_sidecar(tmp_path / "s.json", lambda meta: meta.pop("seed"))

        def no_parse(*args, **kwargs):
            raise AssertionError("the CSV was parsed")

        monkeypatch.setattr(np, "loadtxt", no_parse)
        with pytest.raises(ValueError, match="malformed samples sidecar: KeyError\\('seed'\\)"):
            read_samples_csv(str(tmp_path / "s.csv"))

    def test_edited_sidecar_grid_is_still_an_error(self, tmp_path):
        samples = _twin_source("1-D")
        write_samples(samples, str(tmp_path / "s.csv"))
        _edit_sidecar(tmp_path / "s.json", lambda meta: meta["grid"]["axes"][0].update(stop=2.0))
        with pytest.raises(ValueError, match="grid"):
            read_samples_csv(str(tmp_path / "s.csv"))

    def test_matching_twin_skips_the_parse(self, tmp_path, monkeypatch):
        samples = _twin_source("2-D tensor")
        path = str(tmp_path / "s.csv")
        write_samples(samples, path)

        def no_parse(*args, **kwargs):
            raise AssertionError("the CSV was parsed")

        monkeypatch.setattr(np, "loadtxt", no_parse)
        assert read_samples_csv(path).samples.tobytes() == samples.samples.tobytes()
        (tmp_path / "s.npy").unlink()
        with pytest.raises(AssertionError, match="parsed"):
            read_samples_csv(path)

    @pytest.mark.parametrize("rewrite", [False, True])
    def test_sidecar_is_written_last(self, tmp_path, monkeypatch, rewrite):
        # a twin that fails to write leaves no sidecar that could name it,
        # nor one of an earlier write that would describe other draws
        path = str(tmp_path / "s.csv")
        if rewrite:
            write_samples(sample_paths(parse_kernel("se()"), Grid((Axis(0.0, 1.0, 65),)), 3, 1), path)

        def failing_save(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", failing_save)
        samples = _twin_source("1-D")
        with pytest.raises(OSError, match="disk full"):
            write_samples(samples, path)
        assert not (tmp_path / "s.json").exists()
        assert (tmp_path / "s.npy").exists() == rewrite
        loaded = read_samples_csv(path)
        assert loaded.samples.tobytes() == samples.samples.tobytes()
        assert loaded.seed == -1

    @pytest.mark.parametrize("stage", ["csv", "twin", "sidecar"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch, stage):
        # a write that raises removes its temp file and re-raises; the files
        # written before it stay, and none after it is started
        draws = np.random.default_rng(2).standard_normal((20, _DESK_GRID.n_points))
        samples = PathSamples(_DESK_GRID, draws, kernel="se()", seed=1, jitter_used=0.0)

        def failing(*args, **kwargs):
            raise MemoryError(stage)

        if stage == "csv":
            # two blocks of rows are written, the third fails
            blocks = itertools.chain([sampling._format_block] * 2, itertools.repeat(failing))
            monkeypatch.setattr(sampling, "_format_block", lambda *a: next(blocks)(*a))
        elif stage == "twin":
            monkeypatch.setattr(np, "save", failing)
        else:
            monkeypatch.setattr(json, "dump", failing)
        with pytest.raises(MemoryError):
            write_samples(samples, str(tmp_path / "s.csv"))
        written = {"csv": [], "twin": ["s.csv"], "sidecar": ["s.csv", "s.npy"]}[stage]
        assert sorted(p.name for p in tmp_path.iterdir()) == written

    def test_twin_read_peak_memory(self, tmp_path):
        # the draws alone: no text, no block of rows
        path, samples = TestSerialisation._large_file(tmp_path)
        write_samples(samples, path)
        tracemalloc.start()
        try:
            loaded = read_samples_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.samples.tobytes() == samples.samples.tobytes()
        assert peak <= 1.1 * loaded.samples.nbytes


def _percent_bytes(values, ends) -> bytes:
    # the reference: '%.17g' one value at a time
    return "".join(
        "%.17g" % v + ("\r\n" if end else ",") for v, end in zip(values, ends)
    ).encode()


def _savetxt_bytes(table: np.ndarray, header: str | None = None) -> bytes:
    buf = io.StringIO()
    np.savetxt(buf, table, fmt="%.17g", delimiter=",", newline="\r\n",
               header=header or "", comments="")
    return buf.getvalue().encode()


def _check_block(values) -> None:
    values = np.array(values, dtype=float)
    ends = np.arange(values.size) % 3 == 2
    assert sampling._format_block(values, ends) == _percent_bytes(values.tolist(), ends)


def _decimal_ties() -> list[float]:
    """Doubles v = c / 2^(q+1), c odd, whose 17-digit rounding is an exact
    tie: v 10^q is a half-integer of 17 digits, for every fixed-notation
    exponent E = 16 - q from 15 down to -4."""
    ties = []
    for q in range(1, 21):
        low = -(-(2 ** (q + 1) * 10**16) // 10**q) | 1
        for c in range(low, low + 40, 2):
            v = c / 2 ** (q + 1)
            assert (Fraction(v) * 10**q).denominator == 2
            ties.append(v)
    return ties


def _edge_values() -> list[float]:
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.5, 0.1]
    # each power of ten with both neighbours; the largest double below one is
    # where N would carry to 10^17 if the rounding were off
    for p in [1e-4] + [float(f"1e{k}") for k in range(-6, 18)]:
        values += [float(np.nextafter(p, 0.0)), p, float(np.nextafter(p, math.inf))]
    values += _decimal_ties()
    values += [(2 * k + 1) / 2.0**j for j in range(1, 60) for k in range(8)]
    return values + [-v for v in values]


def _trailing_zero_values() -> list[float]:
    """Two doubles for each number k = 0..16 of trailing zeros of the
    17-digit significand and each fixed-notation exponent E = -4..15: the
    double nearest a random significand that ends in exactly k zeros, or a
    neighbour of it, whose own 17 digits do."""
    rng = random.Random(17)
    values = []
    for k, e in itertools.product(range(17), range(-4, 16)):
        found = []
        for _ in range(200):
            body = rng.randrange(10 ** (16 - k), 10 ** (17 - k))
            if body % 10 == 0 and k < 16:
                continue
            v = float(f"{body}e{e - 16 + k}")
            for c in (v, float(np.nextafter(v, 0.0)), float(np.nextafter(v, math.inf))):
                digits, exponent = ("%.16e" % c).split("e")
                digits = digits.replace(".", "")
                if int(exponent) == e and len(digits) - len(digits.rstrip("0")) == k:
                    found.append(c)
                    break
            if len(found) == 2:
                break
        assert len(found) == 2, (k, e)
        values += found
    return values

_bit_floats = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
_fast_range = st.floats(1e-4, 1e16, exclude_max=True).flatmap(lambda v: st.sampled_from([v, -v]))


class TestCsvWriter:
    """The block formatter against '%.17g', and written files against np.savetxt."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), _bit_floats, _fast_range), min_size=1, max_size=40))
    def test_block_matches_percent_format(self, values):
        _check_block(values)

    def test_edge_values(self):
        _check_block(_edge_values())

    def test_trailing_zero_groups(self):
        # the last non-zero digit in each 4-digit group and in none, so
        # every number of groups read for the trailing zeros, at every
        # fixed-notation exponent, with both signs
        values = _trailing_zero_values()
        _check_block(values + [-v for v in values])
        table = np.resize(np.random.default_rng(3).permutation(values + [-v for v in values]),
                          (2 * sampling._CSV_BLOCK // 7 + 3, 7))
        assert table.size % sampling._CSV_BLOCK != 0
        assert b"".join(sampling._format_rows(table)) == _savetxt_bytes(table)

    @pytest.mark.parametrize("cols", [1, 7, 202, sampling._CSV_BLOCK + 6])
    def test_tables_across_blocks(self, cols):
        rows = 2 * sampling._CSV_BLOCK // cols + 3
        rng = np.random.default_rng(cols)
        table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-6, 18, (rows, cols))
        table.flat[::97] = 0.0
        assert (rows * cols) % sampling._CSV_BLOCK != 0
        assert b"".join(sampling._format_rows(table)) == _savetxt_bytes(table)

    @pytest.mark.parametrize(
        "text,axes",
        [
            ("matern(nu=1.5)", (Axis(0.0, 1.0, 257),)),
            ("tensor(matern(nu=0.5), se())", (Axis(0.0, 1.0, 33), Axis(-1.0, 2.0, 17))),
        ],
    )
    def test_samples_file_matches_savetxt(self, tmp_path, text, axes):
        grid = Grid(axes)
        samples = sample_paths(parse_kernel(text), grid, 5, 9)
        path = tmp_path / "s.csv"
        write_samples_csv(samples, str(path))
        header = ",".join(["x", "y"][: grid.dim] + [f"s{i}" for i in range(5)])
        table = np.column_stack([grid.points(), samples.samples.T])
        assert path.read_bytes() == _savetxt_bytes(table, header)

    def test_report_surface_with_exact_zeros(self, capsys, tmp_path):
        prefix = str(tmp_path / "w")
        argv = ["report", "-k", "wendland(d=1,n=1)", "--grid", "0:4:129", "--count", "50",
                "--seed", "3", "--out", prefix]
        assert main(argv) == 0
        capsys.readouterr()
        grid = Grid((Axis(0.0, 4.0, 129),))
        values = pairwise(parse_kernel("wendland(d=1,n=1)"), grid.points(), np.array([[2.0]]))
        assert (values == 0.0).sum() > 10
        expected = _savetxt_bytes(np.column_stack([grid.points(), values]), "x,k")
        assert (tmp_path / "w_surface.csv").read_bytes() == expected
