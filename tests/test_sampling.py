"""Gram assembly, jittered factorisation, reproducible draws, serialisation."""

import io
import math
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
    build_gram,
    cholesky_with_jitter,
    read_samples_csv,
    sample_derivative_paths,
    sample_paths,
    write_samples_csv,
    write_sidecar,
)
from pathreg.verify import derivative_kernel_matrix


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Axis(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            Axis(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Grid((Axis(0, 1, 200), Axis(0, 1, 200)))  # above the dense cap

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


class TestToeplitzCholesky:
    # the Schur factor of the lag column against the gathered Toeplitz Gram
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
        lower, jitter = sampling._toeplitz_cholesky(gram[:, 0])
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
            sampling._toeplitz_cholesky(np.array(column))
        assert str(schur.value) == str(dense.value)

    # the Wiener kernel's exact factor against LAPACK's on its dense Gram:
    # bitwise where every increment is a power of two
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
        lower, jitter = sampling._factorise(expr, grid, None, None)
        dense, dense_jitter = cholesky_with_jitter(build_gram(expr, grid))
        assert jitter == dense_jitter == 0.0
        assert np.max(np.abs(lower - dense)) <= rel * np.max(np.abs(dense))

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
        ],
        ids=["dense", "kronecker", "derivative", "wiener"],
    )
    def test_draws_keyed_independently_of_count(self, draw):
        few = draw(2)
        many = draw(_DRAW_BLOCK + 3)
        assert np.array_equal(few.samples, many.samples[:2])
        assert np.array_equal(draw(_DRAW_BLOCK + 1).samples, many.samples[: _DRAW_BLOCK + 1])

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
    # the derivative covariance of a product is not a product of Grams
    @pytest.mark.parametrize(
        "text, alpha",
        [("matern(nu=1.5)", 1), ("se()", 2), ("linear() + se()", 1), ("linear() * se()", 1)],
    )
    def test_lag_table_matches_derivative_kernel_matrix(self, text, alpha, monkeypatch):
        factorise = sampling._factorise
        factors = []

        def keep(*args):
            factors.append(factorise(*args))
            return factors[-1]

        monkeypatch.setattr(sampling, "_factorise", keep)
        expr = parse_kernel(text)
        grid = Grid((Axis(0.25, 1.25, 257),))
        sample_derivative_paths(expr, alpha, grid, 1, 0)
        ((lower, jitter),) = factors
        covariance = lower @ lower.T - jitter * np.eye(grid.n_points)
        reference = derivative_kernel_matrix(expr, alpha, grid.points())
        assert np.max(np.abs(covariance - reference)) <= 1e-8

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

    def test_header_only_file_has_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,s0,s1\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="samples file contains no rows"):
                read_samples_csv(str(path))

    def test_sidecar_round_trip(self, tmp_path):
        grid = Grid((Axis(0.25, 1.25, 33),))
        samples = sample_derivative_paths(parse_kernel("se()"), 1, grid, 3, 5)
        write_samples_csv(samples, str(tmp_path / "d.csv"))
        write_sidecar(samples, str(tmp_path / "d.json"))
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
        write_sidecar(other, str(tmp_path / "p.json"))
        with pytest.raises(ValueError, match="grid"):
            read_samples_csv(str(tmp_path / "p.csv"))

    def test_sidecar_contents(self, tmp_path):
        import json

        grid = Grid((Axis(0.5, 1.5, 5),))
        samples = sample_paths(parse_kernel("wiener()"), grid, 2, 11)
        path = str(tmp_path / "meta.json")
        write_sidecar(samples, path)
        with open(path) as fh:
            meta = json.load(fh)
        assert meta["kernel"] == "wiener()"
        assert meta["seed"] == 11
        assert meta["grid"]["axes"][0]["count"] == 5
        assert meta["jitter_used"] == samples.jitter_used
        assert meta["alpha"] == [0]


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
