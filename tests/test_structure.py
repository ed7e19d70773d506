"""Structure functions and path-regularity estimation."""

import inspect
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

import pathreg
from pathreg import structure
from pathreg.dsl import parse_kernel
from pathreg.sampling import Axis, Grid, PathSamples, sample_paths
from pathreg.structure import axiswise_regularity, default_lags, estimate_path_regularity


def make_samples(values: np.ndarray, start=0.0, stop=1.0) -> PathSamples:
    grid = Grid((Axis(start, stop, values.shape[1]),))
    return PathSamples(
        grid=grid, samples=values, kernel="synthetic", seed=0, jitter_used=0.0
    )


StructureFunction = namedtuple("StructureFunction", "lag_steps lags values")


def structure_function(samples: PathSamples, m: int, lag_steps=None):
    # the 1-D structure function as estimate_path_regularity takes it: the
    # mean squared m-th differences at the default lags, in physical units
    axis = samples.grid.axes[0]
    steps = default_lags(axis.count) if lag_steps is None else lag_steps
    values = structure._mean_squared_differences(samples.samples[:, :, None], m, steps)
    return StructureFunction(steps, [l * axis.spacing for l in steps], values)


def test_estimator_calibration_is_fixed():
    assert not hasattr(pathreg, "EstimateConfig")
    assert not hasattr(structure, "EstimateConfig")
    for fn, params in [
        (default_lags, ["n_points"]),
        (estimate_path_regularity, ["samples"]),
        (axiswise_regularity, ["samples"]),
    ]:
        assert list(inspect.signature(fn).parameters) == params, fn.__name__


class TestStructureFunction:
    def test_constant_paths_vanish(self):
        samples = make_samples(np.full((3, 257), 2.5))
        for m in (1, 2, 3):
            sf = structure_function(samples, m)
            assert all(v == 0.0 for v in sf.values)

    def test_linear_path_vanishes_at_second_order(self):
        x = np.linspace(0.0, 1.0, 257)
        samples = make_samples(np.stack([2.0 * x + 1.0, -x]))
        sf = structure_function(samples, 2)
        assert all(abs(v) < 1e-28 for v in sf.values)
        first = structure_function(samples, 1)
        assert all(v > 0 for v in first.values)

    def test_wiener_increments_match_lag(self):
        grid = Grid((Axis(0.25, 1.25, 4097),))
        samples = sample_paths(parse_kernel("wiener()"), grid, 200, 42)
        sf = structure_function(samples, 1)
        for lag, value in zip(sf.lags, sf.values):
            assert value / lag == pytest.approx(1.0, abs=0.1)

    def test_values_nonnegative_and_lags_in_range(self):
        grid = Grid((Axis(0.0, 1.0, 513),))
        samples = sample_paths(parse_kernel("se()"), grid, 50, 1)
        sf = structure_function(samples, 1)
        span = grid.axes[0].stop - grid.axes[0].start
        assert all(v >= 0 for v in sf.values)
        assert all(grid.axes[0].spacing <= l <= span / 4 for l in sf.lags)
        assert len(sf.lags) >= 4

    def test_every_default_lag_fits_the_highest_order(self):
        # the estimator differences up to order _MAX_M = 4 at every default
        # lag, so each lag l of every grid the ladder accepts has 4 l < n
        accepted = 0
        for n in range(2, 5001):
            try:
                lags = default_lags(n)
            except ValueError:
                continue
            accepted += 1
            assert all(structure._MAX_M * l < n for l in lags), n
        assert accepted == 4980

    def test_affine_addition_invariance_second_order(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((8, 257))
        x = np.linspace(0.0, 1.0, 257)
        shifted = base + 3.0 * x - 0.7
        a = structure_function(make_samples(base), 2)
        b = structure_function(make_samples(shifted), 2)
        assert np.allclose(a.values, b.values, rtol=1e-10)
        const = structure_function(make_samples(base + 11.0), 1)
        orig = structure_function(make_samples(base), 1)
        assert np.allclose(const.values, orig.values, rtol=1e-10)

    def test_amplitude_scaling_shifts_log_values(self):
        rng = np.random.default_rng(6)
        base = make_samples(rng.standard_normal((8, 257)))
        scaled = make_samples(4.0 * base.samples)
        a = structure_function(base, 1)
        b = structure_function(scaled, 1)
        assert np.allclose(np.log(b.values), np.log(a.values) + 2 * np.log(4.0), atol=1e-12)

    def test_default_lags_short_grid_widens(self):
        lags = default_lags(128)
        assert len(lags) >= 4
        assert max(lags) <= 127 // 4


def reference_values(table: np.ndarray, m: int, lags) -> list[float]:
    """np.mean of the iterated differences along axis 1 of a 2-D table."""
    out = []
    for l in lags:
        diff = table
        for _ in range(m):
            diff = diff[:, l:] - diff[:, :-l]
        out.append(float(np.mean(diff * diff)))
    return out


def random_walks(count: int, n: int, seed: int) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).standard_normal((count, n)), axis=1)


class TestBlockedStatistic:
    """The statistic sums the draws block by block; np.mean of the iterated
    differences is the formula it replaces."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_mean_of_differences(self, m):
        # 8200-byte draws: a block holds 31 of them, so 37 draws end in a
        # partial block
        values = random_walks(37, 1025, m)
        assert structure._BLOCK_BYTES // values[0].nbytes == 31
        lags = [2, 8, 32, 128]
        sf = structure_function(make_samples(values), m, lags)
        assert sf.values == pytest.approx(reference_values(values, m, lags), rel=1e-13, abs=0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_block_smaller_than_one_draw(self, monkeypatch, m):
        monkeypatch.setattr(structure, "_BLOCK_BYTES", 1000)
        values = random_walks(5, 257, 10 + m)
        sf = structure_function(make_samples(values), m)
        expected = reference_values(values, m, sf.lag_steps)
        assert sf.values == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_field_axes_match_slice_tables(self, m):
        # axis 0 once estimated from a transposed copy of every draw's
        # columns, axis 1 from its rows; both now read the field in place
        count, n1, n2 = 7, 96, 80
        flat = random_walks(count, n1 * n2, 20 + m)
        field = flat.reshape(count, n1, n2)
        slice_tables = (
            np.transpose(field, (0, 2, 1)).reshape(-1, n1),
            field.reshape(-1, n2),
        )
        in_place = (flat.reshape(count, n1, n2), flat.reshape(count * n1, n2, 1))
        for table, slices, n in zip(in_place, slice_tables, (n1, n2)):
            steps = default_lags(n)
            values = structure._mean_squared_differences(table, m, steps)
            assert values == pytest.approx(reference_values(slices, m, steps), rel=1e-13, abs=0)


class TestEstimate:
    def test_requires_enough_draws(self):
        samples = make_samples(np.zeros((3, 257)))
        with pytest.raises(ValueError):
            estimate_path_regularity(samples)

    def test_degenerate_constant_input(self):
        samples = make_samples(np.ones((60, 257)))
        result = estimate_path_regularity(samples)
        assert result.degenerate

    # a NaN once saturated every order (lower_bound 1.0) and an infinity
    # read as a degenerate input
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        values = random_walks(60, 257, 4)
        values[17, 100] = bad
        with pytest.raises(ValueError, match="samples hold a non-finite value"):
            estimate_path_regularity(make_samples(values))
        grid = Grid((Axis(0.0, 1.0, 16), Axis(0.0, 1.0, 16)))
        field = PathSamples(
            grid=grid, samples=values[:, :256].copy(), kernel="synthetic", seed=0,
            jitter_used=0.0,
        )
        with pytest.raises(ValueError, match="samples hold a non-finite value"):
            axiswise_regularity(field)

    def test_peak_memory_is_a_few_blocks(self):
        # the differences of one block are the only temporaries; the
        # unblocked statistic peaked at two draw tables here
        grid = Grid((Axis(0.25, 1.25, 4097),))
        samples = sample_paths(parse_kernel("se()"), grid, 200, 42)
        tracemalloc.start()
        try:
            result = estimate_path_regularity(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.m_used == structure._MAX_M
        assert peak < 0.25 * samples.samples.nbytes

    def test_amplitude_equivariance(self):
        grid = Grid((Axis(0.25, 1.25, 1025),))
        samples = sample_paths(parse_kernel("matern(nu=0.5)"), grid, 60, 3)
        scaled = PathSamples(
            grid=grid,
            samples=37.0 * samples.samples,
            kernel=samples.kernel,
            seed=3,
            jitter_used=samples.jitter_used,
        )
        a = estimate_path_regularity(samples)
        b = estimate_path_regularity(scaled)
        assert b.s_hat == pytest.approx(a.s_hat, abs=1e-12)

    # the degenerate floor follows the draws' own scale: an absolute floor
    # once read draws scaled by 1e-20 as degenerate
    @pytest.mark.parametrize("c", [1e-20, 1e-100, 1e100])
    def test_scale_invariance_far_from_one(self, c):
        grid = Grid((Axis(0.25, 1.25, 1025),))
        samples = sample_paths(parse_kernel("matern(nu=0.5)"), grid, 100, 3)
        scaled = PathSamples(
            grid=grid,
            samples=c * samples.samples,
            kernel=samples.kernel,
            seed=3,
            jitter_used=c * c * samples.jitter_used,
        )
        a = estimate_path_regularity(samples)
        b = estimate_path_regularity(scaled)
        assert not b.degenerate
        assert b.s_hat == pytest.approx(a.s_hat, abs=1e-12)

    def test_affine_shift_invariance(self):
        grid = Grid((Axis(0.0, 1.0, 1025),))
        samples = sample_paths(parse_kernel("matern(nu=0.5)"), grid, 60, 3)
        x = grid.points()[:, 0]
        shifted = PathSamples(
            grid=grid,
            samples=samples.samples + 5.0,
            kernel=samples.kernel,
            seed=3,
            jitter_used=samples.jitter_used,
        )
        a = estimate_path_regularity(samples)
        b = estimate_path_regularity(shifted)
        assert b.s_hat == pytest.approx(a.s_hat, rel=1e-9)

    @pytest.mark.slow
    def test_consistency_with_theory(self):
        # sharp finite-order kernels at the pinned desk scale
        grid = Grid((Axis(0.25, 1.25, 4097),))
        cases = [
            ("wiener()", 0.5),
            ("matern(nu=0.5)", 0.5),
            ("matern(nu=1.5)", 1.5),
            ("matern(nu=2.5)", 2.5),
            ("wendland(d=1,n=0)", 0.5),
            ("wendland(d=1,n=1)", 1.5),
        ]
        for text, target in cases:
            samples = sample_paths(parse_kernel(text), grid, 200, 42)
            result = estimate_path_regularity(samples)
            assert result.s_hat is not None, text
            assert abs(result.s_hat - target) <= 0.15, (text, result.s_hat)

    def test_smooth_paths_saturate(self):
        grid = Grid((Axis(0.25, 1.25, 2049),))
        samples = sample_paths(parse_kernel("se()"), grid, 100, 42)
        result = estimate_path_regularity(samples)
        assert result.s_hat is None
        assert result.lower_bound is not None and result.lower_bound >= 4


class TestAxiswise:
    def test_tensor_axes_estimate_separately(self):
        expr = parse_kernel("tensor(wendland(d=1,n=0), wendland(d=1,n=1))")
        grid = Grid((Axis(0.0, 1.0, 128), Axis(0.0, 1.0, 128)))
        samples = sample_paths(expr, grid, 100, 42)
        first, second = axiswise_regularity(samples)
        assert first.s_hat == pytest.approx(0.5, abs=0.12)
        assert second.s_hat == pytest.approx(1.5, abs=0.2)

    def test_swapped_factors_swap_estimates(self):
        a = parse_kernel("tensor(wendland(d=1,n=0), wendland(d=1,n=1))")
        b = parse_kernel("tensor(wendland(d=1,n=1), wendland(d=1,n=0))")
        grid = Grid((Axis(0.0, 1.0, 96), Axis(0.0, 1.0, 96)))
        ra = axiswise_regularity(sample_paths(a, grid, 80, 5))
        rb = axiswise_regularity(sample_paths(b, grid, 80, 5))
        assert ra[0].s_hat == pytest.approx(rb[1].s_hat, abs=0.1)
        assert ra[1].s_hat == pytest.approx(rb[0].s_hat, abs=0.1)

    def test_smooth_isotropic_saturates_both_axes(self):
        grid = Grid((Axis(0.0, 1.0, 64), Axis(0.0, 1.0, 64)))
        samples = sample_paths(parse_kernel("se(dim=2)"), grid, 60, 9)
        first, second = axiswise_regularity(samples)
        assert first.s_hat is None and second.s_hat is None

    def test_peak_memory_is_a_few_blocks(self):
        # both axes read the field in place; the transposed copy and the
        # unblocked statistic peaked at three draw tables here
        expr = parse_kernel("tensor(wendland(d=1,n=0), wendland(d=1,n=1))")
        grid = Grid((Axis(0.0, 1.0, 128), Axis(0.0, 1.0, 128)))
        samples = sample_paths(expr, grid, 100, 42)
        tracemalloc.start()
        try:
            axiswise_regularity(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * samples.samples.nbytes

    # the draw minimum of a 1-D estimate holds for a field too; 49 fields
    # on this grid once gave both axis estimates
    def test_needs_50_fields(self):
        grid = Grid((Axis(0.0, 1.0, 64), Axis(0.0, 1.0, 64)))
        samples = sample_paths(parse_kernel("tensor(matern(nu=0.5), matern(nu=1.5))"), grid, 49, 1)
        with pytest.raises(ValueError, match="need at least 50 draws for a stable estimate, got 49"):
            axiswise_regularity(samples)

    def test_requires_2d(self):
        grid = Grid((Axis(0.0, 1.0, 65),))
        samples = sample_paths(parse_kernel("se()"), grid, 60, 1)
        with pytest.raises(ValueError):
            axiswise_regularity(samples)
