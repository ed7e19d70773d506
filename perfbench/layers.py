"""Per-layer metrics of the traced run: which pathreg functions carry which
counters, and how spans and counters reduce to the metrics that
``BENCHMARK.json`` lists under ``per_layer``.

Layers are the modules of ``pathreg``.  Each metric below is named
``<module>.<quantity>``; the comment says which end-to-end metric it should
move and on which workload.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from spans import SpanIndex

MODULES = ("cli", "dsl", "regularity", "verify", "kernels", "specfun", "sampling", "structure")

KERNEL_EVALS = ("kernels.eval_kernel", "kernels.eval_radial", "kernels.eval_stationary")
GRAM_SPANS = ("sampling.build_gram", "sampling.cholesky_with_jitter", "verify.derivative_kernel_matrix")
DRAW_SPANS = ("sampling.sample_paths", "sampling.sample_derivative_paths")
ESTIMATE_SPANS = ("structure.estimate_path_regularity", "structure.axiswise_regularity")

_MB = 1e6


@functools.lru_cache(maxsize=1024)
def _matern_leaves(expr) -> int:
    # kernel expressions are frozen dataclasses, so they hash by value
    from pathreg.kernels import Matern

    own = 1 if isinstance(expr, Matern) else 0
    return own + sum(_matern_leaves(c) for c in expr.children)


def _pairwise(tr, args, kwargs, result):
    tr.counters["pairwise_calls"] += 1
    tr.counters["entries"] += result.size
    tr.counters["matern_requested"] += _matern_leaves(args[0]) * result.size


def _kernel_eval(tr, args, kwargs, result):
    tr.counters["kernel_evals"] += 1
    tr.counters["matern_requested"] += _matern_leaves(args[0]) * np.size(result)


def _matern_radial(tr, args, kwargs, result):
    tr.counters["matern_values"] += np.size(args[1])


def _verify(tr, args, kwargs, result):
    if result.verdict == "fail":
        tr.counters["verify_fail_verdicts"] += 1


def _cholesky(tr, args, kwargs, result):
    matrix = np.asarray(args[0], dtype=float)
    n = matrix.shape[0]
    # computed from the size, n^3/3 per factorisation, not measured
    tr.counters["cholesky_gflop"] += n**3 / 3.0 / 1e9
    jitter = result[1]
    if jitter == 0.0:
        attempts = 1
    else:
        # the ladder is 0, l0, 10 l0, ... with l0 = 1e-12 trace / n
        base = 1e-12 * float(np.trace(matrix)) / n
        attempts = 2 + round(math.log10(jitter / base))
    tr.counters["jitter_attempts"] += attempts


def _draws(tr, args, kwargs, result):
    tr.counters["draws"] += result.count


def _csv_written(tr, args, kwargs, result):
    tr.counters["csv_bytes_written"] += os.path.getsize(args[1])


def _csv_read(tr, args, kwargs, result):
    tr.counters["csv_bytes_read"] += os.path.getsize(args[0])


def _count_estimate(tr, est, n_points):
    default_lags = tr.originals["structure.default_lags"]
    tr.counters["estimates"] += 1
    tr.counters["m_used"] += est.m_used
    tr.counters["lags_offered"] += len(default_lags(n_points))
    if est.fit is not None:
        tr.counters["lags_kept"] += len(est.fit.scales)


def _estimate_1d(tr, args, kwargs, result):
    _count_estimate(tr, result, args[0].grid.n_points)


def _estimate_2d(tr, args, kwargs, result):
    for est, n_points in zip(result, args[0].grid.shape):
        _count_estimate(tr, est, n_points)


HOOKS = {
    "kernels.pairwise": _pairwise,
    **{name: _kernel_eval for name in KERNEL_EVALS},
    "specfun.matern_radial": _matern_radial,
    "verify.verify_regularity": _verify,
    "sampling.cholesky_with_jitter": _cholesky,
    "sampling.sample_paths": _draws,
    "sampling.sample_derivative_paths": _draws,
    "sampling.write_samples_csv": _csv_written,
    "sampling.read_samples_csv": _csv_read,
    "structure.estimate_path_regularity": _estimate_1d,
    "structure.axiswise_regularity": _estimate_2d,
}


def _ratio(num: float, den: float) -> float:
    # a layer the workload never reaches reports 0 rather than no value
    return num / den if den else 0.0


def layer_metrics(spans, counters, passes: int) -> dict[str, float]:
    """Reduce a traced run's spans and counters to the per-layer metrics.

    Times and counts are per pass, so they do not depend on how many passes
    fitted in the run; counts of a deterministic workload repeat exactly.
    """
    ix = SpanIndex(spans)
    c = counters
    write_s = ix.total("sampling.write_samples_csv")
    read_s = ix.total("sampling.read_samples_csv")
    written_mb = c["csv_bytes_written"] / _MB
    read_mb = c["csv_bytes_read"] / _MB
    per_pass = {
        # JSON emit and the surface CSV: wall_s on field-2d
        "cli.self_s": ix.self_total("cli.main"),
        # microseconds today; guards
        "dsl.parse_s": ix.total("dsl.parse_kernel"),
        "regularity.infer_s": ix.total("regularity.infer_regularity"),
        # op_p50_s, op_tail_s, wall_s, error_rate on verify-catalogue
        "verify.verify_s": ix.total("verify.verify_regularity"),
        "verify.kernel_evals": c["kernel_evals"],
        "verify.failed": c["verify_fail_verdicts"] + c["verify.verify_regularity.raised"],
        "verify.derivative_gram_s": ix.total("verify.derivative_kernel_matrix"),
        # wall_s on desk-1d and matern-short
        "kernels.pairwise_s": ix.total("kernels.pairwise"),
        "kernels.pairwise_calls": c["pairwise_calls"],
        "kernels.entries": c["entries"],
        # wall_s on matern-short (array calls) and verify-catalogue (scalar calls)
        "specfun.matern_radial_s": ix.total("specfun.matern_radial"),
        "specfun.matern_radial_values": c["matern_values"],
        # Gram, Cholesky, draws: wall_s and peak_rss_mb on desk-1d
        "sampling.gram_s": ix.total("sampling.build_gram"),
        "sampling.cholesky_s": ix.total("sampling.cholesky_with_jitter"),
        "sampling.cholesky_gflop": c["cholesky_gflop"],
        "sampling.jitter_attempts": c["jitter_attempts"],
        "sampling.draw_s": sum(
            ix.self_total(name, exclude_children=GRAM_SPANS) for name in DRAW_SPANS
        ),
        "sampling.draws": c["draws"],
        # CSV I/O: wall_s on field-2d, partly desk-1d
        "sampling.write_csv_s": write_s,
        "sampling.read_csv_s": read_s,
        "sampling.csv_mb": written_mb,
        # under 0.1 s per op; guards
        "structure.estimate_s": ix.total(*ESTIMATE_SPANS),
    }
    out = {name: float(value) / passes for name, value in per_pass.items()}
    out.update({
        "kernels.dedupe_ratio": _ratio(c["matern_values"], c["matern_requested"]),
        "sampling.write_mb_per_s": _ratio(written_mb, write_s),
        "sampling.read_mb_per_s": _ratio(read_mb, read_s),
        "structure.m_used": _ratio(c["m_used"], c["estimates"]),
        "structure.lags_kept_ratio": _ratio(c["lags_kept"], c["lags_offered"]),
    })
    return out

