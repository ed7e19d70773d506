"""Command-line front end.

Subcommands: ``analyze`` (symbolic regularity report), ``verify`` (kernel
numerics against the prediction), ``sample`` (seeded draws to CSV, with a
binary twin and a JSON sidecar), ``estimate`` (path exponents from a
samples file or an inline draw), and ``report`` (combined JSON plus
plot-ready surface and sample files).

Exit codes are a stable contract: 0 success (including a log-flagged
verification), 1 verification failure, 2 parse or usage error, 3 runtime
or domain error, an allocation too large for memory or an arithmetic
error included.  All
outputs are deterministic given the flags and seed; files are written
atomically.

Each command imports only the modules it runs.  ``analyze`` parses, infers
and prints without loading numpy; ``verify`` adds numpy and ``verify``;
``sample`` adds numpy and ``sampling``, but not ``verify``; ``estimate`` and
``report`` add ``sampling`` and ``structure``, except ``report
--no-sample``, which loads ``sampling`` only to write its JSON and never
loads ``structure``.  A cold start pays for no module its command does not
use.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import TYPE_CHECKING

from ._base import replace
from .dsl import ParseError, parse_kernel, print_kernel
from .kernels import Kernel, KernelError, ParameterError, pairwise
from .regularity import infer_regularity, report_to_dict

if TYPE_CHECKING:
    from .sampling import Grid, PathSamples
    from .structure import EstimateResult

__all__ = ["main"]

_DESK_SEED = 42
_DESK_COUNT_1D = 200
_DESK_COUNT_2D = 100
_DESK_GRID_1D = "0.25:1.25:4097"
_DESK_GRID_2D = "0:1:128,0:1:128"


def _parse_grid(text: str) -> Grid:
    """The grid of ``--grid``.  Text that is not of the form
    start:stop:count[,start:stop:count] is a usage error; an axis that
    parses but is no grid (start >= stop, count < 2, a non-finite value)
    is the ValueError of ``Axis``."""
    from .sampling import Axis, Grid

    axes = []
    for part in text.split(","):
        try:
            start, stop, count = part.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError:
            raise _UsageError(
                f"grid axis {part!r} is not of the form start:stop:count "
                "(real start and stop, integer count)"
            ) from None
        axes.append(Axis(start, stop, count))
    return Grid(tuple(axes))


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    import csv

    writer = csv.writer(sys.stdout)
    for key, value in _flatten(payload):
        writer.writerow([key, value])


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            rows.extend(_flatten(v, f"{prefix}{k}." if isinstance(v, (dict, list)) else f"{prefix}{k}"))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}." if isinstance(v, (dict, list)) else f"{prefix}{i}"))
    else:
        rows.append((prefix, obj))
    return rows


def _analyze_payload(expr: Kernel) -> dict:
    return {"kernel": print_kernel(expr), **report_to_dict(infer_regularity(expr))}


def _estimate_payload(result: EstimateResult, axis=None) -> dict:
    out: dict = {"m_used": result.m_used}
    if axis is not None:
        out["axis"] = axis
    if result.degenerate:
        out["degenerate"] = True
        return out
    if result.s_hat is not None:
        out["s_hat"] = result.s_hat
    else:
        out["lower_bound"] = result.lower_bound
    if result.fit is not None:
        out.update(
            slope=result.fit.slope,
            r2=result.fit.r_squared,
            lags=list(result.fit.scales),
        )
    return out


def _estimate_samples(samples: PathSamples) -> dict:
    from .structure import axiswise_regularity, estimate_path_regularity

    if samples.grid.dim == 1:
        return _estimate_payload(estimate_path_regularity(samples))
    first, second = axiswise_regularity(samples)
    return {
        "axes": [_estimate_payload(first, axis=0), _estimate_payload(second, axis=1)]
    }


def _draw(args, expr: Kernel, *required: str):
    """A function of no arguments that runs sample_paths at the flags'
    grid, count and seed, which the desk profile fills in where not given.
    The request is checked first: a missing flag (of these or ``required``),
    grid text that is no grid or a count below 1 fails before anything runs."""
    if args.profile == "desk":
        one_d = expr.dim == 1
        if args.seed is None:
            args.seed = _DESK_SEED
        if args.grid is None:
            args.grid = _DESK_GRID_1D if one_d else _DESK_GRID_2D
        if args.count is None:
            args.count = _DESK_COUNT_1D if one_d else _DESK_COUNT_2D
    missing = [f"--{n}" for n in ("grid", "count", "seed", *required) if getattr(args, n) is None]
    if missing:
        raise _UsageError(f"missing required flags: {', '.join(missing)}")
    grid = _parse_grid(args.grid)
    if args.count < 1:
        raise ValueError("count must be >= 1")
    from .sampling import sample_paths

    return functools.partial(sample_paths, expr, grid, args.count, args.seed)


class _UsageError(Exception):
    pass


def _cmd_analyze(args) -> int:
    expr = parse_kernel(args.kernel)
    _emit(_analyze_payload(expr), args.format)
    return 0


def _cmd_verify(args) -> int:
    from .verify import VerifyConfig, verify_regularity, verify_to_dict

    expr = parse_kernel(args.kernel)
    cfg = VerifyConfig()
    if args.tol is not None:
        cfg = replace(cfg, tol=args.tol)
    if args.max_order is not None:
        cfg = replace(cfg, max_order=args.max_order)
    report = verify_regularity(expr, cfg=cfg)
    payload = {"kernel": print_kernel(expr), **verify_to_dict(report)}
    _emit(payload, args.format)
    return 0 if report.verdict in ("pass", "log-flagged") else 1


def _cmd_sample(args) -> int:
    from .sampling import write_samples

    samples = _draw(args, parse_kernel(args.kernel), "out")()
    csv_path = args.out if args.out.endswith(".csv") else f"{args.out}.csv"
    write_samples(samples, csv_path)
    print(csv_path)
    print(f"{os.path.splitext(csv_path)[0]}.json")
    return 0


def _cmd_estimate(args) -> int:
    if args.samples is not None:
        from .sampling import read_samples_csv

        samples = read_samples_csv(args.samples)
        payload = {"samples": args.samples, **_estimate_samples(samples)}
    else:
        if args.kernel is None:
            raise _UsageError("estimate needs --samples or --kernel with a grid request")
        expr = parse_kernel(args.kernel)
        samples = _draw(args, expr)()
        payload = {"kernel": print_kernel(expr), **_estimate_samples(samples)}
    _emit(payload, args.format)
    return 0


def _cmd_report(args) -> int:
    from .sampling import _write_json, write_samples
    from .verify import verify_regularity, verify_to_dict

    expr = parse_kernel(args.kernel)
    draw = None if args.no_sample else _draw(args, expr)
    analyze = _analyze_payload(expr)
    vreport = verify_regularity(expr)
    payload: dict = {
        "kernel": print_kernel(expr),
        "analyze": analyze,
        "verify": verify_to_dict(vreport),
    }
    files: dict = {}
    prefix = args.out or "report"
    if draw is None:
        payload["estimate"] = None
        payload["estimate_skipped"] = "sampling disabled by --no-sample"
    else:
        samples = draw()
        payload["estimate"] = _estimate_samples(samples)
        samples_csv = f"{prefix}_samples.csv"
        write_samples(samples, samples_csv)
        files["samples"] = samples_csv
        files["surface"] = f"{prefix}_surface.csv"
        _write_surface(expr, samples.grid, files["surface"])
    payload["files"] = files
    _write_json(payload, f"{prefix}.json")
    _emit(payload, args.format)
    return 0 if vreport.verdict in ("pass", "log-flagged") else 1


def _write_surface(expr: Kernel, grid: Grid, path: str) -> None:
    """Kernel values against the grid centre, one grid point per row."""
    import numpy as np

    from .sampling import _write_grid_csv

    centre = np.array([(a.start + a.stop) / 2.0 for a in grid.axes])
    _write_grid_csv(path, grid, ["k"], pairwise(expr, grid.points(), centre[None, :]))


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing does not modify it, and building it
    # costs more than a verify of a stationary leaf
    parser = argparse.ArgumentParser(
        prog="pathreg",
        description="Sample-path regularity of Gaussian processes from covariance kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, kernel_required=True):
        p.add_argument("--kernel", "-k", required=kernel_required, help="kernel DSL expression")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--profile", choices=("desk",), default=None)

    p = sub.add_parser("analyze", help="symbolic regularity report")
    add_common(p)

    p = sub.add_parser("verify", help="numeric verification of the prediction")
    add_common(p)
    p.add_argument("--tol", type=float, default=None, help="exponent tolerance (default 0.15)")
    p.add_argument("--max-order", dest="max_order", type=int, default=None)

    p = sub.add_parser("sample", help="draw seeded sample paths to CSV")
    add_common(p)
    p.add_argument("--grid", help="start:stop:count[,start:stop:count]")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output CSV path (sidecar JSON alongside)")

    p = sub.add_parser("estimate", help="estimate path regularity from draws")
    add_common(p, kernel_required=False)
    p.add_argument("--samples", help="CSV produced by the sample command")
    p.add_argument("--grid")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("report", help="combined analyze+verify+estimate report")
    add_common(p)
    p.add_argument("--grid")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output prefix for the report files")
    p.add_argument("--no-sample", dest="no_sample", action="store_true")
    return parser


_COMMANDS = {
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
    "estimate": _cmd_estimate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value that starts with "-" for a flag unless it reads
    # as a number, so a --grid value such as -1:1:9 is joined to its flag
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--grid" and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"--grid={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ParameterError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KernelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: arithmetic failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy names the allocation that failed: its size and shape
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
