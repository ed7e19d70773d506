"""Seeded GP sample-path generation on 1-D and 2-D grids.

Draws are rows L z where L is the jittered Cholesky factor of the Gram
matrix and z comes from a counter-based generator: draw i of seed s uses a
Philox4x64 bit generator keyed by SeedSequence(entropy=s, spawn_key=(i,))
feeding numpy's standard normal.  Draws are made in fixed blocks of
_DRAW_BLOCK indices [kB, (k+1)B), one BLAS product per block; the last
block is padded past the requested count with normals that are discarded.
Every product therefore sees the same inputs whatever the count, so a
draw is independent of draw order and count, and identical (seed, kernel,
grid) inputs reproduce it bitwise on one platform and BLAS.

The Gram of a stationary expression depends on p_i - p_j alone, and on a
uniform grid that difference runs over a lattice of lags, so the kernel is
evaluated once per lag (h and -h sharing one value) and the dense
(block-)Toeplitz Gram is gathered from the table: exactly symmetric, with
no per-entry distance or kernel evaluation.  Derivative paths of a
stationary expression gather their finite-difference Gram the same way.
A non-stationary conic combination or product is assembled from its
children's Grams (weighted sum, elementwise product), so its stationary
terms take the lag table too; derivative Grams are not split, since the
derivative covariance of a product is not the product of the children's.
Other non-stationary expressions are evaluated point by point in row blocks.

On a 1-D grid that Gram is Toeplitz, and sampling never builds it: the
kernel is evaluated at the lags k * spacing, k = 0..n-1 (the Gram's first
column), and the Cholesky factor comes from that column by the generalised
Schur algorithm in O(n^2), one contiguous row of the upper factor R at a
time, with the mixed-form hyperbolic rotations of Bojanczyk, Brent, de Hoog
and Sweet (1995, SIAM J. Matrix Anal. Appl. 16:40), which are stable for
positive definite Toeplitz matrices.  It shares the dense factorisation's
jitter ladder.  The Wiener kernel min(s, t) has the exact factor
L[i, j] = sqrt(p_j - p_(j-1)), j <= i, p_(-1) = 0, and needs neither its
Gram nor a jitter.  Every other Gram is factorised densely by LAPACK.

Top-level tensor-product kernels on matching 2-D grids are factorised per
axis: the Gram is the Kronecker product of the per-axis Grams, so its
Cholesky factor is the Kronecker product of the per-axis factors and a draw
is the two-sided product L1 Z L2^T.  This is an exact algebraic identity,
not an approximation; it exists because a dense 16384^2 factorisation does
not fit the acceptance-time budget on one core.

Sample and surface CSVs hold ``'%.17g'`` text, byte for byte what
``np.savetxt`` writes, but formatted in numpy blocks of _CSV_BLOCK values
instead of one value at a time.  A finite value with |v| in [1e-4, 1e16)
(fixed notation) takes its 17 significant digits from an exactly rounded
integer product (Dekker's two-product with an exact power of ten), its
digit bytes from a table of 4-digit groups and its layout from a byte
template whose unused slots are deleted; any other value (zero, subnormal,
tiny, huge, inf, NaN) is formatted by ``'%.17g'`` itself.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsl import print_kernel
from .kernels import (
    Conic,
    Kernel,
    KernelError,
    Product,
    Stationary,
    TensorProduct,
    Wiener,
    _check_wiener_domain,
    classify,
    pairwise,
)
from .regularity import infer_regularity
from .verify import derivative_kernel_matrix, _as_multiindex

__all__ = [
    "Axis",
    "Grid",
    "PathSamples",
    "FactorizationError",
    "build_gram",
    "cholesky_with_jitter",
    "sample_paths",
    "sample_derivative_paths",
    "write_samples_csv",
    "write_sidecar",
    "read_samples_csv",
]

MAX_GRID_POINTS = 128 * 128
# rows per pointwise Gram fill block, at most an eighth of the Gram's rows
_GRAM_BLOCK_ROWS = 1024
_DRAW_BLOCK = 50
_MAX_REL_JITTER = 1e-6


class FactorizationError(KernelError):
    """The Gram matrix stayed indefinite within the jitter budget."""


@dataclass(frozen=True)
class Axis:
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if not (self.start < self.stop):
            raise ValueError(f"axis needs start < stop, got [{self.start}, {self.stop}]")
        if self.count < 2:
            raise ValueError(f"axis needs at least 2 points, got {self.count}")

    @property
    def spacing(self) -> float:
        return (self.stop - self.start) / (self.count - 1)

    def ticks(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class Grid:
    """Evaluation grid; 2-D grids flatten row-major (first axis outer)."""

    axes: tuple[Axis, ...]

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if len(self.axes) not in (1, 2):
            raise ValueError("grids are 1-D or 2-D")
        if self.n_points > MAX_GRID_POINTS:
            raise ValueError(
                f"grid has {self.n_points} points; the dense-sampling cap is {MAX_GRID_POINTS}"
            )

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def n_points(self) -> int:
        n = 1
        for a in self.axes:
            n *= a.count
        return n

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.count for a in self.axes)

    def points(self) -> np.ndarray:
        if self.dim == 1:
            return self.axes[0].ticks()[:, None]
        t0 = self.axes[0].ticks()
        t1 = self.axes[1].ticks()
        xx, yy = np.meshgrid(t0, t1, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])


@dataclass(frozen=True)
class PathSamples:
    """Draws on a grid, one row per sample, with generation provenance."""

    grid: Grid
    samples: np.ndarray  # (count, n_points)
    kernel: str
    seed: int
    jitter_used: float
    alpha: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.samples.shape[1] != self.grid.n_points:
            raise ValueError("sample matrix does not match the grid size")
        alpha = tuple(int(a) for a in self.alpha) or tuple(0 for _ in range(self.grid.dim))
        if len(alpha) != self.grid.dim:
            raise ValueError("derivative multi-index does not match the grid dimension")
        object.__setattr__(self, "alpha", alpha)

    @property
    def count(self) -> int:
        return self.samples.shape[0]


def build_gram(expr: Kernel, grid: Grid) -> np.ndarray:
    """Gram matrix G[i, j] = k(p_i, p_j) on the grid points.

    A stationary expression is evaluated once per lag of the grid's lag
    lattice and the (block-)Toeplitz Gram is gathered from that table; lags
    h and -h share one value, so symmetry is exact bitwise by construction.
    A non-stationary conic combination or product is assembled term by
    term: the weighted sum or the elementwise product of its children's
    Grams, combined in the order ``pairwise`` combines their values, so a
    stationary child still takes its lag table.  Other expressions are
    evaluated pointwise in row blocks, which bounds temporary memory, and
    their strict upper triangle is mirrored in place.
    """
    if expr.dim != grid.dim:
        raise KernelError(
            f"kernel has dimension {expr.dim} but the grid is {grid.dim}-D"
        )
    return _kernel_gram(expr, grid)


def _kernel_gram(expr: Kernel, grid: Grid) -> np.ndarray:
    # kernel values only: the derivative covariance of a product is not the
    # product of its children's derivative covariances
    if not isinstance(expr, (Conic, Product)) or isinstance(classify(expr), Stationary):
        return _assemble_gram(expr, grid, partial(pairwise, expr))
    grams = (_kernel_gram(c, grid) for c in expr.children)
    acc = next(grams)
    if isinstance(expr, Conic):
        acc *= expr.weights[0]
        for w, gram in zip(expr.weights[1:], grams):
            gram *= w
            acc += gram
    else:
        for gram in grams:
            acc *= gram
    return acc


def _assemble_gram(expr: Kernel, grid: Grid, cross) -> np.ndarray:
    # cross(X, Y) is the matrix of a covariance between point sets X and Y;
    # it is a function of X - Y alone whenever expr is stationary
    if isinstance(classify(expr), Stationary):
        return _lag_gram(grid, _lag_function(cross, grid.dim))
    pts = grid.points()
    n = pts.shape[0]
    gram = np.empty((n, n))
    rows = min(_GRAM_BLOCK_ROWS, -(-n // 8))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        gram[lo:hi] = cross(pts[lo:hi], pts)
        # mirror the strict upper triangle in place: the rows above this
        # block hold its left part, its own rows the diagonal block's
        gram[lo:hi, :lo] = gram[:lo, lo:hi].T
        for i in range(lo + 1, hi):
            gram[i, lo:i] = gram[lo:i, i]
    # adding +0.0 turns -0.0 into +0.0, as the triangle sum this replaced did
    np.add(gram, 0.0, out=gram)
    return gram


def _lag_function(cross, dim: int):
    # a stationary covariance as a function of the lag alone
    return lambda lags: cross(lags, np.zeros((1, dim)))[:, 0]


def _half_lag_table(grid: Grid, lag_values) -> np.ndarray:
    """lag_values at the half of the grid's lag lattice from its centre on,
    row-major; on a 1-D grid these are the lags k * spacing, k = 0..n-1,
    whose values are the Toeplitz Gram's first column."""
    shape = tuple(2 * n - 1 for n in grid.shape)
    size = math.prod(shape)
    steps = np.unravel_index(np.arange(size // 2, size), shape)
    lags = np.column_stack([(k - (a.count - 1)) * a.spacing for k, a in zip(steps, grid.axes)])
    return lag_values(lags)


def _lag_gram(grid: Grid, lag_values) -> np.ndarray:
    """Gram of a stationary covariance from its values at the grid lags.

    The lag lattice has steps k_a in (-n_a, n_a) per axis.  Flattened
    row-major it is symmetric about its centre, so lag_values (lags of shape
    (m, dim) -> m values) is called on the half from the centre on and the
    other half is its mirror image: table[k] == table[-k] bitwise.  Then
    G[i, j] = table[n - 1 + i - j] = table[n - 1 - i + j], which is entry
    (n - 1 - i, j) of the table's sliding windows of the grid's shape; the
    same view serves 1-D and 2-D grids.
    """
    half = _half_lag_table(grid, lag_values)
    table = np.concatenate([half[:0:-1], half]).reshape(tuple(2 * n - 1 for n in grid.shape))
    windows = sliding_window_view(table, grid.shape)[(slice(None, None, -1),) * grid.dim]
    return np.ascontiguousarray(windows).reshape(grid.n_points, grid.n_points)


def cholesky_with_jitter(matrix: np.ndarray, max_rel_jitter: float = _MAX_REL_JITTER):
    """Cholesky factorisation with an escalating diagonal jitter.

    Tries jitter lambda in {0, l0, 10 l0, ...} with l0 = 1e-12 trace/N and
    fails once lambda would exceed max_rel_jitter * trace/N, which signals a
    kernel or domain bug rather than ordinary rounding indefiniteness.
    Returns (lower factor, jitter_used).  The jitter is added to the
    diagonal in place and taken off again, so the caller's matrix is
    unchanged on return, also when ``FactorizationError`` is raised; no
    other thread may read it during the call.  A read-only matrix is
    copied first.
    """
    matrix = np.asarray(matrix, dtype=float)
    if not matrix.flags.writeable:
        matrix = matrix.copy()
    diag = matrix.diagonal().copy()

    def factor(jitter):
        np.fill_diagonal(matrix, diag + jitter)
        return np.linalg.cholesky(matrix)

    try:
        return _jitter_ladder(factor, float(np.trace(matrix)) / matrix.shape[0], max_rel_jitter)
    finally:
        np.fill_diagonal(matrix, diag)


def _jitter_ladder(factor, scale: float, max_rel_jitter: float):
    """(factor(jitter), jitter) for the first jitter in {0, l0, 10 l0, ...},
    l0 = 1e-12 scale, at which factor does not raise LinAlgError; scale is
    trace/N of the matrix being factorised."""
    if scale <= 0.0:
        raise FactorizationError("matrix has non-positive trace; not a Gram matrix")
    base = 1e-12 * scale
    jitter = 0.0
    while True:
        try:
            return factor(jitter), jitter
        except np.linalg.LinAlgError:
            jitter = base if jitter == 0.0 else 10.0 * jitter
            if jitter > max_rel_jitter * scale:
                raise FactorizationError(
                    f"jitter budget exceeded ({jitter:.3e} > {max_rel_jitter * scale:.3e}); "
                    "matrix is effectively indefinite"
                ) from None


def _toeplitz_cholesky(column: np.ndarray):
    """cholesky_with_jitter of the symmetric Toeplitz matrix with first
    column ``column``, computed from the column alone in O(n^2)."""
    n = column.shape[0]
    # trace/N as np.trace sums the diagonal of the dense matrix, so the
    # ladder's rungs are bitwise those of the dense path
    scale = float(np.full(n, column[0]).sum()) / n
    return _jitter_ladder(lambda jitter: _schur(column, jitter), scale, _MAX_REL_JITTER)


def _schur(column: np.ndarray, jitter: float) -> np.ndarray:
    """Lower Cholesky factor of T + jitter I, T the symmetric Toeplitz matrix
    with first column ``column``, by the generalised Schur algorithm.

    T - Z T Z^T = u u^T - v v^T with u = (t0, t1, ...) / sqrt(t0) and v = u
    with v[0] = 0 (Z the down shift).  Row 0 of the upper factor R is u;
    for k >= 1 the generator pair (Z u, v) is rotated hyperbolically so that
    v[k] vanishes, and the rotated u is row k of R.  In mixed form (stable
    for positive definite T) the rotation by rho = v[k] / u[k-1] reads
    u' = (Z u - rho v) / c, v' = c v - rho u', c = sqrt((1 - rho)(1 + rho)).
    Raises LinAlgError when T + jitter I is not positive definite: then t0
    <= 0 or some |rho| >= 1.
    """
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


def _brownian_factor(ticks: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of min(p_i, p_j) on increasing points p > 0.

    min(p_i, p_j) is the sum of the increments p_k - p_(k-1), p_(-1) = 0,
    over k <= min(i, j), so L[i, j] = sqrt(p_j - p_(j-1)) for j <= i; it is
    exact, and needs no jitter.
    """
    _check_wiener_domain(ticks)
    steps = np.sqrt(np.diff(ticks, prepend=0.0))
    return np.tril(np.broadcast_to(steps, (ticks.shape[0], ticks.shape[0])))


def _draw_normals(seed: int, index: int, n: int) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.Philox(ss)).standard_normal(n)


def _draw_rows(seed: int, count: int, n: int, apply) -> np.ndarray:
    """Draws 0..count-1; apply maps a (_DRAW_BLOCK, n) block of normals to
    its draws.  The block is fixed, not count, because the leading rows of
    a BLAS product are not bitwise those of a shorter product."""
    rows = np.empty((count, n))
    for lo in range(0, count, _DRAW_BLOCK):
        z = np.stack([_draw_normals(seed, i, n) for i in range(lo, lo + _DRAW_BLOCK)])
        rows[lo:lo + _DRAW_BLOCK] = apply(z)[: count - lo]
    return rows


def _tensor_factors(expr: Kernel, grid: Grid):
    # exact per-axis factorisation applies to a top-level tensor product of
    # 1-D factors on a matching 2-D grid
    if (
        isinstance(expr, TensorProduct)
        and grid.dim == 2
        and len(expr.factors) == 2
        and all(c.dim == 1 for c in expr.factors)
    ):
        return expr.factors
    return None


def _factorise(expr: Kernel, grid: Grid, cross, dense_gram):
    """(lower factor, jitter_used) of the covariance cross(X, Y) on the grid.

    A stationary expression on a 1-D grid is factored by the Schur algorithm
    from its values at the lags k * spacing alone, and the Wiener kernel by
    its exact Brownian factor; anything else is
    cholesky_with_jitter(dense_gram()).
    """
    if expr.dim != grid.dim:
        raise KernelError(f"kernel has dimension {expr.dim} but the grid is {grid.dim}-D")
    # the Wiener kernel admits only alpha = 0, where cross is the kernel
    if isinstance(expr, Wiener):
        return _brownian_factor(grid.axes[0].ticks()), 0.0
    if grid.dim == 1 and isinstance(classify(expr), Stationary):
        return _toeplitz_cholesky(_half_lag_table(grid, _lag_function(cross, 1)))
    return cholesky_with_jitter(dense_gram())


def sample_paths(expr: Kernel, grid: Grid, count: int, seed: int) -> PathSamples:
    """Draw centred GP sample paths on the grid; rows are independent draws."""
    if count < 1:
        raise ValueError("count must be >= 1")

    def factorise(e: Kernel, g: Grid):
        return _factorise(e, g, partial(pairwise, e), partial(build_gram, e, g))

    factors = _tensor_factors(expr, grid)
    n = grid.n_points
    if factors is not None:
        n1, n2 = grid.shape
        (l1, j1), (l2, j2) = (
            factorise(f, Grid((axis,))) for f, axis in zip(factors, grid.axes)
        )
        rows = _draw_rows(
            seed, count, n, lambda z: (l1 @ z.reshape(-1, n1, n2) @ l2.T).reshape(-1, n)
        )
        jitter = max(j1, j2)
    else:
        lower, jitter = factorise(expr, grid)
        rows = _draw_rows(seed, count, n, lambda z: z @ lower.T)
    return PathSamples(
        grid=grid,
        samples=rows,
        kernel=print_kernel(expr),
        seed=int(seed),
        jitter_used=jitter,
    )


def sample_derivative_paths(
    expr: Kernel, alpha, grid: Grid, count: int, seed: int, step: float | None = None
) -> PathSamples:
    """Draw from the derivative process GP(0, d^(alpha,alpha) k).

    The sample-path order inferred for the kernel must exceed |alpha|, else
    the requested derivative outruns the differentiability of the paths.
    The derivative kernel is built by finite differences on shifted grids,
    not by differencing sampled paths.
    """
    alpha = tuple(int(a) for a in np.atleast_1d(np.asarray(alpha, dtype=int)))
    _as_multiindex(alpha, expr.dim)
    if count < 1:
        raise ValueError("count must be >= 1")
    report = infer_regularity(expr)
    total = sum(alpha)
    if not (report.order > total):
        raise KernelError(
            f"derivative order |alpha|={total} is not below the sample-path order "
            f"{report.order}; the derivative process does not exist"
        )

    def cross(X, Y):
        return derivative_kernel_matrix(expr, alpha, X, step=step, Y=Y)

    lower, jitter = _factorise(expr, grid, cross, partial(_assemble_gram, expr, grid, cross))
    return PathSamples(
        grid=grid,
        samples=_draw_rows(seed, count, grid.n_points, lambda z: z @ lower.T),
        kernel=print_kernel(expr),
        seed=int(seed),
        jitter_used=jitter,
        alpha=alpha,
    )


# --- serialisation ----------------------------------------------------------


def write_samples_csv(samples: PathSamples, path: str) -> None:
    """CSV with one grid point per row: coordinates, then one column per draw."""
    names = [f"s{i}" for i in range(samples.count)]
    _write_grid_csv(path, samples.grid, names, samples.samples.T)


def _write_grid_csv(path: str, grid: Grid, names: list[str], values: np.ndarray) -> None:
    """One grid point per row: coordinates, then the named value columns.
    Floats carry 17 significant digits (``'%.17g'``) so values round-trip
    exactly; rows end in CRLF.  Written atomically (temp file + rename)."""
    header = ",".join(["x", "y"][: grid.dim] + names)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(header.encode() + b"\r\n")
        for chunk in _format_rows(grid.points(), values):
            fh.write(chunk)
    os.replace(tmp, path)


def _format_rows(*columns: np.ndarray):
    """The CSV rows of the float table np.column_stack(columns), as
    ``np.savetxt`` writes them with fmt="%.17g", delimiter="," and
    newline="\\r\\n", yielded in blocks of whole rows, at most _CSV_BLOCK
    values or one row each; the table is never built whole."""
    cols = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    rows = max(1, _CSV_BLOCK // cols)
    ends = np.arange(rows * cols) % cols == cols - 1
    for lo in range(0, columns[0].shape[0], rows):
        block = np.column_stack([c[lo:lo + rows] for c in columns]).ravel()
        yield _format_block(block, ends[: block.size])


# values per formatted block: bounds the formatter's temporaries
_CSV_BLOCK = 16384
# 10^p for p = 0..22, each an exact double (products of exact powers of ten)
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
# the ASCII digits of 0..9999, four per row, as one 4-byte word per number,
# and the trailing zero count of each number (4 for 0); built from byte
# arrays, so import leaves no large temporaries behind in the heap
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_QUAD_DIGITS = np.stack([np.tile(np.repeat(_DIGITS, 10**k), 10**(3 - k)) for k in (3, 2, 1, 0)], 1)
_QUADS = _QUAD_DIGITS.view(np.uint32).ravel()
_TRAILING = np.cumprod(_QUAD_DIGITS[:, ::-1] == ord("0"), axis=1, dtype=np.uint8).sum(axis=1)
# the slots "0.000" ahead of the digits of |v| < 1, and the largest decimal
# exponent at which each is used: 0.1 -> "0.", 0.01 -> "0.0", ...
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]
_PREFIX_MAX_EXP = np.array([-1, -1, -2, -3, -4])[:, None]
# slots per value: sign, prefix, 17 digits each followed by a decimal-point
# slot but the last, and a two-byte separator
_SLOTS = 1 + 5 + 33 + 2
_FALLBACK = 1  # sign-slot marker of a value formatted by '%.17g' itself


def _format_block(values: np.ndarray, ends: np.ndarray) -> bytes:
    """The bytes of ``'%.17g' % v`` for each value, each followed by ","
    or, where ``ends`` is True, by CRLF.

    Finite |v| in [1e-4, 1e16), always fixed notation under %.17g, are
    formatted here.  Each value is laid out in a column of a (slot, value)
    byte template: sign, the "0.000" ahead of |v| < 1, 17 digits with a
    decimal-point slot after each but the last, and the separator.  Unused
    slots hold 0 and are deleted with ``bytes.translate``.  Every other
    value (0, subnormal, tiny, huge, inf, NaN) leaves a marker that is
    replaced by ``'%.17g' % v``.
    """
    m = values.shape[0]
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e16)
    slots = np.empty((_SLOTS, m), np.uint8)
    digits = slots[6:39:2]
    # the rest take a harmless stand-in, so log10 and the split stay finite
    e, last = _significant_digits(np.where(fast, a, 1.0), digits)
    # keep digits up to the last significant one and up to the units digit
    last = np.maximum(last, e)
    last[~fast] = -1
    digits *= np.arange(17)[:, None] <= last
    slots[0] = (values < 0.0) * np.uint8(ord("-"))
    slots[0, ~fast] = _FALLBACK
    slots[1:6] = _PREFIX * ((e <= _PREFIX_MAX_EXP) & fast)
    # a decimal point follows the units digit when a significant digit follows it
    slots[7:38:2] = ((np.arange(16)[:, None] == e) & (last > e)) * np.uint8(ord("."))
    slots[39] = np.where(ends, np.uint8(ord("\r")), np.uint8(ord(",")))
    slots[40] = ends * np.uint8(ord("\n"))
    text = slots.T.tobytes().translate(None, b"\0")
    slow = np.flatnonzero(~fast)
    if slow.size:
        parts = text.split(bytes([_FALLBACK]))
        parts[1:] = [b"%.17g" % v + p for v, p in zip(values[slow].tolist(), parts[1:])]
        text = b"".join(parts)
    return text


def _significant_digits(a: np.ndarray, out: np.ndarray):
    """Write the 17 significant decimal digits of each a in [1e-4, 1e16),
    correctly rounded, as ASCII down the rows of ``out`` (17 rows); return
    the decimal exponents E and the index of each last non-zero digit.

    With E = floor(log10 a) the digits are N = round-half-even(a 10^(16-E)),
    where the product is exact as hi + lo (10^(16-E) is an exact double and
    Dekker's two-product splits the rounding error off).  E from log10 may
    be one off near a power of ten, so it is fixed by exact comparisons of
    hi + lo with 10^16 and 10^17.  hi >= 10^16 > 2^53 is then an even
    integer and |lo| <= 8, so N = hi + rint(lo) exactly, in int64.
    """
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _two_product(a, _POW10[16 - e])
    shift = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))).astype(np.intp)
    shift -= (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    if shift.any():
        e += shift
        hi, lo = _two_product(a, _POW10[16 - e])
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # rounding up to 10^17 carries into the exponent; the digit split below
    # needs exactly 17 digits
    carry = n == 10**17
    n[carry] = 10**16
    e += carry

    upper, lower = np.divmod(n, 10**8)
    lead, rest = np.divmod(upper, 10**8)
    high, mid_high = np.divmod(rest, 10**4)
    mid_low, low = np.divmod(lower, 10**4)
    out[0] = lead + ord("0")
    quads = np.take(_QUADS, np.stack([high, mid_high, mid_low, low])).view(np.uint8)
    out[1:] = quads.reshape(4, -1, 4).transpose(0, 2, 1).reshape(16, -1)
    tz_high = np.where(mid_high == 0, 4 + _TRAILING[high], _TRAILING[mid_high])
    tz_low = np.where(low == 0, 4 + _TRAILING[mid_low], _TRAILING[low])
    return e, 16 - np.where(lower == 0, 8 + tz_high, tz_low)


def _two_product(a: np.ndarray, b: np.ndarray):
    """(hi, lo) with hi = fl(a b) and hi + lo == a b exactly (Dekker)."""
    hi = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _split(a: np.ndarray):
    # Veltkamp's split into two halves of at most 26 significant bits
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def write_sidecar(samples: PathSamples, path: str) -> None:
    """Metadata JSON describing how the samples were generated."""
    meta = {
        "kernel": samples.kernel,
        "seed": samples.seed,
        "grid": {
            "dim": samples.grid.dim,
            "axes": [
                {"start": a.start, "stop": a.stop, "count": a.count}
                for a in samples.grid.axes
            ],
        },
        "jitter_used": samples.jitter_used,
        "alpha": list(samples.alpha),
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def read_samples_csv(path: str) -> PathSamples:
    """Rebuild PathSamples from a CSV written by write_samples_csv.

    The grid is reconstructed from the coordinate columns, which must form
    a uniform row-major 1-D or 2-D grid.  Provenance (kernel, seed, jitter,
    derivative multi-index) comes from the sidecar ``<stem>.json`` when one
    exists, and its grid must match the CSV's; without a sidecar the seed
    reads -1 and the jitter NaN.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[:2] == ["x", "y"]:
            coord_cols = 2
        elif header[:1] == ["x"]:
            coord_cols = 1
        else:
            raise ValueError(f"unrecognised samples header {header[:2]}")
        # np.loadtxt only warns on empty input
        start = fh.tell()
        if not fh.readline().strip():
            raise ValueError("samples file contains no rows")
        fh.seek(start)
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    coords = data[:, :coord_cols]
    values = data[:, coord_cols:].T.copy()
    if coord_cols == 1:
        axis = _axis_from_ticks(coords[:, 0])
        grid = Grid((axis,))
    else:
        x0 = coords[:, 0]
        x1 = coords[:, 1]
        n1 = len(np.unique(x1[x0 == x0[0]]))
        if coords.shape[0] % n1 != 0:
            raise ValueError("coordinates do not form a row-major grid")
        n0 = coords.shape[0] // n1
        axis0 = _axis_from_ticks(x0.reshape(n0, n1)[:, 0])
        axis1 = _axis_from_ticks(x1.reshape(n0, n1)[0, :])
        grid = Grid((axis0, axis1))
        expected = grid.points()
        if not np.allclose(expected, coords, rtol=0, atol=1e-9):
            raise ValueError("coordinates do not form a row-major grid")
    try:
        with open(f"{os.path.splitext(path)[0]}.json") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        return PathSamples(grid=grid, samples=values, kernel="", seed=-1, jitter_used=float("nan"))
    try:
        same_grid = Grid(tuple(Axis(**a) for a in meta["grid"]["axes"])) == grid
        provenance = {k: meta[k] for k in ("kernel", "seed", "jitter_used", "alpha")}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed samples sidecar: {exc!r}") from None
    if not same_grid:
        raise ValueError("the samples sidecar describes another grid than the CSV")
    return PathSamples(grid=grid, samples=values, **provenance)


def _axis_from_ticks(ticks: np.ndarray) -> Axis:
    if len(ticks) < 2:
        raise ValueError("an axis needs at least 2 points")
    spacing = np.diff(ticks)
    if np.any(spacing <= 0) or not np.allclose(spacing, spacing[0], rtol=1e-6, atol=1e-12):
        raise ValueError("grid ticks are not uniformly increasing")
    return Axis(float(ticks[0]), float(ticks[-1]), len(ticks))
