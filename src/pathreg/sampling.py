"""Seeded GP sample-path generation on 1-D and 2-D grids.

Draws are rows L z where L is the jittered Cholesky factor of the Gram
matrix and z comes from a counter-based generator: draw i of seed s uses a
Philox4x64 bit generator keyed by SeedSequence(entropy=s, spawn_key=(i,))
feeding numpy's standard normal.  Only _add_rows pads: each of its BLAS
products takes a whole block of _DRAW_BLOCK draws [kB, (k+1)B), the last
padded past the count with the normals of the draws after it, and keeps
the rows that are draws.  Every other operator overwrites its table of
``count`` rows of normals row by row, which needs no padding.  So a draw
is independent of draw order and count, and identical (seed, kernel,
grid) inputs reproduce it bitwise on one platform and BLAS.  A
factorisation is a draw operator, mapping a source of normals and a count
to that many draws and the jitter used; the source hands out any block of
rows and columns of the table of normals, and each draw's stream continues
across the calls that take its columns in order, so the normals are never
held beside the draws.  A matrix factor, where one is needed, is the
operator's draws of the identity, exactly.

The Gram of a stationary expression depends on p_i - p_j alone, and on a
uniform grid that difference runs over a lattice of lags, so the kernel is
evaluated once per lag (h and -h sharing one value) and the dense
(block-)Toeplitz Gram is gathered from the table: exactly symmetric, with
no per-entry distance or kernel evaluation.  A non-stationary conic
combination or product is folded from its children's Grams by the kernel
layer's ``_fold``, the rule by which ``pairwise`` combines their values, so
its stationary leaves take the lag table too.  Other non-stationary
expressions are evaluated point by point in row blocks.

Derivative paths, draws of GP(0, d^(alpha,alpha) k), follow every rule
below with the exact derivative covariance in place of the kernel: one
builder makes the draw operators of both, alpha = 0 being the kernel,
and it refuses an alpha that the sample-path order inferred for the
kernel (for a tensor, each factor's) does not exceed.  A stationary
derivative Gram comes from a lag table the same way, but a non-stationary
sum or product is not split term by term at alpha != 0, since the
derivative covariance of a product is not the product of the children's.

On a 1-D grid that Gram is Toeplitz, and sampling never builds it, nor its
factor: the kernel is evaluated at the lags k * spacing, k = 0..n-1 (the
Gram's first column), and the upper Cholesky factor R comes from that
column by the generalised Schur algorithm in O(n^2), one contiguous row at
a time, with the mixed-form hyperbolic rotations of Bojanczyk, Brent, de
Hoog and Sweet (1995, SIAM J. Matrix Anal. Appl. 16:40), which are stable
for positive definite Toeplitz matrices.  The rows are added into the draws
a block at a time through one reused buffer of _SCHUR_BLOCK * n (64 n)
values: row k holds n - k live columns, so a block of shorter rows holds
more of them, from 64 rows at the top to several hundred at the bottom.
Each block of _DRAW_BLOCK (100) draws takes the normals of the block's
columns just before its product, which goes into one reused tile of at
most _PRODUCT_COLUMNS (1024) columns.  So a draw holds the draws, the
buffer, one product tile and one block of normals, never an n x n array:
200 draws on 4097 points trace 1.54 draw tables at their peak.  The whole
streamed draw is one attempt of the dense factorisation's jitter ladder,
and each attempt restarts the normals' streams.  The Wiener kernel
min(s, t) has the exact factor L[i, j] = sqrt(p_j - p_(j-1)), j <= i,
p_(-1) = 0, so its draws are running sums of the scaled normals, taken in
place in O(count n), with neither its Gram nor a jitter.  Every other Gram is
factorised densely by LAPACK, and _add_rows adds its upper factor as one block.

Top-level tensor-product kernels on matching 2-D grids are factorised per
axis: the Gram is the Kronecker product of the per-axis Grams, so its
Cholesky factor is the Kronecker product of the per-axis factors and a draw
is the two-sided product L1 Z L2^T, taken one field at a time over that
field's own normals.  The derivative covariance of a tensor
is the product of its factors' derivative covariances, so a derivative
draw factorises each axis at its own component of alpha.  This is an exact
algebraic identity, not an approximation; it exists because a dense
16384^2 factorisation does not fit the acceptance-time budget on one core.

A samples file is a CSV written with a binary twin beside it, ``<stem>.npy``,
holding the same float64 draws, and a JSON sidecar ``<stem>.json`` with
their provenance, written in that order, each atomically (a write that
raises removes its temp file); the sidecar records the sha256 of the CSV,
of the twin and of its own other keys.  The CSV is the canonical output.
The reader takes the twin only while all three hash as recorded, and
parses the CSV otherwise, so a missing or stale twin costs time and
changes no value.

Sample and surface CSVs hold ``'%.17g'`` text, byte for byte what
``np.savetxt`` writes, but formatted in numpy blocks of _CSV_BLOCK values
instead of one value at a time.  A finite value with |v| in [1e-4, 1e16)
(fixed notation) takes its 17 significant digits from an exactly rounded
integer product (Dekker's two-product with an exact power of ten, whose
split is tabulated), cut into 4-digit groups by floor division and
multiply-subtract.  Its digit bytes come from a table of 4-digit groups,
its last significant digit from the trailing zeros of the lowest group
(the groups above are read only where that one is 0), and its layout from
a byte template whose unused slots are deleted; the decimal point is
written by index.  A zero is laid out as "0" or "-0", its sign taken from
the sign bit.  Any other value (subnormal, tiny, huge, inf, NaN) is
formatted by ``'%.17g'`` itself.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._base import field, record
from .dsl import print_kernel
from .kernels import (
    Kernel,
    KernelError,
    Stationary,
    TensorProduct,
    Wiener,
    _check_wiener_domain,
    _fold,
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
    "write_samples",
    "write_samples_csv",
    "write_sidecar",
    "read_samples_csv",
]

MAX_GRID_POINTS = 128 * 128
# rows per pointwise Gram fill block, at most an eighth of the Gram's rows
_GRAM_BLOCK_ROWS = 1024
_DRAW_BLOCK = 100
# rows of the first Schur factor block; every block holds at most
# _SCHUR_BLOCK * n values, so blocks of shorter rows hold more of them
_SCHUR_BLOCK = 64
# columns of the one tile that a Schur draw's products are taken into
_PRODUCT_COLUMNS = 1024
# the jitter ladder gives up above this multiple of trace/N
_MAX_REL_JITTER = 1e-6


class FactorizationError(KernelError):
    """The Gram matrix stayed indefinite within the jitter budget."""


@record
class Axis:
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if not (self.start < self.stop):
            raise ValueError(f"axis needs start < stop, got [{self.start}, {self.stop}]")
        if self.count < 2:
            raise ValueError(f"axis needs at least 2 points, got {self.count}")
        if not math.isfinite(self.spacing):
            raise ValueError(f"axis needs finite ends and spacing, got [{self.start}, {self.stop}]")

    @property
    def spacing(self) -> float:
        return (self.stop - self.start) / (self.count - 1)

    def ticks(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@record
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


@record
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
    A non-stationary conic combination or product is the kernel layer's
    ``_fold`` of its children's Grams, by which ``pairwise`` combines their
    values, so each stationary leaf still takes its lag table.  Other
    expressions are evaluated pointwise, in row blocks from the diagonal on
    to bound the temporaries, and their strict upper triangle is mirrored
    in place.
    """
    if expr.dim != grid.dim:
        raise KernelError(f"kernel has dimension {expr.dim} but the grid is {grid.dim}-D")
    if isinstance(classify(expr), Stationary):
        return _assemble_gram(expr, grid, partial(pairwise, expr))
    return _fold(expr, lambda node: _assemble_gram(node, grid, partial(pairwise, node)))


def _assemble_gram(expr: Kernel, grid: Grid, cross) -> np.ndarray:
    # cross(X, Y) is the matrix of a covariance between point sets X and Y;
    # it is a function of X - Y alone whenever expr is stationary
    if isinstance(classify(expr), Stationary):
        return _lag_gram(grid, cross)
    pts = grid.points()
    n = pts.shape[0]
    gram = np.empty((n, n))
    rows = min(_GRAM_BLOCK_ROWS, -(-n // 8))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        # an entry does not depend on its block: evaluate from the diagonal on
        gram[lo:hi, lo:] = cross(pts[lo:hi], pts[lo:])
        # mirror the strict upper triangle in place: the rows above this
        # block hold its left part, its own rows the diagonal block's
        gram[lo:hi, :lo] = gram[:lo, lo:hi].T
        for i in range(lo + 1, hi):
            gram[i, lo:i] = gram[lo:i, i]
    # adding +0.0 turns -0.0 into +0.0, as the triangle sum this replaced did
    np.add(gram, 0.0, out=gram)
    return gram


def _half_lag_table(grid: Grid, cross) -> np.ndarray:
    """cross(lags, origin) of a stationary covariance on the half of the
    grid's lag lattice from its centre on, row-major; on a 1-D grid, the
    lags k * spacing, k = 0..n-1, give the Toeplitz Gram's first column."""
    shape = tuple(2 * n - 1 for n in grid.shape)
    size = math.prod(shape)
    steps = np.unravel_index(np.arange(size // 2, size), shape)
    lags = np.column_stack([(k - (a.count - 1)) * a.spacing for k, a in zip(steps, grid.axes)])
    return cross(lags, np.zeros((1, grid.dim)))[:, 0]


def _lag_gram(grid: Grid, cross) -> np.ndarray:
    """Gram of a stationary covariance cross(X, Y) from its values at the grid lags.

    The lag lattice has steps k_a in (-n_a, n_a) per axis.  Flattened
    row-major it is symmetric about its centre, so the covariance is taken
    on the half from the centre on and the other half is its mirror image:
    table[k] == table[-k] bitwise.  Then G[i, j] = table[n - 1 + i - j] =
    table[n - 1 - i + j], which is entry (n - 1 - i, j) of the table's
    sliding windows of the grid's shape; the same view serves 1-D and 2-D
    grids.
    """
    half = _half_lag_table(grid, cross)
    table = np.concatenate([half[:0:-1], half]).reshape(tuple(2 * n - 1 for n in grid.shape))
    windows = sliding_window_view(table, grid.shape)[(slice(None, None, -1),) * grid.dim]
    return np.ascontiguousarray(windows).reshape(grid.n_points, grid.n_points)


def cholesky_with_jitter(matrix: np.ndarray):
    """Cholesky factorisation with an escalating diagonal jitter.

    Tries jitter lambda in {0, l0, 10 l0, ...} with l0 = 1e-12 trace/N and
    fails once lambda would exceed 1e-6 trace/N, which signals a
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
        return _jitter_ladder(factor, diag)
    finally:
        np.fill_diagonal(matrix, diag)


def _jitter_ladder(factor, diag: np.ndarray):
    """(factor(jitter), jitter) for the first jitter in {0, l0, 10 l0, ...},
    l0 = 1e-12 trace/N, at which factor does not raise LinAlgError; diag is
    the diagonal of the matrix being factorised, and its sum is bitwise
    np.trace's of that matrix."""
    scale = float(diag.sum()) / diag.shape[0]
    if not 0.0 < scale < math.inf:
        raise FactorizationError(f"matrix trace/N {scale!r} is not positive and finite")
    base = 1e-12 * scale
    jitter = 0.0
    while True:
        try:
            return factor(jitter), jitter
        except np.linalg.LinAlgError:
            jitter = base if jitter == 0.0 else 10.0 * jitter
            if jitter > _MAX_REL_JITTER * scale:
                raise FactorizationError(
                    f"jitter budget exceeded ({jitter:.3e} > {_MAX_REL_JITTER * scale:.3e}); "
                    "matrix is effectively indefinite"
                ) from None


def _toeplitz_draws(column: np.ndarray):
    """Draw operator of the symmetric Toeplitz matrix with first column
    ``column``: each call streams its draws from the Schur rows, as one
    attempt of the jitter ladder per rung."""
    diag = np.full(column.shape[0], column[0])
    return lambda normals, count: _jitter_ladder(
        partial(_schur, column, normals=normals, count=count), diag
    )


def _schur_blocks(n: int) -> list[tuple[int, int]]:
    """(k0, size) of each block of Schur factor rows on n points, in
    order: the block from row k0 holds min(n - k0, _SCHUR_BLOCK * n //
    (n - k0)) rows, stored from column k0, so each fits in _SCHUR_BLOCK * n
    values and the blocks widen as their rows shorten.  The blocks depend
    on n alone."""
    blocks = []
    k0 = 0
    while k0 < n:
        size = min(n - k0, _SCHUR_BLOCK * n // (n - k0))
        blocks.append((k0, size))
        k0 += size
    return blocks


def _schur(column: np.ndarray, jitter: float, normals, count: int) -> np.ndarray:
    """z R for the first ``count`` rows of the table z of a normal source,
    R the upper Cholesky factor of T + jitter I (T = R^T R), T the
    symmetric Toeplitz matrix with first column ``column``, by the
    generalised Schur algorithm.

    T - Z T Z^T = u u^T - v v^T with u = (t0, t1, ...) / sqrt(t0) and v = u
    with v[0] = 0 (Z the down shift).  Row 0 of R is u; for k >= 1 the
    generator pair (Z u, v) is rotated hyperbolically so that v[k]
    vanishes, and the rotated u is row k of R.  In mixed form (stable for
    positive definite T) the rotation by rho = v[k] / u[k-1] reads
    u' = (Z u - rho v) / c, v' = c v - rho u', c = sqrt((1 - rho)(1 + rho)).
    R is never held whole: each block of _schur_blocks(n), rows k0..k1-1
    from column k0, is computed into one buffer of _SCHUR_BLOCK * n values,
    added into the draws by _add_rows as z[:, k0:k1] R[k0:k1, k0:], and
    overwritten by the next block, whose first row reads a copy of the
    last one.  So the draws, the buffer, one 100 x 1024 product tile and
    one block of normals for 100 draws are all a call holds.  Raises
    LinAlgError when T + jitter I is not positive definite: then t0 <= 0
    or some |rho| >= 1.
    """
    n = column.shape[0]
    t0 = column[0] + jitter
    if not t0 > 0.0:
        raise np.linalg.LinAlgError("Toeplitz matrix is not positive definite")
    draws = np.zeros((count, n))
    # the first block, min(_SCHUR_BLOCK, n) rows of n, is the largest
    buffer = np.empty(min(_SCHUR_BLOCK, n) * n)
    u = buffer[:n]
    u[0] = t0
    u[1:] = column[1:]
    u /= math.sqrt(t0)
    v = u.copy()
    v[0] = 0.0
    work = np.empty(n)
    last = u
    for k0, size in _schur_blocks(n):
        rows = buffer[: size * (n - k0)].reshape(size, n - k0)
        # row 0 is u
        for i in range(k0 == 0, size):
            k = k0 + i
            shifted = last[:-1]
            vk = v[k:]
            rho = vk[0] / shifted[0]
            if not abs(rho) < 1.0:
                raise np.linalg.LinAlgError("Toeplitz matrix is not positive definite")
            c = math.sqrt((1.0 - rho) * (1.0 + rho))
            # the buffer row's part left of R's diagonal holds a row of the last block
            rows[i, :i] = 0.0
            last = row = rows[i, i:]
            w = work[: n - k]
            np.multiply(vk, rho, out=w)
            np.subtract(shifted, w, out=row)
            np.divide(row, c, out=row)
            np.multiply(row, rho, out=w)
            np.multiply(vk, c, out=vk)
            np.subtract(vk, w, out=vk)
        _add_rows(draws, normals, rows, k0)
        # the next block's rows overwrite the buffer
        last = last.copy()
    return draws


def _add_rows(draws: np.ndarray, normals, rows: np.ndarray, k0: int) -> None:
    """Add z R[k0:k1, k0:] into the draws' columns k0.., for rows k0..k1-1
    of R held from column k0 (zero left of the diagonal) and z the
    source's normals, whose columns k0..k1-1 are taken for one block of
    _DRAW_BLOCK draws at a time, just before its product, the last block
    padded past the count.  The columns k0.. are cut into the fewest
    spans of one width, at most _PRODUCT_COLUMNS (the last may be
    narrower), and each draw block is multiplied span by span into one
    tile allocated once per call, whose rows that are draws are added; the
    spans depend on n and k0 alone, so every product sees the same inputs
    whatever the count."""
    count, n = draws.shape
    spans = -(-(n - k0) // _PRODUCT_COLUMNS)
    width = -(-(n - k0) // spans)
    tile = np.empty((_DRAW_BLOCK, width))
    k1 = k0 + rows.shape[0]
    for lo in range(0, count, _DRAW_BLOCK):
        block = normals(lo, lo + _DRAW_BLOCK, k0, k1)
        keep = min(_DRAW_BLOCK, count - lo)
        for c0 in range(0, n - k0, width):
            c1 = min(c0 + width, n - k0)
            product = tile[:, : c1 - c0]
            np.matmul(block, rows[:, c0:c1], out=product)
            draws[lo:lo + keep, k0 + c0:k0 + c1] += product[:keep]
        # the next block's normals are not held beside these
        del block


def _brownian_draws(ticks: np.ndarray):
    """Draw operator of min(p_i, p_j) on increasing points p > 0.

    min(p_i, p_j) is the sum of the increments p_k - p_(k-1), p_(-1) = 0,
    over k <= min(i, j), so its Cholesky factor is L[i, j] =
    sqrt(p_j - p_(j-1)) for j <= i, and z L^T is the running sum of
    z_j sqrt(p_j - p_(j-1)), taken in place row by row; it is exact, and
    needs no jitter and no padding.
    """
    _check_wiener_domain(ticks)
    steps = np.sqrt(np.diff(ticks, prepend=0.0))

    def draw(normals, count):
        z = normals(0, count, 0, steps.shape[0])
        np.multiply(z, steps, out=z)
        return np.cumsum(z, axis=1, out=z), 0.0

    return draw


def _zero_draws(n: int):
    """Draw operator of the zero covariance on n points: every draw is 0,
    with no jitter."""
    return lambda normals, count: (np.zeros((count, n)), 0.0)


def _lower_factor(draw, n: int):
    """(L, jitter_used) of a draw operator, from its draws of the identity:
    every product with an off-diagonal zero of I is an exact zero, and the
    rows past n that pad a product's block are zero."""
    upper, jitter = draw(lambda r0, r1, k0, k1: np.eye(r1 - r0, k1 - k0, r0 - k0), n)
    return upper.T, jitter


def _normal_stream(seed: int, index: int) -> np.random.Generator:
    # the normals of draw ``index`` of ``seed``, in column order
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.Philox(ss))


def _seeded_normals(seed: int):
    """The normal source of a seed: normals(r0, r1, k0, k1) is a new array
    holding columns k0:k1 of draws r0..r1-1, row i the stream
    _normal_stream(seed, i).  Each row's stream continues from the column
    its last call ended at, so columns taken in increasing runs are drawn
    once; a call that starts elsewhere restarts the row's stream there."""
    streams = {}

    def normals(r0: int, r1: int, k0: int, k1: int) -> np.ndarray:
        out = np.empty((r1 - r0, k1 - k0))
        for i, row in enumerate(out, r0):
            stream, at = streams.get(i, (None, None))
            if at != k0:
                stream = _normal_stream(seed, i)
                stream.standard_normal(k0)
            stream.standard_normal(out=row)
            streams[i] = stream, k1
        return out

    return normals


def _factorise(expr: Kernel, grid: Grid, alpha: tuple):
    """Draw operator of the derivative covariance d^(alpha,alpha) k on the
    grid (the kernel itself at alpha = 0): a function of a normal source
    and a count that returns (z L^T, jitter_used), z the source's first
    ``count`` rows of n normals and L the lower Cholesky factor of the
    jittered Gram.  A normal source is a function normals(r0, r1, k0, k1)
    of the block z[r0:r1, k0:k1] of a table of normals, a new array that
    the operator may overwrite; only _add_rows asks for the rows past
    ``count``, which pad a product's last block of _DRAW_BLOCK draws.

    KernelError at alpha != 0 unless the inferred order exceeds |alpha|.
    A top-level tensor product is not judged whole: it gates and factorises
    each axis by these rules, with that axis's component of alpha; its Gram
    is the Kronecker product of the axes' Grams, so L is the Kronecker
    product of their factors (each the draws of the identity) and a draw is
    the two-sided product L1 Z L2^T, taken one field at a time in the
    normals' own table.  A stationary expression on a 1-D grid streams its
    draws from the Schur rows of its values at the lags k * spacing alone,
    one block of at most 64 n factor values at a time, taking each block of
    draws' normals of those columns just then and multiplying it through
    one tile of at most 1024 columns, and the Wiener kernel takes running
    sums of its Brownian increments in place; neither holds an n x n
    array.  Anything else is z L^T with L from cholesky_with_jitter of the
    dense Gram: ``build_gram``'s at alpha = 0, which folds a sum's or
    product's Gram from its children's, else the pointwise derivative
    Gram, which is not split by children, and _add_rows adds
    L^T into zeroed draws as one block.  A lag column or Gram that is
    exactly zero (a derivative of constant paths) draws zeros, with
    jitter 0.  Each operator holds one table of
    ``count`` draws, which the Kronecker and Wiener operators fill with the
    normals and overwrite.
    """
    if expr.dim != grid.dim:
        raise KernelError(f"kernel has dimension {expr.dim} but the grid is {grid.dim}-D")
    # two factors of one input each, since the grid is at most 2-D
    if isinstance(expr, TensorProduct):
        (l1, j1), (l2, j2) = (
            _lower_factor(_factorise(f, Grid((axis,)), (a,)), axis.count)
            for f, axis, a in zip(expr.factors, grid.axes, alpha)
        )
        n1, n2 = grid.shape

        def draw(normals, count):
            # each field's second product overwrites its own normals; a
            # product of one field is not changed by the others, so the
            # fields need no block padding
            z = normals(0, count, 0, n1 * n2)
            for f in z.reshape(count, n1, n2):
                np.matmul(l1 @ f, l2.T, out=f)
            return z, max(j1, j2)

        return draw
    if any(alpha):
        order = infer_regularity(expr).order
        if not order > sum(alpha):
            raise KernelError(
                f"derivative order |alpha|={sum(alpha)} is not below the sample-path order "
                f"{order}; the derivative process does not exist"
            )
        cross = partial(derivative_kernel_matrix, expr, alpha)
        dense_gram = partial(_assemble_gram, expr, grid, cross)
    elif isinstance(expr, Wiener):
        # the gate above admits the Wiener kernel only at alpha = 0
        return _brownian_draws(grid.axes[0].ticks())
    else:
        cross = partial(pairwise, expr)
        dense_gram = partial(build_gram, expr, grid)
    if grid.dim == 1 and isinstance(classify(expr), Stationary):
        column = _half_lag_table(grid, cross)
        return _toeplitz_draws(column) if column.any() else _zero_draws(column.shape[0])
    gram = dense_gram()
    # a positive semidefinite matrix with a zero diagonal is zero; the
    # whole matrix is read only when the diagonal is
    if not gram.diagonal().any() and not gram.any():
        return _zero_draws(gram.shape[0])
    lower, jitter = cholesky_with_jitter(gram)

    def draw(normals, count):
        draws = np.zeros((count, lower.shape[0]))
        _add_rows(draws, normals, lower.T, 0)
        return draws, jitter

    return draw


def _sample(expr: Kernel, grid: Grid, count: int, seed: int, alpha: tuple):
    if count < 1:
        raise ValueError("count must be >= 1")
    rows, jitter = _factorise(expr, grid, alpha)(_seeded_normals(seed), count)
    return PathSamples(
        grid=grid,
        samples=rows,
        kernel=print_kernel(expr),
        seed=int(seed),
        jitter_used=jitter,
        alpha=alpha,
    )


def sample_paths(expr: Kernel, grid: Grid, count: int, seed: int) -> PathSamples:
    """Draw centred GP sample paths on the grid; rows are independent draws."""
    return _sample(expr, grid, count, seed, (0,) * grid.dim)


def sample_derivative_paths(expr: Kernel, alpha, grid: Grid, count: int, seed: int) -> PathSamples:
    """Draw from the derivative process GP(0, d^(alpha,alpha) k).

    The sample-path order inferred for the kernel must exceed |alpha|, else
    the requested derivative outruns the differentiability of the paths;
    for a top-level tensor product, each factor's order must exceed its
    own part of alpha; the draw-operator builder checks this, after the
    grid's dimension.  The derivative kernel is the exact mixed partial
    d^(alpha,alpha) k of ``derivative_kernel_matrix``, not a difference of
    sampled paths, and it is factorised as the kernel is.
    """
    alpha = tuple(int(a) for a in _as_multiindex(alpha, expr.dim))
    return _sample(expr, grid, count, seed, alpha)


# --- serialisation ----------------------------------------------------------


def write_samples(samples: PathSamples, path: str) -> None:
    """The samples CSV at ``path``, then its binary twin ``<stem>.npy``,
    then the sidecar ``<stem>.json``, each written atomically.

    The twin is ``np.save`` of the (count, n_points) float64 draws.  The
    sidecar's ``twin`` key records the sha256 of the CSV and of the twin,
    hashed from the bytes as they are written, and of the sidecar's other
    keys.  A sidecar already at that path is removed first, and the new
    one is written last, so a write that fails leaves no sidecar that
    describes other draws or names a twin that was not written whole.
    """
    stem = os.path.splitext(path)[0]
    with contextlib.suppress(FileNotFoundError):
        os.remove(f"{stem}.json")
    twin = {
        "csv_sha256": write_samples_csv(samples, path),
        "npy_sha256": _write_twin(samples.samples, f"{stem}.npy"),
    }
    write_sidecar(samples, f"{stem}.json", twin)


def write_samples_csv(samples: PathSamples, path: str) -> str:
    """CSV with one grid point per row: coordinates, then one column per
    draw.  Returns the sha256 of the file's bytes."""
    names = [f"s{i}" for i in range(samples.count)]
    return _write_grid_csv(path, samples.grid, names, samples.samples.T)


def _write_grid_csv(path: str, grid: Grid, names: list[str], values: np.ndarray) -> str:
    """One grid point per row: coordinates, then the named value columns.
    Floats carry 17 significant digits (``'%.17g'``) so values round-trip
    exactly; rows end in CRLF.  Written atomically (temp file + rename).
    Returns the sha256 of the bytes written, hashed as they are written."""
    header = ",".join(["x", "y"][: grid.dim] + names).encode() + b"\r\n"
    digest = _sha256(header)
    with _atomic_file(path, "wb") as fh:
        fh.write(header)
        for chunk in _format_rows(grid.points(), values):
            digest.update(chunk)
            fh.write(chunk)
    return digest.hexdigest()


def _write_twin(draws: np.ndarray, path: str) -> str:
    """``np.save`` of the draws as float64, written atomically; returns the
    sha256 of the file, hashed from its header and the array in memory."""
    draws = np.ascontiguousarray(draws, dtype=np.float64)
    with _atomic_file(path, "wb") as fh:
        np.save(fh, draws, allow_pickle=False)
        size = fh.tell()
        fh.flush()
        # the header is the file ahead of the data: a hundred bytes or so
        with open(fh.name, "rb") as head:
            digest = _sha256(head.read(size - draws.nbytes))
    digest.update(draws)
    return digest.hexdigest()


@contextlib.contextmanager
def _atomic_file(path: str, mode: str):
    """The file ``<path>.tmp`` open in ``mode``, renamed to ``path`` when
    the block completes and removed when it raises.  An error opening it
    (a missing directory, say) names ``path``, the file asked for."""
    tmp = f"{path}.tmp"
    try:
        fh = open(tmp, mode)
    except OSError as exc:
        exc.filename = path
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


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


# values per formatted block: bounds the formatter's temporaries to about
# 1.3 MB (twice as many formatted no faster and left more heap behind)
_CSV_BLOCK = 8192
# rows per np.loadtxt call when reading a samples file
_CSV_READ_ROWS = 512
# 10^p for p = 0..22, each an exact double (products of exact powers of ten);
# _POW10_HI and _POW10_LO, defined after _split, hold the halves of each
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
# the ASCII digits of 0..9999, four per row, as one 4-byte word per number,
# and the trailing zero count of each number (4 for 0); built from byte
# arrays, so import leaves no large temporaries behind in the heap
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_QUAD_DIGITS = np.stack([np.tile(np.repeat(_DIGITS, 10**k), 10**(3 - k)) for k in (3, 2, 1, 0)], 1)
_QUADS = _QUAD_DIGITS.view(np.uint32).ravel()
_TRAILING = np.cumprod(_QUAD_DIGITS[:, ::-1] == ord("0"), axis=1, dtype=np.uint8).sum(
    axis=1, dtype=np.intp
)
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

    Finite |v| in [1e-4, 1e16), always fixed notation under %.17g, and
    ±0, which %.17g writes "0" and "-0", are formatted here.  Each value is
    laid out in a column of a (slot, value) byte template: sign (from the
    sign bit, so -0.0 has one), the "0.000" ahead of |v| < 1, 17 digits
    with a decimal-point slot after each but the last, and the separator.
    Unused slots hold 0 and are deleted with ``bytes.translate``.  Every
    other value (subnormal, tiny, huge, inf, NaN) leaves a marker that is
    replaced by ``'%.17g' % v``.
    """
    m = values.shape[0]
    a = np.abs(values)
    digited = (a >= 1e-4) & (a < 1e16)
    zero = a == 0.0
    fast = digited | zero
    slots = np.empty((_SLOTS, m), np.uint8)
    digits = slots[6:39:2]
    # the rest take the stand-in 1.0, so log10 and the split stay finite;
    # a zero keeps its one digit, the units digit, which is made "0"
    e, last = _significant_digits(np.where(digited, a, 1.0), digits)
    digits[0, zero] = ord("0")
    # keep digits up to the last significant one and up to the units digit
    last = np.maximum(last, e)
    last[~fast] = -1
    digits *= np.arange(17)[:, None] <= last
    slots[0] = np.signbit(values) * np.uint8(ord("-"))
    slots[0, ~fast] = _FALLBACK
    slots[1:6] = _PREFIX * ((e <= _PREFIX_MAX_EXP) & fast)
    # a decimal point follows the units digit when a significant digit follows it
    points = slots[7:38:2]
    points[...] = 0
    at = np.flatnonzero((last > e) & (e >= 0))
    points[e[at], at] = ord(".")
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
    where the product is exact as hi + lo (10^(16-E) is an exact double,
    split ahead of time into _POW10_HI + _POW10_LO, and Dekker's two-product
    splits the rounding error off).  E from log10 may be one off near a
    power of ten, so it is fixed by exact comparisons of hi + lo with 10^16
    and 10^17.  hi >= 10^16 > 2^53 is then an even integer and |lo| <= 8,
    so N = hi + rint(lo) exactly, in int64.  N is cut into its lead digit
    and four 4-digit groups by floor division and multiply-subtract.  The
    trailing zeros are counted from the lowest group, and a group above it
    is read only where every group below is 0.
    """
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _two_product(a, 16 - e)
    shift = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))).astype(np.intp)
    shift -= (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    if shift.any():
        e += shift
        hi, lo = _two_product(a, 16 - e)
    groups = np.empty((5, a.shape[0]), np.int64)
    lead, high, mid_high, mid_low, low = groups
    # N starts in the row of its lowest group and is cut from there
    n = np.add(hi.astype(np.int64), np.rint(lo).astype(np.int64), out=low)
    # rounding up to 10^17 carries into the exponent; the cuts below need
    # exactly 17 digits
    carry = n == 10**17
    n[carry] = 10**16
    e += carry
    _cut(n, 10**8, mid_high)
    _cut(mid_high, 10**8, lead)
    _cut(mid_high, 10**4, high)
    _cut(n, 10**4, mid_low)
    out[0] = lead + ord("0")
    quads = np.take(_QUADS, groups[1:]).view(np.uint8)
    out[1:] = quads.reshape(4, -1, 4).transpose(0, 2, 1).reshape(16, -1)
    # _TRAILING[0] is 4: a zero group adds its four and passes to the next
    zeros = _TRAILING[low]
    at = np.flatnonzero(low == 0)
    for group in (mid_low, mid_high, high):
        if not at.size:
            break
        g = group[at]
        zeros[at] += _TRAILING[g]
        at = at[g == 0]
    return e, 16 - zeros


def _cut(n: np.ndarray, unit: int, quotient: np.ndarray) -> None:
    # n // unit into quotient and n % unit into n, for n >= 0
    np.floor_divide(n, unit, out=quotient)
    n -= quotient * unit


def _two_product(a: np.ndarray, p: np.ndarray):
    """(hi, lo) with hi = fl(a 10^p) and hi + lo == a 10^p exactly (Dekker)."""
    hi = a * _POW10[p]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _split(a: np.ndarray):
    # Veltkamp's split into two halves of at most 26 significant bits
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


# the halves of each 10^p in _POW10, so a two-product splits only the value
_POW10_HI, _POW10_LO = _split(_POW10)


def write_sidecar(samples: PathSamples, path: str, twin: dict) -> None:
    """Metadata JSON describing how the samples were generated.  ``twin``,
    the sha256 of a samples CSV and of its binary twin, is recorded under
    the ``twin`` key together with the sha256 of the other keys."""
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
    meta["twin"] = {**twin, "sidecar_sha256": _meta_sha256(meta)}
    _write_json(meta, path)


def _read_sidecar(path: str):
    """(grid, provenance, twin) of the sidecar at ``path``, or None when
    there is none.  twin is the recorded sha256 of the CSV and of its binary
    twin, a pair, while the sidecar's other keys hash as recorded, else
    None.  Raises ValueError when the sidecar is not JSON or lacks the grid
    or a provenance key."""
    try:
        with open(path) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        return None
    try:
        grid = Grid(tuple(Axis(**a) for a in meta["grid"]["axes"]))
        provenance = {k: meta[k] for k in ("kernel", "seed", "jitter_used", "alpha")}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed samples sidecar: {exc!r}") from None
    twin = meta.get("twin")
    if isinstance(twin, dict) and twin.get("sidecar_sha256") == _meta_sha256(meta):
        return grid, provenance, (twin.get("csv_sha256"), twin.get("npy_sha256"))
    return grid, provenance, None


def _sha256(data: bytes = b""):
    # imported on first use: hashlib loads OpenSSL, some 6 ms that every
    # cold CLI start would otherwise pay
    import hashlib

    return hashlib.sha256(data)


def _meta_sha256(meta: dict) -> str:
    # of the sidecar's keys other than "twin", in a form that a JSON round
    # trip keeps: Python floats print and parse back exactly
    rest = {k: v for k, v in meta.items() if k != "twin"}
    return _sha256(json.dumps(rest, sort_keys=True).encode()).hexdigest()


def _write_json(payload: dict, path: str) -> None:
    """Indented JSON with a final newline, written atomically (temp file +
    rename)."""
    with _atomic_file(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_samples_csv(path: str) -> PathSamples:
    """Rebuild PathSamples from a CSV written by write_samples_csv.

    The sidecar ``<stem>.json`` is read once, first, and a malformed one
    is an error.  When it has the ``twin`` key of write_samples and the
    CSV, the twin ``<stem>.npy`` and the sidecar's other keys all hash as
    it records, the draws are the twin's and the grid and provenance the
    sidecar's: exactly what parsing the CSV gives.  Otherwise the CSV is
    parsed.

    The grid is reconstructed from the coordinate columns, which must form
    a uniform row-major 1-D or 2-D grid; blank lines (ASCII whitespace) are
    skipped, and a ``#`` line is an error, not a comment.  Provenance (kernel, seed, jitter,
    derivative multi-index) comes from the sidecar when one exists, and its
    grid must match the CSV's; without a sidecar the seed reads -1 and the
    jitter NaN.
    """
    stem = os.path.splitext(path)[0]
    sidecar = _read_sidecar(f"{stem}.json")
    if sidecar is not None and sidecar[2] is not None:
        sidecar_grid, provenance, (csv_sha256, npy_sha256) = sidecar
        # a CSV or twin that cannot be read does not hash as recorded
        with contextlib.suppress(OSError):
            if _sha256_file(path) == csv_sha256 and _sha256_file(f"{stem}.npy") == npy_sha256:
                draws = np.load(f"{stem}.npy", allow_pickle=False)
                return PathSamples(grid=sidecar_grid, samples=draws, **provenance)
    # every non-blank line is a row: np.loadtxt below reads the non-blank
    # lines with comments=None, and both passes split and test the same
    # bytes, so the buffers it fills are exactly those counted here
    n_points = 0
    with open(path, "rb") as fh:
        fh.readline()
        for number, line in enumerate(fh, 2):
            if line.lstrip().startswith(b"#"):
                raise ValueError(f"line {number} of the samples file is a comment, not a row")
            n_points += not line.isspace()
    with open(path, "rb") as fh:
        header = fh.readline().decode().rstrip("\r\n").split(",")
        if header[:2] == ["x", "y"]:
            coord_cols = 2
        elif header[:1] == ["x"]:
            coord_cols = 1
        else:
            raise ValueError(f"unrecognised samples header {header[:2]}")
        # np.loadtxt only warns on empty input
        if not n_points:
            raise ValueError("samples file contains no rows")
        # the draws are filled in from blocks of rows, so the whole table
        # and its transpose are never held together
        coords = np.empty((n_points, coord_cols))
        values = np.empty((len(header) - coord_cols, n_points))
        rows = (line for line in fh if not line.isspace())
        filled = 0
        while filled < n_points:
            block = np.loadtxt(rows, delimiter=",", ndmin=2, max_rows=_CSV_READ_ROWS, comments=None)
            if not len(block):
                raise ValueError(f"read {filled} of the {n_points} rows of the samples file")
            if block.shape[1] != len(header):
                raise ValueError(f"rows of {block.shape[1]} values under a header of {len(header)}")
            coords[filled:filled + len(block)] = block[:, :coord_cols]
            values[:, filled:filled + len(block)] = block[:, coord_cols:].T
            filled += len(block)
    if coord_cols == 1:
        axis = _axis_from_ticks(coords[:, 0])
        grid = Grid((axis,))
    else:
        x0 = coords[:, 0]
        x1 = coords[:, 1]
        # no row matches a first x that is NaN
        n1 = int(np.count_nonzero(x0 == x0[0]))
        if not n1 or coords.shape[0] % n1 != 0:
            raise ValueError("coordinates do not form a row-major grid")
        n0 = coords.shape[0] // n1
        axis0 = _axis_from_ticks(x0.reshape(n0, n1)[:, 0])
        axis1 = _axis_from_ticks(x1.reshape(n0, n1)[0, :])
        grid = Grid((axis0, axis1))
        expected = grid.points()
        if not np.allclose(expected, coords, rtol=0, atol=1e-9):
            raise ValueError("coordinates do not form a row-major grid")
    if sidecar is None:
        return PathSamples(grid=grid, samples=values, kernel="", seed=-1, jitter_used=float("nan"))
    if sidecar[0] != grid:
        raise ValueError("the samples sidecar describes another grid than the CSV")
    return PathSamples(grid=grid, samples=values, **sidecar[1])


def _sha256_file(path: str) -> str:
    digest = _sha256()
    with open(path, "rb") as fh:
        for block in iter(partial(fh.read, 1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _axis_from_ticks(ticks: np.ndarray) -> Axis:
    if len(ticks) < 2:
        raise ValueError("an axis needs at least 2 points")
    spacing = np.diff(ticks)
    if np.any(spacing <= 0) or not np.allclose(spacing, spacing[0], rtol=1e-6, atol=1e-12):
        raise ValueError("grid ticks are not uniformly increasing")
    return Axis(float(ticks[0]), float(ticks[-1]), len(ticks))
