"""Dense linear algebra for the pipeline: normalization, orthogonal Procrustes,
PCA-style reduction, cosine similarity."""
from __future__ import annotations

import contextlib
import copy
import ctypes
import logging
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator

import numpy as np

from metavec.embeddings import EmbeddingSpace, _block_rows, _Fill, _rows64

logger = logging.getLogger(__name__)

ORTHOGONALITY_TOL = 1e-8

# Bytes of float64 rows per block of a sum or product whose result reaches
# an output. The blocks decide those bits, so their size is fixed here,
# apart from the memory budget ``_BLOCK_BYTES``. The fit sums blocks of
# rows in source order (``_each_block``); one fill (``_grid_fill``) makes
# every written product on those blocks, or on blocks of union positions
# whose rows of every source fit here together (``combine._mean``).
_PRODUCT_BYTES = 1 << 20
# Blocks of ``_PRODUCT_BYTES`` per Python thread in ``_each_block``: each
# thread costs a malloc arena and a BLAS buffer of a few MB, which pays
# only when it has several MB of rows to work through.
_THREAD_BLOCKS = 8

# Where ``_openblas`` looks for the OpenBLAS libraries this process has
# loaded, and the names of their thread-count calls (numpy's wheels, older
# wheels, a plain build); ``_OPENBLAS`` holds what it found, once it looked.
_MAPS = "/proc/self/maps"
_OPENBLAS_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_OPENBLAS: list | None = None
# The thread count of the command in progress (``_blas_pool``), which
# runs at one BLAS thread: one per process, as OpenBLAS's own count is.
_POOL: int | None = None

__all__ = [
    "ORTHOGONALITY_TOL",
    "OrthogonalMap",
    "ReductionMap",
    "apply_map",
    "apply_reduction",
    "cosine",
    "fit_reduction",
    "l2_normalize_rows",
    "mean_center_columns",
    "normalize_step0",
    "solve_procrustes",
]


class OrthogonalMap:
    """A d×d orthogonal matrix, applied to row vectors as ``r @ w``.

    Orthogonality is what keeps a mapping lossless: dot products among the
    rows of any mapped set are unchanged.
    """

    def __init__(self, matrix):
        matrix = np.array(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ValueError("matrix contains non-finite values")
        defect = np.linalg.norm(matrix.T @ matrix - np.eye(matrix.shape[0]))
        if defect > ORTHOGONALITY_TOL:
            raise ValueError(
                f"matrix is not orthogonal: ||w'w - I||_F = {defect:.3e}"
            )
        matrix.setflags(write=False)
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "OrthogonalMap":
        return cls(np.eye(dim))

    def __repr__(self) -> str:
        return f"<OrthogonalMap dim {self.dim}>"


class ReductionMap:
    """A fitted linear reduction: subtract ``mean``, project onto ``basis``.

    ``post_remove`` asks apply_reduction to additionally strip the top
    principal directions of the reduced data (the common post-processing
    of reduction baselines).
    """

    def __init__(self, mean, basis, post_remove: int = 0):
        mean = np.array(mean, dtype=np.float64)
        basis = np.array(basis, dtype=np.float64)
        if mean.ndim != 1 or basis.ndim != 2 or basis.shape[0] != mean.shape[0]:
            raise ValueError(
                f"incompatible mean/basis shapes {mean.shape} and {basis.shape}"
            )
        k = basis.shape[1]
        if not 1 <= k <= basis.shape[0]:
            raise ValueError(f"basis must have 1..{basis.shape[0]} columns, got {k}")
        if not np.isfinite(mean).all() or not np.isfinite(basis).all():
            raise ValueError("non-finite values in reduction parameters")
        defect = np.linalg.norm(basis.T @ basis - np.eye(k))
        if defect > ORTHOGONALITY_TOL:
            raise ValueError(
                f"basis columns are not orthonormal: defect {defect:.3e}"
            )
        if not 0 <= post_remove < k:
            raise ValueError(f"post_remove must be in 0..{k - 1}, got {post_remove}")
        mean.setflags(write=False)
        basis.setflags(write=False)
        self.mean = mean
        self.basis = basis
        self.post_remove = int(post_remove)

    @property
    def input_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def output_dim(self) -> int:
        return self.basis.shape[1]

    def __repr__(self) -> str:
        return (
            f"<ReductionMap {self.input_dim} -> {self.output_dim},"
            f" post_remove {self.post_remove}>"
        )


def _openblas() -> list:
    """The (get, set) thread-count calls of every OpenBLAS loaded in this
    process, found through ``_MAPS`` and ctypes on the first call, never
    at import. With none found (another BLAS, or no ``_MAPS``) the list
    is empty, and a warning says so once."""
    global _OPENBLAS
    if _OPENBLAS is None:
        found, paths = [], set()
        with contextlib.suppress(OSError), open(_MAPS) as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
        for path in sorted(paths):
            try:
                library = ctypes.CDLL(path)
            except OSError:
                continue
            for get, put in _OPENBLAS_CALLS:
                if hasattr(library, get):
                    found.append((getattr(library, get), getattr(library, put)))
                    break
        if not found:
            logger.warning("no OpenBLAS found: outputs may depend on the BLAS thread count")
        _OPENBLAS = found
    return _OPENBLAS


@contextlib.contextmanager
def _blas_threads(count: int | None) -> Iterator[int]:
    """Run the body with ``count`` BLAS threads, then put the old count
    back; None changes nothing. The body gets the pool: the count the
    command set (``_blas_pool``), or else the old count (1 when none was
    found). A product's bits depend on the thread count, so every product
    whose result reaches an output runs at one."""
    calls = [] if count is None else _openblas()
    old = [get() for get, _ in calls]
    # Only a count that differs is set: OpenBLAS starts a new pool when a
    # forked process sets one.
    changed = [(put, was) for (_, put), was in zip(calls, old) if was != count]
    for put, _ in changed:
        put(count)
    try:
        yield _POOL or max(old, default=1)
    finally:
        for put, was in changed:
            put(was)


@contextlib.contextmanager
def _blas_pool(count: int | None) -> Iterator[None]:
    """Run a command at one BLAS thread, with ``count`` (None: the count
    OpenBLAS has) as the pool that every ``_blas_threads`` body inside
    gets: ``_each_block`` runs as many Python threads."""
    global _POOL
    saved = _POOL
    _POOL = count or max((get() for get, _ in _openblas()), default=1)
    try:
        with _blas_threads(1):
            yield
    finally:
        _POOL = saved


def _each_block(fn: Callable, start: int, stop: int, dim: int) -> Iterator:
    """``fn(at)`` for each block ``at`` (a slice) of rows ``start:stop``
    of ``dim`` values (``_PRODUCT_BYTES``), counted from row 0 (``start``
    is on that grid), in block order.

    The blocks run in as many Python threads as the pool has
    (``_blas_threads``), but with ``_THREAD_BLOCKS`` blocks or more each,
    and each product at one BLAS thread: a block's bits then depend on its
    rows alone, so sums taken in block order have the bits of a serial
    run. At most two blocks per thread are ahead of the caller.
    """
    step = _block_rows(dim, _PRODUCT_BYTES)
    blocks = [slice(lo, min(lo + step, stop)) for lo in range(start, stop, step)]
    with _blas_threads(1) as pool:
        threads = min(pool, len(blocks) // _THREAD_BLOCKS)
        if threads < 2:
            yield from map(fn, blocks)
            return
        with ThreadPoolExecutor(threads) as workers:
            ahead: deque = deque()
            for at in blocks:
                if len(ahead) == 2 * threads:
                    yield ahead.popleft().result()
                ahead.append(workers.submit(fn, at))
            while ahead:
                yield ahead.popleft().result()


def _row_norms(matrix: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Each row's Euclidean norm (of ``matrix[rows]``, when ``rows`` is
    given), with the bits ``np.linalg.norm(matrix, axis=1)`` gives, taken
    one block of rows at a time (in float64), so that neither the square of
    the whole matrix nor a gathered copy of its rows is made."""
    norms = np.empty(len(matrix) if rows is None else len(rows))
    step = _block_rows(matrix.shape[1])
    for start in range(0, len(norms), step):
        block = slice(start, start + step)
        picked = _rows64(matrix, block if rows is None else rows[block], copy=False)
        norms[block] = np.linalg.norm(picked, axis=1)
    return norms


def _unit_rows(matrix: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    # Zero rows stay zero rather than dividing by zero. Without ``out`` the
    # rows are scaled in a float64 copy; ``out=matrix`` scales a float64
    # matrix in place, with the same bits. Every row is scaled alone, so a
    # run of rows scales to the bits it has in the whole matrix.
    if out is None:
        matrix = out = _rows64(matrix)
    norms = _row_norms(matrix)
    zero = norms == 0.0
    np.divide(matrix, np.where(zero, 1.0, norms)[:, np.newaxis], out=out)
    return out, int(zero.sum())


def l2_normalize_rows(space: EmbeddingSpace) -> EmbeddingSpace:
    """Scale every row to unit Euclidean norm; zero rows are left alone."""
    scaled, zeros = _unit_rows(space.matrix)
    if zeros:
        logger.warning("%d zero row(s) left unnormalized", zeros)
    return space._with_matrix(scaled)


def mean_center_columns(space: EmbeddingSpace) -> EmbeddingSpace:
    """Subtract the per-column mean so every column sums to zero."""
    if len(space) == 0:
        return space
    centered = _rows64(space.matrix)
    centered -= centered.mean(axis=0)
    return space._with_matrix(centered)


def _divisors(norms: np.ndarray) -> np.ndarray:
    # A zero row is divided by one, so that it stays zero.
    return np.where(norms == 0.0, 1.0, norms)


def _grid_fill(rows: Callable, count: int, values_per_row: int) -> _Fill:
    """A fill of the ``count`` rows that ``rows(at, out)`` makes into
    ``out`` for a slice ``at``, on a fixed grid: blocks of rows of
    ``values_per_row`` values (``_PRODUCT_BYTES``), counted from row 0.

    Each block is made whole at one BLAS thread, so a run of rows gets the
    bits it has in the whole matrix, whatever the tiling, the worker count
    or the BLAS thread count. Blocks inside a run are made in place
    (``_each_block``); a block cut by the run's edge is made aside and the
    last one kept, so runs taken in order make each block once.
    """
    step = _block_rows(values_per_row, _PRODUCT_BYTES)
    kept = [None, None]  # the last block made aside, and its rows

    def fill(out: np.ndarray, start: int, stop: int) -> None:
        first = min(-(-start // step) * step, stop)
        last = stop if stop == count else max(first, stop - stop % step)

        def in_place(at: slice) -> None:
            rows(at, out[at.start - start : at.stop - start])

        for _ in _each_block(in_place, first, last, values_per_row):
            pass
        for lo, hi in (start, first), (last, stop):  # the runs in a cut block
            if lo == hi:
                continue
            at = slice(lo - lo % step, min(lo - lo % step + step, count))
            if kept[0] != at:
                if kept[1] is None:
                    kept[1] = np.empty((min(step, count), out.shape[1]))
                kept[0] = at
                with _blas_threads(1):
                    rows(at, kept[1][: at.stop - at.start])
            out[lo - start : hi - start] = kept[1][lo - at.start : hi - at.start]

    return fill


class _Step0:
    """``normalize_step0`` of a matrix (float32 or float64), held as
    statistics: the row norms, the column mean of the unit rows and the
    row norms after centering, each taken one block of rows at a time.
    ``rows`` makes any rows from them with the bits they have in the whole
    normalized matrix, so no normalized copy of a space need exist.
    Indexing gives the same rows, and ``shape`` and ``len`` are the
    matrix's, so whatever reads a matrix through ``_rows64`` reads a
    ``_Step0`` as the normalized matrix.

    The mean adds the unit rows one after another, as
    ``matrix.mean(axis=0)`` does, so that its bits do not depend on the
    block size. Rows that become zero after centering are left as zeros
    and counted in a warning.
    """

    def __init__(self, matrix: np.ndarray, renormalize: bool = True):
        count, dim = matrix.shape
        step = _block_rows(dim)
        self.matrix = matrix
        self.first = np.empty(count)
        self.mean = np.zeros(dim)
        self.second = None
        # Each block's unit rows go under the sum so far. numpy adds the
        # rows of a 2-d array one after another, but sums one column
        # pairwise, so a single dim gets a zero column beside it.
        stack = np.zeros((min(step, count) + 1, max(dim, 2)))
        for start in range(0, count, step):
            at = slice(start, start + step)
            rows = stack[1 : 1 + len(self.first[at]), :dim]
            rows[...] = matrix[at]
            self.first[at] = _divisors(np.linalg.norm(rows, axis=1))
            np.divide(rows, self.first[at, np.newaxis], out=rows)
            if start:
                stack[0] = total
            total = np.add.reduce(stack[0 if start else 1 : 1 + len(rows)], axis=0)
        if count:
            self.mean = total[:dim] / count
        # The norms of the centered rows, zero where a row degenerated.
        self.norms = np.empty(count)
        for start in range(0, count, step):
            at = slice(start, start + step)
            centered = self.rows(at, stack[: len(self.norms[at]), :dim])
            self.norms[at] = np.linalg.norm(centered, axis=1)
        if renormalize:
            self.second = _divisors(self.norms)
        zeros = int(np.count_nonzero(self.norms == 0.0))
        if zeros:
            logger.warning("%d row(s) degenerated to zero after centering", zeros)

    @classmethod
    def unit(cls, matrix: np.ndarray) -> _Step0:
        """Unit scaling as statistics: the row norms, a zero mean, no last
        division; the unit rows' norms are taken when ranking asks for them."""
        step = cls.__new__(cls)
        step.matrix, step.mean, step.second = matrix, np.zeros(matrix.shape[1]), None
        step.first, step.norms = _divisors(_row_norms(matrix)), None
        return step

    def centered(self) -> tuple[_Step0, np.ndarray]:
        """These statistics without the last division, whose rows are the
        centered rows, and those rows' norms (taken here for a unit step,
        which holds none): their unit rows are the normalized rows, bit for
        bit, so ranking reads them without norms of its own
        (``oov._plan_synthesis``)."""
        view = copy.copy(self)
        view.second = None
        return view, _row_norms(view) if self.norms is None else self.norms

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, at) -> np.ndarray:
        return self.rows(at)

    def rows(self, at, out: np.ndarray | None = None) -> np.ndarray:
        """The normalized rows ``at`` (a slice or an index array), in
        ``out`` when given."""
        if out is None:
            out = _rows64(self.matrix, at)
        else:
            out[...] = self.matrix[at]
        np.divide(out, self.first[at, np.newaxis], out=out)
        out -= self.mean
        if self.second is not None:
            np.divide(out, self.second[at, np.newaxis], out=out)
        return out

    def means(self, at: np.ndarray) -> np.ndarray:
        """For each row of ``at`` (an index array of words × count), the
        mean of the normalized rows it names, taken from the rows as read:
        (Σ x·s − mean·Σ t) / count, where t = 1 / second (1 without the
        last division) and s = t / first. That is one product per value
        where the normalized rows take two quotients, so a centroid costs
        about half as much. Each mean has the bits it has on its own,
        whichever other rows ``at`` holds."""
        inverse = np.ones(at.shape) if self.second is None else 1.0 / self.second[at]
        rows = _rows64(self.matrix, at)
        rows *= (inverse / self.first[at])[..., np.newaxis]
        means = rows.sum(axis=1)
        means -= inverse.sum(axis=1)[:, np.newaxis] * self.mean
        means /= at.shape[1]
        return means


def normalize_step0(space: EmbeddingSpace, *, renormalize: bool = True) -> EmbeddingSpace:
    """Length-normalize, mean-center, and (by default) length-normalize again.

    The trailing renormalization keeps rows unit length so later cosine
    comparisons and averaging treat every word equally; pass
    ``renormalize=False`` for the plain two-step variant. Rows that become
    zero after centering (all-identical inputs) are left as zeros and
    counted in a warning.
    """
    if len(space) == 0:
        return space
    matrix = np.empty(space.matrix.shape)
    _grid_fill(_Step0(space.matrix, renormalize).rows, *matrix.shape)(matrix, 0, len(matrix))
    return space._with_matrix(matrix, checked=True)


def _procrustes(x_rows, z_rows, count: int, dim: int) -> OrthogonalMap:
    """The orthogonal map of ``count`` paired rows of ``dim`` values:
    ``x_rows(at)`` and ``z_rows(at)`` give the pairs ``at`` (a slice) in
    float64. x'z is summed over blocks of pairs (``_each_block``), in
    order, and its SVD taken at one thread."""
    cross = np.zeros((dim, dim))
    for part in _each_block(lambda at: x_rows(at).T @ z_rows(at), 0, count, dim):
        cross += part
    with _blas_threads(1):
        u, _, vt = np.linalg.svd(cross)
        return OrthogonalMap(u @ vt)


def _residual(x_rows, z_rows, count: int, dim: int) -> float:
    """The Frobenius norm of x − z over ``count`` paired rows of ``dim``
    values, given as ``_procrustes`` takes them (``x_rows`` in an array
    of its own), summed over the same blocks of pairs, in order."""

    def squares(at: slice) -> float:
        gap = x_rows(at)
        gap -= z_rows(at)
        gap = gap.ravel()
        return float(gap @ gap)

    total = 0.0
    for part in _each_block(squares, 0, count, dim):
        total += part
    return math.sqrt(total)


def solve_procrustes(x, z) -> OrthogonalMap:
    """Best orthogonal map w (in Frobenius norm of ``x @ w - z``) between
    paired row observations, via the SVD of x'z."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.ndim != 2 or z.ndim != 2:
        raise ValueError("expected 2-dimensional observation matrices")
    if x.shape != z.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {z.shape}")
    if x.shape[0] < 1:
        raise ValueError("need at least one paired observation")
    if not (np.isfinite(x).all() and np.isfinite(z).all()):
        raise ValueError("non-finite values in observations")
    return _procrustes(x.__getitem__, z.__getitem__, *x.shape)


def apply_map(space: EmbeddingSpace, omap: OrthogonalMap) -> EmbeddingSpace:
    """Rotate a space into the map's output coordinates (rows become r·w)."""
    if omap.dim != space.dim:
        raise ValueError(f"map dim {omap.dim} does not match space dim {space.dim}")

    def rows(at: slice, out: np.ndarray) -> None:
        np.matmul(_rows64(space.matrix, at, copy=False), omap.matrix, out=out)

    mapped = np.empty(space.matrix.shape)
    _grid_fill(rows, *mapped.shape)(mapped, 0, len(mapped))
    return space._with_matrix(mapped)


def _orient_columns(basis: np.ndarray) -> np.ndarray:
    # Deterministic sign: the entry of largest magnitude in each column is
    # made non-negative. Multiplying by -1.0 negates exactly; the result is
    # C-ordered whatever the layout of ``basis``.
    anchors = basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])]
    return np.multiply(basis, np.where(anchors < 0, -1.0, 1.0), order="C")


def fit_reduction(space: EmbeddingSpace, k: int, post_remove: int = 0) -> ReductionMap:
    """Fit a k-dimensional PCA-style reduction on a space.

    The basis holds the top-k right singular vectors of the centered matrix,
    ordered by descending singular value.
    """
    if len(space) == 0:
        raise ValueError("cannot fit a reduction on an empty space")
    if not 1 <= k <= space.dim:
        raise ValueError(f"k must be in 1..{space.dim}, got {k}")
    centered = _rows64(space.matrix)
    mean = centered.mean(axis=0)
    centered -= mean
    full = k > min(centered.shape)
    with _blas_threads(1):
        _, _, vt = np.linalg.svd(centered, full_matrices=full)
    basis = _orient_columns(vt[:k].T)
    return ReductionMap(mean, basis, post_remove=post_remove)


def apply_reduction(space: EmbeddingSpace, rmap: ReductionMap) -> EmbeddingSpace:
    """Project a space through a fitted reduction; output dim is rmap.output_dim.

    With ``post_remove`` > 0, the projections of the reduced rows onto their
    own top principal directions are subtracted afterwards.
    """
    if space.dim != rmap.input_dim:
        raise ValueError(
            f"reduction expects dim {rmap.input_dim}, space has dim {space.dim}"
        )
    centered = _rows64(space.matrix)
    centered -= rmap.mean
    with _blas_threads(1):
        reduced = centered @ rmap.basis
        del centered
        if rmap.post_remove and len(space):
            centered = reduced - reduced.mean(axis=0)
            _, _, vt = np.linalg.svd(centered, full_matrices=False)
            directions = _orient_columns(vt[: rmap.post_remove].T)
            reduced = reduced - (reduced @ directions) @ directions.T
    return space._with_matrix(reduced)


def cosine(u, v) -> float:
    """Cosine similarity of two vectors; nan when either vector is zero.

    The nan marker is deliberate: the caller decides the policy for
    undefined comparisons (skip the pair, count it, and so on).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"expected two equal-length vectors, got {u.shape} and {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return math.nan
    return float(u @ v / (nu * nv))
