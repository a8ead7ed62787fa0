"""Dense linear algebra for the pipeline: normalization, orthogonal Procrustes,
PCA-style reduction, cosine similarity."""
from __future__ import annotations

import logging
import math

import numpy as np

from metavec.embeddings import EmbeddingSpace, _block_rows, _rows64

logger = logging.getLogger(__name__)

ORTHOGONALITY_TOL = 1e-8

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
    return EmbeddingSpace._own(space.tokens, scaled, meta=space.meta)


def mean_center_columns(space: EmbeddingSpace) -> EmbeddingSpace:
    """Subtract the per-column mean so every column sums to zero."""
    if len(space) == 0:
        return space
    centered = _rows64(space.matrix)
    centered -= centered.mean(axis=0)
    return EmbeddingSpace._own(space.tokens, centered, meta=space.meta)


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
    # One copy, centered and scaled in place: the bits of the out-of-place steps.
    matrix, _ = _unit_rows(space.matrix)
    matrix -= matrix.mean(axis=0)
    if renormalize:
        matrix, zeros = _unit_rows(matrix, out=matrix)
    else:
        zeros = int((_row_norms(matrix) == 0.0).sum())
    if zeros:
        logger.warning("%d row(s) degenerated to zero after centering", zeros)
    return EmbeddingSpace._own(space.tokens, matrix, meta=space.meta)


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
    u, _, vt = np.linalg.svd(x.T @ z)
    return OrthogonalMap(u @ vt)


def apply_map(space: EmbeddingSpace, omap: OrthogonalMap) -> EmbeddingSpace:
    """Rotate a space into the map's output coordinates (rows become r·w)."""
    if omap.dim != space.dim:
        raise ValueError(f"map dim {omap.dim} does not match space dim {space.dim}")
    # One product over the whole matrix: the bits of a row depend on the
    # shape BLAS is given. A float64 matrix is read as it is.
    mapped = _rows64(space.matrix, copy=False) @ omap.matrix
    return EmbeddingSpace._own(space.tokens, mapped, meta=space.meta)


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
    reduced = centered @ rmap.basis
    del centered
    if rmap.post_remove and len(space):
        centered = reduced - reduced.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        directions = _orient_columns(vt[: rmap.post_remove].T)
        reduced = reduced - (reduced @ directions) @ directions.T
    return EmbeddingSpace._own(space.tokens, reduced, meta=space.meta)


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
