"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written with different algorithms than the
library (dense grids, double argsort, explicit eigendecompositions) so that
agreement between the two is evidence, not tautology.
"""
import codecs
import functools
import logging
import math
from typing import BinaryIO

import numpy as np

from metavec.embeddings import (
    EmbeddingSpace,
    ParseError,
    _binary_stream,
    _check_parse_options,
    _check_writable_token,
    _header_dim_problem,
    _parse_header_fields,
)
from metavec.align import align_to_target
from metavec.linalg import _blas_threads, normalize_step0
from metavec.oov import SynthesisReport

logger = logging.getLogger(__name__)


def grid_best_orthogonal(x, z, step=1e-4):
    """Dense scan over every 2-D rotation and reflection.

    Returns ``(residual, q)``: the smallest Frobenius norm of ``x @ q - z``
    over the grid and the matrix attaining it. Uses the trace identity
    ||xq - z||^2 = ||x||^2 + ||z||^2 - 2 tr(q' x'z) so the scan is vectorized.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    m = x.T @ z
    base = (x * x).sum() + (z * z).sum()
    thetas = np.arange(0.0, 2.0 * np.pi, step)
    c, s = np.cos(thetas), np.sin(thetas)
    trace_rotation = c * (m[0, 0] + m[1, 1]) + s * (m[1, 0] - m[0, 1])
    trace_reflection = c * (m[0, 0] - m[1, 1]) + s * (m[1, 0] + m[0, 1])
    i_rot = int(np.argmax(trace_rotation))
    i_ref = int(np.argmax(trace_reflection))
    if trace_rotation[i_rot] >= trace_reflection[i_ref]:
        best_trace = trace_rotation[i_rot]
        cb, sb = c[i_rot], s[i_rot]
        q = np.array([[cb, -sb], [sb, cb]])
    else:
        best_trace = trace_reflection[i_ref]
        cb, sb = c[i_ref], s[i_ref]
        q = np.array([[cb, sb], [sb, -cb]])
    residual_sq = max(base - 2.0 * best_trace, 0.0)
    # Guard against an algebra slip in the trace identity.
    direct = np.linalg.norm(x @ q - z)
    assert abs(np.sqrt(residual_sq) - direct) < 1e-9
    return direct, q


def average_ranks(values):
    """Fractional ranks (1-based, ties share the mean rank), via double argsort."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def counting_ranks(values):
    """Fractional ranks by counting: (# strictly smaller) + (ties + 1) / 2,
    the value itself among its ties, from two n×n comparison arrays. A NaN
    equals nothing, itself included, so it ranks 1/2."""
    values = np.asarray(values, dtype=np.float64)
    smaller = (values[np.newaxis, :] < values[:, np.newaxis]).sum(axis=1)
    equal = (values[np.newaxis, :] == values[:, np.newaxis]).sum(axis=1)
    return smaller + (equal + 1) / 2.0


def spearman_reference(xs, ys):
    """Rank-then-Pearson Spearman correlation; nan when either side is constant."""
    rx = average_ranks(xs)
    ry = average_ranks(ys)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    sx = np.sqrt((rx * rx).sum())
    sy = np.sqrt((ry * ry).sum())
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    return float((rx * ry).sum() / (sx * sy))


def top_principal_direction(matrix):
    """Leading eigenvector of the covariance of ``matrix`` (rows = samples)."""
    centered = matrix - matrix.mean(axis=0)
    cov = centered.T @ centered / len(matrix)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    return eigenvectors[:, -1]


def covariance_spectrum(matrix):
    """All covariance eigenvalues of ``matrix``, descending."""
    centered = matrix - matrix.mean(axis=0)
    cov = centered.T @ centered / len(matrix)
    return np.linalg.eigvalsh(cov)[::-1]


def exhaustive_scores(space, query):
    """(-cosine, token) against ``query`` for every other token that has a
    direction, ascending: best first, exact ties by token. Each cosine is
    the fixed-order float64 reduction the library rescores with: the two
    unit rows multiplied elementwise and summed along the row by
    ``sum(axis=-1)``, no BLAS, so scores compare bit for bit."""
    others = [t for t in space.tokens if t != query]
    rows = np.array([space.vector(t) for t in [query, *others]]).reshape(-1, space.dim)
    norms = np.linalg.norm(rows, axis=1)
    units = np.divide(rows, norms[:, None], out=np.zeros_like(rows), where=norms[:, None] > 0)
    cosines = (units[1:] * units[0]).sum(axis=-1)
    scored = [(-float(c), t) for c, t, norm in zip(cosines, others, norms[1:]) if norm > 0.0]
    scored.sort()
    return scored


def exhaustive_neighbors(space, query, k):
    return tuple(token for _, token in exhaustive_scores(space, query)[:k])


def canonical_mean(rows, denominator):
    # Summands are added in byte-image order so the result is bitwise
    # independent of the order the sources were given in.
    ordered = sorted(rows, key=lambda r: r.tobytes())
    total = ordered[0].copy()
    for row in ordered[1:]:
        total += row
    return total / denominator


def union_mean(spaces, policy):
    """Per-word mean over the first-seen union, one ``canonical_mean`` per
    word: over the spaces holding it under "available", else over all."""
    union = list(dict.fromkeys(t for space in spaces for t in space.tokens))
    rows = []
    for token in union:
        held = [space.vector(token) for space in spaces if token in space]
        rows.append(canonical_mean(held, len(held) if policy == "available" else len(spaces)))
    return union, np.array(rows).reshape(len(union), spaces[0].dim)


def union_concat(spaces):
    """Each first-seen union word's rows of all spaces side by side, one
    block per space, with a zero block where a space lacks the word."""
    union = list(dict.fromkeys(t for space in spaces for t in space.tokens))
    rows = [
        np.concatenate(
            [space.vector(t) if t in space else np.zeros(space.dim) for space in spaces]
        )
        for t in union
    ]
    return union, np.array(rows).reshape(len(union), sum(space.dim for space in spaces))


def write_text_embeddings(space: EmbeddingSpace, precision: int = 17) -> bytes:
    """Serialize to the text format with ``precision`` significant digits.

    At the default full precision the emitted values parse back to the
    exact same float64 values.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1")
    lines = [f"{len(space)} {space.dim}\n"]
    for token, row in zip(space.tokens, space.matrix):
        _check_writable_token(token)
        formatted = (
            np.format_float_positional(
                v, precision=precision, unique=True, fractional=False, trim="0"
            )
            for v in row
        )
        lines.append(token + " " + " ".join(formatted) + "\n")
    return "".join(lines).encode("utf-8")


# The binary parser as it was before it read its input one block at a
# time: the whole stream is read first, then parsed. Each vector is checked
# for finiteness as it is read and kept as float32, the file's values.
def parse_binary_whole(
    source: bytes | BinaryIO,
    *,
    on_duplicate: str = "keep-first",
    max_vocab: int | None = None,
    meta: str | None = None,
) -> EmbeddingSpace:
    _check_parse_options(on_duplicate, max_vocab)
    data = _binary_stream(source).read()

    nl = data.find(b"\n")
    if nl < 0:
        raise ParseError("missing 'vocab dim' header line", offset=0)
    header = _parse_header_fields(data[:nl].decode("ascii", errors="replace").split())
    if header is None:
        raise ParseError("malformed 'vocab dim' header line", offset=0)
    vocab_size, dim = header
    problem = _header_dim_problem(dim)
    if problem is not None:
        raise ParseError(problem, offset=0)

    vector_bytes = 4 * dim
    vectors: list[np.ndarray] = []
    tokens: list[str] = []
    seen: set[str] = set()
    duplicates = 0
    pos = nl + 1
    for _ in range(vocab_size):
        if max_vocab is not None and len(tokens) >= max_vocab:
            break
        while pos < len(data) and data[pos] == 0x0A:
            pos += 1
        sp = data.find(b" ", pos)
        if sp < 0:
            raise ParseError("truncated stream while reading a token", offset=pos)
        try:
            token = data[pos:sp].decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError("token is not valid UTF-8", offset=pos) from None
        start = sp + 1
        if start + vector_bytes > len(data):
            raise ParseError(
                f"truncated stream while reading the vector for {token!r}", offset=start
            )
        vector = np.frombuffer(data, dtype="<f4", count=dim, offset=start)
        if not np.isfinite(vector).all():
            raise ParseError(f"non-finite value for token {token!r}", offset=start)
        pos = start + vector_bytes
        if token in seen:
            if on_duplicate == "error":
                raise ParseError(f"duplicate token {token!r}", offset=sp + 1)
            duplicates += 1
            continue
        seen.add(token)
        tokens.append(token)
        vectors.append(vector)
    matrix = np.array(vectors, dtype=np.float32).reshape(len(vectors), dim)

    if duplicates:
        logger.warning("dropped %d duplicate token(s), kept first occurrence", duplicates)
    if max_vocab is None or len(tokens) < max_vocab:
        while pos < len(data) and data[pos] == 0x0A:
            pos += 1
        if pos != len(data):
            raise ParseError(
                f"header announces {vocab_size} words but {len(data) - pos} bytes remain",
                offset=pos,
            )
    return EmbeddingSpace._own(tokens, matrix, meta=meta)


def decoded_lines(source: bytes | BinaryIO):
    """The lines of a whole UTF-8 payload, a leading byte-order mark
    skipped: the payload is cut at every ``\\r\\n``, ``\\r`` and ``\\n`` at
    once, then each line is decoded alone, so that bad bytes raise at the
    line that holds them."""
    payload = _binary_stream(source).read().removeprefix(codecs.BOM_UTF8)
    for line in payload.splitlines():
        yield line.decode("utf-8")


# The text parser as it was before it read the values of a block of lines
# with one ``np.loadtxt`` call: every line is split into fields and every
# value is read with ``float`` as the line arrives.
def parse_text_per_line(
    source: bytes | BinaryIO,
    *,
    expect_header: bool | None = None,
    on_duplicate: str = "keep-first",
    max_vocab: int | None = None,
    meta: str | None = None,
) -> EmbeddingSpace:
    """Parse the text interchange format: optional ``vocab dim`` header,
    then one ``token v1 v2 ... vd`` line per word.

    ``expect_header=None`` auto-detects the header (a first line of exactly
    two integers); ``True`` requires it, ``False`` treats every line as data.
    ``on_duplicate`` is ``"keep-first"`` (drop and count repeats) or
    ``"error"``. ``max_vocab`` caps the number of tokens kept.

    Each line's values are read with Python's ``float`` and checked for
    finiteness as the line arrives, before it is kept, dropped as a repeat
    or found past ``max_vocab``. The kept rows are held in a list.
    """
    _check_parse_options(on_duplicate, max_vocab)
    dim: int | None = None
    header: tuple[int, int] | None = None
    vectors: list[list[float]] = []
    tokens: list[str] = []
    seen: set[str] = set()
    duplicates = 0
    lineno = 0
    awaiting_header = expect_header is not False
    try:
        for lineno, line in enumerate(decoded_lines(source), start=1):
            fields = line.split()
            if not fields:
                continue
            if awaiting_header:
                awaiting_header = False
                header = _parse_header_fields(fields)
                if expect_header and header is None:
                    raise ParseError("expected 'vocab dim' header", line=lineno)
                if header is not None:
                    dim = header[1]
                    if dim < 1:
                        raise ParseError(
                            "header dimensionality must be at least 1", line=lineno
                        )
                    continue
            token, values = fields[0], fields[1:]
            if dim is None:
                dim = len(values)
                if dim < 1:
                    raise ParseError("no vector values on first data line", line=lineno)
            if len(values) != dim:
                raise ParseError(
                    f"expected {dim} values, found {len(values)}", line=lineno
                )
            try:
                vector = list(map(float, values))
            except ValueError:
                raise ParseError("malformed number", line=lineno) from None
            if not all(map(math.isfinite, vector)):
                raise ParseError("non-finite value", line=lineno)
            if token in seen:
                if on_duplicate == "error":
                    raise ParseError(f"duplicate token {token!r}", line=lineno)
                duplicates += 1
                continue
            if max_vocab is not None and len(tokens) >= max_vocab:
                break
            seen.add(token)
            tokens.append(token)
            vectors.append(vector)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}", line=lineno + 1) from None

    if dim is None:
        raise ParseError("empty stream")
    matrix = np.array(vectors, dtype=np.float64).reshape(len(vectors), dim)
    if duplicates:
        logger.warning("dropped %d duplicate token(s), kept first occurrence", duplicates)
    if header is not None and max_vocab is None and len(tokens) + duplicates != header[0]:
        logger.warning(
            "header announces %d words but %d data lines were read",
            header[0], len(tokens) + duplicates,
        )
    return EmbeddingSpace._own(tokens, matrix, meta=meta)


def _union_positions(spaces):
    """The union vocabulary in first-seen order, and for each space the
    union position of each of its rows."""
    position = {}
    places = [
        np.array([position.setdefault(t, len(position)) for t in space.tokens], dtype=np.intp)
        for space in spaces
    ]
    return list(position), places


def _rank(donor, words, candidate_tokens, k):
    """Parallel to ``words``: each word's best cosine and the indices into
    ``candidate_tokens`` of its k best, by exhaustive scan (None for a word
    that cannot be ranked)."""
    position = {t: i for i, t in enumerate(candidate_tokens)}
    ranked = []
    for word in words:
        pool = [word, *candidate_tokens]
        scored = []
        if donor.vector(word).any():
            scored = exhaustive_scores(EmbeddingSpace(pool, [donor.vector(t) for t in pool]), word)
        ranked.append((-scored[0][0], [position[t] for _, t in scored[:k]]) if scored else None)
    return ranked


def extend_all_to_union(spaces, k, *, record_neighbors=False, ranked=None, centroid=None):
    """Union extension that plans each missing word with token lists and
    builds its centroid on its own, one ``mean(axis=0)`` per word. Words
    are ranked on ``ranked`` (spaces parallel to ``spaces``, with the same
    tokens) when given, else on ``spaces`` themselves; ``centroid(i,
    rows)``, when given, makes the centroid of rows ``rows`` of space i."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    union, places = _union_positions(spaces)
    # Every space's missing words are ranked before any union-sized output
    # is allocated, so score matrices and outputs never coexist.
    plans: list[tuple[list[str], dict]] = []
    for i, space in enumerate(spaces):
        own = space.index
        missing = [t for t in union if t not in own]
        best: dict[str, tuple[float, list[str], np.ndarray]] = {}
        for j, donor in enumerate(spaces):
            if j == i:
                continue
            donor_index = donor.index
            words = [w for w in missing if w in donor_index]
            if not words:
                continue
            candidate_tokens = sorted(t for t in own if t in donor_index)
            if not candidate_tokens:
                continue
            hits = _rank(donor if ranked is None else ranked[j], words, candidate_tokens, k)
            for word, hit in zip(words, hits):
                if hit is not None and (word not in best or hit[0] > best[word][0]):
                    best[word] = (hit[0], candidate_tokens, hit[1])
        plans.append((missing, best))

    position = {t: i for i, t in enumerate(union)}
    audit: dict[str, tuple[str, ...]] | None = {} if record_neighbors else None
    shortfalls: list[tuple[str, int]] = []
    skipped: list[str] = []
    extended: list[EmbeddingSpace] = []
    for i, (space, place, (missing, best)) in enumerate(zip(spaces, places, plans)):
        own = space.index
        rows = np.zeros((len(union), space.dim))
        rows[place] = space.matrix
        for word in missing:
            if word not in best:
                skipped.append(word)
                continue
            _, kept, top = best[word]
            if len(top) < k:
                shortfalls.append((word, len(top)))
            neighbor_tokens = tuple(kept[x] for x in top)
            at = [own[t] for t in neighbor_tokens]
            rows[position[word]] = centroid(i, at) if centroid else space.matrix[at].mean(axis=0)
            if audit is not None:
                audit[word] = neighbor_tokens
        extended.append(EmbeddingSpace._own(union, rows, meta=space.meta))
    report = SynthesisReport(
        words_synthesized=tuple(len(best) for _, best in plans),
        neighbors=audit,
        shortfalls=tuple(shortfalls),
        skipped=tuple(skipped),
    )
    return extended, report


def union_grid_products(matrix, w, grid):
    """``matrix @ w`` taken one block of ``grid`` rows at a time, counted
    from row 0, each block one product at one BLAS thread: the grid of
    union positions on which mvm maps its union rows."""
    out = np.empty((len(matrix), w.shape[1]))
    with _blas_threads(1):
        for start in range(0, len(matrix), grid):
            out[start : start + grid] = matrix[start : start + grid] @ w
    return out


def step0_statistics(matrix):
    """``normalize_step0``'s statistics of a whole matrix: its row norms,
    the column mean of its unit rows, added one row after another, and the
    row norms after centering, each norm 1 where it is 0."""
    rows = matrix.astype(np.float64)
    first = np.linalg.norm(rows, axis=1)
    first[first == 0.0] = 1.0
    unit = rows / first[:, np.newaxis]
    mean = functools.reduce(np.add, unit) / len(unit)
    second = np.linalg.norm(unit - mean, axis=1)
    second[second == 0.0] = 1.0
    return first, mean, second


def step0_centroid(matrix, rows):
    """The mean of the normalized rows ``rows`` of ``matrix``, taken from
    the raw rows: (Σ x·s − mean·Σ t) / count, with t = 1 / second and
    s = t / first (``step0_statistics``)."""
    first, mean, second = step0_statistics(matrix)
    t = 1.0 / second[rows]
    x = matrix[rows].astype(np.float64) * (t / first[rows])[:, np.newaxis]
    return (x.sum(axis=0) - t.sum() * mean) / len(rows)


def mvm_union(sources, k, grid, policy="nn"):
    """The mvm meta-embedding from whole union-sized spaces: each source
    normalized (``normalize_step0``); under "nn" its missing words ranked
    on its centered rows, whose unit rows are its normalized rows, and each
    synthesized row the mean of its neighbors' normalized rows, taken from
    the raw rows (``step0_centroid``). Then every non-target source's
    union rows (zeros where it lacks a word) are mapped on the grid of
    union positions (``union_grid_products``), averaged per word
    (``union_mean``) and scaled to unit rows. The maps are
    ``align_to_target``'s; the target is source 0. Returns the union, its
    rows and the synthesis report (None unless "nn")."""
    maps = align_to_target(sources).maps
    normalized = [normalize_step0(space) for space in sources]
    report = None
    if policy == "nn":
        centered = [normalize_step0(space, renormalize=False) for space in sources]
        normalized, report = extend_all_to_union(
            normalized, k, ranked=centered,
            centroid=lambda i, rows: step0_centroid(sources[i].matrix, rows),
        )
    union = list(dict.fromkeys(t for space in sources for t in space.tokens))
    position = {t: i for i, t in enumerate(union)}
    aligned = []
    for i, (space, omap) in enumerate(zip(normalized, maps)):
        at = [position[t] for t in space.tokens]
        rows = np.zeros((len(union), space.dim))
        rows[at] = space.matrix
        if i:
            rows = union_grid_products(rows, omap.matrix, grid)
        aligned.append(EmbeddingSpace(space.tokens, rows[at].reshape(-1, space.dim)))
    tokens, matrix = union_mean(aligned, policy)
    norms = np.linalg.norm(matrix, axis=1)
    return tokens, matrix / np.where(norms == 0.0, 1.0, norms)[:, np.newaxis], report
