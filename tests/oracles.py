"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written with different algorithms than the
library (dense grids, double argsort, explicit eigendecompositions) so that
agreement between the two is evidence, not tautology.
"""
import io
import logging
from typing import BinaryIO

import numpy as np

from metavec import oov
from metavec.embeddings import (
    EmbeddingSpace,
    ParseError,
    _binary_stream,
    _check_parse_options,
    _check_writable_token,
    _parse_header_fields,
    _Rows,
)
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
    direction, ascending: best first, exact ties by token."""
    unit_query = space.vector(query)
    unit_query = unit_query / np.linalg.norm(unit_query)
    scored = []
    for token in space.tokens:
        if token == query:
            continue
        vector = space.vector(token)
        norm = np.linalg.norm(vector)
        if norm == 0.0:
            continue
        scored.append((-float(np.dot(vector / norm, unit_query)), token))
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

    Values are read with Python's ``float`` into a matrix that grows as
    lines arrive; the header's word count is never used to size it.
    """
    _check_parse_options(on_duplicate, max_vocab)
    text = io.TextIOWrapper(_binary_stream(source), encoding="utf-8-sig")

    def non_finite(line: int) -> ParseError:
        return ParseError("non-finite value", line=line)

    rows: _Rows | None = None
    header: tuple[int, int] | None = None
    tokens: list[str] = []
    seen: set[str] = set()
    duplicates = 0
    lineno = 0
    awaiting_header = expect_header is not False
    try:
        for lineno, line in enumerate(text, start=1):
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
                    rows = _Rows(dim, 0, non_finite)
                    continue
            token, values = fields[0], fields[1:]
            if rows is None:
                dim = len(values)
                if dim < 1:
                    raise ParseError("no vector values on first data line", line=lineno)
                rows = _Rows(dim, 0, non_finite)
            if len(values) != dim:
                raise ParseError(
                    f"expected {dim} values, found {len(values)}", line=lineno
                )
            try:
                vector = list(map(float, values))
            except ValueError:
                raise ParseError("malformed number", line=lineno) from None
            if token in seen:
                rows.check(vector, lineno)
                if on_duplicate == "error":
                    raise ParseError(f"duplicate token {token!r}", line=lineno)
                duplicates += 1
                continue
            if max_vocab is not None and len(tokens) >= max_vocab:
                rows.check(vector, lineno)
                break
            seen.add(token)
            tokens.append(token)
            rows.append(vector, lineno)
    except UnicodeDecodeError as exc:
        # A non-finite row read before the bad bytes is reported first.
        if rows is not None:
            rows.check()
        raise ParseError(f"not valid UTF-8: {exc}", line=lineno + 1) from None
    except ParseError:
        if rows is not None:
            rows.check()
        raise
    finally:
        text.detach()

    if rows is None:
        raise ParseError("empty stream")
    matrix = rows.finish()
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
    """The ranking kernel behind a token interface: the candidate tokens
    plus, parallel to ``words``, each word's best cosines and their indices
    into those tokens (None for a word that cannot be ranked)."""
    index = donor.index
    live, scores, top = oov._rank(
        donor.matrix,
        np.array([index[w] for w in words], dtype=np.intp),
        np.array([index[t] for t in candidate_tokens], dtype=np.intp),
        k,
    )
    ranked = [None] * len(words)
    if top.shape[1]:
        for i, row_scores, row_top in zip(live, scores, top):
            ranked[i] = (row_scores, row_top)
    return list(candidate_tokens), ranked


def extend_all_to_union(spaces, k, *, record_neighbors=False):
    """Union extension that plans each missing word with token lists and
    builds its centroid on its own, one ``mean(axis=0)`` per word."""
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
            kept, ranked = _rank(donor, words, candidate_tokens, k)
            for word, hit in zip(words, ranked):
                if hit is not None and (word not in best or hit[0][0] > best[word][0]):
                    best[word] = (hit[0][0], kept, hit[1])
        plans.append((missing, best))

    position = {t: i for i, t in enumerate(union)}
    audit: dict[str, tuple[str, ...]] | None = {} if record_neighbors else None
    shortfalls: list[tuple[str, int]] = []
    skipped: list[str] = []
    extended: list[EmbeddingSpace] = []
    for space, place, (missing, best) in zip(spaces, places, plans):
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
            rows[position[word]] = space.matrix[[own[t] for t in neighbor_tokens]].mean(axis=0)
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
