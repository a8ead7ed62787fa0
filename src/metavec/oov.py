"""Nearest-neighbor synthesis of missing-word vectors and union-vocabulary extension."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from metavec.embeddings import EmbeddingSpace, _block_rows, _Fill, _filled, _rows64
from metavec.linalg import _row_norms

DEFAULT_K = 10
# Bytes per tile of queries × candidates' scores in ``_rank``, and per
# block of the queries it scores. Ranking runs before any union rows are
# made, and a larger tile pays there: fewer, larger products. Every other
# block of rows is sized by ``embeddings._block_rows``.
_BLOCK_BYTES = 8 << 20
# ``_rank`` tiles the candidate axis rather than rank blocks of fewer
# queries than this: a BLAS product of a few query rows streams the whole
# candidate matrix for little work, several times the cost per query of a
# block of a few hundred.
_MIN_QUERIES = 256
# Strided chunks of a score row whose maxima bound its k-th best in ``_rank``.
_CHUNKS = 64

__all__ = [
    "DEFAULT_K",
    "NeighborList",
    "SynthesisReport",
    "extend_to_union",
    "format_audit_dump",
    "nearest_neighbors",
    "synthesize_word",
]


@dataclass(frozen=True)
class NeighborList:
    """Ranked cosine neighbors of one query token, best first."""

    query: str
    neighbors: tuple[tuple[str, float], ...]

    def __post_init__(self):
        scores = [s for _, s in self.neighbors]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("neighbor scores must be non-increasing")
        if any(t == self.query for t, _ in self.neighbors):
            raise ValueError("query token cannot be its own neighbor")

    def __iter__(self):
        return iter(self.neighbors)

    def __len__(self) -> int:
        return len(self.neighbors)

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.neighbors)


@dataclass(frozen=True)
class SynthesisReport:
    """What a union extension did: per-space synthesis counts plus the words
    that got fewer than k neighbors or were skipped outright.

    ``words_synthesized`` is parallel to the extended spaces. ``neighbors``
    (word -> ranked neighbor tokens) is populated only when the caller asked
    for an audit trail; a word synthesized into several spaces keeps the
    list of the last one.
    """

    words_synthesized: tuple[int, ...]
    neighbors: dict[str, tuple[str, ...]] | None = None
    shortfalls: tuple[tuple[str, int], ...] = ()
    skipped: tuple[str, ...] = ()


def _kth_bound(scores: np.ndarray, k: int) -> np.ndarray:
    """A lower bound on each row's k-th best score, as a column.

    With more than k strided chunks of columns, the k-th largest chunk
    maximum is the k-th largest of k or more distinct scores of the row, so
    it cannot exceed the row's k-th best; one reduction finds the maxima
    without copying the scores. Otherwise the k-th best itself, found by
    partition (-inf when the row holds at most k scores).
    """
    n = scores.shape[1]
    if k < _CHUNKS <= n:
        chunked = scores[:, : n - n % _CHUNKS].reshape(len(scores), -1, _CHUNKS)
        maxima = chunked.max(axis=1)
        return np.partition(maxima, _CHUNKS - k, axis=1)[:, _CHUNKS - k, np.newaxis]
    if n <= k:
        return np.full((len(scores), 1), -np.inf)
    return np.partition(scores, n - k, axis=1)[:, n - k, np.newaxis]


class _Workspace:
    """The work arrays that a run of ``_rank`` calls shares. Each is
    allocated once, at the largest size asked for so far, not once per
    call: a call's largest arrays then never have to fit into whatever
    free memory the calls before it left, which moved peak memory by a
    whole array from one input to the next."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def array(self, name: str, rows: int, columns: int) -> np.ndarray:
        """A float64 ``rows`` × ``columns`` array of undefined values: a view
        of the one kept under ``name``."""
        size = rows * columns
        if name not in self._arrays or len(self._arrays[name]) < size:
            self._arrays.pop(name, None)  # freed before the larger one is made
            self._arrays[name] = np.empty(size)
        return self._arrays[name][:size].reshape(rows, columns)


def _rank(
    matrix: np.ndarray,
    query_rows: np.ndarray,
    candidate_rows: np.ndarray,
    k: int,
    work: _Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank candidate rows of ``matrix`` by cosine against each query row.

    Returns ``live``, the positions in ``query_rows`` of the queries that
    have a direction, and for those queries (len(live) × min(k, n)) arrays
    of the best cosines and their positions in ``candidate_rows``, best
    first, where n counts the candidates that have a direction. Exact ties
    break by candidate position, so candidates sorted by token break them
    by token.

    The norms of the candidates and of the queries are taken first, one
    block at a time (in float64, like every read of ``matrix``), so rows
    without a direction are never gathered; the candidates that have one
    are gathered once and scaled to unit length, and each block of queries
    only when it is scored. The candidates' unit rows and every tile's
    scores are held in ``work``'s arrays (a new workspace when none is
    given). Scores are computed one tile of queries × candidates at a
    time, each within ``_BLOCK_BYTES``. While a block of ``_MIN_QUERIES``
    queries (or of all of them, if fewer) can score every candidate at
    once, there is one tile per query block, as large as the budget allows
    for its scores and its query rows alike; beyond that, blocks of
    ``_MIN_QUERIES`` queries meet candidate tiles sized to the budget.
    Each query keeps a running list of its best min(k, n) candidates. In a
    tile, only scores that reach both the tile's bound on the row's k-th
    best (``_kth_bound``) and the running list's last score can enter it,
    so a tie across the k-th place stays whole; those and the running list
    are ordered by ``np.lexsort`` on (row, -score, candidate position) and
    each row is cut back to min(k, n).
    """
    candidate_norms = _row_norms(matrix, candidate_rows)
    defined = np.flatnonzero(candidate_norms > 0.0)
    n = len(defined)
    query_norms = _row_norms(matrix, query_rows)
    live = np.flatnonzero(query_norms > 0.0)
    width = min(k, n)
    best = np.empty((len(live), width))
    positions = np.empty((len(live), width), dtype=np.intp)
    if not width:
        return live, best, positions
    step = _BLOCK_BYTES // (8 * max(n, matrix.shape[1]))
    tile = n
    if step < min(len(live), _MIN_QUERIES):
        step = min(len(live), _MIN_QUERIES)
        tile = max(1, _BLOCK_BYTES // (8 * step))
    step = max(1, step)
    work = work or _Workspace()
    chosen = candidate_rows[defined]
    buffer = work.array("scores", min(len(live), step), min(n, tile)).ravel()
    unit_candidates = work.array("candidates", n, matrix.shape[1])
    # Gathered one block at a time, so a float32 matrix is never gathered
    # whole before it is widened.
    gather = _block_rows(matrix.shape[1])
    for lo in range(0, n, gather):
        unit_candidates[lo : lo + gather] = _rows64(matrix, chosen[lo : lo + gather])
    np.divide(unit_candidates, candidate_norms[defined, np.newaxis], out=unit_candidates)
    # Equal directions tie exactly, but BLAS may round one row differently
    # in different columns: each distinct direction is scored at its first
    # occurrence only, and its repeats take that score when a tile's kept
    # scores are merged. Only rows whose first coordinate repeats are
    # compared whole, which keeps the check cheap on real vocabularies.
    _, lead_group, lead_counts = np.unique(
        unit_candidates[:, 0], return_inverse=True, return_counts=True
    )
    maybe = np.flatnonzero(lead_counts[lead_group] > 1)
    row_type = np.dtype((np.void, unit_candidates.itemsize * matrix.shape[1]))
    _, first, group = np.unique(
        unit_candidates[maybe].view(row_type).ravel(), return_index=True, return_inverse=True
    )
    firsts = maybe[first[group]]
    repeat = firsts != maybe
    repeats, firsts = maybe[repeat], firsts[repeat]
    # Each first's repeats, ascending, from ``twin_start[first]`` in ``twins``.
    twins = repeats[np.argsort(firsts, kind="stable")]
    twin_counts = np.bincount(firsts, minlength=n)
    twin_start = np.cumsum(twin_counts) - twin_counts
    for start in range(0, len(live), step):
        queries = live[start : start + step]
        block = _rows64(matrix, query_rows[queries])
        np.divide(block, query_norms[queries, np.newaxis], out=block)
        # Empty places score -inf at position n, behind every candidate.
        top_scores = np.full((len(block), width), -np.inf)
        top = np.full((len(block), width), n, dtype=np.intp)
        for lo in range(0, n, tile):
            candidates = unit_candidates[lo : lo + tile]
            scores = buffer[: len(block) * len(candidates)].reshape(len(block), -1)
            np.matmul(block, candidates.T, out=scores)
            scores[:, repeats[(repeats >= lo) & (repeats < lo + tile)] - lo] = -np.inf
            # Masked repeats never pass the floor, whatever the bounds.
            floor = np.maximum(_kth_bound(scores, k), top_scores[:, -1:])
            np.maximum(floor, np.finfo(scores.dtype).min, out=floor)
            rows, cols = np.divmod(np.flatnonzero(scores >= floor), scores.shape[1])
            values = scores[rows, cols]
            del scores
            cols += lo
            counts = twin_counts[cols]
            if counts.any():
                kept = np.repeat(np.arange(len(cols)), counts)
                nth = np.arange(len(kept)) - np.repeat(np.cumsum(counts) - counts, counts)
                rows = np.concatenate([rows, rows[kept]])
                values = np.concatenate([values, values[kept]])
                cols = np.concatenate([cols, twins[twin_start[cols[kept]] + nth]])
            rows = np.concatenate([np.repeat(np.arange(len(block)), width), rows])
            values = np.concatenate([top_scores.ravel(), values])
            cols = np.concatenate([top.ravel(), cols])
            order = np.lexsort((cols, -values, rows))
            per_row = np.bincount(rows, minlength=len(block))
            taken = order[(np.cumsum(per_row) - per_row)[:, np.newaxis] + np.arange(width)]
            top_scores, top = values[taken], cols[taken]
        best[start : start + step] = top_scores
        positions[start : start + step] = defined[top]
        del block  # before the next one is gathered
    return live, best, positions


def nearest_neighbors(
    space: EmbeddingSpace,
    query: str,
    k: int,
    restrict_to: Sequence[str] | set[str] | None = None,
) -> NeighborList:
    """The k highest-cosine tokens to ``query``, ties broken by ascending
    lexicographic token order.

    ``restrict_to`` limits candidates to the given tokens (those present in
    the space; repeats count once). The query itself and zero vectors are
    never candidates; if fewer than k candidates exist, all are returned.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    index = space.index
    if query not in index:
        raise KeyError(f"query token {query!r} not in space")
    pool = space.tokens if restrict_to is None else set(restrict_to)
    tokens = sorted(t for t in pool if t in index and t != query)
    if not tokens:
        raise ValueError("no candidate tokens to search")
    rows = np.array([index[t] for t in [query, *tokens]])
    live, scores, top = _rank(space.matrix, rows[:1], rows[1:], k)
    if not scores.shape[1]:
        raise ValueError("no candidates with a defined similarity")
    if not len(live):
        raise ValueError(f"query token {query!r} has a zero vector; cosine undefined")
    return NeighborList(query, tuple(zip([tokens[i] for i in top[0]], scores[0].tolist())))


def synthesize_word(
    w: str, e1: EmbeddingSpace, e2: EmbeddingSpace, k: int = DEFAULT_K
) -> np.ndarray:
    """Vector for ``w`` in e2, where ``w`` exists only in e1: the centroid of
    e2's vectors for w's k nearest neighbors in e1, searched among tokens
    the two spaces share."""
    if w not in e1:
        raise KeyError(f"{w!r} is not in the donor space")
    if w in e2:
        raise ValueError(f"{w!r} is already present in the target space")
    e2_index = e2.index
    shared = [t for t in e1.tokens if t in e2_index and t != w]
    if not shared:
        raise ValueError("the spaces share no tokens to draw neighbors from")
    ranked = nearest_neighbors(e1, w, k, restrict_to=shared)
    return _rows64(e2.matrix, [e2_index[t] for t in ranked.tokens]).mean(axis=0)


def _union_positions(spaces: Sequence[EmbeddingSpace]) -> tuple[list[str], np.ndarray]:
    """The union vocabulary in first-seen order, and a (spaces × union)
    table of each space's row for each union word (-1 where it lacks it)."""
    position: dict[str, int] = {}
    places = [[position.setdefault(t, len(position)) for t in space.tokens] for space in spaces]
    table = np.full((len(spaces), len(position)), -1, dtype=np.intp)
    for at, place in zip(table, places):
        at[place] = np.arange(len(place))
    return list(position), table


# Per space: the union positions of its missing words, their neighbors'
# rows in the space, and how many neighbors each has.
_Plan = tuple[np.ndarray, np.ndarray, np.ndarray]


def _plan_synthesis(
    spaces: Sequence[EmbeddingSpace], k: int, *, record_neighbors: bool = False
) -> tuple[list[str], np.ndarray, list[_Plan], SynthesisReport]:
    """Rank every space's missing words for NN synthesis.

    Every missing word is synthesized from originally-present words only.
    With several donor spaces holding a word, the donor whose best
    candidate cosine is highest wins (ties: the earliest donor in source
    order); neighbor candidates are the words the donor shares with the
    deficient space. Centroids always come from the deficient space's own
    original vectors, so spaces of different dimensionality can still
    donate neighbors to each other. A word no donor can rank (zero vector,
    or no candidate with a direction) gets no neighbors and is listed as
    skipped. Union order: first-seen across ``spaces``.

    Returns the union, its row table (``_union_positions``) with the entry
    of the j-th missing word of a space set to ``len(space) + j``, one plan
    per space for ``_place`` (a neighbor count of 0: no donor could rank
    the word), and the report.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    union, table = _union_positions(spaces)
    by_token = np.array(sorted(range(len(union)), key=union.__getitem__), dtype=np.intp)
    # Per missing word a plan keeps the best cosine, its neighbors' rows in
    # the deficient space and how many there are.
    plans: list[_Plan] = []
    work = _Workspace()
    for i, space in enumerate(spaces):
        missing = np.flatnonzero(table[i] < 0)
        best = np.empty(len(missing))
        neighbors = np.empty((len(missing), min(k, len(space))), dtype=np.intp)
        counts = np.zeros(len(missing), dtype=np.intp)
        for j, donor in enumerate(spaces):
            # The deficient space itself holds none of its missing words.
            words = np.flatnonzero(table[j, missing] >= 0)
            if not len(words):
                continue
            shared = by_token[(table[i, by_token] >= 0) & (table[j, by_token] >= 0)]
            live, scores, top = _rank(
                donor.matrix, table[j, missing[words]], table[j, shared], k, work
            )
            if not top.shape[1]:
                continue
            words = words[live]
            won = (counts[words] == 0) | (scores[:, 0] > best[words])
            words = words[won]
            best[words] = scores[won, 0]
            neighbors[words, : top.shape[1]] = table[i, shared[top[won]]]
            counts[words] = top.shape[1]
        plans.append((missing, neighbors, counts))

    audit: dict[str, tuple[str, ...]] | None = {} if record_neighbors else None
    shortfalls: list[tuple[str, int]] = []
    skipped: list[str] = []
    for space, at, (missing, neighbors, counts) in zip(spaces, table, plans):
        # Ranking reads ``table >= 0``, so entries move only now.
        at[missing] = len(space) + np.arange(len(missing))
        skipped.extend(union[w] for w in missing[counts == 0])
        short = np.flatnonzero((counts > 0) & (counts < k))
        shortfalls.extend((union[w], c) for w, c in zip(missing[short], counts[short].tolist()))
        if audit is not None:
            found = np.flatnonzero(counts)
            for w, row, count in zip(missing[found], neighbors[found].tolist(), counts[found]):
                audit[union[w]] = tuple(space.tokens[r] for r in row[:count])
    report = SynthesisReport(
        words_synthesized=tuple(int(np.count_nonzero(counts)) for _, _, counts in plans),
        neighbors=audit,
        shortfalls=tuple(shortfalls),
        skipped=tuple(skipped),
    )
    return union, table, plans, report


def _place(out: np.ndarray, at: np.ndarray, matrix: np.ndarray, plan: _Plan | None) -> None:
    """Set ``out[w]`` to the row that table entry ``at[w]`` names: row
    ``at[w]`` of ``matrix``, or past its end the centroid of the planned
    neighbors' rows of missing word ``at[w] - len(matrix)`` of ``plan``
    (zeros for a skipped word); -1 leaves ``out[w]`` alone.

    ``mean(axis=1)`` over words with one neighbor count adds each word's
    rows as ``mean(axis=0)`` on that word alone would, so a centroid has
    the same bits whichever rows ``at`` covers. Own rows are copied, and
    neighbor rows gathered, one block (``_block_rows``) at a time.
    """
    own = np.flatnonzero((at >= 0) & (at < len(matrix)))
    step = _block_rows(matrix.shape[1])
    for start in range(0, len(own), step):
        block = own[start : start + step]
        out[block] = _rows64(matrix, at[block])
    drawn = np.flatnonzero(at >= len(matrix))
    if not len(drawn):
        return
    _, neighbors, counts = plan
    words = at[drawn] - len(matrix)
    word_counts = counts[words]
    for count in np.flatnonzero(np.bincount(word_counts)):
        group = np.flatnonzero(word_counts == count)
        if not count:
            out[drawn[group]] = 0.0
            continue
        step = _block_rows(count * matrix.shape[1])
        for start in range(0, len(group), step):
            block = group[start : start + step]
            out[drawn[block]] = _rows64(matrix, neighbors[words[block], :count]).mean(axis=1)


def _placer(space: EmbeddingSpace, at: np.ndarray, plan: _Plan | None) -> _Fill:
    """``fill(out, start, stop)``: ``_place`` the union rows ``start:stop``
    of ``space`` (table entries ``at``) into ``out``."""
    return lambda out, start, stop: _place(out, at[start:stop], space.matrix, plan)


def _extension(
    e1: EmbeddingSpace, e2: EmbeddingSpace, k: int, record_neighbors: bool
) -> tuple[list[str], list[_Fill], SynthesisReport]:
    """The union of two spaces, a ``fill`` for each space's union rows
    (``_placer``), and the report: what ``extend_to_union`` fills whole and
    the CLI streams into its outputs."""
    if e1.dim != e2.dim:
        raise ValueError(f"spaces differ in dim: {e1.dim} vs {e2.dim}")
    e2_index = e2.index
    if not any(t in e2_index for t in e1.tokens):
        raise ValueError("the spaces share no vocabulary")
    union, table, plans, report = _plan_synthesis(
        [e1, e2], k, record_neighbors=record_neighbors
    )
    fills = [_placer(space, at, plan) for space, at, plan in zip((e1, e2), table, plans)]
    return union, fills, report


def extend_to_union(
    e1: EmbeddingSpace,
    e2: EmbeddingSpace,
    k: int = DEFAULT_K,
    *,
    record_neighbors: bool = False,
) -> tuple[EmbeddingSpace, EmbeddingSpace, SynthesisReport]:
    """Give both spaces the union vocabulary, synthesizing each missing word
    from its nearest neighbors in the space that has it.

    The spaces must already sit in one common coordinate system. Neighbor
    candidates are only ever words present in both inputs, so synthesized
    vectors never feed later synthesis; originally-present vectors are
    carried over unchanged. Words that cannot be ranked (a zero vector in
    the donor space, or only zero-vector shared words) are filled with
    zeros and listed in the report as skipped.

    Union order: e1's tokens, then e2-only tokens in e2 order; both outputs
    use it.
    """
    union, fills, report = _extension(e1, e2, k, record_neighbors)
    # Every space's missing words are ranked before any union-sized output
    # is allocated, so score matrices and outputs never coexist; every
    # table entry names a row, so every output row is written.
    ext1, ext2 = (
        _filled(union, space.dim, fill, space.meta) for space, fill in zip((e1, e2), fills)
    )
    return ext1, ext2, report


def format_audit_dump(report: SynthesisReport) -> bytes:
    """One ``word TAB neighbor1,neighbor2,... LF`` line per synthesized word."""
    if report.neighbors is None:
        raise ValueError("report carries no neighbor lists; extend with record_neighbors=True")
    lines = [
        word + "\t" + ",".join(neighbor_tokens) + "\n"
        for word, neighbor_tokens in report.neighbors.items()
    ]
    return "".join(lines).encode("utf-8")
