"""Nearest-neighbor synthesis of missing-word vectors and union-vocabulary extension."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from metavec import embeddings
from metavec.embeddings import EmbeddingSpace, _block_rows, _Fill, _filled, _rows64
from metavec.linalg import _blas_threads, _row_norms, _Step0

DEFAULT_K = 10
# Strided chunks of a score row whose maxima bound its k-th best in ``_rank``.
_CHUNKS = 64
# Blocks of queries that ``_rank`` holds at once, so that each tile of
# candidates is made once for all of them.
_GROUP = 4

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
        return np.full((len(scores), 1), -np.inf, dtype=scores.dtype)
    return np.partition(scores, n - k, axis=1)[:, n - k, np.newaxis]


def _error_bound(dim: int) -> float:
    """δ: how far a float32 score in ``_rank`` and the float64 cosine of
    ``_cosines`` can each be from the exact cosine of the same two float64
    unit rows of ``dim`` values, together.

    Narrowing a row to float32 moves each value by at most u = 2⁻²⁴ of
    itself, and a float32 dot product of d terms, in any order, errs by at
    most γ_d = d·u/(1 − d·u) of the sum of the terms' magnitudes (Higham,
    *Accuracy and Stability of Numerical Algorithms*, §3.1); for unit rows
    that sum is at most 1, so the score errs by at most γ_d + 2u + u². The
    factor 1 + 2⁻¹⁰ covers the rest, each smaller than γ_d + 2u + u² by a
    factor of 2²⁰ or more: γ_d's own growth by (1 + u)², float64 unit rows
    whose norms are not exactly 1, the float64 reduction's error (γ_d at
    u = 2⁻⁵³), values that underflow, and the rounding of the floor that
    ``_lowered`` takes from a score.
    """
    u = 2.0**-24
    gamma = dim * u / (1.0 - dim * u)
    return (gamma + 2.0 * u + u * u) * (1.0 + 2.0**-10)


def _lowered(scores: np.ndarray, window: float) -> np.ndarray:
    """``scores - window`` as float32, rounded toward -inf, so that the float32
    scores of a tile are compared with it as they are."""
    exact = scores.astype(np.float64) - window
    floor = exact.astype(np.float32)
    return np.where(floor > exact, np.nextafter(floor, np.float32(-np.inf)), floor)


def _best_first(rows: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """The order that sorts entries by row, then by float32 score, best
    first (equal scores in either order), by one integer sort: each key is
    the row, then the score's bits made to descend."""
    bits = scores.view(np.int32).astype(np.int64)
    return np.argsort((rows << 33) - np.where(bits < 0, bits ^ 0x7FFFFFFF, bits))


def _unit64(matrix: np.ndarray, norms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The float64 unit rows of ``matrix[rows]``, whose norms are
    ``norms[rows]``: the rows both the float32 scores and the float64
    cosines of ``_rank`` start from."""
    block = _rows64(matrix, rows)
    return np.divide(block, norms[rows, np.newaxis], out=block)


def _cosines(matrix: np.ndarray, norms: np.ndarray, left, right) -> np.ndarray:
    """The cosine of rows ``left[i]`` and ``right[i]`` of ``matrix``, whose
    row norms are ``norms``, for each i: the two float64 unit rows
    multiplied elementwise and summed along the row by one numpy reduction,
    one block of pairs at a time. No BLAS is involved, so the sum's order
    depends on the dimension alone, never on the thread count or on the
    other pairs: equal directions score equal bits."""
    cosines = np.empty(len(left))
    step = _block_rows(2 * matrix.shape[1])
    for start in range(0, len(cosines), step):
        pairs = slice(start, start + step)
        a = _unit64(matrix, norms, left[pairs])
        cosines[pairs] = np.multiply(a, _unit64(matrix, norms, right[pairs]), out=a).sum(axis=1)
    return cosines


def _unit32(matrix: np.ndarray, norms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The unit rows of ``matrix[rows]`` (``_unit64``) narrowed to float32,
    made one block (``_block_rows``) at a time: the rows ``_rank`` scores."""
    out = np.empty((len(rows), matrix.shape[1]), dtype=np.float32)
    step = _block_rows(matrix.shape[1])
    for lo in range(0, len(rows), step):
        out[lo : lo + step] = _unit64(matrix, norms, rows[lo : lo + step])
    return out


def _merged(parts: list, kth: np.ndarray, k: int, window: float) -> tuple[np.ndarray, ...]:
    """The entries of ``parts`` (each a tuple of arrays: query row, float32
    score, candidate position), sorted by row and then score, best first,
    without those more than ``window`` below their row's k-th best score,
    which is set into ``kth`` for every row that holds k or more.
    ``parts`` is emptied, so that its arrays are freed as soon as they are
    joined."""
    rows, scores, cols = (np.concatenate(arrays) for arrays in zip(*parts))
    parts.clear()
    order = _best_first(rows, scores)
    rows = rows[order]
    scores = scores[order]
    cols = cols[order]
    del order
    per_row = np.bincount(rows, minlength=len(kth))
    first = np.cumsum(per_row) - per_row
    full = per_row >= k
    kth[full] = scores[first[full] + k - 1]
    kept = scores >= _lowered(kth, window)[rows]
    return rows[kept], scores[kept], cols[kept]


def _cosines_by_direction(matrix: np.ndarray, norms: np.ndarray, left, right) -> np.ndarray:
    """``_cosines(matrix, norms, left, right)``, taken once for each left
    row and direction: right rows whose float64 unit rows are bitwise
    equal score equal bits against any row, so one of them stands for all.
    The pairs are keyed one block at a time, so that a run of many
    candidates holds little more than its pairs. (``np.unique`` would
    import ``numpy.ma``; sorts find the distinct rows and pairs.)"""
    step = _block_rows(1)
    distinct = np.empty(0, dtype=np.intp)
    for start in range(0, len(right), step):
        distinct = np.sort(np.concatenate([distinct, right[start : start + step]]))
        distinct = distinct[np.diff(distinct, prepend=-1) != 0]
    directions: dict[bytes, int] = {}
    direction = np.empty(len(distinct), dtype=np.int64)
    rows = _block_rows(matrix.shape[1])
    for lo in range(0, len(distinct), rows):
        units = _unit64(matrix, norms, distinct[lo : lo + rows])
        direction[lo : lo + rows] = [
            directions.setdefault(unit.tobytes(), len(directions)) for unit in units
        ]
    cosines = np.empty(len(left))
    for start in range(0, len(left), step):
        pairs = slice(start, start + step)
        keys = direction[np.searchsorted(distinct, right[pairs])]
        keys += left[pairs] * np.int64(len(directions))
        order = np.argsort(keys)
        new = np.diff(keys[order], prepend=-1) != 0
        pair = np.empty(len(order), dtype=np.intp)
        pair[order] = np.cumsum(new) - 1
        firsts = start + order[new]
        cosines[pairs] = _cosines(matrix, norms, left[firsts], right[firsts])[pair]
    return cosines


def _rank(
    matrix: np.ndarray,
    norms: np.ndarray,
    query_rows: np.ndarray,
    candidate_rows: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Rank candidate rows of ``matrix`` by cosine against each query row;
    ``norms`` holds the norms of ``matrix``'s rows (``_row_norms``).

    Returns ``live``, the positions in ``query_rows`` of the queries that
    have a direction, and for those queries a (len(live) × min(k, n))
    array of the best candidates' positions in ``candidate_rows``, best
    first, where n counts the candidates that have a direction. The order
    is exact: by ``_cosines``, whatever the tiling or the BLAS threads, and
    then by candidate position, so candidates sorted by token break exact
    ties by token.

    Blocks of queries meet tiles of candidates, and no candidate's row is
    held beyond its tile. Block and tile unit rows are made in float32
    (``_unit32``), as many rows as fit in ``embeddings._BLOCK_BYTES``;
    the queries are split into blocks of equal size, and a tile has as
    many candidates as leave its float32 rows and its scores against a
    block together within the same budget. ``_GROUP`` blocks are held at
    a time, and each tile's rows are made once for all of them: making a
    tile's rows costs about as much as its products with a few hundred
    queries. Every product runs at one BLAS thread, as every other
    product does.

    A float32 score is within δ (``_error_bound``) of the exact cosine of
    the two float64 unit rows, and so is ``_cosines``. So a candidate whose
    float32 score falls more than 2δ below the row's k-th best float32
    score is beaten by k others, and one whose score exceeds another's by
    more than 2δ beats it. Each query keeps a shortlist of the candidates
    within 2δ of its k-th best float32 score so far; a tile adds those that
    reach that floor and the tile's bound on the k-th best (``_kth_bound``).
    New entries are merged into the shortlist (``_merged``) once they
    outnumber it, so the merges' work does not grow with the number of
    tiles. The shortlist, best first, falls into runs wherever a score
    exceeds the next by more than 2δ. The runs keep their order; within
    each run of several entries that reaches the k-th place, the cosines
    are taken again in float64 (``_cosines``, once per direction in a run:
    ``_cosines_by_direction``) and decide, ties by candidate position.
    """
    n = int(np.count_nonzero(norms[candidate_rows] > 0.0))
    live = np.flatnonzero(norms[query_rows] > 0.0)
    width = min(k, n)
    positions = np.empty((len(live), width), dtype=np.intp)
    if not width or not len(live):
        return live, positions
    dim = matrix.shape[1]
    # Float32 rows within the budget; the queries in blocks of equal size,
    # ``_GROUP`` of them held at once.
    most = max(1, embeddings._BLOCK_BYTES // (4 * dim))
    step = -(-len(live) // -(-len(live) // most))
    tile = max(1, embeddings._BLOCK_BYTES // (4 * (step + dim)))
    window = 2.0 * _error_bound(dim)
    empty = np.empty(0, dtype=np.intp)
    with _blas_threads(1):
        for start in range(0, len(live), _GROUP * step):
            queries = query_rows[live[start : start + _GROUP * step]]
            blocks = [
                (lo, _unit32(matrix, norms, queries[lo : lo + step]))
                for lo in range(0, len(queries), step)
            ]
            # Each query's shortlist, as flat arrays sorted by row and
            # score, best first, then the ``held`` entries found since;
            # ``kth`` is each row's k-th best score at the last merge.
            entries = [(empty, np.empty(0, dtype=np.float32), empty)]
            kth = np.full(len(queries), -np.inf, dtype=np.float32)
            held = 0
            for lo in range(0, len(candidate_rows), tile):
                at = lo + np.flatnonzero(norms[candidate_rows[lo : lo + tile]] > 0.0)
                if not len(at):
                    continue
                units = _unit32(matrix, norms, candidate_rows[at]).T
                for offset, block in blocks:
                    tiled = np.matmul(block, units)
                    floor = kth[offset : offset + len(block)]
                    if np.isneginf(floor).any():  # until every row holds k scores
                        floor = np.maximum(_kth_bound(tiled, k)[:, 0], floor)
                    floor = _lowered(floor, window)
                    hits, cols = np.divmod(np.flatnonzero(tiled >= floor[:, np.newaxis]), len(at))
                    entries.append((offset + hits, tiled[hits, cols], at[cols]))
                    del tiled  # freed before the next block's scores are made
                    held += len(hits)
                del units  # freed before the next tile's rows are made
                if held > len(entries[0][0]):
                    entries, held = [_merged(entries, kth, k, window)], 0
            del blocks
            if held:
                entries = [_merged(entries, kth, k, window)]
            rows, scores, cols = entries.pop(0)
            per_row = np.bincount(rows, minlength=len(queries))
            first = np.cumsum(per_row) - per_row
            place = np.arange(len(rows)) - first[rows]
            starts_run = place == 0
            starts_run[1:] |= scores[:-1].astype(np.float64) - scores[1:] > window
            run = np.cumsum(starts_run) - 1
            tied = (place[starts_run][run] < k) & (np.bincount(run)[run] > 1)
            uncertain = np.flatnonzero(tied)
            # Many candidates of one direction make long runs: what is not
            # needed to rescore and sort them is freed first.
            del scores, place, starts_run, tied
            exact = _cosines_by_direction(
                matrix, norms, queries[rows[uncertain]], candidate_rows[cols[uncertain]]
            )
            # Whole runs are rescored, so sorting them among themselves
            # moves each entry within its own run's places.
            order = np.lexsort((cols[uncertain], -exact, run[uncertain]))
            cols[uncertain] = cols[uncertain][order]
            done = slice(start, start + len(queries))
            positions[done] = cols[first[:, np.newaxis] + np.arange(width)]
    return live, positions


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
    Each score is the float64 cosine of ``_cosines``.
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
    norms = np.zeros(len(space))
    norms[rows] = _row_norms(space.matrix, rows)
    live, top = _rank(space.matrix, norms, rows[:1], rows[1:], k)
    if not top.shape[1]:
        raise ValueError("no candidates with a defined similarity")
    if not len(live):
        raise ValueError(f"query token {query!r} has a zero vector; cosine undefined")
    neighbors = rows[1:][top[0]]
    scores = _cosines(space.matrix, norms, np.full(len(neighbors), rows[0]), neighbors)
    return NeighborList(query, tuple(zip([tokens[i] for i in top[0]], scores.tolist())))


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
    spaces: Sequence[EmbeddingSpace],
    k: int,
    *,
    record_neighbors: bool = False,
    ranked: Sequence[tuple] | None = None,
) -> tuple[list[str], np.ndarray, list[_Plan], SynthesisReport]:
    """Rank every space's missing words for NN synthesis.

    Ranking reads, for each space, the rows and row norms ``ranked`` gives
    (parallel to ``spaces``), or else its matrix and its row norms
    (``_row_norms``). A source not mapped yet is ranked on rows whose unit
    rows are its normalized rows (``linalg._Step0.centered``): an
    orthogonal map moves no cosine.

    Every missing word is synthesized from originally-present words only.
    With several donor spaces holding a word, the donor whose best
    candidate cosine is highest wins (ties: the earliest donor in source
    order); a word with one donor takes no cosine. Best cosines are
    ``_cosines``'s float64 bits, which no tiling or thread count moves.
    Neighbor candidates are the words the donor shares with the deficient
    space. Centroids always come from the deficient space's own original
    vectors, so spaces of different dimensionality can still donate
    neighbors to each other. A word no donor can rank (zero vector, or no
    candidate with a direction) gets no neighbors and is listed as skipped.
    Union order: first-seen across ``spaces``.

    Returns the union, its row table (``_union_positions``) with the entry
    of the j-th missing word of a space set to ``len(space) + j``, one plan
    per space for ``_place`` (a neighbor count of 0: no donor could rank
    the word), and the report.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    union, table = _union_positions(spaces)
    by_token = np.array(sorted(range(len(union)), key=union.__getitem__), dtype=np.intp)
    # A missing word that one space holds has one donor, which wins
    # whatever its score: only the others take a best cosine.
    contested = np.count_nonzero(table >= 0, axis=0) > 1
    plans: list[_Plan] = []
    # Each donor's rows and row norms, taken once for every space it serves.
    donors: dict[int, tuple] = dict(enumerate(ranked or ()))
    for i, space in enumerate(spaces):
        missing = np.flatnonzero(table[i] < 0)
        best = np.empty(len(missing))
        neighbors = np.empty((len(missing), min(k, len(space))), dtype=np.intp)
        counts = np.zeros(len(missing), dtype=np.intp)
        for j in range(len(spaces)):
            # The deficient space itself holds none of its missing words.
            words = np.flatnonzero(table[j, missing] >= 0)
            if not len(words):
                continue
            shared = by_token[(table[i, by_token] >= 0) & (table[j, by_token] >= 0)]
            if j not in donors:
                donors[j] = spaces[j].matrix, _row_norms(spaces[j].matrix)
            live, top = _rank(*donors[j], table[j, missing[words]], table[j, shared], k)
            if not top.shape[1]:
                continue
            words = words[live]
            scores = np.full(len(words), -np.inf)
            rival = contested[missing[words]]
            scores[rival] = _cosines(
                *donors[j], table[j, missing[words[rival]]], table[j, shared[top[rival, 0]]]
            )
            won = (counts[words] == 0) | (scores > best[words])
            words = words[won]
            best[words] = scores[won]
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
            out[drawn[block]] = _means(matrix, neighbors[words[block], :count])


def _means(matrix, at: np.ndarray) -> np.ndarray:
    """The mean of the rows of ``matrix`` that each row of ``at`` (words ×
    count) names, each with the bits it has on its own: of a matrix's
    rows, or a ``linalg._Step0``'s normalized rows (``_Step0.means``)."""
    if isinstance(matrix, _Step0):
        return matrix.means(at)
    return _rows64(matrix, at).mean(axis=1)


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
