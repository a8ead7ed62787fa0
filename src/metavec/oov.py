"""Nearest-neighbor synthesis of missing-word vectors and union-vocabulary extension."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from metavec.embeddings import EmbeddingSpace

DEFAULT_K = 10
# Bytes per block: a block of queries' scores in ``_rank``, a block of
# words' stacked rows in ``combine._mean_rows``.
_BLOCK_BYTES = 8 << 20

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


def _rank(
    donor: EmbeddingSpace,
    words: Sequence[str],
    candidate_tokens: Sequence[str],
    k: int,
) -> tuple[list[str], list[tuple[np.ndarray, np.ndarray] | None]]:
    """Rank sorted candidates by cosine against each word's donor vector.

    Returns the candidate tokens that have a defined direction plus, parallel
    to ``words``, each word's k best cosines and their indices into those
    tokens, best first (None for a zero-vector query, or when no candidate
    has a direction). Queries are ranked in blocks whose scores fit in
    ``_BLOCK_BYTES``: per block, ``np.partition`` finds each row's k-th best
    score, every candidate scoring at least that is kept (a tie across the
    k-th place stays whole), and ``np.lexsort`` by (row, -score, candidate
    index) orders them before each row is cut to k. Exact ties thus break
    by candidate index, so sorted candidates break them by token.
    """
    candidates = donor.matrix[[donor.index[t] for t in candidate_tokens]]
    norms = np.linalg.norm(candidates, axis=1)
    defined = norms > 0.0
    kept = [t for t, ok in zip(candidate_tokens, defined) if ok]
    if not kept:
        return kept, [None] * len(words)
    unit_candidates = candidates[defined] / norms[defined][:, np.newaxis]
    del candidates
    # Equal directions tie exactly, but BLAS may round one row differently
    # in different columns: each repeated row takes its first occurrence's
    # scores after the product. Only rows whose first coordinate repeats
    # are compared whole, which keeps the check cheap on real vocabularies.
    _, lead_group, lead_counts = np.unique(
        unit_candidates[:, 0], return_inverse=True, return_counts=True
    )
    maybe = np.flatnonzero(lead_counts[lead_group] > 1)
    row_type = np.dtype((np.void, unit_candidates.itemsize * donor.dim))
    _, first, group = np.unique(
        unit_candidates[maybe].view(row_type).ravel(), return_index=True, return_inverse=True
    )
    firsts = maybe[first[group]]
    repeat = firsts != maybe
    repeats, firsts = maybe[repeat], firsts[repeat]

    queries = donor.matrix[[donor.index[w] for w in words]]
    query_norms = np.linalg.norm(queries, axis=1)
    live = np.flatnonzero(query_norms > 0.0)
    unit_queries = queries[live] / query_norms[live][:, np.newaxis]
    del queries
    n = len(kept)
    step = max(1, _BLOCK_BYTES // (8 * n))
    ranked: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(words)
    for start in range(0, len(live), step):
        scores = unit_queries[start : start + step] @ unit_candidates.T
        scores[:, repeats] = scores[:, firsts]
        kth = -np.inf if n <= k else np.partition(scores, n - k, axis=1)[:, n - k, np.newaxis]
        rows, cols = np.divmod(np.flatnonzero(scores >= kth), n)
        values = scores[rows, cols]
        # ``rows`` is sorted and holds each block row at least min(k, n) times.
        row_starts = np.searchsorted(rows, np.arange(len(scores)))
        del scores
        order = np.lexsort((cols, -values, rows))
        top = order[row_starts[:, np.newaxis] + np.arange(min(k, n))]
        for i, row_scores, row_top in zip(live[start : start + step], values[top], cols[top]):
            ranked[i] = (row_scores, row_top)
    return kept, ranked


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
    kept, (hit,) = _rank(space, [query], tokens, k)
    if not kept:
        raise ValueError("no candidates with a defined similarity")
    if hit is None:
        raise ValueError(f"query token {query!r} has a zero vector; cosine undefined")
    scores, top = hit
    return NeighborList(query, tuple((kept[i], float(s)) for i, s in zip(top, scores)))


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
    rows = e2.matrix[[e2_index[t] for t in ranked.tokens]]
    return rows.mean(axis=0)


def _union_positions(spaces: Sequence[EmbeddingSpace]) -> tuple[list[str], list[np.ndarray]]:
    """The union vocabulary in first-seen order, and for each space the
    union position of each of its rows."""
    position: dict[str, int] = {}
    places = [
        np.array([position.setdefault(t, len(position)) for t in space.tokens], dtype=np.intp)
        for space in spaces
    ]
    return list(position), places


def _extend_all_to_union(
    spaces: Sequence[EmbeddingSpace], k: int, *, record_neighbors: bool = False
) -> tuple[list[EmbeddingSpace], SynthesisReport]:
    """Extend every space to the union vocabulary with NN synthesis.

    Every missing word is synthesized from originally-present words only.
    With several donor spaces holding a word, the donor whose best
    candidate cosine is highest wins (ties: the earliest donor in source
    order); neighbor candidates are the words the donor shares with the
    deficient space. Centroids always come from the deficient space's own
    original vectors, so spaces of different dimensionality can still
    donate neighbors to each other. A word no donor can rank (zero vector,
    or no candidate with a direction) is filled with zeros and listed as
    skipped. Union order: first-seen across ``spaces``.
    """
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
    if e1.dim != e2.dim:
        raise ValueError(f"spaces differ in dim: {e1.dim} vs {e2.dim}")
    e2_index = e2.index
    if not any(t in e2_index for t in e1.tokens):
        raise ValueError("the spaces share no vocabulary")
    (extended_e1, extended_e2), report = _extend_all_to_union(
        [e1, e2], k, record_neighbors=record_neighbors
    )
    return extended_e1, extended_e2, report


def format_audit_dump(report: SynthesisReport) -> bytes:
    """One ``word TAB neighbor1,neighbor2,... LF`` line per synthesized word."""
    if report.neighbors is None:
        raise ValueError("report carries no neighbor lists; extend with record_neighbors=True")
    lines = [
        word + "\t" + ",".join(neighbor_tokens) + "\n"
        for word, neighbor_tokens in report.neighbors.items()
    ]
    return "".join(lines).encode("utf-8")
