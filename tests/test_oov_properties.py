"""Property tests: neighbor ranking against the exhaustive-scan oracle on
random spaces with planted exact ties, in every tiling of queries and
candidates, and the union extension against a per-word oracle."""
from unittest.mock import patch

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metavec import embeddings, oov
from metavec.embeddings import EmbeddingSpace
from metavec.linalg import _row_norms
from metavec.oov import extend_to_union, nearest_neighbors
from oracles import exhaustive_neighbors, exhaustive_scores, extend_all_to_union


@st.composite
def tied_matrices(draw, max_rows=40):
    """A random matrix whose rows repeat other rows' directions, exactly or
    nearly.

    Scaling by a power of two leaves a unit vector bitwise unchanged, so
    each exact copy ties exactly with its source. A near copy moves each
    value by 10⁻⁹ to 10⁻¹² of the row's scale: float64 cosines still tell
    it from its source, float32 scores mostly cannot. Some rows are zero.
    """
    n = draw(st.integers(2, max_rows))
    dim = draw(st.sampled_from([1, 2, 3, 7, 64, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.normal(size=(n, dim))
    rows = st.integers(0, n - 1)
    for source, copy, exponent, nudge in draw(
        st.lists(
            st.tuples(rows, rows, st.integers(-3, 3), st.sampled_from([0.0, 1e-9, 1e-12])),
            max_size=n,
        )
    ):
        matrix[copy] = (matrix[source] + nudge * rng.normal(size=dim)) * 2.0**exponent
    matrix[draw(st.lists(rows, max_size=2))] = 0.0
    return matrix


def shuffled_tokens(n, prefix, seed):
    # Token order differs from row order, so breaking ties by token is
    # not the same as breaking them by position.
    return [f"{prefix}{i:03d}" for i in np.random.default_rng(seed).permutation(n)]


@settings(max_examples=60, deadline=None)
@given(tied_matrices(), st.integers(1, 20), st.data())
def test_nearest_neighbors_match_exhaustive_scan(matrix, k, data):
    space = EmbeddingSpace(shuffled_tokens(len(matrix), "w", seed=0), matrix)
    live = [t for t, row in zip(space.tokens, matrix) if row.any()]
    assume(len(live) >= 2)
    query = data.draw(st.sampled_from(live))
    got = nearest_neighbors(space, query, k=k)
    assert list(got.neighbors) == [(t, -score) for score, t in exhaustive_scores(space, query)[:k]]


@settings(max_examples=40, deadline=None)
@given(tied_matrices(), st.integers(1, 12), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_audit_lists_match_exhaustive_scan_over_shared_words(matrix, k, n_only, seed):
    rng = np.random.default_rng(seed)
    shared = shuffled_tokens(len(matrix), "s", seed)
    only1 = [f"x{i}" for i in range(n_only)]
    only2 = [f"y{i}" for i in range(n_only)]
    dim = matrix.shape[1]
    e1 = EmbeddingSpace(shared + only1, np.vstack([matrix, rng.normal(size=(n_only, dim))]))
    e2 = EmbeddingSpace(
        only2 + shared, np.vstack([rng.normal(size=(n_only, dim)), matrix[::-1] * 3.0])
    )
    out1, out2, report = extend_to_union(e1, e2, k=k, record_neighbors=True)
    for donor, recipient, out, words in ((e1, e2, out2, only1), (e2, e1, out1, only2)):
        for word in words:
            pool = EmbeddingSpace(
                shared + [word], donor.matrix[[donor.index[t] for t in shared + [word]]]
            )
            expected = exhaustive_neighbors(pool, word, k)
            if not expected:
                assert word in report.skipped
                assert not out.vector(word).any()
                continue
            assert report.neighbors[word] == expected
            centroid = recipient.matrix[[recipient.index[t] for t in expected]].mean(axis=0)
            assert np.array_equal(out.vector(word), centroid)


@settings(max_examples=40, deadline=None)
@given(
    tied_matrices(),
    st.integers(1, 12),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.integers(1, 1000),
)
def test_audit_lists_match_exhaustive_scan_in_small_query_blocks(
    matrix, k, n_only, seed, block_bytes
):
    # 4 bytes per float32 value: blocks of one query against tiles of one
    # candidate up to blocks of several queries against every candidate.
    with patch.object(embeddings, "_BLOCK_BYTES", block_bytes):
        test_audit_lists_match_exhaustive_scan_over_shared_words.hypothesis.inner_test(
            matrix, k, n_only, seed
        )


@st.composite
def tiled_rankings(draw):
    """A ranking call and a tiling for it: a tied matrix split into
    candidates (shuffled, so position is not row order) and queries, k, the
    chunk count of the k-th bound, and a budget of ``rows`` float32 rows
    (and a few bytes), so blocks of up to ``rows`` queries meet tiles whose
    rows and scores against a block fit in it: blocks of one query,
    one-candidate tiles (also against blocks of several queries, where a
    row has one value), several tiles or a single one, and more blocks
    than ``oov._rank`` holds at once."""
    matrix = draw(tied_matrices(max_rows=90))
    n_queries = draw(st.integers(1, min(8, len(matrix) - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    candidate_rows = rng.permutation(len(matrix) - n_queries)
    query_rows = np.arange(len(matrix) - n_queries, len(matrix))
    rows = draw(st.integers(1, len(candidate_rows) * (1 + n_queries)))
    return (
        matrix,
        query_rows,
        candidate_rows,
        draw(st.integers(1, 20)),
        4 * matrix.shape[1] * rows + draw(st.integers(0, 3)),
        draw(st.sampled_from([2, 5, 16, 64])),
    )


@settings(max_examples=300, deadline=None)
@given(tiled_rankings())
def test_rank_matches_exhaustive_scan_in_any_tiling(case):
    matrix, query_rows, candidate_rows, k, block_bytes, chunks = case
    with patch.object(embeddings, "_BLOCK_BYTES", block_bytes), patch.object(
        oov, "_CHUNKS", chunks
    ):
        live, top = oov._rank(matrix, _row_norms(matrix), query_rows, candidate_rows, k)
    assert live.tolist() == [i for i, row in enumerate(matrix[query_rows]) if row.any()]
    defined = int(np.count_nonzero(matrix[candidate_rows].any(axis=1)))
    assert top.shape == (len(live), min(k, defined))
    tokens = [f"c{p:03d}" for p in range(len(candidate_rows))]
    for i, row_top in zip(live, top):
        pool = EmbeddingSpace(["q", *tokens], matrix[[query_rows[i], *candidate_rows]])
        expected = exhaustive_scores(pool, "q")[:k]
        assert [tokens[p] for p in row_top] == [t for _, t in expected]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 200),
    st.integers(1, 12),
    st.sampled_from([2, 5, 16, 64]),
    st.integers(0, 2**32 - 1),
)
def test_kth_bound_is_the_kth_strided_chunk_maximum(rows, n, k, chunks, seed):
    rng = np.random.default_rng(seed)
    # Few distinct values, so ties are common; some masked (-inf) scores.
    scores = np.round(rng.normal(size=(rows, n)), 1)
    scores[rng.random(size=scores.shape) < 0.2] = -np.inf
    with patch.object(oov, "_CHUNKS", chunks):
        bound = oov._kth_bound(scores, k)
    assert bound.shape == (rows, 1)
    for row, got in zip(scores, bound[:, 0]):
        kth = sorted(row, reverse=True)[k - 1] if n > k else -np.inf
        assert got <= kth
        if k < chunks <= n:
            strided = row[: n - n % chunks]
            maxima = [strided[c::chunks].max() for c in range(chunks)]
            assert got == sorted(maxima, reverse=True)[k - 1]
        else:
            assert got == kth


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300))
def test_best_first_sorts_by_row_then_score(seed, n):
    # Scores span the float32 range, subnormals, both zeros and -inf.
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 20, size=n)
    scores = (rng.normal(size=n) * 10.0 ** rng.integers(-45, 38, size=n)).astype(np.float32)
    scores[rng.random(n) < 0.1] = -0.0
    scores[rng.random(n) < 0.1] = -np.inf
    order = oov._best_first(rows, scores)
    assert sorted(order.tolist()) == list(range(n))
    expected = sorted(zip(rows.tolist(), (-scores).tolist()))
    assert list(zip(rows[order].tolist(), (-scores[order]).tolist())) == expected


@st.composite
def overlapping_spaces(draw):
    """Two to four spaces, each holding a random subset (possibly none) of
    one small vocabulary, in random order and of its own dim (often 1,
    where every direction is one of two). Some rows repeat another row's
    direction scaled by a power of two; some are zero."""
    vocabulary = [f"w{i:02d}" for i in range(draw(st.sampled_from([30, 12, 3, 1])))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spaces = []
    for _ in range(draw(st.integers(2, 4))):
        share = draw(st.sampled_from([0.9, 0.6, 0.3, 0.0]))
        tokens = [vocabulary[i] for i in rng.permutation(len(vocabulary)) if rng.random() < share]
        matrix = rng.normal(size=(len(tokens), draw(st.sampled_from([1, 2, 1, 5]))))
        if tokens:
            rows = st.integers(0, len(tokens) - 1)
            for source, copy, exponent in draw(
                st.lists(st.tuples(rows, rows, st.integers(-3, 3)), max_size=len(tokens))
            ):
                matrix[copy] = matrix[source] * 2.0**exponent
            matrix[draw(st.lists(rows, max_size=2))] = 0.0
        spaces.append(EmbeddingSpace(tokens, matrix))
    return spaces


@settings(max_examples=150, deadline=None)
@given(overlapping_spaces(), st.integers(1, 12), st.integers(1, 1000), st.booleans(), st.data())
def test_extension_matches_per_word_oracle(spaces, k, block_bytes, record_neighbors, data):
    # Tiny budgets split the ranking into tiles of one or a few candidates
    # (or leave one tile), and each neighbor count's centroids into blocks
    # of one or a few words. Each space's union rows are placed in random
    # slices, so a centroid's bits cannot depend on the rows placed with it.
    with patch.object(embeddings, "_BLOCK_BYTES", block_bytes):
        union, table, plans, report = oov._plan_synthesis(
            spaces, k, record_neighbors=record_neighbors
        )
        want, expected = extend_all_to_union(spaces, k, record_neighbors=record_neighbors)
        for space, at, plan, reference in zip(spaces, table, plans, want, strict=True):
            assert reference.tokens == tuple(union)
            cuts = data.draw(st.lists(st.integers(0, len(union)), max_size=4))
            bounds = [0, *sorted(cuts), len(union)]
            # Unwritten rows would keep NaN's bytes, which no oracle row has.
            rows = np.full((len(union), space.dim), np.nan)
            for lo, hi in zip(bounds, bounds[1:]):
                oov._place(rows[lo:hi], at[lo:hi], space.matrix, plan)
            assert rows.tobytes() == reference.matrix.tobytes()
    assert report.words_synthesized == expected.words_synthesized
    assert report.shortfalls == expected.shortfalls
    assert report.skipped == expected.skipped
    if record_neighbors:
        assert list(report.neighbors.items()) == list(expected.neighbors.items())
    else:
        assert report.neighbors is expected.neighbors is None
