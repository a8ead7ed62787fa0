"""Property tests: neighbor ranking against the exhaustive-scan oracle on
random spaces with planted exact ties, and the union extension against a
per-word oracle."""
from unittest.mock import patch

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metavec import oov
from metavec.embeddings import EmbeddingSpace
from metavec.oov import extend_to_union, nearest_neighbors
from oracles import extend_all_to_union, exhaustive_neighbors


@st.composite
def tied_matrices(draw, max_rows=40):
    """A random matrix whose rows repeat other rows' directions.

    Scaling by a power of two leaves a unit vector bitwise unchanged, so
    each planted copy ties exactly with its source. Some rows are zero.
    """
    n = draw(st.integers(2, max_rows))
    dim = draw(st.sampled_from([1, 2, 3, 7, 64, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.normal(size=(n, dim))
    rows = st.integers(0, n - 1)
    for source, copy, exponent in draw(
        st.lists(st.tuples(rows, rows, st.integers(-3, 3)), max_size=n)
    ):
        matrix[copy] = matrix[source] * 2.0**exponent
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
    assert got.tokens == exhaustive_neighbors(space, query, k)


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
    # 8 bytes per score: blocks of one query up to a few hundred.
    with patch.object(oov, "_BLOCK_BYTES", block_bytes):
        test_audit_lists_match_exhaustive_scan_over_shared_words.hypothesis.inner_test(
            matrix, k, n_only, seed
        )


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
@given(overlapping_spaces(), st.integers(1, 12), st.integers(1, 1000), st.booleans())
def test_extension_matches_per_word_oracle(spaces, k, block_bytes, record_neighbors):
    # Tiny budgets split both the ranked queries and each neighbor count's
    # centroids into blocks of one or a few words.
    with patch.object(oov, "_BLOCK_BYTES", block_bytes):
        got, report = oov._extend_all_to_union(spaces, k, record_neighbors=record_neighbors)
        want, expected = extend_all_to_union(spaces, k, record_neighbors=record_neighbors)
    for out, reference in zip(got, want, strict=True):
        assert out.tokens == reference.tokens
        assert out.matrix.tobytes() == reference.matrix.tobytes()
    assert report.words_synthesized == expected.words_synthesized
    assert report.shortfalls == expected.shortfalls
    assert report.skipped == expected.skipped
    if record_neighbors:
        assert list(report.neighbors.items()) == list(expected.neighbors.items())
    else:
        assert report.neighbors is expected.neighbors is None
