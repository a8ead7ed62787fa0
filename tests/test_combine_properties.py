"""Property tests: the union mean of the combiners against a per-word
oracle that sums each word's rows in byte-image order, the "nn"
combiners against the union-sized extended spaces of the per-word
extension oracle, and unit scaling by blocks of rows against the whole
matrix's."""
import re
from unittest.mock import patch

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metavec import embeddings, linalg
from metavec.combine import CombineConfig, combine, combine_average
from metavec.embeddings import EmbeddingSpace
from oracles import extend_all_to_union, mvm_union, union_concat, union_mean


@st.composite
def overlapping_sources(draw, n_sources=st.integers(1, 4)):
    """Sources over one small vocabulary, each holding a random subset of it
    (possibly none) in random order. Many rows come from a shared pool, so
    a word often has equal or negated rows in several sources; pool rows
    carry +0.0 and -0.0 entries, and one is all -0.0."""
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.normal(size=(6, dim))
    pool[1] = -pool[0]
    pool[2, 0] = -0.0
    pool[3] = -0.0
    pool[4, -1] = 0.0
    words = [f"w{i}" for i in range(draw(st.integers(1, 10)))]
    sources = []
    for _ in range(draw(n_sources)):
        tokens = draw(st.lists(st.sampled_from(words), unique=True))
        matrix = rng.normal(size=(len(tokens), dim))
        picks = draw(st.lists(st.integers(-1, 5), min_size=len(tokens), max_size=len(tokens)))
        for row, pick in enumerate(picks):
            if pick >= 0:
                matrix[row] = pool[pick]
        sources.append(EmbeddingSpace(tokens, matrix))
    return sources


def unit(space):
    norms = np.linalg.norm(space.matrix, axis=1)
    return EmbeddingSpace(space.tokens, space.matrix / np.where(norms == 0.0, 1.0, norms)[:, None])


def unit_extended(sources, k):
    """The sources scaled to unit rows and extended to the union: ranked on
    the unit rows, each synthesized row the mean of its neighbors' unit
    rows taken from the raw rows, each raw row times 1 / its norm (1 where
    the norm is 0), as ``linalg._Step0.means`` takes it."""

    def centroid(i, rows):
        matrix = sources[i].matrix
        norms = np.linalg.norm(matrix, axis=1)
        scale = 1.0 / np.where(norms == 0.0, 1.0, norms)[rows]
        return (matrix[rows] * scale[:, np.newaxis]).sum(axis=0) / len(rows)

    return extend_all_to_union([unit(s) for s in sources], k, centroid=centroid)[0]


def space(tokens, rows):
    return EmbeddingSpace(tokens, np.array(rows, dtype=np.float64))


# Sources for explicit "nn" examples. ZERO_DONOR: "d" is a zero row in
# its only donor, so it is skipped. NEGATIVE_ZERO: "a" is all -0.0 in the
# source that lacks "d", and with k=3 a neighbor of "d" there. ONE_DIM:
# rows of one value, each a sign; "e" is -0.0, so it is skipped. Rows
# (0.5, 0.7) and 49 scale to other bits times 1 / norm than over norm.
ZERO_DONOR = [
    space(["a", "b", "c"], [[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]]),
    space(["b", "c", "d"], [[1.0, 0.0], [0.5, 0.7], [0.0, 0.0]]),
]
NEGATIVE_ZERO = [
    space(["a", "b", "c"], [[-0.0, -0.0], [3.0, -1.0], [0.5, 2.0]]),
    space(["a", "b", "c", "d"], [[1.0, 1.0], [2.0, -1.0], [0.5, 3.0], [1.0, 0.9]]),
]
ONE_DIM = [
    space(["a", "b", "c"], [[2.0], [-3.0], [49.0]]),
    space(["b", "c", "d", "e"], [[-1.0], [4.0], [2.0], [-0.0]]),
]


@settings(max_examples=150, deadline=None)
@given(
    overlapping_sources(),
    st.sampled_from(["available", "zero", "nn"]),
    st.integers(1, 3),
    st.sampled_from([1, 100, 8 << 20]),
)
@example(ZERO_DONOR, "nn", 1, 1)
@example(NEGATIVE_ZERO, "nn", 3, 100)
@example(ONE_DIM, "nn", 2, 1)
def test_average_matches_per_word_oracle(sources, policy, k, block_bytes):
    spaces = unit_extended(sources, k) if policy == "nn" else [unit(s) for s in sources]
    tokens, expected = union_mean(spaces, policy)
    config = CombineConfig(method="average", oov=policy, k_neighbors=k)
    # Tiny budgets split the union into blocks of one or a few words.
    with patch.object(embeddings, "_BLOCK_BYTES", block_bytes):
        meta = combine_average(sources, config)
    assert meta.space.tokens == tuple(tokens)
    assert meta.space.matrix.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    overlapping_sources(n_sources=st.just(4)),
    st.permutations(range(4)),
    st.sampled_from(["available", "zero"]),
)
def test_permuting_four_sources_is_bitwise_invariant(sources, order, policy):
    config = CombineConfig(method="average", oov=policy)
    forward = combine_average(sources, config).space
    permuted = combine_average([sources[i] for i in order], config).space
    assert sorted(forward.tokens) == sorted(permuted.tokens)
    for token in forward.tokens:
        assert forward.vector(token).tobytes() == permuted.vector(token).tobytes()


def extended_space_oracle(sources, method, k):
    """The "nn" result built from whole extended spaces: for mvm, the
    union-grid oracle (``mvm_union``); else extend the unit sources to the
    union (``unit_extended``), then average or concatenate the extended
    spaces."""
    if method == "mvm":
        grid = max(1, linalg._PRODUCT_BYTES // (8 * len(sources) * sources[0].dim))
        return mvm_union(sources, k, grid)[:2]
    extended = unit_extended(sources, k)
    if method == "concat":
        return union_concat(extended)
    return union_mean(extended, "nn")


@settings(max_examples=150, deadline=None)
@given(
    overlapping_sources(n_sources=st.integers(2, 4)),
    st.sampled_from(["mvm", "average", "concat"]),
    st.integers(1, 3),
)
@example(ZERO_DONOR, "average", 1)
@example(ZERO_DONOR, "concat", 2)
@example(NEGATIVE_ZERO, "average", 3)
@example(NEGATIVE_ZERO, "concat", 3)
@example(ONE_DIM, "average", 2)
@example(ONE_DIM, "concat", 1)
def test_nn_combiners_match_extended_space_oracle(sources, method, k):
    config = CombineConfig(method=method, oov="nn", k_neighbors=k)
    try:
        tokens, expected = extended_space_oracle(sources, method, k)
    except ValueError as error:
        # Alignment needs shared words with a direction.
        with pytest.raises(ValueError, match=re.escape(str(error))):
            combine(sources, config)
        return
    # Tiny budgets split ranking, centroids and the union mean into blocks
    # of one or a few rows; none of them moves a bit.
    for block_bytes in [1, 100, 8 << 20]:
        with patch.object(embeddings, "_BLOCK_BYTES", block_bytes):
            meta = combine(sources, config)
        assert meta.space.tokens == tuple(tokens)
        assert meta.space.matrix.tobytes() == expected.tobytes()


@settings(max_examples=200)
@given(
    st.integers(1, 40),
    st.sampled_from([1, 2, 3, 7, 8, 9, 16, 127, 128, 129, 300]),
    st.integers(1, 3000),
    st.data(),
)
def test_unit_rows_by_blocks_equal_whole_matrix_ones(rows, dim, block_bytes, data):
    # Streamed mvm scales each run of union rows alone: the norms and
    # quotients of any rows must have the bits of the whole matrix's.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    matrix = rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-150, 150, size=(rows, 1))
    matrix[data.draw(st.lists(st.integers(0, rows - 1), max_size=2))] = 0.0
    norms = np.linalg.norm(matrix, axis=1)
    whole = matrix / np.where(norms == 0.0, 1.0, norms)[:, np.newaxis]
    lo = data.draw(st.integers(0, rows))
    hi = data.draw(st.integers(lo, rows))
    with patch.object(embeddings, "_BLOCK_BYTES", block_bytes):
        assert linalg._row_norms(matrix[lo:hi]).tobytes() == norms[lo:hi].tobytes()
        scaled, zeros = linalg._unit_rows(matrix[lo:hi])
        in_place = matrix[lo:hi].copy()
        linalg._unit_rows(in_place, out=in_place)
    assert scaled.tobytes() == in_place.tobytes() == whole[lo:hi].tobytes()
    assert zeros == np.count_nonzero(norms[lo:hi] == 0.0)
