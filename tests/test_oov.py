import math

import numpy as np
import pytest

from metavec import embeddings, linalg, oov
from metavec.combine import CombineConfig, combine_average, combine_concat
from metavec.embeddings import EmbeddingSpace
from metavec.linalg import _row_norms, cosine
from metavec.oov import (
    NeighborList,
    extend_to_union,
    format_audit_dump,
    nearest_neighbors,
    synthesize_word,
)
from conftest import traced_peak
from oracles import exhaustive_neighbors, extend_all_to_union


def clustered_pair(seed, n_clusters=3, per_cluster=15, dim=12, spread=3.0, noise=0.5):
    """Two spaces over one vocabulary whose words form tight clusters."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, dim)) * spread
    labels = np.repeat(np.arange(n_clusters), per_cluster)
    tokens = [f"c{label}_{i:02d}" for i, label in enumerate(labels)]
    m1 = centers[labels] + rng.normal(size=(len(labels), dim)) * noise
    m2 = centers[labels] + rng.normal(size=(len(labels), dim)) * noise
    return EmbeddingSpace(tokens, m1), EmbeddingSpace(tokens, m2)


class TestNeighborList:
    def test_rejects_increasing_scores(self):
        with pytest.raises(ValueError, match="non-increasing"):
            NeighborList("q", (("a", 0.1), ("b", 0.2)))

    def test_rejects_self_neighbor(self):
        with pytest.raises(ValueError, match="own neighbor"):
            NeighborList("q", (("q", 1.0),))

    def test_tokens_accessor(self):
        nl = NeighborList("q", (("b", 0.9), ("a", 0.2)))
        assert nl.tokens == ("b", "a")

    def test_iterates_over_pairs(self):
        nl = NeighborList("q", (("b", 0.9), ("a", 0.2)))
        assert list(nl) == [("b", 0.9), ("a", 0.2)]
        assert len(nl) == 2


class TestNearestNeighbors:
    def test_hand_computed_example(self):
        space = EmbeddingSpace(
            ["a", "b", "c"], [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]]
        )
        nl = nearest_neighbors(space, "a", k=1)
        token, score = nl.neighbors[0]
        assert token == "b"
        assert abs(score - 0.9 / math.sqrt(0.82)) <= 1e-12

    def test_k_larger_than_vocabulary(self, make_space):
        space = make_space(n=6, dim=3, seed=40)
        nl = nearest_neighbors(space, space.tokens[0], k=50)
        assert len(nl.neighbors) == 5
        assert space.tokens[0] not in nl.tokens

    def test_exact_ties_break_lexicographically(self):
        # b and d are colinear: identical cosine to the query.
        space = EmbeddingSpace(
            ["q", "d", "b"], [[1.0, 0.0], [2.0, 2.0], [1.0, 1.0]]
        )
        nl = nearest_neighbors(space, "q", k=2)
        assert nl.tokens == ("b", "d")
        assert nl.neighbors[0][1] == nl.neighbors[1][1]

    def test_agrees_with_exhaustive_scan(self, make_space):
        rng = np.random.default_rng(41)
        for trial in range(5):
            n = int(rng.integers(20, 200))
            space = make_space(n=n, dim=8, seed=42 + trial)
            for query in rng.choice(space.tokens, size=5, replace=False):
                k = int(rng.integers(1, 21))
                expected = sorted(
                    (
                        (-cosine(space.vector(query), space.vector(t)), t)
                        for t in space.tokens
                        if t != query
                    ),
                )[:k]
                nl = nearest_neighbors(space, query, k=k)
                assert [t for _, t in expected] == list(nl.tokens)
                for (neg, _), (_, score) in zip(expected, nl.neighbors):
                    assert abs(-neg - score) <= 1e-12

    def test_restriction_is_honored(self, make_space):
        space = make_space(n=10, dim=4, seed=43)
        allowed = set(space.tokens[:3])
        nl = nearest_neighbors(space, space.tokens[5], k=10, restrict_to=allowed)
        assert set(nl.tokens) == allowed

    def test_repeated_restriction_tokens_count_once(self, make_space):
        space = make_space(n=5, dim=3, seed=62)
        a, b = space.tokens[1], space.tokens[2]
        nl = nearest_neighbors(space, space.tokens[0], k=5, restrict_to=[a, a, b])
        assert sorted(nl.tokens) == [a, b]

    def test_zero_vector_candidates_excluded(self):
        space = EmbeddingSpace(
            ["q", "dead", "live"], [[1.0, 0.0], [0.0, 0.0], [0.5, 0.1]]
        )
        nl = nearest_neighbors(space, "q", k=5)
        assert nl.tokens == ("live",)

    def test_errors(self, make_space):
        space = make_space(n=5, dim=3, seed=44)
        with pytest.raises(KeyError):
            nearest_neighbors(space, "absent", k=1)
        with pytest.raises(ValueError, match="k must be"):
            nearest_neighbors(space, space.tokens[0], k=0)
        with pytest.raises(ValueError, match="no candidate"):
            nearest_neighbors(space, space.tokens[0], k=1, restrict_to=set())
        zero_query = EmbeddingSpace(["q", "a"], [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="zero vector"):
            nearest_neighbors(zero_query, "q", k=1)

    @pytest.mark.parametrize("query", [[1.0, 0.0], [0.0, 0.0]])
    def test_only_zero_candidates_rejected(self, query):
        space = EmbeddingSpace(["q", "a", "b"], [query, [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="no candidates with a defined similarity"):
            nearest_neighbors(space, "q", k=3)

    def test_repeat_runs_identical(self, make_space):
        space = make_space(n=60, dim=6, seed=45)
        first = nearest_neighbors(space, space.tokens[7], k=12)
        second = nearest_neighbors(space, space.tokens[7], k=12)
        assert first == second


class TestSynthesizeWord:
    def test_k1_copies_the_neighbor(self):
        e1 = EmbeddingSpace(["w", "n", "far"], [[1.0, 0.0], [0.99, 0.01], [0.0, 1.0]])
        e2 = EmbeddingSpace(["n", "far"], [[7.0, 8.0], [-1.0, -2.0]])
        out = synthesize_word("w", e1, e2, k=1)
        assert np.array_equal(out, [7.0, 8.0])

    def test_identical_neighbor_vectors_give_that_vector(self):
        e1 = EmbeddingSpace(
            ["w", "a", "b", "c"],
            [[1.0, 0.0], [0.9, 0.1], [0.8, 0.2], [0.7, 0.3]],
        )
        v = [4.0, -2.0]
        e2 = EmbeddingSpace(["a", "b", "c"], [v, v, v])
        assert np.allclose(synthesize_word("w", e1, e2, k=3), v, atol=1e-15)

    def test_centroid_norm_bounded_by_neighbors(self, make_space):
        e1 = make_space(n=40, dim=6, seed=46)
        e2_tokens = [t for t in e1.tokens if t != e1.tokens[0]]
        rng = np.random.default_rng(47)
        e2 = EmbeddingSpace(e2_tokens, rng.normal(size=(39, 6)) * 3.0)
        out = synthesize_word(e1.tokens[0], e1, e2, k=10)
        neighbor_norms = np.linalg.norm(e2.matrix, axis=1)
        assert np.linalg.norm(out) <= neighbor_norms.max() + 1e-12

    def test_precondition_errors(self, make_space):
        space = make_space(n=5, dim=3, seed=48)
        with pytest.raises(KeyError):
            synthesize_word("ghost", space, make_space(n=5, dim=3, seed=49, prefix="x"))
        with pytest.raises(ValueError, match="already present"):
            synthesize_word(space.tokens[0], space, space)
        disjoint = make_space(n=5, dim=3, seed=50, prefix="y")
        with pytest.raises(ValueError, match="share no tokens"):
            synthesize_word(space.tokens[0], space, disjoint)


class TestExtendToUnion:
    def test_identical_vocabularies_are_untouched(self, make_space):
        e1 = make_space(n=10, dim=4, seed=51)
        e2 = make_space(n=10, dim=4, seed=52)
        out1, out2, report = extend_to_union(e1, e2)
        assert np.array_equal(out1.matrix, e1.matrix)
        assert np.array_equal(out2.matrix, e2.matrix)
        assert report.words_synthesized == (0, 0)

    def test_held_out_word_lands_near_its_true_vector(self):
        e1, e2_full = clustered_pair(seed=53)
        held_out = e1.tokens[0]
        keep = [t for t in e2_full.tokens if t != held_out]
        e2 = EmbeddingSpace(keep, e2_full.matrix[1:])
        _, extended, report = extend_to_union(e1, e2)
        assert report.words_synthesized == (0, 1)
        true_vector = e2_full.vector(held_out)
        synthesized = extended.vector(held_out)
        achieved = cosine(synthesized, true_vector)
        others = [
            cosine(e2.vector(t), true_vector) for t in keep
        ]
        assert achieved > np.mean(others)

    def test_union_order_and_shared_vocabulary(self):
        e1 = EmbeddingSpace(["a", "b", "x"], np.eye(3))
        e2 = EmbeddingSpace(["y", "b", "a"], np.eye(3) * 2.0)
        out1, out2, _ = extend_to_union(e1, e2, k=1)
        assert out1.tokens == ("a", "b", "x", "y")
        assert out2.tokens == out1.tokens

    def test_originals_survive_bitwise(self, make_space):
        e1 = make_space(n=12, dim=5, seed=54)
        rng = np.random.default_rng(55)
        e2_tokens = list(e1.tokens[:8]) + ["extra1", "extra2"]
        e2 = EmbeddingSpace(e2_tokens, rng.normal(size=(10, 5)))
        out1, out2, _ = extend_to_union(e1, e2)
        for token in e1.tokens:
            assert np.array_equal(out1.vector(token), e1.vector(token))
        for token in e2.tokens:
            assert np.array_equal(out2.vector(token), e2.vector(token))

    def test_singleton_words_are_never_candidates(self):
        e1 = EmbeddingSpace(["a", "b", "x"], [[1.0, 0.0], [0.0, 1.0], [0.9, 0.1]])
        e2 = EmbeddingSpace(["a", "b", "y"], [[1.0, 0.1], [0.1, 1.0], [0.8, 0.0]])
        out1, out2, report = extend_to_union(e1, e2, k=2, record_neighbors=True)
        assert "y" not in report.neighbors["x"]
        assert "x" not in report.neighbors["y"]
        assert set(report.neighbors["x"]) <= {"a", "b"}

    def test_matches_single_word_synthesis(self, make_space):
        e1 = make_space(n=30, dim=6, seed=56)
        rng = np.random.default_rng(57)
        e2_tokens = [t for t in e1.tokens if t not in (e1.tokens[3], e1.tokens[9])]
        e2 = EmbeddingSpace(e2_tokens, rng.normal(size=(28, 6)))
        _, extended, _ = extend_to_union(e1, e2, k=5)
        for word in (e1.tokens[3], e1.tokens[9]):
            direct = synthesize_word(word, e1, e2, k=5)
            assert np.allclose(extended.vector(word), direct, atol=1e-12)

    def test_shortfall_recorded_when_overlap_is_small(self):
        e1 = EmbeddingSpace(["s1", "s2", "x"], np.eye(3))
        e2 = EmbeddingSpace(["s1", "s2"], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        _, _, report = extend_to_union(e1, e2, k=10)
        assert report.shortfalls == (("x", 2),)

    def test_zero_vector_word_skipped_and_zero_filled(self):
        e1 = EmbeddingSpace(
            ["s1", "s2", "dead"], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        )
        e2 = EmbeddingSpace(["s1", "s2"], [[1.0, 1.0], [2.0, 2.0]])
        _, extended, report = extend_to_union(e1, e2)
        assert report.skipped == ("dead",)
        assert np.array_equal(extended.vector("dead"), [0.0, 0.0])

    def test_all_zero_candidates_skip_instead_of_raising(self):
        e1 = EmbeddingSpace(["s1", "s2", "x"], [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        e2 = EmbeddingSpace(["s1", "s2", "y"], [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        # Every shared word is a zero vector in e1, so x has nothing to rank
        # against; y still ranks against e2's shared vectors.
        _, out2, report = extend_to_union(e1, e2, k=2, record_neighbors=True)
        assert report.skipped == ("x",)
        assert report.neighbors == {"y": ("s1", "s2")}
        assert np.array_equal(out2.vector("x"), [0.0, 0.0])

    def test_k_below_one_rejected(self, make_space):
        space = make_space(n=4, dim=3, seed=63)
        with pytest.raises(ValueError, match="k must be"):
            extend_to_union(space, EmbeddingSpace(space.tokens[:2], space.matrix[:2]), k=0)

    def test_errors(self, make_space):
        a = make_space(n=4, dim=3, seed=58, prefix="a")
        b = make_space(n=4, dim=3, seed=59, prefix="b")
        with pytest.raises(ValueError, match="share no vocabulary"):
            extend_to_union(a, b)
        c = make_space(n=4, dim=2, seed=60, prefix="a")
        with pytest.raises(ValueError, match="dim"):
            extend_to_union(a, c)


class TestAuditDump:
    def test_format(self):
        e1 = EmbeddingSpace(["a", "b", "x"], [[1.0, 0.0], [0.0, 1.0], [0.9, 0.1]])
        e2 = EmbeddingSpace(["a", "b"], [[1.0, 0.1], [0.1, 1.0]])
        _, _, report = extend_to_union(e1, e2, k=2, record_neighbors=True)
        assert format_audit_dump(report) == b"x\ta,b\n"

    def test_requires_recorded_neighbors(self, make_space):
        space = make_space(n=4, dim=3, seed=61)
        _, _, report = extend_to_union(space, space)
        with pytest.raises(ValueError, match="record_neighbors"):
            format_audit_dump(report)


class TestEqualDirectionTies:
    """A repeated direction must tie exactly and come back in token order,
    whatever rounding BLAS applies at each row or column position."""

    TOKENS = ["a_twin", "b", "c", "d", "e", "f", "z_twin"]

    @staticmethod
    def twin_rows(rng, dim=300):
        base = rng.normal(size=(6, dim))
        return np.vstack([base, base[0]])

    def test_nearest_neighbors_orders_twins_by_token(self):
        rng = np.random.default_rng(70)
        rows = self.twin_rows(rng)
        for _ in range(50):
            query = rng.normal(size=(1, rows.shape[1]))
            space = EmbeddingSpace(["q"] + self.TOKENS, np.vstack([query, rows]))
            ranked = nearest_neighbors(space, "q", k=7)
            scores = dict(ranked.neighbors)
            assert scores["a_twin"] == scores["z_twin"]
            assert ranked.tokens.index("a_twin") < ranked.tokens.index("z_twin")

    def test_only_equal_directions_share_scores(self):
        # a/c and b/d are equal directions; all four share a first coordinate.
        space = EmbeddingSpace(
            ["q", "a", "b", "c", "d"],
            [[0.0, 1.0, 2.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]],
        )
        ranked = nearest_neighbors(space, "q", k=4)
        assert ranked.tokens == ("b", "d", "a", "c")
        scores = [score for _, score in ranked]
        assert scores[0] == scores[1] > scores[2] == scores[3]

    def test_audit_lists_order_twins_by_token(self):
        rng = np.random.default_rng(71)
        rows = self.twin_rows(rng)
        e2 = EmbeddingSpace(self.TOKENS, rng.normal(size=rows.shape))
        for n_queries in range(1, 70):
            queries = rng.normal(size=(n_queries, rows.shape[1]))
            words = [f"q{i:02d}" for i in range(n_queries)]
            e1 = EmbeddingSpace(words + self.TOKENS, np.vstack([queries, rows]))
            _, _, report = extend_to_union(e1, e2, k=7, record_neighbors=True)
            for word in words:
                tokens = report.neighbors[word]
                assert tokens.index("a_twin") < tokens.index("z_twin"), (n_queries, word)

    def test_a_run_of_one_direction_is_rescored_once_per_query(self, monkeypatch):
        # 200 copies of one row (scaled by powers of two: the same float64
        # unit rows) among 500 candidates, and 50 queries near it: every
        # query's best 200 candidates form one run of equal scores. One
        # cosine per query and direction decides the run, where a cosine
        # per member would take 10000.
        rng = np.random.default_rng(80)
        dim = 30
        matrix = rng.normal(size=(550, dim))
        copies = rng.choice(500, size=200, replace=False)
        matrix[copies] = matrix[copies[0]] * 2.0 ** rng.integers(-3, 4, size=(200, 1))
        matrix[500:] = matrix[copies[0]] + 0.01 * rng.normal(size=(50, dim))
        pairs = []
        cosines = oov._cosines

        def counted(matrix, norms, left, right):
            pairs.append(len(left))
            return cosines(matrix, norms, left, right)

        monkeypatch.setattr(oov, "_cosines", counted)
        queries = np.arange(500, 550)
        live, top = oov._rank(matrix, _row_norms(matrix), queries, np.arange(500), 10)
        assert sum(pairs) <= len(queries)
        assert (top == np.sort(copies)[:10]).all()


class TestQueryBlocks:
    """Ranking one block of queries at a time must give the same neighbors
    as the exhaustive scan, also when exact ties straddle the k-th place
    and when the last block is partial."""

    @pytest.mark.parametrize("rows_per_block", [1, 3])
    def test_straddling_ties_match_exhaustive_scan(self, monkeypatch, rows_per_block):
        # Blocks of one or two queries against tiles of as many candidates.
        self.straddling_ties_match_exhaustive_scan(monkeypatch, rows_per_block * 4 * 12)

    @staticmethod
    def straddling_ties_match_exhaustive_scan(monkeypatch, block_bytes):
        rng = np.random.default_rng(72)
        dim, k = 16, 4
        base = rng.normal(size=dim)
        # Six exact copies of one direction (more than k), plus others.
        rows = np.vstack(
            [base * 2.0**e for e in (-2, -1, 0, 1, 2, 3)] + [rng.normal(size=(6, dim))]
        )
        shared = [f"s{i:02d}" for i in rng.permutation(len(rows))]
        twins = set(shared[:6])
        words = [f"q{i}" for i in range(7)]
        queries = base + rng.normal(size=(7, dim)) * 0.3
        queries[1::2] += rows[6] * 0.8
        e1 = EmbeddingSpace(shared + words, np.vstack([rows, queries]))
        e2 = EmbeddingSpace(shared[::-1], rng.normal(size=(len(shared), dim)))
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", block_bytes)
        _, out2, report = extend_to_union(e1, e2, k=k, record_neighbors=True)
        straddled = 0
        for word in words:
            pool_tokens = shared + [word]
            pool = EmbeddingSpace(pool_tokens, e1.matrix[[e1.index[t] for t in pool_tokens]])
            expected = exhaustive_neighbors(pool, word, k)
            straddled += expected[-1] in twins and not twins <= set(expected)
            assert report.neighbors[word] == expected
            centroid = e2.matrix[[e2.index[t] for t in expected]].mean(axis=0)
            assert np.array_equal(out2.vector(word), centroid)
        assert straddled

    def test_kernel_memory_stays_flat(self):
        # One unblocked 4000 x 2000 float64 score matrix alone is 64 MB.
        rng = np.random.default_rng(73)
        shared = [f"s{i:04d}" for i in range(2000)]
        missing = [f"m{i:04d}" for i in range(4000)]
        e1 = EmbeddingSpace(shared + missing, rng.normal(size=(6000, 32)))
        e2 = EmbeddingSpace(shared, rng.normal(size=(2000, 32)))
        _, peak = traced_peak(extend_to_union, e1, e2, k=10)
        assert peak < 40e6

    @pytest.mark.parametrize("queries_per_block", [4, 7])
    @pytest.mark.parametrize("rows_per_block", [1, 3])
    def test_straddling_ties_match_exhaustive_scan_in_candidate_tiles(
        self, monkeypatch, rows_per_block, queries_per_block
    ):
        # A budget of 4 + 0, 4 + 2, 7 + 0 or 7 + 2 float32 rows of 16 dims:
        # blocks of 4 and 3, or of all 7, queries against tiles of 4, 6, 7
        # or 9 of the 12 candidates, so the six twins span several tiles.
        rows = queries_per_block + rows_per_block - 1
        self.straddling_ties_match_exhaustive_scan(monkeypatch, rows * 4 * 16)

    def test_kernel_memory_stays_flat_with_candidate_tiles(self):
        # 1000 queries against 30000 candidates: their float32 scores
        # alone would be 120 MB, so the candidate axis is tiled.
        rng = np.random.default_rng(74)
        shared = [f"s{i:05d}" for i in range(30000)]
        missing = [f"m{i:04d}" for i in range(1000)]
        e1 = EmbeddingSpace(shared + missing, rng.normal(size=(31000, 16)))
        e2 = EmbeddingSpace(shared, rng.normal(size=(30000, 16)))
        _, peak = traced_peak(extend_to_union, e1, e2, k=10)
        # The two union-sized outputs (7.9 MB) set the peak; ranking holds
        # one block of queries, one tile of candidates and one 1 MiB tile of
        # float32 scores. Float64 candidates and 8-byte scores read 18.9 MB.
        assert peak < 16e6

    def test_rank_holds_no_float64_candidates(self):
        # 500 queries against 20000 candidates of 64 dims: their float64
        # unit rows would be 10.2 MB.
        rng = np.random.default_rng(78)
        matrix = rng.normal(size=(20500, 64))
        norms = _row_norms(matrix)
        candidates, queries = np.arange(20000), np.arange(20000, 20500)
        (live, _), peak = traced_peak(oov._rank, matrix, norms, queries, candidates, 10)
        assert len(live) == len(queries)
        assert peak < 8 * len(candidates) * matrix.shape[1] + embeddings._BLOCK_BYTES

    @pytest.mark.parametrize("count", [20000, 80000])
    def test_rank_holds_no_rows_per_candidate(self, count):
        # 500 queries of 64 dims: the candidates' float32 unit rows would
        # be 5.1 MB at 20000 and 20.5 MB at 80000. Ranking holds one block
        # of queries, one tile of candidates and one tile of their scores,
        # each within the budget, whatever the number of candidates.
        rng = np.random.default_rng(79)
        matrix = rng.normal(size=(count + 500, 64)).astype(np.float32)
        norms = _row_norms(matrix)
        candidates, queries = np.arange(count), np.arange(count, count + 500)
        (live, top), peak = traced_peak(oov._rank, matrix, norms, queries, candidates, 10)
        assert len(live) == len(queries)
        assert peak < live.nbytes + top.nbytes + 4 * embeddings._BLOCK_BYTES

    def test_rank_makes_every_product_at_one_blas_thread(self, monkeypatch):
        # Under a pool of two, ranking's float32 products run at one thread
        # too, as every other product does: a pool's spinning threads then
        # never wake, and small products never wait on them.
        if not linalg._openblas():
            pytest.skip("numpy does not use OpenBLAS here")
        counts = []
        matmul = np.matmul

        def spy(*args, **kwargs):
            counts.append([get() for get, _ in linalg._openblas()])
            return matmul(*args, **kwargs)

        rng = np.random.default_rng(81)
        matrix = rng.normal(size=(3000, 64))
        monkeypatch.setattr(np, "matmul", spy)
        with linalg._blas_threads(2):
            oov._rank(matrix, _row_norms(matrix), np.arange(2000, 3000), np.arange(2000), 10)
        assert counts
        assert {count for seen in counts for count in seen} == {1}

    def test_query_rows_are_scaled_one_block_at_a_time(self, monkeypatch):
        # 40000 queries of 32 dims against 16 candidates: their unit rows
        # would be 10.2 MB, a block of 512 of them is 64 KiB. Besides its
        # results, ranking may hold 1 MB.
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 64 << 10)
        rng = np.random.default_rng(77)
        queries, candidates = np.arange(16, 40016), np.arange(16)
        matrix = rng.normal(size=(40016, 32))
        norms = _row_norms(matrix)
        (live, top), peak = traced_peak(oov._rank, matrix, norms, queries, candidates, 3)
        assert len(live) == len(queries)
        assert peak < live.nbytes + top.nbytes + 1e6

    def test_nn_average_builds_no_union_sized_space_per_source(self):
        # Three sources, each holding about half of 6000 words (a union of
        # 5221). Synthesis plus mean may hold the unit-normalized inputs and
        # the union matrix, and one block of working space on top; neither
        # a union-sized copy of each source (10.7 MB each) nor the
        # synthesized rows of all three held at once (13.8 MB) would fit.
        rng = np.random.default_rng(75)
        union, dim = [f"w{i:04d}" for i in range(6000)], 256
        sources = []
        for _ in range(3):
            tokens = [t for t in union if rng.random() < 0.5]
            sources.append(EmbeddingSpace(tokens, rng.normal(size=(len(tokens), dim))))
        words = set().union(*(s.tokens for s in sources))
        held = sum(len(s) for s in sources)
        bound = 8 * dim * (held + len(words)) + 4 * embeddings._BLOCK_BYTES
        config = CombineConfig(method="average", oov="nn")
        meta, peak = traced_peak(combine_average, sources, config)
        assert meta.provenance["synthesized"] == [len(words) - len(s) for s in sources]
        assert peak < bound

    def test_concat_copies_own_rows_in_blocks(self, monkeypatch):
        # Three 256-dim sources of about 2000 of 4000 words (4.1 MB each),
        # placed in 64 KiB blocks. Besides the unit-normalized inputs and
        # the output, the peak may hold the output's finiteness mask (one
        # byte per value) and 0.75 MB; a gathered copy of a source may not.
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 64 << 10)
        rng = np.random.default_rng(76)
        union, dim = [f"w{i:04d}" for i in range(4000)], 256
        sources = []
        for _ in range(3):
            tokens = [t for t in union if rng.random() < 0.5]
            sources.append(EmbeddingSpace(tokens, rng.normal(size=(len(tokens), dim))))
        words = len(set().union(*(s.tokens for s in sources)))
        held = sum(len(s) for s in sources)
        bound = 8 * dim * (held + 3 * words) + 3 * dim * words + 750_000
        config = CombineConfig(method="concat", oov="zero")
        meta, peak = traced_peak(combine_concat, sources, config)
        assert meta.space.dim == 3 * dim
        assert peak < bound


class TestDonorChoice:
    """With several donors, the one whose best cosine is highest wins: by
    the float64 rescore, so the choice follows no tiling."""

    @staticmethod
    def spaces(queries):
        # Space a lacks w29. Donor b holds an exact twin of it (w14, twice
        # its vector): their cosine is 1 only up to rounding, and for this
        # vector the float64 rescore gives exactly 1.0 where np.dot gives
        # 1 - 2**-53. The 1-dim donor c scores exactly 1.0 (w00), a tie
        # that the earlier donor, b, wins. Words only b holds are ranked in
        # the same blocks as w29, so that it shares them with 0 to 255
        # other queries.
        rng = np.random.default_rng(4)
        twin = rng.normal(size=5)
        a = EmbeddingSpace(["w00", "w01", "w02", "w14"], rng.normal(size=(4, 3)))
        others = np.random.default_rng(5).normal(size=(queries - 1, 5))
        b = EmbeddingSpace(
            ["w01", "w02", "w14", "w29", *(f"x{i:03d}" for i in range(queries - 1))],
            np.vstack([rng.normal(size=(2, 5)), 2.0 * twin, twin, others]),
        )
        c = EmbeddingSpace(["w00", "w29"], [[0.5], [3.0]])
        return [a, b, c]

    @pytest.mark.parametrize("queries", [1, 256])
    @pytest.mark.parametrize("block_bytes", [1, 100, 8 << 20])
    def test_donor_choice_follows_no_tiling(self, monkeypatch, block_bytes, queries):
        spaces = self.spaces(queries)
        want, expected = extend_all_to_union(spaces, 1, record_neighbors=True)
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", block_bytes)
        union, table, plans, report = oov._plan_synthesis(spaces, 1, record_neighbors=True)
        assert report.neighbors["w29"] == expected.neighbors["w29"] == ("w14",)
        for space, at, plan, reference in zip(spaces, table, plans, want):
            rows = np.empty((len(union), space.dim))
            oov._place(rows, at, space.matrix, plan)
            assert rows.tobytes() == reference.matrix.tobytes()

    def test_a_word_with_one_donor_takes_no_best_cosine(self, monkeypatch):
        # Two spaces of 2000 shared words, each with 300 words of its own:
        # every missing word has one donor, which wins whatever its score.
        # Only members of near-tie runs at the k-th place are rescored in
        # float64, which random rows seldom make; a best cosine per word
        # would take 600 pairs.
        rng = np.random.default_rng(82)
        shared = [f"s{i:04d}" for i in range(2000)]
        e1 = EmbeddingSpace(shared + [f"a{i:03d}" for i in range(300)], rng.normal(size=(2300, 50)))
        e2 = EmbeddingSpace(shared + [f"b{i:03d}" for i in range(300)], rng.normal(size=(2300, 50)))
        pairs = []
        cosines = oov._cosines

        def counted(matrix, norms, left, right):
            pairs.append(len(left))
            return cosines(matrix, norms, left, right)

        monkeypatch.setattr(oov, "_cosines", counted)
        _, _, report = extend_to_union(e1, e2, k=10)
        assert report.words_synthesized == (300, 300)
        assert sum(pairs) * 20 < sum(report.words_synthesized)


class TestSynthesisCount:
    def test_skipped_words_are_not_counted_as_synthesized(self):
        # e2 lacks "dead" (a zero vector in e1, so it cannot be ranked) and
        # "x"; only "x" gets a vector. e1 lacks "y", which it gets.
        e1 = EmbeddingSpace(
            ["s1", "s2", "dead", "x"], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]]
        )
        e2 = EmbeddingSpace(["s1", "s2", "y"], [[1.0, 1.0], [2.0, 2.0], [1.0, 2.0]])
        _, _, report = extend_to_union(e1, e2, k=2)
        assert report.skipped == ("dead",)
        assert report.words_synthesized == (1, 1)
