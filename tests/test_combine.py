import sys

import numpy as np
import pytest

from metavec import linalg
from metavec.align import MappingDictionary
from metavec.combine import (
    CombineConfig,
    apply_language_prefixes,
    combine,
    combine_average,
    combine_concat,
    combine_concat_reduce,
    combine_mvm,
    provenance_json,
)
from metavec.embeddings import EmbeddingSpace
from metavec.linalg import cosine, normalize_step0
from metavec.oov import extend_to_union
from conftest import traced_peak


def cosine_matrix(space):
    unit = space.matrix / np.linalg.norm(space.matrix, axis=1)[:, None]
    return unit @ unit.T


def random_orthogonal(dim, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))
    return q


class TestCombineConfig:
    def test_method_validation(self):
        with pytest.raises(ValueError, match="unknown method"):
            CombineConfig(method="blend")

    def test_oov_validation(self):
        with pytest.raises(ValueError, match="unknown OOV"):
            CombineConfig(oov="interpolate")

    def test_reduce_dim_required_for_concat_reduce(self):
        with pytest.raises(ValueError, match="requires reduce_dim"):
            CombineConfig(method="concat-reduce")

    def test_reduce_dim_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="only applies"):
            CombineConfig(method="average", reduce_dim=10)

    @pytest.mark.parametrize("method", ["mvm", "average", "concat"])
    def test_post_remove_rejected_elsewhere(self, method):
        with pytest.raises(ValueError, match="post_remove only applies"):
            CombineConfig(method=method, post_remove=3)

    def test_oov_defaults_follow_method(self):
        assert CombineConfig(method="mvm").oov_policy == "nn"
        assert CombineConfig(method="average").oov_policy == "available"
        assert CombineConfig(method="concat").oov_policy == "zero"
        assert CombineConfig(method="average", oov="nn").oov_policy == "nn"

    def test_bounds(self):
        with pytest.raises(ValueError, match="k_neighbors"):
            CombineConfig(k_neighbors=0)
        with pytest.raises(ValueError, match="target_index"):
            CombineConfig(target_index=-1)


class TestLanguagePrefixes:
    def test_prefix_applied_to_tokens_only(self):
        space = EmbeddingSpace(["dog", "cat"], np.eye(2))
        out = apply_language_prefixes(space, "en:")
        assert out.tokens == ("en:dog", "en:cat")
        assert np.array_equal(out.matrix, space.matrix)

    def test_empty_prefix_is_identity(self):
        space = EmbeddingSpace(["dog"], [[1.0, 0.0]])
        assert apply_language_prefixes(space, "") is space

    def test_whitespace_prefix_rejected(self):
        space = EmbeddingSpace(["dog"], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="whitespace"):
            apply_language_prefixes(space, "en ")

    def test_prefixed_tokens_are_not_hashed_again(self):
        # Distinct tokens stay distinct under one prefix, so only the new
        # strings, their list and the space's tuple are made; a set of the
        # 200k prefixed tokens would add 8 MiB.
        space = EmbeddingSpace([f"w{i}" for i in range(200_000)], np.zeros((200_000, 1)))
        out, peak = traced_peak(apply_language_prefixes, space, "en:")
        assert out.tokens[:2] == ("en:w0", "en:w1") and out.matrix is space.matrix
        strings = sum(map(sys.getsizeof, out.tokens))
        assert peak <= strings + 2 * sys.getsizeof(out.tokens) + (1 << 20)


class TestCombineMvm:
    def test_self_ensemble_identity(self, make_space):
        space = make_space(n=30, dim=8, seed=70)
        meta = combine_mvm([space, space])
        reference = normalize_step0(space)
        assert meta.space.tokens == reference.tokens
        assert np.max(np.abs(cosine_matrix(meta.space) - cosine_matrix(reference))) <= 1e-6

    def test_rotated_copy_recovers_identity(self, make_space):
        space = make_space(n=30, dim=8, seed=71)
        rotated = EmbeddingSpace(space.tokens, space.matrix @ random_orthogonal(8, 72))
        meta = combine_mvm([space, rotated])
        reference = normalize_step0(space)
        assert np.max(np.abs(cosine_matrix(meta.space) - cosine_matrix(reference))) <= 1e-6

    def test_union_vocabulary_with_synthesis(self):
        rng = np.random.default_rng(73)
        base = rng.normal(size=(4, 5))
        e1 = EmbeddingSpace(["a", "b", "c"], base[:3])
        e2 = EmbeddingSpace(["b", "c", "d"], base[1:])
        meta = combine_mvm([e1, e2], CombineConfig(method="mvm", k_neighbors=2))
        assert meta.space.tokens == ("a", "b", "c", "d")
        assert meta.provenance["synthesized"] == [1, 1]
        assert meta.space.dim == 5

    def test_rows_are_unit_after_final_normalization(self, make_space):
        e1 = make_space(n=20, dim=6, seed=74)
        e2 = make_space(n=20, dim=6, seed=75)
        meta = combine_mvm([e1, e2])
        norms = np.linalg.norm(meta.space.matrix, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-12)

    def test_policies_share_vocabulary(self, make_space):
        e1 = make_space(n=12, dim=4, seed=76)
        rng = np.random.default_rng(77)
        tokens = list(e1.tokens[:8]) + ["x1", "x2"]
        e2 = EmbeddingSpace(tokens, rng.normal(size=(10, 4)))
        for policy in ("nn", "available", "zero"):
            meta = combine_mvm([e1, e2], CombineConfig(method="mvm", oov=policy))
            assert set(meta.space.tokens) == set(e1.tokens) | set(e2.tokens)
            assert meta.provenance["oov"] == policy

    def test_provenance_records_alignment(self, make_space):
        e1 = make_space(n=15, dim=4, seed=78, meta="glove-toy")
        e2 = make_space(n=15, dim=4, seed=79, meta="sgns-toy")
        meta = combine_mvm([e1, e2])
        assert meta.provenance["sources"] == ["glove-toy", "sgns-toy"]
        assert meta.provenance["dictionary_sizes"] == [None, 15]
        assert meta.provenance["alignment_residuals"][1] >= 0.0
        assert meta.provenance["method"] == "mvm"

    def test_cross_lingual_prefixes_and_dictionary(self):
        base = np.random.default_rng(80).normal(size=(20, 5))
        english = EmbeddingSpace([f"w{i}" for i in range(20)], base)
        spanish = EmbeddingSpace(
            [f"w{i}" for i in range(20)], base @ random_orthogonal(5, 81)
        )
        pairs = MappingDictionary([(f"w{i}", f"w{i}") for i in range(15)])
        config = CombineConfig(method="mvm", language_prefixes=["en:", "es:"])
        meta = combine_mvm([english, spanish], config, dictionaries=[None, pairs])
        assert len(meta.space) == 40
        assert "en:w0" in meta.space and "es:w0" in meta.space
        # Same geometry, so the two language copies of a word coincide.
        assert cosine(meta.space.vector("en:w3"), meta.space.vector("es:w3")) > 0.999

    def test_requires_two_sources(self, make_space):
        with pytest.raises(ValueError, match="two sources"):
            combine_mvm([make_space()])

    def test_config_method_must_match(self, make_space):
        space = make_space()
        with pytest.raises(ValueError, match="expected 'mvm'"):
            combine_mvm([space, space], CombineConfig(method="average"))


class TestCombineAverage:
    def test_orthogonal_unit_vectors_average_to_midpoint(self):
        e1 = EmbeddingSpace(["w"], [[1.0, 0.0]])
        e2 = EmbeddingSpace(["w"], [[0.0, 1.0]])
        meta = combine_average([e1, e2])
        assert np.array_equal(meta.space.vector("w"), [0.5, 0.5])

    def test_lonely_word_keeps_its_normalized_vector(self):
        e1 = EmbeddingSpace(["shared", "only1"], [[1.0, 0.0], [3.0, 4.0]])
        e2 = EmbeddingSpace(["shared"], [[0.0, 2.0]])
        meta = combine_average([e1, e2])
        assert np.array_equal(meta.space.vector("only1"), [0.6, 0.8])

    def test_space_with_itself_is_identity(self, make_space):
        space = make_space(n=10, dim=4, seed=82)
        meta = combine_average([space, space])
        unit = space.matrix / np.linalg.norm(space.matrix, axis=1)[:, None]
        assert np.array_equal(meta.space.matrix, unit)

    def test_permuting_sources_is_bitwise_invariant(self, make_space):
        rng = np.random.default_rng(83)
        spaces = []
        for i in range(3):
            tokens = rng.choice([f"t{j}" for j in range(25)], size=15, replace=False)
            spaces.append(EmbeddingSpace(tokens.tolist(), rng.normal(size=(15, 5))))
        forward = combine_average(spaces)
        backward = combine_average(spaces[::-1])
        assert set(forward.space.tokens) == set(backward.space.tokens)
        for token in forward.space.tokens:
            assert np.array_equal(
                forward.space.vector(token), backward.space.vector(token)
            )

    def test_nn_policy_extends_first(self):
        rng = np.random.default_rng(84)
        base = rng.normal(size=(8, 4))
        e1 = EmbeddingSpace([f"w{i}" for i in range(8)], base)
        e2 = EmbeddingSpace([f"w{i}" for i in range(7)], base[:7] + rng.normal(size=(7, 4)) * 0.1)
        meta = combine_average([e1, e2], CombineConfig(method="average", oov="nn", k_neighbors=3))
        unit1 = e1.matrix / np.linalg.norm(e1.matrix, axis=1)[:, None]
        unit2 = e2.matrix / np.linalg.norm(e2.matrix, axis=1)[:, None]
        _, extended2, _ = extend_to_union(
            EmbeddingSpace(e1.tokens, unit1), EmbeddingSpace(e2.tokens, unit2), k=3
        )
        expected = (unit1[7] + extended2.vector("w7")) / 2.0
        assert np.allclose(meta.space.vector("w7"), expected, atol=1e-12)

    def test_dim_mismatch_rejected(self, make_space):
        with pytest.raises(ValueError, match="dim"):
            combine_average([make_space(n=4, dim=3), make_space(n=4, dim=4)])

    def test_needs_a_source(self):
        for empty in ([], iter([])):
            with pytest.raises(ValueError, match="need at least one source"):
                combine_average(empty)


@pytest.mark.parametrize("nn", [False, True])
@pytest.mark.parametrize("method", ["average", "concat"])
def test_baselines_take_row_norms_once_and_again_only_to_rank(method, nn, monkeypatch):
    # One pass over each source for its unit scale; the unit rows' own
    # norms only when the "nn" policy ranks on them.
    rng = np.random.default_rng(85)
    spaces = [EmbeddingSpace([f"w{i}" for i in range(12) if i % 3 != n], rng.normal(size=(8, 4)))
              for n in range(3)]
    passes = []
    row_norms = linalg._row_norms

    def spy(matrix, rows=None):
        passes.append(len(matrix))
        return row_norms(matrix, rows)

    monkeypatch.setattr(linalg, "_row_norms", spy)
    config = CombineConfig(method=method, oov="nn" if nn else None, k_neighbors=2)
    {"average": combine_average, "concat": combine_concat}[method](spaces, config)
    assert passes == [8] * len(spaces) * (2 if nn else 1)


class TestCombineConcat:
    def test_blocks_in_source_order(self):
        e1 = EmbeddingSpace(["w"], [[1.0, 0.0]])
        e2 = EmbeddingSpace(["w"], [[0.0, 1.0]])
        meta = combine_concat([e1, e2])
        assert np.array_equal(meta.space.vector("w"), [1.0, 0.0, 0.0, 1.0])

    def test_missing_word_zero_block(self):
        e1 = EmbeddingSpace(["w"], [[1.0, 0.0]])
        e2 = EmbeddingSpace(["v"], [[0.0, 1.0]])
        meta = combine_concat([e1, e2])
        assert np.array_equal(meta.space.vector("w"), [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(meta.space.vector("v"), [0.0, 0.0, 0.0, 1.0])

    def test_cosine_identity_on_shared_words(self, make_space):
        e1 = make_space(n=40, dim=6, seed=85)
        e2 = make_space(n=40, dim=6, seed=86)
        meta = combine_concat([e1, e2])
        rng = np.random.default_rng(87)
        for trial in range(50):
            a, b = rng.choice(e1.tokens, size=2, replace=False)
            lhs = cosine(meta.space.vector(a), meta.space.vector(b))
            mean_cos = (
                cosine(e1.vector(a), e1.vector(b)) + cosine(e2.vector(a), e2.vector(b))
            ) / 2.0
            assert abs(lhs - mean_cos) <= 1e-12

    def test_permuting_sources_permutes_blocks(self, make_space):
        e1 = make_space(n=8, dim=3, seed=88)
        e2 = make_space(n=8, dim=5, seed=89)
        forward = combine_concat([e1, e2])
        backward = combine_concat([e2, e1])
        for token in e1.tokens:
            fv = forward.space.vector(token)
            bv = backward.space.vector(token)
            assert np.array_equal(fv[:3], bv[5:])
            assert np.array_equal(fv[3:], bv[:5])

    def test_mixed_dims_allowed(self, make_space):
        meta = combine_concat([make_space(n=5, dim=2), make_space(n=5, dim=7)])
        assert meta.space.dim == 9

    def test_nn_policy_fills_blocks(self):
        rng = np.random.default_rng(90)
        base = rng.normal(size=(9, 4))
        e1 = EmbeddingSpace([f"w{i}" for i in range(9)], base)
        e2 = EmbeddingSpace(
            [f"w{i}" for i in range(8)], base[:8] + rng.normal(size=(8, 4)) * 0.1
        )
        meta = combine_concat([e1, e2], CombineConfig(method="concat", oov="nn", k_neighbors=3))
        block = meta.space.vector("w8")[4:]
        assert np.linalg.norm(block) > 0.0

    def test_needs_a_source(self):
        for empty in ([], iter([])):
            with pytest.raises(ValueError, match="need at least one source"):
                combine_concat(empty)

    def test_available_policy_rejected(self, make_space):
        space = make_space()
        with pytest.raises(ValueError, match="no 'available'"):
            combine_concat([space, space], CombineConfig(method="concat", oov="available"))


class TestCombineConcatReduce:
    def test_full_rank_reduction_preserves_distances(self, make_space):
        e1 = make_space(n=15, dim=3, seed=91)
        e2 = make_space(n=15, dim=4, seed=92)
        concat = combine_concat([e1, e2])
        config = CombineConfig(method="concat-reduce", reduce_dim=7)
        reduced = combine_concat_reduce([e1, e2], config)
        assert reduced.space.dim == 7
        before = concat.space.matrix
        after = reduced.space.matrix
        dist_before = np.linalg.norm(before[:, None] - before[None, :], axis=2)
        dist_after = np.linalg.norm(after[:, None] - after[None, :], axis=2)
        assert np.max(np.abs(dist_before - dist_after)) <= 1e-8

    def test_shape_contract(self, make_space):
        config = CombineConfig(method="concat-reduce", reduce_dim=2)
        meta = combine_concat_reduce(
            [make_space(n=6, dim=2, seed=93), make_space(n=6, dim=2, seed=94)], config
        )
        assert meta.space.dim == 2

    def test_planted_low_rank_reconstructs(self):
        rng = np.random.default_rng(95)
        tokens = [f"w{i}" for i in range(30)]
        # Source 1 spans two directions, source 2 a single one: the
        # concatenation has rank 3.
        basis = np.linalg.qr(rng.normal(size=(4, 2)))[0]
        m1 = rng.normal(size=(30, 2)) @ basis.T
        direction = rng.normal(size=3)
        m2 = np.abs(rng.uniform(0.5, 2.0, size=30))[:, None] * direction
        e1 = EmbeddingSpace(tokens, m1)
        e2 = EmbeddingSpace(tokens, m2)
        concat = combine_concat([e1, e2]).space
        config = CombineConfig(method="concat-reduce", reduce_dim=3)
        meta = combine_concat_reduce([e1, e2], config)
        from metavec.linalg import fit_reduction

        rmap = fit_reduction(concat, 3)
        reconstructed = meta.space.matrix @ rmap.basis.T + rmap.mean
        assert np.max(np.abs(reconstructed - concat.matrix)) <= 1e-8

    def test_reduce_dim_above_total_rejected(self, make_space):
        config = CombineConfig(method="concat-reduce", reduce_dim=10)
        with pytest.raises(ValueError, match="k must be"):
            combine_concat_reduce([make_space(n=5, dim=2), make_space(n=5, dim=2)], config)

    def test_post_remove_carried_through(self, make_space):
        config = CombineConfig(method="concat-reduce", reduce_dim=3, post_remove=1)
        meta = combine_concat_reduce(
            [make_space(n=20, dim=3, seed=96), make_space(n=20, dim=3, seed=97)], config
        )
        assert meta.provenance["post_remove"] == 1
        assert meta.space.dim == 3


class TestCombineDispatch:
    def test_dispatches_by_method(self, make_space):
        space = make_space(n=10, dim=4, seed=98)
        for method, expected_dim in [
            ("mvm", 4),
            ("average", 4),
            ("concat", 8),
        ]:
            meta = combine([space, space], CombineConfig(method=method))
            assert meta.provenance["method"] == method
            assert meta.space.dim == expected_dim
        config = CombineConfig(method="concat-reduce", reduce_dim=5)
        assert combine([space, space], config).space.dim == 5

    @pytest.mark.parametrize("oov", [None, "nn"])
    @pytest.mark.parametrize(
        "method, combiner",
        [("mvm", combine_mvm), ("average", combine_average), ("concat", combine_concat),
         ("concat-reduce", combine_concat_reduce)],
    )
    def test_a_stream_combines_as_a_list(self, make_space, method, combiner, oov):
        # Vocabularies of 8, 10 and 12 words: the smaller spaces lack words.
        spaces = [make_space(n=8 + 2 * s, dim=4, seed=s, meta=f"s{s}") for s in range(3)]
        reduce_dim = 5 if method == "concat-reduce" else None
        config = CombineConfig(method=method, k_neighbors=2, reduce_dim=reduce_dim, oov=oov)
        listed = combine(spaces, config)
        assert listed.provenance["sources"] == ["s0", "s1", "s2"]
        for streamed in (combine(iter(spaces), config), combiner(iter(spaces), config)):
            assert streamed.space.tokens == listed.space.tokens
            assert streamed.space.matrix.tobytes() == listed.space.matrix.tobytes()
            assert provenance_json(streamed) == provenance_json(listed)

    def test_dictionaries_only_for_mvm(self, make_space):
        space = make_space(n=6, dim=3, seed=99)
        md = MappingDictionary([(space.tokens[0], space.tokens[0])])
        with pytest.raises(ValueError, match="only apply"):
            combine([space, space], CombineConfig(method="average"), dictionaries=[None, md])


class TestProvenanceLayout:
    # Sidecars are compared byte for byte across runs and versions, so the
    # key order is part of the format.
    COMMON = ["method", "sources", "vocabulary", "dim"]
    SYNTHESIS = ["synthesized", "shortfalls", "skipped"]

    def test_key_order_per_method(self, make_space):
        e1 = make_space(n=12, dim=4, seed=100)
        e2 = make_space(n=10, dim=4, seed=101)
        pairs = MappingDictionary([(t, t) for t in e2.tokens[:8]])
        mvm_keys = self.COMMON + [
            "target_index", "oov", "k_neighbors", "dictionary_sizes", "alignment_residuals",
        ]
        cases = [
            (
                combine_mvm(
                    [e1, e2],
                    CombineConfig(method="mvm", k_neighbors=3, language_prefixes=["en:", "de:"]),
                    dictionaries=[None, pairs],
                ),
                mvm_keys + ["language_prefixes"] + self.SYNTHESIS,
            ),
            (
                combine_mvm([e1, e2], CombineConfig(method="mvm", oov="available")),
                mvm_keys,
            ),
            (combine_average([e1, e2]), self.COMMON + ["oov", "k_neighbors"]),
            (
                combine_average(
                    [e1, e2],
                    CombineConfig(method="average", oov="nn", language_prefixes=["x", "y"]),
                ),
                self.COMMON + ["oov", "k_neighbors", "language_prefixes"] + self.SYNTHESIS,
            ),
            (combine_concat([e1, e2]), self.COMMON + ["oov", "k_neighbors", "block_dims"]),
            (
                combine_concat_reduce(
                    [e1, e2], CombineConfig(method="concat-reduce", reduce_dim=3, oov="nn")
                ),
                self.COMMON
                + ["oov", "k_neighbors", "block_dims"]
                + self.SYNTHESIS
                + ["reduce_dim", "post_remove", "concat_dim"],
            ),
        ]
        for meta, keys in cases:
            assert list(meta.provenance) == keys

    def test_mvm_sidecar_bytes(self):
        # One dimension keeps every number exact: rows normalize to +-1 and
        # the map is the identity, so the residual is exactly zero.
        e1 = EmbeddingSpace(["a", "b", "c", "x"], [[1.0], [-1.0], [2.0], [-3.0]], meta="en.vec")
        e2 = EmbeddingSpace(["a", "b", "c", "y"], [[2.0], [-2.0], [1.0], [-1.0]])
        pairs = MappingDictionary([("a", "a"), ("b", "b"), ("c", "c")])
        meta = combine_mvm([e1, e2], CombineConfig(method="mvm", k_neighbors=4), [None, pairs])
        assert provenance_json(meta) == (
            '{\n  "method": "mvm",\n  "sources": [\n    "en.vec",\n    "source-1"\n  ],\n'
            '  "vocabulary": 5,\n  "dim": 1,\n  "target_index": 0,\n  "oov": "nn",\n'
            '  "k_neighbors": 4,\n  "dictionary_sizes": [\n    null,\n    3\n  ],\n'
            '  "alignment_residuals": [\n    null,\n    0.0\n  ],\n'
            '  "synthesized": [\n    1,\n    1\n  ],\n  "shortfalls": 2,\n  "skipped": 0\n}\n'
        )


class TestSynthesisProvenance:
    def test_prefixed_mvm_counts_only_words_that_got_a_vector(self, make_space):
        # Prefixed vocabularies share no token, so no missing word has a
        # neighbor candidate: every one is skipped and none synthesized.
        e1 = make_space(n=12, dim=4, seed=110)
        e2 = make_space(n=10, dim=4, seed=111)
        pairs = MappingDictionary([(t, t) for t in e2.tokens[:8]])
        meta = combine_mvm(
            [e1, e2],
            CombineConfig(method="mvm", k_neighbors=3, language_prefixes=["en:", "de:"]),
            dictionaries=[None, pairs],
        )
        assert meta.provenance["skipped"] == 22
        assert meta.provenance["synthesized"] == [0, 0]
