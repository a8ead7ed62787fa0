import logging

import numpy as np
import pytest

from metavec.align import (
    MappingDictionary,
    align_to_target,
    build_intersection_dictionary,
    load_bilingual_dictionary,
)
from metavec.embeddings import EmbeddingSpace, ParseError
from metavec.linalg import normalize_step0


def random_orthogonal(dim, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))
    return q


class TestMappingDictionary:
    def test_keeps_order(self):
        md = MappingDictionary([("b", "b"), ("a", "a")])
        assert md.pairs == (("b", "b"), ("a", "a"))
        assert len(md) == 2

    def test_rejects_duplicate_pairs(self):
        with pytest.raises(ValueError, match="duplicate"):
            MappingDictionary([("a", "b"), ("a", "b")])

    def test_allows_multiple_translations(self):
        md = MappingDictionary([("a", "x"), ("a", "y")])
        assert len(md) == 2

    def test_prefixed_puts_each_side_under_its_prefix(self):
        md = MappingDictionary([("b", "x"), ("a", "x")]).prefixed("en/", "de/")
        assert md.pairs == (("en/b", "de/x"), ("en/a", "de/x"))


class TestBuildIntersectionDictionary:
    def test_source_order_intersection(self, make_space):
        source = EmbeddingSpace(["a", "b", "c"], np.eye(3))
        target = EmbeddingSpace(["b", "c", "d"], np.eye(3))
        md = build_intersection_dictionary(source, target)
        assert md.pairs == (("b", "b"), ("c", "c"))

    def test_disjoint_vocabularies_rejected(self):
        source = EmbeddingSpace(["a"], [[1.0]])
        target = EmbeddingSpace(["b"], [[1.0]])
        with pytest.raises(ValueError, match="common vocabulary"):
            build_intersection_dictionary(source, target)

    def test_identical_vocabularies(self, make_space):
        space = make_space(n=12, dim=4)
        md = build_intersection_dictionary(space, space)
        assert [s for s, _ in md] == list(space.tokens)


class TestLoadBilingualDictionary:
    def test_two_pairs(self):
        md = load_bilingual_dictionary(b"dog\tperro\ncat\tgato\n")
        assert md.pairs == (("dog", "perro"), ("cat", "gato"))

    def test_three_fields_rejected_with_line(self):
        with pytest.raises(ParseError, match="line 2") as exc_info:
            load_bilingual_dictionary(b"dog\tperro\ncat\tgato\textra\n")
        assert exc_info.value.line == 2

    def test_single_field_rejected(self):
        with pytest.raises(ParseError, match="field"):
            load_bilingual_dictionary(b"dog perro\n")

    def test_empty_token_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            load_bilingual_dictionary(b"\tperro\n")

    def test_byte_order_mark_is_skipped(self):
        md = load_bilingual_dictionary("\ufeffdog\tperro\ncat\tgato\n".encode())
        assert md.pairs == (("dog", "perro"), ("cat", "gato"))

    def test_whitespace_around_fields_is_stripped(self):
        md = load_bilingual_dictionary(b"a\tx \n b \t\xc2\xa0y\n")
        assert md.pairs == (("a", "x"), ("b", "y"))

    @pytest.mark.parametrize("line", [b"dog\tel perro\n", b"el perro\tdog\n", b"a\x0bb\tc\n"])
    def test_whitespace_inside_a_field_rejected_with_line(self, line):
        with pytest.raises(ParseError, match="whitespace") as exc_info:
            load_bilingual_dictionary(b"cat\tgato\n" + line)
        assert exc_info.value.line == 2

    def test_invalid_utf8_reports_its_line(self):
        with pytest.raises(ParseError, match="line 4: not valid UTF-8") as exc_info:
            load_bilingual_dictionary(b"a\tb\n" * 3 + b"c\t\xff\n")
        assert exc_info.value.line == 4

    def test_blank_lines_and_crlf_tolerated(self):
        md = load_bilingual_dictionary(b"dog\tperro\r\n\ncat\tgato\n")
        assert len(md) == 2

    def test_exact_duplicates_dropped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="metavec.align"):
            md = load_bilingual_dictionary(b"dog\tperro\ndog\tperro\n")
        assert len(md) == 1
        assert any("duplicate" in r.getMessage() for r in caplog.records)


class TestAlignToTarget:
    def test_self_alignment_reaches_target(self, make_space):
        space = make_space(n=30, dim=6, seed=20)
        aligned = align_to_target([space, space])
        assert np.allclose(aligned.mapped[1].matrix, aligned.target.matrix, atol=1e-8)
        info = aligned.infos[1]
        assert info.dictionary_size == 30
        assert info.residual < 1e-8

    def test_self_alignment_moves_no_row(self, make_space):
        space = make_space(n=25, dim=5, seed=21)
        aligned = align_to_target([space, space])
        normalized = normalize_step0(space)
        shifts = np.linalg.norm(aligned.mapped[1].matrix - normalized.matrix, axis=1)
        assert shifts.max() <= 1e-6

    def test_planted_rotation_recovered(self, make_space):
        space = make_space(n=40, dim=8, seed=22)
        q = random_orthogonal(8, seed=23)
        rotated = EmbeddingSpace(space.tokens, space.matrix @ q)
        aligned = align_to_target([space, rotated])
        assert np.allclose(aligned.mapped[1].matrix, aligned.target.matrix, atol=1e-6)

    def test_gram_matrices_preserved(self, make_space):
        target = make_space(n=25, dim=5, seed=24, prefix="t")
        rng = np.random.default_rng(25)
        tokens = list(target.tokens[:15]) + [f"x{i}" for i in range(10)]
        other = EmbeddingSpace(tokens, rng.normal(size=(25, 5)))
        aligned = align_to_target([target, other])
        before = normalize_step0(other).matrix
        after = aligned.mapped[1].matrix
        gram_before = before @ before.T
        gram_after = after @ after.T
        assert np.max(np.abs(gram_before - gram_after)) <= 1e-8

    def test_sources_align_independently(self, make_space):
        target = make_space(n=20, dim=4, seed=26, prefix="t")
        s1 = make_space(n=20, dim=4, seed=27, prefix="t")
        s2 = make_space(n=20, dim=4, seed=28, prefix="t")
        both = align_to_target([target, s1, s2])
        swapped = align_to_target([target, s2, s1])
        assert np.array_equal(both.mapped[2].matrix, swapped.mapped[1].matrix)
        assert np.array_equal(both.mapped[1].matrix, swapped.mapped[2].matrix)

    def test_nonzero_target_index(self, make_space):
        a = make_space(n=15, dim=3, seed=29, prefix="t")
        b = make_space(n=15, dim=3, seed=30, prefix="t")
        aligned = align_to_target([a, b], target_index=1)
        assert aligned.target is aligned.mapped[1]
        assert np.array_equal(aligned.target.matrix, normalize_step0(b).matrix)

    def test_bilingual_dictionary_alignment(self, make_space):
        # Disjoint vocabularies, same geometry up to a planted rotation.
        base = np.random.default_rng(31).normal(size=(30, 6))
        target = EmbeddingSpace([f"en_{i}" for i in range(30)], base)
        q = random_orthogonal(6, seed=32)
        source = EmbeddingSpace([f"es_{i}" for i in range(30)], base @ q)
        pairs = MappingDictionary([(f"es_{i}", f"en_{i}") for i in range(20)])
        aligned = align_to_target([target, source], dictionaries=[None, pairs])
        assert np.allclose(aligned.mapped[1].matrix, aligned.target.matrix, atol=1e-6)

    def test_absent_pairs_filtered_and_counted(self, make_space, caplog):
        a = make_space(n=10, dim=3, seed=33, prefix="t")
        b = make_space(n=10, dim=3, seed=34, prefix="t")
        pairs = [(t, t) for t in a.tokens[:5]] + [("ghost", "ghost")]
        with caplog.at_level(logging.WARNING, logger="metavec.align"):
            aligned = align_to_target(
                [a, b], dictionaries=[None, MappingDictionary(pairs)]
            )
        assert aligned.infos[1].filtered_pairs == 1
        assert aligned.infos[1].dictionary_size == 5
        assert any("filtered 1" in r.getMessage() for r in caplog.records)

    def test_fully_absent_dictionary_rejected(self, make_space):
        a = make_space(n=5, dim=3, seed=35, prefix="a")
        b = make_space(n=5, dim=3, seed=36, prefix="a")
        ghost = MappingDictionary([("nope", "nope")])
        with pytest.raises(ValueError, match="no usable"):
            align_to_target([a, b], dictionaries=[None, ghost])

    def test_disjoint_vocabularies_need_a_dictionary(self, make_space):
        a = make_space(n=5, dim=3, seed=37, prefix="a")
        b = make_space(n=5, dim=3, seed=38, prefix="b")
        with pytest.raises(ValueError, match="common vocabulary"):
            align_to_target([a, b])

    def test_dim_mismatch_rejected(self, make_space):
        with pytest.raises(ValueError, match="dim"):
            align_to_target([make_space(n=5, dim=3), make_space(n=5, dim=4)])

    def test_target_index_out_of_range(self, make_space):
        with pytest.raises(ValueError, match="out of range"):
            align_to_target([make_space()], target_index=1)

    def test_dictionaries_must_be_parallel(self, make_space):
        space = make_space(n=5, dim=3)
        with pytest.raises(ValueError, match="parallel"):
            align_to_target([space, space], dictionaries=[None])
