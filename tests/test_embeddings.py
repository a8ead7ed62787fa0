import io
import logging
import sys

import numpy as np
import pytest

from metavec import embeddings
from metavec.embeddings import (
    EmbeddingSpace,
    ParseError,
    detect_format,
    load_embeddings,
    parse_binary_embeddings,
    parse_text_embeddings,
    save_embeddings,
    write_binary_embeddings,
    write_text_embeddings,
)
from conftest import traced_peak


def space_with_awkward_values():
    tokens = ["alpha", "beta", "naïve", "枝"]
    matrix = np.array(
        [
            [0.1, -1.0 / 3.0, 1e-17],
            [12345.678, -0.0, 2.0 / 7.0],
            [1.0, -1.0, 0.5],
            [1e-30, 3.141592653589793, -2.718281828459045],
        ]
    )
    return EmbeddingSpace(tokens, matrix)


class TestEmbeddingSpace:
    def test_basic_accessors(self):
        space = EmbeddingSpace(["a", "b"], np.eye(2), meta="toy")
        assert len(space) == 2
        assert space.dim == 2
        assert "a" in space and "c" not in space
        assert space.meta == "toy"
        assert np.array_equal(space.vector("b"), [0.0, 1.0])
        assert space.index == {"a": 0, "b": 1}

    def test_matrix_is_read_only(self):
        space = EmbeddingSpace(["a"], [[1.0, 2.0]])
        with pytest.raises(ValueError):
            space.matrix[0, 0] = 9.0

    def test_rejects_duplicate_tokens(self):
        with pytest.raises(ValueError, match="unique"):
            EmbeddingSpace(["a", "a"], np.eye(2))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            EmbeddingSpace(["a"], np.eye(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            EmbeddingSpace(["a"], [[np.nan, 1.0]])

    def test_rejects_non_finite_in_a_later_block(self, monkeypatch):
        # Two rows per block; the NaN is in the third block.
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 8 * 2 * 2)
        matrix = np.ones((5, 2))
        matrix[4, 1] = np.inf
        with pytest.raises(ValueError, match="matrix contains non-finite values"):
            EmbeddingSpace._own([f"w{i}" for i in range(5)], matrix)

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError, match="dimensionality"):
            EmbeddingSpace(["a"], np.empty((1, 0)))

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            EmbeddingSpace(["a"], [1.0, 2.0])

    def test_empty_vocabulary_allowed(self):
        space = EmbeddingSpace([], np.empty((0, 4)))
        assert len(space) == 0 and space.dim == 4


class TestTextFormat:
    def test_known_serialization_at_precision_one(self):
        space = EmbeddingSpace(["a", "b"], np.eye(2))
        assert write_text_embeddings(space, precision=1) == b"2 2\na 1.0 0.0\nb 0.0 1.0\n"

    def test_round_trip_is_exact_at_full_precision(self):
        space = space_with_awkward_values()
        parsed = parse_text_embeddings(write_text_embeddings(space))
        assert parsed.tokens == space.tokens
        assert np.array_equal(parsed.matrix, space.matrix)

    def test_round_trip_random_values(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            matrix = rng.normal(size=(30, 8)) * 10.0 ** rng.integers(-12, 12)
            space = EmbeddingSpace([f"t{i}" for i in range(30)], matrix)
            parsed = parse_text_embeddings(write_text_embeddings(space))
            assert np.array_equal(parsed.matrix, space.matrix)

    def test_header_is_optional_on_parse(self):
        body = b"a 1.0 2.0\nb 3.0 4.0\n"
        with_header = parse_text_embeddings(b"2 2\n" + body)
        without = parse_text_embeddings(body)
        assert with_header.tokens == without.tokens == ("a", "b")
        assert np.array_equal(with_header.matrix, without.matrix)

    def test_expect_header_true_requires_one(self):
        with pytest.raises(ParseError, match="header"):
            parse_text_embeddings(b"a 1.0 2.0\n", expect_header=True)

    def test_expect_header_false_reads_all_lines_as_data(self):
        # A two-token vocabulary of single-component vectors that happens to
        # look like a header line.
        space = parse_text_embeddings(b"2 1\na 3.0\n", expect_header=False)
        assert space.tokens == ("2", "a")

    def test_header_needs_decimal_digits(self):
        # "²" is a digit to ``str.isdigit`` but no number to ``int``: the
        # line is data. Arabic-Indic digits are decimal and make a header.
        space = parse_text_embeddings("² 3\na 4\n".encode())
        assert space.tokens == ("²", "a")
        assert space.matrix.tolist() == [[3.0], [4.0]]
        space = parse_text_embeddings("٢ ٣\na 1 2 3\nb 4 5 6\n".encode())
        assert space.tokens == ("a", "b")
        assert space.dim == 3

    def test_blank_lines_are_skipped(self):
        space = parse_text_embeddings(b"\na 1.0\n\nb 2.0\n\n")
        assert space.tokens == ("a", "b")

    def test_dimension_mismatch_reports_line(self):
        with pytest.raises(ParseError, match="line 3") as exc_info:
            parse_text_embeddings(b"a 1.0 2.0\nb 1.0 2.0\nc 1.0\n")
        assert exc_info.value.line == 3

    def test_header_dimension_is_authoritative(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_text_embeddings(b"1 3\na 1.0 2.0\n")

    def test_malformed_number_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_text_embeddings(b"a 1.0\nb x\n")

    def test_non_finite_value_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_text_embeddings(b"a nan\n")
        with pytest.raises(ParseError, match="finite"):
            parse_text_embeddings(b"a 1.0\nb -inf\n")

    def test_empty_stream_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            parse_text_embeddings(b"")
        with pytest.raises(ParseError, match="empty"):
            parse_text_embeddings(b"\n\n")

    def test_duplicates_keep_first_and_warn(self, caplog):
        data = b"a 1.0\nb 2.0\na 3.0\na 4.0\n"
        with caplog.at_level(logging.WARNING, logger="metavec.embeddings"):
            space = parse_text_embeddings(data)
        assert space.tokens == ("a", "b")
        assert space.vector("a")[0] == 1.0
        dup_records = [r for r in caplog.records if "duplicate" in r.getMessage()]
        assert len(dup_records) == 1
        assert "2" in dup_records[0].getMessage()

    def test_duplicates_can_be_errors(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_text_embeddings(b"a 1.0\nb 2.0\na 3.0\n", on_duplicate="error")

    def test_max_vocab_caps_result(self):
        data = b"a 1.0\nb 2.0\nc 3.0\n"
        space = parse_text_embeddings(data, max_vocab=2)
        assert space.tokens == ("a", "b")

    def test_header_count_mismatch_is_tolerated_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="metavec.embeddings"):
            space = parse_text_embeddings(b"3 2\na 1.0 2.0\nb 3.0 4.0\n")
        assert len(space) == 2
        assert any("announces" in r.getMessage() for r in caplog.records)

    def test_invalid_utf8_rejected(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_text_embeddings(b"a 1.0\n\xff\xfe 2.0\n")

    @pytest.mark.parametrize("before", [10, 2000])
    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_invalid_utf8_reports_its_line(self, before, end):
        # The decoder's chunks hold many lines; the error names the line.
        payload = b"".join(b"w%d 1.0" % i + end for i in range(before)) + b"b \xff" + end
        with pytest.raises(ParseError, match="not valid UTF-8") as exc_info:
            parse_text_embeddings(payload)
        assert exc_info.value.line == before + 1
        assert "byte 0xff in position 2" in str(exc_info.value)

    def test_accepts_file_objects(self):
        space = parse_text_embeddings(io.BytesIO(b"a 1.0 2.0\n"))
        assert space.tokens == ("a",)

    def test_byte_order_mark_is_skipped(self):
        space = parse_text_embeddings("\ufeffthe 1 2\nof 3 4\n".encode())
        assert space.tokens == ("the", "of")
        # Before a header it no longer turns the header into a data line.
        space = parse_text_embeddings("\ufeff2 2\nthe 1 2\nof 3 4\n".encode())
        assert space.tokens == ("the", "of")
        assert space.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_byte_order_mark_is_only_skipped_at_the_start(self):
        space = parse_text_embeddings("a 1\n\ufeffb 2\n".encode())
        assert space.tokens == ("a", "\ufeffb")

    @pytest.mark.parametrize("dim", [2**60, 10**30])
    def test_header_dimension_too_large_for_a_row(self, dim):
        # A float64 row of 2**60 values is 2**63 bytes, one more than numpy
        # can index.
        with pytest.raises(ParseError, match="too large") as exc_info:
            parse_text_embeddings(f"3 {dim}\na 1 2\n".encode())
        assert exc_info.value.line == 1
        assert str(exc_info.value) == "line 1: header dimensionality too large"

    def test_largest_indexable_header_dimension_reads_the_lines(self):
        with pytest.raises(ParseError, match="expected 1152921504606846975 values") as exc_info:
            parse_text_embeddings(b"3 1152921504606846975\na 1 2\n")
        assert exc_info.value.line == 2

    def test_values_outside_the_block_reader_use_float(self):
        # numpy rejects underscores and non-ASCII digits; ``float`` takes both.
        space = parse_text_embeddings("a 1_0 ٣\nb 2 3\n".encode())
        assert space.matrix.tolist() == [[10.0, 3.0], [2.0, 3.0]]

    def test_hash_is_not_a_comment(self):
        with pytest.raises(ParseError, match="line 2: expected 2 values, found 3"):
            parse_text_embeddings(b"a 1 2\nb 3 4 #5\n")

    def test_write_rejects_unrepresentable_tokens(self):
        with pytest.raises(ValueError, match="whitespace"):
            write_text_embeddings(EmbeddingSpace(["a b"], [[1.0]]))
        with pytest.raises(ValueError, match="whitespace"):
            write_text_embeddings(EmbeddingSpace([""], [[1.0]]))
        with pytest.raises(ValueError, match="whitespace"):
            write_binary_embeddings(EmbeddingSpace(["a\nb"], [[1.0]]))

    @pytest.mark.parametrize("writer", [write_text_embeddings, write_binary_embeddings])
    def test_write_rejects_every_whitespace_character(self, writer):
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        assert len(spaces) > 20
        for ch in spaces:
            with pytest.raises(ValueError, match="whitespace"):
                writer(EmbeddingSpace(["ok", f"a{ch}b"], [[1.0], [2.0]]))

    def test_write_rejects_bad_precision(self):
        with pytest.raises(ValueError, match="precision"):
            write_text_embeddings(EmbeddingSpace(["a"], [[1.0]]), precision=0)


class TestBinaryFormat:
    def test_round_trip_narrows_to_float32(self):
        space = space_with_awkward_values()
        parsed = parse_binary_embeddings(write_binary_embeddings(space))
        assert parsed.tokens == space.tokens
        # The matrix keeps the file's float32 values; vectors are float64.
        assert parsed.matrix.dtype == np.float32
        assert parsed.matrix.tobytes() == space.matrix.astype("<f4").tobytes()
        expected = space.matrix.astype(np.float32).astype(np.float64)
        for token, row in zip(space.tokens, expected):
            assert parsed.vector(token).dtype == np.float64
            assert parsed.vector(token).tobytes() == row.tobytes()

    def test_layout_is_exactly_header_token_floats(self):
        space = EmbeddingSpace(["ab"], [[1.0, -2.0]])
        payload = write_binary_embeddings(space)
        expected = b"1 2\nab " + np.array([1.0, -2.0], dtype="<f4").tobytes()
        assert payload == expected

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_binary_embeddings(b"no newline here")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_binary_embeddings(b"2 x\nabc")

    @pytest.mark.parametrize("dim", [2**60, 10**30])
    def test_header_dimension_too_large_for_a_row(self, dim):
        with pytest.raises(ParseError, match="too large") as exc_info:
            parse_binary_embeddings(f"3 {dim}\na ".encode() + bytes(8))
        assert exc_info.value.offset == 0
        assert str(exc_info.value) == "byte 0: header dimensionality too large"

    def test_truncated_vector_reports_offset(self):
        space = EmbeddingSpace(["ab"], [[1.0, -2.0]])
        payload = write_binary_embeddings(space)
        with pytest.raises(ParseError, match="truncated") as exc_info:
            parse_binary_embeddings(payload[:-3])
        assert exc_info.value.offset == 7

    def test_truncated_token_reports_offset(self):
        with pytest.raises(ParseError, match="truncated"):
            parse_binary_embeddings(b"1 2\nab")

    def test_trailing_bytes_rejected(self):
        space = EmbeddingSpace(["ab"], [[1.0, -2.0]])
        payload = write_binary_embeddings(space) + b"junk"
        with pytest.raises(ParseError, match="remain"):
            parse_binary_embeddings(payload)

    def test_trailing_newline_tolerated(self):
        space = EmbeddingSpace(["ab"], [[1.0, -2.0]])
        parsed = parse_binary_embeddings(write_binary_embeddings(space) + b"\n")
        assert parsed.tokens == ("ab",)

    def test_newline_before_token_tolerated(self):
        # Files from the original C tool separate entries with a newline.
        vec = np.array([1.0, 2.0], dtype="<f4").tobytes()
        payload = b"2 2\na " + vec + b"\nb " + vec
        parsed = parse_binary_embeddings(payload)
        assert parsed.tokens == ("a", "b")

    def test_non_finite_rejected(self):
        payload = b"1 1\na " + np.array([np.inf], dtype="<f4").tobytes()
        with pytest.raises(ParseError, match="finite"):
            parse_binary_embeddings(payload)

    def test_duplicates_keep_first_and_warn(self, caplog):
        vec1 = np.array([1.0], dtype="<f4").tobytes()
        vec2 = np.array([2.0], dtype="<f4").tobytes()
        payload = b"2 1\na " + vec1 + b"a " + vec2
        with caplog.at_level(logging.WARNING, logger="metavec.embeddings"):
            parsed = parse_binary_embeddings(payload)
        assert parsed.tokens == ("a",)
        assert parsed.matrix[0, 0] == 1.0
        assert any("duplicate" in r.getMessage() for r in caplog.records)

    def test_duplicates_can_be_errors(self):
        vec = np.array([1.0], dtype="<f4").tobytes()
        with pytest.raises(ParseError, match="duplicate"):
            parse_binary_embeddings(b"2 1\na " + vec + b"a " + vec, on_duplicate="error")

    def test_max_vocab_caps_result(self):
        vec = np.array([1.0], dtype="<f4").tobytes()
        payload = b"3 1\na " + vec + b"b " + vec + b"c " + vec
        parsed = parse_binary_embeddings(payload, max_vocab=2)
        assert parsed.tokens == ("a", "b")

    def test_write_rejects_values_outside_float32_range(self):
        with pytest.raises(ValueError, match="single-precision"):
            write_binary_embeddings(EmbeddingSpace(["a"], [[1e308]]))

    @pytest.mark.parametrize("block_bytes", [None, 8 * 2])
    def test_write_reports_the_first_problem_in_row_order(self, monkeypatch, block_bytes):
        # The bad token comes one row before the value that overflows
        # float32, with both rows in one block or one row per block.
        if block_bytes is not None:
            monkeypatch.setattr(embeddings, "_BLOCK_BYTES", block_bytes)
        space = EmbeddingSpace(["bad token", "b"], [[1.0, 0.0], [1e300, 0.0]])
        with pytest.raises(ValueError, match="whitespace"):
            write_binary_embeddings(space)
        space = EmbeddingSpace(["a", "bad token"], [[1e300, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="single-precision"):
            write_binary_embeddings(space)

    def test_utf8_tokens_survive(self):
        space = EmbeddingSpace(["naïve", "枝"], np.eye(2))
        parsed = parse_binary_embeddings(write_binary_embeddings(space))
        assert parsed.tokens == ("naïve", "枝")


_THREE_WORDS = EmbeddingSpace(["a", "b", "c"], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


@pytest.mark.parametrize(
    "parse, payload",
    [
        (parse_text_embeddings, write_text_embeddings(_THREE_WORDS)),
        (parse_binary_embeddings, write_binary_embeddings(_THREE_WORDS)),
    ],
    ids=["text", "binary"],
)
class TestMaxVocab:
    def test_zero_gives_an_empty_space(self, parse, payload):
        space = parse(payload, max_vocab=0)
        assert space.tokens == ()
        assert space.matrix.shape == (0, 2)

    def test_one_keeps_the_first_word(self, parse, payload):
        space = parse(payload, max_vocab=1)
        assert space.tokens == ("a",)
        assert space.matrix.tolist() == [[1.0, 2.0]]

    def test_negative_is_rejected(self, parse, payload):
        with pytest.raises(ValueError, match="max_vocab must be at least 0, got -1"):
            parse(payload, max_vocab=-1)


class TestPathHelpers:
    def test_detect_format(self):
        assert detect_format("vectors.bin") == "binary"
        assert detect_format("vectors.txt") == "text"
        assert detect_format("vectors.vec") == "text"

    def test_save_and_load_by_extension(self, tmp_path, make_space):
        space = make_space(n=6, dim=3, seed=1)
        text_path = tmp_path / "vectors.txt"
        bin_path = tmp_path / "vectors.bin"
        save_embeddings(space, text_path)
        save_embeddings(space, bin_path)
        assert np.array_equal(load_embeddings(text_path).matrix, space.matrix)
        narrowed = space.matrix.astype(np.float32).astype(np.float64)
        assert np.array_equal(load_embeddings(bin_path).matrix, narrowed)

    def test_explicit_format_overrides_extension(self, tmp_path, make_space):
        space = make_space(n=4, dim=2, seed=2)
        path = tmp_path / "vectors.dat"
        save_embeddings(space, path, format="binary")
        loaded = load_embeddings(path, format="binary")
        assert loaded.tokens == space.tokens

    def test_load_rejects_an_unknown_format_before_opening(self, tmp_path, monkeypatch):
        with pytest.raises(ValueError, match="unknown format: 'bogus'"):
            load_embeddings(tmp_path / "missing.vec", format="bogus")

        def refuse(*args, **kwargs):
            raise AssertionError("the file was opened")

        path = tmp_path / "toy.vec"
        path.write_bytes(b"a 1.0\n")
        monkeypatch.setattr(embeddings, "open", refuse, raising=False)
        with pytest.raises(ValueError, match="unknown format: 'bogus'"):
            load_embeddings(path, format="bogus")

    def test_load_sets_meta_to_file_name(self, tmp_path, make_space):
        path = tmp_path / "toy.txt"
        save_embeddings(make_space(n=3, dim=2), path)
        assert load_embeddings(path).meta == "toy.txt"

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_save_writes_the_writer_bytes(self, tmp_path, monkeypatch, fmt):
        space = space_with_awkward_values()
        # One row per chunk.
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 8 * space.dim)
        path = tmp_path / "out.vec"
        save_embeddings(space, path, format=fmt)
        write = write_text_embeddings if fmt == "text" else write_binary_embeddings
        assert path.read_bytes() == write(space)

    def test_save_holds_one_block_not_the_whole_file(self, tmp_path, monkeypatch, make_space):
        space = make_space(n=4000, dim=50, seed=3)
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 64 << 10)
        path = tmp_path / "big.vec"
        _, peak = traced_peak(save_embeddings, space, path)
        assert peak < path.stat().st_size / 4

    @pytest.mark.parametrize(
        "fmt, token, value, error",
        [("text", "bad token", 1.0, "whitespace"), ("binary", "big", 1e300, "single-precision")],
    )
    def test_failed_save_keeps_the_existing_file(
        self, tmp_path, monkeypatch, fmt, token, value, error
    ):
        # One row per chunk, so the good rows reach the temporary file first.
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 8 * 2)
        space = EmbeddingSpace(["a", "b", token], [[1.0, 2.0], [3.0, 4.0], [value, 0.0]])
        path = tmp_path / "out.vec"
        path.write_bytes(b"kept\n")
        with pytest.raises(ValueError, match=error):
            save_embeddings(space, path, format=fmt)
        assert path.read_bytes() == b"kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.vec"]
