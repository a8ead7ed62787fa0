"""Memory of the parsers and of space construction: tracemalloc peaks
against the bytes of the matrix a parser returns, hostile headers, and
which constructions copy their matrix."""
import sys

import numpy as np
import pytest

from metavec import embeddings
from metavec.embeddings import (
    EmbeddingSpace,
    ParseError,
    load_embeddings,
    parse_binary_embeddings,
    parse_text_embeddings,
    write_binary_embeddings,
    write_text_embeddings,
)
from conftest import traced_peak

ROWS, DIM = 2000, 100
# What a binary parse holds besides its matrix and its read buffer: the
# tokens, the set of tokens seen and the byte offsets of one block of rows
# (about 0.40 MB here). A float64 matrix would add 0.8 MB over the float32 one.
BINARY_EXTRA = 600_000


@pytest.fixture(scope="module")
def space():
    rng = np.random.default_rng(7)
    return EmbeddingSpace([f"word{i}" for i in range(ROWS)], rng.normal(size=(ROWS, DIM)))


def test_text_parse_peak_is_bounded(space, tmp_path):
    path = tmp_path / "e.vec"
    path.write_bytes(write_text_embeddings(space, precision=7))
    parsed, peak = traced_peak(load_embeddings, path)
    assert len(parsed) == ROWS
    assert peak <= 2.5 * parsed.matrix.nbytes
    # The grown buffer is cut to the rows read, not kept alive behind a view.
    assert parsed.matrix.flags.owndata


def test_binary_load_reads_the_file_in_blocks(space, tmp_path, monkeypatch):
    # Reading the whole 0.8 MB file first took 2.9 MB with a float64
    # matrix; now a 0.8 MB float32 matrix and one 64 KiB buffer.
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 64 << 10)
    path = tmp_path / "e.bin"
    path.write_bytes(write_binary_embeddings(space))
    parsed, peak = traced_peak(load_embeddings, path)
    assert parsed.matrix.dtype == np.float32
    assert parsed.matrix.tobytes() == space.matrix.astype("<f4").tobytes()
    assert peak <= ROWS * DIM * 4 + (64 << 10) + BINARY_EXTRA


def test_binary_parse_hashes_its_tokens_once(monkeypatch):
    # 200k one-value words, so the tokens outweigh the matrix. The parse
    # holds the token strings, their list and the space's tuple, and one
    # set of them (half as much again while the set grows); the space is
    # built after that set is freed, without hashing the tokens again.
    # Hashing them again held a second set: 36 MB here, against 23.5 MB.
    # 64 KiB blocks keep one block's offsets and the read buffer within the
    # 1 MiB allowed beside them.
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 64 << 10)
    tokens = [f"w{i}" for i in range(200_000)]
    payload = write_binary_embeddings(EmbeddingSpace._own(tokens, np.zeros((len(tokens), 1))))
    parsed, peak = traced_peak(parse_binary_embeddings, payload)
    assert parsed.tokens == tuple(tokens)
    strings = sum(map(sys.getsizeof, parsed.tokens))
    held = strings + 2 * sys.getsizeof(tokens) + 1.5 * sys.getsizeof(set(tokens))
    assert peak <= held + parsed.matrix.nbytes + (1 << 20)


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_narrow_rows_are_checked_in_small_batches(fmt):
    # 100k one-value words at the default block size. A batch of rows is
    # sized as if each held 32 values (4096 rows), so the pending lines or
    # marks of one batch stay small beside the tokens, the set of tokens
    # seen (half as much again while it grows) and the matrix. Batches of
    # 131072 rows, a float64 matrix's 1 MiB of one-value rows, held every
    # pending line: the text parse peaked at 24.1 MB against this bound of
    # 15.2, the binary one at 16.0 against 15.9; batches of 4096 rows peak
    # at 12.6 and 12.7 MB.
    tokens = [f"w{i}" for i in range(100_000)]
    space = EmbeddingSpace._own(tokens, np.random.default_rng(3).normal(size=(len(tokens), 1)))
    text = fmt == "text"
    payload = write_text_embeddings(space, precision=7) if text else write_binary_embeddings(space)
    parse = parse_text_embeddings if text else parse_binary_embeddings
    # The binary parser also holds its read buffer, one block.
    buffer = 0 if text else embeddings._BLOCK_BYTES
    parsed, peak = traced_peak(parse, payload)
    assert parsed.tokens == tuple(tokens)
    strings = sum(map(sys.getsizeof, parsed.tokens))
    held = strings + 2 * sys.getsizeof(tokens) + 1.5 * sys.getsizeof(set(tokens))
    assert peak <= held + parsed.matrix.nbytes + buffer + (1 << 20)


def test_text_parse_ignores_header_count_when_sizing(space, caplog):
    payload = write_text_embeddings(space, precision=7)
    lying = f"{100 * ROWS} {DIM}".encode() + payload[payload.index(b"\n"):]
    parsed, peak = traced_peak(parse_text_embeddings, lying)
    assert len(parsed) == ROWS
    assert peak <= 2.5 * parsed.matrix.nbytes
    assert any("header announces" in r.getMessage() for r in caplog.records)


def test_binary_parse_peak_is_bounded(space):
    # The input bytes are allocated before tracing starts. The read buffer
    # is one block, or the whole input when it is shorter (0.8 MB here).
    payload = write_binary_embeddings(space)
    parsed, peak = traced_peak(parse_binary_embeddings, payload)
    assert len(parsed) == ROWS
    assert parsed.matrix.dtype == np.float32
    assert peak <= ROWS * DIM * 4 + min(len(payload) + 1, 1 << 20) + BINARY_EXTRA


@pytest.mark.parametrize(
    "header, offset",
    # 10^12 words: the stream ends where the second token should start.
    # 10^6 dims: it ends inside the first vector, which starts at byte 18.
    [(b"1000000000000 300\n", 1220), (b"1000000 1000000\n", 18)],
)
def test_binary_oversized_header_fails_without_allocating(header, offset):
    payload = header + b"a " + bytes(4 * 300)

    def parse():
        with pytest.raises(ParseError, match="truncated") as exc_info:
            parse_binary_embeddings(payload)
        return exc_info

    exc_info, peak = traced_peak(parse)
    assert exc_info.value.offset == offset
    assert peak < 1 << 20


def test_public_constructor_copies_the_callers_array():
    matrix = np.ones((2, 3))
    space = EmbeddingSpace(["a", "b"], matrix)
    assert not np.shares_memory(space.matrix, matrix)
    assert matrix.flags.writeable
    matrix[0, 0] = 5.0
    assert space.matrix[0, 0] == 1.0


def test_internal_path_takes_the_array_over():
    matrix = np.ones((2, 3))
    space = EmbeddingSpace._own(["a", "b"], matrix)
    assert space.matrix is matrix
    assert not matrix.flags.writeable
    with pytest.raises(ValueError, match="non-finite"):
        EmbeddingSpace._own(["a"], np.array([[np.nan]]))


def test_finiteness_check_holds_one_block(monkeypatch):
    # 100 rows of 20000 values: a whole-matrix check made a bool copy of
    # 2 MB; one 64 KiB block of rows (its bool copy 8 KiB) at a time now.
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 64 << 10)
    matrix = np.ones((100, 20000))
    tokens = [f"w{i}" for i in range(100)]
    space, peak = traced_peak(EmbeddingSpace._own, tokens, matrix)
    assert space.matrix is matrix
    assert peak < matrix.nbytes / 64
