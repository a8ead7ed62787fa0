"""Property tests for the interchange formats: the text writer byte for byte
against the per-value formatter it replaced and, at full precision, against
``repr``; and parse round trips of both formats, with the parsers' row
blocks shrunk so rows straddle them."""
from unittest.mock import patch

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from metavec import embeddings
from metavec.embeddings import (
    EmbeddingSpace,
    parse_binary_embeddings,
    parse_text_embeddings,
    write_binary_embeddings,
    write_text_embeddings,
)
from oracles import write_text_embeddings as per_value_writer

# Where ``repr`` switches to an exponent (below 1e-4 and from 1e16 in
# magnitude), where orjson does (below 1e-5 and from 1e16), the extremes of
# float64, and subnormals.
BOUNDARIES = [
    0.0, 1e-4, 9.999999999999999e-05, 1.0000000000000002e-04, 1e16, 9999999999999998.0,
    1.0000000000000002e16, 1e22, 1.7976931348623157e308, 2.2250738585072014e-308,
    2.225073858507201e-308, 5e-324, 1e-320, 0.1, 1.0 / 3.0, 123456.789,
    1e-05, 9.999999999999999e-06, 1.0000000000000001e-05, 1.0000000000000003e-05,
]
BOUNDARIES += [-v for v in BOUNDARIES]

magnitudes = st.builds(
    lambda mantissa, exponent, sign: sign * mantissa * 10.0**exponent,
    st.floats(1.0, 9.999),
    st.floats(-320.0, 300.0),
    st.sampled_from([1.0, -1.0]),
)
values = st.one_of(
    st.sampled_from(BOUNDARIES),
    st.floats(allow_nan=False, allow_infinity=False),
    magnitudes,
)


@st.composite
def matrices(draw, elements=values, max_rows=6, max_dim=8):
    rows, dim = draw(st.integers(0, max_rows)), draw(st.integers(1, max_dim))
    flat = draw(st.lists(elements, min_size=rows * dim, max_size=rows * dim))
    return np.array(flat, dtype=np.float64).reshape(rows, dim)


def words(n):
    return [f"w{i}" for i in range(n)]


@pytest.mark.parametrize("precision", range(1, 21))
def test_writer_matches_per_value_formatter_on_boundaries(precision):
    matrix = np.array(BOUNDARIES).reshape(4, -1)
    space = EmbeddingSpace(words(4), matrix)
    assert write_text_embeddings(space, precision) == per_value_writer(space, precision)


def laid_out(matrix, layout):
    """A space holding ``matrix`` in C order, in Fortran order, or as a view
    that strides over every other row or column of a larger array."""
    if layout == "fortran":
        return EmbeddingSpace(words(len(matrix)), np.asfortranarray(matrix))
    if layout == "rows":
        wide = np.zeros((2 * len(matrix), matrix.shape[1]))
        wide[::2] = matrix
        return EmbeddingSpace._own(words(len(matrix)), wide[::2])
    if layout == "columns":
        wide = np.zeros((len(matrix), 2 * matrix.shape[1]))
        wide[:, 1::2] = matrix
        return EmbeddingSpace._own(words(len(matrix)), wide[:, 1::2])
    return EmbeddingSpace(words(len(matrix)), matrix)


LAYOUTS = ["c", "fortran", "rows", "columns"]


@settings(max_examples=300)
@given(matrices(), st.sampled_from(LAYOUTS), st.integers(1, 20), st.integers(1, 200))
def test_writer_matches_per_value_formatter(matrix, layout, precision, block_bytes):
    space = laid_out(matrix, layout)
    assert np.array_equal(space.matrix, matrix)
    with patch.object(embeddings, "_BLOCK_BYTES", block_bytes):
        assert write_text_embeddings(space, precision) == per_value_writer(space, precision)


def test_writer_matches_repr_on_a_seeded_sweep():
    # Random bit patterns (every finite float64 is as likely as any other
    # with its exponent), then log-uniform values across both places where
    # orjson or ``repr`` switches to an exponent.
    rng = np.random.default_rng(2018)
    bits = rng.integers(0, 2**64, size=210_000, dtype=np.uint64).view(np.float64)
    bits = bits[np.isfinite(bits)][:200_000]
    signs = rng.choice([-1.0, 1.0], size=2 * 50_000)
    near = np.concatenate([10.0 ** rng.uniform(-6, -3, 50_000), 10.0 ** rng.uniform(15, 17, 50_000)])
    matrix = np.concatenate([bits, signs * near]).reshape(-1, 300)
    space = EmbeddingSpace(words(len(matrix)), matrix)

    def expected(value):
        text = repr(value)
        return embeddings._positional(value, 17) if "e" in text else text

    lines = [f"{len(space)} 300\n"] + [
        f"{token} {' '.join(map(expected, row.tolist()))}\n"
        for token, row in zip(space.tokens, matrix)
    ]
    assert write_text_embeddings(space) == "".join(lines).encode("ascii")


# Tokens the formats can carry: non-empty, no whitespace (which also rules
# out every line break), and encodable as UTF-8.
tokens = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8
).filter(lambda t: not any(ch.isspace() for ch in t))


@settings(max_examples=150)
@given(st.data(), matrices(), st.booleans(), st.integers(1, 200))
def test_text_round_trip_is_exact(data, matrix, with_header, block_bytes):
    vocabulary = data.draw(
        st.lists(tokens, min_size=len(matrix), max_size=len(matrix), unique=True)
    )
    space = EmbeddingSpace(vocabulary, matrix)
    payload = write_text_embeddings(space)
    if not with_header and len(space):
        payload = payload.split(b"\n", 1)[1]
    with patch.object(embeddings, "_BLOCK_BYTES", block_bytes):
        parsed = parse_text_embeddings(payload)
    assert parsed.tokens == space.tokens
    assert parsed.matrix.shape == matrix.shape
    assert parsed.matrix.tobytes() == space.matrix.tobytes()


single = st.floats(allow_nan=False, allow_infinity=False, width=32)


@settings(max_examples=100)
@given(st.data(), matrices(elements=single), st.integers(1, 200))
def test_binary_round_trip_is_exact(data, matrix, block_bytes):
    vocabulary = data.draw(
        st.lists(tokens, min_size=len(matrix), max_size=len(matrix), unique=True)
    )
    space = EmbeddingSpace(vocabulary, matrix)
    with patch.object(embeddings, "_BLOCK_BYTES", block_bytes):
        parsed = parse_binary_embeddings(write_binary_embeddings(space))
    assert parsed.tokens == space.tokens
    assert parsed.matrix.tobytes() == space.matrix.tobytes()


def test_non_finite_row_is_reported_before_a_later_error():
    # Rows are checked for finiteness per block; an error further on must
    # not hide the first bad row.
    lines = [f"w{i} {i}.5 1.0" for i in range(10)]
    lines[3] = "w3 1e999 1.0"
    lines[8] = "w8 oops 1.0"
    with pytest.raises(embeddings.ParseError, match="non-finite") as exc_info:
        parse_text_embeddings("\n".join(lines).encode())
    assert exc_info.value.line == 4
