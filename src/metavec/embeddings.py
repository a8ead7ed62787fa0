"""Read, write and index word-embedding files in the common text and binary formats."""
from __future__ import annotations

import io
import logging
import os
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np
import orjson

logger = logging.getLogger(__name__)

# Bytes of matrix rows per block: the growth step and finiteness-check span
# of the parsers, and the rows formatted per block by the text writer.
_BLOCK_BYTES = 1 << 20

__all__ = [
    "EmbeddingSpace",
    "ParseError",
    "detect_format",
    "load_embeddings",
    "parse_binary_embeddings",
    "parse_text_embeddings",
    "save_embeddings",
    "write_binary_embeddings",
    "write_text_embeddings",
]


class ParseError(ValueError):
    """Malformed embedding or dictionary input.

    Carries the 1-based ``line`` (text inputs) or 0-based byte ``offset``
    (binary inputs) where parsing failed, when known.
    """

    def __init__(self, message: str, *, line: int | None = None, offset: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        elif offset is not None:
            message = f"byte {offset}: {message}"
        super().__init__(message)
        self.line = line
        self.offset = offset


class EmbeddingSpace:
    """An ordered vocabulary paired with a row-aligned matrix of word vectors.

    Instances are immutable: the matrix is stored as a read-only float64
    array and may be shared freely across threads.
    """

    def __init__(self, tokens: Iterable[str], matrix, meta: str | None = None):
        self._setup(tokens, np.array(matrix, dtype=np.float64), meta)

    @classmethod
    def _own(cls, tokens: Iterable[str], matrix: np.ndarray, meta: str | None = None):
        """Wrap a float64 array without copying it; the array becomes read-only.

        For arrays the library has just made and holds nowhere else, or for
        another space's (already read-only) matrix.
        """
        space = cls.__new__(cls)
        space._setup(tokens, np.asarray(matrix, dtype=np.float64), meta)
        return space

    def _setup(self, tokens: Iterable[str], matrix: np.ndarray, meta: str | None) -> None:
        tokens = tuple(tokens)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {matrix.shape}")
        if matrix.shape[0] != len(tokens):
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows for {len(tokens)} tokens"
            )
        if matrix.shape[1] < 1:
            raise ValueError("vector dimensionality must be at least 1")
        if len(set(tokens)) != len(tokens):
            raise ValueError("tokens must be unique")
        if not np.isfinite(matrix).all():
            raise ValueError("matrix contains non-finite values")
        matrix.setflags(write=False)
        self.tokens = tokens
        self.matrix = matrix
        self.meta = meta
        self._index: dict[str, int] | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def index(self) -> dict[str, int]:
        """Token-to-row lookup, built lazily and cached."""
        if self._index is None:
            self._index = {token: i for i, token in enumerate(self.tokens)}
        return self._index

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def vector(self, token: str) -> np.ndarray:
        """Return the (read-only) vector for ``token``."""
        return self.matrix[self.index[token]]

    def __repr__(self) -> str:
        label = f" meta={self.meta!r}" if self.meta is not None else ""
        return f"<EmbeddingSpace {len(self)} tokens, dim {self.dim}{label}>"


def _binary_stream(source: bytes | bytearray | memoryview | BinaryIO) -> BinaryIO:
    if isinstance(source, (bytes, bytearray, memoryview)):
        return io.BytesIO(bytes(source))
    return source


def _check_parse_options(on_duplicate: str, max_vocab: int | None) -> None:
    if on_duplicate not in ("keep-first", "error"):
        raise ValueError(f"unknown duplicate policy: {on_duplicate!r}")
    if max_vocab is not None and max_vocab < 0:
        raise ValueError(f"max_vocab must be at least 0, got {max_vocab}")


def _parse_header_fields(fields: Sequence[str]) -> tuple[int, int] | None:
    if len(fields) == 2 and all(f.isdecimal() for f in fields):
        return int(fields[0]), int(fields[1])
    return None


class _Rows:
    """A float64 matrix filled one row at a time and checked for finiteness
    one block of rows at a time.

    The matrix grows in place by half (at least a block) when full, and
    ``finish`` cuts it in place to the rows appended. Each row carries a
    mark (a line number, or a token and offset); ``error`` turns the mark of
    the first non-finite row into the exception to raise.
    """

    def __init__(self, dim: int, capacity: int, error: Callable[[object], ParseError]):
        self.matrix = np.empty((capacity, dim))
        self.count = 0
        self.checked = 0
        self.marks: list = []
        self.error = error
        self.block = max(1, _BLOCK_BYTES // (8 * dim))

    def append(self, values, mark) -> None:
        if self.count == len(self.matrix):
            grown = self.count + max(self.block, self.count // 2)
            self.matrix.resize((grown, self.matrix.shape[1]), refcheck=False)
        self.matrix[self.count] = values
        self.count += 1
        self.marks.append(mark)
        if len(self.marks) == self.block:
            self.check()

    def check(self, values=None, mark=None) -> None:
        """Raise for the first non-finite row not yet checked, then for
        ``values``, a row that is read but not appended."""
        pending = self.matrix[self.checked : self.count]
        marks, self.marks, self.checked = self.marks, [], self.count
        if not np.isfinite(pending).all():
            raise self.error(marks[np.flatnonzero(~np.isfinite(pending).all(axis=1))[0]])
        if values is not None and not np.isfinite(values).all():
            raise self.error(mark)

    def finish(self) -> np.ndarray:
        self.check()
        self.matrix.resize((self.count, self.matrix.shape[1]), refcheck=False)
        return self.matrix


def _header_dim_problem(dim: int) -> str | None:
    """Why a header's dimensionality cannot be used, or None: it must be at
    least 1, and a float64 row of it must be indexable."""
    if dim < 1:
        return "header dimensionality must be at least 1"
    if dim > np.iinfo(np.intp).max // 8:
        return "header dimensionality too large"
    return None


def _read_block(rests: list[str], dim: int) -> np.ndarray | None:
    """The values of a block of data lines, each given as the text after
    its token, read in one ``np.loadtxt`` call; None if the block cannot be
    read whole: a token-only line, a field numpy rejects, or a row of
    another length than ``dim``. Those blocks go line by line through
    ``_line_vector``.

    numpy's C tokenizer splits at the characters ``str.isspace`` accepts
    and converts each field with ``PyOS_string_to_double``, the routine
    behind ``float``, so every value has the bits ``float`` gives it.
    """
    # A token-only line would be skipped as empty (all of them, with a
    # "no data" warning), so it never reaches numpy.
    if not all(rests):
        return None
    try:
        values = np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (len(rests), dim) else None


def _line_vector(rest: str, dim: int, lineno: int) -> list[float]:
    """The values of one data line, read with ``float``, which also
    accepts underscores and non-ASCII digits; or the line's error."""
    fields = rest.split()
    if len(fields) != dim:
        raise ParseError(f"expected {dim} values, found {len(fields)}", line=lineno)
    try:
        return list(map(float, fields))
    except ValueError:
        raise ParseError("malformed number", line=lineno) from None


def parse_text_embeddings(
    source: bytes | BinaryIO,
    *,
    expect_header: bool | None = None,
    on_duplicate: str = "keep-first",
    max_vocab: int | None = None,
    meta: str | None = None,
) -> EmbeddingSpace:
    """Parse the text interchange format: optional ``vocab dim`` header,
    then one ``token v1 v2 ... vd`` line per word.

    ``expect_header=None`` auto-detects the header (a first line of exactly
    two integers); ``True`` requires it, ``False`` treats every line as data.
    ``on_duplicate`` is ``"keep-first"`` (drop and count repeats) or
    ``"error"``. ``max_vocab`` caps the number of tokens kept. A UTF-8
    byte-order mark at the start is skipped.

    Each line is split once into its token and the rest; the rests of one
    block of lines are read in one ``np.loadtxt`` call, with the bits
    Python's ``float`` gives each value (see ``_read_block``). Errors
    are those of reading every value with ``float`` as its line arrives,
    at the same lines. The matrix grows as lines arrive; the header's word
    count is never used to size it.
    """
    _check_parse_options(on_duplicate, max_vocab)
    text = io.TextIOWrapper(_binary_stream(source), encoding="utf-8-sig")

    def non_finite(line: int) -> ParseError:
        return ParseError("non-finite value", line=line)

    rows: _Rows | None = None
    header: tuple[int, int] | None = None
    tokens: list[str] = []
    seen: set[str] = set()
    duplicates = 0
    # The data lines read since the last block: (line number, token), and
    # the text after each token.
    pending: list[tuple[int, str]] = []
    rests: list[str] = []

    def flush() -> bool:
        """Take the pending lines in order; False once ``max_vocab`` stops
        the parse."""
        nonlocal duplicates
        dim = rows.matrix.shape[1]
        values = _read_block(rests, dim)
        if values is not None:
            rests.clear()  # the text is not held while the rows are appended
        for i, (lineno, token) in enumerate(pending):
            vector = _line_vector(rests[i], dim, lineno) if values is None else values[i]
            if token in seen:
                rows.check(vector, lineno)
                if on_duplicate == "error":
                    raise ParseError(f"duplicate token {token!r}", line=lineno)
                duplicates += 1
            elif max_vocab is not None and len(tokens) >= max_vocab:
                rows.check(vector, lineno)
                return False
            else:
                seen.add(token)
                tokens.append(token)
                rows.append(vector, lineno)
        pending.clear()
        rests.clear()
        return True

    lineno = 0
    awaiting_header = expect_header is not False
    stopped = False
    bad_bytes: UnicodeDecodeError | None = None
    try:
        try:
            for lineno, line in enumerate(text, start=1):
                parts = line.split(None, 1)
                if not parts:
                    continue
                if awaiting_header:
                    awaiting_header = False
                    header = _parse_header_fields(line.split())
                    if expect_header and header is None:
                        raise ParseError("expected 'vocab dim' header", line=lineno)
                    if header is not None:
                        problem = _header_dim_problem(header[1])
                        if problem is not None:
                            raise ParseError(problem, line=lineno)
                        rows = _Rows(header[1], 0, non_finite)
                        continue
                rest = parts[1] if len(parts) == 2 else ""
                if rows is None:
                    dim = len(rest.split())
                    if dim < 1:
                        raise ParseError("no vector values on first data line", line=lineno)
                    rows = _Rows(dim, 0, non_finite)
                pending.append((lineno, parts[0]))
                rests.append(rest)
                if len(pending) == rows.block and not flush():
                    stopped = True
                    break
        except UnicodeDecodeError as exc:
            bad_bytes = exc
        # The lines read before any bad bytes are taken first, so an error
        # among them, or reaching max_vocab, comes before the bad bytes.
        if pending and not stopped:
            stopped = not flush()
        if bad_bytes is not None and not stopped:
            raise ParseError(f"not valid UTF-8: {bad_bytes}", line=lineno + 1)
    except ParseError:
        # A non-finite row read before the failure is reported first.
        if rows is not None:
            rows.check()
        raise
    finally:
        text.detach()

    if rows is None:
        raise ParseError("empty stream")
    matrix = rows.finish()
    if duplicates:
        logger.warning("dropped %d duplicate token(s), kept first occurrence", duplicates)
    if header is not None and max_vocab is None and len(tokens) + duplicates != header[0]:
        logger.warning(
            "header announces %d words but %d data lines were read",
            header[0], len(tokens) + duplicates,
        )
    return EmbeddingSpace._own(tokens, matrix, meta=meta)


def parse_binary_embeddings(
    source: bytes | BinaryIO,
    *,
    on_duplicate: str = "keep-first",
    max_vocab: int | None = None,
    meta: str | None = None,
) -> EmbeddingSpace:
    """Parse the binary interchange format: ASCII ``vocab dim`` header line,
    then per word a space-terminated token followed by ``dim`` little-endian
    float32 values with no separator after them.

    Newline bytes before a token are tolerated for compatibility with files
    written by the original C tooling; canonical files contain none. The
    matrix is allocated once, for no more words than the bytes after the
    header can hold (each takes at least ``4 * dim + 1``).
    """
    _check_parse_options(on_duplicate, max_vocab)
    data = _binary_stream(source).read()

    nl = data.find(b"\n")
    if nl < 0:
        raise ParseError("missing 'vocab dim' header line", offset=0)
    header = _parse_header_fields(data[:nl].decode("ascii", errors="replace").split())
    if header is None:
        raise ParseError("malformed 'vocab dim' header line", offset=0)
    vocab_size, dim = header
    problem = _header_dim_problem(dim)
    if problem is not None:
        raise ParseError(problem, offset=0)

    vector_bytes = 4 * dim
    # Every word takes at least 4 * dim + 1 bytes, so a header announcing
    # more words than the stream can hold gets only what it can hold, then
    # fails below at the offset where the stream runs out.
    capacity = min(vocab_size, (len(data) - nl - 1) // (vector_bytes + 1))
    if max_vocab is not None:
        capacity = min(capacity, max_vocab)

    def non_finite(mark: tuple[str, int]) -> ParseError:
        return ParseError(f"non-finite value for token {mark[0]!r}", offset=mark[1])

    rows = _Rows(dim, capacity, non_finite)
    tokens: list[str] = []
    seen: set[str] = set()
    duplicates = 0
    pos = nl + 1
    try:
        for _ in range(vocab_size):
            if max_vocab is not None and len(tokens) >= max_vocab:
                break
            while pos < len(data) and data[pos] == 0x0A:
                pos += 1
            sp = data.find(b" ", pos)
            if sp < 0:
                raise ParseError("truncated stream while reading a token", offset=pos)
            try:
                token = data[pos:sp].decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError("token is not valid UTF-8", offset=pos) from None
            start = sp + 1
            if start + vector_bytes > len(data):
                raise ParseError(
                    f"truncated stream while reading the vector for {token!r}", offset=start
                )
            vector = np.frombuffer(data, dtype="<f4", count=dim, offset=start)
            pos = start + vector_bytes
            if token in seen:
                rows.check(vector, (token, start))
                if on_duplicate == "error":
                    raise ParseError(f"duplicate token {token!r}", offset=sp + 1)
                duplicates += 1
                continue
            seen.add(token)
            tokens.append(token)
            rows.append(vector, (token, start))
    except ParseError:
        # A non-finite row read before the failure is reported first.
        rows.check()
        raise
    matrix = rows.finish()

    if duplicates:
        logger.warning("dropped %d duplicate token(s), kept first occurrence", duplicates)
    if max_vocab is None or len(tokens) < max_vocab:
        while pos < len(data) and data[pos] == 0x0A:
            pos += 1
        if pos != len(data):
            raise ParseError(
                f"header announces {vocab_size} words but {len(data) - pos} bytes remain",
                offset=pos,
            )
    return EmbeddingSpace._own(tokens, matrix, meta=meta)


def _check_writable_token(token: str) -> None:
    # ``str.split`` cuts at exactly the characters ``str.isspace`` accepts.
    if token.split() != [token]:
        raise ValueError(
            f"token {token!r} contains whitespace (or is empty) and cannot be"
            " represented in the interchange formats"
        )


def _positional(value, precision: int) -> str:
    return np.format_float_positional(
        value, precision=precision, unique=True, fractional=False, trim="0"
    )


def _header(space: EmbeddingSpace) -> bytes:
    return f"{len(space)} {space.dim}\n".encode("ascii")


def _text_rows(tokens: Sequence[str], block: np.ndarray, precision: int) -> bytes:
    """The text-format lines of one block of rows, ``tokens`` parallel to
    ``block``; ``_text_chunks`` yields these after its header."""
    for token in tokens:
        _check_writable_token(token)
    if precision < 17:
        rows = [" ".join(_positional(v, precision) for v in row).encode("ascii") for row in block]
    else:
        # orjson writes each value's shortest round-trip digits (Ryū), the
        # digits of ``repr``; the values it writes with an exponent (nonzero
        # below 1e-5 or at least 1e16 in magnitude) are rewritten positionally.
        # A 0-row block dumps to b"[]", whose one empty row meets no token.
        dumped = orjson.dumps(np.ascontiguousarray(block), option=orjson.OPT_SERIALIZE_NUMPY)
        rows = dumped[2:-2].replace(b",", b" ").split(b"] [")
        for i, row in enumerate(rows):
            if b"e" in row:
                fields = row.split(b" ")
                for j, field in enumerate(fields):
                    if b"e" in field:
                        fields[j] = _positional(block[i, j], precision).encode("ascii")
                rows[i] = b" ".join(fields)
    return b"".join(
        token.encode("utf-8") + b" " + row + b"\n" for token, row in zip(tokens, rows)
    )


def _text_chunks(space: EmbeddingSpace, precision: int) -> Iterator[bytes]:
    """The text format of ``space``: the header, then one chunk per block
    of rows."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    yield _header(space)
    step = max(1, _BLOCK_BYTES // (8 * space.dim))
    for start in range(0, len(space), step):
        end = start + step
        yield _text_rows(space.tokens[start:end], space.matrix[start:end], precision)


def write_text_embeddings(space: EmbeddingSpace, precision: int = 17) -> bytes:
    """Serialize to the text format with ``precision`` significant digits.

    At the default full precision the emitted values parse back to the
    exact same float64 values. Values are written in positional notation.
    From 17 digits on, each value gets its shortest round-trip digits, the
    bytes ``repr`` writes: orjson formats a block of rows at once (Ryū),
    and only the values it writes with an exponent (nonzero below 1e-5 or
    at least 1e16 in magnitude) go through the positional formatter.
    """
    return b"".join(_text_chunks(space, precision))


def _binary_chunks(space: EmbeddingSpace) -> Iterator[bytes]:
    """The binary format of ``space``: the header, then one chunk per block
    of rows, each narrowed to float32 and checked before it is yielded."""
    yield _header(space)
    step = max(1, _BLOCK_BYTES // (8 * space.dim))
    for start in range(0, len(space), step):
        with np.errstate(over="ignore"):
            narrowed = space.matrix[start : start + step].astype("<f4")
        if not np.isfinite(narrowed).all():
            raise ValueError("matrix contains values outside single-precision range")
        chunk = []
        for token, row in zip(space.tokens[start : start + step], narrowed):
            _check_writable_token(token)
            chunk.append(token.encode("utf-8") + b" " + row.tobytes())
        yield b"".join(chunk)


def write_binary_embeddings(space: EmbeddingSpace) -> bytes:
    """Serialize to the binary format (header, then token + float32 values)."""
    return b"".join(_binary_chunks(space))


def detect_format(path: str | Path) -> str:
    """Infer the on-disk format from the file name: ``.bin`` means binary."""
    return "binary" if Path(path).suffix == ".bin" else "text"


def load_embeddings(path: str | Path, format: str = "auto", **kwargs) -> EmbeddingSpace:
    """Load an embedding file; ``format`` is ``"text"``, ``"binary"`` or ``"auto"``."""
    path = Path(path)
    if format == "auto":
        format = detect_format(path)
    kwargs.setdefault("meta", path.name)
    with open(path, "rb") as stream:
        if format == "binary":
            return parse_binary_embeddings(stream, **kwargs)
        if format == "text":
            return parse_text_embeddings(stream, **kwargs)
    raise ValueError(f"unknown format: {format!r}")


def save_embeddings(
    space: EmbeddingSpace,
    path: str | Path,
    format: str = "auto",
    precision: int = 17,
) -> None:
    """Write an embedding file; ``format`` as in :func:`load_embeddings`.

    The file is streamed block by block into a temporary file next to
    ``path`` and renamed over it when complete, so a failed write leaves
    an existing file as it was.
    """
    path = Path(path)
    if format == "auto":
        format = detect_format(path)
    if format == "binary":
        chunks = _binary_chunks(space)
    elif format == "text":
        chunks = _text_chunks(space, precision)
    else:
        raise ValueError(f"unknown format: {format!r}")
    _commit_outputs([(path, chunks)])


def _commit_outputs(staged: Sequence[tuple[Path, Iterable[bytes]]]) -> None:
    """Write all outputs, or none. Each output's chunks stream into a
    temporary file next to it; only when every temporary file is complete
    are they renamed over their targets. If a rename fails, the targets
    already renamed are removed again.
    """
    temps: list[Path] = []
    renamed: list[Path] = []
    try:
        for index, (path, chunks) in enumerate(staged):
            temps.append(path.with_name(path.name + f".tmp.{os.getpid()}.{index}"))
            with open(temps[-1], "wb") as handle:
                for chunk in chunks:
                    handle.write(chunk)
        for (path, _), tmp in zip(staged, temps):
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException:
        for _, chunks in staged:
            if hasattr(chunks, "close"):  # stops a generator and any workers behind it
                chunks.close()
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        for path in renamed:
            path.unlink(missing_ok=True)
        raise
