"""Read, write and index word-embedding files in the common text and binary formats."""
from __future__ import annotations

import codecs
import io
import logging
import os
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np
import orjson

logger = logging.getLogger(__name__)

# Bytes of float64 matrix rows per block (``_block_rows``): the parsers'
# growth step and finiteness-check span, the rows each output encodes at a
# time, and the rows normalized, placed or averaged at a time; also the
# size of the binary parser's read buffer.
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

    Instances are immutable: the matrix is stored as a read-only array and
    may be shared freely across threads. It is float64, or float32 holding
    exactly the values read from a binary file (``parse_binary_embeddings``),
    at half the bytes. Every computation reads it in float64, widened one
    block or one gathered set of rows at a time (``_rows64``); the widening
    is exact, so a binary file gives the bits its float64 copy gives.
    ``vector`` returns float64.
    """

    def __init__(self, tokens: Iterable[str], matrix, meta: str | None = None):
        self._setup(tokens, np.array(matrix, dtype=np.float64), meta)

    @classmethod
    def _own(
        cls,
        tokens: Iterable[str],
        matrix: np.ndarray,
        meta: str | None = None,
        *,
        checked: bool = False,
    ):
        """Wrap a float32 or float64 array without copying it; the array
        becomes read-only. Other dtypes are converted to float64.

        For arrays the library has just made and holds nowhere else, or for
        another space's (already read-only) matrix. ``checked`` says that
        the caller found every value finite and the tokens unique already,
        as the parsers do.
        """
        if matrix.dtype != np.float32:
            matrix = np.asarray(matrix, dtype=np.float64)
        space = cls.__new__(cls)
        space._setup(tokens, matrix, meta, checked, unique=checked)
        return space

    def _with_matrix(self, matrix: np.ndarray, *, checked: bool = False) -> EmbeddingSpace:
        """This space's tokens and meta over a float64 ``matrix`` the
        library has just made, wrapped as ``_own`` wraps it. The token tuple
        and the cached index are shared: the tokens are known unique, so
        only the matrix is checked."""
        space = EmbeddingSpace.__new__(EmbeddingSpace)
        space._setup(self.tokens, matrix, self.meta, checked, unique=True)
        space._index = self._index
        return space

    def _setup(
        self, tokens: Iterable[str], matrix: np.ndarray, meta: str | None,
        checked: bool = False, unique: bool = False,
    ) -> None:
        tokens = tuple(tokens)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {matrix.shape}")
        if matrix.shape[0] != len(tokens):
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows for {len(tokens)} tokens"
            )
        if matrix.shape[1] < 1:
            raise ValueError("vector dimensionality must be at least 1")
        if not unique and len(set(tokens)) != len(tokens):
            raise ValueError("tokens must be unique")
        if not checked:
            # One block at a time, so the check's bool temporary stays small.
            step = _block_rows(matrix.shape[1])
            for start in range(0, len(matrix), step):
                if not np.isfinite(matrix[start : start + step]).all():
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
        """Return a float64 copy of the vector for ``token``."""
        return _rows64(self.matrix, self.index[token])

    def __repr__(self) -> str:
        label = f" meta={self.meta!r}" if self.meta is not None else ""
        return f"<EmbeddingSpace {len(self)} tokens, dim {self.dim}{label}>"


# ``fill(out, start, stop)`` writes rows ``start:stop`` of an output into ``out``.
# A fill made on a fixed grid (``linalg._grid_fill``) has the grid's rows
# per block as its ``step``, and takes only runs that start and stop
# between its blocks or at its last row.
_Fill = Callable[[np.ndarray, int, int], None]


def _block_rows(values_per_row: int, block_bytes: int | None = None) -> int:
    """Rows per block: as many rows of ``values_per_row`` float64 values as
    fit in ``block_bytes`` (``_BLOCK_BYTES`` when None), and at least one."""
    return max(1, (block_bytes or _BLOCK_BYTES) // (8 * max(1, values_per_row)))


def _rows64(matrix: np.ndarray, rows=slice(None), *, copy: bool = True) -> np.ndarray:
    """``matrix[rows]`` in float64: a block (a slice), a gather (an index
    array) or one row. Every computation reads a space's matrix through
    here, so that a float32 matrix is widened, exactly, only as far as one
    read goes. Float32 arithmetic happens in one place only: neighbor
    ranking scores float32 unit rows in tiles (``oov._rank``) and
    certifies their order with float64 cosines taken from here.

    The result is a new array the caller may write, except with
    ``copy=False``, where a block of a float64 matrix is the matrix's own
    (read-only) view. A gather is never copied twice.
    """
    picked = matrix[rows]
    return picked.astype(np.float64, copy=copy and not picked.flags.owndata)


def _filled(
    tokens: Sequence[str], dim: int, rows: np.ndarray | _Fill, meta: str | None
) -> EmbeddingSpace:
    """The space of ``tokens`` and their ``rows``, as ``_chunks`` takes
    them: a matrix, or a fill, here filled whole into one matrix."""
    if not isinstance(rows, np.ndarray):
        fill, rows = rows, np.empty((len(tokens), dim))
        fill(rows, 0, len(tokens))
    return EmbeddingSpace._own(tokens, rows, meta=meta)


def _binary_stream(source: bytes | bytearray | memoryview | BinaryIO) -> BinaryIO:
    if isinstance(source, (bytes, bytearray, memoryview)):
        return io.BytesIO(bytes(source))
    return source


_surrogateescape = codecs.lookup_error("surrogateescape")
# How often ``_escape`` has run in this process.
_escapes = 0


def _escape(exc: UnicodeError) -> tuple[str, int]:
    """Python's "surrogateescape" decoding of bytes that are not UTF-8,
    counted in ``_escapes``."""
    global _escapes
    _escapes += 1
    return _surrogateescape(exc)


codecs.register_error("metavec-escape", _escape)


def _text_lines(stream: BinaryIO) -> Iterator[str]:
    """The lines of a UTF-8 byte stream, read by ``io.TextIOWrapper`` with
    a leading byte-order mark skipped. A line that is not valid UTF-8
    raises the ``UnicodeDecodeError`` of its bytes, without the line break,
    after every line before it, so callers that count the lines they got
    know its line number.

    The wrapper decodes chunks of many lines, and a strict decoder would
    raise before any line of the chunk is read. Bad bytes are decoded to
    lone surrogates instead (``_escape``), and only once some were decoded
    is a line that is not ASCII encoded back and decoded strictly. The
    caller closes the generator, which detaches the wrapper from
    ``stream``.
    """
    text = io.TextIOWrapper(stream, encoding="utf-8-sig", errors="metavec-escape")
    escapes = _escapes
    try:
        for line in text:
            if _escapes != escapes and not line.isascii():
                line.rstrip("\n").encode("utf-8", "surrogateescape").decode("utf-8")
            yield line
    finally:
        text.detach()


def _numbered_lines(stream: BinaryIO) -> Iterator[tuple[int, str]]:
    """Each line of a UTF-8 byte stream (``_text_lines``) with its 1-based
    number. A line that is not valid UTF-8 raises ``ParseError`` at its
    number, after every line before it. The caller closes the generator,
    which detaches the reader from ``stream``.
    """
    text = _text_lines(stream)
    lineno = 0
    try:
        for lineno, line in enumerate(text, start=1):
            yield lineno, line
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}", line=lineno + 1) from None
    finally:
        text.close()


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
    """The one place that decides which parsed rows are kept.

    ``add`` keeps the first row of each token in a matrix of ``dtype``. A
    repeat is dropped and counted, or raised under ``on_duplicate="error"``;
    once ``max_vocab`` rows are kept (``full``), a row of a new token ends
    the parse. A row that is not kept is checked for finiteness at once,
    kept rows one block at a time (``check``, also called before any later
    error is raised). Each row's mark is the ``at`` (``"line"`` or
    ``"offset"``) of its errors; a non-finite row raises ``non_finite``
    formatted with its token. The matrix grows in place by half (at least a
    block) when full, and ``finish`` cuts it in place to the rows kept.
    """

    def __init__(
        self, dim: int, capacity: int, on_duplicate: str, max_vocab: int | None,
        at: str, non_finite: str, dtype: type = np.float64,
    ):
        self.matrix = np.empty((capacity, dim), dtype=dtype)
        self.tokens: list[str] = []
        self.seen: set[str] = set()
        self.duplicates = 0
        self.marks: list[int] = []
        self.on_duplicate = on_duplicate
        self.max_vocab = max_vocab
        self.at = at
        self.non_finite = non_finite
        # Sized as if a row held at least 32 values: a narrow row's pending
        # line or mark outweighs its values.
        self.block = _block_rows(max(dim, 32))

    @property
    def full(self) -> bool:
        return self.max_vocab is not None and len(self.tokens) >= self.max_vocab

    def add(self, token: str, values, mark: int) -> bool:
        """Take one parsed row; False if it ends the parse."""
        if token in self.seen:
            self.check(token, values, mark)
            if self.on_duplicate == "error":
                raise ParseError(f"duplicate token {token!r}", **{self.at: mark})
            self.duplicates += 1
            return True
        if self.full:
            self.check(token, values, mark)
            return False
        count = len(self.tokens)
        if count == len(self.matrix):
            grown = count + max(self.block, count // 2)
            self.matrix.resize((grown, self.matrix.shape[1]), refcheck=False)
        self.matrix[count] = values
        self.seen.add(token)
        self.tokens.append(token)
        self.marks.append(mark)
        if len(self.marks) == self.block:
            self.check()
        return True

    def check(self, token: str | None = None, values=None, mark: int | None = None) -> None:
        """Raise for the first non-finite kept row not yet checked, then
        for ``values``, the row of ``token`` that is read but not kept."""
        first = len(self.tokens) - len(self.marks)
        pending = self.matrix[first : len(self.tokens)]
        marks, self.marks = self.marks, []
        if not np.isfinite(pending).all():
            bad = np.flatnonzero(~np.isfinite(pending).all(axis=1))[0]
            token, mark = self.tokens[first + bad], marks[bad]
        elif values is None or np.isfinite(values).all():
            return
        raise ParseError(self.non_finite.format(token), **{self.at: mark})

    def finish(self) -> np.ndarray:
        """The matrix cut to the rows kept, once they are all checked. The
        set of tokens seen is freed, and the repeats dropped are logged."""
        self.check()
        del self.seen
        if self.duplicates:
            logger.warning("dropped %d duplicate token(s), kept first occurrence", self.duplicates)
        self.matrix.resize((len(self.tokens), self.matrix.shape[1]), refcheck=False)
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
    text = _text_lines(_binary_stream(source))
    rows: _Rows | None = None
    header: tuple[int, int] | None = None

    def intake(dim: int) -> _Rows:
        return _Rows(dim, 0, on_duplicate, max_vocab, at="line", non_finite="non-finite value")

    # The data lines read since the last block: (line number, token), and
    # the text after each token.
    pending: list[tuple[int, str]] = []
    rests: list[str] = []

    def flush() -> bool:
        """Add the pending lines in order; False once one ends the parse."""
        dim = rows.matrix.shape[1]
        values = _read_block(rests, dim)
        if values is not None:
            rests.clear()  # the text is not held while the rows are added
        for i, (lineno, token) in enumerate(pending):
            vector = _line_vector(rests[i], dim, lineno) if values is None else values[i]
            if not rows.add(token, vector, lineno):
                return False
        pending.clear()
        rests.clear()
        return True

    lineno = 0
    awaiting_header = expect_header is not False
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
                        rows = intake(header[1])
                        continue
                rest = parts[1] if len(parts) == 2 else ""
                if rows is None:
                    dim = len(rest.split())
                    if dim < 1:
                        raise ParseError("no vector values on first data line", line=lineno)
                    rows = intake(dim)
                pending.append((lineno, parts[0]))
                rests.append(rest)
                if len(pending) == rows.block and not flush():
                    break
            else:
                if pending:
                    flush()
        except UnicodeDecodeError as exc:
            # The lines read before the bad bytes are taken first, so an error
            # among them, or reaching max_vocab, comes before the bad bytes.
            if not pending or flush():
                raise ParseError(f"not valid UTF-8: {exc}", line=lineno + 1) from None
    except ParseError:
        # A non-finite row read before the failure is reported first.
        if rows is not None:
            rows.check()
        raise
    finally:
        text.close()

    if rows is None:
        raise ParseError("empty stream")
    matrix = rows.finish()
    read = len(rows.tokens) + rows.duplicates
    if header is not None and max_vocab is None and read != header[0]:
        logger.warning("header announces %d words but %d data lines were read", header[0], read)
    return EmbeddingSpace._own(rows.tokens, matrix, meta=meta, checked=True)


def _bytes_left(stream: BinaryIO) -> int:
    """The bytes between a seekable stream's position and its end; 0 for a
    stream that cannot say."""
    try:
        if not stream.seekable():
            return 0
        here = stream.tell()
        end = stream.seek(0, io.SEEK_END)
        stream.seek(here)
    except (AttributeError, OSError):
        return 0
    return max(0, end - here)


class _Held:
    """A binary stream's bytes from offset ``base`` on: ``data[:size]``,
    read into one reused buffer with ``readinto``."""

    def __init__(self, stream: BinaryIO):
        self.stream = stream
        self.data = bytearray()
        self.base = 0
        self.size = 0
        # A stream that can tell its length never gets a longer buffer,
        # save one byte to see its end: a short file is not given a block.
        left = _bytes_left(stream)
        self.most = left + 1 if left else None

    def more(self, keep: int) -> bool:
        """Drop the bytes before offset ``keep``, move the rest to the
        front and read the next block after it; False at the end of the
        stream. The buffer is a block, and twice the bytes kept once they
        pass half of it, so every read adds at least half a block or as
        many bytes as are kept, and a long token or vector is read in
        linear time."""
        start = keep - self.base
        rest = self.size - start
        size = max(len(self.data), _BLOCK_BYTES, 2 * rest)
        if self.most is not None:
            size = max(rest + 1, min(size, self.most))
        data = self.data if len(self.data) >= size else bytearray(size)
        memoryview(data)[:rest] = memoryview(self.data)[start : self.size]
        read = self.stream.readinto(memoryview(data)[rest:]) or 0
        self.data, self.base, self.size = data, keep, rest + read
        return read > 0

    def find(self, byte: bytes, pos: int) -> int:
        """The offset of the first ``byte`` held from offset ``pos`` on, or -1."""
        i = self.data.find(byte, pos - self.base, self.size)
        return i if i < 0 else self.base + i

    def past_newlines(self, pos: int) -> int:
        """The offset of the first byte from offset ``pos`` on that is not
        a newline, reading blocks as needed (the end of the stream if none
        is)."""
        while True:
            i = pos - self.base
            while i < self.size and self.data[i] == 0x0A:
                i += 1
            pos = self.base + i
            if i < self.size or not self.more(pos):
                return pos


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
    stream is read into one reused buffer, a block at a time, and error
    offsets count from where it was read. Each vector is copied from the
    buffer into a float32 matrix, which keeps the file's values exactly at
    half the bytes of float64 (see ``EmbeddingSpace``). The matrix is
    allocated once, for no more words than the bytes after the header can
    hold (each takes at least ``4 * dim + 1``), when the stream can tell
    its length; otherwise it grows as words arrive.
    """
    _check_parse_options(on_duplicate, max_vocab)
    held = _Held(_binary_stream(source))
    while (nl := held.find(b"\n", 0)) < 0 and held.more(0):
        pass
    if nl < 0:
        raise ParseError("missing 'vocab dim' header line", offset=0)
    header = _parse_header_fields(held.data[:nl].decode("ascii", errors="replace").split())
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
    left = held.size - nl - 1 + _bytes_left(held.stream)
    capacity = min(vocab_size, left // (vector_bytes + 1))
    if max_vocab is not None:
        capacity = min(capacity, max_vocab)

    rows = _Rows(
        dim, capacity, on_duplicate, max_vocab, at="offset",
        non_finite="non-finite value for token {!r}", dtype=np.float32,
    )
    pos = nl + 1
    try:
        for _ in range(vocab_size):
            if rows.full:
                break
            if pos - held.base == held.size or held.data[pos - held.base] == 0x0A:
                pos = held.past_newlines(pos)
            # A word is read once the bytes held cover it, or the stream ends.
            sp = held.find(b" ", pos)
            while (sp < 0 or sp + 1 + vector_bytes > held.base + held.size) and held.more(pos):
                sp = held.find(b" ", pos)
            if sp < 0:
                raise ParseError("truncated stream while reading a token", offset=pos)
            try:
                token = held.data[pos - held.base : sp - held.base].decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError("token is not valid UTF-8", offset=pos) from None
            start = sp + 1
            if start + vector_bytes > held.base + held.size:
                raise ParseError(
                    f"truncated stream while reading the vector for {token!r}", offset=start
                )
            # A view of the buffer, copied into the matrix before the next read.
            vector = np.frombuffer(held.data, dtype="<f4", count=dim, offset=start - held.base)
            pos = start + vector_bytes
            rows.add(token, vector, start)
    except ParseError:
        # A non-finite row read before the failure is reported first.
        rows.check()
        raise
    matrix = rows.finish()

    if not rows.full:
        pos = held.past_newlines(pos)
        if pos - held.base < held.size:
            remaining = held.size - (pos - held.base)
            while read := held.stream.readinto(held.data):
                remaining += read
            raise ParseError(
                f"header announces {vocab_size} words but {remaining} bytes remain",
                offset=pos,
            )
    return EmbeddingSpace._own(rows.tokens, matrix, meta=meta, checked=True)


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


def _text_rows(tokens: Sequence[str], block: np.ndarray, precision: int) -> bytes:
    """The text-format lines of one block of rows, ``tokens`` parallel to
    ``block``."""
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


def _binary_rows(tokens: Sequence[str], block: np.ndarray) -> bytes:
    """The binary-format records of one block of rows, narrowed to float32.
    The first row with a value outside float32 range fails after the
    tokens before it are checked, so the error names the first problem in
    row order, whatever the block size."""
    with np.errstate(over="ignore"):
        narrowed = block.astype("<f4")
    bad = np.flatnonzero(~np.isfinite(narrowed).all(axis=1))
    chunk = []
    for token, row in zip(tokens[: bad[0] if len(bad) else len(tokens)], narrowed):
        _check_writable_token(token)
        chunk.append(token.encode("utf-8") + b" " + row.tobytes())
    if len(bad):
        raise ValueError("matrix contains values outside single-precision range")
    return b"".join(chunk)


def _chunks(
    tokens: Sequence[str],
    dim: int,
    rows: np.ndarray | _Fill,
    format: str,
    precision: int = 17,
    parts: int = 1,
    map: Callable = map,
) -> Iterator[bytes]:
    """The ``format`` file of ``tokens`` and their rows: the header, then
    one chunk per block of rows.

    ``rows`` is a space's matrix, whose blocks are read in float64
    (``_rows64``; views of a float64 matrix), or a
    ``fill(out, start, stop)`` that writes each block into a new buffer,
    checked for finiteness as a space's matrix is. The blocks are as many
    as a multiple of ``parts``, so that ``parts`` workers finish together,
    and of about ``_block_rows(dim)`` rows each: equal, except that a fill
    with a ``step`` is cut only between blocks of its grid, the only runs
    it takes (``linalg._grid_fill``), so that no grid block is made by two
    workers. This is the one place that cuts a fill into runs; every
    other caller fills whole. ``map(encode, range(blocks))``
    yields the blocks' chunks in order: the builtin, or worker processes
    that make and encode the blocks themselves.
    """
    if format == "text" and precision < 1:
        raise ValueError("precision must be at least 1")
    yield f"{len(tokens)} {dim}\n".encode("ascii")
    count = -(-len(tokens) // _block_rows(dim))
    count = min(len(tokens), -(-count // parts) * parts)
    step = getattr(rows, "step", 1)
    grid = -(-len(tokens) // step)
    bounds = [min(len(tokens), grid * i // max(1, count) * step) for i in range(count + 1)]

    def encode(i: int) -> bytes:
        start, stop = bounds[i], bounds[i + 1]
        if isinstance(rows, np.ndarray):
            # A float32 block is widened first: orjson and the positional
            # formatter would write the float32 value's shortest digits.
            block = _rows64(rows, slice(start, stop), copy=False)
        else:
            block = np.empty((stop - start, dim))
            rows(block, start, stop)
            if not np.isfinite(block).all():
                raise ValueError("matrix contains non-finite values")
        if format == "text":
            return _text_rows(tokens[start:stop], block, precision)
        return _binary_rows(tokens[start:stop], block)

    yield from map(encode, range(count))


def write_text_embeddings(space: EmbeddingSpace, precision: int = 17) -> bytes:
    """Serialize to the text format with ``precision`` significant digits.

    At the default full precision the emitted values parse back to the
    exact same float64 values. Values are written in positional notation.
    From 17 digits on, each value gets its shortest round-trip digits, the
    bytes ``repr`` writes: orjson formats a block of rows at once (Ryū),
    and only the values it writes with an exponent (nonzero below 1e-5 or
    at least 1e16 in magnitude) go through the positional formatter.
    """
    return b"".join(_chunks(space.tokens, space.dim, space.matrix, "text", precision))


def write_binary_embeddings(space: EmbeddingSpace) -> bytes:
    """Serialize to the binary format (header, then token + float32 values)."""
    return b"".join(_chunks(space.tokens, space.dim, space.matrix, "binary"))


def detect_format(path: str | Path) -> str:
    """Infer the on-disk format from the file name: ``.bin`` means binary."""
    return "binary" if Path(path).suffix == ".bin" else "text"


def load_embeddings(path: str | Path, format: str = "auto", **kwargs) -> EmbeddingSpace:
    """Load an embedding file; ``format`` is ``"text"``, ``"binary"`` or ``"auto"``."""
    path = Path(path)
    if format == "auto":
        format = detect_format(path)
    if format not in ("text", "binary"):
        raise ValueError(f"unknown format: {format!r}")
    kwargs.setdefault("meta", path.name)
    parse = parse_binary_embeddings if format == "binary" else parse_text_embeddings
    with open(path, "rb") as stream:
        return parse(stream, **kwargs)


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
    if format not in ("text", "binary"):
        raise ValueError(f"unknown format: {format!r}")
    _commit_outputs([(path, _chunks(space.tokens, space.dim, space.matrix, format, precision))])


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
