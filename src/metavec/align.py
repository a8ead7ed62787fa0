"""Mapping dictionaries and projection of many embedding spaces into one common space."""
from __future__ import annotations

import contextlib
import io
import logging
from collections import deque
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from metavec.embeddings import EmbeddingSpace, ParseError, _Fill, _numbered_lines, _rows64
from metavec.linalg import OrthogonalMap, _grid_fill, _procrustes, _residual, _Step0

logger = logging.getLogger(__name__)

__all__ = [
    "AlignedCollection",
    "AlignmentInfo",
    "MappingDictionary",
    "align_to_target",
    "build_intersection_dictionary",
    "load_bilingual_dictionary",
]


class MappingDictionary:
    """An ordered list of (source-token, target-token) pairs.

    Monolingual dictionaries pair a token with itself. A source token may
    map to several targets (and vice versa); only exact duplicate pairs are
    rejected. Membership in actual spaces is checked at alignment time,
    where absent pairs are filtered out.
    """

    def __init__(self, pairs: Iterable[tuple[str, str]]):
        pairs = tuple((str(s), str(t)) for s, t in pairs)
        if len(set(pairs)) != len(pairs):
            raise ValueError("duplicate pairs in mapping dictionary")
        self.pairs = pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __repr__(self) -> str:
        return f"<MappingDictionary {len(self)} pairs>"

    def prefixed(self, source_prefix: str, target_prefix: str) -> MappingDictionary:
        """The same pairs with each side under its language prefix."""
        return MappingDictionary((source_prefix + s, target_prefix + t) for s, t in self)


@dataclass(frozen=True)
class AlignmentInfo:
    """Per-source report: how many dictionary pairs were used and how well they fit."""

    dictionary_size: int
    filtered_pairs: int
    residual: float


class AlignedCollection:
    """Spaces expressed in one common coordinate system.

    ``mapped`` is parallel to the input sources (the target slot holds the
    normalized target itself); ``maps`` holds the orthogonal map applied to
    each slot (identity for the target); ``infos`` holds an AlignmentInfo
    per non-target slot and None for the target.
    """

    def __init__(
        self,
        target: EmbeddingSpace,
        mapped: Sequence[EmbeddingSpace],
        maps: Sequence[OrthogonalMap],
        infos: Sequence[AlignmentInfo | None],
    ):
        if not (len(mapped) == len(maps) == len(infos)):
            raise ValueError("mapped, maps and infos must be parallel")
        for space in mapped:
            if space.dim != target.dim:
                raise ValueError("all mapped spaces must share the target's dim")
        self.target = target
        self.mapped = tuple(mapped)
        self.maps = tuple(maps)
        self.infos = tuple(infos)

    def __len__(self) -> int:
        return len(self.mapped)


def build_intersection_dictionary(
    source: EmbeddingSpace, target: EmbeddingSpace
) -> MappingDictionary:
    """Pair every token present in both vocabularies with itself, in
    source-vocabulary order."""
    target_index = target.index
    pairs = [(t, t) for t in source.tokens if t in target_index]
    if not pairs:
        raise ValueError(
            "vocabularies share no tokens; mapping needs some common vocabulary"
        )
    return MappingDictionary(pairs)


def load_bilingual_dictionary(source: bytes | BinaryIO) -> MappingDictionary:
    """Parse a dictionary file: UTF-8, one ``source TAB target`` pair per line.

    A byte-order mark at the start is skipped, and whitespace around each
    field is stripped; a field with whitespace inside is an error, since no
    token can hold it.
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        source = io.BytesIO(bytes(source))
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    duplicates = 0
    with contextlib.closing(_numbered_lines(source)) as lines:
        for lineno, line in lines:
            line = line.rstrip("\r\n")
            if not line:
                continue
            fields = [field.strip() for field in line.split("\t")]
            if len(fields) != 2 or not fields[0] or not fields[1]:
                raise ParseError(
                    f"expected 'source<TAB>target', got {len(fields)} field(s)",
                    line=lineno,
                )
            for field in fields:
                if len(field.split()) != 1:
                    raise ParseError(f"token {field!r} contains whitespace", line=lineno)
            pair = (fields[0], fields[1])
            if pair in seen:
                duplicates += 1
                continue
            seen.add(pair)
            pairs.append(pair)
    if duplicates:
        logger.warning("dropped %d duplicate dictionary pair(s)", duplicates)
    return MappingDictionary(pairs)


def _anchors(
    source: EmbeddingSpace, target: EmbeddingSpace, dictionary: MappingDictionary | None
) -> tuple[np.ndarray, np.ndarray, int]:
    """The source's and the target's rows of each usable dictionary pair,
    as two index arrays in dictionary order, and the count of pairs left
    out because a space lacks a token. Without a dictionary every token of
    both spaces pairs with itself, in source order
    (``build_intersection_dictionary``)."""
    if dictionary is None:
        targets = np.fromiter(
            (target.index.get(t, -1) for t in source.tokens), np.intp, len(source)
        )
        sources = np.flatnonzero(targets >= 0)
        if not len(sources):
            raise ValueError(
                "vocabularies share no tokens; mapping needs some common vocabulary"
            )
        return sources, targets[sources], 0
    count = len(dictionary)
    sources = np.fromiter((source.index.get(s, -1) for s, _ in dictionary), np.intp, count)
    targets = np.fromiter((target.index.get(t, -1) for _, t in dictionary), np.intp, count)
    kept = np.flatnonzero((sources >= 0) & (targets >= 0))
    filtered = count - len(kept)
    if filtered:
        logger.warning(
            "filtered %d dictionary pair(s) absent from the spaces", filtered
        )
    if not len(kept):
        raise ValueError("no usable dictionary pairs between source and target")
    return sources[kept], targets[kept], filtered


class _Source(NamedTuple):
    """A source as alignment leaves it: its space as it arrived, what its
    normalized rows are read from through ``_rows64`` (``normalized``: the
    statistics of its normalization, ``linalg._Step0``, or a normalized
    matrix), its map onto the target's normalized rows and the fit's report
    (both None for the target). Its aligned rows are its normalized rows
    times ``omap.matrix``, or the target's normalized rows; for a source
    held with its ``_Step0``, ``fill`` makes them and ``aligned`` all."""

    space: EmbeddingSpace
    normalized: _Step0 | np.ndarray
    omap: OrthogonalMap | None
    info: AlignmentInfo | None

    def fill(self) -> _Fill:
        """A fill of the aligned rows, one product per block of rows in
        source order (``linalg._grid_fill``)."""
        step0, count, dim = self.normalized, *self.space.matrix.shape
        if self.omap is None:
            return _grid_fill(step0.rows, count, dim)
        w = self.omap.matrix
        return _grid_fill(lambda at, out: np.matmul(step0.rows(at), w, out=out), count, dim)

    def aligned(self) -> EmbeddingSpace:
        """The space of all the aligned rows."""
        matrix = np.empty(self.space.matrix.shape)
        self.fill()(matrix, 0, len(matrix))
        return self.space._with_matrix(matrix, checked=True)


def _fit_one(
    source: EmbeddingSpace, step0: _Step0, target: _Source, dictionary: MappingDictionary | None
) -> _Source:
    """Fit a raw source, normalized by its ``step0``, onto the target's
    normalized rows. Its normalized anchor rows are made one block at a
    time for the sums of x'z over blocks of anchor pairs, and again for
    the residual, mapped by one product per block. Every product runs at
    one BLAS thread, so the bits do not depend on the thread count."""
    sources, targets, filtered = _anchors(source, target.space, dictionary)

    def target_rows(at):
        return _rows64(target.normalized, targets[at], copy=False)

    omap = _procrustes(lambda at: step0.rows(sources[at]), target_rows, len(sources), source.dim)
    residual = _residual(
        lambda at: step0.rows(sources[at]) @ omap.matrix, target_rows, len(sources), source.dim
    )
    info = AlignmentInfo(
        dictionary_size=len(sources), filtered_pairs=filtered, residual=residual
    )
    return _Source(source, step0, omap, info)


def _fitted(
    sources: Iterable[EmbeddingSpace],
    target_index: int = 0,
    dictionaries: Sequence[MappingDictionary | None] | None = None,
    *,
    normalize_target: bool = False,
) -> Iterator[_Source]:
    """Each source in order as alignment leaves it (``_Source``), given as
    soon as it is fitted: the sources before the target when the target
    arrives, every later one as it arrives. Each is held as it arrived,
    with the statistics of its normalization (``linalg._Step0``), and
    no name here keeps it once it is given, apart from the target; with
    ``normalize_target``, the target is held as its normalized space
    instead, made when it arrives. Dims and the dictionaries' count are
    checked as the spaces arrive; each fit is ``align_to_target``'s.
    """
    if target_index < 0:
        raise ValueError(f"target_index {target_index} out of range")
    waiting: deque = deque()  # (space, statistics) of sources not yet fitted
    target = None
    count = 0
    for space in sources:
        if count and space.dim != dim:
            raise ValueError(f"sources must share one dim, got {sorted({dim, space.dim})}")
        if dictionaries is not None and count == len(dictionaries):
            raise ValueError("dictionaries must be parallel to sources")
        dim = space.dim
        waiting.append((space, _Step0(space.matrix)))
        count += 1
        del space
        if target is None and count > target_index:
            target = _Source(*waiting.pop(), None, None)
            if normalize_target:
                space = target.aligned()
                target = _Source(space, space.matrix, None, None)
                del space
            waiting.append(None)  # the target's place
        while target is not None and waiting:
            i = count - len(waiting)
            entry = waiting.popleft()
            if i == target_index:
                yield target
            else:
                dictionary = dictionaries[i] if dictionaries is not None else None
                yield _fit_one(*entry, target, dictionary)
            del entry
    if not count:
        raise ValueError("need at least one source space")
    if target is None:
        raise ValueError(f"target_index {target_index} out of range")
    if dictionaries is not None and len(dictionaries) != count:
        raise ValueError("dictionaries must be parallel to sources")


def align_to_target(
    sources: Iterable[EmbeddingSpace],
    target_index: int = 0,
    dictionaries: Sequence[MappingDictionary | None] | None = None,
) -> AlignedCollection:
    """Normalize every space and project each one onto the chosen target space.

    Each non-target source is fitted independently against the target using
    its dictionary (vocabulary intersection when none is given), so adding
    or removing other sources never changes a source's alignment. The
    target keeps its own normalized coordinates.

    ``sources`` may be any iterable, taken one space at a time
    (``_fitted``). The target is normalized when it arrives, and each
    other source's aligned rows are made as soon as it is fitted, its raw
    matrix let go: so a stream of spaces that starts with the target never
    has more than one raw space alive here.
    """
    slots: list[EmbeddingSpace] = []
    maps: list[OrthogonalMap] = []
    infos: list[AlignmentInfo | None] = []
    for source in _fitted(sources, target_index, dictionaries, normalize_target=True):
        slots.append(source.space if source.omap is None else source.aligned())
        maps.append(source.omap or OrthogonalMap.identity(source.space.dim))
        infos.append(source.info)
        del source
    return AlignedCollection(slots[target_index], slots, maps, infos)


def apply_language_prefixes(space: EmbeddingSpace, prefix: str) -> EmbeddingSpace:
    """Prepend ``prefix`` to every token; vectors are untouched.

    Prefixing keeps homographs from colliding when vocabularies of
    different languages are unioned.
    """
    if any(ch.isspace() for ch in prefix):
        raise ValueError(f"prefix {prefix!r} must not contain whitespace")
    if not prefix:
        return space
    # The source's matrix is checked and its tokens unique; one prefix keeps them so.
    return EmbeddingSpace._own(
        [prefix + t for t in space.tokens], space.matrix, meta=space.meta, checked=True
    )


def _next_source(sources: Iterator[EmbeddingSpace]) -> EmbeddingSpace:
    """The next source, for the next language prefix."""
    for space in sources:
        return space
    raise ValueError("language_prefixes must be parallel to sources")


def _prefixed(
    sources: Iterable[EmbeddingSpace], prefixes: Sequence[str] | None
) -> Iterator[EmbeddingSpace]:
    """The sources under their language prefixes, one at a time as they
    arrive. No name here holds a source while the caller works on it."""
    if prefixes is None:
        yield from sources
        return
    sources = iter(sources)
    for prefix in prefixes:
        yield apply_language_prefixes(_next_source(sources), prefix)
    for _ in sources:
        raise ValueError("language_prefixes must be parallel to sources")


def _aligned(
    sources: Iterable[EmbeddingSpace],
    prefixes: Sequence[str] | None,
    target_index: int,
    dictionaries: Sequence[MappingDictionary | None] | None,
) -> Iterator[_Source]:
    """``_fitted`` of the sources, each under its language prefix as it
    arrives, with each dictionary's pairs under its source's and the
    target's prefix: how every command reaches alignment. Dictionaries not
    parallel to the prefixes, or a target index past them, fail before any
    source is read; ``_prefixed`` checks the sources as they arrive."""
    if prefixes is not None and dictionaries is not None:
        if len(dictionaries) != len(prefixes):
            raise ValueError("dictionaries must be parallel to sources")
        if target_index >= len(prefixes):
            raise ValueError(f"target_index {target_index} out of range")
        target = prefixes[target_index]
        dictionaries = [
            None if d is None else d.prefixed(p, target) for p, d in zip(prefixes, dictionaries)
        ]
    return _fitted(_prefixed(sources, prefixes), target_index, dictionaries)
