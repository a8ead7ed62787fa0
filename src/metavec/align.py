"""Mapping dictionaries and projection of many embedding spaces into one common space."""
from __future__ import annotations

import io
import logging
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from metavec.embeddings import EmbeddingSpace, ParseError
from metavec.linalg import OrthogonalMap, apply_map, normalize_step0, solve_procrustes

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
    text = io.TextIOWrapper(source, encoding="utf-8-sig")
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    duplicates = 0
    lineno = 0
    try:
        for lineno, line in enumerate(text, start=1):
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
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}", line=lineno + 1) from None
    finally:
        text.detach()
    if duplicates:
        logger.warning("dropped %d duplicate dictionary pair(s)", duplicates)
    return MappingDictionary(pairs)


def _fit_one(
    source: EmbeddingSpace,
    target: EmbeddingSpace,
    dictionary: MappingDictionary | None,
) -> tuple[EmbeddingSpace, OrthogonalMap, AlignmentInfo]:
    if dictionary is None:
        dictionary = build_intersection_dictionary(source, target)
    source_index = source.index
    target_index = target.index
    kept = [
        (s, t) for s, t in dictionary if s in source_index and t in target_index
    ]
    filtered = len(dictionary) - len(kept)
    if filtered:
        logger.warning(
            "filtered %d dictionary pair(s) absent from the spaces", filtered
        )
    if not kept:
        raise ValueError("no usable dictionary pairs between source and target")
    x = source.matrix[[source_index[s] for s, _ in kept]]
    z = target.matrix[[target_index[t] for _, t in kept]]
    omap = solve_procrustes(x, z)
    residual = float(np.linalg.norm(x @ omap.matrix - z))
    info = AlignmentInfo(
        dictionary_size=len(kept), filtered_pairs=filtered, residual=residual
    )
    return apply_map(source, omap), omap, info


def align_to_target(
    sources: Sequence[EmbeddingSpace],
    target_index: int = 0,
    dictionaries: Sequence[MappingDictionary | None] | None = None,
) -> AlignedCollection:
    """Normalize every space and project each one onto the chosen target space.

    Each non-target source is fitted independently against the target using
    its dictionary (vocabulary intersection when none is given), so adding
    or removing other sources never changes a source's alignment. The
    target keeps its own normalized coordinates.
    """
    if not sources:
        raise ValueError("need at least one source space")
    if not 0 <= target_index < len(sources):
        raise ValueError(f"target_index {target_index} out of range")
    dims = {space.dim for space in sources}
    if len(dims) != 1:
        raise ValueError(f"sources must share one dim, got {sorted(dims)}")
    if dictionaries is not None and len(dictionaries) != len(sources):
        raise ValueError("dictionaries must be parallel to sources")

    normalized = [normalize_step0(space) for space in sources]
    target = normalized[target_index]
    mapped: list[EmbeddingSpace] = []
    maps: list[OrthogonalMap] = []
    infos: list[AlignmentInfo | None] = []
    for i, space in enumerate(normalized):
        if i == target_index:
            mapped.append(target)
            maps.append(OrthogonalMap.identity(target.dim))
            infos.append(None)
            continue
        dictionary = dictionaries[i] if dictionaries is not None else None
        space_mapped, omap, info = _fit_one(space, target, dictionary)
        mapped.append(space_mapped)
        maps.append(omap)
        infos.append(info)
    return AlignedCollection(target, mapped, maps, infos)
