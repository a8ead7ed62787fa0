"""Meta-embedding combiners: MVM (align, synthesize, average) and the
baselines (plain average, l2-normalized concatenation, concat + reduction)."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from metavec.align import MappingDictionary, _aligned, _prefixed, _Source, apply_language_prefixes
from metavec.embeddings import EmbeddingSpace, _Fill, _filled
from metavec.linalg import _grid_fill, _Step0, _unit_rows, apply_reduction, fit_reduction
from metavec.oov import (
    DEFAULT_K, SynthesisReport, _place, _Plan, _plan_synthesis, _union_positions,
)

VALID_METHODS = ("mvm", "average", "concat", "concat-reduce")
OOV_POLICIES = ("nn", "available", "zero")
_DEFAULT_OOV = {
    "mvm": "nn",
    "average": "available",
    "concat": "zero",
    "concat-reduce": "zero",
}

__all__ = [
    "OOV_POLICIES",
    "VALID_METHODS",
    "CombineConfig",
    "MetaEmbedding",
    "apply_language_prefixes",
    "combine",
    "combine_average",
    "combine_concat",
    "combine_concat_reduce",
    "combine_mvm",
    "provenance_json",
    "write_provenance",
]


@dataclass(frozen=True)
class CombineConfig:
    """Knobs shared by the combiners.

    ``oov`` chooses how words absent from a source are treated: ``"nn"``
    synthesizes them from nearest neighbors, ``"available"`` averages only
    the spaces that have the word, ``"zero"`` stands in a zero block or a
    zero summand. Leaving it None picks the method's own default (nn for
    mvm, available for average, zero for concat). ``reduce_dim`` and
    ``post_remove`` apply to concat-reduce only.
    """

    method: str = "mvm"
    target_index: int = 0
    k_neighbors: int = DEFAULT_K
    reduce_dim: int | None = None
    post_remove: int = 0
    language_prefixes: Sequence[str] | None = None
    oov: str | None = None

    def __post_init__(self):
        if self.method not in VALID_METHODS:
            raise ValueError(f"unknown method {self.method!r}; pick one of {VALID_METHODS}")
        if self.oov is not None and self.oov not in OOV_POLICIES:
            raise ValueError(f"unknown OOV policy {self.oov!r}; pick one of {OOV_POLICIES}")
        if self.method == "concat-reduce":
            if self.reduce_dim is None:
                raise ValueError("concat-reduce requires reduce_dim")
        elif self.reduce_dim is not None or self.post_remove:
            name = "reduce_dim" if self.reduce_dim is not None else "post_remove"
            raise ValueError(f"{name} only applies to concat-reduce, not {self.method}")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")
        if self.target_index < 0:
            raise ValueError("target_index must be non-negative")
        if self.post_remove < 0:
            raise ValueError("post_remove must be non-negative")

    @property
    def oov_policy(self) -> str:
        return self.oov if self.oov is not None else _DEFAULT_OOV[self.method]


@dataclass(frozen=True)
class MetaEmbedding:
    """A combined space plus a record of how it was produced."""

    space: EmbeddingSpace
    provenance: dict


def _check_method(config: CombineConfig | None, method: str) -> CombineConfig:
    if config is None:
        return CombineConfig(method=method)
    if config.method != method:
        raise ValueError(f"config.method is {config.method!r}, expected {method!r}")
    return config


def _union_rows(
    sources: Sequence[_Source], config: CombineConfig, map=map
) -> tuple[list[str], np.ndarray, Sequence[_Plan | None], SynthesisReport | None]:
    """The union vocabulary, its row table and each source's synthesis
    plan for ``_place``. Under the "nn" policy every missing word is
    planned (``_plan_synthesis``, ranking through ``map`` on each source's
    normalized rows before any map: ``linalg._Step0.centered``), and its
    table entry points past its space's own rows. Otherwise there are no
    plans and missing words keep -1."""
    spaces = [source.space for source in sources]
    if config.oov_policy == "nn":
        ranked = [source.normalized.centered() for source in sources]
        return _plan_synthesis(spaces, config.k_neighbors, ranked=ranked, map=map)
    union, table = _union_positions(spaces)
    return union, table, [None] * len(spaces), None


def _provenance(
    sources: Sequence[_Source],
    config: CombineConfig,
    vocabulary: int,
    dim: int,
    report: SynthesisReport | None,
    **own,
) -> dict:
    """The provenance record of a combiner's output of ``vocabulary`` words
    of ``dim`` dimensions.

    Key order is part of the sidecar's bytes: the common keys (mvm's
    ``target_index`` before ``oov``), the method's ``own`` keys, the
    language prefixes, then the synthesis report.
    """
    policy = config.oov_policy
    provenance = {
        "method": config.method,
        "sources": [
            s.space.meta if s.space.meta is not None else f"source-{i}"
            for i, s in enumerate(sources)
        ],
        "vocabulary": vocabulary,
        "dim": dim,
    }
    if config.method == "mvm":
        provenance["target_index"] = config.target_index
    provenance.update(oov=policy, k_neighbors=config.k_neighbors if policy == "nn" else None)
    provenance.update(own)
    if config.language_prefixes is not None:
        provenance["language_prefixes"] = list(config.language_prefixes)
    if report is not None:
        provenance["synthesized"] = list(report.words_synthesized)
        provenance["shortfalls"] = len(report.shortfalls)
        provenance["skipped"] = len(report.skipped)
    return provenance


def _mean_rows(
    sources: Sequence[_Source],
    table: np.ndarray,
    plans: Sequence[_Plan | None],
    policy: str,
    matrix: np.ndarray,
) -> None:
    """Set ``matrix`` to the per-word mean across sources under the given
    missing-word policy, one row per column of ``table``: one block of the
    union grid (``_mean``).

    A source's rows are placed (``_place``) from its normalized rows,
    times its map when it has one, in one product for the block: so the
    block, not the caller's run of rows, decides their bits. For
    "available" the denominator is the number of sources holding the
    word; for "zero" and "nn" (where every word has a row in every source)
    it is the source count. A word's rows are added in the order of their
    byte images, so the result is bitwise independent of the order the
    sources were given in. The stack of the block's rows, a source's
    placed rows and their product come on top of the inputs and
    ``matrix``.
    """
    n, dim = len(sources), matrix.shape[1]
    row_type = np.dtype((np.void, 8 * dim))
    held = table >= 0
    # All-0xff bytes are a NaN, which no source holds, so an absent row
    # sorts after every present one.
    stack = np.empty((table.shape[1], n, dim))
    stack.view(np.int64)[...] = -1
    placed = product = None
    for i, source in enumerate(sources):
        if source.omap is None:
            _place(stack[:, i], table[i], source.normalized, plans[i])
            continue
        if placed is None:
            placed, product = np.zeros((2, len(stack), dim))
        _place(placed, table[i], source.normalized, plans[i])
        np.matmul(placed, source.omap.matrix, out=product)
        stack[:, i] = product
        stack.view(np.int64)[~held[i], i] = -1
    order = np.argsort(stack.view(row_type)[..., 0], axis=1)
    counts = held.sum(axis=0)
    block = np.arange(len(stack))
    matrix[...] = stack[block, order[:, 0]]
    for j in range(1, n):
        np.add(matrix, stack[block, order[:, j]], out=matrix, where=(j < counts)[:, np.newaxis])
    denominator = counts[:, np.newaxis] if policy == "available" else n
    np.divide(matrix, denominator, out=matrix)


def _mean(
    sources: Sequence[_Source], config: CombineConfig, map=map, **own
) -> tuple[list[str], _Fill, dict]:
    """The union of ``sources``, a fill of its rows (the per-word mean,
    ``_mean_rows``, scaled to unit length for mvm) and the provenance
    record, with the method's ``own`` keys; missing words are ranked
    through ``map`` (``_union_rows``).

    The fill makes the union rows on a grid of union positions whose rows
    of every source fit in ``linalg._PRODUCT_BYTES`` (``linalg._grid_fill``),
    so any run of rows has the bits it has in the whole matrix.
    """
    union, table, plans, report = _union_rows(sources, config, map)
    dim = sources[0].space.dim

    def rows(at: slice, out: np.ndarray) -> None:
        _mean_rows(sources, table[:, at], plans, config.oov_policy, out)
        if config.method == "mvm":
            _unit_rows(out, out=out)

    fill = _grid_fill(rows, len(union), len(sources) * dim)
    # Every step keeps each space's meta, so the spaces name the sources.
    return union, fill, _provenance(sources, config, len(union), dim, report, **own)


def _concat(
    sources: Sequence[_Source], config: CombineConfig, map=map
) -> tuple[list[str], _Fill, dict]:
    """Plan the concatenation of each word's unit rows; a block whose
    source lacks the word is zero, or NN-synthesized under "nn" (ranked
    through ``map``)."""
    if config.oov_policy == "available":
        raise ValueError("concatenation has no 'available' policy; use zero or nn")
    union, table, plans, report = _union_rows(sources, config, map)
    dims = [source.space.dim for source in sources]

    def fill(out: np.ndarray, start: int, stop: int) -> None:
        out[...] = 0.0
        offset = 0
        for source, dim, at, plan in zip(sources, dims, table, plans):
            _place(out[:, offset : offset + dim], at[start:stop], source.normalized, plan)
            offset += dim

    provenance = _provenance(sources, config, len(union), sum(dims), report, block_dims=dims)
    return union, fill, provenance


def _plan(
    sources: Iterable[EmbeddingSpace],
    config: CombineConfig,
    dictionaries: Sequence[MappingDictionary | None] | None = None,
    map=map,
) -> tuple[list[str], np.ndarray | _Fill, dict]:
    """The meta-embedding ``config.method`` makes of ``sources``: the union
    vocabulary, its rows as ``embeddings._chunks`` takes them, and the
    provenance record. Missing words are ranked through ``map``
    (``oov._plan_synthesis``): the builtin, or the CLI's, which splits
    the rankings between processes.

    The rows are a ``fill(out, start, stop)`` that writes union rows
    ``start:stop``, except for concat-reduce, whose reduction is fitted on
    the whole concatenation: its rows are the reduced matrix. ``combine``
    fills a matrix whole; the CLI streams the rows into its output.
    ``sources`` may be any iterable: each space is aligned
    (``align_to_target``) or given its row norms (``linalg._Step0.unit``)
    as it arrives, and held as read.
    """
    if config.method == "mvm":
        fitted = list(
            _aligned(sources, config.language_prefixes, config.target_index, dictionaries)
        )
        if len(fitted) < 2:
            raise ValueError("mvm needs at least two sources")
        infos = [source.info for source in fitted]
        return _mean(
            fitted, config, map,
            dictionary_sizes=[info.dictionary_size if info else None for info in infos],
            alignment_residuals=[info.residual if info else None for info in infos],
        )
    if dictionaries is not None:
        raise ValueError("dictionaries only apply to the mvm method")
    # Each source as read, with its row norms: unit rows share coordinates.
    prefixed = _prefixed(sources, config.language_prefixes)
    units = [_Source(s, _Step0.unit(s.matrix), None, None) for s in prefixed]
    if not units:
        raise ValueError("need at least one source")
    if config.method == "average":
        dims = {source.space.dim for source in units}
        if len(dims) != 1:
            raise ValueError(f"averaging needs one shared dim, got {sorted(dims)}")
        return _mean(units, config, map)
    union, rows, provenance = _concat(units, config, map)
    if config.method == "concat-reduce":
        concat = _filled(union, provenance["dim"], rows, config.method)
        del rows, units  # the fill, and the sources it reads
        rmap = fit_reduction(concat, config.reduce_dim, post_remove=config.post_remove)
        rows = apply_reduction(concat, rmap).matrix
        provenance.update(
            dim=rows.shape[1], reduce_dim=config.reduce_dim, post_remove=config.post_remove,
            concat_dim=concat.dim,
        )
    return union, rows, provenance


def combine_mvm(
    sources: Iterable[EmbeddingSpace],
    config: CombineConfig | None = None,
    dictionaries: Sequence[MappingDictionary | None] | None = None,
) -> MetaEmbedding:
    """Full pipeline: normalize and align all sources onto one of them,
    synthesize missing words from nearest neighbors, average, and
    l2-normalize the rows.

    ``dictionaries`` (raw, unprefixed tokens) override the vocabulary
    intersections used for alignment; entries must parallel ``sources``
    and the target's entry is ignored. The OOV policy can be downgraded to
    "available" or "zero" to reproduce mapping-only ablations. ``sources``
    may be any iterable; each space is aligned as it arrives.
    """
    return combine(sources, _check_method(config, "mvm"), dictionaries)


def combine_average(
    sources: Iterable[EmbeddingSpace], config: CombineConfig | None = None
) -> MetaEmbedding:
    """Row-normalize each source and average per word, with no mapping or
    centering; by default a word missing from some sources is averaged
    over the spaces that do contain it."""
    return combine(sources, _check_method(config, "average"))


def combine_concat(
    sources: Iterable[EmbeddingSpace], config: CombineConfig | None = None
) -> MetaEmbedding:
    """Concatenate each word's row-normalized vectors over the union
    vocabulary; a block whose source lacks the word is zero-filled, or
    NN-synthesized under the "nn" policy."""
    return combine(sources, _check_method(config, "concat"))


def combine_concat_reduce(
    sources: Iterable[EmbeddingSpace], config: CombineConfig | None = None
) -> MetaEmbedding:
    """Concatenate, then reduce the concatenation to ``reduce_dim``
    dimensions (optionally stripping top components afterwards)."""
    return combine(sources, _check_method(config, "concat-reduce"))


def combine(
    sources: Iterable[EmbeddingSpace],
    config: CombineConfig,
    dictionaries: Sequence[MappingDictionary | None] | None = None,
) -> MetaEmbedding:
    """The meta-embedding of the method ``config.method`` names, held
    whole. ``sources`` may be any iterable; each space is taken as it
    arrives."""
    union, rows, provenance = _plan(sources, config, dictionaries)
    return MetaEmbedding(_filled(union, provenance["dim"], rows, config.method), provenance)


def provenance_json(meta: MetaEmbedding) -> str:
    """Render the provenance record as pretty-printed JSON."""
    return _provenance_json(meta.provenance)


def _provenance_json(provenance: dict) -> str:
    return json.dumps(provenance, indent=2, ensure_ascii=False) + "\n"


def write_provenance(meta: MetaEmbedding, path: str | Path) -> None:
    """Emit the provenance record as a JSON sidecar file."""
    Path(path).write_text(provenance_json(meta), encoding="utf-8")
