"""Meta-embedding combiners: MVM (align, synthesize, average) and the
baselines (plain average, l2-normalized concatenation, concat + reduction)."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from metavec.align import MappingDictionary, align_to_target
from metavec.embeddings import EmbeddingSpace
from metavec.linalg import _unit_rows, apply_reduction, fit_reduction
from metavec.oov import DEFAULT_K, _extend_all_to_union, _union_tokens

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
    mvm, available for average, zero for concat).
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
        elif self.reduce_dim is not None:
            raise ValueError(f"reduce_dim only applies to concat-reduce, not {self.method}")
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


def apply_language_prefixes(space: EmbeddingSpace, prefix: str) -> EmbeddingSpace:
    """Prepend ``prefix`` to every token; vectors are untouched.

    Prefixing keeps homographs from colliding when vocabularies of
    different languages are unioned.
    """
    if any(ch.isspace() for ch in prefix):
        raise ValueError(f"prefix {prefix!r} must not contain whitespace")
    if not prefix:
        return space
    return EmbeddingSpace(
        [prefix + t for t in space.tokens], space.matrix, meta=space.meta
    )


def _canonical_mean(rows: Sequence[np.ndarray], denominator: int) -> np.ndarray:
    # Summands are added in byte-image order so the result is bitwise
    # independent of the order the sources were given in.
    ordered = sorted(rows, key=lambda r: r.tobytes())
    total = ordered[0].copy()
    for row in ordered[1:]:
        total += row
    return total / denominator


def _extend_with_provenance(
    spaces: Sequence[EmbeddingSpace], k: int
) -> tuple[list[EmbeddingSpace], dict]:
    """NN-synthesize every space's missing words; the report becomes the
    provenance keys ``synthesized``, ``shortfalls`` and ``skipped``."""
    extended, report = _extend_all_to_union(spaces, k)
    return extended, {
        "synthesized": list(report.words_synthesized),
        "shortfalls": len(report.shortfalls),
        "skipped": len(report.skipped),
    }


def _prefixed(
    sources: Sequence[EmbeddingSpace], config: CombineConfig
) -> list[EmbeddingSpace]:
    prefixes = config.language_prefixes
    if prefixes is None:
        return list(sources)
    if len(prefixes) != len(sources):
        raise ValueError("language_prefixes must be parallel to sources")
    return [apply_language_prefixes(s, p) for s, p in zip(sources, prefixes)]


def _prefixed_dictionaries(
    dictionaries: Sequence[MappingDictionary | None] | None,
    config: CombineConfig,
    n_sources: int,
) -> Sequence[MappingDictionary | None] | None:
    if dictionaries is None or config.language_prefixes is None:
        return dictionaries
    if len(dictionaries) != n_sources:
        raise ValueError("dictionaries must be parallel to sources")
    prefixes = config.language_prefixes
    target_prefix = prefixes[config.target_index]
    out: list[MappingDictionary | None] = []
    for prefix, dictionary in zip(prefixes, dictionaries):
        if dictionary is None:
            out.append(None)
        else:
            out.append(
                MappingDictionary(
                    (prefix + s, target_prefix + t) for s, t in dictionary
                )
            )
    return out


def _source_labels(sources: Sequence[EmbeddingSpace]) -> list[str]:
    return [s.meta if s.meta is not None else f"source-{i}" for i, s in enumerate(sources)]


def _check_method(config: CombineConfig | None, method: str) -> CombineConfig:
    if config is None:
        return CombineConfig(method=method)
    if config.method != method:
        raise ValueError(f"config.method is {config.method!r}, expected {method!r}")
    return config


def _mean_rows(
    spaces: Sequence[EmbeddingSpace], policy: str, n_sources: int
) -> EmbeddingSpace:
    """Per-word mean across spaces under the given missing-word policy.

    ``spaces`` already share coordinates. For "available" the denominator
    is the number of spaces holding the word; for "zero" (and for fully
    extended inputs under "nn") it is the source count.
    """
    union = _union_tokens(spaces)
    indexes = [s.index for s in spaces]
    matrix = np.empty((len(union), spaces[0].dim))
    for r, token in enumerate(union):
        rows = [s.matrix[idx[token]] for s, idx in zip(spaces, indexes) if token in idx]
        denominator = len(rows) if policy == "available" else n_sources
        matrix[r] = _canonical_mean(rows, denominator)
    return EmbeddingSpace(union, matrix)


def combine_mvm(
    sources: Sequence[EmbeddingSpace],
    config: CombineConfig | None = None,
    dictionaries: Sequence[MappingDictionary | None] | None = None,
) -> MetaEmbedding:
    """Full pipeline: normalize and align all sources onto one of them,
    synthesize missing words from nearest neighbors, average, and
    l2-normalize the rows.

    ``dictionaries`` (raw, unprefixed tokens) override the vocabulary
    intersections used for alignment; entries must parallel ``sources``
    and the target's entry is ignored. The OOV policy can be downgraded to
    "available" or "zero" to reproduce mapping-only ablations.
    """
    config = _check_method(config, "mvm")
    if len(sources) < 2:
        raise ValueError("mvm needs at least two sources")
    labels = _source_labels(sources)
    spaces = _prefixed(sources, config)
    dictionaries = _prefixed_dictionaries(dictionaries, config, len(spaces))
    if not config.target_index < len(spaces):
        raise ValueError(f"target_index {config.target_index} out of range")
    aligned = align_to_target(spaces, config.target_index, dictionaries)
    # Only ``members`` holds each set of spaces, so a replaced set is freed.
    members, infos = list(aligned.mapped), aligned.infos
    del aligned

    policy = config.oov_policy
    synthesis_report = None
    if policy == "nn":
        members, synthesis_report = _extend_with_provenance(members, config.k_neighbors)
    averaged = _mean_rows(members, policy, len(members))
    del members
    normalized, _ = _unit_rows(averaged.matrix)
    space = EmbeddingSpace(averaged.tokens, normalized, meta="mvm")

    provenance = {
        "method": "mvm",
        "sources": labels,
        "vocabulary": len(space),
        "dim": space.dim,
        "target_index": config.target_index,
        "oov": policy,
        "k_neighbors": config.k_neighbors if policy == "nn" else None,
        "dictionary_sizes": [
            info.dictionary_size if info else None for info in infos
        ],
        "alignment_residuals": [
            info.residual if info else None for info in infos
        ],
    }
    if config.language_prefixes is not None:
        provenance["language_prefixes"] = list(config.language_prefixes)
    if synthesis_report is not None:
        provenance.update(synthesis_report)
    return MetaEmbedding(space, provenance)


def combine_average(
    sources: Sequence[EmbeddingSpace], config: CombineConfig | None = None
) -> MetaEmbedding:
    """Row-normalize each source and average per word, with no mapping or
    centering; by default a word missing from some sources is averaged
    over the spaces that do contain it."""
    config = _check_method(config, "average")
    if not sources:
        raise ValueError("need at least one source")
    labels = _source_labels(sources)
    spaces = _prefixed(sources, config)
    dims = {s.dim for s in spaces}
    if len(dims) != 1:
        raise ValueError(f"averaging needs one shared dim, got {sorted(dims)}")
    normalized = [
        EmbeddingSpace(s.tokens, _unit_rows(s.matrix)[0], meta=s.meta) for s in spaces
    ]
    policy = config.oov_policy
    synthesis_report = None
    if policy == "nn":
        normalized, synthesis_report = _extend_with_provenance(
            normalized, config.k_neighbors
        )
    averaged = _mean_rows(normalized, policy, len(normalized))
    space = EmbeddingSpace(averaged.tokens, averaged.matrix, meta="average")
    provenance = {
        "method": "average",
        "sources": labels,
        "vocabulary": len(space),
        "dim": space.dim,
        "oov": policy,
        "k_neighbors": config.k_neighbors if policy == "nn" else None,
    }
    if config.language_prefixes is not None:
        provenance["language_prefixes"] = list(config.language_prefixes)
    if synthesis_report is not None:
        provenance.update(synthesis_report)
    return MetaEmbedding(space, provenance)


def combine_concat(
    sources: Sequence[EmbeddingSpace], config: CombineConfig | None = None
) -> MetaEmbedding:
    """Concatenate each word's row-normalized vectors over the union
    vocabulary; a block whose source lacks the word is zero-filled, or
    NN-synthesized under the "nn" policy."""
    config = _check_method(config, "concat")
    return _concat(sources, config, method="concat")


def _concat(
    sources: Sequence[EmbeddingSpace], config: CombineConfig, method: str
) -> MetaEmbedding:
    if not sources:
        raise ValueError("need at least one source")
    policy = config.oov_policy
    if policy == "available":
        raise ValueError("concatenation has no 'available' policy; use zero or nn")
    labels = _source_labels(sources)
    spaces = _prefixed(sources, config)
    normalized = [
        EmbeddingSpace(s.tokens, _unit_rows(s.matrix)[0], meta=s.meta) for s in spaces
    ]
    synthesis_report = None
    if policy == "nn":
        normalized, synthesis_report = _extend_with_provenance(
            normalized, config.k_neighbors
        )
    union = _union_tokens(normalized)
    blocks = []
    for space in normalized:
        index = space.index
        block = np.zeros((len(union), space.dim))
        for r, token in enumerate(union):
            if token in index:
                block[r] = space.matrix[index[token]]
        blocks.append(block)
    matrix = np.hstack(blocks)
    space = EmbeddingSpace(union, matrix, meta=method)
    provenance = {
        "method": method,
        "sources": labels,
        "vocabulary": len(space),
        "dim": space.dim,
        "oov": policy,
        "k_neighbors": config.k_neighbors if policy == "nn" else None,
        "block_dims": [s.dim for s in normalized],
    }
    if config.language_prefixes is not None:
        provenance["language_prefixes"] = list(config.language_prefixes)
    if synthesis_report is not None:
        provenance.update(synthesis_report)
    return MetaEmbedding(space, provenance)


def combine_concat_reduce(
    sources: Sequence[EmbeddingSpace], config: CombineConfig | None = None
) -> MetaEmbedding:
    """Concatenate, then reduce the concatenation to ``reduce_dim``
    dimensions (optionally stripping top components afterwards)."""
    config = _check_method(config, "concat-reduce")
    base = _concat(sources, config, method="concat-reduce")
    rmap = fit_reduction(base.space, config.reduce_dim, post_remove=config.post_remove)
    reduced = apply_reduction(base.space, rmap)
    space = EmbeddingSpace(reduced.tokens, reduced.matrix, meta="concat-reduce")
    provenance = dict(base.provenance)
    provenance.update(
        {
            "dim": space.dim,
            "reduce_dim": config.reduce_dim,
            "post_remove": config.post_remove,
            "concat_dim": base.space.dim,
        }
    )
    return MetaEmbedding(space, provenance)


def combine(
    sources: Sequence[EmbeddingSpace],
    config: CombineConfig,
    dictionaries: Sequence[MappingDictionary | None] | None = None,
) -> MetaEmbedding:
    """Dispatch to the combiner named by ``config.method``."""
    if config.method == "mvm":
        return combine_mvm(sources, config, dictionaries)
    if dictionaries is not None:
        raise ValueError("dictionaries only apply to the mvm method")
    if config.method == "average":
        return combine_average(sources, config)
    if config.method == "concat":
        return combine_concat(sources, config)
    return combine_concat_reduce(sources, config)


def provenance_json(meta: MetaEmbedding) -> str:
    """Render the provenance record as pretty-printed JSON."""
    return json.dumps(meta.provenance, indent=2, ensure_ascii=False) + "\n"


def write_provenance(meta: MetaEmbedding, path: str | Path) -> None:
    """Emit the provenance record as a JSON sidecar file."""
    Path(path).write_text(provenance_json(meta), encoding="utf-8")
