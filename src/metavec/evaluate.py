"""Intrinsic evaluation: word-similarity datasets, Spearman correlation, coverage."""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping, Sequence

import numpy as np

from metavec.embeddings import EmbeddingSpace, ParseError, _numbered_lines
from metavec.linalg import cosine

_DELIMITERS = ("tab", "comma", "whitespace")

__all__ = [
    "EvalReport",
    "SimilarityDataset",
    "SuiteSummary",
    "evaluate",
    "evaluate_suite",
    "format_report_table",
    "load_similarity_dataset",
    "report_records",
    "spearman",
]


@dataclass(frozen=True)
class SimilarityDataset:
    """Named list of (word1, word2, gold score) judgments."""

    name: str
    pairs: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("a similarity dataset needs at least one pair")
        if not all(math.isfinite(score) for _, _, score in self.pairs):
            raise ValueError("gold scores must be finite")

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class EvalReport:
    """Result of scoring one dataset against one space.

    ``spearman_rho`` is None when fewer than two pairs were usable or the
    usable scores had no rank variance. Pairs are dropped (never guessed
    at) when a word is missing or a cosine is undefined; that is the only
    OOV policy offered.
    """

    dataset: str
    spearman_rho: float | None
    coverage_pct: float
    pairs_total: int
    pairs_used: int
    oov_policy: str = "skip"


@dataclass(frozen=True)
class SuiteSummary:
    """Per-dataset reports plus the unweighted Av/Sim/Rel means."""

    reports: tuple[EvalReport, ...]
    mean_all: float | None
    mean_sim: float | None
    mean_rel: float | None
    undefined: tuple[str, ...]


def load_similarity_dataset(
    source: str | Path | bytes | BinaryIO,
    delimiter: str = "tab",
    name: str = "dataset",
) -> SimilarityDataset:
    """Parse ``word1 DELIM word2 DELIM score`` lines; ``#`` starts a comment.

    ``source`` may be a file path, raw bytes, or a binary stream. A UTF-8
    byte-order mark at the start is skipped.
    """
    if delimiter not in _DELIMITERS:
        raise ValueError(f"delimiter must be one of {_DELIMITERS}, got {delimiter!r}")
    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            return load_similarity_dataset(stream, delimiter=delimiter, name=name)
    if isinstance(source, (bytes, bytearray, memoryview)):
        source = io.BytesIO(bytes(source))
    pairs: list[tuple[str, str, float]] = []
    with contextlib.closing(_numbered_lines(source)) as lines:
        for lineno, line in lines:
            line = line.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if delimiter == "whitespace":
                fields = line.split()
            else:
                fields = [f.strip() for f in line.split("\t" if delimiter == "tab" else ",")]
            if len(fields) != 3:
                raise ParseError(
                    f"expected 'word1 word2 score', got {len(fields)} field(s)",
                    line=lineno,
                )
            try:
                score = float(fields[2])
            except ValueError:
                raise ParseError(f"malformed score {fields[2]!r}", line=lineno) from None
            if not math.isfinite(score):
                raise ParseError("gold score must be finite", line=lineno)
            if not fields[0] or not fields[1]:
                raise ParseError("empty word", line=lineno)
            pairs.append((fields[0], fields[1], score))
    if not pairs:
        raise ParseError("dataset contains no pairs")
    return SimilarityDataset(name, tuple(pairs))


def _fractional_ranks(values: np.ndarray) -> np.ndarray:
    """Rank = (# strictly smaller) + (ties + 1) / 2, counting the value
    itself among its ties, from one stable sort: a run of equal values at
    sorted positions i…j−1 ranks i + (j − i + 1) / 2. A NaN equals nothing,
    itself included, so it ranks 1/2; it sorts last, so no number counts it."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, len(values)])
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    ranks[np.isnan(values)] = 0.5
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman correlation: Pearson on fractional ranks, ties averaged.

    Returns nan when either list holds a NaN (a value with no place in
    the order), or has no rank variance (all values equal).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or ys.ndim != 1 or xs.shape != ys.shape:
        raise ValueError("expected two equal-length lists")
    if len(xs) < 2:
        raise ValueError("need at least two observations")
    if np.isnan(xs).any() or np.isnan(ys).any():
        return math.nan
    rx = _fractional_ranks(xs)
    ry = _fractional_ranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = float((dx * dx).sum())
    sy = float((dy * dy).sum())
    if sx == 0.0 or sy == 0.0:
        return math.nan
    return float((dx * dy).sum() / math.sqrt(sx * sy))


def _lookup(
    space: EmbeddingSpace, word: str, prefix: str, lowercase_fallback: bool
) -> np.ndarray | None:
    token = prefix + word
    if token in space:
        return space.vector(token)
    if lowercase_fallback:
        lowered = prefix + word.lower()
        if lowered in space:
            return space.vector(lowered)
    return None


def evaluate(
    space: EmbeddingSpace,
    dataset: SimilarityDataset,
    prefixes: tuple[str, str] | None = None,
    lowercase_fallback: bool = False,
) -> EvalReport:
    """Score one dataset: cosine per pair, Spearman against the gold scores.

    ``prefixes`` switches on cross-lingual lookup: the first word of each
    pair is sought under the first prefix, the second under the second.
    Pairs with a missing word or an undefined cosine are skipped and only
    reflected in coverage.
    """
    p1, p2 = prefixes if prefixes is not None else ("", "")
    predicted: list[float] = []
    gold: list[float] = []
    for w1, w2, score in dataset.pairs:
        v1 = _lookup(space, w1, p1, lowercase_fallback)
        v2 = _lookup(space, w2, p2, lowercase_fallback)
        if v1 is None or v2 is None:
            continue
        similarity = cosine(v1, v2)
        if math.isnan(similarity):
            continue
        predicted.append(similarity)
        gold.append(score)
    used = len(predicted)
    total = len(dataset.pairs)
    rho: float | None = None
    if used >= 2:
        rho = spearman(predicted, gold)
        if math.isnan(rho):
            rho = None
    return EvalReport(
        dataset=dataset.name,
        spearman_rho=rho,
        coverage_pct=100.0 * used / total,
        pairs_total=total,
        pairs_used=used,
    )


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def evaluate_suite(
    space: EmbeddingSpace,
    datasets: Iterable[SimilarityDataset],
    grouping: Mapping[str, str] | None = None,
    prefixes: tuple[str, str] | None = None,
    lowercase_fallback: bool = False,
) -> SuiteSummary:
    """Evaluate several datasets and average the defined correlations.

    ``grouping`` maps dataset names to "sim" or "rel"; grouped means are
    reported alongside the overall mean (Av). Datasets whose rho is
    undefined are excluded from every mean and listed instead.
    """
    if grouping is not None:
        bad = {g for g in grouping.values() if g not in ("sim", "rel")}
        if bad:
            raise ValueError(f"groups must be 'sim' or 'rel', got {sorted(bad)}")
    reports = [
        evaluate(space, d, prefixes=prefixes, lowercase_fallback=lowercase_fallback)
        for d in datasets
    ]
    if not reports:
        raise ValueError("need at least one dataset")
    defined = [r for r in reports if r.spearman_rho is not None]
    undefined = tuple(r.dataset for r in reports if r.spearman_rho is None)
    sim = [r.spearman_rho for r in defined if grouping and grouping.get(r.dataset) == "sim"]
    rel = [r.spearman_rho for r in defined if grouping and grouping.get(r.dataset) == "rel"]
    return SuiteSummary(
        reports=tuple(reports),
        mean_all=_mean([r.spearman_rho for r in defined]),
        mean_sim=_mean(sim),
        mean_rel=_mean(rel),
        undefined=undefined,
    )


def _format_rho(rho: float | None) -> str:
    return f"{rho:.4f}" if rho is not None else "n/a"


def format_report_table(summary: SuiteSummary) -> str:
    """Human-readable table: one row per dataset, then Av/Sim/Rel rows."""
    name_width = max([len(r.dataset) for r in summary.reports] + [len("dataset")])
    lines = [
        f"{'dataset':<{name_width}}  {'spearman':>8}  {'coverage':>8}  {'pairs':>11}"
    ]
    for r in summary.reports:
        pairs = f"{r.pairs_used}/{r.pairs_total}"
        lines.append(
            f"{r.dataset:<{name_width}}  {_format_rho(r.spearman_rho):>8}"
            f"  {r.coverage_pct:>7.1f}%  {pairs:>11}"
        )
    lines.append(f"{'Av':<{name_width}}  {_format_rho(summary.mean_all):>8}")
    if summary.mean_sim is not None:
        lines.append(f"{'Sim':<{name_width}}  {_format_rho(summary.mean_sim):>8}")
    if summary.mean_rel is not None:
        lines.append(f"{'Rel':<{name_width}}  {_format_rho(summary.mean_rel):>8}")
    if summary.undefined:
        lines.append("undefined: " + ", ".join(summary.undefined))
    return "\n".join(lines) + "\n"


def report_records(summary: SuiteSummary) -> str:
    """Machine-readable report: one JSON object per dataset, one per line."""
    lines = []
    for r in summary.reports:
        lines.append(
            json.dumps(
                {
                    "name": r.dataset,
                    "rho": r.spearman_rho,
                    "coverage": r.coverage_pct,
                    "pairs_used": r.pairs_used,
                    "pairs_total": r.pairs_total,
                },
                ensure_ascii=False,
            )
        )
    return "\n".join(lines) + "\n"
