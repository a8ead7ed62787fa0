"""Traced pass: call metavec's public functions from outside, one layer at a time.

Run as a child process with metavec importable (PYTHONPATH pointing at the
checkout's ``src``). Two modes:

``path``  repeats what the CLI subcommand does, in the CLI's order, with a
          span around each layer call, and writes the same output files, so
          the parent can check they are byte-identical to the CLI's.
``aux``   times the layers that run nested inside the path (normalize_step0,
          the Procrustes solve, align_to_target, union assembly plus mean),
          then, with tracemalloc on, the peak bytes allocated by parsing and
          by the synthesis entry point. tracemalloc slows Python-heavy code,
          so it is never on while a span is timed.

Usage: python3 layers.py MODE SPEC_JSON
The last line of stdout is a JSON object with the spans and counts.
"""
from __future__ import annotations

import json
import sys
import time
import tracemalloc
from pathlib import Path


class Spans:
    """Named wall-clock durations, summed when a name repeats."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    def timed(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start
        return result


def run_path(spec: dict) -> dict:
    spans = Spans()
    start = time.perf_counter()
    from metavec.combine import CombineConfig, combine_mvm, provenance_json
    from metavec.embeddings import load_embeddings, write_binary_embeddings, write_text_embeddings
    from metavec.oov import extend_to_union, format_audit_dump

    spans.seconds["import"] = time.perf_counter() - start
    text = spec["fmt"] == "text"
    parse_name = "embeddings.parse_text_s" if text else "embeddings.parse_binary_s"
    write_name = "embeddings.write_text_s" if text else "embeddings.write_binary_s"

    def render(space):
        if text:
            return spans.timed(write_name, write_text_embeddings, space, precision=17)
        return spans.timed(write_name, write_binary_embeddings, space)

    spaces = [spans.timed(parse_name, load_embeddings, p) for p in spec["inputs"]]
    counts: dict[str, object] = {}
    if spec["command"] == "mvm":
        config = CombineConfig(method="mvm", k_neighbors=spec["k"])
        meta = spans.timed("combine.combine_mvm_s", combine_mvm, spaces, config)
        rendered = [render(meta.space)]
        extra = [provenance_json(meta).encode("utf-8")]
        counts["rows_out"] = len(meta.space)
        counts["provenance"] = meta.provenance
    else:
        ext1, ext2, report = spans.timed(
            "oov.extend_to_union_s", extend_to_union, *spaces, k=spec["k"], record_neighbors=True
        )
        rendered = [render(ext1), render(ext2)]
        extra = [spans.timed("oov.format_audit_dump_s", format_audit_dump, report)]
        counts["rows_out"] = len(ext1) + len(ext2)
        counts["report"] = {
            "words_synthesized": list(report.words_synthesized),
            "shortfalls": len(report.shortfalls),
            "skipped": len(report.skipped),
        }
    for path, payload in zip(spec["outputs"], rendered + extra):
        Path(path).write_bytes(payload)
    counts["rendered_bytes"] = sum(len(p) for p in rendered)
    counts["bytes_out"] = counts["rendered_bytes"] + sum(len(p) for p in extra)
    return {"spans": spans.seconds, "counts": counts}


def _time_nested_mvm_layers(spans: Spans, spaces) -> int:
    """Time the layers combine_mvm runs inside itself; returns the anchor pair count."""
    from metavec.align import align_to_target, build_intersection_dictionary
    from metavec.combine import CombineConfig, combine_average
    from metavec.linalg import normalize_step0, solve_procrustes

    normalized = [spans.timed("linalg.normalize_step0_s", normalize_step0, s) for s in spaces]
    target, anchors = normalized[0], 0
    for space in normalized[1:]:
        pairs = list(build_intersection_dictionary(space, target))
        x = space.matrix[[space.index[s] for s, _ in pairs]]
        z = target.matrix[[target.index[t] for _, t in pairs]]
        spans.timed("linalg.solve_procrustes_s", solve_procrustes, x, z)
        anchors += len(pairs)
    aligned = spans.timed("align.align_to_target_s", align_to_target, spaces, 0)
    config = CombineConfig(method="average", oov="available")
    spans.timed("combine.union_mean_s", combine_average, list(aligned.mapped), config)
    return anchors


def _peak_since_reset(fn, *args, **kwargs) -> tuple[object, int]:
    """(result, peak bytes allocated above the level at the call)."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = fn(*args, **kwargs)
    return result, tracemalloc.get_traced_memory()[1] - base


def run_aux(spec: dict) -> dict:
    from metavec.combine import CombineConfig, combine_mvm
    from metavec.embeddings import load_embeddings
    from metavec.oov import extend_to_union

    spans = Spans()
    spaces = [load_embeddings(p) for p in spec["inputs"]]
    counts: dict[str, object] = {}
    if spec["command"] == "mvm":
        counts["anchor_pairs"] = _time_nested_mvm_layers(spans, spaces)

    peaks: dict[str, float] = {}
    tracemalloc.start()
    try:
        ratios = []
        for path in spec["inputs"]:
            space, peak = _peak_since_reset(load_embeddings, path)
            ratios.append(peak / space.matrix.nbytes)
            del space
        kind = "text" if spec["fmt"] == "text" else "binary"
        peaks[f"embeddings.parse_{kind}_peak_x"] = max(ratios)
        if spec["command"] == "mvm":
            config = CombineConfig(method="mvm", k_neighbors=spec["k"])
            _, peak = _peak_since_reset(combine_mvm, spaces, config)
            peaks["combine.combine_mvm_peak_mb"] = peak / 1e6
        else:
            _, peak = _peak_since_reset(
                extend_to_union, *spaces, k=spec["k"], record_neighbors=True
            )
            peaks["oov.extend_to_union_peak_mb"] = peak / 1e6
    finally:
        tracemalloc.stop()
    return {"spans": spans.seconds, "peaks": peaks, "counts": counts}


def main(argv: list[str]) -> int:
    mode, spec = argv[0], json.loads(argv[1])
    result = run_path(spec) if mode == "path" else run_aux(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
