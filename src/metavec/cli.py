"""Command-line front end: map, mvm, baseline, synth-oov and eval subcommands.

Every subcommand is deterministic (the pipeline has no randomness), writes
its outputs atomically, and exits 0 only when all outputs were fully
written. Tables and reports go to stdout; progress and warnings to stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
from pathlib import Path

from metavec import __version__
from metavec.align import align_to_target, load_bilingual_dictionary
from metavec.combine import (
    OOV_POLICIES,
    CombineConfig,
    apply_language_prefixes,
    combine,
    provenance_json,
)
from metavec.embeddings import (
    EmbeddingSpace,
    ParseError,
    detect_format,
    load_embeddings,
    write_binary_embeddings,
    write_text_embeddings,
)
from metavec.evaluate import (
    evaluate_suite,
    format_report_table,
    load_similarity_dataset,
    report_records,
)
from metavec.oov import DEFAULT_K, extend_to_union, format_audit_dump

logger = logging.getLogger(__name__)

__all__ = ["build_parser", "main", "run"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _thread_limit(threads: int | None):
    """Cap BLAS worker pools for the duration of a command."""
    if threads is None:
        return contextlib.nullcontext()
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        logger.warning("threadpoolctl is not installed; --threads has no effect")
        return contextlib.nullcontext()
    return threadpool_limits(limits=threads)


def _load(path: str, fmt: str | None) -> EmbeddingSpace:
    # Vector inputs are parsed by detected format (fmt None): --format picks
    # only the output encoding, except for eval, which writes no vectors.
    return load_embeddings(path, format=fmt or "auto")


def _render(space: EmbeddingSpace, fmt: str, precision: int) -> bytes:
    if fmt == "binary":
        return write_binary_embeddings(space)
    return write_text_embeddings(space, precision=precision)


def _output_format(args, first_source: str) -> str:
    return args.format or detect_format(first_source)


def _commit_outputs(staged: list[tuple[Path, bytes]]) -> None:
    """Write all staged payloads, or none: tmp file + rename per target,
    and every file already renamed is removed again if a later one fails.
    """
    written: list[Path] = []
    tmp: Path | None = None
    try:
        for path, payload in staged:
            tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
            tmp.write_bytes(payload)
            os.replace(tmp, path)
            tmp = None
            written.append(path)
    except BaseException:
        if tmp is not None:
            tmp.unlink(missing_ok=True)
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _check_prefix_count(paths, prefixes, parser) -> None:
    if prefixes and len(prefixes) != len(paths):
        parser.error(f"expected one --prefix per input ({len(paths)}), got {len(prefixes)}")


def cmd_map(args, parser) -> int:
    prefixes = args.prefix or []
    dict_paths = args.dicts or []
    if len(dict_paths) > 1:
        parser.error("map takes at most one --dict")
    _check_prefix_count([args.source, args.target], prefixes, parser)
    source, target = _load(args.source, None), _load(args.target, None)
    if prefixes:
        source = apply_language_prefixes(source, prefixes[0])
        target = apply_language_prefixes(target, prefixes[1])
    dictionaries = None
    if dict_paths:
        with open(dict_paths[0], "rb") as handle:
            dictionary = load_bilingual_dictionary(handle)
        if prefixes:
            dictionary = dictionary.prefixed(*prefixes)
        dictionaries = [dictionary, None]
    collection = align_to_target([source, target], target_index=1, dictionaries=dictionaries)
    info = collection.infos[0]
    fmt = _output_format(args, args.source)
    _commit_outputs([(Path(args.output), _render(collection.mapped[0], fmt, args.precision))])
    print(f"dictionary size: {info.dictionary_size}")
    print(f"residual: {info.residual}")
    return 0


def cmd_mvm(args, parser) -> int:
    if len(args.sources) < 2:
        parser.error("mvm needs at least two source embeddings")
    prefixes = args.prefix or []
    _check_prefix_count(args.sources, prefixes, parser)
    dict_paths = args.dicts or []
    dictionaries = None
    if dict_paths:
        if len(dict_paths) != len(args.sources) - 1:
            parser.error(
                "expected one --dict per non-target source "
                f"({len(args.sources) - 1}), got {len(dict_paths)}"
            )
        loaded = []
        for path in dict_paths:
            with open(path, "rb") as handle:
                loaded.append(load_bilingual_dictionary(handle))
        dictionaries = []
        for index in range(len(args.sources)):
            dictionaries.append(None if index == args.target_index else loaded.pop(0))
    spaces = [_load(p, None) for p in args.sources]
    config = CombineConfig(
        method="mvm",
        target_index=args.target_index,
        k_neighbors=args.k,
        language_prefixes=tuple(prefixes) or None,
        oov=args.oov,
    )
    meta = combine(spaces, config, dictionaries)
    fmt = _output_format(args, args.sources[0])
    out = Path(args.output)
    sidecar = out.with_name(out.name + ".provenance.json")
    _commit_outputs([
        (out, _render(meta.space, fmt, args.precision)),
        (sidecar, provenance_json(meta).encode("utf-8")),
    ])
    print(f"wrote {out} ({len(meta.space)} words, dim {meta.space.dim})", file=sys.stderr)
    return 0


def cmd_baseline(args, parser) -> int:
    if len(args.sources) < 2:
        parser.error("baseline needs at least two source embeddings")
    if args.method == "concat-reduce" and args.dim is None:
        parser.error("--dim is required with --method concat-reduce")
    if args.method != "concat-reduce" and args.dim is not None:
        parser.error("--dim only applies to --method concat-reduce")
    prefixes = args.prefix or []
    _check_prefix_count(args.sources, prefixes, parser)
    spaces = [_load(p, None) for p in args.sources]
    config = CombineConfig(
        method=args.method,
        k_neighbors=args.k,
        reduce_dim=args.dim,
        post_remove=args.post_remove,
        language_prefixes=tuple(prefixes) or None,
        oov="nn" if args.nn_oov else None,
    )
    meta = combine(spaces, config)
    fmt = _output_format(args, args.sources[0])
    _commit_outputs([(Path(args.output), _render(meta.space, fmt, args.precision))])
    print(
        f"wrote {args.output} ({len(meta.space)} words, dim {meta.space.dim})",
        file=sys.stderr,
    )
    return 0


def cmd_synth_oov(args, parser) -> int:
    e1 = _load(args.embedding1, None)
    e2 = _load(args.embedding2, None)
    ext1, ext2, report = extend_to_union(
        e1, e2, k=args.k, record_neighbors=args.audit is not None
    )
    fmt = _output_format(args, args.embedding1)
    staged = [
        (Path(args.out1), _render(ext1, fmt, args.precision)),
        (Path(args.out2), _render(ext2, fmt, args.precision)),
    ]
    if args.audit is not None:
        staged.append((Path(args.audit), format_audit_dump(report)))
    _commit_outputs(staged)
    into_first, into_second = report.words_synthesized
    print(f"synthesized into {args.out1}: {into_first}")
    print(f"synthesized into {args.out2}: {into_second}")
    if report.shortfalls:
        logger.warning("%d word(s) had fewer than k neighbors", len(report.shortfalls))
    if report.skipped:
        logger.warning("%d word(s) skipped (zero vector), filled with zeros", len(report.skipped))
    return 0


def _load_groups(path: str) -> dict[str, str]:
    """Parse 'dataset-name sim|rel' lines; '#' starts a comment."""
    grouping: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2 or fields[1] not in ("sim", "rel"):
                raise ParseError(
                    "expected 'dataset-name sim|rel' in groups file", line=lineno
                )
            grouping[fields[0]] = fields[1]
    return grouping


def cmd_eval(args, parser) -> int:
    space = _load(args.embedding, args.format)
    datasets = []
    for path in args.datasets:
        with open(path, "rb") as handle:
            datasets.append(
                load_similarity_dataset(
                    handle, delimiter=args.delimiter, name=Path(path).stem
                )
            )
    grouping = _load_groups(args.groups) if args.groups else None
    prefixes = tuple(args.crosslingual) if args.crosslingual else None
    summary = evaluate_suite(
        space,
        datasets,
        grouping=grouping,
        prefixes=prefixes,
        lowercase_fallback=args.lowercase_fallback,
    )
    if args.report:
        _commit_outputs([(Path(args.report), report_records(summary).encode("utf-8"))])
    sys.stdout.write(format_report_table(summary))
    return 0


def _add_common(parser, *, precision=True, prefix=False, dicts=False, fmt_help=None):
    parser.add_argument(
        "--format",
        choices=("text", "binary"),
        default=None,
        help=fmt_help
        or "output encoding (default: mirror the first input); inputs are auto-detected",
    )
    if precision:
        parser.add_argument(
            "--precision",
            type=_positive_int,
            default=17,
            metavar="N",
            help="significant digits for text output (default: 17, exact round-trip)",
        )
    parser.add_argument(
        "--threads",
        type=_positive_int,
        default=None,
        metavar="N",
        help="cap BLAS thread pools (default: all cores); needs threadpoolctl, "
        "without it the flag only logs a warning",
    )
    if prefix:
        parser.add_argument(
            "--prefix",
            action="append",
            metavar="STR",
            help="language prefix for each input, in order (repeatable)",
        )
    if dicts:
        parser.add_argument(
            "--dict",
            action="append",
            dest="dicts",
            metavar="PATH",
            help="bilingual dictionary file, tab-separated pairs (repeatable)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metavec",
        description="Meta-embeddings from pre-trained word vector collections.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("map", help="orthogonally align one embedding onto another")
    p.add_argument("source", help="embedding to rotate")
    p.add_argument("target", help="embedding whose space is kept")
    p.add_argument("-o", "--output", required=True, help="aligned source output path")
    _add_common(p, prefix=True, dicts=True)
    p.set_defaults(func=cmd_map, parser=p)

    p = sub.add_parser("mvm", help="align, synthesize missing words, average")
    p.add_argument("sources", nargs="+", help="two or more embedding files")
    p.add_argument("-o", "--output", required=True, help="meta-embedding output path")
    p.add_argument("--target-index", type=_nonnegative_int, default=0, metavar="N",
                   help="which source's coordinates to keep (default: 0)")
    p.add_argument("--k", type=_positive_int, default=DEFAULT_K, metavar="N",
                   help=f"neighbors per synthesized word (default: {DEFAULT_K})")
    p.add_argument("--oov", choices=OOV_POLICIES, default=None,
                   help="treatment of words absent from a source (default: nn)")
    _add_common(p, prefix=True, dicts=True)
    p.set_defaults(func=cmd_mvm, parser=p)

    p = sub.add_parser("baseline", help="average, concat or concat-reduce combiners")
    p.add_argument("sources", nargs="+", help="two or more embedding files")
    p.add_argument("-o", "--output", required=True, help="combined output path")
    p.add_argument("--method", required=True,
                   choices=("average", "concat", "concat-reduce"))
    p.add_argument("--dim", type=_positive_int, default=None, metavar="N",
                   help="output dimensionality (concat-reduce only)")
    p.add_argument("--post-remove", type=_nonnegative_int, default=0, metavar="N",
                   help="principal directions to remove after reduction (default: 0)")
    p.add_argument("--nn-oov", action="store_true",
                   help="synthesize missing words from nearest neighbors")
    p.add_argument("--k", type=_positive_int, default=DEFAULT_K, metavar="N",
                   help=f"neighbors per synthesized word (default: {DEFAULT_K})")
    _add_common(p, prefix=True)
    p.set_defaults(func=cmd_baseline, parser=p)

    p = sub.add_parser("synth-oov", help="extend two aligned embeddings to their union vocabulary")
    p.add_argument("embedding1")
    p.add_argument("embedding2")
    p.add_argument("out1", help="extended first embedding output path")
    p.add_argument("out2", help="extended second embedding output path")
    p.add_argument("--k", type=_positive_int, default=DEFAULT_K, metavar="N",
                   help=f"neighbors per synthesized word (default: {DEFAULT_K})")
    p.add_argument("--audit", metavar="PATH", default=None,
                   help="also write a word TAB neighbors dump")
    _add_common(p)
    p.set_defaults(func=cmd_synth_oov, parser=p)

    p = sub.add_parser("eval", help="score an embedding on word-similarity datasets")
    p.add_argument("embedding")
    p.add_argument("datasets", nargs="+", help="one or more similarity dataset files")
    p.add_argument("--crosslingual", nargs=2, metavar=("PFX1", "PFX2"), default=None,
                   help="look up word1 under PFX1 and word2 under PFX2")
    p.add_argument("--groups", metavar="PATH", default=None,
                   help="file of 'dataset-name sim|rel' lines for grouped means")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="also write one JSON record per dataset")
    p.add_argument("--delimiter", choices=("tab", "comma", "whitespace"), default="tab")
    p.add_argument("--lowercase-fallback", action="store_true",
                   help="retry missing words lowercased")
    _add_common(p, precision=False, fmt_help="force embedding input format (default: auto-detect)")
    p.set_defaults(func=cmd_eval, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    try:
        with _thread_limit(args.threads):
            return args.func(args, args.parser)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
