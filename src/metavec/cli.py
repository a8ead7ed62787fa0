"""Command-line front end: map, mvm, baseline, synth-oov and eval subcommands.

Every subcommand is deterministic (the pipeline has no randomness), writes
its outputs atomically, and exits 0 only when all outputs were fully
written. Tables and reports go to stdout; progress and warnings to stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import logging
import os
import pickle
import signal
import sys
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import BinaryIO

from metavec import __version__
from metavec.align import _aligned, load_bilingual_dictionary
from metavec.combine import OOV_POLICIES, CombineConfig, _plan, _provenance_json
from metavec.embeddings import (
    EmbeddingSpace,
    ParseError,
    _chunks,
    _commit_outputs,
    _numbered_lines,
    detect_format,
    load_embeddings,
)
from metavec.evaluate import (
    evaluate_suite,
    format_report_table,
    load_similarity_dataset,
    report_records,
)
from metavec.linalg import _blas_pool
from metavec.oov import DEFAULT_K, _extension, format_audit_dump

logger = logging.getLogger(__name__)

# Scored (query, candidate) pairs that each share of the missing-word
# rankings must reach before ``_ranked_in_shares`` splits them, one forked
# child per share: a fork costs about 20–35 ms on a 2-core x86 VM, the
# time of 1.5–2M pairs at 17 ns each.
_SHARE_PAIRS = 1 << 21

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


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _io_workers(args) -> int:
    """Worker processes for parsing and formatting text and for ranking
    missing words: the usable CPUs, capped by --threads."""
    return min(_cpu_count(), args.threads or sys.maxsize)


class _RecordList(logging.Handler):
    """Collects a worker's log records, their messages formatted so that
    they pickle."""

    def __init__(self):
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        record.msg = self.format(record)
        record.args = record.exc_info = record.exc_text = record.stack_info = None
        self.records.append(record)


def _fork(fn, item) -> tuple[int, BinaryIO]:
    """Run ``fn(item)`` in a forked child; return its pid and the read end
    of the pipe that carries back its log records and result or exception.
    The child keeps the BLAS thread count this process has."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    # The child: os._exit skips every cleanup the parent's stack and atexit
    # handlers would run, and flushes none of the parent's file buffers.
    code = 1
    try:
        os.close(read_fd)
        handler = _RecordList()
        logging.root.handlers = [handler]
        try:
            reply = (True, fn(item))
        except BaseException as exc:  # re-raised by the parent
            reply = (False, exc)
        with open(write_fd, "wb") as pipe:
            pickle.dump((handler.records, *reply), pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _collect(running: deque):
    """Read, reap and retire the oldest child in ``running``; re-emit its
    log records and return its result or raise its exception."""
    pid, pipe = running[0]
    try:
        reply = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        reply = None
    pipe.close()
    _, status = os.waitpid(pid, 0)
    running.popleft()
    if reply is None:
        raise ChildProcessError(
            f"worker process {pid} exited with status {os.waitstatus_to_exitcode(status)}"
        )
    records, ok, value = reply
    for record in records:
        logging.getLogger(record.name).handle(record)
    if not ok:
        raise value
    return value


def _stop(running: deque) -> None:
    """Kill and reap every child in ``running``."""
    for pid, pipe in running:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pipe.close()


def _forked_map(fn, items, workers: int):
    """Yield ``fn(item)`` for each item, in item order, each computed in a
    child made with ``os.fork``, at most ``workers`` children at a time.

    Forked children share the parent's arrays without copying them; only
    results travel back, pickled through a pipe that this process reads.
    The children inherit the command's one BLAS thread (``_blas_pool``),
    so they make their BLAS calls at one thread without setting a count
    (OpenBLAS starts a new thread pool in a forked child that sets one,
    and children that each start one crowd the CPUs). With one worker, or
    without ``os.fork``, this is plain ``map``.
    On an error, ``close()`` or an interrupt, every child still running is
    killed and reaped.
    """
    if workers < 2 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    pending = iter(items)
    running: deque = deque()
    try:
        for item in itertools.islice(pending, workers):
            running.append(_fork(fn, item))
        while running:
            # Popped as it is yielded, so that no name here holds the
            # result while the caller works on it.
            done = [_collect(running)]
            for item in itertools.islice(pending, 1):
                running.append(_fork(fn, item))
            yield done.pop()
    finally:
        _stop(running)


def _shares(jobs, count: int) -> list[list[tuple[int, int, int]]]:
    """``jobs`` (``oov._Ranking``) cut into ``count`` contiguous shares of
    about equal scored pairs, each a list of (job, first query, end query).
    A query goes to the share its first pair falls in (the last share for
    a query without candidates after every pair), so a job that a cut
    crosses is ranked in two ranges of its queries. A share may be empty."""
    total = sum(job.pairs for job in jobs)
    shares: list[list] = [[] for _ in range(count)]
    done = 0  # the pairs of the jobs before this one
    for i, job in enumerate(jobs):
        width, lo = len(job.candidates), 0
        while lo < len(job.queries):
            share = min(count - 1, (done + lo * width) * count // total)
            hi = len(job.queries)
            if width:  # the first query whose first pair falls past this share
                hi = min(hi, -(-((share + 1) * total - done * count) // (width * count)))
            shares[share].append((i, lo, hi))
            lo = hi
        done += job.pairs
    return shares


def _ranked_in_shares(fn, jobs, workers: int):
    """``map(fn, jobs)`` for the rankings of ``oov._plan_synthesis``
    (``oov._Ranking``), split between forked children.

    The jobs are cut into contiguous shares of about equal scored pairs
    (``_shares``): one per worker, but no more than leave each share
    ``_SHARE_PAIRS``. With fewer than two shares this is the builtin
    ``map``. Otherwise ``_forked_map`` ranks each share in a child while
    this process waits, and each job's query ranges are joined in order
    (``oov._Ranking.joined``). ``_rank``'s order does not depend on the
    queries ranked together, and the children inherit the command's one
    BLAS thread, so the results have the bits of the builtin ``map``.
    """
    count = min(workers, sum(job.pairs for job in jobs) // max(1, _SHARE_PAIRS))
    if count < 2:
        return map(fn, jobs)
    shares = [share for share in _shares(jobs, count) if share]

    def rank(share):
        return [fn(jobs[i].part(lo, hi)) for i, lo, hi in share]

    parts = list(itertools.chain.from_iterable(_forked_map(rank, shares, len(shares))))
    joined: list[list] = [[] for _ in jobs]
    for (i, _, _), part in zip(itertools.chain(*shares), parts):
        joined[i].append(part)
    return [job.joined(part) for job, part in zip(jobs, joined)]


def _load(path: str, fmt: str | None = None) -> EmbeddingSpace:
    # Vector inputs are parsed by detected format (fmt None): --format picks
    # only the output encoding, except for eval, which writes no vectors.
    return load_embeddings(path, format=fmt or "auto")


def _load_sources(paths, args) -> Iterator[EmbeddingSpace]:
    """Embedding inputs in order, one at a time: text files are parsed
    ahead in worker processes, binary files in this one when they are
    pulled (shipping a parsed binary matrix back costs as much as parsing
    it). Nothing here holds a space once it is passed on; the caller
    closes the stream, which stops the workers."""
    text = [path for path in paths if detect_format(path) == "text"]
    with contextlib.closing(_forked_map(_load, text, _io_workers(args))) as parsed:
        for path in paths:
            yield next(parsed) if detect_format(path) == "text" else _load(path)


def _staged(
    path: str, tokens: Sequence[str], dim: int, rows, args, first_source: str
) -> tuple[Path, Iterable[bytes]]:
    """An output for ``_commit_outputs``: ``tokens`` and their ``rows`` (a
    matrix or a fill, as ``_chunks`` takes them) in the --format asked
    for, or else in the format of ``first_source``. Text rows are made and
    formatted in worker processes, in as many blocks as a multiple of the
    workers, so that the workers finish together; binary rows in this
    process. A fill of products makes them on a fixed grid at one BLAS
    thread (``linalg._grid_fill``), so the bytes do not depend on the workers."""
    fmt = args.format or detect_format(first_source)
    parts = _io_workers(args) if fmt == "text" else 1
    forked = functools.partial(_forked_map, workers=parts)
    return Path(path), _chunks(tokens, dim, rows, fmt, args.precision, parts, forked)


def _check_prefix_count(paths, prefixes, parser) -> None:
    if prefixes and len(prefixes) != len(paths):
        parser.error(f"expected one --prefix per input ({len(paths)}), got {len(prefixes)}")


def _write_combined(args, config: CombineConfig, dictionaries=None) -> int:
    """Write the meta-embedding of ``args.sources`` that ``config`` asks
    for, and for mvm its provenance sidecar. Each source is planned as it
    is loaded (``combine._plan``), so only one raw input is held, and the
    union rows stream into the output."""
    ranking = functools.partial(_ranked_in_shares, workers=_io_workers(args))
    with contextlib.closing(_load_sources(args.sources, args)) as spaces:
        union, rows, provenance = _plan(spaces, config, dictionaries, ranking)
    dim = provenance["dim"]
    out = Path(args.output)
    staged = [_staged(args.output, union, dim, rows, args, args.sources[0])]
    if config.method == "mvm":
        sidecar = out.with_name(out.name + ".provenance.json")
        staged.append((sidecar, [_provenance_json(provenance).encode("utf-8")]))
    _commit_outputs(staged)
    print(f"wrote {out} ({len(union)} words, dim {dim})", file=sys.stderr)
    return 0


def _dictionaries(args, parser, count: int, target_index: int) -> list | None:
    """The --dict files, one per non-target source of ``count`` in order,
    parallel to the sources with None at the target; None without --dict."""
    if not args.dicts:
        return None
    if len(args.dicts) != count - 1:
        parser.error(
            f"expected one --dict per non-target source ({count - 1}), got {len(args.dicts)}"
        )
    dictionaries: list = []
    for path in args.dicts:
        with open(path, "rb") as handle:
            dictionaries.append(load_bilingual_dictionary(handle))
    dictionaries.insert(target_index, None)
    return dictionaries


def cmd_map(args, parser) -> int:
    paths = [args.source, args.target]
    _check_prefix_count(paths, args.prefix, parser)
    dictionaries = _dictionaries(args, parser, len(paths), 1)
    with contextlib.closing(_load_sources(paths, args)) as spaces:
        source, target = _aligned(spaces, args.prefix, 1, dictionaries)
    # The raw target is freed before the source's aligned rows stream out.
    del target
    tokens, dim = source.space.tokens, source.space.dim
    _commit_outputs([_staged(args.output, tokens, dim, source.fill(), args, args.source)])
    print(f"dictionary size: {source.info.dictionary_size}")
    print(f"residual: {source.info.residual}")
    return 0


def cmd_mvm(args, parser) -> int:
    if len(args.sources) < 2:
        parser.error("mvm needs at least two source embeddings")
    if args.target_index >= len(args.sources):
        parser.error(
            f"--target-index {args.target_index} out of range for {len(args.sources)} sources"
        )
    prefixes = args.prefix or []
    _check_prefix_count(args.sources, prefixes, parser)
    dictionaries = _dictionaries(args, parser, len(args.sources), args.target_index)
    config = CombineConfig(
        method="mvm",
        target_index=args.target_index,
        k_neighbors=args.k,
        language_prefixes=tuple(prefixes) or None,
        oov=args.oov,
    )
    return _write_combined(args, config, dictionaries)


def cmd_baseline(args, parser) -> int:
    if len(args.sources) < 2:
        parser.error("baseline needs at least two source embeddings")
    if args.method == "concat-reduce" and args.dim is None:
        parser.error("--dim is required with --method concat-reduce")
    for flag, value in ("--dim", args.dim), ("--post-remove", args.post_remove):
        if args.method != "concat-reduce" and value:
            parser.error(f"{flag} only applies to --method concat-reduce")
    prefixes = args.prefix or []
    _check_prefix_count(args.sources, prefixes, parser)
    config = CombineConfig(
        method=args.method,
        k_neighbors=args.k,
        reduce_dim=args.dim,
        post_remove=args.post_remove,
        language_prefixes=tuple(prefixes) or None,
        oov="nn" if args.nn_oov else None,
    )
    return _write_combined(args, config)


def cmd_synth_oov(args, parser) -> int:
    outputs = [Path(path).resolve() for path in (args.out1, args.out2, args.audit) if path]
    if len(set(outputs)) < len(outputs):
        parser.error("out1, out2 and --audit must name different files")
    e1, e2 = _load_sources([args.embedding1, args.embedding2], args)
    ranking = functools.partial(_ranked_in_shares, workers=_io_workers(args))
    union, fills, report = _extension(e1, e2, args.k, args.audit is not None, ranking)
    staged = [
        _staged(path, union, e1.dim, fill, args, args.embedding1)
        for path, fill in zip((args.out1, args.out2), fills)
    ]
    if args.audit is not None:
        staged.append((Path(args.audit), [format_audit_dump(report)]))
    _commit_outputs(staged)
    into_first, into_second = report.words_synthesized
    print(f"synthesized into {args.out1}: {into_first}")
    print(f"synthesized into {args.out2}: {into_second}")
    if report.shortfalls:
        logger.warning("%d word(s) had fewer than k neighbors", len(report.shortfalls))
    if report.skipped:
        logger.warning(
            "%d word(s) skipped (a zero vector, or no shared word with a direction),"
            " filled with zeros",
            len(report.skipped),
        )
    return 0


def _load_groups(path: str) -> dict[str, str]:
    """Parse 'dataset-name sim|rel' lines; '#' starts a comment. Read as
    the other text inputs are: a byte-order mark is skipped, and bytes
    that are not UTF-8 fail at their line."""
    grouping: dict[str, str] = {}
    with open(path, "rb") as handle, contextlib.closing(_numbered_lines(handle)) as lines:
        for lineno, line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2 or fields[1] not in ("sim", "rel"):
                raise ParseError("expected 'dataset-name sim|rel' in groups file", line=lineno)
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
        _commit_outputs([(Path(args.report), [report_records(summary).encode("utf-8")])])
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
        help="cap the worker processes that parse and format text and rank missing "
        "words, and the threads that fit alignments (default: one worker per usable "
        "CPU, and as many threads as OpenBLAS has; 1 runs everything in one process)",
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
                   help="principal directions to remove after reduction (concat-reduce only)")
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
        with _blas_pool(args.threads):
            return args.func(args, args.parser)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
