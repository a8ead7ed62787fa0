"""The CLI's worker processes: text inputs parsed, outputs made and
encoded and missing words ranked in forked children must give the bytes,
messages and warnings of the in-process path, and leave nothing behind on
failure.

The CPU count is patched to 3, so the worker path runs on a one-CPU host
too; ``--threads 1`` selects the in-process path."""
import contextlib
import importlib
import logging
import os
import signal
import time
import types
import weakref

import numpy as np
import pytest

from metavec import cli, embeddings, linalg, oov
from metavec.cli import _forked_map, main
from metavec.embeddings import EmbeddingSpace, ParseError, save_embeddings

combine = importlib.import_module("metavec.combine")

DIM = 4


@pytest.fixture
def forks(monkeypatch):
    """Three usable CPUs, blocks of two rows, and the pids of every child
    the CLI forks."""
    monkeypatch.setattr(cli, "_cpu_count", lambda: 3)
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 8 * DIM * 2)
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def spy(monkeypatch, module, name, path, record):
    """Wrap ``module.name`` so that each call, in this process or in a
    forked child (which inherits the wrapper), appends the caller's pid and
    ``record(*args)`` to ``path``. Return a function that reads back the
    calls so far as (pid, record) pairs and forgets them."""
    real = getattr(module, name)

    def spied(*args):
        with open(path, "a") as log:
            log.write(f"{os.getpid()} {record(*args)}\n")
        return real(*args)

    def calls():
        lines = path.read_text().splitlines() if path.exists() else []
        path.unlink(missing_ok=True)
        return [tuple(int(field) for field in line.split()) for line in lines]

    monkeypatch.setattr(module, name, spied)
    return calls


def binary_bytes(tokens, matrix):
    """The binary format, written without the writer's token check."""
    rows = [t.encode("utf-8") + b" " + r.astype("<f4").tobytes() for t, r in zip(tokens, matrix)]
    return f"{len(tokens)} {matrix.shape[1]}\n".encode("ascii") + b"".join(rows)


@pytest.fixture
def sources(tmp_path):
    """Three overlapping spaces on disk, two text and one binary. Some
    values are tiny or huge, so 17-digit output needs the positional
    formatter for values ``repr`` writes with an exponent."""
    rng = np.random.default_rng(8)
    paths = {}
    for name, first, n in (("a.vec", 0, 11), ("b.vec", 4, 9), ("c.bin", 2, 8)):
        matrix = rng.normal(size=(n, DIM))
        matrix[::3, 0] *= 1e-6
        matrix[1::4, 1] *= 1e17
        path = tmp_path / name
        save_embeddings(EmbeddingSpace([f"w{first + i:02d}" for i in range(n)], matrix), path)
        paths[name] = str(path)
    return paths


def run_both(tmp_path, forks, argv, outputs):
    """Run ``argv`` in process (``--threads 1``) and with three workers;
    return both runs' output bytes."""
    results = []
    for tag, extra in (("serial", ["--threads", "1"]), ("forked", [])):
        paths = [str(tmp_path / f"{tag}.{name}") for name in outputs]
        args = [a.format(*paths) for a in argv]
        before = len(forks)
        assert main(args + extra) == 0
        assert (len(forks) > before) == (tag == "forked")
        results.append([(tmp_path / f"{tag}.{name}").read_bytes() for name in outputs])
    return results


CASES = {
    "mvm-text": (["mvm", "a.vec", "b.vec", "-o", "{0}"], ["m.vec", "m.vec.provenance.json"]),
    "mvm-binary-out": (["mvm", "a.vec", "b.vec", "-o", "{0}", "--format", "binary"],
                       ["m.bin", "m.bin.provenance.json"]),
    "mvm-mixed-inputs": (["mvm", "c.bin", "a.vec", "b.vec", "-o", "{0}", "--format", "text"],
                         ["m.vec", "m.vec.provenance.json"]),
    "mvm-precision-8": (["mvm", "a.vec", "b.vec", "-o", "{0}", "--precision", "8"],
                        ["m.vec", "m.vec.provenance.json"]),
    "baseline-concat": (["baseline", "a.vec", "b.vec", "-o", "{0}", "--method", "concat",
                         "--nn-oov"], ["c.vec"]),
    "synth-oov": (["synth-oov", "a.vec", "b.vec", "{0}", "{1}", "--audit", "{2}"],
                  ["x1.vec", "x2.vec", "audit.tsv"]),
    "synth-oov-binary-in": (["synth-oov", "c.bin", "b.vec", "{0}", "{1}", "--format", "text"],
                            ["x1.vec", "x2.vec"]),
    "map": (["map", "a.vec", "b.vec", "-o", "{0}"], ["m.vec"]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_worker_outputs_equal_in_process_outputs(case, sources, tmp_path, forks):
    argv, outputs = CASES[case]
    argv = [sources.get(a, a) for a in argv]
    serial, forked = run_both(tmp_path, forks, argv, outputs)
    assert forked == serial
    if case in ("baseline-concat", "synth-oov"):
        # These outputs keep the tiny and huge input values (scaled, for
        # concat), which repr would write with an exponent.
        text = [b for name, b in zip(outputs, serial) if name.endswith(".vec")]
        assert all(b"e" not in t for t in text)
        assert all(b".000000" in t for t in text)


def test_block_count_is_a_multiple_of_the_workers(sources, tmp_path, forks, monkeypatch):
    # The aligned rows' grid has the blocks' two rows, as their budgets
    # are equal outside tests.
    monkeypatch.setattr(linalg, "_PRODUCT_BYTES", 8 * DIM * 2)
    blocks = spy(monkeypatch, embeddings, "_text_rows", tmp_path / "blocks",
                 lambda tokens, block, precision: len(tokens))
    out = tmp_path / "m.vec"
    assert main(["map", sources["b.vec"], sources["a.vec"], "-o", str(out)]) == 0
    # Two text inputs, then 9 rows of at most two per block: ceil(9 / 2) = 5
    # blocks, rounded up to 6, cut between the grid's blocks of two rows,
    # made by three children, one per worker.
    made = blocks()
    assert len(made) == 6
    assert sum(rows for _, rows in made) == 9
    assert max(rows for _, rows in made) == 2
    assert len(forks) == 2 + 3
    assert {pid for pid, _ in made} == set(forks[2:])


def test_bad_line_in_second_text_source_keeps_its_line_number(sources, tmp_path, forks,
                                                              capsys):
    bad = tmp_path / "bad.vec"
    bad.write_bytes(b"2 2\nx 1.0 2.0\ny 1.0 zwei\n")
    messages = []
    for extra in (["--threads", "1"], []):
        out = tmp_path / "m.vec"
        assert main(["mvm", sources["a.vec"], str(bad), "-o", str(out), *extra]) == 1
        assert not out.exists()
        messages.append(capsys.readouterr().err)
    assert forks
    assert messages[0] == messages[1]
    assert "line 3: malformed number" in messages[1]


def test_bad_last_text_source_leaves_nothing(sources, tmp_path, forks, capsys):
    # The first two sources are aligned while the workers parse the last.
    bad = tmp_path / "bad.vec"
    bad.write_bytes(b"w00 1 2 3 4\nw01 1 2 3\n")
    out = tmp_path / "m.vec"
    argv = ["mvm", sources["a.vec"], sources["b.vec"], str(bad), "-o", str(out)]
    assert main(argv) == 1
    assert "line 2: expected 4 values, found 3" in capsys.readouterr().err
    assert len(forks) == 3
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp.*"))


def test_loaded_sources_are_held_by_the_caller_alone(sources, forks):
    paths = [sources["a.vec"], sources["c.bin"], sources["b.vec"]]
    loaded = cli._load_sources(paths, types.SimpleNamespace(threads=None))
    with contextlib.closing(loaded):
        for space in loaded:
            matrix = weakref.ref(space.matrix)
            del space
            assert matrix() is None
    assert len(forks) == 2


def test_failed_alignment_stops_the_workers(sources, tmp_path, forks):
    # The second source's dim fails alignment while a worker still holds
    # the third; the traceback in ``info`` still holds the loader's
    # stream, so only an explicit close has reaped that worker by now.
    wrong = tmp_path / "wrong.vec"
    wrong.write_bytes(b"w00 1 2 3\nw01 1 2 4\n")
    args = cli.build_parser().parse_args(
        ["mvm", sources["a.vec"], str(wrong), sources["b.vec"], "-o", str(tmp_path / "m.vec")]
    )
    with pytest.raises(ValueError, match="share one dim") as info:
        args.func(args, args.parser)
    assert len(forks) == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert info.traceback


def test_whitespace_token_in_last_block_leaves_nothing(tmp_path, forks, capsys):
    rng = np.random.default_rng(3)
    e1, e2 = tmp_path / "e1.bin", tmp_path / "e2.bin"
    e1.write_bytes(binary_bytes([f"w{i}" for i in range(9)], rng.normal(size=(9, DIM))))
    tokens = [f"w{i}" for i in range(3, 12)] + ["z\tz"]
    e2.write_bytes(binary_bytes(tokens, rng.normal(size=(10, DIM))))
    out1, out2 = tmp_path / "x1.vec", tmp_path / "x2.vec"
    out1.write_bytes(b"kept\n")
    argv = ["synth-oov", str(e1), str(e2), str(out1), str(out2), "--format", "text"]
    assert main(argv) == 1
    assert "contains whitespace" in capsys.readouterr().err
    # Binary inputs parse in process; the 13-word output's nine blocks are
    # made by three children.
    assert len(forks) == 3
    assert out1.read_bytes() == b"kept\n"
    assert not out2.exists()
    assert not list(tmp_path.glob("*.tmp.*"))


def test_failed_later_output_keeps_existing_files(sources, tmp_path, forks, capsys):
    out1 = tmp_path / "x1.vec"
    out1.write_bytes(b"kept\n")
    out2 = tmp_path / "missing" / "x2.vec"
    argv = ["synth-oov", sources["a.vec"], sources["b.vec"], str(out1), str(out2)]
    assert main(argv) == 1
    assert "No such file or directory" in capsys.readouterr().err
    assert out1.read_bytes() == b"kept\n"
    assert not list(tmp_path.glob("*.tmp.*"))


def test_failed_write_stops_the_workers(tmp_path):
    def work(x):
        if x:
            time.sleep(60)
        return "text, not bytes"

    out = tmp_path / "out.vec"
    started = time.monotonic()
    with pytest.raises(TypeError) as info:
        cli._commit_outputs([(out, _forked_map(work, range(3), 2))])
    # The traceback in ``info`` still holds the generator, so only an
    # explicit close has stopped its workers by now.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert info.traceback
    assert time.monotonic() - started < 30
    assert not list(tmp_path.iterdir())


def test_duplicate_warnings_arrive_once_in_source_order(tmp_path, forks, caplog):
    first, second = tmp_path / "s1.vec", tmp_path / "s2.vec"
    first.write_bytes(b"a 1 0\nb 0 1\na 1 1\nc 1 2\n")
    second.write_bytes(b"b 1 0\nc 0 1\nc 1 1\nd 2 1\nd 3 1\n")
    caplog.set_level(logging.WARNING)
    assert main(["mvm", str(first), str(second), "-o", str(tmp_path / "m.vec")]) == 0
    assert forks
    dropped = [r.getMessage() for r in caplog.records if "duplicate" in r.getMessage()]
    assert dropped == [
        "dropped 1 duplicate token(s), kept first occurrence",
        "dropped 2 duplicate token(s), kept first occurrence",
    ]
    assert all(r.name == "metavec.embeddings" for r in caplog.records if "duplicate" in r.msg)


class TestForkedMap:
    def test_results_in_item_order(self):
        got = list(_forked_map(lambda x: (x * x, os.getpid()), range(7), 3))
        assert [value for value, _ in got] == [x * x for x in range(7)]
        assert os.getpid() not in {pid for _, pid in got}

    @pytest.mark.parametrize("items, workers", [(7, 3), (2, 3), (4, 2), (0, 3)])
    def test_one_child_per_worker_takes_every_workers_th_item(self, forks, items, workers):
        pids = list(_forked_map(lambda x: os.getpid(), range(items), workers))
        assert forks == pids[:workers]
        assert pids == [forks[j % workers] for j in range(items)]

    def test_each_child_starts_on_its_own_cpu(self, tmp_path, monkeypatch):
        # Set to one CPU, then given back the whole set, in each child.
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity here")
        cpus = sorted(os.sched_getaffinity(0))
        calls = spy(monkeypatch, os, "sched_setaffinity", tmp_path / "calls",
                    lambda pid, chosen: " ".join(map(str, [pid, *sorted(chosen)])))
        pids = list(_forked_map(lambda x: os.getpid(), range(5), 3))
        seen = {}
        for pid, *chosen in calls():
            seen.setdefault(pid, []).append(chosen)
        assert seen == {
            pid: [[0, cpus[w % len(cpus)]], [0, *cpus]] for w, pid in enumerate(pids[:3])
        }

    def test_children_run_without_cpu_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        assert list(_forked_map(lambda x: x + 1, range(4), 2)) == [1, 2, 3, 4]

    def test_one_worker_runs_in_process(self):
        assert list(_forked_map(lambda x: os.getpid(), range(3), 1)) == [os.getpid()] * 3

    def test_child_exception_is_reraised_with_its_attributes(self):
        def parse(x):
            if x == 2:
                raise ParseError("malformed number", line=7)
            return x

        results = _forked_map(parse, range(5), 2)
        assert [next(results), next(results)] == [0, 1]
        with pytest.raises(ParseError) as info:
            next(results)
        assert info.value.line == 7
        assert str(info.value) == "line 7: malformed number"

    @pytest.mark.parametrize("failing", [0, 3, 4])
    def test_exception_arrives_after_the_items_before_it(self, failing):
        def fail_at(x):
            if x == failing:
                raise ValueError(f"item {x}")
            return x

        got = []
        with pytest.raises(ValueError, match=f"item {failing}"):
            for value in _forked_map(fail_at, range(6), 2):
                got.append(value)
        assert got == list(range(failing))

    def test_log_records_arrive_with_their_items_in_item_order(self, caplog):
        def noisy(x):
            time.sleep(0.02 * (x % 3 == 0))  # the first child falls behind
            logging.getLogger("metavec.cli").warning("item %d", x)
            return x

        caplog.set_level(logging.WARNING)
        for x in _forked_map(noisy, range(7), 3):
            assert [r.getMessage() for r in caplog.records] == [f"item {i}" for i in range(x + 1)]

    def test_dead_worker_is_an_error(self):
        test = os.getpid()

        def die(x):
            if os.getpid() == test:  # never kill the test runner
                pytest.fail("an item ran in the calling process")
            os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(ChildProcessError, match="status -9"):
            list(_forked_map(die, range(3), 2))

    def test_worker_dying_mid_stream_is_an_error(self):
        test = os.getpid()

        def die_at_three(x):
            if x == 3 and os.getpid() != test:
                os.kill(os.getpid(), signal.SIGKILL)
            return x

        results = _forked_map(die_at_three, range(6), 2)
        assert [next(results) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(ChildProcessError, match="status -9"):
            next(results)

    def test_close_kills_running_children(self):
        def slow(x):
            if x:
                time.sleep(60)
            return x

        started = time.monotonic()
        results = _forked_map(slow, range(4), 3)
        assert next(results) == 0
        results.close()
        assert time.monotonic() - started < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def binary_sources(tmp_path):
    """Three binary spaces of 24 of 32 words, each lacking its own 8."""
    rng = np.random.default_rng(12)
    paths = {}
    for n in range(3):
        tokens = [f"w{i:02d}" for i in range(32) if i // 8 != n]
        path = tmp_path / f"s{n}.bin"
        path.write_bytes(binary_bytes(tokens, rng.normal(size=(len(tokens), DIM))))
        paths[path.name] = str(path)
    return paths


RANKED = {
    "mvm": (["mvm", "s0.bin", "s1.bin", "s2.bin", "-o", "{0}"], ["m.bin", "m.bin.provenance.json"]),
    "synth-oov": (["synth-oov", "s0.bin", "s1.bin", "{0}", "{1}", "--audit", "{2}"],
                  ["x1.bin", "x2.bin", "audit.tsv"]),
    "baseline-nn-oov": (["baseline", "s0.bin", "s1.bin", "s2.bin", "-o", "{0}",
                         "--method", "average", "--nn-oov"], ["a.bin"]),
}
# The binary outputs of each case.
OUTPUTS = {"mvm": 1, "synth-oov": 2, "baseline-nn-oov": 1}


@pytest.mark.parametrize("case", sorted(RANKED))
def test_ranking_split_between_processes_writes_the_bytes_of_one(case, tmp_path, forks,
                                                                  monkeypatch):
    # With no floor on a share's pairs, the rankings split three ways, one
    # child per share; each binary output's blocks are made by three
    # children. Binary inputs fork nothing.
    monkeypatch.setattr(cli, "_SHARE_PAIRS", 0)
    argv, outputs = RANKED[case]
    sources = binary_sources(tmp_path)
    serial, forked = run_both(tmp_path, forks, [sources.get(a, a) for a in argv], outputs)
    assert forked == serial
    assert len(forks) == 3 + 3 * OUTPUTS[case]


@pytest.mark.parametrize("fmt", ["vec", "bin"])
def test_each_union_row_is_made_once(fmt, tmp_path, forks, monkeypatch):
    # Blocks of five rows, on a union grid of three words: the output's
    # blocks are cut between grid blocks, so no two workers make one.
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 8 * DIM * 5)
    monkeypatch.setattr(linalg, "_PRODUCT_BYTES", 8 * 3 * DIM * 3)
    sources = binary_sources(tmp_path)
    made = spy(monkeypatch, combine, "_mean_rows", tmp_path / "made",
               lambda sources, table, *rest: table.shape[1])
    outputs = []
    for workers in 3, 2, 1:
        monkeypatch.setattr(cli, "_cpu_count", lambda: workers)
        out = tmp_path / f"m{workers}.{fmt}"
        assert main(["mvm", *sorted(sources.values()), "-o", str(out)]) == 0
        rows = made()
        assert sum(count for _, count in rows) == 32
        assert (os.getpid() in {pid for pid, _ in rows}) == (workers == 1)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


class TestSplitRanking:
    """synth-oov on binary sources, its rankings split three ways, one
    child per share, with a fault in ``oov._rank`` in this process or in
    the children."""

    @pytest.fixture
    def argv(self, tmp_path, forks, monkeypatch):
        monkeypatch.setattr(cli, "_SHARE_PAIRS", 0)
        sources = binary_sources(tmp_path)
        return ["synth-oov", sources["s0.bin"], sources["s1.bin"],
                str(tmp_path / "x1.bin"), str(tmp_path / "x2.bin")]

    @staticmethod
    def fault(monkeypatch, here, child):
        """Call ``here()`` before each ranking in this process and
        ``child()`` before each in a child, in place of any fault before."""
        parent = os.getpid()
        rank = getattr(oov._rank, "__wrapped__", oov._rank)

        def faulty(*args):
            (here if os.getpid() == parent else child)()
            return rank(*args)

        faulty.__wrapped__ = rank
        monkeypatch.setattr(oov, "_rank", faulty)

    @staticmethod
    def assert_nothing_left(tmp_path):
        """No output or temporary file, and every child reaped."""
        assert not list(tmp_path.glob("x*"))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def fail():
        raise ValueError("cannot rank")

    @staticmethod
    def carry_on():
        pass

    def test_child_exception_ends_the_command_as_in_process(self, argv, tmp_path, forks,
                                                            monkeypatch, capsys):
        messages = []
        in_process = (["--threads", "1"], self.fail, None)
        for extra, here, child in (in_process, ([], self.carry_on, self.fail)):
            self.fault(monkeypatch, here, child)
            assert main(argv + extra) == 1
            messages.append(capsys.readouterr().err)
        assert len(forks) == 3
        assert messages[0] == messages[1]
        assert "error: cannot rank" in messages[1]
        self.assert_nothing_left(tmp_path)

    def test_killed_child_is_an_error(self, argv, tmp_path, forks, monkeypatch, capsys):
        self.fault(monkeypatch, self.carry_on, lambda: os.kill(os.getpid(), signal.SIGKILL))
        assert main(argv) == 1
        assert "exited with status -9" in capsys.readouterr().err
        assert len(forks) == 3
        self.assert_nothing_left(tmp_path)

    def test_exception_in_first_child_kills_the_others(self, argv, tmp_path, forks,
                                                       monkeypatch, capsys):
        # A child's copy of ``forks`` holds the children forked before it.
        self.fault(monkeypatch, self.carry_on,
                   lambda: self.fail() if not forks else time.sleep(60))
        started = time.monotonic()
        assert main(argv) == 1
        assert time.monotonic() - started < 30
        assert "error: cannot rank" in capsys.readouterr().err
        assert len(forks) == 3
        self.assert_nothing_left(tmp_path)

    def test_this_process_ranks_nothing(self, argv, tmp_path, forks, monkeypatch):
        self.fault(monkeypatch, self.fail, self.carry_on)
        assert main(argv) == 0
        # Three ranking children, and three for each output's blocks.
        assert len(forks) == 3 + 3 + 3

    def test_this_process_makes_no_output_block(self, argv, tmp_path, forks, monkeypatch):
        parent, binary_rows = os.getpid(), embeddings._binary_rows

        def faulty(*args):
            if os.getpid() == parent:
                self.fail()
            return binary_rows(*args)

        monkeypatch.setattr(embeddings, "_binary_rows", faulty)
        assert main(argv) == 0
        assert len(forks) == 3 + 3 + 3
