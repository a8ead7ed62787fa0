"""The CLI streams union rows into its outputs: ``synth-oov``, ``mvm``
and ``baseline`` write the bytes that the library functions' spaces save
to, never hold a union-sized matrix (but for concat-reduce's reduction),
and leave no file when a block of rows fails.
Alignment takes its sources one at a time: a stream gives the bits a list
gives, and no raw source outlives its normalization."""
import importlib
import itertools
import tempfile
import tracemalloc
import weakref
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from metavec import cli, embeddings
from metavec.align import MappingDictionary, align_to_target
from metavec.combine import CombineConfig, combine, combine_mvm, provenance_json
from metavec.embeddings import EmbeddingSpace, load_embeddings, save_embeddings
from metavec.oov import extend_to_union, format_audit_dump
from conftest import traced_peak

# The package exports the function ``combine`` under the module's name.
combine_module = importlib.import_module("metavec.combine")


def run_cli(argv, workers):
    """Run the CLI with ``workers`` I/O worker processes (forked when 2)."""
    with patch.object(cli, "_cpu_count", lambda: workers):
        assert cli.main(argv) == 0


@st.composite
def overlapping_sources(draw):
    """Two or three spaces of one dim that all hold "w00" and "w01", each
    with some of ten more words, in any order; some rows repeat or are 0."""
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [f"w{i:02d}" for i in range(12)]
    spaces = []
    for _ in range(draw(st.integers(2, 3))):
        extra = draw(st.lists(st.sampled_from(pool[2:]), unique=True, max_size=10))
        tokens = draw(st.permutations(pool[:2] + extra))
        matrix = rng.normal(size=(len(tokens), dim))
        for row in draw(st.lists(st.integers(0, len(tokens) - 1), max_size=2)):
            matrix[row] = matrix[0] if draw(st.booleans()) else 0.0
        spaces.append(EmbeddingSpace(tokens, matrix))
    return spaces


@settings(max_examples=25)
@given(
    overlapping_sources(),
    st.integers(1, 4),
    st.integers(8, 400),
    st.sampled_from(["text", "binary"]),
    st.sampled_from([1, 2]),
    st.sampled_from(["nn", "available", "zero"]),
)
def test_streamed_outputs_equal_the_library_spaces(
    spaces, k, block_bytes, fmt, workers, policy
):
    # Tiny budgets stream blocks of one or a few rows, and split ranking
    # and centroids into tiles and blocks of a few rows.
    with tempfile.TemporaryDirectory() as tmp, patch.object(
        embeddings, "_BLOCK_BYTES", block_bytes
    ):
        tmp = Path(tmp)
        inputs = []
        for i, space in enumerate(spaces):
            inputs.append(tmp / f"in{i}.vec")
            save_embeddings(space, inputs[-1])
        loaded = [load_embeddings(path) for path in inputs]
        common = ["--format", fmt, "--threads", str(workers)]

        out1, out2, audit = tmp / "x1", tmp / "x2", tmp / "audit"
        run_cli(["synth-oov", *map(str, inputs[:2]), str(out1), str(out2), "--k", str(k),
                 "--audit", str(audit), *common], workers)
        ext1, ext2, report = extend_to_union(*loaded[:2], k=k, record_neighbors=True)
        for streamed, space in ((out1, ext1), (out2, ext2)):
            save_embeddings(space, tmp / "expected", format=fmt)
            assert streamed.read_bytes() == (tmp / "expected").read_bytes()
        assert audit.read_bytes() == format_audit_dump(report)

        out = tmp / "meta"
        run_cli(["mvm", *map(str, inputs), "-o", str(out), "--k", str(k), "--oov", policy,
                 *common], workers)
        meta = combine_mvm(loaded, CombineConfig(method="mvm", k_neighbors=k, oov=policy))
        save_embeddings(meta.space, tmp / "expected", format=fmt)
        assert out.read_bytes() == (tmp / "expected").read_bytes()
        sidecar = tmp / "meta.provenance.json"
        assert sidecar.read_text(encoding="utf-8") == provenance_json(meta)

        methods = ["average", "concat", "concat-reduce"]
        for method, nn_oov in itertools.product(methods, [False, True]):
            # Every source has a dim of at least 1, so a concatenation has 2 or more.
            reduce = ["--dim", "2", "--post-remove", "1"] if method == "concat-reduce" else []
            nn = ["--nn-oov"] if nn_oov else []
            run_cli(["baseline", *map(str, inputs), "-o", str(out), "--method", method,
                     "--k", str(k), *nn, *reduce, *common], workers)
            config = CombineConfig(
                method=method, k_neighbors=k, oov="nn" if nn_oov else None,
                reduce_dim=2 if reduce else None, post_remove=1 if reduce else 0,
            )
            save_embeddings(combine(loaded, config).space, tmp / "expected", format=fmt)
            assert out.read_bytes() == (tmp / "expected").read_bytes()


@pytest.mark.parametrize("fmt", ["text", "binary"])
@pytest.mark.parametrize("workers", [1, 2])
def test_overflowing_centroid_fails_and_leaves_no_file(tmp_path, monkeypatch, capsys,
                                                       fmt, workers):
    # "x" is missing from e2; its neighbors in e1 are s0 and s1, whose e2
    # rows sum past the float64 range. One row per block, so e2's extension
    # has written "a" before it reaches "x", and fails before s0 would fail
    # the binary writer's single-precision check.
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 8 * 2)
    e1, e2 = tmp_path / "e1.vec", tmp_path / "e2.vec"
    e1.write_bytes(b"a -1 0\nx 1 0.1\ns0 1 0\ns1 1 0.2\n")
    e2.write_bytes(b"a 1 1\ns0 1e308 1\ns1 1e308 1\n")
    out1, out2 = tmp_path / "x1.out", tmp_path / "x2.out"
    monkeypatch.setattr(cli, "_cpu_count", lambda: workers)
    argv = ["synth-oov", str(e1), str(e2), str(out1), str(out2), "--k", "2", "--format", fmt]
    # numpy's overflow warning is silenced: the finiteness check is tested.
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="matrix contains non-finite values"):
            extend_to_union(load_embeddings(e1), load_embeddings(e2), k=2)
        assert cli.main(argv) == 1
    assert "error: matrix contains non-finite values" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e1.vec", "e2.vec"]


def binary_file(path, tokens, matrix):
    save_embeddings(EmbeddingSpace(tokens, matrix), path, format="binary")


def test_synth_oov_never_holds_a_union_matrix(tmp_path, monkeypatch):
    # Two spaces of 1600 words share 100: a union of 3100 words, 14.9 MB of
    # float64 rows per output at 600 dims. Ranking one space's 1500 missing
    # words holds the float32 unit rows of one block of 27 of them, one tile
    # of candidates and one tile of scores, each within 64 KiB; writing
    # holds one 64 KiB block.
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 64 << 10)
    rng = np.random.default_rng(5)
    shared = [f"s{i:03d}" for i in range(100)]
    e1, e2 = tmp_path / "e1.bin", tmp_path / "e2.bin"
    for path, own in ((e1, "a"), (e2, "b")):
        tokens = shared + [f"{own}{i:04d}" for i in range(1500)]
        binary_file(path, tokens, rng.normal(size=(len(tokens), 600)))
    argv = ["synth-oov", str(e1), str(e2), str(tmp_path / "x1.bin"), str(tmp_path / "x2.bin"),
            "--threads", "1"]
    code, peak = traced_peak(cli.main, argv)
    assert code == 0
    inputs = 2 * 1600 * 600 * 8
    union = 3100 * 600 * 8
    assert peak < inputs + union * 4 / 5


@pytest.mark.parametrize("method", [["average", "--nn-oov"], ["concat"]])
def test_baseline_never_holds_a_union_matrix(tmp_path, monkeypatch, method):
    # Three spaces of 1600 words share 100: a union of 4600 words, 11 MB of
    # float64 rows at 300 dims for an average, 33 MB for a concatenation.
    # The run holds the unit-row copies of the inputs (11.5 MB), with one
    # float32 input beside them while it is scaled; on top of them come the
    # union plan, ranking's blocks and tiles, and one 64 KiB block of rows.
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 64 << 10)
    rng = np.random.default_rng(7)
    shared = [f"s{i:03d}" for i in range(100)]
    paths = []
    for n in range(3):
        paths.append(tmp_path / f"e{n}.bin")
        tokens = shared + [f"{n}w{i:04d}" for i in range(1500)]
        binary_file(paths[-1], tokens, rng.normal(size=(len(tokens), 300)))
    argv = ["baseline", *map(str, paths), "-o", str(tmp_path / "m.bin"), "--method", *method,
            "--k", "2", "--threads", "1"]
    code, peak = traced_peak(cli.main, argv)
    assert code == 0
    units = 3 * 1600 * 300 * 8
    union = 4600 * 300 * 8
    assert peak < units + union / 2


def test_concat_reduce_fits_with_only_the_concatenation_held(tmp_path, monkeypatch):
    # Three spaces of 600 words share 100: 1600 words, 11.5 MB of
    # concatenated float64 rows at 3 x 300 dims. The unit-row copies of the
    # inputs (4.3 MB) that made it are freed before the reduction is fitted.
    rng = np.random.default_rng(8)
    shared = [f"s{i:03d}" for i in range(100)]
    paths = []
    for n in range(3):
        paths.append(tmp_path / f"e{n}.bin")
        tokens = shared + [f"{n}w{i:03d}" for i in range(500)]
        binary_file(paths[-1], tokens, rng.normal(size=(len(tokens), 300)))
    held = []
    fit_reduction = combine_module.fit_reduction

    def measured(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return fit_reduction(*args, **kwargs)

    monkeypatch.setattr(combine_module, "fit_reduction", measured)
    argv = ["baseline", *map(str, paths), "-o", str(tmp_path / "m.bin"),
            "--method", "concat-reduce", "--dim", "100", "--threads", "1"]
    code, _ = traced_peak(cli.main, argv)
    assert code == 0
    concat = 1600 * 900 * 8
    units = 3 * 600 * 300 * 8
    assert held[0] < concat + units / 4


def test_mvm_never_holds_a_union_matrix_after_alignment(tmp_path, monkeypatch):
    # Eight spaces of 800 words share 200: a union of 5000 words, 12 MB of
    # float64 rows at 300 dims. Alignment sets the run's peak; from the
    # union plan on, the aligned spaces are held, and on top of them
    # ranking holds one block of one space's 600 missing words' unit rows
    # next to one tile of candidates and one of scores, the plans hold
    # k = 2 rows per missing word, and writing holds one 64 KiB block.
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 64 << 10)
    rng = np.random.default_rng(6)
    shared = [f"s{i:03d}" for i in range(200)]
    paths = []
    for n in range(8):
        paths.append(tmp_path / f"e{n}.bin")
        tokens = shared + [f"{n}w{i:03d}" for i in range(600)]
        binary_file(paths[-1], tokens, rng.normal(size=(len(tokens), 300)))
    held = []
    union_rows = combine_module._union_rows

    def measured(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return union_rows(*args, **kwargs)

    monkeypatch.setattr(combine_module, "_union_rows", measured)
    argv = ["mvm", *map(str, paths), "-o", str(tmp_path / "m.bin"), "--k", "2", "--threads", "1"]
    code, peak = traced_peak(cli.main, argv)
    assert code == 0
    union = 5000 * 300 * 8
    assert peak - held[0] < union / 2


def four_sources():
    """Four spaces of 6 dims over overlapping vocabularies of 30 words,
    each with 6 words of its own, and a dictionary of 12 words that all
    four hold."""
    rng = np.random.default_rng(11)
    spaces = []
    for n in range(4):
        tokens = [f"w{i:02d}" for i in range(3 * n, 3 * n + 24)] + [f"{n}o{i}" for i in range(6)]
        spaces.append(EmbeddingSpace(tokens, rng.normal(size=(30, 6)), meta=f"s{n}"))
    pairs = MappingDictionary((f"w{i:02d}", f"w{i:02d}") for i in range(9, 21))
    return spaces, pairs


def stream(spaces, alive, target):
    """Yield a fresh copy of each space; once the copy at ``target`` has
    been yielded, check before each copy that every copy yielded before it
    has been freed (the ones before the target are held raw until it
    arrives). ``alive`` gets a weak reference to each copy's matrix."""
    for n, space in enumerate(spaces):
        assert n <= target or all(ref() is None for ref in alive)
        copy = [EmbeddingSpace(space.tokens, space.matrix, meta=space.meta)]
        alive.append(weakref.ref(copy[0].matrix))
        yield copy.pop()  # popped, so this frame holds no reference


def same_space(a, b):
    return a.tokens == b.tokens and a.matrix.tobytes() == b.matrix.tobytes() and a.meta == b.meta


@pytest.mark.parametrize("target", [0, 3])
def test_a_stream_aligns_as_a_list_and_frees_each_raw_source(target):
    spaces, pairs = four_sources()
    dictionaries = [None if i == target else pairs for i in range(4)]
    dictionaries[1 if target else 2] = None  # one source anchors on the intersection
    listed = align_to_target(spaces, target, dictionaries)
    alive = []
    streamed = align_to_target(stream(spaces, alive, target), target, dictionaries)
    assert len(alive) == 4 and alive[-1]() is None
    assert streamed.target is streamed.mapped[target]
    assert all(same_space(a, b) for a, b in zip(listed.mapped, streamed.mapped))
    assert [m.matrix.tobytes() for m in listed.maps] == [m.matrix.tobytes() for m in streamed.maps]
    assert listed.infos == streamed.infos


@pytest.mark.parametrize("target", [0, 3])
def test_a_stream_combines_as_a_list(target):
    spaces, pairs = four_sources()
    config = CombineConfig(
        method="mvm", target_index=target, k_neighbors=3,
        language_prefixes=("en:", "de:", "en:", "fr:"),
    )
    dictionaries = [None if i == target else pairs for i in range(4)]
    listed = combine_mvm(spaces, config, dictionaries)
    alive = []
    # mvm holds every source as it arrived until the union rows are made
    # from them (``combine._mean``), so the stream checks no freeing; none
    # is held once the meta-embedding is made.
    streamed = combine_mvm(stream(spaces, alive, len(spaces)), config, dictionaries)
    assert len(alive) == 4 and all(ref() is None for ref in alive)
    assert same_space(listed.space, streamed.space)
    assert provenance_json(listed) == provenance_json(streamed)
    assert listed.provenance["synthesized"] != [0, 0, 0, 0]


@pytest.mark.parametrize(
    "dims, dictionaries, error, pulled",
    [([3, 4, 3, 3], None, "share one dim", [0, 1]),
     ([3, 3, 3, 3], [None, None], "parallel", [0, 1, 2])],
)
def test_checks_run_as_the_sources_arrive(make_space, dims, dictionaries, error, pulled):
    seen = []

    def sources():
        for n, dim in enumerate(dims):
            seen.append(n)
            yield make_space(n=5, dim=dim, seed=n)

    with pytest.raises(ValueError, match=error):
        align_to_target(sources(), dictionaries=dictionaries)
    assert seen == pulled


@pytest.mark.parametrize("count", [2, 4])
def test_prefixes_must_be_parallel_to_a_stream(make_space, count):
    words = MappingDictionary((f"w{i:03d}", f"w{i:03d}") for i in range(5))
    config = CombineConfig(method="mvm", language_prefixes=("a:", "b:", "c:"))
    spaces = (make_space(n=5, dim=3, seed=n) for n in range(count))
    with pytest.raises(ValueError, match="language_prefixes must be parallel"):
        combine_mvm(spaces, config, [None, words, words])


@pytest.mark.parametrize("target", ["0", "5"])
def test_mvm_holds_one_raw_source_at_a_time(tmp_path, monkeypatch, target):
    # Six sources of 1500 words share 1200: 7.2 MB of float64 rows at 100
    # dims, the size of the aligned spaces the run must hold. Loading a list
    # held every raw source besides them, 2.65 times the inputs in all; now
    # only the source being fitted comes on top (raw, then normalized, and
    # its gathered anchors), with the maps: 1.6 times.
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 64 << 10)
    rng = np.random.default_rng(9)
    shared = [f"s{i:04d}" for i in range(1200)]
    paths = []
    for n in range(6):
        paths.append(tmp_path / f"e{n}.bin")
        tokens = shared + [f"{n}w{i:03d}" for i in range(300)]
        binary_file(paths[-1], tokens, rng.normal(size=(len(tokens), 100)))
    argv = ["mvm", *map(str, paths), "-o", str(tmp_path / "m.bin"), "--k", "2",
            "--target-index", target, "--threads", "1"]
    code, peak = traced_peak(cli.main, argv)
    assert code == 0
    inputs = 6 * 1500 * 100 * 8
    assert peak - inputs < inputs * 3 / 4
