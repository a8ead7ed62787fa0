"""mvm's aligned rows are made only in the union fill: ranked before the
map, averaged before the map, and mapped on a fixed grid of union
positions. The fill's bytes against whole fills and a per-grid-block
oracle; the source-order fills of ``map``, ``normalize_step0`` and
``apply_map`` cut anywhere against whole fills; ranking that reads no
map; the memory held while ranking; and the threaded blocks of the fit
against serial ones."""
import functools
import importlib
import threading
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from metavec import cli, embeddings, linalg
from metavec.align import OrthogonalMap, _fitted
from metavec.combine import CombineConfig, combine_mvm
from metavec.embeddings import EmbeddingSpace, parse_binary_embeddings, write_binary_embeddings
from oracles import mvm_union

combine = importlib.import_module("metavec.combine")


@st.composite
def sources(draw):
    """Two or three sources over a vocabulary of up to 24 words: each holds
    the first six words, so that it aligns to source 0, and a random
    subset of the rest in random order; some rows are copies of one row."""
    dim = draw(st.sampled_from([2, 5, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = [f"w{i:02d}" for i in range(draw(st.integers(8, 24)))]
    spaces = []
    for _ in range(draw(st.integers(2, 3))):
        rest = draw(st.lists(st.sampled_from(words[6:]), unique=True))
        tokens = draw(st.permutations(words[:6] + rest))
        matrix = rng.normal(size=(len(tokens), dim))
        twins = draw(st.lists(st.integers(0, len(tokens) - 1), max_size=3))
        matrix[twins] = matrix[0]
        spaces.append(EmbeddingSpace(tokens, matrix))
    return spaces


def text_chunks(tokens, dim, rows, workers):
    """The 17-digit text file ``_chunks`` writes of ``rows`` (a matrix or a
    fill), made by ``workers`` forked workers as the CLI makes them."""
    forked = functools.partial(cli._forked_map, workers=workers)
    return b"".join(embeddings._chunks(tokens, dim, rows, "text", 17, workers, forked))


@settings(max_examples=60)
@given(
    sources(),
    st.integers(1, 3),
    st.sampled_from(["nn", "available", "zero"]),
    st.sampled_from([1, 800, 4000, 1 << 20]),
    st.data(),
)
def test_fill_bytes_do_not_depend_on_tiling_workers_or_blas_threads(
    sources, k, policy, product_bytes, data
):
    # Small budgets cut the union into grid blocks of one or a few words.
    config = CombineConfig(method="mvm", k_neighbors=k, oov=policy)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_PRODUCT_BYTES", product_bytes)
        union, fill, provenance = combine._plan(sources, config)
        dim = provenance["dim"]
        whole = np.empty((len(union), dim))
        fill(whole, 0, len(union))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(union)), max_size=4)))
        bounds = [0, *cuts, len(union)]
        for threads in (1, 2):
            with linalg._blas_threads(threads):
                pieces = []
                for start, stop in zip(bounds, bounds[1:]):
                    pieces.append(np.empty((stop - start, dim)))
                    fill(pieces[-1], start, stop)
                assert np.concatenate(pieces).tobytes() == whole.tobytes()
                expected = text_chunks(union, dim, whole, 1)
                for workers in (1, 2):
                    assert text_chunks(union, dim, fill, workers) == expected
        grid = max(1, product_bytes // (8 * len(sources) * dim))
        tokens, oracle, _ = mvm_union(sources, k, grid, policy)
    assert union == tokens
    assert whole.tobytes() == oracle.tobytes()


def random_orthogonal(dim, seed):
    return OrthogonalMap(np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))[0])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 40),
    st.sampled_from([5, 16]),
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 40), max_size=5),
)
def test_source_order_fills_cut_anywhere_give_the_whole_fills(count, dim, block, seed, cuts):
    # Grid blocks of ``block`` rows, in runs of one row and in runs cut at
    # random: a product over only a run's rows of a block can round its
    # rows otherwise (one row is a matrix-vector product to BLAS).
    rng = np.random.default_rng(seed)
    tokens = [f"w{i:02d}" for i in range(count)]
    space = EmbeddingSpace(tokens, rng.normal(size=(count, dim)))
    target = EmbeddingSpace(tokens, rng.normal(size=(count, dim)))
    omap = random_orthogonal(dim, seed)

    def mapped(at, out):
        np.matmul(space.matrix[at], omap.matrix, out=out)

    bounds = [0, *sorted(min(cut, count) for cut in cuts), count]
    single_rows = list(zip(range(count), range(1, count + 1)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_PRODUCT_BYTES", block * 8 * dim)
        target_source, source = _fitted([target, space])
        fills = [
            (source.fill, source.aligned().matrix),  # map's output
            (target_source.fill, target_source.aligned().matrix),
            (lambda: linalg._grid_fill(linalg._Step0(space.matrix).rows, count, dim),
             linalg.normalize_step0(space).matrix),
            (lambda: linalg._grid_fill(mapped, count, dim), linalg.apply_map(space, omap).matrix),
        ]
        for make, whole in fills:
            for runs in (single_rows, list(zip(bounds, bounds[1:]))):
                fill, pieces = make(), []
                for start, stop in runs:
                    pieces.append(np.empty((stop - start, dim)))
                    fill(pieces[-1], start, stop)
                assert np.concatenate(pieces).tobytes() == whole.tobytes()


@settings(max_examples=40)
@given(sources(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_ranking_reads_no_map(sources, k, seed):
    # Cosines do not move under an orthogonal map, so ranking reads each
    # source before it is mapped: any other orthogonal map leaves the
    # neighbors, their counts and the report as they were, and with them
    # the donor chosen for each word.
    config = CombineConfig(method="mvm", k_neighbors=k)
    fitted = list(_fitted(sources))
    planned = combine._union_rows(fitted, config)
    remapped = [
        s if s.omap is None else s._replace(omap=random_orthogonal(s.space.dim, seed))
        for s in fitted
    ]
    replanned = combine._union_rows(remapped, config)
    (union, table, plans, report), (union2, table2, plans2, report2) = planned, replanned
    assert union == union2 and report == report2
    assert table.tobytes() == table2.tobytes()
    for plan, plan2 in zip(plans, plans2):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(plan, plan2))


def test_ranking_holds_each_source_as_it_was_read(monkeypatch):
    # Three binary sources of 2000 words at 100 dims, parsed to float32:
    # 0.8 MB each. When the union rows are planned, mvm holds them as
    # read, with their normalization statistics; an aligned float64 copy
    # of each (1.6 MB) is never made.
    rng = np.random.default_rng(31)
    rows, dim = 2000, 100
    payloads = []
    for n in range(3):
        tokens = [f"s{i:05d}" for i in range(n * 200, n * 200 + rows)]
        payloads.append(write_binary_embeddings(EmbeddingSpace(tokens, rng.normal(size=(rows, dim)))))
    held = []
    planned = combine._union_rows

    def traced(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return planned(*args, **kwargs)

    monkeypatch.setattr(combine, "_union_rows", traced)
    tracemalloc.start()
    try:
        spaces = [parse_binary_embeddings(payload) for payload in payloads]
        assert all(space.matrix.dtype == np.float32 for space in spaces)
        parsed = tracemalloc.get_traced_memory()[0]
        combine_mvm(spaces, CombineConfig(method="mvm", k_neighbors=3))
    finally:
        tracemalloc.stop()
    # What parsing left (the float32 sources and their tokens), and less
    # than one float64 matrix of a source's size on top.
    assert held[0] - parsed < rows * dim * 8


@pytest.mark.parametrize("count", [1, 37, 200])
def test_threaded_blocks_sum_to_the_serial_bits(monkeypatch, count):
    # Blocks of 16 rows, each worth a thread: at a BLAS pool of two, the
    # sums and products of the fit run in two Python threads, and their
    # bits are those of one.
    monkeypatch.setattr(linalg, "_PRODUCT_BYTES", 16 * 8 * 24)
    monkeypatch.setattr(linalg, "_THREAD_BLOCKS", 1)
    rng = np.random.default_rng(count)
    x, z = rng.normal(size=(2, count, 24))
    w = np.linalg.qr(rng.normal(size=(24, 24)))[0]
    threads: list[set] = []

    def x_rows(at):
        threads[-1].add(threading.get_ident())
        return x[at].copy()

    def fit():
        omap = linalg._procrustes(x_rows, z.__getitem__, count, 24)
        residual = linalg._residual(lambda at: x_rows(at) @ w, z.__getitem__, count, 24)
        mapped = np.empty((count, 24))
        fill = linalg._grid_fill(lambda at, out: np.matmul(x_rows(at), w, out=out), count, 24)
        fill(mapped, 0, count)
        return omap.matrix.tobytes(), residual, mapped.tobytes()

    for pool in (1, 2):
        threads.append(set())
        with linalg._blas_threads(pool):
            bits = fit()
        if pool == 1:
            serial = bits
    assert bits == serial
    assert threads[0] == {threading.get_ident()}
    # More than one block: every block ran outside this thread.
    assert (threading.get_ident() in threads[1]) == (count <= 16)

