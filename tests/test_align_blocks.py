"""Alignment from normalization statistics: blocked normalized rows against
a whole-matrix oracle, one code path for the public wrappers, and the
memory a stream of binary sources holds while it is aligned, or while
``map`` streams its aligned rows, and the memory the baselines hold on
top of their sources."""
import functools
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from metavec import cli, embeddings, linalg
from metavec.align import align_to_target
from metavec.combine import combine_average, combine_concat
from metavec.embeddings import (
    EmbeddingSpace, load_embeddings, parse_binary_embeddings, write_binary_embeddings,
)
from metavec.linalg import apply_map, normalize_step0


def step0_oracle(matrix, renormalize=True):
    """normalize_step0 on the whole matrix, one step at a time: unit rows,
    minus the column mean of the unit rows summed one row after another,
    then unit rows again. Zero rows stay zero."""
    unit = matrix.astype(np.float64)
    norms = np.linalg.norm(unit, axis=1)
    unit = unit / np.where(norms == 0.0, 1.0, norms)[:, np.newaxis]
    mean = functools.reduce(np.add, unit) / len(unit)
    if unit.shape[1] > 1:
        # numpy sums the rows of a 2-d array in this order too.
        assert mean.tobytes() == unit.mean(axis=0).tobytes()
    centered = unit - mean
    if not renormalize:
        return centered
    norms = np.linalg.norm(centered, axis=1)
    return centered / np.where(norms == 0.0, 1.0, norms)[:, np.newaxis]


@st.composite
def matrices(draw):
    """Float32 or float64 matrices of 1 to 40 rows over a wide range of
    scales, some rows zero; or rows that are all positive multiples of one
    basis vector, which become zero after centering."""
    rows = draw(st.integers(1, 40))
    dim = draw(st.sampled_from([1, 2, 3, 7, 16, 129]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        matrix = np.zeros((rows, dim))
        matrix[:, draw(st.integers(0, dim - 1))] = rng.integers(1, 1000, size=rows)
    else:
        exponents = rng.integers(-30, 30, size=(rows, 1)) * (1 if dtype == np.float32 else 5)
        matrix = rng.normal(size=(rows, dim)) * 10.0**exponents
    matrix[draw(st.lists(st.integers(0, rows - 1), max_size=3))] = 0.0
    return matrix.astype(dtype)


@settings(max_examples=150)
@given(matrices(), st.integers(1, 1 << 20), st.booleans(), st.data())
def test_blocked_normalized_rows_have_the_whole_matrix_bits(matrix, block_bytes, renormalize, data):
    expected = step0_oracle(matrix, renormalize)
    rows = len(matrix)
    picks = data.draw(st.lists(st.integers(0, rows - 1), max_size=8))
    at = np.array([0, *picks, rows - 1], dtype=np.intp)
    lo = data.draw(st.integers(0, rows))
    hi = data.draw(st.integers(lo, rows))
    space = EmbeddingSpace._own([f"w{i}" for i in range(rows)], matrix)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embeddings, "_BLOCK_BYTES", block_bytes)
        step0 = linalg._Step0(matrix)
        if not renormalize:
            step0 = step0.centered()[0]
        assert step0.rows(at).tobytes() == expected[at].tobytes()
        assert step0.rows(slice(lo, hi)).tobytes() == expected[lo:hi].tobytes()
        got = normalize_step0(space, renormalize=renormalize)
    assert got.matrix.tobytes() == expected.tobytes()


@settings(max_examples=40)
@given(matrices(), st.integers(1, 1 << 20), st.sampled_from([0, 2]))
def test_alignment_is_normalize_step0_then_apply_map(matrix, block_bytes, target):
    # The target keeps its normalized rows, wherever it comes in the
    # stream; every other source is mapped by the same blocked product
    # that apply_map runs on its normalized rows.
    tokens = [f"w{i}" for i in range(len(matrix))]
    rng = np.random.default_rng(len(matrix))
    rotated = matrix @ np.linalg.qr(rng.normal(size=(matrix.shape[1],) * 2))[0]
    spaces = [
        EmbeddingSpace._own(tokens, matrix),
        EmbeddingSpace(tokens, rotated),
        EmbeddingSpace(tokens, matrix[::-1]),
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embeddings, "_BLOCK_BYTES", block_bytes)
        aligned = align_to_target(iter(spaces), target_index=target)
    assert aligned.target.matrix.tobytes() == step0_oracle(spaces[target].matrix).tobytes()
    for space, mapped, omap in zip(spaces, aligned.mapped, aligned.maps):
        expected = apply_map(normalize_step0(space), omap)
        assert mapped.matrix.tobytes() == expected.matrix.tobytes()


def test_aligning_a_stream_holds_its_outputs_one_raw_source_and_a_few_blocks(monkeypatch):
    # Four binary sources of 8000 words at 100 dims, parsed as they are
    # pulled: 3.2 MB raw (float32) and 6.4 MB aligned (float64) each. The
    # aligned rows are made one block at a time, straight into the output,
    # so a fit holds one raw source, its statistics and a few blocks on
    # top of the outputs. A normalized copy of the whole source beside its
    # aligned one would add 6.4 MB.
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 64 << 10)
    monkeypatch.setattr(linalg, "_PRODUCT_BYTES", 64 << 10)
    rng = np.random.default_rng(23)
    rows, dim = 8000, 100
    payloads = []
    for n in range(4):
        tokens = [f"s{i:05d}" for i in range(n * 500, n * 500 + rows - 500)]
        tokens += [f"{n}o{i:03d}" for i in range(500)]
        space = EmbeddingSpace(tokens, rng.normal(size=(rows, dim)))
        payloads.append(write_binary_embeddings(space))

    def stream():
        for payload in payloads:
            yield parse_binary_embeddings(payload)

    tracemalloc.start()
    try:
        aligned = align_to_target(stream())
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(space.matrix.nbytes for space in aligned.mapped) == 4 * rows * dim * 8
    # What is held at the end (the outputs, their tokens, the target's
    # token index), one raw source, a few blocks, and per row of the source
    # being fitted: its norms, anchor indexes and the set that checks its
    # tokens.
    assert peak <= held + rows * dim * 4 + 16 * (64 << 10) + 100 * rows


def test_map_holds_its_inputs_and_their_statistics_while_rows_stream(tmp_path, monkeypatch):
    # Two binary sources of 8000 words at 200 dims, parsed to float32:
    # 6.4 MB each. map holds both while it fits, then the source and its
    # statistics while its aligned rows stream into the output, a few
    # blocks at a time. An aligned float64 copy of the source (12.8 MB)
    # beside it would pass the two inputs.
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 64 << 10)
    monkeypatch.setattr(linalg, "_PRODUCT_BYTES", 64 << 10)
    rng = np.random.default_rng(29)
    rows, dim = 8000, 200
    paths = [tmp_path / "source.bin", tmp_path / "target.bin"]
    for n, path in enumerate(paths):
        tokens = [f"s{i:05d}" for i in range(n * 500, n * 500 + rows)]
        path.write_bytes(write_binary_embeddings(EmbeddingSpace(tokens, rng.normal(size=(rows, dim)))))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        spaces = [load_embeddings(path) for path in paths]
        assert all(space.matrix.dtype == np.float32 for space in spaces)
        inputs = tracemalloc.get_traced_memory()[0] - start
        del spaces
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        # One thread: each thread of the fit would hold sums of x'z ahead.
        out = str(tmp_path / "out.bin")
        assert cli.main(["map", *map(str, paths), "-o", out, "--threads", "1"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # The two inputs as parsed (their float32 rows and tokens), their
    # statistics (three float64 values per row each), the fit's d×d
    # matrices (x'z, its SVD, the map and its check), a few blocks, and
    # per row of the source: its anchor indexes and the target's token
    # index.
    bound = inputs + 2 * 3 * 8 * rows + 8 * 8 * dim * dim + 16 * (64 << 10) + 100 * rows
    assert peak < bound


@pytest.mark.parametrize("combiner", [combine_average, combine_concat])
def test_baselines_hold_their_inputs_as_read_and_their_row_norms(monkeypatch, combiner):
    # Two binary sources of 8000 words at 200 dims, parsed to float32:
    # 6.4 MB each. average and concat read them as parsed, with two
    # float64 norms per row, and fill their output a few blocks at a time.
    # A float64 unit copy of one source (12.8 MB) would break the bound.
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 64 << 10)
    monkeypatch.setattr(linalg, "_PRODUCT_BYTES", 64 << 10)
    rng = np.random.default_rng(37)
    rows, dim = 8000, 200
    spaces = []
    for n in range(2):
        tokens = [f"s{i:05d}" for i in range(n * 500, n * 500 + rows)]
        payload = write_binary_embeddings(EmbeddingSpace(tokens, rng.normal(size=(rows, dim))))
        spaces.append(parse_binary_embeddings(payload))
    assert all(space.matrix.dtype == np.float32 for space in spaces)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        meta = combiner(spaces)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    union = len(meta.space)
    assert union == rows + 500
    # The output, the statistics (two float64 norms per row of each
    # source), the union row table, a few blocks, and per row: the union's
    # token index.
    bound = meta.space.matrix.nbytes + 2 * 2 * 8 * rows + 2 * 8 * union + 16 * (64 << 10)
    assert peak < bound + 100 * rows
