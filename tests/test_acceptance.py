"""Acceptance suite: the toolkit's headline guarantees, one test per criterion.

Each criterion is checked against an independent oracle or a closed-form
identity at a scale that runs in seconds. Criterion 11 needs user-supplied
full-size embeddings and is skipped unless the METAVEC_* variables are set.
"""
import math
import os
import time

import numpy as np
import pytest

from metavec.align import align_to_target
from metavec.cli import main as cli_main
from metavec.combine import combine_concat, combine_mvm
from metavec.embeddings import (
    EmbeddingSpace,
    ParseError,
    load_embeddings,
    parse_binary_embeddings,
    parse_text_embeddings,
    save_embeddings,
    write_binary_embeddings,
    write_text_embeddings,
)
from metavec.evaluate import SimilarityDataset, evaluate, load_similarity_dataset, spearman
from metavec.linalg import cosine, normalize_step0, solve_procrustes
from metavec.oov import nearest_neighbors, synthesize_word
from oracles import exhaustive_neighbors, grid_best_orthogonal, spearman_reference


def random_space(rng, n, dim, prefix="w"):
    tokens = [f"{prefix}{i:04d}" for i in range(n)]
    return EmbeddingSpace(tokens, rng.normal(size=(n, dim)))


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def test_criterion_01_procrustes_not_worse_than_dense_grid():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(1, 11))
        x = rng.normal(size=(n, 2))
        z = rng.normal(size=(n, 2))
        w = solve_procrustes(x, z)
        residual = float(np.linalg.norm(x @ w.matrix - z))
        grid_residual, _ = grid_best_orthogonal(x, z, step=1e-4)
        assert residual <= grid_residual + 1e-9
    assert time.perf_counter() - start < 10.0


def test_criterion_02_maps_orthogonal_and_gram_preserving():
    rng = np.random.default_rng(202)
    for _ in range(50):
        n = int(rng.integers(10, 301))
        dim = int(rng.integers(2, 51))
        source = random_space(rng, n, dim, prefix="s")
        target = EmbeddingSpace(source.tokens, rng.normal(size=(n, dim)))
        collection = align_to_target([source, target], target_index=1)
        w = collection.maps[0].matrix
        defect = np.linalg.norm(w.T @ w - np.eye(dim))
        assert defect <= 1e-8
        pre = normalize_step0(source).matrix
        post = collection.mapped[0].matrix
        gram_gap = np.abs(pre @ pre.T - post @ post.T).max()
        assert gram_gap <= 1e-8


def test_criterion_03_planted_rotation_recovered():
    rng = np.random.default_rng(303)
    for dim in (2, 10, 50):
        original = random_space(rng, 80, dim)
        q = random_orthogonal(rng, dim)
        rotated = EmbeddingSpace(original.tokens, original.matrix @ q)
        collection = align_to_target([rotated, original], target_index=1)
        recovered = collection.mapped[0].matrix
        expected = normalize_step0(original).matrix
        row_errors = np.linalg.norm(recovered - expected, axis=1)
        assert row_errors.max() <= 1e-6


def test_criterion_04_self_ensemble_reproduces_source():
    rng = np.random.default_rng(404)
    space = random_space(rng, 100, 25)
    meta = combine_mvm([space, space])
    expected = normalize_step0(space)
    assert meta.space.tokens == expected.tokens
    got_cosines = meta.space.matrix @ meta.space.matrix.T
    want_cosines = expected.matrix @ expected.matrix.T
    assert np.abs(got_cosines - want_cosines).max() <= 1e-6
    for token in space.tokens:
        got = nearest_neighbors(meta.space, token, k=10).tokens
        want = nearest_neighbors(expected, token, k=10).tokens
        assert got == want


def test_criterion_05_synthesized_vectors_beat_random_baseline():
    successes = 0
    for trial in range(100):
        rng = np.random.default_rng(500 + trial)
        centers = rng.normal(size=(5, 20)) * 3.0
        labels = np.repeat(np.arange(5), 40)
        matrix = centers[labels] + rng.normal(size=(200, 20)) * 0.5
        tokens = [f"w{i:03d}" for i in range(200)]
        full = EmbeddingSpace(tokens, matrix)
        held = int(rng.integers(200))
        word = tokens[held]
        remaining = [t for t in tokens if t != word]
        deficient = EmbeddingSpace(remaining, np.delete(matrix, held, axis=0))
        synthesized = synthesize_word(word, full, deficient, k=10)
        true_vector = matrix[held]
        recovered = cosine(synthesized, true_vector)
        baseline = [
            cosine(true_vector, matrix[j]) for j in range(200) if j != held
        ]
        if recovered > np.percentile(baseline, 90):
            successes += 1
    assert successes >= 95


def test_criterion_06_concat_cosine_is_mean_of_source_cosines():
    rng = np.random.default_rng(606)
    tokens = [f"w{i:03d}" for i in range(150)]
    s1 = EmbeddingSpace(tokens, rng.normal(size=(150, 20)))
    s2 = EmbeddingSpace(tokens, rng.normal(size=(150, 30)))
    meta = combine_concat([s1, s2])
    assert meta.space.tokens == tuple(tokens)
    assert meta.space.dim == 50
    for _ in range(1000):
        i, j = rng.choice(150, size=2, replace=False)
        concat_cos = cosine(meta.space.matrix[i], meta.space.matrix[j])
        source_mean = (
            cosine(s1.matrix[i], s1.matrix[j]) + cosine(s2.matrix[i], s2.matrix[j])
        ) / 2.0
        assert abs(concat_cos - source_mean) <= 1e-12


def test_criterion_07_spearman_matches_brute_force():
    assert spearman([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]) == 0.8
    rng = np.random.default_rng(707)
    for _ in range(1000):
        n = int(rng.integers(2, 101))
        # Small integer range plants plenty of ties.
        xs = rng.integers(0, 10, size=n).astype(float)
        ys = rng.integers(0, 10, size=n).astype(float)
        expected = spearman_reference(xs, ys)
        got = spearman(xs, ys)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert abs(got - expected) <= 1e-12
    for _ in range(100):
        xs = rng.normal(size=40)
        ys = rng.normal(size=40)
        base = spearman(xs, ys)
        warped = spearman(np.expm1(xs / 4.0), 3.0 * ys - 1.0)
        assert abs(warped - base) <= 1e-12


def test_criterion_08_nn_search_matches_exhaustive_scan():
    rng = np.random.default_rng(808)
    for _ in range(25):
        n = int(rng.integers(5, 201))
        dim = int(rng.integers(2, 16))
        space = random_space(rng, n, dim)
        k = int(rng.integers(1, 21))
        for query_index in rng.choice(n, size=min(5, n), replace=False):
            query = space.tokens[int(query_index)]
            got = nearest_neighbors(space, query, k=k).tokens
            assert got == exhaustive_neighbors(space, query, k)

    # Planted exact ties: scaling by powers of two leaves the unit vector
    # bitwise unchanged, so duplicate directions tie exactly and must come
    # back in lexicographic token order.
    base = rng.normal(size=(4, 6))
    rows = np.vstack([base, base[1] * 2.0, base[1] * 4.0, base[2] * 2.0])
    tied = EmbeddingSpace(["q", "mmm", "zzz", "ccc", "aaa", "nnn", "bbb"], rows)
    for k in (3, 6):
        got = nearest_neighbors(tied, "q", k=k).tokens
        assert got == exhaustive_neighbors(tied, "q", k)
    ranked = nearest_neighbors(tied, "q", k=6)
    by_score = {}
    for token, score in ranked.neighbors:
        by_score.setdefault(score, []).append(token)
    assert {"aaa", "mmm", "nnn"}.issubset({t for g in by_score.values() for t in g})
    for group in by_score.values():
        assert group == sorted(group)


def test_criterion_09_format_round_trips_and_error_cases():
    rng = np.random.default_rng(909)
    space = random_space(rng, 40, 7)

    text_rt = parse_text_embeddings(write_text_embeddings(space, precision=17))
    assert text_rt.tokens == space.tokens
    assert np.array_equal(text_rt.matrix, space.matrix)

    canonical = b"2 2\na 1.0 2.0\nb -3.5 0.25\n"
    assert write_text_embeddings(parse_text_embeddings(canonical), precision=17) == canonical

    binary_rt = parse_binary_embeddings(write_binary_embeddings(space))
    assert binary_rt.tokens == space.tokens
    quantized = space.matrix.astype("<f4").astype(np.float64)
    assert np.array_equal(binary_rt.matrix, quantized)
    assert np.array_equal(
        binary_rt.matrix, text_rt.matrix.astype("<f4").astype(np.float64)
    )

    text_failures = [
        b"",
        b"a one two\n",
        b"a 1.0\nb 2.0 3.0\n",
        b"\xff\xfe 1.0\n",
    ]
    for payload in text_failures:
        with pytest.raises(ParseError):
            parse_text_embeddings(payload)
    with pytest.raises(ParseError):
        parse_text_embeddings(b"a 1 2\na 3 4\n", on_duplicate="error")

    good = write_binary_embeddings(space)
    binary_failures = [
        b"",
        b"not a header\n",
        good[:-3],
        good + b"extra",
    ]
    for payload in binary_failures:
        with pytest.raises(ParseError):
            parse_binary_embeddings(payload)


def test_criterion_10_end_to_end_mvm_pipeline(tmp_path):
    # At 100 dims OpenBLAS changes the bits of the alignment's products
    # with its thread count, so the thread counts compared below (--threads
    # sets the workers and the fit's Python threads) would show in the
    # output if they reached it.
    rng = np.random.default_rng(1000)
    universe = [f"w{i:03d}" for i in range(450)]
    matrix = rng.normal(size=(450, 100))
    windows = [(0, 300), (75, 375), (150, 450)]
    paths = []
    for i, (lo, hi) in enumerate(windows):
        path = tmp_path / f"s{i}.vec"
        save_embeddings(EmbeddingSpace(universe[lo:hi], matrix[lo:hi]), path, format="text")
        paths.append(str(path))
    out = tmp_path / "meta.vec"

    start = time.perf_counter()
    assert cli_main(["mvm", *paths, "-o", str(out)]) == 0
    assert time.perf_counter() - start < 5.0

    meta = load_embeddings(out)
    assert set(meta.tokens) == set(universe)
    norms = np.linalg.norm(meta.matrix, axis=1)
    assert np.all((np.abs(norms - 1.0) <= 1e-9) | (norms == 0.0))

    # The maps behind the pipeline satisfy the orthogonality and Gram
    # preservation bounds of criterion 2.
    spaces = [load_embeddings(p) for p in paths]
    collection = align_to_target(spaces, target_index=0)
    for omap in collection.maps:
        assert np.linalg.norm(omap.matrix.T @ omap.matrix - np.eye(100)) <= 1e-8
    for source, mapped in zip(spaces, collection.mapped):
        pre = normalize_step0(source).matrix
        post = mapped.matrix
        assert np.abs(pre @ pre.T - post @ post.T).max() <= 1e-8

    # The written file is exactly the library's result (full-precision text).
    meta_lib = combine_mvm(spaces)
    assert meta_lib.space.tokens == meta.tokens
    assert np.array_equal(meta_lib.space.matrix, meta.matrix)

    # Bitwise identical across runs and thread counts, sidecar included.
    for threads in ("1", "4"):
        rerun = tmp_path / f"meta.t{threads}.vec"
        argv = ["mvm", *paths, "-o", str(rerun), "--threads", threads]
        assert cli_main(argv) == 0
        assert rerun.read_bytes() == out.read_bytes()
        got_sidecar = (tmp_path / f"meta.t{threads}.vec.provenance.json").read_bytes()
        assert got_sidecar == (tmp_path / "meta.vec.provenance.json").read_bytes()


_SMOKE_VARS = ("METAVEC_EMB1", "METAVEC_EMB2", "METAVEC_WORDSIM")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in _SMOKE_VARS),
    reason="large-scale smoke test: set METAVEC_EMB1 (FastText), METAVEC_EMB2, METAVEC_WORDSIM",
)
def test_criterion_11_large_scale_smoke_test():
    e1 = load_embeddings(os.environ["METAVEC_EMB1"])
    e2 = load_embeddings(os.environ["METAVEC_EMB2"])
    delimiter = os.environ.get("METAVEC_WORDSIM_DELIM", "tab")
    with open(os.environ["METAVEC_WORDSIM"], "rb") as handle:
        dataset = load_similarity_dataset(handle, delimiter=delimiter, name="wordsim")

    report_e1 = evaluate(e1, dataset)
    assert report_e1.coverage_pct >= 95.0

    common = tuple(
        (w1, w2, score)
        for w1, w2, score in dataset.pairs
        if w1 in e1 and w2 in e1 and w1 in e2 and w2 in e2
    )
    assert len(common) >= 2
    subset = SimilarityDataset("common-coverage", common)

    meta = combine_mvm([e1, e2])
    rho_meta = evaluate(meta.space, subset).spearman_rho
    rho_e1 = evaluate(e1, subset).spearman_rho
    rho_e2 = evaluate(e2, subset).spearman_rho
    assert rho_meta is not None and rho_e1 is not None and rho_e2 is not None
    assert rho_meta >= rho_e1
    assert rho_meta >= rho_e2
