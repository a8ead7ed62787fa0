import logging
import math

import numpy as np
import pytest

from metavec import linalg
from metavec.embeddings import EmbeddingSpace
from metavec.linalg import (
    ORTHOGONALITY_TOL,
    OrthogonalMap,
    ReductionMap,
    apply_map,
    apply_reduction,
    cosine,
    fit_reduction,
    l2_normalize_rows,
    mean_center_columns,
    normalize_step0,
    solve_procrustes,
)

from conftest import traced_peak
from oracles import covariance_spectrum, grid_best_orthogonal, top_principal_direction

ROT90 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestL2NormalizeRows:
    def test_three_four_five_triangle(self):
        space = l2_normalize_rows(EmbeddingSpace(["a"], [[3.0, 4.0]]))
        assert np.allclose(space.matrix, [[0.6, 0.8]], atol=1e-15)

    def test_zero_row_kept_and_counted(self, caplog):
        space = EmbeddingSpace(["a", "b"], [[0.0, 0.0], [1.0, 1.0]])
        with caplog.at_level(logging.WARNING, logger="metavec.linalg"):
            out = l2_normalize_rows(space)
        assert np.array_equal(out.matrix[0], [0.0, 0.0])
        assert any("1 zero row" in r.getMessage() for r in caplog.records)

    def test_all_norms_unit(self, make_space):
        out = l2_normalize_rows(make_space(n=50, dim=7, seed=3, scale=5.0))
        norms = np.linalg.norm(out.matrix, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-12)

    def test_preserves_tokens_and_meta(self, make_space):
        space = make_space(n=4, dim=3, meta="src")
        out = l2_normalize_rows(space)
        assert out.tokens == space.tokens and out.meta == "src"


class TestMeanCenterColumns:
    def test_two_point_example(self):
        out = mean_center_columns(EmbeddingSpace(["a", "b"], [[1.0, 0.0], [3.0, 0.0]]))
        assert np.array_equal(out.matrix, [[-1.0, 0.0], [1.0, 0.0]])

    def test_idempotent_on_centered_input(self, make_space):
        once = mean_center_columns(make_space(n=30, dim=6, seed=4))
        twice = mean_center_columns(once)
        assert np.allclose(twice.matrix, once.matrix, atol=1e-12)

    def test_column_means_vanish(self):
        rng = np.random.default_rng(5)
        space = EmbeddingSpace([f"w{i}" for i in range(100)], rng.normal(size=(100, 10)) * 9)
        out = mean_center_columns(space)
        assert np.all(np.abs(out.matrix.mean(axis=0)) < 1e-10)


class TestNormalizeStep0:
    def test_identity_matrix_hand_computed(self):
        # unit rows of I are I; centering gives ±1/2 entries; renormalizing
        # scales each row to length 1, i.e. entries ±sqrt(2)/2.
        out = normalize_step0(EmbeddingSpace(["a", "b"], np.eye(2)))
        h = math.sqrt(2.0) / 2.0
        assert np.allclose(out.matrix, [[h, -h], [-h, h]], atol=1e-15)

    def test_rows_are_unit_length(self, make_space):
        out = normalize_step0(make_space(n=40, dim=8, seed=6, scale=3.0))
        assert np.all(np.abs(np.linalg.norm(out.matrix, axis=1) - 1.0) <= 1e-12)

    def test_single_token_degenerates_to_zero(self, caplog):
        with caplog.at_level(logging.WARNING, logger="metavec.linalg"):
            out = normalize_step0(EmbeddingSpace(["only"], [[1.0, 2.0]]))
        assert np.array_equal(out.matrix, [[0.0, 0.0]])
        assert any("degenerated" in r.getMessage() for r in caplog.records)

    def test_identical_rows_degenerate_to_zero(self, caplog):
        space = EmbeddingSpace(["a", "b", "c"], [[1.0, 2.0]] * 3)
        with caplog.at_level(logging.WARNING, logger="metavec.linalg"):
            out = normalize_step0(space)
        assert np.array_equal(out.matrix, np.zeros((3, 2)))

    def test_two_step_variant_skips_final_normalization(self, make_space):
        space = make_space(n=10, dim=4, seed=7)
        out = normalize_step0(space, renormalize=False)
        expected = mean_center_columns(l2_normalize_rows(space))
        assert np.allclose(out.matrix, expected.matrix, atol=1e-15)
        assert not np.allclose(np.linalg.norm(out.matrix, axis=1), 1.0)


class TestOrthogonalMap:
    def test_accepts_rotation(self):
        omap = OrthogonalMap(ROT90)
        assert omap.dim == 2

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            OrthogonalMap([[1.0, 0.0], [0.0, 2.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            OrthogonalMap(np.ones((2, 3)))

    def test_tolerates_tiny_defect(self):
        w = np.eye(3)
        w[0, 0] = 1.0 + 1e-10
        OrthogonalMap(w)

    def test_identity_constructor(self):
        assert np.array_equal(OrthogonalMap.identity(4).matrix, np.eye(4))

    def test_matrix_read_only(self):
        omap = OrthogonalMap.identity(2)
        with pytest.raises(ValueError):
            omap.matrix[0, 0] = 5.0


class TestSolveProcrustes:
    def test_recovers_quarter_turn(self):
        omap = solve_procrustes(np.eye(2), ROT90)
        assert np.allclose(omap.matrix, ROT90, atol=1e-12)
        assert np.linalg.norm(np.eye(2) @ omap.matrix - ROT90) < 1e-12

    def test_identity_when_mapping_to_self(self):
        x = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        omap = solve_procrustes(x, x)
        assert np.allclose(omap.matrix, np.eye(2), atol=1e-8)

    def test_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            x = rng.normal(size=(10, 2))
            theta = rng.uniform(0.0, 2.0 * np.pi)
            planted = np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            )
            z = x @ planted
            omap = solve_procrustes(x, z)
            residual = np.linalg.norm(x @ omap.matrix - z)
            grid_residual, grid_q = grid_best_orthogonal(x, z)
            assert residual <= grid_residual + 1e-9
            # The grid argmin sits within one step of the true optimum.
            assert np.linalg.norm(omap.matrix - grid_q) < 5e-4

    def test_recovers_reflection(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(8, 2))
        reflection = np.array([[1.0, 0.0], [0.0, -1.0]])
        omap = solve_procrustes(x, x @ reflection)
        assert np.allclose(omap.matrix, reflection, atol=1e-8)
        assert np.linalg.det(omap.matrix) < 0

    @pytest.mark.parametrize(
        "case", ["one-pair", "fewer-pairs-than-dims", "duplicate-rows", "all-duplicates"]
    )
    def test_rank_deficient_anchors_give_an_isometry(self, case):
        rng = np.random.default_rng(13)
        dim = 12
        rows = rng.normal(size=(5, dim))
        picks = {
            "one-pair": [0],
            "fewer-pairs-than-dims": [0, 1, 2, 3, 4],
            "duplicate-rows": [0, 1, 0, 2, 1, 1, 3, 0, 2, 4, 4, 1, 3, 0, 2, 1, 3],
            "all-duplicates": [2] * 20,
        }[case]
        x = rows[picks]
        z = x @ np.linalg.qr(rng.normal(size=(dim, dim)))[0] + rng.normal(size=x.shape) * 0.1
        assert np.linalg.matrix_rank(x) < dim
        w = solve_procrustes(x, z).matrix
        assert np.linalg.norm(w.T @ w - np.eye(dim)) <= ORTHOGONALITY_TOL
        mapped = rng.normal(size=(30, dim)) * 3.0
        gram = mapped @ mapped.T
        assert np.allclose((mapped @ w) @ (mapped @ w).T, gram, rtol=0, atol=1e-10 * abs(gram).max())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            solve_procrustes(np.eye(2), np.ones((3, 2)))

    def test_non_finite_rejected(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            solve_procrustes(bad, np.eye(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            solve_procrustes(np.empty((0, 2)), np.empty((0, 2)))


class TestApplyMap:
    def test_identity_is_exact(self, make_space):
        space = make_space(n=5, dim=3)
        out = apply_map(space, OrthogonalMap.identity(3))
        assert np.array_equal(out.matrix, space.matrix)

    def test_quarter_turn_of_unit_vector(self):
        space = EmbeddingSpace(["e1"], [[1.0, 0.0]])
        out = apply_map(space, OrthogonalMap(ROT90))
        assert np.allclose(out.matrix, [[0.0, 1.0]], atol=1e-15)

    def test_gram_matrix_preserved(self, make_space):
        rng = np.random.default_rng(10)
        space = make_space(n=30, dim=6, seed=11, scale=2.0)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        out = apply_map(space, OrthogonalMap(q))
        gram_before = space.matrix @ space.matrix.T
        gram_after = out.matrix @ out.matrix.T
        assert np.max(np.abs(gram_before - gram_after)) <= 1e-8

    def test_dimension_mismatch_rejected(self, make_space):
        with pytest.raises(ValueError, match="dim"):
            apply_map(make_space(n=3, dim=4), OrthogonalMap.identity(3))

    def test_shares_the_tokens_and_builds_no_token_set(self):
        # 200k tokens of 2 dims: a set of them would take 8 MiB, against
        # the 3.2 MB of the mapped rows.
        space = EmbeddingSpace([f"w{i}" for i in range(200_000)], np.zeros((200_000, 2)))
        index = space.index
        out, peak = traced_peak(apply_map, space, OrthogonalMap.identity(2))
        assert out.tokens is space.tokens and out.index is index
        assert peak < out.matrix.nbytes + (2 << 20)


class TestReduction:
    def test_rank_one_line_recovered(self):
        ts = np.array([-2.0, -1.0, 0.5, 3.0])
        direction = np.array([0.6, 0.8])
        space = EmbeddingSpace(
            [f"p{i}" for i in range(4)], np.outer(ts, direction) + [5.0, -1.0]
        )
        rmap = fit_reduction(space, k=1)
        assert np.allclose(rmap.basis[:, 0], direction, atol=1e-12)
        reduced = apply_reduction(space, rmap)
        reconstructed = reduced.matrix @ rmap.basis.T + rmap.mean
        assert np.allclose(reconstructed, space.matrix, atol=1e-12)

    def test_full_rank_projection_is_isometry(self, make_space):
        space = make_space(n=25, dim=6, seed=12, scale=4.0)
        reduced = apply_reduction(space, fit_reduction(space, k=6))
        diff_before = space.matrix[:, None, :] - space.matrix[None, :, :]
        diff_after = reduced.matrix[:, None, :] - reduced.matrix[None, :, :]
        dist_before = np.linalg.norm(diff_before, axis=2)
        dist_after = np.linalg.norm(diff_after, axis=2)
        assert np.max(np.abs(dist_before - dist_after)) <= 1e-8

    def test_projected_variance_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(13)
        matrix = rng.normal(size=(200, 20)) * rng.uniform(0.5, 3.0, size=20)
        space = EmbeddingSpace([f"w{i}" for i in range(200)], matrix)
        reduced = apply_reduction(space, fit_reduction(space, k=5))
        projected_variance = (reduced.matrix**2).sum() / len(matrix)
        expected = covariance_spectrum(matrix)[:5].sum()
        assert abs(projected_variance - expected) <= 1e-8

    def test_sign_convention(self, make_space):
        rmap = fit_reduction(make_space(n=40, dim=9, seed=14), k=4)
        for j in range(4):
            column = rmap.basis[:, j]
            assert column[np.argmax(np.abs(column))] >= 0

    def test_post_remove_kills_dominant_direction(self):
        rng = np.random.default_rng(15)
        dominant = rng.normal(size=6)
        dominant /= np.linalg.norm(dominant)
        matrix = np.outer(rng.normal(size=300) * 50.0, dominant) + rng.normal(
            size=(300, 6)
        )
        space = EmbeddingSpace([f"w{i}" for i in range(300)], matrix)
        reduced = apply_reduction(space, fit_reduction(space, k=4, post_remove=1))
        former_top = top_principal_direction(
            apply_reduction(space, fit_reduction(space, k=4)).matrix
        )
        along = reduced.matrix @ former_top
        assert along.var() < 1e-10

    def test_k_bounds_enforced(self, make_space):
        space = make_space(n=10, dim=3)
        with pytest.raises(ValueError, match="k must be"):
            fit_reduction(space, k=4)
        with pytest.raises(ValueError, match="k must be"):
            fit_reduction(space, k=0)

    def test_post_remove_bounds_enforced(self, make_space):
        with pytest.raises(ValueError, match="post_remove"):
            fit_reduction(make_space(n=10, dim=3), k=2, post_remove=2)

    def test_apply_dimension_mismatch_rejected(self, make_space):
        rmap = fit_reduction(make_space(n=10, dim=3), k=2)
        with pytest.raises(ValueError, match="dim"):
            apply_reduction(make_space(n=4, dim=5), rmap)

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            ReductionMap(np.zeros(2), [[1.0], [1.0]])

    def test_k_exceeding_sample_count_still_orthonormal(self):
        # More dimensions than points: the completion columns must still
        # form an orthonormal basis.
        space = EmbeddingSpace(["a", "b", "c"], np.random.default_rng(16).normal(size=(3, 8)))
        rmap = fit_reduction(space, k=8)
        assert np.linalg.norm(rmap.basis.T @ rmap.basis - np.eye(8)) <= 1e-8


class TestCosine:
    def test_known_values(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0
        assert abs(cosine([1.0, 0.0], [1.0, 1.0]) - 0.70710678) <= 1e-8

    def test_zero_vector_is_undefined(self):
        assert math.isnan(cosine([0.0, 0.0], [1.0, 0.0]))
        assert math.isnan(cosine([1.0, 0.0], [0.0, 0.0]))

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(17)
        for trial in range(50):
            u, v = rng.normal(size=(2, 12))
            a, b = rng.uniform(0.1, 100.0, size=2)
            assert cosine(u, v) == cosine(v, u)
            assert abs(cosine(a * u, b * v) - cosine(u, v)) <= 1e-12

    def test_bounded(self):
        rng = np.random.default_rng(18)
        for trial in range(200):
            u, v = rng.normal(size=(2, 5))
            assert -1.0 - 1e-12 <= cosine(u, v) <= 1.0 + 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])


class TestBlasThreads:
    def counts(self):
        return [get() for get, _ in linalg._openblas()]

    def test_sets_the_count_and_puts_the_old_one_back(self):
        if not linalg._openblas():
            pytest.skip("numpy does not use OpenBLAS here")
        before = self.counts()
        with linalg._blas_threads(3):
            assert set(self.counts()) == {3}
            with linalg._blas_threads(1):
                assert set(self.counts()) == {1}
            assert set(self.counts()) == {3}
        assert self.counts() == before
        with pytest.raises(RuntimeError), linalg._blas_threads(1):
            raise RuntimeError
        assert self.counts() == before

    def test_another_blas_changes_nothing_and_says_so_once(self, tmp_path, monkeypatch, caplog):
        maps = tmp_path / "maps"
        maps.write_text("7f00-7f01 r-xp 00000000 00:00 0 /usr/lib/libmkl_rt.so\n")
        monkeypatch.setattr(linalg, "_MAPS", str(maps))
        monkeypatch.setattr(linalg, "_OPENBLAS", None)
        with caplog.at_level(logging.WARNING, logger="metavec.linalg"):
            for _ in range(2):
                with linalg._blas_threads(1):
                    pass
        assert linalg._OPENBLAS == []
        assert [r.getMessage() for r in caplog.records] == [
            "no OpenBLAS found: outputs may depend on the BLAS thread count"
        ]

    def test_none_looks_nothing_up(self, monkeypatch):
        monkeypatch.setattr(linalg, "_OPENBLAS", None)
        with linalg._blas_threads(None):
            pass
        assert linalg._OPENBLAS is None
