"""Tests for the word-similarity evaluation harness."""
import io
import json
import math

import numpy as np
import pytest

from metavec.embeddings import EmbeddingSpace, ParseError
from metavec.evaluate import (
    EvalReport,
    SimilarityDataset,
    evaluate,
    evaluate_suite,
    format_report_table,
    load_similarity_dataset,
    report_records,
    spearman,
)
from conftest import traced_peak
from oracles import spearman_reference


def angle_space(angles, prefix=""):
    """One pair per angle: a_i is fixed, b_i at the given angle from it.

    cos(angle) is then the exact pairwise similarity, so datasets with a
    known correlation can be built by choosing gold scores against it.
    """
    tokens = []
    rows = []
    for i, theta in enumerate(angles):
        tokens += [f"{prefix}a{i}", f"{prefix}b{i}"]
        rows += [[1.0, 0.0], [math.cos(theta), math.sin(theta)]]
    return EmbeddingSpace(tokens, np.array(rows))


def pairs_for(angles, gold, prefix=""):
    return tuple(
        (f"{prefix}a{i}", f"{prefix}b{i}", float(g)) for i, g in enumerate(gold)
    )


class TestLoadSimilarityDataset:
    def test_single_tab_line(self):
        ds = load_similarity_dataset(b"dog\tcat\t7.5\n")
        assert ds.pairs == (("dog", "cat", 7.5),)

    def test_name_defaults_and_override(self):
        assert load_similarity_dataset(b"a\tb\t1\n").name == "dataset"
        assert load_similarity_dataset(b"a\tb\t1\n", name="ws353").name == "ws353"

    def test_comments_and_blank_lines_skipped(self):
        data = b"# header\n\na\tb\t1\n   # indented comment\nc\td\t2\n\n"
        ds = load_similarity_dataset(data)
        assert len(ds) == 2

    def test_comma_delimiter(self):
        ds = load_similarity_dataset(b"dog, cat, 7.5\n", delimiter="comma")
        assert ds.pairs == (("dog", "cat", 7.5),)

    def test_whitespace_delimiter(self):
        ds = load_similarity_dataset(b"dog   cat\t 7.5\n", delimiter="whitespace")
        assert ds.pairs == (("dog", "cat", 7.5),)

    def test_tab_mode_does_not_split_on_spaces(self):
        ds = load_similarity_dataset(b"new york\tcity\t9.0\n")
        assert ds.pairs[0][0] == "new york"

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(ParseError, match="line 2") as exc:
            load_similarity_dataset(b"a\tb\t1\na\tb\n")
        assert exc.value.line == 2

    def test_malformed_score_reports_line(self):
        with pytest.raises(ParseError, match="score"):
            load_similarity_dataset(b"a\tb\thigh\n")

    def test_non_finite_score_rejected(self):
        with pytest.raises(ParseError, match="finite"):
            load_similarity_dataset(b"a\tb\tinf\n")

    def test_empty_word_rejected(self):
        with pytest.raises(ParseError, match="empty word"):
            load_similarity_dataset(b"\tb\t1\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="no pairs"):
            load_similarity_dataset(b"# only a comment\n")

    def test_duplicate_pairs_kept(self):
        ds = load_similarity_dataset(b"a\tb\t1\na\tb\t1\n")
        assert len(ds) == 2

    def test_crlf_tolerated(self):
        ds = load_similarity_dataset(b"a\tb\t1.5\r\n")
        assert ds.pairs == (("a", "b", 1.5),)

    def test_stream_input(self):
        ds = load_similarity_dataset(io.BytesIO(b"a\tb\t2\n"))
        assert ds.pairs[0][2] == 2.0

    def test_path_input(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_bytes(b"a\tb\t2\n")
        assert load_similarity_dataset(path).pairs == (("a", "b", 2.0),)
        assert load_similarity_dataset(str(path), name="sim").name == "sim"

    def test_utf8_words(self):
        ds = load_similarity_dataset("straße\tweg\t8\n".encode())
        assert ds.pairs[0][0] == "straße"

    def test_invalid_utf8_rejected(self):
        with pytest.raises(ParseError):
            load_similarity_dataset(b"a\tb\xff\t1\n")

    def test_invalid_utf8_reports_its_line(self):
        with pytest.raises(ParseError, match="line 4: not valid UTF-8") as exc_info:
            load_similarity_dataset(b"a\tb\t1\n" * 3 + b"c\t\xff\t2\n")
        assert exc_info.value.line == 4

    @pytest.mark.parametrize("delimiter", ["tab", "comma", "whitespace"])
    def test_byte_order_mark_is_skipped(self, delimiter):
        sep = {"tab": "\t", "comma": ",", "whitespace": " "}[delimiter]
        data = f"\ufeffdog{sep}cat{sep}7.5\n".encode()
        ds = load_similarity_dataset(data, delimiter=delimiter)
        assert ds.pairs == (("dog", "cat", 7.5),)

    def test_unknown_delimiter_rejected(self):
        with pytest.raises(ValueError, match="delimiter"):
            load_similarity_dataset(b"a\tb\t1\n", delimiter="pipe")

    def test_dataset_requires_pairs(self):
        with pytest.raises(ValueError, match="at least one pair"):
            SimilarityDataset("empty", ())

    def test_dataset_requires_finite_scores(self):
        with pytest.raises(ValueError, match="finite"):
            SimilarityDataset("bad", (("a", "b", math.nan),))


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 1.0

    def test_perfect_reversal(self):
        assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_single_swap_is_exactly_point_eight(self):
        assert spearman([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]) == 0.8

    def test_constant_list_is_nan(self):
        assert math.isnan(spearman([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]))
        assert math.isnan(spearman([1.0, 2.0, 3.0], [7.0, 7.0, 7.0]))

    def test_a_nan_in_either_list_is_nan(self):
        # A NaN has no place in the order, so no correlation is defined.
        assert math.isnan(spearman([math.nan, 1.0, 2.0], [1.0, 2.0, 3.0]))
        assert math.isnan(spearman([1.0, 2.0, 3.0], [3.0, 2.0, math.nan]))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            spearman([1.0], [2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_non_vector_input_rejected(self):
        with pytest.raises(ValueError):
            spearman([[1.0, 2.0]], [[1.0, 2.0]])

    def test_matches_rank_then_pearson_oracle(self):
        rng = np.random.default_rng(20260816)
        for _ in range(200):
            n = int(rng.integers(2, 101))
            # Draws from a small integer range so ties are common.
            xs = rng.integers(0, 12, size=n).astype(float)
            ys = rng.integers(0, 12, size=n).astype(float)
            expected = spearman_reference(xs, ys)
            got = spearman(xs, ys)
            if math.isnan(expected):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            xs = rng.normal(size=30)
            ys = rng.normal(size=30)
            base = spearman(xs, ys)
            warped = spearman(np.exp(xs / 3.0), ys * 7.0 + 2.0)
            assert warped == pytest.approx(base, abs=1e-12)

    def test_ranks_hold_no_square_array(self):
        # Two n×n comparison arrays took 25 MB here; one sort takes a few
        # arrays of n values for each side.
        rng = np.random.default_rng(5)
        xs, ys = rng.normal(size=(2, 5000)).round(2)
        rho, peak = traced_peak(spearman, xs, ys)
        assert rho == pytest.approx(spearman_reference(xs, ys), abs=1e-12)
        assert peak <= 16 * xs.nbytes

    def test_ties_averaged_not_broken_by_position(self):
        # Swapping the positions of tied values must not change the result.
        a = spearman([1.0, 2.0, 2.0, 3.0], [4.0, 1.0, 2.0, 3.0])
        b = spearman([2.0, 1.0, 2.0, 3.0], [1.0, 4.0, 2.0, 3.0])
        assert a == pytest.approx(b, abs=1e-15)


class TestEvaluate:
    def test_gold_matching_cosine_order_scores_one(self):
        angles = [0.1, 0.4, 0.8, 1.2, 1.5]
        space = angle_space(angles)
        # Higher gold where the angle is smaller, i.e. cosine is larger.
        ds = SimilarityDataset("toy", pairs_for(angles, [9.0, 7.0, 5.0, 3.0, 1.0]))
        report = evaluate(space, ds)
        assert report.spearman_rho == pytest.approx(1.0, abs=1e-12)
        assert report.pairs_used == 5
        assert report.coverage_pct == 100.0

    def test_monotone_transform_of_own_cosines_scores_one(self):
        rng = np.random.default_rng(3)
        angles = rng.uniform(0.05, 3.0, size=20)
        space = angle_space(angles)
        gold = [math.tanh(math.cos(t)) * 4.0 + 5.0 for t in angles]
        ds = SimilarityDataset("self", pairs_for(angles, gold))
        report = evaluate(space, ds)
        assert report.spearman_rho == pytest.approx(1.0, abs=1e-12)

    def test_oov_pairs_skipped_and_counted(self):
        angles = [0.1 * (i + 1) for i in range(7)]
        space = angle_space(angles)
        pairs = list(pairs_for(angles, range(7, 0, -1)))
        pairs += [("absent", "a0", 5.0), ("a1", "missing", 4.0), ("gone", "gone2", 3.0)]
        report = evaluate(space, SimilarityDataset("mixed", tuple(pairs)))
        assert report.pairs_total == 10
        assert report.pairs_used == 7
        assert report.coverage_pct == 70.0

    def test_skipped_pairs_do_not_change_rho(self):
        angles = [0.2, 0.5, 0.9, 1.4]
        space = angle_space(angles)
        core = pairs_for(angles, [4.0, 3.0, 2.0, 1.0])
        with_oov = core + (("absent", "a0", 2.5),)
        r1 = evaluate(space, SimilarityDataset("core", core))
        r2 = evaluate(space, SimilarityDataset("padded", with_oov))
        assert r1.spearman_rho == r2.spearman_rho

    def test_zero_vector_pair_skipped(self):
        space = EmbeddingSpace(
            ["a", "b", "z"], np.array([[1.0, 0.0], [0.7, 0.7], [0.0, 0.0]])
        )
        ds = SimilarityDataset(
            "zeros", (("a", "b", 2.0), ("a", "z", 1.0), ("b", "a", 3.0))
        )
        report = evaluate(space, ds)
        assert report.pairs_used == 2
        assert report.pairs_total == 3

    def test_fewer_than_two_usable_pairs_gives_undefined_rho(self):
        space = angle_space([0.3])
        ds = SimilarityDataset(
            "thin", (("a0", "b0", 1.0), ("missing", "b0", 2.0))
        )
        report = evaluate(space, ds)
        assert report.spearman_rho is None
        assert report.pairs_used == 1
        assert report.coverage_pct == 50.0

    def test_constant_gold_gives_undefined_rho(self):
        angles = [0.2, 0.6, 1.1]
        space = angle_space(angles)
        report = evaluate(space, SimilarityDataset("flat", pairs_for(angles, [2, 2, 2])))
        assert report.spearman_rho is None
        assert report.pairs_used == 3

    def test_crosslingual_prefix_lookup(self):
        angles = [0.15, 0.5, 1.0, 1.45]
        tokens = []
        rows = []
        for i, theta in enumerate(angles):
            tokens += [f"en/a{i}", f"de/b{i}"]
            rows += [[1.0, 0.0], [math.cos(theta), math.sin(theta)]]
        space = EmbeddingSpace(tokens, np.array(rows))
        ds = SimilarityDataset(
            "xling",
            tuple((f"a{i}", f"b{i}", float(4 - i)) for i in range(4)),
        )
        unprefixed = evaluate(space, ds)
        assert unprefixed.pairs_used == 0
        assert unprefixed.spearman_rho is None
        report = evaluate(space, ds, prefixes=("en/", "de/"))
        assert report.pairs_used == 4
        assert report.spearman_rho == pytest.approx(1.0, abs=1e-12)

    def test_lookup_is_exact_match_by_default(self):
        space = angle_space([0.3, 0.8])
        ds = SimilarityDataset(
            "case", (("A0", "b0", 2.0), ("a1", "b1", 1.0))
        )
        report = evaluate(space, ds)
        assert report.pairs_used == 1

    def test_lowercase_fallback_flag(self):
        space = angle_space([0.3, 0.8])
        ds = SimilarityDataset(
            "case", (("A0", "B0", 2.0), ("a1", "b1", 1.0))
        )
        report = evaluate(space, ds, lowercase_fallback=True)
        assert report.pairs_used == 2

    def test_oov_policy_is_skip(self):
        space = angle_space([0.3, 0.8])
        ds = SimilarityDataset("toy", pairs_for([0.3, 0.8], [2.0, 1.0]))
        assert evaluate(space, ds).oov_policy == "skip"

    def test_report_is_order_insensitive_in_rho(self):
        angles = [0.2, 0.5, 0.9, 1.3, 1.5]
        space = angle_space(angles)
        gold = [5.0, 1.0, 4.0, 2.0, 3.0]
        forward = pairs_for(angles, gold)
        report_fwd = evaluate(space, SimilarityDataset("fwd", forward))
        report_rev = evaluate(space, SimilarityDataset("rev", forward[::-1]))
        assert report_fwd.spearman_rho == pytest.approx(
            report_rev.spearman_rho, abs=1e-15
        )


class TestEvaluateSuite:
    def build(self):
        angles = [0.1, 0.5, 0.9, 1.3]
        space = angle_space(angles)
        descending = [4.0, 3.0, 2.0, 1.0]
        # Gold [4,2,3,1] against strictly decreasing cosines has one swap:
        # the same pattern as ranks [1,3,2,4], so rho is exactly 0.8.
        swapped = [4.0, 2.0, 3.0, 1.0]
        ds_perfect = SimilarityDataset("perfect", pairs_for(angles, descending))
        ds_swapped = SimilarityDataset("swapped", pairs_for(angles, swapped))
        return space, ds_perfect, ds_swapped

    def test_mean_of_defined_rhos(self):
        space, ds_perfect, ds_swapped = self.build()
        summary = evaluate_suite(space, [ds_perfect, ds_swapped])
        assert summary.reports[0].spearman_rho == pytest.approx(1.0, abs=1e-12)
        assert summary.reports[1].spearman_rho == pytest.approx(0.8, abs=1e-12)
        assert summary.mean_all == pytest.approx(0.9, abs=1e-12)
        assert summary.mean_sim is None
        assert summary.mean_rel is None
        assert summary.undefined == ()

    def test_grouped_means(self):
        space, ds_perfect, ds_swapped = self.build()
        grouping = {"perfect": "sim", "swapped": "rel"}
        summary = evaluate_suite(space, [ds_perfect, ds_swapped], grouping=grouping)
        assert summary.mean_sim == pytest.approx(1.0, abs=1e-12)
        assert summary.mean_rel == pytest.approx(0.8, abs=1e-12)
        assert summary.mean_all == pytest.approx(0.9, abs=1e-12)

    def test_ungrouped_dataset_counts_only_toward_av(self):
        space, ds_perfect, ds_swapped = self.build()
        summary = evaluate_suite(
            space, [ds_perfect, ds_swapped], grouping={"perfect": "sim"}
        )
        assert summary.mean_sim == pytest.approx(1.0, abs=1e-12)
        assert summary.mean_rel is None
        assert summary.mean_all == pytest.approx(0.9, abs=1e-12)

    def test_undefined_rho_excluded_from_means_and_listed(self):
        space, ds_perfect, _ = self.build()
        ds_oov = SimilarityDataset(
            "allmissing", (("nope", "nada", 1.0), ("zip", "zilch", 2.0))
        )
        summary = evaluate_suite(space, [ds_perfect, ds_oov])
        assert summary.mean_all == pytest.approx(1.0, abs=1e-12)
        assert summary.undefined == ("allmissing",)

    def test_bad_group_label_rejected(self):
        space, ds_perfect, _ = self.build()
        with pytest.raises(ValueError, match="sim"):
            evaluate_suite(space, [ds_perfect], grouping={"perfect": "syntax"})

    def test_no_datasets_rejected(self):
        space, _, _ = self.build()
        with pytest.raises(ValueError, match="at least one dataset"):
            evaluate_suite(space, [])


class TestReportOutput:
    def summary(self):
        space = angle_space([0.1, 0.5, 0.9, 1.3])
        ds = SimilarityDataset(
            "toyset", pairs_for([0.1, 0.5, 0.9, 1.3], [4.0, 3.0, 2.0, 1.0])
        )
        ds_oov = SimilarityDataset("vacant", (("no", "pe", 1.0), ("na", "da", 2.0)))
        return evaluate_suite(space, [ds, ds_oov], grouping={"toyset": "sim"})

    def test_table_lists_datasets_and_means(self):
        table = format_report_table(self.summary())
        assert "toyset" in table
        assert "Av" in table
        assert "Sim" in table
        assert "vacant" in table
        assert "n/a" in table
        assert "undefined: vacant" in table

    def test_records_round_trip_as_json_lines(self):
        text = report_records(self.summary())
        records = [json.loads(line) for line in text.splitlines()]
        assert len(records) == 2
        assert records[0]["name"] == "toyset"
        assert records[0]["pairs_used"] == 4
        assert records[0]["pairs_total"] == 4
        assert records[0]["coverage"] == 100.0
        assert records[0]["rho"] == pytest.approx(1.0, abs=1e-12)
        assert records[1]["rho"] is None
        assert records[1]["coverage"] == 0.0

    def test_report_fields_complete(self):
        report = EvalReport(
            dataset="x", spearman_rho=0.5, coverage_pct=80.0,
            pairs_total=10, pairs_used=8,
        )
        assert report.oov_policy == "skip"
