"""End-to-end tests for the command-line interface (in-process, except an
import check and the BLAS thread-count checks, which need fresh
interpreters)."""
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metavec import cli, linalg
from metavec.align import align_to_target, load_bilingual_dictionary
from metavec.cli import main
from metavec.combine import (
    CombineConfig, apply_language_prefixes, combine_mvm, provenance_json,
)
from metavec.embeddings import (
    EmbeddingSpace, load_embeddings, save_embeddings, write_binary_embeddings,
)
from metavec.linalg import normalize_step0
from conftest import bytes_by_blas_threads, run_cli


def write_emb(path, tokens, rows, fmt="text"):
    space = EmbeddingSpace(tokens, np.array(rows, dtype=np.float64))
    save_embeddings(space, path, format=fmt)
    return space


@pytest.fixture
def pair(tmp_path):
    """Two overlapping 4-word 2-d spaces on disk."""
    rng = np.random.default_rng(11)
    p1 = tmp_path / "s1.vec"
    p2 = tmp_path / "s2.vec"
    write_emb(p1, ["a", "b", "c", "d"], rng.normal(size=(4, 2)))
    write_emb(p2, ["b", "c", "d", "e"], rng.normal(size=(4, 2)))
    return p1, p2


def stdout_value(capsys, key):
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no '{key}:' line in {out!r}")


class TestMap:
    def test_self_alignment_residual_near_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        src = tmp_path / "e.vec"
        space = write_emb(src, [f"w{i}" for i in range(12)], rng.normal(size=(12, 6)))
        out = tmp_path / "out.vec"
        assert main(["map", str(src), str(src), "-o", str(out)]) == 0
        assert float(stdout_value(capsys, "residual")) < 1e-9
        aligned = load_embeddings(out)
        expected = normalize_step0(space).matrix
        assert np.allclose(aligned.matrix, expected, atol=1e-9)

    def test_dictionary_size_printed(self, pair, tmp_path, capsys):
        p1, p2 = pair
        out = tmp_path / "out.vec"
        assert main(["map", str(p1), str(p2), "-o", str(out)]) == 0
        assert stdout_value(capsys, "dictionary size") == "3"

    def test_disjoint_vocabularies_fail_without_dict(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        p1 = tmp_path / "en.vec"
        p2 = tmp_path / "de.vec"
        write_emb(p1, ["one", "two", "three"], rng.normal(size=(3, 2)))
        write_emb(p2, ["eins", "zwei", "drei"], rng.normal(size=(3, 2)))
        out = tmp_path / "out.vec"
        assert main(["map", str(p1), str(p2), "-o", str(out)]) == 1
        assert "common vocabulary" in capsys.readouterr().err
        assert not out.exists()

    def test_explicit_bilingual_dictionary(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        p1 = tmp_path / "en.vec"
        p2 = tmp_path / "de.vec"
        write_emb(p1, ["one", "two", "three"], rng.normal(size=(3, 2)))
        write_emb(p2, ["eins", "zwei", "drei"], rng.normal(size=(3, 2)))
        dic = tmp_path / "en-de.tsv"
        dic.write_bytes(b"one\teins\ntwo\tzwei\nthree\tdrei\n")
        out = tmp_path / "out.vec"
        argv = ["map", str(p1), str(p2), "-o", str(out), "--dict", str(dic)]
        assert main(argv) == 0
        assert stdout_value(capsys, "dictionary size") == "3"
        assert load_embeddings(out).tokens == ("one", "two", "three")

    def test_prefixes_apply_to_tokens_and_dictionary(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        p1 = tmp_path / "en.vec"
        p2 = tmp_path / "de.vec"
        write_emb(p1, ["one", "two", "three"], rng.normal(size=(3, 2)))
        write_emb(p2, ["eins", "zwei", "drei"], rng.normal(size=(3, 2)))
        dic = tmp_path / "en-de.tsv"
        dic.write_bytes(b"one\teins\ntwo\tzwei\n")
        out = tmp_path / "out.vec"
        argv = [
            "map", str(p1), str(p2), "-o", str(out),
            "--dict", str(dic), "--prefix", "en/", "--prefix", "de/",
        ]
        assert main(argv) == 0
        assert stdout_value(capsys, "dictionary size") == "2"
        assert load_embeddings(out).tokens == ("en/one", "en/two", "en/three")

    def test_two_dicts_are_a_usage_error_that_writes_nothing(self, pair, tmp_path, capsys):
        # One --dict, for the source: the target needs none.
        p1, p2 = pair
        dic = tmp_path / "d.tsv"
        dic.write_bytes(b"b\tb\n")
        out = tmp_path / "out.vec"
        with pytest.raises(SystemExit) as exc:
            main(["map", str(p1), str(p2), "-o", str(out), "--dict", str(dic), "--dict", str(dic)])
        assert exc.value.code == 2
        assert "expected one --dict per non-target source (1), got 2" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == sorted([dic, p1, p2])

    def test_prefixed_dict_output_is_the_aligned_prefixed_source(self, tmp_path, capsys):
        # Prefixed sources share no token, so the dictionary, under the
        # source's and the target's prefix, is all that links them.
        rng = np.random.default_rng(9)
        paths = [tmp_path / "en.vec", tmp_path / "de.vec"]
        for path in paths:
            write_emb(path, [f"w{i}" for i in range(8)], rng.normal(size=(8, 3)))
        dic = tmp_path / "en-de.tsv"
        dic.write_bytes(b"w0\tw1\nw2\tw2\nw3\tw5\nw6\tw4\nw7\tw7\n")
        out = tmp_path / "out.vec"
        argv = ["map", *map(str, paths), "-o", str(out),
                "--prefix", "en/", "--prefix", "de/", "--dict", str(dic)]
        assert main(argv) == 0
        with open(dic, "rb") as handle:
            dictionary = load_bilingual_dictionary(handle).prefixed("en/", "de/")
        spaces = [apply_language_prefixes(load_embeddings(p), pre)
                  for p, pre in zip(paths, ("en/", "de/"))]
        aligned = align_to_target(spaces, target_index=1, dictionaries=[dictionary, None])
        save_embeddings(aligned.mapped[0], tmp_path / "expected.vec")
        assert out.read_bytes() == (tmp_path / "expected.vec").read_bytes()
        assert stdout_value(capsys, "dictionary size") == "5"

    def test_output_mirrors_binary_input_format(self, tmp_path):
        rng = np.random.default_rng(6)
        src = tmp_path / "e.bin"
        write_emb(src, ["a", "b", "c", "d"], rng.normal(size=(4, 3)), fmt="binary")
        out = tmp_path / "out.bin"
        assert main(["map", str(src), str(src), "-o", str(out)]) == 0
        assert load_embeddings(out, format="binary").tokens == ("a", "b", "c", "d")

    def test_format_flag_overrides_mirroring(self, tmp_path):
        rng = np.random.default_rng(6)
        src = tmp_path / "e.bin"
        write_emb(src, ["a", "b", "c"], rng.normal(size=(3, 2)), fmt="binary")
        out = tmp_path / "out.txt"
        argv = ["map", str(src), str(src), "-o", str(out), "--format", "text"]
        assert main(argv) == 0
        assert out.read_bytes().startswith(b"3 2\n")

    def test_repeat_runs_are_bitwise_identical(self, pair, tmp_path, capsys):
        p1, p2 = pair
        out1 = tmp_path / "r1.vec"
        out2 = tmp_path / "r2.vec"
        assert main(["map", str(p1), str(p2), "-o", str(out1)]) == 0
        assert main(["map", str(p1), str(p2), "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_input_is_reported(self, tmp_path, capsys):
        out = tmp_path / "out.vec"
        code = main(["map", str(tmp_path / "no.vec"), str(tmp_path / "no.vec"),
                     "-o", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestMvm:
    def test_union_vocabulary_and_sidecar(self, pair, tmp_path, capsys):
        p1, p2 = pair
        out = tmp_path / "meta.vec"
        assert main(["mvm", str(p1), str(p2), "-o", str(out)]) == 0
        meta = load_embeddings(out)
        assert set(meta.tokens) == {"a", "b", "c", "d", "e"}
        sidecar = tmp_path / "meta.vec.provenance.json"
        record = json.loads(sidecar.read_text())
        assert record["method"] == "mvm"
        assert record["vocabulary"] == 5
        assert record["oov"] == "nn"
        assert record["synthesized"] == [1, 1]

    def test_target_index_recorded(self, pair, tmp_path):
        p1, p2 = pair
        out = tmp_path / "meta.vec"
        argv = ["mvm", str(p1), str(p2), "-o", str(out), "--target-index", "1"]
        assert main(argv) == 0
        record = json.loads((tmp_path / "meta.vec.provenance.json").read_text())
        assert record["target_index"] == 1

    def test_duplicate_input_path_is_self_ensemble(self, tmp_path):
        rng = np.random.default_rng(9)
        src = tmp_path / "e.vec"
        space = write_emb(src, [f"w{i}" for i in range(10)], rng.normal(size=(10, 4)))
        out = tmp_path / "meta.vec"
        assert main(["mvm", str(src), str(src), "-o", str(out)]) == 0
        meta = load_embeddings(out)
        expected = normalize_step0(space).matrix
        norms = np.linalg.norm(expected, axis=1, keepdims=True)
        expected = expected / np.where(norms == 0.0, 1.0, norms)
        assert np.allclose(meta.matrix, expected, atol=1e-9)

    def test_single_source_is_usage_error(self, tmp_path, pair):
        p1, _ = pair
        with pytest.raises(SystemExit) as exc:
            main(["mvm", str(p1), "-o", str(tmp_path / "x.vec")])
        assert exc.value.code == 2

    def test_dict_count_mismatch_is_usage_error(self, pair, tmp_path):
        p1, p2 = pair
        dic = tmp_path / "d.tsv"
        dic.write_bytes(b"a\ta\n")
        with pytest.raises(SystemExit) as exc:
            main(["mvm", str(p1), str(p2), "-o", str(tmp_path / "x.vec"),
                  "--dict", str(dic), "--dict", str(dic)])
        assert exc.value.code == 2

    def test_prefix_count_mismatch_is_usage_error(self, pair, tmp_path):
        p1, p2 = pair
        with pytest.raises(SystemExit) as exc:
            main(["mvm", str(p1), str(p2), "-o", str(tmp_path / "x.vec"),
                  "--prefix", "en/"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("with_dict", [False, True])
    def test_target_index_out_of_range_is_usage_error(self, pair, tmp_path, capsys, with_dict):
        # With --dict, the index is checked before the dictionaries are
        # handed out by it.
        p1, p2 = pair
        dic = tmp_path / "d.tsv"
        dic.write_bytes(b"a\ta\n")
        out = tmp_path / "x.vec"
        argv = ["mvm", str(p1), str(p2), "-o", str(out), "--target-index", "5"]
        with pytest.raises(SystemExit) as exc:
            main(argv + (["--dict", str(dic)] if with_dict else []))
        assert exc.value.code == 2
        assert "--target-index 5 out of range for 2 sources" in capsys.readouterr().err
        assert not list(tmp_path.glob("x.vec*"))

    def test_dict_files_go_to_the_non_target_sources_in_order(self, tmp_path):
        # Prefixed sources share no token, so only the dictionaries link
        # them to the target (the second source).
        rng = np.random.default_rng(13)
        paths = [tmp_path / f"{lang}.vec" for lang in ("en", "de", "fr")]
        for path in paths:
            write_emb(path, [f"w{i}" for i in range(8)], rng.normal(size=(8, 3)))
        dicts = [tmp_path / "en-de.tsv", tmp_path / "fr-de.tsv"]
        for path, pairs in zip(dicts, (6, 5)):
            path.write_text("".join(f"w{i}\tw{i}\n" for i in range(pairs)))
        out = tmp_path / "meta.vec"
        argv = ["mvm", *map(str, paths), "-o", str(out), "--target-index", "1",
                "--prefix", "en/", "--prefix", "de/", "--prefix", "fr/",
                "--dict", str(dicts[0]), "--dict", str(dicts[1])]
        assert main(argv) == 0
        dictionaries = []
        for path in dicts:
            with open(path, "rb") as handle:
                dictionaries.append(load_bilingual_dictionary(handle))
        prefixes = ("en/", "de/", "fr/")
        config = CombineConfig(method="mvm", target_index=1, language_prefixes=prefixes)
        meta = combine_mvm([load_embeddings(p) for p in paths], config,
                           dictionaries=[dictionaries[0], None, dictionaries[1]])
        save_embeddings(meta.space, tmp_path / "expected.vec")
        assert out.read_bytes() == (tmp_path / "expected.vec").read_bytes()
        sidecar = (tmp_path / "meta.vec.provenance.json").read_text(encoding="utf-8")
        assert sidecar == provenance_json(meta)
        assert json.loads(sidecar)["dictionary_sizes"] == [6, None, 5]

    def test_oov_policy_flag_recorded(self, pair, tmp_path):
        p1, p2 = pair
        out = tmp_path / "meta.vec"
        argv = ["mvm", str(p1), str(p2), "-o", str(out), "--oov", "zero"]
        assert main(argv) == 0
        record = json.loads((tmp_path / "meta.vec.provenance.json").read_text())
        assert record["oov"] == "zero"

    def test_repeat_runs_are_bitwise_identical(self, pair, tmp_path):
        p1, p2 = pair
        out1 = tmp_path / "m1.vec"
        out2 = tmp_path / "m2.vec"
        assert main(["mvm", str(p1), str(p2), "-o", str(out1)]) == 0
        assert main(["mvm", str(p1), str(p2), "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_failed_sidecar_write_removes_embedding_output(self, pair, tmp_path, capsys):
        p1, p2 = pair
        out = tmp_path / "meta.vec"
        (tmp_path / "meta.vec.provenance.json").mkdir()
        assert main(["mvm", str(p1), str(p2), "-o", str(out)]) == 1
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp.*"))


class TestBaseline:
    def test_concat_dims_add_up(self, tmp_path):
        rng = np.random.default_rng(12)
        p1 = tmp_path / "lo.vec"
        p2 = tmp_path / "hi.vec"
        write_emb(p1, ["a", "b", "c"], rng.normal(size=(3, 2)))
        write_emb(p2, ["a", "b", "c"], rng.normal(size=(3, 3)))
        out = tmp_path / "cat.vec"
        argv = ["baseline", str(p1), str(p2), "-o", str(out), "--method", "concat"]
        assert main(argv) == 0
        assert load_embeddings(out).dim == 5

    def test_empty_sources_give_a_header_only_text_output(self, tmp_path):
        # No rows make no blocks, for any worker count.
        paths = [tmp_path / "e1.bin", tmp_path / "e2.bin"]
        for path in paths:
            path.write_bytes(b"0 2\n")
        out = tmp_path / "c.vec"
        argv = ["baseline", *map(str, paths), "-o", str(out), "--method", "concat"]
        assert main(argv + ["--format", "text"]) == 0
        assert out.read_bytes() == b"0 4\n"

    def test_concat_reduce_requires_dim(self, pair, tmp_path):
        p1, p2 = pair
        with pytest.raises(SystemExit) as exc:
            main(["baseline", str(p1), str(p2), "-o", str(tmp_path / "x.vec"),
                  "--method", "concat-reduce"])
        assert exc.value.code == 2

    def test_dim_rejected_outside_concat_reduce(self, pair, tmp_path):
        p1, p2 = pair
        with pytest.raises(SystemExit) as exc:
            main(["baseline", str(p1), str(p2), "-o", str(tmp_path / "x.vec"),
                  "--method", "average", "--dim", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("method", ["average", "concat"])
    def test_post_remove_rejected_outside_concat_reduce(self, pair, tmp_path, capsys, method):
        p1, p2 = pair
        out = tmp_path / "x.vec"
        with pytest.raises(SystemExit) as exc:
            main(["baseline", str(p1), str(p2), "-o", str(out),
                  "--method", method, "--post-remove", "3"])
        assert exc.value.code == 2
        assert "--post-remove only applies" in capsys.readouterr().err
        assert not out.exists()

    def test_concat_reduce_hits_requested_dim(self, pair, tmp_path):
        p1, p2 = pair
        out = tmp_path / "red.vec"
        argv = ["baseline", str(p1), str(p2), "-o", str(out),
                "--method", "concat-reduce", "--dim", "2", "--nn-oov"]
        assert main(argv) == 0
        reduced = load_embeddings(out)
        assert reduced.dim == 2
        assert set(reduced.tokens) == {"a", "b", "c", "d", "e"}

    def test_average_with_nn_oov_covers_union(self, pair, tmp_path):
        p1, p2 = pair
        out = tmp_path / "avg.vec"
        argv = ["baseline", str(p1), str(p2), "-o", str(out),
                "--method", "average", "--nn-oov"]
        assert main(argv) == 0
        assert set(load_embeddings(out).tokens) == {"a", "b", "c", "d", "e"}

    def test_average_default_keeps_union_with_available_policy(self, pair, tmp_path):
        p1, p2 = pair
        out = tmp_path / "avg.vec"
        argv = ["baseline", str(p1), str(p2), "-o", str(out), "--method", "average"]
        assert main(argv) == 0
        assert set(load_embeddings(out).tokens) == {"a", "b", "c", "d", "e"}

    @pytest.mark.parametrize("method", ["average", "concat"])
    def test_prefixes_apply_to_tokens(self, pair, tmp_path, method):
        p1, p2 = pair
        out = tmp_path / "pre.vec"
        argv = ["baseline", str(p1), str(p2), "-o", str(out), "--method", method,
                "--prefix", "en/", "--prefix", "de/"]
        assert main(argv) == 0
        assert load_embeddings(out).tokens == (
            "en/a", "en/b", "en/c", "en/d", "de/b", "de/c", "de/d", "de/e"
        )

    def test_prefix_count_mismatch_is_usage_error(self, pair, tmp_path):
        p1, p2 = pair
        out = tmp_path / "pre.vec"
        with pytest.raises(SystemExit) as exc:
            main(["baseline", str(p1), str(p2), "-o", str(out), "--method", "average",
                  "--prefix", "en/"])
        assert exc.value.code == 2
        assert not out.exists()


def pinned_sources(tmp_path):
    """Three binary sources over 90 words of 12 dims, noisy copies of one
    latent space: source n lacks the words i < 45 with i % 3 == n, 15 of
    them, and holds the other 75. Source 1 holds one zero row and one row
    of -0.0, so each is a word no donor can rank."""
    rng = np.random.default_rng(41)
    latent = rng.normal(size=(90, 12))
    paths = []
    for n in range(3):
        kept = [i for i in range(90) if i >= 45 or i % 3 != n]
        matrix = latent[kept] + 0.3 * rng.normal(size=(len(kept), 12))
        if n == 1:
            matrix[-1] = 0.0
            matrix[-2] = -0.0
        paths.append(tmp_path / f"p{n}.bin")
        tokens = [f"w{i:02d}" for i in kept]
        paths[-1].write_bytes(write_binary_embeddings(EmbeddingSpace(tokens, matrix)))
    return paths


# SHA-256 of the 17-digit text output of ``baseline`` on ``pinned_sources``.
# Ranking order is certified by float64 cosines taken without BLAS, so no
# product's thread count decides these bytes. Under --nn-oov a centroid is
# taken from the rows as read, each times 1 / its norm (``_Step0.means``).
PINNED_BASELINES = {
    ("average", False): "d848cd25e1eca86b59caef5a66073fcf08ae593368d4610439f7b174b81f7aad",
    ("average", True): "b91877c5b379bc6ce66abf92236cf04ab1f2efd465010b4fe8b1e32a7f566362",
    ("concat", False): "115dd21f6bf98467e7c3fd8b9f37794625c154cefe28678b6d88da46890f8bce",
    ("concat", True): "bc1b9b73a942a36d3a51c0451bf8052eaf5cde14c415a6504ef3985d00dd1dd9",
}


class TestPinnedBaselines:
    @pytest.mark.parametrize("method, nn", sorted(PINNED_BASELINES))
    def test_text_output_bytes_are_pinned(self, tmp_path, method, nn):
        paths = pinned_sources(tmp_path)
        argv = ["baseline", *map(str, paths), "--method", method, "--format", "text"]
        argv += ["--nn-oov"] if nn else []
        for threads in (["--threads", "1"], []):
            out = tmp_path / "out.vec"
            assert main([*argv, "-o", str(out), *threads]) == 0
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            assert digest == PINNED_BASELINES[method, nn], threads


class TestSynthOov:
    def test_identical_vocab_outputs_equal_inputs(self, tmp_path, capsys):
        rng = np.random.default_rng(15)
        p1 = tmp_path / "x.vec"
        p2 = tmp_path / "y.vec"
        tokens = ["a", "b", "c", "d"]
        write_emb(p1, tokens, rng.normal(size=(4, 3)))
        write_emb(p2, tokens, rng.normal(size=(4, 3)))
        o1 = tmp_path / "x.out.vec"
        o2 = tmp_path / "y.out.vec"
        assert main(["synth-oov", str(p1), str(p2), str(o1), str(o2)]) == 0
        assert o1.read_bytes() == p1.read_bytes()
        assert o2.read_bytes() == p2.read_bytes()
        out = capsys.readouterr().out
        assert f"synthesized into {o1}: 0" in out
        assert f"synthesized into {o2}: 0" in out

    def test_union_vocabulary_and_counts(self, pair, tmp_path, capsys):
        p1, p2 = pair
        o1 = tmp_path / "o1.vec"
        o2 = tmp_path / "o2.vec"
        assert main(["synth-oov", str(p1), str(p2), str(o1), str(o2), "--k", "2"]) == 0
        e1 = load_embeddings(o1)
        e2 = load_embeddings(o2)
        assert e1.tokens == e2.tokens
        assert set(e1.tokens) == {"a", "b", "c", "d", "e"}
        out = capsys.readouterr().out
        assert f"synthesized into {o1}: 1" in out
        assert f"synthesized into {o2}: 1" in out

    def test_audit_dump_lists_neighbors(self, pair, tmp_path):
        p1, p2 = pair
        o1 = tmp_path / "o1.vec"
        o2 = tmp_path / "o2.vec"
        audit = tmp_path / "audit.tsv"
        argv = ["synth-oov", str(p1), str(p2), str(o1), str(o2),
                "--k", "2", "--audit", str(audit)]
        assert main(argv) == 0
        lines = audit.read_bytes().decode().splitlines()
        assert len(lines) == 2
        words = {line.split("\t")[0] for line in lines}
        assert words == {"a", "e"}
        for line in lines:
            neighbors = line.split("\t")[1].split(",")
            assert 1 <= len(neighbors) <= 2

    def test_shortfalls_and_skipped_words_are_warned(self, tmp_path, caplog):
        # The shared words are zero vectors in x.vec, so neither x.vec-only
        # word can be ranked: "dead" is a zero vector itself, and "live" has
        # no candidate with a direction. In y.vec they have directions, and
        # "y" gets both of them, short of k=3.
        p1 = tmp_path / "x.vec"
        p2 = tmp_path / "y.vec"
        write_emb(p1, ["s1", "s2", "dead", "live"], [[0, 0], [0, 0], [0, 0], [1, 1]])
        write_emb(p2, ["s1", "s2", "y"], [[1, 0], [0, 1], [1, 2]])
        argv = ["synth-oov", str(p1), str(p2),
                str(tmp_path / "o1.vec"), str(tmp_path / "o2.vec"), "--k", "3"]
        with caplog.at_level("WARNING", logger="metavec.cli"):
            assert main(argv) == 0
        assert [record.getMessage() for record in caplog.records] == [
            "1 word(s) had fewer than k neighbors",
            "2 word(s) skipped (a zero vector, or no shared word with a direction),"
            " filled with zeros",
        ]

    @pytest.mark.parametrize("outputs", [
        ["x.vec", "x.vec"],
        ["./x.vec", "x.vec"],
        ["y.vec", "x.vec", "--audit", "y.vec"],
        ["x.vec", "y.vec", "--audit", "./y.vec"],
    ], ids=["out1-out2", "dot-slash", "audit-out1", "audit-out2"])
    def test_outputs_naming_one_file_are_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                                       outputs):
        # The inputs do not exist: the outputs are checked before any is read.
        monkeypatch.chdir(tmp_path)
        before = {"x.vec": b"kept\n", "y.vec": b"kept too\n"}
        for name, data in before.items():
            (tmp_path / name).write_bytes(data)
        with pytest.raises(SystemExit) as exc:
            main(["synth-oov", "a.vec", "b.vec", *outputs])
        assert exc.value.code == 2
        assert "must name different files" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_dim_mismatch_fails(self, tmp_path, capsys):
        rng = np.random.default_rng(16)
        p1 = tmp_path / "x.vec"
        p2 = tmp_path / "y.vec"
        write_emb(p1, ["a", "b"], rng.normal(size=(2, 2)))
        write_emb(p2, ["a", "b"], rng.normal(size=(2, 3)))
        code = main(["synth-oov", str(p1), str(p2),
                     str(tmp_path / "o1.vec"), str(tmp_path / "o2.vec")])
        assert code == 1
        assert "dim" in capsys.readouterr().err
        assert not (tmp_path / "o1.vec").exists()


class TestEval:
    def make_embedding(self, tmp_path, prefix=""):
        angles = [0.1, 0.5, 0.9, 1.3]
        tokens = []
        rows = []
        for i, theta in enumerate(angles):
            tokens += [f"{prefix}a{i}", f"{prefix}b{i}"]
            rows += [[1.0, 0.0], [math.cos(theta), math.sin(theta)]]
        path = tmp_path / "emb.vec"
        write_emb(path, tokens, rows)
        return path

    def make_dataset(self, tmp_path, name="toyset", gold=(4.0, 3.0, 2.0, 1.0)):
        path = tmp_path / f"{name}.tsv"
        lines = [f"a{i}\tb{i}\t{g}\n" for i, g in enumerate(gold)]
        path.write_text("".join(lines))
        return path

    def test_single_dataset_table(self, tmp_path, capsys):
        emb = self.make_embedding(tmp_path)
        ds = self.make_dataset(tmp_path)
        assert main(["eval", str(emb), str(ds)]) == 0
        out = capsys.readouterr().out
        assert "toyset" in out
        assert "1.0000" in out
        assert "Av" in out

    def test_groups_file_adds_sim_rel_rows(self, tmp_path, capsys):
        emb = self.make_embedding(tmp_path)
        d1 = self.make_dataset(tmp_path, "simset")
        d2 = self.make_dataset(tmp_path, "relset", gold=(4.0, 2.0, 3.0, 1.0))
        groups = tmp_path / "groups.txt"
        groups.write_text("simset sim\nrelset rel\n")
        argv = ["eval", str(emb), str(d1), str(d2), "--groups", str(groups)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Sim" in out
        assert "Rel" in out

    def test_groups_file_may_start_with_a_byte_order_mark(self, tmp_path, capsys):
        emb = self.make_embedding(tmp_path)
        ds = self.make_dataset(tmp_path, "simset")
        groups = tmp_path / "groups.txt"
        groups.write_bytes(b"\xef\xbb\xbfsimset sim\n")
        assert main(["eval", str(emb), str(ds), "--groups", str(groups)]) == 0
        assert "Sim" in capsys.readouterr().out

    def test_groups_file_that_is_not_utf8_fails_at_its_line(self, tmp_path, capsys):
        emb = self.make_embedding(tmp_path)
        ds = self.make_dataset(tmp_path)
        groups = tmp_path / "groups.txt"
        groups.write_bytes(b"# kinds\ntoyset sim\nother\xff rel\n")
        assert main(["eval", str(emb), str(ds), "--groups", str(groups)]) == 1
        assert "error: line 3: not valid UTF-8" in capsys.readouterr().err

    def test_report_file_has_one_record_per_dataset(self, tmp_path, capsys):
        emb = self.make_embedding(tmp_path)
        d1 = self.make_dataset(tmp_path, "one")
        d2 = self.make_dataset(tmp_path, "two")
        report = tmp_path / "report.jsonl"
        argv = ["eval", str(emb), str(d1), str(d2), "--report", str(report)]
        assert main(argv) == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert [r["name"] for r in records] == ["one", "two"]
        assert records[0]["coverage"] == 100.0
        assert records[0]["pairs_used"] == 4

    def test_crosslingual_prefix_lookup(self, tmp_path, capsys):
        angles = [0.1, 0.5, 0.9, 1.3]
        tokens = []
        rows = []
        for i, theta in enumerate(angles):
            tokens += [f"en/a{i}", f"de/b{i}"]
            rows += [[1.0, 0.0], [math.cos(theta), math.sin(theta)]]
        emb = tmp_path / "xling.vec"
        write_emb(emb, tokens, rows)
        ds = self.make_dataset(tmp_path)
        argv = ["eval", str(emb), str(ds), "--crosslingual", "en/", "de/"]
        assert main(argv) == 0
        assert "1.0000" in capsys.readouterr().out

    def test_comma_delimiter(self, tmp_path, capsys):
        emb = self.make_embedding(tmp_path)
        ds = tmp_path / "c.csv"
        ds.write_text("a0,b0,4\na1,b1,3\na2,b2,2\na3,b3,1\n")
        argv = ["eval", str(emb), str(ds), "--delimiter", "comma"]
        assert main(argv) == 0
        assert "1.0000" in capsys.readouterr().out

    def test_lowercase_fallback_flag(self, tmp_path, capsys):
        emb = self.make_embedding(tmp_path)
        ds = tmp_path / "case.tsv"
        ds.write_text("A0\tB0\t2\na1\tb1\t1\n")
        assert main(["eval", str(emb), str(ds)]) == 0
        strict = capsys.readouterr().out
        assert "1/2" in strict
        argv = ["eval", str(emb), str(ds), "--lowercase-fallback"]
        assert main(argv) == 0
        assert "2/2" in capsys.readouterr().out

    def test_missing_embedding_fails(self, tmp_path, capsys):
        ds = self.make_dataset(tmp_path)
        assert main(["eval", str(tmp_path / "no.vec"), str(ds)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_groups_file_fails(self, tmp_path, capsys):
        emb = self.make_embedding(tmp_path)
        ds = self.make_dataset(tmp_path)
        argv = ["eval", str(emb), str(ds), "--groups", str(tmp_path / "no.txt")]
        assert main(argv) == 1

    def test_malformed_groups_line_fails(self, tmp_path, capsys):
        emb = self.make_embedding(tmp_path)
        ds = self.make_dataset(tmp_path)
        groups = tmp_path / "groups.txt"
        groups.write_text("toyset syntax\n")
        assert main(["eval", str(emb), str(ds), "--groups", str(groups)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_all_oov_dataset_reports_undefined(self, tmp_path, capsys):
        emb = self.make_embedding(tmp_path)
        ds = tmp_path / "gone.tsv"
        ds.write_text("nope\tnada\t1\nzip\tzilch\t2\n")
        assert main(["eval", str(emb), str(ds)]) == 0
        out = capsys.readouterr().out
        assert "n/a" in out
        assert "undefined: gone" in out


def rotated_sources(tmp_path, words=400, dim=100):
    """Three text files of ``words`` words of ``dim`` dims over a universe
    of 1.25 times as many, each shifted by an eighth of it and randomly
    rotated. At this shape OpenBLAS changes the bits of the alignment's
    products with its thread count: without the one-thread pin, every row
    of the mvm output differs between one thread and two."""
    rng = np.random.default_rng(17)
    universe = [f"w{i:04d}" for i in range(words + words // 4)]
    latent = rng.normal(size=(len(universe), dim))
    paths = []
    for n, start in enumerate((0, words // 8, words // 4)):
        rotation = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        paths.append(tmp_path / f"r{n}.vec")
        window = slice(start, start + words)
        write_emb(paths[-1], universe[window], latent[window] @ rotation)
    return paths


class TestCommonFlags:
    def test_threads_flag_does_not_change_output(self, tmp_path, monkeypatch):
        # --threads sets the Python threads of the whole command, which
        # runs at one BLAS thread (both seen here from inside the run), and
        # the output bytes stay the same.
        if not linalg._openblas():
            pytest.skip("numpy does not use OpenBLAS here")
        seen = []
        real_plan = cli._plan

        def spy(*args):
            counts = [get() for get, _ in linalg._openblas()]
            with linalg._blas_threads(1) as pool:
                seen.append((pool, counts))
            return real_plan(*args)

        monkeypatch.setattr(cli, "_plan", spy)
        paths = rotated_sources(tmp_path)
        outputs = []
        for threads in ("2", "1"):
            out = tmp_path / f"t{threads}.vec"
            assert main(["mvm", *map(str, paths), "-o", str(out), "--threads", threads]) == 0
            outputs.append(out.read_bytes() + Path(f"{out}.provenance.json").read_bytes())
        ones = [1] * len(seen[0][1])
        assert seen == [(2, ones), (1, ones)]
        assert outputs[0] == outputs[1]

    def test_fits_keep_their_threads_while_text_sources_stream(self, tmp_path, monkeypatch):
        # Text sources are parsed in forked workers, and the parent stays
        # at one BLAS thread until the last one arrives; the fits run in
        # between. Blocks of 16 anchor rows give each fit 16 or more
        # blocks: with --threads 2 they run in two Python threads, as they
        # do with binary sources, and write the bytes of one.
        threads = []
        pool = linalg.ThreadPoolExecutor

        def counted(workers):
            threads.append(workers)
            return pool(workers)

        monkeypatch.setattr(linalg, "ThreadPoolExecutor", counted)
        monkeypatch.setattr(linalg, "_PRODUCT_BYTES", 8 * 100 * 16)
        monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
        paths = rotated_sources(tmp_path)
        outputs = []
        for count in ("2", "1"):
            out = tmp_path / f"t{count}.vec"
            assert main(["mvm", *map(str, paths), "-o", str(out), "--threads", count]) == 0
            outputs.append(out.read_bytes() + Path(f"{out}.provenance.json").read_bytes())
            if count == "2":
                assert threads and set(threads) == {2}
                threads.clear()
        assert not threads
        assert outputs[0] == outputs[1]

    def test_mvm_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        paths = rotated_sources(tmp_path)
        runs = bytes_by_blas_threads(
            tmp_path, lambda out: ["mvm", *paths, "-o", out / "meta.vec"],
            ["meta.vec", "meta.vec.provenance.json"],
        )
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("command", ["mvm", "map"])
    def test_text_workers_write_the_bytes_of_one(self, tmp_path, command):
        # Text rows are made, products and all, in forked workers: mvm's
        # union rows, and map's aligned rows. With OpenBLAS started at two
        # threads, two workers must write the bytes one worker writes,
        # within the subprocess timeout.
        paths = rotated_sources(tmp_path)
        argv = [command, *paths] if command == "mvm" else [command, *paths[:2], "--format", "text"]
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.vec"
            run_cli([*argv, "-o", out, "--threads", workers], blas_threads=2)
            # The output and, for mvm, its provenance sidecar.
            outputs.append(b"".join(p.read_bytes() for p in sorted(tmp_path.glob(f"{out.name}*"))))
        assert outputs[0] == outputs[1]

    def test_concat_reduce_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # Unpinned, the reduction's SVDs and products change every row
        # with the thread count at this shape.
        paths = rotated_sources(tmp_path, words=200, dim=60)
        argv = ["baseline", *paths, "--method", "concat-reduce", "--dim", "30",
                "--post-remove", "1"]
        runs = bytes_by_blas_threads(
            tmp_path, lambda out: [*argv, "-o", out / "meta.vec"], ["meta.vec"]
        )
        assert runs[0] == runs[1]

    def test_pipeline_leaves_numpy_ma_unimported(self, pair, tmp_path):
        # numpy imports numpy.ma lazily, e.g. from ``np.unique`` without
        # ``return_*`` arguments; the import's allocations outlive the run's
        # largest arrays and can keep the heap from shrinking after them.
        p1, p2 = pair
        runs = [
            ["mvm", str(p1), str(p2), "-o", str(tmp_path / "meta.vec")],
            ["synth-oov", str(p1), str(p2), str(tmp_path / "x1.vec"), str(tmp_path / "x2.vec"),
             "--audit", str(tmp_path / "audit.tsv")],
        ]
        script = (
            "import json, sys\n"
            "from metavec.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(runs)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [[0, 0], False]

    def test_synth_oov_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # Ranking is synth-oov's only BLAS use. Its float32 products here
        # are 40 queries x 40 candidates over 1000 dims, a shape whose bits
        # OpenBLAS changes with its thread count. Each direction comes four
        # times among the candidates: itself, an exact twin and two near
        # copies, about 1e-9 apart in cosine, where float32 scores cannot
        # tell them apart; ranking by those scores alone gives outputs that
        # differ between one thread and two.
        rng = np.random.default_rng(91)
        base = rng.normal(size=(10, 1000))
        near = [base + 1e-9 * rng.normal(size=base.shape) for _ in range(2)]
        shared_rows = np.vstack([base, 2.0 * base, *near])
        shared = [f"s{i:03d}" for i in rng.permutation(len(shared_rows))]
        inputs = []
        for own, scale in (("a", 1.0), ("b", 3.0)):
            only = base[rng.integers(0, len(base), size=40)] + 0.3 * rng.normal(size=(40, 1000))
            inputs.append(tmp_path / f"{own}.vec")
            tokens = shared + [f"{own}{i:02d}" for i in range(40)]
            write_emb(inputs[-1], tokens, np.vstack([shared_rows * scale, only]))
        runs = bytes_by_blas_threads(
            tmp_path,
            lambda out: ["synth-oov", *inputs, out / "x1.bin", out / "x2.bin",
                         "--audit", out / "audit.tsv"],
            ["x1.bin", "x2.bin", "audit.tsv"],
        )
        assert runs[0] == runs[1]

    def test_precision_flag_shortens_text_output(self, tmp_path):
        rng = np.random.default_rng(21)
        src = tmp_path / "e.vec"
        write_emb(src, ["a", "b", "c"], rng.normal(size=(3, 2)))
        out = tmp_path / "out.vec"
        argv = ["map", str(src), str(src), "-o", str(out), "--precision", "3"]
        assert main(argv) == 0
        body = out.read_text().splitlines()[1]
        for value in body.split(" ")[1:]:
            mantissa = value.lstrip("-0.").replace(".", "")
            assert len(mantissa) <= 3

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "metavec" in capsys.readouterr().out

    def test_readme_command_lines_parse(self):
        # Every example of the README's "Command line" section names
        # flags the parser knows; nothing is run.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line) for line in block.splitlines() if line.startswith("metavec ")]
        assert {argv[1] for argv in lines} == {"map", "mvm", "baseline", "synth-oov", "eval"}
        for argv in lines:
            cli.build_parser().parse_args(argv[1:])
