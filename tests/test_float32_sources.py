"""Binary sources stay float32: the parser keeps the file's values at half
the bytes, and every computation widens them, exactly, as it reads them.
So every public entry point, and every CLI command, gives the bits on a
binary-parsed space that it gives on its float64 copy, or on a 17-digit
text rendering of the file."""
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from metavec import cli, embeddings
from metavec.combine import CombineConfig, combine
from metavec.embeddings import (
    EmbeddingSpace,
    ParseError,
    load_embeddings,
    parse_binary_embeddings,
    save_embeddings,
    write_binary_embeddings,
    write_text_embeddings,
)
from metavec.evaluate import SimilarityDataset, evaluate_suite, report_records
from metavec.linalg import (
    OrthogonalMap,
    apply_map,
    apply_reduction,
    fit_reduction,
    l2_normalize_rows,
    mean_center_columns,
    normalize_step0,
)
from metavec.oov import extend_to_union, nearest_neighbors, synthesize_word
from conftest import traced_peak

WORDS = [f"w{i:02d}" for i in range(12)]


def parsed_binary(tokens, matrix):
    """The space a binary file of ``tokens`` and ``matrix`` parses to."""
    return parse_binary_embeddings(write_binary_embeddings(EmbeddingSpace(tokens, matrix)))


def float64_copy(space):
    return EmbeddingSpace(space.tokens, space.matrix)


def assert_same(a, b):
    """Bitwise equal, and of one dtype, down through spaces, maps, arrays,
    tuples and dicts."""
    assert type(a) is type(b)
    if isinstance(a, EmbeddingSpace):
        assert a.tokens == b.tokens and a.meta == b.meta
        assert_same(a.matrix, b.matrix)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype == np.float64
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_same(a[key], b[key])
    elif hasattr(a, "__dataclass_fields__"):
        for field in a.__dataclass_fields__:
            assert_same(getattr(a, field), getattr(b, field))
    elif hasattr(a, "basis"):
        assert_same((a.mean, a.basis, a.post_remove), (b.mean, b.basis, b.post_remove))
    elif isinstance(a, float):
        assert np.float64(a).tobytes() == np.float64(b).tobytes()
    else:
        assert a == b


def attempt(call):
    """What ``call()`` returns, or the type and message of what it raises
    (a zero query vector, say)."""
    try:
        return call()
    except (ValueError, KeyError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def source_pairs(draw):
    """Two binary-parsed spaces of one dim sharing at least two words;
    values are float32, some rows repeat and some are zero."""
    dim = draw(st.integers(1, 5))
    present = [
        draw(st.lists(st.sampled_from(WORDS[2:]), unique=True, max_size=8)) for _ in range(2)
    ]
    values = st.floats(-8.0, 8.0, width=32)
    spaces = []
    for own in present:
        tokens = WORDS[:2] + own
        rows = draw(st.lists(
            st.one_of(
                st.lists(values, min_size=dim, max_size=dim),
                st.just([0.0] * dim),
                st.just([1.0] + [0.0] * (dim - 1)),
            ),
            min_size=len(tokens), max_size=len(tokens),
        ))
        spaces.append(parsed_binary(tokens, np.array(rows, dtype=np.float64)))
    return spaces


@settings(max_examples=60)
@given(source_pairs(), st.data())
def test_every_entry_point_gives_the_float64_bits(sources, data):
    copies = [float64_copy(space) for space in sources]
    for space, copy in zip(sources, copies):
        assert space.matrix.dtype == np.float32
        assert copy.matrix.dtype == np.float64
        assert space.matrix.astype(np.float64).tobytes() == copy.matrix.tobytes()
    a, b = sources
    dim = a.dim
    rng = np.random.default_rng(dim)
    omap = OrthogonalMap(np.linalg.qr(rng.normal(size=(dim, dim)))[0])
    k = data.draw(st.integers(1, dim))
    post_remove = data.draw(st.integers(0, k - 1))
    reduce_dim = data.draw(st.integers(1, 2 * dim))
    neighbors = data.draw(st.integers(1, 4))
    words = sorted(set(a.tokens) | set(b.tokens))
    pairs = [(w1, w2, float(i)) for i, (w1, w2) in enumerate(zip(words, words[1:] + words[:1]))]
    datasets = [SimilarityDataset("pairs", tuple(pairs))]

    def outcomes(x, y):
        rmap = fit_reduction(x, k, post_remove=post_remove)
        calls = [
            lambda: [x.vector(t) for t in x.tokens],
            lambda: l2_normalize_rows(x),
            lambda: mean_center_columns(x),
            lambda: normalize_step0(x),
            lambda: normalize_step0(x, renormalize=False),
            lambda: apply_map(x, omap),
            lambda: rmap,
            lambda: apply_reduction(x, rmap),
            lambda: extend_to_union(x, y, neighbors, record_neighbors=True),
            lambda: evaluate_suite(x, datasets),
            lambda: report_records(evaluate_suite(x, datasets)),
            lambda: write_text_embeddings(x),
            lambda: write_text_embeddings(x, precision=7),
            lambda: write_binary_embeddings(x),
        ]
        for t in x.tokens:
            calls.append(lambda t=t: nearest_neighbors(x, t, neighbors))
            calls.append(lambda t=t: nearest_neighbors(x, t, neighbors, restrict_to=y.tokens))
            calls.append(lambda t=t: synthesize_word(t, x, y, neighbors))
        for config in [
            CombineConfig(method="mvm", k_neighbors=neighbors),
            CombineConfig(method="mvm", target_index=1, oov="available"),
            CombineConfig(method="average"),
            CombineConfig(method="average", oov="nn", k_neighbors=neighbors),
            CombineConfig(method="concat"),
            CombineConfig(method="concat", oov="nn", k_neighbors=neighbors),
            CombineConfig(method="concat-reduce", reduce_dim=reduce_dim),
        ]:
            calls.append(lambda config=config: combine([x, y], config))
        return [attempt(call) for call in calls]

    expected = outcomes(copies[0], copies[1])
    actual = outcomes(a, b)
    for got, want in zip(actual, expected):
        assert_same(got, want)


def binary_sources(directory, count=3, words=40, dim=8):
    """``count`` binary files of ``words`` float32 rows, each shifted by 10
    words over one vocabulary, and their 17-digit text renderings."""
    rng = np.random.default_rng(17)
    vocabulary = [f"t{i:03d}" for i in range(words + 10 * count)]
    binary, text = [], []
    for n in range(count):
        tokens = vocabulary[10 * n : 10 * n + words]
        matrix = rng.normal(size=(words, dim)).astype(np.float32) * 3
        binary.append(directory / f"src{n}.bin")
        save_embeddings(EmbeddingSpace(tokens, matrix), binary[-1])
        # The rendering of the parsed (float32) space, through its writer.
        text.append(directory / "text" / f"src{n}.vec")
        text[-1].parent.mkdir(exist_ok=True)
        save_embeddings(load_embeddings(binary[-1]), text[-1], format="text", precision=17)
    return binary, text


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_cli_writes_the_same_bytes_from_binary_inputs_and_their_text(tmp_path, fmt):
    binary, text = binary_sources(tmp_path)
    suffix = ".vec" if fmt == "text" else ".bin"
    commands = {
        "map": lambda ins, out: ["map", str(ins[0]), str(ins[1]), "-o", str(out / f"m{suffix}")],
        "mvm": lambda ins, out: ["mvm", *map(str, ins), "-o", str(out / f"v{suffix}"), "--k", "3"],
        "average": lambda ins, out: [
            "baseline", *map(str, ins), "-o", str(out / f"a{suffix}"), "--method", "average",
            "--nn-oov", "--k", "3",
        ],
        "concat": lambda ins, out: [
            "baseline", *map(str, ins), "-o", str(out / f"c{suffix}"), "--method", "concat",
        ],
        "concat-reduce": lambda ins, out: [
            "baseline", *map(str, ins), "-o", str(out / f"r{suffix}"),
            "--method", "concat-reduce", "--dim", "5", "--post-remove", "1",
        ],
        "synth-oov": lambda ins, out: [
            "synth-oov", str(ins[0]), str(ins[1]), str(out / f"x1{suffix}"),
            str(out / f"x2{suffix}"), "--k", "3", "--audit", str(out / "audit.tsv"),
        ],
    }
    outputs = {}
    for inputs, name in ((binary, "from-binary"), (text, "from-text")):
        out = tmp_path / name
        out.mkdir()
        for command in commands.values():
            assert cli.main([*command(inputs, out), "--format", fmt]) == 0
        outputs[name] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    written, rendered = outputs["from-binary"], outputs["from-text"]
    assert list(written) == list(rendered) and len(written) == 9
    for name in written:
        if name.endswith(".provenance.json"):
            # The sidecar names the input files, which differ in suffix.
            written[name], rendered[name] = (
                {**json.loads(data), "sources": None} for data in (written[name], rendered[name])
            )
        assert written[name] == rendered[name], name


def test_a_non_finite_value_in_a_file_fails_at_its_line_or_offset(tmp_path):
    text = tmp_path / "e.vec"
    text.write_bytes(b"3 2\na 1.0 2.0\nb 0.5 inf\nc 1.0 1.0\n")
    with pytest.raises(ParseError, match="non-finite") as exc_info:
        load_embeddings(text)
    assert exc_info.value.line == 3
    binary = tmp_path / "e.bin"
    vectors = np.array([[1.0, 2.0], [0.5, np.nan], [1.0, 1.0]], dtype="<f4")
    binary.write_bytes(
        b"3 2\n" + b"".join(t + b" " + v.tobytes() for t, v in zip((b"a", b"b", b"c"), vectors))
    )
    with pytest.raises(ParseError, match="non-finite value for token 'b'") as exc_info:
        load_embeddings(binary)
    # The header (4 bytes), then "a " and 8 bytes, then "b ".
    assert exc_info.value.offset == 4 + 10 + 2


def test_synth_oov_holds_its_binary_inputs_as_float32(tmp_path, monkeypatch):
    # Two spaces of 1600 words share 100, at 600 dims: 7.68 MB of float32
    # inputs, 15.36 MB in float64. Ranking one space's 1500 missing words
    # holds one block of 27 float32 query rows, one tile of as many
    # candidates and their scores, each within the 64 KiB budget; with the
    # tokens, the union table and one 64 KiB block of output rows, the run
    # measured 1.45 MB above its inputs. Inputs widened to float64 as they
    # are read would add 7.68 MB and pass the bound.
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 64 << 10)
    rng = np.random.default_rng(5)
    shared = [f"s{i:03d}" for i in range(100)]
    e1, e2 = tmp_path / "e1.bin", tmp_path / "e2.bin"
    for path, own in ((e1, "a"), (e2, "b")):
        tokens = shared + [f"{own}{i:04d}" for i in range(1500)]
        save_embeddings(EmbeddingSpace(tokens, rng.normal(size=(len(tokens), 600))), path)
    argv = ["synth-oov", str(e1), str(e2), str(tmp_path / "x1.bin"), str(tmp_path / "x2.bin"),
            "--threads", "1"]
    code, peak = traced_peak(cli.main, argv)
    assert code == 0
    inputs = 2 * 1600 * 600 * 4
    assert peak < inputs + 2e6
