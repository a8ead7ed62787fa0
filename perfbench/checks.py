"""Output checks against the generator's ground truth, with the benchmark's
own readers (metavec's parsers are under test, so they are not used here)."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

UNIT_NORM_TOL = {"binary": 1e-5, "text": 1e-12}


@dataclass
class Table:
    """An embedding file as written: tokens, values and each row's raw bytes."""

    tokens: list[str]
    matrix: np.ndarray
    rows: list[bytes]


def read_binary(path: Path) -> Table:
    data = path.read_bytes()
    nl = data.index(b"\n")
    n, dim = (int(f) for f in data[:nl].split())
    tokens, rows, pos = [], [], nl + 1
    for _ in range(n):
        sp = data.index(b" ", pos)
        tokens.append(data[pos:sp].decode("utf-8"))
        pos = sp + 1 + 4 * dim
        rows.append(data[sp + 1 : pos])
    if pos != len(data) or len(tokens) != n:
        raise ValueError(f"{path.name}: {len(data) - pos} trailing bytes")
    matrix = np.frombuffer(b"".join(rows), dtype="<f4").reshape(n, dim).astype(np.float64)
    return Table(tokens, matrix, rows)


def read_text(path: Path) -> Table:
    lines = path.read_bytes().split(b"\n")
    n, dim = (int(f) for f in lines[0].split())
    if lines[-1] != b"" or len(lines) != n + 2:
        raise ValueError(f"{path.name}: expected {n} rows and a final newline")
    rows = lines[1:-1]
    fields = np.array(b" ".join(rows).split(), dtype=object).reshape(n, dim + 1)
    tokens = [t.decode("utf-8") for t in fields[:, 0]]
    matrix = fields[:, 1:].astype(np.float64)
    return Table(tokens, matrix, rows)


def read_table(path: Path) -> Table:
    return read_binary(path) if path.suffix == ".bin" else read_text(path)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Truth:
    """The generator's record of a workload instance, and what follows from it."""

    def __init__(self, input_dir: Path):
        record = json.loads((input_dir / "truth.json").read_text(encoding="utf-8"))
        arrays = np.load(input_dir / "truth.npz")
        self.params = record["params"]
        self.tokens: list[str] = record["tokens"]
        self.orders = [np.array(s["order"]) for s in record["sources"]]
        self.inputs = [input_dir / s["path"] for s in record["sources"]]
        self.present = arrays["present"]
        self.pairs = arrays["pairs"]
        self.truth_cos = arrays["truth_cos"]
        self.id_of = {t: i for i, t in enumerate(self.tokens)}

    def union_ids(self) -> list[int]:
        """Union order: each source's file order, first occurrence wins."""
        seen: set[int] = set()
        union = []
        for order in self.orders:
            for i in order.tolist():
                if i not in seen:
                    seen.add(i)
                    union.append(i)
        return union

    def missing_counts(self) -> list[int]:
        return [int((~row).sum()) for row in self.present]

    def anchor_counts(self) -> list[int | None]:
        target = self.present[0]
        return [None] + [int((target & row).sum()) for row in self.present[1:]]

    def score_blocks(self) -> list[int]:
        """Entries of each score matrix neighbor ranking builds: for each
        deficient space and each donor, (missing words the donor has) x
        (words the two share)."""
        return [
            int((~own & donor).sum()) * int((own & donor).sum())
            for i, own in enumerate(self.present)
            for j, donor in enumerate(self.present) if i != j
        ]

    def rank_pairs(self) -> int:
        """Queries x candidates scored by neighbor ranking."""
        return sum(self.score_blocks())


def similarity_rho(truth: Truth, tokens: list[str], matrix: np.ndarray) -> float:
    """Spearman correlation of output cosines with planted-truth cosines."""
    row_of = np.empty(len(truth.tokens), dtype=np.int64)
    row_of[[truth.id_of[t] for t in tokens]] = np.arange(len(tokens))
    a = matrix[row_of[truth.pairs[:, 0]]]
    b = matrix[row_of[truth.pairs[:, 1]]]
    cos = np.einsum("ij,ij->i", a, b) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    return float(spearmanr(cos, truth.truth_cos).statistic)


def check_mvm(truth: Truth, output: Path, sidecar: Path) -> tuple[list[str], float]:
    """(problems found, sim_rho) for an mvm output and its provenance sidecar."""
    problems = []
    table = read_table(output)
    expected = [truth.tokens[i] for i in truth.union_ids()]
    if table.tokens != expected:
        problems.append("output tokens are not the union vocabulary in union order")
    if table.matrix.shape[1] != truth.params["dim"]:
        problems.append(f"output dim {table.matrix.shape[1]} != {truth.params['dim']}")
    tol = UNIT_NORM_TOL[truth.params["fmt"]]
    bad_norms = int((np.abs(np.linalg.norm(table.matrix, axis=1) - 1.0) > tol).sum())
    if bad_norms:
        problems.append(f"{bad_norms} rows are not unit-norm within {tol}")
    provenance = json.loads(sidecar.read_text(encoding="utf-8"))
    want = {
        "vocabulary": len(truth.tokens),
        "synthesized": truth.missing_counts(),
        "shortfalls": 0,
        "skipped": 0,
        "k_neighbors": truth.params["k"],
        "dictionary_sizes": truth.anchor_counts(),
    }
    for key, value in want.items():
        if provenance.get(key) != value:
            problems.append(f"provenance {key} = {provenance.get(key)!r}, expected {value!r}")
    rho = similarity_rho(truth, table.tokens, table.matrix) if not problems else 0.0
    return problems, rho


def check_synth_oov(
    truth: Truth, out1: Path, out2: Path, audit: Path, stdout: str
) -> tuple[list[str], float, dict]:
    """(problems, sim_rho, tie statistics) for a synth-oov run with --audit."""
    problems = []
    first, second = read_table(out1), read_table(out2)
    inputs = [read_table(p) for p in truth.inputs]
    own1 = set(inputs[0].tokens)
    expected = inputs[0].tokens + [t for t in inputs[1].tokens if t not in own1]
    if first.tokens != expected or second.tokens != expected:
        problems.append("outputs are not the union vocabulary in union order")
    for name, out, source in (("out1", first, inputs[0]), ("out2", second, inputs[1])):
        position = {t: r for r, t in enumerate(out.tokens)}
        changed = sum(out.rows[position[t]] != row for t, row in zip(source.tokens, source.rows)
                      if t in position)
        if changed:
            problems.append(f"{name}: {changed} originally present rows were altered")
    only2 = len(expected) - len(inputs[0].tokens)
    only1 = len(expected) - len(inputs[1].tokens)
    for out, count in ((out1, only2), (out2, only1)):
        if f"synthesized into {out}: {count}" not in stdout:
            problems.append(f"stdout does not report {count} words synthesized into {out.name}")

    shared = own1 & set(inputs[1].tokens)
    missing = set(expected) - shared
    k = truth.params["k"]
    lines = audit.read_bytes().decode("utf-8").splitlines()
    audited = {}
    for line in lines:
        word, _, listed = line.partition("\t")
        audited[word] = listed.split(",")
    if len(audited) != len(lines) or set(audited) != missing:
        problems.append("audit does not list each synthesized word exactly once")
    bad = [w for w, ns in audited.items()
           if len(ns) != k or len(set(ns)) != k or not set(ns) <= shared or w in ns]
    if bad:
        problems.append(f"{len(bad)} audited words do not list {k} distinct shared neighbors")
    ties = tie_statistics(inputs[0], audited, shared)
    if problems:
        return problems, 0.0, ties
    rho = similarity_rho(truth, first.tokens, first.matrix + second.matrix)
    return problems, rho, ties


def tie_statistics(source: Table, audited: dict[str, list[str]], shared: set[str]) -> dict:
    """How often planted exact twins met in a neighbor list, and how often the
    documented tie rule (equal cosine: smaller token first) was broken.

    Twins have bitwise-equal vectors in every source, so their cosines to
    any query are equal. When both are candidates, a listed pair must be
    adjacent with the smaller token first, and when only one is listed it
    must be the smaller token, in the last place. Each listed twin with a
    shared twin counts once in ``met``.
    """
    groups: dict[bytes, list[str]] = {}
    for token, row in zip(source.tokens, source.rows):
        groups.setdefault(row, []).append(token)
    twin = {}
    for group in groups.values():
        for token in group:
            twin[token] = [t for t in group if t != token and t in shared]
    met = violations = 0
    for neighbors in audited.values():
        rank = {t: r for r, t in enumerate(neighbors)}
        for token, r in rank.items():
            for other in twin.get(token, ()):
                met += 1
                if other in rank:
                    ok = abs(rank[other] - r) == 1 and (rank[other] < r) == (other < token)
                else:
                    ok = token < other and r == len(neighbors) - 1
                violations += not ok
    return {"met": met, "violations": violations}


def thread_diff_rows(a: list[Path], b: list[Path]) -> int:
    """Rows that differ bitwise between two runs' embedding outputs."""
    diff = 0
    for left, right in zip(a, b):
        ta, tb = read_table(left), read_table(right)
        if ta.tokens != tb.tokens:
            return max(len(ta.rows), len(tb.rows))
        diff += sum(x != y for x, y in zip(ta.rows, tb.rows))
    return diff
