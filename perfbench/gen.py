"""Seeded synthetic inputs for the metavec benchmark, with their ground truth.

Every word has a latent vector drawn around one of many cluster centers, so
that a word's nearest neighbors carry signal about it, as in real embeddings.
Each source sees the latent vectors through its own noise, offset, per-word
scale and (unless the workload is pre-aligned) a random rotation, and knows
only part of the universe vocabulary. The files are written by this module's
own writers: metavec's writers are part of what the benchmark measures.

The generator is a pure function of (workload, seed); the program under test
sees only the files it writes.
"""
from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

CLUSTER_SIZE = 20
WORD_NOISE = 0.7
SOURCE_NOISE = 0.5
OFFSET_SCALE = 0.3
N_PAIRS = 20000


@dataclass(frozen=True)
class Workload:
    command: str  # "mvm" or "synth-oov"
    fmt: str  # "binary" or "text": inputs and outputs
    n_sources: int
    words_per_source: int
    universe: int
    dim: int = 300
    k: int = 10
    rotate: bool = True
    tie_fraction: float = 0.0  # share of words that have an exact twin
    # "windows": source s holds [s*shift, s*shift + words_per_source);
    # "blocks": source s lacks its own disjoint block of the universe.
    layout: str = "windows"

    def vocabularies(self) -> list[np.ndarray]:
        """Universe ids held by each source, in universe order."""
        ids = np.arange(self.universe)
        lack = self.universe - self.words_per_source
        if self.layout == "blocks":
            return [np.delete(ids, np.arange(s * lack, (s + 1) * lack)) for s in range(self.n_sources)]
        shift = lack // (self.n_sources - 1)
        return [ids[s * shift : s * shift + self.words_per_source] for s in range(self.n_sources)]


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    "mvm-synth": Workload(
        command="mvm", fmt="binary", n_sources=3, words_per_source=3600, universe=5400,
    ),
    "mvm-text": Workload(
        command="mvm", fmt="text", n_sources=3, words_per_source=1500, universe=1540,
        layout="blocks",
    ),
    "synth-oov-ties": Workload(
        command="synth-oov", fmt="binary", n_sources=2, words_per_source=5000,
        universe=6250, rotate=False, tie_fraction=0.05,
    ),
}


def scaled(workload: Workload, factor: float) -> Workload:
    """The same workload shape at a fraction of its size (for smoke tests)."""
    n = max(int(workload.words_per_source * factor), 40)
    lack = workload.universe - workload.words_per_source
    if workload.layout == "blocks":
        universe = n + max(int(lack * factor), 2)
    else:
        universe = int(n * workload.universe / workload.words_per_source)
    return Workload(**{**asdict(workload), "words_per_source": n, "universe": universe,
                       "dim": min(workload.dim, 32)})


def _rng(name: str, seed: int, stream: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")
    return np.random.default_rng([seed, tag, stream])


def _random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def tokens_for(rng: np.random.Generator, universe: int) -> list[str]:
    # A random permutation decouples lexicographic order (the tie-break
    # rule) from cluster membership.
    return [f"w{i:07d}" for i in rng.permutation(universe)]


def latent_vectors(workload: Workload, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(latent matrix, twin-of array: -1 or the id whose vector is copied)."""
    n_clusters = max(workload.universe // CLUSTER_SIZE, 1)
    centers = rng.normal(size=(n_clusters, workload.dim))
    assignment = rng.integers(0, n_clusters, size=workload.universe)
    latent = centers[assignment] + WORD_NOISE * rng.normal(size=(workload.universe, workload.dim))
    twin_of = np.full(workload.universe, -1)
    n_twins = int(workload.universe * workload.tie_fraction / 2)
    if n_twins:
        chosen = rng.choice(workload.universe, size=2 * n_twins, replace=False)
        originals, copies = chosen[:n_twins], chosen[n_twins:]
        latent[copies] = latent[originals]
        twin_of[copies] = originals
    return latent, twin_of


def source_matrix(
    workload: Workload, rng: np.random.Generator, latent: np.ndarray, twin_of: np.ndarray
) -> np.ndarray:
    noisy = latent + SOURCE_NOISE * rng.normal(size=latent.shape)
    noisy = noisy + OFFSET_SCALE * rng.normal(size=workload.dim)
    noisy *= rng.lognormal(0.0, 0.3, size=workload.universe)[:, None]
    if workload.rotate:
        noisy = noisy @ _random_orthogonal(rng, workload.dim)
    # Twins are exact duplicates in every source, which plants exact ties.
    copies = np.flatnonzero(twin_of >= 0)
    noisy[copies] = noisy[twin_of[copies]]
    return noisy


def write_binary(path: Path, tokens: list[str], matrix: np.ndarray) -> None:
    rows = matrix.astype("<f4")
    parts = [f"{len(tokens)} {matrix.shape[1]}\n".encode("ascii")]
    parts.extend(t.encode("utf-8") + b" " + r.tobytes() for t, r in zip(tokens, rows))
    path.write_bytes(b"".join(parts))


def write_text(path: Path, tokens: list[str], matrix: np.ndarray) -> None:
    # About 7 significant digits, like public text releases.
    fmt = " ".join(["%.7g"] * matrix.shape[1])
    lines = [f"{len(tokens)} {matrix.shape[1]}\n"]
    lines.extend(f"{t} {fmt % tuple(r)}\n" for t, r in zip(tokens, matrix.tolist()))
    path.write_bytes("".join(lines).encode("utf-8"))


def generate(name: str, workload: Workload, seed: int, out_dir: Path) -> None:
    """Write the workload's source files into ``out_dir``, with the ground
    truth in ``truth.json`` and ``truth.npz``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = _rng(name, seed, 0)
    tokens = tokens_for(rng, workload.universe)
    latent, twin_of = latent_vectors(workload, rng)
    vocabularies = workload.vocabularies()
    suffix = ".bin" if workload.fmt == "binary" else ".vec"
    sources = []
    for s, vocab in enumerate(vocabularies):
        src_rng = _rng(name, seed, 1 + s)
        matrix = source_matrix(workload, src_rng, latent, twin_of)
        # Each file lists its words in its own order, as real releases do.
        order = vocab[src_rng.permutation(len(vocab))]
        path = out_dir / f"src{s}{suffix}"
        words = [tokens[i] for i in order]
        (write_binary if workload.fmt == "binary" else write_text)(path, words, matrix[order])
        sources.append({"path": path.name, "order": order.tolist()})

    present = np.zeros((workload.n_sources, workload.universe), dtype=bool)
    for s, vocab in enumerate(vocabularies):
        present[s, vocab] = True
    pairs = sample_pairs(_rng(name, seed, 99), present)
    unit = latent / np.linalg.norm(latent, axis=1, keepdims=True)
    truth_cos = np.einsum("ij,ij->i", unit[pairs[:, 0]], unit[pairs[:, 1]])
    truth = {
        "workload": name,
        "seed": seed,
        "params": asdict(workload),
        "tokens": tokens,
        "sources": sources,
    }
    (out_dir / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    np.savez(out_dir / "truth.npz", present=present, pairs=pairs, truth_cos=truth_cos)


def sample_pairs(rng: np.random.Generator, present: np.ndarray) -> np.ndarray:
    """Fixed pairs of distinct universe ids; at least half contain a word that
    some source lacks (so it was synthesized there)."""
    universe = present.shape[1]
    partial = np.flatnonzero(~present.all(axis=0))
    half = N_PAIRS // 2
    first = np.concatenate([rng.choice(partial, size=half), rng.integers(0, universe, size=N_PAIRS - half)])
    second = rng.integers(0, universe - 1, size=N_PAIRS)
    second = second + (second >= first)  # never pair a word with itself
    return np.stack([first, second], axis=1)


def cached_inputs(name: str, workload: Workload, seed: int, cache_root: Path) -> Path:
    """Directory holding the generated inputs, generating them on a miss.

    The cache key covers every workload parameter and this generator's
    source. A miss first removes the workload's other entries, so the cache
    holds one set of inputs per workload.
    """
    digest = hashlib.sha256(json.dumps(asdict(workload), sort_keys=True).encode("utf-8"))
    digest.update(Path(__file__).read_bytes())
    target = cache_root / f"{name}-s{seed}-{digest.hexdigest()[:12]}"
    done = target / "complete"
    if done.exists():
        return target
    for old in cache_root.glob(f"{name}-s*"):
        shutil.rmtree(old)
    generate(name, workload, seed, target)
    done.touch()
    return target
