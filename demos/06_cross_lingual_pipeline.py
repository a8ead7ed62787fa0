"""
A cross-lingual pipeline, end to end
====================================

Two embeddings in different languages share no vocabulary, so a
bilingual dictionary supplies the anchor pairs for alignment, language
prefixes keep the union vocabulary unambiguous, and evaluation looks
words up under per-language prefixes. This demo drives the command-line
interface exactly as a shell script would.
"""
import tempfile
from pathlib import Path

import numpy as np

from metavec import EmbeddingSpace, save_embeddings
from metavec.cli import main

# Eighteen underlying "concepts"; English sees the first fourteen,
# German the last fourteen, so ten meanings exist in both languages.
concepts = np.random.default_rng(6).normal(size=(18, 8))
en_words = ["water", "fire", "tree", "stone", "sun", "moon", "fish",
            "bird", "house", "boat", "bread", "milk", "horse", "dog"]
de_words = ["sonne", "mond", "fisch", "vogel", "haus", "boot", "brot",
            "milch", "pferd", "hund", "katze", "wolf", "schnee", "regen"]

rng = np.random.default_rng(7)
q, r = np.linalg.qr(rng.normal(size=(8, 8)))
q *= np.sign(np.diag(r))
en_matrix = concepts[:14] + rng.normal(size=(14, 8)) * 0.02
de_matrix = (concepts[4:] + rng.normal(size=(14, 8)) * 0.02) @ q

with tempfile.TemporaryDirectory(prefix="metavec-demo-") as tmp:
    workdir = Path(tmp)
    en_path = workdir / "en.vec"
    de_path = workdir / "de.vec"
    save_embeddings(EmbeddingSpace(en_words, en_matrix), en_path)
    save_embeddings(EmbeddingSpace(de_words, de_matrix), de_path)

    # The dictionary lists the ten translation pairs, source TAB target.
    dict_path = workdir / "de-en.tsv"
    dict_path.write_text(
        "".join(f"{de_words[i]}\t{en_words[i + 4]}\n" for i in range(10))
    )

    # Step 1: rotate the German space onto the English one. The residual is
    # small because the German space really is a disguised rotation.
    print("== map ==", flush=True)
    main(["map", str(de_path), str(en_path), "-o", str(workdir / "de_aligned.vec"),
          "--dict", str(dict_path)])

    # Step 2: build the cross-lingual meta-embedding. Prefixes keep the two
    # vocabularies apart in the union; with no shared tokens across
    # languages there are no neighbors to synthesize from, so missing words
    # simply keep their single source's (normalized) vector.
    print("\n== mvm ==", flush=True)
    meta_path = workdir / "meta.vec"
    main(["mvm", str(en_path), str(de_path), "-o", str(meta_path),
          "--prefix", "en/", "--prefix", "de/", "--dict", str(dict_path),
          "--oov", "zero"])
    print("provenance sidecar:",
          (workdir / "meta.vec.provenance.json").exists())

    # Step 3: evaluate across languages. Gold scores come from the true
    # concept geometry, so a faithful pipeline should correlate strongly.
    pairs = []
    for i, j in [(0, 13), (1, 10), (2, 11), (3, 12), (4, 0), (5, 1), (6, 2),
                 (7, 3), (8, 4), (9, 5), (10, 6), (12, 8), (13, 9), (0, 12)]:
        u = concepts[i] / np.linalg.norm(concepts[i])
        v = concepts[j + 4] / np.linalg.norm(concepts[j + 4])
        gold = round(5.0 * (1.0 + float(u @ v)), 3)
        pairs.append(f"{en_words[i]}\t{de_words[j]}\t{gold}\n")
    ds_path = workdir / "xling-sim.tsv"
    ds_path.write_text("".join(pairs))

    print("\n== eval (cross-lingual lookup) ==", flush=True)
    main(["eval", str(meta_path), str(ds_path), "--crosslingual", "en/", "de/"])

    # Without the prefixes nothing matches: coverage 0, undefined rho.
    print("\n== eval (wrong lookup, for contrast) ==", flush=True)
    main(["eval", str(meta_path), str(ds_path)])
