"""The public API: every name in ``metavec.__all__`` and in each module's
``__all__`` resolves, and each list matches its snapshot here, so that
moving code between modules cannot drop or add a public name unnoticed.
A change to the API edits the snapshot in the same change."""
import importlib
from pathlib import Path

import pytest

import metavec

PACKAGE = Path(metavec.__file__).resolve().parent

PUBLIC = {
    "metavec": [
        "AlignedCollection", "AlignmentInfo", "CombineConfig", "EmbeddingSpace",
        "EvalReport", "MappingDictionary", "MetaEmbedding", "NeighborList",
        "OrthogonalMap", "ParseError", "ReductionMap", "SimilarityDataset",
        "SuiteSummary", "SynthesisReport", "__version__", "align_to_target",
        "apply_language_prefixes", "apply_map", "apply_reduction",
        "build_intersection_dictionary", "combine", "combine_average", "combine_concat",
        "combine_concat_reduce", "combine_mvm", "cosine", "detect_format", "evaluate",
        "evaluate_suite", "extend_to_union", "fit_reduction", "format_audit_dump",
        "format_report_table", "l2_normalize_rows", "load_bilingual_dictionary",
        "load_embeddings", "load_similarity_dataset", "mean_center_columns",
        "nearest_neighbors", "normalize_step0", "parse_binary_embeddings",
        "parse_text_embeddings", "provenance_json", "report_records", "save_embeddings",
        "solve_procrustes", "spearman", "synthesize_word", "write_binary_embeddings",
        "write_provenance", "write_text_embeddings",
    ],
    "metavec.align": [
        "AlignedCollection", "AlignmentInfo", "MappingDictionary", "align_to_target",
        "build_intersection_dictionary", "load_bilingual_dictionary",
    ],
    "metavec.cli": ["build_parser", "main", "run"],
    "metavec.combine": [
        "OOV_POLICIES", "VALID_METHODS", "CombineConfig", "MetaEmbedding",
        "apply_language_prefixes", "combine", "combine_average", "combine_concat",
        "combine_concat_reduce", "combine_mvm", "provenance_json", "write_provenance",
    ],
    "metavec.embeddings": [
        "EmbeddingSpace", "ParseError", "detect_format", "load_embeddings",
        "parse_binary_embeddings", "parse_text_embeddings", "save_embeddings",
        "write_binary_embeddings", "write_text_embeddings",
    ],
    "metavec.evaluate": [
        "EvalReport", "SimilarityDataset", "SuiteSummary", "evaluate", "evaluate_suite",
        "format_report_table", "load_similarity_dataset", "report_records", "spearman",
    ],
    "metavec.linalg": [
        "ORTHOGONALITY_TOL", "OrthogonalMap", "ReductionMap", "apply_map",
        "apply_reduction", "cosine", "fit_reduction", "l2_normalize_rows",
        "mean_center_columns", "normalize_step0", "solve_procrustes",
    ],
    "metavec.oov": [
        "DEFAULT_K", "NeighborList", "SynthesisReport", "extend_to_union",
        "format_audit_dump", "nearest_neighbors", "synthesize_word",
    ],
}


def test_every_module_has_a_snapshot():
    # ``__main__`` only runs the CLI, and exports nothing.
    modules = {f"metavec.{path.stem}" for path in PACKAGE.glob("*.py")}
    assert (modules - {"metavec.__init__", "metavec.__main__"}) | {"metavec"} == set(PUBLIC)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_all_matches_its_snapshot_and_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__ == PUBLIC[name]
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_the_package_exports_the_modules_objects():
    # A name the package re-exports is the very object its module defines.
    owners = [importlib.import_module(name) for name in PUBLIC if name != "metavec"]
    for name in metavec.__all__:
        found = [getattr(m, name) for m in owners if name in m.__all__]
        assert all(obj is getattr(metavec, name) for obj in found), name
