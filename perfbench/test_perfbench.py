"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402

SMOKE_SCALE = 0.05


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", list(gen.WORKLOADS))
def test_same_seed_gives_same_input_bytes(tmp_path, name):
    workload = gen.scaled(gen.WORKLOADS[name], SMOKE_SCALE)
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.generate(name, workload, seed, tmp_path / label)
    first, again, other = (_files(tmp_path / label) for label in "abc")
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[f] != other[f] for f in first if f.startswith("src"))


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_of_every_workload_passes_the_output_checks(monkeypatch, capsys, trace):
    tiny = {name: gen.scaled(w, SMOKE_SCALE) for name, w in gen.WORKLOADS.items()}
    monkeypatch.setattr(gen, "WORKLOADS", tiny)
    previous = signal.getsignal(signal.SIGTERM)
    try:
        code = run.main(["--workload", "all", "--seed", "3", "--seconds", "0.1",
                         "--trace", str(trace)])
    finally:
        signal.signal(signal.SIGTERM, previous)
    stdout = capsys.readouterr().out
    assert code == 0
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], stdout
    assert result["failed"] == 0 and result["attempted"] >= 3 * len(tiny)
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == {f"{w}/{m}" for w in tiny for m in names}


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "mvm-text", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
