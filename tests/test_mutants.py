"""Mutants of the exactness claims, each of which the suite must kill.

A mutant names a source file under ``src/metavec``, a snippet that must
occur there exactly once (so a refactor that moves it fails here, and the
list is brought up to date), its replacement, and the tests that must fail
once it is applied. Each mutant is applied to a copy of ``src/``, made
with ``tests/`` and ``pyproject.toml`` (whose pytest settings put ``src``
first on the path), and only its tests run against that copy, in a fresh
interpreter in a session of its own. A run that outlives ``TIMEOUT``
counts as a kill: a ``_stop`` that kills no child leaves children asleep
for a minute. The run's whole process group is killed afterwards, so
nothing it forked outlives it.
"""
import contextlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

pytest.importorskip("hypothesis")  # for the runs' profile: no shrinking

ROOT = Path(__file__).parents[1]
# Seconds for one mutant's tests: each set takes 2–4 s on a 2-core x86 VM,
# killed or not.
TIMEOUT = 10


class Mutant(NamedTuple):
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = {
    # A block cut by a run's edge made over the run's rows alone, not the
    # whole grid block: other BLAS shapes, so other bits.
    "grid-fill-cut-block": Mutant(
        "linalg.py",
        "at = slice(lo - lo % step, min(lo - lo % step + step, count))",
        "at = slice(lo, hi)",
        ("tests/test_union_grid.py::test_source_order_fills_cut_anywhere_give_the_whole_fills",),
    ),
    # A split ranking's query ranges joined last first.
    "joined-in-reverse": Mutant(
        "oov.py",
        "np.concatenate(arrays) for arrays in zip(*results)",
        "np.concatenate(arrays[::-1]) for arrays in zip(*results)",
        ("tests/test_io_workers.py::test_ranking_split_between_processes_writes_the_bytes_of_one"
         "[synth-oov]",),
    ),
    # Queries without candidates at the end of the list sent one share past the last.
    "shares-unclamped": Mutant(
        "cli.py",
        "share = min(count - 1, (done + lo * width) * count // total)",
        "share = (done + lo * width) * count // total",
        ("tests/test_ranking_shares.py::test_shares_cover_every_query_once_with_about_equal_pairs",),
    ),
    # Children left running on an error, and waited for.
    "stop-kills-nothing": Mutant(
        "cli.py",
        "os.kill(pid, signal.SIGKILL)",
        "pass",
        ("tests/test_io_workers.py::TestSplitRanking::test_exception_in_first_child_kills_the_others",),
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(name, tmp_path):
    mutant = MUTANTS[name]
    for tree in "src", "tests":
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    path = tmp_path / "src" / "metavec" / mutant.file
    text = path.read_text()
    assert text.count(mutant.snippet) == 1, f"the snippet must occur once in {mutant.file}"
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    run = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", *mutant.tests],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, start_new_session=True,
    )
    try:
        out = run.communicate(timeout=TIMEOUT)[0]
    except subprocess.TimeoutExpired:
        out = None  # a hang is a kill
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
    if out is None:
        return
    # Exit 1 is "tests failed"; a test id that no longer exists is a usage error.
    assert run.returncode == 1, f"{name} survived:\n{out}"
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAILED ")]
    for test in mutant.tests:
        assert any(f == test or f.startswith(test + "[") for f in failed), (
            f"{name} survived {test}:\n{out}"
        )
