import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from metavec.embeddings import EmbeddingSpace

try:
    from hypothesis import Phase, settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Property tests draw the same examples on every run, so a run's
    # outcome never depends on a random seed; no example has a time limit.
    settings.register_profile("metavec", derandomize=True, deadline=None)
    settings.load_profile("metavec")
    # A mutant's run (test_mutants.py) needs a failure, not its smallest example.
    settings.register_profile("mutants", settings.get_profile("metavec"),
                              phases=[Phase.explicit, Phase.reuse, Phase.generate])


TESTS = Path(__file__).parent
_CLI = "import sys\nfrom metavec.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def run_cli(argv, blas_threads=None):
    """Run the CLI on ``argv`` in a fresh interpreter, with
    ``OPENBLAS_NUM_THREADS`` set to ``blas_threads`` (when given) before
    numpy loads; fail the test unless it exits 0."""
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    done = subprocess.run(
        [sys.executable, "-c", _CLI, *map(str, argv)], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def bytes_by_blas_threads(tmp_path, argv, outputs):
    """The bytes of the files named ``outputs`` that the CLI writes for
    ``argv(directory)`` into a fresh directory, at one BLAS thread and at
    two (``run_cli``): one list of bytes per thread count."""
    runs = []
    for threads in (1, 2):
        out = tmp_path / f"blas{threads}"
        out.mkdir()
        run_cli(argv(out), blas_threads=threads)
        runs.append([(out / name).read_bytes() for name in outputs])
    return runs


def traced_peak(fn, *args, **kwargs):
    """(result, peak bytes tracemalloc saw during the call)."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _warnings_are_errors(item):
    """Every Python warning raised while a test under this directory sets
    up, runs or tears down is an error. Reporting a failure stays outside:
    hypothesis imports modules that warn there."""
    if TESTS not in item.path.parents:
        return (yield)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return (yield)


pytest_runtest_setup = pytest.hookimpl(wrapper=True, tryfirst=True)(_warnings_are_errors)
pytest_runtest_call = pytest_runtest_setup
pytest_runtest_teardown = pytest_runtest_setup


@pytest.fixture
def make_space():
    """Factory for random embedding spaces with a reproducible vocabulary."""

    def factory(n=20, dim=5, seed=0, prefix="w", scale=1.0, meta=None):
        rng = np.random.default_rng(seed)
        tokens = [f"{prefix}{i:03d}" for i in range(n)]
        matrix = rng.normal(size=(n, dim)) * scale
        return EmbeddingSpace(tokens, matrix, meta=meta)

    return factory


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail a test that leaves a child process running or unreaped (the
    CLI's I/O workers must all be reaped, on success and on failure)."""
    yield
    if hasattr(os, "fork"):
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        pytest.fail(f"test left an unreaped child process ({pid or 'still running'})")
