import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from metavec.embeddings import EmbeddingSpace

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Property tests draw the same examples on every run, so a run's
    # outcome never depends on a random seed; no example has a time limit.
    settings.register_profile("metavec", derandomize=True, deadline=None)
    settings.load_profile("metavec")


TESTS = Path(__file__).parent


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
