"""The missing-word rankings split between the CLI process and forked
children (``cli._ranked_in_shares``): the shares cover every ranking's
queries once, in order, with about equal pairs, and ``_plan_synthesis``
through them plans what it plans through the builtin ``map``, bit for bit.
The floor on a share's pairs is patched to 0, so tiny inputs split too."""
import functools
import os

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from metavec import cli, embeddings, oov
from metavec.embeddings import EmbeddingSpace


def ranking(queries, candidates):
    """A ranking of ``queries`` queries against ``candidates`` candidates,
    as ``_shares`` reads it: only its sizes."""
    return oov._Ranking(matrix=None, norms=None, rows=None, queries=np.arange(queries),
                        candidates=np.arange(candidates), rival=np.zeros(queries, dtype=bool))


@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.integers(1, 40), st.integers(0, 40)), min_size=1, max_size=6),
    st.integers(1, 4),
)
@example([(3, 5), (2, 0)], 2)  # a ranking without candidates after every pair
def test_shares_cover_every_query_once_with_about_equal_pairs(sizes, count):
    jobs = [ranking(queries, candidates) for queries, candidates in sizes]
    total = sum(job.pairs for job in jobs)
    assume(total)
    shares = cli._shares(jobs, count)
    assert len(shares) == count
    ranges = [part for share in shares for part in share]
    # In job order, each job's queries in ranges that follow one another.
    assert ranges == sorted(ranges)
    for i, job in enumerate(jobs):
        bounds = [(lo, hi) for j, lo, hi in ranges if j == i]
        assert all(lo < hi for lo, hi in bounds)
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == len(job.queries)
    # A share misses its part of the pairs by less than one query's pairs.
    widest = max(len(job.candidates) for job in jobs)
    for share in shares:
        pairs = sum((hi - lo) * len(jobs[i].candidates) for i, lo, hi in share)
        assert abs(pairs * count - total) < max(1, widest) * count


@st.composite
def spaces(draw):
    """Two to four spaces, each a random subset of one vocabulary of up to
    30 words in random order, of dim 1, 2 or 5, with some rows that repeat
    another's direction and some zero rows. Or else two spaces of which
    only the second lacks words: one ranking, which the shares cut into
    ranges of its queries."""
    vocabulary = [f"w{i:02d}" for i in range(draw(st.integers(2, 30)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        held = [np.ones(len(vocabulary), dtype=bool), rng.random(len(vocabulary)) < 0.5]
    else:
        held = [rng.random(len(vocabulary)) < draw(st.sampled_from([0.9, 0.6, 0.3]))
                for _ in range(draw(st.integers(2, 4)))]
    result = []
    for mask in held:
        tokens = [vocabulary[i] for i in rng.permutation(len(vocabulary)) if mask[i]]
        matrix = rng.normal(size=(len(tokens), draw(st.sampled_from([1, 2, 5]))))
        if tokens:
            rows = st.integers(0, len(tokens) - 1)
            for source, copy in draw(st.lists(st.tuples(rows, rows), max_size=3)):
                matrix[copy] = matrix[source] * 2.0
            matrix[draw(st.lists(rows, max_size=2))] = 0.0
        result.append(EmbeddingSpace(tokens, matrix))
    return result


def planned(spaces, k, map):
    """``_plan_synthesis``'s union, table, report and plans through
    ``map``, each plan's neighbors past a word's count set to -1 (they
    are never written)."""
    union, table, plans, report = oov._plan_synthesis(spaces, k, record_neighbors=True, map=map)
    written = []
    for missing, neighbors, counts in plans:
        kept = np.arange(neighbors.shape[1]) < counts[:, np.newaxis]
        neighbors = np.where(kept, neighbors, -1)
        written.append((missing.tobytes(), counts.tobytes(), neighbors.tobytes()))
    return union, table.tobytes(), report, written


@settings(max_examples=100, deadline=None)
@given(spaces(), st.integers(1, 12), st.sampled_from([64, 400, 1 << 20]))
def test_plans_through_shares_are_those_of_the_builtin_map(spaces, k, block_bytes):
    # Small budgets tile a ranking's queries and candidates, and a range of
    # its queries in other tiles than the whole.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embeddings, "_BLOCK_BYTES", block_bytes)
        expected = planned(spaces, k, map)
        patch.setattr(cli, "_SHARE_PAIRS", 0)
        for workers in (2, 3):
            shared = functools.partial(cli._ranked_in_shares, workers=workers)
            assert planned(spaces, k, shared) == expected
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
