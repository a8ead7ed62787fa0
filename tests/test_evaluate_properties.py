"""Property tests: the evaluation harness's fractional ranks, from one
stable sort, against the counting definition in ``oracles``."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from metavec.evaluate import _fractional_ranks
from oracles import counting_ranks

# A few values drawn again and again make long runs of ties; ±0.0 compare
# equal, the infinities sort outermost and NaN equals nothing.
_TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, np.inf, -np.inf, np.nan])


@given(st.lists(st.one_of(_TIED, st.floats(allow_nan=False)), min_size=1, max_size=80))
def test_sorted_ranks_are_the_counted_ranks_bit_for_bit(values):
    values = np.array(values)
    assert _fractional_ranks(values).tobytes() == counting_ranks(values).tobytes()


@given(st.integers(1, 50), st.floats(allow_nan=False))
def test_constant_input_ranks_every_value_in_the_middle(n, value):
    ranks = _fractional_ranks(np.full(n, value))
    assert ranks.tobytes() == np.full(n, (n + 1) / 2.0).tobytes()
