"""np.bincount as the in-order sum: the primitive behind the boids steering
sums and the tree's charge sums, pinned against a Python loop."""

import math
import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orgtree import ntree

# Magnitudes from 2^-1074 (the least subnormal) to 2^1000, both signs, the
# special values, and values whose sum depends on the order of adding them.
finite = st.builds(lambda m, e, s: s * math.ldexp(m, e), st.floats(1.0, 2.0, exclude_max=True),
                   st.integers(-1074, 1000), st.sampled_from([1.0, -1.0]))
special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
value = st.one_of(finite, finite, special, st.sampled_from([1.0, -1.0, 2.0 ** 53]))


@st.composite
def owned_values(draw):
    """(owner, values, m): unsorted owners below m, where m may exceed the
    largest owner, and values that include exact negatives of earlier ones."""
    m = draw(st.integers(1, 6))
    values = draw(st.lists(value, max_size=60))
    for i in draw(st.lists(st.integers(0, 59), max_size=20)):
        if i < len(values):
            values.append(-values[i])  # cancels exactly against its twin
    owner = draw(st.lists(st.integers(0, m - 1), min_size=len(values), max_size=len(values)))
    return owner, values, m + draw(st.integers(0, 3))


def loop_sums(owner, values, m) -> list[str]:
    sums = [0.0] * m
    for k, x in zip(owner, values):
        sums[k] += x
    return [s.hex() for s in sums]


@settings(max_examples=400, deadline=None)
@given(owned_values())
@example(([], [], 3))
@example(([0, 0, 1, 1], [-0.0, -0.0, 0.0, -0.0], 2))
@example(([0, 0, 0], [1.0, 2.0 ** 53, -1.0], 1))  # 2^53 - 1 in order, 2^53 otherwise
def test_bincount_adds_in_index_order_from_zero(case):
    owner, values, m = case
    got = np.bincount(np.array(owner, dtype=np.intp), np.array(values, dtype=float), m)
    # With no owners bincount returns integer zeros; callers store into floats.
    assert [float(s).hex() for s in got.tolist()] == loop_sums(owner, values, m)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(value, max_size=30), max_size=8), st.randoms())
@example([[1.0, 2.0 ** 53, -1.0], [], [-0.0]], random.Random(0))
def test_tree_sums_add_each_span_in_order(spans, rng):
    """ntree._ordered_sums over spans laid out in a shuffled order."""
    order = list(range(len(spans)))
    rng.shuffle(order)
    flat, start = [], [0] * len(spans)
    for i in order:
        start[i] = len(flat)
        flat.extend(spans[i])
    values = np.array([flat, [-x for x in flat]], dtype=float).reshape(2, len(flat))
    got = ntree._ordered_sums(values, np.array(start, dtype=np.int64),
                              np.array([len(s) for s in spans], dtype=np.int64))
    assert got.dtype == float and got.shape == (2, len(spans))
    for row, sign in zip(got.tolist(), (1.0, -1.0)):
        want = [loop_sums([0] * len(s), [sign * x for x in s], 1)[0] for s in spans]
        assert [s.hex() for s in row] == want
