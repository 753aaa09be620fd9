"""Properties of the family that the paper proves, on generated channels."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from chanleak import Channel, NumericalFailure, OrderPair, compose, product, properties
from conftest import family

# zeros and entries near the smallest normal double sit beside ordinary weights
ENTRIES = st.one_of(st.sampled_from([0.0, 1e-300]), st.floats(0.01, 1.0))

# one order per branch of the order square, with the slack it may show: a
# solver value carries its certified gap, a closed form only rounding
BRANCHES = st.sampled_from([
    (OrderPair(2.0, 1.5), 1e-6),  # the concave solver
    (OrderPair(2.0, 3.0), 1e-9),  # the pairwise closed form
    (OrderPair(math.inf, 2.5), 1e-9),  # alpha = inf
    (OrderPair(2.0, math.inf), 1e-9),  # the sup log ratio
])


@st.composite
def channels(draw, n_inputs=None, n_outputs=None):
    """Channels of up to 4 x 4 (1 x m and n x 1 included), with zeros, 1e-300
    entries and, on request, a duplicated first row. A given n_inputs or
    n_outputs fixes that side; a duplicate then takes the last row's place."""
    n = draw(st.integers(1, 4)) if n_inputs is None else n_inputs
    m = draw(st.integers(1, 4)) if n_outputs is None else n_outputs
    rows = draw(st.lists(st.lists(ENTRIES, min_size=m, max_size=m), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows.append(rows[0])
        if n_inputs is not None:
            del rows[n - 1]
    matrix = np.array(rows)
    matrix[matrix.sum(axis=1) == 0.0, 0] = 1.0
    return Channel(matrix / matrix.sum(axis=1, keepdims=True))


@st.composite
def processed(draw):
    """A channel, and the channels made from it by random post- and pre-processing."""
    channel = draw(channels())
    post = draw(channels(n_inputs=channel.n_outputs))
    pre = draw(channels(n_outputs=channel.n_inputs))
    try:
        return channel, (compose(channel, post), compose(pre, channel))
    except NumericalFailure:  # 1e-300 entries meet on every path to an output; see test_core
        assume(False)


@given(channels(), st.sampled_from([1.5, 2.0, 4.0, 1e305, 1e306, 1e308, math.inf]))
def test_family_is_nondecreasing_in_beta(channel, alpha):
    # beta = 1 runs the solver, beta = alpha the pairwise closed form, and
    # from 1e306 on the closed forms take their beta = inf form and alpha
    # is taken as inf
    betas = sorted({1.0, alpha, 1e300, 1e305, 1e306, 1e308, math.inf})
    assert properties.nondecreasing(family, [channel], [[OrderPair(alpha, b) for b in betas]]) <= 1e-12


@given(processed(), BRANCHES)
def test_processing_never_raises_the_family(case, branch):
    order, slack = branch
    assert properties.data_processing(family, [case], [order]) <= slack


@given(channels(), channels(), BRANCHES)
def test_the_product_leaks_the_sum(left, right, branch):
    order, slack = branch
    if left.matrix[left.matrix > 0.0].min() * right.matrix[right.matrix > 0.0].min() == 0.0:
        # two entries near 1e-300 multiply to 0, and the product would miss an output it reaches
        with pytest.raises(NumericalFailure, match="underflows to 0"):
            product(left, right)
    else:
        assert properties.additivity(family, [(left, right)], [order]) <= slack


@pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan]])
def test_a_nan_value_fails_the_check_wherever_it_falls(values):
    # max() drops a NaN that does not come first, so the slack rule itself fails it
    def table(channel, order):
        return values[order]

    assert properties.non_negativity(table, [None], range(3)) == math.inf
    assert properties.nondecreasing(table, [None], [range(3)]) == math.inf
