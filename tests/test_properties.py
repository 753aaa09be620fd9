"""Properties of the family that the paper proves, on generated channels."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, strategies as st

from chanleak import (
    Channel,
    NumericalFailure,
    OrderPair,
    alpha_tau_leakage,
    compose,
    lrdp,
    maximal_alpha_beta_leakage,
    maximal_alpha_leakage,
    product,
    properties,
)
from conftest import family

# zeros and entries near the smallest normal double sit beside ordinary weights
ENTRIES = st.one_of(st.sampled_from([0.0, 1e-300]), st.floats(0.01, 1.0))

# one order per branch of the order square, with the slack it may show: a
# solver value carries its certified gap, a closed form only rounding
BRANCH_ORDERS = (
    (OrderPair(2.0, 1.5), 1e-6),  # the concave solver
    (OrderPair(2.0, 3.0), 1e-9),  # the pairwise closed form
    (OrderPair(math.inf, 2.5), 1e-9),  # alpha = inf
    (OrderPair(2.0, math.inf), 1e-9),  # the sup log ratio
)
BRANCHES = st.sampled_from(BRANCH_ORDERS)


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


@st.composite
def relabelled(draw):
    """A channel, and the channels made from it by permuting its inputs, and its outputs."""
    channel = draw(channels())
    inputs = draw(st.permutations(range(channel.n_inputs)))
    outputs = draw(st.permutations(range(channel.n_outputs)))
    return channel, (Channel(channel.matrix[inputs]), Channel(channel.matrix[:, outputs]))


# a fixed seed per test, so that its examples do not change when its body does
@seed(20221)
@given(channels(), st.sampled_from([1.5, 2.0, 4.0, 1e305, 1e306, 1e308, math.inf]))
def test_family_is_nondecreasing_in_beta(channel, alpha):
    # beta = 1 runs the solver, beta = alpha the pairwise closed form, and
    # from 1e306 on the closed forms take their beta = inf form and alpha
    # is taken as inf
    betas = sorted({1.0, alpha, 1e300, 1e305, 1e306, 1e308, math.inf})
    assert properties.nondecreasing(family, [channel], [[OrderPair(alpha, b) for b in betas]]) <= 1e-12


@seed(20222)
@given(processed(), BRANCHES)
def test_processing_never_raises_the_family(case, branch):
    order, slack = branch
    assert properties.data_processing(family, [case], [order]) <= slack


@seed(20223)
@given(channels(), channels(), BRANCHES)
def test_the_product_leaks_the_sum(left, right, branch):
    order, slack = branch
    if left.matrix[left.matrix > 0.0].min() * right.matrix[right.matrix > 0.0].min() == 0.0:
        # two entries near 1e-300 multiply to 0, and the product would miss an output it reaches
        with pytest.raises(NumericalFailure, match="underflows to 0"):
            product(left, right)
    else:
        assert properties.additivity(family, [(left, right)], [order]) <= slack


@seed(20224)
@given(relabelled())
def test_relabelling_leaves_the_family(case):
    # the value moves by rounding alone in a closed form, and within the
    # certified gaps where the solver ran
    channel, relabelled_channels = case
    for order, _ in BRANCH_ORDERS:
        base = maximal_alpha_beta_leakage(channel, order)
        for other in relabelled_channels:
            result = maximal_alpha_beta_leakage(other, order)
            v, w = base.value.nats, result.value.nats
            if math.isinf(v) or math.isinf(w):
                assert v == w
            elif base.report is None:
                assert abs(v - w) <= 1e-12 * max(1.0, abs(v))
            else:
                assert abs(v - w) <= max(base.report.certified_gap, result.report.certified_gap)


# the edges of the order square, on dense Dirichlet channels from a fixed seed:
# each order's value approaches its edge's closed form linearly, so the
# difference quotient is positive and barely moves as the step shrinks
EDGES = pytest.mark.parametrize("width, alpha", [(w, a) for w in (4, 30) for a in (1.5, 2.0, 4.0)])


def dirichlet_channel(width):
    return Channel(np.random.default_rng(1).dirichlet(np.ones(width), size=width))


@EDGES
def test_beta_near_alpha_meets_the_pairwise_form(width, alpha):
    channel = dirichlet_channel(width)
    edge = lrdp(channel, alpha).nats
    slopes = []
    for e in (1e-6, 1e-9):
        result = maximal_alpha_beta_leakage(channel, OrderPair(alpha, alpha * (1.0 - e)))
        assert result.report.converged
        assert result.value.nats <= edge + result.report.certified_gap
        slopes.append((edge - result.value.nats) / e)
    assert slopes[0] > 0.0 and slopes[1] == pytest.approx(slopes[0], rel=0.01)


@EDGES
def test_the_tau_slice_meets_the_pairwise_form_at_tau_zero(width, alpha):
    channel = dirichlet_channel(width)
    edge = lrdp(channel, alpha).nats
    slopes = [(edge - alpha_tau_leakage(channel, alpha, t).value.nats) / t for t in (1e-6, 1e-9)]
    assert slopes[0] > 0.0 and slopes[1] == pytest.approx(slopes[0], rel=0.01)


@EDGES
def test_the_tau_slice_meets_maximal_alpha_leakage_at_tau_one(width, alpha):
    # the steps stop at 1 - tau = 1e-6, where the difference is still a
    # thousand times the solver's tolerance of 1e-9
    channel = dirichlet_channel(width)
    edge = maximal_alpha_leakage(channel, alpha).value.nats
    slopes = [(alpha_tau_leakage(channel, alpha, 1.0 - t).value.nats - edge) / t for t in (1e-3, 1e-6)]
    assert slopes[0] > 0.0 and slopes[1] == pytest.approx(slopes[0], rel=0.01)


@pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan]])
def test_a_nan_value_fails_the_check_wherever_it_falls(values):
    # max() drops a NaN that does not come first, so the slack rule itself fails it
    def table(channel, order):
        return values[order]

    assert properties.non_negativity(table, [None], range(3)) == math.inf
    assert properties.nondecreasing(table, [None], [range(3)]) == math.inf
