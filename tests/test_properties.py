"""Properties of the family that the paper proves, on generated channels."""

import math

import numpy as np
from hypothesis import given, strategies as st

from chanleak import Channel, OrderPair, maximal_alpha_beta_leakage

# zeros and entries near the smallest normal double sit beside ordinary weights
ENTRIES = st.one_of(st.sampled_from([0.0, 1e-300]), st.floats(0.01, 1.0))


@st.composite
def channels(draw):
    """Channels of up to 4 x 4 (1 x m and n x 1 included), with zeros, 1e-300
    entries and, on request, a duplicated first row."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=m, max_size=m), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows.append(rows[0])
    matrix = np.array(rows)
    matrix[matrix.sum(axis=1) == 0.0, 0] = 1.0
    return Channel(matrix / matrix.sum(axis=1, keepdims=True))


@given(channels(), st.sampled_from([1.5, 2.0, 4.0, 1e305, 1e306, 1e308, math.inf]))
def test_family_is_nondecreasing_in_beta(channel, alpha):
    # beta = 1 runs the solver, beta = alpha the pairwise closed form, and
    # from 1e306 on the closed forms take their beta = inf form and alpha
    # is taken as inf
    betas = sorted({1.0, alpha, 1e300, 1e305, 1e306, 1e308, math.inf})
    values = [maximal_alpha_beta_leakage(channel, OrderPair(alpha, b)).value.nats for b in betas]
    for earlier, later in zip(values, values[1:]):
        assert later == earlier or later >= earlier - 1e-12 * max(1.0, abs(earlier))
