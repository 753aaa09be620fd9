"""The paper's properties of the leakage family, each written once.

A check takes ``family(channel, order) -> nats``, however the caller
evaluates or caches it, and returns its worst signed slack: at most 0 where
every case holds, else the worst miss (for an equality, the distance between
its sides). ``chanleak verify`` and the tests call the same checks.
"""

from __future__ import annotations

import math

from . import measures, oracle
from .core import OrderPair, product
from .optim import OptimizerConfig, maximize_information

SADDLE_ORDERS = ((2.0, 0.5), (3.0, 1.0), (1.5, 0.25))  # (alpha, tau)
NEAR_ONE_ALPHA = 1.0 + 1e-3


def _slack_le(lhs: float, rhs: float) -> float:
    """Signed violation of lhs <= rhs; infinities compare as equals, and a NaN side fails."""
    if math.isnan(lhs) or math.isnan(rhs):
        return math.inf
    if math.isinf(lhs) and math.isinf(rhs):
        return 0.0
    if math.isinf(rhs):
        return -math.inf
    return lhs - rhs


def _slack_eq(lhs: float, rhs: float) -> float:
    return max(_slack_le(lhs, rhs), _slack_le(rhs, lhs))


def _worst(slacks) -> float:
    return max(slacks, default=-math.inf)


def non_negativity(family, channels, orders) -> float:
    """Every value is at least 0."""
    return _worst(_slack_le(0.0, family(c, o)) for c in channels for o in orders)


def independence_zero(family, channels, orders) -> float:
    """A channel whose rows are all equal leaks nothing."""
    return _worst(_slack_le(family(c, o), 0.0) for c in channels for o in orders)


def nondecreasing(family, channels, runs) -> float:
    """The value never falls along a run of orders, such as beta at fixed alpha or tau reversed."""
    return _worst(
        _slack_le(family(c, low), family(c, high)) for c in channels for run in runs for low, high in zip(run, run[1:])
    )


def data_processing(family, cases, orders) -> float:
    """Processing never raises the value; a case is a channel and the channels composed from it."""
    return _worst(
        _slack_le(family(made, o), family(c, o)) for c, processed in cases for o in orders for made in processed
    )


def additivity(family, pairs, orders) -> float:
    """The product of two channels leaks the sum of what each leaks."""
    slacks = []
    for left, right in pairs:
        joint = product(left, right)
        slacks += [_slack_eq(family(joint, o), family(left, o) + family(right, o)) for o in orders]
    return _worst(slacks)


def lrdp_bridge(family, channels, alphas) -> float:
    """(alpha, alpha) is local Renyi DP of order alpha."""
    return _worst(_slack_eq(family(c, OrderPair(a, a)), measures.lrdp(c, a).nats) for c in channels for a in alphas)


def maxl_bridge(family, channels) -> float:
    """(inf, 1) and the local Renyi DP variant at beta = 1 are maximal leakage."""
    slacks = []
    for c in channels:
        maxl = measures.maximal_leakage(c).nats
        slacks.append(_slack_eq(family(c, OrderPair(math.inf, 1.0)), maxl))
        slacks.append(_slack_eq(measures.lrdp_variant(c, 1.0).nats, maxl))
    return _worst(slacks)


def ldp_bridge(family, channels, alphas) -> float:
    """(inf, inf) is local DP, and (alpha, inf) is alpha / (alpha - 1) times it."""
    slacks = []
    for c in channels:
        eps = measures.ldp(c).nats
        slacks.append(_slack_eq(family(c, OrderPair(math.inf, math.inf)), eps))
        slacks += [_slack_eq(family(c, OrderPair(a, math.inf)), a / (a - 1.0) * eps) for a in alphas]
    return _worst(slacks)


def saddle_form(cases) -> float:
    """At its optimal reference law the variational form is the inner value, wherever that is finite;
    a case is a channel and an input law."""
    slacks = []
    for c, point in cases:
        for a, t in SADDLE_ORDERS:
            for x in range(c.n_inputs):
                direct = measures.inner_objective(c, x, point, measures.alpha_tau_order(a, t))
                if not math.isinf(direct):
                    q = measures.optimal_q_y(c, x, point, a, t)
                    slacks.append(_slack_eq(measures.variational_objective(c, x, point, q, a, t), direct))
    return _worst(slacks)


def grid_oracle(family, channels, orders, resolution) -> float:
    """The value matches the grid maximum of :func:`chanleak.grid_search_inner`."""
    return _worst(
        _slack_eq(family(c, o), oracle.grid_search_inner(c, o, resolution).nats) for c in channels for o in orders
    )


def definitional_lower_bound(family, channels, orders, px_grid, shatter_cap) -> float:
    """The scan of the operational definition stays below the value, up to 1e-9 of rounding."""
    return _worst(
        _slack_le(oracle.definitional_leakage(c, o, px_grid, shatter_cap).nats, family(c, o) + 1e-9)
        for c in channels for o in orders
    )


def capacity_limit(family, channel) -> float:
    """Near alpha = 1, (alpha, 1) approaches the capacity; an uncertified capacity gives +inf."""
    near_one = family(channel, OrderPair(NEAR_ONE_ALPHA, 1.0))
    capacity = maximize_information(channel.matrix, OptimizerConfig())
    return _slack_eq(near_one, capacity.value) if capacity.converged else math.inf
