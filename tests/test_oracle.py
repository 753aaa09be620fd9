"""Independent oracles: simplex grid scan and the definitional construction."""

import ast
import math
from itertools import combinations
from itertools import product as iter_product
from pathlib import Path

import numpy as np
import pytest

import chanleak.oracle
from chanleak import (
    BudgetExceeded,
    Channel,
    InvalidEntry,
    OrderPair,
    definitional_leakage,
    grid_search_inner,
    inner_objective,
    lrdp,
)
from chanleak.oracle import _compositions
from conftest import bsc, family, random_channel


def stars_and_bars(total, parts):
    """Compositions from bar positions, in the order itertools gives them."""
    rows = []
    for bars in combinations(range(total + parts - 1), parts - 1):
        edges = (-1, *bars, total + parts - 1)
        rows.append([edges[k + 1] - edges[k] - 1 for k in range(parts)])
    return np.array(rows, dtype=np.int64).reshape(-1, parts)


class TestCompositions:
    def test_matches_the_bar_enumeration(self):
        cases = [(total, parts) for total in range(31) for parts in range(1, 5)]
        for total, parts in cases + [(200, 3), (60, 4)]:
            rows = _compositions(total, parts)
            assert rows.dtype == np.int64
            np.testing.assert_array_equal(rows, stars_and_bars(total, parts))


# 3x3 channels with structural zeros; the last has an all-zero column, so a
# reference zero meets a zero mixture at every grid point and that term
# must drop out rather than send the value to +inf
ZERO_CHANNELS = {
    "scattered": [[0.5, 0.5, 0.0], [0.3, 0.0, 0.7], [0.2, 0.3, 0.5]],
    "shared": [[0.6, 0.4, 0.0], [0.1, 0.9, 0.0], [0.2, 0.3, 0.5]],
    "dead-column": [[0.6, 0.4, 0.0], [0.1, 0.9, 0.0], [0.35, 0.65, 0.0]],
}


class TestGridSearch:
    def test_vertex_optimum_is_hit_exactly(self):
        # at beta == alpha the optimum sits at a point mass, which every
        # grid resolution contains
        value = grid_search_inner(bsc(0.2), OrderPair(2.0, 2.0), 50).nats
        assert value == pytest.approx(lrdp(bsc(0.2), 2.0).nats, abs=1e-12)

    def test_lower_bounds_the_search(self):
        rng = np.random.default_rng(30)
        channels = [random_channel(rng, 3, 3) for _ in range(3)]
        pairs = (OrderPair(4.0, 2.0), OrderPair(2.0, 1.0))
        for ch, pair in iter_product(channels, pairs):
            exact = family(ch, pair)
            assert exact - 5e-4 <= grid_search_inner(ch, pair, 120).nats <= exact + 1e-9

    def test_refinement_is_monotone(self):
        # the resolution-100 grid is a subset of the resolution-200 grid
        rng = np.random.default_rng(31)
        ch = random_channel(rng, 3, 3)
        pair = OrderPair(4.0, 2.0)
        coarse = grid_search_inner(ch, pair, 100).nats
        fine = grid_search_inner(ch, pair, 200).nats
        assert fine >= coarse - 1e-12

    def test_resolution_validated(self):
        # a resolution that is not an integer is refused, not truncated
        for resolution in (0, -3, 20.9, 20.0, "20", None, True):
            with pytest.raises(InvalidEntry, match="resolution must be a positive integer"):
                grid_search_inner(bsc(0.2), OrderPair(2.0, 1.0), resolution)
        exact = grid_search_inner(bsc(0.2), OrderPair(2.0, 1.0), 20).nats
        assert grid_search_inner(bsc(0.2), OrderPair(2.0, 1.0), np.int64(20)).nats == exact

    def test_too_many_inputs_rejected(self):
        ch = Channel(np.full((5, 2), 0.5))
        with pytest.raises(BudgetExceeded):
            grid_search_inner(ch, OrderPair(2.0, 1.0), 10)

    def test_point_budget_enforced(self):
        ch = Channel(np.full((4, 2), 0.5))
        with pytest.raises(BudgetExceeded):
            grid_search_inner(ch, OrderPair(2.0, 1.0), 300)

    def test_infinite_orders_rejected(self):
        with pytest.raises(InvalidEntry):
            grid_search_inner(bsc(0.2), OrderPair(math.inf, 1.0), 50)

    def test_infinite_value_on_identity_above_beta_one(self):
        assert math.isinf(grid_search_inner(Channel(np.eye(2)), OrderPair(2.0, 2.0), 50).nats)

    @pytest.mark.parametrize("label", sorted(ZERO_CHANNELS))
    @pytest.mark.parametrize("alpha, beta", [(4.0, 2.0), (2.0, 1.0), (2.0, 3.0)])
    def test_equals_the_pointwise_maximum(self, label, alpha, beta):
        ch = Channel(np.array(ZERO_CHANNELS[label]))
        order = OrderPair(alpha, beta)
        r = 12
        explicit = max(
            inner_objective(ch, x_prime, np.array([i, j, r - i - j]) / r, order)
            for i in range(r + 1)
            for j in range(r + 1 - i)
            for x_prime in range(3)
        )
        value = grid_search_inner(ch, order, r).nats
        if math.isinf(explicit):
            assert value == explicit
        else:
            assert value == pytest.approx(explicit, abs=1e-12)
        if label == "dead-column":
            assert math.isfinite(value)


class TestLargeOrders:
    # P^alpha underflows to 0 at these orders, where the oracles once gave -inf
    ORDERS = (OrderPair(1e4, 1e4), OrderPair(1e4, 2.0), OrderPair(1e155, 1e155),
              OrderPair(2.0, 1e300), OrderPair(1e300, 1e300))

    @pytest.mark.parametrize("rows", [[[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]],
                                      ZERO_CHANNELS["dead-column"]])
    def test_oracles_stay_just_below_the_family(self, rows):
        ch = Channel(np.array(rows))
        for order in self.ORDERS:
            exact = family(ch, order)
            assert exact - 0.01 <= grid_search_inner(ch, order, 20).nats <= exact + 1e-9
            assert exact - 0.01 <= definitional_leakage(ch, order, px_grid=20, shatter_cap=4).nats <= exact + 1e-9

    @pytest.mark.parametrize("order", [OrderPair(2.0, 1e308), OrderPair(1e306, 2.0)])
    def test_orders_past_the_cap_are_refused(self, order):
        # alpha or beta times a log entry of P would overflow
        with pytest.raises(InvalidEntry, match="orders up to 2.409776e[+]305"):
            grid_search_inner(bsc(0.2), order, 20)
        with pytest.raises(InvalidEntry, match="orders up to 2.409776e[+]305"):
            definitional_leakage(bsc(0.2), order, px_grid=10, shatter_cap=3)


class TestDefinitional:
    def test_bsc_anchor_value(self):
        # deterministic scan, frozen: sits 5.69e-5 under the exact value
        value = definitional_leakage(bsc(0.2), OrderPair(2.0, 2.0), px_grid=40, shatter_cap=8).nats
        exact = 1.1786549963416462
        assert value == pytest.approx(exact - 5.689270984676753e-05, abs=1e-12)

    def test_identity_high_alpha_beta_one(self):
        value = definitional_leakage(Channel(np.eye(2)), OrderPair(50.0, 1.0), px_grid=40, shatter_cap=8).nats
        assert value == pytest.approx(math.log(2.0), abs=1e-9)

    def test_lower_bounds_and_approaches_the_exact_value(self):
        rng = np.random.default_rng(32)
        channels = [random_channel(rng, 2, 2) for _ in range(2)]
        pairs = (OrderPair(2.0, 2.0), OrderPair(2.0, 1.0))
        for ch, pair in iter_product(channels, pairs):
            exact = family(ch, pair)
            assert exact - 0.02 <= definitional_leakage(ch, pair, px_grid=20, shatter_cap=6).nats <= exact + 1e-9

    def test_refinement_is_monotone_in_both_knobs(self):
        # doubling px_grid keeps the old support points; raising the cap
        # only adds shattering patterns
        rng = np.random.default_rng(33)
        ch = random_channel(rng, 2, 2)
        pair = OrderPair(2.0, 2.0)
        base = definitional_leakage(ch, pair, px_grid=20, shatter_cap=4).nats
        finer_px = definitional_leakage(ch, pair, px_grid=40, shatter_cap=4).nats
        finer_cap = definitional_leakage(ch, pair, px_grid=20, shatter_cap=8).nats
        assert finer_px >= base - 1e-12
        assert finer_cap >= base - 1e-12

    def test_budgets_and_validation(self):
        wide = Channel(np.full((2, 4), 0.25))
        tall = Channel(np.full((4, 2), 0.5))
        with pytest.raises(BudgetExceeded):
            definitional_leakage(tall, OrderPair(2.0, 2.0), px_grid=10, shatter_cap=4)
        with pytest.raises(BudgetExceeded):
            definitional_leakage(wide, OrderPair(2.0, 2.0), px_grid=10, shatter_cap=4)
        with pytest.raises(BudgetExceeded):
            definitional_leakage(bsc(0.2), OrderPair(2.0, 2.0), px_grid=30000, shatter_cap=8)
        with pytest.raises(InvalidEntry):
            definitional_leakage(bsc(0.2), OrderPair(2.0, 2.0), px_grid=1, shatter_cap=4)
        with pytest.raises(InvalidEntry):
            definitional_leakage(bsc(0.2), OrderPair(2.0, 2.0), px_grid=10, shatter_cap=0)
        with pytest.raises(InvalidEntry):
            definitional_leakage(bsc(0.2), OrderPair(math.inf, 2.0), px_grid=10, shatter_cap=4)
        # budgets that are not integers are refused, not truncated
        for px_grid, shatter_cap in ((10.7, 4), (10.0, 4), ("10", 4), (10, 3.9), (10, "4"), (10, None), (True, 4), (10, True)):
            with pytest.raises(InvalidEntry, match="must be a positive integer"):
                definitional_leakage(bsc(0.2), OrderPair(2.0, 2.0), px_grid=px_grid, shatter_cap=shatter_cap)
        value = definitional_leakage(bsc(0.2), OrderPair(2.0, 2.0), px_grid=np.int64(10), shatter_cap=np.int32(4)).nats
        assert value == definitional_leakage(bsc(0.2), OrderPair(2.0, 2.0), px_grid=10, shatter_cap=4).nats


class TestOracleAgreement:
    def test_grid_and_definitional_bracket_the_search(self):
        # two independent lower bounds on the same supremum: both must sit
        # under the search value, and close to it at these budgets
        rng = np.random.default_rng(35)
        ch = random_channel(rng, 2, 2)
        pair = OrderPair(2.0, 2.0)
        exact = family(ch, pair)
        g = grid_search_inner(ch, pair, 200).nats
        d = definitional_leakage(ch, pair, px_grid=30, shatter_cap=6).nats
        for bound in (g, d):
            assert exact - 0.02 <= bound <= exact + 1e-9


def test_the_oracle_imports_neither_measures_nor_optim():
    # agreement between the oracles and the fast paths is evidence only
    # while the oracles share none of the fast paths' code
    tree = ast.parse(Path(chanleak.oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert "core" in imported  # the walk sees the module's imports
    assert not imported & {"measures", "optim"}


def test_the_oracle_reads_no_fact_a_channel_keeps():
    # nor the log matrix, extremes or +inf pair that a Channel keeps for
    # the fast paths: the oracles work out what they need themselves
    facts = {name for name, attr in vars(Channel).items() if isinstance(attr, chanleak.core._fact)}
    tree = ast.parse(Path(chanleak.oracle.__file__).read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert "_log" in facts and "matrix" in read  # the walk sees the facts and the module's reads
    assert not read & facts
