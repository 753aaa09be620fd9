"""Concave-regime solver: certificates, ascent, determinism, edge cases."""

import numpy as np
import pytest

from chanleak import (
    Channel,
    OptimizerConfig,
    OptimizerReport,
    OrderPair,
    ShapeError,
    SimplexPoint,
    inner_objective,
    maximal_alpha_beta_leakage,
    oracle,
)
from chanleak.optim import _newton_step, maximize_information
from conftest import bsc, random_channel


class TestBasics:
    def test_dim_one_is_immediate(self):
        # one input: the mixture is the reference row itself and the value is 0
        report = maximal_alpha_beta_leakage(Channel(np.array([[0.2, 0.3, 0.5]])), OrderPair(4.0, 2.0)).report
        assert report.iterations == 0
        assert report.converged
        assert report.value == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_array_equal(report.maximizer.weights, [1.0])

    def test_interior_well_is_found(self):
        # two inputs: golden-section search of the log-domain objective on the
        # segment locates the maximizing mixture independently
        channel, pair = bsc(0.2), OrderPair(4.0, 2.0)
        result = maximal_alpha_beta_leakage(channel, pair)

        def f(t):
            return inner_objective(channel, result.maximizing_x_prime, np.array([t, 1.0 - t]), pair)

        lo, hi = 0.0, 1.0
        for _ in range(80):
            a, b = hi - 0.618034 * (hi - lo), lo + 0.618034 * (hi - lo)
            lo, hi = (a, hi) if f(a) < f(b) else (lo, b)
        t = 0.5 * (lo + hi)
        assert 0.0 < t < 1.0
        np.testing.assert_allclose(result.maximizing_distribution.weights, [t, 1.0 - t], atol=1e-4)
        assert result.value.nats == pytest.approx(f(t), abs=1e-10)

    def test_report_invariants(self):
        rng = np.random.default_rng(21)
        result = maximal_alpha_beta_leakage(random_channel(rng, 4, 3), OrderPair(3.0, 1.5))
        report = result.report
        assert isinstance(report, OptimizerReport)
        assert report.value == result.value.nats
        assert report.maximizer is result.maximizing_distribution
        assert report.certified_gap > 0.0
        assert report.converged == (report.certified_gap <= 1e-9)
        assert abs(report.maximizer.weights.sum() - 1.0) < 1e-12


class TestDeterministicSteps:
    def test_monotone_ascent_across_iteration_budgets(self):
        rng = np.random.default_rng(22)
        channel = random_channel(rng, 3, 3)
        for pair in (OrderPair(4.0, 2.0), OrderPair(2.0, 1.0)):
            values = [
                maximal_alpha_beta_leakage(channel, pair, OptimizerConfig(max_iterations=budget)).value.nats
                for budget in range(1, 41)
            ]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_value_dominates_every_vertex(self):
        # structural zeros keep beta = 1 finite and leave some outputs unreached by a vertex
        channel = Channel(np.array([[0.7, 0.3, 0.0], [0.0, 0.4, 0.6], [0.2, 0.2, 0.6]]))
        for pair in (OrderPair(2.0, 1.0), OrderPair(1e6, 1.0), OrderPair(1.5, 1.0)):
            value = maximal_alpha_beta_leakage(channel, pair).value.nats
            for xp in range(3):
                for x in range(3):
                    vertex = inner_objective(channel, xp, SimplexPoint.point_mass(3, x), pair)
                    assert value >= vertex - 1e-9

    def test_repeated_runs_identical(self):
        rng = np.random.default_rng(23)
        channel = random_channel(rng, 5, 4)
        a = maximal_alpha_beta_leakage(channel, OrderPair(3.0, 1.5)).report
        b = maximal_alpha_beta_leakage(channel, OrderPair(3.0, 1.5)).report
        assert (a.value, a.iterations, a.certified_gap) == (b.value, b.iterations, b.certified_gap)
        np.testing.assert_array_equal(a.maximizer.weights, b.maximizer.weights)


class TestConfig:
    def test_bad_config_rejected(self):
        for budget in (0, 1.5, float("nan"), float("inf")):
            with pytest.raises(ShapeError):
                OptimizerConfig(max_iterations=budget)
        with pytest.raises(ShapeError):
            OptimizerConfig(tolerance=0.0)
        with pytest.raises(ShapeError):
            OptimizerConfig(tolerance=-1e-9)
        # an infinite tolerance would certify the start point
        for tolerance in (float("inf"), float("nan")):
            with pytest.raises(ShapeError):
                OptimizerConfig(tolerance=tolerance)

    def test_iteration_budget_reported_honestly(self):
        rng = np.random.default_rng(24)
        channel = random_channel(rng, 3, 3)
        report = maximal_alpha_beta_leakage(channel, OrderPair(4.0, 2.0), OptimizerConfig(max_iterations=1)).report
        assert report.iterations == 1
        assert report.converged is False


class TestCertificate:
    @pytest.mark.parametrize("pair", [OrderPair(4.0, 2.0), OrderPair(2.0, 1.0)])
    def test_default_tolerance_is_certified_on_ten_inputs(self, pair):
        rng = np.random.default_rng(10)
        report = maximal_alpha_beta_leakage(random_channel(rng, 10, 10), pair, OptimizerConfig()).report
        assert report.converged is True
        assert report.certified_gap <= 1e-9

    def test_unreachable_tolerance_is_not_certified(self):
        # the gap never reads below the rounding of its bracket ends
        channel = Channel(np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]))
        config = OptimizerConfig(tolerance=1e-18)
        report = maximal_alpha_beta_leakage(channel, OrderPair(2.0, 1.0), config).report
        assert report.converged is False
        assert report.certified_gap > 0.0
        assert report.value == pytest.approx(0.341556946085, abs=1e-9)


class TestWideChannels:
    # multiplicative steps alone converge sublinearly: on this channel they
    # stop at the 10,000-step cap with gaps 1.2e-6 at (1.5, 1) and 1.0e-7 at (2, 1)
    @pytest.mark.parametrize("pair", [OrderPair(1.5, 1.0), OrderPair(2.0, 1.0)])
    def test_beta_one_certifies_on_one_hundred_inputs(self, pair):
        rng = np.random.default_rng(100)
        report = maximal_alpha_beta_leakage(random_channel(rng, 100, 100), pair).report
        assert report.converged is True
        assert report.iterations <= 500

    def test_pruned_reference_inputs_certify_on_two_hundred_inputs(self):
        # multiplicative steps alone for all 200 reference inputs take 292 here
        rng = np.random.default_rng(200)
        report = maximal_alpha_beta_leakage(random_channel(rng, 200, 200), OrderPair(4.0, 2.0)).report
        assert report.converged is True
        assert report.iterations <= 100


class TestNewtonSteps:
    # a Newton step along the projection arc lets every input it blocks
    # leave at once; one cut at the first blocking input took one step per
    # leaving input (81, 73, 67, 61 and 32 steps in the cases below)
    @pytest.mark.parametrize("seed", [0, 100])
    def test_capacity_certifies_on_one_hundred_inputs_in_a_few_steps(self, seed):
        rng = np.random.default_rng(seed)
        report = maximize_information(random_channel(rng, 100, 100).matrix, OptimizerConfig())
        assert report.converged is True
        assert report.iterations <= 20

    @pytest.mark.parametrize("pair", [OrderPair(1.5, 1.0), OrderPair(2.0, 1.0)])
    def test_beta_one_certifies_on_one_hundred_inputs_in_a_few_steps(self, pair):
        rng = np.random.default_rng(100)
        report = maximal_alpha_beta_leakage(random_channel(rng, 100, 100), pair).report
        assert report.converged is True
        assert report.iterations <= 20

    def test_pruned_reference_inputs_certify_in_a_few_steps(self):
        rng = np.random.default_rng(200)
        report = maximal_alpha_beta_leakage(random_channel(rng, 200, 200), OrderPair(4.0, 2.0)).report
        assert report.converged is True
        assert report.iterations <= 20

    def test_many_live_reference_inputs_certify_on_four_hundred_inputs(self):
        # at (1.2, 1.1) many reference rows stay live; only the leading rows
        # take Newton steps (a Newton step for every live row took 12 s here)
        rng = np.random.default_rng(0)
        report = maximal_alpha_beta_leakage(random_channel(rng, 400, 400), OrderPair(1.2, 1.1)).report
        assert report.converged is True
        assert report.iterations <= 30

    def test_one_step_drops_every_blocked_input(self):
        # capacity from the uniform law: the Newton direction drives both
        # the useless inputs 3 and 4 below zero; a step cut at the first of
        # them would keep input 4 at a positive weight
        P = np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9],
                      [1 / 3, 1 / 3, 1 / 3], [0.4, 0.35, 0.25]])

        def information(q):
            d = (P * np.log(P / (q @ P))).sum(axis=1)
            return float(q @ d), d

        p = np.full(5, 0.2)
        start, d = information(p)
        q = _newton_step(p, d, -1.0, P, 1.0 / np.sqrt(p @ P), lambda q: information(q)[0], lambda q: start)
        np.testing.assert_array_equal(q[3:], [0.0, 0.0])
        assert np.all(q[:3] > 0.0)
        assert q.sum() == pytest.approx(1.0, abs=1e-15)
        assert information(q)[0] >= start


class TestTies:
    @pytest.mark.parametrize("pair", [OrderPair(4.0, 2.0), OrderPair(2.0, 1.5)])
    def test_the_last_reference_input_among_exact_ties_wins(self, pair):
        # rows 1, 3 and 5 are equal, so their brackets tie exactly at every
        # step; all three must take the same steps for row 5 to win
        matrix = np.random.default_rng(4).dirichlet(np.full(6, 0.5), size=6)
        matrix[1] = matrix[3] = matrix[5]
        result = maximal_alpha_beta_leakage(Channel(matrix), pair)
        assert result.report.converged is True
        assert result.maximizing_x_prime == 5


_DEGENERATE = {
    "duplicated-rows": [[0.6, 0.3, 0.1], [0.6, 0.3, 0.1], [0.1, 0.2, 0.7]],
    "eight-inputs-two-outputs": np.random.default_rng(8).dirichlet(np.ones(2), size=8),
    "structural-zeros": [[0.7, 0.3, 0.0], [0.0, 0.4, 0.6], [0.2, 0.2, 0.6]],
    "one-input": [[0.2, 0.3, 0.5]],
    "one-output": [[1.0], [1.0], [1.0]],
    "tiny-entry": [[1e-300, 0.6, 0.4], [0.3, 0.3, 0.4], [0.5, 0.25, 0.25]],
}


class TestDegenerateHessians:
    # singular Hessians (duplicated rows, m < n), vanishing or huge
    # curvature (alpha near 1 or huge, beta near alpha) and weights at the floor
    @pytest.mark.parametrize("name", sorted(_DEGENERATE))
    @pytest.mark.parametrize("alpha, beta", [(2.0, 1.0), (4.0, 2.0), (1.0 + 1e-6, 1.0), (1e6, 1.0), (4.0, 4.0 - 1e-9)])
    def test_certified_or_honestly_not(self, name, alpha, beta):
        channel, pair = Channel(np.array(_DEGENERATE[name], dtype=float)), OrderPair(alpha, beta)
        result = maximal_alpha_beta_leakage(channel, pair)
        report = result.report
        if report is None:  # a zero in the reference row made the value +inf
            assert result.value.nats == np.inf
            return
        assert report.certified_gap > 0.0
        assert report.converged == (report.certified_gap <= 1e-9)
        assert report.certified_gap <= 1e-8  # near alpha = 1 the rounding floor alone exceeds 1e-9
        direct = inner_objective(channel, result.maximizing_x_prime, result.maximizing_distribution, pair)
        assert direct == pytest.approx(result.value.nats, abs=1e-9)
        if channel.n_inputs <= 4 and pair.alpha < 1e6:  # the grid underflows at alpha = 1e6
            grid = oracle.grid_search_inner(channel, pair, 60).nats
            assert result.value.nats >= grid - 1e-9

    def test_an_input_dropped_by_a_blocked_step_returns(self):
        # a Newton step cut at the boundary zeroes an input of the optimal
        # support; when it re-enters beside an input the direction would
        # push below zero, fixing the latter keeps the step from stalling
        # at t = 0 (without that the gap stays at 1.2e-2)
        rng = np.random.default_rng(1219)
        n, m = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        matrix = rng.dirichlet(np.ones(m), size=n)
        matrix[rng.random((n, m)) < 0.3] = 0.0
        channel = Channel(matrix / matrix.sum(axis=1, keepdims=True))
        result = maximal_alpha_beta_leakage(channel, OrderPair(1.5, 1.0))
        assert result.report.converged is True
        assert result.value.nats == pytest.approx(0.980916042917, abs=1e-9)


class TestAgainstGridOracle:
    def test_inner_objective_matches_grid(self):
        # the reported (x', p) reproduces the value under the log-domain
        # objective, and the grid is a lower bound of the supremum truncated at ~1e-4
        rng = np.random.default_rng(3)
        channel = random_channel(rng, 3, 3)
        pair = OrderPair(4.0, 2.0)
        result = maximal_alpha_beta_leakage(channel, pair, OptimizerConfig(tolerance=1e-8))
        assert result.report.converged
        direct = inner_objective(channel, result.maximizing_x_prime, result.maximizing_distribution, pair)
        assert direct == pytest.approx(result.value.nats, abs=1e-12)

        grid = oracle.grid_search_inner(channel, pair, 200).nats
        assert result.value.nats >= grid - 1e-9
        assert result.value.nats == pytest.approx(grid, abs=1e-4)
