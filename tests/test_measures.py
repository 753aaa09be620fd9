"""Leakage measures: frozen anchors, dispatch equalities, zero conventions."""

import functools
import math
import tracemalloc
import warnings
from itertools import product as iter_product

import numpy as np
import pytest

from chanleak import (
    Channel,
    DegenerateInput,
    InvalidEntry,
    LeakageValue,
    MeasureResult,
    NumericalFailure,
    OptimizerConfig,
    OrderPair,
    ShapeError,
    SimplexPoint,
    alpha_tau_leakage,
    alpha_tau_order,
    inner_gradient,
    inner_objective,
    ldp,
    lrdp,
    lrdp_variant,
    maximal_alpha_beta_leakage,
    maximal_alpha_leakage,
    maximal_leakage,
    optimal_q_y,
    shannon_capacity,
    variational_objective,
)
from chanleak import measures, properties
from chanleak._logdomain import logsumexp
from chanleak.optim import maximize_information
from conftest import bsc, family, random_channel

LOG4 = math.log(4.0)


class TestFrozenAnchors:
    """Hand-derived values on BSC(0.2): ratios 0.8/0.2 = 4 drive everything."""

    def test_ldp_is_log_ratio(self):
        assert ldp(bsc(0.2)).nats == pytest.approx(1.3862943611198906, abs=1e-15)

    def test_maximal_leakage_is_log_sum_of_column_maxima(self):
        # 0.8 + 0.8 = 1.6
        assert maximal_leakage(bsc(0.2)).nats == pytest.approx(0.47000362924573563, abs=1e-15)

    def test_lrdp_order_two(self):
        # sum over outputs of P(y|x)^2 / P(y|x') = 0.04/0.8 + 0.64/0.2 = 3.25
        assert lrdp(bsc(0.2), 2.0).nats == pytest.approx(1.1786549963416462, abs=1e-13)

    def test_lrdp_variant_order_two(self):
        # sum of max_x P(y|x)^2 / P(y|x') = 0.64/0.8 + 0.64/0.2 = 4, halved in the log
        assert lrdp_variant(bsc(0.2), 2.0).nats == pytest.approx(0.6931471805599453, abs=1e-13)

    def test_order_two_beta_infinite(self):
        # (alpha/(alpha-1)) * ldp = 2 log 4
        result = maximal_alpha_beta_leakage(bsc(0.2), OrderPair(2.0, math.inf))
        assert result.value.nats == pytest.approx(2.0 * LOG4, abs=1e-13)

    def test_order_two_sibson_capacity(self):
        # symmetric binary channel closed form: log(sqrt(0.8*0.8) + sqrt(0.2*0.2))^2...
        # direct: 2 log(0.8^... ) reduces to log 1.36
        value = maximal_alpha_leakage(bsc(0.2), 2.0).value.nats
        assert value == pytest.approx(0.30748469974796055, abs=1e-9)

    def test_capacity_of_binary_symmetric(self):
        # log 2 - binary entropy at 0.11, in nats
        p = 0.11
        expected = math.log(2.0) + p * math.log(p) + (1 - p) * math.log(1 - p)
        assert shannon_capacity(bsc(p)).nats == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.3466318436412792, abs=1e-15)


class TestDispatchEqualities:
    def test_both_infinite_is_ldp(self):
        rng = np.random.default_rng(10)
        channels = [random_channel(rng, 3, 4) for _ in range(5)]
        assert properties.ldp_bridge(family, channels, ()) <= 1e-12

    def test_alpha_infinite_beta_one_is_maximal_leakage(self):
        rng = np.random.default_rng(11)
        channels = [random_channel(rng, 4, 3) for _ in range(5)]
        assert properties.maxl_bridge(family, channels) <= 1e-13

    def test_alpha_infinite_finite_beta_direct_sum(self):
        rng = np.random.default_rng(12)
        ch = random_channel(rng, 3, 3)
        beta = 1.7
        M = ch.matrix
        expected = max(
            math.log(float(np.sum(M[x] ** (1.0 - beta) * np.max(M, axis=0) ** beta))) / beta
            for x in range(3)
        )
        result = maximal_alpha_beta_leakage(ch, OrderPair(math.inf, beta))
        assert result.value.nats == pytest.approx(expected, abs=1e-12)

    def test_beta_infinite_scales_ldp(self):
        rng = np.random.default_rng(13)
        ch = random_channel(rng, 3, 3)
        assert properties.ldp_bridge(family, [ch], (1.5, 2.0, 4.0)) <= 1e-12

    def test_beta_at_alpha_matches_lrdp(self):
        rng = np.random.default_rng(14)
        for alpha in (1.5, 2.0, 4.0):
            assert properties.lrdp_bridge(family, [random_channel(rng, 3, 4)], (alpha,)) <= 1e-13

    def test_beta_above_alpha_vertex_enumeration(self):
        # closed form over input pairs, re-derived here directly
        rng = np.random.default_rng(15)
        ch = random_channel(rng, 3, 3)
        alpha, beta = 2.0, 3.0
        M = ch.matrix
        pref = alpha / ((alpha - 1.0) * beta)
        expected = max(
            pref * math.log(float(np.sum(M[xp] ** (1.0 - beta) * M[x] ** beta)))
            for xp in range(3)
            for x in range(3)
        )
        result = maximal_alpha_beta_leakage(ch, OrderPair(alpha, beta))
        assert result.value.nats == pytest.approx(expected, abs=1e-12)

    def test_search_value_dominates_vertices(self):
        rng = np.random.default_rng(16)
        ch = random_channel(rng, 3, 3)
        pair = OrderPair(4.0, 2.0)
        result = maximal_alpha_beta_leakage(ch, pair)
        for xp in range(3):
            for x in range(3):
                vertex = inner_objective(ch, xp, SimplexPoint.point_mass(3, x), pair)
                assert result.value.nats >= vertex - 1e-9

    def test_repeated_calls_identical(self):
        rng = np.random.default_rng(17)
        ch = random_channel(rng, 3, 3)
        pair = OrderPair(3.0, 1.5)
        a = maximal_alpha_beta_leakage(ch, pair)
        b = maximal_alpha_beta_leakage(ch, pair)
        assert a.value.nats == b.value.nats
        assert a.maximizing_x_prime == b.maximizing_x_prime


class TestMeasureResult:
    def test_search_path_carries_report(self):
        rng = np.random.default_rng(18)
        ch = random_channel(rng, 3, 3)
        result = maximal_alpha_beta_leakage(ch, OrderPair(4.0, 2.0))
        assert isinstance(result, MeasureResult)
        assert result.report is not None
        assert isinstance(result.maximizing_distribution, SimplexPoint)
        assert 0 <= result.maximizing_x_prime < 3

    def test_closed_form_path_has_no_report(self):
        result = maximal_alpha_beta_leakage(bsc(0.2), OrderPair(2.0, 3.0))
        assert result.report is None

    def test_maximizing_x_prime_identifies_weak_row(self):
        # row 1 is near-deterministic, so the ratio against it is largest
        ch = Channel(np.array([[0.5, 0.5], [0.01, 0.99]]))
        result = maximal_alpha_beta_leakage(ch, OrderPair(math.inf, math.inf))
        assert math.isfinite(result.value.nats)
        assert result.maximizing_x_prime in (0, 1)
        value = result.value.nats
        assert value == pytest.approx(math.log(0.5 / 0.01), abs=1e-12)


class TestZeroConventions:
    def test_identity_is_infinite_above_beta_one(self):
        identity = Channel(np.eye(2))
        for pair in (OrderPair(2.0, 2.0), OrderPair(2.0, 1.5), OrderPair(3.0, 4.0)):
            result = maximal_alpha_beta_leakage(identity, pair)
            assert math.isinf(result.value.nats)

    def test_identity_is_finite_at_beta_one(self):
        result = maximal_alpha_beta_leakage(Channel(np.eye(2)), OrderPair(2.0, 1.0))
        assert result.value.nats == pytest.approx(math.log(2.0), abs=1e-9)

    def test_ldp_infinite_on_mixed_column(self):
        ch = Channel(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert math.isinf(ldp(ch).nats)

    def test_ldp_matches_the_column_loop(self):
        # a per-column loop as the reference, on channels with zeros and dead columns
        rng = np.random.default_rng(43)
        for _ in range(40):
            n, m = (int(v) for v in rng.integers(1, 7, size=2))
            matrix = rng.dirichlet(np.ones(m), size=n)
            matrix[rng.random((n, m)) < 0.2] = 0.0
            matrix[:, rng.random(m) < 0.2] = 0.0
            matrix[matrix.sum(axis=1) == 0.0, 0] = 1.0
            channel = Channel(matrix / matrix.sum(axis=1, keepdims=True))
            best = 0.0
            for column in channel.matrix.T:
                if column.max() > 0.0:
                    best = max(best, math.inf if column.min() == 0.0 else math.log(column.max() / column.min()))
            assert ldp(channel).nats == best

    def test_ldp_finite_on_a_subnormal_entry(self):
        # 0.5 / 1e-310 overflows, but no column mixes zero and positive entries
        ch = Channel(np.array([[1.0 - 1e-310, 1e-310], [0.5, 0.5]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            eps = ldp(ch).nats
        assert eps == maximal_alpha_beta_leakage(ch, OrderPair(math.inf, math.inf)).value.nats
        assert eps == pytest.approx(math.log(0.5) - math.log(1e-310), rel=1e-15)

    def test_dead_output_column_is_ignored(self):
        with_dead = Channel(np.array([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]]))
        without = Channel(np.array([[0.5, 0.5], [0.2, 0.8]]))
        assert ldp(with_dead).nats == pytest.approx(ldp(without).nats, abs=1e-15)
        for pair in (OrderPair(2.0, 1.0), OrderPair(2.0, 2.0), OrderPair(4.0, 2.0)):
            a = maximal_alpha_beta_leakage(with_dead, pair).value.nats
            b = maximal_alpha_beta_leakage(without, pair).value.nats
            assert a == pytest.approx(b, abs=1e-9)

    def test_inner_objective_infinite_on_starved_reference(self):
        # reference row 0 misses output 1 which the mixture reaches
        ch = Channel(np.array([[1.0, 0.0], [0.5, 0.5]]))
        value = inner_objective(ch, 0, SimplexPoint.uniform(2), OrderPair(2.0, 2.0))
        assert math.isinf(value)

    def test_constant_channel_leaks_nothing(self):
        constant = Channel(np.array([[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]]))
        pairs = (
            OrderPair(2.0, 1.0),
            OrderPair(2.0, 2.0),
            OrderPair(4.0, 2.0),
            OrderPair(math.inf, math.inf),
            OrderPair(math.inf, 1.0),
            OrderPair(1.5, math.inf),
        )
        assert properties.independence_zero(family, [constant], pairs) <= 1e-9
        assert properties.non_negativity(family, [constant], pairs) <= 1e-9
        assert shannon_capacity(constant).nats == pytest.approx(0.0, abs=1e-9)


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(19)
        ch = random_channel(rng, 3, 4)
        pair = OrderPair(4.0, 2.0)
        step = 1e-6
        for _ in range(5):
            w = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3.0  # keep well interior
            for x_prime in range(3):
                grad = inner_gradient(ch, x_prime, w, pair)
                for i in range(3):
                    up, dn = w.copy(), w.copy()
                    up[i] += step
                    dn[i] -= step
                    fd = (
                        inner_objective(ch, x_prime, up, pair)
                        - inner_objective(ch, x_prime, dn, pair)
                    ) / (2.0 * step)
                    assert grad[i] == pytest.approx(fd, rel=1e-5)

    def test_requires_beta_at_most_alpha(self):
        with pytest.raises(InvalidEntry):
            inner_gradient(bsc(0.2), 0, SimplexPoint.uniform(2), OrderPair(2.0, 3.0))

    # input 1 misses output 2, input 2 misses output 0, and input 0 reaches all three
    ZEROS = np.array([[0.5, 0.2, 0.3], [0.6, 0.4, 0.0], [0.0, 0.3, 0.7]])

    @staticmethod
    def direct(P, x_prime, w, alpha, beta):
        """g_x as a linear-domain sum over the outputs x reaches, with 0^0 = 1 written out by Python."""
        B = [sum(w[i] * P[i, y] ** alpha for i in range(len(w))) for y in range(P.shape[1])]
        S = sum(P[x_prime, y] ** (1.0 - beta) * B[y] ** (beta / alpha) for y in range(len(B)) if B[y] > 0.0)
        return np.array([
            sum(P[x_prime, y] ** (1.0 - beta) * B[y] ** (beta / alpha - 1.0) * P[x, y] ** alpha
                for y in range(len(B)) if P[x, y] > 0.0) / S / (alpha - 1.0)
            for x in range(len(P))
        ])

    @pytest.mark.parametrize("x_prime", [1, 2])
    @pytest.mark.parametrize("w", [[0.3, 0.7, 0.0], [0.0, 0.5, 0.5], [0.2, 0.3, 0.5]])
    def test_beta_one_drops_zero_reference_entries(self, x_prime, w):
        # at beta = 1 the reference row's zeros take 0^0 = 1 and drop out
        for alpha in (1.5, 2.0, 4.0):
            grad = inner_gradient(Channel(self.ZEROS), x_prime, w, OrderPair(alpha, 1.0))
            np.testing.assert_allclose(grad, self.direct(self.ZEROS, x_prime, w, alpha, 1.0), rtol=1e-13)

    def test_beta_alpha_keeps_the_linear_term_of_a_starved_output(self):
        # the weights sit on input 1, which misses output 2; x' = 0 reaches it,
        # and at beta = alpha its B^0 = 1 leaves P(2|0)^(1-alpha) P(2|x)^alpha
        w = [0.0, 1.0, 0.0]
        for alpha in (1.5, 2.0, 4.0):
            grad = inner_gradient(Channel(self.ZEROS), 0, w, OrderPair(alpha, alpha))
            expected = self.direct(self.ZEROS, 0, w, alpha, alpha)
            np.testing.assert_allclose(grad, expected, rtol=1e-13)
            assert np.all(np.isfinite(grad))
            assert grad[2] > self.direct(self.ZEROS[:, :2], 0, w, alpha, alpha)[2]  # the term is there

    @pytest.mark.parametrize("x_prime, beta", [(0, 1.0), (0, 1.5), (1, 2.0)])
    def test_starved_output_raises(self, x_prime, beta):
        # beta < alpha: B^(beta/alpha - 1) is +inf at the starved output; at
        # beta = alpha it is the zero reference row that makes it +inf
        with pytest.raises(NumericalFailure):
            inner_gradient(Channel(self.ZEROS), x_prime, [0.0, 1.0, 0.0], OrderPair(2.0, beta))


class TestTauParameterization:
    def test_endpoints_snap_to_bridge_measures(self):
        rng = np.random.default_rng(20)
        ch = random_channel(rng, 3, 3)
        for alpha in (1.5, 2.0, 4.0):
            at_zero = alpha_tau_leakage(ch, alpha, 0.0).value.nats
            assert at_zero == pytest.approx(lrdp(ch, alpha).nats, abs=1e-13)
            at_one = alpha_tau_leakage(ch, alpha, 1.0).value.nats
            assert at_one == pytest.approx(maximal_alpha_leakage(ch, alpha).value.nats, abs=1e-13)

    def test_interior_tau_maps_to_expected_beta(self):
        rng = np.random.default_rng(21)
        ch = random_channel(rng, 3, 3)
        alpha, tau = 2.0, 0.5
        beta = alpha / (1.0 + tau * (alpha - 1.0))
        direct = maximal_alpha_beta_leakage(ch, OrderPair(alpha, beta)).value.nats
        assert alpha_tau_leakage(ch, alpha, tau).value.nats == pytest.approx(direct, abs=1e-13)
        assert alpha_tau_order(alpha, tau) == OrderPair(alpha, beta)
        for a in (1.5, 3.0, 1e6):
            assert alpha_tau_order(a, 0.0) == OrderPair(a, a)
            assert alpha_tau_order(a, 1.0) == OrderPair(a, 1.0)
            for t in (0.0, 0.25, 0.5, 1.0):
                via_order = maximal_alpha_beta_leakage(ch, alpha_tau_order(a, t)).value.nats
                assert alpha_tau_leakage(ch, a, t).value.nats == via_order

    def test_tau_out_of_range(self):
        for tau in (-0.1, 1.1, math.nan):
            with pytest.raises(InvalidEntry):
                alpha_tau_leakage(bsc(0.2), 2.0, tau)
            with pytest.raises(InvalidEntry):
                alpha_tau_order(2.0, tau)
        for alpha in (math.inf, math.nan, 1.0, 0.5):
            with pytest.raises(InvalidEntry):
                alpha_tau_order(alpha, 0.5)

    def test_saddle_point_identity(self):
        # plugging the optimal reference law back in reproduces the inner value
        rng = np.random.default_rng(22)
        ch = random_channel(rng, 3, 3)
        point = SimplexPoint.from_weights(rng.dirichlet(np.ones(3)))
        orders = [alpha_tau_order(alpha, tau) for alpha, tau in properties.SADDLE_ORDERS]
        assert all(math.isfinite(inner_objective(ch, x, point, o)) for o in orders for x in range(3))  # none skipped
        assert properties.saddle_form([(ch, point)]) <= 1e-12

    def test_optimal_q_is_the_minimizer(self):
        # the reference law enters as an infimum: any other law sits above
        rng = np.random.default_rng(23)
        ch = random_channel(rng, 3, 3)
        point = SimplexPoint.uniform(3)
        alpha, tau = 2.0, 0.5
        beta = alpha / (1.0 + tau * (alpha - 1.0))
        direct = inner_objective(ch, 0, point, OrderPair(alpha, beta))
        for _ in range(10):
            q = SimplexPoint.from_weights(rng.dirichlet(np.ones(3)))
            assert variational_objective(ch, 0, point, q, alpha, tau) >= direct - 1e-12

    @staticmethod
    def direct_saddle(P, x_prime, w, q, alpha, tau):
        """The saddle form as a linear-domain double sum, with 0^0 = 1 written out by Python."""
        total = 0.0
        for x, y in iter_product(range(P.shape[0]), range(P.shape[1])):
            if w[x] * P[x, y] > 0.0:
                anchor = q[y] ** tau * P[x_prime, y] ** (1.0 - tau)
                if anchor == 0.0:
                    return math.inf
                total += w[x] * P[x, y] ** alpha * anchor ** (1.0 - alpha)
        return math.log(total) / (alpha - 1.0)

    @pytest.mark.parametrize("q", [[0.3, 0.7, 0.0], [0.0, 0.6, 0.4], [0.2, 0.3, 0.5]])
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_endpoints_with_zeros_match_the_direct_sum(self, q, tau):
        # x' = 0 misses output 2, and so do the first two weightings; at tau = 0
        # q drops out even where it is 0, and at tau = 1 the reference row
        # does. The third weighting reaches output 2, which a zero anchor
        # there turns into +inf
        P = np.array([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0], [0.1, 0.3, 0.6]])
        for w in ([0.4, 0.6, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]):
            for alpha in (1.5, 2.0, 4.0):
                value = variational_objective(Channel(P), 0, w, q, alpha, tau)
                expected = self.direct_saddle(P, 0, w, q, alpha, tau)
                assert value == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_optimal_q_requires_positive_tau(self):
        with pytest.raises(InvalidEntry):
            optimal_q_y(bsc(0.2), 0, SimplexPoint.uniform(2), 2.0, 0.0)

    def test_optimal_q_degenerate_reference(self):
        # reference row misses an output the mixture reaches and the
        # exponent on the reference is active: no maximizing law exists
        ch = Channel(np.array([[1.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(DegenerateInput):
            optimal_q_y(ch, 0, SimplexPoint.uniform(2), 2.0, 0.5)


class TestMonotonicityOnOneChannel:
    def test_beta_monotone(self):
        rng = np.random.default_rng(24)
        ch = random_channel(rng, 3, 3)
        run = [OrderPair(2.0, b) for b in (1.0, 1.2, 1.5, 2.0, 3.0, math.inf)]
        tight = functools.partial(family, config=OptimizerConfig(tolerance=1e-10))
        assert properties.nondecreasing(tight, [ch], [run]) <= 1e-9

    def test_tau_antitone(self):
        # the family falls as tau grows: it rises along the reversed run
        rng = np.random.default_rng(25)
        ch = random_channel(rng, 3, 3)
        run = [alpha_tau_order(2.0, t) for t in (1.0, 0.75, 0.5, 0.25, 0.0)]
        assert properties.nondecreasing(family, [ch], [run]) <= 1e-9


class TestCapacity:
    def test_identity_capacity_is_log_alphabet(self):
        assert shannon_capacity(Channel(np.eye(3))).nats == pytest.approx(math.log(3.0), abs=1e-9)

    def test_cyclic_rows_closed_form(self):
        # rows are permutations of each other and columns sum equally, so
        # the capacity is log m minus the row entropy
        row = np.array([0.7, 0.2, 0.1])
        ch = Channel(np.vstack([np.roll(row, k) for k in range(3)]))
        expected = math.log(3.0) + float(np.sum(row * np.log(row)))
        assert shannon_capacity(ch).nats == pytest.approx(expected, abs=1e-9)

    def test_tolerance_tightens_the_bracket(self):
        loose = shannon_capacity(bsc(0.3), tolerance=1e-3).nats
        tight = shannon_capacity(bsc(0.3), tolerance=1e-12).nats
        expected = math.log(2.0) + 0.3 * math.log(0.3) + 0.7 * math.log(0.7)
        assert abs(tight - expected) < 1e-10
        assert abs(loose - expected) < 1e-3

    def test_few_steps_reach_the_default_tolerance(self):
        # Blahut-Arimoto steps alone stop 6.1e-5 short of the value after
        # 300 steps on this channel; the Newton steps close it long before
        channel = random_channel(np.random.default_rng(100), 100, 100)
        report = maximize_information(channel.matrix, OptimizerConfig(max_iterations=300))
        assert report.converged
        assert report.value == pytest.approx(shannon_capacity(channel).nats, abs=1e-9)

    def test_iteration_cap_is_reported(self):
        channel = random_channel(np.random.default_rng(0), 30, 30)
        capped = maximize_information(channel.matrix, OptimizerConfig(max_iterations=2))
        assert capped.iterations == 2
        assert capped.converged is False
        full = maximize_information(channel.matrix, OptimizerConfig())
        assert full.converged
        assert capped.value + capped.certified_gap >= full.value

    def test_unreachable_tolerance_is_not_certified(self):
        report = maximize_information(bsc(0.3).matrix, OptimizerConfig(tolerance=1e-18))
        assert report.converged is False
        assert report.certified_gap > 0.0

    def test_open_bracket_raises(self):
        # shannon_capacity returns certified values only, and names the gap left
        report = maximize_information(bsc(0.3).matrix, OptimizerConfig(tolerance=1e-18))
        with pytest.raises(NumericalFailure, match=f"gap {report.certified_gap:.3e} exceeds"):
            shannon_capacity(bsc(0.3), tolerance=1e-18)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_structural_zeros_match_closed_forms(self, p):
        # Z channel: C = log(1 + (1-p) p^(p/(1-p))); binary erasure channel: C = (1-p) log 2
        z = Channel(np.array([[1.0, 0.0], [p, 1.0 - p]]))
        assert shannon_capacity(z).nats == pytest.approx(math.log1p((1.0 - p) * p ** (p / (1.0 - p))), abs=1e-12)
        erasure = Channel(np.array([[1.0 - p, p, 0.0], [0.0, p, 1.0 - p]]))
        assert shannon_capacity(erasure).nats == pytest.approx((1.0 - p) * math.log(2.0), abs=1e-12)

    def test_input_alone_reaching_an_output(self):
        # Newton trial points here zero the only input that reaches the
        # middle output, and the best law gives that input a weight of 6e-4
        P = np.array([[1.0, 0.0, 0.0], [0.6, 0.1, 0.3], [0.0, 0.0, 1.0]])
        report = maximize_information(P, OptimizerConfig())
        assert report.converged
        # recomputed at the maximizer, every D(P_x || qP) stays below the upper end
        qP = report.maximizer.weights @ P
        divergences = np.sum(np.where(P > 0.0, P * np.log(np.where(P > 0.0, P, 1.0) / qP), 0.0), axis=1)
        assert divergences.max() <= report.value + report.certified_gap + 1e-12
        assert report.value > math.log(2.0)  # the middle input adds to the noiseless pair

    def test_near_one_alpha_approaches_capacity(self):
        rng = np.random.default_rng(26)
        ch = random_channel(rng, 3, 3)
        close = functools.partial(family, config=OptimizerConfig(tolerance=1e-8, max_iterations=20_000))
        assert properties.capacity_limit(close, ch) <= 5e-3


class TestArgumentChecking:
    def test_x_prime_range(self):
        with pytest.raises(ShapeError):
            inner_objective(bsc(0.2), 2, SimplexPoint.uniform(2), OrderPair(2.0, 1.0))

    def test_weights_dimension(self):
        with pytest.raises(ShapeError):
            inner_objective(bsc(0.2), 0, SimplexPoint.uniform(3), OrderPair(2.0, 1.0))

    def test_weights_sign(self):
        with pytest.raises(InvalidEntry):
            inner_objective(bsc(0.2), 0, np.array([-0.5, 1.5]), OrderPair(2.0, 1.0))

    def test_infinite_orders_rejected_by_inner_objective(self):
        with pytest.raises(InvalidEntry):
            inner_objective(bsc(0.2), 0, SimplexPoint.uniform(2), OrderPair(math.inf, 1.0))

    def test_lrdp_requires_finite_alpha(self):
        with pytest.raises(InvalidEntry):
            lrdp(bsc(0.2), math.inf)
        with pytest.raises(InvalidEntry):
            lrdp(bsc(0.2), 1.0)

    def test_lrdp_variant_requires_legal_beta(self):
        with pytest.raises(InvalidEntry):
            lrdp_variant(bsc(0.2), 0.5)
        with pytest.raises(InvalidEntry):
            lrdp_variant(bsc(0.2), math.inf)

    def test_lrdp_is_the_family_at_alpha_alpha(self):
        # one prefactor: lrdp is the (alpha, alpha) member to the bit
        rng = np.random.default_rng(28)
        channels = [random_channel(rng, 4, 3) for _ in range(10)]
        assert properties.lrdp_bridge(family, channels, (1.5, 2.0, 3.7, 4.0, 17.3, 1e3)) == 0.0

    def test_capacity_tolerance_must_be_finite(self):
        with pytest.raises(InvalidEntry):
            shannon_capacity(bsc(0.2), tolerance=math.inf)

    def test_lrdp_variant_at_beta_one_is_maximal_leakage(self):
        rng = np.random.default_rng(27)
        ch = random_channel(rng, 3, 4)
        assert properties.maxl_bridge(family, [ch]) <= 1e-13


class TestHugeOrders:
    def test_prefactor_does_not_overflow(self):
        # (alpha-1) beta overflows to inf here; the prefactor must not become 0
        channel = Channel(np.array([[0.9, 0.1], [0.2, 0.8]]))
        run = [OrderPair(1e200, b) for b in (1.0, 1e199, 1e200, 3e200, math.inf)]
        assert properties.nondecreasing(family, [channel], [run]) <= 1e-12
        assert properties.lrdp_bridge(family, [channel], (1e200,)) <= 1e-12

    def test_huge_beta_against_a_tiny_entry_stays_finite(self):
        # beta log P overflows at 1e306 against log 1e-300; inf - inf once made
        # this NaN, and the alpha = inf slice once overflowed to +inf there
        channel = Channel(np.array([[1.0 - 1e-300, 1e-300], [0.5, 0.5]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = [maximal_alpha_beta_leakage(channel, OrderPair(2.0, b)).value.nats
                      for b in (1e300, 1e306, math.inf)]
            renyi = lrdp(channel, 1e306).nats
            slice_values = [maximal_alpha_beta_leakage(channel, OrderPair(math.inf, b)).value.nats
                            for b in (1e306, 1e307)]
            slice_values.append(lrdp_variant(channel, 1e306).nats)
        for value in values:
            assert value == pytest.approx(1380.1647614353076, rel=1e-12)
        eps = ldp(channel).nats
        assert renyi == pytest.approx(eps, rel=1e-12)
        for value in slice_values:
            assert value == pytest.approx(eps, rel=1e-12)

    def test_huge_alpha_takes_its_infinite_form(self):
        # alpha log P overflows past 2.4e305 as well, so there the family
        # takes its alpha = inf form, without a warning
        tiny = Channel(np.array([[1.0 - 1e-300, 1e-300], [0.5, 0.5]]))
        plain = Channel(np.array([[0.9, 0.1], [0.2, 0.8]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for channel, alpha, beta, limit in (
                (tiny, 1e308, 1e307, OrderPair(math.inf, math.inf)),
                (tiny, 1e306, 2.0, OrderPair(math.inf, 2.0)),
                (tiny, 1e306, 1e300, OrderPair(math.inf, 1e300)),
                (plain, 1e308, 1e307, OrderPair(math.inf, math.inf)),
            ):
                value = maximal_alpha_beta_leakage(channel, OrderPair(alpha, beta)).value.nats
                assert value == maximal_alpha_beta_leakage(channel, limit).value.nats
        assert maximal_alpha_beta_leakage(tiny, OrderPair(1e308, 1e307)).value.nats == 690.0823807176538
        assert maximal_alpha_beta_leakage(tiny, OrderPair(1e306, 2.0)).value.nats == 344.6946167685469
        assert maximal_alpha_beta_leakage(plain, OrderPair(1e308, 1e307)).value.nats == pytest.approx(
            math.log(8.0), rel=1e-15)


class TestInfiniteWitness:
    @pytest.mark.parametrize("order", [
        OrderPair(math.inf, 2.5),
        OrderPair(2.0, 3.0),
        OrderPair(2.0, 2.0),
        OrderPair(4.0, 2.0),
        OrderPair(1.5, 1.2),
        OrderPair(2.0, math.inf),
        OrderPair(math.inf, math.inf),
    ])
    def test_every_infinite_value_names_its_pair(self, order):
        # one rule in every branch: x' and the point mass at the first input
        # x, in row-major order, that reaches an output x' misses
        rng = np.random.default_rng(31)
        infinite = 0
        for _ in range(40):
            n, m = (int(v) for v in rng.integers(2, 6, size=2))
            matrix = rng.dirichlet(np.ones(m), size=n)
            matrix[rng.random((n, m)) < 0.3] = 0.0
            matrix[matrix.sum(axis=1) == 0.0, 0] = 1.0
            channel = Channel(matrix / matrix.sum(axis=1, keepdims=True))
            result = maximal_alpha_beta_leakage(channel, order)
            zero = channel.matrix == 0.0
            pairs = [(i, j) for i in range(n) for j in range(n) if np.any(zero[i] & ~zero[j])]
            assert math.isinf(result.value.nats) == bool(pairs)
            if not pairs:
                continue
            infinite += 1
            x_prime, x = pairs[0]
            assert result.maximizing_x_prime == x_prime
            assert np.array_equal(result.maximizing_distribution.weights, np.eye(n)[x])
            if not (order.alpha_infinite or order.beta_infinite):
                assert inner_objective(channel, x_prime, result.maximizing_distribution, order) == math.inf
        assert infinite >= 10


KERNEL_CHANNELS = (
    np.array([[0.5, 0.5, 0.0], [0.0, 0.2, 0.8], [0.3, 0.0, 0.7]]),  # structural zeros
    np.array([[0.6, 0.4, 0.0], [0.1, 0.9, 0.0], [0.6, 0.4, 0.0]]),  # duplicated rows, dead column
    np.array([[0.2, 0.3, 0.5]]),  # 1 x m
    np.ones((3, 1)),  # n x 1
)
CLOSED_PAIRS = (
    OrderPair(math.inf, math.inf),
    OrderPair(math.inf, 1.0),
    OrderPair(math.inf, 2.5),
    OrderPair(1.5, math.inf),
    OrderPair(2.0, 2.0),
    OrderPair(2.0, 3.0),
)


def _kernel_outputs():
    rng = np.random.default_rng(11)
    dense = rng.dirichlet(np.ones(5), size=7)
    dense[dense < 0.1] = 0.0
    out = []
    for matrix in (*KERNEL_CHANNELS, dense / dense.sum(axis=1, keepdims=True)):
        channel = Channel(matrix)
        for pair in CLOSED_PAIRS:
            r = maximal_alpha_beta_leakage(channel, pair)
            point = r.maximizing_distribution
            out.append((r.value.nats, r.maximizing_x_prime, None if point is None else point.weights.tolist()))
        out += [lrdp(channel, 2.0).nats, lrdp_variant(channel, 1.0).nats, lrdp_variant(channel, 3.0).nats]
        w = np.linspace(1.0, 2.0, channel.n_inputs)
        for pair in (OrderPair(2.0, 1.0), OrderPair(4.0, 2.0), OrderPair(2.0, 3.0)):
            out += [inner_objective(channel, x, w, pair) for x in range(channel.n_inputs)]
    return out


class TestPowerSumKernel:
    def test_chunk_boundaries_do_not_change_results(self, monkeypatch):
        monkeypatch.setattr(measures, "_CHUNK_ELEMENTS", 1)
        one_row = _kernel_outputs()
        monkeypatch.setattr(measures, "_CHUNK_ELEMENTS", 10**9)
        whole_table = _kernel_outputs()
        assert one_row == whole_table

    def test_closed_forms_stay_within_a_memory_bound(self):
        channel = random_channel(np.random.default_rng(2026), 200, 200)
        calls = {
            "(2, 3)": lambda: maximal_alpha_beta_leakage(channel, OrderPair(2.0, 3.0)),
            "(2, inf)": lambda: maximal_alpha_beta_leakage(channel, OrderPair(2.0, math.inf)),
            "(inf, inf)": lambda: maximal_alpha_beta_leakage(channel, OrderPair(math.inf, math.inf)),
            "lrdp 2": lambda: lrdp(channel, 2.0),
        }
        tracemalloc.start()
        try:
            for name, call in calls.items():
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                call()
                assert tracemalloc.get_traced_memory()[1] - before < 64 * 2**20, name
        finally:
            tracemalloc.stop()


def _pairwise_channels():
    rng = np.random.default_rng(2027)
    out = [np.array([[0.2, 0.3, 0.5]]), np.ones((4, 1))]  # 1 x m, n x 1
    for k in range(50):
        n, m = (int(v) for v in rng.integers(1, 9, size=2))
        matrix = rng.dirichlet(np.ones(m), size=n)
        if k % 5 == 1:  # structural zeros
            matrix[rng.random((n, m)) < 0.3] = 0.0
        elif k % 5 == 2:  # exact duplicate rows: tied pairs
            matrix = matrix[rng.integers(0, n, size=n)]
        elif k % 5 == 3:  # entries near 1e-300: row-shifted products underflow
            tiny = rng.random((n, m)) < 0.4
            matrix[tiny] = 10.0 ** rng.uniform(-305.0, -295.0, size=int(tiny.sum()))
        elif k % 5 == 4 and m > 1:  # a zero only at a column no input reaches
            matrix[:, rng.integers(m)] = 0.0
        matrix[matrix.sum(axis=1) == 0.0, 0] = 1.0
        out.append(matrix / matrix.sum(axis=1, keepdims=True))
    for _ in range(300):  # the rows again with their columns permuted: equal pair values, ranked by rounding
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 9))
        matrix = rng.dirichlet(np.ones(m), size=n)
        out.append(np.vstack([matrix, matrix[:, rng.permutation(m)]]))
    return out


def _pairwise_reference(matrix, order):
    """The per-pair log-domain forms over all n^2 pairs and their first maximum in row-major order."""
    logP = measures._log_matrix(matrix)
    a, b = order.alpha, order.beta
    if order.beta_infinite:
        table = measures._log_terms(logP, -1.0, logP, 1.0).max(axis=2)
        scale = 1.0 if order.alpha_infinite else a / (a - 1.0)
    else:
        terms = measures._log_terms(logP, 1.0 - b, logP, b)
        table = measures._prefactor(a, b) * logsumexp(terms, axis=2)
        scale = 1.0
    i, j = divmod(int(np.argmax(table)), table.shape[1])
    return scale * float(table[i, j]), i, j


class TestPairwiseForms:
    @pytest.mark.parametrize("order", [
        OrderPair(2.0, 3.0),
        OrderPair(3.0, 3.0),
        OrderPair(1.01, 1e4),
        OrderPair(4.0, 4.0 + 1e-7),
        OrderPair(2.0, math.inf),
        OrderPair(math.inf, math.inf),
    ])
    def test_match_the_per_pair_reference(self, order):
        for matrix in _pairwise_channels():
            channel = Channel(matrix)
            result = maximal_alpha_beta_leakage(channel, order)
            value, i, j = _pairwise_reference(channel.matrix, order)
            assert result.value == LeakageValue(value)
            assert result.maximizing_x_prime == i
            assert np.array_equal(result.maximizing_distribution.weights, np.eye(len(matrix))[j])

    @pytest.mark.parametrize("rows", [
        [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]],  # the second tied column holds the first pair
        [[0.25, 0.5, 0.25], [0.5, 0.25, 0.25]],  # the first one does
    ])
    def test_first_witness_wins_between_tied_columns(self, rows):
        # columns 0 and 1 tie for the largest range, log 2, at the pairs
        # (0, 1) and (1, 0); (0, 1) comes first in row-major order
        result = maximal_alpha_beta_leakage(Channel(np.array(rows)), OrderPair(math.inf, math.inf))
        assert result.value.nats == math.log(0.5) - math.log(0.25)
        assert result.maximizing_x_prime == 0
        assert list(result.maximizing_distribution.weights) == [0.0, 1.0]
