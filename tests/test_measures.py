"""Leakage measures: frozen anchors, dispatch equalities, zero conventions."""

import math
import tracemalloc

import numpy as np
import pytest

from chanleak import (
    Channel,
    DegenerateInput,
    InvalidEntry,
    MeasureResult,
    OptimizerConfig,
    OrderPair,
    ShapeError,
    SimplexPoint,
    alpha_tau_leakage,
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
from chanleak import measures
from conftest import bsc, random_channel

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
        for _ in range(5):
            ch = random_channel(rng, 3, 4)
            result = maximal_alpha_beta_leakage(ch, OrderPair(math.inf, math.inf))
            assert result.value.nats == pytest.approx(ldp(ch).nats, abs=1e-12)

    def test_alpha_infinite_beta_one_is_maximal_leakage(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            ch = random_channel(rng, 4, 3)
            result = maximal_alpha_beta_leakage(ch, OrderPair(math.inf, 1.0))
            assert result.value.nats == pytest.approx(maximal_leakage(ch).nats, abs=1e-13)

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
        for alpha in (1.5, 2.0, 4.0):
            result = maximal_alpha_beta_leakage(ch, OrderPair(alpha, math.inf))
            expected = (alpha / (alpha - 1.0)) * ldp(ch).nats
            assert result.value.nats == pytest.approx(expected, abs=1e-12)

    def test_beta_at_alpha_matches_lrdp(self):
        rng = np.random.default_rng(14)
        for alpha in (1.5, 2.0, 4.0):
            ch = random_channel(rng, 3, 4)
            result = maximal_alpha_beta_leakage(ch, OrderPair(alpha, alpha))
            assert result.value.nats == pytest.approx(lrdp(ch, alpha).nats, abs=1e-13)

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
        for pair in (
            OrderPair(2.0, 1.0),
            OrderPair(2.0, 2.0),
            OrderPair(4.0, 2.0),
            OrderPair(math.inf, math.inf),
            OrderPair(math.inf, 1.0),
            OrderPair(1.5, math.inf),
        ):
            assert maximal_alpha_beta_leakage(constant, pair).value.nats == pytest.approx(0.0, abs=1e-9)
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

    def test_tau_out_of_range(self):
        for tau in (-0.1, 1.1, math.nan):
            with pytest.raises(InvalidEntry):
                alpha_tau_leakage(bsc(0.2), 2.0, tau)

    def test_saddle_point_identity(self):
        # plugging the optimal reference law back in reproduces the inner value
        rng = np.random.default_rng(22)
        ch = random_channel(rng, 3, 3)
        point = SimplexPoint.from_weights(rng.dirichlet(np.ones(3)))
        for alpha, tau in ((2.0, 0.5), (3.0, 1.0), (1.5, 0.25)):
            beta = alpha / (1.0 + tau * (alpha - 1.0))
            for x_prime in range(3):
                direct = inner_objective(ch, x_prime, point, OrderPair(alpha, beta))
                q = optimal_q_y(ch, x_prime, point, alpha, tau)
                saddle = variational_objective(ch, x_prime, point, q, alpha, tau)
                assert saddle == pytest.approx(direct, abs=1e-12)

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
        config = OptimizerConfig(tolerance=1e-10)
        values = [
            maximal_alpha_beta_leakage(ch, OrderPair(2.0, b), config).value.nats
            for b in (1.0, 1.2, 1.5, 2.0, 3.0, math.inf)
        ]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-9

    def test_tau_antitone(self):
        rng = np.random.default_rng(25)
        ch = random_channel(rng, 3, 3)
        values = [
            alpha_tau_leakage(ch, 2.0, t).value.nats
            for t in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        for lo, hi in zip(values, values[1:]):
            assert hi <= lo + 1e-9


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

    def test_near_one_alpha_approaches_capacity(self):
        rng = np.random.default_rng(26)
        ch = random_channel(rng, 3, 3)
        config = OptimizerConfig(tolerance=1e-8, max_iterations=20_000)
        close = maximal_alpha_leakage(ch, 1.0 + 1e-3, config).value.nats
        assert close == pytest.approx(shannon_capacity(ch).nats, abs=5e-3)


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

    def test_lrdp_variant_at_beta_one_is_maximal_leakage(self):
        rng = np.random.default_rng(27)
        ch = random_channel(rng, 3, 4)
        assert lrdp_variant(ch, 1.0).nats == pytest.approx(maximal_leakage(ch).nats, abs=1e-13)


class TestHugeOrders:
    def test_prefactor_does_not_overflow(self):
        # (alpha-1) beta overflows to inf here; the prefactor must not become 0
        channel = Channel(np.array([[0.9, 0.1], [0.2, 0.8]]))
        betas = (1.0, 1e199, 1e200, 3e200, math.inf)
        values = [maximal_alpha_beta_leakage(channel, OrderPair(1e200, b)).value.nats for b in betas]
        assert all(later >= earlier - 1e-12 for earlier, later in zip(values, values[1:]))
        assert values[2] == pytest.approx(lrdp(channel, 1e200).nats, abs=1e-12)


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
