"""Probability primitives: simplex points, channels, the channel algebra, CSV."""

import math

import numpy as np
import pytest

from chanleak import (
    Channel,
    InvalidEntry,
    LeakageValue,
    NotStochastic,
    NumericalFailure,
    OrderPair,
    ShapeError,
    SimplexPoint,
    compose,
    product,
    push_forward,
    read_channel_csv,
    validate_channel,
    write_channel_csv,
)
from conftest import bsc, random_channel


class TestSimplexPoint:
    def test_strict_constructor_accepts_exact(self):
        p = SimplexPoint(np.array([0.25, 0.75]))
        assert len(p) == 2
        assert p.weights.sum() == 1.0

    def test_strict_constructor_rejects_loose_sum(self):
        with pytest.raises(NotStochastic):
            SimplexPoint(np.array([0.5, 0.5001]))

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidEntry):
            SimplexPoint(np.array([1.1, -0.1]))

    def test_nan_entry_rejected(self):
        with pytest.raises(InvalidEntry):
            SimplexPoint(np.array([math.nan, 1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            SimplexPoint(np.array([]))

    def test_from_weights_renormalizes(self):
        p = SimplexPoint.from_weights([2.0, 6.0], tolerance=10.0)
        np.testing.assert_allclose(p.weights, [0.25, 0.75], rtol=0, atol=1e-15)

    def test_uniform_and_point_mass(self):
        u = SimplexPoint.uniform(4)
        np.testing.assert_array_equal(u.weights, np.full(4, 0.25))
        e = SimplexPoint.point_mass(3, 1)
        np.testing.assert_array_equal(e.weights, [0.0, 1.0, 0.0])
        with pytest.raises(ShapeError):
            SimplexPoint.point_mass(3, 3)

    def test_weights_are_read_only(self):
        p = SimplexPoint.uniform(2)
        with pytest.raises(ValueError):
            p.weights[0] = 0.9


class TestValidateChannel:
    def test_exact_rows_accepted(self):
        ch = validate_channel([[0.5, 0.5], [0.2, 0.8]])
        assert ch.n_inputs == 2 and ch.n_outputs == 2
        np.testing.assert_array_equal(ch.matrix, [[0.5, 0.5], [0.2, 0.8]])

    def test_row_within_tolerance_renormalized(self):
        ch = validate_channel([[0.5, 0.5001], [0.2, 0.8]], tolerance=1e-3)
        assert ch.matrix[0].sum() == pytest.approx(1.0, abs=1e-15)
        assert ch.matrix[0, 0] == pytest.approx(0.5 / 1.0001, abs=1e-15)

    def test_row_outside_tolerance_rejected(self):
        with pytest.raises(NotStochastic):
            validate_channel([[0.5, 0.6], [0.2, 0.8]], tolerance=1e-3)

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidEntry):
            validate_channel([[0.5, -0.1, 0.6]])

    def test_ragged_rejected(self):
        with pytest.raises(ShapeError):
            validate_channel([[0.5, 0.5], [1.0]])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            validate_channel([])

    def test_label_counts_checked(self):
        ch = validate_channel([[1.0]], input_labels=["a"], output_labels=["y"])
        assert ch.input_labels == ("a",) and ch.output_labels == ("y",)
        with pytest.raises(ShapeError):
            validate_channel([[1.0]], input_labels=["a", "b"])

    def test_matrix_is_read_only(self):
        ch = validate_channel([[0.5, 0.5]])
        with pytest.raises(ValueError):
            ch.matrix[0, 0] = 0.9

    def test_rows_are_divided_by_their_sums(self):
        # validate_channel divides each row by its sum and Channel divides the
        # result by its own sum, which leaves a row summing to exactly one as it was
        rng = np.random.default_rng(41)
        for _ in range(60):
            n, m = (int(v) for v in rng.integers(1, 30, size=2))
            matrix = rng.dirichlet(np.ones(m), size=n)
            matrix[rng.random((n, m)) < 0.3] = 0.0
            matrix[matrix.sum(axis=1) == 0.0, 0] = 1.0
            matrix /= matrix.sum(axis=1, keepdims=True)
            matrix[: n // 2] *= 1.0 + rng.uniform(-1e-9, 1e-9, size=(n // 2, 1))
            ch = validate_channel(matrix)
            assert validate_channel(np.asfortranarray(matrix)).matrix.tobytes() == ch.matrix.tobytes()
            for i in range(n):
                once = matrix[i] / matrix[i].sum()
                assert ch.matrix[i].tobytes() == (once / once.sum()).tobytes()
                if matrix[i].sum() == 1.0:
                    assert ch.matrix[i].tobytes() == matrix[i].tobytes()

    def test_a_bad_entry_is_reported_before_a_bad_sum(self):
        with pytest.raises(InvalidEntry):
            validate_channel([[0.5, 0.6], [math.nan, 1.0]])
        with pytest.raises(InvalidEntry):
            Channel(np.array([[0.5, 0.6], [1.1, -0.1]]))


class TestOverflowingSums:
    def test_a_sum_that_overflows_is_not_stochastic(self):
        # finite entries whose row sum overflows are a bad sum, not a numpy warning
        for build in (lambda: Channel(np.array([[1e308, 1e308]])),
                      lambda: validate_channel([[0.5, 0.5], [1e308, 1e308]]),
                      lambda: SimplexPoint.from_weights([1e308, 1e308])):
            with pytest.raises(NotStochastic, match="inf"):
                build()


class TestInputIsCopied:
    def test_simplex_point_leaves_the_caller_array_alone(self):
        w = np.array([0.25, 0.75])
        p = SimplexPoint(w)
        assert not np.shares_memory(w, p.weights)
        w[0] = 0.5  # still writeable
        np.testing.assert_array_equal(p.weights, [0.25, 0.75])

    def test_channel_leaves_the_caller_array_alone(self):
        matrix = np.array([[0.5, 0.5], [0.2, 0.8]])
        for ch in (Channel(matrix), validate_channel(matrix)):
            assert not np.shares_memory(matrix, ch.matrix)
        matrix[0, 0] = 0.9  # still writeable
        np.testing.assert_array_equal(ch.matrix, [[0.5, 0.5], [0.2, 0.8]])


class TestCompose:
    def test_identity_is_neutral(self):
        c = bsc(0.3)
        identity = Channel(np.eye(2))
        np.testing.assert_array_equal(compose(c, identity).matrix, c.matrix)

    def test_constant_row_absorbs(self):
        c = bsc(0.3)
        constant = Channel(np.array([[0.4, 0.6], [0.4, 0.6]]))
        out = compose(c, constant)
        np.testing.assert_allclose(out.matrix, [[0.4, 0.6], [0.4, 0.6]], rtol=0, atol=1e-15)

    def test_bsc_cascade(self):
        # crossover 0.1 twice: stay-probability 0.9^2 + 0.1^2 = 0.82
        out = compose(bsc(0.1), bsc(0.1))
        np.testing.assert_allclose(out.matrix, bsc(0.18).matrix, rtol=0, atol=1e-15)

    def test_associative(self):
        rng = np.random.default_rng(1)
        a = random_channel(rng, 2, 3)
        b = random_channel(rng, 3, 4)
        c = random_channel(rng, 4, 2)
        left = compose(compose(a, b), c).matrix
        right = compose(a, compose(b, c)).matrix
        np.testing.assert_allclose(left, right, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            compose(bsc(0.1), Channel(np.full((3, 3), 1.0 / 3.0)))

    def test_labels_carried_through(self):
        a = Channel(np.eye(2), input_labels=["u", "v"], output_labels=["m", "n"])
        b = Channel(np.eye(2), input_labels=["m", "n"], output_labels=["s", "t"])
        out = compose(a, b)
        assert out.input_labels == ("u", "v") and out.output_labels == ("s", "t")


class TestProduct:
    def test_identities_tensor_to_identity(self):
        out = product(Channel(np.eye(2)), Channel(np.eye(2)))
        np.testing.assert_array_equal(out.matrix, np.eye(4))

    def test_trivial_channel_is_unit(self):
        c = bsc(0.2)
        unit = Channel(np.array([[1.0]]))
        np.testing.assert_array_equal(product(c, unit).matrix, c.matrix)
        np.testing.assert_array_equal(product(unit, c).matrix, c.matrix)

    def test_entry_is_product_of_entries(self):
        # input (0,0) to output (1,1): 0.2 * 0.3; pairs are enumerated
        # row-major so that output pair sits in column 3
        out = product(bsc(0.2), bsc(0.3))
        assert out.n_inputs == 4 and out.n_outputs == 4
        assert out.matrix[0, 3] == pytest.approx(0.06, abs=1e-15)

    def test_rows_remain_stochastic(self):
        rng = np.random.default_rng(2)
        out = product(random_channel(rng, 3, 2), random_channel(rng, 2, 4))
        np.testing.assert_allclose(out.matrix.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_paired_labels(self):
        a = Channel(np.eye(2), input_labels=["0", "1"])
        b = Channel(np.eye(2), input_labels=["a", "b"])
        assert product(a, b).input_labels == ("0,a", "0,b", "1,a", "1,b")
        assert product(a, b).output_labels is None


class TestPushForward:
    def test_uniform_through_identity(self):
        out = push_forward(SimplexPoint.uniform(3), Channel(np.eye(3)))
        np.testing.assert_array_equal(out.weights, np.full(3, 1.0 / 3.0))

    def test_constant_row_channel_yields_that_row(self):
        constant = Channel(np.array([[0.4, 0.6], [0.4, 0.6]]))
        out = push_forward(SimplexPoint(np.array([0.9, 0.1])), constant)
        np.testing.assert_allclose(out.weights, [0.4, 0.6], rtol=0, atol=1e-15)

    def test_binary_example(self):
        out = push_forward(SimplexPoint(np.array([0.3, 0.7])), bsc(0.2))
        np.testing.assert_allclose(out.weights, [0.38, 0.62], rtol=0, atol=1e-15)

    def test_output_on_simplex(self):
        rng = np.random.default_rng(3)
        ch = random_channel(rng, 4, 5)
        out = push_forward(SimplexPoint.from_weights(rng.dirichlet(np.ones(4))), ch)
        assert abs(out.weights.sum() - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            push_forward(SimplexPoint.uniform(3), bsc(0.1))


class TestOrderPair:
    def test_legal_range(self):
        pair = OrderPair(2.0, 1.0)
        assert pair.alpha == 2.0 and pair.beta == 1.0
        assert not pair.alpha_infinite and not pair.beta_infinite

    def test_infinite_orders(self):
        pair = OrderPair(math.inf, math.inf)
        assert pair.alpha_infinite and pair.beta_infinite

    @pytest.mark.parametrize("alpha", [1.0, 0.5, -2.0, math.nan])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(InvalidEntry):
            OrderPair(alpha, 2.0)

    @pytest.mark.parametrize("beta", [0.999, 0.0, -1.0, math.nan])
    def test_beta_out_of_range(self, beta):
        with pytest.raises(InvalidEntry):
            OrderPair(2.0, beta)


class TestLeakageValue:
    def test_plain_value(self):
        v = LeakageValue(0.5)
        assert float(v) == 0.5
        assert v.bits == pytest.approx(0.5 / math.log(2.0), rel=1e-15)

    def test_infinite_is_legal(self):
        assert math.isinf(LeakageValue(math.inf).nats)

    def test_nan_rejected(self):
        with pytest.raises(NumericalFailure):
            LeakageValue(math.nan)

    def test_roundoff_clamped_to_zero(self):
        assert LeakageValue(-1e-12).nats == 0.0

    def test_truly_negative_rejected(self):
        with pytest.raises(NumericalFailure):
            LeakageValue(-1e-6)


class TestChannelCsv:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        ch = random_channel(rng, 3, 4)
        path = tmp_path / "ch.csv"
        write_channel_csv(ch, path)
        back = read_channel_csv(path)
        np.testing.assert_array_equal(back.matrix, ch.matrix)

    def test_header_labels_round_trip(self, tmp_path):
        ch = Channel(np.eye(2), output_labels=["yes", "no"])
        path = tmp_path / "ch.csv"
        write_channel_csv(ch, path)
        assert path.read_text().splitlines()[0] == "# yes,no"
        assert read_channel_csv(path).output_labels == ("yes", "no")

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n0.2,oops\n")
        with pytest.raises(InvalidEntry):
            read_channel_csv(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.5,0.5\n1.0\n")
        with pytest.raises(ShapeError):
            read_channel_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ShapeError):
            read_channel_csv(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("\n0.5,0.5\n\n0.2,0.8\n\n")
        np.testing.assert_array_equal(read_channel_csv(path).matrix, [[0.5, 0.5], [0.2, 0.8]])
