import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railmc.config import RunConfig
from railmc.core import StateSpace
from railmc.forecast import (
    make_prediction,
    point_delay,
    propagate,
    summarize,
    trend_and_jump_probabilities,
)


def random_stochastic(rng, k):
    rows = rng.random((k, k)) + 1e-3
    return rows / rows.sum(axis=1, keepdims=True)


def predict(v, d_s, space, **metrics):
    return make_prediction(np.asarray(v, dtype=float), d_s, space, RunConfig(**metrics))


def path_enumeration(initial, matrices):
    """Brute-force oracle: sum probabilities over every explicit state path."""
    k = len(initial)
    out = np.zeros(k)
    for path in itertools.product(range(k), repeat=len(matrices) + 1):
        p = initial[path[0]]
        for step, mat in enumerate(matrices):
            p *= mat[path[step], path[step + 1]]
        out[path[-1]] += p
    return out


class TestPropagate:
    def test_identity_is_fixed_point(self):
        space = StateSpace(3)
        v = point_delay(2, space)
        chain = np.stack([np.eye(space.cardinality)] * 2)
        out = propagate(v, chain)
        assert np.array_equal(out, v)

    def test_two_state_hand_case(self):
        # d_S = 0 with P(stay) = 0.7, P(move) = 0.3 in a two-state toy space
        rows = np.array([[0.7, 0.3], [0.3, 0.7]])
        v0 = np.array([1.0, 0.0])
        out = v0 @ rows
        assert out[0] == pytest.approx(0.7) and out[1] == pytest.approx(0.3)
        # and two applications give the closed form (1 + 0.4^n) / 2
        out2 = out @ rows
        assert out2[0] == pytest.approx((1 + 0.4**2) / 2)

    def test_five_step_path_enumeration_oracle(self):
        space = StateSpace(2)  # 5 states keeps 5^6 paths tractable
        rng = np.random.default_rng(21)
        chain = np.stack([random_stochastic(rng, space.cardinality) for _ in range(2, 7)])
        v = point_delay(-1, space)
        got = propagate(v, chain)
        want = path_enumeration(v, chain)
        assert np.allclose(got, want, atol=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_incomplete_matrix_refused(self):
        space = StateSpace(1)
        partial = np.full((3, 3), np.nan)
        partial[0] = [1.0, 0.0, 0.0]
        chain = np.stack([np.eye(3), partial])
        with pytest.raises(ValueError, match="chain matrix 1 has undefined row 1"):
            propagate(point_delay(0, space), chain)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=4))
    def test_propagation_preserves_normalization(self, seed, steps):
        space = StateSpace(4)
        rng = np.random.default_rng(seed)
        chain = np.stack([random_stochastic(rng, space.cardinality) for _ in range(steps)])
        out = propagate(point_delay(0, space), chain)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        assert (out >= 0).all()


class TestSummarize:
    def test_known_distribution(self):
        space = StateSpace(2)
        v = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        mean, mode, median = summarize(v, space)
        assert mean == pytest.approx(0.0)
        assert mode == 0
        assert median == 0

    def test_mode_tie_breaks_to_smaller_state(self):
        space = StateSpace(2)
        v = np.array([0.0, 0.4, 0.1, 0.4, 0.1])
        assert summarize(v, space)[1] == -1

    def test_median_smallest_state_reaching_half(self):
        space = StateSpace(2)
        v = np.array([0.5, 0.1, 0.1, 0.1, 0.2])
        assert summarize(v, space)[2] == -2
        v = np.array([0.49, 0.0, 0.02, 0.0, 0.49])
        assert summarize(v, space)[2] == 0


class TestTrendAndJump:
    def test_uniform_distribution(self):
        space = StateSpace(15)
        k = space.cardinality
        v = np.full(k, 1.0 / k)
        p_inc, p_dec, p_eq, p_jump = trend_and_jump_probabilities(v, 0, space)
        assert p_inc == pytest.approx(15 / 31)
        assert p_dec == pytest.approx(15 / 31)
        assert p_eq == pytest.approx(1 / 31)
        assert p_jump == pytest.approx(28 / 31)

    def test_boundary_current_delay(self):
        space = StateSpace(15)
        k = space.cardinality
        v = np.full(k, 1.0 / k)
        p_inc, p_dec, p_eq, p_jump = trend_and_jump_probabilities(v, 15, space)
        assert p_inc == 0.0
        assert p_dec == pytest.approx(30 / 31)
        assert p_jump == pytest.approx(29 / 31)  # only two in-range window cells

    def test_probabilities_partition(self):
        space = StateSpace(4)
        rng = np.random.default_rng(2)
        v = rng.random(space.cardinality)
        v /= v.sum()
        p_inc, p_dec, p_eq, _ = trend_and_jump_probabilities(v, 1, space)
        assert p_inc + p_dec + p_eq == pytest.approx(1.0, abs=1e-12)


class TestPredictions:
    def test_trend_point_metric_band(self):
        space = StateSpace(5)
        v = point_delay(3, space)
        assert predict(v, 2, space, trend_metric="mean").trend == "increase"
        assert predict(v, 3, space, trend_metric="mean").trend == "equal"
        assert predict(v, 4, space, trend_metric="mean").trend == "decrease"

    def test_trend_probability_metric(self):
        space = StateSpace(2)
        v = [0.1, 0.1, 0.2, 0.3, 0.3]
        assert predict(v, 0, space, trend_metric="probability").trend == "increase"
        v = [0.4, 0.3, 0.3, 0.0, 0.0]
        assert predict(v, 0, space, trend_metric="probability").trend == "decrease"
        # exact tie defaults to "equal"
        v = [0.25, 0.25, 0.0, 0.25, 0.25]
        assert predict(v, 0, space, trend_metric="probability").trend == "equal"

    def test_jump_probability_metric(self):
        space = StateSpace(5)
        k = space.cardinality
        v = np.full(k, 1.0 / k)
        # mass outside the +-1 window around 0 is 8/11 >= 0.5
        assert predict(v, 0, space).jump is True
        v = point_delay(1, space)
        assert predict(v, 0, space).jump is False

    def test_jump_point_metric(self):
        space = StateSpace(5)
        v = point_delay(3, space)
        assert predict(v, 0, space, jump_metric="mean").jump is True
        assert predict(v, 2, space, jump_metric="mean").jump is False

    def test_minutes_refuses_probability_metric(self):
        space = StateSpace(2)
        v = point_delay(0, space)
        with pytest.raises(ValueError, match="minutes_metric 'probability'"):
            predict(v, 0, space, minutes_metric="probability")

    def test_make_prediction_defaults(self):
        space = StateSpace(5)
        v = [0.0] * 8 + [0.2, 0.3, 0.5]
        pred = predict(v, 0, space)
        assert pred.trend == "increase"
        assert pred.jump is True
        assert pred.minutes == pytest.approx(0.2 * 3 + 0.3 * 4 + 0.5 * 5)
        d = pred.to_dict()
        assert d["metrics_used"] == {"trend": "median", "jump": "probability", "minutes": "mean"}
        assert d["d_S"] == 0

    def test_metric_config_overrides(self):
        space = StateSpace(5)
        v = [0.0] * 8 + [0.2, 0.3, 0.5]
        pred = predict(v, 4, space, trend_metric="mean", jump_metric="mode", minutes_metric="median")
        assert pred.trend == "equal"  # mean 4.3 within the +-1 band of 4
        assert pred.jump is False  # mode 5, |5 - 4| < 2
        assert pred.minutes == 4.0  # cumulative mass hits one half exactly at 4

    def test_out_of_range_current_delay(self):
        space = StateSpace(2)
        v = point_delay(0, space)
        with pytest.raises(ValueError):
            trend_and_jump_probabilities(v, 7, space)
        with pytest.raises(ValueError):
            point_delay(7, space)
