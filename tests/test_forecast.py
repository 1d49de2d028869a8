import itertools
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from railmc import pipeline
from railmc.config import METRICS, POINT_METRICS, RunConfig
from railmc.core import StateSpace
from railmc.evaluate import TREND_CLASSES
from railmc.forecast import (
    JUMP_PROB_THRESHOLD,
    JUMP_THRESHOLD,
    TREND_THRESHOLD,
    make_prediction,
    point_delay,
    propagate,
)


def summarize(v, space):
    """Oracle: (mean, mode, median) of one distribution over delay values.

    Mode ties break toward the smaller state; the median is the smallest state
    where the cumulative mass reaches one half.
    """
    states = space.states()
    mean = float(np.dot(v, states))
    mode = int(states[int(np.argmax(v))])
    median = int(states[int(np.searchsorted(np.cumsum(v), 0.5))])
    return mean, mode, median


def trend_and_jump_probabilities(v, d_s, space):
    """Oracle: (P(increase), P(decrease), P(equal), P(jump)) of one distribution
    relative to the current delay, each a sum over a slice of v.

    The jump probability drops the mass within one minute of d_S; at the domain
    boundary out-of-range window indices contribute nothing.
    """
    if not space.contains(d_s):
        raise ValueError(f"delay {d_s} outside state space")
    idx = space.index(d_s)
    p_inc = float(v[idx + 1 :].sum())
    p_dec = float(v[:idx].sum())
    p_eq = float(v[idx])
    lo = max(0, idx - 1)
    hi = min(space.cardinality, idx + 2)
    p_jump = float(1.0 - v[lo:hi].sum())
    return p_inc, p_dec, p_eq, max(0.0, p_jump)


def oracle_prediction(v, d_s, space, config):
    """Oracle: the scalar rule, one distribution at a time, as (trend, jump, minutes)."""
    mean, mode, median = summarize(v, space)
    point = {"mean": mean, "mode": float(mode), "median": float(median)}
    p_inc, p_dec, p_eq, p_jump = trend_and_jump_probabilities(v, d_s, space)

    if config.trend_metric == "probability":
        if p_inc > max(p_dec, p_eq):
            trend = "increase"
        elif p_dec > max(p_inc, p_eq):
            trend = "decrease"
        else:
            trend = "equal"
    else:
        move = point[config.trend_metric] - d_s
        if move >= TREND_THRESHOLD:
            trend = "increase"
        elif move <= -TREND_THRESHOLD:
            trend = "decrease"
        else:
            trend = "equal"

    if config.jump_metric == "probability":
        jump = p_jump >= JUMP_PROB_THRESHOLD
    else:
        jump = abs(point[config.jump_metric] - d_s) >= JUMP_THRESHOLD
    return trend, jump, point[config.minutes_metric]


def random_stochastic(rng, k):
    rows = rng.random((k, k)) + 1e-3
    return rows / rows.sum(axis=1, keepdims=True)


Predicted = namedtuple("Predicted", "trend jump minutes")


def block_rows(V, d_s, space, config):
    """Each row of the block rule's result as (trend, jump, minutes)."""
    trend, jump, minutes = make_prediction(V, d_s, space, config)
    return [Predicted(TREND_CLASSES[t], j, m)
            for t, j, m in zip(trend.tolist(), jump.tolist(), minutes.tolist())]


def predict(v, d_s, space, **metrics):
    """The block rule on one distribution, an m = 1 block, checked against the oracle."""
    config = RunConfig(**metrics)
    V = np.asarray(v, dtype=float)[None]
    (got,) = block_rows(V, [d_s], space, config)
    assert got == oracle_prediction(V[0], d_s, space, config)
    return got


def point(v, space, metric):
    """A point summary of one distribution read off the block rule's minutes."""
    return predict(v, 0, space, minutes_metric=metric).minutes


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
        V = point_delay([2], space)
        chain = np.stack([np.eye(space.cardinality)] * 2)
        out = propagate(V, chain)
        assert np.array_equal(out, V)

    def test_two_state_hand_case(self):
        # d_S = 0 with P(stay) = 0.7, P(move) = 0.3 in a two-state toy space
        rows = np.array([[0.7, 0.3], [0.3, 0.7]])
        V0 = np.array([[1.0, 0.0]])
        (out,) = propagate(V0, rows[None])
        assert out[0] == pytest.approx(0.7) and out[1] == pytest.approx(0.3)
        # and two applications give the closed form (1 + 0.4^n) / 2
        (out2,) = propagate(V0, np.stack([rows, rows]))
        assert out2[0] == pytest.approx((1 + 0.4**2) / 2)

    def test_five_step_path_enumeration_oracle(self):
        space = StateSpace(2)  # 5 states keeps 5^6 paths tractable
        rng = np.random.default_rng(21)
        chain = np.stack([random_stochastic(rng, space.cardinality) for _ in range(2, 7)])
        V = point_delay([-1], space)
        (got,) = propagate(V, chain)
        want = path_enumeration(V[0], chain)
        assert np.allclose(got, want, atol=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_incomplete_matrix_refused(self):
        space = StateSpace(1)
        partial = np.full((3, 3), np.nan)
        partial[0] = [1.0, 0.0, 0.0]
        chain = np.stack([np.eye(3), partial])
        with pytest.raises(ValueError, match="chain matrix 1 has undefined row 1"):
            propagate(point_delay([0], space), chain)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=4))
    def test_propagation_preserves_normalization(self, seed, steps):
        space = StateSpace(4)
        rng = np.random.default_rng(seed)
        chain = np.stack([random_stochastic(rng, space.cardinality) for _ in range(steps)])
        out = propagate(point_delay(space.states(), space), chain)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-9
        assert (out >= 0).all()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=4))
    def test_block_rows_equal_single_vectors(self, seed, steps):
        # each row of the block is bit-equal to its vector pushed alone, v @ p by v @ p
        space = StateSpace(15)
        rng = np.random.default_rng(seed)
        chain = np.stack([random_stochastic(rng, space.cardinality) for _ in range(steps)])
        V = rng.random((7, space.cardinality))
        V /= V.sum(axis=1, keepdims=True)
        out = propagate(V, chain)
        for v, got in zip(V, out):
            for p in chain:
                v = v @ p
            assert np.array_equal(got, v)


class TestSummarize:
    def test_known_distribution(self):
        space = StateSpace(2)
        v = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        mean, mode, median = summarize(v, space)
        assert mean == pytest.approx(0.0)
        assert mode == 0
        assert median == 0
        assert point(v, space, "mean") == pytest.approx(0.0)
        assert point(v, space, "mode") == 0
        assert point(v, space, "median") == 0

    def test_mode_tie_breaks_to_smaller_state(self):
        space = StateSpace(2)
        v = np.array([0.0, 0.4, 0.1, 0.4, 0.1])
        assert summarize(v, space)[1] == -1
        assert point(v, space, "mode") == -1

    def test_median_smallest_state_reaching_half(self):
        space = StateSpace(2)
        v = np.array([0.5, 0.1, 0.1, 0.1, 0.2])
        assert summarize(v, space)[2] == -2
        assert point(v, space, "median") == -2
        v = np.array([0.49, 0.0, 0.02, 0.0, 0.49])
        assert summarize(v, space)[2] == 0
        assert point(v, space, "median") == 0


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
        # the tie of the upper and lower masses reads "equal"; 28/31 >= 0.5 jumps
        assert predict(v, 0, space, trend_metric="probability")[:2] == ("equal", True)

    def test_boundary_current_delay(self):
        space = StateSpace(15)
        k = space.cardinality
        v = np.full(k, 1.0 / k)
        p_inc, p_dec, p_eq, p_jump = trend_and_jump_probabilities(v, 15, space)
        assert p_inc == 0.0
        assert p_dec == pytest.approx(30 / 31)
        assert p_jump == pytest.approx(29 / 31)  # only two in-range window cells
        assert predict(v, 15, space, trend_metric="probability")[:2] == ("decrease", True)

    def test_probabilities_partition(self):
        space = StateSpace(4)
        rng = np.random.default_rng(2)
        v = rng.random(space.cardinality)
        v /= v.sum()
        p_inc, p_dec, p_eq, _ = trend_and_jump_probabilities(v, 1, space)
        assert p_inc + p_dec + p_eq == pytest.approx(1.0, abs=1e-12)
        predict(v, 1, space, trend_metric="probability")


@st.composite
def distribution_blocks(draw):
    """(space, block): up to four distributions, each normalized from floats
    in [0, 1] or from small counts, as a marginal baseline's rows are. Counts
    make masses that tie up to rounding, where the summation order decides."""
    space = StateSpace(draw(st.integers(min_value=1, max_value=15)))
    k = space.cardinality
    floats = st.lists(st.floats(min_value=0, max_value=1), min_size=k, max_size=k)
    counts = st.lists(st.integers(min_value=0, max_value=3), min_size=k, max_size=k)
    V = np.array(draw(st.lists((floats | counts).filter(any), min_size=1, max_size=4)), dtype=float)
    return space, V / V.sum(axis=1, keepdims=True)


class TestPredictions:
    @settings(max_examples=40, deadline=None)
    @given(distribution_blocks())
    # at d_S = 0 the masses below and above tie at one half up to rounding
    @example((StateSpace(12), np.array([[0] * 9 + [1, 2, 3] + [0] * 11 + [3, 3]]) / 12))
    def test_block_rows_equal_scalar_oracle(self, case):
        space, V = case
        for metrics in itertools.product(METRICS, METRICS, POINT_METRICS):
            config = RunConfig(**dict(zip(("trend_metric", "jump_metric", "minutes_metric"), metrics)))
            for d_s in (-space.n_max, 0, space.n_max):
                want = [oracle_prediction(v, d_s, space, config) for v in V]
                assert block_rows(V, np.full(len(V), d_s), space, config) == want

    def test_trend_point_metric_band(self):
        space = StateSpace(5)
        (v,) = point_delay([3], space)
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
        (v,) = point_delay([1], space)
        assert predict(v, 0, space).jump is False

    def test_jump_point_metric(self):
        space = StateSpace(5)
        (v,) = point_delay([3], space)
        assert predict(v, 0, space, jump_metric="mean").jump is True
        assert predict(v, 2, space, jump_metric="mean").jump is False

    def test_minutes_refuses_probability_metric(self):
        space = StateSpace(2)
        (v,) = point_delay([0], space)
        with pytest.raises(ValueError, match="minutes_metric 'probability'"):
            predict(v, 0, space, minutes_metric="probability")

    def test_make_prediction_defaults(self):
        space = StateSpace(5)
        v = [0.0] * 8 + [0.2, 0.3, 0.5]
        pred = predict(v, 0, space)
        assert pred.trend == "increase"
        assert pred.jump is True
        assert pred.minutes == pytest.approx(0.2 * 3 + 0.3 * 4 + 0.5 * 5)
        # the forecast record of a bundle whose one step moves any delay to v
        bundle = pipeline.parse_bundle({"meta": {"n_max": 5, "strategy": "diagonal"},
                                        "trains": {"T001": {"matrices": {"2": [v] * space.cardinality}}}})
        d = pipeline.forecast_from_bundle(bundle, "T001", 1, 0, 2, RunConfig())
        assert d["metrics_used"] == {"trend": "median", "jump": "probability", "minutes": "mean"}
        assert d["d_S"] == 0
        assert (d["distribution"], d["trend"], d["jump"], d["minutes"]) == (v, *pred)

    def test_metric_config_overrides(self):
        space = StateSpace(5)
        v = [0.0] * 8 + [0.2, 0.3, 0.5]
        pred = predict(v, 4, space, trend_metric="mean", jump_metric="mode", minutes_metric="median")
        assert pred.trend == "equal"  # mean 4.3 within the +-1 band of 4
        assert pred.jump is False  # mode 5, |5 - 4| < 2
        assert pred.minutes == 4.0  # cumulative mass hits one half exactly at 4

    def test_out_of_range_current_delay(self):
        space = StateSpace(2)
        V = point_delay([0], space)
        with pytest.raises(ValueError):
            trend_and_jump_probabilities(V[0], 7, space)
        with pytest.raises(ValueError, match=r"delay 7 outside \[-2, 2\]"):
            make_prediction(V, [7], space, RunConfig())
        with pytest.raises(ValueError, match=r"delay -7 outside \[-2, 2\]"):
            point_delay([0, -7], space)
