"""Delay-distribution propagation and prediction extraction.

A delay distribution v is a (k,) probability vector over the states -N..N,
and the propagation chain P(S+1) .. P(T) is a (T - S, k, k) stack of checked
transition matrices. The current delay becomes a unit-mass vector, is pushed
through the chain to the target station, and the resulting distribution is
summarized into a trend (increase/decrease/equal), a jump flag, and a
minutes-of-delay point prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .core import StateSpace

__all__ = [
    "Prediction",
    "point_delay",
    "propagate",
    "summarize",
    "trend_and_jump_probabilities",
    "make_prediction",
]

# A point metric within +-TREND_THRESHOLD of d_S reads "equal"; a jump is a
# point move of at least JUMP_THRESHOLD, or jump mass >= JUMP_PROB_THRESHOLD.
TREND_THRESHOLD = 1.0
JUMP_THRESHOLD = 2.0
JUMP_PROB_THRESHOLD = 0.5


@dataclass(frozen=True)
class Prediction:
    """Forecast outputs for one train at the target station."""

    distribution: np.ndarray
    current_delay: int
    trend: str
    jump: bool
    minutes: float
    config: RunConfig

    def to_dict(self) -> dict:
        return {
            "d_S": self.current_delay,
            "distribution": self.distribution.tolist(),
            "trend": self.trend,
            "jump": self.jump,
            "minutes": self.minutes,
            "metrics_used": {
                "trend": self.config.trend_metric,
                "jump": self.config.jump_metric,
                "minutes": self.config.minutes_metric,
            },
        }


def point_delay(initial_value: int, space: StateSpace) -> np.ndarray:
    """Unit-mass distribution at the known current delay."""
    if not space.contains(initial_value):
        raise ValueError(f"delay {initial_value} outside state space")
    v = np.zeros(space.cardinality)
    v[space.index(initial_value)] = 1.0
    return v


def propagate(v: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """Chapman-Kolmogorov product v(T) = v(S) P(S+1) ... P(T).

    Every matrix must be fully recovered; an undefined (NaN) row means
    recovery has not run and propagation refuses.
    """
    if np.isnan(chain).any():
        step, row = np.argwhere(np.isnan(chain))[0][:2]
        raise ValueError(
            f"chain matrix {step} has undefined row {row}; run recovery first"
        )
    for p in chain:
        v = v @ p
    return v


def summarize(v: np.ndarray, space: StateSpace) -> tuple[float, int, int]:
    """(mean, mode, median) of the distribution over delay values.

    Mode ties break toward the smaller state; the median is the smallest state
    where the cumulative mass reaches one half.
    """
    states = space.states()
    mean = float(np.dot(v, states))
    mode = int(states[int(np.argmax(v))])
    median = int(states[int(np.searchsorted(np.cumsum(v), 0.5))])
    return mean, mode, median


def trend_and_jump_probabilities(
    v: np.ndarray, d_s: int, space: StateSpace
) -> tuple[float, float, float, float]:
    """(P(increase), P(decrease), P(equal), P(jump)) relative to the current delay.

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


def make_prediction(
    v: np.ndarray, d_s: int, space: StateSpace, config: RunConfig
) -> Prediction:
    """Extract trend/jump/minutes from a propagated distribution.

    A point metric (mean, mode, median) compares its summary against d_S:
    the trend within +-TREND_THRESHOLD is "equal", and a move of at least
    JUMP_THRESHOLD is a jump. The probability metric picks the strictly
    largest trend mass (ties read "equal") and flags a jump when the mass
    beyond one minute of d_S reaches JUMP_PROB_THRESHOLD. Minutes always
    come from a point metric.
    """
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

    return Prediction(
        distribution=v,
        current_delay=d_s,
        trend=trend,
        jump=jump,
        minutes=point[config.minutes_metric],
        config=config,
    )
