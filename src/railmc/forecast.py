"""Delay-distribution propagation and prediction extraction, on blocks.

A block V is an (m, k) array of delay distributions over the states -N..N,
one row per current delay d_S, and the propagation chain P(S+1) .. P(T) is a
(T - S, k, k) stack of checked transition matrices. `point_delay` turns the
current delays into unit rows, `propagate` pushes the whole block through the
chain to the target station, and `make_prediction` reads each row's trend
(a code into `TREND_CLASSES`, which `evaluate` imports from here), jump
flag and minutes of delay. A single forecast is the block with m = 1.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .core import StateSpace

__all__ = ["TREND_CLASSES", "point_delay", "propagate", "make_prediction"]

TREND_CLASSES = ("increase", "decrease", "equal")

# A point metric within +-TREND_THRESHOLD of d_S reads "equal"; a jump is a
# point move of at least JUMP_THRESHOLD, or jump mass >= JUMP_PROB_THRESHOLD.
TREND_THRESHOLD = 1.0
JUMP_THRESHOLD = 2.0
JUMP_PROB_THRESHOLD = 0.5


def point_delay(d_s, space: StateSpace) -> np.ndarray:
    """(m, k) block of unit rows, one at each of the m current delays."""
    return np.eye(space.cardinality)[space.index(d_s)]


def propagate(V: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """Chapman-Kolmogorov product V(T) = V(S) P(S+1) ... P(T), row by row.

    Every matrix must be fully recovered; an undefined (NaN) row means
    recovery has not run and propagation refuses.
    """
    if np.isnan(chain).any():
        step, row = np.argwhere(np.isnan(chain))[0][:2]
        raise ValueError(
            f"chain matrix {step} has undefined row {row}; run recovery first"
        )
    for p in chain:
        # a stack of (1, k) @ (k, k) products rounds as each row's v @ p does
        V = (V[:, None, :] @ p)[:, 0]
    return V


def make_prediction(
    V: np.ndarray, d_s, space: StateSpace, config: RunConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trend codes into TREND_CLASSES, jump flags and minutes of each row of
    the propagated block V, against its current delay in d_s.

    A point metric compares its summary against d_S: the mean, the mode (ties
    break toward the smaller state) or the median (the smallest state where
    the cumulative mass reaches one half). Within +-TREND_THRESHOLD the trend
    is "equal", and a move of at least JUMP_THRESHOLD is a jump. The
    probability metric picks the strictly largest of the masses above, below
    and at d_S (ties read "equal") and flags a jump when the mass beyond one
    minute of d_S reaches JUMP_PROB_THRESHOLD; at the domain boundary that
    window holds only its in-range states. Minutes always come from a point
    metric.
    """
    idx, d_s = space.index(d_s), np.asarray(d_s)
    rows = np.arange(len(V))
    states = space.states()
    point = {
        "mean": (V[:, None, :] @ states[:, None])[:, 0, 0],
        "mode": states[np.argmax(V, axis=1)].astype(float),
        "median": states[(np.cumsum(V, axis=1) < 0.5).sum(axis=1)].astype(float),
    }

    if config.trend_metric == "probability":
        # each row as [0, masses below d_S, 0, masses above d_S]: reduceat adds
        # a segment's first entry to the np.sum of the rest, so each side's mass
        # rounds as the np.sum of its slice of the row does
        lead = np.pad(V, ((0, 0), (1, 0)))
        lead[rows, idx + 1] = 0.0
        offset = rows * lead.shape[1]
        starts = np.column_stack([offset, offset + idx + 1]).ravel()
        p_dec, p_inc = np.add.reduceat(lead.ravel(), starts).reshape(-1, 2).T
        p_eq = V[rows, idx]
        up, down = p_inc > np.maximum(p_dec, p_eq), p_dec > np.maximum(p_inc, p_eq)
    else:
        move = point[config.trend_metric] - d_s
        up, down = move >= TREND_THRESHOLD, move <= -TREND_THRESHOLD
    trend = np.select([up, down], [0, 1], 2)

    if config.jump_metric == "probability":
        # the states d_S - 1 .. d_S + 1, padded with zero mass past the boundary
        window = np.pad(V, ((0, 0), (1, 1)))[rows[:, None], idx[:, None] + np.arange(3)]
        jump = 1.0 - window.sum(axis=1) >= JUMP_PROB_THRESHOLD
    else:
        jump = np.abs(point[config.jump_metric] - d_s) >= JUMP_THRESHOLD

    return trend, jump, point[config.minutes_metric]
