"""Scoring of delay predictions: class F1 scores, RWMSE, and the total score.

Also provides the two baseline predictors as propagation chains of shape
(steps, k, k), so they run through the same Chapman-Kolmogorov product as a
trained bundle: naive persistence is the empty chain, and the marginal
baseline is one matrix whose every row is the delay distribution at the
target station.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .core import CountTensor, StateSpace
from .forecast import TREND_CLASSES

__all__ = [
    "TREND_CLASSES",
    "ScoreReport",
    "f1_class",
    "actual_trend",
    "actual_jump",
    "trend_score",
    "jump_score",
    "rwmse",
    "total_score",
    "naive_predictor",
    "marginal_predictor",
    "score_batch",
]


def f1_class(tp: int, fp: int, fn: int) -> float:
    """Harmonic F1 from one-vs-rest tallies; degenerate tallies score 0."""
    if tp < 0 or fp < 0 or fn < 0:
        raise ValueError("negative tallies")
    if tp == 0:
        return 0.0
    ppv = tp / (tp + fp)
    tpr = tp / (tp + fn)
    return 2.0 * ppv * tpr / (ppv + tpr)


def actual_trend(d_s, d_t) -> np.ndarray:
    """Realized trend codes into TREND_CLASSES: exact comparison of d(T) against d(S)."""
    d_s, d_t = np.asarray(d_s), np.asarray(d_t)
    return np.select([d_t > d_s, d_t < d_s], [0, 1], 2)


def actual_jump(d_s, d_t) -> np.ndarray:
    """Realized jumps: the delay moved by at least two minutes."""
    return np.abs(np.asarray(d_t) - np.asarray(d_s)) >= 2


def _tallies(predicted, actual, n: int) -> list[dict[str, int]]:
    """One-vs-rest tallies of each of n class codes, read off the n x n
    confusion matrix of predicted (rows) against actual (columns) codes."""
    predicted, actual = np.asarray(predicted, dtype=np.intp), np.asarray(actual, dtype=np.intp)
    if len(predicted) != len(actual):
        raise ValueError("prediction/actual length mismatch")
    conf = np.bincount(n * predicted + actual, minlength=n * n).reshape(n, n)
    tp = np.diag(conf)
    fp, fn = conf.sum(axis=1) - tp, conf.sum(axis=0) - tp
    tn = len(actual) - tp - fp - fn
    columns = (x.tolist() for x in (tp, fp, fn, tn))
    return [dict(zip(("tp", "fp", "fn", "tn"), t)) for t in zip(*columns)]


def trend_score(predicted, actual) -> tuple[float, dict[str, float], dict[str, dict[str, int]]]:
    """F_TR = mean of the one-vs-rest F1 scores for the three trend classes,
    from arrays of codes into TREND_CLASSES.

    Returns (F_TR, per-class F1, per-class confusion tallies).
    """
    tallies = dict(zip(TREND_CLASSES, _tallies(predicted, actual, len(TREND_CLASSES))))
    per_f1 = {cls: f1_class(t["tp"], t["fp"], t["fn"]) for cls, t in tallies.items()}
    return sum(per_f1.values()) / 3.0, per_f1, tallies


def jump_score(predicted, actual) -> tuple[float, dict[str, int]]:
    """Binary F1 for the jump classification: the True class of the 2 x 2 case."""
    t = _tallies(predicted, actual, 2)[1]
    return f1_class(t["tp"], t["fp"], t["fn"]), t


def rwmse(predicted_minutes, actual_delays, config: RunConfig) -> float:
    """Root weighted error over the batch.

    Weight mass 0.2 is spread over small actual delays (|d| <= 1) and 0.8 over
    the rest; a batch missing one class renormalizes the surviving class's
    mass to 1. `config.rwmse_form` "printed" puts the absolute error under the
    root, "squared" the squared error, as a product. The weighted errors are
    added in batch order, so the sum does not depend on numpy's summation order.
    """
    minutes, delays = np.asarray(predicted_minutes, dtype=float), np.asarray(actual_delays)
    if len(minutes) != len(delays):
        raise ValueError("prediction/actual length mismatch")
    if not len(delays):
        raise ValueError("empty batch")
    is_small = np.abs(delays) <= 1
    small = int(is_small.sum())
    large = len(delays) - small
    w1 = (0.2 if large else 1.0) / small if small else 0.0
    w2 = (0.8 if small else 1.0) / large if large else 0.0
    diff = minutes - delays
    err = np.abs(diff) if config.rwmse_form == "printed" else diff * diff
    return math.sqrt(np.add.accumulate(np.where(is_small, w1, w2) * err)[-1])


def total_score(f_jp: float, f_tr: float, rwmse_value: float) -> float:
    """Composite ranking score 10*F_JP + 5*F_TR - RWMSE."""
    return 10.0 * f_jp + 5.0 * f_tr - rwmse_value


def naive_predictor(space: StateSpace) -> np.ndarray:
    """Persistence baseline: the chain with no step, so v(T) = v(S)."""
    return np.empty((0, space.cardinality, space.cardinality))


def marginal_predictor(counts_at_target: CountTensor, space: StateSpace) -> np.ndarray:
    """Marginal baseline: one step per station of the counts, the target
    station's, whose every row is the delay distribution observed there,
    whatever the current delay."""
    n1 = counts_at_target.n1
    total = n1.sum(axis=1, keepdims=True)
    if (total == 0).any():
        raise ValueError("no observations at the target station")
    return np.repeat((n1 / total)[:, None, :], space.cardinality, axis=1)


@dataclass(frozen=True)
class ScoreReport:
    """Full score card over an evaluation batch of size eval_count."""

    eval_count: int
    trend_tallies: dict[str, dict[str, int]]
    jump_tallies: dict[str, int]
    f_in: float
    f_de: float
    f_eq: float
    f_tr: float
    f_jp: float
    rwmse: float
    score: float
    rwmse_form: str

    def to_dict(self) -> dict:
        return {
            "eval_count": self.eval_count,
            "trend_tallies": self.trend_tallies,
            "jump_tallies": self.jump_tallies,
            "F_IN": self.f_in,
            "F_DE": self.f_de,
            "F_EQ": self.f_eq,
            "F_TR": self.f_tr,
            "F_JP": self.f_jp,
            "RWMSE": self.rwmse,
            "total_score": self.score,
            "rwmse_form": self.rwmse_form,
        }


def score_batch(d_s, d_t, trend, jump, minutes, config: RunConfig) -> ScoreReport:
    """Score a batch of predictions against the realized delays at the target
    station, from column arrays: the current and realized delays, the
    predicted trend codes into TREND_CLASSES, jump flags and minutes. The
    RWMSE takes its form from `config.rwmse_form`."""
    d_s, d_t = np.asarray(d_s), np.asarray(d_t)
    if len(d_s) != len(d_t):
        raise ValueError("prediction/actual length mismatch")
    if not len(d_s):
        raise ValueError("empty batch")
    f_tr, per_f1, trend_tallies = trend_score(trend, actual_trend(d_s, d_t))
    f_jp, jump_tallies = jump_score(jump, actual_jump(d_s, d_t))
    err = rwmse(minutes, d_t, config)
    return ScoreReport(
        eval_count=len(d_s),
        trend_tallies=trend_tallies,
        jump_tallies=jump_tallies,
        f_in=per_f1["increase"],
        f_de=per_f1["decrease"],
        f_eq=per_f1["equal"],
        f_tr=f_tr,
        f_jp=f_jp,
        rwmse=err,
        score=total_score(f_jp, f_tr, err),
        rwmse_form=config.rwmse_form,
    )
