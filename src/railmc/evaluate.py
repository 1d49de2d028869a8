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
from typing import Sequence

import numpy as np

from .core import CountTensor, StateSpace

__all__ = [
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

TREND_CLASSES = ("increase", "decrease", "equal")


def f1_class(tp: int, fp: int, fn: int) -> float:
    """Harmonic F1 from one-vs-rest tallies; degenerate tallies score 0."""
    if tp < 0 or fp < 0 or fn < 0:
        raise ValueError("negative tallies")
    if tp == 0:
        return 0.0
    ppv = tp / (tp + fp)
    tpr = tp / (tp + fn)
    return 2.0 * ppv * tpr / (ppv + tpr)


def actual_trend(d_s: int, d_t: int) -> str:
    """Realized trend class: exact comparison of d(T) against d(S)."""
    if d_t > d_s:
        return "increase"
    if d_t < d_s:
        return "decrease"
    return "equal"


def actual_jump(d_s: int, d_t: int) -> bool:
    """Realized jump: the delay moved by at least two minutes."""
    return abs(d_t - d_s) >= 2


def _binary_tallies(predicted: Sequence[bool], actual: Sequence[bool]) -> dict[str, int]:
    tp = sum(1 for p, a in zip(predicted, actual) if p and a)
    fp = sum(1 for p, a in zip(predicted, actual) if p and not a)
    fn = sum(1 for p, a in zip(predicted, actual) if not p and a)
    tn = sum(1 for p, a in zip(predicted, actual) if not p and not a)
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn}


def trend_score(
    predicted: Sequence[str], actual: Sequence[str]
) -> tuple[float, dict[str, float], dict[str, dict[str, int]]]:
    """F_TR = mean of the one-vs-rest F1 scores for the three trend classes.

    Returns (F_TR, per-class F1, per-class confusion tallies).
    """
    if len(predicted) != len(actual):
        raise ValueError("prediction/actual length mismatch")
    per_f1: dict[str, float] = {}
    tallies: dict[str, dict[str, int]] = {}
    for cls in TREND_CLASSES:
        t = _binary_tallies([p == cls for p in predicted], [a == cls for a in actual])
        tallies[cls] = t
        per_f1[cls] = f1_class(t["tp"], t["fp"], t["fn"])
    f_tr = sum(per_f1.values()) / 3.0
    return f_tr, per_f1, tallies


def jump_score(
    predicted: Sequence[bool], actual: Sequence[bool]
) -> tuple[float, dict[str, int]]:
    """Binary F1 for the jump classification."""
    if len(predicted) != len(actual):
        raise ValueError("prediction/actual length mismatch")
    t = _binary_tallies(predicted, actual)
    return f1_class(t["tp"], t["fp"], t["fn"]), t


def rwmse(
    predicted_minutes: Sequence[float],
    actual_delays: Sequence[int],
    form: str = "printed",
) -> float:
    """Root weighted error over the batch.

    Weight mass 0.2 is spread over small actual delays (|d| <= 1) and 0.8 over
    the rest; a batch missing one class renormalizes the surviving class's
    mass to 1. `form="printed"` puts the absolute error under the root,
    `form="squared"` the squared error.
    """
    if form not in ("printed", "squared"):
        raise ValueError(f"unknown rwmse form {form!r}")
    if len(predicted_minutes) != len(actual_delays):
        raise ValueError("prediction/actual length mismatch")
    if not actual_delays:
        raise ValueError("empty batch")
    small = sum(1 for d in actual_delays if abs(d) <= 1)
    large = len(actual_delays) - small
    if small and large:
        w1, w2 = 0.2 / small, 0.8 / large
    elif small:
        w1, w2 = 1.0 / small, 0.0
    else:
        w1, w2 = 0.0, 1.0 / large
    acc = 0.0
    for d_hat, d in zip(predicted_minutes, actual_delays):
        err = abs(d_hat - d) if form == "printed" else (d_hat - d) ** 2
        acc += (w1 if abs(d) <= 1 else w2) * err
    return math.sqrt(acc)


def total_score(f_jp: float, f_tr: float, rwmse_value: float) -> float:
    """Composite ranking score 10*F_JP + 5*F_TR - RWMSE."""
    return 10.0 * f_jp + 5.0 * f_tr - rwmse_value


def naive_predictor(space: StateSpace) -> np.ndarray:
    """Persistence baseline: the chain with no step, so v(T) = v(S)."""
    return np.empty((0, space.cardinality, space.cardinality))


def marginal_predictor(counts_at_target: CountTensor, space: StateSpace) -> np.ndarray:
    """Marginal baseline: one step whose every row is the delay distribution
    observed at the target station, whatever the current delay."""
    n1 = counts_at_target.n1
    total = n1.sum()
    if total == 0:
        raise ValueError("no observations at the target station")
    return np.tile(n1 / total, (space.cardinality, 1))[None]


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
    rwmse_form: str = "printed"

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


def score_batch(
    predictions: Sequence,
    actual_delays: Sequence[int],
    rwmse_form: str = "printed",
) -> ScoreReport:
    """Score predictions against the realized delays at the target station.

    Each prediction is a `forecast.Prediction`; only its current_delay,
    trend, jump and minutes are read.
    """
    if len(predictions) != len(actual_delays):
        raise ValueError("prediction/actual length mismatch")
    if not predictions:
        raise ValueError("empty batch")
    pred_trend = [p.trend for p in predictions]
    act_trend = [actual_trend(p.current_delay, d) for p, d in zip(predictions, actual_delays)]
    pred_jump = [p.jump for p in predictions]
    act_jump = [actual_jump(p.current_delay, d) for p, d in zip(predictions, actual_delays)]
    f_tr, per_f1, trend_tallies = trend_score(pred_trend, act_trend)
    f_jp, jump_tallies = jump_score(pred_jump, act_jump)
    err = rwmse([p.minutes for p in predictions], list(actual_delays), form=rwmse_form)
    return ScoreReport(
        eval_count=len(predictions),
        trend_tallies=trend_tallies,
        jump_tallies=jump_tallies,
        f_in=per_f1["increase"],
        f_de=per_f1["decrease"],
        f_eq=per_f1["equal"],
        f_tr=f_tr,
        f_jp=f_jp,
        rwmse=err,
        score=total_score(f_jp, f_tr, err),
        rwmse_form=rwmse_form,
    )
