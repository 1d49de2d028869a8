"""Chi-square test of the Markov order of delay evolution at one station.

Implements likelihood-ratio and chi-square statistics for the zero-order and
first-order null hypotheses on dense count arrays. Degrees of freedom are
computed on the truncated matrices (all-zero rows and columns removed), so the
statistics and df are invariant under relabeling of unobserved states.

The accept/reject ladder tests H0(0) first and only proceeds to H0(1) when the
zero-order null is rejected. It runs on both statistics, and a report records
both ladders; its `verdict_h0_0`/`verdict_h0_1` read the Q ladder.

The chi-square CDF is the regularized incomplete gamma function, computed
here with `math` alone: a series below x = a + 1 and a continued fraction
above, each giving its small tail directly. The ladder compares a statistic
with an estimate of the quantile 2·gammaincinv(df/2, 1 - alpha), found by
Newton steps on that small tail and memoized per (level, df). The estimate
decides unless the statistic lies within TIE_BAND of it; only then is the
scipy-backed `chi_square_quantile` consulted, so verdicts equal scipy's while
a normal run never loads scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .core import CountTensor, FrequencyEstimates, estimate_frequencies

__all__ = [
    "Verdict",
    "OrderTestReport",
    "chi_square_cdf",
    "chi_square_quantile",
    "zero_order_statistics",
    "first_order_statistics",
    "markov_property_test",
    "aggregate_reports",
]

Verdict = Literal["not_rejected", "rejected", "untestable"]


# a statistic this close to its quantile, relative to the quantile, is
# decided by scipy; the estimate agrees with scipy's quantile to about 1e-14
# relative for df up to 250,000
TIE_BAND = 1e-9
_EPS = 2.0**-52
_TINY = 1e-300


def chi_square_cdf(x: float, df: int) -> float:
    """P(X <= x) for X ~ chi-square with df degrees of freedom.

    Computed as the regularized lower incomplete gamma P(df/2, x/2).
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if not x >= 0:  # NaN fails too
        raise ValueError(f"x must be >= 0, got {x}")
    return _gamma_pq(df / 2.0, x / 2.0)[0]


def _log_gamma_density(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)): x times the gamma(a) density at x.

    For a >= 10 the terms of a log x - x - lgamma(a) are far larger than
    their sum, so it is rewritten around x = a with Stirling's series for
    lgamma, whose first omitted term is below 2e-14 there.
    """
    if a < 10.0:
        return a * math.log(x) - x - math.lgamma(a)
    t = (x - a) / a
    # 1 + t loses x / a's digits once x is well below a
    log_ratio = math.log(x / a) if x < 0.5 * a else math.log1p(t)
    r = 1.0 / (a * a)
    stirling = (1/12 - r * (1/360 - r * (1/1260 - r * (1/1680 - r / 1188)))) / a
    return a * (log_ratio - t) + 0.5 * math.log(a / (2.0 * math.pi)) - stirling


def _gamma_pq(a: float, x: float) -> tuple[float, float]:
    """The regularized incomplete gammas P(a, x) and Q(a, x) = 1 - P(a, x).

    Below x = a + 1 the lower tail P comes from its power series, above it
    the upper tail Q from its continued fraction (modified Lentz); the other
    tail is one minus it. Both need O(sqrt(a)) terms at worst; a continued
    fraction that has not converged by then raises ArithmeticError.
    """
    if x <= 0.0:
        return 0.0, 1.0
    if x == math.inf:
        return 1.0, 0.0
    scale = math.exp(_log_gamma_density(a, x))
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while abs(term) > abs(total) * _EPS:
            n += 1.0
            term *= x / n
            total += term
        p = scale * total
        return p, 1.0 - p
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, 100 + int(10.0 * math.sqrt(a))):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = d if abs(d) > _TINY else _TINY
        c = b + an / c
        c = c if abs(c) > _TINY else _TINY
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) <= _EPS:
            q = scale * h
            return 1.0 - q, q
    raise ArithmeticError(f"continued fraction for Q({a}, {x}) did not converge")


@functools.lru_cache(maxsize=None)
def _quantile_estimate(p: float, df: int) -> float:
    """chi_square_quantile(p, df) without scipy, or NaN if Newton fails.

    Solves on the small tail: P(a, y) = p for p <= 0.5, else
    Q(a, y) = 1.0 - p, which is exact for p in [0.5, 1). Newton steps on the
    tail's logarithm in u = log y, where it is concave, converge from a
    Wilson-Hilferty start (or the lower bound of P(a, y) <= y^a / Gamma(a + 1)
    when that is larger) in a handful of steps.
    """
    from statistics import NormalDist  # imported here so that only `test` pays its 2 ms

    a = df / 2.0
    upper = p > 0.5
    target = 1.0 - p if upper else p
    h = 2.0 / (9.0 * df)
    y = a * (1.0 - h + NormalDist().inv_cdf(p) * math.sqrt(h)) ** 3
    if not upper:
        y = max(y, math.exp((math.log(p) + math.lgamma(a + 1.0)) / a))
    log_target = math.log(target)
    try:
        for _ in range(100):
            tail = _gamma_pq(a, y)[upper]
            # d log P / du = y f(y) / P, d log Q / du = -y f(y) / Q
            slope = math.exp(_log_gamma_density(a, y)) / tail
            step = (math.log(tail) - log_target) / (-slope if upper else slope)
            y *= math.exp(-step)
            if abs(step) <= 1e-12:
                return 2.0 * y
    except (ArithmeticError, ValueError):  # y left the floats, or a tail underflowed
        pass
    return math.nan


@functools.lru_cache(maxsize=None)
def chi_square_quantile(p: float, df: int) -> float:
    """Inverse of chi_square_cdf in its first argument, from scipy.

    The ladder consults it only for a statistic within TIE_BAND of the
    estimate. Memoized per (level, df).
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    from scipy import special

    return float(2.0 * special.gammaincinv(df / 2.0, p))


def _lr_q(
    n: np.ndarray, p: np.ndarray, p_null: np.ndarray, tot: np.ndarray
) -> tuple[float, float]:
    """LR and Q summed over the observed cells of the count rows n.

    p holds the alternative's conditional frequencies and p_null the null's
    on the same cells, and tot the count of each row's conditioning context;
    p_null and tot broadcast to n.
    """
    obs = n > 0
    p_null = np.broadcast_to(p_null, n.shape)[obs]
    p = p[obs]
    lr = (2.0 * n[obs] * np.log(p / p_null)).sum()
    q = (np.broadcast_to(tot, n.shape)[obs] * (p - p_null) ** 2 / p_null).sum()
    return float(lr), float(q)


def zero_order_statistics(
    freq: FrequencyEstimates, counts: CountTensor
) -> tuple[float, float, int]:
    """Zero-order LR and Q statistics with truncated degrees of freedom.

    LR = 2 sum_{i,j: p_ij != 0} n_ij ln(p_ij / p_j)
    Q  = sum_{i,j: p_ij != 0} n_i(t-1) (p_ij - p_j)^2 / p_j
    df = (|A(t-1)| - 1)(|A(t)| - 1) on the zero-row/column-truncated matrix.

    Only observed cells enter the sums (the 0*ln 0 convention), so deleting
    all-zero rows and columns beforehand changes nothing.
    """
    if counts.station_index < 2:
        raise ValueError("zero-order test needs station index t >= 2")
    n2 = counts.n2
    row_tot = n2.sum(axis=1)
    rows = row_tot > 0
    if not rows.any():
        raise ValueError("no defined transition rows: untestable")
    n = n2[rows]
    lr, q = _lr_q(n, freq.p2[rows], freq.p1, row_tot[rows, None])
    df = (np.count_nonzero(rows) - 1) * (np.count_nonzero(n.any(axis=0)) - 1)
    return lr, q, int(df)


def first_order_statistics(
    freq: FrequencyEstimates, counts: CountTensor
) -> tuple[float, float, int]:
    """First-order LR and Q statistics with truncated degrees of freedom.

    LR = 2 sum_{h,i,j: p_hij != 0} n_hij ln(p_hij / p_ij)
    Q  = sum_{h,i,j: p_hij != 0} n_hi(t-1) (p_hij - p_ij)^2 / p_ij
    df = (|A(t-2)| - 1) |A(t-1)| (|A(t)| - 1)

    n_{h,i}(t-1) is aggregated as sum_j n_{h,i,j}(t), the only reading
    consistent with the statistic.
    """
    if counts.station_index < 3:
        raise ValueError("first-order test needs station index t >= 3")
    n3 = counts.n3
    pair_tot = n3.sum(axis=2)
    pairs = pair_tot > 0
    if not pairs.any():
        raise ValueError("no defined second-order cells: untestable")
    n = n3[pairs]
    _h, i = np.nonzero(pairs)
    lr, q = _lr_q(n, freq.p3[pairs], freq.p2[i], pair_tot[pairs, None])
    sup_h = np.count_nonzero(pairs.any(axis=1))
    sup_i = np.count_nonzero(pairs.any(axis=0))
    sup_j = np.count_nonzero(n.any(axis=0))
    return lr, q, int((sup_h - 1) * sup_i * (sup_j - 1))


@dataclass(frozen=True)
class OrderTestReport:
    """Outcome of the order-test ladder at one station."""

    station_index: int
    alpha1: float
    alpha2: float
    lr0: float | None = None
    q0: float | None = None
    df0: int | None = None
    lr1: float | None = None
    q1: float | None = None
    df1: int | None = None
    # verdicts keyed by statistic name, each a (H0(0), H0(1)) pair; the
    # H0(1) slot is None when the ladder stopped at order zero
    verdicts: dict[str, tuple[Verdict, Verdict | None]] = field(default_factory=dict)

    @property
    def verdict_h0_0(self) -> Verdict:
        return self.verdicts["Q"][0]

    @property
    def verdict_h0_1(self) -> Verdict | None:
        return self.verdicts["Q"][1]

    def to_dict(self) -> dict:
        return {
            "t": self.station_index,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "lr0": self.lr0,
            "q0": self.q0,
            "df0": self.df0,
            "lr1": self.lr1,
            "q1": self.q1,
            "df1": self.df1,
            "verdicts": {k: list(v) for k, v in self.verdicts.items()},
        }


def _ladder(
    stat0: float,
    df0: int,
    stat1: float | None,
    df1: int | None,
    alpha1: float,
    alpha2: float,
) -> tuple[Verdict, Verdict | None]:
    if df0 < 1:
        return "untestable", None
    if _below_quantile(stat0, 1.0 - alpha1, df0):
        return "not_rejected", None
    if stat1 is None or df1 is None or df1 < 1:
        return "rejected", "untestable"
    if _below_quantile(stat1, 1.0 - alpha2, df1):
        return "rejected", "not_rejected"
    return "rejected", "rejected"


def _below_quantile(stat: float, p: float, df: int) -> bool:
    """stat < chi_square_quantile(p, df), decided from the estimate unless
    stat lies within TIE_BAND of it or the estimate failed (NaN)."""
    q = _quantile_estimate(p, df)
    if abs(stat - q) > TIE_BAND * q:
        return stat < q
    return stat < chi_square_quantile(p, df)


def markov_property_test(
    counts: CountTensor,
    alpha1: float = 0.05,
    alpha2: float = 0.05,
) -> OrderTestReport:
    """Run the order-test ladder on the counts for one station.

    Tests H0(0) at level alpha1; on rejection tests H0(1) at level alpha2.
    Ladders for both LR and Q are recorded; the report's verdict_h0_0 and
    verdict_h0_1 read the Q ladder.
    """
    # a level below about 1.1e-16 would test at 1 - level == 1.0
    if not (0.0 < 1.0 - alpha1 < 1.0 and 0.0 < 1.0 - alpha2 < 1.0):
        raise ValueError("significance levels must lie in (0, 1), with 1 - level < 1")
    if not counts.n2.any():
        return OrderTestReport(
            station_index=counts.station_index,
            alpha1=alpha1,
            alpha2=alpha2,
            verdicts={"LR": ("untestable", None), "Q": ("untestable", None)},
        )
    freq = estimate_frequencies(counts)
    lr0, q0, df0 = zero_order_statistics(freq, counts)
    lr1 = q1 = None
    df1 = None
    if counts.station_index >= 3 and counts.n3.any():
        lr1, q1, df1 = first_order_statistics(freq, counts)
    verdicts = {
        "LR": _ladder(lr0, df0, lr1, df1, alpha1, alpha2),
        "Q": _ladder(q0, df0, q1, df1, alpha1, alpha2),
    }
    return OrderTestReport(
        station_index=counts.station_index,
        alpha1=alpha1,
        alpha2=alpha2,
        lr0=lr0,
        q0=q0,
        df0=df0,
        lr1=lr1,
        q1=q1,
        df1=df1,
        verdicts=verdicts,
    )


def aggregate_reports(reports: list[OrderTestReport]) -> dict:
    """Aggregate per-station reports into a summary table.

    One row per statistic: total stations tested, stations rejecting H0(0),
    stations rejecting H0(1). Significance levels are recorded alongside.
    """
    agg: dict = {"total_stations": len(reports), "statistics": {}}
    if reports:
        agg["alpha1"] = reports[0].alpha1
        agg["alpha2"] = reports[0].alpha2
    for name in ("LR", "Q"):
        r0 = sum(1 for r in reports if r.verdicts.get(name, (None, None))[0] == "rejected")
        r1 = sum(1 for r in reports if r.verdicts.get(name, (None, None))[1] == "rejected")
        agg["statistics"][name] = {"reject_h0_0": r0, "reject_h0_1": r1}
    return agg
