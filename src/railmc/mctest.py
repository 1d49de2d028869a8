"""Chi-square test of the Markov order of delay evolution at each station.

Implements likelihood-ratio and chi-square statistics for the zero-order and
first-order null hypotheses, for every station of a count tensor at once.
Only observed cells enter the sums: the n_ij(t) cells of the dense pair
counts and the observed n_hij(t) cells, in row-major order per station, each
station's terms summed by np.sum over its own run. Degrees of freedom are
computed on the truncated matrices (all-zero rows and columns removed), the
supports read off the same cells, so the statistics and df are invariant
under relabeling of unobserved states.

The accept/reject ladder tests H0(0) first and only proceeds to H0(1) when the
zero-order null is rejected. It runs on both statistics. The test returns one
plain dict per station, the row `order.json` holds without its train: `t`,
`alpha1`, `alpha2`, `lr0`, `q0`, `df0`, `lr1`, `q1`, `df1` and `verdicts`,
which maps "LR" and "Q" to its [H0(0), H0(1)] list, so a row equals its own
JSON round trip.

The chi-square CDF is the regularized incomplete gamma function, computed
here with `math` alone: a series below x = a + 1 and a continued fraction
above, each giving its small tail directly. The ladder compares a statistic
with the quantile 2·gammaincinv(df/2, 1 - alpha), found by Newton steps on
that small tail and memoized per (level, df). The quantile decides unless the
statistic lies within TIE_BAND of it; then the statistic's own small tail
does, since stat < q holds exactly when P(df/2, stat/2) < 1 - alpha.
"""

from __future__ import annotations

import functools
import math
from typing import Literal

import numpy as np

from .core import CountTensor, FrequencyEstimates, context_totals, estimate_frequencies

__all__ = [
    "Verdict",
    "chi_square_cdf",
    "chi_square_quantile",
    "zero_order_statistics",
    "first_order_statistics",
    "markov_property_test",
    "aggregate_reports",
]

Verdict = Literal["not_rejected", "rejected", "untestable"]


# a statistic this close to its quantile, relative to the quantile, is
# decided by its own tail; the quantile agrees with scipy's to about 1e-14
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
def chi_square_quantile(p: float, df: int) -> float:
    """Inverse of chi_square_cdf in its first argument, or NaN if Newton fails.

    Solves on the small tail: P(a, y) = p for p <= 0.5, else
    Q(a, y) = 1.0 - p, which is exact for p in [0.5, 1). Newton steps on the
    tail's logarithm in u = log y, where it is concave, converge from a
    Wilson-Hilferty start (or the lower bound of P(a, y) <= y^a / Gamma(a + 1)
    when that is larger) in a handful of steps. Memoized per (level, df).
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
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


Statistics = tuple[float, float, int]


def _per_station(
    station: np.ndarray, df: np.ndarray, n: np.ndarray, p: np.ndarray,
    p_null: np.ndarray, tot: np.ndarray,
) -> list[Statistics | None]:
    """LR and Q summed per station over its observed cells, with its df.

    The cells come sorted by station: `station` holds each cell's station
    position, n its count, p the alternative's conditional frequency, p_null
    the null's and tot the count of its conditioning context. Each station's
    terms are summed over its own contiguous run by np.add.reduce (np.sum's
    reduction), in the order a one-station array adds them: a sum over all
    stations at once (np.bincount weights, np.add.reduceat) adds in another
    order and changes the last bits. A station with no cell gets None.
    """
    lr = 2.0 * n * np.log(p / p_null)
    q = tot * (p - p_null) ** 2 / p_null
    bounds = np.searchsorted(station, np.arange(len(df) + 1)).tolist()
    return [
        (float(np.add.reduce(lr[a:b])), float(np.add.reduce(q[a:b])), d) if a < b else None
        for a, b, d in zip(bounds, bounds[1:], df.tolist())
    ]


def _support(station: np.ndarray, state: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Per station, how many distinct states occur among its cells."""
    seen = np.zeros(shape, dtype=bool)
    seen[station, state] = True
    return seen.sum(axis=1)


def zero_order_statistics(
    freq: FrequencyEstimates, counts: CountTensor
) -> list[Statistics | None]:
    """Zero-order LR and Q statistics with truncated degrees of freedom, per
    station of counts; None for a station with no transition (t < 2 or no
    covering series).

    LR = 2 sum_{i,j: p_ij != 0} n_ij ln(p_ij / p_j)
    Q  = sum_{i,j: p_ij != 0} n_i(t-1) (p_ij - p_j)^2 / p_j
    df = (|A(t-1)| - 1)(|A(t)| - 1) on the zero-row/column-truncated matrix.

    Only observed cells enter the sums (the 0*ln 0 convention), so deleting
    all-zero rows and columns beforehand changes nothing.
    """
    n2 = counts.n2
    cells = np.flatnonzero(n2)
    s, i, j = np.unravel_index(cells, n2.shape)
    row_tot = n2.sum(axis=2)
    df = (_support(s, i, row_tot.shape) - 1) * (_support(s, j, row_tot.shape) - 1)
    return _per_station(s, df, n2.reshape(-1)[cells], freq.p2.reshape(-1)[cells],
                        freq.p1[s, j], row_tot[s, i])


def first_order_statistics(
    freq: FrequencyEstimates, counts: CountTensor
) -> list[Statistics | None]:
    """First-order LR and Q statistics with truncated degrees of freedom, per
    station of counts; None for a station with no second-order cell (t < 3
    or no covering series).

    LR = 2 sum_{h,i,j: p_hij != 0} n_hij ln(p_hij / p_ij)
    Q  = sum_{h,i,j: p_hij != 0} n_hi(t-1) (p_hij - p_ij)^2 / p_ij
    df = (|A(t-2)| - 1) |A(t-1)| (|A(t)| - 1)

    n_{h,i}(t-1) is aggregated as sum_j n_{h,i,j}(t), the only reading
    consistent with the statistic.
    """
    s, h, i, j = counts.cells()
    shape = counts.n1.shape
    df = (_support(s, h, shape) - 1) * _support(s, i, shape) * (_support(s, j, shape) - 1)
    return _per_station(s, df, counts.n3, freq.p3, freq.p2[s, i, j], context_totals(counts))


def _ladder(
    stat0: float,
    df0: int,
    stat1: float | None,
    df1: int | None,
    alpha1: float,
    alpha2: float,
) -> list[Verdict | None]:
    """The [H0(0), H0(1)] verdicts of one statistic; H0(1) is None when the
    ladder stops at order zero. A list, as JSON reads it back."""
    if df0 < 1:
        return ["untestable", None]
    if _below_quantile(stat0, 1.0 - alpha1, df0):
        return ["not_rejected", None]
    if stat1 is None or df1 is None or df1 < 1:
        return ["rejected", "untestable"]
    if _below_quantile(stat1, 1.0 - alpha2, df1):
        return ["rejected", "not_rejected"]
    return ["rejected", "rejected"]


def _below_quantile(stat: float, p: float, df: int) -> bool:
    """stat < chi_square_quantile(p, df), decided from the memoized quantile
    unless stat lies within TIE_BAND of it or Newton failed (NaN); then from
    stat's small tail, exactly."""
    q = chi_square_quantile(p, df)
    if abs(stat - q) > TIE_BAND * q:
        return stat < q
    lower, upper = _gamma_pq(df / 2.0, stat / 2.0)
    return upper > 1.0 - p if p > 0.5 else lower < p


def markov_property_test(
    counts: CountTensor,
    alpha1: float = 0.05,
    alpha2: float = 0.05,
) -> list[dict]:
    """Run the order-test ladder on the counts, one row per station.

    Tests H0(0) at level alpha1; on rejection tests H0(1) at level alpha2.
    A row holds the station `t`, both levels, lr0, q0, df0, lr1, q1, df1
    and `verdicts`, the LR and Q ladders. A station with no transition is
    untestable and its statistics are None.
    """
    # a level below about 1.1e-16 would test at 1 - level == 1.0
    if not (0.0 < 1.0 - alpha1 < 1.0 and 0.0 < 1.0 - alpha2 < 1.0):
        raise ValueError("significance levels must lie in (0, 1), with 1 - level < 1")
    freq = estimate_frequencies(counts)
    rows = []
    for t, zero, first in zip(counts.stations.tolist(), zero_order_statistics(freq, counts),
                              first_order_statistics(freq, counts)):
        # a station with no transition has no second-order cell either
        lr0, q0, df0 = zero or (None, None, None)
        lr1, q1, df1 = first or (None, None, None)
        if zero is None:
            verdicts = {"LR": ["untestable", None], "Q": ["untestable", None]}
        else:
            verdicts = {
                "LR": _ladder(lr0, df0, lr1, df1, alpha1, alpha2),
                "Q": _ladder(q0, df0, q1, df1, alpha1, alpha2),
            }
        rows.append({"t": t, "alpha1": alpha1, "alpha2": alpha2, "lr0": lr0, "q0": q0,
                     "df0": df0, "lr1": lr1, "q1": q1, "df1": df1, "verdicts": verdicts})
    return rows


def aggregate_reports(rows: list[dict]) -> dict:
    """Aggregate per-station rows into a summary table.

    One row per statistic: total stations tested, stations rejecting H0(0),
    stations rejecting H0(1). Significance levels are recorded alongside.
    """
    agg: dict = {"total_stations": len(rows), "statistics": {}}
    if rows:
        agg["alpha1"] = rows[0]["alpha1"]
        agg["alpha2"] = rows[0]["alpha2"]
    for name in ("LR", "Q"):
        r0 = sum(1 for r in rows if r["verdicts"][name][0] == "rejected")
        r1 = sum(1 for r in rows if r["verdicts"][name][1] == "rejected")
        agg["statistics"][name] = {"reject_h0_0": r0, "reject_h0_1": r1}
    return agg
