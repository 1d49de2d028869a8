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
zero-order null is rejected. It runs on both statistics, deciding the verdicts
of every station as arrays. The stations may be (train, station) entries of
many trains, as `build_count_tensor` counts them. The test returns one
plain dict per station, the row `order.json` holds without its train: `t`,
`alpha1`, `alpha2`, `lr0`, `q0`, `df0`, `lr1`, `q1`, `df1` and `verdicts`,
which maps "LR" and "Q" to its [H0(0), H0(1)] list, so a row equals its own
JSON round trip.

The chi-square CDF is the regularized incomplete gamma function, computed
here with `math` alone: a series below x = a + 1 and a continued fraction
above, each giving its small tail directly. The ladder compares a statistic
with the quantile 2·gammaincinv(df/2, 1 - alpha), found by Newton steps on
that small tail and memoized per (level, df), where two bounds on the
quantile leave it open (`_below_quantile`). The quantile decides unless the
statistic lies within TIE_BAND of it; then the statistic's own small tail
does, since stat < q holds exactly when P(df/2, stat/2) < 1 - alpha.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import RunConfig
from .core import CountTensor, FrequencyEstimates, context_totals, estimate_frequencies

__all__ = [
    "chi_square_cdf",
    "chi_square_quantile",
    "zero_order_statistics",
    "first_order_statistics",
    "markov_property_test",
    "aggregate_reports",
]

_VERDICTS = ("untestable", "rejected", "not_rejected", None)


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


def _normal_quantile(p: float) -> float:
    """The standard normal quantile at p in (0, 1), within about 1e-6: the
    rational approximation 26.2.23 of Abramowitz and Stegun (within 4.5e-4)
    and one Newton step on math.erfc, on the smaller tail."""
    r = min(p, 1.0 - p)
    t = math.sqrt(-2.0 * math.log(r))
    z = (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))) - t
    z -= (0.5 * math.erfc(-z / math.sqrt(2.0)) - r) * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)
    return -z if p > 0.5 else z


@functools.lru_cache(maxsize=None)
def chi_square_quantile(p: float, df: int) -> float:
    """Inverse of chi_square_cdf in its first argument, or NaN if Newton fails.

    Solves on the small tail: P(a, y) = p for p <= 0.5, else
    Q(a, y) = 1.0 - p, which is exact for p in [0.5, 1). Newton steps on the
    tail's logarithm in u = log y, where it is concave, converge from a
    Wilson-Hilferty start on a closed-form normal quantile (or the lower
    bound of P(a, y) <= y^a / Gamma(a + 1) when that is larger) in a handful
    of steps. Memoized per (level, df).
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    a = df / 2.0
    upper = p > 0.5
    target = 1.0 - p if upper else p
    h = 2.0 / (9.0 * df)
    y = a * (1.0 - h + _normal_quantile(p) * math.sqrt(h)) ** 3
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
    terms are summed by np.add.reduce (np.sum's reduction) in the order a
    one-station array adds them: the stations whose runs have one length are
    gathered into the rows of one array and reduced along them, which adds
    each row as that row alone. A sum over all stations at once (np.bincount
    weights, np.add.reduceat) adds in another order and changes the last
    bits. A station with no cell gets None.
    """
    lr = 2.0 * n * np.log(p / p_null)
    q = tot * (p - p_null) ** 2 / p_null
    bounds = np.searchsorted(station, np.arange(len(df) + 1))
    start, size = bounds[:-1], np.diff(bounds)
    sums = np.zeros((2, len(df)))
    for length in (np.flatnonzero(np.bincount(size)[1:]) + 1).tolist():  # each run length > 0
        which = np.flatnonzero(size == length)
        cells = start[which, None] + np.arange(length)
        sums[0, which] = np.add.reduce(lr[cells], axis=1)
        sums[1, which] = np.add.reduce(q[cells], axis=1)
    return [(a, b, d) if m else None
            for a, b, d, m in zip(*sums.tolist(), df.tolist(), (size > 0).tolist())]


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
    cells = np.flatnonzero(n2 > 0)  # a bool array's nonzero scan is the faster one
    s, i, j = np.unravel_index(cells, n2.shape)
    n = n2.reshape(-1)[cells]
    row = cells // n2.shape[2]  # each cell's (s, i)
    # n_i(t-1) of each cell's row, summed over its cells (float64 sums of counts are exact)
    row_tot = np.bincount(row, weights=n)[row]
    shape = counts.n1.shape
    df = (_support(s, i, shape) - 1) * (_support(s, j, shape) - 1)
    # p2 at the observed cells, divided as the dense freq.p2 divides them
    return _per_station(s, df, n, n / row_tot, freq.p1[s, j], row_tot)


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
    # p2 at the cells' (s, i, j), divided as the dense freq.p2 divides them: all
    # series counted at t >= 3 reach t - 2, so n_i(t-1) sums the cells over h and j
    row = s * shape[1] + i
    p2 = counts.n2[s, i, j] / np.bincount(row, weights=counts.n3)[row]
    return _per_station(s, df, counts.n3, freq.p3, p2, context_totals(counts))


def _ladders(
    stat0: np.ndarray, df0: np.ndarray, stat1: np.ndarray, df1: np.ndarray,
    alpha1: float, alpha2: float,
) -> tuple[list, list]:
    """The H0(0) and H0(1) verdicts of each statistic at each station: stat0
    and stat1 hold one row per statistic and a column per station, and df0 and
    df1 a df per station, 0 where a station has no statistic. H0(1) is None
    where the ladder stops at order zero, and a station with no transition
    (df0 < 1) is untestable. A quantile or tail is computed only where a
    verdict reads it. Nested lists, as JSON reads them back."""
    below0 = _below_quantile(stat0, 1.0 - alpha1, df0)
    second = (df0 >= 1) & ~below0  # H0(0) rejected: the ladder goes on to H0(1)
    below1 = _below_quantile(stat1, 1.0 - alpha2, np.where(second, df1, 0))
    # verdict codes into _VERDICTS: untestable 0, rejected 1, not rejected 2, no test 3
    h0 = (df0 >= 1) * (1 + below0)
    h1 = np.where(second, (df1 >= 1) * (1 + below1), 3)
    return ([[_VERDICTS[c] for c in row] for row in h0.tolist()],
            [[_VERDICTS[c] for c in row] for row in h1.tolist()])


def _below_quantile(stat: np.ndarray, p: float, df: np.ndarray) -> np.ndarray:
    """stat < chi_square_quantile(p, df) wherever df >= 1 (False elsewhere),
    df broadcast against stat.

    Two bounds decide without the quantile: for p >= 1/2 it is at least the
    median, which exceeds df - 2/3, so a statistic below df - 1 lies below
    it; and by the Laurent-Massart inequality it is at most
    df + 2 sqrt(df x) + 2 x with x = -log(1 - p), so a statistic above that
    lies above it. Any other is decided from the memoized quantile of its df
    unless it lies within TIE_BAND of it or Newton failed (NaN); then from
    the statistic's small tail, exactly."""
    df = np.broadcast_to(df, stat.shape)
    x = -math.log1p(-p)
    below = (df >= 1) & (stat < df - 1.0) if p >= 0.5 else np.zeros(stat.shape, dtype=bool)
    open_ = (df >= 1) & ~below & ~(stat > df + 2.0 * np.sqrt(df * x) + 2.0 * x)
    q = np.zeros(stat.shape)
    q[open_] = [chi_square_quantile(p, d) for d in df[open_].tolist()]  # memoized per df
    below[open_] = stat[open_] < q[open_]
    for at in np.flatnonzero(open_ & ~(np.abs(stat - q) > TIE_BAND * q)).tolist():
        lower, upper = _gamma_pq(df.flat[at] / 2.0, stat.flat[at] / 2.0)
        below.flat[at] = upper > 1.0 - p if p > 0.5 else lower < p
    return below


def markov_property_test(counts: CountTensor, config: RunConfig) -> list[dict]:
    """Run the order-test ladder on the counts, one row per station entry.

    Tests H0(0) at level `config.alpha1`; on rejection tests H0(1) at level
    `config.alpha2`. A row holds the station `t`, both levels, lr0, q0, df0,
    lr1, q1, df1 and `verdicts`, the LR and Q ladders, decided as arrays over
    every entry. A station with no transition is untestable and its
    statistics are None.
    """
    alpha1, alpha2 = config.alpha1, config.alpha2
    freq = estimate_frequencies(counts)
    # a station with no transition has no second-order cell either
    zero = [z or (None,) * 3 for z in zero_order_statistics(freq, counts)]
    first = [f or (None,) * 3 for f in first_order_statistics(freq, counts)]
    # as (LR, Q, df) rows of arrays, a missing statistic reading 0 with df 0
    order0, order1 = (
        np.array([r if r[2] else (0.0, 0.0, 0) for r in rows], dtype=float).reshape(-1, 3).T
        for rows in (zero, first))
    (lr_h0, q_h0), (lr_h1, q_h1) = _ladders(order0[:2], order0[2].astype(np.int64), order1[:2],
                                            order1[2].astype(np.int64), alpha1, alpha2)
    return [{"t": t, "alpha1": alpha1, "alpha2": alpha2, "lr0": a, "q0": b, "df0": c,
             "lr1": d, "q1": e, "df1": f, "verdicts": {"LR": [g, h], "Q": [i, j]}}
            for t, (a, b, c), (d, e, f), g, h, i, j in zip(
                counts.stations.tolist(), zero, first, lr_h0, lr_h1, q_h0, q_h1)]


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
