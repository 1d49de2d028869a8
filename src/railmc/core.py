"""Domain types, maximum-likelihood frequency estimators and the matrix check.

States are integer delay minutes on the bounded domain [-N, N]. Station
indices are 1-based along a journey. Counts are dense integer arrays indexed
by state index (delay + N); frequencies are derived double-precision ratios
on the same indices. Rows with no observations are explicitly *undefined*
(NaN), never emitted as all-zero probability rows.

One train's aligned journeys are a zero-padded (n_series, L) integer array of
delays plus a vector of lengths: row r holds its series' delay at station t in
column t - 1 while t <= lengths[r], and every read is masked by the lengths.
The counts n_j(t), n_ij(t) and n_hij(t) tally column slices of that array.

A transition matrix P(t) is a plain (k, k) float array with k = 2N + 1, and a
delay distribution v(t) a (k,) vector. A partial matrix marks its unobserved
rows NaN until recovery fills them; `check_transition_matrix` is the one
row-stochasticity check, run where matrices enter or leave a bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StateSpace",
    "DelaySeries",
    "CountTensor",
    "FrequencyEstimates",
    "build_count_tensor",
    "estimate_frequencies",
    "check_transition_matrix",
]

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class StateSpace:
    """The bounded integer delay domain [-n_max, n_max] in minutes."""

    n_max: int = 15

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def cardinality(self) -> int:
        return 2 * self.n_max + 1

    def states(self) -> np.ndarray:
        """All states as an ordered integer vector -N..N."""
        return np.arange(-self.n_max, self.n_max + 1)

    def index(self, delay: int | np.ndarray) -> int | np.ndarray:
        """Map a delay, or an array of delays, to its row/column index
        (a bijection onto 0..2N); ValueError for a delay outside the domain."""
        delay = np.asarray(delay)
        outside = np.abs(delay) > self.n_max
        if outside.any():
            raise ValueError(f"delay {delay[outside][0]} outside [-{self.n_max}, {self.n_max}]")
        return delay + self.n_max

    def contains(self, delay: int) -> bool:
        return -self.n_max <= delay <= self.n_max


@dataclass(frozen=True)
class DelaySeries:
    """One train's per-station delays on one date, as read from or written to
    CSV. Station t maps to delays[t-1]."""

    train_id: str
    date: str
    delays: tuple[int, ...]
    clipped: int = 0  # observations saturated into the domain during assembly


@dataclass(frozen=True)
class CountTensor:
    """Observation counts at station t, indexed by state index (delay + N).

    n1[j]       = n_j(t):       series delayed j minutes at station t, shape (k,)
    n2[i, j]    = n_{i,j}(t):   j at t and i at t-1, shape (k, k)
    n3[h, i, j] = n_{h,i,j}(t): j at t, i at t-1, h at t-2, shape (k, k, k)

    Only series long enough to cover the relevant stations contribute; all
    series start at station 1, so the contributing set is identical for all
    three tallies and the aggregation relations hold exactly.
    """

    station_index: int
    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray

    def validate(self) -> None:
        """Assert the count-aggregation relations over the contributing series."""
        if (self.n1 < 0).any() or (self.n2 < 0).any() or (self.n3 < 0).any():
            raise ValueError("negative count")
        if self.n2.any() and not np.array_equal(self.n2.sum(axis=0), self.n1):
            raise ValueError("n_j(t) != sum_i n_{i,j}(t)")
        if self.n3.any() and not np.array_equal(self.n3.sum(axis=0), self.n2):
            raise ValueError("n_{i,j}(t) != sum_h n_{h,i,j}(t)")


@dataclass(frozen=True)
class FrequencyEstimates:
    """MLE frequencies derived from a CountTensor, on the same state indices.

    p1[j] = p̂_j, p2[i, j] = p̂_{i,j}, p3[h, i, j] = p̂_{h,i,j}. A row whose
    marginal count is zero is NaN: *undefined*, not zero.
    """

    station_index: int
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray


def build_count_tensor(
    delays: np.ndarray, lengths: np.ndarray, t: int, space: StateSpace
) -> CountTensor:
    """Tally n_j(t), n_{i,j}(t), n_{h,i,j}(t) over one train's delay array.

    Row r covers station t when lengths[r] >= t; a covering row contributes
    to n1, to n2 additionally when t >= 2, and to n3 when t >= 3. A counted
    delay outside the state space raises ValueError.
    """
    if t < 1:
        raise ValueError(f"station index must be >= 1, got {t}")
    idx = space.index(delays[lengths >= t, max(t - 3, 0):t])
    k = space.cardinality
    return CountTensor(t, *(_tally(idx, order, k) for order in (1, 2, 3)))


def _tally(idx: np.ndarray, order: int, k: int) -> np.ndarray:
    """Dense counts of the last `order` state-index columns, shape (k,) * order."""
    shape = (k,) * order
    if idx.shape[1] < order:
        return np.zeros(shape, dtype=np.int64)
    flat = np.ravel_multi_index(tuple(idx[:, -order:].T), shape)
    return np.bincount(flat, minlength=k**order).reshape(shape)


def estimate_frequencies(counts: CountTensor) -> FrequencyEstimates:
    """Turn counts into MLE frequencies p̂_j, p̂_{i,j}, p̂_{h,i,j}.

    Each tally is divided by its sum over the last axis; rows whose marginal
    count is zero come out NaN.
    """
    p1, p2, p3 = (_conditional(n) for n in (counts.n1, counts.n2, counts.n3))
    return FrequencyEstimates(counts.station_index, p1, p2, p3)


def _conditional(n: np.ndarray) -> np.ndarray:
    """n divided by its sum over the last axis; rows summing to zero are NaN."""
    rows = n.reshape(-1, n.shape[-1])
    tot = rows.sum(axis=1)
    defined = tot > 0
    p = np.full(rows.shape, np.nan)
    p[defined] = rows[defined] / tot[defined, None]
    return p.reshape(n.shape)


def check_transition_matrix(p: np.ndarray, space: StateSpace) -> None:
    """Raise ValueError unless p is a complete (k, k) row-stochastic matrix.

    Every entry must be finite and non-negative, and every row must sum to
    one within ROW_SUM_TOL.
    """
    k = space.cardinality
    if p.shape != (k, k):
        raise ValueError(f"matrix shape {p.shape}, expected {(k, k)} for n_max {space.n_max}")
    if not np.isfinite(p).all():
        raise ValueError("matrix holds NaN or infinite entries")
    if (p < 0).any():
        raise ValueError("matrix holds negative entries")
    off = np.abs(p.sum(axis=1) - 1.0)
    if (off > ROW_SUM_TOL).any():
        r = int(np.argmax(off))
        raise ValueError(f"row {r} sums to {p[r].sum()!r}, not 1")
