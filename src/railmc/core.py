"""Domain types, maximum-likelihood frequency estimators and the matrix check.

Every command loads this module, so it also holds what every stage reads of a
timetable (station keys, journey templates, target selection), the JSON reader
`load_json`, the writer of every output file `open_output`, and the three
error classes, one per error exit code of the CLI: InputError (2),
EmptySelectionError (3) and CoverageError (4).

States are integer delay minutes on the bounded domain [-N, N]. Station
indices are 1-based along a journey. Counts are integer arrays indexed by
state index (delay + N); frequencies are derived double-precision ratios
on the same indices. Rows with no observations are explicitly *undefined*
(NaN), never emitted as all-zero probability rows.

Aligned journeys are a zero-padded (n_series, L) integer array of delays plus
a vector of lengths: row r holds its series' delay at station t in column
t - 1 while t <= lengths[r], and every read is masked by the lengths. The rows
of many trains share one array when each row carries its train's code. One
pass over that array counts any run of (train, station) entries at once, each
entry counting only its own train's rows: n_j(t) and n_ij(t) as dense
(entries, k) and (entries, k, k) stacks, and n_hij(t) only on its observed
cells, as sorted (entry, h, i, j) codes with their counts. A station sees a
few dozen journeys, so a dense n_hij (k^3 = 29,791 cells at N = 15) would be
almost all zeros.

A transition matrix P(t) is a plain (k, k) float array with k = 2N + 1, and a
delay distribution v(t) a (k,) vector. A partial matrix marks its unobserved
rows NaN until recovery fills them; `check_transition_matrix` is the one
row-stochasticity check, run where matrices enter or leave a bundle, on an
(n, k, k) stack of them.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import json
import os
import stat
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ACTIVITY_CODES", "InputError", "EmptySelectionError", "CoverageError", "load_json", "open_output",
    "StationKey", "JourneyTemplate", "select_target_station", "StateSpace", "DelaySeries",
    "CountTensor", "FrequencyEstimates", "build_count_tensor", "estimate_frequencies",
    "context_totals", "check_transition_matrix",
]

ROW_SUM_TOL = 1e-9
# A trained bundle stores each transition probability at its row's resolution:
# `pipeline.train_bundle` sets every recovered entry in (0, ENTRY_FLOOR) to
# exactly 0.0. Such an entry is below half an ulp of its row sum, 1.0, so it
# cannot move that sum, and below the 1e-13 of the row to which KDE recovery
# is certified (`recovery._lattice_rows`); yet JSON writes and reads a far-tail
# value such as 3e-250 two to three times as slowly as an ordinary probability,
# and 0.0 several times faster than either. A row of k entries moves by at most
# k * ENTRY_FLOOR (5.3e-14 at N = 240), far inside ROW_SUM_TOL, so no row is
# renormalized.
ENTRY_FLOOR = 2.0**-53
ACTIVITY_CODES = ("V", "D", "A", "KV", "KA")


class InputError(ValueError):
    """An input file, flag or setting is malformed, or a needed flag is missing:
    a CSV, series store, bundle or config file, or a value read from one. The
    message names the file, and the line, train or station where it knows them."""


class EmptySelectionError(RuntimeError):
    """No train, station or series matched the requested selection."""


class CoverageError(RuntimeError):
    """A model cannot answer the question asked of it: no station after the
    current one exists to predict, the bundle lacks a matrix for a station on
    the propagation path, or a delay falls outside the state space a model
    was built on."""


def load_json(path):
    """Read a JSON file; one that is not UTF-8 JSON, or that nests deeper than
    the reader can follow, raises InputError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # a JSON syntax error or a byte that is not UTF-8
        raise InputError(f"{path} is not JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path} nests its JSON arrays or objects too deeply to read") from None


@contextlib.contextmanager
def open_output(path, newline=None):
    """Open `path` to write UTF-8 text, so that a write that fails midway leaves
    the previous file intact.

    A regular file, or a path with no file yet, is written to a temporary file
    in the same directory, which replaces `path` only once it is complete and
    closed; on any failure the temporary file is removed. It takes the mode of
    the file it replaces, or for a new file 0666 minus the umask, as `open`
    would give it. A device, a FIFO or a symlink (`/dev/stdout`, say) is written
    in place: renaming over a device node would replace the node.
    """
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        return
    if st is not None:
        mode = stat.S_IMODE(st.st_mode)
    else:
        umask = os.umask(0)  # read by setting it; a CLI process runs one thread
        os.umask(umask)
        mode = 0o666 & ~umask
    directory, name = os.path.split(os.fspath(path))
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory or ".")
    except OSError as exc:  # name the output asked for, not the temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as fh:
            os.chmod(tmp, mode)  # mkstemp creates it 0600
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@dataclass(frozen=True)
class StationKey:
    """Alignment key: the same station with different activities is two keys."""

    station_code: str
    activity: str

    def __post_init__(self) -> None:
        if self.activity not in ACTIVITY_CODES:
            raise ValueError(f"unknown activity {self.activity!r}")


@dataclass(frozen=True)
class JourneyTemplate:
    """Ordered station keys with planned times from the timetable."""

    train_id: str
    keys: tuple[StationKey, ...]
    planned: tuple[dt.datetime, ...]

    def __post_init__(self) -> None:
        if len(self.keys) != len(self.planned):
            raise ValueError("keys and planned times length mismatch")
        for a, b in zip(self.planned, self.planned[1:]):
            if b < a:
                raise ValueError("planned times must be non-decreasing")

    def __len__(self) -> int:
        return len(self.keys)


def select_target_station(template: JourneyTemplate, current_index: int, horizon: dt.timedelta) -> int:
    """First station planned at least `horizon` after the current one.

    Falls back to the last station when the horizon outruns the journey;
    raises CoverageError when the current station is already the last or
    lies outside the template.
    """
    train = template.train_id
    if not 1 <= current_index <= len(template):
        raise CoverageError(f"train {train}: station index {current_index} outside template "
                            f"of {len(template)} stations")
    if horizon <= dt.timedelta(0):
        raise ValueError("horizon must be positive")
    if current_index == len(template):
        raise CoverageError(f"train {train}: current station {current_index} is the final station")
    try:
        cutoff = template.planned[current_index - 1] + horizon
    except OverflowError:  # a cutoff past year 9999 lies past the last station
        return len(template)
    for t in range(current_index + 1, len(template) + 1):
        if template.planned[t - 1] >= cutoff:
            return t
    return len(template)


@dataclass(frozen=True)
class StateSpace:
    """The bounded integer delay domain [-n_max, n_max] in minutes."""

    n_max: int

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
    """One train's per-station delays on one date, as written to CSV. Station
    t maps to delays[t-1]."""

    train_id: str
    date: str
    delays: tuple[int, ...]


class CountTensor(NamedTuple):
    """Observation counts at (train, station) entries, whose stations are
    `stations`, indexed by entry position s (0-based) and state index (delay + N).

    n1[s, j]    = n_j(t):       series delayed j minutes at station t, shape (S, k)
    n2[s, i, j] = n_{i,j}(t):   j at t and i at t-1, shape (S, k, k)
    n3[c]       = n_{h,i,j}(t): j at t, i at t-1, h at t-2, for the observed
                  cell n3_cells[c] = ((s k + h) k + i) k + j, shape (m,)

    n3_cells is sorted and holds exactly the cells with a positive count, so
    each entry's cells are one contiguous run in row-major (h, i, j) order.
    Only series of the entry's train long enough to cover its station
    contribute to its counts; all series start at station 1, so the
    contributing set is identical for all three tallies and n1 = sum_i n2,
    n2 = sum_h n3 wherever n2, n3 exist. A NamedTuple, not a frozen
    dataclass, because every command process builds the class at import.
    """

    stations: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    n3_cells: np.ndarray
    n3: np.ndarray

    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The (s, h, i, j) index vectors of the observed n3 cells."""
        k = self.n1.shape[1]
        return np.unravel_index(self.n3_cells, (len(self.stations), k, k, k))


class FrequencyEstimates(NamedTuple):
    """MLE frequencies derived from a CountTensor, on the same indices.

    p1[s, j] = p̂_j and p2[s, i, j] = p̂_{i,j} are dense; p3[c] = p̂_{h,i,j}
    holds the frequency of the observed cell n3_cells[c]. A row whose
    marginal count is zero is NaN: *undefined*, not zero. The dense p2 is
    divided out of `counts` where it is read: the order test reads n_{i,j}(t)
    only at its observed cells.
    """

    counts: CountTensor
    p1: np.ndarray
    p3: np.ndarray

    @property
    def p2(self) -> np.ndarray:
        return _conditional(self.counts.n2)


def build_count_tensor(
    delays: np.ndarray, lengths: np.ndarray, t, space: StateSpace, *,
    series_train: np.ndarray | None = None, station_train: np.ndarray | None = None,
) -> CountTensor:
    """Tally n_j(t), n_{i,j}(t) and the observed n_{h,i,j}(t) over a delay
    array, in one pass for every station of t: a station index or a sequence
    of them.

    Without train codes every row is one train's. With them, series_train
    holds each row's train code and station_train each station's, and the
    entry (station_train[s], t[s]) counts only the rows of its train. Row r
    covers an entry of its train when lengths[r] >= t; a covering row
    contributes to n1, to n2 additionally when t >= 2, and to n3 when t >= 3.
    A counted delay outside the state space raises ValueError.
    """
    stations = np.atleast_1d(np.asarray(t, dtype=np.int64))
    if (stations < 1).any():
        raise ValueError(f"station index must be >= 1, got {stations.min()}")
    if (series_train is None) != (station_train is None):
        raise ValueError("series_train and station_train go together")
    if series_train is None:
        series_train = np.zeros(len(lengths), dtype=np.int64)
        station_train = np.zeros(len(stations), dtype=np.int64)
    k = space.cardinality
    # each train's entries in one row, padded with a station that no row reaches
    order = np.argsort(station_train, kind="stable")
    train = station_train[order]
    n_trains = int(max(train.max(initial=-1), np.max(series_train, initial=-1))) + 1
    slot = np.arange(len(order)) - np.searchsorted(train, np.arange(n_trains))[train]
    station_of = np.full((n_trains, int(slot.max(initial=-1)) + 1), np.iinfo(np.int64).max)
    station_of[train, slot] = stations[order]
    entry_of = np.zeros(station_of.shape, dtype=np.int64)
    entry_of[train, slot] = order
    row, slot = np.nonzero(lengths[:, None] >= station_of[series_train])
    s = entry_of[series_train[row], slot]
    col = stations[s] - 1
    # each covering row's states at t, t - 1 and t - 2 (a station before the
    # first reads the first, which the earlier index call already checked)
    x0, x1, x2 = (space.index(delays[row, np.maximum(col - back, 0)]) for back in range(3))
    size = len(stations)
    n1 = np.bincount(s * k + x0, minlength=size * k).reshape(size, k)
    n2 = np.bincount(((s * k + x1) * k + x0)[col >= 1], minlength=size * k * k).reshape(size, k, k)
    n3_cells, n3 = np.unique((((s * k + x2) * k + x1) * k + x0)[col >= 2], return_counts=True)
    return CountTensor(stations, n1, n2, n3_cells, n3)


def estimate_frequencies(counts: CountTensor) -> FrequencyEstimates:
    """Turn counts into MLE frequencies p̂_j, p̂_{i,j} and, on the observed
    cells, p̂_{h,i,j}.

    Each tally is divided by its sum over the last state index; rows whose
    marginal count is zero come out NaN.
    """
    return FrequencyEstimates(counts, _conditional(counts.n1), counts.n3 / context_totals(counts))


def context_totals(counts: CountTensor) -> np.ndarray:
    """n_{h,i}(t-1) = sum_j n_{h,i,j}(t) at each observed n3 cell: the total
    count of the cells that share its station, h and i."""
    context = counts.n3_cells // counts.n1.shape[1]
    if not len(context):
        return np.zeros(0)
    # the cells are sorted, so each context is one run; integer sums are exact
    start = np.flatnonzero(np.concatenate(([True], context[1:] != context[:-1])))
    size = np.diff(np.append(start, len(context)))
    return np.repeat(np.add.reduceat(counts.n3, start), size).astype(float)


def _conditional(n: np.ndarray) -> np.ndarray:
    """n divided by its sum over the last axis; rows summing to zero are NaN
    (0 / 0), as counts are never negative."""
    with np.errstate(invalid="ignore"):  # einsum adds integer rows exactly, and faster than sum
        return n / np.einsum("...j->...", n)[..., None]


def check_transition_matrix(p: np.ndarray, space: StateSpace) -> None:
    """Raise ValueError unless p is an (n, k, k) stack of complete row-stochastic
    matrices; a single matrix is checked as p[None].

    Every entry must be finite and non-negative, and every row must sum to
    one within ROW_SUM_TOL. A stack passes exactly when each of its matrices
    does; its message does not say which matrix failed.
    """
    k = space.cardinality
    if p.shape[1:] != (k, k):
        raise ValueError(f"matrix shape {p.shape[1:]}, expected {(k, k)} for n_max {space.n_max}")
    sums = p.sum(axis=-1)
    off = np.abs(sums - 1.0)
    # NaN fails both comparisons, and an infinite entry makes its row sum fail
    if (p >= 0).all() and (off <= ROW_SUM_TOL).all():
        return
    if not np.isfinite(p).all():
        raise ValueError("matrix holds NaN or infinite entries")
    if (p < 0).any():
        raise ValueError("matrix holds negative entries")
    if (off > ROW_SUM_TOL).any():
        at = np.unravel_index(np.argmax(off), off.shape)
        raise ValueError(f"row {int(at[-1])} sums to {float(sums[at])}, not 1")
