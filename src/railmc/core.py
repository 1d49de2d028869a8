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

One train's aligned journeys are a zero-padded (n_series, L) integer array of
delays plus a vector of lengths: row r holds its series' delay at station t in
column t - 1 while t <= lengths[r], and every read is masked by the lengths.
One pass over that array counts any run of its stations at once: n_j(t) and
n_ij(t) as dense (stations, k) and (stations, k, k) stacks, and n_hij(t) only
on its observed cells, as sorted (station, h, i, j) codes with their counts.
A station sees a few dozen journeys, so a dense n_hij (k^3 = 29,791 cells at
N = 15) would be almost all zeros.

A transition matrix P(t) is a plain (k, k) float array with k = 2N + 1, and a
delay distribution v(t) a (k,) vector. A partial matrix marks its unobserved
rows NaN until recovery fills them; `check_transition_matrix` is the one
row-stochasticity check, run where matrices enter or leave a bundle.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import json
import os
import stat
import tempfile
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ACTIVITY_CODES", "InputError", "EmptySelectionError", "CoverageError", "load_json", "open_output",
    "StationKey", "JourneyTemplate", "select_target_station", "StateSpace", "DelaySeries",
    "CountTensor", "FrequencyEstimates", "build_count_tensor", "estimate_frequencies",
    "context_totals", "check_transition_matrix",
]

ROW_SUM_TOL = 1e-9
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
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory or ".")
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
    if not 1 <= current_index <= len(template):
        raise CoverageError(f"station index {current_index} outside template")
    if horizon <= dt.timedelta(0):
        raise ValueError("horizon must be positive")
    if current_index == len(template):
        raise CoverageError("current station is the final station")
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
    """One train's per-station delays on one date, as read from or written to
    CSV. Station t maps to delays[t-1]."""

    train_id: str
    date: str
    delays: tuple[int, ...]
    clipped: int = 0  # observations saturated into the domain during assembly


@dataclass(frozen=True)
class CountTensor:
    """Observation counts of one train at the stations `stations`, indexed by
    station position s (0-based in `stations`) and state index (delay + N).

    n1[s, j]    = n_j(t):       series delayed j minutes at station t, shape (S, k)
    n2[s, i, j] = n_{i,j}(t):   j at t and i at t-1, shape (S, k, k)
    n3[c]       = n_{h,i,j}(t): j at t, i at t-1, h at t-2, for the observed
                  cell n3_cells[c] = ((s k + h) k + i) k + j, shape (m,)

    n3_cells is sorted and holds exactly the cells with a positive count, so
    each station's cells are one contiguous run in row-major (h, i, j) order.
    Only series long enough to cover a station contribute to its counts; all
    series start at station 1, so the contributing set is identical for all
    three tallies and n1 = sum_i n2, n2 = sum_h n3 wherever n2, n3 exist.
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


@dataclass(frozen=True)
class FrequencyEstimates:
    """MLE frequencies derived from a CountTensor, on the same indices.

    p1[s, j] = p̂_j and p2[s, i, j] = p̂_{i,j} are dense; p3[c] = p̂_{h,i,j}
    holds the frequency of the observed cell n3_cells[c]. A row whose
    marginal count is zero is NaN: *undefined*, not zero.
    """

    stations: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray


def build_count_tensor(
    delays: np.ndarray, lengths: np.ndarray, t, space: StateSpace
) -> CountTensor:
    """Tally n_j(t), n_{i,j}(t) and the observed n_{h,i,j}(t) over one train's
    delay array, in one pass for every station of t: a station index or a
    sequence of them.

    Row r covers station t when lengths[r] >= t; a covering row contributes
    to n1, to n2 additionally when t >= 2, and to n3 when t >= 3. A counted
    delay outside the state space raises ValueError.
    """
    stations = np.atleast_1d(np.asarray(t, dtype=np.int64))
    if (stations < 1).any():
        raise ValueError(f"station index must be >= 1, got {stations.min()}")
    k = space.cardinality
    row, s = np.nonzero(lengths[:, None] >= stations)
    col = stations[s] - 1
    # the covered states x(t-order+1) .. x(t) of each row, as one base-k number
    states = np.zeros(len(row), dtype=np.int64)
    codes = []
    for order in (1, 2, 3):
        keep = col >= order - 1
        row, s, col, states = row[keep], s[keep], col[keep], states[keep]
        states = states + space.index(delays[row, col - order + 1]) * k ** (order - 1)
        codes.append(s * k**order + states)
    size = len(stations)
    n1 = np.bincount(codes[0], minlength=size * k).reshape(size, k)
    n2 = np.bincount(codes[1], minlength=size * k * k).reshape(size, k, k)
    n3_cells, n3 = np.unique(codes[2], return_counts=True)
    return CountTensor(stations, n1, n2, n3_cells, n3)


def estimate_frequencies(counts: CountTensor) -> FrequencyEstimates:
    """Turn counts into MLE frequencies p̂_j, p̂_{i,j} and, on the observed
    cells, p̂_{h,i,j}.

    Each tally is divided by its sum over the last state index; rows whose
    marginal count is zero come out NaN.
    """
    p3 = counts.n3 / context_totals(counts)
    return FrequencyEstimates(counts.stations, _conditional(counts.n1), _conditional(counts.n2), p3)


def context_totals(counts: CountTensor) -> np.ndarray:
    """n_{h,i}(t-1) = sum_j n_{h,i,j}(t) at each observed n3 cell: the total
    count of the cells that share its station, h and i."""
    context = counts.n3_cells // counts.n1.shape[1]
    # float64 sums of integer counts are exact
    return np.bincount(context, weights=counts.n3)[context]


def _conditional(n: np.ndarray) -> np.ndarray:
    """n divided by its sum over the last axis; rows summing to zero are NaN
    (0 / 0), as counts are never negative."""
    with np.errstate(invalid="ignore"):
        return n / n.sum(axis=-1, keepdims=True)


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
