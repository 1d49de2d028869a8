"""Seeded ground-truth generators for delay series.

Samples journeys from known zero-order, first-order, and second-order chains
so every statistical operation in the package has a reproducible oracle. Can
also emit the sampled data as timetable/realization CSV files, formatted from
date and clock string tables, so the full ingestion pipeline is exercised.
"""

from __future__ import annotations

import csv
import itertools
import types
from dataclasses import dataclass

import numpy as np

from .core import DelaySeries, StateSpace, open_output

__all__ = [
    "ChainSpec",
    "sample_delays",
    "sample_series",
    "near_diagonal_spec",
    "write_ingest_files",
]

WRITE_CHUNK_SERIES = 256  # series whose realization rows are formatted at once


@dataclass(frozen=True)
class ChainSpec:
    """A fully known delay process over a journey of fixed length.

    order 1: `matrices[t-2]` is the transition matrix into station t.
    order 0: `marginals[t-1]` is the independent delay distribution at t.
    order 2: `tensors[t-3]` maps the (t-2, t-1) state pair to a row; the step
             into station 2 still uses `matrices[0]`.
    """

    space: StateSpace
    length: int
    order: int
    initial: np.ndarray
    seed: int
    matrices: tuple[np.ndarray, ...] = ()
    marginals: tuple[np.ndarray, ...] = ()
    tensors: tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        if self.order not in (0, 1, 2):
            raise ValueError(f"unsupported order {self.order}")
        if self.length < 1:
            raise ValueError("journey length must be >= 1")
        for dist in (self.initial, *self.matrices, *self.marginals, *self.tensors):
            # a NaN entry fails both comparisons
            if not ((np.abs(dist.sum(axis=-1) - 1.0) <= 1e-12).all() and (dist >= 0).all()):
                raise ValueError("chain rows must be probability vectors")


def _draw_rows(rng: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """One categorical draw per row of a (n, k) probability array."""
    cum = np.cumsum(rows, axis=1)
    r = rng.random(len(rows))
    return (cum > r[:, None]).argmax(axis=1)


def sample_delays(spec: ChainSpec, count: int) -> np.ndarray:
    """Sample `count` full journeys as a (count, length) array of delays;
    deterministic for a fixed spec seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(spec.seed)
    idx = np.empty((count, spec.length), dtype=np.int64)
    idx[:, 0] = _draw_rows(rng, np.tile(spec.initial, (count, 1)))
    for t in range(2, spec.length + 1):
        if spec.order == 0:
            rows = np.tile(spec.marginals[t - 1], (count, 1))
        elif spec.order == 1 or t == 2:
            rows = spec.matrices[t - 2][idx[:, t - 2]]
        else:
            rows = spec.tensors[t - 3][idx[:, t - 3], idx[:, t - 2]]
        idx[:, t - 1] = _draw_rows(rng, rows)
    return idx - spec.space.n_max


def sample_series(spec: ChainSpec, count: int, train_id: str = "synth") -> list[DelaySeries]:
    """`sample_delays` as dated records of one train, for `write_ingest_files`."""
    return [
        DelaySeries(train_id=train_id, date=f"d{n:05d}", delays=tuple(row))
        for n, row in enumerate(sample_delays(spec, count).tolist())
    ]


def near_diagonal_spec(space: StateSpace, length: int, dispersion: float, seed: int) -> ChainSpec:
    """First-order chain whose rows are discretized Gaussians centered on the
    row state, mimicking the rarity of delay jumps between adjacent stations;
    the first station's delay is uniform."""
    if not dispersion > 0:  # NaN fails too
        raise ValueError("dispersion must be positive")
    states = space.states().astype(float)
    k = space.cardinality
    with np.errstate(over="ignore"):  # a tiny dispersion sends off-diagonal terms to exp(-inf) = 0
        dens = np.exp(-0.5 * ((states[None, :] - states[:, None]) / dispersion) ** 2)
    mat = dens / dens.sum(axis=1, keepdims=True)
    return ChainSpec(
        space=space,
        length=length,
        order=1,
        initial=np.full(k, 1.0 / k),
        seed=seed,
        matrices=tuple(mat.copy() for _ in range(length - 1)),
    )


def _csv_fields(values) -> np.ndarray:
    """Each value as `csv.writer` writes it inside a row: quoted only where csv must."""
    rows: list[str] = []
    csv.writer(types.SimpleNamespace(write=rows.append)).writerows((v, "") for v in values)
    return np.array([row[:-3] for row in rows], dtype=object)  # less the "," and "\r\n"


def _stamps(base_date: str, minutes: np.ndarray, clock: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ISO date and the `clock` string of minute counts from 00:00 on the base date."""
    days, of_day = np.divmod(minutes, 1440)  # floor: a negative count falls on an earlier day
    lo, hi = int(days.min(initial=2**62)), int(days.max(initial=-2**62))  # no times: no dates
    dates = np.datetime_as_string(np.datetime64(base_date, "D") + np.arange(lo, hi + 1)).astype(object)
    return dates[days - lo], clock[of_day]


def write_ingest_files(
    series: list[DelaySeries],
    timetable_path,
    realization_path,
    base_date: str = "2017-09-04",
    gap_minutes: int = 7,
) -> None:
    """Emit sampled series as canonical timetable + realization CSVs.

    Each series becomes one calendar date of the same synthetic train; the
    planned schedule starts the base date at 08:00 with a fixed gap between
    stations, and realized times offset the plan by the sampled delay.
    No datetime is made per row: a time is the minute count `day*1440 + 480 + gap*(t-1)`
    (plus the delay) from the base date, whose floor `divmod` by 1440 indexes a table of
    dates, one `np.datetime_as_string` call per chunk of series, and one of the 1,440
    `THH:MM:00` clocks: exact past midnight and before the base date. Train ids and
    station codes go through `csv.writer` once each, so the bytes are `writerow`'s.
    """
    if not series:
        raise ValueError("no series to write")
    train_ids = sorted({s.train_id for s in series})
    quoted = dict(zip(train_ids, _csv_fields(train_ids)))
    max_len = max(len(s.delays) for s in series)
    codes = _csv_fields(f"S{t:02d}" for t in range(1, max_len + 1))
    # per call: 1,440 strings kept for the process pin ~0.5 MB of freed heap after many writes
    clock = np.array([f"T{h:02d}:{m:02d}:00" for h in range(24) for m in range(60)], dtype=object)
    stations = [",%s,V,%s%s,%d\r\n" % row for row in zip(
        codes, *_stamps(base_date, 480 + gap_minutes * np.arange(max_len), clock), range(1, max_len + 1))]
    with open_output(timetable_path, newline="") as fh:
        fh.write("train_id,station_code,activity,planned_time,sequence\r\n")
        fh.write("".join(quoted[tid] + row for tid in train_ids for row in stations))

    with open_output(realization_path, newline="") as fh:
        fh.write("train_id,date,station_code,activity,planned_time,realized_time\r\n")
        for first in range(0, len(series), WRITE_CHUNK_SERIES):  # one format and one write each
            chunk = series[first:first + WRITE_CHUNK_SERIES]
            lengths = np.array([len(s.delays) for s in chunk], dtype=np.int64)
            delay = np.fromiter(itertools.chain(*(s.delays for s in chunk)), np.int64, lengths.sum())
            t = np.arange(len(delay)) - np.repeat(np.cumsum(lengths) - lengths, lengths)  # 0-based
            midnight = np.repeat(np.arange(first, first + len(chunk)) * 1440, lengths)  # its date, 00:00
            minutes = midnight + 480 + gap_minutes * t
            dates, clocks = _stamps(base_date, np.stack([midnight, minutes, minutes + delay]), clock)
            tid = np.repeat(np.array([quoted[s.train_id] for s in chunk], dtype=object), lengths)
            cells = np.stack([tid, dates[0], codes[t], dates[1], clocks[1], dates[2], clocks[2]], axis=1)
            fh.write("%s,%s,%s,V,%s%s,%s%s\r\n" * len(delay) % tuple(cells.ravel().tolist()))
