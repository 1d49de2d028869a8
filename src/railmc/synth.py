"""Seeded ground-truth generators for delay series.

Samples journeys from known zero-order, first-order, and second-order chains
so every statistical operation in the package has a reproducible oracle. Can
also emit the sampled data as timetable/realization CSV files so the full
ingestion pipeline is exercised end-to-end.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
from dataclasses import dataclass

import numpy as np

from .core import DelaySeries, StateSpace

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
            if (np.abs(dist.sum(axis=-1) - 1.0) > 1e-12).any() or (dist < 0).any():
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


def sample_series(
    spec: ChainSpec, count: int, train_id: str = "synth", date_prefix: str = "d"
) -> list[DelaySeries]:
    """`sample_delays` as dated records of one train, for `write_ingest_files`."""
    return [
        DelaySeries(train_id=train_id, date=f"{date_prefix}{n:05d}", delays=tuple(row))
        for n, row in enumerate(sample_delays(spec, count).tolist())
    ]


def near_diagonal_spec(
    space: StateSpace,
    length: int,
    dispersion: float,
    seed: int,
    initial: np.ndarray | None = None,
) -> ChainSpec:
    """First-order chain whose rows are discretized Gaussians centered on the
    row state, mimicking the rarity of delay jumps between adjacent stations."""
    if dispersion <= 0:
        raise ValueError("dispersion must be positive")
    states = space.states().astype(float)
    k = space.cardinality
    dens = np.exp(-0.5 * ((states[None, :] - states[:, None]) / dispersion) ** 2)
    mat = dens / dens.sum(axis=1, keepdims=True)
    init = np.full(k, 1.0 / k) if initial is None else np.asarray(initial, dtype=float)
    return ChainSpec(
        space=space,
        length=length,
        order=1,
        initial=init,
        seed=seed,
        matrices=tuple(mat.copy() for _ in range(length - 1)),
    )


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
    Realization timestamps are formatted by numpy a column at a time, for a
    chunk of series at a time.
    """
    if not series:
        raise ValueError("no series to write")
    train_ids = sorted({s.train_id for s in series})
    max_len = max(len(s.delays) for s in series)
    start = dt.datetime.fromisoformat(f"{base_date}T08:00:00")

    with open(timetable_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["train_id", "station_code", "activity", "planned_time", "sequence"])
        for tid in train_ids:
            for t in range(1, max_len + 1):
                planned = start + dt.timedelta(minutes=gap_minutes * (t - 1))
                w.writerow([tid, f"S{t:02d}", "V", planned.isoformat(), t])

    stations = [f"S{t:02d}" for t in range(1, max_len + 1)]
    day0 = np.datetime64(base_date, "D")
    with open(realization_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["train_id", "date", "station_code", "activity", "planned_time", "realized_time"])
        for first in range(0, len(series), WRITE_CHUNK_SERIES):
            chunk = series[first:first + WRITE_CHUNK_SERIES]
            lengths = [len(s.delays) for s in chunk]
            days = day0 + np.arange(first, first + len(chunk))  # one date per series
            t = np.concatenate([np.arange(k) for k in lengths])  # 0-based station of each row
            planned = np.repeat(days, lengths) + np.timedelta64(8 * 60, "m") + gap_minutes * t
            delay = np.fromiter(
                itertools.chain.from_iterable(s.delays for s in chunk), dtype=np.int64, count=len(t)
            )
            w.writerows(zip(
                itertools.chain.from_iterable(
                    itertools.repeat(s.train_id, k) for s, k in zip(chunk, lengths)),
                itertools.chain.from_iterable(
                    itertools.repeat(d, k) for d, k in zip(np.datetime_as_string(days).tolist(), lengths)),
                map(stations.__getitem__, t.tolist()),
                itertools.repeat("V"),
                np.datetime_as_string(planned, unit="s").tolist(),
                np.datetime_as_string(planned + delay, unit="s").tolist(),
            ))
