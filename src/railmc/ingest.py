"""Parsing of timetable and realization event logs into aligned delay series.

Only the `ingest` command loads this CSV parser. The timetable types it builds,
`select_target_station` and InputError live in `core` and are imported back.

Canonical CSV formats (UTF-8, comma-separated, header row):

* realization: ``train_id,date,station_code,activity,planned_time,realized_time``
  with ISO-8601 timestamps at seconds resolution;
* timetable:   ``train_id,station_code,activity,planned_time,sequence``.

Arrival and departure at the same physical station are distinct stations, so
the alignment key is (station_code, activity). Malformed realization rows
are collected into a rejects report, never silently dropped, and so is every
repeat of a (train, date, station, activity) event after its first row. A bad
realization header, a row the csv module refuses (a field over its size
limit), or a malformed timetable row raises InputError naming the file and
line; so does a timetable row that repeats its train's (station, activity)
key, since a loop line cannot be aligned by that key, or one whose time has a
UTC offset when its train's first time has none (or the reverse). A byte that
is not UTF-8 raises InputError naming the file.

The realization file is read into columns, a chunk of rows at a time: each
distinct string is stripped and checked once, and timestamps in the exact
``YYYY-MM-DDTHH:MM:SS`` form are converted by numpy. Any other timestamp goes
through ``datetime.fromisoformat``, so both paths accept the same strings.
Series are then aligned with one sort and a few array masks, never with a
Python object per row.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .core import (ACTIVITY_CODES, InputError, JourneyTemplate, StationKey, open_output,
                   select_target_station)

__all__ = [
    "ACTIVITY_CODES",
    "REJECT_REASONS",
    "EventColumns",
    "StationKey",
    "JourneyTemplate",
    "RejectedRow",
    "InputError",
    "parse_events",
    "load_timetable",
    "delay_minutes",
    "assemble_series",
    "select_target_station",
    "write_rejects",
]

REALIZATION_HEADER = ["train_id", "date", "station_code", "activity", "planned_time", "realized_time"]
TIMETABLE_HEADER = ["train_id", "station_code", "activity", "planned_time", "sequence"]

# Every reason a realization row can be rejected for, in the order they are
# tried: a row gets the first that applies. The first five are parse rejects.
REJECT_REASONS = (
    "wrong field count",
    "unknown activity",
    "unparseable timestamp",
    "timezone mismatch",
    "unparseable date",
    "train not in timetable",
    "station not in template",
    "duplicate event",
    "no usable stations",
)
_FIELDS, _ACTIVITY, _TIMESTAMP, _TIMEZONE, _DATE = range(1, 6)  # 1 + index in REJECT_REASONS

CHUNK_ROWS = 1 << 14  # realization rows held as Python objects at once

# The canonical timestamp YYYY-MM-DDTHH:MM:SS: digit and separator positions.
_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_SEPARATORS = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":"}
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


@dataclass(frozen=True)
class RejectedRow:
    row: str
    reason: str


@dataclass(frozen=True)
class EventColumns:
    """The accepted realization rows as columns, in file order.

    `train`, `date`, `station` and `activity` hold codes into the tables of
    distinct stripped values of the same name (plural); `delay` holds each
    event's lateness in whole minutes, not yet clipped to a state space.
    """

    trains: list[str]
    dates: list[str]
    stations: list[str]
    activities: list[str]
    train: np.ndarray
    date: np.ndarray
    station: np.ndarray
    activity: np.ndarray
    delay: np.ndarray

    def __len__(self) -> int:
        return len(self.delay)


def _checked_rows(reader, what: str) -> Iterator[list[str]]:
    """The rows of a csv.reader over an input file. A byte that is not UTF-8,
    or a row the csv module refuses (a field over its size limit, say), raises
    InputError naming the file, and the line for the latter."""
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise InputError(f"{what}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})") from None
    except csv.Error as exc:
        raise InputError(f"{what} line {reader.line_num}: {exc}") from None


def _parse_timestamp(raw: str) -> dt.datetime:
    return dt.datetime.fromisoformat(raw.strip())


def _is_date(value: str) -> bool:
    try:
        dt.date.fromisoformat(value)
    except ValueError:
        return False
    return True


class _Column:
    """Codes of one string column: each distinct raw value is stripped and
    numbered once, and `check` judges each distinct stripped value once."""

    def __init__(self, check=lambda value: True) -> None:
        self.values: list[str] = []
        self.valid: list[bool] = []
        self._check = check
        self._stripped: dict[str, int] = {}
        self._raw: dict[str, int] = {}

    def encode(self, column: list[str]) -> np.ndarray:
        for raw in dict.fromkeys(column):
            if raw not in self._raw:
                value = raw.strip()
                if value not in self._stripped:
                    self._stripped[value] = len(self.values)
                    self.values.append(value)
                    self.valid.append(self._check(value))
                self._raw[raw] = self._stripped[value]
        return np.fromiter(map(self._raw.__getitem__, column), dtype=np.int32, count=len(column))


def _canonical_seconds(column: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Seconds since 1970 of each timestamp in the exact form
    YYYY-MM-DDTHH:MM:SS with in-range fields, and the mask of those; every
    other string (another ISO form, a UTC offset, whitespace) reads 0 here."""
    n = len(column)
    lengths = np.fromiter(map(len, column), dtype=np.intp, count=n)
    # a longer string is cut to 19 characters, but its length fails the check
    chars = np.array(column, dtype="U19").view(np.int32).reshape(n, 19) - ord("0")
    digits = chars[:, _DIGITS]
    ok = (lengths == 19) & ((digits >= 0) & (digits <= 9)).all(axis=1)
    for at, sep in _SEPARATORS.items():
        ok &= chars[:, at] == ord(sep) - ord("0")
    year = chars[:, 0] * 1000 + chars[:, 1] * 100 + chars[:, 2] * 10 + chars[:, 3]
    month, day, hour, minute, second = (
        chars[:, at] * 10 + chars[:, at + 1] for at in (5, 8, 11, 14, 17)
    )
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + (leap & (month == 2))
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59)
    year, month, day = (np.where(ok, x, 1) for x in (year, month, day))
    days = (
        ((year - 1970).astype("M8[Y]").astype("M8[M]") + (month - 1)).astype("M8[D]") + (day - 1)
    ).astype(np.int64)
    return np.where(ok, days * 86400 + hour * 3600 + minute * 60 + second, 0), ok


def delay_minutes(delta_us: np.ndarray) -> np.ndarray:
    """Lateness in whole minutes of realized minus planned time given in
    integer microseconds, rounded half away from zero."""
    return np.sign(delta_us) * ((np.abs(delta_us) + 30_000_000) // 60_000_000)


def _delays(planned: list[str], realized: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Delay minutes per row, and 0 or the reject code of a row whose
    timestamps do not parse or mix a UTC offset with none."""
    p_seconds, p_ok = _canonical_seconds(planned)
    r_seconds, r_ok = _canonical_seconds(realized)
    delta_us = (r_seconds - p_seconds) * 1_000_000
    status = np.zeros(len(planned), dtype=np.intp)
    for i in np.flatnonzero(~(p_ok & r_ok)).tolist():
        try:
            p_ts, r_ts = _parse_timestamp(planned[i]), _parse_timestamp(realized[i])
        except ValueError:
            status[i] = _TIMESTAMP
            continue
        if (p_ts.tzinfo is None) != (r_ts.tzinfo is None):
            status[i] = _TIMEZONE
            continue
        delta_us[i] = (r_ts - p_ts) // dt.timedelta(microseconds=1)
    return delay_minutes(delta_us), status


def parse_events(stream) -> tuple[EventColumns, list[RejectedRow]]:
    """Parse a realization CSV stream into event columns plus a rejects report.

    Accepts a text stream or a path. A row is rejected, with the first reason
    that applies, for a wrong field count, an unknown activity code, a
    timestamp that does not parse, timestamps of which only one has a UTC
    offset, or a date that does not parse; rejects keep file order. A missing
    or bad header, a byte that is not UTF-8 or a row the csv module refuses raises
    InputError.
    """
    if isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__"):
        with open(stream, "r", encoding="utf-8", newline="") as fh:
            return parse_events(fh)

    what = f"realization {getattr(stream, 'name', '<realization>')}"
    reader = _checked_rows(csv.reader(stream), what)
    header = next(reader, None)
    if header is None:
        raise InputError(f"{what} line 1: no header row")
    if [h.strip() for h in header] != REALIZATION_HEADER:
        raise InputError(f"{what} line 1: unexpected header {header!r}")

    columns = [_Column(), _Column(_is_date), _Column(), _Column(ACTIVITY_CODES.__contains__)]
    parts: list[tuple[np.ndarray, ...]] = []
    rejects: list[RejectedRow] = []
    while rows := list(itertools.islice(reader, CHUNK_ROWS)):
        reason = np.full(len(rows), _FIELDS)
        whole = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows)) == len(REALIZATION_HEADER)
        if whole.any():
            good = list(itertools.compress(rows, whole))
            fields = [list(map(operator.itemgetter(f), good)) for f in range(len(REALIZATION_HEADER))]
            codes = [col.encode(values) for col, values in zip(columns, fields)]
            delays, status = _delays(fields[4], fields[5])
            date_ok = np.array(columns[1].valid)[codes[1]]
            activity_ok = np.array(columns[3].valid)[codes[3]]
            reason[whole] = np.select(
                [~activity_ok, status > 0, ~date_ok], [_ACTIVITY, status, _DATE], 0
            )
            keep = reason[whole] == 0
            parts.append(tuple(c[keep] for c in codes) + (delays[keep],))
        rejects.extend(
            RejectedRow(",".join(rows[i]), REJECT_REASONS[reason[i] - 1])
            for i in np.flatnonzero(reason).tolist()
        )
    train, date, station, activity, delay = (
        np.concatenate([np.empty(0, dtype=dtype), *(p[f] for p in parts)])
        for f, dtype in enumerate((np.int32,) * 4 + (np.int64,))
    )
    trains, dates, stations, activities = (col.values for col in columns)
    return EventColumns(
        trains, dates, stations, activities, train, date, station, activity, delay
    ), rejects


def load_timetable(stream) -> dict[str, JourneyTemplate]:
    """Read the timetable CSV into one journey template per train."""
    if isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__"):
        with open(stream, "r", encoding="utf-8", newline="") as fh:
            return load_timetable(fh)
    name = getattr(stream, "name", "<timetable>")
    reader = csv.reader(stream)
    rows_read = _checked_rows(reader, f"timetable {name}")

    def error(reason: str) -> InputError:
        return InputError(f"timetable {name} line {reader.line_num}: {reason}")

    header = next(rows_read, None)
    if header is None or [h.strip() for h in header] != TIMETABLE_HEADER:
        raise error(f"unexpected header {header!r}")
    rows: dict[str, list[tuple[int, StationKey, dt.datetime]]] = {}
    seen: set[tuple[str, StationKey]] = set()
    for row in rows_read:
        if len(row) != len(TIMETABLE_HEADER):
            raise error(f"expected {len(TIMETABLE_HEADER)} fields, got {len(row)}")
        train_id, station, activity, planned, seq = (f.strip() for f in row)
        try:
            entry = (int(seq), StationKey(station, activity), _parse_timestamp(planned))
        except ValueError as exc:
            raise error(str(exc)) from None
        if (train_id, entry[1]) in seen:
            raise error(f"train {train_id} visits {station}/{activity} twice; loop lines are not supported")
        seen.add((train_id, entry[1]))
        entries = rows.setdefault(train_id, [])
        if entries and (entries[0][2].tzinfo is None) != (entry[2].tzinfo is None):
            raise error(f"train {train_id} mixes planned times with and without a UTC offset")
        entries.append(entry)
    templates = {}
    for train_id, entries in rows.items():
        entries.sort(key=lambda e: e[0])
        _, keys, planned = zip(*entries)
        try:
            templates[train_id] = JourneyTemplate(train_id, keys, planned)
        except ValueError as exc:
            raise InputError(f"timetable {name} train {train_id}: {exc}") from None
    return templates


def _ranks(values: list[str]) -> np.ndarray:
    """The rank of each value in sorted order, indexed by its position."""
    ranks = np.empty(len(values), dtype=np.intp)
    ranks[sorted(range(len(values)), key=values.__getitem__)] = np.arange(len(values))
    return ranks


def _group_starts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the rows that open a run of equal keys in sorted arrays."""
    starts = np.zeros(len(keys[0]), dtype=bool)
    starts[:1] = True
    for key in keys:
        starts[1:] |= key[1:] != key[:-1]
    return starts


def assemble_series(
    events: EventColumns, templates: dict[str, JourneyTemplate], config: RunConfig
) -> tuple[dict, list[RejectedRow]]:
    """Order the events along their trains' templates into the store's trains table.

    Each train gets its template's stations and planned times and one series
    per date, in sorted date order. A date missing any template station is
    truncated at the first gap. A repeated (date, station, activity) event
    keeps its first row and rejects the others as duplicates. Delays outside
    [-N, N], N = `config.n_max`, either saturate to the bound (counted per
    series) or, when `config.clip_mode` is "drop", truncate the series before
    the offending station.
    Every event of a train without a template is rejected first, in event
    order, as ``train,date``. The other rejects follow per sorted train:
    off-template and duplicate events in event order, then each date with no
    usable stations in sorted order.
    """
    known = np.array([tid in templates for tid in events.trains], dtype=bool)[events.train]
    # the known train codes that occur, sorted; a plain np.unique would import numpy.ma
    present = np.flatnonzero(np.bincount(events.train[known])).tolist()

    # template position of each distinct (train, station, activity), -1 off the
    # template or for a train without one
    n_act = len(events.activities)
    triples, inverse = np.unique(
        (events.train.astype(np.int64) * len(events.stations) + events.station) * n_act
        + events.activity,
        return_inverse=True,
    )
    key_train, rest = np.divmod(triples, len(events.stations) * n_act)
    key_station, key_activity = np.divmod(rest, n_act)
    positions = {code: {k: i for i, k in enumerate(templates[events.trains[code]].keys)}
                 for code in present}
    where = np.array([
        positions.get(t, {}).get(StationKey(events.stations[s], events.activities[a]), -1)
        for t, s, a in zip(key_train.tolist(), key_station.tolist(), key_activity.tolist())
    ], dtype=np.intp)
    pos = where[inverse]

    train = _ranks(events.trains)[events.train]
    date = _ranks(events.dates)[events.date]
    order = np.lexsort((pos, date, train))  # stable: ties keep file order
    repeat = ~_group_starts(train[order], date[order], pos[order]) & (pos[order] >= 0)
    rejected = np.zeros(len(events), dtype=bool)
    rejected[order[repeat]] = True
    rejected |= (pos < 0) & known

    # kept events sorted by (train, date, station); a series is the run of
    # positions 0, 1, 2, .. up to its first gap, or in drop mode its first
    # out-of-range delay
    kept = order[(pos[order] >= 0) & ~repeat]
    opens = _group_starts(train[kept], date[kept])
    group = np.cumsum(opens) - 1
    first = np.flatnonzero(opens)
    delay = events.delay[kept]
    outside = np.abs(delay) > config.n_max
    stop = pos[kept] != np.arange(len(kept)) - first[group]
    if config.clip_mode == "drop":
        stop |= outside
    stops = np.cumsum(stop)
    usable = stops - (stops - stop)[first][group] == 0
    lengths = np.bincount(group[usable], minlength=len(first))
    clipped = np.bincount(group[usable & outside], minlength=len(first))
    delays = np.clip(delay[usable], -config.n_max, config.n_max).tolist()

    trains = {}
    for tid in sorted(events.trains[c] for c in present):
        template = templates[tid]
        trains[tid] = {
            "stations": [[k.station_code, k.activity] for k in template.keys],
            "planned": [p.isoformat() for p in template.planned],
            "series": [],
        }
    heads = kept[first]  # one event of each (train, date)
    offsets = np.concatenate([[0], np.cumsum(lengths)]).tolist()
    for g, (t, d, c) in enumerate(zip(events.train[heads].tolist(),
                                      events.date[heads].tolist(), clipped.tolist())):
        if offsets[g] < offsets[g + 1]:
            trains[events.trains[t]]["series"].append(
                {"date": events.dates[d], "delays": delays[offsets[g]:offsets[g + 1]],
                 "clipped": c})

    # unknown trains' events in event order; then per train: rejected events
    # in event order, then the empty dates in date order
    unknown = np.flatnonzero(~known)
    rows = np.flatnonzero(rejected)
    empty = heads[lengths == 0]
    report = np.lexsort((
        np.concatenate([rows, date[empty]]),
        np.concatenate([np.zeros(len(rows), dtype=np.intp), np.ones(len(empty), dtype=np.intp)]),
        np.concatenate([train[rows], train[empty]]),
    ))
    rejects = [
        RejectedRow(f"{events.trains[t]},{events.dates[d]},{events.stations[s]},"
                    f"{events.activities[a]}", "station not in template" if p < 0 else "duplicate event")
        for t, d, s, a, p in zip(events.train[rows].tolist(), events.date[rows].tolist(),
                                 events.station[rows].tolist(), events.activity[rows].tolist(),
                                 pos[rows].tolist())
    ] + [
        RejectedRow(f"{events.trains[t]},{events.dates[d]}", "no usable stations")
        for t, d in zip(events.train[empty].tolist(), events.date[empty].tolist())
    ]
    return trains, [
        RejectedRow(f"{events.trains[t]},{events.dates[d]}", "train not in timetable")
        for t, d in zip(events.train[unknown].tolist(), events.date[unknown].tolist())
    ] + [rejects[i] for i in report.tolist()]


def write_rejects(rejects: list[RejectedRow], path) -> None:
    """Write the rejects report as a CSV of original row + reason."""
    with open_output(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row", "reason"])
        for r in rejects:
            w.writerow([r.row, r.reason])
