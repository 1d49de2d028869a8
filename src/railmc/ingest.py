"""Parsing of timetable and realization event logs into aligned delay series.

Canonical CSV formats (UTF-8, comma-separated, header row):

* realization: ``train_id,date,station_code,activity,planned_time,realized_time``
  with ISO-8601 timestamps at seconds resolution;
* timetable:   ``train_id,station_code,activity,planned_time,sequence``.

Arrival and departure at the same physical station are distinct stations, so
the alignment key is (station_code, activity). Malformed realization rows
are collected into a rejects report, never silently dropped, and so is every
repeat of a (train, date, station, activity) event after its first row. A bad
realization header, or a malformed timetable row, raises IngestError naming
the file and line; so does a timetable row that repeats its train's
(station, activity) key, since a loop line cannot be aligned by that key.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import warnings
from dataclasses import dataclass, field

from .core import DelaySeries, StateSpace

__all__ = [
    "ACTIVITY_CODES",
    "RealizationEvent",
    "StationKey",
    "JourneyTemplate",
    "RejectedRow",
    "NoTargetError",
    "IngestError",
    "parse_events",
    "load_timetable",
    "compute_delay_minutes",
    "assemble_series",
    "select_target_station",
    "write_rejects",
]

ACTIVITY_CODES = ("V", "D", "A", "KV", "KA")

REALIZATION_HEADER = ["train_id", "date", "station_code", "activity", "planned_time", "realized_time"]
TIMETABLE_HEADER = ["train_id", "station_code", "activity", "planned_time", "sequence"]


@dataclass(frozen=True)
class StationKey:
    """Alignment key: the same station with different activities is two keys."""

    station_code: str
    activity: str

    def __post_init__(self) -> None:
        if self.activity not in ACTIVITY_CODES:
            raise ValueError(f"unknown activity {self.activity!r}")


@dataclass(frozen=True)
class RealizationEvent:
    train_id: str
    date: str
    station_code: str
    activity: str
    planned_time: dt.datetime
    realized_time: dt.datetime

    @property
    def key(self) -> StationKey:
        return StationKey(self.station_code, self.activity)


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


@dataclass(frozen=True)
class RejectedRow:
    row: str
    reason: str


class NoTargetError(ValueError):
    """No station after the current one exists to predict."""


class IngestError(ValueError):
    """An input CSV has a bad header or timetable row; the message names file and line."""


def _parse_timestamp(raw: str) -> dt.datetime:
    return dt.datetime.fromisoformat(raw.strip())


def parse_events(stream) -> tuple[list[RealizationEvent], list[RejectedRow]]:
    """Parse a realization CSV stream into events plus a rejects report.

    Accepts a text stream, a byte stream, or a path. Unknown activity codes
    and unparseable timestamps reject the row with a reason; a bad header
    raises IngestError.
    """
    if isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__"):
        with open(stream, "r", encoding="utf-8", newline="") as fh:
            return parse_events(fh)
    if isinstance(stream, io.BufferedIOBase) or (
        hasattr(stream, "read") and isinstance(stream.read(0), bytes)
    ):
        stream = io.TextIOWrapper(stream, encoding="utf-8")

    name = getattr(stream, "name", "<realization>")
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        warnings.warn("empty realization file")
        return [], []
    if [h.strip() for h in header] != REALIZATION_HEADER:
        raise IngestError(f"realization {name} line 1: unexpected header {header!r}")

    events: list[RealizationEvent] = []
    rejects: list[RejectedRow] = []
    for row in reader:
        raw = ",".join(row)
        if len(row) != len(REALIZATION_HEADER):
            rejects.append(RejectedRow(raw, "wrong field count"))
            continue
        train_id, date, station, activity, planned, realized = (f.strip() for f in row)
        if activity not in ACTIVITY_CODES:
            rejects.append(RejectedRow(raw, "unknown activity"))
            continue
        try:
            planned_ts = _parse_timestamp(planned)
            realized_ts = _parse_timestamp(realized)
        except ValueError:
            rejects.append(RejectedRow(raw, "unparseable timestamp"))
            continue
        try:
            dt.date.fromisoformat(date)
        except ValueError:
            rejects.append(RejectedRow(raw, "unparseable date"))
            continue
        events.append(
            RealizationEvent(train_id, date, station, activity, planned_ts, realized_ts)
        )
    return events, rejects


def load_timetable(stream) -> dict[str, JourneyTemplate]:
    """Read the timetable CSV into one journey template per train."""
    if isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__"):
        with open(stream, "r", encoding="utf-8", newline="") as fh:
            return load_timetable(fh)
    name = getattr(stream, "name", "<timetable>")
    reader = csv.reader(stream)

    def error(reason: str) -> IngestError:
        return IngestError(f"timetable {name} line {reader.line_num}: {reason}")

    header = next(reader, None)
    if header is None or [h.strip() for h in header] != TIMETABLE_HEADER:
        raise error(f"unexpected header {header!r}")
    rows: dict[str, list[tuple[int, StationKey, dt.datetime]]] = {}
    seen: set[tuple[str, StationKey]] = set()
    for row in reader:
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
        rows.setdefault(train_id, []).append(entry)
    templates = {}
    for train_id, entries in rows.items():
        entries.sort(key=lambda e: e[0])
        _, keys, planned = zip(*entries)
        try:
            templates[train_id] = JourneyTemplate(train_id, keys, planned)
        except ValueError as exc:
            raise IngestError(f"timetable {name} train {train_id}: {exc}") from None
    return templates


def compute_delay_minutes(planned: dt.datetime, realized: dt.datetime) -> int:
    """Lateness in whole minutes, rounded half away from zero."""
    minutes = (realized - planned).total_seconds() / 60.0
    return int(math.floor(minutes + 0.5)) if minutes >= 0 else int(math.ceil(minutes - 0.5))


def assemble_series(
    events: list[RealizationEvent],
    template: JourneyTemplate,
    space: StateSpace,
    clip_mode: str = "saturate",
) -> tuple[list[DelaySeries], list[RejectedRow]]:
    """Order one train's events along the template and emit per-date series.

    A date missing any template station is truncated at the first gap. A
    repeated (date, station, activity) event keeps its first row and rejects
    the others as duplicates. Delays outside [-N, N] either saturate to the
    bound (counted per series) or, in ``clip_mode="drop"``, truncate the
    series before the offending station.
    """
    if clip_mode not in ("saturate", "drop"):
        raise ValueError(f"unknown clip mode {clip_mode!r}")
    rejects: list[RejectedRow] = []
    by_date: dict[str, dict[StationKey, RealizationEvent]] = {}
    key_set = set(template.keys)
    for ev in events:
        if ev.train_id != template.train_id:
            raise ValueError(f"event for train {ev.train_id} against template {template.train_id}")
        if ev.key not in key_set:
            reason = "station not in template"
        elif ev.key in by_date.get(ev.date, {}):
            reason = "duplicate event"
        else:
            by_date.setdefault(ev.date, {})[ev.key] = ev
            continue
        rejects.append(
            RejectedRow(f"{ev.train_id},{ev.date},{ev.station_code},{ev.activity}", reason)
        )

    series: list[DelaySeries] = []
    for date in sorted(by_date):
        evs = by_date[date]
        delays: list[int] = []
        clipped = 0
        for key in template.keys:
            ev = evs.get(key)
            if ev is None:
                break  # canceled or partial journey: truncate at the gap
            d = compute_delay_minutes(ev.planned_time, ev.realized_time)
            if not space.contains(d):
                if clip_mode == "drop":
                    break
                d = space.clip(d)
                clipped += 1
            delays.append(d)
        if delays:
            series.append(
                DelaySeries(template.train_id, date, tuple(delays), clipped=clipped)
            )
        else:
            rejects.append(RejectedRow(f"{template.train_id},{date}", "no usable stations"))
    return series, rejects


def select_target_station(template: JourneyTemplate, current_index: int, horizon: dt.timedelta) -> int:
    """First station planned at least `horizon` after the current one.

    Falls back to the last station when the horizon outruns the journey;
    raises NoTargetError when the current station is already the last or
    lies outside the template.
    """
    if not 1 <= current_index <= len(template):
        raise NoTargetError(f"station index {current_index} outside template")
    if horizon <= dt.timedelta(0):
        raise ValueError("horizon must be positive")
    if current_index == len(template):
        raise NoTargetError("current station is the final station")
    cutoff = template.planned[current_index - 1] + horizon
    for t in range(current_index + 1, len(template) + 1):
        if template.planned[t - 1] >= cutoff:
            return t
    return len(template)


def write_rejects(rejects: list[RejectedRow], path) -> None:
    """Write the rejects report as a CSV of original row + reason."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row", "reason"])
        for r in rejects:
            w.writerow([r.row, r.reason])
