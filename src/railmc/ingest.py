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
UTC offset when its train's first time has none (or the reverse). So does a
byte that is not UTF-8, in either file.

Each file is read once, as bytes in blocks of whole records of about
BLOCK_BYTES; a pipe is read the same way and never copied, and a text stream
is read BLOCK_BYTES characters at a time and encoded as UTF-8. A block is
checked for UTF-8 before any of its records is read, so of several faults in
a file the one in the earliest block is named, and within one block a byte
that is not UTF-8 comes first. The unterminated last record of a file is a
block of its own. Realization blocks become columns. A block without a quote
byte is split on its bytes where csv.reader splits unquoted text: records at
LF, CRLF or a lone CR, fields at commas. Only each block's distinct train,
date, station and activity values are decoded, then stripped and checked
once each; timestamps in the exact ``YYYY-MM-DDTHH:MM:SS`` form are
converted by numpy from their digit bytes. Only other timestamps and
rejected rows become strings. From the first block that holds a quote byte
on, since quoting can put commas and line breaks inside a field, csv.reader
reads the decoded lines of that block and every later one, split as text
opened with newline="" is, and feeds the same columns. The timetable is read
by csv.reader from the same lines. Any timestamp that is not canonical goes
through ``datetime.fromisoformat``, so both forms accept the same strings.
Series are then aligned with one sort and a few array masks, never with a
Python object per row, and returned as columns (per series its train code,
date, length and clipped count, then all delays), which `pipeline.build_store`
lays out as the `Store`; ingest builds no store document.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

BLOCK_BYTES = 1 << 18  # input bytes read, and tokenized, at once
_KEY_BYTES = 64  # a code field any wider is keyed by its Python string

# The canonical timestamp YYYY-MM-DDTHH:MM:SS: the least and greatest code of each character.
_LEAST, _GREATEST = (np.frombuffer(form, dtype=np.uint8)
                     for form in (b"0000-00-00T00:00:00", b"9999-99-99T99:99:99"))
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


def _checked_rows(reader, what: str, first: int = 1) -> Iterator[list[str]]:
    """The rows of a csv.reader over an input file's lines from line `first`
    on. A row the csv module refuses (a field over its size limit, say)
    raises InputError naming the file and line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise InputError(f"{what} line {first - 1 + reader.line_num}: {exc}") from None


def _parse_timestamp(raw: str) -> dt.datetime:
    return dt.datetime.fromisoformat(raw.strip())


def _is_date(value: str) -> bool:
    try:
        dt.date.fromisoformat(value)
    except ValueError:
        return False
    return True


class _Column:
    """Codes of one string column: each distinct stripped value is numbered
    once, and `check` judges it once."""

    def __init__(self, check=lambda value: True) -> None:
        self.values: list[str] = []
        self.valid: list[bool] = []
        self._check = check
        self._code: dict[str, int] = {}

    def codes(self, distinct: list[str]) -> np.ndarray:
        """The code of each distinct raw value, numbering new stripped values in order."""
        stripped = [raw.strip() for raw in distinct]
        for value in stripped:
            if value not in self._code:
                self._code[value] = len(self.values)
                self.values.append(value)
                self.valid.append(self._check(value))
        return np.array([self._code[value] for value in stripped], dtype=np.int32)


class _Rows(NamedTuple):
    """One block of realization records, tokenized. Only the six-field
    records have columns; `fields` counts the fields of every record."""

    fields: np.ndarray
    codes: list[tuple[list[str], np.ndarray]]  # per code column: distinct raw values, row indexes
    stamps: tuple[np.ndarray, np.ndarray]  # (2n, 19) codes and lengths: n planned, then n realized
    stamp: Callable[[int, int], str]  # the text of timestamp column c (0 planned) of six-field row i
    record: Callable[[int], str]  # the text of record i, its fields joined by commas


def _first_seen(values: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct values in first-appearance order, and each value's index into them."""
    index = {value: i for i, value in enumerate(dict.fromkeys(values))}
    return list(index), np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))


def _canonical_seconds(chars: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Seconds since 1970 of each timestamp in the exact form
    YYYY-MM-DDTHH:MM:SS with in-range fields, and the mask of those, from the
    (n, 19) codes of each timestamp's first 19 characters and its length;
    every other timestamp (another ISO form, a UTC offset, whitespace) reads 0 here."""
    ok = (lengths == 19) & ((chars >= _LEAST) & (chars <= _GREATEST)).all(axis=1)
    digits = np.subtract(chars, ord("0"), dtype=np.int32)
    year = digits[:, :4] @ np.array([1000, 100, 10, 1], dtype=np.int32)
    month, day, hour, minute, second = (digits[:, 5:18:3] * 10 + digits[:, 6:19:3]).T
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


def _delays(rows: _Rows) -> tuple[np.ndarray, np.ndarray]:
    """Delay minutes per six-field row, and 0 or the reject code of a row
    whose timestamps do not parse or mix a UTC offset with none."""
    seconds, ok = _canonical_seconds(*rows.stamps)
    n = len(seconds) // 2
    delta_us = (seconds[n:] - seconds[:n]) * 1_000_000
    status = np.zeros(n, dtype=np.intp)
    for i in np.flatnonzero(~(ok[:n] & ok[n:])).tolist():
        try:
            p_ts, r_ts = _parse_timestamp(rows.stamp(0, i)), _parse_timestamp(rows.stamp(1, i))
        except ValueError:
            status[i] = _TIMESTAMP
            continue
        if (p_ts.tzinfo is None) != (r_ts.tzinfo is None):
            status[i] = _TIMEZONE
            continue
        delta_us[i] = (r_ts - p_ts) // dt.timedelta(microseconds=1)
    return delay_minutes(delta_us), status


def _text_rows(lines: Iterator[str], line: int, what: str) -> Iterator:
    """Realization records as csv.reader reads them from `lines`, the first
    being line `line`, in blocks of about BLOCK_BYTES characters; from line 1,
    the header (None if there is none) comes first."""
    read = 0

    def counted():
        nonlocal read
        for text in lines:
            read += len(text)
            yield text

    rows = _checked_rows(csv.reader(counted()), what, line)
    if line == 1:
        yield next(rows, None)
    while True:
        block, read = [], 0
        for row in rows:
            block.append(row)
            if read >= BLOCK_BYTES:
                break
        if not block:
            return
        fields = np.fromiter(map(len, block), dtype=np.intp, count=len(block))
        good = list(itertools.compress(block, fields == len(REALIZATION_HEADER)))
        columns = [list(map(operator.itemgetter(f), good)) for f in range(len(REALIZATION_HEADER))]
        stamps = columns[4] + columns[5]
        # a longer string is cut to 19 characters, but its length fails the check
        yield _Rows(fields, [_first_seen(c) for c in columns[:4]],
                    (np.array(stamps, dtype="U19").view(np.int32).reshape(-1, 19),
                     np.fromiter(map(len, stamps), dtype=np.intp, count=len(stamps))),
                    lambda c, i, columns=columns: columns[4 + c][i],
                    lambda i, block=block: ",".join(block[i]))


def _whole_records(stream) -> Iterator[bytes]:
    """A binary or text stream's bytes in blocks that end where a record
    does: each holds the whole records of about BLOCK_BYTES bytes, and the
    unterminated last record is a block of its own. A text stream is read
    BLOCK_BYTES characters at a time and encoded as UTF-8."""
    text = isinstance(stream, io.TextIOBase)
    rest: list[bytes] = []
    while block := stream.read(BLOCK_BYTES):
        if text:
            block = block.encode()
        # after the last LF, or the last CR whose next byte is known
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)) + 1
        if cut:
            yield b"".join([*rest, block[:cut]])
            rest = [block[cut:]]
        else:
            rest.append(block)
    if last := b"".join(rest):
        yield last


def _decoded(data: bytes, line: int, what: str) -> str:
    """A block of whole records as text. A byte that is not UTF-8 raises
    InputError naming its line, the block's first being `line`."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        before = data[:exc.start]  # its records' line breaks, counted as csv counts lines
        line += before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise InputError(f"{what} line {line}: not UTF-8 text "
                         f"(byte 0x{data[exc.start]:02x}: {exc.reason})") from None


def _lines(blocks: Iterator[bytes], line: int, what: str) -> Iterator[str]:
    """The lines of blocks of whole records, the first block's first being
    line `line`: each block decoded, then split as text opened with
    newline="" is, every line keeping its LF, CRLF or lone CR."""
    for data in blocks:
        lines = io.StringIO(_decoded(data, line, what), newline="").readlines()
        line += len(lines)
        yield from lines


def _record_bounds(buf: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The start and end offset of each record in a block of `size` bytes: a
    record ends at LF, CRLF or a lone CR, as csv.reader reads text opened
    with newline=""."""
    cr = np.flatnonzero(buf == ord("\r")).astype(np.int32)
    lf = np.flatnonzero(buf == ord("\n")).astype(np.int32)
    paired = buf[cr + 1] == ord("\n")  # the CR of a CRLF
    lone = buf[np.maximum(lf - 1, 0)] != ord("\r")  # an LF not after a CR
    end = np.sort(np.concatenate([cr, lf[lone]]))
    start = np.sort(np.concatenate([np.array([-1], dtype=np.int32), cr[~paired], lf])) + 1
    if start[-1] < size:  # a last record without a terminator
        return start, np.append(end, np.int32(size))
    return start[:-1], end


def _check_widths(data: bytes, start: np.ndarray, end: np.ndarray, line: int, what: str) -> None:
    """Raise InputError at the first of these records, numbered from `line`,
    with a field of more characters than csv accepts."""
    limit = csv.field_size_limit()
    for i in np.flatnonzero(end - start > limit).tolist():
        if max(map(len, data[start[i]:end[i]].decode().split(","))) > limit:
            raise InputError(f"{what} line {line + i}: field larger than field limit ({limit})")


def _byte_distinct(data: bytes, buf: np.ndarray, start: np.ndarray, end: np.ndarray):
    """`_first_seen` of the fields data[start:end], decoded, found on their
    bytes: only each distinct value is decoded."""
    length = end - start
    width = int(length.max(initial=0))
    if width > _KEY_BYTES:
        return _first_seen([data[a:b].decode() for a, b in zip(start.tolist(), end.tolist())])
    # one key per field: its bytes, zeros after them, and its length in the
    # last byte, so that those zeros are not taken for NUL bytes
    keys = np.zeros((len(start), max(8, width + 1)), dtype=np.uint8)
    keys[:, :width] = sliding_window_view(buf, width)[start]
    keys[:, :width][np.arange(width) >= length[:, None]] = 0
    keys[:, -1] = length
    key = keys.view(np.uint64 if keys.shape[1] == 8 else f"V{keys.shape[1]}").ravel()
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    seen = first[order]
    return [data[a:b].decode() for a, b in zip(start[seen].tolist(), end[seen].tolist())], rank[inverse]


def _byte_block(data: bytes, buf: np.ndarray, start: np.ndarray, end: np.ndarray,
                commas: np.ndarray) -> _Rows:
    """The records data[start:end] of a quote-free block, split at commas."""
    first = np.searchsorted(commas, start)  # each record's first comma
    # a blank record counts one field here, none in csv.reader: not six either way
    fields = np.searchsorted(commas, end) - first + 1
    whole = np.flatnonzero(fields == len(REALIZATION_HEADER))
    c = first[whole]
    starts = [start[whole], *(commas[c + k] + 1 for k in range(5))]
    ends = [*(commas[c + k] for k in range(5)), end[whole]]
    stamps = np.concatenate(starts[4:])  # planned, then realized
    return _Rows(
        fields,
        [_byte_distinct(data, buf, s, e) for s, e in zip(starts[:4], ends[:4])],
        # 19 canonical characters are 19 ASCII bytes, so bytes decide as characters do
        (sliding_window_view(buf, 19)[stamps], np.concatenate(ends[4:]) - stamps),
        lambda c, i: data[starts[4 + c][i]:ends[4 + c][i]].decode(),
        lambda i: data[start[i]:end[i]].decode(),
    )


def _byte_rows(stream, what: str) -> Iterator:
    """The header of a realization stream (None if it is empty), then its
    records in blocks: split on the bytes where csv.reader splits unquoted
    text up to the first block that holds a quote byte, and read by
    csv.reader from that block on."""
    blocks = _whole_records(stream)
    line = 1  # of the block's first record
    for data in blocks:
        if b'"' in data:
            # quoting can put commas and line breaks inside a field: only csv reads it
            yield from _text_rows(_lines(itertools.chain([data], blocks), line, what), line, what)
            return
        if not data.isascii():
            _decoded(data, line, what)  # only to name a byte that is not UTF-8
        # zero bytes after the block: a key or timestamp window from any field start fits
        buf = np.frombuffer(data + bytes(_KEY_BYTES), dtype=np.uint8)
        start, end = _record_bounds(buf, len(data))
        if line == 1:
            _check_widths(data, start[:1], end[:1], line, what)
            header = data[start[0]:end[0]].decode()
            yield header.split(",") if header else []
            start, end, line = start[1:], end[1:], 2
        _check_widths(data, start, end, line, what)
        yield _byte_block(data, buf, start, end, np.flatnonzero(buf == ord(",")).astype(np.int32))
        line += len(start)
    if line == 1:
        yield None


def _events(rows: Iterator, what: str) -> tuple[EventColumns, list[RejectedRow]]:
    """Event columns and parse rejects from a header, then blocks of `_Rows`."""
    header = next(rows)
    if header is None:
        raise InputError(f"{what} line 1: no header row")
    if [h.strip() for h in header] != REALIZATION_HEADER:
        raise InputError(f"{what} line 1: unexpected header {header!r}")

    columns = [_Column(), _Column(_is_date), _Column(), _Column(ACTIVITY_CODES.__contains__)]
    parts: list[tuple[np.ndarray, ...]] = []
    rejects: list[RejectedRow] = []
    for block in rows:
        reason = np.full(len(block.fields), _FIELDS)
        whole = block.fields == len(REALIZATION_HEADER)
        if whole.any():
            codes = [col.codes(distinct)[index] for col, (distinct, index) in zip(columns, block.codes)]
            delays, status = _delays(block)
            date_ok = np.array(columns[1].valid)[codes[1]]
            activity_ok = np.array(columns[3].valid)[codes[3]]
            reason[whole] = np.select(
                [~activity_ok, status > 0, ~date_ok], [_ACTIVITY, status, _DATE], 0
            )
            keep = reason[whole] == 0
            parts.append(tuple(c[keep] for c in codes) + (delays[keep],))
        rejects.extend(
            RejectedRow(block.record(i), REJECT_REASONS[reason[i] - 1])
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


def parse_events(stream) -> tuple[EventColumns, list[RejectedRow]]:
    """Parse a realization CSV into event columns plus a rejects report.

    Accepts a path, a binary stream or a text stream, read once in blocks of
    whole records (see `_whole_records` and `_byte_rows`). A row is rejected,
    with the first reason that applies, for a wrong field count, an unknown
    activity code, a timestamp that does not parse, timestamps of which only
    one has a UTC offset, or a date that does not parse; rejects keep file
    order. A missing or bad header, a byte that
    is not UTF-8 or a field over the csv module's size limit raises
    InputError naming the line; of several, the one in the earliest block,
    and within a block a byte that is not UTF-8.
    """
    if isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__"):
        with open(stream, "rb") as fh:
            return parse_events(fh)

    what = f"realization {getattr(stream, 'name', '<realization>')}"
    return _events(_byte_rows(stream, what), what)


def load_timetable(stream) -> dict[str, JourneyTemplate]:
    """Read the timetable CSV into one journey template per train.

    Accepts a path, a binary stream or a text stream, read once in blocks of
    whole records (see `_whole_records`) whose lines csv.reader reads. A
    missing or bad header, a malformed row, a row that repeats its train's
    (station, activity) key or mixes planned times with and without a UTC
    offset, a byte that is not UTF-8 or a field over the csv module's size
    limit raises InputError naming the line; of several, the one in the
    earliest block, and within a block a byte that is not UTF-8.
    """
    if isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__"):
        with open(stream, "rb") as fh:
            return load_timetable(fh)

    what = f"timetable {getattr(stream, 'name', '<timetable>')}"
    reader = csv.reader(_lines(_whole_records(stream), 1, what))
    rows_read = _checked_rows(reader, what)

    def error(reason: str) -> InputError:
        return InputError(f"{what} line {reader.line_num}: {reason}")

    header = next(rows_read, None)
    if header is None:
        raise InputError(f"{what} line 1: no header row")
    if [h.strip() for h in header] != TIMETABLE_HEADER:
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
            raise InputError(f"{what} train {train_id}: {exc}") from None
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
) -> tuple[tuple, list[RejectedRow]]:
    """Order the events along their trains' templates into the series columns
    that `pipeline.build_store` lays out: the template of each train with events
    and a template, in sorted train order, even one whose dates are all
    rejected; per series, by train and then by sorted date, its train code into
    those templates, date, length and clipped count; then every delay, series
    after series. A date missing any template station is truncated at the
    first gap. A repeated (date, station, activity) event keeps its first row
    and rejects the others as duplicates. Delays outside [-N, N], N =
    `config.n_max`, either saturate to the bound (counted per series) or, when
    `config.clip_mode` is "drop", truncate the series before the offending
    station.
    Every event of a train without a template is rejected first, in event
    order, as ``train,date``. The other rejects follow per sorted train:
    off-template and duplicate events in event order, then each date with no
    usable stations in sorted order.
    """
    known = np.array([tid in templates for tid in events.trains], dtype=bool)[events.train]
    # the known train codes that occur, in sorted train order; a plain
    # np.unique would import numpy.ma
    present = sorted(np.flatnonzero(np.bincount(events.train[known])).tolist(),
                     key=events.trains.__getitem__)

    # template position of each distinct (train, station, activity) code, -1
    # off the template or for a train without one: the present trains'
    # template entries are coded the same way and looked up in one search
    n_station, n_act = len(events.stations), len(events.activities)
    triples, inverse = np.unique(
        (events.train.astype(np.int64) * n_station + events.station) * n_act + events.activity,
        return_inverse=True,
    )
    station_code = {s: i for i, s in enumerate(events.stations)}
    activity_code = {a: i for i, a in enumerate(events.activities)}
    entries = [(c, i, station_code.get(k.station_code, -1), activity_code.get(k.activity, -1))
               for c in present for i, k in enumerate(templates[events.trains[c]].keys)]
    key_train, key_pos, key_station, key_activity = np.array(entries, dtype=np.int64).reshape(-1, 4).T
    codes = (key_train * n_station + key_station) * n_act + key_activity
    at = np.searchsorted(triples, codes)
    hit = (key_station >= 0) & (key_activity >= 0) & (at < len(triples))
    hit[hit] = triples[at[hit]] == codes[hit]
    where = np.full(len(triples), -1, dtype=np.intp)
    where[at[hit]] = key_pos[hit]
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

    heads = kept[first]  # one event of each (train, date)
    some = lengths > 0
    code = np.zeros(len(events.trains), dtype=np.int64)
    code[present] = np.arange(len(present))
    columns = ([templates[events.trains[c]] for c in present], code[events.train[heads[some]]],
               [events.dates[d] for d in events.date[heads[some]].tolist()], lengths[some],
               clipped[some], np.clip(delay[usable], -config.n_max, config.n_max))

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
    return columns, [
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
