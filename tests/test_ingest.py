import collections
import csv
import datetime as dt
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railmc import ingest
from railmc.config import RunConfig
from railmc.core import CoverageError, DelaySeries, StateSpace
from railmc.ingest import (
    ACTIVITY_CODES,
    JourneyTemplate,
    RejectedRow,
    StationKey,
    InputError,
    delay_minutes,
    load_timetable,
    parse_events,
    select_target_station,
    write_rejects,
)
from railmc.pipeline import build_store, load_store, save_json, store_series
from railmc.synth import near_diagonal_spec, sample_delays, write_ingest_files

REAL_HEADER = "train_id,date,station_code,activity,planned_time,realized_time\n"
TT_HEADER = "train_id,station_code,activity,planned_time,sequence\n"


def compute_delay_minutes(planned: dt.datetime, realized: dt.datetime) -> int:
    """Lateness in whole minutes, rounded half away from zero, from datetimes:
    the oracle of `ingest.delay_minutes`."""
    minutes = (realized - planned).total_seconds() / 60.0
    return int(math.floor(minutes + 0.5)) if minutes >= 0 else int(math.ceil(minutes - 0.5))


def ts(minute, second=0, hour=12):
    return dt.datetime(2017, 11, 7, hour, minute, second)


def event(station, planned, realized, train="519", date="2017-11-07", activity="V"):
    """One realization CSV row."""
    return f"{train},{date},{station},{activity},{planned.isoformat()},{realized.isoformat()}"


Assembled = collections.namedtuple("Assembled", "date delays clipped")


def assemble(events, tmpl, config):
    """Parse CSV rows and assemble them against one template: the train's
    series as `Assembled` records, and the rejects."""
    parsed, parse_rejects = parse_events(io.StringIO(REAL_HEADER + "\n".join(events) + "\n"))
    assert parse_rejects == []
    store, rejects = build_store({tmpl.train_id: tmpl}, parsed, config)
    series = [
        Assembled(date, tuple(row[:n]), k)
        for date, row, n, k in zip(store.dates, store.delays.tolist(), store.lengths.tolist(),
                                   store.clipped.tolist())
    ]
    return series, rejects


def template(*keys, start=ts(0), gap=dt.timedelta(minutes=7), train="519"):
    return JourneyTemplate(
        train_id=train,
        keys=tuple(StationKey(k, "V") for k in keys),
        planned=tuple(start + gap * i for i in range(len(keys))),
    )


class TestParseEvents:
    def test_single_row(self):
        raw = REAL_HEADER + "519,2017-11-07,Bl,A,2017-11-07T12:00:00,2017-11-07T12:02:30\n"
        events, rejects = parse_events(io.StringIO(raw))
        assert rejects == []
        assert len(events) == 1
        key = StationKey(events.stations[events.station[0]], events.activities[events.activity[0]])
        assert key == StationKey("Bl", "A")
        assert events.delay.tolist() == [3]

    def test_unknown_activity_rejected(self):
        raw = REAL_HEADER + "519,2017-11-07,Bl,Z,2017-11-07T12:00:00,2017-11-07T12:01:00\n"
        events, rejects = parse_events(io.StringIO(raw))
        assert len(events) == 0
        assert rejects[0].reason == "unknown activity"

    def test_mixed_valid_and_malformed(self):
        rows = [
            "519,2017-11-07,A1,V,2017-11-07T12:00:00,2017-11-07T12:01:00",
            "519,2017-11-07,A2,V,2017-11-07T12:07:00,2017-11-07T12:08:00",
            "519,2017-11-07,A3,V,not-a-time,2017-11-07T12:15:00",
            "519,2017-11-07,A4,V,2017-11-07T12:21:00,2017-11-07T12:21:00",
        ]
        events, rejects = parse_events(io.StringIO(REAL_HEADER + "\n".join(rows) + "\n"))
        assert len(events) == 3
        assert len(rejects) == 1 and rejects[0].reason == "unparseable timestamp"

    def test_wrong_field_count(self):
        raw = REAL_HEADER + "519,2017-11-07,Bl,V,2017-11-07T12:00:00\n"
        _events, rejects = parse_events(io.StringIO(raw))
        assert rejects[0].reason == "wrong field count"

    def test_bad_header_raises(self):
        with pytest.raises(InputError, match="realization <realization> line 1: unexpected header"):
            parse_events(io.StringIO("a,b,c\n1,2,3\n"))

    def test_empty_file_raises(self):
        with pytest.raises(InputError, match="^realization <realization> line 1: no header row$"):
            parse_events(io.StringIO(""))

    def test_path_input(self, tmp_path):
        p = tmp_path / "real.csv"
        p.write_text(REAL_HEADER + "519,2017-11-07,Bl,V,2017-11-07T12:00:00,2017-11-07T12:00:00\n")
        events, _ = parse_events(p)
        assert len(events) == 1


class TestDelayRounding:
    @pytest.mark.parametrize(
        "seconds,expected",
        [(150, 3), (-30, -1), (30, 1), (29, 0), (-29, 0), (90, 2), (-90, -2), (0, 0)],
    )
    def test_half_away_from_zero(self, seconds, expected):
        planned = ts(0)
        realized = planned + dt.timedelta(seconds=seconds)
        assert compute_delay_minutes(planned, realized) == expected
        assert delay_minutes(np.array([seconds * 1_000_000])).tolist() == [expected]


class TestLoadTimetable:
    def test_sorts_by_sequence(self):
        rows = [
            "519,B,V,2017-11-07T12:07:00,2",
            "519,A,V,2017-11-07T12:00:00,1",
            "519,C,V,2017-11-07T12:14:00,3",
        ]
        tt = load_timetable(io.StringIO(TT_HEADER + "\n".join(rows) + "\n"))
        assert [k.station_code for k in tt["519"].keys] == ["A", "B", "C"]

    def test_decreasing_planned_times_rejected(self):
        rows = [
            "519,A,V,2017-11-07T12:07:00,1",
            "519,B,V,2017-11-07T12:00:00,2",
        ]
        with pytest.raises(InputError, match="train 519: planned times must be non-decreasing"):
            load_timetable(io.StringIO(TT_HEADER + "\n".join(rows) + "\n"))

    def test_bad_header(self):
        for text, message in [("train,station\n", "line 1: unexpected header ['train', 'station']"),
                              ("", "line 1: no header row")]:
            with pytest.raises(InputError, match=f"^timetable <timetable> {re.escape(message)}$"):
                load_timetable(io.StringIO(text))

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("tail, error", [
        (b"", None), (b"519,\xff\n", "line 3: not UTF-8 text (byte 0xff: invalid start byte)"),
    ], ids=["utf8", "non_utf8"])
    def test_a_path_that_cannot_seek_is_read(self, tail, error):
        # a pipe's path, as /dev/stdin may be: it is read once, a block at a time
        read, write = os.pipe()
        os.write(write, (TT_HEADER + "519,Ütr,V,2017-11-07T12:00:00,1\r\n").encode() + tail)
        os.close(write)
        path = f"/dev/fd/{read}"
        try:
            with mock.patch.object(ingest, "BLOCK_BYTES", 8):
                if error is None:
                    assert load_timetable(path)["519"].keys == (StationKey("Ütr", "V"),)
                else:
                    with pytest.raises(InputError, match=f"^timetable {path} {re.escape(error)}$"):
                        load_timetable(path)
        finally:
            os.close(read)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("block_bytes", [1, 8, 1 << 18])
    def test_every_source_reads_as_a_file(self, tmp_path, block_bytes):
        # lone-CR line ends, a quoted field and a two-byte character, from a
        # pipe's path, a binary stream and a text stream
        data = (TT_HEADER.rstrip("\n") + '\r519,Ütr,V,2017-11-07T12:00:00,1\r'
                '519,"B,l",A,2017-11-07T12:05:00,2\r520,A,V,2017-11-07T13:00:00,1').encode()
        (tmp_path / "timetable.csv").write_bytes(data)
        read, write = os.pipe()
        os.write(write, data)
        os.close(write)
        try:
            with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
                want = load_timetable(tmp_path / "timetable.csv")
                got = [load_timetable(f"/dev/fd/{read}"), load_timetable(io.BytesIO(data)),
                       load_timetable(io.StringIO(data.decode()))]
        finally:
            os.close(read)
        assert want["519"].keys == (StationKey("Ütr", "V"), StationKey("B,l", "A"))
        assert got == [want] * 3


class TestAssembleSeries:
    def test_full_journey(self):
        tmpl = template("A", "B", "C")
        events = [
            event("A", tmpl.planned[0], tmpl.planned[0] + dt.timedelta(minutes=1)),
            event("B", tmpl.planned[1], tmpl.planned[1]),
            event("C", tmpl.planned[2], tmpl.planned[2] - dt.timedelta(minutes=2)),
        ]
        series, rejects = assemble(events, tmpl, RunConfig())
        assert rejects == []
        assert series[0].delays == (1, 0, -2)
        assert series[0].clipped == 0

    def test_gap_truncates(self):
        tmpl = template("A", "B", "C")
        events = [
            event("A", tmpl.planned[0], tmpl.planned[0]),
            event("C", tmpl.planned[2], tmpl.planned[2]),
        ]
        series, _ = assemble(events, tmpl, RunConfig())
        assert series[0].delays == (0,)

    def test_saturate_clip_counts(self):
        tmpl = template("A", "B")
        events = [
            event("A", tmpl.planned[0], tmpl.planned[0] + dt.timedelta(minutes=40)),
            event("B", tmpl.planned[1], tmpl.planned[1]),
        ]
        series, _ = assemble(events, tmpl, RunConfig())
        assert series[0].delays == (15, 0)
        assert series[0].clipped == 1

    def test_drop_mode_truncates_before_outlier(self):
        tmpl = template("A", "B", "C")
        events = [
            event("A", tmpl.planned[0], tmpl.planned[0]),
            event("B", tmpl.planned[1], tmpl.planned[1] + dt.timedelta(minutes=40)),
            event("C", tmpl.planned[2], tmpl.planned[2]),
        ]
        series, _ = assemble(events, tmpl, RunConfig(clip_mode="drop"))
        assert series[0].delays == (0,)
        assert series[0].clipped == 0

    def test_date_with_no_usable_stations_rejected(self):
        tmpl = template("A", "B")
        events = [
            event("B", tmpl.planned[1], tmpl.planned[1]),  # first station missing
        ]
        series, rejects = assemble(events, tmpl, RunConfig())
        assert series == []
        assert rejects[0].reason == "no usable stations"

    def test_off_template_station_rejected(self):
        tmpl = template("A", "B")
        events = [
            event("A", tmpl.planned[0], tmpl.planned[0]),
            event("B", tmpl.planned[1], tmpl.planned[1]),
            event("X", tmpl.planned[1], tmpl.planned[1]),
        ]
        series, rejects = assemble(events, tmpl, RunConfig())
        assert len(series) == 1
        assert rejects[0].reason == "station not in template"

    def test_duplicate_event_keeps_first_row(self):
        # a repeated (date, station, activity) row must not overwrite the first
        tmpl = template("A", "B")
        events = [
            event("A", tmpl.planned[0], tmpl.planned[0] - dt.timedelta(minutes=7)),
            event("B", tmpl.planned[1], tmpl.planned[1]),
            event("A", tmpl.planned[0], tmpl.planned[0] + dt.timedelta(minutes=9)),
        ]
        series, rejects = assemble(events, tmpl, RunConfig())
        assert [s.delays for s in series] == [(-7, 0)]
        assert [(r.row, r.reason) for r in rejects] == [("519,2017-11-07,A,V", "duplicate event")]

    def test_emitted_plus_rejected_covers_all_dates(self):
        tmpl = template("A", "B")
        events = []
        for day in range(1, 6):
            date = f"2017-11-{day:02d}"
            events.append(event("A", tmpl.planned[0], tmpl.planned[0], date=date))
        # one extra date with only the second station (rejected)
        events.append(event("B", tmpl.planned[1], tmpl.planned[1], date="2017-11-09"))
        series, rejects = assemble(events, tmpl, RunConfig())
        dates = {s.date for s in series} | {r.row.split(",")[1] for r in rejects}
        assert dates == {ev.split(",")[1] for ev in events}

    def test_deterministic_order(self):
        tmpl = template("A", "B")
        events = [
            event("A", tmpl.planned[0], tmpl.planned[0], date=d)
            for d in ("2017-11-09", "2017-11-07", "2017-11-08")
        ]
        series, _ = assemble(events, tmpl, RunConfig())
        assert [s.date for s in series] == ["2017-11-07", "2017-11-08", "2017-11-09"]

    def test_unknown_train_rejected_first(self):
        # "B" has no template and sorts between "A" and "C", but its rows come
        # first, in event order (dates 08, 07, 06), ahead of both trains' rejects
        a, c = template("X", "Y", train="A"), template("X", "Y", train="C")
        rows = [
            event("X", ts(0), ts(1), train="B", date="2017-11-08"),
            event("X", ts(0), ts(2), train="A"),
            event("Z", ts(0), ts(0), train="A"),
            event("Y", ts(7), ts(7), train="B"),
            event("X", ts(0), ts(0), train="C"),
            event("X", ts(0), ts(5), train="C"),
            event("X", ts(0), ts(0), train="B", date="2017-11-06"),
        ]
        events, parse_rejects = parse_events(io.StringIO(REAL_HEADER + "\n".join(rows) + "\n"))
        assert parse_rejects == []
        store, rejects = build_store({"A": a, "C": c}, events, RunConfig())
        assert store.ids == ["A", "C"] and store.templates == [a, c]
        assert store.delays.tolist() == [[2], [0]] and store.train.tolist() == [0, 1]
        assert [(r.row, r.reason) for r in rejects] == [
            ("B,2017-11-08", "train not in timetable"),
            ("B,2017-11-07", "train not in timetable"),
            ("B,2017-11-06", "train not in timetable"),
            ("A,2017-11-07,Z,V", "station not in template"),
            ("C,2017-11-07,X,V", "duplicate event"),
        ]


class TestTargetSelection:
    def test_horizon_skips_near_stations(self):
        # stations planned 7 minutes apart; 20-minute horizon from station 1
        # reaches station 4 (21 minutes out)
        tmpl = template("A", "B", "C", "D", "E")
        assert select_target_station(tmpl, 1, dt.timedelta(minutes=20)) == 4

    def test_exact_boundary_counts(self):
        tmpl = template("A", "B", "C", "D")
        assert select_target_station(tmpl, 1, dt.timedelta(minutes=14)) == 3

    def test_falls_back_to_last_station(self):
        tmpl = template("A", "B", "C")
        assert select_target_station(tmpl, 2, dt.timedelta(minutes=120)) == 3

    def test_last_station_raises(self):
        tmpl = template("A", "B")
        with pytest.raises(CoverageError):
            select_target_station(tmpl, 2, dt.timedelta(minutes=20))

    def test_bad_inputs(self):
        tmpl = template("A", "B")
        for outside in (0, 3):  # no station to predict from, so no target
            with pytest.raises(CoverageError, match=f"station index {outside} outside template"):
                select_target_station(tmpl, outside, dt.timedelta(minutes=20))
        with pytest.raises(ValueError):
            select_target_station(tmpl, 1, dt.timedelta(0))


class TestWriteRejects:
    def test_round_trip(self, tmp_path):
        raw = REAL_HEADER + "519,2017-11-07,Bl,Z,2017-11-07T12:00:00,2017-11-07T12:01:00\n"
        _, rejects = parse_events(io.StringIO(raw))
        out = tmp_path / "rejects.csv"
        write_rejects(rejects, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "row,reason"
        assert "unknown activity" in lines[1]


@st.composite
def cut_journeys(draw):
    """One train's sampled journeys, each cut to a drawn length, on a drawn n_max."""
    n_max = draw(st.integers(1, 6))
    length = draw(st.integers(1, 6))
    count = draw(st.integers(1, 12))
    spec = near_diagonal_spec(StateSpace(n_max), length, 1.5, seed=draw(st.integers(0, 2**16)))
    lengths = draw(st.lists(st.integers(1, length), min_size=count, max_size=count))
    return n_max, sample_delays(spec, count), np.array(lengths)


class TestIngestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(cut_journeys())
    def test_store_gives_back_every_delay(self, drawn):
        n_max, delays, lengths = drawn
        series = [
            DelaySeries("T001", f"d{n}", tuple(row[:k]))
            for n, (row, k) in enumerate(zip(delays.tolist(), lengths.tolist()))
        ]
        with tempfile.TemporaryDirectory() as tmp:
            tt, rz = Path(tmp) / "timetable.csv", Path(tmp) / "realization.csv"
            write_ingest_files(series, tt, rz)
            events, parse_rejects = parse_events(rz)
            store, rejects = build_store(load_timetable(tt), events, RunConfig(n_max=n_max))
        assert parse_rejects == [] and rejects == []
        assert not store.clipped.any()
        got, got_lengths, _dates = store_series(store, "T001")
        assert np.array_equal(got_lengths, lengths)
        width = lengths.max()
        padded = np.where(np.arange(width) < lengths[:, None], delays[:, :width], 0)
        assert got.dtype == np.int64 and np.array_equal(got, padded)

    def test_built_store_equals_its_written_file_parsed(self, tmp_path):
        # "A" saturates two delays on its first date and stops at a gap on its
        # second, "B" has its one date rejected and keeps its template with no
        # series, and "C" has planned times with a UTC offset
        a, b = template("X", "Y", "Z", train="A"), template("X", "Y", train="B")
        start = dt.datetime(2017, 11, 7, 12, tzinfo=dt.timezone(dt.timedelta(hours=1)))
        c = JourneyTemplate("C", (StationKey("X", "A"), StationKey("X", "D")),
                            (start, start + dt.timedelta(seconds=90)))
        rows = [
            event("X", ts(0), ts(40), train="A"), event("Y", ts(7), ts(8), train="A"),
            event("Z", ts(14), ts(0), train="A"),
            event("X", ts(0), ts(0), train="A", date="2017-11-08"),
            event("Z", ts(14), ts(19), train="A", date="2017-11-08"),
            event("Y", ts(7), ts(7), train="B"),
            event("X", ts(0), ts(2), train="C", activity="A"),
            event("X", ts(1), ts(3), train="C", activity="D"),
        ]
        events, _ = parse_events(io.StringIO(REAL_HEADER + "\n".join(rows) + "\n"))
        built, rejects = build_store({"A": a, "B": b, "C": c}, events, RunConfig(n_max=3))
        assert [(r.row, r.reason) for r in rejects] == [("B,2017-11-07", "no usable stations")]
        assert built.starts == [0, 2, 2, 3] and built.clipped.tolist() == [2, 0, 0]
        assert built.delays.tolist() == [[3, 1, -3], [0, 0, 0], [2, 2, 0]]
        save_json(built, tmp_path / "store.json")
        parsed = load_store(tmp_path / "store.json")
        for field, got, want in zip(parsed._fields, parsed, built):
            if isinstance(want, np.ndarray):  # bit-equal, and read-only in both
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
                assert not (got.flags.writeable or want.flags.writeable), field
            else:
                assert got == want, field
        save_json(parsed, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "store.json").read_bytes()


def oracle_ingest(text, templates, config):
    """The per-row reference: each row checked and kept as a Python record,
    then grouped by train and date in dicts. Returns the store file's text,
    `json.dumps` of the store document, and the rejects report in the order
    `ingest` writes them."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    events, rejects = [], []
    for row in reader:
        raw = ",".join(row)
        if len(row) != 6:
            rejects.append(RejectedRow(raw, "wrong field count"))
            continue
        train_id, date, station, activity, planned, realized = (f.strip() for f in row)
        if activity not in ACTIVITY_CODES:
            rejects.append(RejectedRow(raw, "unknown activity"))
            continue
        try:
            planned_ts = dt.datetime.fromisoformat(planned)
            realized_ts = dt.datetime.fromisoformat(realized)
        except ValueError:
            rejects.append(RejectedRow(raw, "unparseable timestamp"))
            continue
        if (planned_ts.tzinfo is None) != (realized_ts.tzinfo is None):
            rejects.append(RejectedRow(raw, "timezone mismatch"))
            continue
        try:
            dt.date.fromisoformat(date)
        except ValueError:
            rejects.append(RejectedRow(raw, "unparseable date"))
            continue
        delay = compute_delay_minutes(planned_ts, realized_ts)
        events.append((train_id, date, StationKey(station, activity), delay))

    space = StateSpace(config.n_max)
    by_train = {}
    for ev in events:
        if ev[0] not in templates:
            rejects.append(RejectedRow(f"{ev[0]},{ev[1]}", "train not in timetable"))
            continue
        by_train.setdefault(ev[0], []).append(ev)
    trains = {}
    for tid in sorted(by_train):
        template = templates[tid]
        by_date = {}
        for train_id, date, key, delay in by_train[tid]:
            if key not in template.keys:
                reason = "station not in template"
            elif key in by_date.get(date, {}):
                reason = "duplicate event"
            else:
                by_date.setdefault(date, {})[key] = delay
                continue
            rejects.append(RejectedRow(f"{train_id},{date},{key.station_code},{key.activity}", reason))
        series = []
        for date in sorted(by_date):
            delays, clipped = [], 0
            for key in template.keys:
                if key not in by_date[date]:
                    break
                d = by_date[date][key]
                if not space.contains(d):
                    if config.clip_mode == "drop":
                        break
                    d = max(-space.n_max, min(space.n_max, d))
                    clipped += 1
                delays.append(d)
            if delays:
                series.append({"date": date, "delays": delays, "clipped": clipped})
            else:
                rejects.append(RejectedRow(f"{tid},{date}", "no usable stations"))
        trains[tid] = {
            "stations": [[k.station_code, k.activity] for k in template.keys],
            "planned": [p.isoformat() for p in template.planned],
            "series": series,
        }
    document = {"n_max": config.n_max, "trains": trains}
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n", rejects


def columnar_ingest(text, templates, config):
    """`parse_events`, `build_store` and `save_json`: the store file's text and the rejects."""
    events, parse_rejects = parse_events(io.StringIO(text))
    store, rejects = build_store(templates, events, config)
    with tempfile.TemporaryDirectory() as tmp:
        save_json(store, Path(tmp) / "store.json")
        return (Path(tmp) / "store.json").read_text(encoding="utf-8"), parse_rejects + rejects


BASE = dt.datetime(2017, 11, 7, 12)
STATIONS = [StationKey(c, a) for c in ("A", "B", "C") for a in ("V", "A")]
DATES = ["2017-11-07", "2017-11-08", "2017-11-09"]
# Timestamp strings the canonical check must pass to fromisoformat, or
# refuse as fromisoformat does: impossible days and times, other ISO forms,
# padding, a year outside 1..9999 and non-ASCII digits.
ODD_TIMESTAMPS = [
    "2017-02-29T12:00:00", "2016-02-29T12:00:00", "2017-04-31T12:00:00",
    "2017-11-07T24:00:00", "2017-11-07T12:60:00", "2017-11-07T12:00:60",
    "0000-01-01T00:00:00", "0001-01-01T00:00:00", "9999-12-31T23:59:59",
    "2017-11-07 12:00:00", " 2017-11-07T12:00:00 ", "2017-11-07T12:00",
    "2017-11-07T12:00:00.5", "2017-11-07T12:00:00Z", "20171107T120000",
    "2017-11-07", "2017-11-07T12:00:00\x00", "２017-11-07T12:00:00", "not-a-time", "",
]


def _stamp(moment, form):
    if form == "canonical":
        return moment.replace(microsecond=0).isoformat()
    if form == "micro":
        return moment.isoformat(timespec="microseconds")
    return " " + moment.replace(microsecond=0).isoformat(sep=" ") + " "  # padded, space-separated


def _zone(hours):
    return dt.timezone(dt.timedelta(hours=hours))


@st.composite
def realization_corpora(draw):
    """A timetable of two or three trains and a shuffled realization CSV
    holding every reject reason, a gap, a missing first station and
    out-of-range delays, plus events drawn at random from a small pool, so
    repeats and gaps are common."""
    n_max = draw(st.integers(1, 3))
    templates = {}
    for tid in ("T1", "T2", "T3")[:draw(st.integers(2, 3))]:
        keys = draw(st.lists(st.sampled_from(STATIONS), min_size=3 if tid == "T1" else 1,
                             max_size=4, unique=True))
        templates[tid] = JourneyTemplate(
            tid, tuple(keys), tuple(BASE + dt.timedelta(minutes=5 * i) for i in range(len(keys)))
        )

    def row(train, date, key, planned, realized):
        return [train, date, key.station_code, key.activity, planned, realized]

    def random_row():
        planned = BASE + dt.timedelta(minutes=draw(st.integers(0, 20)))
        # whole minutes plus an offset that often lands on the +-30 s rounding edge
        realized = planned + dt.timedelta(
            minutes=draw(st.integers(-n_max - 2, n_max + 2)),
            seconds=draw(st.sampled_from([0, 29, 30, -30, 31, -31])),
            microseconds=draw(st.sampled_from([0, 1, -1, 500_000])),
        )
        form = draw(st.sampled_from(["canonical", "canonical", "micro", "padded", "aware"]))
        if form == "aware":  # both sides carry an offset, not always the same one
            p_stamp, r_stamp = (
                t.replace(tzinfo=dt.timezone.utc).astimezone(_zone(draw(st.sampled_from([0, 1, -5]))))
                .isoformat() for t in (planned, realized)
            )
        else:
            p_stamp = _stamp(planned, draw(st.sampled_from(["canonical", form])))
            r_stamp = _stamp(realized, form)
        fields = row(draw(st.sampled_from([*templates, "X9"])), draw(st.sampled_from(DATES)),
                     draw(st.sampled_from(STATIONS + [StationKey("Z", "KA")])), p_stamp, r_stamp)
        pad = draw(st.sampled_from(["", " "]))  # surrounding spaces are stripped
        return [pad + f if i < 4 and draw(st.booleans()) else f for i, f in enumerate(fields)]

    rows = [random_row() for _ in range(draw(st.integers(0, 40)))]
    journey = templates["T1"].keys
    on_time = [BASE.isoformat()] * 2
    late = [BASE.isoformat(), (BASE + dt.timedelta(minutes=n_max + 3)).isoformat()]
    rows += [row("T1", "2017-11-10", key, *on_time) for key in journey[:-1]]
    rows += [row("T1", "2017-11-10", journey[-1], *late)]  # saturated, or dropped
    rows += [row("T1", "2017-11-10", journey[0], *late)]  # a repeat: the first in file order stays
    rows += [row("T1", "2017-11-11", key, *on_time) for key in journey[::2]]  # a gap
    rows += [row("T1", "2017-11-12", journey[1], *on_time)]  # first station missing

    faults = [random_row() for _ in range(10)]
    faults[0] = faults[0][:5] if draw(st.booleans()) else faults[0] + ["extra"]
    faults[1][3] = "Q"
    faults[2][5] = draw(st.sampled_from(ODD_TIMESTAMPS))
    faults[3][4:] = [BASE.isoformat(), BASE.replace(tzinfo=dt.timezone.utc).isoformat()]
    faults[4][1] = "2017-11-31"
    faults[5][0] = "X9"
    faults[6][2] = "Z"
    faults[7][4] = "2017-02-30T12:00:00"  # the canonical form, but no such day
    faults[8][3:6] = ["Q", "not-a-time", BASE.isoformat()]  # the activity is tried first
    faults[9][1:6] = ["2017-11-31", "A", "V", "not-a-time", BASE.isoformat()]  # then the timestamp
    rows = draw(st.permutations(rows + faults))
    text = REAL_HEADER + "".join(",".join(r) + "\n" for r in rows)
    clip_mode = draw(st.sampled_from(["saturate", "drop"]))
    return text, templates, RunConfig(n_max=n_max, clip_mode=clip_mode)


WHAT = "realization <realization>"
# the values of each field of a six-field row; a station wider than any byte key
SIX_FIELDS = [
    ["519", " 519 ", "Ütr", "T\x00"],
    ["2017-11-07", " 2017-11-08", "2017-11-31", "\x00"],
    ["Bl", "Ütr", " 日本 ", "A", "A\x00", "", "W" * (ingest._KEY_BYTES + 1)],
    ["V", " A ", "KV", "Q", "V\x00"],
    ["2017-11-07T12:00:00", " 2017-11-07T12:00:00 ", "2017-11-07T12:00:00+01:00", "2017-11-07T12:00",
     "２017-11-07T12:00:00", "2017-11-07T12:00:00\x00", "2017-11-07 12:00:00", "x"],
    ["2017-11-07T12:02:30", "2017-11-07T11:58:00", "2017-11-07T12:01:00+00:00", "2017-02-30T12:00:00"],
]
# csv.reader splits a quote-free field only at commas and line breaks
FIELD_TEXT = st.text(st.characters(blacklist_characters='",\r\n', blacklist_categories=("Cs",)), max_size=4)


# what csv.reader reads in a quoted field: commas, CR, LF and doubled quotes
QUOTED_TEXT = st.text(st.sampled_from(list('ab,"\r\né ')), max_size=5)


def _quoted(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


@st.composite
def realization_files(draw):
    """Realization bytes: LF, CRLF and lone CR terminators, blank records, a
    last record with or without one, NUL bytes, non-ASCII, padded and wide
    fields, rows of six fields and rows of any other count. From a drawn
    record on, a field may be quoted, be followed by more text after its
    closing quote, or hold a stray quote in its middle, so that the first
    quote byte can fall in any block, or in none."""
    def six():
        return [draw(st.sampled_from(pool)) for pool in SIX_FIELDS]

    def quoting(field):
        form = draw(st.sampled_from(["plain", "plain", "quoted", "text", "after", "stray"]))
        if form == "quoted":
            return _quoted(field)
        if form == "text":
            return _quoted(draw(QUOTED_TEXT))
        if form == "after":
            return _quoted(draw(QUOTED_TEXT)) + field
        return field[:1] + '"' + field[1:] if form == "stray" and field else field

    records = draw(st.lists(st.one_of(
        st.builds(six), st.lists(FIELD_TEXT, max_size=8), st.just([])), max_size=12))
    quoted_from = draw(st.integers(0, 13))
    records = [r if i < quoted_from else [quoting(f) for f in r] for i, r in enumerate(records)]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(records) + 1,
                         max_size=len(records) + 1))
    if draw(st.booleans()):
        ends[-1] = ""  # a last record without a terminator
    lines = [REAL_HEADER.rstrip("\n")] + [",".join(r) for r in records]
    return "".join(line + end for line, end in zip(lines, ends)).encode()


def csv_path(data: bytes):
    """`parse_events` with csv.reader over the whole file, as it reads a file's
    blocks from the first that holds a quote byte on."""
    lines = io.StringIO(data.decode(), newline="")
    return ingest._events(ingest._text_rows(lines, 1, WHAT), WHAT)


def assert_same_parse(got, want):
    (got_events, got_rejects), (want_events, want_rejects) = got, want
    assert got_rejects == want_rejects
    for name, value in vars(want_events).items():
        other = getattr(got_events, name)
        assert other == value if isinstance(value, list) else (
            other.dtype == value.dtype and np.array_equal(other, value)), name


@pytest.fixture
def field_limit():
    old = csv.field_size_limit(20)
    yield
    csv.field_size_limit(old)


class TestByteTokenizer:
    """The byte path of `parse_events` against its csv.reader path."""

    @settings(max_examples=80, deadline=None)
    @given(realization_files(), st.one_of(st.integers(1, 48), st.just(1 << 18)))
    def test_splits_as_csv_reader_does(self, data, block_bytes):
        # records, and quoted fields, straddle blocks; csv.reader takes over
        # at the first block with a quote byte
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
            assert_same_parse(parse_events(io.BytesIO(data)), csv_path(data))

    @pytest.mark.parametrize("records, trains, stations, delays, rejects", [
        (["519,2017-11-07,Bl,V,2017-11-07T12:00:00,2017-11-07T12:01:00",
          '519,2017-11-07,"Ut",V,2017-11-07T12:00:00,2017-11-07T12:02:00'],
         ["519"], ["Bl", "Ut"], [1, 2], []),
        (['"5,1\r\n9",2017-11-07,Bl,V,2017-11-07T12:00:00,2017-11-07T12:01:00', '"a,b",c'],
         ["5,1\r\n9"], ["Bl"], [1], [RejectedRow("a,b,c", "wrong field count")]),
    ], ids=["quote_in_last_record", "comma_and_crlf_in_quotes"])
    def test_a_quote_byte_takes_the_csv_path(self, records, trains, stations, delays, rejects):
        data = "\r\n".join([REAL_HEADER.rstrip("\n"), *records, ""]).encode()
        with mock.patch.object(ingest, "BLOCK_BYTES", 8):  # the quote is in a later block
            events, got_rejects = parse_events(io.BytesIO(data))
        assert (events.trains, events.stations, events.delay.tolist()) == (trains, stations, delays)
        assert got_rejects == rejects

    def test_a_field_is_keyed_by_its_own_bytes(self):
        # the three "A" are followed by other bytes; "A" and "A\0" differ only past A
        data = b"A,A\x00,Abc,A,\x00,,A"
        commas = [-1, *(i for i, b in enumerate(data) if b == ord(",")), len(data)]
        start, end = (np.array(x, dtype=np.int32) for x in (np.add(commas[:-1], 1), commas[1:]))
        buf = np.frombuffer(data + bytes(ingest._KEY_BYTES), dtype=np.uint8)
        distinct, index = ingest._byte_distinct(data, buf, start, end)
        assert distinct == ["A", "A\x00", "Abc", "\x00", ""]
        assert index.tolist() == [0, 1, 2, 0, 3, 4, 0]

    @pytest.mark.parametrize("data, message", [
        (b"", "line 1: no header row"),
        (b"\r\nx", "line 1: unexpected header []"),
        (b"a,b,c\n1,2,3\n", "line 1: unexpected header ['a', 'b', 'c']"),
        (b"train_id," + b"x" * 21 + b"\n", "line 1: field larger than field limit (20)"),
        (REAL_HEADER.encode() + b"\rx\r\n519,2017-11-07," + "é".encode() * 21 + b",V",
         "line 4: field larger than field limit (20)"),
        (REAL_HEADER.encode() + b"519,2017-11-07," + "é".encode() * 20
         + b",V,2017-11-07T12:00:00,2017-11-07T12:01:00\n", None),
    ], ids=["empty", "blank_header", "bad_header", "wide_header", "wide_field", "twenty_characters"])
    def test_errors_as_the_csv_path_gives_them(self, field_limit, data, message):
        if message is None:  # 40 bytes, but 20 characters: within the limit
            assert_same_parse(parse_events(io.BytesIO(data)), csv_path(data))
            return
        for parse in (parse_events, lambda d: csv_path(d.getvalue())):
            with pytest.raises(InputError) as exc:
                parse(io.BytesIO(data))
            assert str(exc.value) == f"{WHAT} {message}"

    def test_a_pipe_is_read(self, tmp_path):
        # a stream that cannot seek, as /dev/stdin may be, longer than a block:
        # it is read once and never copied, so no temporary file is made
        read, write = os.pipe()
        os.write(write, (REAL_HEADER + "519,2017-11-07,Bl,V,2017-11-07T12:00:00,2017-11-07T12:01:00\n"
                         '519,2017-11-07,"B,l",V,2017-11-07T12:00:00,2017-11-07T12:02:00\n').encode())
        os.close(write)
        with open(read, "rb") as fh, mock.patch.object(ingest, "BLOCK_BYTES", 8), \
                mock.patch.object(tempfile, "tempdir", str(tmp_path / "missing")):
            events, rejects = parse_events(fh)
        assert (events.stations, events.delay.tolist(), rejects) == (["Bl", "B,l"], [1, 2], [])

    @pytest.mark.parametrize("block_bytes", [1, 16, 1 << 18])
    def test_a_field_after_the_switch_names_its_line(self, field_limit, block_bytes):
        # lines 2-3 are quote-free and line 4 opens a quoted field that ends on
        # line 5: line 7 is counted across the switch and the quoted line break
        data = REAL_HEADER.encode() + b'a,b\r\n\rc,"d\ne"\nf\n' + b"x" * 21 + b"\n"
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes), \
                pytest.raises(InputError, match=f"^{WHAT} line 7: field larger than field limit"):
            parse_events(io.BytesIO(data))

    def test_a_text_stream_is_read_a_block_at_a_time(self):
        class Text(io.StringIO):
            def read(self, size=-1):
                sizes.append(size)
                return super().read(size)

        sizes = []
        text = REAL_HEADER + "519,2017-11-07,Bl,V,2017-11-07T12:00:00,2017-11-07T12:01:00\n"
        with mock.patch.object(ingest, "BLOCK_BYTES", 8):
            events, rejects = parse_events(Text(text))
        assert (events.delay.tolist(), rejects) == ([1], [])
        assert set(sizes) == {8}

    @pytest.mark.parametrize("block_bytes", [1, 5, 1 << 18])
    @pytest.mark.parametrize("tail, message", [
        (b"519,\xff\n", "line 4: not UTF-8 text (byte 0xff: invalid start byte)"),
        (b"519,\xc3", "line 4: not UTF-8 text (byte 0xc3: unexpected end of data)"),
    ])
    def test_a_byte_not_utf8_names_its_line(self, block_bytes, tail, message):
        # a two-byte character before the fault straddles blocks of 1 and 5 bytes
        data = REAL_HEADER.encode() + "519,Ütr\r\n\r".encode() + tail
        for quote in (b"", b'"'):  # read on its bytes, or by csv.reader
            with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes), \
                    pytest.raises(InputError, match=f"^{WHAT} {re.escape(message)}$"):
                parse_events(io.BytesIO(data.replace(b"519,\xff", b'519,' + quote + b"\xff")
                                        .replace(b"519,\xc3", b"519," + quote + b"\xc3")))

    @pytest.mark.parametrize("block_bytes, line", [(1 << 18, 4), (1, 2)])
    @pytest.mark.parametrize("quote", ["", '"'])
    def test_the_earliest_block_names_the_fault(self, field_limit, block_bytes, line, quote):
        # a bad byte on line 4 and a field over the limit on line 2: in one
        # block the byte is named, in blocks of a line each the earlier line
        data = (REAL_HEADER + quote + "x" * 21 + "\nok\n519,").encode() + b"\xff\n"
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes), \
                pytest.raises(InputError, match=f"^{WHAT} line {line}: "):
            parse_events(io.BytesIO(data))
        timetable = (TT_HEADER + "519,A,V,not-a-time,1\nok\n519,").encode() + b"\xff\n"
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes), \
                pytest.raises(InputError, match=f"^timetable <timetable> line {line}: "):
            load_timetable(io.BytesIO(timetable))


class TestColumnarIngest:
    """`parse_events` plus `build_store` against the per-row reference."""

    @settings(max_examples=60, deadline=None)
    @given(realization_corpora(), st.integers(1, 256))
    def test_equals_per_row_reference(self, corpus, block_bytes):
        text, templates, config = corpus
        want_text, want_rejects = oracle_ingest(text, templates, config)
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):  # rows span blocks
            got_text, got_rejects = columnar_ingest(text, templates, config)
        assert got_rejects == want_rejects
        assert got_text == want_text

    @pytest.mark.parametrize("stamp", ODD_TIMESTAMPS)
    def test_odd_timestamp_as_fromisoformat_reads_it(self, stamp):
        tmpl = template("A")
        text = REAL_HEADER + f"519,2017-11-07,A,V,2017-11-07T11:58:00,{stamp}\n"
        config = RunConfig(n_max=15)
        assert columnar_ingest(text, {"519": tmpl}, config) == oracle_ingest(text, {"519": tmpl}, config)

    def test_offsets_on_both_sides_subtract_in_utc(self):
        raw = REAL_HEADER + "519,2017-11-07,Bl,A,2017-11-07T12:00:00+01:00,2017-11-07T11:03:00+00:00\n"
        events, rejects = parse_events(io.StringIO(raw))
        assert rejects == [] and events.delay.tolist() == [3]

    def test_offset_on_one_side_is_rejected(self):
        rows = [
            "519,2017-11-07,A,V,2017-11-07T12:00:00,2017-11-07T12:01:00+01:00",
            "519,2017-11-07,B,Q,2017-11-07T12:00:00,2017-11-07T12:01:00",
            "519,2017-11-07,C,V,2017-11-07T12:00:00Z,2017-11-07T12:01:00",
        ]
        events, rejects = parse_events(io.StringIO(REAL_HEADER + "\n".join(rows) + "\n"))
        assert len(events) == 0
        assert [(r.row, r.reason) for r in rejects] == [
            (rows[0], "timezone mismatch"), (rows[1], "unknown activity"),
            (rows[2], "timezone mismatch"),
        ]


class TestDelayRule:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=20),
        st.lists(st.one_of(
            st.sampled_from([0, 1, -1, 29_999_999, 30_000_000, 30_000_001,
                             -29_999_999, -30_000_000, -30_000_001, 59_999_999, -59_999_999]),
            st.integers(-60_000_000, 60_000_000),
        ), min_size=20, max_size=20),
    )
    def test_integer_rule_equals_compute_delay_minutes(self, minutes, offsets_us):
        delta_us = [m * 60_000_000 + o for m, o in zip(minutes, offsets_us)]
        planned = dt.datetime(2017, 11, 7, 12)
        want = [compute_delay_minutes(planned, planned + dt.timedelta(microseconds=d)) for d in delta_us]
        assert delay_minutes(np.array(delta_us, dtype=np.int64)).tolist() == want
