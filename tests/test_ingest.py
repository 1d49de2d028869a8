import datetime as dt
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railmc.config import RunConfig
from railmc.core import DelaySeries, StateSpace
from railmc.ingest import (
    JourneyTemplate,
    NoTargetError,
    RealizationEvent,
    StationKey,
    IngestError,
    assemble_series,
    compute_delay_minutes,
    load_timetable,
    parse_events,
    select_target_station,
    write_rejects,
)
from railmc.pipeline import build_store, store_series
from railmc.synth import near_diagonal_spec, sample_delays, write_ingest_files

REAL_HEADER = "train_id,date,station_code,activity,planned_time,realized_time\n"
TT_HEADER = "train_id,station_code,activity,planned_time,sequence\n"


def ts(minute, second=0, hour=12):
    return dt.datetime(2017, 11, 7, hour, minute, second)


def event(station, planned, realized, train="519", date="2017-11-07", activity="V"):
    return RealizationEvent(train, date, station, activity, planned, realized)


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
        (ev,) = events
        assert ev.key == StationKey("Bl", "A")
        assert compute_delay_minutes(ev.planned_time, ev.realized_time) == 3

    def test_unknown_activity_rejected(self):
        raw = REAL_HEADER + "519,2017-11-07,Bl,Z,2017-11-07T12:00:00,2017-11-07T12:01:00\n"
        events, rejects = parse_events(io.StringIO(raw))
        assert events == []
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
        with pytest.raises(IngestError, match="realization <realization> line 1: unexpected header"):
            parse_events(io.StringIO("a,b,c\n1,2,3\n"))

    def test_empty_file_warns(self):
        with pytest.warns(UserWarning):
            events, rejects = parse_events(io.StringIO(""))
        assert events == [] and rejects == []

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
        with pytest.raises(IngestError, match="train 519: planned times must be non-decreasing"):
            load_timetable(io.StringIO(TT_HEADER + "\n".join(rows) + "\n"))

    def test_bad_header(self):
        with pytest.raises(IngestError, match="line 1: unexpected header"):
            load_timetable(io.StringIO("train,station\n"))


class TestAssembleSeries:
    def test_full_journey(self):
        tmpl = template("A", "B", "C")
        events = [
            event("A", tmpl.planned[0], tmpl.planned[0] + dt.timedelta(minutes=1)),
            event("B", tmpl.planned[1], tmpl.planned[1]),
            event("C", tmpl.planned[2], tmpl.planned[2] - dt.timedelta(minutes=2)),
        ]
        series, rejects = assemble_series(events, tmpl, StateSpace(15))
        assert rejects == []
        assert series[0].delays == (1, 0, -2)
        assert series[0].clipped == 0

    def test_gap_truncates(self):
        tmpl = template("A", "B", "C")
        events = [
            event("A", tmpl.planned[0], tmpl.planned[0]),
            event("C", tmpl.planned[2], tmpl.planned[2]),
        ]
        series, _ = assemble_series(events, tmpl, StateSpace(15))
        assert series[0].delays == (0,)

    def test_saturate_clip_counts(self):
        tmpl = template("A", "B")
        events = [
            event("A", tmpl.planned[0], tmpl.planned[0] + dt.timedelta(minutes=40)),
            event("B", tmpl.planned[1], tmpl.planned[1]),
        ]
        series, _ = assemble_series(events, tmpl, StateSpace(15))
        assert series[0].delays == (15, 0)
        assert series[0].clipped == 1

    def test_drop_mode_truncates_before_outlier(self):
        tmpl = template("A", "B", "C")
        events = [
            event("A", tmpl.planned[0], tmpl.planned[0]),
            event("B", tmpl.planned[1], tmpl.planned[1] + dt.timedelta(minutes=40)),
            event("C", tmpl.planned[2], tmpl.planned[2]),
        ]
        series, _ = assemble_series(events, tmpl, StateSpace(15), clip_mode="drop")
        assert series[0].delays == (0,)
        assert series[0].clipped == 0

    def test_date_with_no_usable_stations_rejected(self):
        tmpl = template("A", "B")
        events = [
            event("B", tmpl.planned[1], tmpl.planned[1]),  # first station missing
        ]
        series, rejects = assemble_series(events, tmpl, StateSpace(15))
        assert series == []
        assert rejects[0].reason == "no usable stations"

    def test_off_template_station_rejected(self):
        tmpl = template("A", "B")
        events = [
            event("A", tmpl.planned[0], tmpl.planned[0]),
            event("B", tmpl.planned[1], tmpl.planned[1]),
            event("X", tmpl.planned[1], tmpl.planned[1]),
        ]
        series, rejects = assemble_series(events, tmpl, StateSpace(15))
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
        series, rejects = assemble_series(events, tmpl, StateSpace(15))
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
        series, rejects = assemble_series(events, tmpl, StateSpace(15))
        dates = {s.date for s in series} | {r.row.split(",")[1] for r in rejects}
        assert dates == {ev.date for ev in events}

    def test_deterministic_order(self):
        tmpl = template("A", "B")
        events = [
            event("A", tmpl.planned[0], tmpl.planned[0], date=d)
            for d in ("2017-11-09", "2017-11-07", "2017-11-08")
        ]
        series, _ = assemble_series(events, tmpl, StateSpace(15))
        assert [s.date for s in series] == ["2017-11-07", "2017-11-08", "2017-11-09"]

    def test_train_mismatch_raises(self):
        tmpl = template("A", "B")
        with pytest.raises(ValueError):
            assemble_series([event("A", ts(0), ts(0), train="other")], tmpl, StateSpace(15))


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
        with pytest.raises(NoTargetError):
            select_target_station(tmpl, 2, dt.timedelta(minutes=20))

    def test_bad_inputs(self):
        tmpl = template("A", "B")
        for outside in (0, 3):  # no station to predict from, so no target
            with pytest.raises(NoTargetError, match=f"station index {outside} outside template"):
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
        assert all(s["clipped"] == 0 for s in store["trains"]["T001"]["series"])
        got, got_lengths, _dates = store_series(store, "T001")
        assert np.array_equal(got_lengths, lengths)
        width = lengths.max()
        padded = np.where(np.arange(width) < lengths[:, None], delays[:, :width], 0)
        assert got.dtype == np.int64 and np.array_equal(got, padded)
