import collections
import csv
import datetime as dt
from unittest import mock

import numpy as np
import pytest

from railmc import synth
from railmc.core import DelaySeries, StateSpace
from railmc.ingest import assemble_series, load_timetable, parse_events
from railmc.synth import ChainSpec, near_diagonal_spec, sample_series, write_ingest_files


class TestChainSpec:
    def test_row_validation(self):
        space = StateSpace(1)
        with pytest.raises(ValueError):
            ChainSpec(space, 2, 1, np.array([0.5, 0.5, 0.1]), seed=0,
                      matrices=(np.eye(3),))
        with pytest.raises(ValueError):
            ChainSpec(space, 2, 3, np.full(3, 1 / 3), seed=0)

    def test_identity_matrix_freezes_delays(self):
        space = StateSpace(2)
        spec = ChainSpec(
            space, 4, 1, np.full(5, 0.2), seed=13,
            matrices=tuple(np.eye(5) for _ in range(3)),
        )
        for s in sample_series(spec, 200):
            assert len(set(s.delays)) == 1


class TestSampleSeries:
    def test_determinism(self):
        space = StateSpace(3)
        spec = near_diagonal_spec(space, 3, 1.0, seed=5)
        a = sample_series(spec, 50)
        b = sample_series(spec, 50)
        assert a == b
        c = sample_series(near_diagonal_spec(space, 3, 1.0, seed=6), 50)
        assert a != c

    def test_shape_and_range(self):
        space = StateSpace(4)
        spec = near_diagonal_spec(space, 6, 2.0, seed=1)
        sampled = sample_series(spec, 30, train_id="T1")
        assert len(sampled) == 30
        for s in sampled:
            assert s.train_id == "T1"
            assert len(s.delays) == 6
            assert all(space.contains(d) for d in s.delays)

    def test_initial_marginal_obeys_law_of_large_numbers(self):
        space = StateSpace(1)
        init = np.array([0.7, 0.2, 0.1])
        spec = ChainSpec(space, 1, 1, init, seed=2)
        sampled = sample_series(spec, 20_000)
        freq = collections.Counter(s.delays[0] for s in sampled)
        for d, p in zip((-1, 0, 1), init):
            assert freq[d] / len(sampled) == pytest.approx(p, abs=0.02)

    def test_zero_order_stations_independent(self):
        space = StateSpace(1)
        marg = np.array([0.2, 0.5, 0.3])
        spec = ChainSpec(space, 2, 0, marg, seed=3, marginals=(marg, marg))
        sampled = sample_series(spec, 20_000)
        freq = collections.Counter(s.delays[1] for s in sampled)
        for d, p in zip((-1, 0, 1), marg):
            assert freq[d] / len(sampled) == pytest.approx(p, abs=0.02)

    def test_count_validation(self):
        spec = near_diagonal_spec(StateSpace(1), 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            sample_series(spec, 0)


class TestNearDiagonalSpec:
    def test_rows_center_on_diagonal(self):
        space = StateSpace(5)
        spec = near_diagonal_spec(space, 2, 0.8, seed=0)
        mat = spec.matrices[0]
        for r in range(space.cardinality):
            assert int(np.argmax(mat[r])) == r
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)

    def test_dispersion_validation(self):
        with pytest.raises(ValueError):
            near_diagonal_spec(StateSpace(2), 2, 0.0, seed=0)


class TestCsvRoundTrip:
    def test_delays_survive_ingestion(self, tmp_path):
        space = StateSpace(15)
        spec = near_diagonal_spec(space, 4, 1.5, seed=9)
        sampled = sample_series(spec, 25, train_id="T001")
        tt = tmp_path / "timetable.csv"
        rz = tmp_path / "realization.csv"
        write_ingest_files(sampled, tt, rz)

        templates = load_timetable(tt)
        events, parse_rejects = parse_events(rz)
        assert parse_rejects == []
        recovered, rejects = assemble_series(events, templates, space)
        assert rejects == []
        got = [tuple(s["delays"]) for s in recovered["T001"]["series"]]
        assert sorted(got) == sorted(s.delays for s in sampled)

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_ingest_files([], tmp_path / "a.csv", tmp_path / "b.csv")


def reference_realization(series, path, base_date="2017-09-04", gap_minutes=7):
    """The per-row writer: one datetime and one `writerow` per event."""
    day0 = dt.date.fromisoformat(base_date)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["train_id", "date", "station_code", "activity", "planned_time", "realized_time"])
        for n, s in enumerate(series):
            date = day0 + dt.timedelta(days=n)
            for t, delay in enumerate(s.delays, start=1):
                planned = dt.datetime.combine(date, dt.time(8, 0)) + dt.timedelta(minutes=gap_minutes * (t - 1))
                realized = planned + dt.timedelta(minutes=delay)
                w.writerow([s.train_id, date.isoformat(), f"S{t:02d}", "V",
                            planned.isoformat(), realized.isoformat()])


class TestRealizationWriter:
    @pytest.mark.parametrize("chunk", [1, 2, 256])
    def test_bytes_equal_per_row_writer(self, tmp_path, chunk):
        # ragged series over two trains; a 500-minute gap runs past midnight
        # and a delay of -600 minutes back into the day before
        series = [
            DelaySeries("T1", "a", (0, 3, -2)), DelaySeries("T2", "b", (-600,)),
            DelaySeries("T1", "c", tuple(range(-5, 6))), DelaySeries("T2", "d", (15, -15)),
        ]
        with mock.patch.object(synth, "WRITE_CHUNK_SERIES", chunk):
            write_ingest_files(series, tmp_path / "tt.csv", tmp_path / "rz.csv",
                               base_date="2016-02-28", gap_minutes=500)
        reference_realization(series, tmp_path / "ref.csv", base_date="2016-02-28", gap_minutes=500)
        assert (tmp_path / "rz.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
