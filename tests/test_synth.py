import collections
import csv
import datetime as dt
import hashlib
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from railmc import cli, synth
from railmc.config import RunConfig
from railmc.core import DelaySeries, StateSpace
from railmc.ingest import assemble_series, load_timetable, parse_events
from railmc.synth import ChainSpec, near_diagonal_spec, sample_delays, sample_series, write_ingest_files


class TestChainSpec:
    def test_row_validation(self):
        space = StateSpace(1)
        with pytest.raises(ValueError):
            ChainSpec(space, 2, 1, np.array([0.5, 0.5, 0.1]), seed=0,
                      matrices=(np.eye(3),))
        with pytest.raises(ValueError):
            ChainSpec(space, 2, 3, np.full(3, 1 / 3), seed=0)
        # NaN fails every comparison, so "> tolerance" and "< 0" checks let it through
        for nan_row in (np.array([np.nan, 0.5, 0.5]), np.full(3, np.nan)):
            with pytest.raises(ValueError, match="probability vectors"):
                ChainSpec(space, 2, 1, nan_row, seed=0, matrices=(np.eye(3),))
            with pytest.raises(ValueError, match="probability vectors"):
                ChainSpec(space, 2, 1, np.full(3, 1 / 3), seed=0,
                          matrices=(np.vstack([np.eye(3)[:2], nan_row]),))
        # arrays over 5 states in a 3-state space would sample delays outside [-1, 1]
        with pytest.raises(ValueError, match=r"initial over 3 states must have shape \(3,\), got \(5,\)"):
            ChainSpec(space, 2, 1, np.full(5, 0.2), seed=0, matrices=(np.full((5, 5), 0.2),))
        with pytest.raises(ValueError, match=r"matrices over 3 states must have shape \(3, 3\)"):
            ChainSpec(space, 2, 1, np.full(3, 1 / 3), seed=0, matrices=(np.full((5, 5), 0.2),))
        # a station with no matrix would fail in `sample_delays` with an IndexError
        with pytest.raises(ValueError, match="order-1 chain of length 3 takes 2 matrices, got 1"):
            ChainSpec(space, 3, 1, np.full(3, 1 / 3), seed=0, matrices=(np.eye(3),))
        with pytest.raises(ValueError, match="order-2 chain of length 4 takes 2 tensors, got 1"):
            ChainSpec(space, 4, 2, np.full(3, 1 / 3), seed=0, matrices=(np.eye(3),),
                      tensors=(np.full((3, 3, 3), 1 / 3),))
        with pytest.raises(ValueError, match="order-0 chain of length 2 takes 0 matrices, got 1"):
            ChainSpec(space, 2, 0, np.full(3, 1 / 3), seed=0, marginals=(np.eye(3)[0],) * 2,
                      matrices=(np.eye(3),))

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
    @pytest.mark.filterwarnings("error")
    def test_rows_center_on_diagonal(self):
        space = StateSpace(5)
        # a dispersion this tiny overflows the exponent (in the square, or in
        # the divide for the denormal), silently: the chain is the identity
        for dispersion, identity in ((0.8, False), (1e-300, True), (5e-324, True)):
            mat = near_diagonal_spec(space, 2, dispersion, seed=0).matrices[0]
            for r in range(space.cardinality):
                assert int(np.argmax(mat[r])) == r
            assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)
            assert (mat == np.eye(space.cardinality)).all() == identity

    def test_matrices_are_one_read_only_array(self):
        spec = near_diagonal_spec(StateSpace(2), 5, 1.0, seed=0)
        first = spec.matrices[0]
        assert len(spec.matrices) == 4 and all(m is first for m in spec.matrices)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_dispersion_validation(self):
        with pytest.raises(ValueError):
            near_diagonal_spec(StateSpace(2), 2, 0.0, seed=0)
        with pytest.raises(ValueError, match="dispersion must be positive"):
            near_diagonal_spec(StateSpace(3), 4, float("nan"), seed=0)


def reference_sample_delays(spec, count):
    """The per-station sampler: one `random(count)` call and one cumulative sum over
    the rows gathered at each station, the initial and order-0 rows tiled per journey."""
    rng = np.random.default_rng(spec.seed)

    def draw(rows):
        cum = np.cumsum(rows, axis=1)
        r = rng.random(len(rows))
        return (cum > r[:, None]).argmax(axis=1)

    idx = np.empty((count, spec.length), dtype=np.int64)
    idx[:, 0] = draw(np.tile(spec.initial, (count, 1)))
    for t in range(2, spec.length + 1):
        if spec.order == 0:
            rows = np.tile(spec.marginals[t - 1], (count, 1))
        elif spec.order == 1 or t == 2:
            rows = spec.matrices[t - 2][idx[:, t - 2]]
        else:
            rows = spec.tensors[t - 3][idx[:, t - 3], idx[:, t - 2]]
        idx[:, t - 1] = draw(rows)
    return idx - spec.space.n_max


@st.composite
def chain_specs(draw):
    """A spec of any order whose stations draw their arrays from a pool of 1 to 3:
    one array shared by every station, distinct arrays, or a mix."""
    space = StateSpace(draw(st.integers(1, 3)))
    k, length, order = space.cardinality, draw(st.integers(1, 6)), draw(st.sampled_from([0, 1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rows(shape):  # some zero entries, never an all-zero row
        a = rng.random(shape) * (rng.random(shape) > 0.3)
        a[a.sum(axis=-1) == 0] = 1.0
        return a / a.sum(axis=-1, keepdims=True)

    def stations(n, shape):
        pool = [rows(shape) for _ in range(draw(st.integers(1, 3)))]
        return tuple(pool[i % len(pool)] for i in range(n))

    counts = {0: (length, 0, 0), 1: (0, length - 1, 0), 2: (0, min(length - 1, 1), max(length - 2, 0))}[order]
    marginals, matrices, tensors = (stations(n, shape) for n, shape in zip(counts, [(k,), (k, k), (k, k, k)]))
    return ChainSpec(space, length, order, rows(k), seed=draw(st.integers(0, 2**63)),
                     matrices=matrices, marginals=marginals, tensors=tensors)


class TestSampleDelaysOracle:
    @settings(max_examples=200, deadline=None)
    @given(chain_specs(), st.integers(1, 64))
    def test_matches_per_station_sampler(self, spec, count):
        got = sample_delays(spec, count)
        assert got.dtype == np.int64 and got.shape == (count, spec.length)
        assert np.array_equal(got, reference_sample_delays(spec, count))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _golden_specs():
    """One spec of each order over 5 states, from fixed rows."""
    space = StateSpace(2)
    k = space.cardinality
    rng = np.random.default_rng(0)

    def rows(shape):
        a = rng.random(shape) + 0.05
        return a / a.sum(axis=-1, keepdims=True)

    initial = rows(k)
    order0 = ChainSpec(space, 5, 0, initial, seed=11, marginals=tuple(rows(k) for _ in range(5)))
    order1 = ChainSpec(space, 5, 1, initial, seed=12, matrices=tuple(rows((k, k)) for _ in range(4)))
    matrix = rows((k, k))
    order2 = ChainSpec(space, 5, 2, initial, seed=13, matrices=(matrix,), tensors=(rows((k, k, k)),) * 3)
    return {"order0": order0, "order1": order1, "order2": order2}


class TestGoldenStream:
    """The synthetic stream, pinned: any change in draw order or CSV bytes shows here.

    The digests were computed with the per-station sampler (one `random(count)` call
    and one cumulative sum of the gathered rows per station), before the sampler drew
    all of a spec's uniforms at once; a change that alters them changes every corpus.
    """

    def test_cli_synth_csv_digests(self, tmp_path, capsys):
        tt, rz = tmp_path / "tt.csv", tmp_path / "rz.csv"
        assert cli.main(["synth", "--series", "20", "--trains", "3", "--length", "6", "--seed", "7",
                         "--out-timetable", str(tt), "--out-realization", str(rz)]) == 0
        assert _sha256(tt.read_bytes()) == "104fe348a190ba29bef5855a347f3d2fd2e26973cc03d96dd9ea2228227a1eb2"
        assert _sha256(rz.read_bytes()) == "326835e0b686f46564b7bdfcb0ded3c21731c5072322c8a9b599d982ea632b9c"

    def test_sample_delays_digests(self):
        expected = {
            "order0": "647e7f1774a5c7419b405b0fa8034d5f3af93884fbc75b2b5efdd8ce9ccaa197",
            "order1": "44112e890f92ea0defbe1b7d41073aff065b8f3ff9e3a5dddb5f28bdb77f4380",
            "order2": "099fe921757c4be00e47c5cb960fce4c3657764d91e89605aaf79ae3fc8f57a7",
        }
        got = {name: _sha256(sample_delays(spec, 40).astype("<i8").tobytes())
               for name, spec in _golden_specs().items()}
        assert got == expected


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
        recovered, rejects = assemble_series(events, templates, RunConfig())
        assert rejects == []
        got = [tuple(s["delays"]) for s in recovered["T001"]["series"]]
        assert sorted(got) == sorted(s.delays for s in sampled)

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_ingest_files([], tmp_path / "a.csv", tmp_path / "b.csv")


def reference_timetable(series, path, base_date="2017-09-04", gap_minutes=7):
    """The per-row timetable writer: one datetime and one `writerow` per train and station."""
    start = dt.datetime.fromisoformat(f"{base_date}T08:00:00")
    max_len = max(len(s.delays) for s in series)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["train_id", "station_code", "activity", "planned_time", "sequence"])
        for tid in sorted({s.train_id for s in series}):
            for t in range(1, max_len + 1):
                planned = start + dt.timedelta(minutes=gap_minutes * (t - 1))
                w.writerow([tid, f"S{t:02d}", "V", planned.isoformat(), t])


def reference_realization(series, path, base_date="2017-09-04", gap_minutes=7):
    """The per-row writer: one datetime and one `writerow` per event."""
    day0 = dt.date.fromisoformat(base_date)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["train_id", "date", "station_code", "activity", "planned_time", "realized_time"])
        for n, s in enumerate(series):
            date = day0 + dt.timedelta(days=n)
            for t, delay in enumerate(s.delays, start=1):
                planned = dt.datetime.combine(date, dt.time(8, 0)) + dt.timedelta(minutes=gap_minutes * (t - 1))
                realized = planned + dt.timedelta(minutes=delay)
                w.writerow([s.train_id, date.isoformat(), f"S{t:02d}", "V",
                            planned.isoformat(), realized.isoformat()])


def assert_writer_matches_references(series, directory, chunk, base_date, gap_minutes):
    """Both files of `write_ingest_files`, with `chunk` series a chunk, byte-equal the per-row writers'."""
    directory = Path(directory)
    with mock.patch.object(synth, "WRITE_CHUNK_SERIES", chunk):
        write_ingest_files(series, directory / "tt.csv", directory / "rz.csv",
                           base_date=base_date, gap_minutes=gap_minutes)
    reference_timetable(series, directory / "ref_tt.csv", base_date=base_date, gap_minutes=gap_minutes)
    reference_realization(series, directory / "ref_rz.csv", base_date=base_date, gap_minutes=gap_minutes)
    assert (directory / "tt.csv").read_bytes() == (directory / "ref_tt.csv").read_bytes()
    assert (directory / "rz.csv").read_bytes() == (directory / "ref_rz.csv").read_bytes()


# characters csv must quote, spaces, and non-ASCII text, mixed with plain id characters
TRAIN_IDS = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "T", "0", "7", "é", "列", "🚆"])
                    | st.characters(codec="utf-8"), max_size=6)
# days just before a leap day, a year end or both, each series one day after the last
BASE_DATES = st.builds(
    lambda anchor, offset: (anchor + dt.timedelta(days=offset)).isoformat(),
    st.sampled_from([dt.date(2000, 2, 27), dt.date(2015, 12, 29), dt.date(2016, 2, 27),
                     dt.date(2019, 12, 31), dt.date(2100, 2, 27)]),
    st.integers(-3, 3))


@st.composite
def writer_inputs(draw):
    ids = draw(st.lists(TRAIN_IDS, min_size=1, max_size=3))
    series = draw(st.lists(
        st.builds(DelaySeries, st.sampled_from(ids), st.just("d"),
                  st.lists(st.integers(-240, 240), min_size=1, max_size=30).map(tuple)),
        min_size=1, max_size=8))
    return series, draw(st.integers(1, 5)), draw(BASE_DATES), draw(st.integers(1, 1440))


class TestRealizationWriter:
    @pytest.mark.parametrize("chunk", [1, 2, 256])
    def test_bytes_equal_per_row_writer(self, tmp_path, chunk):
        # ragged series over two trains; a 500-minute gap runs past midnight
        # and a delay of -600 minutes back into the day before
        series = [
            DelaySeries("T1", "a", (0, 3, -2)), DelaySeries("T2", "b", (-600,)),
            DelaySeries("T1", "c", tuple(range(-5, 6))), DelaySeries("T2", "d", (15, -15)),
        ]
        assert_writer_matches_references(series, tmp_path, chunk, "2016-02-28", 500)

    @settings(max_examples=100, deadline=None)
    @given(writer_inputs())
    @example(([DelaySeries('a,"b\r\n', "d", (-240, 0, 240)), DelaySeries(" é", "d", (1,) * 30)],
              2, "2016-02-28", 1440))
    # the first series' realized times fall on the days before the base date
    @example(([DelaySeries("T1", "d", (-600, -3000)), DelaySeries("T1", "d", (-481,))], 1, "2017-01-01", 1))
    def test_bytes_equal_per_row_writers_on_any_input(self, drawn):
        series, chunk, base_date, gap_minutes = drawn
        with tempfile.TemporaryDirectory() as tmp:
            assert_writer_matches_references(series, tmp, chunk, base_date, gap_minutes)
