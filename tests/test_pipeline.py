"""The network-wide stages against the per-train code they replaced.

`test_store`, `train_bundle` and `evaluate_store` count, test, recover and
score every train of a store in blocks of trains. The oracles below are the
per-train loops those functions ran before: one count pass, one order test,
one recovery and one propagation per train, read through `store_series`.
The property compares both bit for bit on random multi-train stores.

A bundle is one `pipeline.Bundle` whether trained or loaded; its oracle is the
dict of trains of dicts from str(t) to matrix that bundles were before, each
recovered entry in (0, ENTRY_FLOOR) set to 0.0 as `train_bundle` stores it.
"""

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from railmc import pipeline
from railmc.config import RunConfig
from railmc.core import (ENTRY_FLOOR, ROW_SUM_TOL, CoverageError, EmptySelectionError, InputError,
                         StateSpace, build_count_tensor, check_transition_matrix)
from railmc.evaluate import marginal_predictor, naive_predictor, score_batch
from railmc.forecast import TREND_CLASSES, make_prediction, point_delay, propagate
from railmc.mctest import aggregate_reports, markov_property_test
from railmc.recovery import (diagonal_fill, empirical_matrix, gaussian_regression_fill,
                             kde_recover, uniform_fill)

STRATEGIES = ("diagonal", "uniform", "gaussian_regression", "gaussian_kernel")


def _stations(lengths):
    return range(2, lengths.max(initial=0) + 1)


def oracle_test_store(store, config):
    space = StateSpace(store.n_max)
    if not store.ids:
        raise EmptySelectionError("store holds no trains")
    rows = []
    for tid in store.ids:
        delays, lengths, _ = pipeline.store_series(store, tid)
        counts = build_count_tensor(delays, lengths, _stations(lengths), space)
        rows.extend({"train": tid, **row} for row in markov_property_test(counts, config))
    if not rows:
        raise EmptySelectionError("no testable stations in store")
    return {"per_station": rows, "aggregate": aggregate_reports(rows)}


def oracle_recover(delays, lengths, space, config):
    """One train's stack and its fallback mask."""
    counts = build_count_tensor(delays, lengths, _stations(lengths), space)
    if config.strategy == "gaussian_kernel":
        return kde_recover(counts, space), counts.n2.sum(axis=(1, 2)) == 1
    partial = empirical_matrix(counts)
    if config.strategy == "gaussian_regression":
        return gaussian_regression_fill(partial, counts, space, config)
    fill = diagonal_fill if config.strategy == "diagonal" else uniform_fill
    return fill(partial), np.zeros(len(partial), dtype=bool)


def oracle_train_bundle(store, config):
    """The bundle and the (train, station) keys whose recovery fell back."""
    if not store.ids:
        raise EmptySelectionError("store holds no trains")
    space = StateSpace(config.n_max)
    trains, fallbacks = {}, []
    for tid in store.ids:
        delays, lengths, _ = pipeline.store_series(store, tid)
        stack, fell_back = oracle_recover(delays, lengths, space, config)
        matrices = {}
        for t, mat, fell in zip(_stations(lengths), stack, fell_back):
            mat = np.where((mat > 0) & (mat < ENTRY_FLOOR), 0.0, mat)
            check_transition_matrix(mat[None], space)
            matrices[str(t)] = mat
            if fell:
                fallbacks.append((tid, t))
        if matrices:
            trains[tid] = {"matrices": matrices}
    if not trains:
        raise EmptySelectionError("no trainable stations in store")
    return {"meta": {"n_max": config.n_max, "strategy": config.strategy}, "trains": trains}, fallbacks


def as_bundle(document):
    """The `Bundle` of a bundle document of per-train matrix dicts, each
    train's matrices stacked in station order and the trains in sorted order."""
    ids = sorted(document["trains"])
    tables = [document["trains"][tid]["matrices"] for tid in ids]
    stations = [sorted(table, key=int) for table in tables]
    k = 2 * document["meta"]["n_max"] + 1
    matrices = np.concatenate([np.zeros((0, k, k))] + [
        np.stack([table[t] for t in keys]) for table, keys in zip(tables, stations) if keys])
    station = np.array([int(t) for keys in stations for t in keys], dtype=np.int64)
    return pipeline.Bundle(document["meta"], ids, [0, *itertools.accumulate(map(len, stations))],
                           matrices, station)


def assert_same_bundle(got, want):
    """Field by field, the arrays bit for bit."""
    assert (got.meta, got.ids, got.starts) == (want.meta, want.ids, want.starts)
    for a, b in ((got.matrices, want.matrices), (got.station, want.station)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def oracle_evaluate_store(eval_store, config, bundle=None, baseline=None, train_store=None,
                          from_station=1, target=None):
    pipeline._check_target(from_station, target)
    space = StateSpace(eval_store.n_max)
    model_space = space if bundle is None else StateSpace(bundle.meta["n_max"])
    columns, detail, skipped = [], [], 0
    for tid in eval_store.ids:
        delays, lengths, dates = pipeline.store_series(eval_store, tid)
        try:
            t_target = pipeline.resolve_target(eval_store, tid, from_station, config, target)
            covered = lengths >= t_target
            if not covered.any():
                raise CoverageError(f"no series of train {tid} reaches station {t_target}")
            if bundle is not None:
                chain = pipeline.bundle_matrices(bundle, tid, from_station, t_target)
            elif baseline == "naive":
                chain = naive_predictor(space)
            else:
                if tid not in train_store.ids:
                    raise CoverageError(f"training store has no train {tid}")
                t_delays, t_lengths, _ = pipeline.store_series(train_store, tid)
                try:
                    chain = marginal_predictor(
                        build_count_tensor(t_delays, t_lengths, t_target, space), space)
                except ValueError as exc:
                    raise CoverageError(str(exc)) from None
        except CoverageError:
            skipped += len(lengths)
            continue
        skipped += int((~covered).sum())
        d_S, d_T = delays[covered, from_station - 1], delays[covered, t_target - 1]
        distinct, series_of = np.unique(d_S, return_inverse=True)
        V = propagate(point_delay(distinct, model_space), chain)
        predicted = make_prediction(V, distinct, model_space, config)
        columns.append((d_S, d_T, *(x[series_of] for x in predicted)))
        detail.extend(
            {"train": tid, "date": date, "S": from_station, "T": t_target, "d_S": d_s,
             "d_T": d_t, "trend": TREND_CLASSES[c], "jump": j, "minutes": m}
            for date, d_s, d_t, c, j, m in zip(
                itertools.compress(dates, covered), *(x.tolist() for x in columns[-1])))
    if not detail:
        raise EmptySelectionError("no series could be evaluated")
    report = score_batch(*map(np.concatenate, zip(*columns)), config)
    return report, {"method": baseline or bundle.meta["strategy"], "skipped": skipped,
                    "scores": report.to_dict(), "predictions": detail}


@st.composite
def store_documents(draw, n_max):
    """A store document of up to four trains, listed in any order: each its
    own journey of one to six stations, planned minutes apart, and up to
    eight series of ragged lengths."""
    ids = draw(st.lists(st.sampled_from(["T1", "T2", "T10", "A", "b"]), unique=True, max_size=4))
    trains = {}
    for tid in ids:
        n_stations = draw(st.integers(1, 6))
        gaps = draw(st.lists(st.integers(0, 30), min_size=n_stations, max_size=n_stations))
        minutes = list(itertools.accumulate(gaps))
        journeys = draw(st.lists(
            st.lists(st.integers(-n_max, n_max), min_size=1, max_size=n_stations), max_size=8))
        trains[tid] = {
            "stations": [[f"S{t}", "V"] for t in range(n_stations)],
            "planned": [f"2024-01-01T{8 + m // 60:02d}:{m % 60:02d}:00" for m in minutes],
            "series": [{"date": f"2024-02-{d + 1:02d}", "delays": j} for d, j in enumerate(journeys)],
        }
    return {"n_max": n_max, "trains": trains}


def _outcome(call):
    """A call's result as JSON text, or the type and message of what it raised."""
    try:
        result = call()
    except (EmptySelectionError, CoverageError) as exc:
        return type(exc).__name__, str(exc)
    return json.dumps(result, sort_keys=True, default=lambda x: x.tolist())


def _evaluation(call):
    try:
        report, payload = call()
    except (EmptySelectionError, CoverageError) as exc:
        return type(exc).__name__, str(exc)
    return json.dumps([report.to_dict(), payload], sort_keys=True)


def _journeys(n_stations, lengths):
    return {"stations": [[f"S{t}", "V"] for t in range(n_stations)],
            "planned": [f"2024-01-01T08:{10 * t:02d}:00" for t in range(n_stations)],
            "series": [{"date": f"2024-02-{d + 1:02d}", "delays": [(d + t) % 3 - 1 for t in range(n)]}
                       for d, n in enumerate(lengths)]}


# the edge cases: a train with no series, one whose series all stop at station 1,
# and trains of different lengths listed out of sorted order
EDGES = {"n_max": 1, "trains": {"T2": _journeys(6, [6, 3, 6, 2]), "T1": _journeys(3, [])}}
EDGES["trains"]["A"] = _journeys(4, [1, 1, 1])
EDGES["trains"]["b"] = _journeys(2, [2, 1, 2])
# correlated journeys at n_max 3, whose KDE rows hold entries in (0, ENTRY_FLOOR)
TAILS = {"n_max": 3, "trains": {"T1": {
    "stations": [[f"S{t}", "V"] for t in range(4)],
    "planned": [f"2024-01-01T08:{10 * t:02d}:00" for t in range(4)],
    "series": [{"date": f"2024-02-{d + 1:02d}", "delays": j} for d, j in enumerate(
        [[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [0, 1, 1, 1], [1, 0, 0, 0]])]}}}


@st.composite
def networks(draw):
    """n_max, an evaluation store, a training store and a horizon in minutes."""
    n_max = draw(st.sampled_from([1, 2, 3]))
    return n_max, draw(store_documents(n_max)), draw(store_documents(n_max)), draw(
        st.sampled_from([5.0, 20.0, 60.0]))


class TestNetworkEqualsPerTrain:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(networks())
    @example((1, EDGES, EDGES, 20.0))
    @example((3, TAILS, EDGES, 20.0))
    def test_every_stage_equals_the_per_train_oracle(self, drawn):
        n_max, document, train_document, horizon = drawn
        store, train_store = pipeline.parse_store(document), pipeline.parse_store(train_document)
        config = RunConfig(n_max=n_max, horizon_minutes=horizon, alpha1=0.3, alpha2=0.3)

        assert _outcome(lambda: pipeline.test_store(store, config)) == \
            _outcome(lambda: oracle_test_store(store, config))
        bundles = []
        for strategy in STRATEGIES:
            config_s = RunConfig(n_max=n_max, horizon_minutes=horizon, strategy=strategy)
            fallbacks = []
            try:
                bundle = pipeline.train_bundle(store, config_s, fallbacks)
            except EmptySelectionError as exc:
                with pytest.raises(EmptySelectionError, match=str(exc)):
                    oracle_train_bundle(store, config_s)
                continue
            want, want_fallbacks = oracle_train_bundle(store, config_s)
            assert_same_bundle(bundle, as_bundle(want))
            assert fallbacks == want_fallbacks, strategy
            # every stored entry is 0.0 or at least the floor, and every row still sums to 1
            assert not ((bundle.matrices > 0) & (bundle.matrices < ENTRY_FLOOR)).any(), strategy
            assert (np.abs(bundle.matrices.sum(axis=-1) - 1.0) <= ROW_SUM_TOL).all(), strategy
            bundles.append(bundle)
        methods = [{"baseline": "naive"}, {"baseline": "marginal", "train_store": train_store},
                   {"baseline": "marginal", "train_store": store}]
        methods += [{"bundle": bundle} for bundle in bundles]
        for from_station, target in ((1, None), (1, 3), (2, None), (2, 5)):
            for kwargs in methods:
                args = dict(from_station=from_station, target=target, **kwargs)
                assert _evaluation(lambda: pipeline.evaluate_store(store, config, **args)) == \
                    _evaluation(lambda: oracle_evaluate_store(store, config, **args)), args


class TestTrainedBundleIsLoadedBundle:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(networks())
    @example((1, EDGES, EDGES, 20.0))
    def test_saved_and_loaded_bundle_equals_the_trained_one(self, tmp_path_factory, drawn):
        # EDGES holds a train whose series all stop at station 1 and trains of different lengths
        n_max, document, _, _ = drawn
        store = pipeline.parse_store(document)
        path = tmp_path_factory.getbasetemp() / "round_trip.json"
        for strategy in STRATEGIES:
            config = RunConfig(n_max=n_max, strategy=strategy)
            try:
                bundle = pipeline.train_bundle(store, config)
            except EmptySelectionError:
                continue
            pipeline.save_json(bundle, path)
            assert_same_bundle(pipeline.load_bundle(path), bundle)
            # the oracle: the per-train dicts, as lists, written by json itself
            want, _ = oracle_train_bundle(store, config)
            lists = {"meta": want["meta"], "trains": {
                tid: {"matrices": {t: m.tolist() for t, m in entry["matrices"].items()}}
                for tid, entry in want["trains"].items()}}
            assert path.read_text() == json.dumps(lists, sort_keys=True, separators=(",", ":")) + "\n"


def _identity(k=3):
    return np.eye(k).tolist()


@pytest.mark.parametrize("train, s, t, message", [
    ("C", 1, 2, "bundle has no matrices for train C"),
    ("AA", 1, 2, "bundle has no matrices for train AA"),
    ("0", 1, 2, "bundle has no matrices for train 0"),
    ("A", 1, 3, "bundle misses station 2 for train A"),
    ("B", 1, 5, "bundle misses station 4 for train B"),
    ("B", 1, 40, "bundle misses station 4 for train B"),
    ("B", 3, 6, "bundle misses station 4 for train B"),
    ("B", 4, 6, "bundle misses station 6 for train B"),
    ("B", 5, 7, "bundle misses station 6 for train B"),
    ("B", 1, 10**30, "bundle misses station 4 for train B"),
    ("B", 9, 10**30, "bundle misses station 11 for train B"),
], ids=["missing_train_last", "missing_train_between", "missing_train_first", "empty_table",
        "gap", "gap_far_target", "gap_at_start", "past_the_last", "after_the_last",
        "gap_before_a_huge_target", "a_huge_target"])
def test_a_chain_the_bundle_lacks_names_the_train_or_the_first_missing_station(train, s, t, message):
    bundle = pipeline.parse_bundle({"meta": {"n_max": 1, "strategy": "diagonal"}, "trains": {
        "A": {"matrices": {}}, "B": {"matrices": {"10": _identity(), "2": _identity(), "3": _identity(),
                                                  "5": _identity()}}}})
    with pytest.raises(CoverageError, match=f"^{re.escape(message)}$"):
        pipeline.bundle_matrices(bundle, train, s, t)


def test_a_chain_is_a_view_of_its_stations_in_order(tmp_path):
    # a distinct permutation matrix per station, so the order of a chain shows
    steps = {str(t): np.eye(3)[[t % 3, (t + 1) % 3, (t + 2) % 3]].tolist() for t in (2, 3, 4, 10)}
    document = {"meta": {"n_max": 1, "strategy": "diagonal"},
                "trains": {"B": {"matrices": steps}, "A": {"matrices": {}},
                           "Zü\u00f1": {"matrices": {"3": steps["3"]}}}}
    bundle = pipeline.parse_bundle(document)
    assert (bundle.ids, bundle.starts, bundle.station.tolist()) == (
        ["A", "B", "Zü\u00f1"], [0, 0, 4, 5], [2, 3, 4, 10, 3])
    chain = pipeline.bundle_matrices(bundle, "B", 1, 4)
    assert chain.base is not None and not chain.flags.writeable
    assert chain.tolist() == [steps["2"], steps["3"], steps["4"]]
    assert pipeline.bundle_matrices(bundle, "B", 9, 10).tolist() == [steps["10"]]
    # written back a train at a time, the bundle is its document's text: trains
    # sorted, station keys sorted as strings ("10" before "2"), non-ASCII escaped
    pipeline.save_json(bundle, tmp_path / "bundle.json")
    want = json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    assert (tmp_path / "bundle.json").read_text(encoding="ascii") == want


def test_edge_stores_parse_to_views_of_one_table():
    store = pipeline.parse_store(EDGES)
    assert (store.n_max, store.ids, store.starts) == (1, ["A", "T1", "T2", "b"], [0, 3, 3, 7, 10])
    assert store.reach.tolist() == [1, 0, 6, 2]
    assert store.train.tolist() == [0, 0, 0, 2, 2, 2, 2, 3, 3, 3]
    assert [template.train_id for template in store.templates] == store.ids
    for tid in store.ids:
        delays, lengths, dates = pipeline.store_series(store, tid)
        assert delays.base is store.delays and not delays.flags.writeable
        want = EDGES["trains"][tid]["series"]
        assert dates == [s["date"] for s in want]
        assert [row[:n].tolist() for row, n in zip(delays, lengths)] == [s["delays"] for s in want]


@pytest.mark.parametrize("blocks", [1, 2, 3, 1000])
def test_block_size_changes_no_result(monkeypatch, blocks):
    # blocks of one train up to one block for the whole store give the same outputs
    store = pipeline.parse_store(EDGES)
    config = RunConfig(n_max=1, strategy="gaussian_regression")
    want = (_outcome(lambda: pipeline.test_store(store, config)),
            _outcome(lambda: pipeline.train_bundle(store, config)),
            _evaluation(lambda: pipeline.evaluate_store(
                store, config, baseline="marginal", train_store=store, target=2)))
    monkeypatch.setattr(pipeline, "_BLOCK_STATIONS", blocks)
    assert (_outcome(lambda: pipeline.test_store(store, config)),
            _outcome(lambda: pipeline.train_bundle(store, config)),
            _evaluation(lambda: pipeline.evaluate_store(
                store, config, baseline="marginal", train_store=store, target=2))) == want


@pytest.mark.parametrize("blocks", [2, 1000])
def test_the_bundle_index_is_the_counted_axis(monkeypatch, tmp_path, blocks):
    # the trained bundle's ids, starts and station are the (train, station) keys
    # `_station_blocks` counts, block after block, and its saved file parses to them
    monkeypatch.setattr(pipeline, "_BLOCK_STATIONS", blocks)
    store = pipeline.parse_store(EDGES)
    axis = pipeline._station_axis(store)
    train, keys, bounds = axis[0], [], []
    for e0, e1, counts in pipeline._station_blocks(store, axis, StateSpace(1)):
        keys += zip([store.ids[c] for c in train[e0:e1].tolist()], counts.stations.tolist())
        bounds.append((e0, e1))
    assert bounds == {2: [(0, 5), (5, 6)], 1000: [(0, 6)]}[blocks]
    ids = list(dict.fromkeys(tid for tid, _ in keys))
    starts = [[tid for tid, _ in keys].index(i) for i in ids] + [len(keys)]
    want = (ids, starts, [t for _, t in keys])
    assert want == (["T2", "b"], [0, 5, 6], [2, 3, 4, 5, 6, 2])
    bundle = pipeline.train_bundle(store, RunConfig(n_max=1))
    assert (bundle.ids, bundle.starts, bundle.station.tolist()) == want
    pipeline.save_json(bundle, tmp_path / "bundle.json")
    loaded = pipeline.parse_bundle(json.loads((tmp_path / "bundle.json").read_text()))
    assert (loaded.ids, loaded.starts, loaded.station.tolist()) == want


FAULTS = {
    "range": lambda train: train["series"][1]["delays"].__setitem__(0, 2),
    "type": lambda train: train["series"][0]["delays"].__setitem__(1, "1"),
    "template": lambda train: train.__setitem__("stations", "S0"),
    "long": lambda train: train["series"][2]["delays"].append(0),
}


@pytest.mark.parametrize("first, second", [(a, b) for a in FAULTS for b in FAULTS])
def test_the_first_failing_train_in_document_order_is_named(first, second):
    # the delays of all trains are range-checked at once, yet the error is the
    # one a train-by-train check would raise first
    document = {"n_max": 1, "trains": {"T2": _journeys(3, [3, 3, 3]), "T1": _journeys(3, [3, 3, 3])}}
    FAULTS[first](document["trains"]["T2"])
    FAULTS[second](document["trains"]["T1"])
    with pytest.raises(InputError) as alone:
        pipeline.parse_store({"n_max": 1, "trains": {"T2": document["trains"]["T2"]}})
    with pytest.raises(InputError, match=f"^{re.escape(str(alone.value))}$"):
        pipeline.parse_store(document)


def test_a_bad_recovered_matrix_is_named_by_train_and_station(monkeypatch):
    # the stack is checked at once; the first bad matrix in (train, station) order is named.
    # A negative entry above -ENTRY_FLOOR leaves its row summing to 1, and only the
    # floor's `> 0` keeps it from being zeroed before the check
    from railmc import recovery

    fill = recovery.diagonal_fill
    for spoil, reason in [(lambda row: row * 2.0, "row 0 sums to "),
                          (lambda row: [1.0, -1e-300, 0.0], "matrix holds negative entries"),
                          (lambda row: [1.0, np.nan, 0.0], "matrix holds NaN or infinite entries")]:

        def spoiled(partial, spoil=spoil):
            stack = fill(partial)
            stack[1:, 0] = spoil(stack[1:, 0])  # row 0 of T2's stations 3 to 6 and b's station 2
            return stack

        monkeypatch.setattr(recovery, "diagonal_fill", spoiled)
        with pytest.raises(ValueError, match=f"^recovered matrix for train T2 station 3: {reason}"):
            pipeline.train_bundle(pipeline.parse_store(EDGES), RunConfig(n_max=1, strategy="diagonal"))


def test_a_bundle_with_entries_below_the_floor_loads_and_scores_as_written(tmp_path):
    # bundles trained before the floor hold far-tail entries; reading one keeps every
    # bit, writing it back gives its text, and it scores as its matrices do unread
    rows = [[0.75, 0.25, 1e-300], [3e-250, 0.5, 0.5], [1.25e-40, 5e-324, 1.0]]
    steps = {str(t): [rows[(r + t) % 3] for r in range(3)] for t in range(2, 7)}
    document = {"meta": {"n_max": 1, "strategy": "gaussian_kernel"},
                "trains": {"T2": {"matrices": steps}, "b": {"matrices": {"2": steps["2"]}}}}
    text = json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    (tmp_path / "old.json").write_text(text)
    bundle = pipeline.load_bundle(tmp_path / "old.json")
    assert_same_bundle(bundle, as_bundle(document))
    assert (bundle.matrices == 5e-324).sum() == 6
    pipeline.save_json(bundle, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == text
    store, config = pipeline.parse_store(EDGES), RunConfig(n_max=1)
    for target in (None, 6):
        assert _evaluation(lambda: pipeline.evaluate_store(store, config, bundle=bundle, target=target)) \
            == _evaluation(lambda: oracle_evaluate_store(store, config, as_bundle(document), target=target))
