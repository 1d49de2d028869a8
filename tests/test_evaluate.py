import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railmc import pipeline
from railmc.cli import main
from railmc.config import METRICS, POINT_METRICS, RWMSE_FORMS, RunConfig
from railmc.core import CountTensor, StateSpace, build_count_tensor
from railmc.forecast import make_prediction, point_delay, propagate
from railmc.synth import near_diagonal_spec, sample_series
from railmc.evaluate import (
    TREND_CLASSES,
    ScoreReport,
    actual_jump,
    actual_trend,
    f1_class,
    jump_score,
    marginal_predictor,
    naive_predictor,
    rwmse,
    score_batch,
    total_score,
    trend_score,
)

from test_core import series


class TestF1:
    def test_perfect(self):
        assert f1_class(10, 0, 0) == 1.0

    def test_zero_true_positives(self):
        assert f1_class(0, 5, 3) == 0.0
        assert f1_class(0, 0, 0) == 0.0

    def test_hand_case(self):
        # precision 3/4, recall 3/5 -> F1 = 2 * .75 * .6 / 1.35 = 2/3
        assert f1_class(3, 1, 2) == pytest.approx(2 / 3, abs=1e-12)

    def test_negative_tallies_rejected(self):
        with pytest.raises(ValueError):
            f1_class(-1, 0, 0)


class TestActualLabels:
    def test_trend_exact_comparison(self):
        trend = actual_trend(np.array([3, 3, 3]), np.array([4, 2, 3]))
        assert TREND_CLASSES[trend[0]] == "increase"
        assert TREND_CLASSES[trend[1]] == "decrease"
        assert TREND_CLASSES[trend[2]] == "equal"

    def test_jump_threshold(self):
        jump = actual_jump(np.array([0, 0, 0, 5]), np.array([2, -2, 1, 4]))
        assert jump.dtype == bool
        assert jump[0]
        assert jump[1]
        assert not jump[2]
        assert not jump[3]


def codes(labels):
    """Trend labels as the codes into TREND_CLASSES that scoring reads."""
    return np.array([TREND_CLASSES.index(label) for label in labels], dtype=np.intp)


class TestTrendScore:
    def test_all_correct(self):
        labels = codes(["increase", "decrease", "equal", "increase"])
        f_tr, per_f1, _ = trend_score(labels, labels)
        assert f_tr == 1.0
        assert per_f1 == {"increase": 1.0, "decrease": 1.0, "equal": 1.0}

    def test_matches_confusion_matrix_oracle(self):
        rng = random.Random(42)
        classes = ["increase", "decrease", "equal"]
        predicted = [rng.choice(classes) for _ in range(200)]
        actual = [rng.choice(classes) for _ in range(200)]
        f_tr, per_f1, tallies = trend_score(codes(predicted), codes(actual))
        # independent oracle: explicit 3x3 confusion matrix
        conf = {(p, a): 0 for p in classes for a in classes}
        for p, a in zip(predicted, actual):
            conf[(p, a)] += 1
        expect = {}
        for cls in classes:
            tp = conf[(cls, cls)]
            fp = sum(conf[(cls, a)] for a in classes if a != cls)
            fn = sum(conf[(p, cls)] for p in classes if p != cls)
            expect[cls] = (
                0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)
            )
            assert tallies[cls]["tp"] == tp
            assert tallies[cls]["fp"] == fp
            assert tallies[cls]["fn"] == fn
        for cls in classes:
            assert per_f1[cls] == pytest.approx(expect[cls], abs=1e-12)
        assert f_tr == pytest.approx(sum(expect.values()) / 3, abs=1e-12)

    def test_permutation_invariance(self):
        rng = random.Random(7)
        classes = ["increase", "decrease", "equal"]
        pairs = [(rng.choice(classes), rng.choice(classes)) for _ in range(50)]
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        a = trend_score(codes(p for p, _ in pairs), codes(a for _, a in pairs))[0]
        b = trend_score(codes(p for p, _ in shuffled), codes(a for _, a in shuffled))[0]
        assert a == b

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            trend_score(codes(["equal"]), codes([]))


class TestJumpScore:
    def test_hand_case(self):
        predicted = [True, True, False, False]
        actual = [True, False, True, False]
        f_jp, tallies = jump_score(predicted, actual)
        assert tallies == {"tp": 1, "fp": 1, "fn": 1, "tn": 1}
        assert f_jp == pytest.approx(0.5)


class TestRwmse:
    def test_hand_value(self):
        # one small-delay error of 1 (weight 0.2) and one large-delay error of
        # 2 (weight 0.8): sqrt(0.2 * 1 + 0.8 * 2) = sqrt(1.8)
        value = rwmse([1.0, 7.0], [0, 5], RunConfig())
        assert value == pytest.approx(math.sqrt(1.8), abs=1e-12)
        assert value == pytest.approx(1.3416, abs=1e-4)

    def test_weight_mass_is_one(self):
        rng = np.random.default_rng(3)
        actual = [int(d) for d in rng.integers(-10, 11, size=100)]
        small = sum(1 for d in actual if abs(d) <= 1)
        large = len(actual) - small
        assert small and large
        w1, w2 = 0.2 / small, 0.8 / large
        assert small * w1 + large * w2 == pytest.approx(1.0, abs=1e-12)

    def test_single_class_renormalizes(self):
        # all actual delays small: surviving class carries full unit mass
        assert rwmse([1.0, 0.0], [0, 1], RunConfig()) == pytest.approx(math.sqrt(0.5 * 1 + 0.5 * 1))
        assert rwmse([6.0, 6.0], [5, 7], RunConfig()) == pytest.approx(math.sqrt(0.5 * 1 + 0.5 * 1))

    def test_squared_form(self):
        assert rwmse([2.0, 8.0], [0, 5], RunConfig(rwmse_form="squared")) == pytest.approx(
            math.sqrt(0.2 * 4 + 0.8 * 9)
        )

    def test_zero_error(self):
        assert rwmse([0.0, 5.0], [0, 5], RunConfig()) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            rwmse([], [], RunConfig())
        with pytest.raises(ValueError, match="prediction/actual length mismatch"):
            rwmse([0.0, 1.0], [0], RunConfig())


class TestTotalScore:
    def test_published_score_arithmetic(self):
        assert total_score(0.56716, 0.57231, 2.88631) == pytest.approx(5.64684, abs=1e-5)
        assert total_score(0.48485, 0.56947, 3.04482) == pytest.approx(4.65101, abs=1e-4)

    def test_weights(self):
        assert total_score(1.0, 1.0, 0.0) == 15.0
        assert total_score(0.0, 0.0, 2.5) == -2.5


def predict(chain, d_s, space, config=RunConfig()):
    """The forecasts of a block of current delays through a (steps, k, k) chain:
    trend codes, jump flags, minutes and the propagated distributions."""
    V = propagate(point_delay(d_s, space), chain)
    return (*make_prediction(V, d_s, space, config), V)


class TestBaselinePredictors:
    def test_naive(self):
        space = StateSpace(15)
        chain = naive_predictor(space)
        assert chain.shape == (0, 31, 31)
        (trend,), (jump,), (minutes,), (v,) = predict(chain, [7], space)
        assert TREND_CLASSES[trend] == "equal"
        assert jump.dtype == bool and not jump
        assert minutes == 7.0
        assert v[space.index(7)] == 1.0

    @pytest.mark.parametrize("n_max", [1, 2, 15])
    def test_naive_is_persistence_under_every_metric(self, n_max):
        space = StateSpace(n_max)
        chain = naive_predictor(space)
        for trend, jump, minutes in itertools.product(METRICS, METRICS, POINT_METRICS):
            config = RunConfig(trend_metric=trend, jump_metric=jump, minutes_metric=minutes)
            d_s = np.array(sorted({-n_max, -1, 0, 1, n_max}))
            trend, jump, minutes, _ = predict(chain, d_s, space, config)
            assert [TREND_CLASSES[c] for c in trend] == ["equal"] * len(d_s)
            assert jump.tolist() == [False] * len(d_s)
            assert np.array_equal(minutes, d_s) and minutes.dtype == float

    def test_marginal(self):
        space = StateSpace(15)
        n1 = np.zeros(space.cardinality, dtype=np.int64)
        n1[space.index(0)], n1[space.index(5)] = 3, 1
        none = np.zeros(0, np.int64)
        counts = CountTensor(np.array([5]), n1[None], np.zeros((1, 31, 31), np.int64), none, none)
        chain = marginal_predictor(counts, space)
        assert chain.shape == (1, 31, 31)
        assert (chain[0] == n1 / 4).all()  # every row, whatever the current delay
        (trend,), (jump,), (minutes,), _ = predict(chain, [0], space, RunConfig(minutes_metric="mean"))
        assert minutes == pytest.approx(5 / 4)
        assert TREND_CLASSES[trend] == "equal"  # median stays at 0
        assert not jump  # mass off the +-1 window is 0.25 < 0.5

    def test_marginal_requires_observations(self):
        with pytest.raises(ValueError):
            marginal_predictor(build_count_tensor(*series(), 5, StateSpace(15)), StateSpace(15))


class TestScoreBatch:
    def test_naive_batch(self):
        space = StateSpace(15)
        currents = np.array([0, 0, 2, 5])
        actuals = np.array([0, 3, 2, 4])
        trend, jump, minutes, _ = predict(naive_predictor(space), currents, space)
        report = score_batch(currents, actuals, trend, jump, minutes, RunConfig())
        # actual trends: equal, increase, equal, decrease; naive says equal
        assert report.f_eq == pytest.approx(2 * 2 / (2 * 2 + 2 + 0))
        assert report.f_in == 0.0 and report.f_de == 0.0
        assert report.f_tr == pytest.approx(report.f_eq / 3)
        # actual jumps: F, T, F, F; naive says no jump -> F_JP = 0
        assert report.f_jp == 0.0
        assert report.score == pytest.approx(
            total_score(report.f_jp, report.f_tr, report.rwmse)
        )
        assert report.eval_count == 4
        d = report.to_dict()
        assert d["total_score"] == report.score
        assert d["rwmse_form"] == "printed"

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            score_batch([], [], [], [], [], RunConfig())

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="prediction/actual length mismatch"):
            score_batch([0, 1], [0], [2, 2], [False, False], [0.0, 1.0], RunConfig())


class PerSeriesScorer:
    """The per-series scorer that `score_batch` replaced, kept as its oracle:
    string labels, generator tallies and a Python loop for the RWMSE.

    One expression differs: the squared error is `e * e`, as in the array
    scorer, not `e ** 2`. A Python float's `**` calls the C library's `pow`,
    which misrounds the square in the last bit for about 1 in 1,200 values
    under glibc 2.36, while a product is correctly rounded.
    """

    @staticmethod
    def actual_trend(d_s, d_t):
        if d_t > d_s:
            return "increase"
        if d_t < d_s:
            return "decrease"
        return "equal"

    @staticmethod
    def binary_tallies(predicted, actual):
        tp = sum(1 for p, a in zip(predicted, actual) if p and a)
        fp = sum(1 for p, a in zip(predicted, actual) if p and not a)
        fn = sum(1 for p, a in zip(predicted, actual) if not p and a)
        tn = sum(1 for p, a in zip(predicted, actual) if not p and not a)
        return {"tp": tp, "fp": fp, "fn": fn, "tn": tn}

    @classmethod
    def rwmse(cls, predicted_minutes, actual_delays, form):
        small = sum(1 for d in actual_delays if abs(d) <= 1)
        large = len(actual_delays) - small
        if small and large:
            w1, w2 = 0.2 / small, 0.8 / large
        elif small:
            w1, w2 = 1.0 / small, 0.0
        else:
            w1, w2 = 0.0, 1.0 / large
        acc = 0.0
        for d_hat, d in zip(predicted_minutes, actual_delays):
            err = abs(d_hat - d) if form == "printed" else (d_hat - d) * (d_hat - d)
            acc += (w1 if abs(d) <= 1 else w2) * err
        return math.sqrt(acc)

    @classmethod
    def score(cls, d_s, d_t, trend, jump, minutes, form):
        act_trend = [cls.actual_trend(s, t) for s, t in zip(d_s, d_t)]
        act_jump = [abs(t - s) >= 2 for s, t in zip(d_s, d_t)]
        per_f1, tallies = {}, {}
        for c in TREND_CLASSES:
            t = cls.binary_tallies([p == c for p in trend], [a == c for a in act_trend])
            tallies[c] = t
            per_f1[c] = f1_class(t["tp"], t["fp"], t["fn"])
        f_tr = sum(per_f1.values()) / 3.0
        jump_tallies = cls.binary_tallies(jump, act_jump)
        f_jp = f1_class(jump_tallies["tp"], jump_tallies["fp"], jump_tallies["fn"])
        err = cls.rwmse(minutes, d_t, form)
        return ScoreReport(
            eval_count=len(d_s), trend_tallies=tallies, jump_tallies=jump_tallies,
            f_in=per_f1["increase"], f_de=per_f1["decrease"], f_eq=per_f1["equal"],
            f_tr=f_tr, f_jp=f_jp, rwmse=err, score=total_score(f_jp, f_tr, err),
            rwmse_form=form,
        )


# the d(T) - d(S) moves of each realized trend class, equally many per class
MOVES = {"increase": (1, 2, 3, 4), "decrease": (-1, -2, -3, -4), "equal": (0, 0, 0, 0)}


@st.composite
def scored_batches(draw):
    """A batch of (d_S, d_T, predicted trend, jump, minutes) columns. The
    actual delays are all small, all large or mixed; the predicted and the
    actual trends each range over a drawn subset of the classes, so a class
    can be missing from either side."""
    low, high = draw(st.sampled_from([(0, 1), (2, 15), (0, 15)]))
    actual = draw(st.lists(st.sampled_from(TREND_CLASSES), min_size=1, max_size=3, unique=True))
    predicted = draw(st.lists(st.sampled_from(TREND_CLASSES), min_size=1, max_size=3, unique=True))
    rows = draw(st.lists(st.tuples(
        st.integers(low, high), st.sampled_from([-1, 1]),
        st.sampled_from([m for c in actual for m in MOVES[c]]),
        st.sampled_from(predicted), st.booleans(),
        st.one_of(st.integers(-15, 15).map(float), st.floats(-15, 15)),
    ), min_size=1, max_size=40))
    return [
        [sign * d - move for d, sign, move, *_ in rows],
        [sign * d for d, sign, *_ in rows],
        *([row[k] for row in rows] for k in (3, 4, 5)),
    ]


class TestScoreBatchOracle:
    @settings(max_examples=200, deadline=None)
    @given(scored_batches(), st.sampled_from(RWMSE_FORMS))
    def test_equals_per_series_scorer(self, batch, form):
        d_s, d_t, trend, jump, minutes = batch
        report = score_batch(np.array(d_s), np.array(d_t), codes(trend),
                             np.array(jump), np.array(minutes), RunConfig(rwmse_form=form))
        assert report == PerSeriesScorer.score(d_s, d_t, trend, jump, minutes, form)


def _two_trains_document():
    """Two trains of 20 sampled five-station journeys each, as a store document."""
    space = StateSpace(15)
    trains = {}
    for k, tid in enumerate(("T001", "T002")):
        sampled = sample_series(near_diagonal_spec(space, 5, 1.5, seed=k), 20, train_id=tid)
        trains[tid] = {"stations": [[f"S{t:02d}", "V"] for t in range(1, 6)],
                       "planned": [f"2024-01-01T08:{10 * t:02d}:00" for t in range(5)],
                       "series": [{"date": s.date, "delays": list(s.delays)} for s in sampled]}
    return {"n_max": 15, "trains": trains}


@pytest.fixture
def two_trains():
    return pipeline.parse_store(_two_trains_document())


class TestEvaluateStore:
    def test_bundle_chain_loaded_once_per_train(self, monkeypatch, two_trains):
        store = two_trains
        config = RunConfig(strategy="diagonal")
        bundle = pipeline.train_bundle(store, config)

        calls = []
        original = pipeline.bundle_matrices

        def counting(*args):
            calls.append(args[1:])
            return original(*args)

        monkeypatch.setattr(pipeline, "bundle_matrices", counting)
        report, payload = pipeline.evaluate_store(store, config, bundle=bundle, target=5)
        assert calls == [("T001", 1, 5), ("T002", 1, 5)]
        assert report.eval_count == 40 and payload["skipped"] == 0
        # each prediction equals the single-series forecast path
        first = payload["predictions"][0]
        record = pipeline.forecast_from_bundle(bundle, "T001", 1, first["d_S"], 5, config)
        keys = ("d_S", "trend", "jump", "minutes")
        assert [record[k] for k in keys] == [first[k] for k in keys]

    @pytest.mark.parametrize("method", ["bundle", "naive", "marginal"])
    def test_one_prediction_per_distinct_current_delay(self, monkeypatch, two_trains, method):
        config = RunConfig(strategy="diagonal")
        kwargs = {"bundle": pipeline.train_bundle(two_trains, config)} if method == "bundle" else {
            "baseline": method, "train_store": two_trains}
        calls = []
        original = pipeline.make_prediction

        def counting(V, d_s, space, config):
            calls.append((len(V), d_s.tolist()))
            return original(V, d_s, space, config)

        monkeypatch.setattr(pipeline, "make_prediction", counting)
        report, payload = pipeline.evaluate_store(two_trains, config, target=5, **kwargs)
        keys = {(p["train"], p["d_S"]) for p in payload["predictions"]}
        # one call for every covered train, with one block row per distinct
        # (train, d_S), train by train
        assert report.eval_count == 40 and len(calls) == 1 and len(keys) < 40
        ((rows, d_s),) = calls
        assert rows == len(d_s) == len(keys)
        assert d_s == [d for _, d in sorted(keys)]

    def test_marginal_skips_a_train_its_training_store_does_not_reach(self, two_trains):
        # T001's training series stop at station 3, so it has no observation at T = 5
        document = _two_trains_document()
        t001 = document["trains"]["T001"]
        short = {**t001, "series": [{**s, "delays": s["delays"][:3]} for s in t001["series"]]}
        train_store = pipeline.parse_store({**document, "trains": {**document["trains"], "T001": short}})
        report, payload = pipeline.evaluate_store(
            two_trains, RunConfig(), baseline="marginal", train_store=train_store, target=5)
        assert (report.eval_count, payload["skipped"]) == (20, len(t001["series"]))
        assert {p["train"] for p in payload["predictions"]} == {"T002"}

    @pytest.mark.parametrize("kwargs, reason", [
        ({}, "provide exactly one of bundle or baseline"),
        ({"bundle": {}, "baseline": "naive"}, "provide exactly one of bundle or baseline"),
        ({"baseline": "persistence"}, "unknown baseline 'persistence'"),
        ({"baseline": "marginal"}, "marginal baseline needs a training store"),
    ], ids=["neither", "both", "unknown_baseline", "marginal_without_train_store"])
    def test_bad_arguments_raise(self, two_trains, kwargs, reason):
        with pytest.raises(ValueError, match=reason):
            pipeline.evaluate_store(two_trains, RunConfig(), target=5, **kwargs)

    def test_uncovered_train_skips_every_series(self, tmp_path):
        tt, rz, path = tmp_path / "tt.csv", tmp_path / "rz.csv", tmp_path / "store.json"
        assert main(["synth", "--series", "30", "--trains", "2", "--length", "5", "--seed", "2",
                     "--out-timetable", str(tt), "--out-realization", str(rz)]) == 0
        assert main(["ingest", "--timetable", str(tt), "--realization", str(rz),
                     "--out", str(path)]) == 0
        store = pipeline.load_store(path)
        document = pipeline.load_json(path)
        train_store = pipeline.parse_store({**document, "trains": {"T001": document["trains"]["T001"]}})
        config = RunConfig(strategy="diagonal")
        bundle = pipeline.train_bundle(train_store, config)
        for kwargs in ({"bundle": bundle}, {"baseline": "marginal", "train_store": train_store}):
            report, payload = pipeline.evaluate_store(store, config, target=5, **kwargs)
            assert (report.eval_count, payload["skipped"]) == (30, 30)
