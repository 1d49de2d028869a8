"""End-to-end wiring: series stores, training bundles, and batch evaluation.

A *store* is the serialized form of the ingested delay series, grouped per
train with the planned station sequence. `store_series` reads one train back
as a zero-padded (n_series, L) delay array plus its lengths; counting,
recovery and evaluation slice that array by station and mask it by length.
A *bundle* holds the recovered transition matrices per train and station,
plus the training metadata needed to reproduce it. Both, like every report,
are compact JSON with sorted keys, so identical runs are byte-identical;
`save_json` streams them through json's C encoder one train at a time.
`load_store` checks a store whole, and `load_bundle` a bundle's meta and
tables, each naming the file. Code past them trusts what they return, except
`bundle_matrices`, which checks each matrix as it reads it: its shape, that
its entries are JSON numbers (not strings, booleans or nulls), and that it
is a transition matrix.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
from typing import TYPE_CHECKING

import numpy as np

from .config import N_MAX_LIMIT, RunConfig
from .core import (JourneyTemplate, NoTargetError, StateSpace, StationKey, build_count_tensor,
                   check_transition_matrix, select_target_station)
from .forecast import TREND_CLASSES, make_prediction, point_delay, propagate
# ingest, mctest, recovery and evaluate are imported by the functions that run them

if TYPE_CHECKING:
    from .evaluate import ScoreReport
    from .ingest import EventColumns, RejectedRow

__all__ = [
    "BundleError",
    "CoverageError",
    "EmptySelectionError",
    "StoreError",
    "build_store",
    "save_json",
    "load_json",
    "load_store",
    "load_bundle",
    "store_series",
    "store_template",
    "test_store",
    "train_bundle",
    "bundle_matrices",
    "resolve_target",
    "forecast_from_bundle",
    "evaluate_store",
]

BASELINES = ("naive", "marginal")


class CoverageError(RuntimeError):
    """The bundle lacks a matrix for a station on the propagation path, or a
    delay falls outside the state space a model was built on."""


class BundleError(ValueError):
    """A bundle file, or its metadata or matrices, is malformed."""


class EmptySelectionError(RuntimeError):
    """No series matched the requested selection."""


class StoreError(ValueError):
    """A series store is malformed. The message names the file, and the train
    and the date where one is at fault."""


def build_store(
    templates: dict[str, JourneyTemplate],
    events: EventColumns,
    config: RunConfig,
) -> tuple[dict, list[RejectedRow]]:
    """Assemble parsed events into the serializable series store.

    Events of a train the timetable lacks are rejected first, in event order.
    """
    from .ingest import RejectedRow, assemble_series

    known = np.array([tid in templates for tid in events.trains], dtype=bool)[events.train]
    rejects = [
        RejectedRow(f"{events.trains[t]},{events.dates[d]}", "train not in timetable")
        for t, d in zip(events.train[~known].tolist(), events.date[~known].tolist())
    ]
    trains, train_rejects = assemble_series(
        events.take(known), templates, StateSpace(config.n_max), clip_mode=config.clip_mode
    )
    return {"n_max": config.n_max, "trains": trains}, rejects + train_rejects


# json runs its C encoder only for a one-shot encode without indent; it writes
# an array through `default` as the list of its Python floats
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist).encode
# levels of dicts walked in Python: the root, a trains table and one train, so
# each train's tables (one train's matrices, its series) are one encoder call
_STREAM_DEPTH = 3


def _json_pieces(value, depth: int):
    """The compact sorted-key JSON text of `value`, in pieces that join to
    `_encode(value)`: a dict with str keys is walked `depth` levels down in
    sorted key order, and every other value is one `_encode` call."""
    if depth == 0 or not isinstance(value, dict) or not all(isinstance(k, str) for k in value):
        yield _encode(value)
        return
    sep = "{"
    for key in sorted(value):
        yield sep + _encode(key) + ":"
        yield from _json_pieces(value[key], depth - 1)
        sep = ","
    yield "}" if value else "{}"


def save_json(payload: dict, path) -> None:
    """Write `json.dumps(payload, sort_keys=True, separators=(",", ":"))` and a
    newline to `path`, one subtree at a time, never holding the whole text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_pieces(payload, _STREAM_DEPTH))
        fh.write("\n")


def load_json(path, error: type[ValueError] = ValueError) -> dict:
    """Read a JSON file; one that is not UTF-8 JSON raises `error` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # a JSON syntax error or a byte that is not UTF-8
        raise error(f"{path} is not JSON: {exc}") from None


def _n_max_of(table, error: type[ValueError], owner: str) -> int:
    """The n_max of a store or a bundle's meta, which must be an int in
    [1, N_MAX_LIMIT] (not a bool, a float or a string); `error` names `owner` otherwise."""
    n_max = table.get("n_max") if isinstance(table, dict) else None
    if type(n_max) is not int or not 1 <= n_max <= N_MAX_LIMIT:
        raise error(f"{owner} has no valid n_max (got {n_max!r}); "
                    f"it must be an integer in [1, {N_MAX_LIMIT}]")
    return n_max


def _series_columns(series: list) -> tuple[list, np.ndarray, list]:
    """A train's series as their dates, their lengths and all their delays in one list."""
    dates = [s["date"] for s in series]
    lengths = np.array([len(s["delays"]) for s in series], dtype=np.int64)
    return dates, lengths, list(itertools.chain.from_iterable(s["delays"] for s in series))


def _check_train(store: dict, train_id: str, n_max: int) -> None:
    """Raise StoreError, naming the train and the date, for a template that
    does not parse, a station code or a date that is not a string, a series
    longer than the train's stations, or a delay that is not an integer in
    [-n_max, n_max] (a float or a bool is not)."""
    try:
        keys = store_template(store, train_id).keys
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"store train {train_id}: malformed template ({exc})") from None
    codes = [k.station_code for k in keys if type(k.station_code) is not str]
    if codes:
        raise StoreError(f"store train {train_id}: station code {codes[0]!r} is not a string")
    n_stations = len(keys)
    try:
        dates, lengths, flat = _series_columns(store["trains"][train_id]["series"])
    except (KeyError, TypeError) as exc:
        raise StoreError(f"store train {train_id}: malformed series ({exc!r})") from None
    bad_dates = [d for d in dates if type(d) is not str]
    if bad_dates:
        raise StoreError(f"store train {train_id}: date {bad_dates[0]!r} is not a string")
    if (lengths > n_stations).any():
        r = int(np.argmax(lengths > n_stations))
        raise StoreError(f"store train {train_id} date {dates[r]}: {lengths[r]} delays for "
                         f"{n_stations} stations")
    # bool is a subclass of int, so the check compares types, not isinstance
    if not (set(map(type, flat)) <= {int} and -n_max <= min(flat, default=0)
            and max(flat, default=0) <= n_max):
        i = next(i for i, d in enumerate(flat) if type(d) is not int or abs(d) > n_max)
        date = dates[int(np.searchsorted(np.cumsum(lengths), i, side="right"))]
        raise StoreError(f"store train {train_id} date {date}: delay {flat[i]!r} is not an "
                         f"integer in [-{n_max}, {n_max}]")


def load_store(path) -> dict:
    """Read a series store and check it whole: its n_max, its trains object,
    and each train's template and series (see `_check_train`). Raises
    StoreError naming the file."""
    store = load_json(path, StoreError)
    try:
        n_max = _n_max_of(store, StoreError, "store")
        if not isinstance(store.get("trains"), dict):
            raise StoreError("store has no trains object")
        for tid in store["trains"]:
            _check_train(store, tid, n_max)
    except StoreError as exc:
        raise StoreError(f"{path}: {exc}") from None
    return store


def store_series(store: dict, train_id: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """One train's series: the (n_series, L) int64 delay array, zero past each
    row's length, the lengths, and the dates."""
    dates, lengths, flat = _series_columns(store["trains"][train_id]["series"])
    delays = np.zeros((len(lengths), lengths.max(initial=0)), dtype=np.int64)
    delays[np.arange(delays.shape[1]) < lengths[:, None]] = np.array(flat, dtype=np.int64)
    return delays, lengths, dates


def store_template(store: dict, train_id: str) -> JourneyTemplate:
    if train_id not in store["trains"]:
        raise CoverageError(f"store has no train {train_id}")
    entry = store["trains"][train_id]
    return JourneyTemplate(
        train_id=train_id,
        keys=tuple(StationKey(c, a) for c, a in entry["stations"]),
        planned=tuple(dt.datetime.fromisoformat(p) for p in entry["planned"]),
    )


def test_store(store: dict, config: RunConfig) -> dict:
    """Run the Markov property test per (train, station) and aggregate."""
    from .mctest import aggregate_reports, markov_property_test

    space = StateSpace(store["n_max"])
    if not store["trains"]:
        raise EmptySelectionError("store holds no trains")
    rows = []
    for tid in sorted(store["trains"]):
        delays, lengths, _ = store_series(store, tid)
        counts = build_count_tensor(delays, lengths, _stations(lengths), space)
        rows.extend({"train": tid, **row}
                    for row in markov_property_test(counts, config.alpha1, config.alpha2))
    if not rows:
        raise EmptySelectionError("no testable stations in store")
    return {"per_station": rows, "aggregate": aggregate_reports(rows)}


def _check_n_max(data_n_max: int, model_n_max: int, data: str, model: str) -> None:
    """A model on [-model_n_max, model_n_max] cannot read delays of a wider grid."""
    if data_n_max > model_n_max:
        raise CoverageError(
            f"{data} n_max {data_n_max} exceeds {model} n_max {model_n_max}: its delays "
            f"in [-{data_n_max}, {data_n_max}] fall outside [-{model_n_max}, {model_n_max}]"
        )


def _stations(lengths: np.ndarray) -> range:
    """The stations t >= 2 that a train's series reach: the order test's and
    the bundle's stations."""
    return range(2, lengths.max(initial=0) + 1)


def _recover(
    delays: np.ndarray, lengths: np.ndarray, space: StateSpace, config: RunConfig
) -> np.ndarray:
    """The recovered (k, k) matrix of each station of `_stations(lengths)`, as
    a stack from one count pass, whatever the strategy."""
    from . import recovery

    counts = build_count_tensor(delays, lengths, _stations(lengths), space)
    if config.strategy == "gaussian_kernel":
        return recovery.kde_recover(counts, space)
    partial = recovery.empirical_matrix(counts)
    if config.strategy == "diagonal":
        return recovery.diagonal_fill(partial)
    if config.strategy == "uniform":
        return recovery.uniform_fill(partial)
    return recovery.gaussian_regression_fill(partial, counts, space, std_form=config.regression_std)


def train_bundle(store: dict, config: RunConfig) -> dict:
    """Recover transition matrices for every (train, station) in the store.

    Every strategy is deterministic: the same store and config give the same
    bundle. Trains are assembled in sorted order.
    """
    if not store["trains"]:
        raise EmptySelectionError("store holds no trains")
    _check_n_max(store["n_max"], config.n_max, "store", "training")
    space = StateSpace(config.n_max)
    trains = {}
    for tid in sorted(store["trains"]):
        delays, lengths, _ = store_series(store, tid)
        matrices: dict = {}
        for t, mat in zip(_stations(lengths), _recover(delays, lengths, space, config)):
            try:
                check_transition_matrix(mat, space)
            except ValueError as exc:
                raise ValueError(f"recovered matrix for train {tid} station {t}: {exc}") from None
            matrices[str(t)] = mat
        if matrices:
            trains[tid] = {"matrices": matrices}
    if not trains:
        raise EmptySelectionError("no trainable stations in store")
    return {"meta": {"n_max": config.n_max, "strategy": config.strategy}, "trains": trains}


def load_bundle(path) -> dict:
    """Read a matrix bundle and check its envelope: a meta object with a valid
    n_max and a strategy string, and a trains table whose every train holds a
    matrices table. Raises BundleError naming the file. The matrices are
    checked by `bundle_matrices`, as it reads them."""
    bundle = load_json(path, BundleError)
    try:
        meta = bundle.get("meta") if isinstance(bundle, dict) else None
        if not isinstance(meta, dict):
            raise BundleError("bundle has no meta object")
        _n_max_of(meta, BundleError, "bundle meta")
        if not isinstance(meta.get("strategy"), str):
            raise BundleError("bundle meta has no strategy")
        if not isinstance(bundle.get("trains"), dict):
            raise BundleError("bundle has no trains table")
        for tid, entry in bundle["trains"].items():
            if not isinstance(entry, dict) or not isinstance(entry.get("matrices"), dict):
                raise BundleError(f"bundle train {tid} has no matrices table")
    except BundleError as exc:
        raise BundleError(f"{path}: {exc}") from None
    return bundle


def bundle_matrices(bundle: dict, train_id: str, s: int, t: int) -> np.ndarray:
    """The checked propagation chain P(S+1) .. P(T) for one train, shape
    (T - S, k, k); T > S."""
    if train_id not in bundle["trains"]:
        raise CoverageError(f"bundle has no matrices for train {train_id}")
    matrices = bundle["trains"][train_id]["matrices"]
    stations = range(s + 1, t + 1)
    # before converting: a far target T would ask for a chain of any size
    missing = next((station for station in stations if str(station) not in matrices), None)
    if missing is not None:
        raise CoverageError(f"bundle misses station {missing} for train {train_id}")
    space = StateSpace(bundle["meta"]["n_max"])
    chain = []
    for station in stations:
        entries = matrices[str(station)]
        try:
            chain.append(np.asarray(entries, dtype=float))
            check_transition_matrix(chain[-1], space)
            # asarray reads "0.5" and true as numbers; JSON entries must be numbers
            if isinstance(entries, list) and not set(
                    map(type, itertools.chain.from_iterable(entries))) <= {int, float}:
                entry = next(x for x in itertools.chain.from_iterable(entries)
                             if type(x) not in (int, float))
                raise BundleError(f"entry {entry!r} is not a number")
        except (TypeError, ValueError) as exc:
            raise BundleError(f"bundle matrix for train {train_id} station {station}: {exc}") from None
    return np.stack(chain)


def forecast_from_bundle(
    bundle: dict, train_id: str, s: int, d_s: int, t: int, config: RunConfig
) -> dict:
    """The prediction record of one current delay propagated through the
    bundle: d_S, the distribution at T, its trend, jump and minutes, and the
    metrics that read them."""
    space = StateSpace(bundle["meta"]["n_max"])
    chain = bundle_matrices(bundle, train_id, s, t)
    if not space.contains(d_s):
        raise CoverageError(
            f"delay {d_s} outside the bundle's state space [-{space.n_max}, {space.n_max}]"
        )
    V = propagate(point_delay([d_s], space), chain)
    (trend,), (jump,), (minutes,) = make_prediction(V, [d_s], space, config)
    return {
        "d_S": d_s,
        "distribution": V[0].tolist(),
        "trend": TREND_CLASSES[trend],
        "jump": bool(jump),
        "minutes": float(minutes),
        "metrics_used": {
            "trend": config.trend_metric, "jump": config.jump_metric, "minutes": config.minutes_metric,
        },
    }


def _marginal_chain(train_store: dict, train_id: str, t: int, space: StateSpace) -> np.ndarray:
    """The marginal baseline's chain; CoverageError when the train has no observation at t."""
    from .evaluate import marginal_predictor

    if train_id not in train_store["trains"]:
        raise CoverageError(f"training store has no train {train_id}")
    delays, lengths, _ = store_series(train_store, train_id)
    counts = build_count_tensor(delays, lengths, t, space)
    try:
        return marginal_predictor(counts, space)
    except ValueError as exc:
        raise CoverageError(f"train {train_id} station {t}: {exc}") from None


def _check_target(s: int, t: int | None) -> int | None:
    """Check the current station S, and a fixed target T if one is given."""
    if s < 1:
        raise NoTargetError(f"current station {s} is before station 1")
    if t is not None and t <= s:
        raise NoTargetError(f"target station {t} is not after current station {s}")
    return t


def resolve_target(
    store: dict | None, train_id: str, s: int, config: RunConfig, target: int | None
) -> int:
    """The target station: `target` when given, after checking it lies after S;
    else the first station past the horizon on the store's timetable."""
    if target is not None:
        return _check_target(s, target)
    template = store_template(store, train_id)
    try:
        # a positive horizon under half a microsecond would round to zero
        horizon = max(dt.timedelta(minutes=config.horizon_minutes), dt.timedelta.resolution)
    except OverflowError:  # longer than timedelta holds: it outruns every journey
        horizon = dt.timedelta.max
    return select_target_station(template, s, horizon)


def evaluate_store(
    eval_store: dict,
    config: RunConfig,
    bundle: dict | None = None,
    baseline: str | None = None,
    train_store: dict | None = None,
    from_station: int = 1,
    target: int | None = None,
) -> tuple[ScoreReport, dict]:
    """Predict every series in the store and score against realized delays.

    Exactly one of `bundle` or `baseline` drives the predictions; the marginal
    baseline additionally needs the training store it draws counts from.
    Each method gives one propagation chain per train, and each distinct
    current delay of a train is predicted once. A train with no chain (no
    target after S, a station the bundle lacks, no training observation at T)
    skips all its series, a series too short to reach T skips itself, and an
    empty surviving batch is an error. A `from_station` below 1, or a fixed
    target at or before it, raises NoTargetError, and a store whose delay
    bound exceeds the model's raises CoverageError.
    """
    from .evaluate import naive_predictor, score_batch

    if (bundle is None) == (baseline is None):
        raise ValueError("provide exactly one of bundle or baseline")
    if baseline is not None and baseline not in BASELINES:
        raise ValueError(f"unknown baseline {baseline!r}")
    if baseline == "marginal" and train_store is None:
        raise ValueError("marginal baseline needs a training store")

    # before the loop: the loop counts a NoTargetError as an uncovered train
    _check_target(from_station, target)
    space = StateSpace(eval_store["n_max"])
    model_space = space if bundle is None else StateSpace(bundle["meta"]["n_max"])
    _check_n_max(space.n_max, model_space.n_max, "evaluation store", "bundle")
    if baseline == "marginal":
        _check_n_max(train_store["n_max"], space.n_max, "training store", "evaluation store")
    columns = []
    detail = []
    skipped = 0
    for tid in sorted(eval_store["trains"]):
        delays, lengths, dates = store_series(eval_store, tid)
        try:
            t_target = resolve_target(eval_store, tid, from_station, config, target)
            covered = lengths >= t_target  # T > S: a series that reaches T covers S
            if not covered.any():  # T may lie past the delay array's last column
                raise CoverageError(f"no series of train {tid} reaches station {t_target}")
            if bundle is not None:
                chain = bundle_matrices(bundle, tid, from_station, t_target)
            elif baseline == "naive":
                chain = naive_predictor(space)
            else:
                chain = _marginal_chain(train_store, tid, t_target, space)
        except (NoTargetError, CoverageError):
            skipped += len(lengths)
            continue
        skipped += int((~covered).sum())
        d_S, d_T = delays[covered, from_station - 1], delays[covered, t_target - 1]
        # one block row per distinct d_S, scattered back to its series
        distinct, series_of = np.unique(d_S, return_inverse=True)
        V = propagate(point_delay(distinct, model_space), chain)
        predicted = make_prediction(V, distinct, model_space, config)
        columns.append((d_S, d_T, *(x[series_of] for x in predicted)))
        detail.extend(
            {"train": tid, "date": date, "S": from_station, "T": t_target, "d_S": d_s,
             "d_T": d_t, "trend": TREND_CLASSES[c], "jump": j, "minutes": m}
            for date, d_s, d_t, c, j, m in zip(
                itertools.compress(dates, covered), *(x.tolist() for x in columns[-1]))
        )
    if not detail:
        raise EmptySelectionError("no series could be evaluated")
    report = score_batch(*map(np.concatenate, zip(*columns)), rwmse_form=config.rwmse_form)
    payload = {
        "method": baseline or bundle["meta"]["strategy"],
        "skipped": skipped,
        "scores": report.to_dict(),
        "predictions": detail,
    }
    return report, payload
