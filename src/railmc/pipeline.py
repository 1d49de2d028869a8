"""End-to-end wiring: series stores, training bundles, and batch evaluation.

A *store* is the serialized form of the ingested delay series, grouped per
train with the planned station sequence. `store_series` reads one train back
as a zero-padded (n_series, L) delay array plus its lengths, after checking
every delay is an integer in the store's [-N, N]; counting, recovery and
evaluation slice that array by station and mask it by length.
A *bundle* holds the recovered transition matrices per train and station,
plus the training metadata needed to reproduce it. Both, like every report,
are compact JSON with sorted keys, so identical runs are byte-identical;
`save_json` streams them through json's C encoder one train at a time.
"""

from __future__ import annotations

import datetime as dt
import functools
import itertools
import json
from collections.abc import Callable

import numpy as np

from .config import RunConfig
from .core import StateSpace, build_count_tensor, check_transition_matrix
from .evaluate import TREND_CLASSES, ScoreReport, marginal_predictor, naive_predictor, score_batch
from .forecast import make_prediction, point_delay, propagate
from .ingest import (
    EventColumns,
    JourneyTemplate,
    NoTargetError,
    RejectedRow,
    StationKey,
    assemble_series,
    select_target_station,
)
from .mctest import aggregate_reports, markov_property_test
from .recovery import (
    diagonal_fill,
    empirical_matrix,
    gaussian_regression_fill,
    kde_fit,
    kde_matrix,
    uniform_fill,
)

__all__ = [
    "BundleError",
    "CoverageError",
    "EmptySelectionError",
    "StoreError",
    "build_store",
    "save_json",
    "load_json",
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
    """A series store is malformed. The message names the file, or the train
    and the date; `store` is the store at fault, so a caller can name its file."""

    def __init__(self, message: str, store: dict | None = None):
        super().__init__(message)
        self.store = store


def build_store(
    templates: dict[str, JourneyTemplate],
    events: EventColumns,
    config: RunConfig,
) -> tuple[dict, list[RejectedRow]]:
    """Assemble parsed events into the serializable series store.

    Events of a train the timetable lacks are rejected first, in event order.
    """
    known = np.array([tid in templates for tid in events.trains], dtype=bool)[events.train]
    rejects = [
        RejectedRow(f"{events.trains[t]},{events.dates[d]}", "train not in timetable")
        for t, d in zip(events.train[~known].tolist(), events.date[~known].tolist())
    ]
    trains, train_rejects = assemble_series(
        events.take(known), templates, StateSpace(config.n_max), clip_mode=config.clip_mode
    )
    return {"n_max": config.n_max, "trains": trains}, rejects + train_rejects


# json runs its C encoder only for a one-shot encode without indent
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
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


def _space_of(n_max, error: Callable[[str], ValueError], owner: str) -> StateSpace:
    """The state space of a store's or bundle's n_max, which must be an int >= 1
    (not a bool, a float or a string); `error` names `owner` otherwise."""
    if type(n_max) is not int or n_max < 1:
        raise error(f"{owner} has no valid n_max (got {n_max!r})")
    return StateSpace(n_max)


def _store_space(store: dict) -> StateSpace:
    """The store's state space, after checking its n_max and trains table."""
    n_max = store.get("n_max") if isinstance(store, dict) else None
    space = _space_of(n_max, functools.partial(StoreError, store=store), "store")
    if not isinstance(store.get("trains"), dict):
        raise StoreError("store has no trains object", store)
    return space


def store_series(store: dict, train_id: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """One train's series: the (n_series, L) int64 delay array, zero past each
    row's length, the lengths, and the dates.

    Raises StoreError, naming the train and the date, for a series longer than
    the train's stations or a delay that is not an integer in the store's
    [-N, N] (a float or a bool is not).
    """
    n_max = _store_space(store).n_max
    try:
        entry = store["trains"][train_id]
        n_stations, series = len(entry["stations"]), entry["series"]
        dates = [s["date"] for s in series]
        lengths = np.array([len(s["delays"]) for s in series], dtype=np.int64)
        flat = list(itertools.chain.from_iterable(s["delays"] for s in series))
    except (KeyError, TypeError) as exc:
        raise StoreError(f"store train {train_id}: malformed series ({exc!r})", store) from None
    if (lengths > n_stations).any():
        r = int(np.argmax(lengths > n_stations))
        raise StoreError(f"store train {train_id} date {dates[r]}: {lengths[r]} delays for "
                         f"{n_stations} stations", store)
    # bool is a subclass of int, so the check compares types, not isinstance
    if not (set(map(type, flat)) <= {int} and -n_max <= min(flat, default=0)
            and max(flat, default=0) <= n_max):
        i = next(i for i, d in enumerate(flat) if type(d) is not int or abs(d) > n_max)
        date = dates[int(np.searchsorted(np.cumsum(lengths), i, side="right"))]
        raise StoreError(
            f"store train {train_id} date {date}: delay {flat[i]!r} is not an integer "
            f"in [-{n_max}, {n_max}]", store
        )
    delays = np.zeros((len(series), lengths.max(initial=0)), dtype=np.int64)
    delays[np.arange(delays.shape[1]) < lengths[:, None]] = np.array(flat, dtype=np.int64)
    return delays, lengths, dates


def store_template(store: dict, train_id: str) -> JourneyTemplate:
    _store_space(store)
    if train_id not in store["trains"]:
        raise CoverageError(f"store has no train {train_id}")
    try:
        entry = store["trains"][train_id]
        return JourneyTemplate(
            train_id=train_id,
            keys=tuple(StationKey(c, a) for c, a in entry["stations"]),
            planned=tuple(dt.datetime.fromisoformat(p) for p in entry["planned"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"store train {train_id}: malformed template ({exc})", store) from None


def test_store(store: dict, config: RunConfig) -> dict:
    """Run the Markov property test per (train, station) and aggregate."""
    space = _store_space(store)
    if not store["trains"]:
        raise EmptySelectionError("store holds no trains")
    per_station = []
    reports = []
    for tid in sorted(store["trains"]):
        delays, lengths, _ = store_series(store, tid)
        for t in range(2, lengths.max(initial=0) + 1):
            counts = build_count_tensor(delays, lengths, t, space)
            report = markov_property_test(counts, config.alpha1, config.alpha2)
            reports.append(report)
            per_station.append({"train": tid, **report.to_dict()})
    if not reports:
        raise EmptySelectionError("no testable stations in store")
    return {"per_station": per_station, "aggregate": aggregate_reports(reports)}


def _check_n_max(data_n_max: int, model_n_max: int, data: str, model: str) -> None:
    """A model on [-model_n_max, model_n_max] cannot read delays of a wider grid."""
    if data_n_max > model_n_max:
        raise CoverageError(
            f"{data} n_max {data_n_max} exceeds {model} n_max {model_n_max}: its delays "
            f"in [-{data_n_max}, {data_n_max}] fall outside [-{model_n_max}, {model_n_max}]"
        )


def _recover(
    delays: np.ndarray, lengths: np.ndarray, t: int, space: StateSpace, config: RunConfig
) -> np.ndarray | None:
    if config.strategy == "gaussian_kernel":
        pairs = delays[lengths >= t, t - 2:t].astype(float)
        if len(pairs) == 0:
            return None
        return kde_matrix(kde_fit(pairs), space)
    counts = build_count_tensor(delays, lengths, t, space)
    partial = empirical_matrix(counts)
    if config.strategy == "diagonal":
        return diagonal_fill(partial)
    if config.strategy == "uniform":
        return uniform_fill(partial)
    return gaussian_regression_fill(partial, counts, space, std_form=config.regression_std)


def train_bundle(store: dict, config: RunConfig) -> dict:
    """Recover transition matrices for every (train, station) in the store.

    Every strategy is deterministic: the same store and config give the same
    bundle. Trains are assembled in sorted order.
    """
    store_space = _store_space(store)
    if not store["trains"]:
        raise EmptySelectionError("store holds no trains")
    _check_n_max(store_space.n_max, config.n_max, "store", "training")
    space = StateSpace(config.n_max)
    trains = {}
    for tid in sorted(store["trains"]):
        delays, lengths, _ = store_series(store, tid)
        matrices: dict = {}
        for t in range(2, lengths.max(initial=0) + 1):
            mat = _recover(delays, lengths, t, space, config)
            if mat is not None:
                try:
                    check_transition_matrix(mat, space)
                except ValueError as exc:
                    raise ValueError(f"recovered matrix for train {tid} station {t}: {exc}") from None
                matrices[str(t)] = mat.tolist()
        if matrices:
            trains[tid] = {"matrices": matrices}
    if not trains:
        raise EmptySelectionError("no trainable stations in store")
    return {"meta": {"n_max": config.n_max, "strategy": config.strategy}, "trains": trains}


def _bundle_space(bundle: dict, where: str) -> StateSpace:
    """The bundle's state space, after checking its meta.n_max, meta.strategy
    and trains table."""
    meta = bundle.get("meta") if isinstance(bundle, dict) else None
    if not isinstance(meta, dict):
        raise BundleError(f"bundle has no meta object for {where}")
    space = _space_of(meta.get("n_max"), BundleError, f"bundle meta for {where}")
    if not isinstance(meta.get("strategy"), str):
        raise BundleError(f"bundle meta has no strategy for {where}")
    if not isinstance(bundle.get("trains"), dict):
        raise BundleError(f"bundle has no trains table for {where}")
    return space


def bundle_matrices(bundle: dict, train_id: str, s: int, t: int,
                    space: StateSpace | None = None) -> np.ndarray:
    """The checked propagation chain P(S+1) .. P(T) for one train, shape
    (T - S, k, k). `space` is the bundle's state space, if the caller has read it."""
    where = f"train {train_id} station {s + 1}"
    space = space or _bundle_space(bundle, where)
    if train_id not in bundle["trains"]:
        raise CoverageError(f"bundle has no matrices for train {train_id}")
    entry = bundle["trains"][train_id]
    matrices = entry.get("matrices") if isinstance(entry, dict) else None
    if not isinstance(matrices, dict):
        raise BundleError(f"bundle has no matrices table for {where}")
    chain = np.empty((t - s, space.cardinality, space.cardinality))
    for step, station in enumerate(range(s + 1, t + 1)):
        rows = matrices.get(str(station))
        if rows is None:
            raise CoverageError(f"bundle misses station {station} for train {train_id}")
        try:
            p = np.asarray(rows, dtype=float)
            check_transition_matrix(p, space)
        except (TypeError, ValueError) as exc:
            raise BundleError(f"bundle matrix for train {train_id} station {station}: {exc}") from None
        chain[step] = p
    return chain


def forecast_from_bundle(
    bundle: dict, train_id: str, s: int, d_s: int, t: int, config: RunConfig
) -> dict:
    """The prediction record of one current delay propagated through the
    bundle: d_S, the distribution at T, its trend, jump and minutes, and the
    metrics that read them."""
    space = _bundle_space(bundle, f"train {train_id} station {s + 1}")
    chain = bundle_matrices(bundle, train_id, s, t, space)
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
        horizon = dt.timedelta(minutes=config.horizon_minutes)
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
    if (bundle is None) == (baseline is None):
        raise ValueError("provide exactly one of bundle or baseline")
    if baseline is not None and baseline not in BASELINES:
        raise ValueError(f"unknown baseline {baseline!r}")
    if baseline == "marginal" and train_store is None:
        raise ValueError("marginal baseline needs a training store")

    # before the loop: the loop counts a NoTargetError as an uncovered train
    _check_target(from_station, target)
    space = _store_space(eval_store)
    model_space = space if bundle is None else _bundle_space(bundle, "evaluation")
    _check_n_max(space.n_max, model_space.n_max, "evaluation store", "bundle")
    if baseline == "marginal":
        _check_n_max(_store_space(train_store).n_max, space.n_max, "training store", "evaluation store")
    columns = []
    detail = []
    skipped = 0
    for tid in sorted(eval_store["trains"]):
        delays, lengths, dates = store_series(eval_store, tid)
        try:
            t_target = resolve_target(eval_store, tid, from_station, config, target)
            if bundle is not None:
                chain = bundle_matrices(bundle, tid, from_station, t_target)
            elif baseline == "naive":
                chain = naive_predictor(space)
            else:
                chain = _marginal_chain(train_store, tid, t_target, space)
        except (NoTargetError, CoverageError):
            skipped += len(lengths)
            continue
        covered = lengths >= t_target  # T > S: a series that reaches T covers S
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
