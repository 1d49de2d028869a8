"""End-to-end wiring: series stores, training bundles, and batch evaluation.

A *store* holds the ingested delay series per train with its planned station
sequence, in memory always as one `Store`: every series of every train in one
zero-padded (n_series, L) int64 delay array with each series' length, date,
clipped count and train code, grouped by train in sorted order and indexed by
`ids` and `starts` as a bundle is, plus each train's template. `build_store`
lays out the series columns of `ingest.assemble_series`, as ingest decides
every reject, and `parse_store` those of a store document it checks whole,
both through `_store`. `save_json` writes a `Store` as that document; it and
`parse_store` are the only code that knows the document. `store_series`,
`store_template` and `bundle_matrices` find a train by the same lookup. The
stages read the store network-wide on one (train, station) axis, each train's
stations 2 .. its longest series, that `_station_axis` alone derives:
`_station_blocks` counts each block of whole trains of it in one pass, the
order test labels its rows by it, and it sizes and indexes the bundle's
stack; `evaluate_store` groups series by train only to pick each train's
target and chain, then predicts a block of trains at once.
A *bundle* is a `Bundle`: every recovered transition matrix in one stack,
plus the training metadata needed to reproduce it. Both, like every report,
are compact JSON with sorted keys, so identical runs are byte-identical;
`save_json` writes each in one call of json's C encoder, except a bundle,
whose text alone grows with the network: it is written one train at a time.
`load_store` and `load_bundle` read a file through `core.load_json`, parse it
whole and name it. Code past them trusts what they return: `parse_bundle` gives
the `Bundle` that `train_bundle` gives, and `bundle_matrices` slices its stack.

Errors use the three classes of `core`: InputError for a malformed store or
bundle, EmptySelectionError when nothing is left to test, train or evaluate,
and CoverageError when a model has no answer for a train, station or delay.
"""

from __future__ import annotations

import bisect
import datetime as dt
import itertools
import json
import re
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

import numpy as np

from .config import N_MAX_LIMIT, STRATEGIES, RunConfig
from .core import (ENTRY_FLOOR, CountTensor, CoverageError, EmptySelectionError, InputError,
                   JourneyTemplate, StateSpace, StationKey, build_count_tensor,
                   check_transition_matrix, load_json, open_output, select_target_station)
from .forecast import TREND_CLASSES, make_prediction, point_delay, propagate
# ingest, mctest, recovery and evaluate are imported by the functions that run them

if TYPE_CHECKING:
    from .evaluate import ScoreReport
    from .ingest import EventColumns, RejectedRow

__all__ = [
    "build_store", "save_json", "load_json", "Store", "parse_store", "load_store", "parse_bundle",
    "Bundle", "load_bundle", "store_series", "store_template", "test_store", "train_bundle",
    "bundle_matrices", "resolve_target", "forecast_from_bundle", "evaluate_store",
]

BASELINES = ("naive", "marginal")
# the matrix keys of a bundle document: str(t) for a station t >= 2
_STATION_KEY = re.compile(r"[2-9]|[1-9][0-9]+")


def build_store(
    templates: dict[str, JourneyTemplate],
    events: EventColumns,
    config: RunConfig,
) -> tuple[Store, list[RejectedRow]]:
    """The `Store` of the parsed events, laid out from `ingest.assemble_series`'s
    series columns as `parse_store` lays out a document's, and its rejects as they are."""
    from .ingest import assemble_series

    columns, rejects = assemble_series(events, templates, config)
    return _store(config.n_max, *columns), rejects


# json runs its C encoder only for a one-shot encode without indent; it writes
# an array through `default` as the list of its Python floats
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist).encode


def save_json(payload: dict | Store | Bundle, path) -> None:
    """Write `json.dumps(payload, sort_keys=True, separators=(",", ":"))` and a
    newline to `path`; a failed write leaves the previous file intact. A `Store`
    is written as its store document, in one encoder call: its n_max, and per
    train its stations, planned times and series, each a date, its delays and
    its clipped count. A `Bundle` is written as its document one train at a
    time, one encoder call per train's matrices table (views into the stack),
    never holding its whole text: that reaches hundreds of megabytes, where no
    other artifact reaches a few."""
    if isinstance(payload, Store):
        flat = payload.delays[np.arange(payload.delays.shape[1]) < payload.lengths[:, None]].tolist()
        ends = np.cumsum(payload.lengths).tolist()
        series = [{"date": d, "delays": flat[e - n:e], "clipped": c} for d, n, e, c in zip(
            payload.dates, payload.lengths.tolist(), ends, payload.clipped.tolist())]
        payload = {"n_max": payload.n_max, "trains": {
            tid: {"stations": [[k.station_code, k.activity] for k in template.keys],
                  "planned": [p.isoformat() for p in template.planned], "series": series[a:b]}
            for tid, template, a, b in zip(payload.ids, payload.templates, payload.starts,
                                           payload.starts[1:])}}
    with open_output(path) as fh:
        if isinstance(payload, Bundle):
            # sorted keys put "meta" first: the head ends where the trains table opens
            fh.write(_encode({"meta": payload.meta, "trains": {}})[:-2])
            for c, (tid, a, b) in enumerate(zip(payload.ids, payload.starts, payload.starts[1:])):
                matrices = dict(zip(map(str, payload.station[a:b].tolist()), payload.matrices[a:b]))
                fh.write(("," if c else "") + _encode(tid) + ":" + _encode({"matrices": matrices}))
            fh.write("}}")
        else:
            fh.write(_encode(payload))
        fh.write("\n")


def _n_max_of(table, owner: str) -> int:
    """The n_max of a store or a bundle's meta, which must be an int in
    [1, N_MAX_LIMIT] (not a bool, a float or a string); InputError names `owner` otherwise."""
    n_max = table.get("n_max") if isinstance(table, dict) else None
    if type(n_max) is not int or not 1 <= n_max <= N_MAX_LIMIT:
        raise InputError(f"{owner} has no valid n_max (got {n_max!r}); "
                    f"it must be an integer in [1, {N_MAX_LIMIT}]")
    return n_max


def _parse_train(train_id: str, entry,
                 n_max: int) -> tuple[JourneyTemplate, list, list, list, np.ndarray]:
    """One store train's template, and its series' dates, lengths, clipped
    counts and delays, these flat as int16. InputError names the train and the
    date for a template that does not parse (`stations` not a list of [code,
    activity] lists, or `planned` not a list, say), a station code or date that
    is not a string, a station visited twice, a series longer than the train's
    stations, a delay that is not an integer in [-n_max, n_max] (a float or a
    bool is not), or a clipped count that is not an integer in [0, the series'
    length]. A series without a clipped count reads 0."""
    try:
        stations, planned = entry["stations"], entry["planned"]
        if type(stations) is not list or any(type(s) is not list or len(s) != 2 for s in stations):
            raise ValueError("stations is not a list of [code, activity] lists")
        if type(planned) is not list:  # an object would be read by its keys
            raise ValueError("planned is not a list")
        template = JourneyTemplate(
            train_id=train_id,
            keys=tuple(StationKey(c, a) for c, a in stations),
            planned=tuple(dt.datetime.fromisoformat(p) for p in planned),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"store train {train_id}: malformed template ({exc})") from None
    codes = [k.station_code for k in template.keys if type(k.station_code) is not str]
    if codes:
        raise InputError(f"store train {train_id}: station code {codes[0]!r} is not a string")
    loops = [k for k, n in Counter(template.keys).items() if n > 1]
    if loops:
        raise InputError(f"store train {train_id} visits {loops[0].station_code}/{loops[0].activity} "
                         "twice; loop lines are not supported")
    try:
        dates = [s["date"] for s in entry["series"]]
        lengths = [len(s["delays"]) for s in entry["series"]]
        flat = list(itertools.chain.from_iterable(s["delays"] for s in entry["series"]))
    except (KeyError, TypeError) as exc:
        raise InputError(f"store train {train_id}: malformed series ({exc!r})") from None
    bad_dates = [d for d in dates if type(d) is not str]
    if bad_dates:
        raise InputError(f"store train {train_id}: date {bad_dates[0]!r} is not a string")
    if max(lengths, default=0) > len(template):
        long = next(i for i, n in enumerate(lengths) if n > len(template))
        raise InputError(f"store train {train_id} date {dates[long]}: {lengths[long]} delays "
                         f"for {len(template)} stations")
    try:  # bool is a subclass of int, so the check compares types, not isinstance
        values = np.array(flat, dtype=np.int16) if set(map(type, flat)) <= {int} else None
    except OverflowError:  # an int beyond int16 lies outside every [-n_max, n_max]
        values = None
    if values is None or ((values < -n_max) | (values > n_max)).any():
        i = next(i for i, d in enumerate(flat) if type(d) is not int or abs(d) > n_max)
        date = dates[int(np.searchsorted(np.cumsum(lengths), i, side="right"))]
        raise InputError(f"store train {train_id} date {date}: delay {flat[i]!r} is not an "
                         f"integer in [-{n_max}, {n_max}]")
    clipped = [s.get("clipped", 0) for s in entry["series"]]  # every series is an object by now
    for date, c, n in zip(dates, clipped, lengths):
        if type(c) is not int or not 0 <= c <= n:
            raise InputError(f"store train {train_id} date {date}: clipped {c!r} is not an "
                             f"integer in [0, {n}]")
    return template, dates, lengths, clipped, values


class Store(NamedTuple):
    """A store, built by ingest or parsed from a file: every series in one
    layout, grouped by train in sorted train order, and each train's template.
    The arrays are read-only, as every stage shares them."""

    n_max: int
    ids: list[str]          # the sorted train ids; a train code indexes them
    starts: list[int]       # the first row of each train, and past the last one the row count
    delays: np.ndarray      # (n_series, L) int64; row r holds station t in column t - 1
    lengths: np.ndarray     # (n_series,) stations each series reaches; columns past it are 0
    train: np.ndarray       # (n_series,) each series' train code, non-decreasing
    dates: list[str]        # each series' date
    clipped: np.ndarray     # (n_series,) delays each series saturated into [-n_max, n_max] at ingest
    reach: np.ndarray       # (n_trains,) each train's longest series, 0 for a train with none
    templates: list[JourneyTemplate]  # each train's template


def _store(n_max: int, templates, train, dates, lengths, clipped, delays) -> Store:
    """The read-only `Store` of series columns grouped by train: each train's
    template in sorted train order; per series its train code into them, date,
    length and clipped count; and every series' delays, concatenated."""
    lengths, train, clipped = (np.asarray(a, dtype=np.int64) for a in (lengths, train, clipped))
    padded = np.zeros((len(lengths), lengths.max(initial=0)), dtype=np.int64)
    padded[np.arange(padded.shape[1]) < lengths[:, None]] = delays
    reach = np.zeros(len(templates), dtype=np.int64)
    np.maximum.at(reach, train, lengths)
    for array in (padded, lengths, train, clipped, reach):
        array.flags.writeable = False
    return Store(n_max, [t.train_id for t in templates],
                 np.searchsorted(train, np.arange(len(templates) + 1)).tolist(),
                 padded, lengths, train, list(dates), clipped, reach, list(templates))


def parse_store(document) -> Store:
    """Check a store document whole (its n_max, trains object and each train) and
    parse it into one `Store`."""
    n_max = _n_max_of(document, "store")
    if not isinstance(document.get("trains"), dict):
        raise InputError("store has no trains object")
    parsed = {tid: _parse_train(tid, entry, n_max) for tid, entry in document["trains"].items()}
    templates, dates, lengths, clipped, values = list(zip(*map(parsed.get, sorted(parsed)))) or ((),) * 5
    chain = itertools.chain.from_iterable
    return _store(n_max, templates, np.repeat(np.arange(len(dates)), list(map(len, dates))),
                  list(chain(dates)), list(chain(lengths)), list(chain(clipped)),
                  np.concatenate([*values, np.zeros(0, dtype=np.int16)]))


def _load(path, parse):
    """`parse` of the JSON document at `path`; its InputError names the file."""
    document = load_json(path)
    try:
        return parse(document)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def load_store(path) -> Store:
    """`parse_store` of the store file at `path`; its InputError names the file."""
    return _load(path, parse_store)


def _rows_of(table: Store | Bundle, train_id: str, missing: str) -> tuple[int, int, int]:
    """The code of `train_id` among the sorted `table.ids`, and its first row
    and the row past its last; CoverageError `missing` when it is absent."""
    c = bisect.bisect_left(table.ids, train_id)
    if table.ids[c:c + 1] != [train_id]:
        raise CoverageError(missing)
    return c, table.starts[c], table.starts[c + 1]


def store_series(store: Store, train_id: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """One train's (n_series, L) int64 delay array, zero past each row's length,
    lengths and dates; the arrays are views into the store's."""
    c, a, b = _rows_of(store, train_id, f"store has no train {train_id}")
    return store.delays[a:b, :store.reach[c]], store.lengths[a:b], store.dates[a:b]


def store_template(store: Store, train_id: str) -> JourneyTemplate:
    return store.templates[_rows_of(store, train_id, f"store has no train {train_id}")[0]]


# the (train, station) entries of one count pass: `_station_blocks` counts, for
# the order test and the bundle, the whole trains that start within this many
# entries, and evaluation reads this many trains at a time, so that no count
# stack grows with the network (n2 at N = 15 takes 7.7 kB an entry)
_BLOCK_STATIONS = 128


def _station_axis(store: Store) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Each entry's train code and station on the (train, station) axis, each
    train's stations 2 .. its longest series in train order, and the bundle's
    `starts`: the first entry of each train that has one, then the entry count."""
    per_train = np.maximum(store.reach - 1, 0)
    train = np.repeat(np.arange(len(store.ids)), per_train)
    first = np.cumsum(per_train) - per_train
    starts = [*first[per_train > 0].tolist(), len(train)]
    return train, 2 + np.arange(len(train)) - first[train], starts


def _station_blocks(store: Store, axis, space: StateSpace) -> Iterator[tuple[int, int, CountTensor]]:
    """`axis`, the store's `_station_axis`, cut into blocks of the whole trains
    whose first entry falls in one stretch of _BLOCK_STATIONS entries: each
    block's entries e0:e1 and their counts (one pass; train codes from e0's train)."""
    train, station, starts = axis
    heads = [e for e, before in zip(starts[:-1], [-1, *starts])
             if e // _BLOCK_STATIONS != before // _BLOCK_STATIONS]
    for e0, e1 in itertools.pairwise([*heads, starts[-1]]):
        c0, c1 = int(train[e0]), int(train[e1 - 1]) + 1
        r0, r1 = store.starts[c0], store.starts[c1]
        yield e0, e1, build_count_tensor(
            store.delays[r0:r1], store.lengths[r0:r1], station[e0:e1], space,
            series_train=store.train[r0:r1] - c0, station_train=train[e0:e1] - c0)


def test_store(store: Store, config: RunConfig) -> dict:
    """Run the Markov property test per (train, station) and aggregate, one
    set of array verdicts per counted block of trains."""
    from .mctest import aggregate_reports, markov_property_test

    if not store.ids:
        raise EmptySelectionError("store holds no trains")
    rows = []
    train, _, _ = axis = _station_axis(store)
    for e0, e1, counts in _station_blocks(store, axis, StateSpace(store.n_max)):
        for c, row in zip(train[e0:e1].tolist(), markov_property_test(counts, config)):
            row["train"] = store.ids[c]
            rows.append(row)
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


# what a station's recovery fell back to, by strategy; `train` names such stations
FALLBACKS = {
    "gaussian_regression": "fell back to the diagonal fill (fewer than two observed rows, "
                           "or no row supporting a spread)",
    "gaussian_kernel": "took the identity covariance (a single observation)",
}


def _recover(counts: CountTensor, space: StateSpace, config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """The recovered (k, k) matrix of each (train, station) entry of a block's
    counts, as one stack whatever the strategy, and the mask of the entries
    whose recovery fell back (FALLBACKS)."""
    from . import recovery

    if config.strategy == "gaussian_kernel":
        return recovery.kde_recover(counts, space), counts.n2.sum(axis=(1, 2)) == 1
    partial = recovery.empirical_matrix(counts)
    if config.strategy == "gaussian_regression":
        return recovery.gaussian_regression_fill(partial, counts, space, config)
    fill = recovery.diagonal_fill if config.strategy == "diagonal" else recovery.uniform_fill
    return fill(partial), np.zeros(len(partial), dtype=bool)


class Bundle(NamedTuple):
    """Every matrix of a trained or loaded bundle in one read-only stack, by train, then station."""

    meta: dict              # n_max, strategy and any other key a bundle file holds
    ids: list[str]          # the sorted train ids, a train with no matrix included
    starts: list[int]       # the first row of each train, and past the last one the row count
    matrices: np.ndarray    # (n, k, k) float64; row r is P(t) for t = station[r]
    station: np.ndarray     # (n,) int64


def _check_stack(entries, space: StateSpace, named: Iterable[tuple] = ()) -> np.ndarray:
    """`entries`, an (n, k, k) stack or its nested lists, as a float64 stack of
    transition matrices, checked at once. When it fails, the (name, matrix)
    pairs of `named`, in the order to report them, are checked one by one as
    stacks of one, to raise the first bad one's error under its name."""
    try:
        stack = np.asarray(entries, dtype=float)
        check_transition_matrix(stack, space)
        # asarray reads "0.5" and true as numbers; JSON entries must be numbers
        rows = list(itertools.chain.from_iterable(e for e in entries if isinstance(e, list)))
        if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
            bad = next(x for x in itertools.chain.from_iterable(rows) if type(x) not in (int, float))
            raise ValueError(f"entry {bad!r} is not a number")
        return stack
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        for name, matrix in named:
            try:
                np.asarray(matrix, dtype=float)  # a matrix that does not read fails as it does alone
                _check_stack([matrix], space)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{name}: {exc}") from None
        raise


def train_bundle(store: Store, config: RunConfig, fallbacks: list | None = None) -> Bundle:
    """Recover transition matrices for every (train, station) in the store.

    Every strategy is deterministic: the same store and config give the same
    bundle. The store's `_station_axis` sizes one stack and is its index; each
    block's stack has its entries in (0, core.ENTRY_FLOOR) set to 0.0, is
    checked at once as it is stored, and fills the rows of its entries.
    `fallbacks`, when given, receives the (train, station) of each matrix whose
    recovery fell back (FALLBACKS), in that order.
    """
    if not store.ids:
        raise EmptySelectionError("store holds no trains")
    _check_n_max(store.n_max, config.n_max, "store", "training")
    space = StateSpace(config.n_max)
    train, station, starts = axis = _station_axis(store)
    if not len(station):
        raise EmptySelectionError("no trainable stations in store")
    matrices = np.empty((len(station), space.cardinality, space.cardinality))
    for e0, e1, counts in _station_blocks(store, axis, space):
        stack, fell_back = _recover(counts, space, config)
        # a tail entry below the floor becomes 0.0; a negative or NaN one reaches the check
        stack[(stack > 0) & (stack < ENTRY_FLOOR)] = 0.0
        keys = list(zip([store.ids[c] for c in train[e0:e1].tolist()], station[e0:e1].tolist()))
        _check_stack(stack, space, ((f"recovered matrix for train {tid} station {t}", mat)
                                    for (tid, t), mat in zip(keys, stack)))
        matrices[e0:e1] = stack
        if fallbacks is not None:
            fallbacks.extend(itertools.compress(keys, fell_back.tolist()))
    matrices.flags.writeable = station.flags.writeable = False
    return Bundle({"n_max": config.n_max, "strategy": config.strategy},
                  [store.ids[c] for c in train[starts[:-1]].tolist()], starts, matrices, station)


def parse_bundle(document) -> Bundle:
    """Check a bundle document whole (its meta, trains table and every matrix) and
    parse it into the `Bundle` that `train_bundle` returns. InputError names the
    train and the key of a matrix keyed other than str(t) for a station t >= 2,
    and the train and station of the first bad matrix in document order."""
    meta = document.get("meta") if isinstance(document, dict) else None
    if not isinstance(meta, dict):
        raise InputError("bundle has no meta object")
    space = StateSpace(_n_max_of(meta, "bundle meta"))
    if "strategy" not in meta:
        raise InputError("bundle meta has no strategy")
    if meta["strategy"] not in STRATEGIES:
        raise InputError(f"bundle meta has unknown strategy {meta['strategy']!r}; "
                         f"choose from {', '.join(STRATEGIES)}")
    if not isinstance(document.get("trains"), dict):
        raise InputError("bundle has no trains table")
    for tid, entry in document["trains"].items():
        if not isinstance(entry, dict) or not isinstance(entry.get("matrices"), dict):
            raise InputError(f"bundle train {tid} has no matrices table")
        bad = [k for k in entry["matrices"] if type(k) is not str or not _STATION_KEY.fullmatch(k)]
        if bad:
            raise InputError(f"bundle train {tid}: matrix key {bad[0]!r} is not a station "
                             "t >= 2 written as str(t)")
    ids = sorted(document["trains"])
    stations = [sorted(map(int, document["trains"][tid]["matrices"])) for tid in ids]
    starts = [0, *itertools.accumulate(map(len, stations))]
    matrices = np.empty((starts[-1], space.cardinality, space.cardinality))
    # read only if a train fails: every matrix in document order, to name the first bad one
    named = ((f"bundle matrix for train {tid} station {t}", matrix)
             for tid, entry in document["trains"].items() for t, matrix in entry["matrices"].items())
    try:  # each train's matrices as one array, checked at once
        for tid, keys, a, b in zip(ids, stations, starts, starts[1:]):
            if keys:
                matrices[a:b] = _check_stack([document["trains"][tid]["matrices"][str(t)] for t in keys],
                                             space, named)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    station = np.array([t for keys in stations for t in keys], dtype=np.int64)
    matrices.flags.writeable = station.flags.writeable = False
    return Bundle(meta, ids, starts, matrices, station)


def load_bundle(path) -> Bundle:
    """`parse_bundle` of the bundle file at `path`; its InputError names the file."""
    return _load(path, parse_bundle)


def bundle_matrices(bundle: Bundle, train_id: str, s: int, t: int) -> np.ndarray:
    """The propagation chain P(S+1) .. P(T) for one train, shape (T - S, k, k),
    a view into the bundle's stack; T > S."""
    _, a, b = _rows_of(bundle, train_id, f"bundle has no matrices for train {train_id}")
    stations = bundle.station[a:b].tolist()  # sorted and distinct: i .. j - 1 hold those in S+1 .. T
    i, j = bisect.bisect_left(stations, s + 1), bisect.bisect_right(stations, t)
    if j - i < t - s:  # name the first missing station, however far the target T
        missing = next(u for u, v in zip(itertools.count(s + 1), stations[i:j] + [None]) if u != v)
        raise CoverageError(f"bundle misses station {missing} for train {train_id}")
    return bundle.matrices[a + i:a + j]


def forecast_from_bundle(
    bundle: Bundle, train_id: str, s: int, d_s: int, t: int, config: RunConfig
) -> dict:
    """The prediction record of one current delay propagated through the
    bundle: d_S, the distribution at T, its trend, jump and minutes, and the
    metrics that read them."""
    space = StateSpace(bundle.meta["n_max"])
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


def _marginal_chains(train_store: Store, targets: dict[str, int],
                     space: StateSpace) -> dict[str, np.ndarray]:
    """The marginal baseline's chain of each train of `targets` at its target
    station, from one count pass over the training store. A train the training
    store lacks, or whose training series all stop before its target, gets none."""
    from .evaluate import marginal_predictor

    code = {tid: c for c, tid in enumerate(train_store.ids)}
    wanted = [tid for tid, t in targets.items() if tid in code and train_store.reach[code[tid]] >= t]
    if not wanted:
        return {}
    counts = build_count_tensor(train_store.delays, train_store.lengths,
                                [targets[tid] for tid in wanted], space, series_train=train_store.train,
                                station_train=np.array([code[tid] for tid in wanted]))
    return dict(zip(wanted, marginal_predictor(counts, space)[:, None]))


def _check_target(s: int, t: int | None) -> int | None:
    """Check the current station S, and a fixed target T if one is given."""
    if s < 1:
        raise CoverageError(f"current station {s} is before station 1")
    if t is not None and t <= s:
        raise CoverageError(f"target station {t} is not after current station {s}")
    return t


def resolve_target(
    store: Store | None, train_id: str, s: int, config: RunConfig, target: int | None
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
    eval_store: Store,
    config: RunConfig,
    bundle: Bundle | None = None,
    baseline: str | None = None,
    train_store: Store | None = None,
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
    target at or before it, or a store whose delay bound exceeds the model's,
    raises CoverageError.
    """
    from .evaluate import naive_predictor, score_batch

    if (bundle is None) == (baseline is None):
        raise ValueError("provide exactly one of bundle or baseline")
    if baseline is not None and baseline not in BASELINES:
        raise ValueError(f"unknown baseline {baseline!r}")
    if baseline == "marginal" and train_store is None:
        raise ValueError("marginal baseline needs a training store")

    # before the loop: the loop counts a CoverageError as an uncovered train
    _check_target(from_station, target)
    space = StateSpace(eval_store.n_max)
    model_space = space if bundle is None else StateSpace(bundle.meta["n_max"])
    _check_n_max(space.n_max, model_space.n_max, "evaluation store", "bundle")
    if baseline == "marginal":
        _check_n_max(train_store.n_max, space.n_max, "training store", "evaluation store")
    naive = naive_predictor(space) if baseline == "naive" else None
    k = model_space.cardinality
    columns, detail = [], []
    # series are grouped by train only to pick each train's target T and chain,
    # a block of trains at a time; a train without either skips all its series
    for c0 in range(0, len(eval_store.ids), _BLOCK_STATIONS):
        c1 = min(c0 + _BLOCK_STATIONS, len(eval_store.ids))
        targets, chains = {}, {}
        for tid, reach in zip(eval_store.ids[c0:c1], eval_store.reach[c0:c1].tolist()):
            try:
                t_target = resolve_target(eval_store, tid, from_station, config, target)
                if reach < t_target:  # T may lie past the delay array's last column
                    raise CoverageError(f"no series of train {tid} reaches station {t_target}")
                if bundle is not None:
                    chains[tid] = bundle_matrices(bundle, tid, from_station, t_target)
            except CoverageError:
                continue
            targets[tid] = t_target
        if naive is not None:
            chains = dict.fromkeys(targets, naive)
        elif baseline == "marginal":
            chains = _marginal_chains(train_store, targets, space)
        r0, r1 = eval_store.starts[c0], eval_store.starts[c1]
        t_of = np.array([targets[tid] if tid in chains else 0 for tid in eval_store.ids[c0:c1]],
                        dtype=np.int64)[eval_store.train[r0:r1] - c0]
        rows = r0 + np.flatnonzero((t_of > 0) & (eval_store.lengths[r0:r1] >= t_of))  # T > S covers S
        if not len(rows):
            continue
        train, t_of = eval_store.train[rows], t_of[rows - r0]
        d_S, d_T = eval_store.delays[rows, from_station - 1], eval_store.delays[rows, t_of - 1]
        # one block row per distinct (train, d_S), propagated through its train's
        # chain and scattered back to its series
        keys, series_of = np.unique(train * k + model_space.index(d_S), return_inverse=True)
        key_train, distinct = np.divmod(keys, k)
        distinct -= model_space.n_max
        V = point_delay(distinct, model_space)
        bounds = np.searchsorted(key_train, np.arange(c0, c1 + 1)).tolist()
        for c, tid in enumerate(eval_store.ids[c0:c1]):
            if bounds[c] < bounds[c + 1]:
                V[bounds[c]:bounds[c + 1]] = propagate(V[bounds[c]:bounds[c + 1]], chains[tid])
        predicted = make_prediction(V, distinct, model_space, config)
        columns.append((d_S, d_T, *(x[series_of] for x in predicted)))
        detail.extend(
            {"train": eval_store.ids[c], "date": eval_store.dates[r], "S": from_station, "T": t,
             "d_S": d_s, "d_T": d_t, "trend": TREND_CLASSES[code], "jump": j, "minutes": m}
            for c, r, t, d_s, d_t, code, j, m in zip(
                train.tolist(), rows.tolist(), t_of.tolist(), *(x.tolist() for x in columns[-1]))
        )
    if not detail:
        raise EmptySelectionError("no series could be evaluated")
    report = score_batch(*map(np.concatenate, zip(*columns)), config)
    payload = {
        "method": baseline or bundle.meta["strategy"],
        "skipped": len(eval_store.train) - len(detail),
        "scores": report.to_dict(),
        "predictions": detail,
    }
    return report, payload
