"""Outside-in layer trace for railmc.

Wraps public functions of the package with timing spans, without changing
any file of the package. `pipeline`, `cli` and `mctest` bind their callees
with ``from .x import y``, so a wrapper must replace the name wherever it is
looked up, not only in the defining module: `Tracer.install` rebinds every
attribute of every loaded ``railmc`` module that is the original function.

Self time of a span is its duration minus the durations of the wrapped
spans it directly encloses. Spans and counters stay in memory.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

import numpy as np

Observer = Callable[["Tracer", tuple, dict, object], None]


def _count_ingest_rows(tr: "Tracer", args, kwargs, result) -> None:
    events, rejects = result
    tr.counters["ingest.rows"] += len(events) + len(rejects)
    tr.counters["ingest.rejected_rows"] += len(rejects)


def _count_store_rejects(tr: "Tracer", args, kwargs, result) -> None:
    tr.counters["ingest.rejected_rows"] += len(result[1])


def _count_save_bytes(tr: "Tracer", args, kwargs, result) -> None:
    tr.counters["pipeline.save_json.bytes"] += os.path.getsize(args[1])


def _count_load_bytes(tr: "Tracer", args, kwargs, result) -> None:
    tr.counters["pipeline.load_json.bytes"] += os.path.getsize(args[0])


def _count_kde_pairs(tr: "Tracer", args, kwargs, result) -> None:
    pairs = np.asarray(args[0])
    tr.counters["recovery.kde_pairs"] += len(pairs)
    tr.counters["recovery.kde_distinct_pairs"] += len(np.unique(pairs, axis=0))


def _count_forecast_keys(tr: "Tracer", args, kwargs, result) -> None:
    _bundle, train_id, s, d_s, t = args[:5]
    tr.keys.add((train_id, s, t, d_s))


def _count_evaluated(tr: "Tracer", args, kwargs, result) -> None:
    report, payload = result
    tr.counters["evaluate.evaluated"] += report.eval_count
    tr.counters["evaluate.skipped"] += payload["skipped"]


# Wrapped functions as "<module>.<function>", with the counters read from
# their arguments and results.
TARGETS: dict[str, Observer | None] = {
    "cli.main": None,
    "cli.build_parser": None,
    "ingest.parse_events": _count_ingest_rows,
    "ingest.load_timetable": None,
    "ingest.assemble_series": None,
    "ingest.select_target_station": None,
    "ingest.write_rejects": None,
    "pipeline.build_store": _count_store_rejects,
    "pipeline.save_json": _count_save_bytes,
    "pipeline.load_json": _count_load_bytes,
    "pipeline.store_series": None,
    "pipeline.store_template": None,
    "pipeline.test_store": None,
    "pipeline.train_bundle": None,
    "pipeline._recover": None,
    "pipeline.bundle_matrices": None,
    "pipeline.forecast_from_bundle": _count_forecast_keys,
    "pipeline.evaluate_store": _count_evaluated,
    "core.build_count_tensor": None,
    "core.estimate_frequencies": None,
    "mctest.markov_property_test": None,
    "mctest.zero_order_statistics": None,
    "mctest.first_order_statistics": None,
    "mctest.aggregate_reports": None,
    "recovery.empirical_matrix": None,
    "recovery.diagonal_fill": None,
    "recovery.gaussian_regression_fill": None,
    "recovery.kde_fit": _count_kde_pairs,
    "recovery.kde_matrix": None,
    "forecast.point_delay": None,
    "forecast.propagate": None,
    "forecast.make_prediction": None,
    "evaluate.naive_predictor": None,
    "evaluate.marginal_predictor": None,
    "evaluate.score_batch": None,
    "synth.sample_series": None,
    "synth.write_ingest_files": None,
}


class Tracer:
    """Self time and call count per wrapped function, plus named counters."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.keys: set[tuple] = set()   # distinct (train, S, T, d_S) forecasts
        self._children: list[float] = []  # enclosed span time, one slot per open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, observe: Observer | None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                self.self_s[name] += span - self._children.pop()
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += span
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every lookup site of every target to its wrapper."""
        wrappers = {}
        for qual, observe in TARGETS.items():
            module, fn = qual.split(".")
            original = getattr(importlib.import_module(f"railmc.{module}"), fn)
            wrappers[id(original)] = (original, self._wrap(qual, original, observe))
        for name, module in list(sys.modules.items()):
            if name != "railmc" and not name.startswith("railmc."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
