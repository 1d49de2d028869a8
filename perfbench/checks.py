"""Output checks for each railmc CLI stage against the generated corpus."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import FROM_STATION, N_MAX, Corpus


class CheckFailed(Exception):
    """A stage wrote output that disagrees with the corpus."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def outputs(argv: list[str]) -> list[str]:
    """Files a stage writes: the --out/--rejects values, plus evaluate's CSV mirror."""
    files = [argv[i + 1] for i, a in enumerate(argv) if a in ("--out", "--rejects")]
    if argv[0] == "evaluate":
        files.append(files[0] + ".csv")
    return files


def digest(workdir: Path, argv: list[str]) -> str:
    h = hashlib.sha256()
    for name in outputs(argv):
        h.update((workdir / name).read_bytes())
    return h.hexdigest()


def check_stage(argv: list[str], workdir: Path, corpus: Corpus) -> None:
    """Check one stage's outputs in full; raises CheckFailed."""
    CHECKS[argv[0]](argv, workdir, corpus)


def _load(workdir: Path, name: str) -> dict:
    with open(workdir / name, encoding="utf-8") as fh:
        return json.load(fh)


def _check_ingest(argv, workdir: Path, corpus: Corpus) -> None:
    store = _load(workdir, "store.json")
    _expect(store["n_max"] == N_MAX, f"store n_max {store['n_max']}")
    got = {
        tid: [(s["date"], tuple(s["delays"])) for s in entry["series"]]
        for tid, entry in store["trains"].items()
    }
    _expect(got == corpus.store, "store series differ from the generated corpus")
    clipped = sum(s["clipped"] for e in store["trains"].values() for s in e["series"])
    _expect(clipped == 0, f"{clipped} delays clipped")
    with open(workdir / "rejects.csv", newline="", encoding="utf-8") as fh:
        reasons = Counter(row[1] for row in list(csv.reader(fh))[1:])
    _expect(dict(reasons) == corpus.rejects,
            f"rejects {dict(reasons)} != expected {corpus.rejects}")


def _check_test(argv, workdir: Path, corpus: Corpus) -> None:
    report = _load(workdir, "order.json")
    total = report["aggregate"]["total_stations"]
    _expect(total == corpus.n_stations,
            f"order report has {total} stations, corpus has {corpus.n_stations}")
    _expect(len(report["per_station"]) == total, "per-station rows differ from the total")


def _check_train(argv, workdir: Path, corpus: Corpus) -> None:
    from railmc.core import ROW_SUM_TOL

    bundle = _load(workdir, "bundle.json")
    _expect(bundle["meta"]["strategy"] == corpus.workload.strategy, "bundle strategy")
    count = 0
    for tid, entry in bundle["trains"].items():
        for t, rows in entry["matrices"].items():
            p = np.asarray(rows, dtype=float)
            _expect(p.shape == (2 * N_MAX + 1,) * 2, f"{tid}:{t} shape {p.shape}")
            _expect(bool(np.isfinite(p).all()), f"{tid}:{t} holds NaN or inf")
            _expect(bool((p >= 0).all()), f"{tid}:{t} has negative entries")
            worst = float(np.abs(p.sum(axis=1) - 1.0).max())
            _expect(worst <= ROW_SUM_TOL, f"{tid}:{t} row sum off by {worst}")
            count += 1
    _expect(count == corpus.n_stations,
            f"bundle has {count} matrices, corpus has {corpus.n_stations} stations")


def _check_evaluate(argv, workdir: Path, corpus: Corpus) -> None:
    out = argv[argv.index("--out") + 1]
    payload = _load(workdir, out)
    scores = payload["scores"]
    _expect(scores["eval_count"] + payload["skipped"] == corpus.n_series,
            f"eval_count {scores['eval_count']} + skipped {payload['skipped']} "
            f"!= {corpus.n_series} series")
    _expect(payload["skipped"] == corpus.expected_skips,
            f"skipped {payload['skipped']}, expected {corpus.expected_skips}")
    total = 10 * scores["F_JP"] + 5 * scores["F_TR"] - scores["RWMSE"]
    _expect(math.isclose(scores["total_score"], total, abs_tol=1e-9), "total_score arithmetic")
    with open(workdir / (out + ".csv"), newline="", encoding="utf-8") as fh:
        mirror = list(csv.reader(fh))
    _expect(mirror[1][0] == payload["method"]
            and float(mirror[1][4]) == round(scores["total_score"], 5), "CSV mirror")


def _check_forecast(argv, workdir: Path, corpus: Corpus) -> None:
    record = _load(workdir, "prediction.json")
    _expect(record["T"] == corpus.target, f"target {record['T']}, expected {corpus.target}")
    bundle = _load(workdir, "bundle.json")
    matrices = bundle["trains"][corpus.forecast_train]["matrices"]
    v = np.zeros(2 * N_MAX + 1)
    v[corpus.forecast_delay + N_MAX] = 1.0
    for t in range(FROM_STATION + 1, corpus.target + 1):
        v = v @ np.asarray(matrices[str(t)])
    _expect(np.allclose(record["distribution"], v, rtol=0, atol=1e-12), "forecast distribution")
    mean = float(v @ np.arange(-N_MAX, N_MAX + 1))
    _expect(math.isclose(record["minutes"], mean, abs_tol=1e-9),
            f"forecast minutes {record['minutes']}, expected {mean}")


CHECKS = {
    "ingest": _check_ingest,
    "test": _check_test,
    "train": _check_train,
    "evaluate": _check_evaluate,
    "forecast": _check_forecast,
}


def score_of(workdir: Path, argv: list[str]) -> float:
    return float(_load(workdir, argv[argv.index("--out") + 1])["scores"]["total_score"])
