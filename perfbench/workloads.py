"""Workload definitions and seeded corpus generation for the railmc benchmark.

A workload fixes the corpus shape, the recovery strategy and the CLI stages
that run on it. `make_corpus` writes the timetable and realization CSVs for
one seed (synth plus fault injection) and returns what the stages must
produce from them, so every output can be checked exactly.
"""

from __future__ import annotations

import datetime as dt
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_MAX = 15
HORIZON_MINUTES = 20.0
FROM_STATION = 1

# Fault kinds, each with the reason `railmc ingest` gives for the row.
FAULT_REASONS = (
    "wrong field count",
    "unknown activity",
    "unparseable timestamp",
    "train not in timetable",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trains: int
    series: int
    length: int
    dispersion: float
    strategy: str
    # argv fragments, one `railmc evaluate` invocation each; the first one is scored
    evaluations: tuple[tuple[str, ...], ...]
    target: int | None = None  # fixed target station; None resolves from the horizon
    fault_share: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="corridor_kde",
            why="paper default path (gaussian_kernel, 20-min horizon) at corridor scale: "
                "KDE recovery leads train, bundle rebuilds lead evaluate",
            trains=2, series=400, length=20, dispersion=1.5,
            strategy="gaussian_kernel",
            evaluations=(("--bundle", "bundle.json"),),
        ),
        Workload(
            name="long_horizon",
            why="diagonal fill with target 22: every series propagates through 21 matrices, "
                "so bundle_matrices leads and KDE does nothing",
            trains=4, series=40, length=24, dispersion=1.5,
            strategy="diagonal",
            evaluations=(("--bundle", "bundle.json", "--target", "22"),),
            target=22,
        ),
        Workload(
            name="sparse_network",
            why="many small sparse stations with 1% corrupt rows: per-object counts, order "
                "test, regression fill, bundle JSON and the reject path; no propagation",
            trains=20, series=60, length=12, dispersion=4.0,
            strategy="gaussian_regression",
            evaluations=(
                ("--baseline", "marginal", "--train-store", "store.json"),
                ("--baseline", "naive"),
            ),
            fault_share=0.01,
        ),
    )
}


@dataclass
class Corpus:
    """What one seed's CSVs hold, and what ingest must make of them."""

    workload: Workload
    seed: int
    digest: str                          # sha256 over both CSVs
    store: dict[str, list[tuple[str, tuple[int, ...]]]]  # train -> [(date, delays)]
    rejects: dict[str, int]              # reason -> expected reject rows
    target: int                          # target station for evaluate and forecast
    forecast_train: str
    forecast_delay: int

    @property
    def n_series(self) -> int:
        return sum(len(v) for v in self.store.values())

    @property
    def n_stations(self) -> int:
        """(train, station t >= 2) pairs: the order-test rows and bundle matrices."""
        return sum(max(len(d) for _, d in v) - 1 for v in self.store.values() if v)

    @property
    def expected_skips(self) -> int:
        return sum(1 for v in self.store.values() for _, d in v if len(d) < self.target)


def make_corpus(workload: Workload, seed: int, workdir: Path) -> Corpus:
    """Write timetable.csv and realization.csv for one seed into workdir."""
    from railmc import synth
    from railmc.core import StateSpace

    w = workload
    space = StateSpace(N_MAX)
    series = []
    for k in range(w.trains):
        spec = synth.near_diagonal_spec(space, w.length, w.dispersion, seed=seed * 1000 + k)
        series.extend(synth.sample_series(spec, w.series, train_id=f"T{k + 1:03d}"))
    timetable = workdir / "timetable.csv"
    realization = workdir / "realization.csv"
    synth.write_ingest_files(series, timetable, realization)

    with open(realization, newline="") as fh:
        lines = fh.readlines()
    rows = lines[1:]
    if len(rows) != len(series) * w.length:
        raise RuntimeError(f"expected {len(series) * w.length} realization rows, got {len(rows)}")
    dates = [rows[n * w.length].split(",")[1] for n in range(len(series))]

    # Corrupt a seeded share of rows, spread evenly over the four fault kinds.
    rng = np.random.default_rng([seed, 0xFA17])
    n_faults = round(w.fault_share * len(rows))
    picked = np.sort(rng.choice(len(rows), size=n_faults, replace=False))
    kinds = rng.permutation(np.arange(n_faults) % len(FAULT_REASONS))
    first_fault: dict[int, int] = {}  # series -> first corrupted station (1-based)
    rejects = {reason: 0 for reason in FAULT_REASONS}
    for r, kind in zip(picked.tolist(), kinds.tolist()):
        fields = rows[r].rstrip("\r\n").split(",")
        if kind == 0:
            fields = fields[:-1]
        elif kind == 1:
            fields[3] = "Q"
        elif kind == 2:
            fields[5] = "not-a-time"
        else:
            fields[0] = "X" + fields[0]
        rows[r] = ",".join(fields) + "\r\n"
        rejects[FAULT_REASONS[kind]] += 1
        n, station = divmod(r, w.length)
        first_fault[n] = min(first_fault.get(n, w.length + 1), station + 1)
    if n_faults:
        with open(realization, "w", newline="") as fh:
            fh.writelines([lines[0], *rows])

    # A series keeps its stations up to the first corrupted one; a series
    # corrupted at station 1 leaves its date with no usable stations.
    store: dict[str, list[tuple[str, tuple[int, ...]]]] = {}
    rejects["no usable stations"] = 0
    for n, s in enumerate(series):
        keep = first_fault.get(n, w.length + 1) - 1
        if keep == 0:
            rejects["no usable stations"] += 1
            continue
        store.setdefault(s.train_id, []).append((dates[n], tuple(s.delays[:keep])))

    digest = hashlib.sha256(timetable.read_bytes() + realization.read_bytes()).hexdigest()
    forecast_rng = np.random.default_rng([seed, 0xF0CA])
    return Corpus(
        workload=w,
        seed=seed,
        digest=digest,
        store=store,
        rejects={k: v for k, v in rejects.items() if v},
        target=w.target or _horizon_target(timetable, "T001"),
        forecast_train=f"T{int(forecast_rng.integers(w.trains)) + 1:03d}",
        forecast_delay=int(forecast_rng.integers(-5, 6)),
    )


def _horizon_target(timetable: Path, train: str) -> int:
    """First station planned at least the horizon after FROM_STATION."""
    planned = [
        dt.datetime.fromisoformat(line.split(",")[3])
        for line in timetable.read_text().splitlines()[1:]
        if line.split(",")[0] == train
    ]
    cutoff = planned[FROM_STATION - 1] + dt.timedelta(minutes=HORIZON_MINUTES)
    for t in range(FROM_STATION + 1, len(planned) + 1):
        if planned[t - 1] >= cutoff:
            return t
    return len(planned)


def stage_argvs(corpus: Corpus) -> list[tuple[str, list[str]]]:
    """The CLI invocations of one pass, as (stage, argv) in run order."""
    w = corpus.workload
    if w.target is None:
        target = ["--store", "store.json"]
    else:
        target = ["--target", str(w.target)]
    stages = [
        ("ingest", ["ingest", "--timetable", "timetable.csv", "--realization",
                    "realization.csv", "--out", "store.json", "--rejects", "rejects.csv"]),
        ("test", ["test", "--store", "store.json", "--out", "order.json"]),
        ("train", ["train", "--store", "store.json", "--out", "bundle.json",
                   "--strategy", w.strategy, "--seed", str(corpus.seed)]),
    ]
    for i, spec in enumerate(w.evaluations):
        stages.append(("evaluate", ["evaluate", "--store", "store.json", *spec,
                                    "--out", f"scores{i}.json"]))
    stages.append(("forecast", ["forecast", "--bundle", "bundle.json",
                                "--train", corpus.forecast_train, "--station", str(FROM_STATION),
                                "--delay", str(corpus.forecast_delay), *target,
                                "--out", "prediction.json"]))
    return stages
