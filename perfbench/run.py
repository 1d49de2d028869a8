#!/usr/bin/env python3
"""Benchmark of the railmc CLI on seeded synthetic corpora.

    python3 perfbench/run.py --workload corridor_kde --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

`--trace 0` runs every stage as a fresh `python -m railmc.cli` process, the
way a user runs it, for `--seconds` seconds of passes, checks every output
and reports each stage's median wall time over the passes, normalized by a
fixed reference task timed between passes (see README.md for why). `--trace 1`
calls `railmc.cli.main(argv)` in-process, alternating untraced passes with
passes traced by `layertrace`, and reports the per-layer metrics. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import checks
from workloads import WORKLOADS, Corpus, make_corpus, stage_argvs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
STAGES = ("ingest", "test", "train", "evaluate", "forecast")
# Set up at least SETUP_REPEATS times and for at least SETUP_SECONDS, so a
# workload whose set-up is short still gets a steady median.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.5
MIN_PASSES = 3
# Start no pass after this many seconds, whatever --seconds asks, so that a
# run ends well inside three minutes.
LAST_START_S = 120.0

# A fixed task that uses no railmc code: a fresh interpreter, the numpy and
# scipy imports every stage pays, pure-Python work and a JSON round trip.
# Timing it between passes tracks how fast the shared host runs right then.
REFERENCE_TASK = """
import csv, json, numpy, scipy.special
total = 0
for i in range(300_000):
    total += i * i % 7
json.loads(json.dumps([{"delays": list(range(i % 20))} for i in range(5000)]))
"""
# Times are reported in seconds on a host where the reference task takes this long.
REFERENCE_S = 0.5

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ingest_s", "s", "lower"),
    ("test_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("evaluate_s", "s", "lower"),
    ("forecast_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("total_score", "score", "higher"),
]

PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.build_parser.self_s", "s", "lower"),
    *[(f"cover.{stage}", "share", "higher") for stage in STAGES],
    ("ingest.parse_events.self_s", "s", "lower"),
    ("ingest.load_timetable.self_s", "s", "lower"),
    ("ingest.assemble_series.self_s", "s", "lower"),
    ("ingest.write_rejects.self_s", "s", "lower"),
    ("ingest.rows", "count", "higher"),
    ("ingest.rejected_rows", "count", "lower"),
    ("ingest.reject_share", "share", "lower"),
    ("pipeline.build_store.self_s", "s", "lower"),
    ("pipeline.save_json.self_s", "s", "lower"),
    ("pipeline.save_json.bytes", "bytes", "lower"),
    ("pipeline.load_json.self_s", "s", "lower"),
    ("pipeline.load_json.bytes", "bytes", "lower"),
    ("pipeline.store_series.self_s", "s", "lower"),
    ("pipeline.test_store.self_s", "s", "lower"),
    ("pipeline.train_bundle.self_s", "s", "lower"),
    ("pipeline._recover.self_s", "s", "lower"),
    ("pipeline.bundle_matrices.calls", "count", "lower"),
    ("pipeline.bundle_matrices.self_s", "s", "lower"),
    ("pipeline.evaluate_store.self_s", "s", "lower"),
    ("core.build_count_tensor.calls", "count", "lower"),
    ("core.build_count_tensor.self_s", "s", "lower"),
    ("core.estimate_frequencies.self_s", "s", "lower"),
    ("mctest.markov_property_test.calls", "count", "lower"),
    ("mctest.markov_property_test.self_s", "s", "lower"),
    ("mctest.zero_order_statistics.self_s", "s", "lower"),
    ("mctest.first_order_statistics.self_s", "s", "lower"),
    ("recovery.kde_fit.self_s", "s", "lower"),
    ("recovery.kde_matrix.calls", "count", "lower"),
    ("recovery.kde_matrix.self_s", "s", "lower"),
    ("recovery.kde_pairs", "count", "lower"),
    ("recovery.kde_distinct_share", "share", "lower"),
    ("recovery.empirical_matrix.self_s", "s", "lower"),
    ("recovery.gaussian_regression_fill.self_s", "s", "lower"),
    ("recovery.diagonal_fill.self_s", "s", "lower"),
    ("recovery.fallbacks", "count", "lower"),
    ("forecast.point_delay.self_s", "s", "lower"),
    ("forecast.propagate.calls", "count", "lower"),
    ("forecast.propagate.self_s", "s", "lower"),
    ("forecast.make_prediction.self_s", "s", "lower"),
    ("forecast.distinct_share", "share", "lower"),
    ("evaluate.naive_predictor.self_s", "s", "lower"),
    ("evaluate.marginal_predictor.self_s", "s", "lower"),
    ("evaluate.score_batch.self_s", "s", "lower"),
    ("evaluate.evaluated", "count", "higher"),
    ("evaluate.skipped", "count", "lower"),
    ("evaluate.useful_share", "share", "higher"),
    ("synth.sample_series.self_s", "s", "lower"),
    ("synth.write_ingest_files.self_s", "s", "lower"),
    ("trace.overhead", "share", "lower"),
]


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    try:
        env["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def setup(workload, seed: int, workdir: Path) -> tuple[Corpus, list[float]]:
    """Generate the corpus repeatedly; the times, and digests must agree."""
    times, digests = [], set()
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        start = time.perf_counter()
        corpus = make_corpus(workload, seed, workdir)
        times.append(time.perf_counter() - start)
        digests.add(corpus.digest)
    if len(digests) != 1:
        raise RuntimeError("corpus generation is not deterministic for one seed")
    return corpus, times


class Ledger:
    """Counts stage invocations and failures; the first good output of each
    invocation is checked in full, later repeats must match its digest."""

    def __init__(self, corpus: Corpus, workdir: Path) -> None:
        self.corpus = corpus
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.reference: dict[int, str] = {}

    def record(self, index: int, argv: list[str], code: int, detail: str = "") -> None:
        self.attempted += 1
        try:
            if code != 0:
                raise checks.CheckFailed(f"exit code {code}: {detail.strip()[-400:]}")
            got = checks.digest(self.workdir, argv)
            if index not in self.reference:
                checks.check_stage(argv, self.workdir, self.corpus)
                self.reference[index] = got
            elif got != self.reference[index]:
                raise checks.CheckFailed("output digest differs between repeats")
        except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
            self.failed += 1
            log(f"FAILED {' '.join(argv)}: {exc!r}")


def _stage_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_stage(argv: list[str], workdir: Path) -> tuple[float, int, int, str]:
    """One `railmc` process: (wall seconds, peak RSS KiB, exit code, stderr)."""
    err_path = workdir / "stage.err"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "railmc.cli", *argv],
            cwd=workdir, env=_stage_env(), stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode, err_path.read_text(errors="replace")


def interpreter_seconds(code: str = "import railmc.cli") -> float:
    """A fresh interpreter running `code`; by default it imports railmc.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=_stage_env(), check=True)
    return time.perf_counter() - start


def normalized(samples: list[float], refs: list[float]) -> float:
    """Median over samples of sample / reference, scaled to REFERENCE_S.

    Sample i ran between reference timings i and i + 1, and is divided by
    their mean, so that a slow spell of the host cancels out.
    """
    return REFERENCE_S * statistics.median(
        x / ((refs[i] + refs[i + 1]) / 2) for i, x in enumerate(samples))


def _more_passes(done: int, deadline: float, started: float) -> bool:
    now = time.perf_counter()
    if now - started > LAST_START_S:
        return False
    return done < MIN_PASSES or now < deadline


def untraced(workload, seed: int, seconds: int, workdir: Path) -> tuple[dict, dict]:
    """Stage processes for `seconds` of passes: (result, output digests)."""
    started = time.perf_counter()
    interpreter_seconds()  # warm-up: byte-compile the package and fill the page cache
    setup_refs = [interpreter_seconds(REFERENCE_TASK)]
    corpus, setup_times = setup(workload, seed, workdir)
    refs = [interpreter_seconds(REFERENCE_TASK)]
    setup_refs.append(refs[0])
    stages = stage_argvs(corpus)
    ledger = Ledger(corpus, workdir)
    passes = []
    deadline = time.perf_counter() + seconds
    while _more_passes(len(passes), deadline, started):
        walls: dict[str, float] = defaultdict(float)
        peak_kib = 0
        for index, (stage, argv) in enumerate(stages):
            wall, kib, code, err = run_stage(argv, workdir)
            walls[stage] += wall
            peak_kib = max(peak_kib, kib)
            ledger.record(index, argv, code, err)
        walls["peak_rss_mb"] = peak_kib / 1024.0
        passes.append(walls)
        refs.append(interpreter_seconds(REFERENCE_TASK))

    scored = next(argv for stage, argv in stages if stage == "evaluate")
    values = {f"{s}_s": normalized([p[s] for p in passes], refs) for s in STAGES}
    values["pipeline_s"] = sum(values[f"{s}_s"] for s in STAGES)
    values["setup_s"] = REFERENCE_S * statistics.median(setup_times) / statistics.mean(setup_refs)
    values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    values["total_score"] = checks.score_of(workdir, scored)
    digests = _digests(stages, ledger)
    print(json.dumps({
        "workload": workload.name, "seed": seed, "digests": digests,
        "passes": [{k: round(v, 4) for k, v in p.items()} for p in passes],
        "reference_s": [round(r, 4) for r in refs],
    }, sort_keys=True))
    return _result(ledger, values, END_TO_END), digests


def _digests(stages, ledger: Ledger) -> dict[str, str | None]:
    return {" ".join(argv[:1] + checks.outputs(argv)): ledger.reference.get(i)
            for i, (_, argv) in enumerate(stages)}


def _result(ledger: Ledger, values: dict, table) -> dict:
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }


def run_inprocess(stages, workdir: Path, ledger: Ledger, tracer=None):
    """One pass through `railmc.cli.main`: (wall seconds per stage, and when
    traced, the self seconds of each wrapped function per stage)."""
    import railmc.cli

    walls: dict[str, float] = defaultdict(float)
    breakdown: dict[str, Counter] = defaultdict(Counter)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for index, (stage, argv) in enumerate(stages):
                before = dict(tracer.self_s) if tracer else {}
                start = time.perf_counter()
                try:
                    code = railmc.cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                walls[stage] += time.perf_counter() - start
                if tracer:
                    breakdown[stage].update(
                        {k: v - before.get(k, 0.0) for k, v in tracer.self_s.items()})
                ledger.record(index, argv, code)
    finally:
        os.chdir(cwd)
    recovery_file = os.path.join("railmc", "recovery.py")
    walls["fallbacks"] = sum(1 for w in caught if w.filename.endswith(recovery_file))
    return walls, breakdown


def traced(workload, seed: int, seconds: int, workdir: Path) -> tuple[dict, dict]:
    """In-process passes, untraced and traced in turn: (result, output digests)."""
    from layertrace import Tracer

    started = time.perf_counter()
    setup_trace = Tracer()
    setup_trace.install()
    try:
        corpus = make_corpus(workload, seed, workdir)
    finally:
        setup_trace.uninstall()
    interpreter_seconds()  # warm-up
    import_s = statistics.median(interpreter_seconds() for _ in range(3))

    stages = stage_argvs(corpus)
    ledger = Ledger(corpus, workdir)
    plain_walls, samples = [], []
    deadline = time.perf_counter() + seconds
    while _more_passes(len(samples), deadline, started):
        # alternate which of the two passes runs first, so order effects cancel
        if len(samples) % 2 == 0:
            plain, _ = run_inprocess(stages, workdir, ledger)
        tracer = Tracer()
        tracer.install()
        try:
            walls, breakdown = run_inprocess(stages, workdir, ledger, tracer)
        finally:
            tracer.uninstall()
        if len(samples) % 2 == 1:
            plain, _ = run_inprocess(stages, workdir, ledger)
        plain_walls.append(sum(plain[s] for s in STAGES))
        samples.append(_layer_values(tracer, walls, breakdown))
        samples[-1]["trace.overhead"] = sum(walls[s] for s in STAGES)

    values = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    values["trace.overhead"] = values["trace.overhead"] / statistics.median(plain_walls) - 1.0
    values["cli.import_s"] = import_s
    for name in ("synth.sample_series.self_s", "synth.write_ingest_files.self_s"):
        values[name] = setup_trace.self_s[name.removesuffix(".self_s")]
    print(json.dumps({"workload": workload.name, "seed": seed, "leading_layers": {
        stage: {k: round(v / walls[stage], 3) for k, v in breakdown[stage].most_common(3)}
        for stage in STAGES}}, sort_keys=True))
    return _result(ledger, values, PER_LAYER), _digests(stages, ledger)


def _layer_values(tracer, walls: dict[str, float], breakdown) -> dict[str, float]:
    values: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = tracer.self_s[base]
        elif kind == "calls":
            values[name] = tracer.calls[base]
        else:
            values[name] = tracer.counters.get(name, 0.0)
    for stage in STAGES:
        # cli.main's own time is the unwrapped remainder of the stage
        wrapped = sum(v for k, v in breakdown[stage].items() if k != "cli.main")
        values[f"cover.{stage}"] = wrapped / walls[stage]
    counters = tracer.counters
    values.update({
        "ingest.rows": counters["ingest.rows"],
        "ingest.rejected_rows": counters["ingest.rejected_rows"],
        "ingest.reject_share": _share(counters["ingest.rejected_rows"], counters["ingest.rows"]),
        "recovery.kde_pairs": counters["recovery.kde_pairs"],
        "recovery.kde_distinct_share":
            _share(counters["recovery.kde_distinct_pairs"], counters["recovery.kde_pairs"]),
        "recovery.fallbacks": walls["fallbacks"],
        "forecast.distinct_share":
            _share(len(tracer.keys), tracer.calls["pipeline.forecast_from_bundle"]),
        "evaluate.evaluated": counters["evaluate.evaluated"],
        "evaluate.skipped": counters["evaluate.skipped"],
        "evaluate.useful_share": _share(
            counters["evaluate.evaluated"],
            counters["evaluate.evaluated"] + counters["evaluate.skipped"]),
    })
    return values


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run_all(seed: int, seconds: int) -> int:
    """Run every workload untraced and print each end-to-end metric as a table."""
    results = {}
    for name, workload in WORKLOADS.items():
        log(f"running {name} ...")
        results[name], _ = _in_workdir(untraced, workload, seed, seconds)
    width = max(len(n) for n in WORKLOADS)
    print(f"{'metric':<14}{'unit':<7}{'better':<8}" + "".join(f"{n:>{width + 2}}" for n in results))
    for name, unit, better in END_TO_END:
        cells = "".join(f"{r['metrics'][name]['value']:>{width + 2}.4f}" for r in results.values())
        print(f"{name:<14}{unit:<7}{better:<8}{cells}")
    print(f"{'failed_ops':<14}{'share':<7}{'lower':<8}"
          + "".join(f"{r['failed'] / r['attempted']:>{width + 2}.4f}" for r in results.values()))
    return 0 if all(r["correct"] for r in results.values()) else 1


def _in_workdir(fn, workload, seed: int, seconds: int) -> tuple[dict, dict]:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK))
    try:
        return fn(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=28, help="measured seconds of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "railmc" / "cli.py").is_file():
        log(f"error: railmc sources not found under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))

    print(json.dumps({"environment": environment()}, sort_keys=True))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    run = traced if args.trace else untraced
    result, _ = _in_workdir(run, WORKLOADS[args.workload], args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
