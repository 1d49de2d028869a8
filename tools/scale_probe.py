"""Network-scale probe: wall time and peak RSS of each railmc stage process.

Builds one corpus with `railmc synth` in a temporary directory, at dispersion
4 and seed 1, by default corpus B (20 series x 1000 trains x 12 stations:
240k realization rows). Then, for each source tree given with `--tree`, it runs
the stages `ingest`, `test`, KDE and `diagonal` `train`, `evaluate` with the
target at the last station, and a one-delay `forecast` from station 1. Each
stage is a process started by `os.posix_spawn` with the tree's `src` on
PYTHONPATH; wall time and peak RSS come from `os.wait4`. Trees alternate run
by run, and which goes first alternates too. The probe imports only the
standard library, so each peak RSS is the stage's own.

    python3 tools/scale_probe.py --tree . --tree ../parent --runs 3

prints one JSON document: the corpus, every run, and per tree and stage the
median wall time and peak RSS. A stage that exits non-zero stops the probe
with exit code 1. The probe is evidence next to perfbench, not a gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

STAGES = ("ingest", "test", "train_kde", "train_diagonal", "evaluate", "forecast")


def stage_argv(stage: str, work: Path, corpus: Path, length: int) -> list[str]:
    """The `railmc` arguments of one stage, reading and writing under `work`."""
    store, kde = str(work / "store.json"), str(work / "kde.json")
    return {
        "ingest": ["ingest", "--timetable", str(corpus / "timetable.csv"),
                   "--realization", str(corpus / "realization.csv"),
                   "--out", store, "--rejects", str(work / "rejects.csv")],
        "test": ["test", "--store", store, "--out", str(work / "order.json")],
        "train_kde": ["train", "--store", store, "--out", kde],
        "train_diagonal": ["train", "--store", store, "--strategy", "diagonal",
                           "--out", str(work / "diagonal.json")],
        "evaluate": ["evaluate", "--store", store, "--bundle", kde, "--target", str(length),
                     "--out", str(work / "scores.json")],
        "forecast": ["forecast", "--bundle", kde, "--train", "T001", "--station", "1",
                     "--delay", "3", "--target", str(min(5, length)),
                     "--out", str(work / "forecast.json")],
    }[stage]


def spawn(tree: Path, argv: list[str], err: Path) -> dict:
    """One `python -m railmc.cli` process of `tree`: its wall seconds and
    peak RSS in MiB. A non-zero exit stops the probe with its stderr."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "railmc.cli", *argv], env,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise SystemExit(f"exit {code}: {' '.join(argv)}\n{err.read_text(errors='replace')}")
    return {"wall_s": round(wall, 4), "peak_rss_mib": round(usage.ru_maxrss / 1024, 1)}


def probe(args: argparse.Namespace, tmp: Path) -> dict:
    trees = [Path(t).resolve() for t in args.tree]
    corpus = tmp / "corpus"
    corpus.mkdir()
    synth = ["synth", "--series", str(args.series), "--trains", str(args.trains),
             "--length", str(args.length), "--dispersion", "4", "--seed", "1",
             "--out-timetable", str(corpus / "timetable.csv"),
             "--out-realization", str(corpus / "realization.csv")]
    spawn(trees[0], synth, tmp / "synth.err")
    with open(corpus / "realization.csv", "rb") as fh:
        rows = sum(1 for _ in fh) - 1

    runs = []
    for run in range(args.runs):
        for t in trees if run % 2 == 0 else trees[::-1]:
            work = tmp / f"tree{trees.index(t)}"
            work.mkdir(exist_ok=True)
            for stage in STAGES:
                measured = spawn(t, stage_argv(stage, work, corpus, args.length), work / "stage.err")
                runs.append({"run": run, "tree": str(t), "stage": stage, **measured})
    medians = {
        str(t): {stage: {key: statistics.median(r[key] for r in runs
                                                if r["tree"] == str(t) and r["stage"] == stage)
                         for key in ("wall_s", "peak_rss_mib")}
                 for stage in STAGES}
        for t in trees
    }
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "corpus": {"argv": " ".join(synth[:-4]), "realization_rows": rows},
        "stages": {stage: " ".join(stage_argv(stage, Path("WORK"), Path("CORPUS"), args.length))
                   for stage in STAGES},
        "runs": runs,
        "medians": medians,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", action="append",
                   help="source tree holding src/railmc; repeat to alternate trees (default .)")
    p.add_argument("--runs", type=int, default=3, help="runs of every stage per tree")
    p.add_argument("--series", type=int, default=20, help="series per train")
    p.add_argument("--trains", type=int, default=1000)
    p.add_argument("--length", type=int, default=12, help="stations per journey")
    args = p.parse_args(argv)
    args.tree = args.tree or ["."]
    with tempfile.TemporaryDirectory(prefix="scale_probe_") as tmp:
        print(json.dumps(probe(args, Path(tmp)), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
