"""Network-scale probe: wall time and peak RSS of each railmc stage process,
and the in-process time of the layers under them.

Builds one corpus with `railmc synth` in a temporary directory, at dispersion
4 and seed 1, by default corpus B (20 series x 1000 trains x 12 stations:
240k realization rows). Then, for each source tree given with `--tree`, it runs
the stages `ingest`, `test`, KDE and `diagonal` `train`, `evaluate` with the
target at the last station, and a one-delay `forecast` from station 1. Each
stage is a process started by `os.posix_spawn` with the tree's `src` on
PYTHONPATH; wall time and peak RSS come from `os.wait4`. After the stages, one
more such process times the layers in process (LAYERS): `load_json` against
`parse_store` of the ingested store and `test_store`; for a KDE, a
`gaussian_regression` and a `diagonal` bundle, `train_bundle` against
`save_json`, then `load_json` against `parse_bundle` of the file written; and
`evaluate_store` with the KDE bundle at the last station. Trees alternate run
by run, and which goes first alternates too. The probe imports only the
standard library, so each peak RSS is the stage's own.

    python3 tools/scale_probe.py --tree . --tree ../parent --runs 3

prints one JSON document: the corpus, every run and every run's layer times,
and per tree the median of each stage's wall time and peak RSS and of each
layer time. A process that exits non-zero stops the probe with exit code 1.
The probe is evidence next to perfbench, not a gate.
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
BUNDLES = {"kde": "gaussian_kernel", "regression": "gaussian_regression", "diagonal": "diagonal"}
LAYERS = ("store.load_json_s", "store.parse_store_s", "store.test_store_s",
          *(f"{kind}.{layer}_s" for kind in BUNDLES
            for layer in ("train_bundle", "save_json", "load_json", "parse_bundle")),
          "kde.evaluate_store_s")

# The layer process: run with a tree's `src` on PYTHONPATH, a work directory
# holding the ingested store.json, the target station and BUNDLES as JSON;
# prints each of LAYERS in seconds as JSON.
LAYER_PROCESS = """
import json, sys, time
from railmc import pipeline
from railmc.config import RunConfig

work, target, bundles, layers = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3]), {}

def timed(name, fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    layers[name] = round(time.perf_counter() - start, 6)
    return result

store = timed("store.parse_store_s", pipeline.parse_store,
              timed("store.load_json_s", pipeline.load_json, f"{work}/store.json"))
timed("store.test_store_s", pipeline.test_store, store, RunConfig())
for kind, strategy in bundles.items():
    path = f"{work}/layers_{kind}.json"
    timed(f"{kind}.save_json_s", pipeline.save_json, timed(
        f"{kind}.train_bundle_s", pipeline.train_bundle, store, RunConfig(strategy=strategy)), path)
    bundle = timed(f"{kind}.parse_bundle_s", pipeline.parse_bundle,
                   timed(f"{kind}.load_json_s", pipeline.load_json, path))
    if kind == "kde":
        timed("kde.evaluate_store_s", pipeline.evaluate_store, store, RunConfig(), bundle=bundle,
              target=target)
print(json.dumps(layers))
"""


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


def spawn(tree: Path, argv: list[str], err: Path, out: str = os.devnull,
          args: tuple[str, ...] = ("-m", "railmc.cli")) -> dict:
    """One `python -m railmc.cli` process of `tree` (or one of other
    interpreter `args`), its stdout to `out`: its wall seconds and peak RSS in
    MiB. A non-zero exit stops the probe with its stderr."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    actions = [(os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args, *argv], env, file_actions=actions)
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

    runs, layers = [], []
    for run in range(args.runs):
        for t in trees if run % 2 == 0 else trees[::-1]:
            work = tmp / f"tree{trees.index(t)}"
            work.mkdir(exist_ok=True)
            for stage in STAGES:
                measured = spawn(t, stage_argv(stage, work, corpus, args.length), work / "stage.err")
                runs.append({"run": run, "tree": str(t), "stage": stage, **measured})
            spawn(t, [str(work), str(args.length), json.dumps(BUNDLES)], work / "stage.err",
                  str(work / "layers.out"), ("-c", LAYER_PROCESS))
            timed = json.loads((work / "layers.out").read_text())
            layers.append({"run": run, "tree": str(t), **{name: timed[name] for name in LAYERS}})
    medians = {
        str(t): {
            **{stage: {key: statistics.median(r[key] for r in runs
                                              if r["tree"] == str(t) and r["stage"] == stage)
                       for key in ("wall_s", "peak_rss_mib")}
               for stage in STAGES},
            "layers": {name: statistics.median(r[name] for r in layers if r["tree"] == str(t))
                       for name in LAYERS},
        }
        for t in trees
    }
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "corpus": {"argv": " ".join(synth[:-4]), "realization_rows": rows},
        "stages": {stage: " ".join(stage_argv(stage, Path("WORK"), Path("CORPUS"), args.length))
                   for stage in STAGES},
        "runs": runs,
        "layers": layers,
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
