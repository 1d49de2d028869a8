"""Tests of the benchmark itself, at tiny scale for each workload.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from workloads import WORKLOADS, make_corpus, stage_argvs

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "corridor_kde": dict(trains=2, series=20),
    "long_horizon": dict(trains=2, series=10),
    "sparse_network": dict(trains=3, series=30),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.fixture(autouse=True)
def one_pass(monkeypatch):
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Traced run of each tiny workload: name -> (result, digests)."""
    out = {}
    for name in WORKLOADS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(run, "MIN_PASSES", 1)
            out[name] = run.traced(tiny(name), 3, 0, tmp_path_factory.mktemp(name))
    return out


def test_spec_matches_benchmark_tables():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.PER_LAYER
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_emits_every_end_to_end_metric(name, tmp_path, traces):
    result, digests = run.untraced(tiny(name), 3, 0, tmp_path)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] == 4 + len(tiny(name).evaluations)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0 or m["name"] == "total_score"
    # Stage processes and in-process calls, traced or not, write the same bytes.
    assert digests == traces[name][1]
    assert None not in digests.values()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_outputs_match_untraced_and_emit_every_layer(name, traces):
    result, _ = traces[name]
    # every stage ran twice, untraced then traced, and the digests agreed
    assert (result["correct"], result["failed"]) == (True, 0)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["cli.import_s"]["value"] > 0


def test_bypass_predictions(traces):
    calls = {name: {k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
             for name, (r, _) in traces.items()}
    assert calls["corridor_kde"]["recovery.kde_matrix.calls"] > 0
    assert calls["long_horizon"]["recovery.kde_matrix.calls"] == 0
    assert calls["sparse_network"]["recovery.kde_matrix.calls"] == 0
    assert calls["corridor_kde"]["pipeline.bundle_matrices.calls"] > 0
    assert calls["long_horizon"]["pipeline.bundle_matrices.calls"] > 0
    # evaluate on sparse_network scores baselines only; the one call is `forecast`
    assert calls["sparse_network"]["pipeline.bundle_matrices.calls"] == 1


def test_reject_path_counts(traces):
    metrics = {k: v["value"] for k, v in traces["sparse_network"][0]["metrics"].items()}
    assert metrics["ingest.rejected_rows"] > 0
    assert 0 < metrics["ingest.reject_share"] < 0.05
    assert traces["corridor_kde"][0]["metrics"]["ingest.rejected_rows"]["value"] == 0


def test_checks_catch_a_wrong_store(tmp_path):
    corpus = make_corpus(tiny("sparse_network"), 3, tmp_path)
    _stage, argv = stage_argvs(corpus)[0]
    _wall, _kib, code, err = run.run_stage(argv, tmp_path)
    assert code == 0, err
    checks.check_stage(argv, tmp_path, corpus)
    store = json.loads((tmp_path / "store.json").read_text())
    first = store["trains"]["T001"]["series"][0]
    first["delays"][-1] += 1 if first["delays"][-1] < 15 else -1
    (tmp_path / "store.json").write_text(json.dumps(store))
    with pytest.raises(checks.CheckFailed):
        checks.check_stage(argv, tmp_path, corpus)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corridor_kde", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
