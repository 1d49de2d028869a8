import contextlib
import csv
import dataclasses
import datetime as dt
import io
import json
import os
import shutil
import signal
import stat
import subprocess
import sys
import types
import warnings
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import railmc
from railmc import cli, pipeline
from railmc.cli import COMMANDS, build_parser, main
from railmc.config import N_MAX_LIMIT, STRATEGIES, RunConfig
from railmc.core import CoverageError, InputError
from railmc.pipeline import (load_bundle, load_json, load_store, parse_store, save_json,
                             store_series, store_template, train_bundle)


WORKSPACE_FILES = ("timetable.csv", "realization.csv", "store.json", "rejects.csv")


@pytest.fixture(scope="session")
def workspace_corpus(tmp_path_factory):
    """Synthetic timetable/realization pair plus the ingested store, made once."""
    path = tmp_path_factory.mktemp("workspace")
    tt, rz = path / "timetable.csv", path / "realization.csv"
    assert main([
        "synth", "--series", "80", "--trains", "1", "--length", "5",
        "--out-timetable", str(tt), "--out-realization", str(rz), "--seed", "3",
    ]) == 0
    assert main([
        "ingest", "--timetable", str(tt), "--realization", str(rz),
        "--out", str(path / "store.json"), "--rejects", str(path / "rejects.csv"),
    ]) == 0
    return path


@pytest.fixture
def workspace(tmp_path, workspace_corpus):
    """A copy of the session's corpus files in this test's own directory."""
    for name in WORKSPACE_FILES:
        shutil.copy(workspace_corpus / name, tmp_path / name)
    return tmp_path


class TestCommandFlow:
    def test_end_to_end(self, workspace):
        store = workspace / "store.json"
        report = workspace / "report.json"
        bundle = workspace / "bundle.json"
        scores = workspace / "scores.json"

        assert main(["test", "--store", str(store), "--out", str(report)]) == 0
        rep = load_json(report)
        assert rep["aggregate"]["total_stations"] == 4
        assert {"LR", "Q"} <= set(rep["aggregate"]["statistics"])

        assert main([
            "train", "--store", str(store), "--out", str(bundle),
            "--strategy", "diagonal",
        ]) == 0
        b = load_json(bundle)
        assert set(b["trains"]["T001"]["matrices"]) == {"2", "3", "4", "5"}

        pred_path = workspace / "pred.json"
        assert main([
            "forecast", "--bundle", str(bundle), "--train", "T001",
            "--station", "1", "--delay", "0", "--target", "4",
            "--out", str(pred_path),
        ]) == 0
        pred = load_json(pred_path)
        assert pred["T"] == 4 and pred["trend"] in ("increase", "decrease", "equal")

        assert main([
            "evaluate", "--store", str(store), "--bundle", str(bundle),
            "--out", str(scores),
        ]) == 0
        payload = load_json(scores)
        assert payload["method"] == "diagonal"
        assert "total_score" in payload["scores"]
        csv_lines = (workspace / "scores.json.csv").read_text().splitlines()
        assert csv_lines[0] == "method,F_TR,F_JP,RWMSE,total_score"
        assert csv_lines[1].startswith("diagonal,")

    def test_horizon_target_resolution(self, workspace):
        bundle = workspace / "bundle.json"
        assert main([
            "train", "--store", str(workspace / "store.json"),
            "--out", str(bundle), "--strategy", "uniform",
        ]) == 0
        # stations are 7 minutes apart, so a 20-minute horizon from station 1
        # resolves to station 4
        out = workspace / "pred.json"
        assert main([
            "forecast", "--bundle", str(bundle), "--train", "T001",
            "--station", "1", "--delay", "2", "--store", str(workspace / "store.json"),
            "--out", str(out),
        ]) == 0
        assert load_json(out)["T"] == 4

    @pytest.mark.parametrize("horizon", ["1e12", "1e300"])
    @pytest.mark.parametrize("command", ["forecast", "evaluate"])
    def test_horizon_past_any_date_resolves_to_last_station(self, workspace, command, horizon):
        # 1e12 minutes passes year 9999; 1e300 overflows a timedelta
        store, bundle, out = (str(workspace / n) for n in ("store.json", "bundle.json", "out.json"))
        assert main(["train", "--store", store, "--out", bundle, "--strategy", "diagonal"]) == 0
        argv = {
            "forecast": ["forecast", "--bundle", bundle, "--train", "T001", "--station", "1",
                         "--delay", "0", "--store", store],
            "evaluate": ["evaluate", "--store", store, "--bundle", bundle],
        }[command]
        code = main([*argv, "--horizon", horizon, "--out", out])
        assert code != 1
        assert code == 0
        records = load_json(out).get("predictions", [load_json(out)])
        assert records and {r["T"] for r in records} == {5}

    @pytest.mark.parametrize("horizon", ["1e-9", "5e-324"])
    @pytest.mark.parametrize("command", ["forecast", "evaluate"])
    def test_horizon_under_a_microsecond_resolves_to_next_station(self, workspace, command, horizon):
        # a timedelta of these many minutes rounds to zero; the horizon is still positive
        store, bundle, out = (str(workspace / n) for n in ("store.json", "bundle.json", "out.json"))
        assert main(["train", "--store", store, "--out", bundle, "--strategy", "diagonal"]) == 0
        argv = {
            "forecast": ["forecast", "--bundle", bundle, "--train", "T001", "--station", "1",
                         "--delay", "0", "--store", store],
            "evaluate": ["evaluate", "--store", store, "--bundle", bundle],
        }[command]
        assert main([*argv, "--horizon", horizon, "--out", out]) == 0
        records = load_json(out).get("predictions", [load_json(out)])
        assert records and {r["T"] for r in records} == {2}

    def test_baseline_evaluation(self, workspace):
        store = workspace / "store.json"
        out = workspace / "naive.json"
        assert main([
            "evaluate", "--store", str(store), "--baseline", "naive",
            "--out", str(out),
        ]) == 0
        assert load_json(out)["method"] == "naive"
        out2 = workspace / "marginal.json"
        assert main([
            "evaluate", "--store", str(store), "--baseline", "marginal",
            "--train-store", str(store), "--out", str(out2),
        ]) == 0
        assert load_json(out2)["method"] == "marginal"


class TestDeterminism:
    def test_same_seed_byte_identical_bundle(self, workspace):
        store = workspace / "store.json"
        a = workspace / "bundle_a.json"
        b = workspace / "bundle_b.json"
        for out in (a, b):
            assert main([
                "train", "--store", str(store), "--out", str(out),
                "--strategy", "gaussian_kernel", "--seed", "7",
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fills_agree_when_every_row_observed(self, tmp_path):
        # with a tiny state space and many series all rows get observed, so
        # diagonal and uniform filling recover the same (empirical) matrices
        tt, rz, store = (tmp_path / n for n in ("tt.csv", "rz.csv", "store.json"))
        assert main([
            "synth", "--series", "600", "--length", "3", "--n-max", "2",
            "--dispersion", "2.0", "--out-timetable", str(tt),
            "--out-realization", str(rz), "--seed", "1",
        ]) == 0
        assert main([
            "ingest", "--timetable", str(tt), "--realization", str(rz),
            "--out", str(store), "--n-max", "2",
        ]) == 0
        a, b = tmp_path / "diag.json", tmp_path / "unif.json"
        assert main(["train", "--store", str(store), "--out", str(a),
                     "--strategy", "diagonal", "--n-max", "2"]) == 0
        assert main(["train", "--store", str(store), "--out", str(b),
                     "--strategy", "uniform", "--n-max", "2"]) == 0
        # the meta block records the strategy name; the matrices must agree
        assert load_json(a)["trains"] == load_json(b)["trains"]


JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=40,
)

# the float64 values whose text is easiest to get wrong, and any other finite one
EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-300, 1 - 2**-53)
SQUARE_MATRICES = st.integers(1, 4).flatmap(lambda k: arrays(
    np.float64, (k, k),
    elements=st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)))


class TestArtifactWriter:
    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=5))
    def test_bytes_are_compact_sorted_json(self, tmp_path_factory, payload):
        path = tmp_path_factory.getbasetemp() / "writer.json"
        save_json(payload, path)
        want = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert path.read_bytes() == want.encode("utf-8")
        assert load_json(path) == payload

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(max_size=4), st.dictionaries(
        st.integers(2, 40).map(str), SQUARE_MATRICES, max_size=3), max_size=3))
    @example({"T001": {"2": np.array([EDGE_FLOATS[:3], EDGE_FLOATS[2:], EDGE_FLOATS[::2]])}})
    def test_array_matrices_write_as_their_lists(self, tmp_path_factory, matrices):
        # a bundle as `train_bundle` returns it, and as `load_bundle` reads it back
        def bundle(matrix):
            return {"meta": {"n_max": 1, "strategy": "diagonal"},
                    "trains": {tid: {"matrices": {t: matrix(m) for t, m in by_station.items()}}
                               for tid, by_station in matrices.items()}}
        arrays_path = tmp_path_factory.getbasetemp() / "arrays.json"
        lists_path = tmp_path_factory.getbasetemp() / "lists.json"
        save_json(bundle(lambda m: m), arrays_path)
        save_json(bundle(np.ndarray.tolist), lists_path)
        assert arrays_path.read_bytes() == lists_path.read_bytes()

    def test_non_str_keys_are_left_to_the_encoder(self, tmp_path):
        # json writes int, float, bool and None keys as strings, sorted as given
        payload = {"trains": {10: {"a": 1}, 2: [1.5]}, "x": {True: None, False: 0}}
        save_json(payload, tmp_path / "out.json")
        want = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert (tmp_path / "out.json").read_text() == want

    def test_replaced_file_keeps_its_mode_and_a_symlink_is_written_through(self, tmp_path):
        # a new file gets 0666 minus the umask, as open(path, "w") would give it
        umask = os.umask(0o027)
        try:
            save_json({}, tmp_path / "new.json")
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "new.json").stat().st_mode) == 0o640
        kept, link = tmp_path / "kept.json", tmp_path / "link.json"
        kept.write_text("previous")
        kept.chmod(0o604)
        save_json({}, kept)
        assert stat.S_IMODE(kept.stat().st_mode) == 0o604 and kept.read_text() == "{}\n"
        link.symlink_to(kept)
        save_json({"a": 1}, link)
        assert link.is_symlink() and kept.read_text() == '{"a":1}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json", "link.json", "new.json"]

    def test_bundle_matrices_come_back_bit_equal(self, workspace):
        bundle = train_bundle(parse_store(load_json(workspace / "store.json")), RunConfig())
        save_json(bundle, workspace / "bundle.json")
        loaded = load_json(workspace / "bundle.json")
        assert loaded["meta"] == bundle.meta
        assert list(loaded["trains"]) == bundle.ids
        for tid, a, b in zip(bundle.ids, bundle.starts, bundle.starts[1:]):
            stations = bundle.station[a:b].tolist()
            assert loaded["trains"][tid]["matrices"].keys() == set(map(str, stations))
            for t, want in zip(stations, bundle.matrices[a:b]):
                got = np.asarray(loaded["trains"][tid]["matrices"][str(t)], dtype=np.float64)
                assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        assert main([
            "test", "--store", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "out.json"),
        ]) == 2

    def test_out_in_a_missing_directory_is_io_error_naming_it(self, workspace, capsys):
        # the error names the output asked for, not the temporary file beside it
        out = workspace / "missing" / "out.json"
        assert main(["test", "--store", str(workspace / "store.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert sorted(p.name for p in workspace.rglob("*")) == sorted(WORKSPACE_FILES)

    def test_empty_store_is_empty_selection(self, tmp_path):
        store = tmp_path / "empty.json"
        save_json({"n_max": 15, "trains": {}}, store)
        assert main([
            "test", "--store", str(store), "--out", str(tmp_path / "out.json"),
        ]) == 3

    def test_train_on_empty_store_is_empty_selection(self, tmp_path, capsys):
        store, out = tmp_path / "empty.json", tmp_path / "bundle.json"
        save_json({"n_max": 15, "trains": {}}, store)
        assert main(["train", "--store", str(store), "--out", str(out)]) == 3
        assert "error: store holds no trains" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, reason", [
        (["test"], "no testable stations in store"),
        *((["train", "--strategy", s], "no trainable stations in store") for s in STRATEGIES),
    ], ids=["test", *STRATEGIES])
    def test_one_station_journeys_are_empty_selection(self, tmp_path, capsys, command, reason):
        # a one-station journey has no transition to test or to recover
        tt, rz, store = tmp_path / "tt.csv", tmp_path / "rz.csv", tmp_path / "store.json"
        assert main(["synth", "--series", "5", "--trains", "2", "--length", "1",
                     "--out-timetable", str(tt), "--out-realization", str(rz)]) == 0
        assert main(["ingest", "--timetable", str(tt), "--realization", str(rz),
                     "--out", str(store)]) == 0
        capsys.readouterr()
        out = tmp_path / "out.json"
        assert main([command[0], "--store", str(store), "--out", str(out), *command[1:]]) == 3
        assert f"error: {reason}" in capsys.readouterr().err
        assert not out.exists()

    def test_marginal_training_store_short_of_target(self, workspace, capsys):
        # training series that stop at station 3 have no observation at station 5
        store, short, out = workspace / "store.json", workspace / "short.json", workspace / "s.json"
        payload = load_json(store)
        for entry in payload["trains"].values():
            for series in entry["series"]:
                series["delays"] = series["delays"][:3]
        save_json(payload, short)
        argv = ["evaluate", "--store", str(store), "--baseline", "marginal",
                "--train-store", str(short), "--out", str(out)]
        capsys.readouterr()
        assert main([*argv, "--target", "5"]) == 3
        assert "error: no series could be evaluated" in capsys.readouterr().err
        assert not out.exists()
        assert main([*argv, "--target", "3"]) == 0
        assert load_json(out)["skipped"] == 0

    def test_coverage_gap(self, workspace):
        bundle = workspace / "bundle.json"
        assert main([
            "train", "--store", str(workspace / "store.json"),
            "--out", str(bundle), "--strategy", "diagonal",
        ]) == 0
        # station 9 was never trained
        assert main([
            "forecast", "--bundle", str(bundle), "--train", "T001",
            "--station", "1", "--delay", "0", "--target", "9",
        ]) == 4

    @pytest.mark.parametrize("method", ["bundle", "naive", "marginal"])
    def test_far_target_is_a_coverage_gap(self, workspace, capsys, method):
        # a chain to station 10^12 must not be allocated before its station 6 is missed,
        # and a target past int64 must not reach the count pass
        store, bundle = workspace / "store.json", workspace / "bundle.json"
        assert main([
            "train", "--store", str(store), "--out", str(bundle), "--strategy", "diagonal",
        ]) == 0
        source = {
            "bundle": ["--bundle", str(bundle)],
            "naive": ["--baseline", "naive"],
            "marginal": ["--baseline", "marginal", "--train-store", str(store)],
        }[method]
        for far in ("1000000000000", "100000000000000000000"):
            if method == "bundle":
                assert main([
                    "forecast", "--bundle", str(bundle), "--train", "T001",
                    "--station", "1", "--delay", "0", "--target", far,
                ]) == 4
                assert "bundle misses station 6 for train T001" in capsys.readouterr().err
            # every train is uncovered, so no series is left to score
            assert main([
                "evaluate", "--store", str(store), *source, "--target", far,
                "--out", str(workspace / "scores.json"),
            ]) == 3, far
            assert "no series could be evaluated" in capsys.readouterr().err

    def test_last_station_has_no_target(self, workspace):
        bundle = workspace / "bundle.json"
        assert main([
            "train", "--store", str(workspace / "store.json"),
            "--out", str(bundle), "--strategy", "diagonal",
        ]) == 0
        assert main([
            "forecast", "--bundle", str(bundle), "--train", "T001",
            "--station", "5", "--delay", "0",
            "--store", str(workspace / "store.json"),
        ]) == 4

    def test_print_matrix_outside_bundle_is_coverage_gap(self, workspace, capsys):
        store, bundle = workspace / "store.json", workspace / "bundle.json"
        train = ["train", "--store", str(store), "--out", str(bundle), "--strategy", "diagonal"]
        assert main(train + ["--print-matrix", "T001:3"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[0] == "-15"
        # the journey has 5 stations, so station 9 has no matrix; a failing run
        # writes no bundle and prints no summary
        fresh = workspace / "fresh.json"
        for matrix, reason in [("T001:9", "station 9 for train T001"), ("T009:3", "train T009")]:
            assert main(["train", "--store", str(store), "--out", str(fresh),
                         "--strategy", "diagonal", "--print-matrix", matrix]) == 4
            out, err = capsys.readouterr()
            assert reason in err and out == ""
            assert not fresh.exists()

    @pytest.mark.parametrize("train, station, reason", [
        ("T001", "9", "train T001: station index 9 outside template of 5 stations"),
        ("T001", "5", "train T001: current station 5 is the final station"),
        ("T999", "1", "store has no train T999"),
    ], ids=["station_outside", "final_station", "unknown_train"])
    def test_forecast_horizon_without_target_exits_4(self, workspace, capsys, train, station, reason):
        bundle = workspace / "bundle.json"
        assert main([
            "train", "--store", str(workspace / "store.json"),
            "--out", str(bundle), "--strategy", "diagonal",
        ]) == 0
        assert main([
            "forecast", "--bundle", str(bundle), "--train", train, "--station", station,
            "--delay", "0", "--store", str(workspace / "store.json"),
        ]) == 4
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["1", "2"])
    def test_forecast_target_not_after_station(self, workspace, capsys, target):
        bundle = workspace / "bundle.json"
        assert main([
            "train", "--store", str(workspace / "store.json"),
            "--out", str(bundle), "--strategy", "diagonal",
        ]) == 0
        assert main([
            "forecast", "--bundle", str(bundle), "--train", "T001",
            "--station", "2", "--delay", "0", "--target", target,
        ]) == 4
        assert f"target station {target} is not after current station 2" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["1", "2"])
    def test_evaluate_target_not_after_station(self, workspace, capsys, target):
        store, bundle = workspace / "store.json", workspace / "bundle.json"
        assert main([
            "train", "--store", str(store), "--out", str(bundle), "--strategy", "diagonal",
        ]) == 0
        for method in (
            ["--bundle", str(bundle)],
            ["--baseline", "naive"],
            ["--baseline", "marginal", "--train-store", str(store)],
        ):
            assert main([
                "evaluate", "--store", str(store), *method, "--from-station", "2",
                "--target", target, "--out", str(workspace / "scores.json"),
            ]) == 4
            err = capsys.readouterr().err
            assert f"target station {target} is not after current station 2" in err

    @pytest.mark.parametrize("values, reason", [
        ({"not_a_key": 1}, "unknown keys ['not_a_key']"),
        ({"epsilon": 0.1}, "unknown keys ['epsilon']"),
        ({"n_max": "5"}, "n_max must be a positive integer, got '5'"),
        ({"trend_metric": "bogus"}, "unknown trend_metric 'bogus'"),
        ({"alpha1": "0.05"}, "alpha1 must be a number in (0, 1), got '0.05'"),
        ({"alpha2": True}, "alpha2 must be a number in (0, 1), got True"),
        ({"alpha1": 0}, "alpha1 must be a number in (0, 1), got 0"),
        ({"alpha2": 1.5}, "alpha2 must be a number in (0, 1), got 1.5"),
        ({"horizon_minutes": "20"}, "horizon_minutes must be a number in (0, inf), got '20'"),
        ({"horizon_minutes": 0}, "horizon_minutes must be a number in (0, inf), got 0"),
        ({"clip_mode": "bogus"}, "unknown clip_mode 'bogus'; choose from saturate, drop"),
        ({"regression_std": "bogus"}, "unknown regression_std 'bogus'; choose from printed, sqrt"),
        ({"statistic": "Q"}, "unknown keys ['statistic']"),
        ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
        ([1], "not a JSON object"),
    ], ids=["unknown_key", "epsilon", "string_n_max", "unknown_choice", "string_alpha",
            "bool_alpha", "zero_alpha", "alpha_above_1", "string_horizon", "zero_horizon",
            "unknown_clip_mode", "unknown_regression_std", "statistic", "float_seed",
            "not_an_object"])
    def test_bad_config_exits_2(self, workspace, capsys, values, reason):
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert main([
            "test", "--store", str(workspace / "store.json"),
            "--out", str(workspace / "y.json"), "--config", str(cfg),
        ]) == 2
        assert f"error: config {cfg}: {reason}" in capsys.readouterr().err
        assert not (workspace / "y.json").exists()

    @pytest.mark.parametrize("level", [1e-17, 1e-300, 5e-324])
    @pytest.mark.parametrize("source", ["--alpha1", "--alpha2", "--config"])
    def test_level_too_small_for_1_minus_level_exits_2(self, workspace, capsys, source, level):
        # 1.0 - level rounds to 1.0: the quantile at p = 1 does not exist
        name = "alpha1" if source == "--config" else source[2:]
        if source == "--config":
            cfg = workspace / "cfg.json"
            cfg.write_text(json.dumps({name: level}))
            flags = ["--config", str(cfg)]
        else:
            flags = [source, repr(level)]
        assert main([
            "test", "--store", str(workspace / "store.json"),
            "--out", str(workspace / "y.json"), *flags,
        ]) == 2
        assert f"{name} {level!r} is too small: 1 - {name} rounds to 1" in capsys.readouterr().err
        assert not (workspace / "y.json").exists()

    @pytest.mark.parametrize("row, reason", [
        ("T001,S01,D,2017-11-07T12:00:00", "expected 5 fields, got 4"),
        ("T001,S01,D,2017-11-07T12:00:00,first", "invalid literal for int()"),
        ("T001,S01,X,2017-11-07T12:00:00,1", "unknown activity 'X'"),
        ("T001,S01,V,2017-09-04T08:07:00,2",
         "train T001 visits S01/V twice; loop lines are not supported"),
        ("T001,S02,V,2017-09-04T08:07:00+01:00,2",
         "train T001 mixes planned times with and without a UTC offset"),
    ], ids=["field_count", "sequence", "activity", "loop_line", "mixed_offsets"])
    def test_malformed_timetable_row_exits_2(self, workspace, capsys, row, reason):
        tt = workspace / "timetable.csv"
        lines = tt.read_text().splitlines()
        lines[2] = row
        tt.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([
            "ingest", "--timetable", str(tt), "--realization", str(workspace / "realization.csv"),
            "--out", str(workspace / "new_store.json"),
        ]) == 2
        assert f"error: timetable {tt} line 3: {reason}" in capsys.readouterr().err
        assert not (workspace / "new_store.json").exists()

    def test_bad_realization_header_exits_2(self, workspace, capsys):
        rz = workspace / "realization.csv"
        lines = rz.read_text().splitlines()
        lines[0] = "train,date,station,activity,planned,realized"
        rz.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([
            "ingest", "--timetable", str(workspace / "timetable.csv"), "--realization", str(rz),
            "--out", str(workspace / "new_store.json"),
        ]) == 2
        assert f"error: realization {rz} line 1: unexpected header" in capsys.readouterr().err
        assert not (workspace / "new_store.json").exists()

    def test_empty_realization_exits_2(self, workspace, capsys):
        rz = workspace / "realization.csv"
        rz.write_text("")
        assert main([
            "ingest", "--timetable", str(workspace / "timetable.csv"), "--realization", str(rz),
            "--out", str(workspace / "new_store.json"),
        ]) == 2
        assert capsys.readouterr().err == f"error: realization {rz} line 1: no header row\n"
        assert not (workspace / "new_store.json").exists()

    @pytest.mark.parametrize("fault", ["non_utf8", "oversize_field"])
    @pytest.mark.parametrize("name", ["timetable", "realization"])
    def test_unreadable_input_exits_2(self, workspace, capsys, name, fault):
        path = workspace / f"{name}.csv"
        n_lines = len(path.read_bytes().splitlines())
        with open(path, "ab") as fh:  # one more row, after every good one
            fh.write(b"T001,\xff\n" if fault == "non_utf8" else b"x" * 131073 + b",y\n")
        capsys.readouterr()
        assert main([
            "ingest", "--timetable", str(workspace / "timetable.csv"),
            "--realization", str(workspace / "realization.csv"),
            "--out", str(workspace / "new_store.json"),
        ]) == 2
        expect = (f"error: {name} {path}: not UTF-8 text (byte 0xff: invalid start byte)"
                  if fault == "non_utf8" else
                  f"error: {name} {path} line {n_lines + 1}: field larger than field limit (131072)")
        assert expect in capsys.readouterr().err
        assert not (workspace / "new_store.json").exists()

    @pytest.mark.parametrize("command, flags, reason", [
        ("forecast", ["--bundle", "bundle.json", "--train", "T001", "--station", "1", "--delay", "0"],
         "forecast needs --target or --store to resolve the target station"),
        ("evaluate", ["--store", "store.json", "--baseline", "marginal"],
         "--baseline marginal needs --train-store"),
        ("forecast", ["--bundle", "bundle.json", "--train", "T001", "--station", "1", "--delay", "0",
                      "--target", "3", "--store", "missing.json"],
         "forecast takes --target or --store, not both: --target leaves --store unread"),
        ("evaluate", ["--store", "store.json", "--bundle", "bundle.json", "--train-store", "missing.json"],
         "--train-store is read only by --baseline marginal"),
        ("evaluate", ["--store", "store.json", "--baseline", "naive", "--train-store", "store.json"],
         "--train-store is read only by --baseline marginal"),
        ("train", ["--store", "store.json", "--print-matrix", "T001"],
         "--print-matrix wants TRAIN:T with a station number T >= 2, got 'T001'"),
        ("train", ["--store", "store.json", "--print-matrix", "T001:x"],
         "--print-matrix wants TRAIN:T with a station number T >= 2, got 'T001:x'"),
        ("train", ["--store", "store.json", "--print-matrix", "T001:1"],
         "--print-matrix wants TRAIN:T with a station number T >= 2, got 'T001:1'"),
        ("train", ["--store", "store.json", "--print-matrix", "T001:0"],
         "--print-matrix wants TRAIN:T with a station number T >= 2, got 'T001:0'"),
    ], ids=["forecast_no_target", "marginal_no_train_store", "forecast_target_and_store",
            "bundle_with_train_store", "naive_with_train_store", "print_matrix_no_station",
            "print_matrix_bad_station", "print_matrix_station_1", "print_matrix_station_0"])
    def test_flag_usage_error_exits_2(self, workspace, capsys, command, flags, reason):
        assert main(["train", "--store", str(workspace / "store.json"),
                     "--out", str(workspace / "bundle.json"), "--strategy", "diagonal"]) == 0
        capsys.readouterr()
        out = workspace / "out.json"
        paths = [str(workspace / f) if f.endswith(".json") else f for f in flags]
        assert main([command, *paths, "--out", str(out)]) == 2
        assert f"error: {reason}" in capsys.readouterr().err
        assert not out.exists() and not (workspace / "out.json.csv").exists()

    @pytest.mark.parametrize("fault", ["truncated", "non_utf8"])
    @pytest.mark.parametrize("source", ["store", "bundle", "train_store", "config"])
    def test_unreadable_json_exits_2(self, workspace, capsys, source, fault):
        store, bundle, out = workspace / "store.json", workspace / "bundle.json", workspace / "out.json"
        assert main(["train", "--store", str(store), "--out", str(bundle), "--strategy", "diagonal"]) == 0
        bad = workspace / "bad.json"
        raw = {"store": store, "bundle": bundle, "train_store": store}.get(source)
        raw = raw.read_bytes() if raw else b'{"n_max": 15, "strategy": "diagonal"}'
        bad.write_bytes(raw[:24] if fault == "truncated" else raw[:24] + b"\xff" + raw[24:])
        argv = {
            "store": ["test", "--store", str(bad)],
            "bundle": ["forecast", "--bundle", str(bad), "--train", "T001", "--station", "1",
                       "--delay", "0", "--target", "3"],
            "train_store": ["evaluate", "--store", str(store), "--baseline", "marginal",
                            "--train-store", str(bad)],
            "config": ["train", "--store", str(store), "--config", str(bad)],
        }[source]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {'config ' if source == 'config' else ''}{bad} is not JSON: " in err
        assert ("can't decode byte 0xff" in err) == (fault == "non_utf8")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, reason", [
        ("--series", "0", "--series must be a positive integer, got 0"),
        ("--trains", "0", "--trains must be a positive integer, got 0"),
        ("--length", "0", "--length must be a positive integer, got 0"),
        ("--dispersion", "0", "--dispersion must be a positive number, got 0.0"),
        ("--dispersion", "nan", "--dispersion must be a positive number, got nan"),
        ("--seed", "-1", "seed must be a non-negative integer, got -1"),
    ], ids=["series", "trains", "length", "dispersion", "nan_dispersion", "negative_seed"])
    def test_synth_flag_out_of_range_exits_2(self, tmp_path, capsys, flag, value, reason):
        tt, rz = tmp_path / "tt.csv", tmp_path / "rz.csv"
        assert main(["synth", flag, value, "--out-timetable", str(tt), "--out-realization", str(rz)]) == 2
        assert f"error: {reason}" in capsys.readouterr().err
        assert not tt.exists() and not rz.exists()

    def test_realization_row_mixing_offsets_is_rejected(self, workspace, capsys):
        # one timestamp with a UTC offset and one without cannot be subtracted
        rz = workspace / "realization.csv"
        lines = rz.read_text().splitlines()
        lines[2] = lines[2].replace(",V,", ",Q,")
        lines[3] += "+01:00"
        rz.write_text("\n".join(lines) + "\n")
        rejects = workspace / "new_rejects.csv"
        assert main([
            "ingest", "--timetable", str(workspace / "timetable.csv"), "--realization", str(rz),
            "--out", str(workspace / "new_store.json"), "--rejects", str(rejects),
        ]) == 0
        with open(rejects, newline="") as fh:
            assert list(csv.reader(fh)) == [
                ["row", "reason"], [lines[2], "unknown activity"], [lines[3], "timezone mismatch"],
            ]

    def test_ingest_summary_counts_each_reason(self, workspace, capsys):
        rz = workspace / "realization.csv"
        lines = rz.read_text().splitlines()  # five stations per date, one date per series
        lines[1] = lines[1].rsplit(",", 1)[0]  # the first date loses its first station
        lines[7] = lines[7].replace(",V,", ",Q,")
        lines[12] = "X" + lines[12]
        lines[17] += "Z"
        lines.append(lines[20])
        rz.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([
            "ingest", "--timetable", str(workspace / "timetable.csv"), "--realization", str(rz),
            "--out", str(workspace / "new_store.json"),
        ]) == 0
        assert capsys.readouterr().out == (
            "store: 1 train(s), 79 series, 6 rejected row(s) (wrong field count: 1, "
            "unknown activity: 1, timezone mismatch: 1, train not in timetable: 1, "
            "duplicate event: 1, no usable stations: 1)\n"
        )

    def test_station_before_first_exits_4(self, workspace, capsys):
        # station 0 has no delay column; it must not read another station's
        assert main([
            "evaluate", "--store", str(workspace / "store.json"), "--baseline", "naive",
            "--from-station", "0", "--target", "3", "--out", str(workspace / "scores.json"),
        ]) == 4
        assert "current station 0 is before station 1" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["bundle", "naive"])
    def test_station_before_first_without_target_exits_4(self, workspace, capsys, method):
        # the horizon path must refuse station 0 too, not skip every train as uncovered
        bundle = workspace / "bundle.json"
        if method == "bundle":
            assert main([
                "train", "--store", str(workspace / "store.json"),
                "--out", str(bundle), "--strategy", "diagonal",
            ]) == 0
        flags = ["--bundle", str(bundle)] if method == "bundle" else ["--baseline", "naive"]
        capsys.readouterr()
        assert main([
            "evaluate", "--store", str(workspace / "store.json"), *flags,
            "--from-station", "0", "--out", str(workspace / "scores.json"),
        ]) == 4
        assert "current station 0 is before station 1" in capsys.readouterr().err
        assert not (workspace / "scores.json").exists()


@pytest.fixture
def wide_store(tmp_path):
    """A `synth --series 50 --length 4 --seed 2` corpus ingested at the default n_max 15."""
    tt, rz, store = tmp_path / "tt.csv", tmp_path / "rz.csv", tmp_path / "store.json"
    assert main([
        "synth", "--series", "50", "--length", "4", "--seed", "2",
        "--out-timetable", str(tt), "--out-realization", str(rz),
    ]) == 0
    assert main(["ingest", "--timetable", str(tt), "--realization", str(rz), "--out", str(store)]) == 0
    return tmp_path


class TestStateSpaceGaps:
    @pytest.mark.parametrize("strategy", ["diagonal", "gaussian_kernel"])
    def test_train_narrower_than_store(self, wide_store, capsys, strategy):
        bundle = wide_store / "bundle.json"
        assert main([
            "train", "--store", str(wide_store / "store.json"), "--out", str(bundle),
            "--n-max", "5", "--strategy", strategy,
        ]) == 4
        err = capsys.readouterr().err
        assert "store n_max 15" in err and "training n_max 5" in err
        assert not bundle.exists()

    def test_evaluate_with_narrower_bundle(self, wide_store, capsys):
        narrow, bundle, out = (wide_store / n for n in ("narrow.json", "bundle.json", "s.json"))
        assert main([
            "ingest", "--timetable", str(wide_store / "tt.csv"),
            "--realization", str(wide_store / "rz.csv"), "--out", str(narrow), "--n-max", "5",
        ]) == 0
        assert main([
            "train", "--store", str(narrow), "--out", str(bundle),
            "--n-max", "5", "--strategy", "diagonal",
        ]) == 0
        capsys.readouterr()
        assert main([
            "evaluate", "--store", str(wide_store / "store.json"), "--bundle", str(bundle),
            "--target", "3", "--out", str(out),
        ]) == 4
        err = capsys.readouterr().err
        assert "evaluation store n_max 15" in err and "bundle n_max 5" in err
        assert not out.exists()
        # the marginal baseline draws counts from the training store on the evaluation grid
        assert main([
            "evaluate", "--store", str(narrow), "--baseline", "marginal",
            "--train-store", str(wide_store / "store.json"), "--target", "3", "--out", str(out),
        ]) == 4
        err = capsys.readouterr().err
        assert "training store n_max 15" in err and "evaluation store n_max 5" in err

    def test_forecast_delay_outside_bundle(self, workspace, capsys):
        bundle = workspace / "bundle.json"
        assert main([
            "train", "--store", str(workspace / "store.json"),
            "--out", str(bundle), "--strategy", "diagonal",
        ]) == 0
        assert main([
            "forecast", "--bundle", str(bundle), "--train", "T001",
            "--station", "1", "--delay", "40", "--target", "3",
        ]) == 4
        assert "delay 40 outside the bundle's state space [-15, 15]" in capsys.readouterr().err


# each matrix corruptor faults train T001's matrix at station `t` and returns t
def _corrupt_shape(bundle, t="2"):
    bundle["trains"]["T001"]["matrices"][t] = [[1.0]]
    return t


def _corrupt_nan(bundle, t="2"):
    bundle["trains"]["T001"]["matrices"][t][0][0] = float("nan")
    return t


def _corrupt_negative(bundle, t="2"):
    row = bundle["trains"]["T001"]["matrices"][t][0]
    row[:] = [-0.5, 1.5] + [0.0] * (len(row) - 2)  # still sums to one
    return t


def _corrupt_row_sum(bundle, t="2"):
    bundle["trains"]["T001"]["matrices"][t][3][3] += 0.5
    return t


def _corrupt_row_entries(value, other):
    def corrupt(bundle, t="2"):
        row = bundle["trains"]["T001"]["matrices"][t][0]
        row[:] = [value] + [other] * (len(row) - 1)  # still reads as a one-hot row
        return t
    return corrupt


def _corrupt_meta(bundle):
    del bundle["meta"]["n_max"]


def _bundle_n_max(value):
    def corrupt(bundle):
        bundle["meta"]["n_max"] = value
    return corrupt


def _corrupt_no_trains(bundle):
    del bundle["trains"]


def _corrupt_no_matrices(bundle):
    del bundle["trains"]["T001"]["matrices"]


def _corrupt_no_strategy(bundle):
    del bundle["meta"]["strategy"]


def _bundle_strategy(value):
    def corrupt(bundle):
        bundle["meta"]["strategy"] = value
    return corrupt


def _bundle_station_key(key):
    def corrupt(bundle):  # a valid matrix under a key no station is looked up by
        matrices = bundle["trains"]["T001"]["matrices"]
        matrices[key] = matrices["2"]
    return corrupt


def _store_delay(value):
    def corrupt(store):
        series = store["trains"]["T001"]["series"][3]
        series["delays"][2] = value
        return f"store train T001 date {series['date']}: delay {value!r} is not an integer in [-15, 15]"
    return corrupt


def _store_date(value):
    def corrupt(store):
        store["trains"]["T001"]["series"][3]["date"] = value
        return f"store train T001: date {value!r} is not a string"
    return corrupt


def _store_int_station_code(store):
    store["trains"]["T001"]["stations"][1][0] = 7
    return "store train T001: station code 7 is not a string"


def _store_stations(value):
    def corrupt(store):
        store["trains"]["T001"]["stations"] = value
        return "store train T001: malformed template (stations is not a list of [code, activity] lists)"
    return corrupt


def _store_loop_line(store):
    store["trains"]["T001"]["stations"][1] = ["S01", "V"]
    return "store train T001 visits S01/V twice; loop lines are not supported"


def _store_long_series(store):
    series = store["trains"]["T001"]["series"][3]
    series["delays"] = [0] * 9
    return f"store train T001 date {series['date']}: 9 delays for 5 stations"


def _store_no_n_max(store):
    del store["n_max"]
    return "store has no valid n_max (got None)"


def _store_trains_list(store):
    store["trains"] = list(store["trains"])
    return "store has no trains object"


def _store_planned_not_iso(store):
    store["trains"]["T001"]["planned"][2] = "noon"
    return "store train T001: malformed template (Invalid isoformat string: 'noon')"


def _store_planned_object(store):
    entry = store["trains"]["T001"]
    entry["planned"] = {p: i for i, p in enumerate(entry["planned"])}
    return "store train T001: malformed template (planned is not a list)"


def _store_planned_short(store):
    store["trains"]["T001"]["planned"].pop()
    return "store train T001: malformed template (keys and planned times length mismatch)"


def _store_no_delays(store):
    del store["trains"]["T001"]["series"][3]["delays"]
    return "store train T001: malformed series (KeyError('delays'))"


def _store_n_max(value):
    def corrupt(store):
        store["n_max"] = value
        return f"store has no valid n_max (got {value!r}); it must be an integer in [1, 240]"
    return corrupt


@pytest.mark.parametrize("argv", [
    ["test", "--store", "bad"],
    ["train", "--store", "bad", "--strategy", "diagonal"],
    ["forecast", "--bundle", "bundle", "--train", "T001", "--station", "1", "--delay", "0",
     "--store", "bad"],
    ["evaluate", "--store", "bad", "--baseline", "naive"],
    ["evaluate", "--store", "good", "--baseline", "marginal", "--train-store", "bad"],
], ids=["test", "train", "forecast", "evaluate", "evaluate_train_store"])
@pytest.mark.parametrize("corrupt", [
    _store_delay("x"), _store_delay(1.7), _store_delay(True), _store_delay(40),
    _store_delay(10**20), _store_delay(-2**63),
    _store_long_series, _store_no_n_max, _store_trains_list, _store_planned_not_iso,
    _store_no_delays, _store_n_max(241), _store_date(float("nan")), _store_date(10**20),
    _store_int_station_code, _store_stations(["AV", "BV", "CV", "DV", "EV"]),
    _store_stations({"AV": 0, "BV": 1, "CV": 2, "DV": 3, "EV": 4}), _store_loop_line,
    _store_planned_object, _store_planned_short,
], ids=["string_delay", "float_delay", "bool_delay", "delay_outside_n_max",
        "delay_beyond_int64", "delay_int64_min",
        "series_longer_than_stations", "no_n_max", "trains_not_object", "planned_not_iso",
        "series_without_delays", "n_max_above_limit", "nan_date", "int_date",
        "int_station_code", "stations_of_strings", "stations_object", "loop_line",
        "planned_object", "planned_short"])
def test_malformed_store_exits_2(workspace, capsys, argv, corrupt):
    good, bad, out = workspace / "store.json", workspace / "bad.json", workspace / "out.json"
    bundle = workspace / "bundle.json"
    if "bundle" in argv:
        assert main(["train", "--store", str(good), "--out", str(bundle), "--strategy", "diagonal"]) == 0
    payload = load_json(good)
    reason = corrupt(payload)
    save_json(payload, bad)
    capsys.readouterr()
    paths = {"bad": str(bad), "good": str(good), "bundle": str(bundle)}
    assert main([paths.get(a, a) for a in argv] + ["--out", str(out)]) == 2
    assert f"error: {bad}: {reason}" in capsys.readouterr().err
    assert not out.exists()


class TestStoreParsedOnce:
    def test_lookups_return_the_parsed_objects(self, workspace):
        # a train's series are read-only views into the store's arrays: no copy, no re-parse
        store = load_store(workspace / "store.json")
        delays, lengths, dates = store_series(store, "T001")
        assert delays.base is store.delays and lengths.base is store.lengths
        assert not (delays.flags.writeable or lengths.flags.writeable)
        assert dates == store.dates[:len(lengths)]
        assert store_template(store, "T001") is store_template(store, "T001") is store.templates[0]
        for lookup in (store_series, store_template):
            with pytest.raises(CoverageError, match="^store has no train T999$"):
                lookup(store, "T999")

    @pytest.mark.parametrize("argv, loads", [
        (["test", "--store", "store"], 1),
        (["evaluate", "--store", "store", "--bundle", "bundle"], 1),
        # one file named by both --store and --train-store is parsed once; a copy of it twice
        (["evaluate", "--store", "store", "--baseline", "marginal", "--train-store", "store"], 1),
        (["evaluate", "--store", "store", "--baseline", "marginal", "--train-store", "copy"], 2),
    ], ids=["test", "evaluate_bundle", "evaluate_marginal", "evaluate_marginal_copy"])
    def test_each_loaded_train_is_parsed_once(self, tmp_path, monkeypatch, argv, loads):
        # two trains, and no --target: evaluate resolves each train's target from its template
        tt, rz, store, bundle = (tmp_path / n for n in ("tt.csv", "rz.csv", "store.json", "bundle.json"))
        assert main(["synth", "--series", "30", "--trains", "2", "--length", "5",
                     "--out-timetable", str(tt), "--out-realization", str(rz)]) == 0
        assert main(["ingest", "--timetable", str(tt), "--realization", str(rz), "--out", str(store)]) == 0
        assert main(["train", "--store", str(store), "--out", str(bundle), "--strategy", "diagonal"]) == 0
        parsed, planned = [], []
        parse_train = pipeline._parse_train

        class CountingDatetime(dt.datetime):
            @classmethod
            def fromisoformat(cls, text):
                planned.append(text)
                return dt.datetime.fromisoformat(text)

        monkeypatch.setattr(pipeline, "_parse_train",
                            lambda tid, *args: parsed.append(tid) or parse_train(tid, *args))
        monkeypatch.setattr(pipeline, "dt", types.SimpleNamespace(
            datetime=CountingDatetime, timedelta=dt.timedelta))
        shutil.copyfile(store, tmp_path / "copy.json")
        paths = {"store": str(store), "bundle": str(bundle), "copy": str(tmp_path / "copy.json")}
        assert main([paths.get(a, a) for a in argv] + ["--out", str(tmp_path / "out.json")]) == 0
        assert sorted(parsed) == sorted(["T001", "T002"] * loads)
        assert len(planned) == 2 * 5 * loads

    def test_one_store_named_twice_scores_as_a_copy_of_it(self, workspace):
        # --train-store naming the --store file (or a link to it) reuses the parsed store
        store = workspace / "store.json"
        shutil.copyfile(store, workspace / "copy.json")
        (workspace / "link.json").symlink_to(store)
        for name in ("store", "link", "copy"):
            assert main(["evaluate", "--store", str(store), "--baseline", "marginal",
                         "--train-store", str(workspace / f"{name}.json"),
                         "--out", str(workspace / f"scores_{name}.json")]) == 0
        for suffix in (".json", ".json.csv"):
            copy = (workspace / f"scores_copy{suffix}").read_bytes()
            assert (workspace / f"scores_store{suffix}").read_bytes() == copy
            assert (workspace / f"scores_link{suffix}").read_bytes() == copy


MATRIX_FAULTS = [
    (_corrupt_shape, "shape (1, 1), expected (31, 31)"),
    (_corrupt_nan, "NaN"),
    (_corrupt_negative, "negative"),
    (_corrupt_row_sum, "row 3 sums to"),
    (_corrupt_row_entries(True, False), "entry True is not a number"),
    (_corrupt_row_entries("1", "0"), "entry '1' is not a number"),
]


@pytest.mark.parametrize("corrupt, reason", [
    *MATRIX_FAULTS,
    (_corrupt_meta, "n_max"),
    (_bundle_n_max("15"), "no valid n_max (got '15')"),
    (_bundle_n_max(15.9), "no valid n_max (got 15.9)"),
    (_bundle_n_max(241), "no valid n_max (got 241); it must be an integer in [1, 240]"),
    (_corrupt_no_trains, "no trains table"),
    (_corrupt_no_matrices, "no matrices table"),
    (_corrupt_no_strategy, "no strategy"),
    pytest.param(_bundle_strategy("kde"), "unknown strategy 'kde'; choose from diagonal, uniform, "
                 "gaussian_regression, gaussian_kernel", id="strategy_unknown"),
    # valid JSON, but a lone surrogate that no UTF-8 writer of the score report can encode
    pytest.param(_bundle_strategy("\udc80x"), "unknown strategy '\\udc80x'", id="strategy_surrogate"),
    # station 5 lies past every chain that `--target 3` reads: the bundle is checked whole
    *(pytest.param(lambda bundle, c=corrupt: c(bundle, "5"), reason, id=f"station_5-{reason}")
      for corrupt, reason in MATRIX_FAULTS),
    *(pytest.param(_bundle_station_key(key), f"bundle train T001: matrix key {key!r} is not a "
                   "station t >= 2 written as str(t)", id=f"station_key_{key}")
      for key in ("x", "02", "1", "-4")),
])
def test_malformed_bundle_exits_2(workspace, capsys, corrupt, reason):
    # every fault names the file; a fault in a matrix also names its train and station
    bundle = workspace / "bundle.json"
    assert main([
        "train", "--store", str(workspace / "store.json"),
        "--out", str(bundle), "--strategy", "diagonal",
    ]) == 0
    payload = load_json(bundle)
    station = corrupt(payload)
    save_json(payload, bundle)
    capsys.readouterr()
    where = f"bundle matrix for train T001 station {station}: " if station else ""
    for argv in (
        ["forecast", "--bundle", str(bundle), "--train", "T001",
         "--station", "1", "--delay", "0", "--target", "3"],
        ["evaluate", "--store", str(workspace / "store.json"), "--bundle", str(bundle),
         "--target", "3", "--out", str(workspace / "scores.json")],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bundle}: {where}") and reason in err


def _identity(k=3):
    return np.eye(k).tolist()


# each fault of the matrix of train T3 at station 4, and the error it raises
FIRST_MATRIX_FAULTS = {
    "shape": ([[1.0]], "matrix shape (1, 1), expected (3, 3) for n_max 1"),
    "true": ([[True, False, False], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "entry True is not a number"),
    "string": ([["0.5", 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "entry '0.5' is not a number"),
    "nan": ([[float("nan"), 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            "matrix holds NaN or infinite entries"),
    "row_sum": ([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                "row 0 sums to 1.5, not 1"),
}


@pytest.mark.parametrize("fault", [*FIRST_MATRIX_FAULTS, "key_01"])
def test_the_first_bad_matrix_in_document_order_is_named(tmp_path, capsys, fault):
    # trains listed T2, T3, T1 and stations 2, 4, 3, as a file not written by
    # save_json may list them: the middle matrix of the second train is bad, and
    # so are two later ones that sorted order (T1 first, station 3 before 4) reads first
    trains = {tid: {"matrices": {t: _identity() for t in ("2", "4", "3")}} for tid in ("T2", "T3", "T1")}
    matrix, message = FIRST_MATRIX_FAULTS.get(fault, FIRST_MATRIX_FAULTS["nan"])
    trains["T3"]["matrices"]["4"] = matrix
    trains["T3"]["matrices"]["3"] = [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    trains["T1"]["matrices"]["2"] = [[0.5, 0.5, 0.0]]
    where = "bundle matrix for train T3 station 4: "
    if fault == "key_01":  # a key of the envelope is checked before any matrix is read
        trains["T1"]["matrices"]["01"] = _identity()
        where, message = "", "bundle train T1: matrix key '01' is not a station t >= 2 written as str(t)"
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps({"meta": {"n_max": 1, "strategy": "diagonal"}, "trains": trains}))
    assert main(["forecast", "--bundle", str(bundle), "--train", "T2", "--station", "1",
                 "--delay", "0", "--target", "2"]) == 2
    assert capsys.readouterr().err == f"error: {bundle}: {where}{message}\n"


def test_a_bundle_entry_beyond_float_range_exits_2(tmp_path, capsys):
    # an integer literal no float can hold is a malformed entry, not an internal error
    bundle = tmp_path / "bundle.json"
    trains = {"T1": {"matrices": {"2": _identity(), "3": _identity()}}}
    text = json.dumps({"meta": {"n_max": 1, "strategy": "diagonal"}, "trains": trains})
    bundle.write_text(text.replace('"3": [[1.0', '"3": [[1' + "0" * 400, 1))
    assert main(["forecast", "--bundle", str(bundle), "--train", "T1", "--station", "1",
                 "--delay", "0", "--target", "2"]) == 2
    assert capsys.readouterr().err == (f"error: {bundle}: bundle matrix for train T1 station 3: "
                                       "int too large to convert to float\n")


# json's reader raises RecursionError once the nesting passes the interpreter's recursion limit
DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("kind", ["store", "bundle", "config"])
def test_deeply_nested_json_exits_2(workspace, capsys, kind):
    deep, store, out = workspace / "deep.json", workspace / "store.json", workspace / "out.json"
    bundle = workspace / "bundle.json"
    assert main(["train", "--store", str(store), "--out", str(bundle), "--strategy", "diagonal"]) == 0
    deep.write_text(DEEP_JSON)
    forecast = ["forecast", "--train", "T001", "--station", "1", "--delay", "0", "--out", str(out)]
    read_by = {
        "store": [["test", "--store", str(deep), "--out", str(out)],
                  [*forecast, "--bundle", str(bundle), "--store", str(deep)]],
        "bundle": [[*forecast, "--bundle", str(deep), "--target", "3"],
                   ["evaluate", "--store", str(store), "--bundle", str(deep), "--out", str(out)]],
        "config": [["test", "--store", str(store), "--out", str(out), "--config", str(deep)],
                   [*forecast, "--bundle", str(bundle), "--target", "3", "--config", str(deep)]],
    }[kind]
    capsys.readouterr()
    for argv in read_by:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"{deep} nests its JSON arrays or objects too deeply to read" in err, err
        assert not out.exists()


class TestBundleParsedOnce:
    @pytest.mark.parametrize("argv", [
        ["forecast", "--bundle", "bundle", "--train", "T002", "--station", "1", "--delay", "2",
         "--store", "store"],
        ["evaluate", "--store", "store", "--bundle", "bundle"],
    ], ids=["forecast", "evaluate_horizon"])
    def test_each_matrix_is_checked_once_where_it_loads(self, tmp_path, monkeypatch, argv):
        # two trains and a KDE bundle, so the matrices hold full-precision floats
        tt, rz, store, bundle = (tmp_path / n for n in ("tt.csv", "rz.csv", "store.json", "bundle.json"))
        assert main(["synth", "--series", "30", "--trains", "2", "--length", "5",
                     "--out-timetable", str(tt), "--out-realization", str(rz)]) == 0
        assert main(["ingest", "--timetable", str(tt), "--realization", str(rz), "--out", str(store)]) == 0
        assert main(["train", "--store", str(store), "--out", str(bundle)]) == 0
        events, chains = [], []
        check, load, lookup = (pipeline.check_transition_matrix, pipeline.load_bundle,
                               pipeline.bundle_matrices)

        def marked_load(path):
            events.append("load")
            loaded = load(path)
            events.append("loaded")
            return loaded

        def recorded_lookup(*args):
            chains.append((*args[1:], lookup(*args)))
            return chains[-1][-1]

        monkeypatch.setattr(pipeline, "check_transition_matrix", lambda p, *args, **kwargs: events.append(
            ("check", p.shape, kwargs.get("stacked"))) or check(p, *args, **kwargs))
        monkeypatch.setattr(pipeline, "load_bundle", marked_load)
        monkeypatch.setattr(pipeline, "bundle_matrices", recorded_lookup)
        shutil.copyfile(store, tmp_path / "copy.json")
        paths = {"store": str(store), "bundle": str(bundle), "copy": str(tmp_path / "copy.json")}
        assert main([paths.get(a, a) for a in argv] + ["--out", str(tmp_path / "out.json")]) == 0
        document = load_json(bundle)
        n_matrices = sum(len(entry["matrices"]) for entry in document["trains"].values())
        assert len(document["trains"]) == 2 and n_matrices == 8
        # one check of each train's stack, where the bundle loads
        assert events == ["load"] + [("check", (n_matrices // 2, 31, 31), True)] * 2 + ["loaded"]
        assert {train for train, *_ in chains} == ({"T002"} if argv[0] == "forecast" else {"T001", "T002"})
        for train, s, t, chain in chains:
            want = np.array([document["trains"][train]["matrices"][str(u)] for u in range(s + 1, t + 1)],
                            dtype=np.float64)
            assert chain.dtype == np.float64 and chain.tobytes() == want.tobytes()
        save_json(load(bundle), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == bundle.read_bytes()


def test_bundle_with_jitter_meta_still_loads(workspace):
    # bundles written before the KDE became deterministic carry meta.epsilon and meta.seed
    bundle, old = workspace / "bundle.json", workspace / "old_bundle.json"
    assert main(["train", "--store", str(workspace / "store.json"), "--out", str(bundle)]) == 0
    payload = load_json(bundle)
    payload["meta"].update(epsilon=0.1, seed=0)
    save_json(payload, old)
    for b in (bundle, old):
        assert main([
            "forecast", "--bundle", str(b), "--train", "T001", "--station", "1",
            "--delay", "2", "--target", "4", "--out", str(b) + ".pred.json",
        ]) == 0
        assert main([
            "evaluate", "--store", str(workspace / "store.json"), "--bundle", str(b),
            "--target", "4", "--out", str(b) + ".scores.json",
        ]) == 0
    for suffix in (".pred.json", ".scores.json"):
        assert (workspace / f"bundle.json{suffix}").read_bytes() == (workspace / f"old_bundle.json{suffix}").read_bytes()

def test_train_with_an_empty_matrices_table_loads_and_covers_nothing(workspace, capsys):
    bundle = workspace / "bundle.json"
    assert main(["train", "--store", str(workspace / "store.json"), "--out", str(bundle),
                 "--strategy", "diagonal"]) == 0
    payload = load_json(bundle)
    payload["trains"]["T001"]["matrices"] = {}
    save_json(payload, bundle)
    capsys.readouterr()
    assert main(["forecast", "--bundle", str(bundle), "--train", "T001", "--station", "1",
                 "--delay", "0", "--target", "3"]) == 4
    assert "bundle misses station 2 for train T001" in capsys.readouterr().err


class TestTrainFallbacks:
    def test_regression_fallback_names_its_trains_and_stations(self, tmp_path, capsys):
        tt, rz, store = tmp_path / "tt.csv", tmp_path / "rz.csv", tmp_path / "store.json"
        assert main(["synth", "--series", "40", "--trains", "3", "--length", "6", "--dispersion",
                     "4", "--seed", "3", "--out-timetable", str(tt), "--out-realization", str(rz)]) == 0
        assert main(["ingest", "--timetable", str(tt), "--realization", str(rz), "--out", str(store),
                     "--n-max", "5", "--clip-mode", "drop"]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fallback is reported as data, never as a warning
            assert main(["train", "--store", str(store), "--out", str(tmp_path / "b.json"),
                         "--strategy", "gaussian_regression", "--n-max", "5"]) == 0
        assert capsys.readouterr().err == (
            "warning: 2 station(s) fell back to the diagonal fill (fewer than two observed rows, "
            "or no row supporting a spread): T003:4, T003:6\n")

    @pytest.mark.parametrize("strategy, reason", [
        ("gaussian_regression", "fell back to the diagonal fill"),
        ("gaussian_kernel", "took the identity covariance (a single observation)"),
        ("diagonal", None),
    ])
    def test_many_fallbacks_name_the_first_five(self, tmp_path, capsys, strategy, reason):
        # one series a train: each station sees a single observation
        train = {"stations": [[f"S{t}", "V"] for t in range(8)],
                 "planned": [f"2024-01-01T08:{t:02d}:00" for t in range(8)],
                 "series": [{"date": "2024-02-01", "delays": [0, 1, 1, 0, -1, 0, 1, 0]}]}
        store = tmp_path / "store.json"
        save_json({"n_max": 2, "trains": {"T1": train}}, store)
        assert main(["train", "--store", str(store), "--out", str(tmp_path / "b.json"),
                     "--strategy", strategy, "--n-max", "2"]) == 0
        err = capsys.readouterr().err
        if reason is None:
            assert err == ""
        else:
            assert err.startswith(f"warning: 7 station(s) {reason}")
            assert err.endswith(": T1:2, T1:3, T1:4, T1:5, T1:6 and 2 more\n")


# one `python -m railmc.cli` process per argv, in waves: a wave reads what the
# waves before it wrote, and its processes run at once; each argv's exit code
PROCESS_WAVES = [
    [(["synth", "--series", "20", "--length", "4", "--seed", "5",
       "--out-timetable", "tt.csv", "--out-realization", "rz.csv"], 0),
     (["train", "--store", "store.json"], 2)],  # a usage error: --out is required
    [(["ingest", "--timetable", "tt.csv", "--realization", "rz.csv", "--out", "store.json",
       "--rejects", "rejects.csv"], 0)],
    [(["test", "--store", "store.json", "--out", "order.json"], 0),
     (["train", "--store", "store.json", "--out", "bundle.json", "--print-matrix", "T001:2"], 0)],
    [(["evaluate", "--store", "store.json", "--bundle", "bundle.json", "--out", "scores.json"], 0),
     (["forecast", "--bundle", "bundle.json", "--train", "T001", "--station", "1", "--delay", "0",
       "--store", "store.json", "--out", "pred.json"], 0),
     (["forecast", "--bundle", "bundle.json", "--train", "T001", "--station", "0", "--delay", "0",
       "--target", "3"], 4)],  # a CoverageError: station 0 is before station 1
]


def _cli_env() -> dict:
    # stdout block-buffered, as it is by default, so only the final flush writes it out
    src = Path(railmc.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}


class TestProcesses:
    def test_processes_match_in_process_runs(self, tmp_path, monkeypatch, capsys):
        # the process entry flushes and ends with os._exit; main() returns the same code
        procs, local = tmp_path / "procs", tmp_path / "local"
        procs.mkdir()
        local.mkdir()
        monkeypatch.chdir(local)
        for wave in PROCESS_WAVES:
            running = [subprocess.Popen([sys.executable, "-m", "railmc.cli", *argv], cwd=procs,
                                        env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                        text=True)
                       for argv, _ in wave]
            for (argv, code), proc in zip(wave, running):
                out, err = proc.communicate(timeout=120)
                try:
                    local_code = main(argv)
                except SystemExit as exc:  # argparse's usage error
                    local_code = exc.code
                assert (proc.returncode, out, err) == (local_code, *capsys.readouterr()), argv
                assert proc.returncode == code, err
        files = sorted(p.name for p in procs.iterdir())
        assert files == sorted(p.name for p in local.iterdir())
        assert {"scores.json.csv", "pred.json", "rejects.csv"} <= set(files)
        for name in files:
            assert (procs / name).read_bytes() == (local / name).read_bytes(), name

    def test_unread_flag_gets_the_command_usage_in_a_process(self, tmp_path):
        # the process entry turns the command parser's usage error into exit 2
        proc = subprocess.run(
            [sys.executable, "-m", "railmc.cli", "evaluate", "--seed", "3", "--store", "x",
             "--baseline", "naive", "--out", "y"],
            cwd=tmp_path, env=_cli_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        _assert_command_usage_error(proc.stderr, "evaluate", "--seed 3")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_stdout_on_a_full_device_exits_2(self, tmp_path):
        # the summary line fails at the final flush
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "railmc.cli", "synth", "--series", "2", "--length", "3",
                 "--out-timetable", "tt.csv", "--out-realization", "rz.csv"],
                cwd=tmp_path, env=_cli_env(), stdout=full,
                stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert (tmp_path / "rz.csv").stat().st_size > 0

    @pytest.mark.skipif(resource is None, reason="no resource module on this system")
    @pytest.mark.parametrize("argv, target", [
        (["train", "--store", "store.json", "--out", "bundle.json"], "bundle.json"),
        (["ingest", "--timetable", "timetable.csv", "--realization", "realization.csv",
          "--out", "/dev/null", "--rejects", "rejects.csv"], "rejects.csv"),
        (["evaluate", "--store", "store.json", "--baseline", "naive", "--out", "null.json"],
         "null.json.csv"),
        (["synth", "--series", "5", "--out-timetable", "timetable.csv",
          "--out-realization", "realization.csv"], "timetable.csv"),
        (["synth", "--series", "5", "--out-timetable", "/dev/null",
          "--out-realization", "realization.csv"], "realization.csv"),
    ], ids=["save_json", "write_rejects", "scores_csv", "synth_timetable", "synth_realization"])
    def test_failed_write_keeps_the_previous_file(self, workspace, argv, target):
        # a child under an 8-byte file-size limit, with SIGXFSZ ignored, gets EFBIG from the
        # writer of `target`; every other output goes to /dev/null, a device with no size
        # limit, directly or through the symlink null.json, and is written in place
        def limit_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (8, 8))

        (workspace / "null.json").symlink_to("/dev/null")
        previous = f"the previous {target}\n".encode()
        (workspace / target).write_bytes(previous)
        listed = sorted(p.name for p in workspace.iterdir())
        proc = subprocess.run(
            [sys.executable, "-m", "railmc.cli", *argv], cwd=workspace,
            env={**_cli_env(), "PYTHONDONTWRITEBYTECODE": "1"}, preexec_fn=limit_file_size,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: [Errno 27] File too large"), proc.stderr
        assert (workspace / target).read_bytes() == previous
        assert sorted(p.name for p in workspace.iterdir()) == listed

    @pytest.mark.skipif(resource is None, reason="no resource module on this system")
    def test_out_of_memory_exits_5(self, tmp_path):
        # 10^8 series of 20 delays need 14.9 GiB; the address-space limit binds the child alone
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "railmc.cli", "synth", "--series", "100000000", "--length", "20",
             "--out-timetable", "tt.csv", "--out-realization", "rz.csv"],
            cwd=tmp_path, env=_cli_env(), preexec_fn=limit_address_space,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr.startswith("error: synth ran out of memory: "), proc.stderr
        assert "internal error" not in proc.stderr


# the required flags of each subcommand; no file is read
SUBCOMMAND_ARGV = {
    "synth": ["--out-timetable", "tt.csv", "--out-realization", "rz.csv"],
    "ingest": ["--timetable", "tt.csv", "--realization", "rz.csv", "--out", "store.json"],
    "test": ["--store", "store.json", "--out", "order.json"],
    "train": ["--store", "store.json", "--out", "bundle.json"],
    "forecast": ["--bundle", "bundle.json", "--train", "T001", "--station", "1", "--delay", "0"],
    "evaluate": ["--store", "store.json", "--baseline", "naive", "--out", "scores.json"],
}

# the config flags of each subcommand: one per RunConfig field that the command reads
CONFIG_OPTIONS = {
    "synth": {"--n-max", "--seed"},
    "ingest": {"--n-max", "--clip-mode"},
    "test": {"--alpha1", "--alpha2"},
    "train": {"--n-max", "--strategy", "--regression-std"},
    "forecast": {"--horizon", "--trend-metric", "--jump-metric", "--minutes-metric"},
    "evaluate": {"--horizon", "--trend-metric", "--jump-metric", "--minutes-metric", "--rwmse-form"},
}
# each subcommand's own flags; train's --seed is hidden, and read by no run
OWN_OPTIONS = {
    "synth": {"--series", "--trains", "--length", "--dispersion", "--out-timetable", "--out-realization"},
    "ingest": {"--timetable", "--realization", "--out", "--rejects"},
    "test": {"--store", "--out"},
    "train": {"--store", "--out", "--print-matrix", "--seed"},
    "forecast": {"--bundle", "--train", "--date", "--station", "--delay", "--target", "--store", "--out"},
    "evaluate": {"--store", "--bundle", "--baseline", "--train-store", "--from-station", "--target",
                 "--out"},
}


def _subparsers(parser) -> dict:
    (action,) = (a for a in parser._actions if a.choices and a.dest == "command")
    return action.choices



def _assert_command_usage_error(err: str, command: str, extra: str) -> None:
    """The invoked command's parser reports an unread flag, under its own usage line."""
    assert err.startswith(f"usage: railmc {command} [-h]"), err
    assert err.endswith(f"railmc {command}: error: unrecognized arguments: {extra}\n"), err
    assert "{synth,ingest,test,train,forecast,evaluate}" not in err


class TestConfig:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 10, "alpha1": 0.2}))
        loaded = RunConfig.load(cfg, n_max=12)
        assert loaded.n_max == 12
        assert loaded.alpha1 == 0.2
        assert loaded.strategy == "gaussian_kernel"

    def test_defaults(self):
        c = RunConfig()
        assert (c.n_max, c.alpha1, c.alpha2) == (15, 0.05, 0.05)
        assert (c.trend_metric, c.jump_metric, c.minutes_metric) == (
            "median", "probability", "mean",
        )

    @pytest.mark.parametrize("name", [
        # every str field is a choice; a free-form one would be left out here
        f.name for f in dataclasses.fields(RunConfig) if f.type in ("str", str)
    ])
    def test_every_choice_field_rejects_unknown_value(self, name):
        with pytest.raises(InputError, match=f"unknown {name} 'bogus'"):
            RunConfig(**{name: "bogus"})

    @pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
    @pytest.mark.parametrize("command", list(SUBCOMMAND_ARGV))
    def test_each_flag_sets_its_field(self, tmp_path, monkeypatch, capsys, command, field):
        # a command that reads the field takes its flag; to any other command the flag is
        # a usage error that names it, raised before any file is read or written
        choices = field.metadata["choices"]
        value = next(c for c in choices if c != field.default) if choices else (
            field.default + 1 if isinstance(field.default, int) else field.default / 2)
        flag = field.metadata["flag"] or "--" + field.name.replace("_", "-")
        argv = [command, *SUBCOMMAND_ARGV[command], flag, str(value)]
        if flag in CONFIG_OPTIONS[command] | OWN_OPTIONS[command]:  # train's hidden --seed too
            args = build_parser(command).parse_args(argv)
            assert getattr(cli._config_from(args), field.name) == value != field.default
            return
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {flag} {value}" in err
        _assert_command_usage_error(err, command, f"{flag} {value}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", list(SUBCOMMAND_ARGV))
    def test_each_command_parser_has_its_own_options(self, command):
        parsers = _subparsers(build_parser(command))
        assert list(parsers) == list(SUBCOMMAND_ARGV)
        assert set(parsers[command]._option_string_actions) == (
            {"-h", "--help", "--config"} | OWN_OPTIONS[command] | CONFIG_OPTIONS[command])
        # the other subcommands are listed, with no flags built
        assert {name: set(p._option_string_actions) for name, p in parsers.items() if name != command} == {
            name: {"-h", "--help"} for name in SUBCOMMAND_ARGV if name != command}

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        listed = {tuple(line.split(None, 1)) for line in out.splitlines()}
        assert {(name, help_text) for name, (help_text, _, _) in COMMANDS.items()} <= listed
        with pytest.raises(SystemExit) as exc:
            main(["bogus", "--store", "store.json"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(SUBCOMMAND_ARGV))
    def test_n_max_above_limit_exits_2(self, tmp_path, monkeypatch, capsys, command):
        # refused when the config is built, or by the parser of a command that does not
        # read n_max: no file is read or written
        monkeypatch.chdir(tmp_path)
        for n_max in (N_MAX_LIMIT + 1, 1000000):
            argv = [command, *SUBCOMMAND_ARGV[command], "--n-max", str(n_max)]
            if command in ("synth", "ingest", "train"):
                assert main(argv) == 2
                expect = f"error: n_max must be a positive integer, got {n_max}; the limit is 240"
            else:
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2
                expect = f"error: unrecognized arguments: --n-max {n_max}"
            err = capsys.readouterr().err
            assert expect in err
            if command not in ("synth", "ingest", "train"):
                _assert_command_usage_error(err, command, f"--n-max {n_max}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flags", [
        ("evaluate", ["--strategy", "uniform", "--clip-mode", "drop", "--seed", "9", "--alpha1", "0.3"]),
        ("evaluate", ["--n-max", "3"]),
        ("forecast", ["--n-max", "3"]),
    ], ids=["evaluate_model_flags", "evaluate_n_max", "forecast_n_max"])
    def test_unread_setting_flags_exit_2(self, workspace, capsys, command, flags):
        # each run would exit 0 without the flags, on a model that they do not change
        bundle, out = str(workspace / "bundle.json"), workspace / "out.json"
        assert main(["train", "--store", str(workspace / "store.json"), "--out", bundle]) == 0
        argv = {"evaluate": ["evaluate", "--store", str(workspace / "store.json"), "--bundle", bundle],
                "forecast": ["forecast", "--bundle", bundle, "--train", "T001", "--station", "1",
                             "--delay", "0", "--target", "3"]}[command] + ["--out", str(out)]
        assert main(argv) == 0
        out.unlink()
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {' '.join(flags)}" in err
        _assert_command_usage_error(err, command, " ".join(flags))
        assert not out.exists()

    def test_each_command_reads_its_declared_settings(self, workspace, monkeypatch):
        # every RunConfig field read outside __post_init__'s validation, per command
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        validate = RunConfig.__post_init__.__code__
        read = set()

        def recording(self, name):
            if name in fields and sys._getframe(1).f_code is not validate:
                read.add(name)
            return object.__getattribute__(self, name)

        ws = str(workspace)
        store, bundle = f"{ws}/store.json", f"{ws}/bundle.json"
        forecast = ["forecast", "--bundle", bundle, "--train", "T001", "--station", "1", "--delay", "2"]
        runs = [
            ["synth", "--series", "5", "--out-timetable", f"{ws}/tt.csv", "--out-realization", f"{ws}/rz.csv"],
            ["ingest", "--timetable", f"{ws}/timetable.csv", "--realization", f"{ws}/realization.csv",
             "--out", f"{ws}/store2.json"],
            ["test", "--store", store, "--out", f"{ws}/order.json"],
            ["train", "--store", store, "--out", f"{ws}/regression.json", "--strategy", "gaussian_regression"],
            ["train", "--store", store, "--out", bundle, "--strategy", "gaussian_kernel"],
            forecast + ["--store", store],
            forecast + ["--target", "4"],
            ["evaluate", "--store", store, "--bundle", bundle, "--out", f"{ws}/s1.json"],
            ["evaluate", "--store", store, "--baseline", "marginal", "--train-store", store,
             "--target", "4", "--out", f"{ws}/s2.json"],
            ["evaluate", "--store", store, "--baseline", "naive", "--out", f"{ws}/s3.json"],
        ]
        monkeypatch.setattr(RunConfig, "__getattribute__", recording)
        reads = {}
        for argv in runs:
            read.clear()
            assert main(argv) == 0, argv
            reads.setdefault(argv[0], set()).update(read)
        assert reads == {command: {f.name for f in dataclasses.fields(RunConfig)
                                   if command in f.metadata["commands"]} for command in COMMANDS}

    def test_n_max_limit_is_accepted(self, tmp_path):
        assert RunConfig(n_max=N_MAX_LIMIT).n_max == 240
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": N_MAX_LIMIT + 1}))
        with pytest.raises(InputError, match=f"config {cfg}: n_max must be a positive integer, "
                                              "got 241; the limit is 240"):
            RunConfig.load(cfg)

    @pytest.mark.parametrize("key, value", [
        ("trend_metric", "bogus"),
        ("jump_metric", "bogus"),
        ("minutes_metric", "probability"),
    ])
    def test_unknown_metric_fails_at_load(self, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError, match=f"unknown {key} '{value}'"):
            RunConfig.load(cfg)


# values no flag should turn into an internal error: zero, negatives, denormals,
# the float extremes and integers past int64
EDGE_VALUES = ("0", "-1", "5e-324", "2.2e-308", "1e308", "inf", "-inf", "nan",
               "100000000000000000000", "-100000000000000000000")


def _flag_values(f: dataclasses.Field) -> st.SearchStrategy[str]:
    """A RunConfig field's flag values: its declared range, plus the edge values for a number."""
    meta = f.metadata
    if meta["choices"]:
        return st.sampled_from(meta["choices"])
    if isinstance(f.default, int):
        declared = st.integers(meta["minimum"], min(meta["maximum"], 10**6)).map(str)
    else:
        declared = st.floats(0.0, meta["below"], exclude_min=True, exclude_max=True).map(repr)
    return declared | st.sampled_from(EDGE_VALUES)


FLAG_VALUES = {f.metadata["flag"] or "--" + f.name.replace("_", "-"): _flag_values(f)
               for f in dataclasses.fields(RunConfig)}
STATIONS = st.integers(1, 6).map(str) | st.sampled_from(EDGE_VALUES)
STAGES = ("synth", "ingest", "test", "train", "forecast",
          "evaluate bundle", "evaluate naive", "evaluate marginal")


def _stage_config(stage: str) -> st.SearchStrategy[tuple[str, dict]]:
    """A stage with up to three of its command's config flags, so that most draws
    still get past the parser, each with a drawn value."""
    flags = sorted(CONFIG_OPTIONS[stage.partition(" ")[0]])
    return st.lists(st.sampled_from(flags), max_size=3, unique=True).flatmap(
        lambda drawn: st.tuples(st.just(stage), st.fixed_dictionaries(
            {flag: FLAG_VALUES[flag] for flag in drawn})))


STAGE_CONFIGS = st.sampled_from(STAGES).flatmap(_stage_config)


@pytest.fixture(scope="module")
def fuzz_workspace(tmp_path_factory):
    """A small CSV pair, its store and a diagonal bundle, shared by every draw."""
    ws = tmp_path_factory.mktemp("fuzz")
    tt, rz, store, bundle = (str(ws / name) for name in
                             ("tt.csv", "rz.csv", "store.json", "bundle.json"))
    assert main(["synth", "--series", "20", "--length", "4", "--seed", "5",
                 "--out-timetable", tt, "--out-realization", rz]) == 0
    assert main(["ingest", "--timetable", tt, "--realization", rz, "--out", store]) == 0
    assert main(["train", "--store", store, "--out", bundle, "--strategy", "diagonal"]) == 0
    return ws


class TestFlagFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(stage_config=STAGE_CONFIGS, station=STATIONS,
           delay=st.integers(-20, 20).map(str) | st.sampled_from(EDGE_VALUES),
           target=st.none() | STATIONS)
    @example(stage_config=("evaluate marginal", {}), station="1", delay="0",
             target="100000000000000000000")
    def test_flags_never_end_in_an_internal_error(self, fuzz_workspace,
                                                  stage_config, station, delay, target):
        ws = fuzz_workspace
        stage, config = stage_config
        store, bundle, out = str(ws / "store.json"), str(ws / "bundle.json"), str(ws / "out.json")
        command, _, method = stage.partition(" ")
        source = {"": [], "bundle": ["--bundle", bundle], "naive": ["--baseline", "naive"],
                  "marginal": ["--baseline", "marginal", "--train-store", store]}[method]
        argv = {
            "synth": ["--series", "3", "--length", "3", "--out-timetable", str(ws / "s_tt.csv"),
                      "--out-realization", str(ws / "s_rz.csv")],
            "ingest": ["--timetable", str(ws / "tt.csv"), "--realization", str(ws / "rz.csv"),
                       "--out", out],
            "test": ["--store", store, "--out", out],
            "train": ["--store", store, "--out", out],
            "forecast": ["--bundle", bundle, "--train", "T001",
                         "--station", station, "--delay", delay, "--out", out],
            "evaluate": ["--store", store, *source, "--from-station", station, "--out", out],
        }[command]
        if target is not None and command in ("forecast", "evaluate"):
            argv += ["--target", target]
        elif command == "forecast":
            argv += ["--store", store]
        argv += [arg for flag, value in config.items() for arg in (flag, value)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([command, *argv])
            except SystemExit as exc:  # argparse refuses a value its type cannot read
                code = exc.code
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "internal error" not in err.getvalue()


# the seeded mutations of an input: a dropped key or field, a short row (a list,
# string or CSV row cut to half), a NaN, a 20-digit int, a number turned into a
# string, a value of another JSON type, or 200,000 nested arrays (a long field in a CSV)
MUTATIONS = ("drop", "short", "nan", "bigint", "string", "wrong_type", "nest")
WRONG_TYPED = (None, True, 1.5, "x", [], {})
FUZZ_CONFIG = {"n_max": 15, "alpha1": 0.05, "horizon_minutes": 20.0, "strategy": "diagonal",
               "clip_mode": "saturate", "seed": 5}


def _mutate(data, holder, key, mutation: str) -> None:
    """Apply `mutation` to holder[key] of a list or dict; a wrong type or a sign is drawn from `data`."""
    value = holder[key]
    if mutation == "drop" or mutation == "short" and not isinstance(value, (list, str)):
        del holder[key]
    elif mutation == "short":
        holder[key] = value[:len(value) // 2]
    elif mutation == "nan":
        holder[key] = float("nan")
    elif mutation == "bigint":
        holder[key] = data.draw(st.sampled_from((10**20, -10**20)))
    elif mutation == "string":
        holder[key] = str(value) if not isinstance(value, str) else "15"
    elif mutation == "nest":
        holder[key] = DEEP_JSON  # a string here; `_mutated_json` writes it as nested arrays
    else:
        holder[key] = data.draw(st.sampled_from([w for w in WRONG_TYPED if type(w) is not type(value)]))


def _mutated_json(data, value, mutation: str) -> str:
    """The JSON text of `value` with one node mutated: from the root, the walk
    descends into a drawn child of each non-empty container while a drawn
    integer in 0..3 is nonzero."""
    root = [value]  # a holder of the root, so that the root itself can be mutated
    holder, key = root, 0
    while isinstance(holder[key], (dict, list)) and holder[key] and data.draw(st.integers(0, 3)):
        node = holder[key]
        holder, key = node, data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                                       else range(len(node))))
    _mutate(data, holder, key, mutation)
    return json.dumps(root[0]).replace(json.dumps(DEEP_JSON), DEEP_JSON) if root else ""


def _mutated_csv(data, path, mutation: str) -> str:
    """The CSV at `path` with one field of one drawn row (the header too) mutated;
    a dropped field shortens its row by one."""
    rows = list(csv.reader(io.StringIO(path.read_text(), newline="")))
    row = data.draw(st.sampled_from(rows))
    if mutation == "short":
        row[:] = row[:len(row) // 2]
    else:
        _mutate(data, row, data.draw(st.integers(0, len(row) - 1)), mutation)
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue()


class TestMutationFuzz:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data(), target=st.sampled_from(("store", "bundle", "config", "csv")),
           mutation=st.sampled_from(MUTATIONS),
           strategy=st.sampled_from(("diagonal", "uniform", "gaussian_regression", "gaussian_kernel")))
    def test_mutated_inputs_never_end_in_an_internal_error(self, fuzz_workspace, data, target,
                                                           mutation, strategy):
        ws = fuzz_workspace
        paths = {name: str(ws / name) for name in ("store.json", "bundle.json", "tt.csv", "rz.csv")}
        if target == "csv":
            name = data.draw(st.sampled_from(("tt.csv", "rz.csv")))
            text = _mutated_csv(data, ws / name, mutation)
        else:
            name = f"{target}.json"
            value = json.loads(json.dumps(FUZZ_CONFIG)) if target == "config" else load_json(ws / name)
            text = _mutated_json(data, value, mutation)
        paths[name] = str(ws / f"m_{name}")
        (ws / f"m_{name}").write_text(text)
        store, bundle, out = paths["store.json"], paths["bundle.json"], str(ws / "m_out.json")
        ingest = ["ingest", "--timetable", paths["tt.csv"], "--realization", paths["rz.csv"],
                  "--out", out, "--rejects", str(ws / "m_rejects.csv")]
        train = ["train", "--store", store, "--out", out]
        test = ["test", "--store", store, "--out", out]
        forecast = ["forecast", "--bundle", bundle, "--train", "T001", "--station", "1",
                    "--delay", "0", "--out", out]
        evaluate = ["evaluate", "--store", store, "--bundle", bundle, "--out", out]
        runs = {  # each stage that reads the input, and the loader its output must pass
            "csv": [(ingest, load_store)],
            "store": [(test, load_json), (train + ["--strategy", strategy], load_bundle),
                      (forecast + ["--store", store], load_json), (evaluate, load_json),
                      (["evaluate", "--store", store, "--baseline", "marginal",
                        "--train-store", store, "--out", out], load_json)],
            "bundle": [(forecast + ["--target", "3"], load_json), (evaluate, load_json)],
            "config": [(ingest, load_store), (test, load_json), (train, load_bundle),
                       (forecast + ["--store", store], load_json)],
        }[target]
        for argv, loader in runs:
            if target == "config":
                argv = argv + ["--config", paths["config.json"]]
            (ws / "m_out.json").unlink(missing_ok=True)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3, 4), (argv, err.getvalue())
            assert "internal error" not in err.getvalue()
            if code == 0:
                loader(out)
