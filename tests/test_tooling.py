"""Guards against stale references: every function the benchmark's layer trace
wraps, every name a module exports and every CLI flag the README names must
exist, and the README must name every flag built from a config field. Also guards the import cost: no
stage loads scipy, `test` included, unless a statistic ties its quantile."""

import argparse
import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import railmc

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _trace_targets() -> list[str]:
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("no TARGETS table in perfbench/layertrace.py")


@pytest.mark.parametrize("qualname", _trace_targets())
def test_trace_target_resolves(qualname):
    module, name = qualname.split(".")
    assert callable(getattr(importlib.import_module(f"railmc.{module}"), name))


MODULES = sorted(
    "railmc" if p.stem == "__init__" else f"railmc.{p.stem}"
    for p in Path(railmc.__file__).parent.glob("*.py")
)


@pytest.mark.parametrize("module", MODULES)
def test_exports_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


README = LAYERTRACE.parents[1] / "README.md"


def _readme_flags() -> set[str]:
    # install and test lines call pip and pytest, whose flags are not railmc's
    lines = [
        line for line in README.read_text(encoding="utf-8").splitlines()
        if not line.lstrip().startswith(("pip ", "python "))
    ]
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", "\n".join(lines)))


def test_readme_flags_exist():
    from railmc.cli import build_parser

    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {opt for p in subparsers.choices.values() for opt in p._option_string_actions}
    flags = _readme_flags()
    assert flags, "no --flag found in README.md"
    assert sorted(flags - accepted) == []


def test_readme_names_every_config_flag():
    from railmc.cli import build_parser
    from railmc.config import RunConfig

    fields = {f.name for f in dataclasses.fields(RunConfig)}
    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    built = {opt for p in subparsers.choices.values() for a in p._actions
             if a.dest in fields for opt in a.option_strings}
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Common flags"):].split("\n\n", 1)[0]
    assert built and sorted(built - set(re.findall(r"--[a-z][a-z0-9-]*", paragraph))) == []


SCIPY_FREE_STAGES = """
import json, sys
from railmc.cli import main

def run(*argv):
    assert main(list(argv)) == 0, argv

run("synth", "--series", "40", "--length", "4", "--seed", "2",
    "--out-timetable", "tt.csv", "--out-realization", "rz.csv")
run("ingest", "--timetable", "tt.csv", "--realization", "rz.csv", "--out", "store.json")
run("train", "--store", "store.json", "--out", "bundle.json", "--strategy", "gaussian_kernel")
run("evaluate", "--store", "store.json", "--bundle", "bundle.json", "--out", "scores.json")
run("forecast", "--bundle", "bundle.json", "--train", "T001", "--station", "1",
    "--delay", "0", "--target", "3", "--out", "pred.json")
run("test", "--store", "store.json", "--out", "order.json")
with open("loaded.json", "w") as fh:
    json.dump(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), fh)
"""


def test_no_stage_imports_scipy(tmp_path):
    # a fresh interpreter: this process already holds scipy through the tests
    src = Path(railmc.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_STAGES],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "loaded.json").read_text()) == []
    assert "aggregate" in json.loads((tmp_path / "order.json").read_text())
