"""Guards against stale references: every function the benchmark's layer trace
wraps, and every CLI flag the README names, must exist."""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

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
