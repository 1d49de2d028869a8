"""Guard for the benchmark's layer trace: every function it wraps must exist."""

import ast
import importlib
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
