"""Guards against stale references: every function the benchmark's layer trace
wraps, every name a module exports and every CLI flag the README names must
exist, every call the benchmark's corpus and checks make into railmc must bind
to its signature, and the README must list each command's config flags as its parser builds them. Also guards the runtime
dependencies: numpy is the only one, no module imports scipy, and all six stages and an exact tie of
the order-test ladder run with scipy blocked; no stage loads numpy.ma either. Each stage, as a
fresh process, loads exactly the railmc modules its command runs, and every --help exits 0 without
loading any command's modules. The CLI reads every store and bundle through the loaders that check
it, only the store parser reads a store document's keys, and only the trainer and the bundle
parser check a transition matrix; every recovery strategy reads the one count pass, with no
polynomial fit and no search for distinct pairs; the package defines one exception class per error exit code, all in core, each
mapped to its code by cli.main; ingest alone decides every reject, and reads each input once; and no module but config
gives a run setting a default or lists its accepted values. The console script is
cli.run, the one function that ends the process with os._exit, and every file the package opens
is a with item, so that hard exit loses no data; every file it writes goes through
core.open_output, so that a failed write leaves the previous file intact. The network-scale
probe imports the standard library only and runs every stage on a tiny corpus."""

import argparse
import ast
import builtins
import dataclasses
import importlib
import importlib.util
import inspect
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


def _railmc_calls(path: Path):
    """The names `path` imports from railmc, and each call it makes through one of them:
    its source text, the function it calls and the call node."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "railmc":
            module = importlib.import_module(node.module)
            for alias in node.names:  # a name the module defines, or a submodule of it
                imported[alias.asname or alias.name] = (
                    getattr(module, alias.name) if hasattr(module, alias.name)
                    else importlib.import_module(f"{node.module}.{alias.name}"))
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
        name = node.func.value if attr else node.func
        if isinstance(name, ast.Name) and name.id in imported:
            target = imported[name.id]
            calls.append((ast.unparse(node.func), getattr(target, attr) if attr else target, node))
    return imported, calls


@pytest.mark.parametrize("name", ["workloads.py", "checks.py"])
def test_benchmark_calls_into_railmc_bind(name):
    # the benchmark imports these names and calls these functions with these arguments: a
    # rename or a signature change fails here, not in the benchmark run
    imported, calls = _railmc_calls(LAYERTRACE.parent / name)
    assert imported, f"perfbench/{name} imports nothing from railmc"
    for _, func, call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
            continue  # *args or **kwargs: the counts are not in the source
        inspect.signature(func).bind(*call.args, **{k.arg: k.value for k in call.keywords})
    if name == "workloads.py":
        assert {text for text, _, _ in calls} >= {
            "synth.near_diagonal_spec", "synth.sample_series", "synth.write_ingest_files", "StateSpace"}


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


def _command_parsers() -> list[argparse.ArgumentParser]:
    """Each subcommand's parser, built with its flags as the process running it builds it."""
    from railmc.cli import COMMANDS, build_parser

    parsers = []
    for command in COMMANDS:
        (subparsers,) = (a for a in build_parser(command)._actions
                         if isinstance(a, argparse._SubParsersAction))
        parsers.append(subparsers.choices[command])
    return parsers


def test_readme_flags_exist():
    accepted = {opt for p in _command_parsers() for opt in p._option_string_actions}
    flags = _readme_flags()
    assert flags, "no --flag found in README.md"
    assert sorted(flags - accepted) == []


def test_readme_names_every_config_flag():
    # README lists each command's config flags, one line per command, as its parser builds them
    from railmc.cli import COMMANDS
    from railmc.config import RunConfig

    fields = {f.name for f in dataclasses.fields(RunConfig)}
    built = {command: {opt for a in p._actions if a.dest in fields and a.help != argparse.SUPPRESS
                       for opt in a.option_strings}
             for command, p in zip(COMMANDS, _command_parsers())}
    text = README.read_text(encoding="utf-8")
    listing = text[text.index("Config flags"):].split("\n\n", 2)[1]
    listed = {m[1]: set(re.findall(r"--[a-z][a-z0-9-]*", m[2]))
              for m in re.finditer(r"^- `(\w+)`: (.*)$", listing, re.MULTILINE)}
    assert all(built.values()) and listed == built


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    code = text[text.index("## Library use"):].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 3


def test_readme_network_example_prints_what_it_says(capsys):
    # the second example reads the first one's names and states its output in comments
    text = README.read_text(encoding="utf-8")
    first, second = (block.split("```", 1)[0] for block in
                     text[text.index("## Library use"):].split("```python\n")[1:3])
    namespace: dict = {}
    exec(compile(first, "README.md", "exec"), namespace)
    capsys.readouterr()
    exec(compile(second, "README.md", "exec"), namespace)
    said = [line.split("  # ", 1)[1] for line in second.splitlines() if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == said


# Runs the CLI on the argv lists given as JSON, then prints the exit codes, the
# railmc and numpy.ma modules loaded, and for `test` an exact tie of the ladder.
CLI_PROCESS = """
import json, sys

sys.modules["scipy"] = None  # any import of scipy now raises ImportError

from railmc.cli import main

runs = json.loads(sys.argv[1])
codes = []
for argv in runs:
    try:
        codes.append(main(argv))
    except SystemExit as exc:  # argparse exits after --help
        codes.append(exc.code)
# numpy.ma, pulled in by a plain np.unique, costs 14 ms to import
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "railmc" or m.split(".")[:2] == ["numpy", "ma"])
tie = None
if runs[0][0] == "test":
    import numpy as np
    from railmc.mctest import _ladders, chi_square_quantile

    # a statistic equal to its quantile is decided by its own tail
    ((tie,),), _ = _ladders(np.array([[chi_square_quantile(0.95, 6)]]), np.array([6]),
                            np.array([[0.0]]), np.array([0]), 0.05, 0.05)
print(json.dumps({"codes": codes, "loaded": loaded, "tie": tie}))
"""

# every command loads these; each command adds the modules that only it runs
ALWAYS_LOADED = ["railmc", "railmc.cli", "railmc.config", "railmc.core", "railmc.forecast",
                 "railmc.pipeline"]
COMMAND_MODULES = {"synth": ["railmc.synth"], "ingest": ["railmc.ingest"], "test": ["railmc.mctest"],
                   "train": ["railmc.recovery"], "evaluate": ["railmc.evaluate"], "forecast": []}
HELPS = [["--help"]] + [[command, "--help"] for command in COMMAND_MODULES]
# one CLI process per run of argvs, in waves: a wave reads what the waves before
# it wrote, and its processes run at once
WAVES = [
    [[["synth", "--series", "40", "--length", "4", "--seed", "2",
       "--out-timetable", "tt.csv", "--out-realization", "rz.csv"]], HELPS],
    [[["ingest", "--timetable", "tt.csv", "--realization", "rz.csv", "--out", "store.json"]]],
    [[["train", "--store", "store.json", "--out", "bundle.json", "--strategy", "gaussian_kernel",
       "--print-matrix", "T001:2"]],
     [["test", "--store", "store.json", "--out", "order.json"]]],
    [[["evaluate", "--store", "store.json", "--bundle", "bundle.json", "--out", "scores.json"]],
     [["forecast", "--bundle", "bundle.json", "--train", "T001", "--station", "1",
       "--delay", "0", "--store", "store.json", "--out", "pred.json"]]],
]


def _cli_processes(wave: list[list[list[str]]], cwd: Path) -> list[dict]:
    # fresh interpreters: this process already holds every module through the tests
    src = Path(railmc.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    procs = [subprocess.Popen([sys.executable, "-c", CLI_PROCESS, json.dumps(runs)], cwd=cwd, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for runs in wave]
    outputs = [proc.communicate(timeout=120) + (proc.returncode,) for proc in procs]
    for _, err, code in outputs:
        assert code == 0, err
    return [json.loads(out.splitlines()[-1]) for out, _, _ in outputs]


def test_no_stage_imports_scipy(tmp_path):
    # each command in its own interpreter, as a user runs it, loads only its own modules
    ran = []
    for wave in WAVES:
        for runs, result in zip(wave, _cli_processes(wave, tmp_path)):
            assert result["codes"] == [0] * len(runs), runs
            if runs is HELPS:  # parsing alone loads no command's modules
                assert result["loaded"] == ALWAYS_LOADED
                continue
            ((command, *_),) = runs
            ran.append(command)
            assert result["loaded"] == sorted(ALWAYS_LOADED + COMMAND_MODULES[command]), command
            if command == "test":
                assert result["tie"] in ("not_rejected", "rejected")
    assert sorted(ran) == sorted(COMMAND_MODULES)
    assert "aggregate" in json.loads((tmp_path / "order.json").read_text())


def test_no_module_imports_scipy():
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        return [node.module or ""] if isinstance(node, ast.ImportFrom) else []

    found = sorted(module for module in MODULES for node in ast.walk(_source_tree(module))
                   for name in imported(node) if name.split(".")[0] == "scipy")
    assert found == []


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((README.parent / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep)[0] for dep in project["dependencies"]] == ["numpy"]


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((README.parent / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["scripts"] == {"railmc": "railmc.cli:run"}


def test_every_open_is_a_with_item():
    # cli.run ends the process with os._exit, which flushes and closes no file
    # object, so each file must be closed by its with block before main returns
    opens, managed = [], set()
    for module in MODULES:
        for node in ast.walk(_source_tree(module)):
            if isinstance(node, ast.Call) and "open" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                opens.append((module, node.lineno, node))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                managed |= {id(item.context_expr) for item in node.items}
    assert opens
    assert [(module, line) for module, line, node in opens if id(node) not in managed] == []


def test_every_write_goes_through_the_output_helper():
    # core.open_output replaces a regular file only once its new content is complete
    def write_mode(call):
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
        return not isinstance(mode, ast.Constant) or bool(set(mode.value) & set("wax+"))

    trees = {module: _source_tree(module) for module in MODULES}
    (helper,) = (node for node in trees["railmc.core"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "open_output")
    inside = {id(node) for node in ast.walk(helper)}
    writes = [(module, node.lineno, id(node) in inside) for module, tree in trees.items()
              for node in ast.walk(tree) if isinstance(node, ast.Call) and "open" in (
                  getattr(node.func, "id", None), getattr(node.func, "attr", None))
              and write_mode(node)]
    assert any(ok for _, _, ok in writes)
    assert [(module, line) for module, line, ok in writes if not ok] == []


def test_only_the_process_entry_calls_os_exit():
    def exits(tree):
        return [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "_exit"
                or isinstance(node, ast.alias) and node.name == "_exit"]

    found = {module: lines for module in MODULES if (lines := exits(_source_tree(module)))}
    (run,) = (node for node in _source_tree("railmc.cli").body
              if isinstance(node, ast.FunctionDef) and node.name == "run")
    assert len(exits(run)) == 1
    assert found == {"railmc.cli": exits(run)}


def test_cli_reads_artifacts_only_through_the_loaders():
    # `load_json` reads a file unchecked; `load_store` and `load_bundle` check what it read
    tree = ast.parse(Path(importlib.import_module("railmc.cli").__file__).read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert "load_json" not in names
    assert {"load_store", "load_bundle"} <= names


def _source_tree(module: str) -> ast.Module:
    return ast.parse(Path(importlib.import_module(module).__file__).read_text(encoding="utf-8"))


def test_recovery_fits_from_the_counts_alone():
    # the distinct pairs are the nonzero n2 cells, and the regression lines are closed-form
    tree = _source_tree("railmc.recovery")
    attrs = [(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)]
    assert ("np", "polynomial") not in attrs
    assert ("np", "unique") not in attrs


def test_recovery_inverts_the_covariance_in_closed_form():
    # the 2x2 inverse and log-determinant need no LU: the KDE fit makes no np.linalg call
    tree = _source_tree("railmc.recovery")
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "linalg"
             or isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                 "linalg" in name for name in [getattr(node, "module", None) or "",
                                               *(alias.name for alias in node.names)])]
    assert found == []


def test_recover_makes_one_count_pass():
    # `_station_blocks` counts each block once; the order test and the recovery read its counts
    functions = {node.name: node for node in _source_tree("railmc.pipeline").body
                 if isinstance(node, ast.FunctionDef)}
    calls = {name: [node for node in ast.walk(functions[name]) if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "build_count_tensor"]
             for name in ("_station_blocks", "_recover", "test_store")}
    assert {name: len(found) for name, found in calls.items()} == {
        "_station_blocks": 1, "_recover": 0, "test_store": 0}


def test_the_station_axis_is_derived_once():
    # `_station_axis` alone turns each train's longest series into its stations
    # 2 .. reach; the order test and the trainer read that axis, and the trainer
    # sizes and indexes its stack by it, with no axis of its own
    functions = {node.name: node for node in _source_tree("railmc.pipeline").body
                 if isinstance(node, ast.FunctionDef)}

    def derives(fn):  # computes `<store>.reach - 1`
        return any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                   and getattr(node.left, "attr", None) == "reach" for node in ast.walk(fn))

    def calls(fn, name):
        return any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
                   for node in ast.walk(fn))

    assert [name for name, fn in functions.items() if derives(fn)] == ["_station_axis"]
    assert {name for name, fn in functions.items() if calls(fn, "_station_axis")} == {
        "test_store", "train_bundle"}
    assert [node.attr for node in ast.walk(functions["train_bundle"])
            if isinstance(node, ast.Attribute) and node.attr in ("reach", "arange")] == []


def test_only_the_store_parser_reads_store_documents():
    # in memory a store is one `Store`, built by `_store` alone, for `build_store`
    # and `parse_store`; only `save_json` builds a store document and only
    # `parse_store` (with `_parse_train`, its per-train part) reads one
    keys = {"stations", "planned", "series", "delays", "clipped"}
    knowers, calls = set(), {"_store": set(), "_parse_train": set(), "Store": set()}
    for module in MODULES:
        for fn in _source_tree(module).body:
            for node in ast.walk(fn):
                found = (node.keys if isinstance(node, ast.Dict) else
                         [node.slice] if isinstance(node, ast.Subscript) else
                         node.args[:1] if isinstance(node, ast.Call)
                         and getattr(node.func, "attr", None) == "get" else [])
                if any(isinstance(key, ast.Constant) and key.value in keys for key in found):
                    knowers.add((module, getattr(fn, "name", "<module>")))
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in calls:
                    calls[node.func.id].add((module, getattr(fn, "name", "<module>")))
    p = "railmc.pipeline"
    assert knowers == {(p, "save_json"), (p, "_parse_train")}, knowers
    assert calls == {"_store": {(p, "build_store"), (p, "parse_store")},
                     "_parse_train": {(p, "parse_store")}, "Store": {(p, "_store")}}, calls


def test_only_the_trainer_and_the_bundle_parser_check_matrices():
    # a bundle is parsed once, where it is read; `bundle_matrices` only slices a chain.
    # `_check_stack` is the one stack check, naming the first bad matrix by
    # checking the matrices one by one (it calls itself for that); only the
    # trainer and the bundle parser call it, and nothing else calls the check
    callers = {"check_transition_matrix": set(), "_check_stack": set()}
    for fn in _source_tree("railmc.pipeline").body:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in callers and getattr(fn, "name", None) != name:
                    callers[name].add(getattr(fn, "name", "<module>"))
    assert callers == {"check_transition_matrix": {"_check_stack"},
                       "_check_stack": {"train_bundle", "parse_bundle"}}, callers


def test_only_the_bundle_parser_reads_bundle_documents():
    # a bundle document is read once, by `parse_bundle`, and built once, by the
    # view `save_json` writes; every stage reads the `Bundle` fields. A store's
    # own "trains" table is built by `save_json` and read by `parse_store`
    # alone, and no store in memory is a dict: it is a `Store`, read by its fields.
    readers = {"trains": set(), "matrices": set()}
    for fn in _source_tree("railmc.pipeline").body:
        for node in ast.walk(fn):
            keys = (node.keys if isinstance(node, ast.Dict) else
                    [node.slice] if isinstance(node, ast.Subscript) else
                    node.args[:1] if isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "get" else [])
            for key in keys:
                if isinstance(key, ast.Constant) and key.value in readers:
                    readers[key.value].add(getattr(fn, "name", "<module>"))
    bundle = {"parse_bundle", "save_json"}
    assert readers == {"trains": bundle | {"parse_store"}, "matrices": bundle}, readers
    assert [node.value for node in ast.walk(_source_tree("railmc.pipeline"))
            if isinstance(node, ast.Constant) and node.value in ("table", "templates")] == []
    (lookup,) = (fn for fn in _source_tree("railmc.pipeline").body
                 if getattr(fn, "name", None) == "bundle_matrices")
    assert [node for node in ast.walk(lookup)
            if isinstance(node, ast.Attribute) and node.attr == "stack"] == []


def test_one_exception_class_per_error_exit_code():
    classes = [(module, node) for module in MODULES for node in ast.walk(_source_tree(module))
               if isinstance(node, ast.ClassDef)]
    errors = {name for name, value in vars(builtins).items()
              if isinstance(value, type) and issubclass(value, BaseException)}
    defined = set()
    for _ in classes:  # a class may derive from one defined after it
        for module, node in classes:
            if {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases} & errors:
                defined.add((module, node.name))
                errors.add(node.name)
    assert sorted(defined) == [("railmc.core", "CoverageError"), ("railmc.core", "EmptySelectionError"),
                               ("railmc.core", "InputError")]
    # cli.main maps each class, and OSError, to its exit code, each named by one handler
    (main,) = (node for node in _source_tree("railmc.cli").body
               if isinstance(node, ast.FunctionDef) and node.name == "main")
    (handlers,) = (node.handlers for node in ast.walk(main) if isinstance(node, ast.Try))
    codes = {}
    for handler in handlers:
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        (exit_code,) = (node.value.id for node in handler.body if isinstance(node, ast.Return))
        for t in types:
            assert t.id not in codes
            codes[t.id] = exit_code
    assert codes == {"EmptySelectionError": "EXIT_EMPTY", "CoverageError": "EXIT_COVERAGE",
                     "InputError": "EXIT_IO", "OSError": "EXIT_IO", "MemoryError": "EXIT_MEMORY",
                     "Exception": "EXIT_INTERNAL"}


def test_only_ingest_decides_rejects():
    # no other module builds a rejects row or names a reason for one
    from railmc.ingest import REJECT_REASONS

    found = []
    for module in MODULES:
        for node in ast.walk(_source_tree(module)):
            if isinstance(node, ast.Call) and "RejectedRow" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append((module, "RejectedRow", node.lineno))
            elif isinstance(node, ast.Constant) and node.value in REJECT_REASONS:
                found.append((module, node.value, node.lineno))
    assert found and {module for module, _, _ in found} == {"railmc.ingest"}, found


def test_ingest_reads_each_input_once():
    # `_whole_records` reads a stream once, a block at a time: ingest makes no
    # copy to read again, seeks nowhere and wraps no stream in a second reader
    tree = _source_tree("railmc.ingest")
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"codecs", "tempfile"}
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"seek", "tell", "TextIOWrapper"}
    readers = [getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "read"]
    assert readers == ["_whole_records"]


def test_each_setting_is_declared_in_config_only():
    # a RunConfig field declares its setting's default and accepted values; a function
    # that reads the setting takes the checked config and repeats neither
    from railmc.config import RunConfig

    choices = [set(f.metadata["choices"]) for f in dataclasses.fields(RunConfig)
               if f.metadata["choices"]]
    accepted = set().union(*choices)
    found = []
    for module in MODULES:
        if module == "railmc.config":
            continue
        for node in ast.walk(_source_tree(module)):
            defaults = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                params = positional[len(positional) - len(args.defaults):] + args.kwonlyargs
                pairs = [(a, d) for a, d in zip(params, args.defaults + args.kw_defaults) if d]
                found += [(module, node.lineno, a.arg) for a, _ in pairs if a.arg in ("alpha1", "alpha2")]
                defaults = [d for _, d in pairs]
            elif isinstance(node, ast.ClassDef):
                defaults = [n.value for n in node.body
                            if isinstance(n, (ast.AnnAssign, ast.Assign)) and n.value is not None]
            elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                values = {e.value for e in node.elts if isinstance(e, ast.Constant)}
                if any(len(values & c) >= 2 for c in choices):
                    found.append((module, node.lineno, ast.unparse(node)))
            found += [(module, d.lineno, d.value) for d in defaults
                      if isinstance(d, ast.Constant) and d.value in accepted]
    assert found == [], found


def test_scale_probe_runs_every_stage_on_a_tiny_corpus(capsys):
    # the runner imports the standard library only, so a stage's peak RSS is its own
    path = README.parent / "tools" / "scale_probe.py"
    imported = {name.split(".")[0] for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                for name in ([a.name for a in node.names] if isinstance(node, ast.Import) else
                             [node.module] if isinstance(node, ast.ImportFrom) else [])}
    assert imported <= sys.stdlib_module_names | {"__future__"}
    spec = importlib.util.spec_from_file_location("scale_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    tree = Path(railmc.__file__).resolve().parents[2]
    assert probe.main(["--tree", str(tree), "--runs", "1", "--series", "2", "--trains", "1",
                       "--length", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["corpus"]["realization_rows"] == 10
    assert [r["stage"] for r in report["runs"]] == list(probe.STAGES)
    assert all(r["wall_s"] > 0 and r["peak_rss_mib"] > 0 for r in report["runs"])
    # the layers are timed in a process of their own, after the stages
    (layers,) = report["layers"]
    assert list(layers) == ["run", "tree", *probe.LAYERS] and all(layers[n] > 0 for n in probe.LAYERS)
    assert list(report["medians"][str(tree)]) == [*probe.STAGES, "layers"]
