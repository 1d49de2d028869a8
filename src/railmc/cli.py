"""Command-line front end.

Subcommands: ``synth``, ``ingest``, ``test``, ``train``, ``forecast``,
``evaluate``. All reports are compact JSON with sorted keys (plus CSV mirrors
where noted), so re-running a command with the same inputs and seed produces
byte-identical outputs. Each subcommand takes one flag per RunConfig field
that it reads, built from that field's declaration, and no flag for a field it
does not read: such a flag is a usage error (exit 2).

Exit codes: 0 ok, 1 internal error, 2 an OSError or InputError (a missing or
malformed flag, or a malformed store, bundle, config file, input encoding,
realization header or timetable row), 3 EmptySelectionError, 4 CoverageError
(no target station, a station missing from the bundle, or a delay or store
outside the model's state space), 5 MemoryError (the command needs more memory
than the process may have). Each error class but MemoryError is defined in `core`.

`main(argv)` parses with only the invoked subcommand's flags built and returns
the exit code; library callers and tests call it. The process entry `run()`,
used by `python -m railmc.cli` and the `railmc` script, calls `main()`,
flushes stdout and stderr and ends with `os._exit`, skipping interpreter
teardown, so no `atexit` handler runs. A failed final flush (a full disk, a
closed pipe) turns exit 0 into 2.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import os
import sys
from typing import NoReturn

from . import pipeline
from .config import RunConfig
from .core import CoverageError, EmptySelectionError, InputError, StateSpace, open_output
# each cmd_* imports the modules only its command runs, so a process loads no others

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_IO = 2
EXIT_EMPTY = 3
EXIT_COVERAGE = 4
EXIT_MEMORY = 5
# the train:station keys `train` names of the stations whose recovery fell back
FALLBACKS_NAMED = 5


def _add_config_flags(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    for f in dataclasses.fields(RunConfig):
        if command in f.metadata["commands"]:
            p.add_argument(f.metadata["flag"] or "--" + f.name.replace("_", "-"), dest=f.name,
                           type=type(f.default), choices=f.metadata["choices"] or None,
                           help=f"{f.metadata['help']} (default {f.default})")


def _config_from(args: argparse.Namespace) -> RunConfig:
    # a field whose flag the command lacks reads None and keeps its file or default value
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    return RunConfig.load(getattr(args, "config", None), **overrides)


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import near_diagonal_spec, sample_series, write_ingest_files

    for flag, value in (("--series", args.series), ("--trains", args.trains), ("--length", args.length)):
        if value < 1:
            raise InputError(f"{flag} must be a positive integer, got {value}")
    if not args.dispersion > 0:  # NaN fails too
        raise InputError(f"--dispersion must be a positive number, got {args.dispersion}")
    config = _config_from(args)
    space = StateSpace(config.n_max)
    series = []
    for k in range(args.trains):
        spec = near_diagonal_spec(
            space, args.length, args.dispersion, seed=config.seed + k
        )
        series.extend(sample_series(spec, args.series, train_id=f"T{k + 1:03d}"))
    write_ingest_files(series, args.out_timetable, args.out_realization)
    print(f"wrote {len(series)} series for {args.trains} train(s)")
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    from .ingest import REJECT_REASONS, load_timetable, parse_events, write_rejects

    config = _config_from(args)
    templates = load_timetable(args.timetable)
    events, parse_rejects = parse_events(args.realization)
    store, rejects = pipeline.build_store(templates, events, config)
    pipeline.save_json(store, args.out)
    if args.rejects:
        write_rejects(parse_rejects + rejects, args.rejects)
    counts = collections.Counter(r.reason for r in parse_rejects + rejects)
    by_reason = ", ".join(f"{r}: {counts[r]}" for r in sorted(counts, key=REJECT_REASONS.index))
    print(f"store: {len(store.ids)} train(s), {len(store.dates)} series, "
          f"{counts.total()} rejected row(s)" + (f" ({by_reason})" if counts else ""))
    return EXIT_OK


def cmd_test(args: argparse.Namespace) -> int:
    config = _config_from(args)
    report = pipeline.test_store(pipeline.load_store(args.store), config)
    pipeline.save_json(report, args.out)
    agg = report["aggregate"]
    for name, row in agg["statistics"].items():
        print(f"{name}: {agg['total_stations']} stations, "
              f"reject H0(0): {row['reject_h0_0']}, reject H0(1): {row['reject_h0_1']}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    tid, sep, station = (args.print_matrix or "").rpartition(":")
    # no bundle holds a matrix for a station below 2
    if args.print_matrix and not (tid and sep and station.isdecimal() and int(station) >= 2):
        raise InputError(
            f"--print-matrix wants TRAIN:T with a station number T >= 2, got {args.print_matrix!r}")
    config = _config_from(args)
    fallbacks: list = []
    bundle = pipeline.train_bundle(pipeline.load_store(args.store), config, fallbacks)
    if fallbacks:
        named = ", ".join(f"{tid}:{t}" for tid, t in fallbacks[:FALLBACKS_NAMED])
        more = f" and {len(fallbacks) - FALLBACKS_NAMED} more" if len(fallbacks) > FALLBACKS_NAMED else ""
        print(f"warning: {len(fallbacks)} station(s) {pipeline.FALLBACKS[config.strategy]}: "
              f"{named}{more}", file=sys.stderr)
    # looked up before the bundle is written, so a run that exits 4 writes nothing
    shown = (pipeline.bundle_matrices(bundle, tid, int(station) - 1, int(station))
             if args.print_matrix else [])
    pipeline.save_json(bundle, args.out)
    print(f"bundle: strategy={config.strategy}, {len(bundle.ids)} train(s), {len(bundle.station)} matrices")
    if args.print_matrix:
        from .recovery import format_matrix_text

        print(format_matrix_text(shown[0], StateSpace(config.n_max)))
    return EXIT_OK


def cmd_forecast(args: argparse.Namespace) -> int:
    if args.target is None and args.store is None:
        raise InputError("forecast needs --target or --store to resolve the target station")
    if args.target is not None and args.store is not None:
        raise InputError(
            "forecast takes --target or --store, not both: --target leaves --store unread")
    config = _config_from(args)
    bundle = pipeline.load_bundle(args.bundle)
    store = None if args.target is not None else pipeline.load_store(args.store)
    target = pipeline.resolve_target(store, args.train, args.station, config, args.target)
    record = {"train": args.train, "date": args.date, "S": args.station, "T": target,
              **pipeline.forecast_from_bundle(
                  bundle, args.train, args.station, args.delay, target, config)}
    if args.out:
        pipeline.save_json(record, args.out)
    print(f"train {args.train} S={args.station} d_S={args.delay} -> T={target}: "
          f"trend={record['trend']} jump={record['jump']} minutes={record['minutes']:.3f}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    import csv

    if args.baseline == "marginal" and not args.train_store:
        raise InputError("--baseline marginal needs --train-store")
    if args.baseline != "marginal" and args.train_store is not None:
        raise InputError("--train-store is read only by --baseline marginal")
    config = _config_from(args)
    store = pipeline.load_store(args.store)
    bundle = pipeline.load_bundle(args.bundle) if args.bundle else None
    train_store = args.train_store and (  # the --store file named again is parsed once
        store if os.path.samefile(args.store, args.train_store) else pipeline.load_store(args.train_store))
    report, payload = pipeline.evaluate_store(
        store, config, bundle=bundle, baseline=args.baseline,
        train_store=train_store, from_station=args.from_station, target=args.target,
    )
    pipeline.save_json(payload, args.out)
    with open_output(str(args.out) + ".csv", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "F_TR", "F_JP", "RWMSE", "total_score"])
        w.writerow([payload["method"], f"{report.f_tr:.5f}", f"{report.f_jp:.5f}",
                    f"{report.rwmse:.5f}", f"{report.score:.5f}"])
    print(f"{payload['method']}: F_TR={report.f_tr:.5f} F_JP={report.f_jp:.5f} "
          f"RWMSE={report.rwmse:.5f} score={report.score:.5f} (M={report.eval_count})")
    return EXIT_OK


def _synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--series", type=int, default=200, help="series per train")
    p.add_argument("--trains", type=int, default=1)
    p.add_argument("--length", type=int, default=5, help="stations per journey")
    p.add_argument("--dispersion", type=float, default=1.5)
    p.add_argument("--out-timetable", required=True)
    p.add_argument("--out-realization", required=True)


def _ingest_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timetable", required=True)
    p.add_argument("--realization", required=True)
    p.add_argument("--out", required=True, help="series store JSON path")
    p.add_argument("--rejects", help="rejects report CSV path")


def _test_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True, help="test report JSON path")


def _train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True, help="matrix bundle JSON path")
    p.add_argument("--print-matrix", metavar="TRAIN:T",
                   help="print one recovered matrix as a text grid")
    # read by no run; kept while perfbench/workloads.py:207 passes it (ROADMAP item 1)
    p.add_argument("--seed", type=int, help=argparse.SUPPRESS)


def _forecast_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bundle", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--date", default="")
    p.add_argument("--station", type=int, required=True, help="current station index S")
    p.add_argument("--delay", type=int, required=True, help="current delay d(S) in minutes")
    p.add_argument("--target", type=int, help="target station index T")
    p.add_argument("--store", help="store for horizon-based target resolution")
    p.add_argument("--out", help="prediction record JSON path")


def _evaluate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--store", required=True, help="evaluation store JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--bundle", help="trained matrix bundle JSON")
    group.add_argument("--baseline", choices=list(pipeline.BASELINES))
    p.add_argument("--train-store", help="training store (for the marginal baseline)")
    p.add_argument("--from-station", type=int, default=1)
    p.add_argument("--target", type=int, help="fixed target station (else horizon-based)")
    p.add_argument("--out", required=True, help="score report JSON path (CSV mirror alongside)")


# each subcommand: its help line, the function adding its own flags, and its handler
COMMANDS = {
    "synth": ("generate synthetic timetable/realization CSVs", _synth_flags, cmd_synth),
    "ingest": ("parse CSVs into a series store", _ingest_flags, cmd_ingest),
    "test": ("run the Markov property test over a store", _test_flags, cmd_test),
    "train": ("recover transition matrices into a bundle", _train_flags, cmd_train),
    "forecast": ("predict one train's delay at a future station", _forecast_flags, cmd_forecast),
    "evaluate": ("score predictions over a store", _evaluate_flags, cmd_evaluate),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser listing every subcommand; only `command` gets its flags and handler.

    A process runs one command, so the others' flags would be built for nothing.
    """
    parser = argparse.ArgumentParser(
        prog="railmc",
        description="Non-homogeneous Markov chain delay models: order testing, "
                    "matrix recovery, forecasting, and scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, func) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            add_flags(p)
            _add_config_flags(p, name)
            p.set_defaults(func=func, usage_error=p.error)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser takes no value, so the first command name is the command
    args, extra = build_parser(next((a for a in argv if a in COMMANDS), None)).parse_known_args(argv)
    if extra:  # reported with the command's usage line, which lists the flags it takes
        args.usage_error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except EmptySelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except CoverageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COVERAGE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: {args.command} ran out of memory: {exc}", file=sys.stderr)
        return EXIT_MEMORY
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> NoReturn:
    """The process entry: `main()`, then flush and `os._exit`, skipping interpreter teardown.

    A `SystemExit` (argparse's --help and usage errors) maps to its code as in
    CPython. Every file is closed by its `with` block by now.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
        if code is None:
            code = EXIT_OK
        elif not isinstance(code, int):
            print(code, file=sys.stderr)
            code = EXIT_INTERNAL
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None when the process started with the descriptor closed
                stream.flush()
        except OSError:  # a full disk or a closed pipe
            code = code or EXIT_IO
    os._exit(code)


if __name__ == "__main__":
    run()
