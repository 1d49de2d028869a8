"""Command-line front end.

Subcommands: ``synth``, ``ingest``, ``test``, ``train``, ``forecast``,
``evaluate``. All reports are compact JSON with sorted keys (plus CSV mirrors
where noted), so re-running a command with the same inputs and seed produces
byte-identical outputs. Every subcommand takes one flag per settable
RunConfig field, built from that field's declaration.

Exit codes: 0 ok, 1 internal error, 2 I/O error, a missing or malformed flag, or
a malformed store, bundle, config file, input encoding, realization header or
timetable row, 3 empty selection, 4 coverage gap
(a station missing from the bundle, or a delay or store outside the model's
state space).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import dataclasses
import sys

from . import pipeline
from .config import ConfigError, RunConfig
from .core import StateSpace
from .ingest import (
    REJECT_REASONS,
    IngestError,
    NoTargetError,
    load_timetable,
    parse_events,
    write_rejects,
)
from .pipeline import BundleError, CoverageError, EmptySelectionError, StoreError
from .recovery import format_matrix_text
from .synth import near_diagonal_spec, sample_series, write_ingest_files

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_IO = 2
EXIT_EMPTY = 3
EXIT_COVERAGE = 4


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    for f in dataclasses.fields(RunConfig):
        flag = f.metadata["flag"]
        if flag is not None:
            p.add_argument(flag or "--" + f.name.replace("_", "-"), dest=f.name,
                           type=type(f.default), choices=f.metadata["choices"] or None,
                           help=f"{f.metadata['help']} (default {f.default})")


def _config_from(args: argparse.Namespace) -> RunConfig:
    # a field with no flag (regression_std) reads None and falls through
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    return RunConfig.load(getattr(args, "config", None), **overrides)


@contextlib.contextmanager
def _naming_stores(*stores):
    """Prefix a StoreError with the file of the store at fault; `stores` holds
    (store, path) pairs."""
    try:
        yield
    except StoreError as exc:
        path = next(path for store, path in stores if store is exc.store)
        raise StoreError(f"{path}: {exc}") from None


def cmd_synth(args: argparse.Namespace) -> int:
    for flag, value in (("--series", args.series), ("--trains", args.trains), ("--length", args.length)):
        if value < 1:
            raise ConfigError(f"{flag} must be a positive integer, got {value}")
    if not args.dispersion > 0:  # NaN fails too
        raise ConfigError(f"--dispersion must be a positive number, got {args.dispersion}")
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
    config = _config_from(args)
    templates = load_timetable(args.timetable)
    events, parse_rejects = parse_events(args.realization)
    store, rejects = pipeline.build_store(templates, events, config)
    pipeline.save_json(store, args.out)
    if args.rejects:
        write_rejects(parse_rejects + rejects, args.rejects)
    n_series = sum(len(t["series"]) for t in store["trains"].values())
    counts = collections.Counter(r.reason for r in parse_rejects + rejects)
    by_reason = ", ".join(f"{r}: {counts[r]}" for r in sorted(counts, key=REJECT_REASONS.index))
    print(f"store: {len(store['trains'])} train(s), {n_series} series, "
          f"{counts.total()} rejected row(s)" + (f" ({by_reason})" if counts else ""))
    return EXIT_OK


def cmd_test(args: argparse.Namespace) -> int:
    config = _config_from(args)
    store = pipeline.load_json(args.store, StoreError)
    with _naming_stores((store, args.store)):
        report = pipeline.test_store(store, config)
    pipeline.save_json(report, args.out)
    agg = report["aggregate"]
    for name, row in agg["statistics"].items():
        print(f"{name}: {agg['total_stations']} stations, "
              f"reject H0(0): {row['reject_h0_0']}, reject H0(1): {row['reject_h0_1']}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    tid, sep, station = (args.print_matrix or "").rpartition(":")
    if args.print_matrix and not (tid and sep and station.isdecimal()):
        raise ConfigError(
            f"--print-matrix wants TRAIN:T with a station number T, got {args.print_matrix!r}")
    config = _config_from(args)
    store = pipeline.load_json(args.store, StoreError)
    with _naming_stores((store, args.store)):
        bundle = pipeline.train_bundle(store, config)
    pipeline.save_json(bundle, args.out)
    n_mat = sum(len(t["matrices"]) for t in bundle["trains"].values())
    print(f"bundle: strategy={config.strategy}, {len(bundle['trains'])} train(s), {n_mat} matrices")
    if args.print_matrix:
        (mat,) = pipeline.bundle_matrices(bundle, tid, int(station) - 1, int(station))
        print(format_matrix_text(mat, StateSpace(config.n_max)))
    return EXIT_OK


def cmd_forecast(args: argparse.Namespace) -> int:
    if args.target is None and args.store is None:
        raise ConfigError("forecast needs --target or --store to resolve the target station")
    config = _config_from(args)
    bundle = pipeline.load_json(args.bundle, BundleError)
    store = None if args.target is not None else pipeline.load_json(args.store, StoreError)
    with _naming_stores((store, args.store)):
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
    if args.baseline == "marginal" and not args.train_store:
        raise ConfigError("--baseline marginal needs --train-store")
    config = _config_from(args)
    store = pipeline.load_json(args.store, StoreError)
    bundle = pipeline.load_json(args.bundle, BundleError) if args.bundle else None
    train_store = pipeline.load_json(args.train_store, StoreError) if args.train_store else None
    with _naming_stores((store, args.store), (train_store, args.train_store)):
        report, payload = pipeline.evaluate_store(
            store, config, bundle=bundle, baseline=args.baseline,
            train_store=train_store, from_station=args.from_station, target=args.target,
        )
    pipeline.save_json(payload, args.out)
    with open(str(args.out) + ".csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "F_TR", "F_JP", "RWMSE", "total_score"])
        w.writerow([payload["method"], f"{report.f_tr:.5f}", f"{report.f_jp:.5f}",
                    f"{report.rwmse:.5f}", f"{report.score:.5f}"])
    print(f"{payload['method']}: F_TR={report.f_tr:.5f} F_JP={report.f_jp:.5f} "
          f"RWMSE={report.rwmse:.5f} score={report.score:.5f} (M={report.eval_count})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="railmc",
        description="Non-homogeneous Markov chain delay models: order testing, "
                    "matrix recovery, forecasting, and scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic timetable/realization CSVs")
    p.add_argument("--series", type=int, default=200, help="series per train")
    p.add_argument("--trains", type=int, default=1)
    p.add_argument("--length", type=int, default=5, help="stations per journey")
    p.add_argument("--dispersion", type=float, default=1.5)
    p.add_argument("--out-timetable", required=True)
    p.add_argument("--out-realization", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse CSVs into a series store")
    p.add_argument("--timetable", required=True)
    p.add_argument("--realization", required=True)
    p.add_argument("--out", required=True, help="series store JSON path")
    p.add_argument("--rejects", help="rejects report CSV path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("test", help="run the Markov property test over a store")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True, help="test report JSON path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("train", help="recover transition matrices into a bundle")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True, help="matrix bundle JSON path")
    p.add_argument("--print-matrix", metavar="TRAIN:T",
                   help="print one recovered matrix as a text grid")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", help="predict one train's delay at a future station")
    p.add_argument("--bundle", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--date", default="")
    p.add_argument("--station", type=int, required=True, help="current station index S")
    p.add_argument("--delay", type=int, required=True, help="current delay d(S) in minutes")
    p.add_argument("--target", type=int, help="target station index T")
    p.add_argument("--store", help="store for horizon-based target resolution")
    p.add_argument("--out", help="prediction record JSON path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", help="score predictions over a store")
    p.add_argument("--store", required=True, help="evaluation store JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--bundle", help="trained matrix bundle JSON")
    group.add_argument("--baseline", choices=list(pipeline.BASELINES))
    p.add_argument("--train-store", help="training store (for the marginal baseline)")
    p.add_argument("--from-station", type=int, default=1)
    p.add_argument("--target", type=int, help="fixed target station (else horizon-based)")
    p.add_argument("--out", required=True, help="score report JSON path (CSV mirror alongside)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EmptySelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (CoverageError, NoTargetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COVERAGE
    except (OSError, BundleError, ConfigError, IngestError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
