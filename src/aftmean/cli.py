"""Command-line surface: fit, predict-cv, simulate.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 fitting error.
All output files are plain CSV with full-precision floats, so identical
inputs and seeds reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import gehan
from .distributions import SeedSpec
from .errors import ConfigError, DataError, EstimationError
from .gehan import DesignData, fit_aft, predict_aft
from .simulation import (
    parse_scenario_text,
    run_estimation_scenario,
    run_prediction_scenario,
    summary_csv_text,
)
from .survfit import Truncation, curve_points

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_FIT = 4

TAIL_RULE = 0.15  # the paper's rule of thumb: trust the intercept when the tail atom is below it


def load_csv(
    path: str,
    response: str,
    event: str,
    covariates: tuple[str, ...],
    log_time: bool = False,
) -> DesignData:
    """Read a headered CSV into a DesignData, optionally log-transforming the response."""
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    wanted = [response, event, *covariates]
    missing = [c for c in wanted if c not in header]
    if missing:
        raise DataError(f"{path}: missing column(s) {missing}; header has {header}")
    repeated = [c for c in dict.fromkeys(wanted) if header.count(c) > 1]
    if repeated:
        raise DataError(f"{path}: column(s) {repeated} appear more than once in the header")
    if len(rows) < 2:
        raise DataError(f"{path}: no data rows")
    idx = {c: header.index(c) for c in wanted}

    def cell(row_values, row_no, col):
        raw = row_values[idx[col]].strip()
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise DataError(
                f"{path}: row {row_no}, column {col!r}: {raw!r} is not a finite number")
        return value

    times, events, xs = [], [], []
    for row_no, values in enumerate(rows[1:], start=2):
        if not any(v.strip() for v in values):
            continue
        if len(values) < len(header):
            raise DataError(f"{path}: row {row_no} has {len(values)} of {len(header)} cells")
        t = cell(values, row_no, response)
        e = cell(values, row_no, event)
        if e not in (0.0, 1.0):
            raise DataError(
                f"{path}: row {row_no}, column {event!r}: event flag must be 0 or 1, got {e:g}"
            )
        if log_time:
            if t <= 0:
                raise DataError(
                    f"{path}: row {row_no}: response must be positive for --log-time, got {t:g}"
                )
            t = math.log(t)
        times.append(t)
        events.append(bool(e))
        xs.append([cell(values, row_no, c) for c in covariates])
    return DesignData(np.asarray(times), np.asarray(events), np.asarray(xs))


def _load_design(args) -> DesignData:
    if not args.covariates:
        raise ConfigError("at least one covariate column is required (--covariates)")
    names = [args.response, args.event, *args.covariates]
    repeated = [c for c in dict.fromkeys(names) if names.count(c) > 1]
    if repeated:
        raise ConfigError(
            f"--response, --event and --covariates name column(s) {repeated} more than once"
        )
    return load_csv(args.input, args.response, args.event, args.covariates, args.log_time)


def _check_outputs(sources, *outputs) -> None:
    """Raise ConfigError for an output path that resolves to an input file in
    ``sources``, is an existing directory, or lies in a missing directory."""
    for out in map(str, outputs):
        path = Path(out)
        for source in sources:
            if path.resolve() == Path(source).resolve():
                raise ConfigError(f"output {out!r} would overwrite the input {source!r}")
        if path.is_dir():
            raise ConfigError(f"output {out!r} is a directory")
        if not path.parent.is_dir():
            raise ConfigError(f"output {out!r}: no such directory {str(path.parent)!r}")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows([header, *rows])


def _km_curve_path(output: str) -> Path:
    out = Path(output)
    return out.parent / (out.stem + "_km" + (out.suffix or ".csv"))


def cmd_fit(args) -> int:
    km_path = _km_curve_path(args.output)
    _check_outputs([args.input], args.output, km_path)
    data = _load_design(args)
    SeedSpec(args.seed)  # a bad seed stops the run before the full-data solve
    truncation = Truncation(args.mode, args.epsilon)
    fit = fit_aft(data, truncation=truncation)
    terms = ["intercept", *args.covariates]
    estimates = [fit.intercept, *fit.slopes]
    ses = [None] * len(terms)
    if args.boot:
        # looked up on the module at call time, so a wrapper installed there sees it
        ses = gehan.bootstrap_se(data, args.boot, args.seed, init=fit.slopes,
                                 truncation=truncation)
    _write_csv(args.output, ["term", "estimate", "bootstrap_se"],
               [[term, repr(float(est)), "" if se is None else repr(float(se))]
                for term, est, se in zip(terms, estimates, ses)])
    _write_csv(km_path, ["t", "cdf", "survival"],
               [[repr(float(v)) for v in point] for point in curve_points(fit.residual_dist)])
    for term, est in zip(terms, estimates):
        print(f"{term:>12s}  {est:.6g}")
    verdict = "adequate" if fit.tail < TAIL_RULE else "NOT adequate"
    print(f"residual KM tail {fit.tail:.6g} -> {verdict} (rule of thumb: below {TAIL_RULE:g})")
    print(f"wrote {args.output} and {km_path}")
    return EXIT_OK


def cmd_predict_cv(args) -> int:
    _check_outputs([args.input], args.output)
    data = _load_design(args)
    if data.n < 3:
        raise DataError("leave-one-out cross-validation needs at least 3 subjects")
    truncation = Truncation(args.mode, args.epsilon)
    full = fit_aft(data, truncation=truncation)
    predictions = np.full(data.n, np.nan)
    failed = np.zeros(data.n, dtype=bool)
    for i in range(data.n):
        keep = np.arange(data.n) != i
        try:
            fold = fit_aft(data.subset(keep), truncation=truncation, init=full.slopes)
            predictions[i] = predict_aft(fold, data.covariates[i])
        except EstimationError:
            failed[i] = True
    _write_csv(args.output, ["subject", "observed", "event", "predicted", "fold_failed"],
               [[i + 1, repr(float(data.time[i])), int(data.event[i]),
                 "" if failed[i] else repr(float(predictions[i])), int(failed[i])]
                for i in range(data.n)])
    ok_events = data.event & ~failed
    if ok_events.any():
        mse = float(np.mean((data.time[ok_events] - predictions[ok_events]) ** 2))
        print(f"leave-one-out MSE over {int(ok_events.sum())} events: {mse:.6g}")
    if failed.any():
        print(f"{int(failed.sum())} fold(s) failed to fit")
    print(f"wrote {args.output}")
    return EXIT_OK


def _scenario_text(name: str) -> str:
    path = Path(name)
    if path.exists():
        if not path.is_file():
            raise ConfigError(f"scenario {name!r} is not a file")
        return path.read_text()
    stem = name if name.endswith(".cfg") else name + ".cfg"
    bundled = resources.files("aftmean").joinpath("configs", stem)
    if bundled.is_file():
        return bundled.read_text()
    raise ConfigError(f"scenario {name!r}: no such file and no bundled config")


def cmd_simulate(args) -> int:
    _check_outputs([args.scenario], args.output)
    text = _scenario_text(args.scenario)
    scenario = parse_scenario_text(
        text,
        reps_override=args.reps,
        seed_override=args.seed,
        mode_override=args.mode,
        epsilon_override=args.epsilon,
    )
    # the runners are looked up on this module at call time, so a wrapper
    # installed here sees them
    if scenario.study == "estimation":
        table = run_estimation_scenario(scenario)
    else:
        table = run_prediction_scenario(scenario)
    csv_text = summary_csv_text(table)
    with open(args.output, "w", newline="") as handle:
        handle.write(csv_text)
    sys.stdout.write(csv_text)
    print(f"wrote {args.output}")
    return EXIT_OK


_SEED_DEFAULT = 20260810


def _columns(text: str) -> tuple[str, ...]:
    return tuple(text.split(",")) if text else ()


def _boot_count(text: str) -> int:
    count = int(text)
    if count == 1 or count < 0:
        raise argparse.ArgumentTypeError(f"{count}: use 0 (no bootstrap) or at least 2")
    return count


def _add_model_flags(sub):
    sub.add_argument("--input", required=True, help="input CSV path")
    sub.add_argument("--response", required=True, help="response (time) column")
    sub.add_argument("--event", required=True, help="event flag column (1=event, 0=censored)")
    sub.add_argument("--covariates", required=True, type=_columns,
                     help="comma-separated covariate columns")
    sub.add_argument("--log-time", dest="log_time", action="store_true",
                     help="fit on the natural log of the response")


def _add_truncation_flags(sub):
    sub.add_argument("--mode", choices=("maxobs", "theoretical"), default="maxobs",
                     help="residual-distribution truncation rule")
    sub.add_argument("--epsilon", type=float, default=0.125,
                     help="epsilon for --mode theoretical")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aftmean",
        description="Censored linear regression with mean survival time estimation",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit the censored linear model")
    _add_model_flags(fit)
    _add_truncation_flags(fit)
    fit.add_argument("--output", required=True, help="coefficient CSV output path")
    fit.add_argument("--boot", type=_boot_count, default=0, help="bootstrap replicates for SEs")
    fit.add_argument("--seed", type=int, default=_SEED_DEFAULT, help="bootstrap master seed")

    cv = commands.add_parser("predict-cv", help="leave-one-out prediction report")
    _add_model_flags(cv)
    _add_truncation_flags(cv)
    cv.add_argument("--output", required=True, help="per-subject prediction CSV path")

    sim = commands.add_parser("simulate", help="run a Monte Carlo scenario")
    sim.add_argument("--scenario", required=True,
                     help="scenario file path or bundled config name")
    sim.add_argument("--output", required=True, help="summary CSV output path")
    sim.add_argument("--reps", type=int, default=None,
                     help="override the scenario's replication count")
    sim.add_argument("--seed", type=int, help="override the scenario's master seed")
    _add_truncation_flags(sim)
    # a flag left out keeps the scenario file's own seed, mode and epsilon
    sim.set_defaults(mode=None, epsilon=None)
    return parser


_HANDLERS = {
    "fit": cmd_fit,
    "predict-cv": cmd_predict_cv,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EstimationError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())
