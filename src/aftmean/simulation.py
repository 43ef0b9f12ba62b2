"""Scenario-driven Monte Carlo engine for the estimation and prediction studies.

Each replicate draws its own RNG stream from (master seed, replicate index),
so summaries are bit-reproducible and independent of evaluation order.
Failed replicates are recorded and excluded from the summaries; more than 5%
failures aborts the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cox import fit_cox, predict_cox_mean
from .distributions import CensoringLaw, CovariateLaw, ErrorLaw, SeedSpec, SubjectModel
from .errors import ConfigError, DataError, EstimationError, SimulationError
from .gehan import DesignData, event_ols, fit_aft, predict_aft
from .survfit import Truncation

MAX_FAILURE_FRACTION = 0.05


@dataclass(frozen=True, kw_only=True)
class Scenario(SubjectModel):
    """One simulation setting: a subject model plus a sample size and replication plan.

    The model fields (intercept, slopes, error, covariates, censoring) are
    inherited, so replicates draw from ``scenario.sample`` directly.
    ``study`` is ``"estimation"`` or ``"prediction"``; the two studies'
    designs are written once, in :func:`parse_scenario_text`.
    """

    study: str
    n: int
    replications: int
    seed: int
    truncation: Truncation = Truncation()

    def __post_init__(self):
        super().__post_init__()
        if self.study not in ("estimation", "prediction"):
            raise ConfigError(f"unknown study kind {self.study!r}")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.n < 2:
            raise ConfigError("sample size must be >= 2")


@dataclass(frozen=True)
class SummaryTable:
    """Aggregated replication statistics for one scenario."""

    study: str
    parameters: tuple[str, ...]
    means: np.ndarray
    sds: np.ndarray
    censoring_rate: float
    n_replications: int
    n_failed: int
    ratios: np.ndarray | None = None


def mse_p(predictions, truths) -> float:
    """Mean squared prediction error against true failure times."""
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if predictions.shape != truths.shape or predictions.ndim != 1:
        raise DataError("predictions and truths must be equal-length vectors")
    if predictions.size == 0:
        raise DataError("empty prediction vector")
    return float(np.mean((truths - predictions) ** 2))


def censoring_rate(data: DesignData) -> float:
    """Fraction of censored subjects."""
    return float(1.0 - data.event.mean())


def _replicate(scenario: Scenario, parameters, estimate) -> SummaryTable:
    """The Monte Carlo loop of both studies.

    Replicate r draws its sample from ``SeedSpec(seed, r)``; ``estimate(rng,
    data)`` may draw more from the same stream and returns one value per
    parameter, or raises :class:`EstimationError` to drop the replicate.
    """
    rows, rates, causes = [], [], []
    for r in range(scenario.replications):
        rng = SeedSpec(scenario.seed, r).generator()
        data = DesignData(*scenario.sample(rng, scenario.n))
        rates.append(censoring_rate(data))
        try:
            rows.append(estimate(rng, data))
        except EstimationError as exc:
            causes.append(str(exc))
    if len(causes) > MAX_FAILURE_FRACTION * scenario.replications:
        raise SimulationError(
            f"{len(causes)} of {scenario.replications} replicates failed "
            f"(cap 5%); causes: {sorted(set(causes))}"
        )
    good = np.vstack(rows)
    means = good.mean(axis=0)
    if good.shape[0] > 1:
        sds = good.std(axis=0, ddof=1)
    else:
        sds = np.full(good.shape[1], np.nan)
    return SummaryTable(
        study=scenario.study,
        parameters=tuple(parameters),
        means=means,
        sds=sds,
        censoring_rate=float(np.mean(rates)),
        n_replications=scenario.replications,
        n_failed=len(causes),
    )


def run_estimation_scenario(scenario: Scenario) -> SummaryTable:
    """Monte Carlo over fits of the intercept-study model; means and SDs."""
    if scenario.study != "estimation":
        raise ConfigError("scenario is not an estimation study")

    def estimate(rng, data):
        fit = fit_aft(data, truncation=scenario.truncation)
        return np.concatenate([[fit.intercept], fit.slopes])

    names = ("alpha",) + tuple(f"beta{k + 1}" for k in range(len(scenario.slopes)))
    return _replicate(scenario, names, estimate)


def run_prediction_scenario(scenario: Scenario) -> SummaryTable:
    """Monte Carlo prediction comparison: per-replicate test-set MSEs.

    Each replicate draws a training set, then from the same stream an
    independent test set of true failure times; it fits the linear and Cox
    models on the training data and records both MSEs, plus the OLS
    baseline when the scenario is censoring-free.  Failed replicates count
    against the 5% cap, as in the estimation study.  ``ratios`` are the
    no-censoring mean MSEs over this table's: a censored scenario reruns
    itself with ``censoring=None`` and the same seed to get them.
    """
    if scenario.study != "prediction":
        raise ConfigError("scenario is not a prediction study")
    with_ols = scenario.censoring is None

    def estimate(rng, data):
        t_star, x_star = scenario.sample_true(rng, scenario.n)
        aft = fit_aft(data, truncation=scenario.truncation)
        mses = [mse_p(predict_aft(aft, x_star), t_star),
                mse_p(predict_cox_mean(fit_cox(data), x_star), t_star)]
        if with_ols:
            coef = event_ols(data)
            if coef is None:
                raise DataError("rank-deficient design matrix")
            mses.append(mse_p(coef[0] + x_star @ coef[1:], t_star))
        return np.asarray(mses)

    names = ("linear", "cox") + (("ols",) if with_ols else ())
    table = _replicate(scenario, names, estimate)
    baseline = table if with_ols else run_prediction_scenario(replace(scenario, censoring=None))
    return replace(table, ratios=baseline.means[: len(names)] / table.means)


# ---------------------------------------------------------------------------
# Flat key=value scenario files and the summary CSV layouts.

def _number(key: str, text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"scenario key {key!r}: {text.strip()!r} is not {noun}") from None


def _parse_law(key: str, text: str, law):
    """Read ``name(p1, p2, ...)`` or a bare ``name`` as ``law(name, params)``.

    ``law`` checks the name and parameters itself; the scenario key is put
    in front of any :class:`ConfigError` it raises.
    """
    name, paren, rest = text.strip().partition("(")
    params = ()
    if paren:
        rest = rest.rstrip()
        if not rest.endswith(")"):
            raise ConfigError(f"scenario key {key!r}: malformed law {text.strip()!r}")
        args = rest[:-1].strip()
        params = tuple(_number(key, v) for v in args.split(",")) if args else ()
    try:
        return law(name.strip().lower(), params)
    except ConfigError as exc:
        raise ConfigError(f"scenario key {key!r}: {exc}") from None


_COMMON_KEYS = {"study", "cens", "tau", "n", "reps", "seed", "mode", "epsilon"}
_LAW_KEYS = {"estimation": {"error", "x1", "x2"}, "prediction": {"x"}}
_SCENARIO_KEYS = _COMMON_KEYS.union(*_LAW_KEYS.values())
_DEFAULT_CENS = {"estimation": "uniform(0,5)", "prediction": "uniform(-3,3)"}


def parse_scenario_text(text: str, *, reps_override: int | None = None,
                        seed_override: int | None = None,
                        mode_override: str | None = None,
                        epsilon_override: float | None = None) -> Scenario:
    """Build a Scenario from flat ``key = value`` text (# starts a comment).

    The two studies' designs are stated here and nowhere else:

    - estimation: T = 2 + X1 + X2 + error, C ~ U(0, 5) ^ tau, X1 ~ bernoulli(0.5);
    - prediction: T = X + e0 with min-extreme-value e0, C ~ U(-3, 3) ^ tau.

    ``cens`` replaces the uniform base, and ``cens = none`` gives complete
    data (``censoring=None``).  An override that is not None replaces the
    file's value for its key.  A key given twice, a law key the study does
    not read (``error`` or ``x2`` in a prediction file, ``x`` in an
    estimation file), an ``epsilon`` in a file whose ``mode`` is not
    ``theoretical`` and a ``tau`` other than ``inf`` beside ``cens = none``
    raise :class:`ConfigError` naming the key, rather than being dropped.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"scenario line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _SCENARIO_KEYS:
            raise ConfigError(f"scenario line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"scenario line {lineno}: key {key!r} is given twice")
        entries[key] = value.strip()

    def need(key):
        if key not in entries:
            raise ConfigError(f"scenario file is missing required key {key!r}")
        return entries[key]

    study = need("study").lower()
    if study not in _LAW_KEYS:
        raise ConfigError(f"unknown study {study!r}")
    stray = sorted(entries.keys() - _COMMON_KEYS - _LAW_KEYS[study])
    if stray:
        raise ConfigError(f"scenario key {stray[0]!r} is not read by a {study} study")
    n = _number("n", need("n"), int)
    reps = reps_override if reps_override is not None else _number("reps", need("reps"), int)
    seed = seed_override if seed_override is not None else _number("seed", need("seed"), int)
    file_mode = entries.get("mode", "maxobs").lower()
    if "epsilon" in entries and file_mode != "theoretical":
        raise ConfigError(f"scenario key 'epsilon' is not read with mode = {file_mode}")
    mode = (mode_override or file_mode).lower()
    epsilon = epsilon_override
    if epsilon is None and mode == "theoretical":
        epsilon = _number("epsilon", entries.get("epsilon", "0.125"))
    truncation = Truncation(mode, epsilon)

    if entries.get("tau", "").lower() == "none":
        raise ConfigError("tau = none is not accepted; write cens = none for uncensored data")
    tau = _number("tau", entries.get("tau", "inf"))
    cens = entries.get("cens", _DEFAULT_CENS[study]).lower()
    if cens == "none" and tau != math.inf:
        raise ConfigError(f"scenario key 'tau': {tau:g} is not read with cens = none")
    base = None if cens == "none" else _parse_law("cens", cens, CensoringLaw)

    if study == "estimation":
        error = _parse_law("error", need("error"), ErrorLaw)
        x2 = _parse_law("x2", need("x2"), CovariateLaw)
        x1 = _parse_law("x1", entries.get("x1", "bernoulli(0.5)"), CovariateLaw)
        design = dict(covariates=(x1, x2), slopes=(1.0, 1.0), intercept=2.0 + error.mean())
    else:
        error = ErrorLaw("evmin")
        x = _parse_law("x", need("x"), CovariateLaw)
        design = dict(covariates=(x,), slopes=(1.0,), intercept=error.mean())
    return Scenario(
        study=study,
        error=error,
        **design,
        censoring=None if base is None else replace(base, tau=tau),
        n=n,
        replications=reps,
        seed=seed,
        truncation=truncation,
    )


def _fmt(v) -> str:
    if isinstance(v, float) and math.isnan(v):
        return ""
    return repr(float(v))


def summary_csv_text(table: SummaryTable) -> str:
    """SummaryTable as CSV, matching the reproduction table layouts."""
    if table.study == "estimation":
        header, first, second = "parameter,mean,sd", table.means, table.sds
    else:
        header, first, second = "model,ratio,mse", table.ratios, table.means
    lines = [f"{header},censoring_rate,n_replications,n_failed\n"]
    for name, a, b in zip(table.parameters, first, second):
        lines.append(
            f"{name},{_fmt(a)},{_fmt(b)},{_fmt(table.censoring_rate)},"
            f"{table.n_replications},{table.n_failed}\n"
        )
    return "".join(lines)
