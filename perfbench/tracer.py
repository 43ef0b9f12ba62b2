"""In-memory span tracer that times calls into the aftmean modules.

Spans are recorded by rebinding the module (or class) attributes that the
callers look up at call time, e.g. ``aftmean.gehan.km_fit`` (gehan imported
``km_fit`` by name, so rebinding ``aftmean.survfit.km_fit`` would not be
seen) or ``aftmean.kernels.d1_pair_profile`` (gehan calls it as
``kernels.d1_pair_profile``).  No source file of the package changes.  A
hook whose attribute no longer exists is skipped, and its metrics read 0.

Each span is ``(name, start, end, parent, rep)``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``rep`` the replicate id, which
advances at every ``SubjectModel.sample`` call (one per Monte Carlo
replicate) and at every slope solve inside ``bootstrap_se`` (one per
resample).  Spans stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import csv
import statistics
import time
from collections import Counter

# (dotted owner, attribute, span name).  The owner is the namespace the
# caller looks the name up in, not necessarily the defining module.
SPAN_HOOKS = (
    ("aftmean.cli", "load_csv", "cli.load_csv"),
    ("aftmean.cli", "run_estimation_scenario", "simulation.run"),
    ("aftmean.cli", "run_prediction_scenario", "simulation.run"),
    ("aftmean.cli", "fit_aft", "gehan.fit_aft"),
    ("aftmean.simulation", "fit_aft", "gehan.fit_aft"),
    ("aftmean.simulation", "fit_cox", "cox.fit_cox"),
    ("aftmean.simulation", "predict_cox_mean", "cox.predict_cox_mean"),
    ("aftmean.distributions.SubjectModel", "sample", "distributions.sample"),
    ("aftmean.distributions.SubjectModel", "sample_true", "distributions.sample"),
    ("aftmean.gehan", "bootstrap_se", "gehan.bootstrap_se"),
    ("aftmean.gehan", "minimize", "gehan.minimize"),
    ("aftmean.gehan", "km_fit", "survfit.km_fit"),
    ("aftmean.cox", "breslow", "cox.breslow"),
    ("aftmean.kernels", "gehan_loss_sorted", "kernels.gehan_loss_sorted"),
    ("aftmean.kernels", "gehan_score_sorted", "kernels.gehan_score_sorted"),
    ("aftmean.kernels", "d1_pair_profile", "kernels.d1_pair_profile"),
    ("aftmean.kernels", "cox_suffstats", "kernels.cox_suffstats"),
)

# The slope solver is counted, not timed: its time stays in the self time
# of gehan.fit_aft / gehan.bootstrap_se, which is where the kink argsort
# and the residual sorts show up.
SOLVE_HOOK = ("aftmean.gehan", "_solve_with_report")

# Nelder-Mead starts a standard d > 1 solve makes; more means it escalated.
STANDARD_STARTS = 4

KINK_BYTES = 16  # one float64 breakpoint plus one float64 weight per kink

# Every per-layer metric the tracer reports, in output order.
PER_LAYER_METRICS = (
    ("kernels.gehan_loss_sorted.calls", "count"),
    ("kernels.gehan_loss_sorted.busy_s", "s"),
    ("kernels.d1_pair_profile.calls", "count"),
    ("kernels.d1_pair_profile.busy_s", "s"),
    ("kernels.d1_pair_profile.kinks", "count"),
    ("kernels.d1_pair_profile.bytes_computed", "B"),
    ("kernels.gehan_score_sorted.calls", "count"),
    ("kernels.gehan_score_sorted.busy_s", "s"),
    ("kernels.cox_suffstats.calls", "count"),
    ("kernels.cox_suffstats.busy_s", "s"),
    ("gehan.fit_aft.calls", "count"),
    ("gehan.fit_aft.p50_ms", "ms"),
    ("gehan.fit_aft.p90_ms", "ms"),
    ("gehan.fit_aft.self_s", "s"),
    ("gehan.solves", "count"),
    ("gehan.failed_solves", "count"),
    ("gehan.minimize.calls", "count"),
    ("gehan.minimize.busy_s", "s"),
    ("gehan.loss_evals_per_fit", "count"),
    ("gehan.escalated_fits", "count"),
    ("gehan.iterations_per_fit", "count"),
    ("gehan.score_ratio_max", "ratio"),
    ("gehan.line_searches_per_fit", "count"),
    ("gehan.kinks_per_line_search", "count"),
    ("gehan.bootstrap_se.busy_s", "s"),
    ("gehan.bootstrap_se.self_s", "s"),
    ("survfit.km_fit.calls", "count"),
    ("survfit.km_fit.busy_s", "s"),
    ("cox.fit_cox.calls", "count"),
    ("cox.fit_cox.busy_s", "s"),
    ("cox.newton_iters_per_fit", "count"),
    ("cox.breslow.busy_s", "s"),
    ("cox.predict_cox_mean.busy_s", "s"),
    ("distributions.sample.calls", "count"),
    ("distributions.sample.busy_s", "s"),
    ("simulation.run.busy_s", "s"),
    ("simulation.self_s", "s"),
    ("simulation.failed_reps", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.load_csv.busy_s", "s"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
)


# Layer isolation: metrics that must read 0 on a workload.
MUST_BE_ZERO = {
    "mc-estimation": ("cox.fit_cox.calls",),
    "mc-prediction": ("gehan.minimize.calls",),
    "fit-bootstrap": ("cox.fit_cox.calls", "distributions.sample.calls",
                      "simulation.run.busy_s"),
}


def _resolve(dotted: str):
    """Import ``a.b.C`` as module ``a.b`` plus attribute path ``C``."""
    import importlib

    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


class Tracer:
    """Records spans and solver counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.score_ratios: list[float] = []
        self.solver_iterations: list[int] = []
        self.cox_iterations: list[int] = []
        self.solve_failures: Counter = Counter()  # "Class: message" -> count
        self.rep = -1
        self._stack: list[int] = []
        self._in_bootstrap = 0
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that each call records one span called ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self
        new_rep = name == "distributions.sample" and fn.__name__ == "sample"
        bootstrap = name == "gehan.bootstrap_se"
        on_result = {
            "kernels.d1_pair_profile": self._count_kinks,
            "gehan.minimize": self._count_minimize,
            "cox.fit_cox": self._count_newton,
        }.get(name)

        def traced(*args, **kwargs):
            if new_rep:
                tracer.rep += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            tracer._in_bootstrap += bootstrap
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._in_bootstrap -= bootstrap
                spans[idx] = (name, start, end, parent, tracer.rep)
            if on_result is not None:
                on_result(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_kinks(self, profile):
        self.counts["kinks"] += profile[0].size

    def _count_minimize(self, _result):
        self.counts["minimize"] += 1

    def _count_newton(self, cox_fit):
        self.cox_iterations.append(cox_fit.report.iterations)

    def _wrap_solve(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer._in_bootstrap:
                tracer.rep += 1
            before = tracer.counts["minimize"]
            tracer.counts["solves"] += 1
            try:
                beta, report = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts["failed_solves"] += 1
                tracer.solve_failures[f"{type(exc).__name__}: {exc}"] += 1
                raise
            finally:
                if tracer.counts["minimize"] - before > STANDARD_STARTS:
                    tracer.counts["escalated"] += 1
            tracer.score_ratios.append(report.score_ratio)
            tracer.solver_iterations.append(report.iterations)
            return beta, report

        counted.__wrapped__ = fn
        return counted

    # -- installation ------------------------------------------------------

    def _rebind(self, owner_name: str, attr: str, make):
        owner = _resolve(owner_name)
        if attr not in vars(owner):
            return
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def install(self):
        """Rebind every hooked attribute; :meth:`uninstall` restores them."""
        for owner, attr, name in SPAN_HOOKS:
            self._rebind(owner, attr, lambda fn, name=name: self.wrap(name, fn))
        self._rebind(*SOLVE_HOOK, self._wrap_solve)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write every span as CSV: index, name, start, end, parent, rep."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "name", "start", "end", "parent", "rep"])
            for idx, (name, start, end, parent, rep) in enumerate(self.spans):
                writer.writerow([idx, name, repr(start), repr(end), parent, rep])


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest strictly, so children of one parent
    never overlap and their durations simply add.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _quantile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) of ``values``; 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(tracer: Tracer, failed_reps: int, overhead_frac: float) -> dict:
    """Per-layer metrics, keyed as in :data:`PER_LAYER_METRICS`."""
    calls: Counter = Counter()
    busy: Counter = Counter()
    own: Counter = Counter()
    fit_ms = []
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end = span[0], span[1], span[2]
        calls[name] += 1
        busy[name] += end - start
        own[name] += self_s
        if name == "gehan.fit_aft":
            fit_ms.append(1e3 * (end - start))
    counts = tracer.counts
    solves = counts["solves"] or calls["gehan.fit_aft"]
    line_searches = calls["kernels.d1_pair_profile"]
    values = {
        "kernels.d1_pair_profile.kinks": counts["kinks"],
        "kernels.d1_pair_profile.bytes_computed": KINK_BYTES * counts["kinks"],
        "gehan.fit_aft.p50_ms": _quantile(fit_ms, 50),
        "gehan.fit_aft.p90_ms": _quantile(fit_ms, 90),
        "gehan.solves": counts["solves"],
        "gehan.failed_solves": counts["failed_solves"],
        "gehan.loss_evals_per_fit": calls["kernels.gehan_loss_sorted"] / max(solves, 1),
        "gehan.escalated_fits": counts["escalated"],
        "gehan.iterations_per_fit": statistics.fmean(tracer.solver_iterations)
        if tracer.solver_iterations else 0.0,
        "gehan.score_ratio_max": max(tracer.score_ratios, default=0.0),
        "gehan.line_searches_per_fit": line_searches / max(solves, 1),
        "gehan.kinks_per_line_search": counts["kinks"] / max(line_searches, 1),
        "cox.newton_iters_per_fit": statistics.fmean(tracer.cox_iterations)
        if tracer.cox_iterations else 0.0,
        "simulation.self_s": own["simulation.run"],
        "simulation.failed_reps": failed_reps,
        "cli.self_s": own["cli.main"],
        "trace.spans": len(tracer.spans),
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for key, unit in PER_LAYER_METRICS:
        if key not in values:
            span_name, _, field = key.rpartition(".")
            table = {"calls": calls, "busy_s": busy, "self_s": own}[field]
            values[key] = table[span_name]
        out[key] = {"value": values[key], "unit": unit}
    return out


def invariant_violations(workload: str, metrics: dict) -> list[str]:
    """Layer-isolation and count invariants the traced metrics break."""
    value = {key: metric["value"] for key, metric in metrics.items()}
    problems = [
        f"{key} = {value[key]} on {workload}, expected 0"
        for key in MUST_BE_ZERO[workload]
        if value[key] != 0
    ]
    checks = {
        # A fit whose slope solve fails never reaches km_fit.
        "survfit.km_fit.calls >= gehan.fit_aft.calls - gehan.failed_solves":
            value["survfit.km_fit.calls"]
            >= value["gehan.fit_aft.calls"] - value["gehan.failed_solves"],
        "gehan.failed_solves <= gehan.solves":
            value["gehan.failed_solves"] <= value["gehan.solves"],
        "gehan.fit_aft.p50_ms <= gehan.fit_aft.p90_ms":
            value["gehan.fit_aft.p50_ms"] <= value["gehan.fit_aft.p90_ms"],
        "kernels.d1_pair_profile.bytes_computed == 16 * kernels.d1_pair_profile.kinks":
            value["kernels.d1_pair_profile.bytes_computed"]
            == KINK_BYTES * value["kernels.d1_pair_profile.kinks"],
    }
    return problems + [f"{rule} fails on {workload}" for rule, ok in checks.items() if not ok]
