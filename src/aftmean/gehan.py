"""Gehan-weighted rank regression for censored linear models.

The slope estimate minimizes the convex piecewise-linear objective

    L(beta) = n**-2 * sum_i sum_j  event_i * max(e_j(beta) - e_i(beta), 0),

whose (almost-everywhere) gradient is the rank-based estimating function

    score(beta) = n**-2 * sum_i sum_j  event_i * 1(e_j >= e_i) * (x_i - x_j).

Samples without events or with affinely collinear covariates (a constant
column among them) raise :class:`GehanSolverError` before any search.

``d = 1`` is solved exactly in O(n log n) time and O(n) memory: bisection
on the one-sided derivative of the piecewise-linear profile, started from
``init`` or the event-only OLS slope, brackets the minimum until few
subjects change residual order across it; the kinks of their pairs then
give the minimizer (midpoint of a flat bottom), the same value a scan of
every kink gives.  A flat or unbounded profile raises from the same search,
in O(n) memory, carrying the finite end of the flat ray.  Higher dimensions
run deterministic Nelder-Mead with a coordinate-descent polish, each
coordinate step that line search; the result must drive the estimating
function below the discreteness-scale bound (coordinate range / n) or a
:class:`GehanSolverError` is raised carrying the best iterate.  Without
``init`` (a cold start) the searches start from zero, the event-only OLS
slopes and OLS +- 1.  With ``init`` (a warm start, such as full-data slopes
for a resample) one search starts there; the OLS starts join only when it
fails or misses the bound, and the result is then the best of all four.
``init`` must hold d finite values, else :class:`DataError`.

The intercept is the mean of the Kaplan-Meier estimate fitted to the
residuals at the estimated slopes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import kernels
from .distributions import SeedSpec
from .errors import DataError, EstimationError, GehanSolverError
from .survfit import StepDistribution, Truncation, km_fit, mean_of

_SLACK_REL = 1e-10  # relative slack when locating zero crossings of the profile
_TOL = 1e-6  # d > 1: Nelder-Mead xatol, and the step that ends coordinate descent
_SWEEPS = 8  # d > 1: most coordinate-descent sweeps after Nelder-Mead


@dataclass(frozen=True)
class DesignData:
    """A right-censored regression sample: times, event flags, covariate matrix."""

    time: np.ndarray
    event: np.ndarray
    covariates: np.ndarray

    def __post_init__(self):
        time = np.asarray(self.time, dtype=np.float64)
        event = np.asarray(self.event)
        x = np.asarray(self.covariates, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        if time.ndim != 1 or event.ndim != 1 or x.ndim != 2:
            raise DataError("time and event must be vectors, covariates a matrix")
        n = time.shape[0]
        if n < 1 or event.shape[0] != n or x.shape[0] != n:
            raise DataError("time, event, and covariate lengths disagree")
        if x.shape[1] < 1:
            raise DataError("at least one covariate column is required")
        if event.dtype != bool:
            vals = np.unique(event)
            if not np.isin(vals, (0, 1)).all():
                raise DataError(f"event flags must be 0/1, got values {vals!r}")
            event = event.astype(bool)
        if not np.isfinite(time).all() or not np.isfinite(x).all():
            raise DataError("times and covariates must be finite (no missing entries)")
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "covariates", x)

    @property
    def n(self) -> int:
        return self.time.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.shape[1]

    def n_events(self) -> int:
        return int(self.event.sum())

    def subset(self, idx) -> "DesignData":
        return DesignData(self.time[idx], self.event[idx], self.covariates[idx])


@dataclass(frozen=True)
class SolverReport:
    """What the slope solver did and how well the score vanished.

    The score is :func:`gehan_score`, which groups residual near-ties at
    machine precision; ``score_ratio`` is the max over coordinates
    of |score| divided by the acceptance bound (coordinate range / n).  The
    bound is enforced for d > 1 only: the d = 1 slope is the exact minimum,
    whose score on tied data may exceed it, and is reported as is.
    """

    loss: float
    score_norm: float
    score_ratio: float
    iterations: int
    method: str


@dataclass(frozen=True)
class AftFit:
    """Fitted censored linear model: slopes, KM-mean intercept, diagnostics.

    ``tail`` is the residual curve's survival just before the truncation
    point (the atom there); the paper's rule of thumb trusts the intercept
    when it is below 0.15.
    """

    intercept: float
    slopes: np.ndarray
    residual_dist: StepDistribution
    tail: float
    report: SolverReport


def residuals(data: DesignData, beta) -> np.ndarray:
    return data.time - data.covariates @ np.asarray(beta, dtype=np.float64)


def gehan_loss(beta, data: DesignData) -> float:
    """Convex rank objective at ``beta``."""
    eps = residuals(data, beta)
    order = np.argsort(eps, kind="stable")
    ds = data.event[order].astype(np.float64)
    return kernels.gehan_loss_sorted(eps[order], ds) / data.n**2


def gehan_score(beta, data: DesignData) -> np.ndarray:
    """Rank-based estimating function at ``beta``, in O(n log n).

    Residuals within 64 machine epsilons of the data's scale count as tied:
    rounding noise alone would turn the score at an exact fit into an
    arbitrary subgradient, where grouping near-ties gives zero.
    """
    fitted = data.covariates @ np.asarray(beta, dtype=np.float64)
    eps = data.time - fitted
    scale = max(1.0, float(np.max(np.abs(data.time))), float(np.max(np.abs(fitted))))
    quantum = 64.0 * np.finfo(np.float64).eps * scale
    snapped = np.round(eps / quantum) * quantum
    order = np.argsort(snapped, kind="stable")
    es = snapped[order]
    ds = data.event[order].astype(np.float64)
    xs = data.covariates[order]
    return kernels.gehan_score_sorted(es, ds, xs) / data.n**2


def _profile_minimum(bp, w, s0, slack):
    """Minimize a piecewise-linear convex profile given its kink structure.

    Returns the minimizer, treating near-zero derivative stretches as flat
    intervals (midpoint rule).  Raises on unbounded descent, carrying the
    finite end of the flat ray.  ``slack`` is ``_SLACK_REL`` times the total
    kink weight of the whole profile, of which ``bp`` may be a part.
    """
    order = np.argsort(bp, kind="stable")
    bp = bp[order]
    w = w[order]
    cum = s0 + np.cumsum(w)
    if s0 >= -slack:
        raise GehanSolverError(
            "unbounded direction: loss nonincreasing toward -inf",
            best=np.array([bp[0]]),
        )
    k = int(np.searchsorted(cum, -slack, side="left"))
    if k >= bp.size:
        raise GehanSolverError(
            "unbounded direction: loss nonincreasing toward +inf",
            best=np.array([bp[-1]]),
        )
    if cum[k] > slack:
        return float(bp[k])
    k2 = k
    while k2 + 1 < bp.size and cum[k2 + 1] <= slack:
        k2 += 1
    if k2 + 1 >= bp.size:
        raise GehanSolverError(
            "unbounded direction: loss flat toward +inf",
            best=np.array([bp[k]]),
        )
    return float(0.5 * (bp[k] + bp[k2 + 1]))


# ---------------------------------------------------------------------------
# d = 1 without the O(n_events * n) kink list.  The derivative of the
# profile at b is one sort of the residuals y - b x plus a suffix sum (at a
# residual tie, one of its one-sided values), so bisection on it brackets
# both ends of the minimum: the crossings of -slack and +slack that
# _profile_minimum looks for.  Once only a few subjects change order across
# the bracket, their pairs alone are enumerated and the kink scan finishes
# on them.  A profile flat toward -inf has no -slack crossing and one flat
# toward +inf no +slack crossing; the bracket then holds the one crossing
# there is, and the scan raises with the finite end of the flat ray.


def _sorted_derivative(ds, xs):
    """sum_i d_i * sum_{j after i} (x_i - x_j) over subjects in the given order."""
    m = xs.shape[0]
    suffix = np.cumsum(xs[::-1])[::-1]
    return float(ds @ ((m - np.arange(m)) * xs - suffix))


@dataclass(frozen=True)
class _Probe:
    """The profile at slope ``b``: residual order, derivative, near ties."""

    b: float
    order: np.ndarray
    deriv: float
    near: np.ndarray  # runs of residuals tied up to rounding, x not all equal


def _line_search_d1(y, delta, x, start):
    """Exact d = 1 minimizer in O(n log n) time and O(n) memory.

    Memory exceeds O(n) only when many kinks coincide at the minimum (a
    lattice of covariate and time values), which bisection cannot split.
    Returns (slope, derivative evaluations + kinks enumerated).  A flat or
    unbounded profile raises :class:`GehanSolverError` carrying the end of
    its flat ray, as a scan of every kink would, and so does a minimum
    beyond the float range; a non-constant ``x`` whose sums round its kink
    weight to zero raises carrying ``start``.
    """
    n = y.shape[0]
    # derivative at -inf and total kink weight from sorted x and prefix sums
    xsort = np.sort(x)
    prefix = np.concatenate([[0.0], np.cumsum(xsort)])
    xe = x[delta > 0.0]
    below = np.searchsorted(xsort, xe, side="left")
    above = np.searchsorted(xsort, xe, side="right")
    rise = (prefix[n] - prefix[above]) - (n - above) * xe
    fall = below * xe - prefix[below]
    s0 = -float(rise.sum())
    total = float(rise.sum() + fall.sum())
    if total == 0.0:  # x passed the rank check, but its spread is below its rounding
        raise GehanSolverError(
            "slope not identified: the covariate's spread is below the rounding of its values",
            best=np.array([start]),
        )
    slack = _SLACK_REL * total
    # lo must lie left of the first crossing, hi right of the last
    left_of_first = (lambda s: s <= slack) if s0 >= -slack else (lambda s: s < -slack)
    right_of_last = (lambda s: s >= -slack) if s0 + total <= slack else (lambda s: s > slack)

    # Residuals closer than this may sort against the sign of their kink
    # expression (gap / slope).  A run of them goes to the local scan whole
    # unless it shares one x value (duplicated rows): such pairs have no kink.
    ulps = 8.0 * np.finfo(np.float64).eps
    ymax = float(np.max(np.abs(y)))
    xmax = float(np.max(np.abs(x)))
    rank = np.arange(n)
    probes = 0

    def probe(b):
        nonlocal probes
        probes += 1
        e = y - b * x
        order = np.argsort(e, kind="stable")
        xs = x[order]
        apart = np.diff(e[order]) > ulps * (ymax + abs(b) * xmax)
        runs = np.flatnonzero(np.concatenate([[True], apart]))
        mixed = np.maximum.reduceat(xs, runs) > np.minimum.reduceat(xs, runs)
        near = np.empty(n, dtype=bool)
        near[order] = np.repeat(mixed, np.diff(np.append(runs, n)))
        return _Probe(b, order, _sorted_derivative(delta[order], xs), near)

    def moved(lo, hi):
        """Subjects whose residual order differs between the two ends."""
        pos = np.empty(n, dtype=np.intp)
        pos[hi.order] = rank
        p = pos[lo.order]
        out = np.zeros(n, dtype=bool)
        out[lo.order] = (np.maximum.accumulate(p) > p) | (
            np.minimum.accumulate(p[::-1])[::-1] < p
        )
        return out | lo.near | hi.near

    def few(lo, hi):
        """The movers form at most n pairs, so their kinks fit in O(n)."""
        k = int(moved(lo, hi).sum())
        return k * (k - 1) <= 2 * n

    def bisect(lo, hi, left_of):
        while not few(lo, hi):
            b = lo.b + 0.5 * (hi.b - lo.b)
            if not lo.b < b < hi.b:
                break
            p = probe(b)
            if left_of(p.deriv):
                lo = p
            else:
                hi = p
        return lo, hi

    # bracket by doubling steps
    spread = float(np.ptp(y)) / float(np.ptp(x)) + abs(start)
    first_step = spread / n if spread > 0.0 else 1.0
    lo = hi = probe(start)
    step = first_step
    while not left_of_first(lo.deriv) and np.isfinite(start - step):
        lo = probe(start - step)
        step *= 2.0
    step = first_step
    while not right_of_last(hi.deriv) and np.isfinite(start + step):
        hi = probe(start + step)
        step *= 2.0
    if not left_of_first(lo.deriv) or not right_of_last(hi.deriv):
        end = hi if left_of_first(lo.deriv) else lo
        raise GehanSolverError(
            "line search bracket overflows the float range", best=np.array([end.b])
        )

    lo, right = bisect(lo, hi, left_of_first)
    if right_of_last(right.deriv):
        hi = right
    else:  # right lies on a flat bottom: bracket its far end on its own
        hi = bisect(right, hi, lambda s: s <= slack)[1]

    # Pairs among the movers come from their kinks; every other pair keeps
    # its order over [lo, hi], so its share of the derivative is read at lo.
    sub = moved(lo, hi)
    bp, w, s_sub = kernels.d1_pair_profile(y[sub], delta[sub], x[sub])
    keep = sub[lo.order]
    inner = _sorted_derivative(delta[lo.order][keep], x[lo.order][keep])
    beta1 = _profile_minimum(bp, w, lo.deriv - inner + s_sub, slack)
    return beta1, probes + bp.size


def event_ols(data: DesignData) -> np.ndarray | None:
    """Least squares of time on an intercept and the covariates over the events.

    Returns (intercept, slopes...), or None when those rows leave the
    design rank deficient (fewer events than coefficients included).
    """
    ev = data.event
    a = np.column_stack([np.ones(int(ev.sum())), data.covariates[ev]])
    coef, _, rank, _ = np.linalg.lstsq(a, data.time[ev], rcond=None)
    return coef if rank == a.shape[1] else None


def _solve_with_report(data: DesignData, init) -> tuple[np.ndarray, SolverReport]:
    if data.n_events() == 0:
        raise GehanSolverError("no events: the rank objective is identically zero")
    delta = data.event.astype(np.float64)
    y = data.time
    x = data.covariates
    d = data.d
    rank = np.linalg.matrix_rank(x - x[0])  # a constant column becomes exactly 0
    if rank < d:
        raise GehanSolverError(
            f"slope not identified: the covariates are affinely collinear (rank {rank} of {d})"
        )
    if init is not None:
        init = np.asarray(init, dtype=np.float64).reshape(-1)
        if init.size != d:
            raise DataError(f"init has {init.size} values; the design has {d} covariates")
        if not np.isfinite(init).all():
            raise DataError("init must be finite (no NaN or inf)")

    if d == 1:
        if init is not None:
            start = float(init[0])
        else:
            ols = event_ols(data)
            start = 0.0 if ols is None else float(ols[1])
        beta1, iterations = _line_search_d1(y, delta, x[:, 0], start)
        return _checked_report(data, np.array([beta1]), iterations, "bisection+local-scan")

    ols = event_ols(data)
    if ols is not None:
        slopes = ols[1:]
        ols_starts = [slopes, slopes + 1.0, slopes - 1.0]
    else:
        ols_starts = [np.ones(d), -np.ones(d)]
    # A warm start (a resample or fold from the full-data slopes) is solved
    # alone; the OLS starts join only when that solve fails, and then the
    # result is the one the cold multistart from the same starts gives.
    if init is None:
        batches = [[np.zeros(d)] + ols_starts]
    else:
        batches = [[init], ols_starts]

    loss = lambda b: gehan_loss(b, data)
    iterations = 0
    candidates = []  # (loss, slopes) per search; the first least loss wins
    for batch in batches:
        for start in batch:
            nm = minimize(
                loss,
                start,
                method="Nelder-Mead",
                options=dict(xatol=_TOL, fatol=1e-12, maxiter=200 * d, maxfev=200 * d),
            )
            iterations += nm.nit
            candidates.append((nm.fun, nm.x))
        best = min(candidates, key=lambda c: c[0])[1]
        try:
            beta, sweeps = _coordinate_descent(y, delta, x, best.copy())
            return _checked_report(
                data, beta, iterations + sweeps, "nelder-mead+coordinate"
            )
        except GehanSolverError:
            if batch is batches[-1]:
                raise


def _checked_report(data: DesignData, beta, iterations, method):
    """(beta, report); for d > 1, raises when the score misses the n**-1 bound."""
    score = gehan_score(beta, data)
    bounds = np.ptp(data.covariates, axis=0) / data.n  # positive: no column is constant
    ratio = float(np.max(np.abs(score) / bounds))
    report = SolverReport(
        loss=gehan_loss(beta, data),
        score_norm=float(np.max(np.abs(score))),
        score_ratio=ratio,
        iterations=int(iterations),
        method=method,
    )
    if data.d > 1 and ratio > 1.0 + 1e-9:
        raise GehanSolverError(
            f"score norm {report.score_norm:.3e} exceeds the n**-1 acceptance bound",
            best=beta,
        )
    return beta, report


def _coordinate_descent(y, delta, x, beta):
    d = beta.shape[0]
    for sweep in range(_SWEEPS):
        shift = 0.0
        for k in range(d):
            others = np.delete(np.arange(d), k)
            y_adj = y - x[:, others] @ beta[others]
            try:
                bk, _ = _line_search_d1(y_adj, delta, x[:, k], beta[k])
            except GehanSolverError as exc:
                # the profile error carries only coordinate k's endpoint
                best = beta.copy()
                best[k] = exc.best[0]
                raise GehanSolverError(str(exc), best=best) from exc
            shift = max(shift, abs(bk - beta[k]))
            beta[k] = bk
        if shift <= _TOL:
            break
    return beta, sweep + 1


def fit_aft(data: DesignData, *, truncation: Truncation = Truncation(), init=None) -> AftFit:
    """Full pipeline: rank-based slopes, then KM-mean intercept on the residuals.

    ``init`` warm-starts the slope solve (see the module docstring);
    ``truncation`` names where the residual distribution is forced to one.
    """
    beta, report = _solve_with_report(data, init)
    dist = km_fit(residuals(data, beta), data.event, truncation)
    return AftFit(mean_of(dist), beta, dist, float(dist.masses[-1]), report)


def bootstrap_se(
    data: DesignData,
    replicates: int,
    seed: int = 0,
    *,
    init,
    truncation: Truncation = Truncation(),
) -> np.ndarray:
    """Nonparametric bootstrap standard errors for (intercept, slopes).

    Resample ``b`` draws subjects with replacement from ``SeedSpec(seed, b)``
    and is fitted by :func:`fit_aft` under ``truncation``; resamples whose
    fit fails are dropped, and more than 20% failures aborts with an error.
    Each resample is solved from ``init``, the full-data slopes, as in
    ``bootstrap_se(data, 500, seed=1, init=fit.slopes)``; at d > 1 the OLS
    starts join only when that single search fails or misses the score bound
    (see the module docstring).
    """
    if replicates < 2:
        raise GehanSolverError("bootstrap needs at least 2 replicates")
    estimates = []
    failures = 0
    for b in range(replicates):
        rng = SeedSpec(seed, b).generator()
        idx = rng.integers(0, data.n, data.n)
        sub = data.subset(idx)
        try:
            fit = fit_aft(sub, truncation=truncation, init=init)
        except EstimationError:
            failures += 1
            continue
        estimates.append(np.concatenate([[fit.intercept], fit.slopes]))
    if failures > 0.2 * replicates:
        raise GehanSolverError(
            f"bootstrap failed on {failures} of {replicates} resamples (>20%)"
        )
    return np.std(np.vstack(estimates), axis=0, ddof=1)


def predict_aft(fit: AftFit, xnew) -> float | np.ndarray:
    """Predicted mean failure time ``intercept + x'slopes``."""
    xnew = np.asarray(xnew, dtype=np.float64)
    if xnew.ndim == 1:
        return float(fit.intercept + xnew @ fit.slopes)
    return fit.intercept + xnew @ fit.slopes
