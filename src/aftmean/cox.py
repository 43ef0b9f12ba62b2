"""Cox proportional hazards comparator.

Partial-likelihood slopes (Newton-Raphson with step halving, Breslow tie
handling), the Breslow baseline cumulative hazard, and mean-survival
prediction with the conditional distribution forced to one at the last
observed time.  Negative event times are fine throughout.

With few events the partial likelihood can keep rising along a direction
u, so that no finite slope maximises it.  Bryson & Johnson (1981,
Technometrics 23:381): that happens exactly when every event's x'u is the
maximum of x'u over its risk set and some event's x'u is above the risk
set's minimum.  ``fit_cox`` checks this along Newton's direction and raises:
a complete test at d = 1 (u = +1 or -1), Newton's direction only at d >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import CoxFitError
from .gehan import DesignData

# Test rows per block in predict_cox_mean: each block of survival values
# exp(-Lambda_k * e^eta) is written into one PREDICT_BLOCK x (baseline jump
# points) buffer, allocated once per call and reused by every block.
PREDICT_BLOCK = 128

# The most Newton steps fit_cox takes; a score still above tol * n after
# them is a failed fit.
MAX_NEWTON_STEPS = 60


@dataclass(frozen=True)
class BaselineHazard:
    """Breslow step estimate of the baseline cumulative hazard."""

    times: np.ndarray  # distinct event times, ascending
    cumhaz: np.ndarray


@dataclass(frozen=True)
class CoxReport:
    loglik: float
    score_norm: float
    iterations: int


@dataclass(frozen=True)
class CoxFit:
    """Fitted comparator: slopes, baseline hazard, last observed time."""

    slopes: np.ndarray
    baseline: BaselineHazard
    t_max: float
    report: CoxReport


def _descending(data: DesignData):
    order = np.argsort(-data.time, kind="stable")
    return (
        data.time[order],
        data.event[order].astype(np.float64),
        data.covariates[order],
    )


def _suffstats(beta, ys, ds, xs):
    eta = xs @ beta
    shift = float(eta.max())
    return kernels.cox_suffstats(eta, ys, ds, xs, shift)


def _rising_direction(beta, ys, ds, xs):
    """u = beta / |beta| when the partial likelihood keeps rising along u.

    ``ys`` runs in descending time, so an event's risk set is the prefix
    ending with its tie group, and running extremes of z = X u decide the
    Bryson-Johnson condition in one pass.  None when it fails or beta = 0.
    """
    norm = float(np.linalg.norm(beta))
    if norm == 0.0:
        return None
    u = beta / norm
    z = xs @ u
    ends = np.flatnonzero(np.append(ys[1:] != ys[:-1], True))
    sizes = np.diff(ends, prepend=-1)
    top = np.repeat(np.maximum.accumulate(z)[ends], sizes)
    bottom = np.repeat(np.minimum.accumulate(z)[ends], sizes)
    ev = ds > 0
    if np.all(z[ev] >= top[ev]) and np.any(z[ev] > bottom[ev]):
        return u
    return None


def fit_cox(data: DesignData, tol: float = 1e-9) -> CoxFit:
    """Newton-Raphson partial-likelihood fit from beta = 0 with step halving.

    Convergence means the score norm drops to ``tol * n`` within
    ``MAX_NEWTON_STEPS`` steps.  Wherever Newton stops, a likelihood that
    keeps rising along u = beta / |beta| raises ``CoxFitError`` naming u:
    at d = 1 exactly when no finite slope exists, at d >= 2 only when
    Newton's own direction is monotone (module docstring).
    """
    if data.n_events() == 0:
        raise CoxFitError("no events: the partial likelihood is empty")
    ys, ds, xs = _descending(data)
    d = data.d
    beta = np.zeros(d)
    threshold = tol * data.n
    ll, score, hess = _suffstats(beta, ys, ds, xs)
    iterations = 0
    for iterations in range(1, MAX_NEWTON_STEPS + 1):
        if np.max(np.abs(score)) <= threshold:
            break
        try:
            step = np.linalg.solve(-hess, score)
        except np.linalg.LinAlgError as exc:
            raise CoxFitError(f"singular information matrix: {exc}") from exc
        scale = 1.0
        improved = False
        for _ in range(40):
            candidate = beta + scale * step
            ll_new, score_new, hess_new = _suffstats(candidate, ys, ds, xs)
            if ll_new >= ll - 1e-13 * max(1.0, abs(ll)):
                improved = True
                break
            scale *= 0.5
        if not improved:
            break  # stalled; the checks below decide
        beta, ll, score, hess = candidate, ll_new, score_new, hess_new
    u = _rising_direction(beta, ys, ds, xs)
    if u is not None:
        raise CoxFitError(
            "monotone likelihood: the partial likelihood keeps rising along "
            f"u = {np.array2string(u, precision=4)}, so no finite slope maximises it"
        )
    score_norm = float(np.max(np.abs(score)))
    if not score_norm <= threshold:  # a NaN score fails too
        raise CoxFitError(
            f"Newton stopped after {iterations} iterations "
            f"(score norm {score_norm:.3e})"
        )
    baseline = breslow(beta, data)
    report = CoxReport(loglik=ll, score_norm=score_norm, iterations=iterations)
    return CoxFit(beta, baseline, float(data.time.max()), report)


def breslow(beta, data: DesignData) -> BaselineHazard:
    """Baseline cumulative hazard: sum over event times of d / risk-set exp sum."""
    beta = np.asarray(beta, dtype=np.float64)
    order = np.argsort(data.time, kind="stable")
    ys = data.time[order]
    ds = data.event[order].astype(np.float64)
    eta = data.covariates[order] @ beta
    shift = float(eta.max())
    w = np.exp(eta - shift)
    suffix = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])
    times, first = np.unique(ys, return_index=True)
    d_g = np.add.reduceat(ds, first)
    risk = suffix[first] * np.exp(shift)
    has_event = d_g > 0
    cumhaz = np.cumsum(d_g[has_event] / risk[has_event])
    return BaselineHazard(times[has_event], cumhaz)


def predict_cox_mean(fit: CoxFit, xnew) -> float | np.ndarray:
    """Mean of 1 - exp(-Lambda0(t) * exp(x'beta)), forced to one at t_max.

    Summed by parts over the baseline jump points t_1 < ... < t_K below
    t_max: mean = t_1 + sum_k (t_{k+1} - t_k) * exp(-Lambda0(t_k) * exp(x'beta)),
    with t_{K+1} = t_max.  Rows are computed ``PREDICT_BLOCK`` at a time in
    one reused buffer, so memory stays O(block * jump points).
    """
    xnew = np.asarray(xnew, dtype=np.float64)
    single = xnew.ndim == 1
    xmat = xnew[None, :] if single else xnew
    eta = np.clip(xmat @ fit.slopes, -700.0, 700.0)
    keep = fit.baseline.times < fit.t_max
    t_ev = fit.baseline.times[keep]
    lam = fit.baseline.cumhaz[keep]
    if t_ev.size == 0:
        out = np.full(xmat.shape[0], fit.t_max)
        return float(out[0]) if single else out
    dt = np.diff(t_ev, append=fit.t_max)
    neg_r = -np.exp(eta)
    n_rows = xmat.shape[0]
    starts = list(range(0, n_rows, PREDICT_BLOCK))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        # numpy takes a one-row product through dot, which rounds unlike the
        # matrix-vector product of a taller block: a lone last row joins the
        # block before it, so every row sums as in one dense product
        starts.pop()
    stops = starts[1:] + [n_rows]
    buf = np.empty((max(b - a for a, b in zip(starts, stops)), lam.size))
    mean = np.empty(n_rows)
    for start, stop in zip(starts, stops):
        surv = buf[: stop - start]
        np.multiply(neg_r[start:stop, None], lam[None, :], out=surv)
        np.exp(surv, out=surv)
        mean[start:stop] = t_ev[0] + surv @ dt
    return float(mean[0]) if single else mean
