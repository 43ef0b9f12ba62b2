"""Cox proportional hazards comparator.

Partial-likelihood slopes (Newton-Raphson with step halving, Breslow tie
handling), the Breslow baseline cumulative hazard, and mean-survival
prediction with the conditional distribution forced to one at the last
observed time.  Negative event times are fine throughout.  Every risk set
is a prefix of one latest-first order (``_risk_sets``), so Newton, the
monotone check and the Breslow hazard read running sums at the same ends.

With few events the partial likelihood can keep rising along a direction
u, so that no finite slope maximises it.  Bryson & Johnson (1981,
Technometrics 23:381): that happens exactly when every event's x'u is the
maximum of x'u over its risk set and some event's x'u is above the risk
set's minimum.  ``fit_cox`` checks this along Newton's direction and
along +-e_k for each covariate k and raises: a complete test at d = 1; at
d >= 2 a rise along any other direction goes unflagged.
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

# Newton takes one more step once the score norm is within SCORE_TOL * n,
# which at quadratic convergence leaves it at rounding level; a score still
# above SCORE_TOL * n after MAX_NEWTON_STEPS steps is a failed fit.
SCORE_TOL = 1e-9
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


def _risk_sets(data: DesignData):
    """Stable latest-first ``order``, its event rows ``ev``, and their risk-set ends.

    Event ``ev[k]`` is at risk with rows ``0 .. ends[k]`` of the order, the
    last of them the last subject tied with it: ties share one risk set.
    """
    order = np.argsort(-data.time, kind="stable")
    key = -data.time[order]
    ev = np.flatnonzero(data.event[order])
    ends = np.searchsorted(key, key[ev], side="right") - 1
    return order, ev, ends


def _rising_direction(beta, xs, ev, ends):
    """A direction u along which the likelihood keeps rising, or None.

    Tries beta / |beta| (beta != 0), then +-e_k for each axis k; running
    extremes of z = X u over the latest-first rows decide each in one pass.
    """
    d = xs.shape[1]
    norm = float(np.linalg.norm(beta))
    newton = [beta / norm] if norm > 0.0 else []
    axes = np.concatenate([np.eye(d), -np.eye(d)]) + 0.0  # + 0.0: no -0.0 entries
    for u in [*newton, *axes]:
        z = xs @ u
        top = np.maximum.accumulate(z)[ends]
        bottom = np.minimum.accumulate(z)[ends]
        if np.all(z[ev] >= top) and np.any(z[ev] > bottom):
            return u
    return None


def fit_cox(data: DesignData) -> CoxFit:
    """Newton-Raphson partial-likelihood fit from beta = 0 with step halving.

    Affinely collinear covariates, which leave the slope split arbitrary,
    raise ``CoxFitError``.  Newton stops one step after the score norm
    first drops to ``SCORE_TOL * n``, or at once on a zero score.  Wherever
    it stops, a likelihood that keeps rising along Newton's direction or an
    axis raises ``CoxFitError`` naming that u (module docstring).
    """
    if data.n_events() == 0:
        raise CoxFitError("no events: the partial likelihood is empty")
    order, ev, ends = _risk_sets(data)
    xs = data.covariates[order]
    xs = xs - xs[0]  # slopes are shift-invariant; a constant column becomes exactly 0
    rank = np.linalg.matrix_rank(xs)
    if 0 < rank < data.d:  # all-constant columns (rank 0) keep beta = 0
        raise CoxFitError(
            f"singular information matrix: the covariates are affinely collinear "
            f"(rank {rank} of {data.d})"
        )
    beta = np.zeros(data.d)
    threshold = SCORE_TOL * data.n
    ll, score, hess = kernels.cox_suffstats(beta, xs, ev, ends)
    converged = False
    for iterations in range(1, MAX_NEWTON_STEPS + 1):
        if converged or not np.any(score):
            break
        converged = np.max(np.abs(score)) <= threshold
        try:
            step = np.linalg.solve(-hess, score)
        except np.linalg.LinAlgError as exc:
            raise CoxFitError(f"singular information matrix: {exc}") from exc
        scale = 1.0
        improved = False
        for _ in range(40):
            candidate = beta + scale * step
            ll_new, score_new, hess_new = kernels.cox_suffstats(candidate, xs, ev, ends)
            if ll_new >= ll - 1e-13 * max(1.0, abs(ll)):
                improved = True
                break
            scale *= 0.5
        if not improved:
            break  # stalled; the checks below decide
        beta, ll, score, hess = candidate, ll_new, score_new, hess_new
    u = _rising_direction(beta, xs, ev, ends)
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
    """Baseline cumulative hazard: sum over event times of d / risk-set exp sum.

    Each event adds 1 / (the running exp sum at its risk-set end), earliest
    first; the hazard is read after the last event of each distinct time.
    """
    order, _, ends = _risk_sets(data)
    eta = data.covariates[order] @ np.asarray(beta, dtype=np.float64)
    shift = float(eta.max())
    risk = np.cumsum(np.exp(eta - shift)) * np.exp(shift)
    j = ends[::-1]  # events, earliest first
    cumhaz = np.cumsum(1.0 / risk[j])
    last = np.diff(j, append=-1) != 0  # the last event of each distinct time
    return BaselineHazard(data.time[order][j[last]], cumhaz[last])


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
