"""Independent brute-force reference implementations used as test oracles.

Everything here evaluates the defining formulas literally (double loops,
direct products, grid scans) and deliberately shares no code with the
library paths it checks.
"""

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from aftmean.errors import GehanSolverError


def km_cdf_literal(t, residuals, events):
    """Direct product-limit evaluation: F(t) = 1 - prod over residuals <= t."""
    n = len(residuals)
    prod = 1.0
    for i in range(n):
        if residuals[i] <= t:
            at_risk = np.sum(residuals >= residuals[i]) / n
            prod *= 1.0 - (events[i] / n) / at_risk
    return 1.0 - prod


def km_mean_literal(residuals, events, truncation):
    """Mean of the literal product-limit curve with the leftover atom at ``truncation``."""
    distinct = np.unique(residuals[events > 0])
    mean = 0.0
    prev_cdf = 0.0
    for u in distinct:
        if u >= truncation:
            break
        cdf = km_cdf_literal(u, residuals, events)
        mean += u * (cdf - prev_cdf)
        prev_cdf = cdf
    return mean + truncation * (1.0 - prev_cdf)


def gehan_score_double_sum(beta, y, delta, x):
    """Literal O(n^2) estimating function."""
    n, d = x.shape
    eps = y - x @ np.asarray(beta, dtype=float)
    out = np.zeros(d)
    for i in range(n):
        if delta[i] > 0:
            for j in range(n):
                if eps[j] >= eps[i]:
                    out += x[i] - x[j]
    return out / n**2


def gehan_loss_double_sum(beta, y, delta, x):
    """Literal O(n^2) convex rank objective."""
    n = len(y)
    eps = y - x @ np.asarray(beta, dtype=float)
    total = 0.0
    for i in range(n):
        if delta[i] > 0:
            for j in range(n):
                gap = eps[j] - eps[i]
                if gap > 0:
                    total += gap
    return total / n**2


def gehan_loss_on_grid(y, delta, x, grid):
    """Vectorized literal loss over a 1-d grid of slope values."""
    n = len(y)
    xv = x[:, 0]
    ev = delta > 0
    gap = y[None, :] - y[ev][:, None]
    slope = xv[None, :] - xv[ev][:, None]
    vals = np.maximum(
        gap[:, :, None] - slope[:, :, None] * grid[None, None, :], 0.0
    ).sum(axis=(0, 1))
    return vals / n**2


def gehan_d1_scan(y, delta, x):
    """Exact d = 1 Gehan slope from a scan of every kink of the loss profile.

    Every event i and subject j with x_j != x_i put a kink at
    (y_j - y_i) / (x_j - x_i), where the derivative in the slope rises by
    |x_j - x_i|; far left it is -sum (x_j - x_i) over the pairs with
    x_j > x_i.  With slack = 1e-10 times the total kink weight, the minimizer
    is the first kink where the derivative reaches -slack, or, when the
    derivative is still within slack there, the midpoint between that kink
    and the first one past +slack.  Returns None when there is no kink; a
    loss flat or falling toward either infinity raises GehanSolverError
    carrying the finite end of the ray.  O(n_events * n) memory.
    """
    kinks, weights, s0 = [], [], 0.0
    for i in np.flatnonzero(delta > 0):
        other = x != x[i]
        slope = x[other] - x[i]
        kinks.append((y[other] - y[i]) / slope)
        weights.append(np.abs(slope))
        s0 -= slope[slope > 0].sum()
    bp = np.concatenate(kinks) if kinks else np.empty(0)
    if bp.size == 0:
        return None
    order = np.argsort(bp, kind="stable")
    bp = bp[order]
    w = np.concatenate(weights)[order]
    slack = 1e-10 * w.sum()
    cum = s0 + np.cumsum(w)
    if s0 >= -slack:
        raise GehanSolverError(
            "unbounded direction: loss nonincreasing toward -inf", best=np.array([bp[0]])
        )
    reached = np.flatnonzero(cum >= -slack)
    if reached.size == 0:
        raise GehanSolverError(
            "unbounded direction: loss nonincreasing toward +inf", best=np.array([bp[-1]])
        )
    k = reached[0]
    if cum[k] > slack:
        return float(bp[k])
    past = np.flatnonzero(cum > slack)
    if past.size == 0:
        raise GehanSolverError(
            "unbounded direction: loss flat toward +inf", best=np.array([bp[k]])
        )
    return float(0.5 * (bp[k] + bp[past[0]]))


def gehan_lp(data):
    """Gehan slopes from the pairwise linear program of Jin, Lin, Wei & Ying (2003).

    Minimises sum u_ij over every event i and subject j != i, subject to
    u_ij >= (y_j - y_i) - (x_j - x_i)'beta and u >= 0, with HiGHS on sparse
    constraints.  Returns the LP's beta; score it with the loss itself, not
    with the solver's objective, which carries its feasibility tolerance.
    """
    y, x = data.time, data.covariates
    n, d = x.shape
    i, j = np.meshgrid(np.flatnonzero(data.event), np.arange(n), indexing="ij")
    pair = i != j
    i, j = i[pair], j[pair]
    # -u_ij - (x_j - x_i)'beta <= -(y_j - y_i)
    a_ub = sparse.hstack([sparse.csr_matrix(x[i] - x[j]), -sparse.identity(i.size)])
    result = linprog(
        np.concatenate([np.zeros(d), np.ones(i.size)]),
        A_ub=a_ub.tocsr(),
        b_ub=y[i] - y[j],
        bounds=[(None, None)] * d + [(0.0, None)] * i.size,
        method="highs",
    )
    assert result.status == 0, result.message
    return result.x[:d]


def cox_score_direct(beta, y, delta, x):
    """Partial-likelihood score from its defining sums, one covariate."""
    n = len(y)
    out = 0.0
    for i in range(n):
        if delta[i] > 0:
            risk = y >= y[i]
            w = np.exp(beta * x[risk])
            out += x[i] - np.sum(w * x[risk]) / np.sum(w)
    return out


def cox_loglik_direct(beta, y, delta, x):
    """Partial log-likelihood from its defining sums, one covariate."""
    out = 0.0
    for i in range(len(y)):
        if delta[i] > 0:
            risk = y >= y[i]
            out += beta * x[i] - np.log(np.sum(np.exp(beta * x[risk])))
    return out


def cox_suffstats_direct(beta, y, delta, x):
    """Breslow log-likelihood, score and Hessian from their defining risk-set sums.

    ``x`` is an (n, d) matrix; each event's risk set is every subject with
    ``y >= y_i``, so tied times share one risk set.
    """
    n, d = x.shape
    beta = np.asarray(beta, dtype=float)
    loglik = 0.0
    score = np.zeros(d)
    hess = np.zeros((d, d))
    for i in range(n):
        if delta[i] > 0:
            xr = x[y >= y[i]]
            w = np.exp(xr @ beta)
            total = np.sum(w)
            xbar = (w @ xr) / total
            second = (w[:, None] * xr).T @ xr / total
            loglik += x[i] @ beta - np.log(total)
            score += x[i] - xbar
            hess -= second - np.outer(xbar, xbar)
    return loglik, score, hess


def breslow_direct(beta, y, delta, x):
    """Breslow cumulative hazard at each distinct event time, from its defining sums.

    Lambda(t) = sum over distinct event times s <= t of (events at s) /
    sum_{j: y_j >= s} exp(x_j' beta), every sum a Python loop over subjects.
    Returns (times ascending, cumulative hazards).
    """
    beta = [float(b) for b in np.ravel(beta)]
    rows = [[float(v) for v in row] for row in np.atleast_2d(x)]
    times = sorted({float(t) for t, d in zip(y, delta) if d})
    total = 0.0
    cumhaz = []
    for s in times:
        deaths = sum(1 for t, d in zip(y, delta) if d and t == s)
        risk = math.fsum(
            math.exp(math.fsum(b * v for b, v in zip(beta, row)))
            for t, row in zip(y, rows)
            if t >= s
        )
        total += deaths / risk
        cumhaz.append(total)
    return np.array(times), np.array(cumhaz)


def bisect_root(fn, lo, hi, tol=1e-12, max_iter=200):
    """Plain bisection for a decreasing-or-increasing continuous function."""
    flo = fn(lo)
    fhi = fn(hi)
    assert flo * fhi < 0, "root not bracketed"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if abs(hi - lo) < tol:
            return mid
        if flo * fmid <= 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def predict_cox_mean_dense(fit, xnew):
    """Cox mean prediction with every test row in one dense matrix.

    The same arithmetic as the library's blocked version, on the whole
    n_test x (jump points) matrix at once.
    """
    xmat = np.atleast_2d(np.asarray(xnew, dtype=float))
    eta = np.clip(xmat @ fit.slopes, -700.0, 700.0)
    keep = fit.baseline.times < fit.t_max
    t_ev = fit.baseline.times[keep]
    lam = fit.baseline.cumhaz[keep]
    if t_ev.size == 0:
        return np.full(xmat.shape[0], fit.t_max)
    surv = np.exp(-np.exp(eta)[:, None] * lam[None, :])
    return t_ev[0] + surv @ np.diff(t_ev, append=fit.t_max)


def predict_cox_mean_fsum(fit, row):
    """Cox mean for one covariate row, summed by parts in pure Python.

    t_1 + sum_k (t_{k+1} - t_k) * exp(-Lambda_k * exp(eta)) with
    t_{K+1} = t_max: each term from the math module, their sum correctly
    rounded by fsum.
    """
    eta = sum(float(a) * float(b) for a, b in zip(row, fit.slopes))
    r = math.exp(min(max(eta, -700.0), 700.0))
    pts = [(float(t), float(c)) for t, c in zip(fit.baseline.times, fit.baseline.cumhaz)
           if t < fit.t_max]
    if not pts:
        return float(fit.t_max)
    ends = [t for t, _ in pts[1:]] + [float(fit.t_max)]
    terms = [(end - t) * math.exp(-c * r) for (t, c), end in zip(pts, ends)]
    return math.fsum([pts[0][0]] + terms)


def cox_monotone_lp(data):
    """Whether the Cox partial likelihood is monotone, by a linear program.

    Bryson & Johnson (1981): no finite slope maximises the likelihood exactly
    when some u makes (x_i - x_j)'u >= 0 for every event i and every j at
    risk at t_i (y_j >= y_i), with at least one term positive.  HiGHS
    maximises the sum of those terms subject to each being >= 0 and
    |u_k| <= 1; the likelihood is monotone when the optimum is positive
    beyond the solver's tolerance.
    """
    y, x = data.time, data.covariates
    i, j = np.nonzero(data.event[:, None] & (y[None, :] >= y[:, None]))
    diff = x[i] - x[j]
    result = linprog(
        -diff.sum(axis=0),
        A_ub=-diff,
        b_ub=np.zeros(i.size),
        bounds=[(-1.0, 1.0)] * x.shape[1],
        method="highs",
    )
    assert result.status == 0, result.message
    return -result.fun > 1e-7 * max(1.0, np.abs(diff).sum())
