"""Hot numeric kernels, vectorized with NumPy.

Inputs arrive pre-sorted where order matters.  Callers reach these through
the module (``kernels.<name>(...)``) rather than importing the functions, so
a profiler can time each kernel by rebinding its module attribute.

Raw-sum convention: the Gehan kernels return the unnormalized double sum;
callers divide by n**2.
"""

import numpy as np

# Events per block in d1_pair_profile: bounds the pair matrices to
# PAIR_CHUNK * n entries however many events there are.
PAIR_CHUNK = 256

# ---------------------------------------------------------------------------
# Gehan loss: sum_i d_i * sum_{j: e_j > e_i} (e_j - e_i), residuals ascending.


def gehan_loss_sorted(es, ds):
    n = es.shape[0]
    hi = np.searchsorted(es, es, side="right")
    suffix = np.concatenate([np.cumsum(es[::-1])[::-1], [0.0]])
    return float(np.sum(ds * (suffix[hi] - (n - hi) * es)))


# ---------------------------------------------------------------------------
# Gehan score: sum_i d_i * sum_{j: e_j >= e_i} (x_i - x_j), per coordinate.


def gehan_score_sorted(es, ds, xs):
    n, d = xs.shape
    lo = np.searchsorted(es, es, side="left")
    suffix = np.vstack([np.cumsum(xs[::-1], axis=0)[::-1], np.zeros((1, d))])
    cnt = (n - lo).astype(np.float64)
    return (ds[:, None] * (cnt[:, None] * xs - suffix[lo])).sum(axis=0)


# ---------------------------------------------------------------------------
# One-dimensional profile of the piecewise-linear loss: every event/other
# pair with x_j != x_i contributes a kink at (y_j - y_i)/(x_j - x_i) where
# the derivative jumps up by |x_j - x_i|; s0 is the derivative at -inf.
# Called only on the subset of subjects the line search isolates, flat or
# unbounded profiles included; a subset's kinks are the same floats as in
# the list over all subjects.


def d1_pair_profile(y, delta, x):
    ev = np.flatnonzero(delta > 0.0)
    parts_bp = []
    parts_w = []
    s0 = 0.0
    for start in range(0, ev.size, PAIR_CHUNK):
        idx = ev[start : start + PAIR_CHUNK]
        slope = x[None, :] - x[idx, None]
        gap = y[None, :] - y[idx, None]
        keep = slope != 0.0
        b = slope[keep]
        parts_bp.append(gap[keep] / b)
        parts_w.append(np.abs(b))
        s0 -= b[b > 0.0].sum()
    if not parts_bp:
        return np.empty(0), np.empty(0), 0.0
    return np.concatenate(parts_bp), np.concatenate(parts_w), float(s0)


# ---------------------------------------------------------------------------
# Cox partial likelihood (loglik, score, hessian) at beta, Breslow ties.  Rows
# of xs run latest time first and event ev[k] is at risk with rows 0..ends[k]
# (cox._risk_sets), so running sums read at ends are risk-set sums.  The one
# shift, max(eta), can underflow a late risk set's sum at large |beta|.


def cox_suffstats(beta, xs, ev, ends):
    eta = xs @ beta
    shift = float(eta.max())
    w = np.exp(eta - shift)
    s0 = np.cumsum(w)[ends]
    s1 = np.cumsum(w[:, None] * xs, axis=0)[ends]
    s2 = np.cumsum(w[:, None, None] * (xs[:, :, None] * xs[:, None, :]), axis=0)[ends]
    xbar = s1 / s0[:, None]
    loglik = float(np.sum(eta[ev] - (np.log(s0) + shift)))
    score = (xs[ev] - xbar).sum(axis=0)
    hess = -(s2 / s0[:, None, None] - xbar[:, :, None] * xbar[:, None, :]).sum(axis=0)
    return loglik, score, hess


def active_backend() -> str:
    """Name of the kernel implementation; the benchmark's environment record reads it."""
    return "numpy"
