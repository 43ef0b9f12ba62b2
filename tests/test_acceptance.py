"""Acceptance suite: every exit criterion at its pinned tolerance.

One pass/fail line per criterion is printed (visible with ``pytest -s``).
The real-data criterion (C12) needs the standard 418-patient PBC file,
supplied by the user via the AFTMEAN_PBC environment variable or at
``tests/data/pbc.csv``; it is skipped when the file is absent.
"""

import csv
import math
import os
from pathlib import Path

import numpy as np
import pytest

import aftmean as am
from aftmean.errors import GehanSolverError
from aftmean.simulation import parse_scenario_text
from conftest import random_censored_sample
from oracles import (
    bisect_root,
    cox_score_direct,
    gehan_loss_on_grid,
    gehan_score_double_sum,
    km_cdf_literal,
    km_mean_literal,
)

EULER = 0.5772156649015329


def _report(cid, checks):
    ok = all(c for c, _ in checks)
    detail = "; ".join(t for _, t in checks)
    print(f"[ACCEPTANCE] {cid} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{cid}: " + "; ".join(t for c, t in checks if not c)


def _within(value, target, tol, label):
    return (
        abs(value - target) <= tol,
        f"{label}={value:.4f} (target {target:g} +- {tol:g})",
    )


# =============================================================== oracles


def test_c01_km_against_literal_product_limit():
    rng = np.random.default_rng(90001)
    worst = 0.0
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 26))
        vals = rng.normal(size=n)
        ev = rng.random(n) < rng.uniform(0.3, 0.95)
        if not ev.any():
            continue
        dist = am.km_fit(vals, ev)
        delta = ev.astype(float)
        for t in dist.support[:-1]:
            worst = max(worst, abs(dist.cdf(t) - km_cdf_literal(t, vals, delta)))
        worst = max(
            worst,
            abs(am.mean_of(dist) - km_mean_literal(vals, delta, dist.truncation)),
        )
        checked += 1
    hand = am.mean_of(am.km_fit([1, 2, 3, 4], [1, 0, 1, 0]))
    _report(
        "C1",
        [
            (worst <= 1e-12, f"max |km - literal| = {worst:.2e} over 1000 samples"),
            (hand == 2.875, f"4-point example mean = {hand!r} (exactly 2.875)"),
        ],
    )


def test_c02_gehan_score_against_double_sum():
    rng = np.random.default_rng(90002)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        if rng.random() < 0.3:
            y = np.round(y * 2) / 2  # exercise residual ties
        ev = rng.random(n) < rng.uniform(0.3, 1.0)
        beta = rng.normal(size=d)
        fast = am.gehan_score(beta, am.DesignData(y, ev, x))
        slow = gehan_score_double_sum(beta, y, ev.astype(float), x)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    toy = am.DesignData(
        np.array([1.0, 2.0, 3.0]), np.ones(3), np.array([[0.0], [1.0], [2.0]])
    )
    val = am.gehan_score([0.0], toy)[0]
    _report(
        "C2",
        [
            (worst <= 1e-12, f"max |fast - double sum| = {worst:.2e} over 1000 instances"),
            (abs(val + 4.0 / 9.0) <= 1e-15, f"worked example score = {val:.15f} (-4/9)"),
        ],
    )


def test_c03_solver_against_grid_minimization():
    rng = np.random.default_rng(90003)
    grid = np.arange(-3.0, 3.0 + 1e-9, 1e-3) + 1.0  # centered at the true slope
    checked = 0
    skipped = 0
    loss_ok = True
    loc_ok = True
    while checked < 200:
        n = int(rng.integers(8, 21))
        y, ev, x = random_censored_sample(rng, n, d=1)
        if ev.sum() < 2:
            continue
        data = am.DesignData(y, ev, x)
        try:
            beta = am.fit_aft(data).slopes
        except GehanSolverError:
            skipped += 1  # genuinely unbounded loss: no minimizer to compare
            continue
        losses = gehan_loss_on_grid(y, ev.astype(float), x, grid)
        best = losses.min()
        loss_ok &= am.gehan_loss(beta, data) <= best + 1e-12
        near = grid[losses <= best + 1e-9]
        loc_ok &= near.min() - 1.5e-3 <= beta[0] <= near.max() + 1.5e-3
        checked += 1
    _report(
        "C3",
        [
            (loss_ok, f"solver loss <= grid optimum on {checked} instances"),
            (loc_ok, "solver inside the grid's near-optimal set"),
            (skipped < 40, f"{skipped} unbounded instances excluded"),
        ],
    )


def test_c04_finite_differences_match_score():
    rng = np.random.default_rng(90004)
    h = 1e-7
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(8, 25))
        y, ev, x = random_censored_sample(rng, n, d=2)
        if not ev.any():
            continue
        data = am.DesignData(y, ev, x)
        beta = rng.normal(0.0, 1.5, 2)
        grad = np.empty(2)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            grad[k] = (am.gehan_loss(beta + e, data) - am.gehan_loss(beta - e, data)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(grad - am.gehan_score(beta, data)))))
        checked += 1
    _report(
        "C4",
        [
            (
                worst <= 1e-6,
                f"max |central FD - score| = {worst:.2e} at 100 non-kink points "
                "(the loss is the primitive of the estimating function)",
            )
        ],
    )


def test_c05_cox_newton_vs_bisection_and_nelson_aalen():
    rng = np.random.default_rng(90005)
    worst = 0.0
    checked = 0
    while checked < 40:
        y = np.sort(rng.normal(size=3))
        x = rng.normal(size=(3, 1))
        if np.ptp(x) < 0.3:
            continue
        score = lambda b: cox_score_direct(b, y, np.ones(3), x[:, 0])
        if score(-8.0) * score(8.0) >= 0:
            continue  # monotone-likelihood instance, no finite root
        data = am.DesignData(y, np.ones(3), x)
        fit = am.fit_cox(data)
        root = bisect_root(score, -8.0, 8.0)
        worst = max(worst, abs(fit.slopes[0] - root))
        checked += 1

    # beta = 0 Breslow equals the Nelson-Aalen estimator exactly
    y, ev, x = random_censored_sample(np.random.default_rng(90015), 40, d=1)
    base = am.breslow(np.zeros(1), am.DesignData(y, ev, x))
    times = np.unique(y[ev])
    na = np.cumsum([np.sum(ev & (y == t)) / np.sum(y >= t) for t in times])
    na_err = float(np.max(np.abs(base.cumhaz - na)))
    _report(
        "C5",
        [
            (worst <= 1e-8, f"max |newton - bisection| = {worst:.2e} on {checked} instances"),
            (na_err <= 1e-12, f"breslow(beta=0) vs nelson-aalen: {na_err:.2e}"),
        ],
    )


# =============================================================== desk-scale tables


def test_c06_estimation_tau4_n400():
    sc = parse_scenario_text(
        "study = estimation\nerror = normal(0.5)\nx2 = normal(0,1)\n"
        "tau = 4\nn = 400\nreps = 300\nseed = 41004\n"
    )
    t = am.run_estimation_scenario(sc)
    _report(
        "C6",
        [
            _within(t.means[0], 2.00, 0.01, "alpha mean"),
            _within(t.sds[0], 0.04, 0.01, "alpha sd"),
            _within(t.means[1], 1.00, 0.02, "beta1 mean"),
            _within(t.means[2], 1.00, 0.01, "beta2 mean"),
        ],
    )


def test_c07_estimation_tau15_n100_heavy_censoring():
    sc = parse_scenario_text(
        "study = estimation\nerror = normal(0.5)\nx2 = normal(0,1)\n"
        "tau = 1.5\nn = 100\nreps = 300\nseed = 2222\n"
    )
    t = am.run_estimation_scenario(sc)
    _report(
        "C7",
        [
            _within(t.means[0], 2.00, 0.04, "alpha mean"),
            _within(t.sds[0], 0.22, 0.04, "alpha sd"),
            (0.80 <= t.censoring_rate <= 0.86, f"censoring rate {t.censoring_rate:.2f}"),
        ],
    )


def test_c08_estimation_bias_case_narrow_support():
    sc = parse_scenario_text(
        "study = estimation\nerror = t(30)\nx2 = uniform(-0.5,0)\n"
        "tau = 1.5\nn = 400\nreps = 300\nseed = 777\n"
    )
    t = am.run_estimation_scenario(sc)
    _report(
        "C8",
        [
            (
                1.50 <= t.means[0] <= 1.70,
                f"alpha mean {t.means[0]:.3f} in [1.50, 1.70] (documented bias 1.59)",
            )
        ],
    )


@pytest.fixture(scope="module")
def prediction_tables():
    body = "study = prediction\nx = normal(0,1)\nn = 200\nreps = 300\nseed = 41002\n"
    unc = am.run_prediction_scenario(parse_scenario_text(body + "cens = none\n"))
    cen = am.run_prediction_scenario(parse_scenario_text(body + "tau = -2\n"))
    return unc, cen


def test_c09_prediction_tau_minus2(prediction_tables):
    unc, cen = prediction_tables
    _report(
        "C9",
        [
            _within(cen.means[0], 1.95, 0.15, "linear mse"),
            _within(cen.means[1], 5.08, 0.40, "cox mse"),
            _within(cen.ratios[0], 0.86, 0.08, "linear ratio"),
            _within(cen.ratios[1], 0.33, 0.08, "cox ratio"),
        ],
    )


def test_c10_prediction_no_truncation(prediction_tables):
    unc, _ = prediction_tables
    # ideal predictor E(T|X) = X - gamma: MSE converges to Var(e0) = pi^2/6
    rng = am.SeedSpec(90010).generator()
    n = 100_000
    xs = rng.normal(0.0, 1.0, n)
    ts = xs - rng.gumbel(0.0, 1.0, n)
    ideal = am.mse_p(xs - EULER, ts)
    _report(
        "C10",
        [
            _within(unc.means[0], 1.65, 0.05, "linear mse"),
            _within(unc.means[1], 1.65, 0.05, "cox mse"),
            _within(unc.means[2], 1.65, 0.05, "ols mse"),
            _within(ideal, math.pi**2 / 6.0, 0.02, "ideal-predictor mse"),
        ],
    )


def test_c11_cross_model_slopes_cancel():
    model = am.SubjectModel(
        intercept=-EULER,
        slopes=(1.0,),
        error=am.ErrorLaw("evmin"),
        covariates=(am.CovariateLaw("normal", (0.0, 1.0)),),
        censoring=None,
    )
    worst = 0.0
    for r in range(20):
        y, ev, x = model.sample(am.SeedSpec(90011, r).generator(), 2000)
        data = am.DesignData(y, ev, x)
        bg = am.fit_aft(data).slopes[0]
        bc = am.fit_cox(data).slopes[0]
        worst = max(worst, abs(bc + bg))
    _report(
        "C11",
        [(worst <= 0.1, f"max |beta_cox + beta_gehan| = {worst:.4f} over 20 runs at n=2000")],
    )


# =============================================================== real data


def _pbc_path():
    env = os.environ.get("AFTMEAN_PBC")
    if env and Path(env).exists():
        return Path(env)
    local = Path(__file__).parent / "data" / "pbc.csv"
    return local if local.exists() else None


def _load_pbc(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cols = rows[0].keys()
    bili = "bili" if "bili" in cols else "bilirubin"
    needed = ["time", "status", "age", "albumin", bili, "edema", "protime"]
    missing = [c for c in needed if c not in cols]
    if missing:
        pytest.skip(f"PBC file lacks columns {missing}")
    y, ev, x = [], [], []
    statuses = {float(r["status"]) for r in rows if r["status"] not in ("", "NA")}
    death_code = 2.0 if 2.0 in statuses else 1.0
    for r in rows:
        vals = [r[c] for c in needed]
        if any(v in ("", "NA", "NaN") for v in vals):
            continue
        y.append(math.log(float(r["time"])))
        ev.append(float(r["status"]) == death_code)
        x.append(
            [
                float(r["age"]),
                math.log(float(r["albumin"])),
                math.log(float(r[bili])),
                float(r["edema"]),
                math.log(float(r["protime"])),
            ]
        )
    return am.DesignData(np.asarray(y), np.asarray(ev), np.asarray(x))


def test_c12_pbc_reproduction():
    path = _pbc_path()
    if path is None:
        print(
            "[ACCEPTANCE] C12 SKIP: supply the standard 418-patient PBC file via "
            "AFTMEAN_PBC or tests/data/pbc.csv"
        )
        pytest.skip("PBC data file not supplied (see README)")
    data = _load_pbc(path)
    fit = am.fit_aft(data)
    published = np.array([-0.025, 1.498, -0.554, -0.904, -2.822])
    errs = np.abs(fit.slopes - published)
    _report(
        "C12",
        [
            (
                bool((errs <= 0.02).all()),
                f"slopes {np.round(fit.slopes, 3).tolist()} within +-0.02 of published",
            ),
            _within(fit.intercept, 8.692, 0.05, "intercept"),
            (fit.tail < 0.15, f"tail {fit.tail:.4f} adequate"),
        ],
    )


# =============================================================== properties


def test_c13_property_suite():
    checks = []
    rng = np.random.default_rng(90013)

    # score translation invariance
    y, ev, x = random_censored_sample(rng, 40, d=2)
    data = am.DesignData(y, ev, x)
    beta = np.array([0.4, -0.2])
    drift = float(
        np.max(np.abs(am.gehan_score(beta, am.DesignData(y + 7.5, ev, x)) - am.gehan_score(beta, data)))
    )
    checks.append((drift <= 1e-12, f"score translation drift {drift:.1e}"))

    # solver equivariance under y -> y + c * x
    y1, ev1, x1 = random_censored_sample(rng, 30, d=1)
    b0 = am.fit_aft(am.DesignData(y1, ev1, x1)).slopes[0]
    b1 = am.fit_aft(am.DesignData(y1 + 2.5 * x1[:, 0], ev1, x1)).slopes[0]
    checks.append((abs(b1 - (b0 + 2.5)) <= 1e-9, f"equivariance error {abs(b1 - b0 - 2.5):.1e}"))

    # KM equals the ECDF without censoring
    vals = rng.normal(size=45)
    dist = am.km_fit(vals, np.ones(45))
    ecdf_err = float(np.max(np.abs(dist.cdf_values - np.arange(1, 46) / 45)))
    mean_err = abs(am.mean_of(dist) - vals.mean())
    checks.append((ecdf_err <= 1e-12 and mean_err <= 1e-12, f"KM=ECDF error {ecdf_err:.1e}"))

    # d=1 score monotonicity on a scanned grid
    y2, ev2, x2 = random_censored_sample(rng, 25, d=1)
    grid = np.linspace(-4, 4, 201)
    scores = [am.gehan_score([b], am.DesignData(y2, ev2, x2))[0] for b in grid]
    checks.append(((np.diff(scores) >= -1e-12).all(), "d=1 score monotone on grid"))

    # consistency trend: slope error shrinks from n=100 to n=400
    def mean_err_at(n):
        sc = parse_scenario_text(
            f"study = estimation\nerror = normal(0.5)\nx2 = normal(0,1)\n"
            f"tau = 4\nn = {n}\nreps = 1\nseed = 0\n"
        )
        errs = []
        for r in range(30):
            g = am.SeedSpec(90014, r).generator()
            yy, ee, xx = sc.sample(g, n)
            bb = am.fit_aft(am.DesignData(yy, ee, xx)).slopes
            errs.append(float(np.abs(bb - 1.0).mean()))
        return float(np.mean(errs))

    e100, e400 = mean_err_at(100), mean_err_at(400)
    checks.append((e400 < e100, f"consistency trend {e100:.3f} -> {e400:.3f}"))

    # deterministic reproduction under a fixed master seed
    sc = parse_scenario_text(
        "study = estimation\nerror = gumbel(0.5)\nx2 = uniform(-2,2)\n"
        "tau = 4\nn = 60\nreps = 8\nseed = 5\n"
    )
    t1 = am.run_estimation_scenario(sc)
    t2 = am.run_estimation_scenario(sc)
    same = (
        np.array_equal(t1.means, t2.means)
        and np.array_equal(t1.sds, t2.sds)
        and t1.censoring_rate == t2.censoring_rate
    )
    checks.append((same, "bit-identical summaries on rerun"))

    _report("C13", checks)
