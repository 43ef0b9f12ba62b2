import tracemalloc

import numpy as np
import pytest

from aftmean import kernels
from aftmean.cox import PREDICT_BLOCK, _risk_sets, breslow, fit_cox, predict_cox_mean
from aftmean.distributions import CovariateLaw, ErrorLaw, SeedSpec, SubjectModel
from aftmean.errors import CoxFitError
from aftmean.gehan import DesignData, fit_aft
from aftmean.survfit import km_fit, mean_of
from conftest import random_censored_sample
from oracles import (
    bisect_root,
    breslow_direct,
    cox_loglik_direct,
    cox_monotone_lp,
    cox_score_direct,
    cox_suffstats_direct,
    predict_cox_mean_dense,
    predict_cox_mean_fsum,
)


def model41_sample(seed, n, censored=False):
    model = SubjectModel(
        intercept=-0.5772156649015329,
        slopes=(1.0,),
        error=ErrorLaw("evmin"),
        covariates=(CovariateLaw("normal", (0.0, 1.0)),),
        censoring=None,
    )
    y, ev, x = model.sample(SeedSpec(seed).generator(), n)
    return DesignData(y, ev, x)


# ------------------------------------------------------------- loglik


def suffstats(beta, data):
    """Breslow log-likelihood, score and Hessian, straight from the kernel."""
    order, ev, ends = _risk_sets(data)
    beta = np.asarray(beta, dtype=np.float64)
    return kernels.cox_suffstats(beta, data.covariates[order], ev, ends)


def loglik(beta, data):
    return suffstats(beta, data)[0]


def test_loglik_flat_for_constant_covariate():
    data = DesignData(
        np.array([1.0, 2.0, 3.0]), np.array([1, 1, 0]), np.full((3, 1), 4.0)
    )
    vals = [loglik([b], data) for b in (-2.0, 0.0, 1.0, 5.0)]
    np.testing.assert_allclose(vals, vals[0], atol=1e-12)


def test_loglik_two_subject_hand_value():
    data = DesignData(np.array([1.0, 2.0]), np.array([1, 1]), np.array([[1.0], [0.0]]))
    assert loglik([0.0], data) == pytest.approx(np.log(0.5), abs=1e-12)


def test_loglik_at_zero_is_risk_set_sizes(rng):
    y, ev, x = random_censored_sample(rng, 25, d=2)
    data = DesignData(y, ev, x)
    expected = -sum(np.log(np.sum(y >= y[i])) for i in range(25) if ev[i])
    assert loglik([0.0, 0.0], data) == pytest.approx(expected, abs=1e-10)


def test_loglik_matches_direct_sums(rng):
    for _ in range(50):
        n = int(rng.integers(3, 30))
        y, ev, x = random_censored_sample(rng, n, d=1)
        if not ev.any():
            continue
        data = DesignData(y, ev, x)
        beta = rng.normal(0.0, 1.0)
        assert loglik([beta], data) == pytest.approx(
            cox_loglik_direct(beta, y, ev.astype(float), x[:, 0]), abs=1e-9
        )


def test_suffstats_kernel_matches_direct_sums_with_ties():
    rng = np.random.default_rng(41)
    for d in (1, 2, 3):
        for _ in range(30):
            n = int(rng.integers(3, 40))
            y, ev, x = random_censored_sample(rng, n, d=d)
            if rng.random() < 0.5:
                y = np.round(y, 1)  # tied times share one risk set
            beta = rng.normal(0.0, 0.7, d)
            ll, score, hess = suffstats(beta, DesignData(y, ev, x))
            ll_o, score_o, hess_o = cox_suffstats_direct(beta, y, ev.astype(float), x)
            assert ll == pytest.approx(ll_o, abs=1e-10)
            np.testing.assert_allclose(score, score_o, atol=1e-10)
            np.testing.assert_allclose(hess, hess_o, atol=1e-10)


# ------------------------------------------------------------- fitting


def test_fit_no_events_raises():
    data = DesignData(np.arange(1.0, 5.0), np.zeros(4), np.arange(4.0)[:, None])
    with pytest.raises(CoxFitError, match="no events"):
        fit_cox(data)


def test_fit_three_subject_bisection_oracle():
    y = np.array([1.0, 2.0, 3.0])
    ev = np.array([1, 1, 1])
    x = np.array([[1.0], [0.0], [1.0]])
    data = DesignData(y, ev, x)
    fit = fit_cox(data)
    root = bisect_root(
        lambda b: cox_score_direct(b, y, ev.astype(float), x[:, 0]), -10.0, 10.0
    )
    assert fit.slopes[0] == pytest.approx(root, abs=1e-8)


def test_fit_censored_tied_bisection_oracle():
    # Newton at its defaults lands on the score's root to rounding, with
    # censoring and times rounded to 0.1 so tied risk sets are common
    rng = np.random.default_rng(90016)
    checked = 0
    for n in (10, 50, 200):
        for _ in range(10):
            y, ev, x = random_censored_sample(rng, n, d=1)
            y = np.round(y, 1)
            score = lambda b: cox_score_direct(b, y, ev.astype(float), x[:, 0])
            if not ev.any() or score(-10.0) * score(10.0) >= 0:
                continue  # no events, or a monotone likelihood
            root = bisect_root(score, -10.0, 10.0)
            slope = fit_cox(DesignData(y, ev, x)).slopes[0]
            assert abs(slope - root) <= 1e-10 * max(1.0, abs(root))
            checked += 1
    assert checked >= 25


def test_fit_constant_covariate():
    # a column with one value carries no information: alone its slope is 0,
    # beside another covariate the information matrix is singular
    rng = np.random.default_rng(90017)
    y, ev, x = random_censored_sample(rng, 50, d=1)
    for c in (0.1, 7.7):
        fit = fit_cox(DesignData(y, ev, np.full((50, 1), c)))
        assert fit.slopes[0] == 0.0
        with pytest.raises(CoxFitError, match="singular information matrix"):
            fit_cox(DesignData(y, ev, np.column_stack([x[:, 0], np.full(50, c)])))


@pytest.mark.parametrize("n", [20, 200, 2000])
def test_fit_affinely_collinear_covariates_raise(n):
    # x2 = 0.1 x1 + 0.3 leaves the split of the slope between x1 and x2
    # arbitrary; Newton would solve against an information matrix that is
    # singular up to rounding and return whatever split the noise gave
    y, ev, x = random_censored_sample(np.random.default_rng(n), n, d=1)
    collinear = np.column_stack([x[:, 0], 0.1 * x[:, 0] + 0.3])
    with pytest.raises(CoxFitError, match="singular information matrix"):
        fit_cox(DesignData(y, ev, collinear))


def test_fit_score_norm_invariant(rng):
    for seed in range(5):
        y, ev, x = random_censored_sample(np.random.default_rng(seed), 60, d=2)
        data = DesignData(y, ev, x)
        fit = fit_cox(data)
        assert fit.report.score_norm <= 1e-8 * data.n


def test_fit_model41_slope_near_minus_one():
    data = model41_sample(314, 2000)
    fit = fit_cox(data)
    assert fit.slopes[0] == pytest.approx(-1.0, abs=0.1)


def test_fit_monotone_likelihood_divergence():
    # the covariate perfectly orders the two event times, so the likelihood
    # keeps rising along u = +1 and no finite slope maximises it
    data = DesignData(np.array([1.0, 2.0]), np.array([1, 1]), np.array([[1.0], [0.0]]))
    with pytest.raises(CoxFitError, match=r"monotone likelihood.*u = \[1\.\]"):
        fit_cox(data)
    # each event tops its risk set in x; a bound in slope units let Newton
    # stop at beta = 20.7, 1.18 and 0.257 at these scales and call it converged
    for scale in (1.0, 20.0, 100.0):
        x = scale * np.array([[1.0], [0.0], [-1.0]])
        with pytest.raises(CoxFitError, match="monotone likelihood"):
            fit_cox(DesignData(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 0]), x))


def _three_point_draws(rng, count):
    # uncensored 3-point instances, drawn as in acceptance check C5
    for _ in range(count):
        y = np.sort(rng.normal(size=3))
        yield DesignData(y, np.ones(3, dtype=bool), rng.normal(size=(3, 1)))


def _censored_d1_draws(rng, count):
    for k in range(count):
        n = (5, 10, 20)[k % 3]
        event = rng.random(n) >= 0.3
        event[0] = True
        yield DesignData(rng.normal(size=n), event, rng.normal(size=(n, 1)))


def _d2_draws(kind):
    # x1 binary, x2 normal; times separated by x1, ordered by x1 + x2, or
    # drawn from proportional hazards; about 30% censored
    def draws(rng, count):
        for k in range(count):
            n = (6, 10, 20, 40)[k % 4]
            x1 = rng.permutation(np.arange(n) % 2).astype(float)
            x = np.column_stack([x1, rng.normal(size=n)])
            if kind == "x1":
                t = rng.random(n) + 1.0 - x1
            elif kind == "x1+x2":
                t = -(x1 + x[:, 1])
            else:
                t = np.log(rng.exponential(size=n)) - x1 - 0.5 * x[:, 1]
            event = rng.random(n) >= 0.3
            event[np.argmin(t)] = True
            yield DesignData(t, event, x)

    return draws


@pytest.mark.parametrize(
    "seed, draws, count",
    [
        (90005, _three_point_draws, 200),
        (90006, _censored_d1_draws, 150),
        (90007, _d2_draws("x1"), 40),
        (90008, _d2_draws("x1+x2"), 40),
        (90009, _d2_draws("ph"), 60),
    ],
    ids=["d1-three-point", "d1-censored", "d2-x1-separable", "d2-sum-separable", "d2-ph"],
)
def test_monotone_error_against_lp_oracle(seed, draws, count):
    # at d = 1 u = +1 and -1 are the only directions, so fit_cox raises on
    # exactly the draws the LP calls monotone; at d >= 2 it tests Newton's
    # direction and +-e_k, which decides every draw of these families but
    # could miss a rise along some other direction
    monotone, errors = [], []
    for data in draws(np.random.default_rng(seed), count):
        monotone.append(bool(cox_monotone_lp(data)))
        try:
            fit_cox(data)
            errors.append(None)
        except CoxFitError as exc:
            errors.append(str(exc))
    assert any(monotone)
    if data.d == 1:
        assert not all(monotone)
        assert [e is not None for e in errors] == monotone
    else:
        flagged = ["monotone likelihood" in (e or "") for e in errors]
        assert flagged == monotone


def test_shift_invariance(rng):
    y, ev, x = random_censored_sample(rng, 50, d=2)
    data = DesignData(y, ev, x)
    fit = fit_cox(data)
    c = np.array([1.5, -2.0])
    shifted = fit_cox(DesignData(y, ev, x + c))
    np.testing.assert_allclose(shifted.slopes, fit.slopes, atol=1e-7)
    # the baseline compensates: Lambda_shifted = Lambda * exp(-c'beta)
    factor = np.exp(-c @ fit.slopes)
    np.testing.assert_allclose(
        shifted.baseline.cumhaz, fit.baseline.cumhaz * factor, rtol=1e-6
    )


def test_loglik_concavity_numeric_hessian(rng):
    # negative-definite numeric Hessian at random slopes on random data
    h = 1e-5
    for _ in range(100):
        n = int(rng.integers(10, 40))
        y, ev, x = random_censored_sample(rng, n, d=2)
        if ev.sum() < 3:
            continue
        data = DesignData(y, ev, x)
        beta = rng.normal(0.0, 1.0, 2)
        hess = np.empty((2, 2))
        for a in range(2):
            for b in range(2):
                ea = np.zeros(2)
                eb = np.zeros(2)
                ea[a] = h
                eb[b] = h
                hess[a, b] = (
                    loglik(beta + ea + eb, data)
                    - loglik(beta + ea - eb, data)
                    - loglik(beta - ea + eb, data)
                    + loglik(beta - ea - eb, data)
                ) / (4 * h * h)
        eig = np.linalg.eigvalsh(0.5 * (hess + hess.T))
        assert (eig <= 1e-4).all()


# ------------------------------------------------------------- breslow


def test_breslow_zero_beta_is_nelson_aalen(rng):
    y, ev, x = random_censored_sample(rng, 30, d=1)
    data = DesignData(y, ev, x)
    base = breslow(np.zeros(1), data)
    times = np.unique(y[ev])
    na = np.cumsum([np.sum(ev & (y == t)) / np.sum(y >= t) for t in times])
    np.testing.assert_allclose(base.times, times)
    np.testing.assert_allclose(base.cumhaz, na, atol=1e-12)


def test_breslow_single_event():
    y = np.array([0.5, 0.7, 1.0, 1.2])
    ev = np.array([0, 0, 1, 0])
    data = DesignData(y, ev, np.zeros((4, 1)))
    base = breslow(np.zeros(1), data)
    np.testing.assert_allclose(base.times, [1.0])
    # two subjects still at risk at t=1.0
    np.testing.assert_allclose(base.cumhaz, [0.5])


def test_breslow_three_subject_hand_sums():
    y = np.array([1.0, 2.0, 3.0])
    ev = np.array([1, 1, 1])
    x = np.array([[1.0], [0.0], [1.0]])
    data = DesignData(y, ev, x)
    beta = 0.3
    base = breslow(np.array([beta]), data)
    e = np.exp(beta * x[:, 0])
    expected = np.cumsum([1 / e.sum(), 1 / (e[1] + e[2]), 1 / e[2]])
    np.testing.assert_allclose(base.cumhaz, expected, atol=1e-12)


def test_breslow_tied_times_against_direct_sums():
    # times rounded to 0.1 tie events with events and with censored times
    rng = np.random.default_rng(90018)
    event_ties = censored_ties = 0
    for d in (1, 2):
        for n in (5, 20, 60) * 5:
            y, ev, x = random_censored_sample(rng, n, d=d)
            y = np.round(y, 1)
            if not ev.any():
                continue
            event_ties += len(y[ev]) > len(np.unique(y[ev]))
            censored_ties += bool(np.isin(y[~ev], y[ev]).any())
            beta = rng.normal(0.0, 1.0, d)
            base = breslow(beta, DesignData(y, ev, x))
            times, cumhaz = breslow_direct(beta, y, ev, x)
            assert np.array_equal(base.times, times)
            np.testing.assert_allclose(base.cumhaz, cumhaz, rtol=1e-12, atol=0.0)
    assert event_ties >= 10 and censored_ties >= 10


# ------------------------------------------------------------- prediction


def test_predict_single_event_last_observation():
    y = np.array([0.5, 0.7, 1.0])
    ev = np.array([0, 0, 1])
    x = np.array([[0.1], [0.9], [0.4]])
    fit = fit_cox(DesignData(y, ev, x))
    for xn in (-3.0, 0.0, 2.0):
        assert predict_cox_mean(fit, np.array([xn])) == pytest.approx(1.0)


def test_predict_beta_zero_close_to_km_mean(rng):
    n = 400
    vals = rng.normal(1.0, 2.0, n)
    data = DesignData(vals, np.ones(n), np.zeros((n, 1)))
    fit = fit_cox(data)  # constant covariate: slope 0, flat likelihood
    assert fit.slopes[0] == 0.0
    km_mean = mean_of(km_fit(vals, np.ones(n)))
    cox_mean = predict_cox_mean(fit, np.array([0.0]))
    spread = vals.max() - vals.min()
    assert abs(cox_mean - km_mean) <= 5.0 * spread / n
    assert km_mean == pytest.approx(vals.mean(), abs=1e-10)


def test_predict_vectorized(rng):
    y, ev, x = random_censored_sample(rng, 50, d=1)
    fit = fit_cox(DesignData(y, ev, x))
    xs = np.array([[-1.0], [0.0], [1.0]])
    out = predict_cox_mean(fit, xs)
    singles = [predict_cox_mean(fit, row) for row in xs]
    np.testing.assert_allclose(out, singles, atol=1e-12)


@pytest.mark.parametrize(
    "n_test", [1, PREDICT_BLOCK - 1, PREDICT_BLOCK, PREDICT_BLOCK + 1, 2000]
)
def test_predict_blocks_match_dense_formula_bitwise(n_test):
    fit = fit_cox(model41_sample(43, 400))
    xs = SeedSpec(44).generator().normal(0.0, 1.5, (n_test, 1))
    out = predict_cox_mean(fit, xs)
    assert out.shape == (n_test,)
    assert np.array_equal(out, predict_cox_mean_dense(fit, xs))
    single = predict_cox_mean(fit, xs[0])
    assert isinstance(single, float)
    assert single == predict_cox_mean_dense(fit, xs[:1])[0]


def test_predict_memory_is_blocked():
    # uncensored n = 2000: 2000 jump points, so one dense 2000 x 2000
    # matrix alone would take 32 MB
    fit = fit_cox(model41_sample(45, 2000))
    xs = SeedSpec(46).generator().normal(0.0, 1.0, (2000, 1))
    tracemalloc.start()
    try:
        predict_cox_mean(fit, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_predict_allocates_one_block_buffer():
    # the same 2000 x 2000 case: one (PREDICT_BLOCK + 1) x 2000 buffer is
    # 2.1 MB, a second block-sized temporary would pass 3 MB
    fit = fit_cox(model41_sample(45, 2000))
    xs = SeedSpec(46).generator().normal(0.0, 1.0, (2000, 1))
    tracemalloc.start()
    try:
        predict_cox_mean(fit, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def _censored_cox_fit():
    y, ev, x = random_censored_sample(np.random.default_rng(47), 300, d=2)
    assert 0 < ev.sum() < len(ev)
    return fit_cox(DesignData(y, ev, x)), SeedSpec(48).generator().normal(0.0, 1.0, (40, 2))


def _uncensored_cox_fit():
    # negative times among its 2000 jump points
    data = model41_sample(45, 2000)
    assert data.time.min() < 0.0
    return fit_cox(data), SeedSpec(49).generator().normal(0.0, 1.5, (40, 1))


def _single_row_cox_fit():
    fit = fit_cox(model41_sample(43, 400))
    return fit, np.array([0.7])


@pytest.mark.parametrize(
    "make", [_censored_cox_fit, _uncensored_cox_fit, _single_row_cox_fit],
    ids=["censored", "uncensored-n2000", "single-row"],
)
def test_predict_matches_fsum_oracle(make):
    fit, xs = make()
    out = predict_cox_mean(fit, xs)
    if xs.ndim == 1:
        assert isinstance(out, float)
        out, xs = np.array([out]), xs[None, :]
    span = fit.t_max - fit.baseline.times[0]
    oracle = np.array([predict_cox_mean_fsum(fit, row) for row in xs])
    assert np.max(np.abs(out - oracle)) <= 1e-14 * span


def test_cross_model_slopes_cancel_uncensored():
    for seed in (41, 42):
        data = model41_sample(seed, 2000)
        bc = fit_cox(data).slopes[0]
        bg = fit_aft(data).slopes[0]
        assert abs(bc + bg) <= 0.1
