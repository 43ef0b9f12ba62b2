import tracemalloc
from importlib import resources

import numpy as np
import pytest

from aftmean import gehan, kernels
from aftmean.distributions import CovariateLaw, ErrorLaw, SeedSpec, SubjectModel
from aftmean.errors import DataError, GehanSolverError
from aftmean.gehan import (
    DesignData,
    bootstrap_se,
    fit_aft,
    gehan_loss,
    gehan_score,
    predict_aft,
    residuals,
)
from aftmean.simulation import parse_scenario_text
from aftmean.survfit import km_fit, mean_of
from conftest import count_searches, random_censored_sample
from oracles import (
    gehan_d1_scan,
    gehan_lp,
    gehan_loss_double_sum,
    gehan_loss_on_grid,
    gehan_score_double_sum,
)


def toy3():
    return DesignData(
        np.array([1.0, 2.0, 3.0]),
        np.array([1, 1, 1]),
        np.array([[0.0], [1.0], [2.0]]),
    )


def exact_linear(n=40, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (n, 2))
    y = 2.0 + x @ np.array([1.0, 1.0])
    return DesignData(y, np.ones(n), x)


# ---------------------------------------------------------------- score


def test_score_worked_example():
    assert gehan_score([0.0], toy3())[0] == pytest.approx(-4.0 / 9.0, abs=1e-15)


def test_score_single_subject_is_zero():
    data = DesignData(np.array([1.0]), np.array([1]), np.array([[3.0]]))
    np.testing.assert_array_equal(gehan_score([0.5], data), [0.0])


def test_score_constant_covariates_zero(rng):
    n = 15
    x = np.full((n, 2), 2.5)
    data = DesignData(rng.normal(size=n), rng.random(n) < 0.7, x)
    for beta in ([0.0, 0.0], [1.0, -2.0]):
        np.testing.assert_allclose(gehan_score(beta, data), 0.0, atol=1e-14)


def test_score_matches_double_sum_oracle(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 4))
        x = rng.normal(0.0, 1.0, (n, d))
        y = rng.normal(0.0, 1.0, n)
        if rng.random() < 0.3:  # inject ties in the residuals
            y = np.round(y * 2) / 2
        ev = rng.random(n) < rng.uniform(0.3, 1.0)
        data = DesignData(y, ev, x)
        beta = rng.normal(0.0, 1.0, d)
        fast = gehan_score(beta, data)
        slow = gehan_score_double_sum(beta, y, ev.astype(float), x)
        np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_score_translation_invariance(rng):
    y, ev, x = random_censored_sample(rng, 30, d=2)
    data = DesignData(y, ev, x)
    beta = np.array([0.3, -0.7])
    base = gehan_score(beta, data)
    for c in (-3.0, 11.0):
        moved = gehan_score(beta, DesignData(y + c, ev, x))
        np.testing.assert_allclose(moved, base, atol=1e-12)


def test_score_vanishes_at_an_exact_fit():
    # rounding noise in the residuals must not break their exact ties
    np.testing.assert_allclose(gehan_score([1.0, 1.0], exact_linear()), 0.0, atol=1e-12)


# ---------------------------------------------------------------- loss


def test_loss_zero_on_exact_linear_data():
    data = exact_linear()
    assert gehan_loss(np.array([1.0, 1.0]), data) == pytest.approx(0.0, abs=1e-14)
    assert gehan_loss(np.array([1.0, 1.3]), data) > 1e-4


def test_loss_two_point_example():
    data = DesignData(np.array([0.0, 1.0]), np.array([1, 1]), np.array([[0.0], [1.0]]))
    for beta in (-1.0, 0.0, 0.5, 1.0, 2.0):
        assert gehan_loss([beta], data) == pytest.approx(abs(1.0 - beta) / 4.0, abs=1e-14)
    assert gehan_loss([1.0], data) == 0.0


def test_loss_matches_double_sum_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(2, 40))
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        ev = rng.random(n) < 0.7
        beta = rng.normal(size=2)
        assert gehan_loss(beta, DesignData(y, ev, x)) == pytest.approx(
            gehan_loss_double_sum(beta, y, ev.astype(float), x), abs=1e-12
        )


def test_finite_differences_match_score(rng):
    # the loss is the primitive of the estimating function: central
    # differences at non-kink points reproduce it to first order
    h = 1e-7
    checked = 0
    while checked < 100:
        n = int(rng.integers(8, 25))
        y, ev, x = random_censored_sample(rng, n, d=2)
        if not ev.any():
            continue
        data = DesignData(y, ev, x)
        beta = rng.normal(0.0, 1.5, 2)
        grad = np.empty(2)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            grad[k] = (gehan_loss(beta + e, data) - gehan_loss(beta - e, data)) / (2 * h)
        np.testing.assert_allclose(grad, gehan_score(beta, data), atol=1e-6)
        checked += 1


def test_loss_convex_along_segments(rng):
    for _ in range(200):
        n = int(rng.integers(5, 30))
        y, ev, x = random_censored_sample(rng, n, d=2)
        data = DesignData(y, ev, x)
        a = rng.normal(0.0, 2.0, 2)
        b = rng.normal(0.0, 2.0, 2)
        mid = 0.5 * (a + b)
        assert gehan_loss(mid, data) <= (
            0.5 * gehan_loss(a, data) + 0.5 * gehan_loss(b, data) + 1e-12
        )


def test_score_monotone_d1(rng):
    # the estimating function is monotone in the slope (nondecreasing with
    # this sign convention, matching the convexity of its primitive)
    for _ in range(20):
        n = int(rng.integers(5, 30))
        y, ev, x = random_censored_sample(rng, n, d=1)
        if not ev.any():
            continue
        data = DesignData(y, ev, x)
        grid = np.linspace(-4, 4, 161)
        vals = [gehan_score([b], data)[0] for b in grid]
        assert (np.diff(vals) >= -1e-12).all()


# ---------------------------------------------------------------- solver


def test_solver_exact_linear():
    beta = fit_aft(exact_linear()).slopes
    np.testing.assert_allclose(beta, [1.0, 1.0], atol=1e-6)


def test_solver_matches_grid_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(8, 21))
        while True:
            y, ev, x = random_censored_sample(rng, n, d=1)
            if ev.sum() >= 2:
                break
        data = DesignData(y, ev, x)
        try:
            beta = fit_aft(data).slopes
        except GehanSolverError:
            continue  # genuinely unbounded instances are excluded by contract
        grid = np.arange(-3.0, 3.0 + 1e-9, 1e-3) + 1.0  # around beta0 = 1
        losses = gehan_loss_on_grid(y, ev.astype(float), x, grid)
        best = losses.min()
        # the solver's loss can only undercut the grid's
        assert gehan_loss(beta, data) <= best + 1e-12
        # and the solver sits inside the grid's near-optimal set
        near = grid[losses <= best + 1e-9]
        assert near.min() - 1.5e-3 <= beta[0] <= near.max() + 1.5e-3


def test_solver_equivariance_d1(rng):
    y, ev, x = random_censored_sample(rng, 25, d=1)
    data = DesignData(y, ev, x)
    base = fit_aft(data).slopes
    for c in (-2.0, 0.5, 3.0):
        moved = fit_aft(DesignData(y + c * x[:, 0], ev, x)).slopes
        assert moved[0] == pytest.approx(base[0] + c, abs=1e-9)


def test_solver_unbounded_direction_raises():
    # single event below a censored observation at larger x: pushing the
    # slope up only ever helps, so no minimizer exists
    data = DesignData(np.array([0.0, 1.0]), np.array([1, 0]), np.array([[0.0], [1.0]]))
    with pytest.raises(GehanSolverError, match="unbounded"):
        fit_aft(data)


def table1_draw(config, rep=0):
    cfg = resources.files("aftmean").joinpath("configs", config)
    scenario = parse_scenario_text(cfg.read_text())
    return DesignData(*scenario.sample(SeedSpec(scenario.seed, rep).generator(), scenario.n))


def test_solver_error_best_has_full_length_for_d2():
    # replicate 0 of this cell has every event at x1 = 0, so coordinate
    # descent meets a loss that is flat toward +inf along x1
    data = table1_draw("table1_b_x2u05_tau1.5_n100.cfg")
    assert np.all(data.covariates[data.event, 0] == 0.0)
    with pytest.raises(GehanSolverError, match="flat toward \\+inf") as info:
        fit_aft(data)
    assert info.value.best.shape == (2,)


def _censored(t, c, x):
    return DesignData(np.minimum(t, c), t <= c, x.astype(float))


def table1_like(rng, n):
    """x1 Bernoulli, x2 normal, N(0, 0.5) errors, follow-up capped at 1.5."""
    x = np.column_stack([rng.random(n) < 0.5, rng.normal(0.0, 1.0, n)])
    t = 2.0 + x.sum(axis=1) + rng.normal(0.0, 0.5, n)
    return _censored(t, np.minimum(rng.uniform(0.0, 5.0, n), 1.5), x)


def lattice(rng, n):
    """x in {0, 1, 2}^2, whole-number times and censoring times 2..16, no signal."""
    x = rng.integers(0, 3, (n, 2))
    return _censored(rng.integers(2, 17, n), rng.integers(2, 17, n), x)


def binary_gumbel(rng, n):
    """Two binary covariates, Gumbel errors, U(0, 3) censoring."""
    x = rng.integers(0, 2, (n, 2))
    t = 1.0 + x @ np.array([1.0, -0.5]) + rng.gumbel(0.0, 0.5, n)
    return _censored(t, rng.uniform(0.0, 3.0, n), x)


def three_covariates(rng, n):
    """Binary, normal and three-level covariates, N(0, 0.5) errors, U(0, 4) censoring."""
    x = np.column_stack([rng.random(n) < 0.5, rng.normal(0.0, 1.0, n), rng.integers(0, 3, n)])
    t = 1.0 + x @ np.array([1.0, 0.5, -0.5]) + rng.normal(0.0, 0.5, n)
    return _censored(t, rng.uniform(0.0, 4.0, n), x)


def test_d2_and_d3_fits_reach_the_pairwise_lp_minimum():
    # the LP of Jin, Lin, Wei & Ying (2003) is an exact, independent minimum
    # of the Gehan loss; a raising fit's best must attain it too
    accepted = 0
    raised = []
    for draw in (table1_like, lattice, binary_gumbel, three_covariates):
        for seed in range(20):
            data = draw(np.random.default_rng(seed), 40)
            lp_loss = gehan_loss(gehan_lp(data), data)
            try:
                beta = fit_aft(data).slopes
            except GehanSolverError as exc:
                assert type(exc) is GehanSolverError
                assert gehan_loss(exc.best, data) <= lp_loss * (1.0 + 1e-12)
                raised.append(str(exc))
                continue
            assert gehan_loss(beta, data) <= lp_loss * (1.0 + 1e-9)
            accepted += 1
    assert accepted >= 60
    # every raise is a flat ray: all of a short-follow-up draw's events share one x1
    assert set(raised) <= {"unbounded direction: loss flat toward +inf"}


def test_d2_fit_missing_the_score_bound_raises_after_one_search_per_start(monkeypatch):
    # tied lattice: x in {0, 1, 2}^2, whole-number times, no signal
    rng = np.random.default_rng(0)
    x = rng.integers(0, 3, (300, 2)).astype(float)
    t = rng.integers(2, 17, 300).astype(float)
    c = rng.integers(2, 17, 300)
    data = DesignData(np.minimum(t, c), t <= c, x)
    assert gehan.event_ols(data) is not None  # so four starts
    calls = count_searches(monkeypatch)
    with pytest.raises(GehanSolverError, match="acceptance bound") as info:
        fit_aft(data)
    assert len(calls) == 4
    assert info.value.best.shape == (2,)


def test_warm_d2_solve_runs_one_search_and_a_cold_one_four(monkeypatch):
    data = table1_draw("table1_b_x2u22_tau1.5_n100.cfg")
    full = fit_aft(data).slopes
    sub = data.subset(SeedSpec(11, 0).generator().integers(0, data.n, data.n))
    calls = count_searches(monkeypatch)
    fit_aft(sub, init=full)
    assert len(calls) == 1
    fit_aft(sub)
    assert len(calls) == 1 + 4


def test_warm_solve_missing_the_bound_falls_back_to_the_ols_starts(monkeypatch):
    # tied lattice, no signal: on this resample the search from the
    # full-data slopes alone ends with the score above the bound (ratio 1.225)
    rng = np.random.default_rng(4)
    x = rng.integers(0, 3, (100, 2)).astype(float)
    t = rng.integers(2, 17, 100).astype(float)
    c = rng.integers(2, 17, 100)
    data = DesignData(np.minimum(t, c), t <= c, x)
    full = fit_aft(data).slopes
    sub = data.subset(SeedSpec(7, 2).generator().integers(0, 100, 100))
    calls = count_searches(monkeypatch)
    _, report = gehan._solve_with_report(sub, full)
    assert len(calls) == 4
    assert report.score_ratio <= 1.0


@pytest.mark.parametrize(
    "solve, data, init",
    [
        (lambda data, init: fit_aft(data, init=init), toy3(), [1.0, 5.0]),
        (lambda data, init: fit_aft(data, init=init), exact_linear(), [1.0, 1.0, 1.0]),
        (lambda data, init: bootstrap_se(data, 2, init=init), exact_linear(), [1.0]),
    ],
    ids=["d1-solve", "d2-solve", "d2-bootstrap"],
)
def test_init_of_the_wrong_length_raises_data_error(solve, data, init):
    with pytest.raises(DataError, match=f"init has {len(init)} values; the design has"):
        solve(data, init=init)


@pytest.mark.parametrize(
    "data, init",
    [(toy3(), [np.nan]), (exact_linear(), [1.0, np.inf])],
    ids=["d1-nan", "d2-inf"],
)
def test_nonfinite_init_raises_data_error(data, init):
    with pytest.raises(DataError, match="init must be finite"):
        fit_aft(data, init=init)


def _scan_slope(data):
    """The full O(n_events * n) kink scan, the d = 1 reference."""
    return gehan_d1_scan(data.time, data.event.astype(float), data.covariates[:, 0])


def test_d1_line_search_matches_full_kink_scan(rng):
    compared = 0
    for _ in range(1000):
        n = int(rng.integers(2, 61))
        levels = (2, 3)[int(rng.integers(0, 2))]
        x = rng.integers(0, levels, n).astype(float)
        if rng.random() < 0.5:
            x = rng.normal(0.0, 1.0, n)
        y = 0.5 + x + rng.normal(0.0, 1.0, n)
        if rng.random() < 0.5:
            y = np.round(y, 1)
        ev = rng.random(n) < rng.uniform(0.1, 0.5)  # heavy censoring
        if not ev.any():
            continue
        data = DesignData(y, ev, x)
        if rng.random() < 0.25:  # duplicated rows, as in a bootstrap resample
            data = data.subset(rng.integers(0, n, n))
            if not data.event.any():
                continue
        init = None if rng.random() < 0.5 else rng.normal(0.0, 2.0, 1)
        try:
            expected = _scan_slope(data)
        except GehanSolverError as exc:
            with pytest.raises(GehanSolverError) as info:
                fit_aft(data, init=init)
            assert str(info.value) == str(exc)
            np.testing.assert_array_equal(info.value.best, exc.best)
            continue
        if expected is None:
            with pytest.raises(GehanSolverError, match="not identified"):
                fit_aft(data, init=init)
            continue
        # the same kink expression picks the same kink: bit-identical, which
        # also pins residual near-ties (y on a 0.1 grid, integer x) to their kinks
        assert fit_aft(data, init=init).slopes[0] == expected
        compared += 1
    assert compared > 500


@pytest.mark.parametrize("cov", ["normal", "u11", "u22"])
@pytest.mark.parametrize("cell", ["tau-1", "tauinf"])
def test_d1_line_search_matches_scan_on_table2_draws(cov, cell):
    cfg = resources.files("aftmean").joinpath("configs", f"table2_{cov}_{cell}_n2000.cfg")
    scenario = parse_scenario_text(cfg.read_text())
    y, ev, x = scenario.sample(SeedSpec(scenario.seed, 0).generator(), scenario.n)
    data = DesignData(y, ev, x)
    beta, report = gehan._solve_with_report(data, None)
    assert beta[0] == _scan_slope(data)
    assert report.method == "bisection+local-scan"


@pytest.mark.parametrize(
    "y, ev, x, message",
    [
        # every event at the largest x: zero derivative toward -inf
        ([0.0, 1.0], [1, 0], [1.0, 0.0], "unbounded direction: loss nonincreasing toward -inf"),
        # every event at the smallest x: zero derivative toward +inf
        ([0.0, 1.0, 2.0, 0.5], [1, 1, 0, 0], [0.0, 0.0, 1.0, 2.0],
         "unbounded direction: loss flat toward +inf"),
        # a constant covariate: no kinks at all, stopped by the rank check
        ([0.0, 1.0, 2.0], [1, 1, 0], [2.0, 2.0, 2.0],
         "slope not identified: the covariates are affinely collinear (rank 0 of 1)"),
    ],
)
def test_d1_unbounded_and_flat_cases_raise_as_the_scan_does(y, ev, x, message):
    data = DesignData(np.array(y), np.array(ev), np.array(x)[:, None])
    try:
        assert _scan_slope(data) is None
        best = None
    except GehanSolverError as exc:
        assert str(exc) == message
        best = exc.best
    with pytest.raises(GehanSolverError) as solved:
        fit_aft(data)
    assert type(solved.value) is GehanSolverError
    assert str(solved.value) == message
    if best is None:
        assert solved.value.best is None
    else:
        np.testing.assert_array_equal(solved.value.best, best)


def test_d1_fit_enumerates_few_kinks_in_little_memory(monkeypatch):
    # uncensored n = 2000: the full scan lists n_events * (n - 1) = 4M kinks
    model = SubjectModel(
        intercept=0.0,
        slopes=(1.0,),
        error=ErrorLaw("evmin"),
        covariates=(CovariateLaw("normal", (0.0, 1.0)),),
        censoring=None,
    )
    y, ev, x = model.sample(SeedSpec(7, 0).generator(), 2000)
    data = DesignData(y, ev, x)
    enumerated = []
    profile = kernels.d1_pair_profile

    def counted(*args):
        out = profile(*args)
        enumerated.append(out[0].size)
        return out

    monkeypatch.setattr(kernels, "d1_pair_profile", counted)
    fit = fit_aft(data)
    assert 0 < sum(enumerated) <= 0.01 * data.n_events() * data.n
    # a bootstrap resample: duplicated rows tie at every slope but add no kinks
    enumerated.clear()
    fit_aft(data.subset(SeedSpec(7, 1).generator().integers(0, 2000, 2000)), init=fit.slopes)
    assert 0 < sum(enumerated) <= 0.01 * data.n_events() * data.n
    monkeypatch.undo()
    tracemalloc.start()
    try:
        fit_aft(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def short_follow_up(n=4000):
    """Follow-up ends by t = 2 and x1 = 1 subjects live past 3: every event has x1 = 0."""
    rng = np.random.default_rng(3)
    x = np.column_stack([rng.random(n) < 0.5, rng.normal(0.0, 1.0, n)]).astype(float)
    t = 1.0 + 2.0 * x[:, 0] + rng.exponential(2.0, n)
    c = 1.0 + rng.uniform(0.0, 1.0, n)
    return np.minimum(t, c), t <= c, x


@pytest.mark.parametrize(
    "columns, message",
    [
        ([1.0], "unbounded direction: loss flat toward +inf"),
        ([-1.0], "unbounded direction: loss nonincreasing toward -inf"),
        ([1.0, 1.0], "unbounded direction: loss flat toward +inf"),
    ],
    ids=["d1", "d1-negated", "d2"],
)
def test_flat_ray_raises_in_linear_memory(columns, message):
    # about 440 events against 2000 subjects at x1 = 1: the full kink scan
    # lists 0.9M kinks, the line search only the pairs near the ray's end
    y, ev, x = short_follow_up()
    data = DesignData(y, ev, x[:, : len(columns)] * columns)
    if data.d == 1:
        with pytest.raises(GehanSolverError) as scanned:
            _scan_slope(data)
        best = scanned.value.best
    else:  # pinned: what coordinate descent on the full kink scan raised with
        best = np.array([1.0767944894231594, 0.021598317319065606])
    tracemalloc.start()
    try:
        with pytest.raises(GehanSolverError) as solved:
            fit_aft(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(solved.value) is GehanSolverError
    assert str(solved.value) == message
    np.testing.assert_array_equal(solved.value.best, best)
    assert peak <= 16e6


def test_minimum_beyond_the_float_range_raises():
    # both kinks are (1e10 - 0) / 1e-300 = inf: no finite bracket exists
    data = DesignData(np.array([0.0, 1e10]), np.array([1, 1]), np.array([[0.0], [1e-300]]))
    with pytest.raises(GehanSolverError, match="overflows the float range") as info:
        fit_aft(data)
    assert info.value.best.shape == (1,)


def _solve_outcome(data, init):
    """The slopes, or the GehanSolverError raised instead."""
    try:
        return fit_aft(data, init=init).slopes
    except GehanSolverError as exc:
        return exc


def test_coordinate_steps_match_the_full_scan_descent(rng, monkeypatch):
    # every d > 1 coordinate step is the line search; replaced by the full
    # kink scan, the same descent must give the same floats or the same error
    cases = []
    for _ in range(300):
        n = int(rng.integers(4, 41))
        d = int(rng.integers(2, 4))
        x = rng.normal(0.0, 1.0, (n, d))
        for k in range(d):
            kind = rng.random()
            if kind < 0.3:
                x[:, k] = rng.integers(0, 2, n)
            elif kind < 0.6:
                x[:, k] = rng.integers(0, 3, n)
        y = 0.5 + x.sum(axis=1) + rng.normal(0.0, 1.0, n)
        if rng.random() < 0.5:
            y = np.round(y, 1)
        ev = rng.random(n) < rng.uniform(0.1, 0.9)  # often heavy censoring
        if not ev.any():
            continue
        data = DesignData(y, ev, x)
        if rng.random() < 0.25:  # duplicated rows, as in a bootstrap resample
            data = data.subset(rng.integers(0, n, n))
        init = None if rng.random() < 0.5 else rng.normal(1.0, 1.0, d)
        cases.append((data, init))
    recorded = []
    search = gehan.minimize

    def record(*args, **kwargs):
        recorded.append(search(*args, **kwargs))
        return recorded[-1]

    monkeypatch.setattr(gehan, "minimize", record)
    fast = [_solve_outcome(data, init) for data, init in cases]
    # the Nelder-Mead starts do not depend on the line search: replay them
    replay = iter(recorded)
    monkeypatch.setattr(gehan, "minimize", lambda *args, **kwargs: next(replay))
    def scan(y, delta, x, start):
        slope = gehan_d1_scan(y, delta, x)
        return None if slope is None else (slope, 0)

    monkeypatch.setattr(gehan, "_line_search_d1", scan)
    solved = 0
    for (data, init), got in zip(cases, fast):
        want = _solve_outcome(data, init)
        if isinstance(want, GehanSolverError):
            assert type(got) is type(want)
            assert str(got) == str(want)
            np.testing.assert_array_equal(got.best, want.best)
        else:
            assert not isinstance(got, GehanSolverError), str(got)
            np.testing.assert_array_equal(got, want)
            solved += 1
    assert len(cases) > 250 and solved > 200


def test_d2_fit_enumerates_few_kinks_in_little_memory(monkeypatch):
    # uncensored n = 2000: a full scan per coordinate step lists
    # n_events * (n - 1) kinks, 4M of them
    model = SubjectModel(
        intercept=0.0,
        slopes=(1.0, 1.0),
        error=ErrorLaw("evmin"),
        covariates=(CovariateLaw("normal", (0.0, 1.0)), CovariateLaw("normal", (0.0, 1.0))),
        censoring=None,
    )
    y, ev, x = model.sample(SeedSpec(7, 0).generator(), 2000)
    data = DesignData(y, ev, x)
    enumerated = []
    profile = kernels.d1_pair_profile

    def counted(*args):
        out = profile(*args)
        enumerated.append(out[0].size)
        return out

    monkeypatch.setattr(kernels, "d1_pair_profile", counted)
    fit_aft(data)
    assert 0 < sum(enumerated) <= 0.01 * data.d * data.n_events() * data.n
    monkeypatch.undo()
    tracemalloc.start()
    try:
        fit_aft(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_solver_no_events_raises():
    data = DesignData(np.ones(4), np.zeros(4), np.arange(4.0)[:, None])
    with pytest.raises(GehanSolverError, match="no events"):
        fit_aft(data)


@pytest.mark.parametrize("init", [None, [1.0, 0.0]], ids=["cold", "warm"])
@pytest.mark.parametrize("value", [0.3, 7.0])
def test_constant_second_column_is_not_identified(rng, value, init):
    # the constant column's slope trades one for one against the intercept
    y, ev, x = random_censored_sample(rng, 200)
    data = DesignData(y, ev, np.column_stack([x[:, 0], np.full(200, value)]))
    with pytest.raises(GehanSolverError, match="not identified.*\\(rank 1 of 2\\)"):
        fit_aft(data, init=init)


@pytest.mark.parametrize("n", [50, 400])
def test_affinely_collinear_columns_are_not_identified(rng, n):
    y, ev, x = random_censored_sample(rng, n)
    data = DesignData(y, ev, np.column_stack([x[:, 0], 2.0 * x[:, 0] + 1.0]))
    with pytest.raises(GehanSolverError, match="not identified.*\\(rank 1 of 2\\)"):
        fit_aft(data)


@pytest.mark.parametrize("d", [1, 2])
def test_covariate_spread_lost_in_rounding_raises(d):
    # one ulp apart at 1e20 passes the rank check, but the line search's
    # prefix sums round every kink weight to zero
    a = 1e20
    x = np.array([[a, 0.0], [np.nextafter(a, np.inf), 1.0], [a, 2.0]])[:, :d]
    data = DesignData(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1]), x)
    with pytest.raises(GehanSolverError, match="spread is below the rounding") as info:
        fit_aft(data)
    assert info.value.best.shape == (d,)


def test_solver_flat_interval_midpoint():
    # two events, one censored far right: the loss bottom is an interval
    # and the solver reports its midpoint
    y = np.array([0.0, 1.0, 0.2])
    ev = np.array([1, 1, 0])
    x = np.array([[0.0], [1.0], [0.4]])
    data = DesignData(y, ev, x)
    beta = fit_aft(data).slopes
    lo = gehan_loss(beta, data)
    assert gehan_loss(beta + 1e-9, data) >= lo - 1e-15
    assert gehan_loss(beta - 1e-9, data) >= lo - 1e-15


def test_consistency_trend_scenario_a():
    # fixed seeds: mean slope error shrinks from n=100 to n=400
    model = SubjectModel(
        intercept=2.0,
        slopes=(1.0, 1.0),
        error=ErrorLaw("normal", (0.5,)),
        covariates=(CovariateLaw("bernoulli", (0.5,)), CovariateLaw("normal", (0.0, 1.0))),
        censoring=None,
    )

    def mean_abs_err(n, reps=40):
        errs = []
        for r in range(reps):
            g = SeedSpec(606, r).generator()
            y, ev, x = model.sample(g, n)
            beta = fit_aft(DesignData(y, ev, x)).slopes
            errs.append(np.abs(beta - 1.0).mean())
        return np.mean(errs)

    assert mean_abs_err(400) < mean_abs_err(100)


# ---------------------------------------------------------------- fit / predict


def test_fit_aft_exact_linear():
    fit = fit_aft(exact_linear())
    assert fit.intercept == pytest.approx(2.0, abs=1e-6)
    np.testing.assert_allclose(fit.slopes, [1.0, 1.0], atol=1e-6)
    assert fit.report.score_ratio <= 1.0 + 1e-9


def test_fit_internal_consistency(rng):
    y, ev, x = random_censored_sample(rng, 60, d=2)
    data = DesignData(y, ev, x)
    fit = fit_aft(data)
    redone = km_fit(residuals(data, fit.slopes), ev)
    assert fit.intercept == pytest.approx(mean_of(redone), abs=1e-12)
    np.testing.assert_allclose(fit.residual_dist.support, redone.support)


def test_predict_aft():
    fit = fit_aft(exact_linear())
    assert predict_aft(fit, np.zeros(2)) == pytest.approx(fit.intercept)
    assert predict_aft(fit, np.array([1.0, 1.0])) == pytest.approx(4.0, abs=1e-5)
    out = predict_aft(fit, np.array([[1.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_allclose(out, [4.0, 2.0], atol=1e-5)


def test_design_data_validation():
    with pytest.raises(DataError):
        DesignData(np.ones(3), np.ones(4), np.ones((3, 1)))
    with pytest.raises(DataError):
        DesignData(np.ones(3), np.array([0, 1, 2]), np.ones((3, 1)))
    with pytest.raises(DataError):
        DesignData(np.array([1.0, np.nan, 3.0]), np.ones(3), np.ones((3, 1)))


# ---------------------------------------------------------------- bootstrap


def test_bootstrap_two_replicates_is_scaled_difference(rng):
    y, ev, x = random_censored_sample(rng, 40, d=1)
    data = DesignData(y, ev, x)
    se = bootstrap_se(data, 2, seed=3, init=fit_aft(data).slopes)
    ests = []
    for b in range(2):
        g = SeedSpec(3, b).generator()
        idx = g.integers(0, data.n, data.n)
        sub = data.subset(idx)
        beta = fit_aft(sub).slopes
        alpha = mean_of(km_fit(residuals(sub, beta), sub.event))
        ests.append(np.concatenate([[alpha], beta]))
    expected = np.abs(ests[0] - ests[1]) / np.sqrt(2.0)
    np.testing.assert_allclose(se, expected, atol=1e-12)


def test_bootstrap_duplicated_rows_positive_finite():
    base_y = np.array([1.0, 2.0, 3.0])
    base_x = np.array([[0.0], [1.0], [0.5]])
    y = np.tile(base_y, 50) + np.repeat(np.linspace(0, 0.01, 50), 3)
    x = np.tile(base_x, (50, 1))
    data = DesignData(y, np.ones(150), x)
    se = bootstrap_se(data, 100, seed=9, init=fit_aft(data).slopes)
    assert se.shape == (2,)
    assert (se > 0).all() and np.isfinite(se).all()


def test_bootstrap_failure_cap():
    # one event (at an interior covariate value, so the full fit is bounded)
    # among four subjects: many resamples carry no event at all
    data = DesignData(
        np.array([2.0, 1.0, 3.0, 4.0]),
        np.array([1, 0, 0, 0]),
        np.array([[1.0], [0.0], [2.0], [3.0]]),
    )
    with pytest.raises(GehanSolverError, match="resamples"):
        bootstrap_se(data, 50, seed=1, init=fit_aft(data).slopes)


def categorical_months(seed=0, n=100):
    """Three-level and binary covariates, whole-month times, about 40% censored."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.integers(0, 3, n), rng.integers(0, 2, n)]).astype(float)
    t = np.ceil(12.0 + 6.0 * x[:, 0] - 8.0 * x[:, 1] + rng.exponential(10.0, n))
    c = rng.integers(6, 60, n)
    return DesignData(np.minimum(t, c), t <= c, x)


@pytest.mark.parametrize(
    "data",
    [table1_draw("table1_a_tau4_n400.cfg"), categorical_months()],
    ids=["table1-tau4-n400", "categorical-months"],
)
def test_warm_resample_solves_match_cold_solves(data):
    # the cold solve (zero and OLS starts) is the reference for the single
    # search from the full-data slopes that bootstrap_se runs per resample
    full = fit_aft(data).slopes
    estimates = {"warm": [], "cold": []}
    for b in range(20):
        sub = data.subset(SeedSpec(11, b).generator().integers(0, data.n, data.n))
        losses = {}
        for kind, init in (("warm", full), ("cold", None)):
            beta, report = gehan._solve_with_report(sub, init)
            alpha = mean_of(km_fit(residuals(sub, beta), sub.event))
            estimates[kind].append(np.concatenate([[alpha], beta]))
            losses[kind] = report.loss
        assert losses["warm"] <= losses["cold"] * (1.0 + 1e-6)
    warm_sd, cold_sd = (np.std(estimates[k], axis=0, ddof=1) for k in ("warm", "cold"))
    np.testing.assert_array_equal(bootstrap_se(data, 20, seed=11, init=full), warm_sd)
    np.testing.assert_allclose(warm_sd, cold_sd, rtol=0.01)
