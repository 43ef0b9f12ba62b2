import numpy as np
import pytest

from aftmean.distributions import CensoringLaw, CovariateLaw, ErrorLaw, SeedSpec, SubjectModel
from aftmean.errors import ConfigError, DataError, SimulationError
from aftmean.gehan import DesignData
from aftmean.simulation import (
    Scenario,
    censoring_rate,
    mse_p,
    ols_fit,
    parse_scenario_text,
    run_estimation_scenario,
    run_prediction_scenario,
    summary_csv_text,
    with_prediction_ratios,
)

EULER = 0.5772156649015329


# ---------------------------------------------------------------- mse_p


def test_mse_trivial():
    v = np.array([1.0, 2.0, 3.0])
    assert mse_p(v, v) == 0.0
    assert mse_p(v + 1.0, v) == 1.0


def test_mse_length_mismatch():
    with pytest.raises(DataError):
        mse_p(np.ones(3), np.ones(4))


def test_mse_of_true_conditional_mean_is_error_variance():
    # predictor E(T|X) = X - gamma on the prediction-study model: the MSE is
    # the min-extreme-value variance pi^2/6 (Monte Carlo at n = 1e5)
    rng = SeedSpec(515).generator()
    n = 100_000
    x = rng.normal(0.0, 1.0, n)
    t = x - rng.gumbel(0.0, 1.0, n)
    got = mse_p(x - EULER, t)
    assert got == pytest.approx(np.pi**2 / 6.0, abs=0.02)


# ---------------------------------------------------------------- ols


def test_ols_exact_and_interpolating():
    x = np.array([[0.0], [1.0], [2.0]])
    y = 2.0 + 3.0 * x[:, 0]
    fit = ols_fit(DesignData(y, np.ones(3), x))
    assert fit.intercept == pytest.approx(2.0, abs=1e-10)
    assert fit.slopes[0] == pytest.approx(3.0, abs=1e-10)

    two = ols_fit(DesignData(np.array([1.0, 5.0]), np.ones(2), np.array([[0.0], [2.0]])))
    assert two.intercept == pytest.approx(1.0)
    assert two.slopes[0] == pytest.approx(2.0)


def test_ols_residual_orthogonality(rng):
    x = rng.normal(size=(50, 3))
    y = rng.normal(size=50) + x @ np.array([1.0, -2.0, 0.5])
    fit = ols_fit(DesignData(y, np.ones(50), x))
    resid = y - fit.intercept - x @ fit.slopes
    np.testing.assert_allclose(x.T @ resid, 0.0, atol=1e-8)
    assert resid.sum() == pytest.approx(0.0, abs=1e-8)


def test_ols_rejects_censoring_and_rank_deficiency(rng):
    x = rng.normal(size=(10, 1))
    y = rng.normal(size=10)
    with pytest.raises(DataError):
        ols_fit(DesignData(y, np.zeros(10), x))
    xdup = np.column_stack([x[:, 0], x[:, 0]])
    with pytest.raises(DataError):
        ols_fit(DesignData(y, np.ones(10), xdup))


# ---------------------------------------------------------------- censoring rate


def test_censoring_rate_trivial(rng):
    x = rng.normal(size=(6, 1))
    assert censoring_rate(DesignData(np.ones(6), np.ones(6), x)) == 0.0
    assert censoring_rate(DesignData(np.ones(6), np.zeros(6), x)) == 1.0


# ---------------------------------------------------------------- estimation engine


def test_noiseless_scenario_recovers_truth_exactly():
    sc = Scenario(
        study="estimation",
        error=ErrorLaw("normal", (1e-12,)),
        covariates=(CovariateLaw("bernoulli", (0.5,)), CovariateLaw("normal", (0.0, 1.0))),
        slopes=(1.0, 1.0),
        intercept=2.0,
        censoring=None,
        n=60,
        replications=5,
        seed=77,
    )
    table = run_estimation_scenario(sc)
    np.testing.assert_allclose(table.means, [2.0, 1.0, 1.0], atol=1e-6)
    np.testing.assert_allclose(table.sds, 0.0, atol=1e-6)
    assert table.n_failed == 0


def test_estimation_summary_reasonable_small_run():
    sc = Scenario.estimation(
        ErrorLaw("normal", (0.5,)), CovariateLaw("normal", (0.0, 1.0)), 4.0, 100, 30, seed=123
    )
    table = run_estimation_scenario(sc)
    assert table.parameters == ("alpha", "beta1", "beta2")
    np.testing.assert_allclose(table.means, [2.0, 1.0, 1.0], atol=0.15)
    assert 0.4 < table.censoring_rate < 0.6
    assert table.n_failed == 0


def test_estimation_deterministic_reruns():
    sc = Scenario.estimation(
        ErrorLaw("laplace", (0.5,)), CovariateLaw("uniform", (-2.0, 2.0)), 4.0, 80, 12, seed=9
    )
    a = run_estimation_scenario(sc)
    b = run_estimation_scenario(sc)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.sds, b.sds)
    assert a.censoring_rate == b.censoring_rate


def test_estimation_failure_cap():
    # tau below every failure time censors everything in every replicate
    sc = Scenario.estimation(
        ErrorLaw("normal", (0.5,)), CovariateLaw("normal", (0.0, 1.0)), -1.0, 40, 5, seed=3
    )
    with pytest.raises(SimulationError):
        run_estimation_scenario(sc)


def test_prediction_failure_cap():
    # tau = -10 censors every training subject, so no replicate can fit
    sc = Scenario.prediction(CovariateLaw("normal", (0.0, 1.0)), -10.0, 30, 20, 3)
    with pytest.raises(SimulationError) as info:
        run_prediction_scenario(sc)
    assert str(info.value).startswith("20 of 20 replicates failed (cap 5%); causes: ['no events: ")


def test_wrong_study_kind_rejected():
    sc = Scenario.prediction(CovariateLaw("normal", (0.0, 1.0)), -2.0, 50, 3, seed=1)
    with pytest.raises(ConfigError):
        run_estimation_scenario(sc)


# ---------------------------------------------------------------- prediction engine


def test_prediction_uncensored_ratios_are_one():
    sc = Scenario.prediction(CovariateLaw("normal", (0.0, 1.0)), None, 100, 10, seed=21)
    table = run_prediction_scenario(sc)
    assert table.parameters == ("linear", "cox", "ols")
    table = with_prediction_ratios(table, table)
    np.testing.assert_allclose(table.ratios, 1.0, atol=1e-12)
    # all three predictors are close on complete data
    assert abs(table.means[0] - table.means[2]) < 0.15


def test_prediction_censored_run_and_ratio():
    censored = Scenario.prediction(CovariateLaw("normal", (0.0, 1.0)), -2.0, 100, 15, seed=22)
    baseline = Scenario.prediction(CovariateLaw("normal", (0.0, 1.0)), None, 100, 15, seed=22)
    tc = run_prediction_scenario(censored)
    tb = run_prediction_scenario(baseline)
    tc = with_prediction_ratios(tc, tb)
    assert tc.parameters == ("linear", "cox")
    assert 0.7 < tc.censoring_rate < 0.95
    # heavy truncation hurts the hazard-based predictor much more
    assert tc.means[1] > tc.means[0]
    assert tc.ratios[1] < tc.ratios[0]


def test_tail_below_rule_of_thumb_for_wide_support_scenario():
    # unbounded X2 support, tau=1.5, n=400: the residual-curve rule of thumb
    # should pass in the vast majority of seeded runs
    model = SubjectModel(
        intercept=2.0,
        slopes=(1.0, 1.0),
        error=ErrorLaw("normal", (0.5,)),
        covariates=(CovariateLaw("bernoulli", (0.5,)), CovariateLaw("normal", (0.0, 1.0))),
        censoring=CensoringLaw(0.0, 5.0, 1.5),
    )
    from aftmean.gehan import fit_aft

    adequate = 0
    for r in range(20):
        y, ev, x = model.sample(SeedSpec(2024, r).generator(), 400)
        fit = fit_aft(DesignData(y, ev, x))
        adequate += fit.tail < 0.15
    assert adequate >= 18


def test_prediction_cox_mse_degrades_as_followup_shrinks():
    # Cox mean MSE is nonincreasing in tau across the grid (desk scale)
    mses = []
    for tau in (-2.0, 0.0):
        sc = Scenario.prediction(CovariateLaw("normal", (0.0, 1.0)), tau, 150, 30, seed=31)
        mses.append(run_prediction_scenario(sc).means[1])
    assert mses[0] > mses[1]


# ---------------------------------------------------------------- scenario files


def test_parse_estimation_scenario_text():
    text = """
    # cell config
    study = estimation
    error = gumbel(0.5)
    x1 = bernoulli(0.5)
    x2 = uniform(-2,2)
    cens = uniform(0,5)
    tau = 1.5
    n = 100
    reps = 250
    seed = 42
    mode = maxobs
    """
    sc = parse_scenario_text(text)
    assert sc.study == "estimation"
    assert sc.error.kind == "gumbel"
    assert sc.covariates[1].kind == "uniform"
    assert sc.censoring.tau == 1.5
    assert (sc.n, sc.replications, sc.seed) == (100, 250, 42)
    assert sc.intercept == pytest.approx(2.0)


def test_parse_prediction_scenario_text_and_overrides():
    text = "study = prediction\nx = normal(0,1)\ncens = none\nn = 200\nreps = 1000\nseed = 5\n"
    sc = parse_scenario_text(text, reps_override=12, seed_override=99)
    assert sc.study == "prediction"
    assert sc.censoring is None
    assert sc.replications == 12 and sc.seed == 99
    assert sc.error.kind == "evmin"


def test_estimation_scenario_cens_none_is_uncensored():
    text = (
        "study = estimation\nerror = normal(0.5)\nx2 = normal(0,1)\ncens = none\n"
        "tau = inf\nn = 200\nreps = 2\nseed = 5\n"
    )
    sc = parse_scenario_text(text)
    assert sc.censoring is None
    assert run_estimation_scenario(sc).censoring_rate == 0.0


@pytest.mark.parametrize(
    "study, laws",
    [("estimation", "error = normal(0.5)\nx2 = normal(0,1)\n"), ("prediction", "x = normal(0,1)\n")],
)
def test_tau_none_is_rejected_in_both_studies(study, laws):
    with pytest.raises(ConfigError, match="cens = none"):
        parse_scenario_text(f"study = {study}\n{laws}tau = none\nn = 20\nreps = 1\nseed = 1\n")
    # the library keeps its own spelling of an uncensored prediction scenario
    assert Scenario.prediction(CovariateLaw("normal", (0.0, 1.0)), None, 20, 1, 1).uncensored


def test_parse_rejects_unknown_keys_and_bad_laws():
    with pytest.raises(ConfigError):
        parse_scenario_text("study = estimation\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_scenario_text("study = estimation\nerror = cauchy(1)\nx2 = normal(0,1)\nn = 10\nreps = 1\nseed = 1\n")
    with pytest.raises(ConfigError):
        parse_scenario_text("study = prediction\nx = normal(0,1)\nmode = weird\nn = 10\nreps = 1\nseed = 1\n")


# ---------------------------------------------------------------- CSV layout


def test_summary_csv_layouts():
    sc = Scenario.estimation(
        ErrorLaw("normal", (0.5,)), CovariateLaw("normal", (0.0, 1.0)), 4.0, 50, 3, seed=8
    )
    est = summary_csv_text(run_estimation_scenario(sc))
    lines = est.strip().splitlines()
    assert lines[0] == "parameter,mean,sd,censoring_rate,n_replications,n_failed"
    assert lines[1].startswith("alpha,")
    assert len(lines) == 4

    scp = Scenario.prediction(CovariateLaw("normal", (0.0, 1.0)), None, 60, 2, seed=8)
    tp = with_prediction_ratios(run_prediction_scenario(scp), run_prediction_scenario(scp))
    pred = summary_csv_text(tp)
    lines = pred.strip().splitlines()
    assert lines[0] == "model,ratio,mse,censoring_rate,n_replications,n_failed"
    assert [l.split(",")[0] for l in lines[1:]] == ["linear", "cox", "ols"]


def test_summary_csv_single_replicate_blank_sd():
    sc = Scenario.estimation(
        ErrorLaw("normal", (0.5,)), CovariateLaw("normal", (0.0, 1.0)), 4.0, 50, 1, seed=8
    )
    text = summary_csv_text(run_estimation_scenario(sc))
    row = text.strip().splitlines()[1].split(",")
    assert row[2] == ""  # sd column empty-marked
