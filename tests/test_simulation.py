import numpy as np
import pytest

from aftmean.distributions import (
    EULER_GAMMA,
    CensoringLaw,
    CovariateLaw,
    ErrorLaw,
    SeedSpec,
    SubjectModel,
)
from aftmean.errors import ConfigError, DataError, SimulationError
from aftmean.gehan import DesignData, event_ols
from aftmean.simulation import (
    Scenario,
    censoring_rate,
    mse_p,
    parse_scenario_text,
    run_estimation_scenario,
    run_prediction_scenario,
    summary_csv_text,
)

EULER = 0.5772156649015329
# each study's first scenario-file lines; a test appends n, reps, seed and the rest
ESTIMATION_LAWS = "study = estimation\nerror = normal(0.5)\nx2 = normal(0,1)\n"
PREDICTION_LAWS = "study = prediction\nx = normal(0,1)\n"


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
    coef = event_ols(DesignData(y, np.ones(3), x))
    assert coef[0] == pytest.approx(2.0, abs=1e-10)
    assert coef[1] == pytest.approx(3.0, abs=1e-10)

    two = event_ols(DesignData(np.array([1.0, 5.0]), np.ones(2), np.array([[0.0], [2.0]])))
    assert two[0] == pytest.approx(1.0)
    assert two[1] == pytest.approx(2.0)


def test_ols_residual_orthogonality(rng):
    x = rng.normal(size=(50, 3))
    y = rng.normal(size=50) + x @ np.array([1.0, -2.0, 0.5])
    coef = event_ols(DesignData(y, np.ones(50), x))
    resid = y - coef[0] - x @ coef[1:]
    np.testing.assert_allclose(x.T @ resid, 0.0, atol=1e-8)
    assert resid.sum() == pytest.approx(0.0, abs=1e-8)


def test_ols_rejects_rank_deficiency(rng):
    x = rng.normal(size=(10, 1))
    y = rng.normal(size=10)
    xdup = np.column_stack([x[:, 0], x[:, 0]])
    assert event_ols(DesignData(y, np.ones(10), xdup)) is None


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
    sc = parse_scenario_text(ESTIMATION_LAWS + "tau = 4\nn = 100\nreps = 30\nseed = 123\n")
    table = run_estimation_scenario(sc)
    assert table.parameters == ("alpha", "beta1", "beta2")
    np.testing.assert_allclose(table.means, [2.0, 1.0, 1.0], atol=0.15)
    assert 0.4 < table.censoring_rate < 0.6
    assert table.n_failed == 0


def test_estimation_deterministic_reruns():
    sc = parse_scenario_text(
        "study = estimation\nerror = laplace(0.5)\nx2 = uniform(-2,2)\n"
        "tau = 4\nn = 80\nreps = 12\nseed = 9\n"
    )
    a = run_estimation_scenario(sc)
    b = run_estimation_scenario(sc)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.sds, b.sds)
    assert a.censoring_rate == b.censoring_rate


def test_estimation_failure_cap():
    # tau below every failure time censors everything in every replicate
    sc = parse_scenario_text(ESTIMATION_LAWS + "tau = -1\nn = 40\nreps = 5\nseed = 3\n")
    with pytest.raises(SimulationError):
        run_estimation_scenario(sc)


def test_prediction_failure_cap():
    # tau = -10 censors every training subject, so no replicate can fit
    sc = parse_scenario_text(PREDICTION_LAWS + "tau = -10\nn = 30\nreps = 20\nseed = 3\n")
    with pytest.raises(SimulationError) as info:
        run_prediction_scenario(sc)
    assert str(info.value).startswith("20 of 20 replicates failed (cap 5%); causes: ['no events: ")


def test_wrong_study_kind_rejected():
    sc = parse_scenario_text(PREDICTION_LAWS + "tau = -2\nn = 50\nreps = 3\nseed = 1\n")
    with pytest.raises(ConfigError):
        run_estimation_scenario(sc)


# ---------------------------------------------------------------- prediction engine


def test_prediction_uncensored_ratios_are_one():
    sc = parse_scenario_text(PREDICTION_LAWS + "cens = none\nn = 100\nreps = 10\nseed = 21\n")
    table = run_prediction_scenario(sc)
    assert table.parameters == ("linear", "cox", "ols")
    np.testing.assert_allclose(table.ratios, 1.0, atol=1e-12)
    # all three predictors are close on complete data
    assert abs(table.means[0] - table.means[2]) < 0.15


def test_prediction_censored_run_and_ratio():
    censored = parse_scenario_text(PREDICTION_LAWS + "tau = -2\nn = 100\nreps = 15\nseed = 22\n")
    tc = run_prediction_scenario(censored)
    assert tc.parameters == ("linear", "cox")
    assert 0.7 < tc.censoring_rate < 0.95
    # heavy truncation hurts the hazard-based predictor much more
    assert tc.means[1] > tc.means[0]
    assert tc.ratios[1] < tc.ratios[0]


def test_censored_prediction_ratios_divide_the_uncensored_means_by_its_own():
    body = PREDICTION_LAWS + "n = 60\nreps = 4\nseed = 23\n"
    censored = run_prediction_scenario(parse_scenario_text(body + "tau = -1\n"))
    uncensored = run_prediction_scenario(parse_scenario_text(body + "cens = none\n"))
    assert uncensored.parameters[:2] == censored.parameters
    np.testing.assert_array_equal(censored.ratios, uncensored.means[:2] / censored.means)


def test_tail_below_rule_of_thumb_for_wide_support_scenario():
    # unbounded X2 support, tau=1.5, n=400: the residual-curve rule of thumb
    # should pass in the vast majority of seeded runs
    model = SubjectModel(
        intercept=2.0,
        slopes=(1.0, 1.0),
        error=ErrorLaw("normal", (0.5,)),
        covariates=(CovariateLaw("bernoulli", (0.5,)), CovariateLaw("normal", (0.0, 1.0))),
        censoring=CensoringLaw("uniform", (0.0, 5.0), 1.5),
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
        sc = parse_scenario_text(PREDICTION_LAWS + f"tau = {tau}\nn = 150\nreps = 30\nseed = 31\n")
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


def test_cens_key_is_read_as_a_censoring_law():
    sc = parse_scenario_text(ESTIMATION_LAWS + "cens = uniform(0,5)\ntau = 4\nn = 50\nreps = 3\nseed = 8\n")
    assert sc.censoring == CensoringLaw("uniform", (0.0, 5.0), 4.0)
    assert sc.censoring.params == (0.0, 5.0) and sc.censoring.tau == 4.0


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


def test_absent_cens_and_x1_keys_take_the_study_defaults():
    estimation = Scenario(
        study="estimation",
        error=ErrorLaw("normal", (0.5,)),
        covariates=(CovariateLaw("bernoulli", (0.5,)), CovariateLaw("normal", (0.0, 1.0))),
        slopes=(1.0, 1.0),
        intercept=2.0,
        censoring=CensoringLaw("uniform", (0.0, 5.0), 4.0),
        n=50,
        replications=3,
        seed=8,
    )
    assert parse_scenario_text(ESTIMATION_LAWS + "tau = 4\nn = 50\nreps = 3\nseed = 8\n") == estimation
    prediction = Scenario(
        study="prediction",
        error=ErrorLaw("evmin"),
        covariates=(CovariateLaw("normal", (0.0, 1.0)),),
        slopes=(1.0,),
        intercept=-EULER_GAMMA,
        censoring=CensoringLaw("uniform", (-3.0, 3.0), -1.0),
        n=60,
        replications=2,
        seed=8,
    )
    assert parse_scenario_text(PREDICTION_LAWS + "tau = -1\nn = 60\nreps = 2\nseed = 8\n") == prediction
    # without tau the base is not truncated
    untruncated = parse_scenario_text(PREDICTION_LAWS + "n = 60\nreps = 2\nseed = 8\n")
    assert untruncated.censoring == CensoringLaw("uniform", (-3.0, 3.0))


def test_parse_rejects_unknown_keys_and_bad_laws():
    with pytest.raises(ConfigError):
        parse_scenario_text("study = estimation\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_scenario_text("study = estimation\nerror = cauchy(1)\nx2 = normal(0,1)\nn = 10\nreps = 1\nseed = 1\n")
    with pytest.raises(ConfigError):
        parse_scenario_text("study = prediction\nx = normal(0,1)\nmode = weird\nn = 10\nreps = 1\nseed = 1\n")


# ---------------------------------------------------------------- CSV layout


def test_summary_csv_layouts():
    sc = parse_scenario_text(ESTIMATION_LAWS + "tau = 4\nn = 50\nreps = 3\nseed = 8\n")
    est = summary_csv_text(run_estimation_scenario(sc))
    lines = est.strip().splitlines()
    assert lines[0] == "parameter,mean,sd,censoring_rate,n_replications,n_failed"
    assert lines[1].startswith("alpha,")
    assert len(lines) == 4

    scp = parse_scenario_text(PREDICTION_LAWS + "cens = none\nn = 60\nreps = 2\nseed = 8\n")
    pred = summary_csv_text(run_prediction_scenario(scp))
    lines = pred.strip().splitlines()
    assert lines[0] == "model,ratio,mse,censoring_rate,n_replications,n_failed"
    assert [l.split(",")[0] for l in lines[1:]] == ["linear", "cox", "ols"]


def test_summary_csv_single_replicate_blank_sd():
    sc = parse_scenario_text(ESTIMATION_LAWS + "tau = 4\nn = 50\nreps = 1\nseed = 8\n")
    text = summary_csv_text(run_estimation_scenario(sc))
    row = text.strip().splitlines()[1].split(",")
    assert row[2] == ""  # sd column empty-marked
