import math

import numpy as np
import pytest
from scipy import integrate

from aftmean.distributions import (
    EULER_GAMMA,
    CensoringLaw,
    CovariateLaw,
    ErrorLaw,
    SeedSpec,
    SubjectModel,
)
from aftmean.errors import ConfigError

N_BIG = 1_000_000

ZERO_MEAN_LAWS = [
    ErrorLaw("normal", (0.5,)),
    ErrorLaw("gumbel", (0.5,)),
    ErrorLaw("laplace", (0.5,)),
    ErrorLaw("logistic", (0.5,)),
    ErrorLaw("t", (30,)),
]


def test_law_means_exact():
    assert ErrorLaw("normal", (0.5,)).mean() == 0.0
    assert ErrorLaw("t", (30,)).mean() == 0.0
    assert ErrorLaw("evmin").mean() == pytest.approx(-0.57721, abs=1e-5)
    # the max-Gumbel location is pinned so the mean cancels exactly
    assert ErrorLaw("gumbel", (0.5,)).mean() == pytest.approx(0.0, abs=1e-15)


def test_extreme_value_min_mean_against_quadrature():
    # density of F(t) = 1 - exp(-e^t) is e^t * exp(-e^t)
    pdf = lambda t: math.exp(t) * math.exp(-math.exp(t))
    mass, _ = integrate.quad(pdf, -40, 12)
    mean, _ = integrate.quad(lambda t: t * pdf(t), -40, 12)
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert ErrorLaw("evmin").mean() == pytest.approx(mean, abs=1e-9)
    assert ErrorLaw("evmin").mean() == pytest.approx(-EULER_GAMMA, abs=1e-15)


def test_gumbel_sampling_mean_near_zero():
    rng = SeedSpec(101).generator()
    draws = ErrorLaw("gumbel", (0.5,)).sample(rng, N_BIG)
    assert abs(draws.mean()) < 0.002


def test_laplace_sampling_variance():
    rng = SeedSpec(102).generator()
    draws = ErrorLaw("laplace", (0.5,)).sample(rng, N_BIG)
    assert draws.var() == pytest.approx(0.5, abs=0.01)


def test_extreme_value_min_sampling_mean():
    rng = SeedSpec(103).generator()
    draws = ErrorLaw("evmin").sample(rng, N_BIG)
    assert draws.mean() == pytest.approx(-0.5772, abs=0.005)


def test_extreme_value_min_cdf_shape():
    # empirical CDF of draws should match 1 - exp(-e^t)
    rng = SeedSpec(104).generator()
    draws = ErrorLaw("evmin").sample(rng, 200_000)
    for t in (-2.0, -1.0, 0.0, 1.0):
        expected = 1.0 - math.exp(-math.exp(t))
        assert np.mean(draws <= t) == pytest.approx(expected, abs=0.004)


@pytest.mark.parametrize(
    "stream, law",
    enumerate(ZERO_MEAN_LAWS),
    ids=("normal", "gumbel_max", "laplace", "logistic", "student_t"),
)
def test_zero_mean_laws_sample_mean_bound(stream, law):
    rng = SeedSpec(105, stream).generator()
    draws = law.sample(rng, N_BIG)
    assert abs(draws.mean()) < 5 * draws.std() / 1e3


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigError):
        ErrorLaw("normal", (0.0,))
    with pytest.raises(ConfigError):
        ErrorLaw("laplace", (-1.0,))
    with pytest.raises(ConfigError):
        ErrorLaw("logistic", (0.0,))
    with pytest.raises(ConfigError):
        ErrorLaw("t", (0,))
    with pytest.raises(ConfigError):
        CovariateLaw("bernoulli", (1.0,))
    with pytest.raises(ConfigError):
        CovariateLaw("uniform", (2.0, 2.0))
    with pytest.raises(ConfigError):
        CensoringLaw("uniform", (5.0, 0.0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: ErrorLaw("bogus", (1.0,)),
        lambda: CovariateLaw("bogus", (0, 1)),
        lambda: ErrorLaw("normal", ()),
        lambda: ErrorLaw("evmin", (1.0,)),
        lambda: ErrorLaw("normal", (-1.0,)),
        lambda: CovariateLaw("uniform", (2, 1)),
        lambda: CensoringLaw("uniform", (0, 5, 1)),
        lambda: CensoringLaw("normal", (0, 1)),
        lambda: CensoringLaw("uniform", (0, 5), -math.inf),
        lambda: CensoringLaw("uniform", (0, 5), math.nan),
    ],
    ids=["unknown-error", "unknown-covariate", "normal-no-sigma", "evmin-with-param",
         "negative-sigma", "uniform-reversed", "censoring-three-params", "censoring-normal",
         "censoring-tau-minus-inf", "censoring-tau-nan"],
)
def test_law_rejects_bad_kind_count_or_range(build):
    with pytest.raises(ConfigError):
        build()


def test_seed_spec_reproducible_and_streams_distinct():
    a = SeedSpec(42, 3).generator().normal(size=1000)
    b = SeedSpec(42, 3).generator().normal(size=1000)
    np.testing.assert_array_equal(a, b)

    u = SeedSpec(42, 0).generator().normal(size=100_000)
    v = SeedSpec(42, 1).generator().normal(size=100_000)
    assert not np.array_equal(u, v)
    assert abs(np.corrcoef(u, v)[0, 1]) < 0.01


def test_censoring_never_exceeds_tau():
    rng = SeedSpec(7).generator()
    law = CensoringLaw("uniform", (0.0, 5.0), 1.5)
    draws = law.sample(rng, 50_000)
    assert draws.max() <= 1.5
    # tau = inf reduces to the base law
    base = CensoringLaw("uniform", (0.0, 5.0))
    draws = base.sample(rng, 50_000)
    assert 4.9 < draws.max() <= 5.0


def test_sample_subject_deterministic_plugin():
    # near-degenerate laws pin T = 2 + 1 + 0 = 3 with no censoring
    model = SubjectModel(
        intercept=2.0,
        slopes=(1.0, 1.0),
        error=ErrorLaw("normal", (1e-12,)),
        covariates=(CovariateLaw("uniform", (1.0, 1.0 + 1e-12)), CovariateLaw("uniform", (0.0, 1e-12))),
        censoring=None,
    )
    y, event, _ = model.sample(SeedSpec(9).generator(), 1)
    assert y[0] == pytest.approx(3.0, abs=1e-9)
    assert event[0]


def test_degenerate_truncation_censors_everything():
    model = SubjectModel(
        intercept=2.0,
        slopes=(1.0, 1.0),
        error=ErrorLaw("normal", (0.5,)),
        covariates=(CovariateLaw("bernoulli", (0.5,)), CovariateLaw("normal", (0.0, 1.0))),
        censoring=CensoringLaw("uniform", (0.0, 5.0), -10.0),
    )
    y, event, _ = model.sample(SeedSpec(11).generator(), 2000)
    assert not event.any()
    assert y.max() == -10.0


def test_scenario_a_censoring_rate_tau15():
    # T = 2 + X1 + X2 + N(0, 0.5^2), C ~ U(0,5) ^ 1.5: about 83% censored
    model = SubjectModel(
        intercept=2.0,
        slopes=(1.0, 1.0),
        error=ErrorLaw("normal", (0.5,)),
        covariates=(CovariateLaw("bernoulli", (0.5,)), CovariateLaw("normal", (0.0, 1.0))),
        censoring=CensoringLaw("uniform", (0.0, 5.0), 1.5),
    )
    _, event, _ = model.sample(SeedSpec(12).generator(), 100_000)
    assert 1.0 - event.mean() == pytest.approx(0.83, abs=0.01)


def test_scenario_b_censoring_rate_tau15():
    model = SubjectModel(
        intercept=2.0,
        slopes=(1.0, 1.0),
        error=ErrorLaw("gumbel", (0.5,)),
        covariates=(CovariateLaw("bernoulli", (0.5,)), CovariateLaw("normal", (0.0, 1.0))),
        censoring=CensoringLaw("uniform", (0.0, 5.0), 1.5),
    )
    _, event, _ = model.sample(SeedSpec(13).generator(), 200_000)
    assert 1.0 - event.mean() == pytest.approx(0.82, abs=0.01)
