"""Censored linear regression with unrestricted mean survival time estimation.

Slopes come from Gehan-weighted rank regression, the intercept from the mean
of a Kaplan-Meier fit to the residuals, with a Cox proportional hazards
comparator and a Monte Carlo engine for the reproduction studies.
"""

from .cox import BaselineHazard, CoxFit, breslow, fit_cox, predict_cox_mean
from .distributions import (
    EULER_GAMMA,
    CensoringLaw,
    CovariateLaw,
    ErrorLaw,
    SeedSpec,
    SubjectModel,
)
from .errors import (
    ConfigError,
    CoxFitError,
    DataError,
    DegenerateKMError,
    EstimationError,
    GehanSolverError,
    SimulationError,
)
from .gehan import (
    AftFit,
    DesignData,
    SolverReport,
    bootstrap_se,
    fit_aft,
    gehan_loss,
    gehan_score,
    predict_aft,
    residuals,
)
from .simulation import (
    Scenario,
    SummaryTable,
    censoring_rate,
    mse_p,
    run_estimation_scenario,
    run_prediction_scenario,
    summary_csv_text,
)
from .survfit import (
    StepDistribution,
    Truncation,
    curve_points,
    km_fit,
    mean_of,
)

__version__ = "0.1.0"
