"""Error, covariate, and censoring laws used by the simulation studies.

Only the handful of laws appearing in the reproduction scenarios are
provided; this is deliberately not a general distribution library.  All
sampling goes through ``numpy.random.Generator`` streams derived from a
:class:`SeedSpec`, so every draw sequence is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

EULER_GAMMA = 0.5772156649015329


def _require_finite(kind: str, params: tuple[float, ...]):
    if not all(math.isfinite(p) for p in params):
        raise ConfigError(f"{kind} law needs finite parameters, got {params}")


@dataclass(frozen=True)
class ErrorLaw:
    """Zero-mean regression error law (plus the min-extreme-value special case).

    Variants: ``normal(sigma)``, ``gumbel_max(sigma)`` (location pinned to
    -sigma * EULER_GAMMA so the mean is exactly zero), ``laplace(scale)``,
    ``logistic(scale)``, ``student_t(df)``, and ``extreme_value_min`` with
    distribution function F(t) = 1 - exp(-e^t) and mean -EULER_GAMMA.
    """

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        _require_finite(self.kind, self.params)

    @classmethod
    def normal(cls, sigma: float) -> "ErrorLaw":
        if sigma <= 0:
            raise ConfigError(f"normal error needs sigma > 0, got {sigma}")
        return cls("normal", (float(sigma),))

    @classmethod
    def gumbel_max(cls, sigma: float) -> "ErrorLaw":
        if sigma <= 0:
            raise ConfigError(f"gumbel error needs sigma > 0, got {sigma}")
        return cls("gumbel_max", (-float(sigma) * EULER_GAMMA, float(sigma)))

    @classmethod
    def laplace(cls, scale: float) -> "ErrorLaw":
        if scale <= 0:
            raise ConfigError(f"laplace error needs scale > 0, got {scale}")
        return cls("laplace", (float(scale),))

    @classmethod
    def logistic(cls, scale: float) -> "ErrorLaw":
        if scale <= 0:
            raise ConfigError(f"logistic error needs scale > 0, got {scale}")
        return cls("logistic", (float(scale),))

    @classmethod
    def student_t(cls, df: float) -> "ErrorLaw":
        if df <= 0:
            raise ConfigError(f"student-t error needs df > 0, got {df}")
        return cls("student_t", (float(df),))

    @classmethod
    def extreme_value_min(cls) -> "ErrorLaw":
        return cls("extreme_value_min", ())

    def mean(self) -> float:
        """Exact analytic mean."""
        if self.kind == "gumbel_max":
            mu, sigma = self.params
            return mu + sigma * EULER_GAMMA
        if self.kind == "extreme_value_min":
            return -EULER_GAMMA
        return 0.0

    def variance(self) -> float:
        """Exact analytic variance."""
        if self.kind == "normal":
            return self.params[0] ** 2
        if self.kind == "gumbel_max":
            return self.params[1] ** 2 * math.pi**2 / 6.0
        if self.kind == "laplace":
            return 2.0 * self.params[0] ** 2
        if self.kind == "logistic":
            return self.params[0] ** 2 * math.pi**2 / 3.0
        if self.kind == "student_t":
            df = self.params[0]
            return df / (df - 2.0) if df > 2.0 else math.inf
        return math.pi**2 / 6.0  # extreme_value_min

    def sample(self, rng: np.random.Generator, size=None):
        if self.kind == "normal":
            return rng.normal(0.0, self.params[0], size)
        if self.kind == "gumbel_max":
            return rng.gumbel(self.params[0], self.params[1], size)
        if self.kind == "laplace":
            return rng.laplace(0.0, self.params[0], size)
        if self.kind == "logistic":
            return rng.logistic(0.0, self.params[0], size)
        if self.kind == "student_t":
            return rng.standard_t(self.params[0], size)
        # min-extreme-value: negate a standard max-Gumbel draw
        return -rng.gumbel(0.0, 1.0, size)


@dataclass(frozen=True)
class CovariateLaw:
    """Covariate law: ``bernoulli(p)``, ``normal(mu, sigma)``, or ``uniform(a, b)``."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        _require_finite(self.kind, self.params)

    @classmethod
    def bernoulli(cls, p: float) -> "CovariateLaw":
        if not 0.0 < p < 1.0:
            raise ConfigError(f"bernoulli covariate needs 0 < p < 1, got {p}")
        return cls("bernoulli", (float(p),))

    @classmethod
    def normal(cls, mu: float, sigma: float) -> "CovariateLaw":
        if sigma <= 0:
            raise ConfigError(f"normal covariate needs sigma > 0, got {sigma}")
        return cls("normal", (float(mu), float(sigma)))

    @classmethod
    def uniform(cls, a: float, b: float) -> "CovariateLaw":
        if not a < b:
            raise ConfigError(f"uniform covariate needs a < b, got ({a}, {b})")
        return cls("uniform", (float(a), float(b)))

    def sample(self, rng: np.random.Generator, size=None):
        if self.kind == "bernoulli":
            draw = rng.binomial(1, self.params[0], size)
            return float(draw) if size is None else draw.astype(np.float64)
        if self.kind == "normal":
            return rng.normal(self.params[0], self.params[1], size)
        return rng.uniform(self.params[0], self.params[1], size)


@dataclass(frozen=True)
class CensoringLaw:
    """Censoring time law: a uniform base truncated at ``tau``.

    Draws are ``min(Uniform(low, high), tau)`` with finite ``low < high``;
    ``tau`` is a finite number or ``inf``, which reduces to the base law.
    Complete data has no censoring law at all (``None``).
    """

    low: float
    high: float
    tau: float

    def __post_init__(self):
        _require_finite("censoring base", (self.low, self.high))
        if not (self.tau == math.inf or math.isfinite(self.tau)):
            raise ConfigError(f"censoring tau must be a finite number or inf, got {self.tau}")
        if not self.low < self.high:
            raise ConfigError(
                f"censoring base needs low < high, got ({self.low}, {self.high})"
            )

    @classmethod
    def uniform(cls, low: float, high: float, tau: float = math.inf) -> "CensoringLaw":
        return cls(float(low), float(high), float(tau))

    def sample(self, rng: np.random.Generator, size=None):
        draw = rng.uniform(self.low, self.high, size)
        return np.minimum(draw, self.tau)


@dataclass(frozen=True)
class SeedSpec:
    """A (master seed, stream index) pair naming one reproducible RNG stream.

    Streams with distinct indices are statistically independent, so Monte
    Carlo replicates can be generated in any order (or in parallel) without
    changing the draws.
    """

    master: int
    stream: int = 0

    def __post_init__(self):
        if self.master < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.master}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.master, spawn_key=(self.stream,))
        )


@dataclass(frozen=True)
class SubjectModel:
    """Data-generating mechanism T = shift + x'slopes + error, right censored.

    ``intercept`` is the true model intercept including the error mean, so
    the constant actually added when sampling is intercept - error.mean().
    ``censoring = None`` produces complete data.
    """

    intercept: float
    slopes: tuple[float, ...]
    error: ErrorLaw
    covariates: tuple[CovariateLaw, ...]
    censoring: CensoringLaw | None = None

    def __post_init__(self):
        if len(self.slopes) != len(self.covariates):
            raise ConfigError("one covariate law per slope is required")

    @property
    def shift(self) -> float:
        return self.intercept - self.error.mean()

    def sample(self, rng: np.random.Generator, size: int):
        """Draw ``size`` subjects; returns (y, event, x) arrays."""
        x = np.column_stack([law.sample(rng, size) for law in self.covariates])
        t = self.shift + x @ np.asarray(self.slopes) + self.error.sample(rng, size)
        if self.censoring is None:
            return t, np.ones(size, dtype=bool), x
        c = self.censoring.sample(rng, size)
        return np.minimum(t, c), t <= c, x

    def sample_true(self, rng: np.random.Generator, size: int):
        """Draw ``size`` uncensored subjects; returns (t, x)."""
        x = np.column_stack([law.sample(rng, size) for law in self.covariates])
        t = self.shift + x @ np.asarray(self.slopes) + self.error.sample(rng, size)
        return t, x

