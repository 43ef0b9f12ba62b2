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


@dataclass(frozen=True)
class _Law:
    """A law named by its scenario-file word: ``kind`` and float ``params``.

    A subclass's ``RULES`` maps each kind to (parameter count, range test,
    the range in words).  An unknown kind, a wrong parameter count, or a
    parameter that is not finite or out of range raises :class:`ConfigError`.
    """

    kind: str
    params: tuple[float, ...] = ()
    RULES = {}

    def __post_init__(self):
        if self.kind not in self.RULES:
            raise ConfigError(f"unknown law {self.kind!r}, not one of {sorted(self.RULES)}")
        count, in_range, needs = self.RULES[self.kind]
        if len(self.params) != count:
            raise ConfigError(f"{self.kind} law takes {count} parameter(s), got {self.params}")
        params = tuple(float(p) for p in self.params)
        if not all(math.isfinite(p) for p in params):
            raise ConfigError(f"{self.kind} law needs finite parameters, got {params}")
        if not in_range(*params):
            raise ConfigError(f"{self.kind} law needs {needs}, got {params}")
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class ErrorLaw(_Law):
    """Regression error law, named as in scenario files.

    Kinds: ``normal(sigma)``, ``gumbel(sigma)`` (max-extreme-value with
    location -sigma * EULER_GAMMA, so the mean is exactly zero),
    ``laplace(scale)``, ``logistic(scale)``, ``t(df)``, and ``evmin`` with
    distribution function F(t) = 1 - exp(-e^t) and mean -EULER_GAMMA, e.g.
    ``ErrorLaw("t", (30,))`` or ``ErrorLaw("evmin")``.
    """

    RULES = {
        "normal": (1, lambda sigma: sigma > 0, "sigma > 0"),
        "gumbel": (1, lambda sigma: sigma > 0, "sigma > 0"),
        "laplace": (1, lambda scale: scale > 0, "scale > 0"),
        "logistic": (1, lambda scale: scale > 0, "scale > 0"),
        "t": (1, lambda df: df > 0, "df > 0"),
        "evmin": (0, lambda: True, "no parameters"),
    }

    def mean(self) -> float:
        """Exact analytic mean."""
        return -EULER_GAMMA if self.kind == "evmin" else 0.0

    def sample(self, rng: np.random.Generator, size: int):
        if self.kind == "evmin":  # negate a standard max-Gumbel draw
            return -rng.gumbel(0.0, 1.0, size)
        p = self.params[0]
        if self.kind == "normal":
            return rng.normal(0.0, p, size)
        if self.kind == "gumbel":
            return rng.gumbel(-p * EULER_GAMMA, p, size)
        if self.kind == "laplace":
            return rng.laplace(0.0, p, size)
        if self.kind == "logistic":
            return rng.logistic(0.0, p, size)
        return rng.standard_t(p, size)  # t


@dataclass(frozen=True)
class CovariateLaw(_Law):
    """Covariate law, named as in scenario files: ``bernoulli(p)``, ``normal(mu, sigma)``
    or ``uniform(a, b)``."""

    RULES = {
        "bernoulli": (1, lambda p: 0.0 < p < 1.0, "0 < p < 1"),
        "normal": (2, lambda mu, sigma: sigma > 0, "sigma > 0"),
        "uniform": (2, lambda a, b: a < b, "a < b"),
    }

    def sample(self, rng: np.random.Generator, size: int):
        if self.kind == "bernoulli":
            return rng.binomial(1, self.params[0], size).astype(np.float64)
        if self.kind == "normal":
            return rng.normal(self.params[0], self.params[1], size)
        return rng.uniform(self.params[0], self.params[1], size)


@dataclass(frozen=True)
class CensoringLaw(_Law):
    """Censoring time law: a ``uniform(low, high)`` base truncated at ``tau``.

    Draws are ``min(Uniform(low, high), tau)``, e.g. ``CensoringLaw("uniform",
    (0, 5), 1.5)``; ``tau`` is a finite number or ``inf`` (the default), which
    reduces to the base law.  Complete data has no censoring law at all
    (``None``).
    """

    tau: float = math.inf
    RULES = {"uniform": (2, lambda low, high: low < high, "low < high")}

    def __post_init__(self):
        super().__post_init__()
        if not self.tau > -math.inf:  # also false for nan
            raise ConfigError(f"censoring tau must be a finite number or inf, got {self.tau}")

    def sample(self, rng: np.random.Generator, size: int):
        return np.minimum(rng.uniform(self.params[0], self.params[1], size), self.tau)


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

    def _draw(self, rng: np.random.Generator, size: int):
        x = np.column_stack([law.sample(rng, size) for law in self.covariates])
        shift = self.intercept - self.error.mean()
        t = shift + x @ np.asarray(self.slopes) + self.error.sample(rng, size)
        return t, x

    def sample(self, rng: np.random.Generator, size: int):
        """Draw ``size`` subjects; returns (y, event, x) arrays."""
        t, x = self._draw(rng, size)
        if self.censoring is None:
            return t, np.ones(size, dtype=bool), x
        c = self.censoring.sample(rng, size)
        return np.minimum(t, c), t <= c, x

    def sample_true(self, rng: np.random.Generator, size: int):
        """Draw ``size`` uncensored subjects; returns (t, x)."""
        return self._draw(rng, size)
