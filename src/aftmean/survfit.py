"""Kaplan-Meier estimation on residuals and the residual-mean integral.

The product-limit curve is turned into a proper probability distribution by
forcing it to one at a truncation point: either the largest residual
(practical default) or the largest point whose at-risk fraction stays above
n**(-epsilon) (the theoretical rule).  The mass not accounted for by event
jumps below that point sits as an atom at the truncation point, which keeps
the mean finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateKMError


@dataclass(frozen=True)
class Truncation:
    """Where the residual distribution is forced to one.

    ``max_observed`` places the remaining mass at the largest residual;
    ``theoretical(epsilon)`` uses the largest residual whose at-risk
    fraction is still >= n**(-epsilon).
    """

    kind: str = "max_observed"
    epsilon: float = 0.125

    @classmethod
    def max_observed(cls) -> "Truncation":
        return cls("max_observed")

    @classmethod
    def theoretical(cls, epsilon: float = 0.125) -> "Truncation":
        if not 0.0 < epsilon <= 0.125:
            raise ConfigError(f"epsilon must lie in (0, 1/8], got {epsilon}")
        return cls("threshold", float(epsilon))

    @classmethod
    def from_mode(cls, mode: str, epsilon: float | None) -> "Truncation":
        """The rule named ``maxobs`` or ``theoretical``; epsilon is read only by the latter."""
        if mode == "maxobs":
            return cls.max_observed()
        if mode == "theoretical":
            return cls.theoretical(epsilon)
        raise ConfigError(f"unknown truncation mode {mode!r}")


@dataclass(frozen=True)
class ResidualSample:
    """Residual/event pairs sorted ascending, events before censorings at ties."""

    values: np.ndarray
    events: np.ndarray

    @classmethod
    def from_arrays(cls, residuals, events) -> "ResidualSample":
        residuals = np.asarray(residuals, dtype=np.float64)
        events = np.asarray(events).astype(bool)
        if residuals.ndim != 1 or residuals.shape != events.shape:
            raise ConfigError("residuals and event flags must be equal-length vectors")
        if residuals.size == 0:
            raise ConfigError("empty residual sample")
        order = np.lexsort((~events, residuals))
        return cls(residuals[order], events[order])

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class RiskCounts:
    """Event and at-risk counts at each distinct residual value."""

    values: np.ndarray
    events: np.ndarray
    at_risk: np.ndarray

    @classmethod
    def from_sample(cls, sample: ResidualSample) -> "RiskCounts":
        n = sample.n
        values, first = np.unique(sample.values, return_index=True)
        d = np.add.reduceat(sample.events.astype(np.int64), first)
        r = n - first
        return cls(values, d, r)


def step_value(jumps, values, t):
    """Right-continuous step function: 0 before jumps[0], values[k] from jumps[k] on."""
    t = np.asarray(t, dtype=np.float64)
    idx = np.searchsorted(jumps, t, side="right")
    out = np.concatenate([[0.0], values])[idx]
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class StepDistribution:
    """Right-continuous distribution estimate with a truncation atom.

    ``support`` lists the jump locations ascending; the final entry is the
    truncation point, whose mass absorbs everything the event jumps below
    it left unexplained.  ``cdf_values[k]`` is F at ``support[k]``.
    """

    support: np.ndarray
    masses: np.ndarray
    cdf_values: np.ndarray
    truncation: float

    def cdf(self, t):
        """F(t), zero below the first jump and exactly one from the truncation on."""
        return step_value(self.support, self.cdf_values, t)

    def survival(self, t):
        return 1.0 - self.cdf(t)

    @property
    def tail_mass(self) -> float:
        """Mass sitting at the truncation point, 1 - F(truncation-)."""
        return float(self.masses[-1])


@dataclass(frozen=True)
class TailDiagnostic:
    """Rule-of-thumb check that the residual curve nearly reaches zero."""

    tail_value: float
    adequate: bool
    threshold: float


def truncation_time(counts: RiskCounts, n: int, epsilon: float) -> float:
    """Largest residual whose at-risk fraction is >= n**(-epsilon)."""
    if not 0.0 < epsilon <= 0.125:
        raise ConfigError(f"epsilon must lie in (0, 1/8], got {epsilon}")
    threshold = float(n) ** (-epsilon)
    ok = counts.at_risk / n >= threshold
    if not ok.any():
        return float(counts.values[-1])
    return float(counts.values[ok].max())


def km_fit(sample: ResidualSample, truncation: Truncation = Truncation.max_observed()) -> StepDistribution:
    """Product-limit estimate of the residual distribution, truncated to mass one.

    Raises :class:`DegenerateKMError` when the sample carries no events.
    """
    if not sample.events.any():
        raise DegenerateKMError(
            "degenerate KM: every observation is censored, the residual mean is undefined"
        )
    n = sample.n
    counts = RiskCounts.from_sample(sample)
    if truncation.kind == "max_observed":
        t_n = float(sample.values[-1])
    else:
        t_n = truncation_time(counts, n, truncation.epsilon)

    has_event = counts.events > 0
    u = counts.values[has_event]
    surv = np.cumprod(1.0 - counts.events[has_event] / counts.at_risk[has_event])
    cdf = 1.0 - surv

    below = u < t_n
    jump_cdf = cdf[below]
    masses = np.diff(np.concatenate([[0.0], jump_cdf]))
    cdf_before = float(jump_cdf[-1]) if below.any() else 0.0

    support = np.append(u[below], t_n)
    masses = np.append(masses, 1.0 - cdf_before)
    cdf_values = np.append(jump_cdf, 1.0)
    return StepDistribution(support, masses, cdf_values, t_n)


def mean_of(dist: StepDistribution) -> float:
    """Mean of the step distribution, truncation atom included."""
    return float(dist.support @ dist.masses)


def tail_diagnostic(dist: StepDistribution, threshold: float = 0.15) -> TailDiagnostic:
    """Survival just before the truncation point, flagged against ``threshold``."""
    tail = dist.tail_mass
    return TailDiagnostic(tail, tail < threshold, threshold)


def curve_points(dist: StepDistribution) -> np.ndarray:
    """Ordered (t, F(t), S(t)) triples for curve export."""
    return np.column_stack([dist.support, dist.cdf_values, 1.0 - dist.cdf_values])
