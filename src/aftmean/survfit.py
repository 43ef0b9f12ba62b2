"""Kaplan-Meier estimation on residuals and the residual-mean integral.

The product-limit curve is turned into a proper probability distribution by
forcing it to one at a truncation point, named by :class:`Truncation`:
either the largest residual (``maxobs``, the practical default) or the
largest residual whose at-risk fraction stays at or above n**(-epsilon)
(``theoretical``).  The mass not accounted for by event jumps below that
point sits as an atom at the truncation point, which keeps the mean finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateKMError


@dataclass(frozen=True)
class Truncation:
    """Where the residual distribution is forced to one.

    ``mode`` is named as on the CLI and in scenario files: ``"maxobs"`` puts
    the remaining mass at the largest residual, ``"theoretical"`` at the
    largest residual whose at-risk fraction is still >= n**(-epsilon), as in
    ``Truncation("theoretical", 0.125)``; ``Truncation()`` is maxobs.
    Another mode, or a theoretical epsilon outside (0, 1/8], raises
    :class:`ConfigError`; maxobs reads no epsilon and stores None.
    """

    mode: str = "maxobs"
    epsilon: float | None = None

    def __post_init__(self):
        if self.mode == "maxobs":
            object.__setattr__(self, "epsilon", None)
        elif self.mode != "theoretical":
            raise ConfigError(f"unknown truncation mode {self.mode!r}")
        elif self.epsilon is None or not 0.0 < self.epsilon <= 0.125:
            raise ConfigError(f"epsilon must lie in (0, 1/8], got {self.epsilon}")
        else:
            object.__setattr__(self, "epsilon", float(self.epsilon))


@dataclass(frozen=True)
class StepDistribution:
    """Right-continuous distribution estimate with a truncation atom.

    ``support`` lists the jump locations ascending; the final entry is the
    truncation point, whose mass absorbs everything the event jumps below
    it left unexplained.  ``cdf_values[k]`` is F at ``support[k]``, so the
    last is exactly one.  ``masses`` and ``truncation`` are read from them.
    """

    support: np.ndarray
    cdf_values: np.ndarray

    @property
    def masses(self) -> np.ndarray:
        """Jump sizes of F; the last is the truncation atom."""
        return np.diff(self.cdf_values, prepend=0.0)

    @property
    def truncation(self) -> float:
        return float(self.support[-1])

    def cdf(self, t):
        """F(t), zero below the first jump and exactly one from the truncation on."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.support, t, side="right")
        out = np.concatenate([[0.0], self.cdf_values])[idx]
        return float(out) if out.ndim == 0 else out


def km_fit(residuals, events, truncation: Truncation = Truncation()) -> StepDistribution:
    """Product-limit estimate of the residual distribution, truncated to mass one.

    ``residuals`` and ``events`` are equal-length vectors in any order;
    ties are counted per distinct residual.  Raises :class:`ConfigError`
    on mismatched or empty input and :class:`DegenerateKMError` when no
    residual is an event.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    events = np.asarray(events).astype(bool)
    if residuals.ndim != 1 or residuals.shape != events.shape:
        raise ConfigError("residuals and event flags must be equal-length vectors")
    if residuals.size == 0:
        raise ConfigError("empty residual sample")
    if not events.any():
        raise DegenerateKMError(
            "degenerate KM: every observation is censored, the residual mean is undefined"
        )
    n = residuals.size
    order = np.argsort(residuals, kind="stable")
    values, first = np.unique(residuals[order], return_index=True)
    deaths = np.add.reduceat(events[order].astype(np.int64), first)
    at_risk = n - first
    if truncation.mode == "maxobs":
        t_n = float(values[-1])
    else:
        # at_risk falls from n, so the rule keeps a non-empty prefix
        keep = at_risk / n >= float(n) ** (-truncation.epsilon)
        t_n = float(values[keep][-1])

    has_event = deaths > 0
    u = values[has_event]
    cdf = 1.0 - np.cumprod(1.0 - deaths[has_event] / at_risk[has_event])

    below = u < t_n
    return StepDistribution(np.append(u[below], t_n), np.append(cdf[below], 1.0))


def mean_of(dist: StepDistribution) -> float:
    """Mean of the step distribution, truncation atom included."""
    return float(dist.support @ dist.masses)


def curve_points(dist: StepDistribution) -> np.ndarray:
    """Ordered (t, F(t), S(t)) triples for curve export."""
    return np.column_stack([dist.support, dist.cdf_values, 1.0 - dist.cdf_values])
