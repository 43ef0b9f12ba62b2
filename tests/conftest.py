import sys
from pathlib import Path

import numpy as np
import pytest

from aftmean import gehan

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_censored_sample(rng, n, d=1, cens_scale=1.0):
    """A generic continuous censored regression sample for oracle checks."""
    x = rng.normal(0.0, 1.0, (n, d))
    t = 0.5 + x @ np.linspace(0.5, 1.5, d) + rng.normal(0.0, 0.7, n)
    c = rng.normal(1.0, 1.5 * cens_scale, n)
    y = np.minimum(t, c)
    event = t <= c
    return y, event, x


def count_searches(monkeypatch):
    """A list that grows by one at each Nelder-Mead search the slope solver starts."""
    calls = []
    search = gehan.minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(gehan, "minimize", counted)
    return calls
