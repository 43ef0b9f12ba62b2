import numpy as np
import pytest

from aftmean.errors import ConfigError, DegenerateKMError
from aftmean.survfit import Truncation, curve_points, km_fit, mean_of
from oracles import km_cdf_literal, km_mean_literal


@pytest.mark.parametrize("truncation", [Truncation(), Truncation("theoretical", 0.1)])
def test_fit_ignores_input_order(rng, truncation):
    # residuals on a coarse grid tie often, events and censorings alike
    for _ in range(50):
        n = int(rng.integers(2, 40))
        vals = rng.integers(0, 8, n) / 4.0
        ev = rng.random(n) < 0.6
        ev[0] = True
        dist = km_fit(vals, ev, truncation)
        perm = rng.permutation(n)
        shuffled = km_fit(vals[perm], ev[perm], truncation)
        for field in ("support", "masses", "cdf_values"):
            np.testing.assert_array_equal(getattr(shuffled, field), getattr(dist, field))
        assert shuffled.truncation == dist.truncation


def test_input_shape_checks():
    with pytest.raises(ConfigError, match="equal-length"):
        km_fit([1.0, 2.0], [1])
    with pytest.raises(ConfigError, match="empty"):
        km_fit([], [])


def test_uncensored_km_equals_ecdf(rng):
    for _ in range(20):
        n = int(rng.integers(3, 40))
        vals = rng.normal(size=n)
        dist = km_fit(vals, np.ones(n))
        srt = np.sort(vals)
        np.testing.assert_allclose(dist.support, srt)
        np.testing.assert_allclose(dist.cdf_values, np.arange(1, n + 1) / n, atol=1e-12)
        np.testing.assert_allclose(mean_of(dist), vals.mean(), atol=1e-12)


def test_four_point_hand_example():
    dist = km_fit([1, 2, 3, 4], [1, 0, 1, 0])
    np.testing.assert_allclose(dist.support, [1.0, 3.0, 4.0])
    np.testing.assert_allclose(dist.masses, [0.25, 0.375, 0.375])
    assert 1 - dist.cdf(1.0) == pytest.approx(0.75)
    assert 1 - dist.cdf(3.0) == pytest.approx(0.375)
    assert mean_of(dist) == 2.875  # exact in binary


def test_cdf_zero_below_first_jump():
    dist = km_fit([1, 2, 3], [1, 1, 1])
    assert dist.cdf(0.999) == 0.0
    assert dist.cdf(-100.0) == 0.0
    assert dist.cdf(3.0) == 1.0
    assert dist.cdf(100.0) == 1.0


def test_all_censored_is_degenerate():
    with pytest.raises(DegenerateKMError):
        km_fit([1, 2, 3], [0, 0, 0])


def test_masses_nonnegative_sum_one(rng):
    for _ in range(50):
        n = int(rng.integers(2, 60))
        vals = rng.normal(size=n)
        ev = rng.random(n) < 0.6
        if not ev.any():
            continue
        dist = km_fit(vals, ev)
        assert (dist.masses >= -1e-15).all()
        assert dist.masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert (np.diff(dist.cdf_values) >= -1e-15).all()
        assert dist.cdf_values[-1] == 1.0


def test_against_literal_product_limit(rng):
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 26))
        vals = rng.normal(size=n)
        ev = rng.random(n) < rng.uniform(0.3, 0.9)
        if not ev.any():
            continue
        checked += 1
        dist = km_fit(vals, ev)
        delta = ev.astype(float)
        # compare F at every jump and between jumps, strictly below truncation
        queries = [u for u in dist.support[:-1]]
        queries += [0.5 * (a + b) for a, b in zip(dist.support[:-1], dist.support[1:])]
        for t in queries:
            if t >= dist.truncation:
                continue
            assert dist.cdf(t) == pytest.approx(
                km_cdf_literal(t, vals, delta), abs=1e-12
            )
        assert mean_of(dist) == pytest.approx(
            km_mean_literal(vals, delta, dist.truncation), abs=1e-12
        )
    assert checked > 900


def test_mean_translation_equivariance(rng):
    vals = rng.normal(size=30)
    ev = rng.random(30) < 0.7
    ev[np.argmax(vals)] = True  # keep the atom comparable
    base = mean_of(km_fit(vals, ev))
    for shift in (-5.0, 0.25, 12.0):
        shifted = mean_of(km_fit(vals + shift, ev))
        assert shifted == pytest.approx(base + shift, abs=1e-12)


def test_late_censoring_leaves_lower_curve_alone(rng):
    vals = rng.normal(size=25)
    ev = rng.random(25) < 0.7
    ev[np.argmax(vals)] = True
    dist = km_fit(vals, ev)
    # append a censored subject strictly beyond the largest event time
    vals2 = np.append(vals, vals.max() + 1.0)
    ev2 = np.append(ev, False)
    dist2 = km_fit(vals2, ev2)
    for t in dist.support[:-1]:
        if t < vals.max():
            # risk sets below the max gain one subject... the curve must
            # change only through that, so compare against the literal form
            assert dist2.cdf(t) == pytest.approx(
                km_cdf_literal(t, vals2, ev2.astype(float)), abs=1e-12
            )
    # the event jumps strictly below the old max are identical
    old = [u for u in dist.support[:-1] if u < vals.max()]
    new = [u for u in dist2.support[:-1] if u < vals.max()]
    assert old == new


def test_truncation_time_direct_scan():
    vals = [0.1, 0.5, 0.9, 1.3]
    # n=4, eps=1/8: threshold 4**-0.125 ~ 0.841 -> need r(u) >= 3.37, so r=4
    t = km_fit(vals, [1, 1, 1, 1], Truncation("theoretical", 0.125)).truncation
    scan = max(u for u in vals if sum(v >= u for v in vals) / 4 >= 4 ** (-0.125))
    assert t == scan == 0.1


def test_truncation_eps_to_zero_gives_smallest():
    dist = km_fit([2.0, 3.0, 5.0, 7.0], [1, 0, 1, 0], Truncation("theoretical", 1e-9))
    assert dist.truncation == 2.0


def test_truncation_modes():
    vals = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    ev = [1, 1, 1, 1, 1, 1, 1, 0]
    dist = km_fit(vals, ev, Truncation())
    assert dist.truncation == 7.0
    th = km_fit(vals, ev, Truncation("theoretical", 0.125))
    # n=8: threshold 8**-1/8 = 0.771 -> r >= 6.17 -> largest value with r >= 7
    assert th.truncation == 1.0
    assert th.cdf(1.0) == 1.0
    assert mean_of(th) == pytest.approx(0.0 * (1 / 8) + 1.0 * (7 / 8))
    with pytest.raises(ConfigError):
        Truncation("theoretical", 0.2)
    with pytest.raises(ConfigError):
        Truncation("theoretical", 0.0)


def test_truncation_checks_its_mode_and_epsilon():
    assert Truncation("maxobs", 0.5) == Truncation()
    assert Truncation().epsilon is None
    assert Truncation("theoretical", 0.1) == Truncation("theoretical", 0.1)
    for mode in ("bogus", "median", "threshold", "max_observed"):
        with pytest.raises(ConfigError, match=f"unknown truncation mode '{mode}'"):
            Truncation(mode, 0.1)
    with pytest.raises(ConfigError, match="unknown truncation mode 'bogus'"):
        Truncation("bogus")
    for epsilon in (None, 0.5, 0.0, float("nan")):
        with pytest.raises(ConfigError, match="epsilon must lie in"):
            Truncation("theoretical", epsilon)


def test_tail_atom_uncensored():
    # complete data: the atom at the largest residual is the last KM jump, 1/n
    for n in (6, 8, 100):
        vals = np.linspace(0, 1, n)
        dist = km_fit(vals, np.ones(n))
        assert dist.masses[-1] == pytest.approx(1.0 / n, abs=1e-12)
        assert dist.masses[-1] == 1.0 - dist.cdf_values[-2]


def test_tail_atom_heavy_censoring():
    dist = km_fit([1, 2, 2, 2], [1, 0, 0, 0])
    np.testing.assert_array_equal(dist.support, [1.0, 2.0])
    np.testing.assert_array_equal(dist.cdf_values, [0.25, 1.0])
    np.testing.assert_array_equal(dist.masses, [0.25, 0.75])
    assert dist.truncation == 2.0


def test_curve_points_layout():
    dist = km_fit([1, 2, 3, 4], [1, 0, 1, 0])
    pts = curve_points(dist)
    assert pts.shape == (3, 3)
    np.testing.assert_allclose(pts[:, 0], dist.support)
    np.testing.assert_allclose(pts[:, 1] + pts[:, 2], 1.0)
