"""Tests for the benchmark's tracer: self-time accounting, counts, isolation.

Each workload's first pool entry is run once under the tracer (about 8 s
in all); the tests then check invariants on the recorded spans.
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracer import (  # noqa: E402
    SPAN_HOOKS, Tracer, _resolve, invariant_violations, self_times, summarize,
)
from workloads import WORKLOAD_NAMES, make_workload, run_call  # noqa: E402


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per workload: (tracer, per-layer metrics, exit codes) for entry 0."""
    from aftmean import cli

    out = {}
    for name in WORKLOAD_NAMES:
        workload = make_workload(name, tmp_path_factory.mktemp(name))
        with Tracer() as tracer:
            main = tracer.wrap("cli.main", cli.main)
            codes = [run_call(main, call).rc for call in workload.calls(0)]
        out[name] = (tracer, summarize(tracer, 0, 0.0), codes)
    return out


def _value(metrics, key):
    return metrics[key]["value"]


def test_synthetic_nesting_self_times():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(2000)))
    mid = tracer.wrap("mid", lambda: [leaf() for _ in range(3)])
    root = tracer.wrap("root", lambda: (mid(), leaf()))
    root()
    names = [span[0] for span in tracer.spans]
    assert names.count("leaf") == 4 and names.count("mid") == 1
    assert tracer.spans[0][0] == "root" and tracer.spans[0][3] == -1
    own = self_times(tracer.spans)
    assert all(t >= 0 for t in own)
    duration = tracer.spans[0][2] - tracer.spans[0][1]
    assert math.isclose(sum(own), duration, rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_self_times_sum_to_each_root(traced, name):
    tracer, _, codes = traced[name]
    assert codes and all(rc == 0 for rc in codes)
    spans = tracer.spans
    own = self_times(spans)
    root_of = []
    for idx, span in enumerate(spans):
        parent = span[3]
        root_of.append(idx if parent < 0 else root_of[parent])
    roots = [idx for idx, span in enumerate(spans) if span[3] < 0]
    assert len(roots) == len(codes)
    for root in roots:
        total = sum(t for t, r in zip(own, root_of) if r == root)
        duration = spans[root][2] - spans[root][1]
        assert spans[root][0] == "cli.main"
        assert math.isclose(total, duration, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_count_and_isolation_invariants(traced, name):
    _, metrics, codes = traced[name]
    assert not invariant_violations(name, metrics)
    assert _value(metrics, "gehan.fit_aft.calls") > 0
    assert _value(metrics, "cli.main.calls") == len(codes)
    assert _value(metrics, "gehan.solves") >= _value(metrics, "gehan.fit_aft.calls")
    assert 0 <= _value(metrics, "gehan.score_ratio_max") <= 1.0 + 1e-9


def test_each_workload_reaches_its_own_layers(traced):
    assert _value(traced["mc-prediction"][1], "cox.fit_cox.calls") > 0
    assert _value(traced["mc-prediction"][1], "kernels.d1_pair_profile.kinks") > 0
    assert _value(traced["mc-estimation"][1], "gehan.minimize.calls") > 0
    assert _value(traced["fit-bootstrap"][1], "cli.load_csv.busy_s") > 0
    assert _value(traced["fit-bootstrap"][1], "gehan.bootstrap_se.busy_s") > 0


def test_isolation_violation_is_reported(traced):
    metrics = dict(traced["mc-prediction"][1])
    metrics["gehan.minimize.calls"] = {"value": 3, "unit": "count"}
    assert invariant_violations("mc-prediction", metrics) == [
        "gehan.minimize.calls = 3 on mc-prediction, expected 0"
    ]


def test_replicate_ids_follow_the_workload(traced):
    tracer, _, _ = traced["mc-estimation"]
    samples = [s for s in tracer.spans if s[0] == "distributions.sample"]
    assert [s[4] for s in samples] == list(range(len(samples)))
    tracer, _, _ = traced["fit-bootstrap"]
    # one id per resample solved inside bootstrap_se (8 per fit call)
    assert tracer.rep + 1 == 8


def test_uninstall_restores_every_hook():
    originals = [vars(_resolve(owner))[attr] for owner, attr, _ in SPAN_HOOKS]
    with Tracer():
        wrapped = [vars(_resolve(owner))[attr] for owner, attr, _ in SPAN_HOOKS]
    restored = [vars(_resolve(owner))[attr] for owner, attr, _ in SPAN_HOOKS]
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(r is o for r, o in zip(restored, originals))


def test_failed_solve_keeps_invariants(tmp_path):
    """Entry 37 of mc-estimation has one replicate whose slope solve fails."""
    from aftmean import cli

    workload = make_workload("mc-estimation", tmp_path)
    call = workload.calls(37)[1]
    with Tracer() as tracer:
        assert run_call(tracer.wrap("cli.main", cli.main), call).rc == 0
    metrics = summarize(tracer, 0, 0.0)
    assert _value(metrics, "gehan.failed_solves") == 1
    assert sum(tracer.solve_failures.values()) == 1
    assert not invariant_violations("mc-estimation", metrics)
