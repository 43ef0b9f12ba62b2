"""One workload process: set-up, then a closed loop of in-process CLI calls.

``run.py`` starts this script; it is not meant to be run by hand.  It
prints ``READY`` once set-up is done (importing aftmean and scipy, parsing
the scenarios, writing the input CSVs) and, at the end, one JSON line with
per-entry timings, host-speed probes, failure counts and the correctness
verdict.  A single caller drives ``aftmean.cli.main`` and waits for each
call, with no worker threads.

With ``--trace 1`` every entry runs twice in a row, untraced and then with
the tracer installed.  The per-layer metrics come from the traced runs, and
``trace.overhead_frac`` is the median over entries of traced over untraced
time, minus one.  Running the two back to back keeps host speed drift out
of that ratio.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import Tracer, summarize
from workloads import REFERENCE, compare, failed_reps, make_workload, run_call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Runner:
    """Runs pool entries, checks each call, and keeps the failure tally."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.causes: Counter = Counter()
        self.mismatches: list[str] = []
        self.checked = 0

    def run_entry(self, index: int, main) -> tuple[int, float, int, int]:
        """Run entry ``index``; returns (index, seconds, reps, failed reps)."""
        calls = self.workload.calls(index)
        start = time.perf_counter()
        outcomes = [run_call(main, call) for call in calls]
        seconds = time.perf_counter() - start
        reps = failed = 0
        for call, outcome, ref in zip(calls, outcomes, self.reference[index]):
            lost = failed_reps(call, outcome)
            reps += call.reps
            failed += lost
            if outcome.rc != 0:
                self.causes[f"exit {outcome.rc}: {outcome.message}"] += call.reps
            elif lost:
                self.causes["replicate failures within a summary (n_failed)"] += lost
            self.mismatches += compare(call, outcome, ref)
            self.checked += ref["rc"] == 0
        self.attempted += reps
        self.failed += failed
        return index, seconds, reps, failed


def host_probe() -> float:
    """Seconds taken by a fixed task that uses no aftmean code.

    Shared hosts change CPU speed by a third within minutes.  Timing this
    task next to each measurement lets run.py scale the measurement to a
    fixed host speed.  Its mix follows the workloads': a Nelder-Mead loop
    over small argsorts (Python-bound, like the d > 1 solver) and one large
    argsort (memory-bound, like the kink scan).  The task runs twice and
    only the second run is timed: the first run after a workload call pays
    for that call's heap state (about 50% more after an n=2000 kink scan),
    which is the program's cost, not the host's.
    """
    import numpy as np
    from scipy.optimize import minimize

    rng = np.random.default_rng(0)
    z, w, big = rng.normal(size=400), rng.normal(size=(400, 2)), rng.normal(size=1 << 19)

    def objective(b):
        e = z - w @ b
        return float(np.abs(np.cumsum(e[np.argsort(e, kind="stable")])).sum() + b @ b)

    def task():
        minimize(objective, np.ones(2), method="Nelder-Mead",
                 options=dict(maxfev=800, maxiter=800, xatol=0.0, fatol=0.0))
        np.argsort(big, kind="stable")

    task()
    start = time.perf_counter()
    task()
    return time.perf_counter() - start


def visit(order, seconds: float):
    """Pool indices from ``order`` (cycled) until ``seconds`` have passed."""
    start = time.perf_counter()
    for count, index in enumerate(itertools.cycle(order)):
        if count and time.perf_counter() - start >= seconds:
            return
        yield index


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    from aftmean import cli, kernels

    work = HERE / "_work" / args.workload
    workload = make_workload(args.workload, work)
    print("READY", flush=True)
    if args.setup_only:
        print(json.dumps({"probe": host_probe()}), flush=True)
        return 0

    reference = json.loads(REFERENCE.read_text())[args.workload]
    order = random.Random(args.seed).sample(range(workload.pool), workload.pool)
    runner = Runner(workload, reference)
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    entries, traced = [], []
    for index in visit(order, args.seconds):
        probe = host_probe()
        entries.append((*runner.run_entry(index, cli.main), probe))
        if args.trace:
            with tracer:
                traced.append(runner.run_entry(index, traced_main))
    result = {"entries": entries}
    if args.trace:
        # A median over entries, so the first entry's warm-up does not count.
        overhead = statistics.median(t[1] / u[1] for t, u in zip(traced, entries)) - 1.0
        simulated = workload.name.startswith("mc-")
        failed = sum(entry[3] for entry in traced) if simulated else 0
        per_layer = summarize(tracer, failed, overhead)
        tracer.write_spans(work / f"spans-seed{args.seed}.csv")
        result.update(traced_entries=traced, per_layer=per_layer,
                      solve_failures=dict(tracer.solve_failures))

    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        causes=dict(runner.causes),
        checked=runner.checked,
        mismatches=runner.mismatches,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        versions={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "backend": kernels.active_backend(),
        },
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
