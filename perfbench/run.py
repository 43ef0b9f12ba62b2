"""aftmean benchmark: one workload, end-to-end or traced per-module metrics.

Run from the repository root:

    python3 perfbench/run.py --workload mc-estimation --seed 1 --seconds 20 --trace 0

``--trace 0`` prints reps_per_s, setup_s and peak_rss_mb; ``--trace 1``
prints the per-module metrics of a traced run (see NOTES.md).  Either way
every call's output is checked against ``reference.json``.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when the outputs are correct, 1 when a check failed or the workload process
died, and 2 when the package source or the reference is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import invariant_violations  # noqa: E402
from workloads import REFERENCE, WORKLOAD_NAMES  # noqa: E402

# setup_s is the median over this many set-up-only processes plus the
# measured process's own set-up.
SETUP_PROBES = 3
# Timings are scaled to a host on which worker.host_probe() takes this long.
PROBE_NOMINAL_S = 0.1
# Every process this run starts is killed once this budget is spent.
TIME_BUDGET_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha() -> str | None:
    """HEAD's commit id, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def start_worker(args, env, deadline, *extra):
    """Start worker.py; returns (process, watchdog, seconds until READY).

    The watchdog kills the process once ``deadline`` passes.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        finish(proc, watchdog)
        raise RuntimeError(f"workload process did not finish set-up (exit {proc.returncode})")
    return proc, watchdog, setup


def finish(proc, watchdog) -> str:
    """Wait for ``proc`` and return the rest of its standard output."""
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    return rest


def run(args) -> tuple[dict, dict]:
    """Run the workload; returns (worker result, report)."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, **{var: str(nproc) for var in BLAS_THREAD_VARS})
    deadline = time.monotonic() + TIME_BUDGET_S
    setups = []  # (seconds to READY, host probe right after)
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, watchdog, setup = start_worker(args, env, deadline, "--setup-only")
            lines = finish(proc, watchdog).strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"set-up process exited with {proc.returncode}")
            setups.append((setup, json.loads(lines[-1])["probe"]))
    proc, watchdog, setup = start_worker(args, env, deadline)
    lines = finish(proc, watchdog).strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    result = json.loads(lines[-1])
    setups.append((setup, result["entries"][0][4]))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "git_sha": git_sha(),
            **result["versions"],
            "nproc": nproc,
            "blas_threads": nproc,
            "blas_thread_vars": list(BLAS_THREAD_VARS),
        },
        "setup_samples": setups,
    }
    return result, report


def end_to_end(result, setups) -> tuple[dict, dict]:
    """(metrics scaled to the nominal host speed, the same in plain wall clock).

    Each entry's rate and each set-up time is scaled by the host probe
    timed next to it, so a host running a third slower for a minute moves
    the scaled figures far less than the wall-clock ones.
    """
    rates = [((reps - failed) / seconds, probe)
             for _, seconds, reps, failed, probe in result["entries"]]
    rss = {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"}
    scaled = {
        "reps_per_s": statistics.median(r * p / PROBE_NOMINAL_S for r, p in rates),
        "setup_s": statistics.median(s * PROBE_NOMINAL_S / p for s, p in setups),
    }
    wall = {
        "reps_per_s": statistics.median(r for r, _ in rates),
        "setup_s": statistics.median(s for s, _ in setups),
    }
    units = {"reps_per_s": "1/s", "setup_s": "s"}
    return (
        {k: {"value": v, "unit": units[k]} for k, v in scaled.items()} | {"peak_rss_mb": rss},
        {k: {"value": v, "unit": units[k]} for k, v in wall.items()},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "aftmean" / "__init__.py").is_file():
        print(f"no aftmean source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"missing {REFERENCE}", file=sys.stderr)
        return 2

    try:
        result, report = run(args)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, wall = result["per_layer"], {}
    else:
        metrics, wall = end_to_end(result, report["setup_samples"])
    attempted, failed = result["attempted"], result["failed"]
    violations = invariant_violations(args.workload, metrics) if args.trace else []
    correct = not result["mismatches"] and not violations
    report.update(
        metrics=metrics,
        wall_clock=wall,
        failed_frac=failed / attempted,
        attempted=attempted,
        failed=failed,
        failure_causes=result["causes"],
        solve_failures=result.get("solve_failures"),
        correct=correct,
        calls_checked=result["checked"],
        mismatches=result["mismatches"],
        invariant_violations=violations,
        entries=result["entries"],
        traced_entries=result.get("traced_entries"),
    )
    results_dir = HERE / "_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    env = report["environment"]
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
    for name, metric in wall.items():
        print(f"  {name + ' (wall clock)':42s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':42s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for cause, count in result["causes"].items():
        print(f"  failed: {count} x {cause}")
    for cause, count in (result.get("solve_failures") or {}).items():
        print(f"  failed slope solve (traced): {count} x {cause}")
    print(f"correctness: {result['checked']} calls checked against {REFERENCE.name}, "
          f"{len(result['mismatches'])} mismatches")
    for line in result["mismatches"][:20]:
        print(f"  MISMATCH {line}")
    if args.trace:
        print(f"invariants: {len(violations)} violated")
        for line in violations:
            print(f"  VIOLATED {line}")
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
