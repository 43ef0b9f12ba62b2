"""Print a digest of aftmean's CLI outputs, to check that two trees agree byte for byte.

Usage::

    python tools/output_digest.py ROOT > digest.txt

ROOT is a checkout of this repository.  The script imports ``aftmean`` from
``ROOT/src`` and the benchmark's workload pools from
``ROOT/perfbench/workloads.py`` (it only reads them), then runs in-process:

- every call of every pool entry of the three benchmark workloads;
- every bundled scenario cell, Table-1 cells at ``--reps 20`` and Table-2
  cells at ``--reps 2``;
- the scenario files in ``DEFAULT_KEY_SCENARIOS``, which leave out ``cens``,
  ``x1`` and ``mode`` (every bundled cell sets them), so the parser's
  defaults reach the digest too;
- two commands on the CSV of ``fit-bootstrap``'s pool entry 0:
  ``predict-cv --covariates age,logbili --log-time``, the one command the
  benchmark never runs, and ``fit --covariates logbili --boot 8 --mode
  theoretical``, a d = 1 bootstrap under the theoretical truncation rule
  (every other call is maxobs, and the benchmark bootstraps only at d = 5).

It prints one line per call: the command line without its directories, the
exit code, the last stderr line of a failed call, and a sha256 of each output
file (``fit`` also writes a ``_km`` curve file).  Two trees produced
byte-identical outputs when their digests are equal::

    python tools/output_digest.py OLD > old.txt
    python tools/output_digest.py NEW > new.txt
    diff old.txt new.txt

This is not part of the test suite: it takes several minutes per tree.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

CELL_REPS = {"table1": 20, "table2": 2}

# scenario files without ``cens``, ``x1`` or ``mode``: the study's default
# censoring base, the default X1 and the maxobs truncation rule
DEFAULT_KEY_SCENARIOS = {
    "default_estimation_tau4": (
        "study = estimation\nerror = normal(0.5)\nx2 = normal(0,1)\n"
        "tau = 4\nn = 100\nreps = 20\nseed = 31001\n"
    ),
    "default_estimation_no_tau": (
        "study = estimation\nerror = logistic(0.5)\nx2 = uniform(-2,2)\n"
        "n = 100\nreps = 20\nseed = 31002\n"
    ),
    "default_prediction_tau-1": (
        "study = prediction\nx = normal(0,1)\ntau = -1\nn = 200\nreps = 5\nseed = 31003\n"
    ),
}


def _digest_line(cli, run_call, call, work: Path) -> str:
    outputs = [call.output, cli._km_curve_path(str(call.output))]
    for path in outputs:
        path.unlink(missing_ok=True)
    outcome = run_call(cli.main, call)
    # the work directory differs between runs; keep it out of the digest
    parts = [call.key.replace(str(work), "WORK"), f"rc={outcome.rc}",
             outcome.message.replace(str(work), "WORK")]
    for path in outputs:
        if path.exists():
            parts.append(f"{path.name}={hashlib.sha256(path.read_bytes()).hexdigest()}")
    return "\t".join(parts)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(args[0]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from importlib import resources

    from aftmean import cli
    from workloads import WORKLOAD_NAMES, Call, make_workload, run_call

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in WORKLOAD_NAMES:
            workload = make_workload(name, work / name)
            for index in range(workload.pool):
                for call in workload.calls(index):
                    print(f"{name}[{index}]\t{_digest_line(cli, run_call, call, work)}",
                          flush=True)
        configs = resources.files("aftmean").joinpath("configs")
        for cell in sorted(p.name[:-4] for p in configs.iterdir() if p.name.endswith(".cfg")):
            reps = CELL_REPS[cell.split("_", 1)[0]]
            output = work / "cell.csv"
            argv = ("simulate", "--scenario", cell, "--reps", str(reps), "--output", str(output))
            call = Call(argv, reps, output)
            print(f"cell\t{_digest_line(cli, run_call, call, work)}", flush=True)
        for name, text in DEFAULT_KEY_SCENARIOS.items():
            scenario = work / f"{name}.cfg"
            scenario.write_text(text)
            output = work / "default.csv"
            argv = ("simulate", "--scenario", str(scenario), "--output", str(output))
            call = Call(argv, 0, output)
            print(f"default\t{_digest_line(cli, run_call, call, work)}", flush=True)
        pbc = work / "fit-bootstrap" / "pbc0.csv"  # written by fit-bootstrap's set-up
        model = ("--input", str(pbc), "--response", "days", "--event", "death")
        extra = (
            ("cv.csv", ("predict-cv", *model, "--covariates", "age,logbili", "--log-time")),
            ("fit.csv", ("fit", *model, "--covariates", "logbili", "--log-time",
                         "--boot", "8", "--seed", "418000", "--mode", "theoretical")),
        )
        for name, argv in extra:
            output = work / name
            call = Call((*argv, "--output", str(output)), 0, output)
            print(f"{argv[0]}\t{_digest_line(cli, run_call, call, work)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
