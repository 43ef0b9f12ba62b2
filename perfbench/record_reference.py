"""Record ``reference.json``: the output of every pool entry at this commit.

Run from the repository root, on the commit whose outputs are the
reference (about 6 minutes on 2 cores):

    python3 perfbench/record_reference.py

For each call it stores the exit code and, when the call succeeded, what
``workloads.compare`` needs: Monte Carlo means with their standard errors,
prediction ratios with a tolerance, the censoring rate, and fit estimates
with their bootstrap SEs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _option(call, flag: str) -> str:
    return call.argv[call.argv.index(flag) + 1]


def _prediction_rows(call, table, reps: int) -> dict:
    """Means, SEs and ratio tolerances of a prediction call.

    The summary CSV has no SD column, so the scenario is rerun through the
    library (same seed, same code, so the same means) to get the SDs.
    """
    from aftmean.simulation import parse_scenario_text, run_prediction_scenario
    from workloads import MC_SE_TOL, bundled_scenario_text

    scenario = parse_scenario_text(
        bundled_scenario_text(_option(call, "--scenario")),
        reps_override=reps,
        seed_override=int(_option(call, "--seed")),
    )
    censored = run_prediction_scenario(scenario)
    baseline = run_prediction_scenario(replace(scenario, censoring=None))
    base = dict(zip(baseline.parameters, baseline.means))
    base_se = {
        p: sd / math.sqrt(reps - baseline.n_failed)
        for p, sd in zip(baseline.parameters, baseline.sds)
    }
    rows = {}
    for name, mean, sd in zip(censored.parameters, censored.means, censored.sds):
        if float(mean) != table[name]["mse"]:
            raise RuntimeError(f"{call.key}: library and CLI means differ for {name}")
        se = sd / math.sqrt(reps - censored.n_failed)
        ratio = table[name]["ratio"]
        # First-order error propagation for base_mean / mean.
        rel = se / mean + base_se[name] / base[name]
        rows[name] = {"mean": float(mean), "se": float(se), "ratio": ratio,
                      "ratio_tol": float(MC_SE_TOL * ratio * rel)}
    return rows


def record(call, outcome) -> dict:
    from workloads import read_table

    ref = {"args": call.key, "rc": outcome.rc, "message": outcome.message}
    if outcome.rc != 0:
        return ref
    table = read_table(call.output)
    if call.argv[0] == "fit":
        ref["rows"] = {
            name: {"estimate": row["estimate"], "se": row["bootstrap_se"]}
            for name, row in table.items()
        }
        return ref
    first = next(iter(table.values()))
    ref["censoring_rate"] = first["censoring_rate"]
    ref["n_failed"] = int(first["n_failed"])
    if "sd" in first:
        good = call.reps - ref["n_failed"]
        ref["rows"] = {
            name: {"mean": row["mean"], "se": row["sd"] / math.sqrt(good)}
            for name, row in table.items()
        }
    else:
        ref["rows"] = _prediction_rows(call, table, call.reps)
    return ref


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from aftmean import cli
    from workloads import REFERENCE, WORKLOAD_NAMES, make_workload, run_call

    reference = {}
    for name in WORKLOAD_NAMES:
        workload = make_workload(name, HERE / "_work" / f"record-{name}")
        entries = []
        for index in range(workload.pool):
            entries.append([record(call, run_call(cli.main, call))
                            for call in workload.calls(index)])
            failed = [r["message"] for r in entries[-1] if r["rc"] != 0]
            print(f"{name} entry {index}: {'failed ' + str(failed) if failed else 'ok'}",
                  flush=True)
        reference[name] = entries
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
