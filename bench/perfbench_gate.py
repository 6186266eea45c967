#!/usr/bin/env python3
"""Counted-work gate over the repository benchmark's traced runs.

    for workload in price-symmetric price-profile pool-scale campaign-live; do
      python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 1
    done | python3 bench/perfbench_gate.py

Reads the concatenated perfbench output on stdin: each run's
"perfbench workload=<name>" header and its last line, the JSON result.
Exits 1 when a workload recorded in bench/baselines/perfbench_work.json has
no result, or when any run

  * is not "correct" or has "failed" ops;
  * has a counted-pass counter (COUNTERS) more than BAND above or below its
    recorded value;
  * has an audit metric above its fixed bound (AUDIT_BOUNDS).

The counters come from perfbench's serial counted pass, which repeats
bitwise from run to run, so wall time and host load do not move them. The
band is two-sided: a change that cuts work re-records the baseline, which
keeps the recorded values current. On failure the gate prints the observed
counters in the baseline's format.
"""
import json
import os
import sys

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "baselines", "perfbench_work.json")
COUNTERS = ("leader_eval.count", "follower.sweeps",
            "follower.best_response_evals", "follower.corner_sweeps")
BAND = 0.10
AUDIT_BOUNDS = {"audit.gap_max": 1e-6, "audit.capacity_probe_violation": 1e-9}


def read_results(stream):
    """Maps each workload to the last JSON result line of its run."""
    results = {}
    workload = None
    for line in stream:
        if line.startswith("perfbench workload="):
            workload = line.split()[1].split("=", 1)[1]
            results[workload] = None
        elif workload is not None and line.startswith("{"):
            try:
                results[workload] = json.loads(line)
            except ValueError:
                results[workload] = None
    return results


def check(result, recorded):
    """Returns the list of problems with one workload's result."""
    problems = []
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    metrics = {name: metric.get("value")
               for name, metric in result.get("metrics", {}).items()}
    for name in COUNTERS:
        value, want = metrics.get(name), recorded[name]
        if value is None:
            problems.append(f"{name} missing (run with --trace 1)")
        elif not abs(value - want) <= BAND * abs(want):
            change = f"{(value - want) / want:+.1%}" if want else "new work"
            problems.append(f"{name} {value:g} vs recorded {want:g} "
                            f"({change}, band ±{BAND:.0%})")
    for name, bound in AUDIT_BOUNDS.items():
        value = metrics.get(name)
        if value is None:
            problems.append(f"{name} missing (run with --trace 1)")
        elif not value <= bound:
            problems.append(f"{name} {value:g} above {bound:g}")
    return problems


def main():
    with open(BASELINE) as baseline_file:
        baseline = json.load(baseline_file)["workloads"]
    results = read_results(sys.stdin)
    failed = False
    for workload in sorted(set(baseline) | set(results)):
        result = results.get(workload)
        if result is None:
            problems = ["no result line"]
        elif workload not in baseline:
            problems = ["no recorded counters"]
        else:
            problems = check(result, baseline[workload])
        failed = failed or bool(problems)
        print(f"{'FAIL' if problems else 'ok'} {workload}"
              + "".join(f"\n  {problem}" for problem in problems))
    if failed:
        observed = {
            workload: {name: result["metrics"][name]["value"]
                       for name in COUNTERS
                       if name in result.get("metrics", {})}
            for workload, result in results.items() if result is not None}
        print("observed counters (the baseline's \"workloads\" map), "
              "to re-record after an intended change:")
        print(json.dumps(observed, indent=2, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
