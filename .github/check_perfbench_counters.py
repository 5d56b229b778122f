#!/usr/bin/env python3
"""Gates a perfbench smoke run on its host-independent counters.

    python3 perfbench/run.py --workload a53-long --seed 1 --seconds 1 \\
        --trace 1 --smoke | tail -n 1 > a53-long.json
    python3 .github/check_perfbench_counters.py a53-long a53-long.json

The result file holds the last line of the run's standard output. The run
must be correct with no failures. Every counter listed under `exact` in
`perfbench-counters.json` must equal its recorded value, and every one
under `at_most` must not exceed it. Timing-dependent counters (wall times,
`dist.batches`) are not gated. Exit code 0 = pass, 1 = a counter moved.
"""

import json
import os
import sys

COUNTERS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perfbench-counters.json")


def check(workload, result, gate):
    """Returns one message per violation of `gate` by `result`."""
    problems = []
    if not result.get("correct") or result.get("failed"):
        problems.append(f"run not clean: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    recorded = gate["workloads"][workload]
    metrics = result.get("metrics", {})
    for name, want in sorted(recorded.items()):
        got = metrics.get(name, {}).get("value")
        if got is None:
            problems.append(f"{name}: missing from the run")
        elif name in gate["exact"] and got != want:
            problems.append(f"{name}: {got} != recorded {want}")
        elif name in gate["at_most"] and got > want + 1e-9:
            problems.append(f"{name}: {got} > recorded bound {want}")
    return problems


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    workload, path = argv[1], argv[2]
    with open(COUNTERS) as f:
        gate = json.load(f)
    with open(path) as f:
        result = json.loads(f.read().strip().splitlines()[-1])
    problems = check(workload, result, gate)
    for p in problems:
        print(f"{workload}: {p}", file=sys.stderr)
    if not problems:
        print(f"{workload}: {len(gate['workloads'][workload])} counters match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
