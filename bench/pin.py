"""Regenerate pinned.json: the witness digest and the calibrated cost of
every job any seed can draw.

    python3 bench/pin.py

Digests: run only when a change to a verdict or a first witness is
intended, and say so in the change; the benchmark counts every other digest
change as a failed job.  Costs (seconds per job on the machine that ran
this) only order the candidates into the size strata the generator draws
from, so regenerating them changes every job list: do it in a change to
the benchmark, never in a change that claims a gain.
"""

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def timed(thunk):
    t0 = perf_counter()
    result = thunk()
    return result, perf_counter() - t0


def main() -> int:
    inp = workloads.Inputs(ROOT)
    digests, seconds = {}, {}
    for workload in workloads.WORKLOADS:
        for job in workloads.candidates(workload):
            key = workloads.cost_key(job)
            if key in seconds:
                continue
            thunk = workloads.prepare(job, inp)
            result, t = timed(thunk)
            times = [t] + [timed(thunk)[1] for _ in range(4 if t < 0.05 else 1)]
            seconds[key] = statistics.median(times)
            if job["pin"] is not None and job["pin"] not in digests:
                digest = workloads.pin_value(job, result)
                if digest is not None:
                    digests[job["pin"]] = digest
    with open(workloads.PINNED, "w") as fh:
        json.dump({"digests": digests, "seconds": seconds}, fh, indent=0,
                  sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(digests)} digests and {len(seconds)} costs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
