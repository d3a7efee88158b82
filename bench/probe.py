"""Set-up probe: run in a fresh interpreter, print the seconds it took to
import the library and build one workload's inputs, then the median of five
reference-loop timings taken right after, in the same process.

    python3 bench/probe.py <workload> <seed> <checkout root>

For cli-scenarios the set-up is a bare ``import hyperfields.cli``, which
every ``hyperval`` process pays.
"""

import statistics
import sys
from time import perf_counter

t0 = perf_counter()
workload, seed, root = sys.argv[1], int(sys.argv[2]), sys.argv[3]
sys.path.insert(0, f"{root}/src")
if workload == "cli-scenarios":
    import hyperfields.cli  # noqa: F401
else:
    from pathlib import Path

    import workloads
    jobs = workloads.make_jobs(workload, seed)
    inp = workloads.Inputs(Path(root))
    thunks = [workloads.prepare(job, inp) for job in jobs]
setup = perf_counter() - t0

from run import ref_loop, timed  # noqa: E402

print(repr(setup), repr(statistics.median(timed(ref_loop) for _ in range(5))))
