"""Time-to-verdict benchmark for the hyperfields checkers.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py for the job mixes and known answers):

* ``finite-tables``: validate, quotients, isomorphism search, classification,
  hyperideals and enumeration on finite tables.
* ``windowed-valuation``: the valuation, Krasner, superior-canonicity,
  ultrametric, residue and coarsening checkers and the tropical axiom suite
  on windows of the leading-term, composite, collapsed and tropical carriers.
* ``cli-scenarios``: one ``python -m hyperfields.cli`` process per job: the
  five scenarios, small verbs and a fixed share of malformed inputs.

Each run is a closed loop: one caller, one process, no threads; CLI jobs run
as subprocesses one at a time.  The seeded job list is run as whole rounds
until ``--seconds`` is used up (at least one round).  Every verdict is
checked against its known answer after the round, outside the timed region.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of importing the library and
  building the inputs (a bare ``import hyperfields.cli`` for cli-scenarios);
* ``wall_s``: median over rounds of the time from the first job to the last
  verdict, less the reference timings between jobs (see below);
* ``verdict_ms_p50`` / ``verdict_ms_p90``: percentiles over jobs of each
  job's median time to verdict;
* ``peak_rss_mb``: peak resident memory of this process, or of the largest
  child for cli-scenarios.

Failed jobs (raised, wrong verdict, changed witness digest, wrong exit code,
stdout not byte-equal to ``tests/golden``) are the result's ``failed`` out of
``attempted``.  ``--trace 1`` runs untraced rounds for half the time, then
one round with the wrappers of tracing.py installed, and prints the
per-layer metrics; spans go to ``bench/out/``.

Times are normalised to a reference speed.  The machines this runs on
change speed by up to a third within seconds (shared cores, frequency), so
raw times of the same code spread more than any useful bound.  After each
job the benchmark times a fixed reference: a pure-Python loop for
in-process jobs, a bare ``python -c pass`` start for subprocess jobs.  Each
job's time is scaled by REF_*_S over the median of the five references
nearest to it, so the reported milliseconds are those of a machine running
the reference in REF_*_S.  A set-up probe times the loop itself, right
after its set-up.  The reference is the benchmark's own code, so a change
to the library cannot move it; the raw times are kept in the info line.

The result is the last stdout line; the line before it records the Python
version, nproc, CPU model, seed, job count, sample counts and raw times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROBES = 9
TRACED_IMPORT_PROBES = 3

# Seconds the references take, run between jobs, on the machine the
# benchmark was calibrated on (Intel Xeon, 2 vCPUs, Python 3.11.7).
REF_LOOP_S = 0.0025
REF_PROCESS_S = 0.055
REF_PROBE_S = 0.0018  # the loop in a set-up probe, right after set-up


def ref_loop():
    """Small tuples, frozensets, dict probes and isinstance tests: the mix
    the checkers spend their time on."""
    d, n = {}, 0
    for i in range(3000):
        t = (i, i & 7, i * 3 % 11)
        d[t] = frozenset((i & 15, t[1]))
        if isinstance(t, tuple) and t in d:
            n += len(d[t])
    return n


def ref_process():
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)


def timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def normalize(times, refs, nominal):
    """Scale each time by nominal over the median of its nearest references."""
    return [t * nominal / statistics.median(refs[max(0, i - 2):i + 3])
            for i, t in enumerate(times)]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def probe(workload: str, seed: int, n: int) -> tuple[float, float]:
    """Median set-up seconds over n fresh interpreters, normalised by the
    reference loop each probe times after its set-up, and raw."""
    norm, raw = [], []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed), str(ROOT)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        setup, ref = (float(x) for x in proc.stdout.split()[-2:])
        raw.append(setup)
        norm.append(setup * REF_PROBE_S / ref)
    return statistics.median(norm), statistics.median(raw)


def run_round(jobs, thunks, reference, tracer=None):
    """Run every job once, each followed by the reference; returns
    (results, seconds per job, reference seconds after each job)."""
    results, times, refs = [], [], []
    for job, thunk in zip(jobs, thunks):
        t0 = perf_counter()
        try:
            result = thunk() if tracer is None else tracer.run_job(job["id"], job["kind"], thunk)
        except Exception as e:  # noqa: BLE001 -- a raising job is a failed job
            result = e
        t1 = perf_counter()
        results.append(result)
        times.append(t1 - t0)
        refs.append(timed(reference))
    return results, times, refs


def check_round(jobs, results, pinned, inp, failures, misses):
    """Check each result after the round; returns the number failed."""
    failed = 0
    for job, result in zip(jobs, results):
        if isinstance(result, Exception):
            errors, miss = [f"raised {type(result).__name__}: {result}"], None
        else:
            try:
                errors, miss = workloads.check(job, result, pinned, inp)
            except Exception as e:  # noqa: BLE001 -- a malformed result fails the job
                errors, miss = [f"check raised {type(e).__name__}: {e}"], None
        if errors:
            failed += 1
            failures.append({"job": job["id"], "kind": job["kind"], "args": job["args"],
                             "errors": errors})
        if miss:
            misses.add(miss)
    return failed


def rounds_until(deadline_s, jobs, thunks, reference, nominal, pinned, inp, state):
    """Whole untraced rounds while the next one is expected to fit; returns
    the normalised and raw round walls and each job's normalised times."""
    start = perf_counter()
    walls, raw_walls, per_job = [], [], [[] for _ in jobs]
    while True:
        t0 = perf_counter()
        results, times, refs = run_round(jobs, thunks, reference)
        round_s = perf_counter() - t0
        state["failed"] += check_round(jobs, results, pinned, inp,
                                       state["failures"], state["misses"])
        state["attempted"] += len(jobs)
        norm = normalize(times, refs, nominal)
        walls.append(sum(norm))
        raw_walls.append(sum(times))
        for i, t in enumerate(norm):
            per_job[i].append(t)
        if perf_counter() - start + round_s > deadline_s:
            return walls, raw_walls, per_job


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hyperfields" / "__init__.py").is_file():
        print(f"bench: no library under {src}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "cli-scenarios" and not (ROOT / "tests" / "golden").is_dir():
        print("bench: tests/golden is missing from the checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup, raw_setup = probe(args.workload, args.seed, PROBES)
    import hyperfields
    if not Path(hyperfields.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: imported {hyperfields.__file__}, not the checkout", file=sys.stderr)
        return 2

    jobs = workloads.make_jobs(args.workload, args.seed)
    inp = workloads.Inputs(ROOT)
    pinned = workloads.load_pinned()["digests"]
    traced = bool(args.trace)
    in_process = traced  # the traced CLI run calls cli.main in this process
    thunks = [workloads.prepare(job, inp, in_process_cli=in_process) for job in jobs]
    state = {"attempted": 0, "failed": 0, "failures": [], "misses": set()}

    if args.workload == "cli-scenarios" and not in_process:
        reference, nominal = ref_process, REF_PROCESS_S
    else:
        reference, nominal = ref_loop, REF_LOOP_S
    info = {"workload": args.workload, "seed": args.seed, "jobs": len(jobs),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu_model(), "trace": args.trace,
            "setup_samples": PROBES, "raw_setup_s": raw_setup}
    if not traced:
        walls, raw_walls, per_job = rounds_until(args.seconds, jobs, thunks, reference,
                                                 nominal, pinned, inp, state)
        medians = [statistics.median(ts) for ts in per_job]
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli-scenarios" \
            else resource.RUSAGE_SELF
        metrics = {
            "setup_s": (setup, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "verdict_ms_p50": (1000 * percentile(medians, 50), "ms"),
            "verdict_ms_p90": (1000 * percentile(medians, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
        }
        info.update(rounds=len(walls), verdict_samples=len(medians),
                    jobs_beyond_p90=sum(m > percentile(medians, 90) for m in medians),
                    raw_wall_s=statistics.median(raw_walls))
    else:
        from tracing import Tracer
        walls, _, _ = rounds_until(args.seconds / 2, jobs, thunks, reference, nominal,
                                   pinned, inp, state)
        tracer = Tracer()
        tracer.install()
        try:
            # Set-up is traced once on fresh inputs; the traced round then
            # reuses the warm inputs the untraced rounds ran on.
            fresh = workloads.Inputs(ROOT)
            tracer.run_job("setup", "setup", lambda: [
                workloads.prepare(job, fresh, in_process_cli=True) for job in jobs])
            results, times, refs = run_round(jobs, thunks, reference, tracer)
        finally:
            tracer.uninstall()
        traced_wall = sum(normalize(times, refs, nominal))
        state["failed"] += check_round(jobs, results, pinned, inp,
                                       state["failures"], state["misses"])
        state["attempted"] += len(jobs)
        layers = tracer.layer_metrics()
        imports = setup if args.workload == "cli-scenarios" else \
            probe("cli-scenarios", args.seed, TRACED_IMPORT_PROBES)[0]
        layers["cli.import_s"] = (imports, "s")
        layers["trace.overhead_ratio"] = (traced_wall / statistics.median(walls), "ratio")
        layers["cli.exit2_contract_misses"] = (len(state["misses"]), "count")
        metrics = dict(sorted(layers.items()))
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"trace-{args.workload}-{args.seed}.json")
        info.update(untraced_rounds=len(walls), traced_rounds=1,
                    spans=len(tracer.spans))

    info.update(attempted=state["attempted"], failed=state["failed"],
                failed_frac=f"{state['failed']}/{state['attempted']}",
                exit2_contract_misses=sorted(state["misses"]),
                failures=state["failures"][:20])
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": state["failed"] == 0,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
