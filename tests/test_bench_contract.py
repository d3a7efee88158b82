"""The library against the benchmark's own known-answer checks.

``bench/workloads.py`` is read, never edited: its ``prepare`` runs a job and
its ``check`` judges the result as the benchmark does (``is True`` for the
coarsening theorem, pinned digests for reports and CLI verdicts).  A return
convention drifting away from what the benchmark reads fails here, where a
truthy ``assert`` would not notice.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return workloads


def _run(workloads, inputs, pinned, job):
    thunk = workloads.prepare(job, inputs, in_process_cli=True)
    errors, miss = workloads.check(job, thunk(), pinned, inputs)
    assert (errors, miss) == ([], None), (job["kind"], job["args"])


def test_lightest_windowed_job_of_each_kind_passes_the_bench_check():
    workloads = _workloads()
    inputs = workloads.Inputs(ROOT)
    pinned = workloads.load_pinned()["digests"]
    by_kind: dict = {}
    for cand in workloads.windowed_candidates():
        by_kind.setdefault(cand["kind"], []).append(cand)
    assert set(by_kind) == set(workloads.WINDOWED_COUNTS)
    for cands in by_kind.values():
        _run(workloads, inputs, pinned,
             min(cands, key=lambda c: (c["est"], workloads.cost_key(c))))


def test_every_coarsen_cli_job_passes_the_bench_check():
    workloads = _workloads()
    inputs = workloads.Inputs(ROOT)
    pinned = workloads.load_pinned()["digests"]
    jobs = workloads.cli_candidates()["coarsen"]
    assert len(jobs) == 8
    for job in jobs:
        _run(workloads, inputs, pinned, job)
