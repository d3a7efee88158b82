"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def inp():
    return workloads.Inputs(ROOT)


def _run(jobs, inp, tracer=None):
    thunks = [workloads.prepare(job, inp) for job in jobs]
    results, _, _ = run.run_round(jobs, thunks, run.ref_loop, tracer)
    failures, misses = [], set()
    failed = run.check_round(jobs, results, workloads.load_pinned()["digests"], inp,
                             failures, misses)
    return failed, failures


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_job_list(workload):
    assert workloads.make_jobs(workload, 7) == workloads.make_jobs(workload, 7)
    assert workloads.make_jobs(workload, 7) != workloads.make_jobs(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_seed_draws_above_the_cap(workload):
    for seed in range(5):
        for job in workloads.make_jobs(workload, seed):
            assert workloads.estimate(job["kind"], job["args"]) <= workloads.CAP


def _small_jobs():
    cands = workloads.windowed_candidates()
    krasner = next(c for c in cands if c["kind"] == "check_krasner"
                   and c["args"]["carrier"] == "collapsed")
    iso_w = workloads._cand("iso_W", {"p": 7}, {"iso": True})
    jobs = [dict(krasner), iso_w]
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


def test_known_answers_pass(inp):
    failed, failures = _run(_small_jobs(), inp)
    assert failed == 0, failures


def test_wrong_expected_answer_is_counted_as_failed(inp):
    jobs = _small_jobs()
    jobs[0]["expect"] = {"ok": True}   # the collapsed carrier fails KVH2
    jobs[1]["expect"] = {"iso": False}  # F_7 / squares is W
    failed, failures = _run(jobs, inp)
    assert failed == 2
    assert {f["kind"] for f in failures} == {"check_krasner", "iso_W"}


def test_changed_witness_digest_is_counted_as_failed(inp):
    jobs = _small_jobs()[:1]
    thunks = [workloads.prepare(job, inp) for job in jobs]
    results, _, _ = run.run_round(jobs, thunks, run.ref_loop)
    pinned = {jobs[0]["pin"]: "0" * 64}
    failures = []
    assert run.check_round(jobs, results, pinned, inp, failures, set()) == 1
    assert "digest" in failures[0]["errors"][0]


def _snapshot():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "hyperfields" or name.startswith("hyperfields."):
            out[name] = dict(vars(mod))
            for v in vars(mod).values():
                if isinstance(v, type) and v.__module__ == name:
                    out[f"{name}.{v.__qualname__}"] = dict(vars(v))
    return out


def test_tracer_restores_every_original(inp):
    import hyperfields.cli  # noqa: F401
    from hyperfields import cli, finite, hypersets, ordgroup, valuation
    before = _snapshot()
    original_validate = finite.validate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert finite.validate is not original_validate
        assert cli.validate is finite.validate  # copies are wrapped too
        assert hypersets.value_gt_cut is ordgroup.value_gt_cut is valuation.value_gt_cut
        assert hypersets.value_gt_cut is not before["hyperfields.ordgroup"]["value_gt_cut"]
        failed, _ = _run(_small_jobs(), inp, tracer)
    finally:
        tracer.uninstall()
    assert failed == 0
    assert tracer.stats["valuation.check_krasner"][0] == 1
    assert tracer.stats["finite.find_isomorphism"][0] == 1
    assert not tracer.patched
    after = _snapshot()
    for key, attrs in before.items():
        for attr, value in attrs.items():
            assert after[key][attr] is value, f"{key}.{attr} not restored"


def test_size_guard_refuses_without_running(monkeypatch, inp):
    from hyperfields import tropical
    calls = []
    monkeypatch.setattr(tropical, "tropical_axiom_suite",
                        lambda *a, **k: calls.append(a))
    job = {"id": 0, "kind": "tropical_axiom_suite",
           "args": {"carrier": "tropical:3", "bound": 2}, "est": None,
           "expect": {"ok": True}, "pin": None}
    assert workloads.estimate(job["kind"], job["args"]) == 126 ** 3
    with pytest.raises(workloads.OversizedJob):
        workloads.prepare(job, inp)
    assert calls == []
    job["args"]["bound"] = 1
    workloads.prepare(job, inp)()
    assert len(calls) == 1


def test_known_exit_defects_are_reported_apart(inp):
    argv = ["krasner", "composite", "--p", "1"]
    job = workloads._cli(argv, 1, 2, None, pin=False, category="malformed")
    assert workloads.check(job, (3, b""), {}, inp) == ([], " ".join(argv))
    assert workloads.check(job, (2, b""), {}, inp) == ([], None)
    errors, miss = workloads.check(job, (1, b""), {}, inp)
    assert errors and miss is None
