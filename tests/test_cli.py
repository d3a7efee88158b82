"""CLI contract: verbs, exit codes, JSON reports, byte-level determinism."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hyperfields import leading_terms as lt
from hyperfields import tropical
from hyperfields.cli import SCENARIOS, main
from hyperfields.ordgroup import WINDOW_LIMIT, gzero

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


# -- axioms / classify ------------------------------------------------------------

def test_axioms_pass_on_builtins(capsys):
    for uri in ("builtin:K", "builtin:S", "builtin:W", "builtin:F9"):
        code, rep = run(capsys, "axioms", uri)
        assert code == 0
        assert rep["passed"] and rep["verb"] == "axioms"
        assert rep["report"]["mode"] == "proof by exhaustion"


def test_axioms_on_tropical_carriers(capsys):
    code, rep = run(capsys, "axioms", "tropical:1", "--window-bound", "2")
    assert code == 0
    assert rep["report"]["window"] == {"bound": 2, "rank": 1}
    code, rep = run(capsys, "axioms", "tropical-strict:1", "--window-bound", "2")
    assert code == 0


def test_axioms_fail_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "names": ["0", "1"],
        "mul": [[0, 0], [0, 1]],
        "add": [[[0], [1]], [[1], [1]]],
    }))
    code, rep = run(capsys, "axioms", str(bad))
    assert code == 1
    assert not rep["passed"]
    failed = [c for c in rep["report"]["checks"] if not c["passed"]]
    assert failed and all("axiom" in c for c in failed)


def test_parse_errors_exit_2(tmp_path, capsys):
    assert main(["axioms", "builtin:nope"]) == 2
    assert main(["axioms", str(tmp_path / "missing.json")]) == 2
    assert main(["axioms", "tropical:x"]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["axioms", str(garbage)]) == 2
    notatable = tmp_path / "num.json"
    notatable.write_text("[1, 2, 3]")
    assert main(["axioms", str(notatable)]) == 2
    capsys.readouterr()


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["enumerate"])  # missing required --order
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["enumerate", "--order", "7", "--cap", "7"])  # no such flag
    assert e.value.code == 2


# Each of these exited 3 (internal error), 1 or 0 (a vacuous PASS on an empty
# window) before the parser checked parameter ranges.
@pytest.mark.parametrize("argv", [
    ("krasner", "kgamma", "--q", "6"),
    ("krasner", "kgamma", "--gamma", "-1"),
    ("krasner", "composite", "--p", "1"),
    ("krasner", "composite", "--p", "4"),
    ("krasner", "tropical:1", "--norm-bound", "-1"),
    ("krasner", "collapsed", "--window-bound", "-1"),
    ("residue", "kgamma", "--gamma", "-1"),
    ("axioms", "tropical:1", "--window-bound", "-1"),
    ("coarsen", "--p", "1"),
    ("coarsen", "--window-bound", "-1"),
    ("scenario", "kgamma", "--q", "6"),
    ("scenario", "kgamma", "--window-bound", "-1"),
    ("scenario", "example-last", "--p", "4"),
])
def test_out_of_range_parameters_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    assert e.value.code == 2
    assert "error: argument" in capsys.readouterr().err


# Windows above the size limit are refused with exit 2 before any of them is
# built (these exited 3, ran without end, were killed for memory, or had no
# guard at all, before).
@pytest.mark.parametrize("argv", [
    ("krasner", "kgamma", "--q", "49", "--gamma", "3", "--window-bound", "100"),
    ("krasner", "kgamma", "--q", "3", "--gamma", "11"),
    ("axioms", "tropical:12", "--window-bound", "3"),
    ("axioms", "tropical:1000000000", "--window-bound", "3"),
    ("krasner", "composite", "--window-bound", "5000"),
    ("krasner", "collapsed", "--window-bound", "100000"),
])
def test_oversize_windows_exit_2(argv, capsys, monkeypatch):
    def built(*args):
        raise AssertionError("window built before the size check")

    def unit(rank):  # T(Z^rank) builds its unit; a huge rank is refused first
        return built() if rank > WINDOW_LIMIT else gzero(rank)

    element = lt.CompositeElement

    def composite_element(n, c):  # only the unit (n = 0) is built up front
        return built() if n else element(n, c)

    monkeypatch.setattr(lt, "GaloisField", built)
    monkeypatch.setattr(lt, "CompositeElement", composite_element)
    monkeypatch.setattr(tropical, "window", built)
    monkeypatch.setattr(tropical, "gzero", unit)
    t0 = time.perf_counter()
    assert main(list(argv)) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "window too large" in capsys.readouterr().err


def test_classify_reports_the_flag_vector(capsys):
    code, rep = run(capsys, "classify", "builtin:K")
    assert code == 0
    assert rep["classification"] == {
        "is_field": False, "char2": True, "cchar1": True,
        "stringent": True, "superiorly_canonical": False}
    code, rep = run(capsys, "classify", "builtin:F4")
    assert rep["classification"]["is_field"] is True
    assert rep["classification"]["superiorly_canonical"] is True


# -- quotient / iso / enumerate / hyperideals ------------------------------------------

def test_quotient_then_iso_pipeline(tmp_path, capsys):
    table = tmp_path / "q.json"
    code, rep = run(capsys, "quotient", "--field", "7", "--subgroup", "squares",
                    "--output", str(table))
    assert code == 0 and rep is None
    data = json.loads(table.read_text())
    assert data["order"] == 3 and data["subgroup"] == [1, 2, 4]

    code, rep = run(capsys, "iso", str(table), "builtin:W")
    assert code == 0
    assert rep["isomorphic"] and rep["map"][0] == 0

    code, rep = run(capsys, "iso", str(table), "builtin:S")
    assert code == 1 and rep["isomorphic"] is False


def test_iso_on_a_non_group_table_exits_2(tmp_path):
    # a * a = a, so no power of a is 1: the nonzero elements are no group.
    # The unit-group search used to loop forever looking for a's order.
    bad = tmp_path / "nongroup.json"
    bad.write_text(json.dumps({
        "names": ["0", "1", "a"],
        "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 2]],
        "add": [[[0], [1], [2]], [[1], [0, 1, 2], [0, 1, 2]],
                [[2], [0, 1, 2], [0, 1, 2]]],
    }))
    proc = subprocess.run([sys.executable, "-m", "hyperfields.cli", "iso",
                           str(bad), "builtin:S"],
                          capture_output=True, check=False, timeout=10)
    assert proc.returncode == 2, proc.stderr.decode()
    assert b"malformed table" in proc.stderr


def test_quotient_of_units_is_K(capsys):
    code, rep = run(capsys, "quotient", "--field", "9", "--subgroup", "units")
    assert code == 0 and rep["order"] == 2


def test_quotient_rejects_bad_subgroups(capsys):
    assert main(["quotient", "--field", "7", "--subgroup", "0"]) == 2
    assert main(["quotient", "--field", "6", "--subgroup", "units"]) == 2
    assert main(["quotient", "--field", "7", "--subgroup", "x,y"]) == 2
    capsys.readouterr()


def test_enumerate_counts(capsys):
    code, rep = run(capsys, "enumerate", "--order", "3")
    assert code == 0
    assert rep["count"] == 5 and len(rep["tables"]) == 5
    assert rep["fields"] == 1  # F_3 alone among the five
    assert main(["enumerate", "--order", "9"]) == 2  # over the fixed cap of 6
    assert main(["enumerate", "--order", "1"]) == 2
    capsys.readouterr()


def test_hyperideal_dichotomy_verb(capsys):
    code, rep = run(capsys, "hyperideals", "builtin:S")
    assert code == 0
    assert rep["hyperideals"] == [[0], [0, 1, 2]]
    assert rep["only_trivial_and_whole"]


# -- krasner / residue / coarsen ----------------------------------------------------

def test_krasner_verdicts_by_backend(capsys):
    code, rep = run(capsys, "krasner", "kgamma", "--q", "2", "--gamma", "1",
                    "--window-bound", "1")
    assert code == 0
    assert rep["valuation"]["passed"] and rep["krasner"]["passed"]

    code, rep = run(capsys, "krasner", "collapsed", "--window-bound", "2")
    assert code == 1
    assert rep["valuation"]["passed"] and not rep["krasner"]["passed"]

    code, rep = run(capsys, "krasner", "tropical:1", "--window-bound", "2")
    assert code == 1
    code, rep = run(capsys, "krasner", "tropical-strict:1", "--window-bound", "2")
    assert code == 0

    code, rep = run(capsys, "krasner", "builtin:F3")
    assert code == 0
    code, rep = run(capsys, "krasner", "builtin:K")
    assert code == 1


def test_residue_verb(capsys):
    code, rep = run(capsys, "residue", "kgamma", "--q", "3", "--gamma", "1",
                    "--window-bound", "1")
    assert code == 0
    assert rep["order"] == 3 and rep["is_field"]

    code, rep = run(capsys, "residue", "collapsed", "--window-bound", "2")
    assert code == 0
    assert rep["order"] == 2 and rep["is_field"] is False


def test_coarsen_verb(capsys):
    code, rep = run(capsys, "coarsen", "--p", "2", "--window-bound", "2")
    assert code == 0
    assert rep["invariance_group"] == {"rank": 2, "zeros": 1}
    assert rep["coarsening_matches_induced_ring"]


# -- scenarios -----------------------------------------------------------------------

def test_unknown_scenario_exits_2(capsys):
    assert main(["scenario", "nope"]) == 2
    capsys.readouterr()


def test_scenario_kgamma_small_window(capsys):
    code, rep = run(capsys, "scenario", "kgamma", "--q", "2", "--gamma", "0",
                    "--window-bound", "1")
    assert code == 0
    assert rep["scenario"] == "kgamma"
    assert all(c["passed"] for c in rep["claims"])


def _run_cli(*argv) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "hyperfields.cli", *argv],
                          capture_output=True, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_scenario_output_is_deterministic_across_processes():
    a = _run_cli("scenario", "no-kraval", "--window-bound", "2")
    b = _run_cli("scenario", "no-kraval", "--window-bound", "2")
    assert a == b


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden_file(name):
    golden = (GOLDEN / f"{name}.json").read_bytes()
    assert _run_cli("scenario", name) == golden
    assert json.loads(golden)["passed"] is True
