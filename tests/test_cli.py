"""CLI contract: verbs, exit codes, JSON reports, byte-level determinism."""

import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfields import leading_terms as lt
from hyperfields import cli, finite, galois, tropical, valuation
from hyperfields.cli import SCENARIOS, load_finite, main
from hyperfields.ordgroup import WINDOW_LIMIT, Cut, gzero

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


# -- axioms / classify ------------------------------------------------------------

def test_axioms_pass_on_builtins(capsys, monkeypatch):
    for uri in ("builtin:K", "builtin:S", "builtin:W", "builtin:F9"):
        code, rep = run(capsys, "axioms", uri)
        assert code == 0
        assert rep["passed"] and rep["verb"] == "axioms"
        assert rep["report"]["mode"] == "proof by exhaustion"
    # so the hyperfield gate returns a builtin without validating it
    monkeypatch.setattr(finite, "validate", lambda F: pytest.fail("validate ran"))
    assert cli.load_hyperfield("builtin:F7").size == 7


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
    misshapen = tmp_path / "misshapen.json"
    for table, message in (
            ({"names": ["0", "1"], "mul": [[0, 0], [0, 1]], "add": [[[0], [1]], [[1]]]},
             "add table must be size x size"),
            ({"size": 3, "names": ["0", "1"], "mul": [[0, 0], [0, 1]],
              "add": [[[0], [1]], [[1], [0]]]}, "declared size disagrees with names"),
            ({"names": ["0", "1"], "mul": [[0, 0], [0, 1]],
              "add": [[[0], [1]], [[1], [0, 10 ** 12]]]}, "add entry out of range"),
            ({"names": ["0", "1"], "mul": [[0, 0], [0, 1]],
              "add": [[[0], [1]], [[1], [1e300]]]}, "add entry out of range")):
        misshapen.write_text(json.dumps(table))
        assert main(["axioms", str(misshapen)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(f"{message}\n")


def test_unwritable_output_exits_2(tmp_path, capsys):
    path = str(tmp_path / "missing" / "x.json")
    assert main(["classify", "builtin:F4", "--output", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"hyperval: cannot write {path!r}: ")


def _raising(exc):
    def verb(args):
        raise exc
    return verb


def test_main_maps_a_malformed_table_to_exit_2(monkeypatch, capsys):
    # No input reaches this branch today: a table file without inverses
    # stops at validate or load_hyperfield first, so a verb raises it here.
    monkeypatch.setattr(cli, "cmd_classify",
                        _raising(finite.MalformedTableError("no inverse of 2")))
    assert main(["classify", "builtin:K"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "hyperval: malformed table: no inverse of 2\n"


def test_main_maps_any_other_exception_to_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "cmd_krasner", _raising(RuntimeError("boom")))
    assert main(["krasner", "kgamma"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "hyperval: internal error: RuntimeError: boom\n"


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
    ("krasner", "kgamma", "--q", "abc"),
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


@pytest.mark.parametrize("argv", [
    ("axioms", "builtin:F10007"),
    ("quotient", "--field", "10007", "--subgroup", "squares"),
    ("krasner", "kgamma", "--q", "10007", "--gamma", "0", "--window-bound", "0"),
    ("krasner", "kgamma", "--q", "10000019"),
])
def test_oversize_fields_exit_2(argv, capsys, monkeypatch):
    def built(self):
        raise AssertionError("field table built before the size check")

    monkeypatch.setattr(galois.GaloisField, "_build_tables", built)
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


# Three tables that are no hyperfields.  T1 is S with 1+1 = {1, -1} and
# 1+(-1) = {0}; T2's units are no group (a*a = a); T3 has 0*0 = 1, so 0 is
# not absorbing.  T1 made classify and residue exit 3 (is_field's
# cross-check, the residue's validation), residue on T2 exited 0 with a
# "residue", hyperideals passed on T1 and T2, and iso against K exited 3 on
# T3 (find_isomorphism's re-check).
NON_HYPERFIELDS = {
    "T1": {"names": ["0", "1", "-1"], "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 1]],
           "add": [[[0], [1], [2]], [[1], [1, 2], [0]], [[2], [0], [2]]]},
    "T2": {"names": ["0", "1", "a"], "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 2]],
           "add": [[[0], [1], [2]], [[1], [0, 1, 2], [0, 1, 2]],
                   [[2], [0, 1, 2], [0, 1, 2]]]},
    "T3": {"names": ["0", "1"], "mul": [[1, 1], [1, 1]],
           "add": [[[0], [1]], [[1], [0, 1]]]},
}
# a hyperfield of the same size, so iso gets past comparing sizes
ISO_PARTNER = {"T1": "builtin:S", "T2": "builtin:S", "T3": "builtin:K"}


@pytest.mark.parametrize("name", sorted(NON_HYPERFIELDS))
def test_classify_of_a_non_hyperfield_exits_1_without_flags(name, tmp_path, capsys):
    table = tmp_path / f"{name}.json"
    table.write_text(json.dumps(NON_HYPERFIELDS[name]))
    code, rep = run(capsys, "classify", str(table))
    assert code == 1
    assert rep["classification"] is None and rep["axioms_pass"] is False


# Every verb whose input is a hyperfield refuses any other table (exit 2);
# "iso-right" puts the table second.
@pytest.mark.parametrize("verb", ["krasner", "residue", "hyperideals", "iso", "iso-right"])
@pytest.mark.parametrize("name,failed", [("T1", "CH4, CH1, HR3"), ("T2", "CH3, HF, HR3"),
                                         ("T3", "HR2, HR3")])
def test_valuation_verbs_refuse_a_non_hyperfield_table(verb, name, failed, tmp_path, capsys):
    table = tmp_path / f"{name}.json"
    table.write_text(json.dumps(NON_HYPERFIELDS[name]))
    argv = {"iso": ["iso", str(table), ISO_PARTNER[name]],
            "iso-right": ["iso", ISO_PARTNER[name], str(table)]}.get(verb, [verb, str(table)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"is not a hyperfield: it fails {failed}\n")


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
    # The unit-group search used to loop forever looking for a's order; the
    # table now fails validate and is refused before the search.
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
    assert b"is not a hyperfield: it fails CH3, HF, HR3" in proc.stderr


def test_iso_of_a_cyclic_order_32_pair_exits_1_quickly(tmp_path):
    # F125/<2> and F32 have cyclic unit groups of order 31 but are not
    # isomorphic; the timeout makes a slow search fail rather than hang
    table = tmp_path / "q.json"
    assert main(["quotient", "--field", "125", "--subgroup", "2",
                 "--output", str(table)]) == 0
    proc = subprocess.run([sys.executable, "-m", "hyperfields.cli", "iso",
                           str(table), "builtin:F32"],
                          capture_output=True, check=False, timeout=10)
    assert proc.returncode == 1, proc.stderr.decode()
    assert json.loads(proc.stdout)["isomorphic"] is False


def test_quotient_of_units_is_K(capsys):
    code, rep = run(capsys, "quotient", "--field", "9", "--subgroup", "units")
    assert code == 0 and rep["order"] == 2


def test_quotient_rejects_bad_subgroups(capsys):
    assert main(["quotient", "--field", "7", "--subgroup", "0"]) == 2
    assert main(["quotient", "--field", "6", "--subgroup", "units"]) == 2
    assert main(["quotient", "--field", "7", "--subgroup", "x,y"]) == 2
    assert main(["quotient", "--field", "7", "--subgroup", ","]) == 2
    assert capsys.readouterr().err.endswith("hyperval: empty generator list\n")


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


# Each of these exited 0 before, with the flag unread: composite took its
# own norm, and a finite table read neither --q nor --gamma.
@pytest.mark.parametrize("argv", [
    ("krasner", "composite", "--p", "2", "--window-bound", "0", "--norm-bound", "1"),
    ("krasner", "builtin:K", "--q", "5", "--gamma", "3"),
    ("krasner", "kgamma", "--p", "3"),
    ("krasner", "collapsed", "--gamma", "2"),
    ("krasner", "tropical:1", "--q", "3"),
    ("residue", "composite", "--q", "3"),
    ("residue", "tropical-strict:1", "--p", "2"),
    ("scenario", "no-kraval", "--p", "3"),
    ("scenario", "kgamma", "--p", "3"),
    ("scenario", "example-last", "--q", "5"),
])
def test_unread_carrier_flags_exit_2(argv, capsys):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and "does not apply to" in err


@pytest.mark.parametrize("argv, params", [
    (("krasner", "kgamma", "--window-bound", "1"),
     {"backend": "kgamma", "window_bound": 1, "q": 3, "gamma": 1}),
    (("residue", "composite", "--window-bound", "1"),
     {"backend": "composite", "window_bound": 1, "p": 2}),
    (("krasner", "collapsed", "--window-bound", "1"),
     {"backend": "collapsed", "window_bound": 1}),
    (("residue", "tropical:1", "--window-bound", "1"),
     {"backend": "tropical:1", "window_bound": 1}),
    (("krasner", "tropical-strict:1", "--window-bound", "1"),
     {"backend": "tropical-strict:1", "window_bound": 1, "norm_bound": 0}),
    (("scenario", "kgamma", "--q", "2", "--gamma", "0", "--window-bound", "1"),
     {"q": 2, "gamma": 0, "window_bound": 1}),
    (("scenario", "coarsening-theorem", "--p", "3", "--window-bound", "1"),
     {"p": 3, "window_bound": 1}),
])
def test_params_echo_the_flags_the_backend_reads(argv, params, capsys):
    assert run(capsys, *argv)[1]["params"] == params


def test_tropical_verdict_depends_on_the_echoed_norm_bound(capsys):
    argv = ("krasner", "tropical-strict:1", "--window-bound", "1")
    code, rep = run(capsys, *argv, "--norm-bound", "1")
    assert code == 1 and rep["params"]["norm_bound"] == 1
    assert rep["norm"]["bound"] == [1]
    assert run(capsys, *argv)[0] == 0


def test_residue_verb(capsys):
    code, rep = run(capsys, "residue", "kgamma", "--q", "3", "--gamma", "1",
                    "--window-bound", "1")
    assert code == 0
    assert rep["order"] == 3 and rep["is_field"]

    code, rep = run(capsys, "residue", "collapsed", "--window-bound", "2")
    assert code == 0
    assert rep["order"] == 2 and rep["is_field"] is False


# Each exited 3 once.  The composite window's constants are +-a/b with
# a, b in {1, 2, 3, 4, p}, the same at every bound; they reach 23 residue
# classes, so F_p for p above 23 has a class no window element lies in.
@pytest.mark.parametrize("argv, limit", [
    (("residue", "kgamma", "--q", "67", "--gamma", "0", "--window-bound", "0"),
     "more than 64 classes"),
    (("residue", "composite", "--p", "29", "--window-bound", "1"),
     "the window reaches only 23 residue classes"),
    (("scenario", "kgamma", "--q", "67", "--gamma", "0", "--window-bound", "0"),
     "more than 64 classes"),
])
def test_residue_beyond_the_window_exits_2(argv, limit, capsys, monkeypatch):
    # the refusal comes before any checker runs on the window
    def never(*args, **kwargs):
        raise AssertionError("a checker ran")

    for name in ("is_valuation", "check_krasner", "check_superiorly_canonical",
                 "ultrametric_report"):
        monkeypatch.setattr(valuation, name, never)
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and limit in err


def test_composite_residue_is_f_23_at_the_window_limit(capsys):
    code, rep = run(capsys, "residue", "composite", "--p", "23", "--window-bound", "1")
    assert code == 0
    assert rep["order"] == 23 and rep["is_field"]


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


def test_scenario_kgamma_fails_a_residue_of_another_order(monkeypatch, capsys):
    # a field, but not of order q: the residue claim fails, and it alone
    monkeypatch.setattr(valuation, "residue_hyperfield",
                        lambda *args: load_finite("builtin:F2"))
    code, rep = run(capsys, "scenario", "kgamma", "--q", "3", "--gamma", "0",
                    "--window-bound", "1")
    assert code == 1
    assert [c["claim"] for c in rep["claims"] if not c["passed"]] == [
        "the residue hyperfield is the field of order 3"]


def test_krasner_scenarios_read_the_norm_off_one_minus_one(monkeypatch, capsys):
    # the norm is forced by 1 - 1 (induced_norm_cut): no-kraval runs no
    # windowed Krasner check, tropical-not-krasner one, with that cut
    calls = []
    real = valuation.check_krasner
    monkeypatch.setattr(valuation, "check_krasner",
                        lambda *args: calls.append(args) or real(*args))
    for name, made in (("no-kraval", 0), ("tropical-not-krasner", 1)):
        calls.clear()
        code, _ = run(capsys, "scenario", name, "--window-bound", "2")
        assert (code, len(calls)) == (0, made), name
    assert calls[0][2] == Cut.le(1, (0,))
    # were 0 in the cut of 1 - 1, every norm claim built on it would fail
    monkeypatch.setattr(valuation, "induced_norm_cut", lambda backend: Cut.le(1, (0,)))
    code, rep = run(capsys, "scenario", "no-kraval", "--window-bound", "1")
    assert code == 1
    assert [c["claim"] for c in rep["claims"] if not c["passed"]] == [
        "the natural candidate norm fails the Krasner conditions",
        "every initial-segment norm with bound in [0, 1] fails"]
    code, rep = run(capsys, "scenario", "tropical-not-krasner", "--window-bound", "1")
    assert code == 1
    assert [c["claim"] for c in rep["claims"] if not c["passed"]] == [
        "no initial-segment norm with bound in [0, 1] makes the identity on T(Z) "
        "a Krasner valuation"]


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


# Both failed a claim for every p != 2: the witness (0, 1/2) is a p-adic
# unit for odd p, and for p >= 5 no window element had a nonzero p-adic order.
@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("name", ["example-last", "coarsening-theorem"])
def test_composite_scenarios_hold_for_odd_p(name, p, capsys):
    code, rep = run(capsys, "scenario", name, "--p", str(p))
    assert code == 0, [c for c in rep["claims"] if not c["passed"]]
    assert {"n": 0, "c": f"1/{p}"} in [c.get("witness") for c in rep["claims"]]
    if name == "example-last":
        assert f"witness (0, 1/{p}) lies outside O_w" in [c["claim"] for c in rep["claims"]]


# -- the exit-code contract under fuzzing ------------------------------------------------
# Any argument vector argparse accepts exits 0, 1 or 2, never 3: stdout is
# one JSON report on 0 and 1, and on 2 stdout is empty and stderr names the
# problem.  Tables are drawn small and windows at bound 0 or 1, so a run
# takes seconds.

BUILTIN_TABLES = [load_finite(f"builtin:{name}").to_json()
                  for name in ("K", "S", "W", "F2", "F3", "F4", "F5")]
# builtin hyperfields by size, for iso to compare a drawn table against
SIZED = {2: ("builtin:K", "builtin:F2"), 3: ("builtin:S", "builtin:W", "builtin:F3"),
         4: ("builtin:F4",), 5: ("builtin:F5",)}
FINITE_SPECS = ("builtin:K", "builtin:W", "builtin:F9", "builtin:F6", "builtin:Fx",
                "builtin:nope", "no-such-file.json")
BACKENDS = ("kgamma", "composite", "collapsed", "tropical:1", "tropical-strict:1",
            "tropical:0", "tropical:x", "bogus")


def _square(n, elems):
    return st.lists(st.lists(elems, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def _damaged(draw, data):
    """A builtin table with one defect: a mul that is no group with a zero,
    an add cell changed, emptied or out of range, a wrong shape or size, a
    missing key or a value of the wrong type."""
    n = len(data["names"])
    x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    defect = draw(st.sampled_from(("mul", "mul-entry", "mul-entry", "cell", "cell",
                                   "empty-cell", "cell-entry", "drop-row", "short-row",
                                   "long-row", "size", "missing-key", "wrong-type")))
    if defect == "mul":
        data["mul"] = draw(_square(n, st.integers(0, n - 1)))
    elif defect == "mul-entry":
        data["mul"][x][y] = draw(st.one_of(st.integers(0, n - 1),
                                           st.sampled_from((-1, n, "a", None))))
    elif defect == "cell":
        data["add"][x][y] = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    elif defect == "empty-cell":
        data["add"][x][y] = []
    elif defect == "cell-entry":
        data["add"][x][y] = [draw(st.sampled_from((-1, n, "a", None)))]
    elif defect == "drop-row":
        del data[draw(st.sampled_from(("mul", "add")))][x]
    elif defect == "short-row":
        del data[draw(st.sampled_from(("mul", "add")))][x][y]
    elif defect == "long-row":
        data["add"][x].append([0])
    elif defect == "size":
        data["size"] = n + draw(st.sampled_from((-1, 1)))
    elif defect == "missing-key":
        del data[draw(st.sampled_from(("names", "mul", "add")))]
    else:
        data[draw(st.sampled_from(("names", "mul", "add")))] = draw(
            st.sampled_from((None, 3, "x", [])))
    return data


@st.composite
def _table(draw):
    """A table file's text and the number of names in it: a builtin,
    damaged or random table, bare or wrapped in a list or a "table" key, or
    no JSON table at all (size None)."""
    kind = draw(st.sampled_from(("damaged", "damaged", "damaged", "random", "random",
                                 "builtin", "not-json", "scalar")))
    if kind == "not-json":
        return draw(st.sampled_from(("", "{", "[1, 2"))), None
    if kind == "scalar":
        return json.dumps(draw(st.sampled_from((None, 0, "K", {})))), None
    if kind == "random":
        n = draw(st.integers(1, 4))
        data = {"names": [str(i) for i in range(n)],
                "mul": draw(_square(n, st.integers(0, n - 1))),
                "add": draw(_square(n, st.lists(st.integers(0, n - 1), min_size=1,
                                                max_size=n)))}
    else:
        data = copy.deepcopy(draw(st.sampled_from(BUILTIN_TABLES)))
        if kind == "damaged":
            data = draw(_damaged(data))
    wrap = draw(st.sampled_from(("bare", "bare", "list", "table")))
    text = json.dumps({"bare": data, "list": [data], "table": {"table": data}}[wrap])
    names = data.get("names")
    return text, len(names) if isinstance(names, list) else None


@st.composite
def _cases(draw):
    """An argument vector over every verb, and the texts of the table files
    it names (each "TABLE" token stands for the next file)."""
    texts = []

    def table():
        text, n = draw(_table())
        texts.append(text)
        return n

    def spec():
        if draw(st.booleans()):
            table()
            return "TABLE"
        return draw(st.sampled_from(FINITE_SPECS))

    bound = ["--window-bound", str(draw(st.integers(0, 1)))]
    verb = draw(st.sampled_from(("axioms", "classify", "quotient", "iso", "enumerate",
                                 "hyperideals", "krasner", "residue", "coarsen",
                                 "scenario")))
    if verb == "axioms":
        target = draw(st.sampled_from(("", "tropical:1", "tropical-strict:2", "tropical:0",
                                       "tropical:x")))
        argv = ["axioms", target or spec()] + bound
    elif verb in ("classify", "hyperideals"):
        argv = [verb, spec()]
    elif verb == "iso":  # a table against a builtin of its size, either way round
        n = table()
        pair = ["TABLE", draw(st.sampled_from(SIZED.get(n, FINITE_SPECS)))]
        argv = ["iso", *draw(st.permutations(pair))]
    elif verb == "quotient":
        argv = ["quotient", "--field", str(draw(st.integers(0, 10))), "--subgroup",
                draw(st.sampled_from(("squares", "units", "0", "2", "1,2", "x", "")))]
    elif verb == "enumerate":
        argv = ["enumerate", "--order", str(draw(st.integers(-1, 4)))]
    elif verb == "coarsen":
        argv = ["coarsen", "--p", draw(st.sampled_from(("2", "3")))] + bound
    else:
        flags = draw(st.lists(st.sampled_from((("--q", "4"), ("--gamma", "0"), ("--p", "3"),
                                               ("--norm-bound", "1"))), unique=True))
        if verb != "krasner":
            flags = [f for f in flags if f[0] != "--norm-bound"]  # krasner's flag only
        flags = [tok for flag in flags for tok in flag]
        if verb == "scenario":
            target = draw(st.sampled_from(sorted(SCENARIOS) + ["nope"]))
        else:
            target = draw(st.sampled_from(BACKENDS + ("",))) or spec()
        argv = [verb, target] + flags + bound
    return argv, texts


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(case=_cases())
def test_fuzzed_argv_and_tables_exit_0_1_or_2(case):
    argv, texts = case
    with tempfile.TemporaryDirectory() as tmp:
        files, argv = iter(texts), list(argv)
        for k, tok in enumerate(argv):
            if tok == "TABLE":
                argv[k] = str(Path(tmp) / f"t{k}.json")
                Path(argv[k]).write_text(next(files))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, err)
    if code == 2:
        assert out == "" and err.startswith("hyperval: "), (argv, err)
    else:
        assert json.loads(out)["passed"] is (code == 0), argv
