"""Command-line interface: output goldens and exit codes.

The exact strings asserted here are the ones the README shows; treat any
change as a compatibility break, not a cosmetic edit.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from whilesem import cli, harness
from whilesem.cli import main
from whilesem.coinduction import certificate_from_json, certificate_to_json, graph_from_tree
from whilesem.derivation import Recorder
from whilesem.flag_based import eval_flag
from whilesem.parser import parse_cmd, pretty_cmd
from whilesem.syntax import DOWN, EMPTY_STORE, EMPTY_STREAM, NULL, Unknown, fac_program


@pytest.fixture()
def fac4_file(tmp_path):
    p = tmp_path / "fac4.whl"
    p.write_text(pretty_cmd(fac_program(4)) + "\n", encoding="utf-8")
    return str(p)


@pytest.fixture()
def grower_file(tmp_path):
    p = tmp_path / "loop.whl"
    p.write_text("alloc x; x := 0; while 1 { x := x + 1 }\n", encoding="utf-8")
    return str(p)


@pytest.fixture()
def spin_file(tmp_path):
    p = tmp_path / "spin.whl"
    p.write_text("while 1 { skip }\n", encoding="utf-8")
    return str(p)


@pytest.fixture()
def throw_spin_file(tmp_path):
    p = tmp_path / "throw_spin.whl"
    p.write_text("try { while 1 { skip } } catch { skip }\n", encoding="utf-8")
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# run


def test_run_flag_semantics_golden(capsys, fac4_file):
    code, out, _ = run_cli(capsys, "run", "--semantics", "flag", "--fuel", "10000", fac4_file)
    assert code == 0
    assert out == "⇓ {c↦0, r↦24}\n"


@pytest.mark.parametrize("semantics", ["small", "big", "pretty", "flag"])
def test_run_all_semantics_agree(capsys, fac4_file, semantics):
    code, out, _ = run_cli(capsys, "run", "--semantics", semantics, fac4_file)
    assert code == 0
    assert out == "⇓ {c↦0, r↦24}\n"


def test_run_exception_program(capsys, tmp_path):
    p = tmp_path / "t.whl"
    p.write_text("alloc x; x := 1; throw 2\n")
    code, out, _ = run_cli(capsys, "run", str(p))
    assert code == 0
    assert out == "↯ 2 {x↦1}\n"


def test_run_stuck_program(capsys, tmp_path):
    p = tmp_path / "s.whl"
    p.write_text("x := 1\n")
    code, out, _ = run_cli(capsys, "run", str(p))
    assert code == 0
    assert out.startswith("stuck: ")


def test_run_out_of_fuel(capsys, spin_file):
    code, out, _ = run_cli(capsys, "run", "--fuel", "50", spin_file)
    assert code == 0
    assert out == "out of fuel (limit 50)\n"


def test_run_with_input_stream(capsys, tmp_path):
    p = tmp_path / "i.whl"
    p.write_text("alloc x; x := input + input\n")
    code, out, _ = run_cli(capsys, "run", "--input", "2,3", str(p))
    assert code == 0
    assert out == "⇓ {x↦5}\n"


def test_run_json_format(capsys, fac4_file):
    code, out, _ = run_cli(capsys, "run", "--format", "json", fac4_file)
    assert code == 0
    data = json.loads(out)
    assert data == {
        "semantics": "flag",
        "verdict": "converged",
        "store": {"c": 0, "r": 24},
    }


@pytest.mark.parametrize(
    "program,argv,expected",
    [
        pytest.param(
            "x := 1", [],
            {"semantics": "flag", "verdict": "stuck", "reason": "assignment to unallocated variable x"},
            id="stuck",
        ),
        pytest.param(
            "alloc x; x := 1; throw 2", [],
            {"semantics": "flag", "verdict": "exception", "value": "2", "store": {"x": 1}},
            id="exception",
        ),
        pytest.param(
            "while 1 { skip }", ["--semantics", "small", "--fuel", "50"],
            {"semantics": "small", "verdict": "unknown", "fuel": 50},
            id="out-of-fuel",
        ),
    ],
)
def test_run_json_verdicts(capsys, tmp_path, program, argv, expected):
    p = tmp_path / "p.whl"
    p.write_text(program + "\n")
    code, out, _ = run_cli(capsys, "run", "--format", "json", *argv, str(p))
    assert code == 0
    assert out == json.dumps(expected) + "\n"


# Python's `str` and `int` refuse more than 4,300 digits by default.
SQUARES = "alloc x; x := 2; alloc n; n := 14; while n { x := x * x; n := n - 1 }"


def _digits_value(digits):
    """The value of a decimal string, converted in pieces that `int` takes."""
    n = 0
    for i in range(0, len(digits), 1000):
        piece = digits[i : i + 1000]
        n = n * 10 ** len(piece) + int(piece)
    return n


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_run_prints_naturals_of_any_length(capsys, tmp_path, fmt):
    p = tmp_path / "squares.whl"
    p.write_text(SQUARES + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", "--format", fmt, str(p))
    assert code == 0
    if fmt == "json":
        store = json.loads(out, parse_int=str)["store"]
        assert store["n"] == "0"
        x = store["x"]
    else:
        head = "⇓ {n↦0, x↦"
        assert out.startswith(head) and out.endswith("}\n")
        x = out[len(head) : -2]
    assert len(x) == 4_933
    assert _digits_value(x) == 2**16_384


def test_run_parses_literals_of_any_length(capsys, tmp_path):
    digits = "7" * 5_000
    p = tmp_path / "long.whl"
    p.write_text(f"alloc x; x := {digits} + 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", "--semantics", "small", str(p))
    assert code == 0
    assert out == "⇓ {x↦" + "7" * 4_999 + "8}\n"


def test_certificates_carry_naturals_of_any_length(capsys, tmp_path):
    p = tmp_path / "squares-then-spin.whl"
    p.write_text(SQUARES + "; while 1 { skip }\n", encoding="utf-8")
    for system in ("lasso", "flag-co"):
        cert = tmp_path / f"{system}.json"
        code, _, _ = run_cli(capsys, "classify", "--cert-system", system, "--cert-out", str(cert), str(p))
        assert code == 0
        code, out, _ = run_cli(capsys, "cert", "check", str(cert))
        assert code == 0
        assert out.startswith("valid certificate")


# ---------------------------------------------------------------------------
# trace


def test_trace_golden(capsys, spin_file):
    code, out, _ = run_cli(capsys, "trace", "--fuel", "2", spin_file)
    assert code == 0
    assert out == (
        "   0  ⟨while 1 { skip }, {}, []⟩\n"
        "   1  ⟨skip; while 1 { skip }, {}, []⟩\n"
        "   2  ⟨while 1 { skip }, {}, []⟩\n"
        "out of fuel (limit 2)\n"
    )


def test_trace_streams_a_long_run(capsys, tmp_path, monkeypatch):
    # `{ { alloc x }; x := 1 }; …`: 1,000 left-nested sequences, 2,001 steps.
    # Each configuration is printed as it is replayed, and none is kept.
    p = tmp_path / "left.whl"
    p.write_text("{ " * 1000 + "alloc x" + " }; x := 1" * 1000 + "\n", encoding="utf-8")
    traces, original = [], cli.run_star

    def run_star(*args):
        verdict, trace = original(*args)
        traces.append(trace)
        return verdict, trace

    monkeypatch.setattr(cli, "run_star", run_star)
    code, out, _ = run_cli(capsys, "trace", str(p))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2003
    assert lines[-2:] == ["2001  ⟨skip, {x↦1}, []⟩", "⇓ {x↦1}"]
    assert "configs" not in traces[0].__dict__


def test_trace_json_golden(capsys, tmp_path):
    p = tmp_path / "read.whl"
    p.write_text("alloc x; x := input\n")
    code, out, _ = run_cli(capsys, "trace", "--format", "json", "--input", "7", str(p))
    assert code == 0
    assert out == (
        '{"steps": ['
        '{"cmd": "alloc x; x := input", "store": {}, "stream": {"values": [7], "cursor": 0}}, '
        '{"cmd": "skip; x := input", "store": {"x": null}, "stream": {"values": [7], "cursor": 0}}, '
        '{"cmd": "x := input", "store": {"x": null}, "stream": {"values": [7], "cursor": 0}}, '
        '{"cmd": "skip", "store": {"x": 7}, "stream": {"values": [7], "cursor": 1}}], '
        '"verdict": "converged", "store": {"x": 7}}\n'
    )


# ---------------------------------------------------------------------------
# classify


def test_classify_spin(capsys, spin_file):
    code, out, _ = run_cli(capsys, "classify", "--fuel", "10", spin_file)
    assert code == 0
    assert out == "DivergesProven (lasso graph, 2 nodes)\n"


def test_classify_grower_needs_projection(capsys, grower_file):
    code, out, _ = run_cli(capsys, "classify", "--fuel", "1000", grower_file)
    assert code == 0
    assert out == "Unknown (no lasso within fuel 1000)\n"
    code, out, _ = run_cli(capsys, "classify", "--abstract-vars", "x", grower_file)
    assert code == 0
    assert out == "DivergesProven (lasso graph, 6 nodes)\n"


@pytest.mark.parametrize("entry", ["x y", "x;y", "1x", "while", "input", "*"])
def test_classify_rejects_an_abstract_var_that_is_no_variable(capsys, grower_file, entry):
    code, out, err = run_cli(capsys, "classify", "--abstract-vars", f"y,{entry}", grower_file)
    assert (code, out) == (2, "")
    assert err == f"error: --abstract-vars: {entry!r} is not a variable\n"


def test_classify_abstract_vars_entries(capsys, grower_file):
    # Blanks around an entry are dropped, and an empty value projects nothing.
    code, out, _ = run_cli(capsys, "classify", "--abstract-vars", " y , x ,", grower_file)
    assert (code, out) == (0, "DivergesProven (lasso graph, 6 nodes)\n")
    code, out, _ = run_cli(capsys, "classify", "--fuel", "1000", "--abstract-vars", "", grower_file)
    assert (code, out) == (0, "Unknown (no lasso within fuel 1000)\n")


def test_classify_converging(capsys, fac4_file):
    code, out, _ = run_cli(capsys, "classify", fac4_file)
    assert code == 0
    assert out == "Converged {c↦0, r↦24}\n"


@pytest.mark.parametrize(
    "program,argv,expected",
    [
        pytest.param("while 1 { skip }", [], {"verdict": "diverges-proven", "system": "lasso", "nodes": 2},
                     id="lasso"),
        pytest.param(
            "while 1 { skip }", ["--cert-system", "flag-co"],
            {"verdict": "diverges-proven", "system": "flag-co", "nodes": 1},
            id="graph",
        ),
        pytest.param(
            "alloc x; x := 0; while 1 { x := x + 1 }", ["--fuel", "100"],
            {"verdict": "unknown", "fuel": 100},
            id="unknown",
        ),
        pytest.param("alloc x; x := 2", [], {"verdict": "converged", "store": {"x": 2}}, id="converged"),
        pytest.param(
            "x := 1", [], {"verdict": "stuck", "reason": "assignment to unallocated variable x"}, id="stuck"
        ),
        pytest.param(
            "alloc x; x := 1; throw 2", [],
            {"verdict": "exception", "value": "2", "store": {"x": 1}},
            id="exception",
        ),
    ],
)
def test_classify_json(capsys, tmp_path, program, argv, expected):
    p = tmp_path / "p.whl"
    p.write_text(program + "\n")
    code, out, _ = run_cli(capsys, "classify", "--format", "json", *argv, str(p))
    assert code == 0
    assert out == json.dumps(expected) + "\n"


def test_classify_unsound_projection_is_an_input_error(capsys, tmp_path):
    p = tmp_path / "g.whl"
    p.write_text("alloc x; x := 1; while x { x := x + 1 }\n")
    code, _, err = run_cli(capsys, "classify", "--abstract-vars", "x", str(p))
    assert code == 2
    assert "guard" in err


def test_classify_reports_no_lasso_whose_projection_a_guard_reads(capsys, tmp_path):
    # No guard reads x, so projecting it is allowed, but y copies x into a
    # guard: at fuel 15 the flag-based run is out of fuel, and the search
    # finds a lasso modulo x that the checker rejects.  The program is stuck.
    p = tmp_path / "copy.whl"
    p.write_text("alloc x; alloc y; x := 3; y := 0; while 1 { y := x; if y - 3 { alloc x } else { x := x + 1 }; y := 0 }\n")
    code, out, _ = run_cli(capsys, "classify", "--fuel", "15", "--abstract-vars", "x", str(p))
    assert (code, out) == (0, "Unknown (no lasso within fuel 15)\n")
    code, out, _ = run_cli(capsys, "classify", "--fuel", "100", "--abstract-vars", "x", str(p))
    assert (code, out) == (0, "Stuck: alloc of already-allocated variable x\n")


def test_classify_writes_checkable_certificates(capsys, tmp_path, grower_file):
    for system in ("lasso", "div-pred", "pretty-co", "flag-co"):
        cert = tmp_path / f"{system}.json"
        code, out, _ = run_cli(
            capsys, "classify", "--abstract-vars", "x",
            "--cert-system", system, "--cert-out", str(cert), grower_file,
        )
        assert code == 0
        assert out.startswith("DivergesProven")
        code, out, _ = run_cli(capsys, "cert", "check", str(cert))
        assert code == 0
        assert out.startswith("valid certificate")


def test_classify_proves_a_throw_catch_program_without_a_lasso(capsys, tmp_path, throw_spin_file):
    # Small-step has no rule for try, so only the flag-co prover can tell.
    cert = tmp_path / "flag-co.json"
    code, out, _ = run_cli(
        capsys, "classify", "--cert-system", "flag-co", "--cert-out", str(cert), throw_spin_file
    )
    assert code == 0
    assert out == "DivergesProven (flag-co graph, 2 nodes)\n"
    code, out, _ = run_cli(capsys, "cert", "check", str(cert))
    assert code == 0
    assert out == ("valid certificate (flag-co graph, 2 nodes)\n"
                   "claim: try { while 1 { skip } } catch { skip } diverges from {} and input [] (flag-co); projected: none\n")
    code, out, _ = run_cli(capsys, "classify", "--cert-system", "lasso", throw_spin_file)
    assert (code, out) == (0, "Unknown (no lasso within fuel 10000)\n")
    for system in ("div-pred", "pretty-co"):
        code, out, _ = run_cli(capsys, "classify", "--cert-system", system, throw_spin_file)
        assert code == 0
        assert out == f"Unknown (no {system} certificate within fuel 10000)\n"


@pytest.mark.parametrize("system,nodes", [("div-pred", 4), ("pretty-co", 9), ("flag-co", 4)])
def test_classify_asks_a_graph_prover_without_a_lasso(capsys, tmp_path, system, nodes):
    # The countdown takes more steps than a lasso search at fuel 1000 may try;
    # each prover evaluates it as one premise and proves the loop after it.
    p = tmp_path / "countdown.whl"
    p.write_text("alloc x; x := 400; while x { x := x - 1 }; while 1 { skip }\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "classify", "--fuel", "1000", str(p))
    assert (code, out) == (0, "Unknown (no lasso within fuel 1000)\n")
    cert = tmp_path / "cert.json"
    argv = ["classify", "--fuel", "1000", "--cert-system", system, "--cert-out", str(cert), str(p)]
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, f"DivergesProven ({system} graph, {nodes} nodes)\n")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    expected = {"verdict": "diverges-proven", "system": system, "nodes": nodes}
    assert (code, out) == (0, json.dumps(expected) + "\n")
    code, out, _ = run_cli(capsys, "cert", "check", str(cert))
    claim = "alloc x; x := 400; while x { x := x - 1 }; while 1 { skip } diverges from {} and input []"
    assert (code, out) == (0, f"valid certificate ({system} graph, {nodes} nodes)\nclaim: {claim} ({system}); projected: none\n")


# ---------------------------------------------------------------------------
# compare


def test_compare_agreement(capsys, fac4_file):
    code, out, _ = run_cli(capsys, "compare", fac4_file)
    assert code == 0
    assert out.endswith("agreement: 4 semantics, 1 stream(s)\n")


def test_compare_input_program(capsys, tmp_path):
    p = tmp_path / "gate.whl"
    p.write_text("if input { x := 0 } else { skip }; while 1 { skip }\n")
    code, out, _ = run_cli(
        capsys, "compare", "--input", "1", "--input", "0", "--fuel", "200", str(p)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "stream [1]: Stuck: assignment to unallocated variable x"
    assert lines[1] == "stream [0]: DivergesProven"
    assert lines[2] == "agreement: 4 semantics, 2 stream(s)"


def test_compare_proves_a_throw_catch_program(capsys, throw_spin_file):
    code, out, _ = run_cli(capsys, "compare", throw_spin_file)
    assert code == 0
    assert out == (
        "stream []: DivergesProven\n"
        "agreement: flag-based only (program uses throw/catch), 1 stream(s)\n"
    )
    code, out, _ = run_cli(capsys, "compare", "--format", "json", throw_spin_file)
    assert code == 0
    [comparison] = json.loads(out)["comparisons"]
    assert comparison["verdicts"]["flag"] == "DivergesProven"
    assert comparison["provers"] == {"flag-co": True}


def test_compare_reports_small_step_out_of_fuel_beside_a_finished_big_step(capsys, fac4_file, monkeypatch):
    """A planted small-step that always runs out of fuel, while big-step
    converges: nothing is searched, and the text output reports it."""
    real = harness.run_star
    monkeypatch.setattr(harness, "run_star", lambda cfg, fuel: (Unknown(fuel), real(cfg, fuel)[1]))
    code, out, _ = run_cli(capsys, "compare", "--fuel", "500", fac4_file)
    assert (code, out) == (1, (
        "stream []: Unknown (out of fuel after 500)\n"
        "  disagreement: verdict classes differ: "
        "big=converged, flag=converged, pretty=converged, small=unknown\n"
        "DISAGREEMENT: 4 semantics, 1 stream(s)\n"
    ))


def test_compare_json(capsys, fac4_file):
    code, out, _ = run_cli(capsys, "compare", "--format", "json", fac4_file)
    assert code == 0
    data = json.loads(out)
    assert data["agreement"] is True
    assert data["comparisons"][0]["verdicts"]["small"] == "Converged {c↦0, r↦24}"


# ---------------------------------------------------------------------------
# fuzz


def test_fuzz_small_campaign(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "-n", "50", "--fuel", "300", "--seed", "9")
    assert code == 0
    assert "programs: 50" in out
    assert "disagreements: 0" in out


def test_fuzz_json(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "-n", "10", "--fuel", "200", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 10
    assert data["disagreements"] == []


def test_fuzz_out_that_cannot_be_written_fails_before_the_campaign(capsys, tmp_path, monkeypatch):
    # Every program would be a counterexample, but none is generated.
    real, calls = harness.compare_all, []

    def sabotage(c, streams=None, fuel=500):
        calls.append(c)
        report = real(c, streams, fuel)
        report.comparisons[0].failures.append("synthetic failure for testing")
        return report

    monkeypatch.setattr(harness, "compare_all", sabotage)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "ce"
    code, stdout, err = run_cli(capsys, "fuzz", "-n", "2", "--fuel", "100", "--out", str(out))
    assert (code, stdout, err) == (2, "", f"error: cannot write {out}: Not a directory\n")
    assert calls == []
    code, _, _ = run_cli(capsys, "fuzz", "-n", "2", "--fuel", "100", "--out", str(tmp_path / "ce"))
    assert code == 1 and len(calls) == 2
    assert len(list((tmp_path / "ce").glob("*.whl"))) == 2


def test_fuzz_no_while_generates_loop_free_programs(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "-n", "200", "--no-while", "--format", "json")
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert sum(verdicts.values()) == 200
    assert "diverges-proven" not in verdicts and "unknown" not in verdicts
    code, _, _ = run_cli(capsys, "fuzz", "-n", "1", "--enable-while")
    assert code == 2


# ---------------------------------------------------------------------------
# rules


def _rules_path(name):
    from importlib import resources

    return str(resources.files("whilesem").joinpath("rules").joinpath(name))


def test_rules_count_golden(capsys):
    code, out, _ = run_cli(capsys, "rules", "count", _rules_path("flag_based.rules"))
    assert code == 0
    assert out == "rules=13 premises=13\n"


def test_rules_count_falls_back_to_bundled_rulesets(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no rule files here
    code, out, _ = run_cli(capsys, "rules", "count", "flag_based.rules")
    assert code == 0
    assert out == "rules=13 premises=13\n"
    code, _, err = run_cli(capsys, "rules", "count", "nonsense.rules")
    assert code == 2
    assert "cannot read nonsense.rules" in err


def test_rules_count_with_base(capsys):
    code, out, _ = run_cli(
        capsys, "rules", "count",
        _rules_path("big_step.rules"), _rules_path("div_pred.rules"),
        "--base", _rules_path("big_step.rules"),
    )
    assert code == 0
    assert out == "rules=17 premises=25 duplicates=6\n"


def test_rules_count_json(capsys):
    code, out, _ = run_cli(capsys, "rules", "count", "--format", "json", _rules_path("flag_based.rules"))
    assert (code, out) == (0, '{"rules": 13, "premises": 13}\n')
    code, out, _ = run_cli(
        capsys, "rules", "count", "--format", "json",
        _rules_path("big_step.rules"), _rules_path("div_pred.rules"),
        "--base", _rules_path("big_step.rules"),
    )
    assert (code, out) == (0, '{"rules": 17, "premises": 25, "duplicates": 6}\n')


def test_rules_thread_round_trips(capsys, tmp_path):
    out_path = tmp_path / "threaded.rules"
    code, _, _ = run_cli(
        capsys, "rules", "thread", _rules_path("flag_based_implicit.rules"),
        "--out", str(out_path),
    )
    assert code == 0
    from whilesem.rule_dsl import alpha_equal, load_ruleset, parse_rules

    threaded = parse_rules(out_path.read_text())
    assert alpha_equal(threaded, load_ruleset("flag_based.rules"))


def test_rules_thread_prints_to_stdout(capsys, tmp_path):
    out_path = tmp_path / "threaded.rules"
    run_cli(capsys, "rules", "thread", _rules_path("flag_based_implicit.rules"), "--out", str(out_path))
    code, out, _ = run_cli(capsys, "rules", "thread", _rules_path("flag_based_implicit.rules"))
    assert code == 0
    assert out == out_path.read_text()
    assert len(out.splitlines()) == 77
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e2b2d4f7fa3c375035b192d8ec0d32892b7cd073becc82baabaee0d4b1bb170e"
    )


def test_rules_check_reports_each_file(capsys):
    code, out, _ = run_cli(
        capsys, "rules", "check", _rules_path("exprs.rules"), _rules_path("small_step.rules")
    )
    assert code == 0
    assert "exprs.rules: ok (3 rules, 2 premises)" in out
    assert "small_step.rules: ok (8 rules, 6 premises)" in out
    code, out, _ = run_cli(capsys, "rules", "check", _rules_path("small_div.rules"))
    assert (code, out) == (0, f"{_rules_path('small_div.rules')}: ok (1 rules, 2 premises)\n")
    code, out, _ = run_cli(capsys, "rules", "count", _rules_path("small_step.rules"), _rules_path("small_div.rules"))
    assert (code, out) == (0, "rules=9 premises=8\n")


def test_rules_check_bad_file(capsys, tmp_path):
    p = tmp_path / "bad.rules"
    p.write_text("rule R:\n  ---\n  (skip, sigma) =Q=> (sigma)\n")
    code, _, err = run_cli(capsys, "rules", "check", str(p))
    assert code == 2
    assert "bad.rules" in err


def test_rules_check_rejects_a_signature_component_that_is_not_a_name(capsys, tmp_path):
    p = tmp_path / "sig.rules"
    p.write_text("signature (c, [d :- (]) =T=> (s)\n")
    code, out, err = run_cli(capsys, "rules", "check", str(p))
    assert code == 2
    assert err.strip().endswith("sig.rules:1: expected a component name, got '('")


# ---------------------------------------------------------------------------
# cert


def test_cert_check_rejects_tampering(capsys, tmp_path, grower_file):
    cert = tmp_path / "c.json"
    run_cli(capsys, "classify", "--abstract-vars", "x", "--cert-out", str(cert), grower_file)
    data = json.loads(cert.read_text())
    data["nodes"] = data["nodes"][:-1]
    data["nodes"][-1]["premises"] = [3]  # the cycle closed one step early
    cert.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "cert", "check", str(cert))
    assert code == 1
    assert out.startswith("invalid certificate")



def test_cert_check_json(capsys, tmp_path, grower_file):
    cert = tmp_path / "c.json"
    run_cli(capsys, "classify", "--abstract-vars", "x", "--cert-out", str(cert), grower_file)
    code, out, _ = run_cli(capsys, "cert", "check", "--format", "json", str(cert))
    assert json.loads(out) == {
        "valid": True,
        "kind": "lasso graph, 6 nodes",
        "claim": {"system": "lasso", "program": "alloc x; x := 0; while 1 { x := x + 1 }", "store": {},
                  "stream": {"values": [], "cursor": 0}},
    }
    data = json.loads(cert.read_text())
    data["nodes"] = data["nodes"][:-1]
    data["nodes"][-1]["premises"] = [3]  # the cycle closed one step early
    cert.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "cert", "check", "--format", "json", str(cert))
    assert code == 1
    assert json.loads(out) == {
        "valid": False,
        "kind": "lasso graph, 5 nodes",
        "error": "node 4 (I-Step): node 3 does not cover (c1, sigma1, mu1) =I=> (): subject mismatch",
    }


def test_cert_check_claim_golden(capsys, tmp_path):
    """The text claim: the root's program, store, remaining input and
    system, and the projected variables; never a judgement's result store."""
    def check(program, *options, root=None, edit=None):
        p, cert = tmp_path / "p.whl", tmp_path / "c.json"
        p.write_text(program + "\n")
        assert run_cli(capsys, "classify", *options, "--cert-out", str(cert), str(p))[0] == 0
        data = json.loads(cert.read_text())
        if root is not None:
            data["root"] = root
        if edit is not None:
            edit(data)
        cert.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "cert", "check", str(cert))
        assert code == 0
        return out

    grow = "alloc x; x := 0; while 1 { x := x + 1 }"
    assert check(grow, "--abstract-vars", "x") == (
        "valid certificate (lasso graph, 6 nodes)\n"
        "claim: alloc x; x := 0; while 1 { x := x + 1 } diverges from {} and input [] (lasso); projected: none\n")
    assert check(grow, "--abstract-vars", "x", root=4) == (
        "valid certificate (lasso graph, 6 nodes)\n"
        "claim: while 1 { x := x + 1 } diverges from {x↦*} and input [] (lasso); projected: x\n")
    spin = "alloc y; y := input; while 1 { skip }"
    assert check(spin, "--cert-system", "flag-co", "--input", "5,6") == (
        "valid certificate (flag-co graph, 3 nodes)\n"
        "claim: alloc y; y := input; while 1 { skip } diverges from {} and input [5,6] (flag-co); projected: none\n")

    def any_result_store(data):  # an `up` judgement's result store is unconstrained
        data["stores"].append({"y": 77})
        for node in data["nodes"]:
            assert data["terms"][node["result"][0]] == ["up"]
            node["result"][1] = len(data["stores"]) - 1

    assert check(spin, "--cert-system", "flag-co", "--input", "5,6", root=2, edit=any_result_store) == (
        "valid certificate (flag-co graph, 3 nodes)\n"
        "claim: while 1 { skip } diverges from {y↦5} and input [6] (flag-co); projected: none\n")


@pytest.mark.parametrize("system", ["lasso", "flag-co", "div-pred"])
def test_cert_check_json_says_what_a_re_rooted_certificate_proved(capsys, tmp_path, system):
    # Re-rooted at the node after `alloc x`, the certificate is still valid,
    # but it proves divergence from the store {x: null}: started from the
    # empty store, `x := 1; while x { skip }` is stuck.  The claim says so.
    program, cert = tmp_path / "p.whl", tmp_path / "c.json"
    program.write_text("alloc x; x := 1; while x { skip }\n")
    run_cli(capsys, "classify", "--cert-system", system, "--cert-out", str(cert), str(program))
    data = json.loads(cert.read_text())
    graph = certificate_from_json(data)
    data["root"] = next(i for i, n in enumerate(graph.nodes)
                        if pretty_cmd(n.subject) == "x := 1; while x { skip }" and n.store.get("x") == NULL)
    cert.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "cert", "check", "--format", "json", str(cert))
    assert code == 0
    assert json.loads(out)["claim"] == {"system": system, "program": "x := 1; while x { skip }",
                                        "store": {"x": None}, "stream": {"values": [], "cursor": 0}}
    assert run_cli(capsys, "cert", "check", str(cert))[:2] == (0, f"valid certificate ({system} graph, "
                                                              f"{len(data['nodes'])} nodes)\nclaim: x := 1; while x {{ skip }} "
                                                              f"diverges from {{x↦null}} and input [] ({system}); projected: none\n")


def test_cert_check_out_of_fuel_is_undecided(capsys, tmp_path):
    # The prover evaluates the countdown as one premise at 2 * fuel + 100;
    # a check whose fuel cannot finish that run decides nothing.
    program, cert = tmp_path / "countdown.whl", tmp_path / "c.json"
    program.write_text("alloc x; x := 6000; while x { x := x - 1 }; while 1 { skip }\n")
    code, out, _ = run_cli(capsys, "classify", "--fuel", "20000", "--cert-system", "div-pred", "--cert-out", str(cert),
                           str(program))
    assert (code, out) == (0, "DivergesProven (div-pred graph, 4 nodes)\n")
    premise = "node 2 (D-Seq2): (c1, sigma, mu) =B=> (sigma1, mu1) did not finish"
    code, out, _ = run_cli(capsys, "cert", "check", "--fuel", "1000", str(cert))
    assert (code, out) == (3, f"undecided certificate: {premise} within --fuel 1000\n")
    code, out, _ = run_cli(capsys, "cert", "check", "--fuel", "1000", "--format", "json", str(cert))
    assert code == 3
    assert json.loads(out) == {
        "valid": False, "kind": "div-pred graph, 4 nodes", "undecided": True, "fuel": 1000, "error": premise,
    }
    code, out, _ = run_cli(capsys, "cert", "check", str(cert))
    claim = "alloc x; x := 6000; while x { x := x - 1 }; while 1 { skip } diverges from {} and input []"
    assert (code, out) == (0, f"valid certificate (div-pred graph, 4 nodes)\nclaim: {claim} (div-pred); projected: none\n")
    # an invalid node elsewhere decides the check
    data = json.loads(cert.read_text())
    data["nodes"][3]["rule"] = "D-Seq1"
    cert.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "cert", "check", "--fuel", "1000", str(cert))
    assert code == 1 and out.startswith("invalid certificate: node 3 (D-Seq1)")


def test_cert_check_names_why_a_premise_is_stuck(capsys, tmp_path):
    program, cert = tmp_path / "alloc_spin.whl", tmp_path / "c.json"
    program.write_text("alloc x; while 1 { skip }\n")
    run_cli(capsys, "classify", "--cert-system", "div-pred", "--cert-out", str(cert), str(program))
    data = json.loads(cert.read_text())
    assert data["nodes"][0]["rule"] == "D-Seq2"
    data["stores"].append({"x": 0})
    data["nodes"][0]["store"] = len(data["stores"]) - 1
    cert.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "cert", "check", str(cert))
    assert (code, out) == (1, "invalid certificate: node 0 (D-Seq2): (c1, sigma, mu) =B=> (sigma1, mu1) does not hold: "
                              "alloc of already-allocated variable x\n")


def test_cert_check_malformed_json(capsys, tmp_path):
    p = tmp_path / "junk.json"
    p.write_text('{"kind": "lasso"}')
    code, _, err = run_cli(capsys, "cert", "check", str(p))
    assert code == 2


def test_cert_check_names_the_graph_format_for_an_old_lasso(capsys, tmp_path):
    # A lasso is written as a derivation graph of system "lasso"; a document
    # in the lasso format of earlier versions is malformed.
    config = {"store": {}, "stream": {"values": [], "cursor": 0}}
    old = {"kind": "lasso", "abstract_vars": [], "prefix": [],
           "cycle": [dict(config, cmd="while 1 { skip }"), dict(config, cmd="skip; while 1 { skip }")]}
    p = tmp_path / "old.json"
    p.write_text(json.dumps(old))
    assert run_cli(capsys, "cert", "check", str(p)) == (
        2, "", f"error: {p}: malformed certificate: kind must be 'derivation-graph' "
               "(a lasso is a graph of system 'lasso'), got 'lasso'\n",
    )


def test_cert_check_asks_for_a_format_1_document_to_be_re_created(capsys, tmp_path, spin_file):
    # Format 1 wrote each subject as program text; it is not read.
    cert = tmp_path / "c.json"
    run_cli(capsys, "classify", "--cert-system", "flag-co", "--cert-out", str(cert), spin_file)
    old = {key: value for key, value in json.loads(cert.read_text()).items() if key != "format"}
    cert.write_text(json.dumps(old))
    assert run_cli(capsys, "cert", "check", str(cert)) == (
        2, "", f"error: {cert}: malformed certificate: format 1 is not read: re-create the certificate with "
               "`whilesem classify --cert-out`\n",
    )


def _set_node(key, value):
    def mutate(doc):
        doc["nodes"][0][key] = value
        return doc

    return mutate


def _set_entry(table, index, value):
    def mutate(doc):
        doc[table][index] = value
        return doc

    return mutate


def _set_term(keyword, value):
    """The document with its term of `keyword` replaced by `value`."""
    def mutate(doc):
        doc["terms"][[t[0] for t in doc["terms"]].index(keyword)] = value
        return doc

    return mutate


def _cite_new(key, table, value, node=0):
    """The document with `value` added to `table` and cited by a node's `key`."""
    def mutate(doc):
        doc[table].append(value)
        doc["nodes"][node][key] = len(doc[table]) - 1
        return doc

    return mutate


def _edit(edit):
    def mutate(doc):
        edit(doc)
        return doc

    return mutate


@pytest.mark.parametrize(
    "system,mutate",
    [
        pytest.param("flag-co", _set_node("premises", ["a", 2]), id="premise-str"),
        pytest.param("flag-co", _set_node("premises", [None, 0.0]), id="premise-float"),
        pytest.param("flag-co", _set_entry("stores", 0, []), id="store-list"),
        pytest.param("flag-co", _set_entry("streams", 0, {"values": 1, "cursor": 0}), id="stream-values"),
        pytest.param("flag-co", _set_entry("streams", 0, {"values": [], "cursor": "0"}), id="stream-cursor"),
        pytest.param("flag-co", _set_node("rule", ["F-While"]), id="rule-list"),
        pytest.param("flag-co", _set_node("subject", 5), id="subject-int"),
        pytest.param("pretty-co", _set_node("subject", ["plain", "skip"]), id="subject-list"),
        pytest.param("flag-co", lambda doc: dict(doc, root="0"), id="root-str"),
        pytest.param("flag-co", lambda doc: [doc], id="top-level-list"),
        pytest.param("lasso", _set_entry("stores", 0, {"x": "x"}), id="abstract-vars-str"),
        pytest.param("lasso", lambda doc: dict(doc, nodes={"subject": 0}), id="cycle-object"),
        pytest.param("lasso", _set_term("while", ["while", 0]), id="lasso-cmd-unparseable"),
        pytest.param("flag-co", _set_term("while", ["wile", 0, 1]), id="subject-unparseable"),
        pytest.param("pretty-co", _set_term("while2", ["while2", 1, 1, 1]), id="while2-guard-unparseable"),
    ],
)
def test_cert_check_malformed_document_exits_2(capsys, tmp_path, spin_file, system, mutate):
    cert = tmp_path / "c.json"
    run_cli(capsys, "classify", "--cert-system", system, "--cert-out", str(cert), spin_file)
    cert.write_text(json.dumps(mutate(json.loads(cert.read_text()))))
    code, out, err = run_cli(capsys, "cert", "check", str(cert))
    assert (code, out) == (2, "")
    assert "malformed certificate" in err


@pytest.mark.parametrize(
    "system,mutate,error",
    [
        pytest.param("lasso", _set_entry("stores", 0, {"": 3, "1x": 1, "while": 2}),
                     "stores[0]: a key must be a variable, got ''", id="store-keys"),
        pytest.param("lasso", _set_entry("stores", 0, {"x": 3, "1x": 1}), "stores[0]: a key must be a variable, "
                     "got '1x'", id="store-key"),
        pytest.param("flag-co", _set_entry("nodes", 0, []), "nodes[0]: a node must be an object, got an array of 0",
                     id="node-list"),
        pytest.param("pretty-co", _set_node("result", []), "nodes[0]: field 'result' must be null or an array of "
                     "2 or 3 entries, got an array of 0", id="result-list"),
        pytest.param("pretty-co", _cite_new("subject", "terms", ["seq2", 3], node=1),
                     "terms[8]: seq2 takes 2 field(s), got 1", id="seq2-int"),
        pytest.param("flag-co", _cite_new("flag_in", "terms", ["exc", 1]), "terms[5]: exc takes 2 field(s), got 1",
                     id="exc-without-at"),
        pytest.param("flag-co", _edit(lambda doc: doc["nodes"][0]["result"].pop()),
                     "nodes[0]: field 'result' must cite an outcome, got a status", id="result-without-stream"),
        # a field the format does not name
        pytest.param("lasso", _set_node("extra", 1), "nodes[0]: unknown field 'extra'", id="node-field"),
        pytest.param("flag-co", _set_node("relation", "flag"), "nodes[0]: unknown field 'relation'",
                     id="node-relation"),
        pytest.param("lasso", lambda doc: dict(doc, extra=1), "unknown field 'extra'", id="document-field"),
        pytest.param("flag-co", lambda doc: {"note": "", **doc}, "unknown field 'note'", id="document-note"),
    ],
)
def test_cert_check_names_the_malformed_field(capsys, tmp_path, spin_file, system, mutate, error):
    cert = tmp_path / "c.json"
    run_cli(capsys, "classify", "--cert-system", system, "--cert-out", str(cert), spin_file)
    cert.write_text(json.dumps(mutate(json.loads(cert.read_text()))))
    assert run_cli(capsys, "cert", "check", str(cert)) == (2, "", f"error: {cert}: malformed certificate: {error}\n")


def _set(key, value):
    return lambda doc: dict(doc, **{key: value})


@pytest.mark.parametrize(
    "system,mutate,error",
    [
        pytest.param("flag-co", _set("system", "big-co"), "unknown system 'big-co'", id="system"),
        pytest.param("flag-co", _set("nodes", []), "graph has no nodes", id="no-nodes"),
        pytest.param("flag-co", _set("root", 1), "root 1 out of range", id="root"),
        pytest.param("pretty-co", _set("root", -1), "root -1 out of range", id="root-negative"),
        # the system names the relation of every node: flag-co nodes under div-pred
        pytest.param("flag-co", _set("system", "div-pred"), "node 0: unknown rule 'F-While'", id="relation"),
        pytest.param("flag-co", _set_node("rule", "F-Nope"), "node 0: unknown rule 'F-Nope'",
                     id="rule"),
        pytest.param("flag-co", _set_node("premises", [None, 0, 0]),
                     "node 0: rule F-While takes 2 premise(s), got 3", id="arity"),
        pytest.param("div-pred", _set_node("premises", [1]),
                     "node 0: premise reference 1 out of range", id="premise"),
        pytest.param("div-pred", _cite_new("flag_in", "terms", ["down"]),
                     "node 0: a divergence judgment carries no status and no result",
                     id="div-label"),
        pytest.param("pretty-co", _cite_new("flag_in", "terms", ["down"]),
                     "node 0: node needs an outcome label and no status", id="pretty-label"),
        pytest.param("flag-co", _set_node("flag_in", None),
                     "node 0: node needs an input status and a status label", id="flag-label"),
        pytest.param("flag-co", _set_node("result", [4, 0, 0]),
                     "node 0: a label records its final stream exactly when the judgment "
                     "does not diverge", id="stream"),
    ],
)
def test_cert_check_rejects_malformed_graphs(capsys, tmp_path, spin_file, system, mutate, error):
    cert = tmp_path / "c.json"
    run_cli(capsys, "classify", "--cert-system", system, "--cert-out", str(cert), spin_file)
    cert.write_text(json.dumps(mutate(json.loads(cert.read_text()))))
    assert run_cli(capsys, "cert", "check", str(cert)) == (1, f"invalid certificate: {error}\n", "")


def _append(table, value):
    return _edit(lambda doc: doc[table].append(value))


# Terms the parser cannot produce, and citations of no entry or of the wrong
# kind: each is malformed.
@pytest.mark.parametrize(
    "mutate,error",
    [
        pytest.param(_set_term("while", ["while", 0, 2]), "terms[2]: field 'body' must be an index below 2, got 2",
                     id="self-reference"),
        pytest.param(_set_term("lit", ["seq", 1, 2]), "terms[0]: field 'first' must be an index below 0, got 1",
                     id="forward-reference"),
        pytest.param(_set_term("while", ["while", 0, 0]), "terms[2]: field 'body' must cite a command, "
                     "got an expression", id="wrong-kind"),
        pytest.param(_set_node("subject", 3), "nodes[0]: field 'subject' must cite a command, got a status",
                     id="subject-kind"),
        pytest.param(_append("terms", ["var", "while"]), "terms[5]: field 'name' must be a variable, got 'while'",
                     id="keyword-name"),
        pytest.param(_append("terms", ["alloc", "1x"]), "terms[5]: field 'x' must be a variable, got '1x'",
                     id="digit-name"),
        pytest.param(_append("terms", ["assign", "", 0]), "terms[5]: field 'x' must be a variable, got ''",
                     id="empty-name"),
        pytest.param(_append("terms", ["bop", "/", 0, 0]), "terms[5]: field 'op' must be an operator, got '/'",
                     id="operator"),
        pytest.param(_append("terms", ["lit", "*"]), "terms[5]: field 'value' must be a natural or null, got '*'",
                     id="star-lit"),
        pytest.param(_append("terms", ["throw", "*"]), "terms[5]: field 'value' must be a natural or null, "
                     "got '*'", id="star-throw"),
        pytest.param(_set_node("store", True), "nodes[0]: field 'store' must be an index below 1, got a boolean",
                     id="boolean-index"),
        pytest.param(_set_node("stream", 0.0), "nodes[0]: field 'stream' must be an index below 1, got 0.0",
                     id="float-index"),
        pytest.param(_set_node("flag_in", -1), "nodes[0]: field 'flag_in' must be an index below 5, got -1",
                     id="negative-index"),
        pytest.param(_set_node("result", [4, 1, None]), "nodes[0]: field 'result' must be an index below 1, got 1",
                     id="out-of-range-index"),
        pytest.param(_set_node("result", [4]), "nodes[0]: field 'result' must be null or an array of 2 or 3 "
                     "entries, got an array of 1", id="short-result"),
        pytest.param(_set_node("result", [4, 0, None, 0]), "nodes[0]: field 'result' must be null or an array of "
                     "2 or 3 entries, got an array of 4", id="long-result"),
    ],
)
def test_cert_check_rejects_an_adversarial_term_table(capsys, tmp_path, spin_file, mutate, error):
    cert = tmp_path / "c.json"
    run_cli(capsys, "classify", "--cert-system", "flag-co", "--cert-out", str(cert), spin_file)
    doc = json.loads(cert.read_text())
    assert doc["terms"] == [["lit", 1], ["skip"], ["while", 0, 1], ["down"], ["up"]]
    cert.write_text(json.dumps(mutate(doc)))
    assert run_cli(capsys, "cert", "check", str(cert)) == (2, "", f"error: {cert}: malformed certificate: {error}\n")


# What one field of a document may become: JSON values of every type,
# indices in and out of range, names and keywords.
_VALUES = [None, True, False, -1, 0, 1, 2, 3, 7, 99, 1.5, "", "x", "*", "while", "up", "F-Div", [], [0], [0, 1],
           [None, None, None], {}, {"x": 1}, {"values": [], "cursor": 0}]


def _one_field_mutant(doc, rng):
    """`doc` with one field replaced, deleted or (in an array) doubled."""
    places, todo = [], [doc]
    while todo:
        node = todo.pop()
        for key in (node if isinstance(node, dict) else range(len(node))):
            places.append((node, key))
            if isinstance(node[key], (dict, list)):
                todo.append(node[key])
    node, key = rng.choice(places)
    move = rng.random()
    if move < 0.1:
        del node[key]
    elif move < 0.15 and isinstance(node, list):
        node.insert(key, node[key])
    else:
        node[key] = rng.choice(_VALUES)
    return doc


def test_cert_check_survives_one_field_mutations(capsys, tmp_path):
    # Every one-field mutant of a format-2 document is malformed (2), invalid
    # (1), undecided (3) or valid (0); none escapes as an exception.
    programs = ["while 1 { skip }", "alloc t; t := 3; while t { t := t - 1 }; while 1 { skip }",
                "alloc x; x := 0; while 1 { x := x + 1 }",
                "alloc x; try { x := 1; throw 2 } catch { while 1 { x := 1 } }"]
    docs = []
    for text in programs:
        path = tmp_path / "p.whl"
        path.write_text(text)
        for system in ("lasso", "div-pred", "pretty-co", "flag-co"):
            cert = tmp_path / "c.json"
            argv = ["classify", "--abstract-vars", "x", "--cert-system", system, "--cert-out", str(cert), str(path)]
            if cert.exists():
                cert.unlink()
            run_cli(capsys, *argv)
            docs += [cert.read_text()] if cert.exists() else []
    assert len(docs) == 13
    rng, codes = random.Random(26), Counter()
    cert = tmp_path / "m.json"
    for i in range(1_200):
        cert.write_text(json.dumps(_one_field_mutant(json.loads(docs[i % len(docs)]), rng)))
        code, _, err = run_cli(capsys, "cert", "check", "--fuel", "2000", str(cert))
        assert code in (0, 1, 2, 3) and "Traceback" not in err, err
        codes[code] += 1
    assert codes[2] > 600 and codes[1] > 100 and codes[0] > 0


def test_cert_check_rejects_a_convergent_derivation(capsys, tmp_path):
    rec = Recorder()
    eval_flag(parse_cmd("alloc x; x := 1"), EMPTY_STORE, DOWN, EMPTY_STREAM, 100, recorder=rec)
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps(certificate_to_json(graph_from_tree(rec.root, "flag-co"))))
    code, out, _ = run_cli(capsys, "cert", "check", str(cert))
    assert code == 1
    assert out.startswith("invalid certificate: root does not claim divergence")


_HUGE = [0] * 100_000


@pytest.mark.parametrize(
    "system,mutate",
    [
        pytest.param("lasso", _set_entry("stores", 0, {"x": _HUGE}), id="store-value"),
        pytest.param("lasso", _set_entry("stores", 0, _HUGE), id="store"),
        pytest.param("lasso", _set_entry("streams", 0, _HUGE), id="stream"),
        pytest.param("flag-co", _cite_new("flag_in", "terms", ["exc", _HUGE, 0]), id="status"),
        pytest.param("pretty-co", _set_node("subject", {"x" * 100_000: _HUGE}), id="subject"),
    ],
)
def test_cert_check_quotes_a_bounded_prefix_of_a_malformed_value(capsys, tmp_path, spin_file, system, mutate):
    cert = tmp_path / "c.json"
    run_cli(capsys, "classify", "--cert-system", system, "--cert-out", str(cert), spin_file)
    cert.write_text(json.dumps(mutate(json.loads(cert.read_text()))))
    code, out, err = run_cli(capsys, "cert", "check", str(cert))
    assert (code, out) == (2, "")
    assert "malformed certificate" in err and err.count("\n") == 1 and len(err.encode()) < 300


def test_cert_check_malformed_exception_status_exits_2(capsys, tmp_path):
    rec = Recorder()
    c = parse_cmd("alloc x; try { x := 1; throw 9; x := 2 } catch { x := x + 1 }")
    eval_flag(c, EMPTY_STORE, DOWN, EMPTY_STREAM, 100, recorder=rec)
    doc = certificate_to_json(graph_from_tree(rec.root, "flag-co"))
    doc["terms"].append(["exc", 5])
    doc["nodes"][0]["flag_in"] = len(doc["terms"]) - 1
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "cert", "check", str(cert))
    assert (code, out) == (2, "")
    assert "malformed certificate" in err


# ---------------------------------------------------------------------------
# error paths


def test_parse_error_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.whl"
    p.write_text("while { skip")
    code, _, err = run_cli(capsys, "run", str(p))
    assert code == 2
    assert "parse error" in err


def test_superscript_digit_is_a_parse_error(capsys, tmp_path, fac4_file):
    p = tmp_path / "sup.whl"
    p.write_text("x := \u00b2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(p))
    assert (code, out) == (2, "")
    assert "parse error: 1:6: unexpected character" in err
    code, out, err = run_cli(capsys, "run", "--input", "1\u00b2", fac4_file)
    assert (code, out) == (2, "")
    assert "--input" in err


_BAD_INPUTS = {
    "binary": b"\xff\xfe while 1 { skip }\n",
    "spin": b"while 1 { skip }\n",
    "two-highlights": b"signature ([c], [sigma :- down]) =G=> ([s])\nrule R:\n  ---\n  () =G=> ()\n",
    "no-default": b"signature (c, [d]) =G=> (s, [d'])\nrule R:\n  ---\n  (skip) =G=> (s)\n",
    "deep-json": b"[" * 100_000 + b"]" * 100_000,
    "deep-rules": b"signature (c) =G=> (s)\nrule R:\n  ---\n  (" + b"(" * 5_000 + b"skip" + b")" * 5_000 + b") =G=> (s)\n",
    "deep-group": b"signature (c) =G=> (s)\nrule R:\n  ---\n  (" + b"(" * 800 + b"skip" + b")" * 800 + b") =G=> (s)\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "{binary}"],
        ["trace", "{binary}"],
        ["classify", "{binary}"],
        ["compare", "{binary}"],
        ["rules", "check", "{binary}"],
        ["rules", "count", "{binary}"],
        ["rules", "thread", "{binary}"],
        ["rules", "thread", "{two-highlights}"],
        ["rules", "thread", "{no-default}"],
        ["fuzz", "--depth", "0", "-n", "1"],
        ["fuzz", "--vars", "0", "-n", "1"],
        ["fuzz", "--depth", "3000", "-n", "1"],
        ["fuzz", "--wellformed", "7", "-n", "1"],
        ["fuzz", "--wellformed", "-0.5", "-n", "1"],
        ["cert", "check", "{deep-json}"],
        ["rules", "check", "{deep-rules}"],
        ["rules", "thread", "{deep-group}"],
        ["classify", "--cert-out", "{missing}/c.json", "{spin}"],
        ["rules", "thread", "--out", "{missing}/t.rules", "{implicit}"],
    ],
    ids=" ".join,
)
def test_bad_input_files_and_options_exit_2(capsys, tmp_path, argv):
    paths = {"missing": str(tmp_path / "missing"),
             "implicit": _rules_path("flag_based_implicit.rules")}
    for name, data in _BAD_INPUTS.items():
        (tmp_path / name).write_bytes(data)
        paths[name] = str(tmp_path / name)
    code, out, err = run_cli(capsys, *(arg.format_map(paths) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_bad_input_messages(capsys, tmp_path, spin_file):
    p = tmp_path / "bad.whl"
    p.write_bytes(b"skip\n\xff")
    assert run_cli(capsys, "run", str(p)) == (
        2, "", f"error: cannot read {p}: not UTF-8 text (invalid start byte at byte 5)\n"
    )
    cert = tmp_path / "no" / "c.json"
    code, _, err = run_cli(capsys, "classify", "--cert-out", str(cert), spin_file)
    assert err == f"error: cannot write {cert}: No such file or directory\n"
    code, _, err = run_cli(capsys, "fuzz", "--depth", "0")
    assert err == "error: bad fuzz options: max_depth must be at least 1\n"
    code, _, err = run_cli(capsys, "fuzz", "--depth", "41")
    assert err == "error: bad fuzz options: max_depth must be at most 40\n"
    code, _, err = run_cli(capsys, "fuzz", "--wellformed", "7")
    assert err == "error: bad fuzz options: wellformed must be a probability in [0, 1], got 7.0\n"
    deep = tmp_path / "deep.json"
    deep.write_bytes(_BAD_INPUTS["deep-json"])
    code, _, err = run_cli(capsys, "cert", "check", str(deep))
    assert err == f"error: {deep}: malformed certificate: JSON nested too deeply\n"
    for name in ("deep-rules", "deep-group"):
        q = tmp_path / f"{name}.rules"
        q.write_bytes(_BAD_INPUTS[name])
        code, _, err = run_cli(capsys, "rules", "check", str(q))
        assert err == f"error: {q}:4: groups nested deeper than 100 levels\n"
    q = tmp_path / "g.rules"
    q.write_bytes(_BAD_INPUTS["no-default"])
    code, _, err = run_cli(capsys, "rules", "thread", str(q))
    assert err == f"error: {q}: relation =G=> declares no default flag; cannot thread\n"


@pytest.mark.parametrize(
    "argv, option",
    [
        (["run", "--fuel", "-5"], "--fuel"),
        (["trace", "--fuel", "-1"], "--fuel"),
        (["classify", "--fuel", "-1"], "--fuel"),
        (["compare", "--fuel", "-1"], "--fuel"),
        (["cert", "check", "--fuel", "-1"], "--fuel"),
        (["fuzz", "--fuel", "-1"], "--fuel"),
        (["fuzz", "-n", "-3"], "--count/-n"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else x,
)
def test_negative_fuel_and_counts_exit_2(capsys, spin_file, argv, option):
    argv = argv + [spin_file] if argv[0] != "fuzz" else argv
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"error: argument {option}: must not be negative: -" in err
    assert "Traceback" not in err


def test_zero_fuel_and_count_are_accepted(capsys, spin_file):
    assert run_cli(capsys, "run", "--fuel", "0", spin_file) == (0, "out of fuel (limit 0)\n", "")
    code, out, _ = run_cli(capsys, "fuzz", "-n", "0", "--format", "json")
    assert (code, json.loads(out)["total"]) == (0, 0)


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "/nonexistent/prog.whl")
    assert code == 2


def test_usage_error_exits_2(capsys, fac4_file):
    code, _, _ = run_cli(capsys, "run", "--semantics", "bogus", fac4_file)
    assert code == 2


def test_bad_input_stream_exits_2(capsys, fac4_file):
    code, _, err = run_cli(capsys, "run", "--input", "1,two", fac4_file)
    assert code == 2
    assert "--input" in err
    code, _, err = run_cli(capsys, "run", "--input", "1,2,3,4\u00b2", fac4_file)
    assert code == 2
    assert "bad --input value: 1:8: unexpected character" in err
