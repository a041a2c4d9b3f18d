"""Long and deeply nested programs at the default recursion limit.

Parsing, printing, every evaluator, `classify`, `compare` and the export of
recorded derivations walk terms and run commands in loops, so these inputs
must not meet the recursion limit.  The checks compare texts, not trees:
equality and hashing of deep terms still recurse.
"""

import json
import sys

import pytest

from whilesem.cli import main
from whilesem.coinduction import certificate_from_json, certificate_to_json, graph_error, graph_from_tree
from whilesem.derivation import Recorder
from whilesem.flag_based import eval_flag
from whilesem.harness import SEMANTICS
from whilesem.parser import parse_cmd, pretty_cmd
from whilesem.pretty_big import eval_pretty
from whilesem.syntax import DOWN, EMPTY_STORE, EMPTY_STREAM, Plain

DEEP = {
    "2000-statements": "alloc x; x := 0; " + "; ".join(["x := x + 1"] * 2000),
    "2000-braces": "{" * 2000 + " alloc x; x := 2000 " + "}" * 2000,
    "3000-parentheses": "alloc x; x := " + "(" * 3000 + "2000" + ")" * 3000,
    "2000-operands": "alloc x; x := " + " + ".join(["1"] * 2000),
    # `{ { alloc x }; x := 1 }; …; x := 2000`: a left spine of 3,000 sequences.
    "3000-left-sequences": "{ " * 3000 + "alloc x" + " }; x := 1" * 2999 + " }; x := 2000",
}

# Pretty-big-step spends about twice big-step's fuel, so `run --semantics
# pretty` needs more than the default 10,000 to converge on the left spine.
FUEL = {"3000-left-sequences": ["--fuel", "100000"]}


def test_the_recursion_limit_is_the_default():
    assert sys.getrecursionlimit() <= 1000


@pytest.mark.parametrize("name", DEEP)
def test_deep_programs_parse_and_reprint(name):
    text = pretty_cmd(parse_cmd(DEEP[name]))
    assert pretty_cmd(parse_cmd(text)) == text


@pytest.mark.parametrize(
    "argv",
    [["run", "--semantics", s] for s in SEMANTICS] + [["classify"], ["compare"]],
    ids=lambda argv: argv[-1],
)
@pytest.mark.parametrize("name", DEEP)
def test_deep_programs_run_classify_and_compare(capsys, tmp_path, name, argv):
    path = tmp_path / "deep.whl"
    path.write_text(DEEP[name] + "\n", encoding="utf-8")
    code = main(argv + FUEL.get(name, []) + [str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "2000" in out
    if argv == ["compare"]:
        assert "agreement: 4 semantics" in out


def test_compare_agrees_on_the_left_spine_at_the_default_fuel(capsys, tmp_path):
    # 6,001 big-step rules, 12,001 pretty-big-step rules: after big-step
    # converges, `compare` gives the other semantics the fuel their laws bound.
    path = tmp_path / "deep.whl"
    path.write_text(DEEP["3000-left-sequences"] + "\n", encoding="utf-8")
    code = main(["compare", str(path)])
    out = capsys.readouterr().out
    assert (code, out) == (0, "stream []: Converged {x↦2000}\nagreement: 4 semantics, 1 stream(s)\n")


def _exported(c, system):
    """The recorded derivation of `c` from a normal start, as a graph."""
    rec = Recorder()
    if system == "flag-co":
        eval_flag(c, EMPTY_STORE, DOWN, EMPTY_STREAM, 10**5, recorder=rec)
    else:
        eval_pretty(Plain(c), EMPTY_STORE, EMPTY_STREAM, 10**5, recorder=rec)
    return graph_from_tree(rec.root, system)


@pytest.mark.parametrize("system,nodes", [("flag-co", 6_005), ("pretty-co", 15_009)])
def test_long_derivations_export_check_and_round_trip(system, nodes):
    g = _exported(parse_cmd("alloc n; n := 3000; while n { n := n - 1 }"), system)
    assert len(g.nodes) == nodes
    assert graph_error(g) is None
    data = certificate_to_json(g)
    assert certificate_to_json(certificate_from_json(json.loads(json.dumps(data)))) == data


@pytest.mark.parametrize("system,nodes", [("flag-co", 6_001), ("pretty-co", 12_001)])
def test_deep_derivations_export_and_check(system, nodes):
    """Decoding these graphs back would compare deep terms, which recurses."""
    g = _exported(parse_cmd(DEEP["3000-left-sequences"]), system)
    assert len(g.nodes) == nodes
    assert graph_error(g) is None
