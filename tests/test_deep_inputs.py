"""Long and deeply nested programs at the default recursion limit.

Parsing, printing, every evaluator, `classify` and `compare` walk terms and
run commands in loops, so these inputs must not meet the recursion limit.  The checks
compare texts, not trees: equality and hashing of deep terms still recurse.
"""

import sys

import pytest

from whilesem.cli import main
from whilesem.harness import SEMANTICS
from whilesem.parser import parse_cmd, pretty_cmd

DEEP = {
    "2000-statements": "alloc x; x := 0; " + "; ".join(["x := x + 1"] * 2000),
    "2000-braces": "{" * 2000 + " alloc x; x := 2000 " + "}" * 2000,
    "3000-parentheses": "alloc x; x := " + "(" * 3000 + "2000" + ")" * 3000,
    "2000-operands": "alloc x; x := " + " + ".join(["1"] * 2000),
    # `{ { alloc x }; x := 1 }; …; x := 2000`: a left spine of 3,000 sequences.
    "3000-left-sequences": "{ " * 3000 + "alloc x" + " }; x := 1" * 2999 + " }; x := 2000",
}

# Pretty-big-step spends about twice big-step's fuel, so the left spine needs
# more than the default 10,000 to converge under every semantics.
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
