"""Every rule label that the evaluators, the tree export and the provers
emit names a rule in a shipped rule file."""

from importlib import resources

from whilesem.big_step import Done, eval_big
from whilesem.coinduction import SYSTEMS, detect_lasso, graph_from_tree, lasso_graph, prove_divergence
from whilesem.derivation import Recorder
from whilesem.flag_based import FlagResult, eval_expr_flag, eval_flag
from whilesem.harness import GenConfig, default_streams, generate_program
from whilesem.parser import parse_cmd, parse_expr
from whilesem.pretty_big import DoneP, eval_pretty
from whilesem.rule_dsl import parse_rules
from whilesem.small_step import SmallConfig
from whilesem.syntax import DOWN, EMPTY_STORE, EMPTY_STREAM, UP, Exc, Nat, Plain

from conftest import corpus

FUEL = 200

PROGRAMS = [
    "alloc x; try { x := 1; throw 9 } catch { x := x + 1 }",
    "try { skip } catch { skip }",
    "try { while 1 { skip } } catch { skip }",
    "alloc x; throw 1; x := 2",
    "alloc x; x := input + input; while x { x := x - 1 }",
    "if input { x := 0 } else { skip }; while 1 { skip }",
    "alloc x; x := 0; while 1 { x := x + 1 }",
    "{ while 1 { skip } }; alloc x; x := x + 0",
]


def _shipped_labels() -> set:
    labels = set()
    for entry in resources.files("whilesem").joinpath("rules").iterdir():
        if entry.name.endswith(".rules"):
            labels |= {r.label for r in parse_rules(entry.read_text(encoding="utf-8")).rules}
    return labels


def _tree_labels(rec: Recorder) -> set:
    labels, todo = set(), [rec.root]
    while todo:
        node = todo.pop()
        if node.rule is not None:
            labels.add(node.rule)
        todo.extend(node.children)
    return labels


def _emitted(c, stream) -> set:
    labels: set = set()
    runs = [
        (None, lambda rec: eval_big(c, EMPTY_STORE, stream, FUEL, rec), Done),
        ("pretty-co", lambda rec: eval_pretty(Plain(c), EMPTY_STORE, stream, FUEL, rec), DoneP),
        ("flag-co", lambda rec: eval_flag(c, EMPTY_STORE, DOWN, stream, FUEL, rec), FlagResult),
    ]
    for system, run, finished in runs:
        rec = Recorder()
        result = run(rec)
        labels |= _tree_labels(rec)
        if system is not None and isinstance(result, finished):
            labels |= {n.rule for n in graph_from_tree(rec.root, system).nodes}
    for system in SYSTEMS:
        g = prove_divergence(c, EMPTY_STORE, stream, system, FUEL)
        if g is not None:
            labels |= {n.rule for n in g.nodes}
    lasso = detect_lasso(SmallConfig(c, EMPTY_STORE, stream), FUEL)
    if lasso is not None:
        labels |= {n.rule for n in lasso_graph(lasso).nodes}
    return labels


def test_every_emitted_rule_label_is_shipped():
    programs = [parse_cmd(text) for text in PROGRAMS]
    programs += corpus(60, allow_throw=True)
    programs += corpus(60, first_seed=100, allow_input=True)
    programs += [generate_program(GenConfig(seed=0), seed) for seed in range(60)]
    emitted: set = set()
    for c in programs:
        for stream in default_streams(c):
            emitted |= _emitted(c, stream)
    # expression judgments under an abort status are reached only directly
    for flag in (UP, Exc(Nat(1), EMPTY_STORE)):
        rec = Recorder()
        eval_expr_flag(parse_expr("x + 1"), EMPTY_STORE, flag, EMPTY_STREAM, recorder=rec)
        emitted |= _tree_labels(rec)

    assert emitted - _shipped_labels() == set()
    # the corpus reaches every rule of the extension ruleset
    extension = {"E-Input", "FE-Input", "FE-Exc", "F-Throw", "F-Exc", "F-Catch", "F-Catch-Some"}
    assert extension <= emitted and "I-Step" in emitted
