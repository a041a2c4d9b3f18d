"""The evaluator over semantic commands with explicit outcome values."""

from whilesem.derivation import Recorder
from whilesem.parser import parse_cmd
from whilesem.pretty_big import DoneP, OutOfFuelP, eval_pretty
from whilesem.syntax import (
    ConvO,
    DIV,
    EMPTY_STORE,
    EMPTY_STREAM,
    If2,
    Nat,
    Plain,
    Seq2,
    Store,
    Stuck,
    While3,
    fac_program,
)


def test_factorial():
    r = eval_pretty(Plain(fac_program(4)), EMPTY_STORE, EMPTY_STREAM, 100_000)
    assert r == DoneP(ConvO(Store({"c": Nat(0), "r": Nat(24)})), EMPTY_STREAM)


def test_stuck_and_fuel():
    assert isinstance(eval_pretty(Plain(parse_cmd("x := 1")), EMPTY_STORE, EMPTY_STREAM, 100), Stuck)
    assert eval_pretty(Plain(parse_cmd("while 1 { skip }")), EMPTY_STORE, EMPTY_STREAM, 5_000) == OutOfFuelP()


def test_divergent_outcome_short_circuits_sequence():
    # a sequence whose first outcome already diverged ignores its second
    # command entirely — even one that would be stuck
    sc = Seq2(DIV, parse_cmd("x := y"))
    r = eval_pretty(sc, EMPTY_STORE, EMPTY_STREAM, 1)
    assert r == DoneP(DIV, EMPTY_STREAM)


def test_divergent_outcome_short_circuits_loop():
    # a loop whose body outcome already diverged
    w = parse_cmd("while 1 { skip }")
    sc = While3(DIV, w.guard, w.body)
    r = eval_pretty(sc, EMPTY_STORE, EMPTY_STREAM, 1)
    assert r == DoneP(DIV, EMPTY_STREAM)


def test_intermediate_if_dispatches_on_value():
    w_then = eval_pretty(
        If2(Nat(1), parse_cmd("alloc t"), parse_cmd("alloc e")), EMPTY_STORE, EMPTY_STREAM, 100
    )
    assert isinstance(w_then, DoneP) and w_then.outcome.store.domain() == {"t"}
    w_else = eval_pretty(
        If2(Nat(0), parse_cmd("alloc t"), parse_cmd("alloc e")), EMPTY_STORE, EMPTY_STREAM, 100
    )
    assert isinstance(w_else, DoneP) and w_else.outcome.store.domain() == {"e"}


def test_deep_loop_runs_without_recursion_error():
    c = parse_cmd("alloc x; x := 20000; while x { x := x - 1 }")
    r = eval_pretty(Plain(c), EMPTY_STORE, EMPTY_STREAM, 400_000)
    assert isinstance(r, DoneP)
    assert r.outcome.store.get("x") == Nat(0)


def test_recorder_shows_intermediate_forms():
    rec = Recorder()
    eval_pretty(Plain(parse_cmd("skip; skip")), EMPTY_STORE, EMPTY_STREAM, 100, recorder=rec)
    root = rec.root
    assert root.rule == "P-Seq1"
    rules = [child.rule for child in root.children]
    # first premise evaluates the head, second finishes via the
    # sequence-with-outcome form
    assert rules == ["P-Skip", "P-Seq2"]
    assert isinstance(root.children[1].subject, Seq2)
