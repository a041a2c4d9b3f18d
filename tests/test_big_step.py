"""The inductive evaluator: results, fuel accounting, deep loops, recording."""

from whilesem.big_step import Done, OutOfFuel, eval_big, fuel_used
from whilesem.derivation import Recorder
from whilesem.parser import parse_cmd
from whilesem.syntax import (
    EMPTY_STORE,
    EMPTY_STREAM,
    InputStream,
    Nat,
    Store,
    Stuck,
    fac_program,
)


def test_factorial():
    r = eval_big(fac_program(4), EMPTY_STORE, EMPTY_STREAM, 10_000)
    assert r == Done(Store({"c": Nat(0), "r": Nat(24)}), EMPTY_STREAM)


def test_stuck_propagates_reason():
    r = eval_big(parse_cmd("x := 1"), EMPTY_STORE, EMPTY_STREAM, 100)
    assert isinstance(r, Stuck)
    assert "unallocated" in r.reason


def test_out_of_fuel_on_divergence():
    assert eval_big(parse_cmd("while 1 { skip }"), EMPTY_STORE, EMPTY_STREAM, 100_000) == OutOfFuel()


def test_zero_fuel_yields_out_of_fuel():
    assert eval_big(parse_cmd("skip"), EMPTY_STORE, EMPTY_STREAM, 0) == OutOfFuel()


def test_input_threads_through_sequence():
    c = parse_cmd("alloc x; x := input; alloc y; y := input + x")
    r = eval_big(c, EMPTY_STORE, InputStream.of(2, 3), 100)
    assert isinstance(r, Done)
    assert r.store.get("y") == Nat(5)
    assert r.stream.exhausted()


def test_deep_loop_runs_without_recursion_error():
    # 50,000 iterations: the evaluator must not recurse per iteration
    c = parse_cmd("alloc x; x := 50000; while x { x := x - 1 }")
    r = eval_big(c, EMPTY_STORE, EMPTY_STREAM, 200_000)
    assert isinstance(r, Done)
    assert r.store.get("x") == Nat(0)


def test_fuel_used_counts_command_rules():
    # seq(1) + alloc(1) + assign(1) = 3; expressions are free
    assert fuel_used(parse_cmd("alloc x; x := 1 + 2"), EMPTY_STORE, EMPTY_STREAM, 100) == 3
    # skip alone is one rule
    assert fuel_used(parse_cmd("skip"), EMPTY_STORE, EMPTY_STREAM, 100) == 1
    assert fuel_used(parse_cmd("while 1 { skip }"), EMPTY_STORE, EMPTY_STREAM, 100) is None


def test_recorder_captures_rule_applications():
    rec = Recorder()
    eval_big(parse_cmd("skip; skip"), EMPTY_STORE, EMPTY_STREAM, 100, recorder=rec)
    root = rec.root
    assert root.rule == "B-Seq"
    assert [child.rule for child in root.children] == ["B-Skip", "B-Skip"]
    assert root.result is not None


def test_recorder_while_premises():
    rec = Recorder()
    c = parse_cmd("while x { x := x - 1 }")
    eval_big(c, Store({"x": Nat(1)}), EMPTY_STREAM, 100, recorder=rec)
    root = rec.root
    assert root.rule == "B-While"
    # guard evaluation, body, and the continuation of the loop
    relations = [child.relation for child in root.children]
    assert relations == ["expr", "big", "big"]
    assert root.children[2].rule == "B-WhileZ"
