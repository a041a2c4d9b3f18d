"""Store ownership: each evaluator run writes its own copy of the store it is
given, in place, and every store it hands out stays as it was handed out."""

import pytest

from whilesem.big_step import eval_big
from whilesem.derivation import Recorder
from whilesem.flag_based import eval_flag
from whilesem.parser import parse_cmd
from whilesem.pretty_big import eval_pretty
from whilesem.small_step import SmallConfig, run_star, step
from whilesem.syntax import (
    ConvO,
    DOWN,
    EMPTY_STREAM,
    Exc,
    Nat,
    Plain,
    Seq2,
    Store,
    UP,
    While3,
)

# Reads and writes the given variables, allocates a new one, and loops.
BODY = "y := y + x; alloc z; z := x; while x { y := y * 2; x := x - 1 }"
# The same with a caught exception, for the flag-based evaluator.
BODY_EXC = BODY + "; try { y := y + 1; throw 7 } catch { y := y + z }"


def _given():
    return Store({"x": Nat(3), "y": Nat(1)})


def _runs():
    """(name, run): each run takes the store to start from."""
    c, c_exc = parse_cmd(BODY), parse_cmd(BODY_EXC)
    guard, body = parse_cmd("while x { y := y * 2; x := x - 1 }").guard, parse_cmd("y := y * 2; x := x - 1")
    exc_in = Exc(Nat(5), Store({"y": Nat(2)}))
    return [
        ("run_star", lambda s: run_star(SmallConfig(c, s), 1_000)),
        ("eval_big", lambda s: eval_big(c, s, EMPTY_STREAM, 1_000)),
        ("eval_pretty Plain", lambda s: eval_pretty(Plain(c), s, EMPTY_STREAM, 1_000)),
        ("eval_pretty Seq2", lambda s: eval_pretty(Seq2(ConvO(s), c), Store(), EMPTY_STREAM, 1_000)),
        ("eval_pretty While3", lambda s: eval_pretty(While3(ConvO(s), guard, body), s, EMPTY_STREAM, 1_000)),
        ("eval_flag down", lambda s: eval_flag(c_exc, s, DOWN, EMPTY_STREAM, 1_000)),
        ("eval_flag up", lambda s: eval_flag(c_exc, s, UP, EMPTY_STREAM, 1_000)),
        ("eval_flag Exc", lambda s: eval_flag(c_exc, s, exc_in, EMPTY_STREAM, 1_000)),
        ("eval_flag throw", lambda s: eval_flag(parse_cmd("y := 0; throw 1"), s, DOWN, EMPTY_STREAM, 1_000)),
    ]


def _result_store(result):
    """The store a run hands out, for the runs of `_runs`."""
    if isinstance(result, tuple):  # run_star: (verdict, trace)
        return result[1].final.store
    if hasattr(result, "outcome"):
        return result.outcome.store
    if isinstance(getattr(result, "status", None), Exc):
        return result.status.at
    return result.store


@pytest.mark.parametrize("name, run", _runs(), ids=[name for name, _ in _runs()])
def test_given_store_is_unchanged_and_runs_repeat(name, run):
    given = _given()
    before, h = dict(given._map), hash(given)
    first = run(given)
    assert given._map == before
    assert hash(given) == h == hash(Store(before))
    assert run(given) == first


@pytest.mark.parametrize("name, run", _runs(), ids=[name for name, _ in _runs()])
def test_a_handed_out_store_is_unchanged_by_later_runs(name, run):
    out = _result_store(run(_given()))
    before, h = dict(out._map), hash(out)
    for _ in range(2):
        run(out)
        run(_given())
    assert out._map == before
    assert hash(out) == h == hash(Store(before))


def test_an_exception_catches_the_store_at_its_throw():
    c = parse_cmd("alloc x; try { x := 1; throw 0 } catch { x := x + 1 }")
    rec = Recorder()
    r = eval_flag(c, Store(), DOWN, EMPTY_STREAM, 100, rec)
    assert r.store == Store({"x": Nat(2)})
    excs, todo = [], [rec.root]
    while todo:
        node = todo.pop()
        todo += node.children
        if node.result is not None and isinstance(node.result[0], Exc):
            excs.append(node.result[0])
    assert excs and all(e == Exc(Nat(0), Store({"x": Nat(1)})) for e in excs)
    # Unrecorded, the handler resumes on the same store.
    assert eval_flag(c, Store(), DOWN, EMPTY_STREAM, 100) == r


def test_unrecorded_runs_never_copy_through_update(monkeypatch):
    calls = []
    update = Store.update

    def counted(self, x, v):
        calls.append(x)
        return update(self, x, v)

    monkeypatch.setattr(Store, "update", counted)
    for _, run in _runs():
        run(_given())
    assert calls == []
    # Recorded runs and single steps do write through it.
    eval_big(parse_cmd(BODY), _given(), EMPTY_STREAM, 1_000, Recorder())
    step(SmallConfig(parse_cmd("x := 1"), _given()))
    assert calls


@pytest.mark.parametrize("src", ["if x { y := 1 } else { skip }", "while x { skip }", "skip; y := 1"])
def test_a_step_that_writes_nothing_keeps_the_store_object(src):
    given = _given()
    assert step(SmallConfig(parse_cmd(src), given)).store is given
    assert step(SmallConfig(parse_cmd("x := 0"), given)).store == Store({"x": Nat(0), "y": Nat(1)})
