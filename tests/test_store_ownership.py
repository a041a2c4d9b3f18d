"""Store ownership: each evaluator run, recorded or not, writes its own copy
of the store it is given, in place, and every store it hands out or records
stays as it was handed out or recorded."""

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
# A handler that writes the store its exception caught.
TRY = "try { x := 1; throw 0 } catch { x := x + 1 }"
CATCH = "alloc x; " + TRY


def _given():
    return Store({"x": Nat(3), "y": Nat(1)})


def _runs():
    """(name, run): each run takes the store to start from and a recorder,
    or None (`run_star` and `step` record nothing)."""
    c, c_exc = parse_cmd(BODY), parse_cmd(BODY_EXC)
    guard, body = parse_cmd("while x { y := y * 2; x := x - 1 }").guard, parse_cmd("y := y * 2; x := x - 1")
    exc_in = Exc(Nat(5), Store({"y": Nat(2)}))
    return [
        ("run_star", lambda s, rec=None: run_star(SmallConfig(c, s), 1_000)),
        ("step", lambda s, rec=None: step(SmallConfig(c, s))),
        ("eval_big", lambda s, rec=None: eval_big(c, s, EMPTY_STREAM, 1_000, rec)),
        ("eval_pretty Plain", lambda s, rec=None: eval_pretty(Plain(c), s, EMPTY_STREAM, 1_000, rec)),
        ("eval_pretty Seq2", lambda s, rec=None: eval_pretty(Seq2(ConvO(s), c), Store(), EMPTY_STREAM, 1_000, rec)),
        (
            "eval_pretty While3",
            lambda s, rec=None: eval_pretty(While3(ConvO(s), guard, body), s, EMPTY_STREAM, 1_000, rec),
        ),
        ("eval_flag down", lambda s, rec=None: eval_flag(c_exc, s, DOWN, EMPTY_STREAM, 1_000, rec)),
        ("eval_flag up", lambda s, rec=None: eval_flag(c_exc, s, UP, EMPTY_STREAM, 1_000, rec)),
        ("eval_flag Exc", lambda s, rec=None: eval_flag(c_exc, s, exc_in, EMPTY_STREAM, 1_000, rec)),
        (
            "eval_flag throw",
            lambda s, rec=None: eval_flag(parse_cmd("y := 0; throw 1"), s, DOWN, EMPTY_STREAM, 1_000, rec),
        ),
        (
            "eval_flag catch",
            lambda s, rec=None: eval_flag(parse_cmd(TRY), s, DOWN, EMPTY_STREAM, 1_000, rec),
        ),
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
    c = parse_cmd(CATCH)
    rec = Recorder()
    r = eval_flag(c, Store(), DOWN, EMPTY_STREAM, 100, rec)
    assert r.store == Store({"x": Nat(2)})
    excs, todo = [], [rec.root]
    while todo:
        node = todo.pop()
        todo += node.children
        for part in (node.flag_in, *(node.result or ())):
            if isinstance(part, Exc):
                excs.append(part)
    assert excs and all(e == Exc(Nat(0), Store({"x": Nat(1)})) for e in excs)
    assert eval_flag(c, Store(), DOWN, EMPTY_STREAM, 100) == r


class _Witness(Recorder):
    """A recorder that also writes down, as text, each node as it stood when
    it was entered or made and each result as it stood when it was set."""

    def __init__(self):
        super().__init__()
        self.entered, self.results = {}, {}

    def _note(self):
        todo = [self.root] if self.root is not None else []
        while todo:
            node = todo.pop()
            todo += node.children
            self.entered.setdefault(id(node), _entry(node))
            if node.result is not None:
                self.results.setdefault(id(node), _text(node.result))

    def enter(self, *args):
        node = super().enter(*args)
        self._note()
        return node

    def leaf(self, *args):
        node = super().leaf(*args)
        self._note()
        return node

    def exit_to(self, *args):
        result = super().exit_to(*args)
        self._note()
        return result

    def nodes(self):
        todo = [self.root]
        while todo:
            node = todo.pop()
            todo += node.children
            yield node


def _entry(node) -> str:
    return _text((node.subject, node.store, node.flag_in, node.stream))


def _text(x) -> str:
    """`x` as text, with each store read from its map: the cached views of a
    store that is still being written would go stale."""
    if type(x) is Store:
        return repr(sorted(x._map.items()))
    if type(x) is tuple:
        return "(" + ", ".join(map(_text, x)) + ")"
    fields = getattr(type(x), "__match_args__", None)
    if fields:
        return type(x).__name__ + _text(tuple(getattr(x, f) for f in fields))
    return repr(x)


_RECORDED = [(name, run) for name, run in _runs() if name.startswith("eval")]


@pytest.mark.parametrize("name, run", _RECORDED, ids=[name for name, _ in _RECORDED])
def test_a_recorded_tree_is_unchanged_by_the_runs_later_writes(name, run):
    """Entry stores, results (also `conv` outcomes and pretty-big-step's
    second-stage subjects that hold them) and exception stores stay as they
    were recorded, though the run writes its store in place."""
    rec = _Witness()
    result = run(_given(), rec)
    nodes = list(rec.nodes())
    assert len(nodes) == len(rec.entered)
    for node in nodes:
        assert _entry(node) == rec.entered[id(node)]
        assert _text(node.result) == rec.results[id(node)]
    assert run(_given()) == result


def test_no_run_or_step_writes_through_update(monkeypatch):
    """`Store.update` serves the rule interpreter only: every evaluator run,
    recorded or not, and every `step` writes its own copy in place."""
    calls = []
    update = Store.update

    def counted(self, x, v):
        calls.append(x)
        return update(self, x, v)

    monkeypatch.setattr(Store, "update", counted)
    for _, run in _runs():
        run(_given())
        run(_given(), Recorder())
    for src in ("x := 1", "alloc z", "x := 0; y := 2", "if x { y := 1 } else { skip }"):
        assert step(SmallConfig(parse_cmd(src), _given())) is not None
    assert calls == []


@pytest.mark.parametrize("src", ["if x { y := 1 } else { skip }", "while x { skip }", "skip; y := 1"])
def test_a_step_that_writes_nothing_keeps_the_store_object(src):
    given = _given()
    assert step(SmallConfig(parse_cmd(src), given)).store is given
    assert step(SmallConfig(parse_cmd("x := 0"), given)).store == Store({"x": Nat(0), "y": Nat(1)})
