"""The transition relation: single steps, runs, traces, stuck reasons."""

import sys
import time

from conftest import corpus
from whilesem.parser import parse_cmd
from whilesem.small_step import SmallConfig, run_star, step, step_tuple
from whilesem.syntax import (
    Alloc,
    Assign,
    Bop,
    Converged,
    EMPTY_STORE,
    EMPTY_STREAM,
    InputStream,
    Lit,
    Nat,
    NULL,
    Seq,
    Skip,
    Store,
    Stuck,
    Unknown,
    Var,
    fac_program,
)


def _cfg(src, store=EMPTY_STORE, stream=EMPTY_STREAM):
    return SmallConfig(parse_cmd(src), store, stream)


def _no_step(cfg):
    """`step_tuple` on the configuration's parts: why it takes no step."""
    return step_tuple(cfg.cmd, cfg.store, cfg.stream)


def test_skip_is_terminal():
    assert step(_cfg("skip")) is None
    assert _no_step(_cfg("skip")) == "terminal"


def test_alloc_binds_null():
    nxt = step(_cfg("alloc x"))
    assert nxt.cmd == Skip()
    assert nxt.store.get("x") == NULL


def test_alloc_twice_is_stuck():
    cfg = _cfg("alloc x", Store({"x": Nat(0)}))
    assert step(cfg) is None
    assert "already-allocated" in _no_step(cfg)


def test_assign_requires_allocation():
    cfg = _cfg("x := 1")
    assert step(cfg) is None
    assert "unallocated" in _no_step(cfg)
    nxt = step(_cfg("x := 1", Store({"x": NULL})))
    assert nxt.store.get("x") == Nat(1)


def test_monus_truncates_at_zero():
    nxt = step(_cfg("x := 1 - 2", Store({"x": NULL})))
    assert nxt.store.get("x") == Nat(0)


def test_null_operand_is_stuck():
    cfg = _cfg("x := x + 1", Store({"x": NULL}))
    assert step(cfg) is None
    assert "null" in _no_step(cfg)


def test_guard_nonzero_takes_then_branch():
    nxt = step(_cfg("if 2 { alloc y } else { skip }"))
    assert nxt.cmd == parse_cmd("alloc y")


def test_guard_null_counts_as_nonzero():
    nxt = step(_cfg("if x { alloc y } else { skip }", Store({"x": NULL})))
    assert nxt.cmd == parse_cmd("alloc y")


def test_guard_zero_takes_else_branch():
    nxt = step(_cfg("if 0 { alloc y } else { skip }"))
    assert nxt.cmd == Skip()


def test_while_unfolds_to_body_then_loop():
    w = parse_cmd("while 1 { skip }")
    nxt = step(SmallConfig(w, EMPTY_STORE, EMPTY_STREAM))
    assert nxt.cmd == Seq(Skip(), w)
    # and the unfolding steps back to the loop itself: a two-step cycle
    again = step(nxt)
    assert again.cmd == w


def test_seq_steps_in_first_component():
    nxt = step(_cfg("alloc x; skip"))
    assert nxt.cmd == parse_cmd("skip; skip")


def test_input_consumes_stream_in_order():
    cfg = _cfg("x := input; y := input",
               Store({"x": NULL, "y": NULL}),
               InputStream.of(3, 5))
    verdict, _ = run_star(cfg, 100)
    assert verdict == Converged(Store({"x": Nat(3), "y": Nat(5)}))


def test_exhausted_stream_is_stuck():
    cfg = _cfg("x := input", Store({"x": NULL}))
    assert step(cfg) is None
    assert "input" in _no_step(cfg)


def test_throw_has_no_rule():
    cfg = _cfg("throw 1")
    assert step(cfg) is None
    assert "throw" in _no_step(cfg)
    cfg = _cfg("try { skip } catch { skip }")
    assert step(cfg) is None


def test_run_star_factorial():
    verdict, trace = run_star(SmallConfig(fac_program(4), EMPTY_STORE, EMPTY_STREAM), 10_000)
    assert verdict == Converged(Store({"c": Nat(0), "r": Nat(24)}))
    assert trace.configs[0].cmd == fac_program(4)
    # every adjacent pair in the trace is one transition
    for a, b in zip(trace.configs, trace.configs[1:]):
        assert step(a) == b


def test_run_star_out_of_fuel():
    verdict, trace = run_star(_cfg("while 1 { skip }"), 7)
    assert verdict == Unknown(7)
    assert len(trace.configs) == 8  # initial config plus seven steps
    assert run_star(_cfg("while 1 { skip }"), -1)[0] == Unknown(0)


def test_run_star_stuck_reports_reason():
    verdict, _ = run_star(_cfg("alloc x; x := y"), 100)
    assert isinstance(verdict, Stuck)
    assert "y" in verdict.reason


def _iterated_step(cfg, fuel):
    """The reference run: `step` in a plain loop, every configuration kept."""
    configs = [cfg]
    while len(configs) <= fuel:
        nxt = step(configs[-1])
        if nxt is None:
            break
        configs.append(nxt)
    return configs


def test_run_star_is_iterated_step():
    fuel = 500
    for c in corpus(2_000, max_depth=5):
        cfg = SmallConfig(c, EMPTY_STORE, EMPTY_STREAM)
        configs = _iterated_step(cfg, fuel)
        last, steps = configs[-1], len(configs) - 1
        if _no_step(last) == "terminal":
            expected = Converged(last.store)
        elif steps < fuel:
            expected = Stuck(_no_step(last))
        else:
            expected = Unknown(fuel)
        verdict, trace = run_star(cfg, fuel)
        assert verdict == expected
        assert (trace.start, trace.final, trace.steps) == (cfg, last, steps)
        assert trace.configs == tuple(configs)


INC = Assign("x", Bop("+", Var("x"), Lit(Nat(1))))


def _left_nested(head, n):
    """`head; x := x + 1; ...; x := x + 1` with n increments, nested to the
    left, so the first statement sits n levels down the spine."""
    c = head
    for _ in range(n):
        c = Seq(c, INC)
    return c


def _spine(c):
    """(bottom of the left spine, the seconds from the bottom up); compares
    deep terms without recursing."""
    seconds = []
    while isinstance(c, Seq):
        seconds.append(c.second)
        c = c.first
    return c, seconds[::-1]


def test_deep_left_nested_sequence_at_default_recursion_limit():
    """Every `step` of a left-nested sequence rebuilds the spine above its
    redex, so stepping 3,000 levels to the end builds about 9M new nodes.
    At that depth the run is bounded and checked term for term; a shorter
    sequence, still deeper than the recursion limit, runs to the end."""
    depth = 3_000
    assert sys.getrecursionlimit() < depth
    start = Seq(Alloc("x"), Assign("x", Lit(Nat(0))))
    # alloc, drop skip, assign, drop skip, then two steps per increment
    verdict, trace = run_star(SmallConfig(_left_nested(start, depth), EMPTY_STORE), 4 + 2 * 20)
    assert verdict == Unknown(44)
    last = trace.configs[-1]
    assert last.store == Store({"x": Nat(20)})
    assert _spine(last.cmd) == (INC, [INC] * (depth - 21))

    stuck = SmallConfig(_left_nested(Assign("y", Lit(Nat(1))), depth), Store({"x": Nat(0)}))
    assert step(stuck) is None
    assert _no_step(stuck) == "assignment to unallocated variable y"
    verdict, trace = run_star(stuck, 10)
    assert verdict == Stuck("assignment to unallocated variable y")
    assert len(trace.configs) == 1

    n = 1_200
    assert sys.getrecursionlimit() < n
    cfg = SmallConfig(_left_nested(start, n), EMPTY_STORE)
    while type(cfg.cmd) is not Skip:
        cfg = step(cfg)
    assert cfg.store == Store({"x": Nat(n)})


def test_run_star_is_linear_at_any_depth():
    """`run_star` decomposes a command once and keeps no configurations
    between the first and the last, so a left-nested sequence 3,000 levels
    deep runs to the end at once, and so does a 10^5-statement program."""
    depth = 3_000
    assert sys.getrecursionlimit() < depth
    start = Seq(Alloc("x"), Assign("x", Lit(Nat(0))))
    began = time.perf_counter()
    verdict, trace = run_star(SmallConfig(_left_nested(start, depth), EMPTY_STORE), 10**6)
    assert time.perf_counter() - began < 1
    assert verdict == Converged(Store({"x": Nat(depth)}))
    assert (trace.steps, trace.final.cmd) == (3 + 2 * depth, Skip())  # no skip to drop at the end
    assert "configs" not in vars(trace)  # replayed only when asked for

    n = 10**5
    c = INC
    for _ in range(n - 3):
        c = Seq(INC, c)
    verdict, trace = run_star(SmallConfig(Seq(Alloc("x"), Seq(Assign("x", Lit(Nat(0))), c)), EMPTY_STORE), 10**6)
    assert verdict == Converged(Store({"x": Nat(n - 2)}))
    assert trace.steps == 2 * n - 1
