"""Small-step transition semantics and bounded execution.

One configuration is a command plus a store plus the input stream.  One
loop takes every step: `run_star` runs it under a fuel bound, without
building the configurations in between, and returns a normalized verdict
with a `Trace` that replays them on demand; `step` is one turn of it, the
unique next configuration or None when the configuration is terminal
(`skip`) or stuck, and `step_tuple` the same turn on a configuration's
three parts, which says why it takes no step.

Arithmetic on naturals is written once, in `_arith`, which all four
evaluators reach through `eval_expr`; it returns a shared object for every
natural below `_SMALL`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterator

from .syntax import (
    Alloc,
    AnyNat,
    Assign,
    Bop,
    Catch,
    Cmd,
    Converged,
    If,
    Input,
    InputStream,
    Lit,
    Nat,
    NULL,
    Null,
    Seq,
    Skip,
    Store,
    Stuck,
    Unknown,
    Val,
    Var,
    Verdict,
    While,
    term_class,
)


# The slotted class that `term_class` retags as Seq, and the setter of a
# natural's payload, which skips Nat's frozen `__setattr__` and its check.
_SeqSlots = Seq.__base__
_set_n = Nat.__base__.n.__set__
_new = object.__new__

# Arithmetic returns one shared object for each natural below `_SMALL`, and
# builds only larger results: `eval_expr` on `x + 3` took 576 ns when it
# built its result and takes 357 ns with the table (2-CPU x86-64, Python
# 3.11).  On the long-loops workload of `bench/run.py` 98% of the results
# lie below 1,024 and all of them below 2,048; on its other two workloads
# all lie below 64.  The table's 2,048 entries take about 115 KB and 0.7 ms
# to make, once per import.  Naturals are immutable values, so sharing one
# is safe, and identity means nothing: two equal naturals need not be one
# object.
_SMALL = 2048


def _shared_naturals(count: int) -> tuple:
    """Nat(0), ..., Nat(count - 1), made without the constructor's check."""
    nats = tuple(map(_new, repeat(Nat, count)))
    for n, v in enumerate(nats):
        _set_n(v, n)
    return nats


_NATS = _shared_naturals(_SMALL)


class ExprStuck(Exception):
    """No rule applies, and why.  Raised by expression evaluation, the guard
    test and the small-step contraction; the evaluators turn it into a
    `Stuck` result with the same reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _arith(op: str, m: int, n: int) -> Nat:
    """The natural `m op n`, `-` truncated at zero: the one place the
    arithmetic on naturals is written.  A result below `_SMALL` is the
    shared natural of the table; a larger one is built, without Nat's check,
    as it is non-negative."""
    if op == "+":
        r = m + n
    elif op == "-":
        r = m - n if m > n else 0
    else:
        r = m * n
    if r < _SMALL:
        return _NATS[r]
    v = _new(Nat)
    _set_n(v, r)
    return v


def apply_bop(op: str, a: Val, b: Val) -> Val:
    """Binary arithmetic on values: on naturals `_arith`; a null operand is
    stuck, and otherwise an indeterminate operand makes the result
    indeterminate."""
    if type(a) is Nat and type(b) is Nat:
        return _arith(op, a.n, b.n)
    if type(a) is Null or type(b) is Null:
        raise ExprStuck(f"null operand in {op}")
    return a if type(a) is AnyNat else b


def guard_nonzero(v: Val) -> bool:
    """Guard test: any value other than the natural 0 counts as non-zero
    (null included).  Indeterminate values cannot be branched on."""
    if type(v) is Nat:
        return v.n != 0
    if type(v) is AnyNat:
        raise ExprStuck("indeterminate guard value")
    return True


def eval_expr(e, store: Store, stream: InputStream, _depth: int = 0) -> tuple[Val, InputStream]:
    """Evaluate `e`, threading the input stream left to right.

    Raises ExprStuck on an unbound variable, a null operand, or an exhausted
    input stream.  Variables are read from the store's map, and operands
    that are variables or literals are evaluated in place.  Other operands
    recurse, `_depth` counting the levels, down to `_NESTING` levels; deeper
    ones go to an explicit stack, so nesting depth never meets the recursion
    limit.
    """
    t = type(e)
    if t is Var:
        v = store._map.get(e.name)
        if v is None:
            raise ExprStuck(f"unbound variable {e.name}")
        return v, stream
    if t is Lit:
        return e.value, stream
    if t is Bop:
        left, right = e.left, e.right
        t = type(left)
        if t is Var:
            v1 = store._map.get(left.name)
            if v1 is None:
                raise ExprStuck(f"unbound variable {left.name}")
        elif t is Lit:
            v1 = left.value
        elif _depth < _NESTING:
            v1, stream = eval_expr(left, store, stream, _depth + 1)
        else:
            v1, stream = _eval_nested(left, store, stream)
        t = type(right)
        if t is Var:
            v2 = store._map.get(right.name)
            if v2 is None:
                raise ExprStuck(f"unbound variable {right.name}")
        elif t is Lit:
            v2 = right.value
        elif _depth < _NESTING:
            v2, stream = eval_expr(right, store, stream, _depth + 1)
        else:
            v2, stream = _eval_nested(right, store, stream)
        if type(v1) is Nat and type(v2) is Nat:
            return _arith(e.op, v1.n, v2.n), stream
        return apply_bop(e.op, v1, v2), stream
    if t is Input:
        popped = stream.pop()
        if popped is None:
            raise ExprStuck("input exhausted")
        return popped
    raise TypeError(f"not an expression: {e!r}")


# Nested operands recurse down to this depth, and go to `_eval_nested`
# below it.  The explicit stack for every nested operand cost the seeded
# fuzz campaign about 6% of its throughput (2-CPU x86-64, Python 3.11),
# because its expressions mostly nest two or three levels deep.
_NESTING = 50


def _eval_nested(e, store: Store, stream: InputStream) -> tuple[Val, InputStream]:
    """`eval_expr` on an explicit stack.  A `Bop` pushes its operator (a
    string) under its right and left operands, so the left operand is
    evaluated first, then the right, then the operator applied to both."""
    todo, vals = [e], []
    while todo:
        e = todo.pop()
        t = type(e)
        if t is Bop:
            todo += (e.op, e.right, e.left)
        elif t is str:
            v2 = vals.pop()
            v1 = vals[-1]
            vals[-1] = _arith(e, v1.n, v2.n) if type(v1) is Nat and type(v2) is Nat else apply_bop(e, v1, v2)
        elif t is Var:
            v = store._map.get(e.name)
            if v is None:
                raise ExprStuck(f"unbound variable {e.name}")
            vals.append(v)
        elif t is Lit:
            vals.append(e.value)
        elif t is Input:
            popped = stream.pop()
            if popped is None:
                raise ExprStuck("input exhausted")
            v, stream = popped
            vals.append(v)
        else:
            raise TypeError(f"not an expression: {e!r}")
    return vals[0], stream


@term_class
class SmallConfig:
    cmd: Cmd
    store: Store
    stream: InputStream = InputStream()


_SKIP = Skip()


def _contract(c, store: Store, stream: InputStream, ctx: list):
    """One transition of the focused command `c`: the (command, stream, name,
    value) that replace it, or None when `c` is terminal.  `name` and
    `value` are the write the transition makes to the store, σ[name ↦
    value], and `name` is None when it writes nothing; `store` itself is
    only read.  ExprStuck, with the reason, when no rule applies.

    `c` is never a sequence.  `ctx` is its evaluation context, the second
    commands of the sequences whose left spine leads down to `c`, innermost
    last.  Two rules change the context: `skip; c2` steps to `c2`, which is
    popped from it, and a taken `while` pushes itself, to run again after
    its body.  These are all the transition rules, and `_run` takes every
    step here.
    """
    t = type(c)
    if t is Skip:
        return (ctx.pop(), stream, None, None) if ctx else None
    if t is Assign:
        if c.x not in store._map:
            raise ExprStuck(f"assignment to unallocated variable {c.x}")
        v, stream = eval_expr(c.expr, store, stream)
        return _SKIP, stream, c.x, v
    if t is While or t is If:
        v, stream = eval_expr(c.guard, store, stream)
        taken = guard_nonzero(v)
        if t is If:
            return (c.then if taken else c.orelse), stream, None, None
        if not taken:
            return _SKIP, stream, None, None
        ctx.append(c)
        return c.body, stream, None, None
    if t is Alloc:
        if c.x in store._map:
            raise ExprStuck(f"alloc of already-allocated variable {c.x}")
        return _SKIP, stream, c.x, NULL
    raise ExprStuck(f"no transition rule for {'try/catch' if t is Catch else 'throw'}")


def _run(c, store: Store, stream: InputStream, fuel: int) -> tuple:
    """Take at most `fuel` steps from ⟨c, store, stream⟩: the (command,
    context, store, stream, steps, reason) where the run stopped, the
    command sitting under the context.  `reason` says why no rule applies
    to the focus, and is None when one does or the focus is terminal.

    The run is refocused: a command is decomposed into a focus and its
    context once, and after each contraction only the command that replaced
    the focus is decomposed, so a step costs O(1) amortised at any nesting
    depth.  The given store is copied on the first write and the copy
    written in place; a run that writes nothing hands back the same store
    object, and so its cached hash.
    """
    ctx: list = []
    m = None  # the run's own map, made on its first write
    steps = 0
    try:
        while steps < fuel:
            while type(c) is Seq:
                ctx.append(c.second)
                c = c.first
            nxt = _contract(c, store, stream, ctx)
            if nxt is None:
                break
            c, stream, x, v = nxt
            if x is not None:
                if m is None:
                    m = store._map.copy()
                    store = Store._adopt(m)
                m[x] = v
            steps += 1
    except ExprStuck as ex:
        return c, ctx, store, stream, steps, ex.reason
    return c, ctx, store, stream, steps, None


def _plug(c, ctx: list):
    """The command with `c` under the context `ctx`: the spine of sequences
    rebuilt in a loop, so nesting depth never meets the recursion limit."""
    for second in reversed(ctx):
        s = _new(_SeqSlots)  # `Seq(c, second)`, without its constructor call
        s.first = c
        s.second = second
        s.__class__ = Seq
        c = s
    return c


def step_tuple(c, store: Store, stream: InputStream):
    """One step from ⟨c, store, stream⟩, one turn of `run_star`'s loop: the
    next (command, store, stream), or else a string, "terminal" when `c` is
    terminal and otherwise the reason no rule applies."""
    c, ctx, store, stream, steps, reason = _run(c, store, stream, 1)
    if steps:
        return _plug(c, ctx), store, stream
    return "terminal" if reason is None else reason


def step(cfg: SmallConfig):
    """The next configuration, or None when terminal or stuck."""
    after = step_tuple(cfg.cmd, cfg.store, cfg.stream)
    return SmallConfig(*after) if type(after) is tuple else None


@dataclass(frozen=True)
class Trace:
    """A run of `run_star`: its first and last configurations, and the
    number of steps between them."""

    start: SmallConfig
    final: SmallConfig
    steps: int

    def replay(self) -> Iterator[SmallConfig]:
        """Every configuration of the run in order, `start` and `final`
        included: `steps + 1` of them, each made by `step` when it is due
        and not kept."""
        cur = self.start
        yield cur
        for _ in range(self.steps):
            cur = step(cur)
            yield cur

    @cached_property
    def configs(self) -> tuple[SmallConfig, ...]:
        """`replay` as a tuple, made on first use and kept."""
        return tuple(self.replay())


def run_star(cfg: SmallConfig, fuel: int) -> tuple[Verdict, Trace]:
    """Take at most `fuel` steps from `cfg` in one loop, building no
    configuration on the way; the last one is plugged at the end."""
    c, ctx, store, stream, steps, reason = _run(cfg.cmd, cfg.store, cfg.stream, fuel)
    if reason is not None:
        verdict = Stuck(reason)
    elif type(c) is Skip and not ctx:
        verdict = Converged(store)
    else:
        verdict = Unknown(steps)
    return verdict, Trace(cfg, SmallConfig(_plug(c, ctx), store, stream), steps)
