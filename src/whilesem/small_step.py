"""Small-step transition semantics and bounded execution.

One configuration is a command plus a store plus the input stream; `step`
computes the unique next configuration or None when the configuration is
terminal (`skip`) or stuck.  `run_star` takes the same steps under a fuel
bound, without building the configurations in between, and returns a
normalized verdict with a `Trace` that replays them on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


# The slotted classes that `term_class` retags as Nat and Seq.
_NatSlots = Nat.__base__
_SeqSlots = Seq.__base__
_new = object.__new__


class ExprStuck(Exception):
    """No rule applies, and why.  Raised by expression evaluation, the guard
    test and the small-step contraction; the evaluators turn it into a
    `Stuck` result with the same reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def apply_bop(op: str, a: Val, b: Val) -> Val:
    """Binary arithmetic on naturals; `-` is truncated at zero."""
    if type(a) is Nat and type(b) is Nat:
        if op == "+":
            n = a.n + b.n
        elif op == "-":
            n = a.n - b.n if a.n > b.n else 0
        else:
            n = a.n * b.n
        v = _new(_NatSlots)  # `n` is non-negative: skip Nat's check
        v.n = n
        v.__class__ = Nat
        return v
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
            vals[-1] = apply_bop(e, vals[-1], v2)
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

    def terminal(self) -> bool:
        return type(self.cmd) is Skip


_SKIP = Skip()


def _contract(c, store: Store, stream: InputStream, ctx: list):
    """One transition of the focused command `c`: the (command, store,
    stream) that replace it, or None when `c` is terminal.  ExprStuck, with
    the reason, when no rule applies.

    `c` is never a sequence.  `ctx` is its evaluation context, the second
    commands of the sequences whose left spine leads down to `c`, innermost
    last.  Two rules change the context: `skip; c2` steps to `c2`, which is
    popped from it, and a taken `while` pushes itself, to run again after
    its body.  These are all the transition rules; `step`, `run_star` and
    `stuck_reason` all take their steps here.
    """
    t = type(c)
    if t is Skip:
        return (ctx.pop(), store, stream) if ctx else None
    if t is Assign:
        if c.x not in store._map:
            raise ExprStuck(f"assignment to unallocated variable {c.x}")
        v, stream = eval_expr(c.expr, store, stream)
        return _SKIP, store.update(c.x, v), stream
    if t is While or t is If:
        v, stream = eval_expr(c.guard, store, stream)
        taken = guard_nonzero(v)
        if t is If:
            return (c.then if taken else c.orelse), store, stream
        if not taken:
            return _SKIP, store, stream
        ctx.append(c)
        return c.body, store, stream
    if t is Alloc:
        if c.x in store._map:
            raise ExprStuck(f"alloc of already-allocated variable {c.x}")
        return _SKIP, store.update(c.x, NULL), stream
    raise ExprStuck(f"no transition rule for {'try/catch' if t is Catch else 'throw'}")


def _decompose(c):
    """The focus at the bottom of `c`'s left spine, and its context."""
    ctx = []
    while type(c) is Seq:
        ctx.append(c.second)
        c = c.first
    return c, ctx


def step(cfg: SmallConfig):
    """The next configuration, or None when terminal or stuck.

    The command's left spine is walked in a loop onto a context, its bottom
    contracted, and the spine rebuilt around the result, so nesting depth
    never meets the recursion limit.
    """
    c, ctx = _decompose(cfg.cmd)
    try:
        nxt = _contract(c, cfg.store, cfg.stream, ctx)
    except ExprStuck:
        return None
    if nxt is None:
        return None
    c, store, stream = nxt
    for second in reversed(ctx):
        s = _new(_SeqSlots)  # `Seq(c, second)`, without its constructor call
        s.first = c
        s.second = second
        s.__class__ = Seq
        c = s
    return SmallConfig(c, store, stream)


def stuck_reason(cfg: SmallConfig) -> str:
    """Explain why `step` returned None for a configuration: "terminal", or
    the reason no rule applies ("unknown" when one does)."""
    c, ctx = _decompose(cfg.cmd)
    try:
        nxt = _contract(c, cfg.store, cfg.stream, ctx)
    except ExprStuck as ex:
        return ex.reason
    return "terminal" if nxt is None else "unknown"


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
    """Take at most `fuel` steps from `cfg`.

    The run is refocused: the command is decomposed into a focus and its
    context once, and after each contraction only the command that replaced
    the focus is decomposed, so a step costs O(1) amortised at any nesting
    depth.  No configuration is built on the way; the last one is plugged
    at the end.
    """
    c, store, stream = cfg.cmd, cfg.store, cfg.stream
    ctx: list = []
    steps = 0
    try:
        while True:
            while type(c) is Seq:
                ctx.append(c.second)
                c = c.first
            if steps >= fuel:
                break
            nxt = _contract(c, store, stream, ctx)
            if nxt is None:
                break
            c, store, stream = nxt
            steps += 1
        verdict = Converged(store) if type(c) is Skip and not ctx else Unknown(steps)
    except ExprStuck as ex:
        verdict = Stuck(ex.reason)
    for second in reversed(ctx):
        c = Seq(c, second)
    return verdict, Trace(cfg, SmallConfig(c, store, stream), steps)
