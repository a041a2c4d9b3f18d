"""Inductive big-step evaluation.

`eval_big` computes the final store of a command, spending one unit of fuel
per command-rule application (expression evaluation is free: expressions
cannot loop).  Running out of fuel is a distinguishable result, as is a
stuck evaluation; throw and try/catch have no rules here by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .derivation import Recorder
from .small_step import ExprStuck, eval_expr, guard_nonzero
from .syntax import (
    Alloc,
    Assign,
    Bop,
    Catch,
    Cmd,
    If,
    Input,
    InputStream,
    Lit,
    NULL,
    Seq,
    Skip,
    Store,
    Stuck,
    Throw,
    Var,
    While,
)


@dataclass(frozen=True)
class Done:
    store: Store
    stream: InputStream
    fuel_spent: int = field(default=0, compare=False)


@dataclass(frozen=True)
class OutOfFuel:
    """The fuel ran out; the result of all three big-step evaluators."""


BigResult = Done | Stuck | OutOfFuel


def expr_rule_name(e) -> str:
    if isinstance(e, Lit):
        return "E-Val"
    if isinstance(e, Var):
        return "E-Var"
    if isinstance(e, Input):
        return "E-Input"
    if isinstance(e, Bop):
        return "E-Bop"
    raise TypeError(f"not an expression: {e!r}")


def eval_big(
    c: Cmd,
    store: Store,
    stream: InputStream,
    fuel: int,
    recorder: Optional[Recorder] = None,
) -> BigResult:
    """Evaluate `c` in one loop over an explicit continuation `k`: the
    commands still to run after the focused one, innermost last.  A
    sequence pushes its second command and a taken `while` pushes itself;
    a finished command pops the next one.  Each rule application ticks the
    fuel before its premises run.

    The run writes its own copy of `store` in place, recorded or not; a
    recorder keeps a snapshot of each store it records."""
    rec = recorder
    store = Store._adopt(store._map.copy())
    left = fuel
    k: list = []
    owners: list = []  # with a recorder: the open node that pushed each entry of `k`
    try:
        while True:
            if rec is not None:
                node = rec.enter("big", c, store, None, stream)
            if left <= 0:
                return OutOfFuel()
            left -= 1
            t = type(c)
            if t is Seq:
                if rec is not None:
                    node.rule = "B-Seq"
                    owners.append(node)
                k.append(c.second)
                c = c.first
                continue
            if t is Assign:
                if c.x not in store._map:
                    return Stuck(f"assignment to unallocated variable {c.x}")
                v, stream2 = eval_expr(c.expr, store, stream)
                if rec is not None:
                    rec.leaf("expr", expr_rule_name(c.expr), c.expr, store, None, stream, (v, stream2))
                    node.rule = "B-Assign"
                store._map[c.x] = v
                stream = stream2
            elif t is While:
                v, stream2 = eval_expr(c.guard, store, stream)
                if rec is not None:
                    rec.leaf("expr", expr_rule_name(c.guard), c.guard, store, None, stream, (v, stream2))
                stream = stream2
                if guard_nonzero(v):
                    if rec is not None:
                        node.rule = "B-While"
                        owners.append(node)
                    k.append(c)
                    c = c.body
                    continue
                if rec is not None:
                    node.rule = "B-WhileZ"
            elif t is If:
                v, stream2 = eval_expr(c.guard, store, stream)
                if rec is not None:
                    rec.leaf("expr", expr_rule_name(c.guard), c.guard, store, None, stream, (v, stream2))
                stream = stream2
                taken = guard_nonzero(v)
                if rec is not None:
                    node.rule = "B-If" if taken else "B-IfZ"
                c = c.then if taken else c.orelse
                continue
            elif t is Skip:
                if rec is not None:
                    node.rule = "B-Skip"
            elif t is Alloc:
                if c.x in store._map:
                    return Stuck(f"alloc of already-allocated variable {c.x}")
                if rec is not None:
                    node.rule = "B-Alloc"
                store._map[c.x] = NULL
            elif t is Throw:
                return Stuck("no big-step rule for throw")
            elif t is Catch:
                return Stuck("no big-step rule for try/catch")
            else:
                raise TypeError(f"not a command: {c!r}")
            # `c` has finished: its judgment and those it continues end here.
            if rec is not None:
                rec.exit_to(owners.pop() if k else None, (store, stream))
            if not k:
                return Done(store, stream, fuel - left)
            c = k.pop()
    except ExprStuck as ex:
        return Stuck(ex.reason)


def fuel_used(c: Cmd, store: Store, stream: InputStream, fuel: int) -> Optional[int]:
    """Fuel actually consumed by a converging run, or None otherwise."""
    r = eval_big(c, store, stream, fuel)
    return r.fuel_spent if isinstance(r, Done) else None
