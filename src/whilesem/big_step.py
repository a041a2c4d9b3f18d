"""Inductive big-step evaluation.

`eval_big` computes the final store of a command, spending one unit of fuel
per command-rule application (expression evaluation is free: expressions
cannot loop).  Running out of fuel is a distinguishable result, as is a
stuck evaluation; throw and try/catch have no rules here by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .derivation import DerivTree, Recorder
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


class _OutOfGas(Exception):
    pass


class _Gas:
    __slots__ = ("left",)

    def __init__(self, amount: int):
        self.left = amount

    def tick(self) -> None:
        if self.left <= 0:
            raise _OutOfGas()
        self.left -= 1


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
    gas = _Gas(fuel)
    try:
        st, sm = _eval(c, store, stream, gas, recorder)
    except ExprStuck as ex:
        return Stuck(ex.reason)
    except _OutOfGas:
        return OutOfFuel()
    return Done(st, sm, fuel - gas.left)


def fuel_used(c: Cmd, store: Store, stream: InputStream, fuel: int) -> Optional[int]:
    """Fuel actually consumed by a converging run, or None otherwise."""
    r = eval_big(c, store, stream, fuel)
    return r.fuel_spent if isinstance(r, Done) else None


def _expr(e, store: Store, stream: InputStream, rec: Optional[Recorder]):
    """Evaluate an expression premise, recording it as an `expr` leaf."""
    v, stream2 = eval_expr(e, store, stream)
    if rec is not None:
        rec.leaf("expr", expr_rule_name(e), e, store, None, stream, (v, stream2))
    return v, stream2


def _eval(c, store, stream, gas, rec):
    opened: list[DerivTree] = []
    while True:
        node = rec.enter("big", c, store, None, stream) if rec is not None else None
        if node is not None:
            opened.append(node)
        gas.tick()
        t = type(c)
        if t is Seq:
            if node is not None:
                node.rule = "B-Seq"
            store, stream = _eval(c.first, store, stream, gas, rec)
            c = c.second
            continue
        if t is Assign:
            if c.x not in store:
                raise ExprStuck(f"assignment to unallocated variable {c.x}")
            v, stream2 = _expr(c.expr, store, stream, rec)
            if node is not None:
                node.rule = "B-Assign"
            result = (store.update(c.x, v), stream2)
            break
        if t is While:
            v, stream2 = _expr(c.guard, store, stream, rec)
            if not guard_nonzero(v):
                if node is not None:
                    node.rule = "B-WhileZ"
                result = (store, stream2)
                break
            if node is not None:
                node.rule = "B-While"
            store, stream = _eval(c.body, store, stream2, gas, rec)
            continue
        if t is If:
            v, stream2 = _expr(c.guard, store, stream, rec)
            taken = guard_nonzero(v)
            if node is not None:
                node.rule = "B-If" if taken else "B-IfZ"
            c = c.then if taken else c.orelse
            stream = stream2
            continue
        if t is Skip:
            if node is not None:
                node.rule = "B-Skip"
            result = (store, stream)
            break
        if t is Alloc:
            if c.x in store:
                raise ExprStuck(f"alloc of already-allocated variable {c.x}")
            if node is not None:
                node.rule = "B-Alloc"
            result = (store.update(c.x, NULL), stream)
            break
        if t is Throw:
            raise ExprStuck("no big-step rule for throw")
        if t is Catch:
            raise ExprStuck("no big-step rule for try/catch")
        raise TypeError(f"not a command: {c!r}")
    if rec is not None:
        for n in reversed(opened):
            rec.exit(n, result)
    return result
