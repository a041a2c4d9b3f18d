"""Flag-based big-step evaluation with divergence flags, exceptions, input.

Every judgment carries a status before and after evaluation: Down for
normal control, Up for "this computation diverges", and Exc for an uncaught
exception (recording both the thrown value and the store at the throw, which
is where a handler resumes).  Abort statuses propagate through the axioms
for commands and expressions evaluated "under" them; those axioms cost no
fuel, so unreachable continuations are free.

Results carry canonical sentinels: when the status is Up or Exc the store
component is the empty store, and expression values under an abort status
are null.  Equality on FlagResult is therefore plain structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .big_step import OutOfFuel, _Gas, _OutOfGas, _StuckEval
from .derivation import DerivTree, Recorder
from .small_step import ExprStuck, apply_bop, guard_nonzero
from .syntax import (
    Alloc,
    Assign,
    Bop,
    Catch,
    Cmd,
    DOWN,
    Down,
    EMPTY_STORE,
    Exc,
    Expr,
    If,
    Input,
    InputStream,
    Lit,
    NULL,
    Seq,
    Skip,
    Status,
    Store,
    Stuck,
    Throw,
    UP,
    Up,
    Val,
    Var,
    While,
)


@dataclass(frozen=True)
class FlagResult:
    """Result of a flag-based judgment.

    `value` is set for expression judgments only.  When `status` is not
    Down, `store` is the empty sentinel and `value` (if any) is null.
    `fuel_spent` is the fuel a command judgment consumed (expressions
    consume none); it does not take part in equality.
    """

    status: Status
    store: Store
    value: Optional[Val]
    stream: InputStream
    fuel_spent: int = field(default=0, compare=False)


# The benchmark's tracer (bench/spans.py) imports this name.
OutOfFuelF = OutOfFuel

FlagEvalResult = Union[FlagResult, Stuck, OutOfFuel]


def _expr_rule_name(e: Expr, flag: Status) -> str:
    if isinstance(flag, Up):
        return "FE-Div"
    if isinstance(flag, Exc):
        return "FE-Exc"
    if isinstance(e, Lit):
        return "FE-Val"
    if isinstance(e, Var):
        return "FE-Var"
    if isinstance(e, Input):
        return "FE-Input"
    return "FE-Bop"


def _expr_flag(e, store, flag, stream, rec):
    """Returns (value, status, stream); value is the null sentinel whenever
    the resulting status is not Down."""
    if not isinstance(flag, Down):
        result = (NULL, flag, stream)
    elif isinstance(e, Lit):
        result = (e.value, DOWN, stream)
    elif isinstance(e, Var):
        v = store.get(e.name)
        if v is None:
            raise _StuckEval(f"unbound variable {e.name}")
        result = (v, DOWN, stream)
    elif isinstance(e, Input):
        popped = stream.pop()
        if popped is None:
            raise _StuckEval("input exhausted")
        result = (popped[0], DOWN, popped[1])
    elif isinstance(e, Bop):
        v1, d1, stream1 = _expr_flag(e.left, store, DOWN, stream, rec)
        v2, d2, stream2 = _expr_flag(e.right, store, d1, stream1, rec)
        if not isinstance(d2, Down):
            result = (NULL, d2, stream2)
        else:
            try:
                result = (apply_bop(e.op, v1, v2), DOWN, stream2)
            except ExprStuck as ex:
                raise _StuckEval(ex.reason) from None
    else:
        raise TypeError(f"not an expression: {e!r}")
    if rec is not None:
        rec.leaf("flag-expr", _expr_rule_name(e, flag), e, store, flag, stream, result)
    return result


def eval_expr_flag(
    e: Expr,
    store: Store,
    flag: Status,
    stream: InputStream,
    recorder: Optional[Recorder] = None,
) -> FlagEvalResult:
    """Expression rules never consume fuel (expressions cannot loop)."""
    try:
        v, status, sm = _expr_flag(e, store, flag, stream, recorder)
    except _StuckEval as ex:
        return Stuck(ex.reason)
    return FlagResult(status, EMPTY_STORE, v, sm)


def eval_flag(
    c: Cmd,
    store: Store,
    flag: Status,
    stream: InputStream,
    fuel: int,
    recorder: Optional[Recorder] = None,
) -> FlagEvalResult:
    gas = _Gas(fuel)
    try:
        status, st, sm = _flag(c, store, flag, stream, gas, recorder)
    except _StuckEval as ex:
        return Stuck(ex.reason)
    except _OutOfGas:
        return OutOfFuel()
    return FlagResult(status, st, None, sm, fuel - gas.left)


def flag_fuel_used(c: Cmd, store: Store, flag: Status, stream: InputStream, fuel: int) -> Optional[int]:
    """Fuel actually consumed by a non-stuck, in-fuel run, or None."""
    r = eval_flag(c, store, flag, stream, fuel)
    return r.fuel_spent if isinstance(r, FlagResult) else None


def _flag(c, store, flag, stream, gas, rec):
    opened: list[DerivTree] = []
    while True:
        node = rec.enter("flag", c, store, flag, stream) if rec is not None else None
        if node is not None:
            opened.append(node)
        # Abort statuses propagate by axiom, without spending fuel.
        if isinstance(flag, Up):
            if node is not None:
                node.rule = "F-Div"
            result = (UP, EMPTY_STORE, stream)
            break
        if isinstance(flag, Exc):
            if node is not None:
                node.rule = "F-Exc"
            result = (flag, EMPTY_STORE, stream)
            break
        gas.tick()
        if isinstance(c, Seq):
            if node is not None:
                node.rule = "F-Seq"
            flag, store, stream = _flag(c.first, store, DOWN, stream, gas, rec)
            c = c.second
            continue
        if isinstance(c, Assign):
            if c.x not in store:
                raise _StuckEval(f"assignment to unallocated variable {c.x}")
            v, d, stream2 = _expr_flag(c.expr, store, DOWN, stream, rec)
            if node is not None:
                node.rule = "F-Assign"
            if isinstance(d, Down):
                result = (DOWN, store.update(c.x, v), stream2)
            else:
                result = (d, EMPTY_STORE, stream2)
            break
        if isinstance(c, While):
            v, d, stream2 = _expr_flag(c.guard, store, DOWN, stream, rec)
            try:
                taken = guard_nonzero(v)
            except ExprStuck as ex:
                raise _StuckEval(ex.reason) from None
            if not taken:
                if node is not None:
                    node.rule = "F-WhileZ"
                result = (d, store, stream2)
                break
            if node is not None:
                node.rule = "F-While"
            flag, store, stream = _flag(c.body, store, d, stream2, gas, rec)
            continue
        if isinstance(c, If):
            v, d, stream2 = _expr_flag(c.guard, store, DOWN, stream, rec)
            try:
                taken = guard_nonzero(v)
            except ExprStuck as ex:
                raise _StuckEval(ex.reason) from None
            if node is not None:
                node.rule = "F-If" if taken else "F-IfZ"
            c = c.then if taken else c.orelse
            flag = d
            stream = stream2
            continue
        if isinstance(c, Skip):
            if node is not None:
                node.rule = "F-Skip"
            result = (DOWN, store, stream)
            break
        if isinstance(c, Alloc):
            if c.x in store:
                raise _StuckEval(f"alloc of already-allocated variable {c.x}")
            if node is not None:
                node.rule = "F-Alloc"
            result = (DOWN, store.update(c.x, NULL), stream)
            break
        if isinstance(c, Throw):
            if node is not None:
                node.rule = "F-Throw"
            result = (Exc(c.value, store), EMPTY_STORE, stream)
            break
        if isinstance(c, Catch):
            d1, s1, m1 = _flag(c.body, store, DOWN, stream, gas, rec)
            if isinstance(d1, Exc):
                if node is not None:
                    node.rule = "F-Catch-Some"
                c = c.handler
                store = d1.at
                flag = DOWN
                stream = m1
                continue
            if node is not None:
                node.rule = "F-Catch"
            result = (d1, s1, m1)
            break
        raise TypeError(f"not a command: {c!r}")
    if rec is not None:
        for n in reversed(opened):
            rec.exit(n, result)
    return result
