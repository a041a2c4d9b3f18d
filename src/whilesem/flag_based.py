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
from typing import Optional

from .big_step import OutOfFuel, _Gas, _OutOfGas, expr_rule_name
from .derivation import DerivTree, Recorder
from .small_step import ExprStuck, eval_expr, guard_nonzero
from .syntax import (
    Alloc,
    Assign,
    Catch,
    Cmd,
    DOWN,
    Down,
    EMPTY_STORE,
    Exc,
    Expr,
    If,
    InputStream,
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

FlagEvalResult = FlagResult | Stuck | OutOfFuel


def _expr_rule_name(e: Expr, flag: Status) -> str:
    if isinstance(flag, Up):
        return "FE-Div"
    if isinstance(flag, Exc):
        return "FE-Exc"
    return "F" + expr_rule_name(e)


def _expr_flag(e, store, flag, stream, rec):
    """Returns (value, status, stream); value is the null sentinel whenever
    the resulting status is not Down.  Under Down this is `eval_expr`;
    under an abort status the axioms pass the status on, reading nothing.
    One expression premise is one `flag-expr` leaf."""
    if type(flag) is Down:
        v, stream2 = eval_expr(e, store, stream)
        result = (v, DOWN, stream2)
    else:
        result = (NULL, flag, stream)
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
    except ExprStuck as ex:
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
    except ExprStuck as ex:
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
        if type(flag) is Up:
            if node is not None:
                node.rule = "F-Div"
            result = (UP, EMPTY_STORE, stream)
            break
        if type(flag) is Exc:
            if node is not None:
                node.rule = "F-Exc"
            result = (flag, EMPTY_STORE, stream)
            break
        gas.tick()
        t = type(c)
        if t is Seq:
            if node is not None:
                node.rule = "F-Seq"
            flag, store, stream = _flag(c.first, store, DOWN, stream, gas, rec)
            c = c.second
            continue
        if t is Assign:
            if c.x not in store:
                raise ExprStuck(f"assignment to unallocated variable {c.x}")
            v, d, stream2 = _expr_flag(c.expr, store, DOWN, stream, rec)
            if node is not None:
                node.rule = "F-Assign"
            if type(d) is Down:
                result = (DOWN, store.update(c.x, v), stream2)
            else:
                result = (d, EMPTY_STORE, stream2)
            break
        if t is While:
            v, d, stream2 = _expr_flag(c.guard, store, DOWN, stream, rec)
            if not guard_nonzero(v):
                if node is not None:
                    node.rule = "F-WhileZ"
                result = (d, store, stream2)
                break
            if node is not None:
                node.rule = "F-While"
            flag, store, stream = _flag(c.body, store, d, stream2, gas, rec)
            continue
        if t is If:
            v, d, stream2 = _expr_flag(c.guard, store, DOWN, stream, rec)
            taken = guard_nonzero(v)
            if node is not None:
                node.rule = "F-If" if taken else "F-IfZ"
            c = c.then if taken else c.orelse
            flag = d
            stream = stream2
            continue
        if t is Skip:
            if node is not None:
                node.rule = "F-Skip"
            result = (DOWN, store, stream)
            break
        if t is Alloc:
            if c.x in store:
                raise ExprStuck(f"alloc of already-allocated variable {c.x}")
            if node is not None:
                node.rule = "F-Alloc"
            result = (DOWN, store.update(c.x, NULL), stream)
            break
        if t is Throw:
            if node is not None:
                node.rule = "F-Throw"
            result = (Exc(c.value, store), EMPTY_STORE, stream)
            break
        if t is Catch:
            d1, s1, m1 = _flag(c.body, store, DOWN, stream, gas, rec)
            if type(d1) is Exc:
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
