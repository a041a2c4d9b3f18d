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

from .big_step import OutOfFuel, expr_rule_name
from .derivation import Recorder
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


def eval_expr_flag(
    e: Expr,
    store: Store,
    flag: Status,
    stream: InputStream,
    recorder: Optional[Recorder] = None,
) -> FlagEvalResult:
    """Expression rules never consume fuel (expressions cannot loop).  Under
    Down this is `eval_expr`; under an abort status the axioms pass the
    status on, reading nothing, and the value is null.  The judgment is one
    `flag-expr` leaf."""
    try:
        if type(flag) is Down:
            v, stream2 = eval_expr(e, store, stream)
            result = (v, DOWN, stream2)
        else:
            result = (NULL, flag, stream)
    except ExprStuck as ex:
        return Stuck(ex.reason)
    if recorder is not None:
        _leaf(recorder, e, store, flag, stream, result)
    return FlagResult(result[1], EMPTY_STORE, result[0], result[2])


def _leaf(rec: Recorder, e: Expr, store: Store, flag: Status, stream: InputStream, result: tuple) -> None:
    """Record the `flag-expr` leaf of `e` under `flag`."""
    rule = "F" + expr_rule_name(e) if type(flag) is Down else "FE-Div" if type(flag) is Up else "FE-Exc"
    rec.leaf("flag-expr", rule, e, store, flag, stream, result)


# Pushed above a handler on the continuation: the frame of a try/catch.
_CATCH = object()


def eval_flag(
    c: Cmd,
    store: Store,
    flag: Status,
    stream: InputStream,
    fuel: int,
    recorder: Optional[Recorder] = None,
) -> FlagEvalResult:
    """Evaluate `c` in one loop over an explicit continuation `k`, as
    `eval_big` does; a try/catch also pushes its handler, under `_CATCH`.
    A finished command pops the next frame with its status: an abort status
    passes over the popped command by the fuel-free `F-Div`/`F-Exc` axiom,
    and a handler frame catches an exception.

    The run writes its own copy of `store` in place, as `eval_big` does.  A
    throw hands that store to the exception and goes on with the empty
    store; a handler resumes on a copy of it, so no store is written once an
    exception holds it."""
    rec = recorder
    store = Store._adopt(store._map.copy())
    left = fuel
    k: list = []
    owners: list = []  # with a recorder: the open node that pushed each frame of `k`
    status = DOWN if type(flag) is Down else UP if type(flag) is Up else flag
    try:
        while True:
            if rec is not None:
                node = rec.enter("flag", c, store, status, stream)
            if status is not DOWN:
                # An abort status passes over `c` by axiom, without fuel.
                if rec is not None:
                    node.rule = "F-Div" if status is UP else "F-Exc"
                store = EMPTY_STORE
            else:
                if left <= 0:
                    return OutOfFuel()
                left -= 1
                t = type(c)
                if t is Seq:
                    if rec is not None:
                        node.rule = "F-Seq"
                        owners.append(node)
                    k.append(c.second)
                    c = c.first
                    continue
                if t is Assign:
                    if c.x not in store._map:
                        return Stuck(f"assignment to unallocated variable {c.x}")
                    v, stream2 = eval_expr(c.expr, store, stream)
                    if rec is not None:
                        _leaf(rec, c.expr, store, DOWN, stream, (v, DOWN, stream2))
                        node.rule = "F-Assign"
                    store._map[c.x] = v
                    stream = stream2
                elif t is While:
                    v, stream2 = eval_expr(c.guard, store, stream)
                    if rec is not None:
                        _leaf(rec, c.guard, store, DOWN, stream, (v, DOWN, stream2))
                    stream = stream2
                    if guard_nonzero(v):
                        if rec is not None:
                            node.rule = "F-While"
                            owners.append(node)
                        k.append(c)
                        c = c.body
                        continue
                    if rec is not None:
                        node.rule = "F-WhileZ"
                elif t is If:
                    v, stream2 = eval_expr(c.guard, store, stream)
                    if rec is not None:
                        _leaf(rec, c.guard, store, DOWN, stream, (v, DOWN, stream2))
                    stream = stream2
                    taken = guard_nonzero(v)
                    if rec is not None:
                        node.rule = "F-If" if taken else "F-IfZ"
                    c = c.then if taken else c.orelse
                    continue
                elif t is Skip:
                    if rec is not None:
                        node.rule = "F-Skip"
                elif t is Alloc:
                    if c.x in store._map:
                        return Stuck(f"alloc of already-allocated variable {c.x}")
                    if rec is not None:
                        node.rule = "F-Alloc"
                    store._map[c.x] = NULL
                elif t is Throw:
                    if rec is not None:
                        node.rule = "F-Throw"
                    status = Exc(c.value, store)
                    store = EMPTY_STORE
                elif t is Catch:
                    if rec is not None:
                        owners.append(node)
                    k.append(c.handler)
                    k.append(_CATCH)
                    c = c.body
                    continue
                else:
                    raise TypeError(f"not a command: {c!r}")
            # `c` has finished: its judgment and those it continues end
            # here.  Pop frames until one has a command to run.
            while True:
                if rec is not None:
                    owner = owners.pop() if k else None
                    rec.exit_to(owner, (status, store, stream))
                if not k:
                    return FlagResult(status, store, None, stream, fuel - left)
                c = k.pop()
                if c is not _CATCH:
                    break
                handler = k.pop()
                if type(status) is Exc:
                    if rec is not None:
                        owner.rule = "F-Catch-Some"
                    c, store, status = handler, Store._adopt(status.at._map.copy()), DOWN
                    break
                if rec is not None:
                    owner.rule = "F-Catch"
    except ExprStuck as ex:
        return Stuck(ex.reason)


def flag_fuel_used(c: Cmd, store: Store, flag: Status, stream: InputStream, fuel: int) -> Optional[int]:
    """Fuel actually consumed by a non-stuck, in-fuel run, or None."""
    r = eval_flag(c, store, flag, stream, fuel)
    return r.fuel_spent if isinstance(r, FlagResult) else None
