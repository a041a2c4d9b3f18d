"""Pretty-big-step evaluation.

The judgment subject is a semantic command: either a plain command or one of
the intermediate forms (assign2, seq2, if2, while2, while3) that hold the
result of an already-evaluated premise.  Divergence appears as the outcome
`div`, which the abort rules for seq2/while3 propagate; the inductive
evaluator here can only ever produce `conv` outcomes (injected `div`
arguments are consumed by the abort rules, never created).

Fuel is one unit per rule application, so elaborated forms cost extra ticks
compared to plain big-step evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .big_step import OutOfFuel, _expr, _Gas, _OutOfGas, _StuckEval
from .derivation import DerivTree, Recorder
from .small_step import ExprStuck, guard_nonzero
from .syntax import (
    Alloc,
    Assign,
    Assign2,
    Catch,
    ConvO,
    DIV,
    DivO,
    If,
    If2,
    InputStream,
    NULL,
    Outcome,
    Plain,
    SemCmd,
    Seq,
    Seq2,
    Skip,
    Store,
    Stuck,
    Throw,
    While,
    While2,
    While3,
)


@dataclass(frozen=True)
class DoneP:
    outcome: Outcome
    stream: InputStream
    fuel_spent: int = field(default=0, compare=False)


# The benchmark's tracer (bench/spans.py) imports this name.
OutOfFuelP = OutOfFuel

PrettyResult = Union[DoneP, Stuck, OutOfFuel]


def eval_pretty(
    sc: SemCmd,
    store: Store,
    stream: InputStream,
    fuel: int,
    recorder: Optional[Recorder] = None,
) -> PrettyResult:
    gas = _Gas(fuel)
    try:
        outcome, sm = _eval(sc, store, stream, gas, recorder)
    except _StuckEval as ex:
        return Stuck(ex.reason)
    except _OutOfGas:
        return OutOfFuel()
    return DoneP(outcome, sm, fuel - gas.left)


def _eval(sc, store, stream, gas, rec):
    opened: list[DerivTree] = []
    while True:
        node = rec.enter("pretty", sc, store, None, stream) if rec is not None else None
        if node is not None:
            opened.append(node)
        gas.tick()
        if isinstance(sc, Plain):
            c = sc.cmd
            if isinstance(c, Seq):
                if node is not None:
                    node.rule = "P-Seq1"
                o1, stream = _eval(Plain(c.first), store, stream, gas, rec)
                sc = Seq2(o1, c.second)
                continue
            if isinstance(c, Assign):
                v, stream = _expr(c.expr, store, stream, rec)
                if node is not None:
                    node.rule = "P-Assign1"
                sc = Assign2(c.x, v)
                continue
            if isinstance(c, While):
                v, stream = _expr(c.guard, store, stream, rec)
                if node is not None:
                    node.rule = "P-While"
                sc = While2(v, c.guard, c.body)
                continue
            if isinstance(c, If):
                v, stream = _expr(c.guard, store, stream, rec)
                if node is not None:
                    node.rule = "P-If"
                sc = If2(v, c.then, c.orelse)
                continue
            if isinstance(c, Skip):
                if node is not None:
                    node.rule = "P-Skip"
                result = (ConvO(store), stream)
                break
            if isinstance(c, Alloc):
                if c.x in store:
                    raise _StuckEval(f"alloc of already-allocated variable {c.x}")
                if node is not None:
                    node.rule = "P-Alloc"
                result = (ConvO(store.update(c.x, NULL)), stream)
                break
            if isinstance(c, Throw):
                raise _StuckEval("no pretty-big-step rule for throw")
            if isinstance(c, Catch):
                raise _StuckEval("no pretty-big-step rule for try/catch")
            raise TypeError(f"not a command: {c!r}")
        if isinstance(sc, Seq2):
            if isinstance(sc.outcome, DivO):
                if node is not None:
                    node.rule = "P-Seq-Abort"
                result = (DIV, stream)
                break
            if node is not None:
                node.rule = "P-Seq2"
            store = sc.outcome.store
            sc = Plain(sc.rest)
            continue
        if isinstance(sc, Assign2):
            if sc.x not in store:
                raise _StuckEval(f"assignment to unallocated variable {sc.x}")
            if node is not None:
                node.rule = "P-Assign2"
            result = (ConvO(store.update(sc.x, sc.value)), stream)
            break
        if isinstance(sc, If2):
            try:
                taken = guard_nonzero(sc.value)
            except ExprStuck as ex:
                raise _StuckEval(ex.reason) from None
            if node is not None:
                node.rule = "P-If2" if taken else "P-IfZ2"
            sc = Plain(sc.then if taken else sc.orelse)
            continue
        if isinstance(sc, While2):
            try:
                taken = guard_nonzero(sc.value)
            except ExprStuck as ex:
                raise _StuckEval(ex.reason) from None
            if not taken:
                if node is not None:
                    node.rule = "P-WhileZ2"
                result = (ConvO(store), stream)
                break
            if node is not None:
                node.rule = "P-While2"
            o, stream = _eval(Plain(sc.body), store, stream, gas, rec)
            sc = While3(o, sc.guard, sc.body)
            continue
        if isinstance(sc, While3):
            if isinstance(sc.outcome, DivO):
                if node is not None:
                    node.rule = "P-While-Abort"
                result = (DIV, stream)
                break
            if node is not None:
                node.rule = "P-While3"
            store = sc.outcome.store
            sc = Plain(While(sc.guard, sc.body))
            continue
        raise TypeError(f"not a semantic command: {sc!r}")
    if rec is not None:
        for n in reversed(opened):
            rec.exit(n, result)
    return result
