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
from typing import Optional

from .big_step import OutOfFuel, expr_rule_name
from .derivation import Recorder
from .kernel import run_kernel
from .small_step import ExprStuck, eval_expr, guard_nonzero
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
    Lit,
    NULL,
    Nat,
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

PrettyResult = DoneP | Stuck | OutOfFuel

# The rules each construct costs a loop kernel (`kernel.run_kernel`): a
# sequence, an assignment and a conditional take two rules each (`P-Seq1`
# and `P-Seq2`, `P-Assign1` and `P-Assign2`, `P-If` and `P-If2` or
# `P-IfZ2`), `skip` one, and a taken iteration three loop rules (`P-While`,
# `P-While2` and `P-While3`).
KERNEL_COSTS = ((Seq, 2), (Assign, 2), (If, 2), (Skip, 1), (While, 3))


def eval_pretty(
    sc: SemCmd,
    store: Store,
    stream: InputStream,
    fuel: int,
    recorder: Optional[Recorder] = None,
) -> PrettyResult:
    """Evaluate `sc` in one loop over an explicit continuation `k`, as
    `eval_big` does.  A plain command's first rule and, for assignments,
    conditionals and loops, the second-stage rule on its premise's value
    run in one pass; the second stage of a sequence (`P-Seq2`) or a loop
    (`P-While3`) is the tick taken when its frame is popped.  Only a
    recorder sees the intermediate terms; the outcome is built on exit.

    The run writes its own copy of its starting store in place, as
    `eval_big` does; a recorded `P-Seq2` or `P-While3` node holds the
    recorder's snapshot of the outcome it continues from."""
    rec = recorder
    left = fuel
    k: list = []
    last_loop = None  # the loop whose head this run last passed with a true guard
    declined = None  # that loop, once its kernel ran no iteration at a head of this entry
    owners: list = []  # with a recorder: the open node that pushed each entry of `k`
    staged = False  # the first pass starts at a second stage, on the value `v`
    try:
        ts = type(sc)
        if ts is Plain:
            c = sc.cmd
        elif ts is Seq2 or ts is While3:
            if rec is not None:
                node = rec.enter("pretty", sc, store, None, stream)
            if left <= 0:
                return OutOfFuel()
            left -= 1
            if type(sc.outcome) is DivO:
                if rec is not None:
                    node.rule = "P-Seq-Abort" if ts is Seq2 else "P-While-Abort"
                    rec.exit_to(None, (DIV, stream))
                return DoneP(DIV, stream, fuel - left)
            if rec is not None:
                node.rule = "P-Seq2" if ts is Seq2 else "P-While3"
            store = sc.outcome.store
            c = sc.rest if ts is Seq2 else While(sc.guard, sc.body)
        elif ts is Assign2:
            c, v, staged = Assign(sc.x, Lit(sc.value)), sc.value, True
        elif ts is If2:
            c, v, staged = If(Lit(sc.value), sc.then, sc.orelse), sc.value, True
        elif ts is While2:
            c, v, staged = While(sc.guard, sc.body), sc.value, True
        else:
            raise TypeError(f"not a semantic command: {sc!r}")
        store = Store._adopt(store._map.copy())
        while True:
            t = type(c)
            if staged:
                staged = False
            else:
                if rec is not None:
                    node = rec.enter("pretty", Plain(c), store, None, stream)
                if left <= 0:
                    return OutOfFuel()
                left -= 1
                if t is Seq:
                    if rec is not None:
                        node.rule = "P-Seq1"
                        owners.append(node)
                    k.append(c.second)
                    c = c.first
                    continue
                if t is Assign:
                    v, stream2 = eval_expr(c.expr, store, stream)
                    if rec is not None:
                        rec.leaf("expr", expr_rule_name(c.expr), c.expr, store, None, stream, (v, stream2))
                        node.rule = "P-Assign1"
                    stream = stream2
                elif t is While or t is If:
                    v, stream2 = eval_expr(c.guard, store, stream)
                    if rec is not None:
                        rec.leaf("expr", expr_rule_name(c.guard), c.guard, store, None, stream, (v, stream2))
                        node.rule = "P-While" if t is While else "P-If"
                    stream = stream2
                    if t is While and type(v) is Nat and v.n:
                        if c is not last_loop:
                            last_loop, declined = c, None
                        elif c is not declined and rec is None:
                            # Back at this loop's head, its guard a nonzero
                            # natural: whole iterations from here, its
                            # `P-While` refunded; if any ran, resume at the
                            # next head, and if none, ask no more until the
                            # loop is entered anew.
                            resumed = run_kernel(c, store._map, left + 1, KERNEL_COSTS)
                            if resumed is None:
                                declined = c
                            else:
                                left = resumed
                                continue
                elif t is Skip:
                    if rec is not None:
                        node.rule = "P-Skip"
                elif t is Alloc:
                    if c.x in store._map:
                        return Stuck(f"alloc of already-allocated variable {c.x}")
                    if rec is not None:
                        node.rule = "P-Alloc"
                    store._map[c.x] = NULL
                elif t is Throw:
                    return Stuck("no pretty-big-step rule for throw")
                elif t is Catch:
                    return Stuck("no pretty-big-step rule for try/catch")
                else:
                    raise TypeError(f"not a command: {c!r}")
            if t is not Skip and t is not Alloc:
                # The second stage, on the value `v` of the first premise.
                if rec is not None:
                    sub = (
                        Assign2(c.x, v) if t is Assign
                        else While2(v, c.guard, c.body) if t is While
                        else If2(v, c.then, c.orelse)
                    )
                    node = rec.enter("pretty", sub, store, None, stream)
                if left <= 0:
                    return OutOfFuel()
                left -= 1
                if t is Assign:
                    if c.x not in store._map:
                        return Stuck(f"assignment to unallocated variable {c.x}")
                    if rec is not None:
                        node.rule = "P-Assign2"
                    store._map[c.x] = v
                elif t is While:
                    if guard_nonzero(v):
                        if rec is not None:
                            node.rule = "P-While2"
                            owners.append(node)
                        k.append(c)
                        c = c.body
                        continue
                    if rec is not None:
                        node.rule = "P-WhileZ2"
                else:
                    taken = guard_nonzero(v)
                    if rec is not None:
                        node.rule = "P-If2" if taken else "P-IfZ2"
                    c = c.then if taken else c.orelse
                    continue
            # `c` has finished with a `conv` outcome: its judgment and those
            # it continues end here.
            if rec is not None:
                owner = owners.pop() if k else None
                o = rec.exit_to(owner, (ConvO(store), stream))[0]
            if not k:
                return DoneP(ConvO(store), stream, fuel - left)
            c = k.pop()
            # The popped frame's second stage: `P-Seq2` or `P-While3`.
            if rec is not None:
                s = owner.subject
                sub = Seq2(o, c) if type(s) is Plain else While3(o, s.guard, s.body)
                node = rec.enter("pretty", sub, owner.store, None, stream)
            if left <= 0:
                return OutOfFuel()
            left -= 1
            if rec is not None:
                node.rule = "P-Seq2" if type(s) is Plain else "P-While3"
    except ExprStuck as ex:
        return Stuck(ex.reason)
