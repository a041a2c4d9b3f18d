"""Small-step transition semantics and bounded execution.

One configuration is a command plus a store plus the input stream; `step`
computes the unique next configuration or None when the configuration is
terminal (`skip`) or stuck.  `run_star` iterates `step` under a fuel bound
and returns a normalized verdict together with the whole trace.
"""

from __future__ import annotations

from dataclasses import dataclass

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


_NatSlots = Nat.__base__  # the slotted class that `term_class` retags as Nat
_new_nat = object.__new__


class ExprStuck(Exception):
    """No rule applies.  Raised by expression evaluation and the guard test,
    and by the three big-step evaluators for commands too; their entry
    points turn it into a `Stuck` result with the same reason."""

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
        v = _new_nat(_NatSlots)  # `n` is non-negative: skip Nat's check
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


def eval_expr(e, store: Store, stream: InputStream) -> tuple[Val, InputStream]:
    """Evaluate `e`, threading the input stream left to right.

    Raises ExprStuck on an unbound variable, a null operand, or an exhausted
    input stream.  Variables are read from the store's map, and operands
    that are variables or literals are evaluated in place.
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
        else:
            v1, stream = eval_expr(left, store, stream)
        t = type(right)
        if t is Var:
            v2 = store._map.get(right.name)
            if v2 is None:
                raise ExprStuck(f"unbound variable {right.name}")
        elif t is Lit:
            v2 = right.value
        else:
            v2, stream = eval_expr(right, store, stream)
        return apply_bop(e.op, v1, v2), stream
    if t is Input:
        popped = stream.pop()
        if popped is None:
            raise ExprStuck("input exhausted")
        return popped
    raise TypeError(f"not an expression: {e!r}")


@term_class
class SmallConfig:
    cmd: Cmd
    store: Store
    stream: InputStream = InputStream()

    def terminal(self) -> bool:
        return type(self.cmd) is Skip


_SKIP = Skip()


def step(cfg: SmallConfig):
    """The next configuration, or None when terminal or stuck.

    The redex of a sequence sits at the bottom of its left spine.  The spine
    is walked in a loop, the redex stepped, and the spine rebuilt around the
    result, so nesting depth never meets the recursion limit.
    """
    c, store, stream = cfg.cmd, cfg.store, cfg.stream
    seconds = []
    while type(c) is Seq and type(c.first) is not Skip:
        seconds.append(c.second)
        c = c.first
    t = type(c)
    if t is Seq:
        c = c.second
    elif t is Assign:
        if c.x not in store:
            return None
        try:
            v, stream = eval_expr(c.expr, store, stream)
        except ExprStuck:
            return None
        c, store = _SKIP, store.update(c.x, v)
    elif t is While or t is If:
        try:
            v, stream = eval_expr(c.guard, store, stream)
            taken = guard_nonzero(v)
        except ExprStuck:
            return None
        if t is If:
            c = c.then if taken else c.orelse
        else:
            c = Seq(c.body, c) if taken else _SKIP
    elif t is Alloc:
        if c.x in store:
            return None
        c, store = _SKIP, store.update(c.x, NULL)
    else:
        return None  # Skip, Throw, Catch
    for second in reversed(seconds):
        c = Seq(c, second)
    return SmallConfig(c, store, stream)


def stuck_reason(cfg: SmallConfig) -> str:
    """Explain why `step` returned None for a non-terminal configuration."""
    c, store, stream = cfg.cmd, cfg.store, cfg.stream
    while isinstance(c, Seq):
        c = c.first
    if isinstance(c, Skip):
        return "terminal"
    if isinstance(c, Alloc):
        return f"alloc of already-allocated variable {c.x}"
    if isinstance(c, Assign):
        if c.x not in store:
            return f"assignment to unallocated variable {c.x}"
        return _expr_reason(c.expr, store, stream)
    if isinstance(c, (If, While)):
        return _expr_reason(c.guard, store, stream, guard=True)
    if isinstance(c, Catch):
        return "no transition rule for try/catch"
    return "no transition rule for throw"


def _expr_reason(e, store: Store, stream: InputStream, guard: bool = False) -> str:
    try:
        v, _ = eval_expr(e, store, stream)
        if guard:
            guard_nonzero(v)
        return "unknown"
    except ExprStuck as ex:
        return ex.reason


@dataclass(frozen=True)
class Trace:
    """All configurations visited, in order, including the initial one."""

    configs: tuple[SmallConfig, ...]
    terminal: bool


def run_star(cfg: SmallConfig, fuel: int) -> tuple[Verdict, Trace]:
    """Iterate `step` for at most `fuel` steps."""
    cur = cfg
    configs = [cur]
    steps = 0
    stuck: str | None = None
    while steps < fuel and not cur.terminal():
        nxt = step(cur)
        if nxt is None:
            stuck = stuck_reason(cur)
            break
        cur = nxt
        configs.append(cur)
        steps += 1
    trace = Trace(tuple(configs), cur.terminal())
    if cur.terminal():
        return Converged(cur.store), trace
    if stuck is not None:
        return Stuck(stuck), trace
    return Unknown(steps), trace

