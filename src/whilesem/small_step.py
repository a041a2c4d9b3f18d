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
)


class ExprStuck(Exception):
    """Expression evaluation has no applicable rule."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def apply_bop(op: str, a: Val, b: Val) -> Val:
    """Binary arithmetic on naturals; `-` is truncated at zero."""
    if isinstance(a, Null) or isinstance(b, Null):
        raise ExprStuck(f"null operand in {op}")
    if isinstance(a, AnyNat) or isinstance(b, AnyNat):
        return a if isinstance(a, AnyNat) else b
    if op == "+":
        return Nat(a.n + b.n)
    if op == "-":
        return Nat(max(a.n - b.n, 0))
    return Nat(a.n * b.n)


_ZERO = Nat(0)


def guard_nonzero(v: Val) -> bool:
    """Guard test: any value other than the natural 0 counts as non-zero
    (null included).  Indeterminate values cannot be branched on."""
    if isinstance(v, AnyNat):
        raise ExprStuck("indeterminate guard value")
    return v != _ZERO


def eval_expr(e, store: Store, stream: InputStream) -> tuple[Val, InputStream]:
    """Evaluate `e`, threading the input stream left to right.

    Raises ExprStuck on an unbound variable, a null operand, or an exhausted
    input stream.
    """
    if isinstance(e, Lit):
        return e.value, stream
    if isinstance(e, Var):
        v = store.get(e.name)
        if v is None:
            raise ExprStuck(f"unbound variable {e.name}")
        return v, stream
    if isinstance(e, Input):
        popped = stream.pop()
        if popped is None:
            raise ExprStuck("input exhausted")
        return popped
    if isinstance(e, Bop):
        v1, stream = eval_expr(e.left, store, stream)
        v2, stream = eval_expr(e.right, store, stream)
        return apply_bop(e.op, v1, v2), stream
    raise TypeError(f"not an expression: {e!r}")


@dataclass(frozen=True)
class SmallConfig:
    cmd: Cmd
    store: Store
    stream: InputStream = InputStream()

    def terminal(self) -> bool:
        return isinstance(self.cmd, Skip)


_SKIP = Skip()


def step(cfg: SmallConfig):
    """The next configuration, or None when terminal or stuck.

    The redex of a sequence sits at the bottom of its left spine.  The spine
    is walked in a loop, the redex stepped, and the spine rebuilt around the
    result, so nesting depth never meets the recursion limit.
    """
    c, store, stream = cfg.cmd, cfg.store, cfg.stream
    seconds = []
    while isinstance(c, Seq) and not isinstance(c.first, Skip):
        seconds.append(c.second)
        c = c.first
    if isinstance(c, Seq):
        c = c.second
    elif isinstance(c, Assign):
        if c.x not in store:
            return None
        try:
            v, stream = eval_expr(c.expr, store, stream)
        except ExprStuck:
            return None
        c, store = _SKIP, store.update(c.x, v)
    elif isinstance(c, (While, If)):
        try:
            v, stream = eval_expr(c.guard, store, stream)
            taken = guard_nonzero(v)
        except ExprStuck:
            return None
        if isinstance(c, If):
            c = c.then if taken else c.orelse
        else:
            c = Seq(c.body, c) if taken else _SKIP
    elif isinstance(c, Alloc):
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

