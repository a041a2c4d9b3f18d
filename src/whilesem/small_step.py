"""Small-step transition semantics and bounded execution.

One configuration is a command plus a store plus the input stream.  One
loop takes every step: `run_star` runs it under a fuel bound, without
building the configurations in between, and returns a normalized verdict
with a `Trace` that replays them on demand; `step` is one turn of it, the
unique next configuration or None when the configuration is terminal
(`skip`) or stuck, and `step_tuple` the same turn on a configuration's
three parts, which says why it takes no step.

All four evaluators evaluate expressions with `eval_expr`.  It interprets
an expression on its first evaluation, and on its second compiles it into
a closure specialised to its operator and the kinds of its operands, kept
on the term and shared by every evaluator; expressions nested deeper than
`_NESTING` stay interpreted, deep operands on an explicit stack.  The
arithmetic on naturals is written once, in the table `_ARITH`, from which
`_arith` and every compiled shape are generated; each returns a shared
object for every natural below `_SMALL`.
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


# The slotted class that `term_class` retags as Seq, and the setter of a
# natural's payload, which skips Nat's frozen `__setattr__` and its check.
_SeqSlots = Seq.__base__
_set_n = Nat.__base__.n.__set__
_new = object.__new__

# Arithmetic returns one shared object for each natural below `_SMALL`, and
# builds only larger results: `eval_expr` on `x + 3` took 576 ns when it
# built its result and 357 ns with the table (2-CPU x86-64, Python 3.11);
# on the same host the interpreter now takes about 270 ns, and the compiled
# closure about 160 ns.  On the long-loops workload of `bench/run.py` 98% of
# the results lie below 1,024 and all of them below 2,048; on its other two
# workloads all lie below 64.  The table's 2,048 entries take about 115 KB
# and 0.5 ms to make, once per import.  Naturals are immutable values, so sharing one
# is safe, and identity means nothing: two equal naturals need not be one
# object.
_SMALL = 2048


def _natural(n: int) -> Nat:
    """Nat(n), made without the constructor's check, for a known `n` >= 0."""
    v = _new(Nat)
    _set_n(v, n)
    return v


_NATS = tuple(map(_natural, range(_SMALL)))


class ExprStuck(Exception):
    """No rule applies, and why.  Raised by expression evaluation, the guard
    test and the small-step run; the evaluators turn it into a
    `Stuck` result with the same reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# The arithmetic on naturals, written once: each operator's result on the
# payloads `a` and `b` of its operands, `-` truncated at zero.  `_arith` is
# made from it here, and each compiled `Bop` shape when first needed.
_ARITH = {"+": "a + b", "-": "a - b if a > b else 0", "*": "a * b"}


def _define(source: str):
    """The functions that `source` defines, with this module's globals, so
    that they see what is rebound here later."""
    scope: dict = {}
    exec(source, globals(), scope)
    return scope


_arith = _define(
    "def _arith(op, a, b):\n"
    '    """The natural `a op b`: the shared natural of the table below\n'
    '    `_SMALL`, a new one above it."""\n'
    + "".join(f"    {'if' if i == 0 else 'elif'} op == {op!r}:\n        r = {rhs}\n" for i, (op, rhs) in enumerate(_ARITH.items()))
    + "    return _NATS[r] if r < _SMALL else _natural(r)\n"
)["_arith"]


def apply_bop(op: str, a: Val, b: Val) -> Val:
    """Binary arithmetic on values: on naturals `_arith`; a null operand is
    stuck, and otherwise an indeterminate operand makes the result
    indeterminate."""
    if type(a) is Nat and type(b) is Nat:
        return _arith(op, a.n, b.n)
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


# The states of an expression's `_code` slot before it holds its closure:
# not yet evaluated, evaluated once, and nested too deep to compile.  All
# three are false, so one truth test tells a closure from a state.
_COLD, _WARM, _DEEP = None, False, ()
_set_code = object.__setattr__


def eval_expr(e, store: Store, stream: InputStream, _depth: int = 0) -> tuple[Val, InputStream]:
    """Evaluate `e`, threading the input stream left to right.

    Raises ExprStuck on an unbound variable, a null operand, or an exhausted
    input stream.  A variable or a literal is read in place: a closure call
    would cost more than the read.  Any other expression is interpreted and
    marked on its first evaluation and compiled on its second (`_compile`),
    and every later evaluation runs its closure; expressions nested deeper
    than `_NESTING` stay interpreted.

    The interpreter reads variables from the store's map and evaluates
    operands that are variables or literals in place.  Other operands
    recurse, `_depth` counting the levels, down to `_NESTING` levels; deeper
    ones go to an explicit stack, so nesting depth never meets the recursion
    limit.
    """
    try:
        code = e._code
    except AttributeError:
        raise TypeError(f"not an expression: {e!r}") from None
    if code:
        return code(store._map, stream)
    t = type(e)
    if t is Var:
        v = store._map.get(e.name)
        if v is None:
            raise ExprStuck(f"unbound variable {e.name}")
        return v, stream
    if t is Lit:
        return e.value, stream
    if code is _COLD:
        _set_code(e, "_code", _WARM)
    elif code is _WARM:
        code = _compile(e, _NESTING)
        if code is not None:
            return code(store._map, stream)
        _set_code(e, "_code", _DEEP)
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
        if type(v1) is Nat and type(v2) is Nat:
            return _arith(e.op, v1.n, v2.n), stream
        return apply_bop(e.op, v1, v2), stream
    return _input(None, stream)


def _input(m, s):
    """The closure of every `Input`: the next value of the stream."""
    popped = s.pop()
    if popped is None:
        raise ExprStuck("input exhausted")
    return popped


def _compile(e, room: int):
    """The closure `f(map, stream) -> (value, stream)` of `e`, a `Bop`, an
    `Input` or a literal, kept in its `_code` slot, or None when running it
    would nest more than `room` calls.

    A `Bop` runs the closure its shape's factory makes (`_factory`), which
    reads a variable operand inline and a natural literal as a constant,
    and calls the closure of any other operand, made here too and kept in
    that operand's slot: every term has at most one closure, shared by
    every evaluator, and no closure refers to a term.  An operand compiled
    before is still walked, to count the calls its closure nests.
    """
    if not room:
        return None
    t = type(e)
    if t is Bop:
        shape, args = e.op, []
        for x in (e.left, e.right):
            t = type(x)
            if t is Var:
                shape += "v"
                args.append(x.name)
            elif t is Lit and type(x.value) is Nat:
                shape += "n"
                args.append(x.value)
            else:
                code = _compile(x, room - 1)
                if code is None:
                    return None
                shape += "s"
                args.append(code)
        code = e._code or (_FACTORIES.get(shape) or _factory(shape))(*args)
    elif t is Lit:
        code = e._code or _literal(e.value)
    else:
        code = _input
    _set_code(e, "_code", code)
    return code


def _literal(v: Val):
    """The closure of a literal operand that is not a natural."""

    def run(m, s):
        return v, s

    return run


# How the closure of a `Bop` reads its operand `i`, by the operand's kind
# letter in the shape: a variable (`v`) from the map, a natural literal (`n`)
# not at all, as the factory took its payload, and any other operand (`s`)
# through its own closure.
_READS = {
    "v": ["v{i} = m.get(x{i})", "if v{i} is None:", "    raise ExprStuck(f'unbound variable {{x{i}}}')"],
    "n": [],
    "s": ["v{i}, s = x{i}(m, s)"],
}
_FACTORIES: dict = {}


def _factory(shape: str):
    """Generate, keep and return the closure factory of `Bop`s of `shape`:
    the operator, then the kind letters of the left and right operands.
    The closure computes naturals with the operator's `_ARITH` entry, and
    hands any other pair of operands to `apply_bop`, read from this module
    at each call."""
    op, kinds = shape[0], shape[1:]
    constants, body, tests, payloads, operands = [], [], [], [], []
    for i, (kind, a) in enumerate(zip(kinds, "ab"), 1):
        body += (line.format(i=i) for line in _READS[kind])
        if kind == "n":
            constants.append(f"{a} = x{i}.n")
            operands.append(f"x{i}")
        else:
            tests.append(f"type(v{i}) is Nat")
            payloads.append(f"{a} = v{i}.n")
            operands.append(f"v{i}")
    arith = [*payloads, f"r = {_ARITH[op]}", "return (_NATS[r] if r < _SMALL else _natural(r)), s"]
    if tests:
        body.append(f"if {' and '.join(tests)}:")
        body += ("    " + line for line in arith)
        body.append(f"return apply_bop({op!r}, {', '.join(operands)}), s")
    else:
        body += arith
    source = "\n".join(["def make(x1, x2):", *("    " + line for line in constants), "    def run(m, s):", *("        " + line for line in body), "    return run\n"])
    make = _define(source)["make"]
    _FACTORIES[shape] = make
    return make


# Nested operands recurse down to this depth, and go to `_eval_nested`
# below it; a compiled closure nests at most this many calls.  The explicit
# stack for every nested operand cost the seeded fuzz campaign about 6% of
# its throughput (2-CPU x86-64, Python 3.11), because its expressions
# mostly nest two or three levels deep.
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
            v1 = vals[-1]
            vals[-1] = _arith(e, v1.n, v2.n) if type(v1) is Nat and type(v2) is Nat else apply_bop(e, v1, v2)
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


_SKIP = Skip()


def _run(c, store: Store, stream: InputStream, fuel: int) -> tuple:
    """Take at most `fuel` steps from ⟨c, store, stream⟩: the (command,
    context, store, stream, steps, reason) where the run stopped, the
    command sitting under the context.  `reason` says why no rule applies
    to the focus, and is None when one does or the focus is terminal.

    The run is refocused: a command is decomposed into a focus and its
    context once, and after each transition only the command that replaced
    the focus is decomposed, so a step costs O(1) amortised at any nesting
    depth.  The focus is never a sequence, and the context `ctx` holds the
    second commands of the sequences whose left spine leads down to it,
    innermost last.  Two rules change the context: `skip; c2` steps to
    `c2`, which is popped from it, and a taken `while` pushes itself, to
    run again after its body.  The loop below takes every transition rule;
    when none applies, ExprStuck carries the reason, and the focus, context
    and stream are those before the step.

    The given store is copied on the first write and the copy written in
    place; a run that writes nothing hands back the same store object, and
    so its cached hash.
    """
    ctx: list = []
    m = None  # the run's own map, made on its first write
    steps = 0
    try:
        while steps < fuel:
            while type(c) is Seq:
                ctx.append(c.second)
                c = c.first
            t = type(c)
            if t is Skip:
                if not ctx:
                    break
                c = ctx.pop()
            elif t is Assign:
                if c.x not in store._map:
                    raise ExprStuck(f"assignment to unallocated variable {c.x}")
                v, stream = eval_expr(c.expr, store, stream)
                if m is None:
                    m = store._map.copy()
                    store = Store._adopt(m)
                m[c.x] = v
                c = _SKIP
            elif t is While or t is If:
                v, after = eval_expr(c.guard, store, stream)
                taken = v.n != 0 if type(v) is Nat else guard_nonzero(v)
                stream = after
                if t is If:
                    c = c.then if taken else c.orelse
                elif taken:
                    ctx.append(c)
                    c = c.body
                else:
                    c = _SKIP
            elif t is Alloc:
                if c.x in store._map:
                    raise ExprStuck(f"alloc of already-allocated variable {c.x}")
                if m is None:
                    m = store._map.copy()
                    store = Store._adopt(m)
                m[c.x] = NULL
                c = _SKIP
            else:
                raise ExprStuck(f"no transition rule for {'try/catch' if t is Catch else 'throw'}")
            steps += 1
    except ExprStuck as ex:
        return c, ctx, store, stream, steps, ex.reason
    return c, ctx, store, stream, steps, None


def _plug(c, ctx: list):
    """The command with `c` under the context `ctx`: the spine of sequences
    rebuilt in a loop, so nesting depth never meets the recursion limit."""
    for second in reversed(ctx):
        s = _new(_SeqSlots)  # `Seq(c, second)`, without its constructor call
        s.first = c
        s.second = second
        s.__class__ = Seq
        c = s
    return c


def step_tuple(c, store: Store, stream: InputStream):
    """One step from ⟨c, store, stream⟩, one turn of `run_star`'s loop: the
    next (command, store, stream), or else a string, "terminal" when `c` is
    terminal and otherwise the reason no rule applies."""
    c, ctx, store, stream, steps, reason = _run(c, store, stream, 1)
    if steps:
        return _plug(c, ctx), store, stream
    return "terminal" if reason is None else reason


def step(cfg: SmallConfig):
    """The next configuration, or None when terminal or stuck."""
    after = step_tuple(cfg.cmd, cfg.store, cfg.stream)
    return SmallConfig(*after) if type(after) is tuple else None


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
    """Take at most `fuel` steps from `cfg` in one loop, building no
    configuration on the way; the last one is plugged at the end."""
    c, ctx, store, stream, steps, reason = _run(cfg.cmd, cfg.store, cfg.stream, fuel)
    if reason is not None:
        verdict = Stuck(reason)
    elif type(c) is Skip and not ctx:
        verdict = Converged(store)
    else:
        verdict = Unknown(steps)
    return verdict, Trace(cfg, SmallConfig(_plug(c, ctx), store, stream), steps)
