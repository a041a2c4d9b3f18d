"""Loop kernels: whole iterations of straight-line loops, for the three
big-step evaluators.

An unrecorded run of `eval_big`, `eval_flag` (under status `down`) or
`eval_pretty` calls `run_kernel` when it is back at a loop's head right
after one of its iterations and the guard holds, with the fuel it had
before the head's rules; a loop that is stuck or done within its first
iteration never pays for a kernel.  The first call on a `while` term plans
its kernel and keeps the plan in the term's `_kernel` slot, or `False`
there when the loop is outside what a kernel covers: a body made of `Seq`,
`Assign`, `If` and `Skip` alone, its `If`s nested at most `_NESTING` deep,
over expressions whose operands are variables and natural literals, nested
no deeper than `eval_expr` compiles them and so reading no input.  A plan
is `False` too when making it would visit more than `_ROOM` terms beyond
the fuel of that first call.  Terms may be shared, as a decoded certificate
cites one term entry from many fields, so a body of a few entries can
unfold into exponentially many statements; the plan visits each block once
per depth and gives up within the budget, so its work, like the
interpreter's, is bounded by the fuel.  A runner's closures are built when
a head first lets it run, one runner per cost table.

A kernel runs only when every variable the loop mentions holds a natural at
the loop head.  Arithmetic on naturals gives naturals, so they all still do
at every later head, and no rule of an iteration can get stuck: every
variable is bound, no operand is null and no guard is indeterminate.  It
then runs whole iterations while the remaining fuel covers the costliest
one, and charges each iteration the rules the calling evaluator would have
ticked, from that evaluator's table of rules per construct (`KERNEL_COSTS`):
each construct the iteration runs, and `While` once for the loop's own
rules.  It returns at a loop head, before its rules, where the interpreter
resumes: with less fuel than the costliest iteration needs, or with a zero
guard, whose exit rules the interpreter applies.  So no result, stuck
reason, out-of-fuel point, final store or fuel count depends on the kernel.
When it runs no iteration, as a variable holds no natural or the fuel is
short, the run asks no more until it enters the loop anew: fuel only
falls, and a loop whose variables become naturals after its second head
runs rule by rule.

The builder keeps its work on explicit lists: a long body runs as one flat
block, and a deeper one falls back to the interpreter, so no body meets the
recursion limit.
"""

from __future__ import annotations

from .small_step import _NESTING, _compile
from .syntax import Assign, Bop, If, Lit, Nat, Seq, Skip, Var, While

_set = object.__setattr__

# Terms a plan may visit beyond the fuel it is first asked with: every loop
# this small is planned whatever the fuel, in a few microseconds.
_ROOM = 1024


def run_kernel(w: While, m: dict, left: int, costs: tuple) -> int | None:
    """Run whole iterations of the loop `w` on the store map `m`, which it
    writes in place, from the fuel `left` that a head whose guard holds had
    before its rules, charging `costs`, pairs of a construct and its rules.
    Return the fuel left at the head where it stops, or None when it runs
    no iteration: the loop is outside the fragment, a variable it mentions
    holds no natural, or the fuel is short of the costliest iteration."""
    plan = w._kernel
    if plan is None:
        plan = _plan(w, left + _ROOM)
        _set(w, "_kernel", plan)
    if not plan:
        return None
    names, blocks, runners = plan
    for x in names:
        if type(m.get(x)) is not Nat:
            return None
    # One runner per table, built when a head first lets it run; a table is
    # a tuple, so it keys the runners by its value.
    run = runners.get(costs)
    if run is None:
        run = runners[costs] = _runner(w, blocks, dict(costs))
    return run(m, left)


def _plan(w: While, budget: int):
    """`(names, blocks, {})` for the loop `w`, or False when it is outside
    the fragment or planning it visits more than `budget` terms: the
    variables the loop mentions, and its blocks, the body and the branches
    of its `If`s, each once per depth and parents first, each as its
    statements, sequences flattened, and its number of sequences."""
    names: set = set()
    budget = _operands(w.guard, names, budget)
    blocks, seen, flat = [(w.body, 0)], set(), []
    for c, depth in blocks:
        stmts, seqs, todo = [], 0, [c]
        while todo and budget >= 0:
            s = todo.pop()
            budget -= 1
            t = type(s)
            if t is Seq:
                seqs += 1
                todo += (s.second, s.first)
                continue
            if t is If:
                if depth == _NESTING:
                    return False
                budget = _operands(s.guard, names, budget)
                for b in (s.then, s.orelse):
                    if (id(b), depth + 1) not in seen:
                        seen.add((id(b), depth + 1))
                        blocks.append((b, depth + 1))
            elif t is Assign:
                budget = _operands(s.expr, names, budget)
                names.add(s.x)
            elif t is not Skip:
                return False
            stmts.append(s)
        if budget < 0:
            return False
        flat.append((c, stmts, seqs))
    return tuple(names), flat, {}


def _operands(e, names: set, budget: int) -> int:
    """`budget` less the nodes of the expression `e`, or -1 when that is
    spent or `e` is outside the fragment: an operand that is neither a
    variable nor a natural literal, or operations nested `_NESTING` deep,
    which `eval_expr` leaves uncompiled.  Adds the variables it reads to
    `names`."""
    todo = [(e, 0)]
    while todo and budget >= 0:
        e, depth = todo.pop()
        budget -= 1
        t = type(e)
        if t is Bop:
            if depth == _NESTING:
                return -1
            todo += ((e.right, depth + 1), (e.left, depth + 1))
        elif t is Var:
            names.add(e.name)
        elif t is not Lit or type(e.value) is not Nat:
            return -1
    return budget if budget >= 0 else -1


def _runner(w: While, blocks: list, costs: dict):
    """The runner `run(m, left) -> left or None` of the planned loop `w`
    under `costs`.  The blocks are built child first, each once into its closure,
    which returns what it spent, and the most it can spend."""
    built: dict = {}
    for i in range(len(blocks) - 1, -1, -1):
        c, stmts, seqs = blocks[i]
        if id(c) in built:
            continue
        # The body's block also spends the loop's own rules.
        spent = seqs * costs[Seq] + (costs[While] if i == 0 else 0)
        most, steps = 0, []
        for s in stmts:
            t = type(s)
            spent += costs[t]
            if t is If:
                (then, most_then), (orelse, most_orelse) = built[id(s.then)], built[id(s.orelse)]
                most += max(most_then, most_orelse)
                steps.append((None, _branch(_code(s.guard), then, orelse)))
            elif t is Assign:
                steps.append((s.x, _code(s.expr)))
        built[id(c)] = _block(steps, spent), spent + most
    body, most = built[id(w.body)]
    guard = _code(w.guard)

    def run(m, left):
        if left < most:
            return None
        while left >= most and guard(m, None)[0].n:
            left -= body(m)
        return left

    return run


def _block(steps: list, spent: int):
    """The closure of a block: it runs its `steps` in order, an assignment
    as a variable and the closure of its expression, an `If` as None and
    the closure of the `If`, and returns `spent` plus what its `If`s
    spent."""

    def run(m):
        total = spent
        for x, f in steps:
            if x is None:
                total += f(m)
            else:
                m[x] = f(m, None)[0]
        return total

    return run


def _branch(guard, then, orelse):
    """The closure of an `If`: it runs the closure of the branch its guard
    picks, and returns what that spent."""
    return lambda m: (then if guard(m, None)[0].n else orelse)(m)


def _code(e):
    """The closure `f(map, stream) -> (value, stream)` of the planned
    expression `e`: a variable's reads the map, a literal's is a constant,
    and any other is the one `eval_expr` runs, compiled here if it is not
    yet; the plan has checked that it nests shallowly enough to compile."""
    t = type(e)
    if t is Var:
        x = e.name
        return lambda m, s: (m[x], s)
    if t is Lit:
        v = e.value
        return lambda m, s: (v, s)
    return e._code or _compile(e, _NESTING)
