"""Finite certificates of divergence, and their checker.

Every certificate is a **derivation graph**: it certifies membership in one
of four coinductive judgment systems ("div-pred", "pretty-co", "flag-co",
"lasso").  Nodes are concrete judgments, each justified by a named rule
whose recursive premises are ordered edges (back-edges allowed — that is
the coinduction).  Premises of the auxiliary inductive relations (plain
big-step, one small step and all expression evaluation) are not stored:
the checker discharges them by running the corresponding evaluator.  A
recursive premise slot may also be `None`, meaning "discharge by
execution", which keeps certificates small when a sub-derivation is finite.

The checker interprets the shipped rule files: `div_pred.rules`,
`pretty_big.rules`, `flag_based.rules` with `throw_catch_input.rules`, and
`small_div.rules`.  Each rule on a system's own relation is compiled once
into a plan, a small Python function: match the node against the
conclusion, run the premises and side conditions in textual order, compare
the node's label with the conclusion target.  The side conditions take five
forms: `x in dom sigma`, `x notin dom sigma`, `nonzero v`, `zero v` and
`delta notin exc`; a rule outside the tables raises when compiled.  Two
conventions of the format are not in the rules: a premise node covers the
instance a rule demands when it is equal or more general (a `*` covers any
natural), and under a status other than `down` stores are not compared,
under `up` (or `div`) streams neither.

Node labels may mention the abstract value `*` (any natural): such a node
stands for the whole family of concrete judgments, which is what makes
store-growing loops finitely representable.  The evaluators treat `*`
precisely (arithmetic stays abstract, guards over it are stuck), so every
abstract rule instance the checker accepts instantiates to a valid concrete
instance for every natural.

A premise run that gets stuck makes its node invalid; one that runs out of
fuel leaves the check undecided (`Undecided`), unless another node is
invalid.

A **lasso** is found by `detect_lasso`: a stem of small-step configurations
followed by a non-empty cycle, repeated modulo the *projected* variables,
whose naturals the search ignores.  `lasso_graph` writes it as a graph of
the "lasso" system, Leroy & Grall's infinite reduction: one `I-Step` node
per configuration, each citing the next, the last citing the first of the
cycle.  Cycle nodes hold the projected naturals as `*`, so a guard that
reads one is stuck, and a projection the cycle branches on is rejected by
stepping, with no test of its own.  With a projection, the search asks
the checker, `graph_error`, about a cycle's graph before it returns one, so
every lasso it finds has a valid graph.

`prove_divergence` runs the same plans forward, as a goal-directed search
for a derivation graph of the requested system: each divergence claim
tries the plans of its construct until one holds, and a claim already in
the graph closes a cycle.  Inside a plan, a premise on another relation
is run at bounded fuel; an own-relation premise other than the last is
run too, and is claimed to diverge only when that run does not finish;
the last one is claimed to diverge without a run.

A certificate travels as a JSON document of format 2 (`certificate_to_json`).
It holds a table of terms, in which each command, guard, status, outcome
and pretty-big subject is written once, as its keyword and the indices of
earlier entries; tables of stores and streams; and the nodes, which cite
the tables by index.  The decode reads each entry once, in order, so it
neither parses nor prints a command, and its work is linear in the
document.  Like the rules, the format is compiled: one reader per term
keyword and one per system's nodes, each straight-line code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import count
from typing import NamedTuple, Optional

from .big_step import Done, OutOfFuel, eval_big
from .derivation import DerivTree
from .flag_based import FlagResult, eval_expr_flag, eval_flag
from .parser import ParseError, parse_expr
# The benchmark's tracer (bench/spans.py) rebinds `parse_cmd` and `pretty_cmd`
# here; the decode calls neither.
from .parser import parse_cmd, pretty_cmd  # noqa
from .pretty_big import DoneP, eval_pretty
from .rule_dsl import Atom, Group, Judgment, RuleParseError, SideCondition, _construct_head, load_ruleset
from .small_step import ExprStuck, SmallConfig, eval_expr, guard_nonzero, step, step_tuple
from .syntax import (
    ANY_NAT,
    BOPS,
    AnyNat,
    Cmd,
    ConvO,
    DIV,
    DOWN,
    DivO,
    Down,
    EMPTY_STORE,
    Exc,
    Expr,
    InputStream,
    Lit,
    NULL,
    Nat,
    Null,
    Outcome,
    Plain,
    SemCmd,
    Status,
    Store,
    Stuck,
    Throw,
    Up,
    UP,
    Var,
    expr_vars,
    guard_exprs,
    quoted,
    store_from_json,
    store_to_json,
    stream_from_json,
    stream_to_json,
    val_from_json,
    val_to_json,
)

# The systems `prove_divergence` searches; a "lasso" graph is written by `lasso_graph`.
SYSTEMS = ("div-pred", "pretty-co", "flag-co")

DEFAULT_CHECK_FUEL = 100_000


# ---------------------------------------------------------------------------
# Lassos, up to projected variables


class AbstractionUnsound(Exception):
    pass


def check_abstraction(projected: frozenset[str], c: Cmd) -> None:
    """Reject projections of variables that some guard reads."""
    if not projected:
        return
    for g in guard_exprs(c):
        clash = expr_vars(g) & projected
        if clash:
            raise AbstractionUnsound(f"projected variable {min(clash)} occurs in a guard expression")


def abstract_store(store: Store, projected: frozenset[str]) -> Store:
    """Replace projected naturals with the abstract any-natural value.
    Null-ness and the domain stay, so matching stores agree on
    definedness."""
    if not projected:
        return store
    return Store({x: ANY_NAT if x in projected and isinstance(v, Nat) else v for x, v in store.items()})


def _config_key(cfg: SmallConfig, projected: frozenset[str]):
    """Hashable key for a configuration modulo the projection.  A program
    that reads no input never moves its cursor, so keying on the cursor
    separates no two of its configurations.  Without projection a key
    holds the store itself, whose hash is cached."""
    return cfg.cmd, abstract_store(cfg.store, projected), cfg.stream.cursor


@dataclass(frozen=True)
class Lasso:
    prefix: tuple[SmallConfig, ...]
    cycle: tuple[SmallConfig, ...]
    projected: frozenset[str] = frozenset()  # variables whose naturals closing the cycle ignores


def detect_lasso(cfg: SmallConfig, fuel: int, projected: frozenset[str] = frozenset()) -> Optional[Lasso]:
    """Run at most `fuel` steps looking for a repeated configuration
    (modulo the projected variables) that closes a cycle.  Returns None on
    termination, stuckness, or fuel exhaustion without one.

    The run steps the concrete stores.  With a projection, a repeat closes
    a cycle only when `graph_error` accepts the cycle's graph, as
    `check_certificate` will; otherwise the search goes on, from the later
    of the two configurations.  A concrete repeat is always a cycle, so
    without a projection the search asks nothing."""
    projected = frozenset(projected)
    check_abstraction(projected, cfg.cmd)
    seen = {_config_key(cfg, projected): 0}
    trail = [cfg]
    for _ in range(fuel):
        nxt = step(trail[-1])
        if nxt is None:
            return None
        k = _config_key(nxt, projected)
        hit = seen.get(k)
        if hit is not None:
            cycle = tuple(trail[hit:])
            if not projected or graph_error(lasso_graph(Lasso((), cycle, projected))) is None:
                return Lasso(tuple(trail[:hit]), cycle, projected)
        seen[k] = len(trail)
        trail.append(nxt)
    return None


def lasso_graph(lasso: Lasso) -> DerivationGraph:
    """The lasso as a derivation graph of the small-step divergence system
    "lasso" (`small_div.rules`): one node per configuration, each citing
    the next, the last citing the first of the cycle.  Cycle nodes hold
    their stores with the projected naturals made `*`, which covers every
    natural; a guard that reads a `*` is stuck, so the checker rejects a
    projection the cycle branches on."""
    (rule,) = _plans("lasso")
    relation, projected, first = _own("lasso").node, lasso.projected, len(lasso.prefix)
    configs = lasso.prefix + tuple(SmallConfig(c.cmd, abstract_store(c.store, projected), c.stream) for c in lasso.cycle)
    nodes = [
        GraphNode(relation, c.cmd, c.store, None, c.stream, None, rule, (i + 1 if i + 1 < len(configs) else first,))
        for i, c in enumerate(configs)
    ]
    return DerivationGraph("lasso", 0, nodes)


# ---------------------------------------------------------------------------
# Derivation graphs


@dataclass(slots=True)
class GraphNode:
    relation: str  # "inf" | "pretty" | "flag" | "step"
    subject: object  # Cmd | SemCmd
    store: Store
    flag_in: Optional[Status]
    stream: InputStream
    result: Optional[tuple]  # of the kinds its relation gives; the stream None once the judgment diverges
    rule: str
    premises: tuple[Optional[int], ...]


@dataclass
class DerivationGraph:
    system: str
    root: int
    nodes: list[GraphNode]


class _Relation(NamedTuple):
    """A relation a rule premise can name; the fields after `target` are
    those of a system's own relation."""

    source: tuple  # the role of each component of the source tuple, in the order of the signature
    target: tuple  # the same for the target; none in a divergence predicate, which no evaluator discharges
    node: str = ""  # the relation that its graph nodes carry
    subject: str = "Cmd"  # the kind of their subject
    result: tuple = ()  # the kind of each component of their result
    claim: Optional[tuple] = None  # the result of a divergence claim
    misfit: str = "a divergence judgment carries no status and no result"  # why a node does not fit


# A pretty-big outcome plays the status: `conv` reads as `down`, `div` as `up`.
_RELATIONS = {
    "E": _Relation(("expr", "store", "stream"), ("value", "stream")),
    "GE": _Relation(("expr", "store", "status", "stream"), ("value", "status", "stream")),
    "B": _Relation(("subject", "store", "stream"), ("store'", "stream")),
    "S": _Relation(("subject", "store", "stream"), ("subject'", "store'", "stream")),
    "D": _Relation(("subject", "store", "stream"), (), "inf"),
    "I": _Relation(("subject", "store", "stream"), (), "step"),
    "P": _Relation(("subject", "store", "stream"), ("status", "stream"), "pretty", "SemCmd", ("Outcome", "Stream"),
                   (DIV, None), "node needs an outcome label and no status"),
    "G": _Relation(("subject", "store", "status", "stream"), ("store'", "status", "stream"), "flag", "Cmd",
                   ("Status", "Store", "Stream"), (UP, EMPTY_STORE, None), "node needs an input status and a status label"),
}

# Per system: the rule files that define it, and its own relation there.  A
# rule's recursive-premise slots are its premises on that relation; premises
# on other relations are discharged by execution.
_SYSTEMS = {
    "div-pred": (("div_pred",), "D"),
    "pretty-co": (("pretty_big",), "P"),
    "flag-co": (("flag_based", "throw_catch_input"), "G"),
    "lasso": (("small_div",), "I"),
}


def _own(system: str) -> _Relation:
    return _RELATIONS[_SYSTEMS[system][1]]


class _BadNode(Exception):
    """Why a node is no instance of the rule it names."""


class _Unfinished(Exception):
    """A premise whose evaluation ran out of fuel: no verdict on its node."""


class Undecided(str):
    """The problem of a check that ran out of fuel: no node is invalid, but
    the evaluation of the premise it names did not finish within `fuel`.  A
    string like any other problem, so that it never reads as valid."""

    def __new__(cls, text: str, fuel: int):
        self = super().__new__(cls, text)
        self.fuel = fuel
        return self


def graph_error(g: DerivationGraph, fuel: int = DEFAULT_CHECK_FUEL) -> Optional[str]:
    """First problem that makes the graph invalid, or None if it is valid.
    When the only problems are premises whose evaluation did not finish
    within `fuel`, the problem is the first of those, as `Undecided`."""
    system = g.system
    if system not in _SYSTEMS:
        return f"unknown system {system!r}"
    if not g.nodes:
        return "graph has no nodes"
    if not (0 <= g.root < len(g.nodes)):
        return f"root {g.root} out of range"
    own, plans, n = _own(system), _plans(system), len(g.nodes)
    views, checks = [], []
    for nid, node in enumerate(g.nodes):
        if node.relation != own.node:
            return f"node {nid}: relation {node.relation!r} does not belong to {system}"
        plan = plans.get(node.rule)
        if plan is None:
            return f"node {nid}: unknown rule {node.rule!r}"
        premises = node.premises
        if len(premises) != plan.arity:
            return f"node {nid}: rule {node.rule} takes {plan.arity} premise(s), got {len(premises)}"
        for slot in premises:
            if slot is not None and not (0 <= slot < n):
                return f"node {nid}: premise reference {slot} out of range"
        try:
            views.append(_judgment(own, node))
        except _BadNode as ex:
            return f"node {nid}: {ex}"
        checks.append(plan.check)
    undecided = None
    for nid, (check, view, node) in enumerate(zip(checks, views, g.nodes)):
        try:
            check(view, partial(_cited, views, iter(node.premises), fuel))
        except _BadNode as ex:
            return f"node {nid} ({node.rule}): {ex}"
        except _Unfinished as ex:
            undecided = undecided or Undecided(f"node {nid} ({node.rule}): {ex} did not finish", fuel)
    return undecided


def _judgment(rel: _Relation, node: GraphNode) -> tuple:
    """The node's source and target tuples, in the order of its relation's
    signature; _BadNode when its status and result do not fit the relation."""
    r, flag_in, kinds = node.result, node.flag_in, rel.result
    fits = type(r) is tuple and len(r) == len(kinds) and type(r[0]) in _KINDS[kinds[0]][0] if kinds else r is None
    if not fits or (not isinstance(flag_in, Status) if "status" in rel.source else flag_in is not None):
        raise _BadNode(rel.misfit)
    source = (node.subject, node.store, node.stream) if flag_in is None else (node.subject, node.store, flag_in, node.stream)
    return source, _target(r, node.stream)


def _target(result: Optional[tuple], stream: InputStream) -> tuple:
    """The target tuple of a judgment from input `stream` whose node records
    `result`, as its relation orders it.  A result records its final stream
    exactly when the judgment does not diverge; as a premise, a divergent
    judgment continues with its input stream."""
    if result is None:
        return ()
    status, stream_out = result[0], result[-1]
    diverges = isinstance(status, (Up, DivO))
    if (stream_out is None) != diverges:
        raise _BadNode("a label records its final stream exactly when the judgment does not diverge")
    stream_out = stream if diverges else stream_out
    return (status, stream_out) if len(result) == 2 else (result[1], status, stream_out)


def _mismatch(roles: tuple, got: tuple, want: tuple) -> Optional[str]:
    """The first component in which a node's judgment `got` does not cover
    the rule instance `want`, or None.

    The two conventions of the certificate format live here.  A premise
    node over `*` covers every natural in its source (`_covers`).  Under a
    status other than `down` stores are not compared, and under `up`
    streams are not compared either."""
    if got == want:
        return None
    status = got[roles.index("status")] if "status" in roles else DOWN
    for role, g, w in zip(roles, got, want):
        if g is w or g == w:
            continue
        if role in ("store", "store'") and not isinstance(status, (Down, ConvO)):
            continue
        if role == "stream" and isinstance(status, (Up, DivO)):
            continue
        if role not in ("subject", "store") or not _covers(g, w):
            return role
    return None


def _covers(general, specific) -> bool:
    """Whether a premise node's source component `general` covers the
    demanded `specific` one: `*` (any natural) covers every natural, but
    never null, in a store, an outcome or a semantic command; everything
    else must be equal."""
    if general == specific:
        return True
    if isinstance(general, AnyNat):
        return isinstance(specific, Nat)
    if isinstance(general, Store):
        domain = general.domain()
        return domain == specific.domain() and all(_covers(general.get(x), specific.get(x)) for x in domain)
    if type(general) is not type(specific) or not isinstance(general, (ConvO, *_SEMANTIC)):
        return False
    return all(_covers(getattr(general, f), getattr(specific, f)) for f in general.__match_args__)


# --- the rules, interpreted ---------------------------------------------------

# The semantic commands of pretty-big-step: a P-relation subject that is not
# one of them is a command `c`, and stands for `Plain(c)`.
_SEMANTIC = tuple(cls for cls in SemCmd.__args__ if cls is not Plain)

# The constants the evaluators and the decoder share, so that a compiled
# plan compares them by identity first.
_SINGLETONS = {type(c): c for c in (DOWN, UP, DIV, NULL)}

# The side-condition forms the rules use; `_` marks a metavariable.
_SIDES = {
    ("_", "in", "dom", "_"): lambda x, sigma: x in sigma,
    ("_", "notin", "dom", "_"): lambda x, sigma: x not in sigma,
    ("nonzero", "_"): guard_nonzero,
    ("zero", "_"): lambda v: not guard_nonzero(v),
    ("_", "notin", "exc"): lambda delta: not isinstance(delta, Exc),
}


def _run(relation: str, source: tuple, fuel: int):
    """Discharge a premise by execution: its target tuple, or else what the
    evaluator returned instead (`OutOfFuel` or `Stuck`).  The evaluators are
    looked up at each call, so a tracer that rebinds them in this module
    sees the provers' and checker's runs."""
    if relation == "E":
        try:
            return eval_expr(*source)
        except ExprStuck as ex:
            return Stuck(ex.reason)
    if relation == "GE":
        r = eval_expr_flag(*source)
        return (r.value, r.status, r.stream) if isinstance(r, FlagResult) else r
    if relation == "S":
        after = step_tuple(*source)
        return after if type(after) is tuple else Stuck(after)
    r = (eval_big if relation == "B" else eval_pretty if relation == "P" else eval_flag)(*source, fuel)
    if isinstance(r, Done):
        return r.store, r.stream
    if isinstance(r, DoneP):
        return r.outcome, r.stream
    return (r.store, r.status, r.stream) if isinstance(r, FlagResult) else r


def _cited(views: list, slots, fuel: int, kind: int, relation: str, premise: tuple, text: str) -> tuple:
    """The premise resolver of checking: an own-relation premise (`kind`
    1, or 2 for the last) resolves through the node its slot cites, every
    other premise and a `null` slot by running the evaluator of its
    relation.  Returns the premise's target tuple; a run that gets stuck
    fails the node, one that runs out of fuel leaves it undecided."""
    slot = next(slots) if kind else None
    if slot is not None:
        got, result = views[slot]
        role = _mismatch(_RELATIONS[relation].source, got, premise)
        if role is not None:
            raise _BadNode(f"node {slot} does not cover {text}: {role} mismatch")
        return result
    if not _RELATIONS[relation].target:
        raise _BadNode(f"{text} must cite a node: its relation has no evaluator")
    result = _run(relation, premise, fuel)
    if type(result) is OutOfFuel:
        raise _Unfinished(text)
    if type(result) is not tuple:
        raise _BadNode(f"{text} does not hold: {result.reason}")
    return result


def _side(test, args: tuple, text: str) -> None:
    try:
        holds = test(*args)
    except ExprStuck as ex:
        raise _BadNode(f"{text}: {ex.reason}") from None
    if not holds:
        raise _BadNode(f"{text} does not hold")


def _term(items: tuple, where: str, matched: bool):
    """A component or group of a rule in normal form: a metavariable's name,
    a constant, or a pair of a constructor and its arguments.  A term that
    is matched against a value cannot apply `update`."""
    if len(items) == 1 and isinstance(items[0], Group):
        return _term(items[0].items, where, matched)
    head = items[0] if items else None
    if len(items) == 1 and isinstance(head, Atom) and head.is_var:
        return head.text
    # a keyword of the certificate format, `null`, or `update sigma x v`: `sigma.update(x, v)`
    keywords = dict(_CLASSES, null=Null, update=Store.update)
    f = keywords.get(head.text) if isinstance(head, Atom) and not head.is_var else None
    args = tuple(_term((a,), where, matched) for a in items[1:])
    update = f is Store.update
    if f is None or (update and matched) or len(args) != (3 if update else len(f.__match_args__)):
        raise RuleParseError(f"{where}: the checker cannot interpret {' '.join(map(str, items))!r}")
    return (f, args) if args else _SINGLETONS.get(f) or f()


def _vars(t) -> set:
    if type(t) is str:
        return {t}
    return set().union(*map(_vars, t[1])) if type(t) is tuple else set()


class _Plan:
    """One rule on a system's own relation, compiled once into a Python
    function `check(view, resolve)` for one judgment `view`: match it
    against the conclusion, resolve the premises and side conditions in
    textual order, compare its target with the conclusion target.  Each
    premise goes through `resolve(kind, relation, source, text)`, which
    returns the premise's target; `kind` is 0 for another relation, 1 for
    an own-relation premise and 2 for the last of those.  Checking resolves
    through the cited nodes (`_cited`), proving by search (the `resolve` of
    `prove_divergence`).
    `source` holds that function's code; it names judgment components
    `r<i>`, other metavariables `m<i>` and constants `k<i>`, so no rule
    text is ever part of it.  A rule the checker cannot interpret raises
    here, never to be skipped."""

    def __init__(self, rule, own: str):
        where, conclusion = f"rule {rule.label}", rule.conclusion
        names: dict = {}  # metavariable -> local variable, once bound
        consts = {"_BadNode": _BadNode, "_mismatch": _mismatch, "_side": _side}
        lines = ["def check(view, resolve):"]
        fresh = count()  # numbers the locals `r<i>` that judgment components unpack into

        def terms(j: Judgment, source: bool, matched: bool) -> list:
            rel = _RELATIONS.get(j.relation)  # a premise on another relation needs an evaluator
            if rel is None or j.implicit or not (rel.target or j.relation == own) or (
                    (len(j.source), len(j.target)) != (len(rel.source), len(rel.target))):
                raise RuleParseError(f"{where}: the checker cannot interpret {j}")
            ts = [_term(c, where, matched) for c in (j.source if source else j.target)]
            if source and rel.subject == "SemCmd" and not (type(ts[0]) is tuple and ts[0][0] in _SEMANTIC):
                ts[0] = (Plain, (ts[0],))
            return ts

        def const(value) -> str:
            consts[f"k{len(consts)}"] = value
            return f"k{len(consts) - 1}"

        def build(t) -> str:
            if type(t) is str:
                if t not in names:
                    raise RuleParseError(f"{where}: metavariable {t} is used before it is bound")
                return names[t]
            return f"{const(t[0])}({', '.join(map(build, t[1]))})" if type(t) is tuple else const(t)

        def match(t, value: str, failure: str) -> None:
            if type(t) is str and t not in names:
                names[t] = value if value.isidentifier() else f"m{len(names)}"
                if names[t] != value:
                    lines.append(f"    {names[t]} = {value}")
            elif not _vars(t) - names.keys():
                want = build(t)
                lines.append(f"    if {value} is not {want} and {value} != {want}: raise _BadNode({failure})")
            else:
                lines.append(f"    if type({value}) is not {const(t[0])}: raise _BadNode({failure})")
                for arg, field in zip(t[1], t[0].__match_args__):
                    match(arg, f"{value}.{field}", failure)

        failure = const(f"judgment is not an instance of {conclusion}")
        source = terms(conclusion, True, True)
        values = [f"r{next(fresh)}" for _ in source]
        lines.append(f"    ({''.join(v + ', ' for v in values)}), target = view")
        for t, value in zip(source, values):
            match(t, value, failure)
        last = max((i for i, j in enumerate(rule.body) if getattr(j, "relation", None) == own), default=None)
        for i, item in enumerate(rule.body):
            text = const(str(item))
            if isinstance(item, SideCondition):
                form = tuple("_" if isinstance(t, Atom) and t.is_var else str(t) for t in item.terms)
                if form not in _SIDES:
                    raise RuleParseError(f"{where}: the checker cannot interpret {item}")
                args = "".join(build(t.text) + ", " for t in item.terms if isinstance(t, Atom) and t.is_var)
                lines.append(f"    _side({const(_SIDES[form])}, ({args}), {text})")
                continue
            kind = 2 if i == last else int(item.relation == own)
            premise = "".join(build(t) + ", " for t in terms(item, True, False))
            outs = terms(item, False, True)
            values = [f"r{next(fresh)}" for _ in outs]
            assign = "".join(v + ", " for v in values) + "= " if values else ""
            lines.append(f"    {assign}resolve({kind}, {const(item.relation)}, ({premise}), {text})")
            failure = const(f"{item} does not hold: its result does not match")
            for t, value in zip(outs, values):
                match(t, value, failure)
        target = terms(conclusion, False, False)
        for i, t in enumerate(target):  # a metavariable free in the rule takes the node's value
            if type(t) is str and t not in names:
                match(t, f"target[{i}]", failure)
        want = "".join(build(t) + ", " for t in target)
        lines.append(f"    role = _mismatch({const(_RELATIONS[own].target)}, target, ({want}))")
        lines.append("    if role is not None: raise _BadNode(f'conclusion {role} mismatch')")
        self.label, self.arity = rule.label, sum(j.relation == own for j in rule.premises)
        self.head = _CLASSES.get(_construct_head(conclusion))  # None: any construct
        self.size = len(rule.premises)
        self.source = "\n".join(lines)
        exec(self.source, consts)
        self.check = consts["check"]


@cache
def _plans(system: str) -> dict:
    """Rule label -> plan, for every rule on the system's own relation."""
    files, own = _SYSTEMS[system]
    return {
        rule.label: _Plan(rule, own)
        for name in files
        for rule in load_ruleset(name).rules
        if rule.conclusion.relation == own
    }


@cache
def _search_order(system: str) -> dict:
    """Construct -> the plans a claim about it tries, in order: the plans of
    that construct and those of any construct, more premises first, ties in
    file order.  The key None gives the plans of any construct alone."""
    plans = sorted(_plans(system).values(), key=lambda plan: -plan.size)
    return {
        head: tuple(plan for plan in plans if plan.head in (head, None))
        for head in {plan.head for plan in plans} | {None}
    }


# ---------------------------------------------------------------------------
# Proving divergence: the plans run forward


def _plain(rel: _Relation, source: tuple) -> Optional[Cmd]:
    """The command of a judgment source that starts it normally (a command
    or a plain one, under status `down` if it has one), else None."""
    if "status" in rel.source and not isinstance(source[2], Down):
        return None
    c = source[0].cmd if type(source[0]) is Plain else source[0]
    return None if isinstance(c, _SEMANTIC) else c


def prove_divergence(
    c: Cmd,
    store: Store,
    stream: InputStream,
    system: str,
    fuel: int,
    projected: frozenset[str] = frozenset(),
) -> Optional[DerivationGraph]:
    """A derivation graph proving that `c` diverges from a normal start in
    the given coinductive system, found by running its plans forward; or None.

    Each claim that a judgment source diverges becomes one node: it tries
    the plans of its construct (`_search_order`) until one holds, with
    `resolve` as their premise resolver.  A premise on another relation
    runs its evaluator at fuel `probe`, and the plan fails unless the run
    finishes; an own-relation premise other than the last runs too, and is
    claimed to diverge, as an edge, when the run does not finish; the last
    own-relation premise is claimed to diverge without a run.  A concrete
    plain command whose small-step run repeats within `fuel` does not
    finish, without being run.  Claims are shared by their source, except
    abort leaves (input status `up`); nodes are numbered in depth-first
    pre-order.  Only a graph that `graph_error` accepts is returned.  A
    projected variable that occurs in a guard raises `AbstractionUnsound`."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    check_abstraction(projected, c)
    probe = 2 * fuel + 100
    own, order, concrete = _own(system), _search_order(system), not projected
    edges: list = []  # per own-relation premise of an attempt: a source claimed to diverge, or None

    def resolve(kind: int, relation: str, premise: tuple, text: str) -> tuple:
        rel = _RELATIONS[relation]
        if kind < 2 and rel.target:
            cmd = _plain(rel, premise) if concrete and rel.source[0] == "subject" else None
            if cmd is not None and detect_lasso(SmallConfig(cmd, premise[1], premise[-1]), fuel) is not None:
                r = OutOfFuel()
            else:
                r = _run(relation, premise, probe)
            if type(r) is tuple:
                if kind:
                    edges.append(None)
                return r
            if not kind or type(r) is not OutOfFuel:
                raise _BadNode(text)
        edges.append(premise)
        return _target(own.claim, premise[-1])

    nodes: list[GraphNode] = []
    ids: dict = {}
    budget = max(4 * fuel, 1000)
    # (claim, citing node, slot); first the program started normally
    subject = Plain(c) if own.subject == "SemCmd" else c
    todo = [((subject, store, DOWN, stream) if "status" in own.source else (subject, store, stream), None, 0)]
    while todo:
        source, parent, slot = todo.pop()
        if not concrete:
            source = (source[0], abstract_store(source[1], projected)) + source[2:]
        flag_in = source[2] if len(source) == 4 else None
        shared = not isinstance(flag_in, Up)
        nid = ids.get(source) if shared else None
        if nid is None:
            if len(nodes) >= budget:
                return None
            nid = len(nodes)
            if shared:
                ids[source] = nid
            view = (source, _target(own.claim, source[-1]))
            subject = source[0]
            for plan in order.get(type(subject.cmd if type(subject) is Plain else subject), order[None]):
                edges.clear()
                try:
                    plan.check(view, resolve)
                    break
                except _BadNode:
                    pass
            else:
                return None
            premises = [None] * len(edges)  # filled in as the claims get their nodes
            nodes.append(GraphNode(own.node, subject, source[1], flag_in, source[-1], own.claim, plan.label, premises))
            for k in reversed(range(len(edges))):
                if edges[k] is not None:
                    todo.append((edges[k], nid, k))
        if parent is not None:
            nodes[parent].premises[slot] = nid
    for node in nodes:
        node.premises = tuple(node.premises)
    graph = DerivationGraph(system, 0, nodes)
    return graph if graph_error(graph, fuel=probe) is None else None


# ---------------------------------------------------------------------------
# Export of finite derivations as (back-edge-free) graphs


def graph_from_tree(tree: DerivTree, system: str) -> DerivationGraph:
    """Convert a recorded derivation tree into a derivation graph.

    Recursive premises become edges; expression premises are dropped (the
    checker rediscovers them by execution).  Nodes are numbered in preorder,
    the root 0, walking an explicit stack, so derivation depth never meets
    the recursion limit."""
    relation = _own(system).node
    trees: list[DerivTree] = []
    premises: list[list[int]] = []
    todo: list = [(tree, None)]
    while todo:
        t, parent = todo.pop()
        nid = len(trees)
        if parent is not None:
            premises[parent].append(nid)
        trees.append(t)
        premises.append([])
        todo += [(child, nid) for child in reversed(t.children) if child.relation == relation]
    nodes = []
    for t, slots in zip(trees, premises):
        result = t.result
        if isinstance(result[0], (DivO, Up)):  # a divergent judgment records no final stream
            result = result[:-1] + (None,)
        nodes.append(GraphNode(relation, t.subject, t.store, t.flag_in, t.stream, result, t.rule, tuple(slots)))
    return DerivationGraph(system, 0, nodes)


# ---------------------------------------------------------------------------
# JSON: certificate format 2


# Keyword -> term class, for every term a certificate holds: the constructor
# names of the rule files, `plain`, and `lit`, `var`, `bop` and `input`.  The
# rules read the same keywords, and `null` and `update` besides (`_term`).
_CLASSES = {cls.__name__.lower(): cls for cls in (*Cmd.__args__, *Expr.__args__, *Status.__args__, *_SEMANTIC)}
_CLASSES.update(conv=ConvO, div=DivO, plain=Plain)
_KEYWORDS = {cls: keyword for keyword, cls in _CLASSES.items()}
# Term class -> its fields in `__match_args__` order: (attribute, kind), the
# kind being the name of the field's annotation ("Cmd", "Val", "str", ...).
_FIELDS = {cls: tuple((f, cls.__annotations__[f].strip("'")) for f in cls.__match_args__) for cls in _KEYWORDS}
# Kind of term -> its classes, and what a message calls it.
_KINDS = {
    kind: (frozenset(union.__args__), name)
    for kind, union, name in (
        ("Cmd", Cmd, "a command"), ("Expr", Expr, "an expression"), ("Status", Status, "a status"),
        ("Outcome", Outcome, "an outcome"), ("SemCmd", SemCmd, "a semantic command"),
    )
}
_NAMES = {cls: name for classes, name in _KINDS.values() for cls in classes}
_RESULTS = {len(rel.result): rel.result for rel in _RELATIONS.values() if rel.result}  # a result's kinds, by its length
_SLOT_TYPES = frozenset((int, type(None)))  # of a premise slot
_NODE = ("rule", "subject", "store", "flag_in", "stream", "result", "premises")  # a node's fields
_DOCUMENT = (("system", str), ("root", int), ("terms", list), ("stores", list), ("streams", list), ("nodes", list))
_JSON_TYPES = {type(None): "null", bool: "a boolean", int: "a number", float: "a number", str: "a string",
               list: "an array", dict: "an object"}


def certificate_to_json(cert: Lasso | DerivationGraph) -> dict:
    """The certificate as a format-2 document; a lasso is written as its
    `lasso_graph`.  Each distinct term, store and stream is written once, in
    its table, and cited by index.  A term is `[keyword, field...]`, each of
    its term fields the index of an earlier entry, so equal terms meet at
    one flat key and no term is hashed deep.  Terms wait on a stack of
    their own until their fields are written: no nesting depth meets the
    recursion limit."""
    g = lasso_graph(cert) if isinstance(cert, Lasso) else cert
    tables: dict = {"terms": {}, "Store": {}, "Stream": {}}  # per table: entry -> index
    written: dict = {}  # id(term) -> index, for each term of the graph written

    def cite(kind: str, value):
        if kind == "Val":
            return val_to_json(value)
        if value is None or kind == "str":
            return value
        if kind == "Store" or kind == "Stream":
            return tables[kind].setdefault(value, len(tables[kind]))
        todo = [value]
        while todo:
            t = todo[-1]
            if id(t) in written:
                todo.pop()
                continue
            fields = _FIELDS[type(t)]
            waiting = [c for f, k in fields if k in _KINDS and id(c := getattr(t, f)) not in written]
            if waiting:
                todo += reversed(waiting)
                continue
            todo.pop()
            key = (_KEYWORDS[type(t)], *[written[id(v)] if k in _KINDS else cite(k, v)
                                         for f, k in fields for v in (getattr(t, f),)])
            written[id(t)] = tables["terms"].setdefault(key, len(tables["terms"]))
        return written[id(value)]

    nodes = [
        {
            "rule": n.rule,
            "subject": cite("Cmd", n.subject),
            "store": cite("Store", n.store),
            "flag_in": cite("Status", n.flag_in),
            "stream": cite("Stream", n.stream),
            "result": None if n.result is None else [cite(k, v) for k, v in zip(_RESULTS[len(n.result)], n.result)],
            "premises": list(n.premises),
        }
        for n in g.nodes
    ]
    terms, stores, streams = tables.values()
    return {"kind": "derivation-graph", "format": 2, "system": g.system, "root": g.root,
            "terms": list(map(list, terms)), "stores": list(map(store_to_json, stores)),
            "streams": list(map(stream_to_json, streams)), "nodes": nodes}


def certificate_from_json(data: dict) -> DerivationGraph:
    """Decode a format-2 document.  A malformed one raises ValueError, whose
    message names the node or table entry and the field at fault.

    The tables are read in order, each entry once, and a term from the
    entries it cites, all earlier: no command is parsed or printed, and the
    work is linear in the document.  Each term and node is read by the
    reader compiled for its keyword or system (`_readers`).  Only a term the
    parser can produce is read: a name is a variable, an operator is one of
    `BOPS`, and the value of a `lit` or a `throw` is a natural or null.  A
    field the format does not name is malformed."""
    if type(data) is not dict:
        raise ValueError(f"a certificate must be an object, got {_got(data)}")
    if data.get("kind") != "derivation-graph":
        raise ValueError("kind must be 'derivation-graph' (a lasso is a graph of system 'lasso'), "
                         f"got {quoted(data.get('kind'))}")
    version = data.get("format", 1)
    if type(version) is not int or version != 2:
        raise ValueError(f"format {_got(version)} is not read: re-create the certificate with "
                         "`whilesem classify --cert-out`")
    for name, kind in _DOCUMENT:
        if name not in data:
            raise ValueError(f"certificate has no field {name!r}")
        if type(data[name]) is not kind:
            raise ValueError(f"field {name!r} must be {_JSON_TYPES[kind]}, got {_got(data[name])}")
    if len(data) != len(_DOCUMENT) + 2:
        raise ValueError(f"unknown field {next(f for f in data if f not in ('kind', 'format', *dict(_DOCUMENT)))!r}")
    tables = {"stores": [], "streams": [], "terms": [], "nodes": []}
    stores, streams, terms, nodes = tables.values()
    names: set = set()  # the names found to be variables
    (readers, node_readers), table = _readers(), "stores"
    read_node = node_readers.get(data["system"], node_readers[None])
    try:
        for entry in data["stores"]:
            if type(entry) is not dict:
                raise ValueError(f"a store must be an object, got {_got(entry)}")
            for x in entry:
                if type(x) is not str or x not in names:
                    _variable(x, names, "a key")
            stores.append(store_from_json(entry) if entry else EMPTY_STORE)
        table = "streams"
        for entry in data["streams"]:
            streams.append(stream_from_json(entry))
        table = "terms"
        for entry in data["terms"]:
            terms.append(readers[entry[0]](entry, terms, stores, names))
        table = "nodes"
        for entry in data["nodes"]:
            nodes.append(read_node(entry, terms, stores, streams))
    except ValueError as e:
        raise ValueError(f"{table}[{len(tables[table])}]: {e}") from None
    except (LookupError, TypeError):  # from `readers[entry[0]]` alone: the entry is no term
        if table != "terms":
            raise
        raise ValueError(f"terms[{len(terms)}]: {_term_error(entry)}") from None
    return DerivationGraph(data["system"], data["root"], nodes)


def _variable(name, names: set, what: str) -> str:
    """`name`, added to the document's `names`, if it is a string that parses
    as the variable of that very name: no parentheses, blanks or comments
    around it.  `classify --abstract-vars` is laxer, as it takes the name of
    whatever variable an entry parses as, e.g. `(x)` or ` x `."""
    try:
        if type(name) is str and parse_expr(name) == Var(name):
            names.add(name)
            return name
    except ParseError:
        pass
    raise ValueError(f"{what} must be a variable, got {_got(name)}")


def _term_error(entry) -> str:
    """Why a term entry has no reader, or not the length its reader takes."""
    if type(entry) is not list or not entry:
        return f"a term must be an array of a keyword and its fields, got {_got(entry)}"
    cls = _CLASSES.get(entry[0]) if type(entry[0]) is str else None
    if cls is None:
        return f"unknown keyword {_got(entry[0])}"
    return f"{entry[0]} takes {len(_FIELDS[cls])} field(s), got {len(entry) - 1}"


def _bad_cite(field: str, kind: str, index, table: list):
    """Raise why `field` cannot cite entry `index` of `table` as a `kind`."""
    if type(index) is not int or not 0 <= index < len(table):
        raise ValueError(f"field {field!r} must be an index below {len(table)}, got {_got(index)}")
    raise ValueError(f"field {field!r} must cite {_KINDS[kind][1]}, got {_NAMES[type(table[index])]}")


def _malformed(message: str):
    raise ValueError(message)


# Reader code by the kind of a field: an expression that reads the JSON value
# `{v}` of the field `{f}`.  Only a failure builds a message.
_READS = {
    **dict.fromkeys(_KINDS, "t if type({v}) is int and 0 <= {v} < len(terms) and type(t := terms[{v}]) in _{kind} "
                            "else _bad_cite({f!r}, {kind!r}, {v}, terms)"),
    **dict.fromkeys(("Store", "Stream"), "{table}[{v}] if type({v}) is int and 0 <= {v} < len({table}) "
                                         "else _bad_cite({f!r}, {kind!r}, {v}, {table})"),
    "Val": "Nat({v}) if type({v}) is int else val_from_json({v})",
    "lit": "Nat({v}) if type({v}) is int else val_from_json({v}) if {v} != '*' "
           "else _malformed(\"field {f!r} must be a natural or null, got '*'\")",
    "str": "{v} if type({v}) is str and {v} in names else _variable({v}, names, \"field {f!r}\")",
    "op": "{v} if type({v}) is str and {v} in BOPS else _malformed(\"field 'op' must be an operator, got \" + _got({v}))",
}


def _read(v: str, f: str, kind: str, null: bool = False) -> str:
    """The reader code for the value `v` of the field `f`; with `null`, null reads as None."""
    code = _READS[kind].format(v=v, f=f, kind=kind, table=kind.lower() + "s")
    return f"None if {v} is None else {code}" if null else code


@cache
def _readers() -> tuple:
    """Compiled on the first decode, as plans are: keyword -> the reader of
    its term entries, `read(entry, terms, stores, names)`, and system (None:
    any other) -> the reader of its nodes, `read(nd, terms, stores, streams)`.
    A term reader checks the entry's length and reads each field by one
    expression; a node reader reads the fields in the order of `_NODE`, but
    the result before the subject.  A name is parsed once per document."""
    namespace = {f"_{kind}": classes for kind, (classes, _) in _KINDS.items()}
    namespace.update(BOPS=BOPS, GraphNode=GraphNode, Nat=Nat, _NODE=_NODE, _SLOT_TYPES=_SLOT_TYPES, _got=_got,
                     val_from_json=val_from_json, _variable=_variable, _malformed=_malformed, _bad_cite=_bad_cite,
                     _term_error=_term_error)

    def compiled(lines: list, **constants):
        exec("\n".join(lines), scope := dict(namespace, **constants))
        return scope["read"]

    terms, nodes = {}, {}
    for keyword, cls in _CLASSES.items():
        fields = [(f"a{i}", f, "lit" if cls in (Lit, Throw) else "op" if f == "op" else kind)
                  for i, (f, kind) in enumerate(_FIELDS[cls], 1)]
        made = "term" if cls in _SINGLETONS else f"term({', '.join(_read(*field) for field in fields)})"
        terms[keyword] = compiled([
            "def read(entry, terms, stores, names):",
            f"    if type(entry) is not list or len(entry) != {len(fields) + 1}: _malformed(_term_error(entry))",
            f"    _{''.join(', ' + v for v, _, _ in fields)} = entry",
            f"    return {made}",
        ], term=_SINGLETONS.get(cls, cls))
    results = {n: ", ".join(_read(f"result[{i}]", "result", kind, kind == "Stream") for i, kind in enumerate(kinds))
               for n, kinds in _RESULTS.items()}
    for system, rel in [*((system, _own(system)) for system in _SYSTEMS), (None, _Relation((), ()))]:
        nodes[system] = compiled([
            "def read(nd, terms, stores, streams):",
            "    if type(nd) is not dict: _malformed('a node must be an object, got ' + _got(nd))",
            f"    try: {', '.join(_NODE)} = {', '.join(f'nd[{f!r}]' for f in _NODE)}",
            "    except KeyError as e: _malformed(f'field {e.args[0]!r} is missing')",
            "    if len(nd) != len(_NODE): _malformed(f'unknown field {next(f for f in nd if f not in _NODE)!r}')",
            "    if type(rule) is not str: _malformed(\"field 'rule' must be a string, got \" + _got(rule))",
            "    if type(premises) is not list or not _SLOT_TYPES.issuperset(map(type, premises)):",
            "        _malformed(\"field 'premises' must be an array of node indices and nulls, got \" + _got(premises))",
            "    if result is not None and (type(result) is not list or not 2 <= len(result) <= 3):",
            "        _malformed(\"field 'result' must be null or an array of 2 or 3 entries, got \" + _got(result))",
            f"    result = None if result is None else ({results[3]}) if len(result) == 3 else ({results[2]})",
            f"    return GraphNode({rel.node!r}, {_read('subject', 'subject', rel.subject)},"
            f" {_read('store', 'store', 'Store')}, {_read('flag_in', 'flag_in', 'Status', True)},"
            f" {_read('stream', 'stream', 'Stream')}, result, rule, tuple(premises))",
        ])
    return terms, nodes


def _got(value) -> str:
    """A malformed JSON value as a message names it: a string or a number
    quoted, in at most 80 characters, anything else by its JSON type."""
    t = type(value)
    if t is str or t is float or t is int and value.bit_length() < 64:
        return quoted(value)
    return f"an array of {len(value)}" if t is list else _JSON_TYPES.get(t, t.__name__)


def check_certificate(cert: DerivationGraph, fuel: int = DEFAULT_CHECK_FUEL) -> Optional[str]:
    """First problem with the certificate, or None if it proves that its
    program diverges from a normal start.

    The graph must be a valid derivation (`graph_error`) whose root claims
    divergence from a normal start (`certificate_claim`).  A graph that is
    invalid nowhere, but has a premise whose evaluation did not finish
    within `fuel`, is undecided: its problem is an `Undecided`."""
    error = graph_error(cert, fuel=fuel)
    if error is not None and not isinstance(error, Undecided):
        return error
    try:
        certificate_claim(cert)
    except ValueError as ex:
        return str(ex)
    return error


def certificate_claim(g: DerivationGraph) -> tuple:
    """What the root of a graph that `graph_error` does not reject claims, as
    `(system, program, store, stream, projected)`: that `program`, started
    normally from `store` and `stream`, diverges, `projected` being the
    variables that `store` maps to `*`.  No result store is part of it: a
    diverging flag-co judgment's result is unconstrained.  ValueError if the
    root is not the claim `prove_divergence` starts from: a plain subject,
    input status `down`, and the divergent target (in pretty-co the outcome
    `div`, in flag-co the status `up`)."""
    own = _own(g.system)
    source, target = _judgment(own, g.nodes[g.root])
    program = _plain(own, source)
    if program is None:
        raise ValueError("root does not claim divergence: it does not start normally (a plain command, status down)")
    role = _mismatch(own.target, target, _target(own.claim, source[-1]))
    if role is not None:
        raise ValueError(f"root does not claim divergence: its {role} is not the divergent one")
    store = source[1]
    return g.system, program, store, source[-1], tuple(x for x, v in store.items() if v == ANY_NAT)
