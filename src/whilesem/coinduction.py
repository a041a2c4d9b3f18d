"""Finite certificates of divergence, and their checkers.

Two certificate shapes are supported:

* A **lasso** certifies an infinite small-step run: a stem of concrete
  configurations followed by a non-empty cycle.  Every adjacent pair must be
  one valid `step`, and stepping the last cycle configuration must land back
  on the first one — exactly, or up to the lasso's *projected* variables,
  whose concrete values it ignores.  Projection keeps null-ness and the
  store domain intact (a variable holding some natural matches a variable
  holding any other natural, but never null or absence), and it is sound
  only when no projected variable occurs in any if/while guard, so the
  replayed run takes the same branches forever.

* A **derivation graph** certifies membership in one of the three
  coinductive judgment systems ("div-pred", "pretty-co", "flag-co"): nodes
  are concrete judgments, each justified by a named rule whose recursive
  premises are ordered edges (back-edges allowed — that is the coinduction).
  Premises of the auxiliary inductive relations (plain big-step and all
  expression evaluation) are not stored: the checker discharges them by
  running the corresponding evaluator.  A recursive premise slot may also be
  `None`, meaning "discharge by execution", which keeps certificates small
  when a sub-derivation is finite.

  The checker interprets the shipped rule files: `div_pred.rules`,
  `pretty_big.rules`, and `flag_based.rules` with `throw_catch_input.rules`.
  Each rule on a system's own relation is compiled once into a plan, a
  small Python function: match the node against the conclusion, run the
  premises and side conditions in textual order, compare the node's label
  with the conclusion target.  The side conditions take five forms:
  `x in dom sigma`, `x notin dom sigma`, `nonzero v`, `zero v` and
  `delta notin exc`; a rule outside the tables raises when compiled.  Two
  conventions of the format are not in the rules: a premise node covers
  the instance a rule demands when it is equal or more general (a `*`
  covers any natural), and under a status other than `down` stores are not
  compared, under `up` (or `div`) streams neither.

  Node labels may mention the abstract value `*` (any natural): such a node
  stands for the whole family of concrete judgments, which is what makes
  store-growing loops finitely representable.  The evaluators treat `*`
  precisely (arithmetic stays abstract, guards over it are stuck), so every
  abstract rule instance the checker accepts instantiates to a valid
  concrete instance for every natural.

`prove_divergence` runs the same plans forward, as a goal-directed search
for a derivation graph of the requested system: each divergence claim
tries the plans of its construct until one holds, and a claim already in
the graph closes a cycle.  Inside a plan, a premise on another relation
is run at bounded fuel; an own-relation premise other than the last is
run too, and is claimed to diverge only when that run does not finish;
the last one is claimed to diverge without a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import count
from typing import Optional

# `parse_cmd` and `parser.parse_expr` are looked up when each decode starts
# (as a global here and on the module), because the benchmark's tracer
# (bench/spans.py) rebinds them there.
from . import parser
from .big_step import Done, OutOfFuel, eval_big
from .derivation import DerivTree
from .flag_based import FlagResult, eval_expr_flag, eval_flag
from .parser import ParseError, parse_cmd, pretty_cmd, pretty_expr
from .pretty_big import DoneP, eval_pretty
from .rule_dsl import Atom, Group, Judgment, RuleParseError, SideCondition, _construct_head, load_ruleset
from .small_step import ExprStuck, SmallConfig, eval_expr, guard_nonzero, step
from .syntax import (
    ANY_NAT,
    Alloc,
    AnyNat,
    Assign,
    Assign2,
    Catch,
    Cmd,
    ConvO,
    DIV,
    DOWN,
    DivO,
    Down,
    EMPTY_STORE,
    Exc,
    If,
    If2,
    InputStream,
    NULL,
    Nat,
    Null,
    Outcome,
    Plain,
    SemCmd,
    Seq,
    Seq2,
    Skip,
    Status,
    Store,
    Throw,
    Up,
    UP,
    While,
    While2,
    While3,
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
            name = sorted(clash)[0]
            raise AbstractionUnsound(
                f"projected variable {name} occurs in a guard expression"
            )


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
    (modulo the projected variables).  Returns None on termination,
    stuckness, or fuel exhaustion without a repeat."""
    check_abstraction(projected, cfg.cmd)
    seen = {_config_key(cfg, projected): 0}
    trail = [cfg]
    cur = cfg
    for _ in range(fuel):
        nxt = step(cur)
        if nxt is None:
            return None
        k = _config_key(nxt, projected)
        hit = seen.get(k)
        if hit is not None:
            return Lasso(tuple(trail[:hit]), tuple(trail[hit:]), frozenset(projected))
        seen[k] = len(trail)
        trail.append(nxt)
        cur = nxt
    return None


def lasso_error(lasso: Lasso) -> Optional[str]:
    """First problem that makes the lasso invalid, or None if it is valid."""
    if not lasso.cycle:
        return "cycle is empty"
    # Every command a valid run reaches is built from subterms of the
    # first, so none has a guard the first lacks; an invalid step is
    # rejected below.
    try:
        check_abstraction(lasso.projected, lasso.cycle[0].cmd)
    except AbstractionUnsound as ex:
        return f"cycle[0]: {ex}"
    chain = list(lasso.prefix) + list(lasso.cycle)
    for i in range(len(chain) - 1):
        if step(chain[i]) != chain[i + 1]:
            return f"position {i}: not a valid step"
    closing = step(lasso.cycle[-1])
    if closing is None:
        return "cycle end is terminal or stuck"
    if _config_key(closing, lasso.projected) != _config_key(lasso.cycle[0], lasso.projected):
        return "cycle does not close (even modulo the abstraction)"
    return None


def lasso_to_json(lasso: Lasso) -> dict:
    return {
        "kind": "lasso",
        "abstract_vars": sorted(lasso.projected),
        "prefix": [config_to_json(c) for c in lasso.prefix],
        "cycle": [config_to_json(c) for c in lasso.cycle],
    }


def lasso_from_json(data: dict) -> Lasso:
    if data.get("kind") != "lasso":
        raise ValueError("not a lasso")
    read = _readers()
    projected = _typed(data.get("abstract_vars", []), list, "abstract_vars")
    return Lasso(
        tuple(_config_unjson(c, read) for c in _typed(data["prefix"], list, "prefix")),
        tuple(_config_unjson(c, read) for c in _typed(data["cycle"], list, "cycle")),
        frozenset(_typed(x, str, "abstract variable") for x in projected),
    )


def config_to_json(cfg: SmallConfig) -> dict:
    return {
        "cmd": pretty_cmd(cfg.cmd),
        "store": store_to_json(cfg.store),
        "stream": stream_to_json(cfg.stream),
    }


def _config_unjson(data: dict, read: dict) -> SmallConfig:
    return SmallConfig(
        _read(read, "Cmd", data["cmd"], "cmd"),
        store_from_json(data["store"]),
        stream_from_json(data["stream"]),
    )


# ---------------------------------------------------------------------------
# Derivation graphs


@dataclass
class GraphNode:
    relation: str  # "inf" | "pretty" | "flag"
    subject: object  # Cmd | SemCmd
    store: Store
    flag_in: Optional[Status]
    stream: InputStream
    # None in div-pred; (outcome, stream) in pretty-co, (status, store,
    # stream) in flag-co, the stream None once the judgment diverges
    result: Optional[tuple]
    rule: str
    premises: tuple[Optional[int], ...]


@dataclass
class DerivationGraph:
    system: str
    root: int
    nodes: list[GraphNode]


# Per system: the rule files that define it, the relation of its own
# judgments there, and the relation name its graph nodes carry.  A rule's
# recursive-premise slots are its premises on that relation; premises on
# other relations are discharged by execution.
_RULE_SOURCES = {
    "div-pred": (("div_pred",), "D", "inf"),
    "pretty-co": (("pretty_big",), "P", "pretty"),
    "flag-co": (("flag_based", "throw_catch_input"), "G", "flag"),
}


class _BadNode(Exception):
    """Why a node is no instance of the rule it names."""


def graph_error(g: DerivationGraph, fuel: int = DEFAULT_CHECK_FUEL) -> Optional[str]:
    """First problem that makes the graph invalid, or None if it is valid."""
    system = g.system
    if system not in SYSTEMS:
        return f"unknown system {system!r}"
    if not g.nodes:
        return "graph has no nodes"
    if not (0 <= g.root < len(g.nodes)):
        return f"root {g.root} out of range"
    _, relation, node_relation = _RULE_SOURCES[system]
    plans = _plans(system)
    views = []
    for nid, node in enumerate(g.nodes):
        if node.relation != node_relation:
            return f"node {nid}: relation {node.relation!r} does not belong to {system}"
        plan = plans.get(node.rule)
        if plan is None:
            return f"node {nid}: unknown rule {node.rule!r}"
        if len(node.premises) != plan.arity:
            return f"node {nid}: rule {node.rule} takes {plan.arity} premise(s), got {len(node.premises)}"
        for slot in node.premises:
            if slot is not None and not (0 <= slot < len(g.nodes)):
                return f"node {nid}: premise reference {slot} out of range"
        try:
            views.append(_judgment(relation, node))
        except _BadNode as ex:
            return f"node {nid}: {ex}"
    for nid, node in enumerate(g.nodes):
        try:
            plans[node.rule].check(views[nid], partial(_cited, views, iter(node.premises), fuel))
        except _BadNode as ex:
            return f"node {nid} ({node.rule}): {ex}"
    return None


def _judgment(relation: str, node: GraphNode) -> tuple:
    """The node's source and target tuples, in the order of its relation's
    signature; _BadNode when its status and result do not fit the relation.
    A result records its final stream exactly when the judgment does not
    diverge; as a premise, a divergent judgment continues with its input
    stream."""
    r = node.result
    if relation == "D":
        if r is not None or node.flag_in is not None:
            raise _BadNode("a divergence judgment carries no status and no result")
        return (node.subject, node.store, node.stream), ()
    if relation == "P":
        if node.flag_in is not None or not (type(r) is tuple and len(r) == 2 and isinstance(r[0], Outcome)):
            raise _BadNode("node needs an outcome label and no status")
        source = (node.subject, node.store, node.stream)
    else:
        if not isinstance(node.flag_in, Status) or not (type(r) is tuple and len(r) == 3 and isinstance(r[0], Status)):
            raise _BadNode("node needs an input status and a status label")
        source = (node.subject, node.store, node.flag_in, node.stream)
    status, stream_out = r[0], r[-1]
    diverges = isinstance(status, (Up, DivO))
    if (stream_out is None) != diverges:
        raise _BadNode("a label records its final stream exactly when the judgment does not diverge")
    stream_out = node.stream if diverges else stream_out
    return source, (status, stream_out) if relation == "P" else (r[1], status, stream_out)


# The role of each component of an own relation's source and target tuples.
# A pretty-big outcome plays the status: `conv` reads as `down`, `div` as `up`.
_ROLES = {
    "D": (("subject", "store", "stream"), ()),
    "P": (("subject", "store", "stream"), ("status", "stream")),
    "G": (("subject", "store", "status", "stream"), ("store'", "status", "stream")),
}


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
_SEMANTIC = (Assign2, Seq2, If2, While2, While3)

# Keyword -> the constructor it denotes; its arguments fill the fields in
# order.  `update sigma x v` stands for `sigma.update(x, v)`.
_CONSTRUCTORS = {
    cls.__name__.lower(): cls
    for cls in (Skip, Alloc, Assign, Seq, If, While, Throw, Catch, Null, Down, Up, Exc) + _SEMANTIC
}
_CONSTRUCTORS.update(conv=ConvO, div=DivO, update=Store.update)
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

# Relation -> the source and target lengths of the premises that `_run`
# discharges by running its evaluator.
_EVALUATED = {"E": (3, 2), "B": (3, 2), "GE": (4, 3), "P": (3, 2), "G": (4, 3)}


def _run(relation: str, source: tuple, fuel: int):
    """Discharge a premise by execution: its target tuple, or else what the
    evaluator returned instead (`OutOfFuel`, `Stuck`, or None for a stuck
    expression).  The evaluators are looked up at each call, so a tracer
    that rebinds them in this module sees the provers' and checker's runs."""
    if relation == "E":
        try:
            return eval_expr(*source)
        except ExprStuck:
            return None
    if relation == "GE":
        r = eval_expr_flag(*source)
        return (r.value, r.status, r.stream) if isinstance(r, FlagResult) else r
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
    relation.  Returns the premise's target tuple."""
    slot = next(slots) if kind else None
    if slot is not None:
        got, result = views[slot]
        role = _mismatch(_ROLES[relation][0], got, premise)
        if role is not None:
            raise _BadNode(f"node {slot} does not cover {text}: {role} mismatch")
        return result
    if relation not in _EVALUATED:
        raise _BadNode(f"{text} must cite a node: its relation has no evaluator")
    result = _run(relation, premise, fuel)
    if type(result) is not tuple:
        raise _BadNode(f"{text} does not hold: its evaluation did not finish")
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
    f = _CONSTRUCTORS.get(head.text) if isinstance(head, Atom) else None
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
    through the cited nodes (`_cited`), proving by search (`_search`).
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
            shape = tuple(map(len, _ROLES[own])) if j.relation == own else _EVALUATED.get(j.relation)
            if j.implicit or (len(j.source), len(j.target)) != shape:
                raise RuleParseError(f"{where}: the checker cannot interpret {j}")
            ts = [_term(c, where, matched) for c in (j.source if source else j.target)]
            if j.relation == "P" and source and not (type(ts[0]) is tuple and ts[0][0] in _SEMANTIC):
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
        lines.append(f"    role = _mismatch({const(_ROLES[own][1])}, target, ({want}))")
        lines.append("    if role is not None: raise _BadNode(f'conclusion {role} mismatch')")
        self.label, self.arity = rule.label, sum(j.relation == own for j in rule.premises)
        self.head = _CONSTRUCTORS.get(_construct_head(conclusion))  # None: any construct
        self.size = len(rule.premises)
        self.source = "\n".join(lines)
        exec(self.source, consts)
        self.check = consts["check"]


@cache
def _plans(system: str) -> dict:
    """Rule label -> plan, for every rule on the system's own relation."""
    files, own, _ = _RULE_SOURCES[system]
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


def _plain(relation: str, source: tuple) -> Optional[Cmd]:
    """The command of a judgment source that starts it normally, else None."""
    if relation == "G" and not isinstance(source[2], Down):
        return None
    c = source[0].cmd if type(source[0]) is Plain else source[0]
    return None if isinstance(c, _SEMANTIC) else c


# Per own relation: the result of a divergence claim, and its target tuple
# (as `_judgment` reads the result) for the claim's input stream.
_CLAIMS = {
    "D": (None, lambda stream: ()),
    "P": ((DIV, None), lambda stream: (DIV, stream)),
    "G": ((UP, EMPTY_STORE, None), lambda stream: (EMPTY_STORE, UP, stream)),
}


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
    _, own, node_relation = _RULE_SOURCES[system]
    claim, diverging = _CLAIMS[own]
    order, concrete = _search_order(system), not projected
    edges: list = []  # per own-relation premise of an attempt: a source claimed to diverge, or None

    def resolve(kind: int, relation: str, premise: tuple, text: str) -> tuple:
        if kind < 2 and relation in _EVALUATED:
            cmd = _plain(relation, premise) if concrete and relation not in ("E", "GE") else None
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
        return diverging(premise[-1])

    nodes: list[GraphNode] = []
    ids: dict = {}
    budget = max(4 * fuel, 1000)
    # (claim, citing node, slot); first the program started normally: a plain
    # subject and, in flag-co, input status `down`
    start = (c, store, DOWN, stream) if own == "G" else (Plain(c) if own == "P" else c, store, stream)
    todo = [(start, None, 0)]
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
            view = (source, diverging(source[-1]))
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
            nodes.append(GraphNode(node_relation, subject, source[1], flag_in, source[-1], claim, plan.label, premises))
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
    relation = _RULE_SOURCES[system][2]
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
# JSON serialization of terms and graphs


# A status, an outcome or a pretty-big subject is written by its keyword in
# the rule files: without fields as the keyword, with one field as
# {keyword: field}, with more as {keyword: {field: ...}}, `orelse` written
# `else`.  Each field is written by its kind, the name its annotation gives.
_KEYWORDS = {cls: keyword for keyword, cls in dict(_CONSTRUCTORS, plain=Plain).items()}
# Per position a term is decoded at, keyed like a field kind ("Outcome"):
# its name in messages, keyword -> class, and keyword -> constant.
_POSITIONS = {
    kind: (what, {_KEYWORDS[c]: c for c in union.__args__},
           {_KEYWORDS[c]: _SINGLETONS[c] for c in union.__args__ if not c.__match_args__})
    for kind, what, union in (
        ("Status", "status", Status), ("Outcome", "outcome", Outcome), ("SemCmd", "subject", SemCmd)
    )
}
# Term class -> its fields: (attribute, JSON name, kind).
_FIELDS = {
    cls: tuple((f, "else" if f == "orelse" else f, cls.__annotations__[f]) for f in cls.__match_args__)
    for _, allowed, _ in _POSITIONS.values()
    for cls in allowed.values()
}


def term_to_json(t) -> object:
    """A status, outcome or pretty-big subject as JSON, by its keyword."""
    keyword, fields = _KEYWORDS[type(t)], _FIELDS[type(t)]
    if not fields:
        return keyword
    if len(fields) == 1:
        return {keyword: _WRITERS[fields[0][2]](getattr(t, fields[0][0]))}
    return {keyword: {name: _WRITERS[kind](getattr(t, f)) for f, name, kind in fields}}


_WRITERS = {"Val": val_to_json, "Store": store_to_json, "Outcome": term_to_json, "Cmd": pretty_cmd,
            "Expr": pretty_expr, "str": str}


def _read_term(position: str, data, read: Optional[dict] = None) -> object:
    """The term at a decoded position ("Status", "Outcome" or "SemCmd"), the
    inverse of `term_to_json`.  `read` holds the field readers by kind; only
    a subject's command and guard texts need those of a decode (`_readers`)."""
    read = read or _READERS
    what, allowed, constants = _POSITIONS[position]
    if type(data) is str and constants:
        if data not in constants:
            raise ValueError(f"unknown {what}: {quoted(data)}")
        return constants[data]
    (keyword, payload), = _typed(data, dict, what).items()
    cls = allowed.get(keyword)
    fields = _FIELDS.get(cls)
    if not fields:
        raise ValueError(f"unknown {what}: {quoted(data)}")
    if len(fields) == 1:
        return cls(_read(read, fields[0][2], payload, keyword))
    return cls(*[_read(read, kind, payload[name], name) for _, name, kind in fields])


def _read(read: dict, kind: str, data, what: str) -> object:
    """Field `what` of a decode, read by its kind.  Command and guard text
    must be a string before the decode's parse memo sees it."""
    return read[kind](_typed(data, str, what) if kind in ("Cmd", "Expr") else data)


_READERS = {"Val": val_from_json, "Store": store_from_json, "str": lambda x: _typed(x, str, "variable"),
            "Outcome": partial(_read_term, "Outcome")}


def _readers() -> dict:
    """The field readers of one decode, with its parse memo: each distinct
    command or guard text is parsed once, and equal texts share one tree.
    Nothing refers back to the dict, so the memo dies with the decode."""
    return dict(_READERS, Cmd=cache(parse_cmd), Expr=cache(parser.parse_expr))


def _result_to_json(r: Optional[tuple]) -> object:
    if r is None:
        return None
    stream = None if r[-1] is None else stream_to_json(r[-1])
    if len(r) == 2:
        return {"outcome": term_to_json(r[0]), "stream": stream}
    return {"status": term_to_json(r[0]), "store": store_to_json(r[1]), "stream": stream}


def _result_from_json(relation: str, data) -> Optional[tuple]:
    if data is None:
        return None
    if relation == "pretty":
        head = (_read_term("Outcome", data["outcome"]),)
    else:
        head = (_read_term("Status", data["status"]), store_from_json(data["store"]))
    return head + (None if data["stream"] is None else stream_from_json(data["stream"]),)


def graph_to_json(g: DerivationGraph) -> dict:
    return {
        "kind": "derivation-graph",
        "system": g.system,
        "root": g.root,
        "nodes": [
            {
                "id": i,
                "relation": n.relation,
                "rule": n.rule,
                "subject": term_to_json(n.subject) if n.relation == "pretty" else pretty_cmd(n.subject),
                "store": store_to_json(n.store),
                "flag_in": None if n.flag_in is None else term_to_json(n.flag_in),
                "stream": stream_to_json(n.stream),
                "result": _result_to_json(n.result),
                "premises": list(n.premises),
            }
            for i, n in enumerate(g.nodes)
        ],
    }


def graph_from_json(data: dict) -> DerivationGraph:
    if data.get("kind") != "derivation-graph":
        raise ValueError("not a derivation graph")
    read = _readers()
    nodes = []
    for nd in _typed(data["nodes"], list, "nodes"):
        relation, premises = nd["relation"], _typed(nd["premises"], list, "premises")
        subject = nd["subject"]
        nodes.append(
            GraphNode(
                relation,
                _read_term("SemCmd", subject, read) if relation == "pretty" else _read(read, "Cmd", subject, "subject"),
                store_from_json(nd["store"]),
                None if nd["flag_in"] is None else _read_term("Status", nd["flag_in"]),
                stream_from_json(nd["stream"]),
                _result_from_json(relation, nd["result"]),
                _typed(nd["rule"], str, "rule"),
                tuple(p if p is None else _typed(p, int, "premise") for p in premises),
            )
        )
    system, root = _typed(data["system"], str, "system"), _typed(data["root"], int, "root")
    return DerivationGraph(system, root, nodes)


def _typed(value, kind: type, what: str):
    """`value` if it is a `kind` (a boolean is no int), else ValueError."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be {kind.__name__}, got {type(value).__name__}")


def check_certificate(
    cert: Lasso | DerivationGraph, fuel: int = DEFAULT_CHECK_FUEL
) -> Optional[str]:
    """First problem with the certificate, or None if it proves that its
    program diverges from a normal start.

    A lasso proves that its first configuration diverges.  A graph must be
    a valid derivation (`graph_error`) whose root claims divergence from a
    normal start: in pretty-co a plain command with outcome `div`, in
    flag-co input status `down` and result status `up`.  Every div-pred
    judgment is such a claim."""
    if isinstance(cert, Lasso):
        return lasso_error(cert)
    return graph_error(cert, fuel=fuel) or _root_claim_error(cert)


def _root_claim_error(g: DerivationGraph) -> Optional[str]:
    """Whether the root is the claim `prove_divergence` starts from: a plain
    subject, input status `down`, and the divergent target."""
    relation = _RULE_SOURCES[g.system][1]
    source, target = _judgment(relation, g.nodes[g.root])
    if _plain(relation, source) is None:
        return "root does not claim divergence: it does not start normally (a plain command, status down)"
    role = _mismatch(_ROLES[relation][1], target, _CLAIMS[relation][1](source[-1]))
    if role is not None:
        return f"root does not claim divergence: its {role} is not the divergent one"
    return None


def certificate_to_json(cert: Lasso | DerivationGraph) -> dict:
    if isinstance(cert, Lasso):
        return lasso_to_json(cert)
    return graph_to_json(cert)


def certificate_from_json(data: dict) -> Lasso | DerivationGraph:
    """Decode a certificate document; a malformed one raises ValueError."""
    _typed(data, dict, "certificate")
    try:
        if data.get("kind") == "lasso":
            return lasso_from_json(data)
        return graph_from_json(data)
    except (KeyError, TypeError) as e:
        raise ValueError(f"missing or mistyped field: {e}") from e
    except ParseError as e:
        raise ValueError(f"unparseable command text: {e}") from e

