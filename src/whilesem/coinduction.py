"""Finite certificates of divergence, and their checkers.

Two certificate shapes are supported:

* A **lasso** certifies an infinite small-step run: a stem of concrete
  configurations followed by a non-empty cycle.  Every adjacent pair must be
  one valid `step`, and stepping the last cycle configuration must land back
  on the first one — exactly, or up to the lasso's *abstraction*, which
  projects away the concrete value of designated variables.  Projection
  keeps null-ness and the store domain intact (a variable holding some
  natural matches a variable holding any other natural, but never null or
  absence), and it is sound only when no projected variable occurs in any
  if/while guard, so the replayed run takes the same branches forever.

* A **derivation graph** certifies membership in one of the three
  coinductive judgment systems ("div-pred", "pretty-co", "flag-co"): nodes
  are concrete judgments, each justified by a named rule whose recursive
  premises are ordered edges (back-edges allowed — that is the coinduction).
  Premises of the auxiliary inductive relations (plain big-step and all
  expression evaluation) are not stored: the checker discharges them by
  running the corresponding evaluator.  A recursive premise slot may also be
  `None`, meaning "discharge by execution", which keeps certificates small
  when a sub-derivation is finite.

  Node labels may mention the abstract value `*` (any natural): such a node
  stands for the whole family of concrete judgments, which is what makes
  store-growing loops finitely representable.  The evaluators treat `*`
  precisely (arithmetic stays abstract, guards over it are stuck), so every
  abstract rule instance the checker accepts instantiates to a valid
  concrete instance for every natural.

`prove_divergence` first looks for a lasso (or takes the one its caller
found) and then builds a derivation graph for the requested system by
structural descent.  Which premise of a composite command diverges is
decided by a small-step lasso search on the concrete premise, and by
fuel-bounded evaluation when that search finds no exact repeat.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Union

from .big_step import Done, OutOfFuel, eval_big
from .derivation import DerivTree
from .flag_based import FlagResult, OutOfFuelF, eval_expr_flag, eval_flag
from .parser import parse_cmd, pretty_cmd
from .pretty_big import DoneP, OutOfFuelP, eval_pretty
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
    Outcome,
    Plain,
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
    cmd_has_input,
    expr_vars,
    guard_exprs,
    outcome_from_json,
    outcome_to_json,
    status_from_json,
    status_to_json,
    store_from_json,
    store_to_json,
    stream_from_json,
    stream_to_json,
)

SYSTEMS = ("div-pred", "pretty-co", "flag-co")

DEFAULT_CHECK_FUEL = 100_000


# ---------------------------------------------------------------------------
# Abstraction


@dataclass(frozen=True)
class Abstraction:
    """Projects away the concrete numeric value of the given variables."""

    projected: frozenset[str] = frozenset()

    @classmethod
    def none(cls) -> "Abstraction":
        return cls()

    @classmethod
    def of(cls, *names: str) -> "Abstraction":
        return cls(frozenset(names))


class AbstractionUnsound(Exception):
    pass


def check_abstraction(abstraction: Abstraction, c: Cmd) -> None:
    """Reject projections of variables that some guard reads."""
    if not abstraction.projected:
        return
    for g in guard_exprs(c):
        clash = expr_vars(g) & abstraction.projected
        if clash:
            name = sorted(clash)[0]
            raise AbstractionUnsound(
                f"projected variable {name} occurs in a guard expression"
            )


def _project_store(store: Store, projected: frozenset[str]):
    """Hashable key for a store modulo projection.

    Projected naturals collapse to a single marker; null-ness and the
    domain are preserved, so matching states agree on definedness.
    """
    return tuple(
        (x, "#nat" if x in projected and isinstance(v, (Nat, AnyNat)) else v)
        for x, v in store.items()
    )


def abstract_store(store: Store, abstraction: Abstraction) -> Store:
    """Replace projected naturals with the abstract any-natural value."""
    if not abstraction.projected:
        return store
    return Store(
        {
            x: ANY_NAT if x in abstraction.projected and isinstance(v, Nat) else v
            for x, v in store.items()
        }
    )


def _config_key(cfg: SmallConfig, abstraction: Abstraction):
    cursor = cfg.stream.cursor if cmd_has_input(cfg.cmd) else None
    return (cfg.cmd, _project_store(cfg.store, abstraction.projected), cursor)


# ---------------------------------------------------------------------------
# Lassos


@dataclass(frozen=True)
class Lasso:
    prefix: tuple[SmallConfig, ...]
    cycle: tuple[SmallConfig, ...]
    abstraction: Abstraction = Abstraction.none()


def detect_lasso(cfg: SmallConfig, fuel: int, abstraction: Abstraction = Abstraction.none()) -> Optional[Lasso]:
    """Run at most `fuel` steps looking for a repeated configuration
    (modulo the abstraction).  Returns None on termination, stuckness, or
    fuel exhaustion without a repeat."""
    check_abstraction(abstraction, cfg.cmd)
    seen = {_config_key(cfg, abstraction): 0}
    trail = [cfg]
    cur = cfg
    for _ in range(fuel):
        if cur.terminal():
            return None
        nxt = step(cur)
        if nxt is None:
            return None
        key = _config_key(nxt, abstraction)
        hit = seen.get(key)
        if hit is not None:
            return Lasso(tuple(trail[:hit]), tuple(trail[hit:]), abstraction)
        seen[key] = len(trail)
        trail.append(nxt)
        cur = nxt
    return None


def lasso_error(lasso: Lasso) -> Optional[str]:
    """First problem that makes the lasso invalid, or None if it is valid."""
    if not lasso.cycle:
        return "cycle is empty"
    for i, cfg in enumerate(lasso.cycle):
        try:
            check_abstraction(lasso.abstraction, cfg.cmd)
        except AbstractionUnsound as ex:
            return f"cycle[{i}]: {ex}"
    chain = list(lasso.prefix) + list(lasso.cycle)
    for i in range(len(chain) - 1):
        if step(chain[i]) != chain[i + 1]:
            return f"position {i}: not a valid step"
    closing = step(lasso.cycle[-1])
    if closing is None:
        return "cycle end is terminal or stuck"
    if _config_key(closing, lasso.abstraction) != _config_key(lasso.cycle[0], lasso.abstraction):
        return "cycle does not close (even modulo the abstraction)"
    return None


def lasso_to_json(lasso: Lasso) -> dict:
    return {
        "kind": "lasso",
        "abstract_vars": sorted(lasso.abstraction.projected),
        "prefix": [_config_json(c) for c in lasso.prefix],
        "cycle": [_config_json(c) for c in lasso.cycle],
    }


def lasso_from_json(data: dict) -> Lasso:
    if data.get("kind") != "lasso":
        raise ValueError("not a lasso")
    return Lasso(
        tuple(_config_unjson(c) for c in data["prefix"]),
        tuple(_config_unjson(c) for c in data["cycle"]),
        Abstraction(frozenset(data.get("abstract_vars", ()))),
    )


def _config_json(cfg: SmallConfig) -> dict:
    return {
        "cmd": pretty_cmd(cfg.cmd),
        "store": store_to_json(cfg.store),
        "stream": stream_to_json(cfg.stream),
    }


def _config_unjson(data: dict) -> SmallConfig:
    return SmallConfig(
        parse_cmd(data["cmd"]),
        store_from_json(data["store"]),
        stream_from_json(data["stream"]),
    )


# ---------------------------------------------------------------------------
# Derivation graphs


@dataclass(frozen=True)
class PrettyLabel:
    outcome: Outcome
    stream_out: Optional[InputStream]  # None once the judgment diverges


@dataclass(frozen=True)
class FlagLabel:
    status: Status
    store_out: Store  # empty sentinel unless status is Down
    stream_out: Optional[InputStream]  # None when status is Up


@dataclass
class GraphNode:
    relation: str  # "inf" | "pretty" | "flag"
    subject: object  # Cmd | SemCmd
    store: Store
    flag_in: Optional[Status]
    stream: InputStream
    result: Optional[object]  # None | PrettyLabel | FlagLabel
    rule: str
    premises: tuple[Optional[int], ...]


@dataclass
class DerivationGraph:
    system: str
    root: int
    nodes: list[GraphNode]


# recursive-premise slot count per rule
RULE_PREMISES = {
    "div-pred": {
        "D-Seq1": 1,
        "D-Seq2": 1,
        "D-If": 1,
        "D-IfZ": 1,
        "D-WhileBody": 1,
        "D-While": 1,
    },
    "pretty-co": {
        "P-Skip": 0,
        "P-Alloc": 0,
        "P-Assign1": 1,
        "P-Assign2": 0,
        "P-Seq1": 2,
        "P-Seq2": 1,
        "P-Seq-Abort": 0,
        "P-If": 1,
        "P-If2": 1,
        "P-IfZ2": 1,
        "P-While": 1,
        "P-While2": 2,
        "P-WhileZ2": 0,
        "P-While3": 1,
        "P-While-Abort": 0,
    },
    "flag-co": {
        "F-Skip": 0,
        "F-Alloc": 0,
        "F-Assign": 0,
        "F-Seq": 2,
        "F-If": 1,
        "F-IfZ": 1,
        "F-While": 2,
        "F-WhileZ": 0,
        "F-Div": 0,
        "F-Exc": 0,
        "F-Throw": 0,
        "F-Catch": 1,
        "F-Catch-Some": 2,
    },
}

_RELATION_OF = {"div-pred": "inf", "pretty-co": "pretty", "flag-co": "flag"}


class _BadNode(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def graph_error(
    g: DerivationGraph, system: Optional[str] = None, fuel: int = DEFAULT_CHECK_FUEL
) -> Optional[str]:
    """First problem that makes the graph invalid, or None if it is valid."""
    system = system or g.system
    if system not in SYSTEMS:
        return f"unknown system {system!r}"
    if not g.nodes:
        return "graph has no nodes"
    if not (0 <= g.root < len(g.nodes)):
        return f"root {g.root} out of range"
    relation = _RELATION_OF[system]
    table = RULE_PREMISES[system]
    for nid, node in enumerate(g.nodes):
        if node.relation != relation:
            return f"node {nid}: relation {node.relation!r} does not belong to {system}"
        arity = table.get(node.rule)
        if arity is None:
            return f"node {nid}: unknown rule {node.rule!r}"
        if len(node.premises) != arity:
            return f"node {nid}: rule {node.rule} takes {arity} premise(s), got {len(node.premises)}"
        for slot in node.premises:
            if slot is not None and not (0 <= slot < len(g.nodes)):
                return f"node {nid}: premise reference {slot} out of range"
        label_problem = _label_error(system, node)
        if label_problem:
            return f"node {nid}: {label_problem}"
        try:
            if system == "div-pred":
                _check_div_node(g, node, fuel)
            elif system == "pretty-co":
                _check_pretty_node(g, node, fuel)
            else:
                _check_flag_node(g, node, fuel)
        except _BadNode as ex:
            return f"node {nid} ({node.rule}): {ex.reason}"
    return None


def check_derivation_graph(
    g: DerivationGraph, system: Optional[str] = None, fuel: int = DEFAULT_CHECK_FUEL
) -> bool:
    return graph_error(g, system, fuel) is None


def _label_error(system: str, node: GraphNode) -> Optional[str]:
    if system == "div-pred":
        if node.result is not None:
            return "divergence judgments carry no result label"
        if node.flag_in is not None:
            return "divergence judgments carry no status"
        return None
    if system == "pretty-co":
        if not isinstance(node.result, PrettyLabel):
            return "node needs an outcome label"
        if node.flag_in is not None:
            return "this judgment form carries no status"
        if isinstance(node.result.outcome, ConvO) and node.result.stream_out is None:
            return "a converged label must record its final stream"
        if isinstance(node.result.outcome, DivO) and node.result.stream_out is not None:
            return "a divergent label has no final stream"
        return None
    if not isinstance(node.result, FlagLabel):
        return "node needs a status label"
    if not isinstance(node.flag_in, Status):
        return "node needs an input status"
    r = node.result
    if isinstance(r.status, Up) and r.stream_out is not None:
        return "a divergence-status label has no final stream"
    if not isinstance(r.status, Up) and r.stream_out is None:
        return "this status label must record its final stream"
    return None


# --- div-pred ---------------------------------------------------------------


def _want(cond: bool, reason: str) -> None:
    if not cond:
        raise _BadNode(reason)


def _val_subsumes(general: Val, specific: Val) -> bool:
    """`*` (any natural) covers every natural, but never null."""
    if general == specific:
        return True
    return isinstance(general, AnyNat) and isinstance(specific, (Nat, AnyNat))


def _store_subsumes(general: Store, specific: Store) -> bool:
    """A judgment over an abstract store stands for every concrete
    instance, so a premise proved for `*` discharges any natural."""
    if general.domain() != specific.domain():
        return False
    return all(_val_subsumes(general.get(x), specific.get(x)) for x in specific.domain())


def _outcome_subsumes(general: Outcome, specific: Outcome) -> bool:
    if isinstance(general, DivO) or isinstance(specific, DivO):
        return general == specific
    return _store_subsumes(general.store, specific.store)


def _subject_subsumes(general, specific) -> bool:
    """Structural match of judgment subjects, allowing the premise node
    (`general`) to carry abstract values where the rule instance needs
    concrete ones."""
    if type(general) is not type(specific):
        return False
    if isinstance(general, Plain):
        return general == specific
    if isinstance(general, Assign2):
        return general.x == specific.x and _val_subsumes(general.value, specific.value)
    if isinstance(general, Seq2):
        return general.rest == specific.rest and _outcome_subsumes(
            general.outcome, specific.outcome
        )
    if isinstance(general, If2):
        return (
            general.then == specific.then
            and general.orelse == specific.orelse
            and _val_subsumes(general.value, specific.value)
        )
    if isinstance(general, While2):
        return (
            general.guard == specific.guard
            and general.body == specific.body
            and _val_subsumes(general.value, specific.value)
        )
    if isinstance(general, While3):
        return (
            general.guard == specific.guard
            and general.body == specific.body
            and _outcome_subsumes(general.outcome, specific.outcome)
        )
    return general == specific


def _div_premise(g: DerivationGraph, slot: Optional[int], subject, store, stream) -> None:
    _want(slot is not None, "divergence premises cannot be discharged by execution")
    p = g.nodes[slot]
    _want(p.subject == subject, "premise subject mismatch")
    _want(_store_subsumes(p.store, store), "premise store mismatch")
    _want(p.stream == stream, "premise stream mismatch")


def _eval_guard(guard, store, stream):
    try:
        v, stream2 = eval_expr(guard, store, stream)
        return v, stream2, guard_nonzero(v)
    except ExprStuck as ex:
        raise _BadNode(f"guard evaluation stuck: {ex.reason}") from None


def _check_div_node(g: DerivationGraph, node: GraphNode, fuel: int) -> None:
    c, store, stream = node.subject, node.store, node.stream
    _want(node.result is None, "divergence judgments carry no result")
    rule = node.rule
    if rule in ("D-Seq1", "D-Seq2"):
        _want(isinstance(c, Seq), "subject is not a sequence")
        if rule == "D-Seq1":
            _div_premise(g, node.premises[0], c.first, store, stream)
        else:
            r = eval_big(c.first, store, stream, fuel)
            _want(isinstance(r, Done), "first command does not converge")
            _div_premise(g, node.premises[0], c.second, r.store, r.stream)
        return
    if rule in ("D-If", "D-IfZ"):
        _want(isinstance(c, If), "subject is not a conditional")
        v, stream2, taken = _eval_guard(c.guard, store, stream)
        if rule == "D-If":
            _want(taken, "guard is zero")
            _div_premise(g, node.premises[0], c.then, store, stream2)
        else:
            _want(not taken, "guard is non-zero")
            _div_premise(g, node.premises[0], c.orelse, store, stream2)
        return
    _want(isinstance(c, While), "subject is not a loop")
    v, stream2, taken = _eval_guard(c.guard, store, stream)
    _want(taken, "guard is zero")
    if rule == "D-WhileBody":
        _div_premise(g, node.premises[0], c.body, store, stream2)
    else:  # D-While
        r = eval_big(c.body, store, stream2, fuel)
        _want(isinstance(r, Done), "loop body does not converge")
        _div_premise(g, node.premises[0], c, r.store, r.stream)


# --- pretty-co ----------------------------------------------------------------


def _pretty_result(
    g: DerivationGraph, slot: Optional[int], subject, store, stream, fuel
) -> PrettyLabel:
    """Resolve one recursive premise: by edge, or by running the evaluator."""
    if slot is not None:
        p = g.nodes[slot]
        _want(_subject_subsumes(p.subject, subject), "premise subject mismatch")
        _want(_store_subsumes(p.store, store), "premise store mismatch")
        _want(p.stream == stream, "premise stream mismatch")
        _want(isinstance(p.result, PrettyLabel), "premise has no outcome label")
        return p.result
    r = eval_pretty(subject, store, stream, fuel)
    _want(isinstance(r, DoneP), "premise evaluation did not finish")
    return PrettyLabel(r.outcome, r.stream)


def _pretty_conclusion(node: GraphNode, outcome: Outcome, stream_out) -> None:
    _want(isinstance(node.result, PrettyLabel), "node has no outcome label")
    got: PrettyLabel = node.result
    _want(got.outcome == outcome, "conclusion outcome mismatch")
    if isinstance(outcome, ConvO):
        _want(got.stream_out == stream_out, "conclusion stream mismatch")


def _after(label: PrettyLabel, before: InputStream) -> InputStream:
    """Stream position after a premise: divergent premises consume nothing
    observable, so the canonical continuation stream is the input one."""
    return label.stream_out if label.stream_out is not None else before


def _check_pretty_node(g: DerivationGraph, node: GraphNode, fuel: int) -> None:
    sc, store, stream = node.subject, node.store, node.stream
    rule = node.rule
    if rule == "P-Skip":
        _want(isinstance(sc, Plain) and isinstance(sc.cmd, Skip), "subject is not skip")
        _pretty_conclusion(node, ConvO(store), stream)
        return
    if rule == "P-Alloc":
        _want(isinstance(sc, Plain) and isinstance(sc.cmd, Alloc), "subject is not alloc")
        _want(sc.cmd.x not in store, "variable already allocated")
        _pretty_conclusion(node, ConvO(store.update(sc.cmd.x, NULL)), stream)
        return
    if rule == "P-Assign1":
        _want(isinstance(sc, Plain) and isinstance(sc.cmd, Assign), "subject is not an assignment")
        try:
            v, stream2 = eval_expr(sc.cmd.expr, store, stream)
        except ExprStuck as ex:
            raise _BadNode(f"expression stuck: {ex.reason}") from None
        label = _pretty_result(g, node.premises[0], Assign2(sc.cmd.x, v), store, stream2, fuel)
        _pretty_conclusion(node, label.outcome, label.stream_out)
        return
    if rule == "P-Assign2":
        _want(isinstance(sc, Assign2), "subject is not assign2")
        _want(sc.x in store, "variable not allocated")
        _pretty_conclusion(node, ConvO(store.update(sc.x, sc.value)), stream)
        return
    if rule == "P-Seq1":
        _want(isinstance(sc, Plain) and isinstance(sc.cmd, Seq), "subject is not a sequence")
        first = _pretty_result(g, node.premises[0], Plain(sc.cmd.first), store, stream, fuel)
        rest_stream = _after(first, stream)
        second = _pretty_result(
            g, node.premises[1], Seq2(first.outcome, sc.cmd.second), store, rest_stream, fuel
        )
        _pretty_conclusion(node, second.outcome, second.stream_out)
        return
    if rule == "P-Seq2":
        _want(isinstance(sc, Seq2) and isinstance(sc.outcome, ConvO), "subject is not a converged seq2")
        label = _pretty_result(g, node.premises[0], Plain(sc.rest), sc.outcome.store, stream, fuel)
        _pretty_conclusion(node, label.outcome, label.stream_out)
        return
    if rule == "P-Seq-Abort":
        _want(isinstance(sc, Seq2) and isinstance(sc.outcome, DivO), "subject is not a divergent seq2")
        _pretty_conclusion(node, DIV, None)
        return
    if rule == "P-If":
        _want(isinstance(sc, Plain) and isinstance(sc.cmd, If), "subject is not a conditional")
        try:
            v, stream2 = eval_expr(sc.cmd.guard, store, stream)
        except ExprStuck as ex:
            raise _BadNode(f"guard stuck: {ex.reason}") from None
        label = _pretty_result(
            g, node.premises[0], If2(v, sc.cmd.then, sc.cmd.orelse), store, stream2, fuel
        )
        _pretty_conclusion(node, label.outcome, label.stream_out)
        return
    if rule in ("P-If2", "P-IfZ2"):
        _want(isinstance(sc, If2), "subject is not if2")
        try:
            taken = guard_nonzero(sc.value)
        except ExprStuck as ex:
            raise _BadNode(ex.reason) from None
        if rule == "P-If2":
            _want(taken, "guard is zero")
            label = _pretty_result(g, node.premises[0], Plain(sc.then), store, stream, fuel)
        else:
            _want(not taken, "guard is non-zero")
            label = _pretty_result(g, node.premises[0], Plain(sc.orelse), store, stream, fuel)
        _pretty_conclusion(node, label.outcome, label.stream_out)
        return
    if rule == "P-While":
        _want(isinstance(sc, Plain) and isinstance(sc.cmd, While), "subject is not a loop")
        try:
            v, stream2 = eval_expr(sc.cmd.guard, store, stream)
        except ExprStuck as ex:
            raise _BadNode(f"guard stuck: {ex.reason}") from None
        label = _pretty_result(
            g, node.premises[0], While2(v, sc.cmd.guard, sc.cmd.body), store, stream2, fuel
        )
        _pretty_conclusion(node, label.outcome, label.stream_out)
        return
    if rule == "P-While2":
        _want(isinstance(sc, While2), "subject is not while2")
        try:
            taken = guard_nonzero(sc.value)
        except ExprStuck as ex:
            raise _BadNode(ex.reason) from None
        _want(taken, "guard is zero")
        body = _pretty_result(g, node.premises[0], Plain(sc.body), store, stream, fuel)
        rest_stream = _after(body, stream)
        label = _pretty_result(
            g, node.premises[1], While3(body.outcome, sc.guard, sc.body), store, rest_stream, fuel
        )
        _pretty_conclusion(node, label.outcome, label.stream_out)
        return
    if rule == "P-WhileZ2":
        _want(isinstance(sc, While2), "subject is not while2")
        _want(sc.value == Nat(0), "guard is non-zero")
        _pretty_conclusion(node, ConvO(store), stream)
        return
    if rule == "P-While3":
        _want(isinstance(sc, While3) and isinstance(sc.outcome, ConvO), "subject is not a converged while3")
        label = _pretty_result(
            g, node.premises[0], Plain(While(sc.guard, sc.body)), sc.outcome.store, stream, fuel
        )
        _pretty_conclusion(node, label.outcome, label.stream_out)
        return
    # P-While-Abort
    _want(isinstance(sc, While3) and isinstance(sc.outcome, DivO), "subject is not a divergent while3")
    _pretty_conclusion(node, DIV, None)


# --- flag-co ------------------------------------------------------------------


def _flag_result(
    g: DerivationGraph, slot: Optional[int], subject, store, flag_in, stream, fuel
) -> FlagLabel:
    """Resolve one recursive premise.

    When the input status is an abort, the premise store is unconstrained
    (the abort axioms take any store); when it is the divergence flag, the
    stream is also unconstrained, because there is no observable final
    stream to thread onwards."""
    if slot is not None:
        p = g.nodes[slot]
        _want(p.subject == subject, "premise subject mismatch")
        _want(p.flag_in == flag_in, "premise status mismatch")
        if isinstance(flag_in, Down):
            _want(_store_subsumes(p.store, store), "premise store mismatch")
        if not isinstance(flag_in, Up):
            _want(p.stream == stream, "premise stream mismatch")
        _want(isinstance(p.result, FlagLabel), "premise has no status label")
        return p.result
    r = eval_flag(subject, store, flag_in, stream, fuel)
    _want(isinstance(r, FlagResult), "premise evaluation did not finish")
    return FlagLabel(r.status, r.store, None if isinstance(r.status, Up) else r.stream)


def _flag_conclusion(node: GraphNode, status, store_out, stream_out) -> None:
    _want(isinstance(node.result, FlagLabel), "node has no status label")
    got: FlagLabel = node.result
    _want(got.status == status, "conclusion status mismatch")
    if isinstance(status, Down):
        _want(got.store_out == store_out, "conclusion store mismatch")
        _want(got.stream_out == stream_out, "conclusion stream mismatch")
    elif isinstance(status, Exc):
        _want(got.stream_out == stream_out, "conclusion stream mismatch")


def _flag_after(label: FlagLabel, before: InputStream) -> InputStream:
    return label.stream_out if label.stream_out is not None else before


def _flag_guard(guard, store, stream, fuel):
    r = eval_expr_flag(guard, store, DOWN, stream, fuel)
    _want(isinstance(r, FlagResult), "guard evaluation stuck")
    try:
        taken = guard_nonzero(r.value)
    except ExprStuck as ex:
        raise _BadNode(ex.reason) from None
    _want(isinstance(r.status, Down), "guard evaluation did not stay normal")
    return r.value, r.stream, taken


def _check_flag_node(g: DerivationGraph, node: GraphNode, fuel: int) -> None:
    c, store, stream = node.subject, node.store, node.stream
    rule = node.rule
    if rule == "F-Div":
        _want(isinstance(node.flag_in, Up), "input status is not the divergence flag")
        _want(isinstance(node.result, FlagLabel) and isinstance(node.result.status, Up), "conclusion status must stay the divergence flag")
        return
    if rule == "F-Exc":
        _want(isinstance(node.flag_in, Exc), "input status is not an exception")
        _flag_conclusion(node, node.flag_in, EMPTY_STORE, stream)
        return
    _want(isinstance(node.flag_in, Down), "rule requires normal input status")
    if rule == "F-Skip":
        _want(isinstance(c, Skip), "subject is not skip")
        _flag_conclusion(node, DOWN, store, stream)
        return
    if rule == "F-Alloc":
        _want(isinstance(c, Alloc), "subject is not alloc")
        _want(c.x not in store, "variable already allocated")
        _flag_conclusion(node, DOWN, store.update(c.x, NULL), stream)
        return
    if rule == "F-Assign":
        _want(isinstance(c, Assign), "subject is not an assignment")
        _want(c.x in store, "variable not allocated")
        r = eval_expr_flag(c.expr, store, DOWN, stream, fuel)
        _want(isinstance(r, FlagResult), "expression evaluation stuck")
        if isinstance(r.status, Down):
            _flag_conclusion(node, DOWN, store.update(c.x, r.value), r.stream)
        else:
            _flag_conclusion(node, r.status, EMPTY_STORE, r.stream)
        return
    if rule == "F-Seq":
        _want(isinstance(c, Seq), "subject is not a sequence")
        first = _flag_result(g, node.premises[0], c.first, store, DOWN, stream, fuel)
        mid_stream = _flag_after(first, stream)
        second = _flag_result(
            g, node.premises[1], c.second, first.store_out, first.status, mid_stream, fuel
        )
        _flag_conclusion(node, second.status, second.store_out, second.stream_out)
        return
    if rule in ("F-If", "F-IfZ"):
        _want(isinstance(c, If), "subject is not a conditional")
        v, stream2, taken = _flag_guard(c.guard, store, stream, fuel)
        if rule == "F-If":
            _want(taken, "guard is zero")
            branch = c.then
        else:
            _want(not taken, "guard is non-zero")
            branch = c.orelse
        label = _flag_result(g, node.premises[0], branch, store, DOWN, stream2, fuel)
        _flag_conclusion(node, label.status, label.store_out, label.stream_out)
        return
    if rule in ("F-While", "F-WhileZ"):
        _want(isinstance(c, While), "subject is not a loop")
        v, stream2, taken = _flag_guard(c.guard, store, stream, fuel)
        if rule == "F-WhileZ":
            _want(not taken, "guard is non-zero")
            _flag_conclusion(node, DOWN, store, stream2)
            return
        _want(taken, "guard is zero")
        body = _flag_result(g, node.premises[0], c.body, store, DOWN, stream2, fuel)
        mid_stream = _flag_after(body, stream2)
        rest = _flag_result(g, node.premises[1], c, body.store_out, body.status, mid_stream, fuel)
        _flag_conclusion(node, rest.status, rest.store_out, rest.stream_out)
        return
    if rule == "F-Throw":
        _want(isinstance(c, Throw), "subject is not throw")
        _flag_conclusion(node, Exc(c.value, store), EMPTY_STORE, stream)
        return
    if rule == "F-Catch":
        _want(isinstance(c, Catch), "subject is not try/catch")
        body = _flag_result(g, node.premises[0], c.body, store, DOWN, stream, fuel)
        _want(not isinstance(body.status, Exc), "body raised an exception (use the handler rule)")
        _flag_conclusion(node, body.status, body.store_out, body.stream_out)
        return
    # F-Catch-Some
    _want(isinstance(c, Catch), "subject is not try/catch")
    body = _flag_result(g, node.premises[0], c.body, store, DOWN, stream, fuel)
    _want(isinstance(body.status, Exc), "body did not raise an exception")
    handler = _flag_result(
        g, node.premises[1], c.handler, body.status.at, DOWN, _flag_after(body, stream), fuel
    )
    _flag_conclusion(node, handler.status, handler.store_out, handler.stream_out)


# ---------------------------------------------------------------------------
# Building certificates


class _BuildFail(Exception):
    pass


class _GraphBuilder:
    def __init__(self, system: str, fuel: int, abstraction: Abstraction):
        self.system = system
        self.nodes: list[GraphNode] = []
        self.memo: dict = {}
        self.budget = max(4 * fuel, 1000)
        self.abstraction = abstraction
        self.fuel = fuel
        self.probe = 2 * fuel + 100

    def alloc(self, key) -> int:
        if self.budget <= 0:
            raise _BuildFail()
        self.budget -= 1
        nid = len(self.nodes)
        self.nodes.append(None)  # placeholder, filled by `close`
        self.memo[key] = nid
        return nid

    def close(self, nid, relation, subject, store, flag_in, stream, result, rule, premises):
        self.nodes[nid] = GraphNode(
            relation, subject, store, flag_in, stream, result, rule, tuple(premises)
        )

    def graph(self, root: int) -> DerivationGraph:
        assert all(n is not None for n in self.nodes)
        return DerivationGraph(self.system, root, self.nodes)


def _probe(b: _GraphBuilder, c: Cmd, store: Store, stream: InputStream):
    """Run `c` under the evaluator of the system being built, to tell
    whether it converges or runs out of fuel.

    A concrete configuration whose small-step run repeats exactly within
    the fuel diverges, so the evaluator could only burn the probe fuel to
    say so: its out-of-fuel result is returned without evaluating.  Every
    other configuration, and every abstract one (small-step cannot branch
    on `*`), is probed with the evaluator."""
    repeats = (
        not b.abstraction.projected
        and detect_lasso(SmallConfig(c, store, stream), b.fuel) is not None
    )
    if b.system == "div-pred":
        return OutOfFuel() if repeats else eval_big(c, store, stream, b.probe)
    if b.system == "pretty-co":
        return OutOfFuelP() if repeats else eval_pretty(Plain(c), store, stream, b.probe)
    return OutOfFuelF() if repeats else eval_flag(c, store, DOWN, stream, b.probe)


def _build_div(b: _GraphBuilder, c, store, stream) -> int:
    store = abstract_store(store, b.abstraction)
    key = (c, store, stream)
    hit = b.memo.get(key)
    if hit is not None:
        return hit
    nid = b.alloc(key)
    if isinstance(c, Seq):
        r = _probe(b, c.first, store, stream)
        if isinstance(r, Done):
            rule, premise = "D-Seq2", _build_div(b, c.second, r.store, r.stream)
        elif isinstance(r, OutOfFuel):
            rule, premise = "D-Seq1", _build_div(b, c.first, store, stream)
        else:
            raise _BuildFail()
    elif isinstance(c, If):
        try:
            v, stream2 = eval_expr(c.guard, store, stream)
            taken = guard_nonzero(v)
        except ExprStuck:
            raise _BuildFail() from None
        if taken:
            rule, premise = "D-If", _build_div(b, c.then, store, stream2)
        else:
            rule, premise = "D-IfZ", _build_div(b, c.orelse, store, stream2)
    elif isinstance(c, While):
        try:
            v, stream2 = eval_expr(c.guard, store, stream)
            taken = guard_nonzero(v)
        except ExprStuck:
            raise _BuildFail() from None
        if not taken:
            raise _BuildFail()
        r = _probe(b, c.body, store, stream2)
        if isinstance(r, Done):
            rule, premise = "D-While", _build_div(b, c, r.store, r.stream)
        elif isinstance(r, OutOfFuel):
            rule, premise = "D-WhileBody", _build_div(b, c.body, store, stream2)
        else:
            raise _BuildFail()
    else:
        raise _BuildFail()  # skip/alloc/assign/throw/catch cannot diverge
    b.close(nid, "inf", c, store, None, stream, None, rule, (premise,))
    return nid


def _build_pretty(b: _GraphBuilder, sc, store, stream) -> int:
    store = abstract_store(store, b.abstraction)
    key = (sc, store, stream)
    hit = b.memo.get(key)
    if hit is not None:
        return hit
    nid = b.alloc(key)
    label = PrettyLabel(DIV, None)
    if isinstance(sc, Plain):
        c = sc.cmd
        if isinstance(c, Seq):
            r = _probe(b, c.first, store, stream)
            if isinstance(r, DoneP) and isinstance(r.outcome, ConvO):
                premises = (
                    None,
                    _build_pretty(b, Seq2(r.outcome, c.second), store, r.stream),
                )
            elif isinstance(r, OutOfFuelP):
                premises = (
                    _build_pretty(b, Plain(c.first), store, stream),
                    _build_pretty(b, Seq2(DIV, c.second), store, stream),
                )
            else:
                raise _BuildFail()
            rule = "P-Seq1"
        elif isinstance(c, If):
            try:
                v, stream2 = eval_expr(c.guard, store, stream)
            except ExprStuck:
                raise _BuildFail() from None
            rule = "P-If"
            premises = (_build_pretty(b, If2(v, c.then, c.orelse), store, stream2),)
        elif isinstance(c, While):
            try:
                v, stream2 = eval_expr(c.guard, store, stream)
            except ExprStuck:
                raise _BuildFail() from None
            rule = "P-While"
            premises = (_build_pretty(b, While2(v, c.guard, c.body), store, stream2),)
        else:
            raise _BuildFail()
    elif isinstance(sc, Seq2):
        if isinstance(sc.outcome, DivO):
            rule, premises = "P-Seq-Abort", ()
        else:
            rule = "P-Seq2"
            premises = (_build_pretty(b, Plain(sc.rest), sc.outcome.store, stream),)
    elif isinstance(sc, If2):
        try:
            taken = guard_nonzero(sc.value)
        except ExprStuck:
            raise _BuildFail() from None
        if taken:
            rule, premises = "P-If2", (_build_pretty(b, Plain(sc.then), store, stream),)
        else:
            rule, premises = "P-IfZ2", (_build_pretty(b, Plain(sc.orelse), store, stream),)
    elif isinstance(sc, While2):
        try:
            taken = guard_nonzero(sc.value)
        except ExprStuck:
            raise _BuildFail() from None
        if not taken:
            raise _BuildFail()
        rule = "P-While2"
        r = _probe(b, sc.body, store, stream)
        if isinstance(r, DoneP) and isinstance(r.outcome, ConvO):
            premises = (
                None,
                _build_pretty(b, While3(r.outcome, sc.guard, sc.body), store, r.stream),
            )
        elif isinstance(r, OutOfFuelP):
            premises = (
                _build_pretty(b, Plain(sc.body), store, stream),
                _build_pretty(b, While3(DIV, sc.guard, sc.body), store, stream),
            )
        else:
            raise _BuildFail()
    elif isinstance(sc, While3):
        if isinstance(sc.outcome, DivO):
            rule, premises = "P-While-Abort", ()
        else:
            rule = "P-While3"
            premises = (
                _build_pretty(b, Plain(While(sc.guard, sc.body)), sc.outcome.store, stream),
            )
    else:
        raise _BuildFail()
    b.close(nid, "pretty", sc, store, None, stream, label, rule, premises)
    return nid


def _flag_div_leaf(b: _GraphBuilder, subject, stream) -> int:
    nid = b.alloc(("F-Div", len(b.nodes), id(subject)))
    b.close(
        nid,
        "flag",
        subject,
        EMPTY_STORE,
        UP,
        stream,
        FlagLabel(UP, EMPTY_STORE, None),
        "F-Div",
        (),
    )
    return nid


def _build_flag(b: _GraphBuilder, c, store, stream) -> int:
    store = abstract_store(store, b.abstraction)
    key = (c, store, stream)
    hit = b.memo.get(key)
    if hit is not None:
        return hit
    nid = b.alloc(key)
    label = FlagLabel(UP, EMPTY_STORE, None)
    if isinstance(c, Seq):
        r = _probe(b, c.first, store, stream)
        if isinstance(r, FlagResult) and isinstance(r.status, Down):
            rule = "F-Seq"
            premises = (None, _build_flag(b, c.second, r.store, r.stream))
        elif isinstance(r, OutOfFuelF):
            rule = "F-Seq"
            premises = (
                _build_flag(b, c.first, store, stream),
                _flag_div_leaf(b, c.second, stream),
            )
        else:
            raise _BuildFail()
    elif isinstance(c, If):
        r = eval_expr_flag(c.guard, store, DOWN, stream, b.probe)
        if not isinstance(r, FlagResult):
            raise _BuildFail()
        try:
            taken = guard_nonzero(r.value)
        except ExprStuck:
            raise _BuildFail() from None
        if taken:
            rule, premises = "F-If", (_build_flag(b, c.then, store, r.stream),)
        else:
            rule, premises = "F-IfZ", (_build_flag(b, c.orelse, store, r.stream),)
    elif isinstance(c, While):
        r = eval_expr_flag(c.guard, store, DOWN, stream, b.probe)
        if not isinstance(r, FlagResult):
            raise _BuildFail()
        try:
            taken = guard_nonzero(r.value)
        except ExprStuck:
            raise _BuildFail() from None
        if not taken:
            raise _BuildFail()
        rule = "F-While"
        rb = _probe(b, c.body, store, r.stream)
        if isinstance(rb, FlagResult) and isinstance(rb.status, Down):
            premises = (None, _build_flag(b, c, rb.store, rb.stream))
        elif isinstance(rb, OutOfFuelF):
            premises = (
                _build_flag(b, c.body, store, r.stream),
                _flag_div_leaf(b, c, r.stream),
            )
        else:
            raise _BuildFail()
    elif isinstance(c, Catch):
        r = _probe(b, c.body, store, stream)
        if isinstance(r, OutOfFuelF):
            rule = "F-Catch"
            premises = (_build_flag(b, c.body, store, stream),)
        elif isinstance(r, FlagResult) and isinstance(r.status, Exc):
            rule = "F-Catch-Some"
            premises = (None, _build_flag(b, c.handler, r.status.at, r.stream))
        else:
            raise _BuildFail()
    else:
        raise _BuildFail()
    b.close(nid, "flag", c, store, DOWN, stream, label, rule, premises)
    return nid


def prove_divergence(
    c: Cmd,
    store: Store,
    stream: InputStream,
    system: str,
    fuel: int,
    abstraction: Abstraction = Abstraction.none(),
    lasso: Optional[Lasso] = None,
) -> Optional[DerivationGraph]:
    """Build a derivation graph for the given coinductive system, or None.

    Divergence detection is routed through `detect_lasso`; without a lasso
    there is no certificate.  A caller that already holds the lasso from
    this configuration passes it as `lasso`, and the search is skipped.
    The returned graph always passes `check_derivation_graph`, so a wrong
    hand-off can cost a certificate but never yield an invalid one.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    if lasso is None and detect_lasso(SmallConfig(c, store, stream), fuel, abstraction) is None:
        return None
    builder = _GraphBuilder(system, fuel, abstraction)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 3 * builder.budget + 10_000))
    try:
        if system == "div-pred":
            root = _build_div(builder, c, store, stream)
        elif system == "pretty-co":
            root = _build_pretty(builder, Plain(c), store, stream)
        else:
            root = _build_flag(builder, c, store, stream)
    except _BuildFail:
        return None
    finally:
        sys.setrecursionlimit(old_limit)
    graph = builder.graph(root)
    if graph_error(graph, system, builder.probe) is not None:
        return None
    return graph


# ---------------------------------------------------------------------------
# Export of finite derivations as (back-edge-free) graphs


def graph_from_tree(tree: DerivTree, system: str) -> DerivationGraph:
    """Convert a recorded derivation tree into a derivation graph.

    Recursive premises become edges; expression premises are dropped (the
    checker rediscovers them by execution)."""
    relation = _RELATION_OF[system]
    nodes: list[GraphNode] = []

    def walk(t: DerivTree) -> int:
        nid = len(nodes)
        nodes.append(None)
        premises = tuple(walk(child) for child in t.children if child.relation == relation)
        if relation == "pretty":
            outcome, stream_out = t.result
            result = PrettyLabel(outcome, None if isinstance(outcome, DivO) else stream_out)
        elif relation == "flag":
            status, store_out, stream_out = t.result
            result = FlagLabel(
                status, store_out, None if isinstance(status, Up) else stream_out
            )
        else:
            result = None
        nodes[nid] = GraphNode(
            relation, t.subject, t.store, t.flag_in, t.stream, result, t.rule, premises
        )
        return nid

    root = walk(tree)
    return DerivationGraph(system, root, nodes)


# ---------------------------------------------------------------------------
# JSON serialization of graphs


def _subject_to_json(relation: str, subject) -> object:
    if relation == "pretty":
        if isinstance(subject, Plain):
            return {"plain": pretty_cmd(subject.cmd)}
        if isinstance(subject, Assign2):
            return {"assign2": {"x": subject.x, "value": _val_json(subject.value)}}
        if isinstance(subject, Seq2):
            return {"seq2": {"outcome": outcome_to_json(subject.outcome), "rest": pretty_cmd(subject.rest)}}
        if isinstance(subject, If2):
            return {
                "if2": {
                    "value": _val_json(subject.value),
                    "then": pretty_cmd(subject.then),
                    "else": pretty_cmd(subject.orelse),
                }
            }
        if isinstance(subject, While2):
            return {
                "while2": {
                    "value": _val_json(subject.value),
                    "guard": _expr_text(subject.guard),
                    "body": pretty_cmd(subject.body),
                }
            }
        if isinstance(subject, While3):
            return {
                "while3": {
                    "outcome": outcome_to_json(subject.outcome),
                    "guard": _expr_text(subject.guard),
                    "body": pretty_cmd(subject.body),
                }
            }
        raise TypeError(f"not a semantic command: {subject!r}")
    return pretty_cmd(subject)


def _subject_from_json(relation: str, data) -> object:
    if relation != "pretty":
        return parse_cmd(data)
    (kind, payload), = data.items()
    if kind == "plain":
        return Plain(parse_cmd(payload))
    if kind == "assign2":
        return Assign2(payload["x"], _val_unjson(payload["value"]))
    if kind == "seq2":
        return Seq2(outcome_from_json(payload["outcome"]), parse_cmd(payload["rest"]))
    if kind == "if2":
        return If2(
            _val_unjson(payload["value"]), parse_cmd(payload["then"]), parse_cmd(payload["else"])
        )
    if kind == "while2":
        return While2(
            _val_unjson(payload["value"]), _expr_unjson(payload["guard"]), parse_cmd(payload["body"])
        )
    if kind == "while3":
        return While3(
            outcome_from_json(payload["outcome"]),
            _expr_unjson(payload["guard"]),
            parse_cmd(payload["body"]),
        )
    raise ValueError(f"unknown semantic command kind {kind!r}")


def _expr_text(e) -> str:
    from .parser import pretty_expr

    return pretty_expr(e)


def _expr_unjson(text: str):
    from .parser import parse_expr

    return parse_expr(text)


def _val_json(v):
    from .syntax import val_to_json

    return val_to_json(v)


def _val_unjson(data):
    from .syntax import val_from_json

    return val_from_json(data)


def _result_to_json(node: GraphNode) -> object:
    r = node.result
    if r is None:
        return None
    if isinstance(r, PrettyLabel):
        return {
            "outcome": outcome_to_json(r.outcome),
            "stream": None if r.stream_out is None else stream_to_json(r.stream_out),
        }
    return {
        "status": status_to_json(r.status),
        "store": store_to_json(r.store_out),
        "stream": None if r.stream_out is None else stream_to_json(r.stream_out),
    }


def _result_from_json(relation: str, data) -> object:
    if data is None:
        return None
    if relation == "pretty":
        return PrettyLabel(
            outcome_from_json(data["outcome"]),
            None if data["stream"] is None else stream_from_json(data["stream"]),
        )
    return FlagLabel(
        status_from_json(data["status"]),
        store_from_json(data["store"]),
        None if data["stream"] is None else stream_from_json(data["stream"]),
    )


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
                "subject": _subject_to_json(n.relation, n.subject),
                "store": store_to_json(n.store),
                "flag_in": None if n.flag_in is None else status_to_json(n.flag_in),
                "stream": stream_to_json(n.stream),
                "result": _result_to_json(n),
                "premises": list(n.premises),
            }
            for i, n in enumerate(g.nodes)
        ],
    }


def graph_from_json(data: dict) -> DerivationGraph:
    if data.get("kind") != "derivation-graph":
        raise ValueError("not a derivation graph")
    nodes = []
    for nd in data["nodes"]:
        relation = nd["relation"]
        nodes.append(
            GraphNode(
                relation,
                _subject_from_json(relation, nd["subject"]),
                store_from_json(nd["store"]),
                None if nd["flag_in"] is None else status_from_json(nd["flag_in"]),
                stream_from_json(nd["stream"]),
                _result_from_json(relation, nd["result"]),
                nd["rule"],
                tuple(nd["premises"]),
            )
        )
    return DerivationGraph(data["system"], data["root"], nodes)


def check_certificate(
    cert: Union[Lasso, DerivationGraph], fuel: int = DEFAULT_CHECK_FUEL
) -> Optional[str]:
    """First problem with the certificate, or None if it is valid."""
    if isinstance(cert, Lasso):
        return lasso_error(cert)
    return graph_error(cert, fuel=fuel)


def certificate_to_json(cert: Union[Lasso, DerivationGraph]) -> dict:
    if isinstance(cert, Lasso):
        return lasso_to_json(cert)
    return graph_to_json(cert)


def certificate_from_json(data: dict) -> Union[Lasso, DerivationGraph]:
    if data.get("kind") == "lasso":
        return lasso_from_json(data)
    return graph_from_json(data)
