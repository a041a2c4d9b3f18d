"""Adversarial certificates: mutate the provers' own certificates and check
that the checker accepts none whose program, started normally, converges or
gets stuck.

The corpus is every certificate the three provers emit on a seed-0 slice of
the fuzz corpus, plus the projection certificates of the store-growing loop,
plus the flag-co certificates the harness finds for divergent throw/catch
programs, which reach the exception rules.
Each mutation is one edit a forger could make to a document: retarget a
premise edge, swap a rule label, perturb a store, stream or label, make a
`*` concrete or a natural abstract, drop a node, duplicate one, or give it
another node's subject.  A mutant
that still passes `check_certificate` is fine as long as its root really
diverges; the oracle runs the root under the flag-based evaluator, for a few
concretisations of every `*` in the root store.

The lasso graphs of the same slice, of the grower's projection lasso and
of hand-written loops whose guards read a variable follow the corpus, and
get the same mutations, and one more: a node's subject replaced by another
node's or by `skip`.  So a lasso graph mutant perturbs one configuration's
store, cursor or command, drops or duplicates one, makes a guard variable
`*` (a guard projection), or ends on `skip`.  It is checked as it is and
after a JSON round trip.
"""

from __future__ import annotations

import dataclasses
import json
import random
from functools import cache

from conftest import as_if_parsed
from whilesem import coinduction
from whilesem.coinduction import (
    SYSTEMS,
    DerivationGraph,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    detect_lasso,
    lasso_graph,
    prove_divergence,
)
from whilesem.flag_based import FlagResult, eval_flag
from whilesem.harness import GenConfig, compare_all, default_streams, generate_program
from whilesem.parser import parse_cmd
from whilesem.rule_dsl import load_ruleset
from whilesem.small_step import SmallConfig
from whilesem.syntax import (
    ANY_NAT,
    DIV,
    DOWN,
    EMPTY_STORE,
    EMPTY_STREAM,
    UP,
    AnyNat,
    ConvO,
    DivergesProven,
    Exc,
    If,
    InputStream,
    NULL,
    Nat,
    Plain,
    Seq,
    Skip,
    Store,
    Stuck,
    While,
    expr_vars,
)

SEED = 0
PROGRAMS = 400
PROVE_FUEL = 500
# The provers check their graphs at 2 * fuel + 100; the grower's proof runs
# at fuel 1,000, so this covers every certificate of the corpus.
CHECK_FUEL = 2_100
ORACLE_FUEL = 2_000
CONCRETISATIONS = (0, 1, 7)
MUTANTS_PER_KIND = 3
GROWER = "alloc x; x := 0; while 1 { x := x + 1 }"
# A throw/catch campaign: its streams that run out of fuel are proved by flag-co.
THROW = GenConfig(seed=1_000, max_depth=6, allow_throw=True)
THROW_PROGRAMS = 600
# Divergent loops whose cycle reads a variable in a guard, so that projecting
# it is a mutant to reject: (program, projected variables, input values).
GUARDED = (
    ("alloc x; x := 1; while x { skip }", (), ()),
    ("alloc x; alloc y; x := 1; y := 0; while x { y := y + 1 }", ("y",), ()),
    ("alloc x; alloc y; x := 1; y := 1; while x + y { skip }", (), ()),
    ("alloc x; x := 2; while x { if x { skip } else { x := 0 } }", (), ()),
    ("alloc n; n := 5; while n { n := n - 1; n := n + 1 }", (), ()),
    ("alloc x; alloc y; x := 3; y := 0; while x { y := y + x }", ("y",), ()),
    ("alloc x; x := 1; while 1 { if x { skip } else { x := 0 } }", (), ()),
    ("alloc x; x := 1; while x - 0 { skip }", (), ()),
    ("alloc x; alloc y; x := 1; y := 5; while x * y { y := y * 1 }", (), ()),
    ("alloc x; x := 1; { while x { skip } }; skip", (), ()),
    ("alloc x; alloc c; x := null; c := 0; while x { c := c + 2 }", ("c",), ()),
    ("alloc x; x := input; while x { skip }", (), (1,)),
    ("alloc x; alloc y; x := 1; y := 0; while x { if y { y := 0 } else { y := 1 } }", (), ()),
)

# The rule files of each system and the relation of its own judgments.
_SOURCES = {
    "div-pred": (("div_pred",), "D"),
    "pretty-co": (("pretty_big",), "P"),
    "flag-co": (("flag_based", "throw_catch_input"), "G"),
    "lasso": (("small_div",), "I"),
}


@cache
def _arities(system: str) -> dict:
    files, relation = _SOURCES[system]
    return {
        rule.label: sum(p.relation == relation for p in rule.premises)
        for name in files
        for rule in load_ruleset(name).rules
        if rule.conclusion.relation == relation
    }


@cache
def corpus() -> tuple:
    cfg = GenConfig(seed=SEED, max_depth=5)
    graphs = []
    for i in range(PROGRAMS):
        p = generate_program(cfg, i)
        for stream in default_streams(p):
            for system in SYSTEMS:
                g = prove_divergence(p, EMPTY_STORE, stream, system, PROVE_FUEL)
                if g is not None:
                    graphs.append(g)
    grower = parse_cmd(GROWER)
    for system in SYSTEMS:
        graphs.append(
            prove_divergence(grower, EMPTY_STORE, EMPTY_STREAM, system, 1_000, frozenset({"x"}))
        )
    return tuple(graphs) + throw_corpus()


@cache
def throw_corpus() -> tuple:
    """The flag-co certificates of the throw campaign's divergent streams,
    appended last so that the corpus before them keeps its mutants."""
    graphs = []
    for i in range(THROW_PROGRAMS):
        report = compare_all(generate_program(THROW, THROW.seed + i), fuel=PROVE_FUEL)
        for comparison in report.comparisons:
            if report.flag_only and isinstance(comparison.verdicts["flag"], DivergesProven):
                graphs.append(comparison.verdicts["flag"].certificate)
    return tuple(graphs)


# ---------------------------------------------------------------------------
# Mutations: each takes a graph and a random source and returns a new graph,
# or None when the graph offers nothing to mutate.


def _with_node(g: DerivationGraph, nid: int, **changes) -> DerivationGraph:
    nodes = list(g.nodes)
    nodes[nid] = dataclasses.replace(nodes[nid], **changes)
    return DerivationGraph(g.system, g.root, nodes)


def _retarget(g, rng):
    slots = [(nid, k) for nid, n in enumerate(g.nodes) for k in range(len(n.premises))]
    if not slots:
        return None
    nid, k = rng.choice(slots)
    old = g.nodes[nid].premises
    choices = [t for t in [None, *range(len(g.nodes))] if t != old[k]]
    premises = old[:k] + (rng.choice(choices),) + old[k + 1 :]
    return _with_node(g, nid, premises=premises)


def _swap_rule(g, rng):
    nid = rng.randrange(len(g.nodes))
    node = g.nodes[nid]
    arities = _arities(g.system)
    others = sorted(label for label in arities if label != node.rule)
    if not others:  # a system of one rule
        return None
    label = rng.choice(others)
    arity = arities[label]
    premises = (node.premises + tuple(rng.choice([None, 0, nid]) for _ in range(arity)))[:arity]
    return _with_node(g, nid, rule=label, premises=premises)


def _perturb_val(v, rng):
    if isinstance(v, Nat):
        return rng.choice([Nat(v.n + 1), Nat(max(v.n - 1, 0)) if v.n else Nat(3), NULL])
    return rng.choice([Nat(0), Nat(1)]) if v == NULL else NULL


def _perturb_store(store: Store, rng) -> Store:
    names = list(store.domain())
    move = rng.choice(["value", "drop", "add"] if names else ["add"])
    if move == "add":
        return store.update("zz", Nat(rng.choice(CONCRETISATIONS)))
    x = rng.choice(sorted(names))
    if move == "drop":
        return Store({y: v for y, v in store.items() if y != x})
    return store.update(x, _perturb_val(store.get(x), rng))


def _store(g, rng):
    nid = rng.randrange(len(g.nodes))
    return _with_node(g, nid, store=_perturb_store(g.nodes[nid].store, rng))


def _perturb_stream(s, rng):
    if s.cursor < len(s.values) and rng.random() < 0.5:
        return dataclasses.replace(s, cursor=s.cursor + 1)
    if s.cursor > 0 and rng.random() < 0.5:
        return dataclasses.replace(s, cursor=s.cursor - 1)
    return dataclasses.replace(s, values=s.values + (Nat(rng.choice(CONCRETISATIONS)),))


def _stream(g, rng):
    nid = rng.randrange(len(g.nodes))
    return _with_node(g, nid, stream=_perturb_stream(g.nodes[nid].stream, rng))


def _label(g, rng):
    nid = rng.randrange(len(g.nodes))
    node = g.nodes[nid]
    r = node.result
    if node.relation == "pretty":
        if isinstance(r[0], ConvO) and rng.random() < 0.5:
            return _with_node(g, nid, result=(DIV, None))
        outcome = ConvO(_perturb_store(r[0].store if isinstance(r[0], ConvO) else node.store, rng))
        return _with_node(g, nid, result=(outcome, node.stream))
    if node.relation == "flag":
        move = rng.choice(["down", "up", "exc", "flag_in"])
        if move == "flag_in":
            flag = rng.choice([DOWN, UP, Exc(Nat(1), node.store)])
            return _with_node(g, nid, flag_in=flag)
        if move == "down":
            result = (DOWN, _perturb_store(node.store, rng), node.stream)
        elif move == "up":
            result = (UP, EMPTY_STORE, None)
        else:
            result = (Exc(Nat(rng.choice(CONCRETISATIONS)), node.store), EMPTY_STORE, node.stream)
        return _with_node(g, nid, result=result)
    return _with_node(g, nid, result=(DIV, None))


def _values(g, pred):
    return [(nid, x) for nid, n in enumerate(g.nodes) for x, v in n.store.items() if pred(v)]


def _concretise(g, rng):
    spots = _values(g, lambda v: isinstance(v, AnyNat))
    if not spots:
        return None
    nid, x = rng.choice(spots)
    return _with_node(g, nid, store=g.nodes[nid].store.update(x, Nat(rng.choice(CONCRETISATIONS))))


def _abstract(g, rng):
    spots = _values(g, lambda v: isinstance(v, Nat))
    if not spots:
        return None
    nid, x = rng.choice(spots)
    return _with_node(g, nid, store=g.nodes[nid].store.update(x, ANY_NAT))


def _drop(g, rng):
    if len(g.nodes) < 2:
        return None
    gone = rng.randrange(len(g.nodes))

    def shift(i):
        return i if i is None or i < gone else i - 1 if i > gone else i

    nodes = [
        dataclasses.replace(n, premises=tuple(shift(p) for p in n.premises))
        for i, n in enumerate(g.nodes)
        if i != gone
    ]
    return DerivationGraph(g.system, min(shift(g.root), len(nodes) - 1), nodes)


def _duplicate(g, rng):
    refs = [(nid, k) for nid, n in enumerate(g.nodes) for k, p in enumerate(n.premises) if p is not None]
    if not refs:
        return None
    nid, k = rng.choice(refs)
    copy = len(g.nodes)
    premises = list(g.nodes[nid].premises)
    target = premises[k]
    premises[k] = copy
    nodes = list(g.nodes) + [g.nodes[target]]
    nodes[nid] = dataclasses.replace(nodes[nid], premises=tuple(premises))
    return DerivationGraph(g.system, g.root, nodes)


def _subject(g, rng):
    """A node's subject made another node's, or `skip`."""
    nid = rng.randrange(len(g.nodes))
    skip = Plain(Skip()) if g.nodes[nid].relation == "pretty" else Skip()
    subjects = sorted({n.subject for n in g.nodes} | {skip}, key=repr)
    return _with_node(g, nid, subject=rng.choice(subjects))


MUTATIONS = {
    "retarget": _retarget,
    "swap-rule": _swap_rule,
    "store": _store,
    "stream": _stream,
    "label": _label,
    "concretise": _concretise,
    "abstract": _abstract,
    "drop": _drop,
    "duplicate": _duplicate,
    "subject": _subject,
}


def certificates() -> tuple:
    """The graph corpus, then the lasso graphs."""
    return corpus() + lasso_corpus()


def mutants() -> list:
    """(certificate index, mutation name, mutant), in a fixed order.  The
    subject mutation draws from a stream of its own, so that the other
    mutations draw what they drew before it was added."""
    rng = random.Random(SEED)
    own = {"subject": random.Random(f"subject {SEED}")}
    out = []
    for i, g in enumerate(certificates()):
        for name, mutate in MUTATIONS.items():
            for _ in range(MUTANTS_PER_KIND):
                m = mutate(g, own.get(name, rng))
                if m is not None:
                    out.append((i, name, m))
    return out


# ---------------------------------------------------------------------------
# The soundness oracle


@cache
def _halts(c, store: Store, stream) -> bool:
    """Does `c` converge, raise or get stuck within the oracle's fuel, for
    any of the concretisations of the `*` values in `store`?"""
    concrete = {
        Store({x: Nat(k) if isinstance(v, AnyNat) else v for x, v in store.items()})
        for k in CONCRETISATIONS
    }
    for s in concrete:
        r = eval_flag(c, s, DOWN, stream, ORACLE_FUEL)
        if isinstance(r, (FlagResult, Stuck)):
            return True
    return False


def _root_halts(g: DerivationGraph) -> bool:
    root = g.nodes[g.root]
    c = root.subject.cmd if isinstance(root.subject, Plain) else root.subject
    return _halts(c, root.store, root.stream)


def test_the_provers_certificates_are_accepted():
    for g in corpus():
        assert check_certificate(g, CHECK_FUEL) is None


def test_no_mutant_is_a_false_accept():
    found = [(i, name, m) for i, name, m in mutants() if i < len(corpus())]
    rejected = {name: 0 for name in MUTATIONS}
    bad = []
    for i, name, m in found:
        if check_certificate(m, CHECK_FUEL) is not None:
            rejected[name] += 1
        elif _root_halts(m):  # accepted, yet the program does not diverge
            bad.append((i, name))
    assert bad == []
    # Every kind of edit but duplication is caught somewhere, so the campaign
    # is live; a duplicated node is exactly as valid as its original.
    assert all(rejected[name] for name in MUTATIONS if name != "duplicate"), rejected
    assert rejected["duplicate"] == 0
    assert len(found) > 4_000


def test_the_throw_certificates_reach_the_exception_rules():
    rules = {node.rule for g in throw_corpus() for node in g.nodes}
    assert {"F-Catch", "F-Catch-Some"} <= rules


def test_no_exception_mutant_is_a_false_accept():
    first = len(corpus()) - len(throw_corpus())
    found = [(i, name, m) for i, name, m in mutants() if first <= i < len(corpus())]
    accepted = [(i, name, m) for i, name, m in found if check_certificate(m, CHECK_FUEL) is None]
    assert [(i, name) for i, name, m in accepted if _root_halts(m)] == []
    assert len(found) > 500 and len(found) - len(accepted) > 400


# ---------------------------------------------------------------------------
# Adversarial lasso graphs


@cache
def lasso_corpus() -> tuple:
    """The lasso graphs of the slice, of the grower's projection lasso and of
    the guarded loops, in that order."""
    cfg = GenConfig(seed=SEED, max_depth=5)
    starts = []
    for i in range(PROGRAMS):
        p = generate_program(cfg, i)
        starts += [(SmallConfig(p, EMPTY_STORE, stream), PROVE_FUEL, frozenset()) for stream in default_streams(p)]
    starts.append((SmallConfig(parse_cmd(GROWER), EMPTY_STORE, EMPTY_STREAM), 1_000, frozenset({"x"})))
    for text, projected, values in GUARDED:
        starts.append((SmallConfig(parse_cmd(text), EMPTY_STORE, InputStream.of(*values)), 1_000, frozenset(projected)))
    lassos = (detect_lasso(*start) for start in starts)
    return tuple(lasso_graph(lasso) for lasso in lassos if lasso is not None)


def _guard_read(c) -> frozenset:
    """The variables of the guard that the next step from `c` evaluates."""
    while isinstance(c, Seq):
        c = c.first
    return expr_vars(c.guard) if isinstance(c, (If, While)) else frozenset()


def test_the_lassos_are_accepted():
    graphs = lasso_corpus()
    assert len(graphs) > 50 and all(g.system == "lasso" for g in graphs)
    for g in graphs:
        assert check_certificate(g) is None


def test_no_lasso_mutant_is_a_false_accept():
    first = len(corpus())
    found = [(i, name, m) for i, name, m in mutants() if i >= first]
    rejected = dict.fromkeys(MUTATIONS, 0)
    errors, bad = set(), []
    for i, name, m in found:
        error = check_certificate(m)
        try:
            back = certificate_from_json(json.loads(json.dumps(certificate_to_json(m))))
        except ValueError:  # a label that a lasso node cannot carry
            assert error is not None and name == "label", (i, name)
        else:
            assert check_certificate(back) == error, (i, name)
        if error is not None:
            rejected[name] += 1
            errors.add(error.split(": ", 1)[-1])
        elif _root_halts(m):  # accepted, yet it does not diverge
            bad.append((i, name))
    assert bad == []
    # One rule leaves no label to swap to, and a duplicated node is as valid
    # as its original; every other kind of edit is caught somewhere.
    kinds = {name for _, name, _ in found}
    assert kinds == MUTATIONS.keys() - {"swap-rule"}
    assert all(rejected[name] for name in kinds - {"duplicate"}) and rejected["duplicate"] == 0, rejected
    # the rejections of the lasso checker this one replaces, in its words: a
    # wrong step or a cycle that does not close, a guard over a projected
    # value, and an end that is terminal
    steps = "(c, sigma, mu) =S=> (c1, sigma1, mu1) does not hold: "
    assert {steps + "indeterminate guard value", steps + "terminal"} <= errors
    assert any(e.endswith("subject mismatch") for e in errors) and any(e.endswith("store mismatch") for e in errors)
    assert len(found) > 1_000


def _projected(g, nids, x):
    """`g` with the natural of `x` made `*` in the nodes `nids`."""
    nodes = [
        dataclasses.replace(n, store=n.store.update(x, ANY_NAT)) if nid in nids and isinstance(n.store.get(x), Nat) else n
        for nid, n in enumerate(g.nodes)
    ]
    return DerivationGraph(g.system, g.root, nodes)


def test_every_guard_projection_is_rejected():
    # A guard projection makes `*` of a natural that the next step of a node
    # reads in a guard: in that node alone, whose step is then stuck on it,
    # or in every node of the cycle, as a projection of the lasso search does.
    stuck, cycles = [], []
    for g in lasso_corpus():
        cycle = range(g.nodes[-1].premises[0], len(g.nodes))
        read = [(nid, x) for nid, n in enumerate(g.nodes) for x in sorted(_guard_read(n.subject))
                if isinstance(n.store.get(x), Nat)]
        stuck += [(nid, _projected(g, {nid}, x)) for nid, x in read]
        cycles += [_projected(g, cycle, x) for x in sorted({x for nid, x in read if nid in cycle})]
    assert len(stuck) + len(cycles) >= 30
    for nid, m in stuck:
        assert check_certificate(m) == (
            f"node {nid} (I-Step): (c, sigma, mu) =S=> (c1, sigma1, mu1) does not hold: indeterminate guard value"
        )
    assert all(check_certificate(m) is not None for m in cycles)


def test_every_mutant_decodes_as_if_each_text_were_parsed(monkeypatch):
    # A forged document decodes to the graph it was written from, which is
    # the graph with every command and guard parsed from its print; and the
    # decode takes no step: it never runs the forged configurations.
    def refuse(*parts):
        raise AssertionError("the decode took a step")

    found = mutants()
    docs = [json.loads(json.dumps(certificate_to_json(m))) for _, _, m in found]
    monkeypatch.setattr(coinduction, "step_tuple", refuse)
    for (i, name, m), doc in zip(found, docs):
        back = certificate_from_json(doc)
        assert back == m == as_if_parsed(back) and certificate_to_json(back) == doc, (i, name)
    assert len(found) > 5_000
