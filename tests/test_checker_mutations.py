"""Adversarial certificates: mutate the provers' own certificates and check
that the checker accepts none whose program, started normally, converges or
gets stuck.

The corpus is every certificate the three provers emit on a seed-0 slice of
the fuzz corpus, plus the projection certificates of the store-growing loop,
plus the flag-co certificates the harness finds for divergent throw/catch
programs, which reach the exception rules.
Each mutation is one edit a forger could make to a document: retarget a
premise edge, swap a rule label, perturb a store, stream or label, make a
`*` concrete or a natural abstract, drop a node or duplicate one.  A mutant
that still passes `check_certificate` is fine as long as its root really
diverges; the oracle runs the root under the flag-based evaluator, for a few
concretisations of every `*` in the root store.

The lassos of the same slice, the projection lasso of the grower, and
hand-written loops whose guards read a variable get the same treatment.  A
lasso mutant perturbs one configuration's store, cursor or command, drops
or duplicates a configuration, projects a guard variable, or ends the cycle
on `skip`.  It is checked as it is and after a JSON round trip, and the
oracle runs its first configuration.
"""

from __future__ import annotations

import dataclasses
import json
import random
from functools import cache

from whilesem import coinduction
from whilesem.coinduction import (
    SYSTEMS,
    DerivationGraph,
    Lasso,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    detect_lasso,
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
    InputStream,
    NULL,
    Nat,
    Plain,
    Skip,
    Store,
    Stuck,
    expr_vars,
    guard_exprs,
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
    label = rng.choice(sorted(label for label in arities if label != node.rule))
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
}


def mutants() -> list:
    """(certificate index, mutation name, mutant), in a fixed order."""
    rng = random.Random(SEED)
    out = []
    for i, g in enumerate(corpus()):
        for name, mutate in MUTATIONS.items():
            for _ in range(MUTANTS_PER_KIND):
                m = mutate(g, rng)
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
    found = mutants()
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
    found = [(i, name, m) for i, name, m in mutants() if i >= first]
    accepted = [(i, name, m) for i, name, m in found if check_certificate(m, CHECK_FUEL) is None]
    assert [(i, name) for i, name, m in accepted if _root_halts(m)] == []
    assert len(found) > 500 and len(found) - len(accepted) > 400


# ---------------------------------------------------------------------------
# Adversarial lassos


@cache
def lasso_corpus() -> tuple:
    cfg = GenConfig(seed=SEED, max_depth=5)
    lassos = []
    for i in range(PROGRAMS):
        p = generate_program(cfg, i)
        for stream in default_streams(p):
            lasso = detect_lasso(SmallConfig(p, EMPTY_STORE, stream), PROVE_FUEL)
            if lasso is not None:
                lassos.append(lasso)
    grower = SmallConfig(parse_cmd(GROWER), EMPTY_STORE, EMPTY_STREAM)
    lassos.append(detect_lasso(grower, 1_000, frozenset({"x"})))
    for text, projected, values in GUARDED:  # after the rest, which keep their draws
        start = SmallConfig(parse_cmd(text), EMPTY_STORE, InputStream.of(*values))
        lassos.append(detect_lasso(start, 1_000, frozenset(projected)))
    return tuple(lassos)


def _split(lasso: Lasso, chain: tuple, cut: int) -> Lasso:
    """A lasso over `chain` whose first `cut` configurations are the prefix."""
    return Lasso(chain[:cut], chain[cut:], lasso.projected)


def _replace_config(lasso, rng, change):
    chain = list(lasso.prefix + lasso.cycle)
    i = rng.randrange(len(chain))
    chain[i] = change(chain[i])
    return _split(lasso, tuple(chain), len(lasso.prefix))


def _config_store(lasso, rng):
    return _replace_config(lasso, rng, lambda c: SmallConfig(c.cmd, _perturb_store(c.store, rng), c.stream))


def _config_cursor(lasso, rng):
    return _replace_config(lasso, rng, lambda c: SmallConfig(c.cmd, c.store, _perturb_stream(c.stream, rng)))


def _config_cmd(lasso, rng):
    cmds = sorted({c.cmd for c in lasso.prefix + lasso.cycle} | {Skip()}, key=repr)
    return _replace_config(lasso, rng, lambda c: SmallConfig(rng.choice(cmds), c.store, c.stream))


def _drop_config(lasso, rng):
    chain = lasso.prefix + lasso.cycle
    if len(chain) < 2:
        return None
    gone = rng.randrange(len(chain))
    return _split(lasso, chain[:gone] + chain[gone + 1 :], len(lasso.prefix) - (gone < len(lasso.prefix)))


def _duplicate_config(lasso, rng):
    chain = lasso.prefix + lasso.cycle
    i = rng.randrange(len(chain))
    return _split(lasso, chain[: i + 1] + chain[i:], len(lasso.prefix) + (i < len(lasso.prefix)))


def _project_guard(lasso, rng):
    guarded = sorted(set().union(*map(expr_vars, guard_exprs(lasso.cycle[0].cmd))))
    if not guarded:
        return None
    return Lasso(lasso.prefix, lasso.cycle, lasso.projected | {rng.choice(guarded)})


def _end_on_skip(lasso, rng):
    """The last cycle configuration made `skip`, half the time as the whole
    lasso: a lone terminal configuration that claims to cycle."""
    last = lasso.cycle[-1]
    end = SmallConfig(Skip(), last.store, last.stream)
    if rng.random() < 0.5:
        return Lasso((), (end,), lasso.projected)
    return Lasso(lasso.prefix, lasso.cycle[:-1] + (end,), lasso.projected)


LASSO_MUTATIONS = {
    "config-store": _config_store,
    "config-cursor": _config_cursor,
    "config-cmd": _config_cmd,
    "drop": _drop_config,
    "duplicate": _duplicate_config,
    "project-guard": _project_guard,
    "skip-end": _end_on_skip,
}


def lasso_mutants() -> list:
    """(lasso index, mutation name, mutant), in a fixed order."""
    rng = random.Random(SEED)
    out = []
    for i, lasso in enumerate(lasso_corpus()):
        for name, mutate in LASSO_MUTATIONS.items():
            for _ in range(MUTANTS_PER_KIND):
                m = mutate(lasso, rng)
                if m is not None:
                    out.append((i, name, m))
    return out


def test_the_lassos_are_accepted():
    for lasso in lasso_corpus():
        assert check_certificate(lasso) is None


def test_no_lasso_mutant_is_a_false_accept():
    found = lasso_mutants()
    rejected = dict.fromkeys(LASSO_MUTATIONS, 0)
    errors, bad = set(), []
    for i, name, m in found:
        error = check_certificate(m)
        back = certificate_from_json(json.loads(json.dumps(certificate_to_json(m))))
        assert check_certificate(back) == error, (i, name)
        if error is not None:
            rejected[name] += 1
            errors.add(error)
            continue
        first = (m.prefix + m.cycle)[0]
        if _halts(first.cmd, first.store, first.stream):  # accepted, yet it does not diverge
            bad.append((i, name))
    assert bad == []
    assert all(rejected.values()), rejected
    # each of the checker's rejections of a non-empty cycle is reached
    assert any(e.startswith("cycle[0]: projected variable") for e in errors)
    assert any(e.startswith("position ") and e.endswith(": not a valid step") for e in errors)
    assert "cycle end is terminal or stuck" in errors
    assert "cycle does not close (even modulo the abstraction)" in errors
    assert len(lasso_corpus()) > 50 and len(found) > 1_000
    # every guard projection is rejected, directly and (above) after a round trip
    projections = sum(name == "project-guard" for _, name, _ in found)
    assert projections >= 30 and rejected["project-guard"] == projections


def test_every_mutant_decodes_as_if_each_text_were_parsed(monkeypatch, reference_decode):
    # A lasso's decoder compares a text with the step from the configuration
    # before it; that step must not raise on a forged configuration, where
    # the decoder would report the exception as a malformed document.
    stepped = []
    real = coinduction.step
    monkeypatch.setattr(coinduction, "step", lambda cfg: stepped.append(cfg) or real(cfg))
    def decoded(decode, doc):
        try:
            return decode(doc)
        except ValueError as e:  # a mutant whose label no longer fits its relation
            return str(e)

    found = mutants() + lasso_mutants()
    for _, _, m in found:
        doc = json.loads(json.dumps(certificate_to_json(m)))
        assert decoded(certificate_from_json, doc) == decoded(reference_decode, doc)
    for cfg in stepped:
        real(cfg)
    assert len(stepped) > 10_000 and len(found) > 5_000
