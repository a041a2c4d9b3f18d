"""Divergence certificates: lassos and their graphs, derivation graphs,
checkers, JSON."""

import dataclasses
import gc
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from whilesem.coinduction import (
    AbstractionUnsound,
    DerivationGraph,
    GraphNode,
    Lasso,
    SYSTEMS,
    abstract_store,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    detect_lasso,
    graph_error,
    graph_from_tree,
    lasso_graph,
    prove_divergence,
)
import whilesem.coinduction as coinduction
import whilesem.parser as parser
from conftest import as_if_parsed
from whilesem.derivation import Recorder
from whilesem.flag_based import eval_flag
from whilesem.harness import GenConfig, binary_streams, default_streams, generate_program
from whilesem.parser import parse_cmd, parse_expr, pretty_cmd, pretty_expr
from whilesem.pretty_big import eval_pretty
from whilesem.rule_dsl import Atom, RuleParseError, RuleSet, SideCondition, parse_rules
from whilesem.small_step import SmallConfig, step
from whilesem.syntax import (
    ANY_NAT,
    AnyNat,
    Cmd,
    ConvO,
    DIV,
    DOWN,
    EMPTY_STORE,
    EMPTY_STREAM,
    Exc,
    Expr,
    InputStream,
    Lit,
    NULL,
    Nat,
    Outcome,
    Plain,
    Seq,
    Seq2,
    Skip,
    Status,
    Store,
    UP,
    While,
    cmd_has_input,
    expr_vars,
    guard_exprs,
)


def _start(c, stream=EMPTY_STREAM):
    return SmallConfig(c, EMPTY_STORE, stream)


# ---------------------------------------------------------------------------
# Lassos


def test_minimal_loop_lasso_found_quickly(spin):
    lasso = detect_lasso(_start(spin), 10)
    assert lasso is not None
    assert len(lasso.cycle) == 2
    assert lasso.prefix == ()
    assert check_certificate(lasso_graph(lasso)) is None


def test_terminating_program_has_no_lasso(fac4):
    assert detect_lasso(_start(fac4), 10_000) is None


def test_stuck_program_has_no_lasso():
    assert detect_lasso(_start(parse_cmd("x := 1")), 100) is None


def _repeats(cfg, fuel, projected):
    """Every lasso of the run, one per repeated key, with keys worked out
    per configuration: the cursor counts only while the configuration's own
    command reads input.  Once a command reads no input the cursor never
    moves again, so this finds the repeats that keys carrying the cursor
    always find.  After a repeat the run goes on from the later of the
    two configurations."""

    def key(c):
        store = tuple((x, "#nat" if x in projected and isinstance(v, (Nat, AnyNat)) else v) for x, v in c.store.items())
        return c.cmd, store, c.stream.cursor if cmd_has_input(c.cmd) else None

    seen, trail, cur = {key(cfg): 0}, [cfg], cfg
    for _ in range(fuel):
        nxt = step(cur)
        if nxt is None:
            return
        hit = seen.get(key(nxt))
        if hit is not None:
            yield Lasso(tuple(trail[:hit]), tuple(trail[hit:]), projected)
        seen[key(nxt)] = len(trail)
        trail.append(nxt)
        cur = nxt


def _reference_lasso(cfg, fuel, projected):
    """The first repeat whose lasso is a valid certificate, or None."""
    return next((lasso for lasso in _repeats(cfg, fuel, projected) if check_certificate(lasso_graph(lasso)) is None), None)


def _first_repeat(cfg, fuel, projected):
    """The first repeat modulo the projection, checked or not, or None."""
    return next(_repeats(cfg, fuel, projected), None)


def test_lasso_keys_with_the_cursor_match_per_configuration_keys():
    found = after_input = 0
    for seed in range(300):
        c = generate_program(GenConfig(allow_input=True, max_depth=4), seed)
        if not cmd_has_input(c):
            continue
        unguarded = frozenset("xyz").difference(*map(expr_vars, guard_exprs(c)))
        for projected in {frozenset(), unguarded}:
            for stream in binary_streams():
                start = _start(c, stream)
                lasso = detect_lasso(start, 200, projected)
                assert lasso == _reference_lasso(start, 200, projected), (seed, stream)
                if lasso is not None:
                    found += 1
                    after_input += not cmd_has_input(lasso.cycle[0].cmd)
    assert found >= 100 and after_input >= 50


def test_growing_store_defeats_concrete_search(grower):
    assert detect_lasso(_start(grower), 1_000) is None


def test_growing_store_found_with_projection(grower):
    lasso = detect_lasso(_start(grower), 1_000, frozenset({"x"}))
    assert lasso is not None
    assert len(lasso.cycle) == 3
    g = lasso_graph(lasso)
    assert check_certificate(g) is None
    # the cycle's nodes hold the projected natural as `*`, the prefix's do not
    assert [n.store.get("x") for n in g.nodes] == [None, NULL, NULL, ANY_NAT, ANY_NAT, ANY_NAT]
    assert {detect_lasso(_start(grower), 1_000, {"x"})} == {lasso}  # a caller's set still gives a hashable lasso


def test_projection_of_guard_variable_rejected():
    c = parse_cmd("alloc x; x := 1; while x { x := x + 1 }")
    with pytest.raises(AbstractionUnsound, match="occurs in a guard"):
        detect_lasso(_start(c), 100, frozenset({"x"}))


def test_prover_rejects_a_projected_guard_variable():
    c = parse_cmd("alloc x; x := 1; while x { x := x + 1 }")
    for system in SYSTEMS:
        with pytest.raises(AbstractionUnsound, match="occurs in a guard"):
            prove_divergence(c, EMPTY_STORE, EMPTY_STREAM, system, 100, frozenset({"x"}))


def test_lasso_cycle_replays_forever(spin_then_use):
    lasso = detect_lasso(_start(spin_then_use), 1_000)
    assert lasso is not None
    # stepping from the cycle start returns to configurations with the same
    # key over and over: replay three full cycles concretely
    cfg = lasso.cycle[0]
    for _ in range(3 * len(lasso.cycle)):
        cfg = step(cfg)
        assert cfg is not None


def test_lasso_tampering_detected(spin):
    lasso = detect_lasso(_start(spin), 10)
    # break adjacency by dropping a cycle element
    bad = lasso_graph(Lasso(lasso.prefix, lasso.cycle[:1], lasso.projected))
    assert check_certificate(bad) == "node 0 (I-Step): node 0 does not cover (c1, sigma1, mu1) =I=> (): subject mismatch"
    # empty cycle is not a proof of anything
    assert check_certificate(lasso_graph(Lasso(lasso.prefix, (), lasso.projected))) == "graph has no nodes"


def test_lasso_json_round_trip(grower):
    lasso = detect_lasso(_start(grower), 1_000, frozenset({"x"}))
    data = json.loads(json.dumps(certificate_to_json(lasso)))
    assert (data["kind"], data["system"], len(data["nodes"])) == ("derivation-graph", "lasso", 6)
    back = certificate_from_json(data)
    assert check_certificate(back) is None
    assert back == lasso_graph(lasso)


def test_seed0_lasso_graphs_are_valid_before_and_after_json():
    # every divergent program of the pinned seed-0 campaign
    cfg, graphs = GenConfig(seed=0, max_depth=5), []
    for i in range(2_000):
        p = generate_program(cfg, i)
        for stream in default_streams(p):
            lasso = detect_lasso(_start(p, stream), 500)
            if lasso is not None:
                graphs.append(lasso_graph(lasso))
    assert len(graphs) == 314
    for g in graphs:
        assert check_certificate(g) is None
        back = certificate_from_json(json.loads(json.dumps(certificate_to_json(g))))
        assert back == g and check_certificate(back) is None


def test_a_star_on_a_guard_variable_is_stuck():
    c = parse_cmd("alloc x; x := 1; while x { skip }")
    lasso = detect_lasso(_start(c), 100)
    forged = lasso_graph(Lasso(lasso.prefix, lasso.cycle, frozenset({"x"})))
    assert check_certificate(forged) == (
        "node 4 (I-Step): (c, sigma, mu) =S=> (c1, sigma1, mu1) does not hold: indeterminate guard value"
    )


COPIES_X_INTO_A_GUARD = "alloc x; alloc y; x := 3; y := 0; while 1 { y := x; if y - 3 { alloc x } else { x := x + 1 }; y := 0 }"


def test_a_projected_natural_copied_into_a_guard_is_rejected():
    # No guard reads x, so the search projects it; but y copies x, and the
    # second round takes the other branch and gets stuck.  Comparing the
    # concrete run modulo x closes a cycle; stepping the `*` does not.
    c = parse_cmd(COPIES_X_INTO_A_GUARD)
    unsound = _first_repeat(_start(c), 1_000, frozenset({"x"}))
    assert unsound is not None
    assert check_certificate(lasso_graph(unsound)) == (
        "node 9 (I-Step): node 10 does not cover (c1, sigma1, mu1) =I=> (): store mismatch"
    )


def test_the_search_returns_no_lasso_whose_projected_cycle_does_not_step():
    c = parse_cmd(COPIES_X_INTO_A_GUARD)
    assert detect_lasso(_start(c), 1_000, frozenset({"x"})) is None
    assert detect_lasso(_start(c), 1_000) is None


def test_the_search_follows_the_checker(grower, monkeypatch):
    # A projected repeat closes a cycle only when `graph_error` accepts its
    # graph; a concrete search never asks.
    calls = []

    def reject(g, fuel=None):
        calls.append(g)
        return "rejected"

    monkeypatch.setattr(coinduction, "graph_error", reject)
    assert detect_lasso(_start(grower), 1_000, frozenset({"x"})) is None
    assert calls and {g.system for g in calls} == {"lasso"}
    calls.clear()
    for c in (parse_cmd("while 1 { skip }"), parse_cmd("alloc x; x := 0; while 1 { x := 1 - x }")):
        assert detect_lasso(_start(c), 1_000) is not None
    assert calls == []


def test_the_search_passes_over_a_repeat_its_projected_cycle_does_not_follow():
    # The first round repeats modulo x as above; the second enters an inner
    # loop that copies x into no guard, and that cycle holds modulo x.
    c = parse_cmd("alloc x; alloc y; x := 3; y := 0; while 1 { y := x; if y - 3 { while 1 { x := x + 1 } } else { x := x + 1 }; y := 0 }")
    lasso = detect_lasso(_start(c), 1_000, frozenset({"x"}))
    assert lasso is not None and len(lasso.cycle) == 3
    assert lasso.cycle[0].store == Store({"x": Nat(4), "y": Nat(4)})
    assert check_certificate(lasso_graph(lasso)) is None
    assert _reference_lasso(_start(c), 1_000, frozenset({"x"})) == lasso
    unsound = _first_repeat(_start(c), 1_000, frozenset({"x"}))
    assert len(unsound.prefix) < len(lasso.prefix) and check_certificate(lasso_graph(unsound)) is not None


# ---------------------------------------------------------------------------
# Derivation graphs from the three coinductive systems


def test_minimal_loop_proved_in_all_systems(spin):
    for system in SYSTEMS:
        g = prove_divergence(spin, EMPTY_STORE, EMPTY_STREAM, system, 100)
        assert g is not None, system
        assert g.system == system
        assert graph_error(g) is None
        # self-justification: some node cites itself or an ancestor
        cited = {p for n in g.nodes for p in n.premises if p is not None}
        assert cited, system


def test_growing_store_proved_with_projection(grower):
    for system in SYSTEMS:
        g = prove_divergence(
            grower, EMPTY_STORE, EMPTY_STREAM, system, 1_000, frozenset({"x"})
        )
        assert g is not None, system
        assert graph_error(g) is None
        # the certificate generalizes the changing value away
        stores = [n.store for n in g.nodes]
        assert any(s.get("x") == ANY_NAT for s in stores if "x" in s), system


def test_growing_store_not_proved_without_projection(grower):
    for system in SYSTEMS:
        assert prove_divergence(grower, EMPTY_STORE, EMPTY_STREAM, system, 1_000) is None


def test_no_proof_for_terminating_program(fac4):
    for system in SYSTEMS:
        assert prove_divergence(fac4, EMPTY_STORE, EMPTY_STREAM, system, 10_000) is None


def test_divergence_then_dead_code_uses_abort_rule(spin_then_use):
    g = prove_divergence(spin_then_use, EMPTY_STORE, EMPTY_STREAM, "flag-co", 1_000)
    assert g is not None and graph_error(g) is None
    data = certificate_to_json(g)
    root = data["nodes"][data["root"]]
    assert root["rule"] == "F-Seq"
    second = data["nodes"][root["premises"][1]]
    # the code after the divergent head is discharged by the abort rule,
    # not by evaluating it (it would be stuck: x is never allocated)
    assert second["rule"] == "F-Div"
    assert data["terms"][second["flag_in"]] == ["up"]


def test_divergence_after_input_prefix(input_gate):
    stream = InputStream.of(0)
    for system in SYSTEMS:
        g = prove_divergence(input_gate, EMPTY_STORE, stream, system, 1_000)
        assert g is not None, system
        assert graph_error(g) is None


def _digest(graphs) -> str:
    """A digest of the graphs' documents, byte for byte."""
    h = hashlib.sha256()
    for g in graphs:
        h.update(json.dumps(certificate_to_json(g), sort_keys=True).encode())
    return h.hexdigest()


def _graph_digest(graphs) -> str:
    """A digest of the graphs themselves, whatever their documents."""
    h = hashlib.sha256()
    for g in graphs:
        nodes = [(n.relation, n.rule, n.subject, n.store, n.flag_in, n.stream, n.result, n.premises) for n in g.nodes]
        h.update(repr((g.system, g.root, nodes)).encode())
    return h.hexdigest()


# The seed-0 prover certificates and the grower's abstract builds: the graphs
# (unchanged since format 1) and their format-2 documents.
SEED0_GRAPHS = "90bc617a86735b413fa4733700ee31a6f65ba737456930a731821a168b71745d"
SEED0_BYTES = "79b18fdd0bc338526e7300f1a751b0f8f05e7a0353575f4407cddde1db21e21d"
GROWER_GRAPHS = "e5218f95d758bea00a0ef70cd7946d23b12defafe1dc9383b5afc0fd9be560d5"
GROWER_BYTES = "f8760c0bd5d91aed064757059edd3ebf2e238605e9333170d82b85fc4bdc7c86"


@pytest.fixture(scope="session")
def seed0_certificates():
    """Every certificate the provers emit on the first 2,000 seed-0 campaign
    programs, proved once and shared by the tests that pin them."""
    cfg = GenConfig(seed=0, max_depth=5)
    graphs = []
    for i in range(2_000):
        p = generate_program(cfg, i)
        for stream in default_streams(p):
            for system in SYSTEMS:
                g = prove_divergence(p, EMPTY_STORE, stream, system, 500)
                if g is not None:
                    graphs.append(g)
    return graphs


def test_prover_certificates_are_pinned(seed0_certificates):
    # Byte for byte: a faster prover must build the same graphs.
    assert len(seed0_certificates) == 942
    assert _graph_digest(seed0_certificates) == SEED0_GRAPHS and _digest(seed0_certificates) == SEED0_BYTES


def test_abstract_build_probes_by_evaluation(grower, monkeypatch):
    # Small-step cannot branch on `*`, so an abstract build searches for no
    # lasso and decides every premise by running the evaluator.
    searched = []
    real = coinduction.detect_lasso
    monkeypatch.setattr(
        coinduction, "detect_lasso", lambda *a, **k: searched.append(a[0]) or real(*a, **k)
    )
    graphs = [
        prove_divergence(grower, EMPTY_STORE, EMPTY_STREAM, system, 1_000, frozenset({"x"}))
        for system in SYSTEMS
    ]
    assert searched == []
    assert _graph_digest(graphs) == GROWER_GRAPHS and _digest(graphs) == GROWER_BYTES
    back = [certificate_from_json(json.loads(json.dumps(certificate_to_json(g)))) for g in graphs]
    assert all(check_certificate(g) is None for g in back)
    assert _graph_digest(back) == GROWER_GRAPHS and _digest(back) == GROWER_BYTES


def test_prover_never_searches_a_lasso_from_its_start(spin, spin_then_use, fac4, monkeypatch):
    searched = []
    real = coinduction.detect_lasso
    monkeypatch.setattr(
        coinduction, "detect_lasso", lambda *a, **k: searched.append(a[0]) or real(*a, **k)
    )
    throw_spin = parse_cmd("try { while 1 { skip } } catch { skip }")
    probed = 0
    for c in (spin, spin_then_use, fac4, throw_spin):
        for system in SYSTEMS:
            searched.clear()
            prove_divergence(c, EMPTY_STORE, EMPTY_STREAM, system, 100)
            assert _start(c) not in searched, (c, system)
            probed += len(searched)
    assert probed  # the probes still search their own premises


def test_prover_returns_only_graphs_graph_error_accepts(spin, spin_then_use, fac4, monkeypatch):
    accepted = []
    real = coinduction.graph_error

    def checked(g, *a, **k):
        error = real(g, *a, **k)
        if error is None:
            accepted.append(g)
        return error

    monkeypatch.setattr(coinduction, "graph_error", checked)
    throw_spin = parse_cmd("try { while 1 { skip } } catch { skip }")
    for c, proved in [(spin, SYSTEMS), (spin_then_use, SYSTEMS), (fac4, ()), (throw_spin, ("flag-co",))]:
        for system in SYSTEMS:
            g = prove_divergence(c, EMPTY_STORE, EMPTY_STREAM, system, 100)
            assert (g is not None) == (system in proved), (c, system)
            assert g is None or any(g is a for a in accepted), (c, system)
    # a search that claims too much costs the certificate
    monkeypatch.setattr(coinduction, "graph_error", lambda g, *a, **k: "rejected")
    assert all(prove_divergence(spin, EMPTY_STORE, EMPTY_STREAM, system, 100) is None for system in SYSTEMS)


def test_graph_tampering_detected(spin):
    g = prove_divergence(spin, EMPTY_STORE, EMPTY_STREAM, "div-pred", 100)
    # (a) wrong rule name
    bad = dataclasses.replace(g)
    bad.nodes = list(g.nodes)
    bad.nodes[0] = dataclasses.replace(g.nodes[0], rule="D-Bogus")
    assert graph_error(bad) is not None
    # (b) dangling premise id
    bad.nodes = list(g.nodes)
    bad.nodes[0] = dataclasses.replace(g.nodes[0], premises=(99,))
    assert graph_error(bad) is not None
    # (c) a divergence-predicate premise may not be left to execution
    bad.nodes = list(g.nodes)
    bad.nodes[0] = dataclasses.replace(g.nodes[0], premises=(None,))
    assert graph_error(bad) is not None
    # (d) subject that does not match the cited premise
    bad.nodes = list(g.nodes)
    bad.nodes[0] = dataclasses.replace(g.nodes[0], subject=parse_cmd("skip"))
    assert graph_error(bad) is not None


def test_graph_json_round_trip(spin, grower):
    for system in SYSTEMS:
        g = prove_divergence(grower, EMPTY_STORE, EMPTY_STREAM, system, 1_000, frozenset({"x"}))
        data = json.loads(json.dumps(certificate_to_json(g), ensure_ascii=False))
        back = certificate_from_json(data)
        assert isinstance(back, DerivationGraph)
        assert graph_error(back) is None
        assert certificate_to_json(back) == certificate_to_json(g)


def test_check_certificate_dispatches(spin):
    lasso = detect_lasso(_start(spin), 10)
    assert check_certificate(lasso_graph(lasso)) is None
    for system in SYSTEMS:
        graph = prove_divergence(spin, EMPTY_STORE, EMPTY_STREAM, system, 100)
        assert check_certificate(graph) is None, system
    assert check_certificate(certificate_from_json(certificate_to_json(lasso))) is None


# ---------------------------------------------------------------------------
# What self-justifying graphs can and cannot claim


def _spin_flag_node(spin, result):
    """A single self-citing loop node claiming `result`."""
    return DerivationGraph(
        "flag-co",
        0,
        [
            GraphNode(
                relation="flag",
                subject=spin,
                store=EMPTY_STORE,
                flag_in=DOWN,
                stream=EMPTY_STREAM,
                result=result,
                rule="F-While",
                premises=(None, 0),
            )
        ],
    )


def test_self_justifying_graph_accepts_any_result_label(spin):
    """Self-citation can 'conclude' anything about a diverging program —
    convergence to an arbitrary store, or an exception never thrown.  The
    graphs are rule-valid; only their divergence reading is meaningful."""
    junk_store = Store({"ghost": Nat(99)})
    claims = [
        (DOWN, junk_store, EMPTY_STREAM),
        (UP, EMPTY_STORE, None),
        (Exc(Nat(5), junk_store), EMPTY_STORE, EMPTY_STREAM),
    ]
    for claim in claims:
        g = _spin_flag_node(spin, claim)
        assert graph_error(g) is None, claim


def test_self_justifying_pretty_graph_accepts_any_outcome(spin):
    # take the honest divergence cycle and relabel every node's result with
    # the same junk claim: the label flows around the cycle unchallenged
    honest = prove_divergence(spin, EMPTY_STORE, EMPTY_STREAM, "pretty-co", 100)
    assert honest is not None
    for junk in [
        (ConvO(Store({"ghost": Nat(1)})), EMPTY_STREAM),
        (DIV, None),
    ]:
        g = DerivationGraph(
            honest.system,
            honest.root,
            [dataclasses.replace(n, result=junk) for n in honest.nodes],
        )
        assert graph_error(g) is None, junk


_NO_OUTCOME = "node needs an outcome label and no status"
_NO_STATUS = "node needs an input status and a status label"


@pytest.mark.parametrize(
    "system,result,error",
    [
        pytest.param("pretty-co", (DIV,), _NO_OUTCOME, id="pretty-length"),
        pytest.param("flag-co", (UP, None), _NO_STATUS, id="flag-length"),
        pytest.param("pretty-co", (UP, None), _NO_OUTCOME, id="pretty-kind"),
        pytest.param("flag-co", (DIV, EMPTY_STORE, None), _NO_STATUS, id="flag-kind"),
        pytest.param("pretty-co", (UP, EMPTY_STORE, None), _NO_OUTCOME, id="flag-result-on-pretty"),
        pytest.param("pretty-co", [DIV, None], _NO_OUTCOME, id="pretty-list"),
        pytest.param("flag-co", [UP, EMPTY_STORE, None], _NO_STATUS, id="flag-list"),
        pytest.param("pretty-co", None, _NO_OUTCOME, id="pretty-none"),
    ],
)
def test_a_result_of_the_wrong_shape_is_rejected(spin, system, result, error):
    # the messages `whilesem cert check` prints for the same faults in JSON
    g = prove_divergence(spin, EMPTY_STORE, EMPTY_STREAM, system, 100)
    g.nodes[0] = dataclasses.replace(g.nodes[0], result=result)
    assert graph_error(g) == f"node 0: {error}"


def test_self_justification_cannot_claim_a_wrong_converging_run(fac4):
    """For a *terminating* program the execution-discharged premises pin the
    real result: a graph claiming a different store is rejected."""
    rec = Recorder()
    eval_flag(fac4, EMPTY_STORE, DOWN, EMPTY_STREAM, 10_000, recorder=rec)
    g = graph_from_tree(rec.root, "flag-co")
    assert graph_error(g) is None
    root = g.nodes[g.root]
    wrong = dataclasses.replace(
        root, result=(DOWN, Store({"c": Nat(0), "r": Nat(25)}), EMPTY_STREAM)
    )
    bad = DerivationGraph(g.system, g.root, list(g.nodes))
    bad.nodes[g.root] = wrong
    assert graph_error(bad) is not None


# ---------------------------------------------------------------------------
# Generalization at premise edges


def test_general_premise_discharges_concrete_requirement(grower):
    # accepted: the premise node holds the abstract value where the
    # requirement is concrete (proved by the projection certificates above);
    # rejected: concretizing the premise nodes breaks the back edge, because
    # a node about one concrete value cannot justify the next value
    g = prove_divergence(
        grower, EMPTY_STORE, EMPTY_STREAM, "div-pred", 1_000, frozenset({"x"})
    )
    assert graph_error(g) is None
    concretized = DerivationGraph(
        g.system,
        g.root,
        [
            dataclasses.replace(
                n,
                store=Store(
                    {x: (Nat(0) if v == ANY_NAT else v) for x, v in n.store.items()}
                ),
            )
            for n in g.nodes
        ],
    )
    assert graph_error(concretized) is not None


def test_abstract_store_projection():
    s = Store({"x": Nat(5), "y": Nat(2)})
    a = abstract_store(s, frozenset({"x"}))
    assert a.get("x") == ANY_NAT
    assert a.get("y") == Nat(2)


# ---------------------------------------------------------------------------
# Finite derivations exported as graphs


def test_finite_runs_export_to_valid_graphs(fac4):
    rec = Recorder()
    eval_flag(fac4, EMPTY_STORE, DOWN, EMPTY_STREAM, 10_000, recorder=rec)
    g = graph_from_tree(rec.root, "flag-co")
    assert graph_error(g) is None
    assert len(g.nodes) > 10

    rec = Recorder()
    eval_pretty(Plain(fac4), EMPTY_STORE, EMPTY_STREAM, 10_000, recorder=rec)
    g = graph_from_tree(rec.root, "pretty-co")
    assert graph_error(g) is None


def test_finite_exception_run_exports_to_valid_graph():
    c = parse_cmd("alloc x; try { x := 1; throw 9 } catch { x := x + 1 }")
    rec = Recorder()
    eval_flag(c, EMPTY_STORE, DOWN, EMPTY_STREAM, 100, recorder=rec)
    g = graph_from_tree(rec.root, "flag-co")
    assert graph_error(g) is None
    rules = {n.rule for n in g.nodes}
    assert "F-Catch-Some" in rules and "F-Throw" in rules


def test_exception_statuses_round_trip():
    c = parse_cmd("alloc x; try { x := 1; throw 9; x := 2 } catch { x := x + 1 }")
    rec = Recorder()
    eval_flag(c, EMPTY_STORE, DOWN, EMPTY_STREAM, 100, recorder=rec)
    g = graph_from_tree(rec.root, "flag-co")
    statuses = [n.flag_in for n in g.nodes] + [n.result[0] for n in g.nodes]
    assert sum(isinstance(s, Exc) for s in statuses) == 5
    data = certificate_to_json(g)
    back = certificate_from_json(json.loads(json.dumps(data)))
    assert certificate_to_json(back) == data
    assert graph_error(back) is None


def test_finite_input_run_exports_to_valid_graph():
    c = parse_cmd("alloc x; x := input + input")
    rec = Recorder()
    eval_flag(c, EMPTY_STORE, DOWN, InputStream.of(2, 3), 100, recorder=rec)
    g = graph_from_tree(rec.root, "flag-co")
    assert graph_error(g) is None


# ---------------------------------------------------------------------------
# A valid certificate claims divergence from a normal start


def _terminating():
    return parse_cmd("alloc x; x := 1")


def _forged_flag_div_root(c):
    """One F-Div node: a valid derivation, about an aborted start."""
    node = GraphNode("flag", c, EMPTY_STORE, UP, EMPTY_STREAM, (UP, EMPTY_STORE, None), "F-Div", ())
    return DerivationGraph("flag-co", 0, [node])


def _forged_pretty_abort_root(c):
    """One P-Seq-Abort node: a valid derivation, about an intermediate form."""
    node = GraphNode("pretty", Seq2(DIV, Skip()), EMPTY_STORE, None, EMPTY_STREAM, (DIV, None), "P-Seq-Abort", ())
    return DerivationGraph("pretty-co", 0, [node])


def _exported_convergent_run(c):
    rec = Recorder()
    eval_flag(c, EMPTY_STORE, DOWN, EMPTY_STREAM, 100, recorder=rec)
    return graph_from_tree(rec.root, "flag-co")


def _exported_convergent_pretty_run(c):
    rec = Recorder()
    eval_pretty(Plain(c), EMPTY_STORE, EMPTY_STREAM, 100, recorder=rec)
    return graph_from_tree(rec.root, "pretty-co")


@pytest.mark.parametrize(
    "forge",
    [
        _forged_flag_div_root,
        _forged_pretty_abort_root,
        _exported_convergent_run,
        _exported_convergent_pretty_run,
    ],
)
def test_valid_derivation_without_a_divergence_claim_is_no_certificate(forge):
    g = forge(_terminating())
    assert graph_error(g) is None  # a valid derivation ...
    error = check_certificate(g)  # ... but no proof that the program diverges
    assert error is not None and error.startswith("root does not claim divergence")
    assert check_certificate(certificate_from_json(certificate_to_json(g))) == error



# ---------------------------------------------------------------------------
# Format 2: one term table, read without parsing or printing


def _counting(monkeypatch):
    """Every text the decoder hands to `parse_cmd` and `parse_expr`, and
    every command it hands to `pretty_cmd`, through the names the
    benchmark's tracer rebinds."""
    def counted(seen, call):
        def wrapper(term, *args):
            seen.append(term)
            return call(term, *args)

        return wrapper

    cmds, exprs, prints = [], [], []
    monkeypatch.setattr(coinduction, "parse_cmd", counted(cmds, coinduction.parse_cmd))
    monkeypatch.setattr(parser, "parse_expr", counted(exprs, parser.parse_expr))
    monkeypatch.setattr(coinduction, "pretty_cmd", counted(prints, coinduction.pretty_cmd))
    return cmds, exprs, prints


def _countdown_then_spin():
    return parse_cmd("alloc t; t := 3; while t { t := t - 1 }; while 1 { skip }")


def _documents():
    c = _countdown_then_spin()
    lasso = detect_lasso(_start(c), 1_000)
    pretty = prove_divergence(c, EMPTY_STORE, EMPTY_STREAM, "pretty-co", 1_000)
    return [certificate_to_json(lasso), certificate_to_json(pretty)]


@pytest.fixture(scope="module")
def corpus_documents(seed0_certificates):
    """The documents every decode must reproduce: the 942 seed-0 graphs;
    the graphs in three systems and the lassos of a campaign with input and
    throw; the abstract builds of the grower."""
    docs = [certificate_to_json(g) for g in seed0_certificates]
    cfg = GenConfig(seed=7, max_depth=4, allow_input=True, allow_throw=True)
    for i in range(2_000):
        p = generate_program(cfg, cfg.seed + i)
        for stream in default_streams(p):
            certs = [detect_lasso(_start(p, stream), 500)]
            certs += [prove_divergence(p, EMPTY_STORE, stream, system, 500) for system in SYSTEMS]
            docs += [certificate_to_json(cert) for cert in certs if cert is not None]
    grower = parse_cmd("alloc x; x := 0; while 1 { x := x + 1 }")
    projected = frozenset({"x"})
    docs.append(certificate_to_json(detect_lasso(_start(grower), 1_000, projected)))
    docs += [
        certificate_to_json(prove_divergence(grower, EMPTY_STORE, EMPTY_STREAM, system, 1_000, projected))
        for system in SYSTEMS
    ]
    return [json.loads(json.dumps(doc)) for doc in docs]


def test_decoding_equals_a_decode_that_parses_every_text(corpus_documents):
    kinds = {doc["system"] for doc in corpus_documents}
    assert kinds == {"lasso", *SYSTEMS} and len(corpus_documents) > 1_100
    for doc in corpus_documents:
        graph = certificate_from_json(doc)
        assert graph == as_if_parsed(graph) and certificate_to_json(graph) == doc


@pytest.mark.parametrize("doc", _documents(), ids=["lasso", "pretty-co"])
def test_decoding_parses_and_prints_nothing(doc, monkeypatch):
    cmds, exprs, prints = _counting(monkeypatch)
    graph = certificate_from_json(doc)
    assert (cmds, exprs, prints) == ([], [], []) and check_certificate(graph) is None


def _prints(subject) -> list:
    """The print of each command and guard a subject holds (a command is
    one, a semantic command holds its fields), with the print of what that
    print parses back to."""
    out = []
    for t in [subject] if isinstance(subject, Cmd) else [getattr(subject, f) for f in subject.__match_args__]:
        if isinstance(t, Cmd):
            out.append((pretty_cmd(t), pretty_cmd(parse_cmd(pretty_cmd(t)))))
        elif isinstance(t, Expr):
            out.append((pretty_expr(t), pretty_expr(parse_expr(pretty_expr(t)))))
    return out


def test_each_decoded_command_and_guard_prints_inside_its_root_and_reparses(seed0_certificates):
    # Every premise of the rules judges a subterm of its conclusion's
    # command, so each command and guard a decode builds prints as a
    # substring of the print of the root's command.  Each is one the parser
    # can produce: its print parses back to the same print (texts are
    # compared, as `==` recurses on deep terms).
    bases = set()
    for g in seed0_certificates:
        back = certificate_from_json(json.loads(json.dumps(certificate_to_json(g))))
        ((base, _),) = _prints(back.nodes[back.root].subject)
        bases.add(base)
        for node in back.nodes:
            for text, reread in _prints(node.subject):
                assert text in base and reread == text, (base, text)
    assert len(bases) > 300


def _long_lasso(statements: int) -> dict:
    body = "; ".join(["x := 1"] * statements)
    lasso = detect_lasso(_start(parse_cmd(f"alloc x; x := 0; while 1 {{ {body} }}")), 10_000)
    return json.loads(json.dumps(certificate_to_json(lasso)))


def test_long_lassos_cost_linear_bytes():
    # A step shares all but its new spine with the command before it, and
    # the term table writes each shared term once.
    docs = [_long_lasso(statements) for statements in (100, 200, 400)]
    assert [len(doc["nodes"]) for doc in docs] == [207, 407, 807]
    for small, large in zip(docs, docs[1:]):
        assert len(json.dumps(large)) <= 2.1 * len(json.dumps(small))
        assert len(large["terms"]) <= 2.1 * len(small["terms"])


def test_a_long_lasso_decodes_with_printer_work_linear_in_its_nodes(monkeypatch):
    # The decode prints and parses nothing, however long the lasso.
    for doc in (_long_lasso(100), _long_lasso(200), _long_lasso(400)):
        cmds, exprs, prints = _counting(monkeypatch)
        cert = certificate_from_json(doc)
        assert (cmds, exprs, prints) == ([], [], [])
        assert check_certificate(cert) is None


def test_a_deep_subject_round_trips_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() == 1_000
    deep = Skip()
    for _ in range(10_000):
        deep = Seq(deep, Skip())
    graph = lasso_graph(Lasso((), (SmallConfig(deep, EMPTY_STORE, EMPTY_STREAM),)))
    doc = json.loads(json.dumps(certificate_to_json(graph)))
    assert len(doc["terms"]) == 10_001
    back = certificate_from_json(doc)
    assert pretty_cmd(back.nodes[0].subject) == pretty_cmd(deep)
    assert certificate_to_json(back) == doc


def test_a_decode_leaves_no_garbage_cycle():
    # What a decode builds dies with it, at once: nothing waits for the
    # cycle collector.
    docs = _documents() + [_spin_document(system) for system in SYSTEMS]
    gc.collect()
    gc.disable()
    try:
        for doc in docs:
            certificate_from_json(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_decoded_subjects_share_the_base_tree():
    graph = certificate_from_json(_documents()[1])
    subterms, todo = set(), [graph.nodes[0].subject.cmd]
    while todo:
        t = todo.pop()
        subterms.add(id(t))
        todo += [getattr(t, f) for f in ("first", "second", "guard", "body", "then", "orelse") if hasattr(t, f)]
    fields = ("cmd", "rest", "guard", "body")
    cited = [getattr(n.subject, f) for n in graph.nodes for f in fields if hasattr(n.subject, f)]
    assert len(cited) > len(graph.nodes) and all(id(t) in subterms for t in cited)


def test_a_lasso_node_that_is_no_step_is_rejected():
    doc = certificate_to_json(detect_lasso(_start(parse_cmd("while 1 { skip }")), 10))
    doc["terms"].append(["seq", 1, 3])  # skip; skip; while 1 { skip }
    doc["nodes"][1]["subject"] = len(doc["terms"]) - 1
    assert check_certificate(certificate_from_json(doc)) == (
        "node 0 (I-Step): node 1 does not cover (c1, sigma1, mu1) =I=> (): subject mismatch"
    )


def _subject_entry(doc: dict, node: int) -> list:
    return doc["terms"][doc["nodes"][node]["subject"]]


# A field of the wrong JSON type, named by its node or entry and its field.
@pytest.mark.parametrize(
    "system,node,position,value,error",
    [
        pytest.param("lasso", 1, None, "skip", "nodes[1]: field 'subject' must be an index below 9, got 'skip'",
                     id="lasso-cmd"),
        pytest.param("flag-co", 0, None, ["skip"], "nodes[0]: field 'subject' must be an index below 9, "
                     "got an array of 1", id="subject"),
        pytest.param("pretty-co", 0, 1, None, "terms[7]: field 'cmd' must be an index below 7, got null",
                     id="plain"),
        pytest.param("pretty-co", 1, 2, "skip", "terms[10]: field 'rest' must be an index below 10, got 'skip'",
                     id="seq2-rest"),
        pytest.param("pretty-co", 3, 2, True, "terms[12]: field 'then' must be an index below 12, got a boolean",
                     id="if2-then"),
        pytest.param("pretty-co", 3, 3, [1], "terms[12]: field 'orelse' must be an index below 12, "
                     "got an array of 1", id="if2-else"),
        pytest.param("pretty-co", 5, 2, {"t": 1}, "terms[14]: field 'guard' must be an index below 14, "
                     "got an object", id="while2-guard"),
        pytest.param("pretty-co", 6, 3, 1.5, "terms[15]: field 'body' must be an index below 15, got 1.5",
                     id="while3-body"),
    ],
)
def test_text_of_the_wrong_type_is_reported_by_its_field(system, node, position, value, error):
    c = parse_cmd("alloc t; if 1 { while t { skip } } else { skip }")
    if system == "lasso":
        cert = detect_lasso(_start(c), 100)
    else:
        cert = prove_divergence(c, EMPTY_STORE, EMPTY_STREAM, system, 100)
    doc = certificate_to_json(cert)
    if position is None:
        doc["nodes"][node]["subject"] = value
    else:
        _subject_entry(doc, node)[position] = value
    with pytest.raises(ValueError) as raised:
        certificate_from_json(doc)
    assert str(raised.value) == error


def test_equal_stores_and_streams_decode_to_one_value():
    graph = certificate_from_json(_documents()[1])
    stores = {id(n.store) for n in graph.nodes if n.store == graph.nodes[0].store}
    streams = {id(n.stream) for n in graph.nodes}
    assert len(graph.nodes) > 5 and len(stores) == 1 and len(streams) == 1


# A malformed value can equal a valid one (`true == 1`, `1.0 == 1`): it is
# reported, though an equal valid store or stream is read before it.
@pytest.mark.parametrize(
    "table,value,error",
    [
        pytest.param("stores", {"t": True}, "stores[1]: not a value: True", id="store-bool"),
        pytest.param("stores", {"t": 1.0}, "stores[1]: not a value: 1.0", id="store-float"),
        pytest.param("stores", {"t": [1]}, "stores[1]: not a value: [1]", id="store-list"),
        pytest.param("streams", {"values": [], "cursor": False},
                     "streams[1]: not a stream: {'cursor': False, 'values': []}", id="stream-cursor"),
        pytest.param("streams", {"values": [True], "cursor": 0}, "streams[1]: not a value: True", id="stream-bool"),
    ],
)
def test_a_malformed_value_equal_to_a_valid_one_is_reported(table, value, error):
    doc = _documents()[0]
    good = {"stores": {"t": 1}, "streams": {"values": [1], "cursor": 0}}[table]
    doc[table][:2] = [good, value]
    with pytest.raises(ValueError) as raised:
        certificate_from_json(doc)
    assert str(raised.value) == error


def _spin_document(system: str) -> dict:
    spin = parse_cmd("while 1 { skip }")
    if system == "lasso":
        cert = detect_lasso(_start(spin), 10)
    else:
        cert = prove_divergence(spin, EMPTY_STORE, EMPTY_STREAM, system, 100)
    return json.loads(json.dumps(certificate_to_json(cert)))


# A store key must parse as a variable, by the rule of `classify
# --abstract-vars`, and as the one it names: `(y)` and ` y` parse as `y`.
@pytest.mark.parametrize("key", ["", "1x", "while", "x y", "(y)", " y", "y # c"])
def test_a_store_key_that_is_no_variable_is_malformed(key):
    doc = _spin_document("lasso")
    doc["stores"] = [{"x": 1, key: 2}]
    with pytest.raises(ValueError) as raised:
        certificate_from_json(doc)
    assert str(raised.value) == f"stores[0]: a key must be a variable, got {key!r}"


def _replace_node(doc):
    doc["nodes"][0] = list(doc["nodes"][0].values())


def _set_result(doc):
    doc["nodes"][0]["result"] = [doc["nodes"][0]["result"]]


def _set_seq2(doc):
    doc["terms"].append(["seq2", 3])
    doc["nodes"][1]["subject"] = len(doc["terms"]) - 1


def _set_exc(doc):
    doc["terms"].append(["exc", 1])
    doc["nodes"][0]["flag_in"] = len(doc["terms"]) - 1


def _drop_stream(doc):
    del doc["nodes"][0]["result"][-1]


def _empty_term(doc):
    doc["terms"][1] = {}


def _two_key_term(doc):
    doc["terms"][1] = {"seq2": 1, "plain": "skip"}


def _empty_result(doc):
    doc["nodes"][0]["result"] = {}


def _two_key_result(doc):
    doc["nodes"][0]["result"] = {"status": 4, "stream": None}


# A field of the wrong shape is reported by its node or entry, and its field.
@pytest.mark.parametrize(
    "system,mutate,error",
    [
        pytest.param("flag-co", _replace_node, "nodes[0]: a node must be an object, got an array of 7", id="node"),
        pytest.param("pretty-co", _set_result, "nodes[0]: field 'result' must be null or an array of 2 or 3 "
                     "entries, got an array of 1", id="result"),
        pytest.param("pretty-co", _set_seq2, "terms[8]: seq2 takes 2 field(s), got 1", id="seq2"),
        pytest.param("flag-co", _set_exc, "terms[5]: exc takes 2 field(s), got 1", id="exc"),
        pytest.param("flag-co", _drop_stream, "nodes[0]: field 'result' must cite an outcome, got a status",
                     id="stream"),
        pytest.param("flag-co", _empty_term, "terms[1]: a term must be an array of a keyword and its fields, "
                     "got an object", id="term-empty-object"),
        pytest.param("pretty-co", _two_key_term, "terms[1]: a term must be an array of a keyword and its fields, "
                     "got an object", id="term-two-keys"),
        pytest.param("flag-co", _empty_result, "nodes[0]: field 'result' must be null or an array of 2 or 3 "
                     "entries, got an object", id="result-empty-object"),
        pytest.param("flag-co", _two_key_result, "nodes[0]: field 'result' must be null or an array of 2 or 3 "
                     "entries, got an object", id="result-two-keys"),
    ],
)
def test_a_field_of_the_wrong_shape_is_reported_by_its_node(system, mutate, error):
    doc = _spin_document(system)
    mutate(doc)
    with pytest.raises(ValueError) as raised:
        certificate_from_json(doc)
    assert str(raised.value) == error


# Every keyword of the term table, with its fields: a name, an operator, a
# value, a store index, or the index of a term of the kind named.
_TERM_FIELDS = {
    "skip": (),
    "alloc": (("x", "name"),),
    "assign": (("x", "name"), ("expr", "Expr")),
    "seq": (("first", "Cmd"), ("second", "Cmd")),
    "if": (("guard", "Expr"), ("then", "Cmd"), ("orelse", "Cmd")),
    "while": (("guard", "Expr"), ("body", "Cmd")),
    "throw": (("value", "Val"),),
    "catch": (("body", "Cmd"), ("handler", "Cmd")),
    "input": (),
    "lit": (("value", "Val"),),
    "var": (("name", "name"),),
    "bop": (("op", "op"), ("left", "Expr"), ("right", "Expr")),
    "down": (),
    "up": (),
    "exc": (("value", "Val"), ("at", "Store")),
    "conv": (("store", "Store"),),
    "div": (),
    "plain": (("cmd", "Cmd"),),
    "assign2": (("x", "name"), ("value", "Val")),
    "seq2": (("outcome", "Outcome"), ("rest", "Cmd")),
    "if2": (("value", "Val"), ("then", "Cmd"), ("orelse", "Cmd")),
    "while2": (("value", "Val"), ("guard", "Expr"), ("body", "Cmd")),
    "while3": (("outcome", "Outcome"), ("guard", "Expr"), ("body", "Cmd")),
}
# Per field kind: a valid field of the entry under test, which follows the
# four entries of `_PREFIX` and cites the one store; the same field as a
# term; a citation of the wrong kind and its message.
_PREFIX = [["skip"], ["lit", 1], ["down"], ["conv", 0]]
_FIELD_VALUES = {
    "Cmd": (0, Skip(), 1, "must cite a command, got an expression"),
    "Expr": (1, Lit(Nat(1)), 0, "must cite an expression, got a command"),
    "Outcome": (3, ConvO(Store({"x": Nat(1)})), 2, "must cite an outcome, got a status"),
    "Store": (0, Store({"x": Nat(1)}), None, None),
    "Val": (1, Nat(1), None, None),
    "name": ("x", "x", None, None),
    "op": ("+", "+", None, None),
}


def test_the_keyword_table_covers_every_term_class():
    assert _TERM_FIELDS.keys() == coinduction._CLASSES.keys()


@pytest.mark.parametrize("keyword", _TERM_FIELDS)
def test_every_keyword_round_trips(keyword):
    cls = coinduction._CLASSES[keyword]
    t = cls(*(_FIELD_VALUES[kind][1] for _, kind in _TERM_FIELDS[keyword]))
    stream, store = EMPTY_STREAM, EMPTY_STORE
    if isinstance(t, Cmd) or isinstance(t, Expr):
        node = GraphNode("step", t if isinstance(t, Cmd) else While(t, Skip()), store, None, stream, None, "I-Step", (0,))
        system = "lasso"
    elif isinstance(t, Status):
        node = GraphNode("flag", Skip(), store, t, stream, (DOWN, store, stream), "F-Skip", ())
        system = "flag-co"
    else:
        subject, result = (Plain(Skip()), (t, stream)) if isinstance(t, Outcome) else (t, (DIV, None))
        node = GraphNode("pretty", subject, store, None, stream, result, "P-Skip", ())
        system = "pretty-co"
    graph = DerivationGraph(system, 0, [node])
    doc = json.loads(json.dumps(certificate_to_json(graph)))
    back = certificate_from_json(doc)
    assert back == graph and certificate_to_json(back) == doc
    assert keyword in {entry[0] for entry in doc["terms"]}


def _defects(keyword: str):
    """(id, entry, message) for each defect of the keyword's entry the
    decode checks, the entry standing at index 4."""
    fields = _TERM_FIELDS[keyword]
    entry = [keyword, *(_FIELD_VALUES[kind][0] for _, kind in fields)]
    yield "valid", entry, None
    yield "arity", entry + [0], f"{keyword} takes {len(fields)} field(s), got {len(fields) + 1}"
    yield "keyword", [keyword + "x", *entry[1:]], f"unknown keyword '{keyword}x'"
    yield "keyword-int", [7, *entry[1:]], "unknown keyword 7"
    yield "object", {keyword: entry[1:]}, "a term must be an array of a keyword and its fields, got an object"
    yield "string", keyword, f"a term must be an array of a keyword and its fields, got {keyword!r}"
    for position, (field, kind) in enumerate(fields, 1):
        def at(value):
            return entry[:position] + [value] + entry[position + 1:]

        if kind in ("Cmd", "Expr", "Outcome", "Store"):
            below = 1 if kind == "Store" else 4
            yield f"{field}-string", at("0"), f"field {field!r} must be an index below {below}, got '0'"
            yield f"{field}-bool", at(False), f"field {field!r} must be an index below {below}, got a boolean"
            yield f"{field}-null", at(None), f"field {field!r} must be an index below {below}, got null"
            yield f"{field}-float", at(0.0), f"field {field!r} must be an index below {below}, got 0.0"
            yield f"{field}-negative", at(-1), f"field {field!r} must be an index below {below}, got -1"
            yield f"{field}-later", at(below), f"field {field!r} must be an index below {below}, got {below}"
        if kind in ("Cmd", "Expr", "Outcome"):
            _, _, wrong, message = _FIELD_VALUES[kind]
            yield f"{field}-kind", at(wrong), f"field {field!r} {message}"
        if kind == "name":
            for i, name in enumerate(("1x", "while", "(x)", "")):
                yield f"{field}-name{i}", at(name), f"field {field!r} must be a variable, got {name!r}"
            yield f"{field}-int", at(1), f"field {field!r} must be a variable, got 1"
            yield f"{field}-array", at(["x"]), f"field {field!r} must be a variable, got an array of 1"
        if kind == "op":
            yield "op-percent", at("%"), "field 'op' must be an operator, got '%'"
            yield "op-null", at(None), "field 'op' must be an operator, got null"
            yield "op-array", at(["+"]), "field 'op' must be an operator, got an array of 1"
        if kind == "Val":
            star = "field 'value' must be a natural or null, got '*'" if keyword in ("lit", "throw") else None
            yield f"{field}-star", at("*"), star
            yield f"{field}-null", at(None), None
            yield f"{field}-bool", at(True), "not a value: True"
            yield f"{field}-float", at(1.0), "not a value: 1.0"
            yield f"{field}-negative", at(-1), "Nat payload must be non-negative, got -1"
            yield f"{field}-string", at("1"), "not a value: '1'"


@pytest.mark.parametrize(
    "entry,error",
    [pytest.param(entry, error, id=f"{keyword}-{name}") for keyword in _TERM_FIELDS
     for name, entry, error in _defects(keyword)],
)
def test_each_defect_of_a_term_entry_is_named(entry, error):
    doc = {"kind": "derivation-graph", "format": 2, "system": "lasso", "root": 0,
           "terms": [*_PREFIX, entry], "stores": [{"x": 1}], "streams": [], "nodes": []}
    if error is None:
        assert certificate_from_json(doc).nodes == []
    else:
        with pytest.raises(ValueError) as raised:
            certificate_from_json(doc)
        assert str(raised.value) == f"terms[4]: {error}"


def test_the_readers_are_compiled_on_the_first_decode():
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import whilesem.cli, whilesem.coinduction as c; "
              "print(c._readers.cache_info().currsize)")
    src = str(Path(coinduction.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-B", "-c", script, src], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr
    certificate_from_json(_spin_document("lasso"))
    assert coinduction._readers.cache_info().currsize == 1


def test_equal_texts_decode_to_one_tree():
    lasso_doc, pretty_doc = _documents()
    lasso = certificate_from_json(lasso_doc)
    by_entry = {}
    for node, data in zip(lasso.nodes, lasso_doc["nodes"]):
        assert by_entry.setdefault(data["subject"], node.subject) is node.subject
    graph = certificate_from_json(pretty_doc)
    rest, plain = graph.nodes[1].subject, graph.nodes[2].subject
    assert isinstance(rest, Seq2) and isinstance(plain, Plain)
    assert rest.rest is plain.cmd
    # while2 and while3 of one loop share its guard and body
    w2, w3 = graph.nodes[-2].subject, graph.nodes[-1].subject
    assert w2.guard is w3.guard and w2.body is w3.body


def test_seed0_prover_certificates_decode_to_the_pinned_bytes(seed0_certificates):
    decoded = []
    for g in seed0_certificates:
        data = certificate_to_json(g)
        back = certificate_from_json(json.loads(json.dumps(data)))
        assert certificate_to_json(back) == data
        assert check_certificate(back) is None
        decoded.append(back)
    assert len(decoded) == 942
    assert _graph_digest(decoded) == SEED0_GRAPHS and _digest(decoded) == SEED0_BYTES


def test_long_chains_leave_the_recursion_limit_alone(monkeypatch):
    # The search keeps its own stack: a 1,500-step countdown before the
    # spin gives chains of more than 1,500 nodes in every system.
    def refuse(limit):
        raise AssertionError(f"setrecursionlimit({limit})")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    c = parse_cmd("alloc c; c := 1500; while 1 { if c { c := c - 1 } else { skip } }")
    for system in SYSTEMS:
        g = prove_divergence(c, EMPTY_STORE, EMPTY_STREAM, system, 8_000)
        assert g is not None, system
        depth, frontier = {g.root: 0}, [g.root]
        for nid in frontier:  # breadth first: the shortest path to each node
            for p in g.nodes[nid].premises:
                if p is not None and p not in depth:
                    depth[p] = depth[nid] + 1
                    frontier.append(p)
        assert max(depth.values()) > 1_500, system
        back = certificate_from_json(json.loads(json.dumps(certificate_to_json(g))))
        assert check_certificate(back) is None, system


# ---------------------------------------------------------------------------
# The checker interprets the shipped rule files


@pytest.fixture
def rules_served(monkeypatch):
    """Serve the rule files through an in-memory edit and drop the compiled
    plans and the search order; the shipped rules and fresh plans come back
    afterwards."""

    def clear():
        coinduction._plans.cache_clear()
        coinduction._search_order.cache_clear()

    def serve(edit):
        real = coinduction.load_ruleset
        monkeypatch.setattr(coinduction, "load_ruleset", lambda name: edit(name, real(name)))
        clear()

    yield serve
    monkeypatch.undo()
    clear()


def _edit_body(label, edit):
    """An edit that rewrites the body of the rule labelled `label`."""

    def apply(name, rs):
        rules = [dataclasses.replace(r, body=tuple(edit(r.body))) if r.label == label else r for r in rs.rules]
        return RuleSet(rs.signatures, rules)

    return apply


def _rename(label, new):
    """An edit that renames the rule labelled `label`."""

    def apply(name, rs):
        return RuleSet(rs.signatures, [dataclasses.replace(r, label=new) if r.label == label else r for r in rs.rules])

    return apply


def _zero_side(body):
    for item in body:
        nonzero = isinstance(item, SideCondition) and str(item) == "side nonzero v"
        yield SideCondition((Atom("zero"), Atom("v"))) if nonzero else item


def _while_zero_forgery():
    """One self-citing F-While node claiming that `while 0 { skip }` diverges."""
    return _spin_flag_node(parse_cmd("while 0 { skip }"), (UP, EMPTY_STORE, None))


def test_a_flipped_side_condition_rejects_what_it_accepted(rules_served):
    # D-WhileBody with `side zero v`: the outer loop of a nested spin no
    # longer diverges through its body
    g = prove_divergence(parse_cmd("while 1 { while 1 { skip } }"), EMPTY_STORE, EMPTY_STREAM, "div-pred", 100)
    assert g.nodes[g.root].rule == "D-WhileBody" and check_certificate(g) is None
    rules_served(_edit_body("D-WhileBody", _zero_side))
    assert check_certificate(g) == f"node {g.root} (D-WhileBody): side zero v does not hold"


def test_a_dropped_side_condition_accepts_a_forgery(rules_served):
    # Dropping a side condition can only widen what a rule accepts: F-While
    # without `side nonzero v` certifies a loop whose guard is zero.
    assert check_certificate(_while_zero_forgery()) == "node 0 (F-While): side nonzero v does not hold"
    rules_served(_edit_body("F-While", lambda body: (i for i in body if not isinstance(i, SideCondition))))
    assert check_certificate(_while_zero_forgery()) is None


def test_a_dropped_premise_leaves_a_rule_the_checker_refuses(rules_served):
    # D-Seq2 without its =B=> premise binds sigma1 and mu1 nowhere
    g = prove_divergence(parse_cmd("skip; while 1 { skip }"), EMPTY_STORE, EMPTY_STREAM, "div-pred", 100)
    assert g.nodes[g.root].rule == "D-Seq2" and check_certificate(g) is None
    rules_served(_edit_body("D-Seq2", lambda body: (i for i in body if getattr(i, "relation", "") != "B")))
    with pytest.raises(RuleParseError, match="D-Seq2: metavariable sigma1 is used before it is bound"):
        check_certificate(g)


@pytest.mark.parametrize(
    "rule,complaint",
    [
        ("(e, sigma, mu) =E=> (v, mu1)\n  side frobnicate v", "cannot interpret side frobnicate v"),
        ("(repeat c, sigma, mu) =D=> ()", "cannot interpret 'repeat c'"),
    ],
    ids=["side-condition", "term-head"],
)
def test_a_rule_outside_the_tables_raises_when_compiled(rules_served, spin, rule, complaint):
    extra = parse_rules(
        "signature (e, sigma, mu) =E=> (v, mu')\n"
        "signature (c, sigma, mu) =D=> ()\n"
        f"rule D-Extra:\n  {rule}\n  ---\n  (while e c, sigma, mu) =D=> ()\n"
    )
    g = prove_divergence(spin, EMPTY_STORE, EMPTY_STREAM, "div-pred", 100)
    rules_served(lambda name, rs: rs.union(extra) if name == "div_pred" else rs)
    with pytest.raises(RuleParseError, match=complaint):
        check_certificate(g)


@pytest.mark.parametrize(
    "system,label,new",
    [("div-pred", "D-Seq1", "D-SeqFirst"), ("flag-co", "F-Div", "F-Abort")],
)
def test_the_prover_reads_the_rule_labels(rules_served, spin_then_use, system, label, new):
    # The head of the sequence diverges (D-Seq1), and the code after it is an
    # abort leaf (F-Div): under renamed rules the prover emits the new labels.
    rules_served(_rename(label, new))
    g = prove_divergence(spin_then_use, EMPTY_STORE, EMPTY_STREAM, system, 100)
    assert g is not None and check_certificate(g) is None
    rules = {n.rule for n in g.nodes}
    assert new in rules and label not in rules
