"""Divergence certificates: lassos, derivation graphs, checkers, JSON."""

import dataclasses
import hashlib
import json

import pytest

from whilesem.coinduction import (
    Abstraction,
    AbstractionUnsound,
    DerivationGraph,
    FlagLabel,
    GraphNode,
    Lasso,
    PrettyLabel,
    SYSTEMS,
    abstract_store,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    detect_lasso,
    graph_error,
    graph_from_tree,
    graph_to_json,
    lasso_error,
    lasso_from_json,
    lasso_to_json,
    prove_divergence,
)
import whilesem.coinduction as coinduction
from whilesem.derivation import Recorder
from whilesem.flag_based import eval_flag
from whilesem.harness import GenConfig, default_streams, generate_program
from whilesem.parser import parse_cmd
from whilesem.pretty_big import eval_pretty
from whilesem.small_step import SmallConfig, step
from whilesem.syntax import (
    ANY_NAT,
    ConvO,
    DIV,
    DOWN,
    EMPTY_STORE,
    EMPTY_STREAM,
    Exc,
    InputStream,
    Nat,
    Plain,
    Store,
    UP,
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
    assert lasso_error(lasso) is None


def test_terminating_program_has_no_lasso(fac4):
    assert detect_lasso(_start(fac4), 10_000) is None


def test_stuck_program_has_no_lasso():
    assert detect_lasso(_start(parse_cmd("x := 1")), 100) is None


def test_growing_store_defeats_concrete_search(grower):
    assert detect_lasso(_start(grower), 1_000) is None


def test_growing_store_found_with_projection(grower):
    lasso = detect_lasso(_start(grower), 1_000, Abstraction.of("x"))
    assert lasso is not None
    assert len(lasso.cycle) == 3
    assert lasso_error(lasso) is None


def test_projection_of_guard_variable_rejected():
    c = parse_cmd("alloc x; x := 1; while x { x := x + 1 }")
    with pytest.raises(AbstractionUnsound, match="occurs in a guard"):
        detect_lasso(_start(c), 100, Abstraction.of("x"))


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
    bad = Lasso(lasso.prefix, lasso.cycle[:1], lasso.abstraction)
    assert lasso_error(bad) is not None
    # empty cycle is not a proof of anything
    assert lasso_error(Lasso(lasso.prefix, (), lasso.abstraction)) is not None


def test_lasso_json_round_trip(grower):
    lasso = detect_lasso(_start(grower), 1_000, Abstraction.of("x"))
    data = json.loads(json.dumps(lasso_to_json(lasso)))
    back = lasso_from_json(data)
    assert lasso_error(back) is None
    assert back.cycle == lasso.cycle


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
            grower, EMPTY_STORE, EMPTY_STREAM, system, 1_000, Abstraction.of("x")
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
    data = graph_to_json(g)
    root = next(n for n in data["nodes"] if n["id"] == data["root"])
    assert root["rule"] == "F-Seq"
    second = next(n for n in data["nodes"] if n["id"] == root["premises"][1])
    # the code after the divergent head is discharged by the abort rule,
    # not by evaluating it (it would be stuck: x is never allocated)
    assert second["rule"] == "F-Div"
    assert second["flag_in"] == "up"


def test_divergence_after_input_prefix(input_gate):
    stream = InputStream.of(0)
    for system in SYSTEMS:
        g = prove_divergence(input_gate, EMPTY_STORE, stream, system, 1_000)
        assert g is not None, system
        assert graph_error(g) is None


def _digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        h.update(json.dumps(certificate_to_json(g), sort_keys=True).encode())
    return h.hexdigest()


def test_prover_certificates_are_pinned():
    # Every certificate the provers emit on the first 2,000 seed-0 campaign
    # programs, byte for byte: a faster prover must build the same graphs.
    cfg = GenConfig(seed=0, max_depth=5)
    graphs = []
    for i in range(2_000):
        p = generate_program(cfg, i)
        for stream in default_streams(p):
            for system in SYSTEMS:
                g = prove_divergence(p, EMPTY_STORE, stream, system, 500)
                if g is not None:
                    graphs.append(g)
    assert len(graphs) == 942
    assert _digest(graphs) == (
        "70abe296858712e0c6b0f1c0e9caabb12c893416e24095f6a95bdd759ff33c7f"
    )


def test_abstract_build_probes_by_evaluation(grower, monkeypatch):
    # Small-step cannot branch on `*`, so an abstract build searches only
    # from the root and decides every premise by running the evaluator.
    searched = []
    real = coinduction.detect_lasso
    monkeypatch.setattr(
        coinduction, "detect_lasso", lambda *a, **k: searched.append(a[0]) or real(*a, **k)
    )
    graphs = [
        prove_divergence(grower, EMPTY_STORE, EMPTY_STREAM, system, 1_000, Abstraction.of("x"))
        for system in SYSTEMS
    ]
    assert searched == [_start(grower)] * 3
    assert _digest(graphs) == (
        "37fbcd5a79da5f0de1a5875a20fb270e395b9636c9c5d363ce0e90dc2afe5696"
    )


def test_handed_lasso_skips_the_root_search(spin_then_use, monkeypatch):
    lasso = detect_lasso(_start(spin_then_use), 100)
    searched = []
    real = coinduction.detect_lasso
    monkeypatch.setattr(
        coinduction, "detect_lasso", lambda *a, **k: searched.append(a[0]) or real(*a, **k)
    )
    for system in SYSTEMS:
        g = prove_divergence(spin_then_use, EMPTY_STORE, EMPTY_STREAM, system, 100, lasso=lasso)
        assert g is not None and graph_error(g) is None, system
    assert searched  # the probes still search their own premises
    assert _start(spin_then_use) not in searched


def test_wrong_lasso_hand_off_yields_no_certificate(fac4, spin):
    # The hand-off only skips the search; the built graph is still checked.
    lasso = detect_lasso(_start(spin), 10)
    for system in SYSTEMS:
        assert prove_divergence(fac4, EMPTY_STORE, EMPTY_STREAM, system, 1_000, lasso=lasso) is None


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
        g = prove_divergence(grower, EMPTY_STORE, EMPTY_STREAM, system, 1_000, Abstraction.of("x"))
        data = json.loads(json.dumps(graph_to_json(g), ensure_ascii=False))
        back = certificate_from_json(data)
        assert isinstance(back, DerivationGraph)
        assert graph_error(back) is None
        assert graph_to_json(back) == graph_to_json(g)


def test_check_certificate_dispatches(spin):
    lasso = detect_lasso(_start(spin), 10)
    graph = prove_divergence(spin, EMPTY_STORE, EMPTY_STREAM, "pretty-co", 100)
    assert check_certificate(lasso) is None
    assert check_certificate(graph) is None
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
        FlagLabel(DOWN, junk_store, EMPTY_STREAM),
        FlagLabel(UP, EMPTY_STORE, None),
        FlagLabel(Exc(Nat(5), junk_store), EMPTY_STORE, EMPTY_STREAM),
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
        PrettyLabel(ConvO(Store({"ghost": Nat(1)})), EMPTY_STREAM),
        PrettyLabel(DIV, None),
    ]:
        g = DerivationGraph(
            honest.system,
            honest.root,
            [dataclasses.replace(n, result=junk) for n in honest.nodes],
        )
        assert graph_error(g) is None, junk


def test_self_justification_cannot_claim_a_wrong_converging_run(fac4):
    """For a *terminating* program the execution-discharged premises pin the
    real result: a graph claiming a different store is rejected."""
    rec = Recorder()
    eval_flag(fac4, EMPTY_STORE, DOWN, EMPTY_STREAM, 10_000, recorder=rec)
    g = graph_from_tree(rec.root, "flag-co")
    assert graph_error(g) is None
    root = g.nodes[g.root]
    wrong = dataclasses.replace(
        root, result=FlagLabel(DOWN, Store({"c": Nat(0), "r": Nat(25)}), EMPTY_STREAM)
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
        grower, EMPTY_STORE, EMPTY_STREAM, "div-pred", 1_000, Abstraction.of("x")
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
    a = abstract_store(s, Abstraction.of("x"))
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


def test_finite_input_run_exports_to_valid_graph():
    c = parse_cmd("alloc x; x := input + input")
    rec = Recorder()
    eval_flag(c, EMPTY_STORE, DOWN, InputStream.of(2, 3), 100, recorder=rec)
    g = graph_from_tree(rec.root, "flag-co")
    assert graph_error(g) is None
