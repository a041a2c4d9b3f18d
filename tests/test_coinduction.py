"""Divergence certificates: lassos, derivation graphs, checkers, JSON."""

import dataclasses
import hashlib
import json
import sys

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
    graph_to_json,
    lasso_error,
    lasso_from_json,
    lasso_to_json,
    prove_divergence,
)
import whilesem.coinduction as coinduction
from whilesem.derivation import Recorder
from whilesem.flag_based import eval_flag
from whilesem.harness import GenConfig, binary_streams, default_streams, generate_program
from whilesem.parser import parse_cmd
from whilesem.pretty_big import eval_pretty
from whilesem.rule_dsl import Atom, RuleParseError, RuleSet, SideCondition, parse_rules
from whilesem.small_step import SmallConfig, step
from whilesem.syntax import (
    ANY_NAT,
    AnyNat,
    ConvO,
    DIV,
    DOWN,
    EMPTY_STORE,
    EMPTY_STREAM,
    Exc,
    InputStream,
    Nat,
    Plain,
    Seq2,
    Skip,
    Store,
    UP,
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
    assert lasso_error(lasso) is None


def test_terminating_program_has_no_lasso(fac4):
    assert detect_lasso(_start(fac4), 10_000) is None


def test_stuck_program_has_no_lasso():
    assert detect_lasso(_start(parse_cmd("x := 1")), 100) is None


def _reference_lasso(cfg, fuel, projected):
    """The search with keys worked out per configuration: the cursor counts
    only while the configuration's own command reads input.  Once a command
    reads no input the cursor never moves again, so this finds the lasso
    that keys carrying the cursor always find."""

    def key(c):
        store = tuple((x, "#nat" if x in projected and isinstance(v, (Nat, AnyNat)) else v) for x, v in c.store.items())
        return c.cmd, store, c.stream.cursor if cmd_has_input(c.cmd) else None

    seen, trail, cur = {key(cfg): 0}, [cfg], cfg
    for _ in range(fuel):
        nxt = None if cur.terminal() else step(cur)
        if nxt is None:
            return None
        hit = seen.get(key(nxt))
        if hit is not None:
            return Lasso(tuple(trail[:hit]), tuple(trail[hit:]), projected)
        seen[key(nxt)] = len(trail)
        trail.append(nxt)
        cur = nxt
    return None


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
    assert lasso_error(lasso) is None
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
    bad = Lasso(lasso.prefix, lasso.cycle[:1], lasso.projected)
    assert lasso_error(bad) is not None
    # empty cycle is not a proof of anything
    assert lasso_error(Lasso(lasso.prefix, (), lasso.projected)) is not None


def test_lasso_json_round_trip(grower):
    lasso = detect_lasso(_start(grower), 1_000, frozenset({"x"}))
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
    assert _digest(seed0_certificates) == (
        "70abe296858712e0c6b0f1c0e9caabb12c893416e24095f6a95bdd759ff33c7f"
    )


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
    assert _digest(graphs) == (
        "37fbcd5a79da5f0de1a5875a20fb270e395b9636c9c5d363ce0e90dc2afe5696"
    )


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
        data = json.loads(json.dumps(graph_to_json(g), ensure_ascii=False))
        back = certificate_from_json(data)
        assert isinstance(back, DerivationGraph)
        assert graph_error(back) is None
        assert graph_to_json(back) == graph_to_json(g)


def test_check_certificate_dispatches(spin):
    lasso = detect_lasso(_start(spin), 10)
    assert check_certificate(lasso) is None
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
# Decoding parses each distinct text once per certificate


def _counting_parsers(monkeypatch):
    """Every text the decoder hands to `parse_cmd` and `parse_expr`."""
    def counted(seen, parse):
        def wrapper(text):
            seen.append(text)
            return parse(text)

        return wrapper

    cmds, exprs = [], []
    monkeypatch.setattr(coinduction, "parse_cmd", counted(cmds, coinduction.parse_cmd))
    monkeypatch.setattr(coinduction.parser, "parse_expr", counted(exprs, coinduction.parser.parse_expr))
    return cmds, exprs


def _texts(doc):
    """The command texts and guard texts of a certificate document."""
    if doc["kind"] == "lasso":
        return [c["cmd"] for c in doc["prefix"] + doc["cycle"]], []
    cmds, guards = [], []
    for node in doc["nodes"]:
        subject = node["subject"]
        if isinstance(subject, str):
            cmds.append(subject)
            continue
        (kind, payload), = subject.items()
        if kind == "plain":
            cmds.append(payload)
        elif kind != "assign2":
            cmds += [v for k, v in payload.items() if k in ("rest", "then", "else", "body")]
            guards += [payload["guard"]] if "guard" in payload else []
    return cmds, guards


def _countdown_then_spin():
    return parse_cmd("alloc t; t := 3; while t { t := t - 1 }; while 1 { skip }")


def _documents():
    c = _countdown_then_spin()
    lasso = detect_lasso(_start(c), 1_000)
    pretty = prove_divergence(c, EMPTY_STORE, EMPTY_STREAM, "pretty-co", 1_000)
    return [certificate_to_json(lasso), certificate_to_json(pretty)]


@pytest.mark.parametrize("doc", _documents(), ids=["lasso", "pretty-co"])
def test_decoding_parses_each_distinct_text_once(doc, monkeypatch):
    cmd_texts, guard_texts = _texts(doc)
    assert len(set(cmd_texts)) < len(cmd_texts)  # the document repeats texts
    cmds, exprs = _counting_parsers(monkeypatch)
    certificate_from_json(doc)
    assert sorted(cmds) == sorted(set(cmd_texts))
    assert sorted(exprs) == sorted(set(guard_texts))
    # nothing is kept between decodes: the next one parses again
    certificate_from_json(doc)
    assert sorted(cmds) == sorted(list(set(cmd_texts)) * 2)
    assert sorted(exprs) == sorted(list(set(guard_texts)) * 2)


@pytest.mark.parametrize(
    "system,path,value,error",
    [
        pytest.param("lasso", ("cycle", 0, "cmd"), 5, "cmd must be str, got int", id="lasso-cmd"),
        pytest.param("flag-co", ("nodes", 0, "subject"), ["skip"], "subject must be str, got list", id="subject"),
        pytest.param("pretty-co", ("nodes", 0, "subject", "plain"), None, "plain must be str, got NoneType",
                     id="plain"),
        pytest.param("pretty-co", ("nodes", 1, "subject", "seq2", "rest"), 3, "rest must be str, got int",
                     id="seq2-rest"),
        pytest.param("pretty-co", ("nodes", 3, "subject", "if2", "then"), True, "then must be str, got bool",
                     id="if2-then"),
        pytest.param("pretty-co", ("nodes", 3, "subject", "if2", "else"), [1], "else must be str, got list",
                     id="if2-else"),
        pytest.param("pretty-co", ("nodes", 5, "subject", "while2", "guard"), {"t": 1},
                     "guard must be str, got dict", id="while2-guard"),
        pytest.param("pretty-co", ("nodes", 6, "subject", "while3", "body"), 1.5, "body must be str, got float",
                     id="while3-body"),
    ],
)
def test_text_of_the_wrong_type_is_reported_by_its_field(system, path, value, error):
    c = parse_cmd("alloc t; if 1 { while t { skip } } else { skip }")
    if system == "lasso":
        cert = detect_lasso(_start(c), 100)
    else:
        cert = prove_divergence(c, EMPTY_STORE, EMPTY_STREAM, system, 100)
    doc = certificate_to_json(cert)
    *keys, field = path
    place = doc
    for key in keys:
        place = place[key]
    place[field] = value
    with pytest.raises(ValueError) as raised:
        certificate_from_json(doc)
    assert str(raised.value) == error


def test_equal_texts_decode_to_one_tree():
    lasso_doc, pretty_doc = _documents()
    lasso = certificate_from_json(lasso_doc)
    configs = lasso.prefix + lasso.cycle
    by_text = {}
    for cfg, data in zip(configs, lasso_doc["prefix"] + lasso_doc["cycle"]):
        assert by_text.setdefault(data["cmd"], cfg.cmd) is cfg.cmd
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
    assert _digest(decoded) == (
        "70abe296858712e0c6b0f1c0e9caabb12c893416e24095f6a95bdd759ff33c7f"
    )


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
