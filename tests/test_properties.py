"""Cross-cutting invariants, each runnable as its own suite.

Every property here quantifies over a deterministic generated corpus, so a
failure reproduces exactly.  These are the load-bearing guarantees the
evaluators and checkers are designed around:

* the divergence flag cannot be introduced by evaluation — only propagated;
* the evaluator over semantic commands never fabricates a divergence
  outcome for a source program;
* every finite converging or excepting run is itself a valid derivation
  graph when exported, so the coinductive checker conservatively extends
  the inductive ones;
* once the divergence flag is raised, stores no longer carry information:
  rewriting them in a valid certificate cannot break it;
* printing and parsing are mutually inverse;
* adding fuel never changes a converged answer, and removing any of it
  from an exact run destroys convergence.
"""

import dataclasses

from whilesem.big_step import Done, OutOfFuel, eval_big, fuel_used
from whilesem.coinduction import FlagLabel, graph_error, graph_from_tree, prove_divergence
from whilesem.derivation import Recorder
from whilesem.flag_based import FlagResult, eval_flag, flag_fuel_used
from whilesem.parser import parse_cmd, pretty_cmd
from whilesem.pretty_big import DoneP, eval_pretty
from whilesem.small_step import SmallConfig, run_star
from whilesem.syntax import (
    Converged,
    DOWN,
    DivO,
    EMPTY_STORE,
    EMPTY_STREAM,
    Nat,
    Plain,
    Store,
    Up,
)

from conftest import corpus

FUEL = 400


def test_divergence_flag_never_introduced():
    """From the normal status, evaluation can converge, raise an exception,
    get stuck, or run out of fuel — never report divergence."""
    for c in corpus(400, allow_throw=True, allow_input=False, wellformed=0.7):
        r = eval_flag(c, EMPTY_STORE, DOWN, EMPTY_STREAM, FUEL)
        if isinstance(r, FlagResult):
            assert not isinstance(r.status, Up), pretty_cmd(c)


def test_divergence_outcome_never_fabricated():
    """Evaluating a plain source command never returns the divergence
    outcome: that outcome only enters through already-divergent
    intermediate forms, which source programs do not contain."""
    for c in corpus(400, wellformed=0.7):
        r = eval_pretty(Plain(c), EMPTY_STORE, EMPTY_STREAM, FUEL)
        if isinstance(r, DoneP):
            assert not isinstance(r.outcome, DivO), pretty_cmd(c)


def test_finite_runs_are_valid_derivation_graphs():
    """Every recorded converging (or cleanly excepting) run re-checks as a
    derivation graph: the coinductive reading accepts all finite proofs."""
    checked = 0
    for c in corpus(150, allow_throw=True, wellformed=0.95):
        rec = Recorder()
        r = eval_flag(c, EMPTY_STORE, DOWN, EMPTY_STREAM, FUEL, recorder=rec)
        if isinstance(r, FlagResult):
            g = graph_from_tree(rec.root, "flag-co")
            assert graph_error(g) is None, pretty_cmd(c)
            checked += 1
    assert checked > 100

    checked = 0
    for c in corpus(150, wellformed=0.95):
        rec = Recorder()
        r = eval_pretty(Plain(c), EMPTY_STORE, EMPTY_STREAM, FUEL, recorder=rec)
        if isinstance(r, DoneP):
            g = graph_from_tree(rec.root, "pretty-co")
            assert graph_error(g) is None, pretty_cmd(c)
            checked += 1
    assert checked > 100


def test_stores_are_irrelevant_once_divergence_flag_is_up():
    """Rewriting the store in every divergence-status label (and in every
    node entered with the flag already up) cannot invalidate a valid
    certificate: no rule inspects those stores."""
    junk = Store({"zzz": Nat(424242)})
    programs = [
        parse_cmd("while 1 { skip }"),
        parse_cmd("{ while 1 { skip } }; alloc x; x := x + 0"),
        parse_cmd("{ while 1 { skip } }; x := input; throw 1"),
    ]
    rewritten_any = False
    for c in programs:
        g = prove_divergence(c, EMPTY_STORE, EMPTY_STREAM, "flag-co", 1_000)
        assert g is not None and graph_error(g) is None
        nodes = []
        for n in g.nodes:
            if isinstance(n.result, FlagLabel) and isinstance(n.result.status, Up):
                n = dataclasses.replace(
                    n, result=dataclasses.replace(n.result, store_out=junk)
                )
                rewritten_any = True
            if isinstance(n.flag_in, Up):
                n = dataclasses.replace(n, store=junk)
            nodes.append(n)
        g = dataclasses.replace(g, nodes=nodes)
        assert graph_error(g) is None, pretty_cmd(c)
    assert rewritten_any


def test_print_parse_round_trip():
    for c in corpus(400, allow_throw=True, allow_input=True, wellformed=0.6):
        assert parse_cmd(pretty_cmd(c)) == c


def test_fuel_is_exact_and_monotone():
    """A converging run at its exact fuel keeps its result under any larger
    budget and loses it under any smaller one."""
    exercised = 0
    for c in corpus(200, first_seed=300):
        used = fuel_used(c, EMPTY_STORE, EMPTY_STREAM, FUEL)
        if used is None:
            continue
        exact = eval_big(c, EMPTY_STORE, EMPTY_STREAM, used)
        more = eval_big(c, EMPTY_STORE, EMPTY_STREAM, 10 * used + 7)
        assert isinstance(exact, Done) and exact == more
        assert eval_big(c, EMPTY_STORE, EMPTY_STREAM, used - 1) == OutOfFuel()

        fused = flag_fuel_used(c, EMPTY_STORE, DOWN, EMPTY_STREAM, FUEL)
        assert fused == used  # tick-for-tick parity on throwless programs
        # the first run reports the same count, at any fuel that suffices
        assert exact.fuel_spent == more.fuel_spent == used
        flag = eval_flag(c, EMPTY_STORE, DOWN, EMPTY_STREAM, FUEL)
        assert flag.fuel_spent == used
        exercised += 1
    assert exercised > 100


def test_small_step_verdicts_are_stable_under_more_fuel():
    for c in corpus(200, first_seed=800):
        v1, _ = run_star(SmallConfig(c, EMPTY_STORE, EMPTY_STREAM), FUEL)
        if isinstance(v1, Converged):
            v2, _ = run_star(SmallConfig(c, EMPTY_STORE, EMPTY_STREAM), 3 * FUEL)
            assert v1 == v2
