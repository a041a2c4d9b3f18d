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
  from an exact run destroys convergence;
* the three big-step evaluators, and the small-step semantics, get stuck
  on the same programs, for the same reasons, as they always have.
"""

import dataclasses
import hashlib

from whilesem.big_step import Done, OutOfFuel, eval_big, fuel_used
from whilesem.coinduction import graph_error, graph_from_tree, prove_divergence
from whilesem.derivation import Recorder
from whilesem.flag_based import FlagResult, eval_flag, flag_fuel_used
from whilesem.harness import GenConfig, default_streams, generate_program
from whilesem.parser import parse_cmd, pretty_cmd
from whilesem.pretty_big import DoneP, eval_pretty
from whilesem.small_step import SmallConfig, run_star, step, stuck_reason
from whilesem.syntax import (
    Converged,
    DOWN,
    DivO,
    EMPTY_STORE,
    EMPTY_STREAM,
    Nat,
    Plain,
    Store,
    Stuck,
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
            if isinstance(n.result[0], Up):
                n = dataclasses.replace(n, result=(n.result[0], junk, n.result[2]))
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


def test_stuck_reasons_are_pinned():
    """Every stuck result of the three big-step evaluators, with its reason,
    over a corpus that reaches every stuck rule: unbound and unallocated
    variables, null operands, exhausted input, indeterminate guards, double
    allocation, and throw/catch outside the flag-based semantics."""
    h, stuck = hashlib.sha256(), 0
    for i in range(3000):
        cfg = GenConfig(seed=7, max_depth=5, allow_input=True, allow_throw=i % 2 == 0, wellformed=0.5)
        c = generate_program(cfg, i)
        for stream in default_streams(c):
            for r in (
                eval_big(c, EMPTY_STORE, stream, 300),
                eval_pretty(Plain(c), EMPTY_STORE, stream, 300),
                eval_flag(c, EMPTY_STORE, DOWN, stream, 300),
            ):
                if isinstance(r, Stuck):
                    stuck += 1
                    h.update(f"{i}\t{r.reason}\n".encode())
    assert stuck == 52916
    assert h.hexdigest() == "a1efb9b584558b7db26c5c86fd3a363d73552d1f78c120a8286e335f72bf26e7"


def test_small_step_stuck_reasons_are_pinned():
    """Every stuck small-step run, with its reason, over the corpus of the
    big-step pin above.  The last configuration of each has no step, and
    `stuck_reason` gives it the verdict's reason."""
    h, stuck = hashlib.sha256(), 0
    for i in range(3000):
        cfg = GenConfig(seed=7, max_depth=5, allow_input=True, allow_throw=i % 2 == 0, wellformed=0.5)
        c = generate_program(cfg, i)
        for stream in default_streams(c):
            verdict, trace = run_star(SmallConfig(c, EMPTY_STORE, stream), 300)
            if isinstance(verdict, Stuck):
                stuck += 1
                h.update(f"{i}\t{verdict.reason}\n".encode())
                assert step(trace.final) is None
                assert stuck_reason(trace.final) == verdict.reason
    assert stuck == 18416
    assert h.hexdigest() == "e428abe5688b7c58ae530a104e3cbe4bbf2abffcc3b7a244a85482073d8a5266"
