"""End-to-end acceptance: the nine headline behaviours of the workbench.

Each test covers one acceptance criterion and prints exactly one
``[criterion N] …: PASS/FAIL`` line (run pytest with ``-s`` or ``-rA`` to
see the lines for passing tests too).
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from whilesem.big_step import OutOfFuel, eval_big
from whilesem.coinduction import (
    SYSTEMS,
    check_certificate,
    detect_lasso,
    certificate_to_json,
    lasso_graph,
    prove_divergence,
)
from whilesem.flag_based import OutOfFuelF, eval_flag
from whilesem.harness import DEFAULT_WEIGHTS, GenConfig, compare_all, fuzz_campaign
from whilesem.parser import parse_cmd
from whilesem.pretty_big import OutOfFuelP, eval_pretty
from whilesem.rule_dsl import alpha_equal, count_metrics, load_ruleset, thread_flags
from whilesem.small_step import SmallConfig, run_star
from whilesem.syntax import (
    Converged,
    DOWN,
    DivergesProven,
    EMPTY_STORE,
    EMPTY_STREAM,
    InputStream,
    Nat,
    Plain,
    Store,
    Stuck,
    fac_program,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL", flush=True)
        raise
    print(f"[criterion {number}] {name}: PASS", flush=True)


def test_criterion_1_factorial_agrees_under_all_four_evaluators():
    with criterion(1, "factorial of 4 under all four evaluators"):
        expected = Store({"c": Nat(0), "r": Nat(24)})
        c = fac_program(4)

        def timed(run):
            t0 = time.monotonic()
            result = run()
            assert time.monotonic() - t0 < 1.0
            return result

        small, _ = timed(lambda: run_star(SmallConfig(c, EMPTY_STORE, EMPTY_STREAM), 10_000))
        assert small == Converged(expected)

        big = timed(lambda: eval_big(c, EMPTY_STORE, EMPTY_STREAM, 10_000))
        assert big.store == expected

        pretty = timed(lambda: eval_pretty(Plain(c), EMPTY_STORE, EMPTY_STREAM, 10_000))
        assert pretty.outcome.store == expected

        flag = timed(lambda: eval_flag(c, EMPTY_STORE, DOWN, EMPTY_STREAM, 10_000))
        assert flag.status == DOWN and flag.store == expected


def test_criterion_2_minimal_loop_detected_and_proved_everywhere():
    with criterion(2, "minimal loop: fuel exhaustion, lasso, three certificates"):
        spin = parse_cmd("while 1 { skip }")
        assert eval_big(spin, EMPTY_STORE, EMPTY_STREAM, 100_000) == OutOfFuel()
        assert eval_pretty(Plain(spin), EMPTY_STORE, EMPTY_STREAM, 100_000) == OutOfFuelP()
        assert eval_flag(spin, EMPTY_STORE, DOWN, EMPTY_STREAM, 100_000) == OutOfFuelF()

        lasso = detect_lasso(SmallConfig(spin, EMPTY_STORE, EMPTY_STREAM), 10)
        assert lasso is not None and len(lasso.cycle) == 2

        for system in SYSTEMS:
            g = prove_divergence(spin, EMPTY_STORE, EMPTY_STREAM, system, 100)
            assert g is not None, system
            assert check_certificate(g) is None, system


def test_criterion_3_growing_store_needs_projection():
    with criterion(3, "store-growing loop: projection makes the lasso findable"):
        grower = parse_cmd("alloc x; x := 0; while 1 { x := x + 1 }")
        start = SmallConfig(grower, EMPTY_STORE, EMPTY_STREAM)
        assert detect_lasso(start, 1_000) is None
        lasso = detect_lasso(start, 1_000, frozenset({"x"}))
        assert lasso is not None
        assert check_certificate(lasso_graph(lasso)) is None


def test_criterion_4_code_after_divergence_discharged_by_abort_rule():
    with criterion(4, "divergent head: dead tail justified by the abort rule"):
        c = parse_cmd("{ while 1 { skip } }; alloc x; x := x + 0")
        lasso = detect_lasso(SmallConfig(c, EMPTY_STORE, EMPTY_STREAM), 1_000)
        assert lasso is not None

        g = prove_divergence(c, EMPTY_STORE, EMPTY_STREAM, "flag-co", 1_000)
        assert g is not None and check_certificate(g) is None
        data = json.loads(json.dumps(certificate_to_json(g)))
        root = data["nodes"][data["root"]]
        assert root["rule"] == "F-Seq"
        second = data["nodes"][root["premises"][1]]
        assert second["rule"] == "F-Div"


def test_criterion_5_input_decides_between_stuck_and_proven_divergence():
    with criterion(5, "input gate: [1] sticks, [0] diverges provably"):
        c = parse_cmd("if input { x := 0 } else { skip }; while 1 { skip }")
        report = compare_all(c, [InputStream.of(1), InputStream.of(0)], fuel=1_000)
        assert report.agreement
        one, zero = report.comparisons
        assert isinstance(one.verdicts["small"], Stuck)
        assert all(isinstance(v, Stuck) for v in one.verdicts.values())
        assert isinstance(zero.verdicts["small"], DivergesProven)
        assert zero.provers == {s: True for s in SYSTEMS}


def test_criterion_6_rule_and_premise_counts():
    with criterion(6, "rule metrics reproduce exactly"):
        flag = count_metrics(load_ruleset("flag_based.rules"))
        assert (flag.rules, flag.premises) == (13, 13)

        pretty = count_metrics(load_ruleset("pretty_big.rules"))
        assert (pretty.rules, pretty.premises) == (18, 16)

        base = load_ruleset("big_step.rules")
        union = base.union(load_ruleset("div_pred.rules"))
        combined = count_metrics(union, base=base)
        assert (combined.rules, combined.premises, combined.duplicates) == (17, 25, 6)


def test_criterion_7_flag_threading_reproduces_handwritten_rules():
    with criterion(7, "implicit rules thread to the hand-written explicit ones"):
        threaded = thread_flags(load_ruleset("flag_based_implicit.rules"))
        explicit = load_ruleset("flag_based.rules")
        assert alpha_equal(threaded, explicit) is True


def test_criterion_8_differential_campaigns():
    with criterion(8, "differential campaigns: 10k plain + 1k input + 1k throw"):
        t0 = time.monotonic()

        plain = fuzz_campaign(GenConfig(seed=0, max_depth=5), 10_000, fuel=500)
        assert plain.ok(), plain.disagreements[:3]
        assert plain.total == 10_000

        with_input = fuzz_campaign(
            GenConfig(seed=500_000, max_depth=5, allow_input=True), 1_000, fuel=500
        )
        assert with_input.ok(), with_input.disagreements[:3]

        throws = fuzz_campaign(
            GenConfig(
                seed=77,
                max_depth=5,
                allow_throw=True,
                wellformed=1.0,
                weights={**DEFAULT_WEIGHTS, "while": 0.0},
            ),
            1_000,
            fuel=500,
        )
        assert throws.ok()
        assert throws.flag_stuck == 0   # propagation alone can never strand it
        assert throws.verdict_counts["exception"] > 0

        assert time.monotonic() - t0 < 300  # the whole battery in under 5 minutes


def test_criterion_9_property_suites_run_standalone():
    with criterion(9, "invariant suites pass as a standalone pytest run"):
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
