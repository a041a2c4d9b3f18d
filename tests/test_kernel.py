"""Loop kernels change no result.

An unrecorded run of `eval_big`, `eval_flag` or `eval_pretty` runs whole
iterations of a covered loop in its kernel; a run under a `Recorder` never
does, so it is the rule-by-rule reference.  Both must give the same result
class, store, stream, fuel spent and stuck reason, at every fuel: on the
seed-0 corpus, on the long-loops benchmark's templates around the fuel where
they run out, on loops that must not take the kernel, and on loops whose
decoded terms are shared.
"""

import importlib.util
import signal
from pathlib import Path

import pytest

from whilesem import big_step, flag_based, pretty_big
from whilesem.big_step import eval_big
from whilesem.coinduction import certificate_from_json, check_certificate
from whilesem.derivation import Recorder
from whilesem.flag_based import eval_flag
from whilesem.harness import GenConfig, generate_program
from whilesem.kernel import run_kernel
from whilesem.parser import parse_cmd
from whilesem.pretty_big import eval_pretty
from whilesem.syntax import ANY_NAT, DOWN, EMPTY_STORE, EMPTY_STREAM, InputStream, Nat, Plain, Store, While, _subcommands

EVALUATORS = {
    "big": lambda c, store, stream, fuel, rec: eval_big(c, store, stream, fuel, rec),
    "flag": lambda c, store, stream, fuel, rec: eval_flag(c, store, DOWN, stream, fuel, rec),
    "pretty": lambda c, store, stream, fuel, rec: eval_pretty(Plain(c), store, stream, fuel, rec),
}


@pytest.mark.parametrize("module,iteration", [(big_step, 2), (flag_based, 2), (pretty_big, 5)], ids=EVALUATORS)
def test_a_kernel_runs_the_whole_iterations_its_fuel_covers(module, iteration):
    """An iteration of `while n { n := n - 1 }` costs two rules in big-step
    and flag-based (the loop's and the assignment's), five in pretty-big-step
    (three loop rules and two for the assignment).  The kernel runs as many
    as the fuel covers, and stops at the next head with the rest."""
    w = parse_cmd("while n { n := n - 1 }")
    for fuel in range(4 * iteration):
        m = {"n": Nat(100)}
        assert run_kernel(w, m, fuel, module.KERNEL_COSTS) == (fuel % iteration if fuel >= iteration else None), fuel
        assert m == {"n": Nat(100 - fuel // iteration)}, fuel


def _observed(r) -> tuple:
    """What a result shows: its class, its fields (a stuck reason, or a
    store, stream and status or outcome) and the fuel it spent."""
    return type(r).__name__, r, getattr(r, "fuel_spent", None)


def _mismatches(c, fuel, store=EMPTY_STORE, stream=EMPTY_STREAM) -> list:
    """The evaluators whose unrecorded run of `c` differs from their
    recorded one."""
    return [
        name for name, run in EVALUATORS.items()
        if _observed(run(c, store, stream, fuel, None)) != _observed(run(c, store, stream, fuel, Recorder()))
    ]


def _loops(c) -> list:
    return [d for d in _subcommands(c) if type(d) is While]


def test_kernels_agree_with_the_interpreter_on_the_seed0_corpus():
    cfg, covered = GenConfig(seed=0, max_depth=5), 0
    for seed in range(2000):
        c = generate_program(cfg, seed)
        for fuel in (1, 5, 17, 60, 500):
            assert _mismatches(c, fuel) == [], (seed, fuel)
        covered += any(w._kernel for w in _loops(c))
    assert covered > 100


def _long_loops():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [program for seed in (0, 1) for program, _, _ in module.LongLoops(seed, tiny=True).programs]


# The rules of a long-loops template's costliest iteration: the loop's own,
# three or four sequences, one conditional and four or five assignments.
ITERATION = {"big": 10, "flag": 10, "pretty": 21}


@pytest.mark.parametrize("name", EVALUATORS)
def test_kernels_agree_with_the_interpreter_where_long_loops_run_out(name):
    """Every fuel from two costliest iterations below the fuel a template
    needs to one above it: the runs that end out of fuel inside the loop,
    at its last heads, and that just finish."""
    run = EVALUATORS[name]
    for c in _long_loops():
        exact = run(c, EMPTY_STORE, EMPTY_STREAM, 10**6, None).fuel_spent
        for fuel in range(exact - 2 * ITERATION[name], exact + 2):
            assert _observed(run(c, EMPTY_STORE, EMPTY_STREAM, fuel, None)) == _observed(
                run(c, EMPTY_STORE, EMPTY_STREAM, fuel, Recorder())
            ), fuel
        assert _loops(c)[0]._kernel


# Loops that no kernel covers, and the stream each reads.  Each finishes its
# first iteration, so a kernel is asked at the second head.
UNCOVERED = {
    "allocates": ("alloc n; n := 2; while n { alloc x; n := n - 1 }", ()),
    "reads input": ("alloc n; alloc x; n := 2; while n { x := input; n := n - 1 }", (4, 5)),
    "throws": ("alloc n; n := 2; while n { n := n - 1; if n { skip } else { throw 3 } }", ()),
    "nests a while": ("alloc n; alloc m; n := 2; while n { m := 2; while m { m := m - 1 }; n := n - 1 }", ()),
    "reads null": ("alloc n; n := 2; while n { n := n - 1; if n { skip } else { n := n - null } }", ()),
}

# Loops in the fragment whose kernel must decline at the second head: a
# guard or body variable that is null or unallocated there.  Null counts as
# a nonzero guard, so the first loop never ends; an unallocated guard
# variable is stuck before any kernel is asked.
DECLINED = {
    "null guard": "alloc y; alloc z; while y { y := z }",
    "null branch guard": "alloc n; alloc x; n := 3; while n { if x { n := n - 1 } else { skip } }",
    "null operand": "alloc n; alloc x; n := 2; while n { n := n - 1; if n { skip } else { x := x + 1 } }",
    "unallocated target": "alloc n; n := 2; while n { n := n - 1; if n { skip } else { x := 1 } }",
    "unallocated operand": "alloc n; n := 2; while n { n := n - 1; if n { skip } else { n := y } }",
    "unallocated guard": "while y { skip }",
}

FUELS = [*range(1, 41), 500]


@pytest.mark.parametrize("name", UNCOVERED)
def test_loops_outside_the_fragment_run_in_the_interpreter(name):
    text, stream = UNCOVERED[name]
    c = parse_cmd(text)
    for fuel in FUELS:
        assert _mismatches(c, fuel, stream=InputStream.of(*stream)) == [], fuel
    # a loop holding another loop is never back at its head right after its
    # own iteration, so no kernel is even asked
    assert _loops(c)[0]._kernel is (None if name == "nests a while" else False)


@pytest.mark.parametrize("name", DECLINED)
def test_kernels_decline_unless_every_variable_holds_a_natural(name):
    c = parse_cmd(DECLINED[name])
    for fuel in FUELS:
        assert _mismatches(c, fuel) == [], fuel
    assert _loops(c)[0]._kernel is not False


@pytest.mark.parametrize(
    "text",
    [
        "while n { x := x + 1; n := n - 1 }",
        "while n { if 3 - n { if x { skip } else { skip } } else { skip }; n := n - 1 }",
    ],
)
def test_kernels_decline_an_abstract_value(text):
    """A `*` at the second head makes the kernel decline: the interpreter
    carries it through arithmetic, and is stuck on it as a guard."""
    c = parse_cmd(text)
    for fuel in FUELS:
        assert _mismatches(c, fuel, Store({"n": Nat(3), "x": ANY_NAT})) == [], fuel
    assert _loops(c)[0]._kernel


def _shared_document(keyword: str, levels: int) -> dict:
    """A div-pred certificate of `W; while 1 { skip }` from `{n: 2}`, whose
    loop `W = while n { n := n - 1; B }` runs twice and then converges, as
    a premise the checker runs.  `B` is a chain of `levels` term entries,
    each citing the one before twice: with "if", `if n { B' } else { B' }`
    in the body, which one iteration runs in `levels` rules; with "seq",
    `B'; B'` in the branch of an `if 1` not taken, 2 ** levels statements
    that no run reaches.  The document has about `levels` entries."""
    terms = [["var", "n"], ["lit", 1], ["bop", "-", 0, 1], ["assign", "n", 2], ["skip"]]
    for _ in range(levels):
        last = len(terms) - 1
        terms.append(["if", 0, last, last] if keyword == "if" else ["seq", last, last])
    if keyword == "seq":
        terms.append(["if", 1, 4, len(terms) - 1])
    terms.append(["seq", 3, len(terms) - 1])
    terms.append(["while", 0, len(terms) - 1])
    terms.append(["while", 1, 4])
    terms.append(["seq", len(terms) - 2, len(terms) - 1])
    node = {"rule": "D-Seq2", "subject": len(terms) - 1, "store": 0, "flag_in": None, "stream": 0, "result": None}
    return {
        "kind": "derivation-graph", "format": 2, "system": "div-pred", "root": 0, "terms": terms,
        "stores": [{"n": 2}, {"n": 0}], "streams": [{"values": [], "cursor": 0}],
        "nodes": [
            {**node, "premises": [1]},
            {**node, "rule": "D-While", "subject": len(terms) - 2, "store": 1, "premises": [1]},
        ],
    }


@pytest.fixture
def within_ten_seconds():
    """Fail a test that runs longer than ten seconds, rather than hang."""

    def expire(signum, frame):
        raise TimeoutError("over ten seconds")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "keyword,levels,covered",
    [("if", 45, True), ("if", 60, False), ("seq", 40, False), ("seq", 60, False)],
)
def test_shared_terms_are_planned_once(within_ten_seconds, keyword, levels, covered):
    """A decoded certificate shares terms, so a loop body of a few dozen
    entries can unfold into exponentially many blocks or statements.  The
    kernel plans each block once per depth and within the fuel, so checking
    the certificate, and running its loop in every evaluator, stays quick:
    an `if` chain within `_NESTING` takes a kernel, a deeper one and a
    statement count beyond the fuel take none."""
    g = certificate_from_json(_shared_document(keyword, levels))
    assert check_certificate(g) is None
    loop = g.nodes[0].subject.first
    assert bool(loop._kernel) is covered
    for fuel in (60, 500):
        assert _mismatches(loop, fuel, Store({"n": Nat(2)})) == [], fuel
