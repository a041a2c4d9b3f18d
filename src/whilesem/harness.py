"""Random program generation and cross-semantics differential testing.

`generate_program` draws commands from a seeded RNG under a depth bound.
A wellformedness bias steers each choice toward programs that cannot get
stuck (variables allocated before use, no double allocation, no possibly-
null operand in arithmetic or guards, no allocation inside loop bodies);
the remaining probability mass deliberately produces violations, because
stuckness agreement across the semanticses is itself part of what the
differential harness checks.

`compare_all` runs one program under all four evaluators per input stream,
through the `SEMANTICS` registry, which normalizes results to verdicts:

* exception-free programs must agree classwise — all converged with equal
  stores and streams (and, for the big-step and flag-based evaluators,
  equal fuel consumption), or all stuck, or all out of fuel.  Big-step runs
  first: after it converges in `n` rules, pretty-big-step gets fuel
  `max(fuel, 3n)` and small-step `max(fuel, 2n)`, their fuel laws' bounds;
* when the big-step run is out of fuel, a lasso search decides
  divergence, and a found lasso must be matched by successful certificate
  construction in all three coinductive systems while the inductive
  evaluators stay out of fuel.  The start configuration is searched at
  most once per stream;
* programs containing throw/catch are judged on the flag-based side only
  (the other systems have no exception rules and stick by design); when
  that run is out of fuel, a flag-co certificate makes its verdict
  `DivergesProven`.

`fuzz_campaign` drives `compare_all` over many seeded programs and
aggregates verdict counts and disagreements, optionally writing failing
programs to disk for replay.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import Optional

# `fuel_used` and `flag_fuel_used` are not called here: fuel comes from the
# first run.  They stay bound in this module because the benchmark's tracer
# (bench/spans.py) rebinds both names on it by attribute.
from .big_step import Done, eval_big, fuel_used  # noqa: F401
from .coinduction import SYSTEMS, detect_lasso, prove_divergence
from .flag_based import FlagResult, eval_flag, flag_fuel_used  # noqa: F401
from .parser import pretty_cmd
from .pretty_big import DoneP, eval_pretty
from .small_step import SmallConfig, run_star
from .syntax import (
    Alloc,
    Assign,
    Bop,
    Catch,
    Cmd,
    Converged,
    ConvO,
    DOWN,
    DivergesProven,
    Down,
    EMPTY_STORE,
    EMPTY_STREAM,
    Exc,
    ExceptionV,
    If,
    Input,
    InputStream,
    Lit,
    Nat,
    Null,
    Plain,
    Seq,
    Skip,
    Stuck,
    Throw,
    Unknown,
    Var,
    Verdict,
    While,
    cmd_has_exceptions,
    cmd_has_input,
    format_verdict,
)

DEFAULT_WEIGHTS = {
    "skip": 1.0,
    "alloc": 3.0,
    "assign": 4.0,
    "seq": 4.0,
    "if": 2.0,
    "while": 1.5,
    "throw": 1.0,
    "catch": 1.5,
}


# The generator recurses once per level, and a program's size can grow
# geometrically with its depth: this is far past any useful depth, and far
# from the recursion limit.
_MAX_DEPTH = 40


@dataclass
class GenConfig:
    seed: int = 0
    max_depth: int = 5
    num_vars: int = 3
    literals: tuple = (0, 1, 2)
    allow_input: bool = False
    allow_throw: bool = False
    wellformed: float = 0.9
    weights: dict = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.max_depth > _MAX_DEPTH:
            raise ValueError(f"max_depth must be at most {_MAX_DEPTH}")
        if self.num_vars < 1 or not self.literals:
            raise ValueError("variable and literal pools must be non-empty")
        if not 0 <= self.wellformed <= 1:
            raise ValueError(f"wellformed must be a probability in [0, 1], got {self.wellformed}")


class _Scope:
    """Static approximation of the store along the generated path.

    `may` over-approximates allocated variables (used to keep fresh
    allocations definitely fresh), `must` under-approximates them (used to
    keep reads and writes definitely legal), and `init` under-approximates
    the variables that definitely hold a non-null value (legal in
    arithmetic and guards)."""

    __slots__ = ("may", "must", "init")

    def __init__(self, may=(), must=(), init=()):
        self.may = set(may)
        self.must = set(must)
        self.init = set(init)

    def copy(self) -> "_Scope":
        return _Scope(self.may, self.must, self.init)


def _var_pool(cfg: GenConfig) -> list:
    names = []
    base = ["x", "y", "z", "u", "v", "w"]
    for i in range(cfg.num_vars):
        names.append(base[i] if i < len(base) else f"x{i}")
    return names


def _kind_table(cfg: GenConfig) -> dict:
    """(alloc allowed, assign allowed, depth > 1) -> (kinds, weights): the
    command kinds open at a node, sorted, with their positive weights.
    Built once per distinct throw setting and weights; `GenConfig` is
    mutable, so the key is read from `cfg` on every call."""
    return _kinds(cfg.allow_throw, tuple(cfg.weights.items()))


@lru_cache(maxsize=64)
def _kinds(allow_throw: bool, weight_items: tuple) -> dict:
    weights = dict(weight_items)
    table = {}
    for can_alloc, can_assign, deep in product((False, True), repeat=3):
        names = ["skip"]
        if can_alloc:
            names.append("alloc")
        if can_assign:
            names.append("assign")
        if allow_throw:
            names.append("throw")
        if deep:
            names += ["seq", "if", "while"] + (["catch"] if allow_throw else [])
        names = tuple(sorted(n for n in names if weights.get(n, 0.0) > 0))
        table[can_alloc, can_assign, deep] = (names, tuple(weights[n] for n in names))
    return table


def _gen_expr(rng, cfg, pool, scope, depth, need_nonnull, wf, ops) -> tuple:
    """Returns (expr, definitely_nonnull).

    `ops` is the operator pool; inside loop bodies it excludes `*`, because
    an iterated self-multiplication doubles a value's bit width on every
    iteration and would exhaust memory long before any fuel bound triggers.
    Addition grows bit widths only linearly in the number of steps, so
    values stay small relative to the fuel."""
    options = ["lit"]
    if wf:
        readable = scope.init if need_nonnull else scope.must
        if readable:
            options.append("var")
    else:
        options.append("anyvar")
    if depth > 1:
        options.append("bop")
    if cfg.allow_input:
        options.append("input")
    kind = rng.choice(options)
    if kind == "lit":
        return Lit(Nat(rng.choice(cfg.literals))), True
    if kind == "var":
        readable = scope.init if need_nonnull else scope.must
        x = rng.choice(sorted(readable))
        return Var(x), x in scope.init
    if kind == "anyvar":
        return Var(rng.choice(pool)), False
    if kind == "input":
        return Input(), True
    op = rng.choice(ops)
    e1, _ = _gen_expr(rng, cfg, pool, scope, depth - 1, wf, wf, ops)
    e2, _ = _gen_expr(rng, cfg, pool, scope, depth - 1, wf, wf, ops)
    return Bop(op, e1, e2), wf


def _join(a: _Scope, b: _Scope) -> _Scope:
    return _Scope(a.may | b.may, a.must & b.must, a.init & b.init)


def _gen_cmd(rng, cfg, pool, kinds, scope, depth, in_loop) -> Cmd:
    """`pool` is `_var_pool(cfg)`, built once per program, and `kinds` is
    `_kind_table(cfg)`."""
    wf = rng.random() < cfg.wellformed
    ops = ("+", "-") if in_loop else ("+", "-", "*")
    fresh = [x for x in pool if x not in scope.may]
    can_alloc = (bool(fresh) or not wf) and not (wf and in_loop)
    can_assign = bool(scope.must) or not wf
    names, weights = kinds[can_alloc, can_assign, depth > 1]
    kind = rng.choices(names, weights=weights)[0]

    if kind == "skip":
        return Skip()
    if kind == "alloc":
        x = rng.choice(fresh) if wf and fresh else rng.choice(pool)
        scope.may.add(x)
        scope.must.add(x)
        scope.init.discard(x)
        return Alloc(x)
    if kind == "assign":
        x = rng.choice(sorted(scope.must)) if wf and scope.must else rng.choice(pool)
        e, nonnull = _gen_expr(rng, cfg, pool, scope, min(depth, 3), False, wf, ops)
        if nonnull:
            scope.init.add(x)
        else:
            scope.init.discard(x)
        return Assign(x, e)
    if kind == "throw":
        return Throw(Nat(rng.choice(cfg.literals)))
    if kind == "seq":
        first = _gen_cmd(rng, cfg, pool, kinds, scope, depth - 1, in_loop)
        second = _gen_cmd(rng, cfg, pool, kinds, scope, depth - 1, in_loop)
        return Seq(first, second)
    if kind == "if":
        guard, _ = _gen_expr(rng, cfg, pool, scope, min(depth, 3), True, wf, ops)
        then_scope = scope.copy()
        else_scope = scope.copy()
        then = _gen_cmd(rng, cfg, pool, kinds, then_scope, depth - 1, in_loop)
        orelse = _gen_cmd(rng, cfg, pool, kinds, else_scope, depth - 1, in_loop)
        joined = _join(then_scope, else_scope)
        scope.may, scope.must, scope.init = joined.may, joined.must, joined.init
        return If(guard, then, orelse)
    if kind == "while":
        guard, _ = _gen_expr(rng, cfg, pool, scope, min(depth, 3), True, wf, ("+", "-"))
        body_scope = scope.copy()
        body = _gen_cmd(rng, cfg, pool, kinds, body_scope, depth - 1, True)
        scope.may |= body_scope.may
        scope.init &= body_scope.init
        return While(guard, body)
    # catch: the handler resumes from the store at the throw point, so it
    # must assume anything the body may have allocated is allocated, and
    # can rely only on what was certain at entry.
    body_scope = scope.copy()
    body = _gen_cmd(rng, cfg, pool, kinds, body_scope, depth - 1, in_loop)
    handler_scope = _Scope(body_scope.may, scope.must, scope.init)
    handler = _gen_cmd(rng, cfg, pool, kinds, handler_scope, depth - 1, in_loop)
    joined = _join(body_scope, handler_scope)
    scope.may, scope.must, scope.init = joined.may, joined.must, joined.init
    return Catch(body, handler)


def generate_program(cfg: GenConfig, seed: Optional[int] = None) -> Cmd:
    """A random program drawn with `cfg`'s settings.  The random source is
    seeded with `seed` when one is given, and `cfg.seed` is then ignored;
    only without `seed` does `cfg.seed` pick the program.  `fuzz_campaign`
    passes `cfg.seed + i` for its i-th program."""
    rng = random.Random(cfg.seed if seed is None else seed)
    return _gen_cmd(rng, cfg, _var_pool(cfg), _kind_table(cfg), _Scope(), cfg.max_depth, False)


# ---------------------------------------------------------------------------
# Differential comparison


def binary_streams(max_len: int = 3) -> list:
    """All input streams over {0, 1} up to the given length."""
    out = [EMPTY_STREAM]
    for length in range(1, max_len + 1):
        for bits in product((0, 1), repeat=length):
            out.append(InputStream.of(*bits))
    return out


def default_streams(c: Cmd) -> list:
    return binary_streams() if cmd_has_input(c) else [EMPTY_STREAM]


@dataclass
class StreamComparison:
    stream: InputStream
    verdicts: dict  # semantics name -> Verdict
    provers: dict  # coinductive system -> bool: all three after a lasso, flag-co alone on throw/catch
    failures: list  # empty means agreement

    @property
    def agrees(self) -> bool:
        return not self.failures


@dataclass
class CompareReport:
    program: Cmd
    comparisons: list
    flag_only: bool  # True for throw/catch programs

    @property
    def agreement(self) -> bool:
        return all(c.agrees for c in self.comparisons)

    @property
    def failures(self) -> list:
        out = []
        for c in self.comparisons:
            out.extend(c.failures)
        return out


def _unfinished(r, fuel):
    """A stuck or out-of-fuel evaluator result, as a registry triple."""
    return (r if isinstance(r, Stuck) else Unknown(fuel)), None, None


def _run_small(c, stream, fuel):
    verdict, trace = run_star(SmallConfig(c, EMPTY_STORE, stream), fuel)
    if isinstance(verdict, Converged):
        return verdict, trace.final.stream, trace.steps
    return verdict, None, None


def _run_big(c, stream, fuel):
    r = eval_big(c, EMPTY_STORE, stream, fuel)
    if isinstance(r, Done):
        return Converged(r.store), r.stream, r.fuel_spent
    return _unfinished(r, fuel)


def _run_pretty(c, stream, fuel):
    r = eval_pretty(Plain(c), EMPTY_STORE, stream, fuel)
    if not isinstance(r, DoneP):
        return _unfinished(r, fuel)
    if isinstance(r.outcome, ConvO):
        return Converged(r.outcome.store), r.stream, r.fuel_spent
    return Stuck("divergent outcome from a source program"), None, None


def _run_flag(c, stream, fuel):
    r = eval_flag(c, EMPTY_STORE, DOWN, stream, fuel)
    if not isinstance(r, FlagResult):
        return _unfinished(r, fuel)
    if isinstance(r.status, Down):
        return Converged(r.store), r.stream, r.fuel_spent
    if isinstance(r.status, Exc):
        return ExceptionV(r.status.value, r.status.at), r.stream, r.fuel_spent
    return Stuck("divergence flag from a normal start"), None, None


# The four semanticses, one interface: run(c, stream, fuel) -> (verdict,
# final stream, fuel spent), from the empty store.  The last two are None
# unless the run converged or raised.  The runners look the evaluators up
# as module globals on every call, so rebinding `harness.eval_big` (as
# tests and the benchmark's tracer do) reaches them.
SEMANTICS = {"small": _run_small, "big": _run_big, "pretty": _run_pretty, "flag": _run_flag}


def _verdict_class(v: Verdict) -> str:
    if isinstance(v, Converged):
        return "converged"
    if isinstance(v, ExceptionV):
        return "exception"
    if isinstance(v, Stuck):
        return "stuck"
    if isinstance(v, DivergesProven):
        return "diverges-proven"
    return "unknown"


def _compare_stream(c: Cmd, stream: InputStream, fuel: int, flag_only: bool) -> StreamComparison:
    # Big-step first: its rules bound the fuel of a converged run elsewhere.
    big = SEMANTICS["big"](c, stream, fuel)
    spent = big[2] or 0
    runs = {"big": big, "pretty": SEMANTICS["pretty"](c, stream, max(fuel, 3 * spent))}
    runs["flag"] = SEMANTICS["flag"](c, stream, fuel)
    provers: dict = {}
    failures: list = []

    # One small-step pass.  When big-step is out of fuel, the start is
    # searched for a lasso first: a lasso is a step run that never ends, so
    # `run_star` could only report out-of-fuel and is skipped.  When
    # big-step finished, nothing is searched: a finished big-step run means
    # a finite step run, unless the two disagree, which is reported below.
    searching = not flag_only and isinstance(runs["big"][0], Unknown)
    lasso = detect_lasso(SmallConfig(c, EMPTY_STORE, stream), fuel) if searching else None
    if lasso is None:
        runs["small"] = SEMANTICS["small"](c, stream, max(fuel, 2 * spent))
    else:
        runs["small"] = DivergesProven(lasso), None, None
        for system in SYSTEMS:
            provers[system] = prove_divergence(c, EMPTY_STORE, stream, system, fuel) is not None

    verdicts = {name: runs[name][0] for name in SEMANTICS}
    if flag_only:
        if isinstance(verdicts["flag"], Unknown):
            graph = prove_divergence(c, EMPTY_STORE, stream, "flag-co", fuel)
            provers["flag-co"] = graph is not None
            if graph is not None:
                verdicts["flag"] = DivergesProven(graph)
        return StreamComparison(stream, verdicts, provers, failures)

    classes = {name: _verdict_class(v) for name, v in verdicts.items()}
    if classes["small"] == "diverges-proven":
        for name in ("big", "pretty", "flag"):
            if classes[name] != "unknown":
                failures.append(
                    f"lasso found but {name} reports {classes[name]} "
                    f"({format_verdict(verdicts[name])})"
                )
        for system, ok in provers.items():
            if not ok:
                failures.append(f"lasso found but no {system} certificate")
    elif len(set(classes.values())) != 1:
        detail = ", ".join(f"{k}={classes[k]}" for k in sorted(classes))
        failures.append(f"verdict classes differ: {detail}")
    elif classes["small"] == "converged":
        stores = {name: verdicts[name].store for name in verdicts}
        if len({s for s in stores.values()}) != 1:
            failures.append(
                "final stores differ: "
                + ", ".join(f"{k}={format_verdict(verdicts[k])}" for k in sorted(verdicts))
            )
        if len({run[1] for run in runs.values()}) != 1:
            failures.append("final input streams differ")
        big_cost, flag_cost = runs["big"][2], runs["flag"][2]
        if big_cost != flag_cost:
            failures.append(
                f"fuel mismatch: big-step used {big_cost}, flag-based used {flag_cost}"
            )
    return StreamComparison(stream, verdicts, provers, failures)


def compare_all(c: Cmd, streams: Optional[list] = None, fuel: int = 10_000) -> CompareReport:
    if streams is None:
        streams = default_streams(c)
    flag_only = cmd_has_exceptions(c)
    comparisons = [_compare_stream(c, stream, fuel, flag_only) for stream in streams]
    return CompareReport(c, comparisons, flag_only)


# ---------------------------------------------------------------------------
# Campaigns


@dataclass
class CampaignSummary:
    total: int
    verdict_counts: Counter
    disagreements: list  # (seed, program text, failures)
    flag_stuck: int
    elapsed: float

    def ok(self) -> bool:
        return not self.disagreements

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "verdicts": dict(self.verdict_counts),
            "disagreements": [
                {"seed": seed, "program": text, "failures": failures}
                for seed, text, failures in self.disagreements
            ],
            "flag_stuck": self.flag_stuck,
            "elapsed_seconds": round(self.elapsed, 3),
        }


def fuzz_campaign(
    cfg: GenConfig,
    n: int,
    fuel: int = 500,
    out_dir: Optional[str] = None,
) -> CampaignSummary:
    started = time.monotonic()
    counts: Counter = Counter()
    disagreements: list = []
    flag_stuck = 0
    if out_dir is not None:  # before the campaign, so that a bad path fails first
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    for i in range(n):
        seed = cfg.seed + i
        program = generate_program(cfg, seed)
        report = compare_all(program, fuel=fuel)
        for comparison in report.comparisons:
            primary = "flag" if report.flag_only else "small"
            counts[_verdict_class(comparison.verdicts[primary])] += 1
            if isinstance(comparison.verdicts["flag"], Stuck):
                flag_stuck += 1
        if not report.agreement:
            text = pretty_cmd(program)
            disagreements.append((seed, text, report.failures))
            if out_dir is not None:
                _write_counterexample(
                    Path(out_dir), len(disagreements), seed, program, report, fuel
                )
    return CampaignSummary(n, counts, disagreements, flag_stuck, time.monotonic() - started)


def _write_counterexample(out_dir, index, seed, program, report, fuel) -> None:
    stem = f"ce_{index:05d}"
    (out_dir / f"{stem}.whl").write_text(pretty_cmd(program) + "\n", encoding="utf-8")
    meta = {
        "seed": seed,
        "fuel": fuel,
        "comparisons": [
            {
                "stream": [None if isinstance(v, Null) else v.n for v in c.stream.values],
                "verdicts": {k: format_verdict(v) for k, v in c.verdicts.items()},
                "failures": c.failures,
            }
            for c in report.comparisons
        ],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")
