"""A golden of the three big-step evaluators' answers and derivation trees.

`evaluator_golden.json` holds one entry per start: the evaluator, its
subject, store, status and stream, and one run per fuel.  Every case runs
at fuel 500.  A run that converges runs again at the exact fuel it spent and
at one less; a stuck run does too, at the least fuel with which it is
still stuck.  These two runs pin the order of each rule's fuel tick,
expression premise and side condition, which decides stuck against
out-of-fuel at the fuel boundary.

Each run records the result (class, final store, outcome or status, stream
cursor, fuel spent or stuck reason) without a recorder.  It also records the
recorded derivation tree, partial trees of stuck and out-of-fuel runs
included: its preorder of (relation, rule) pairs, coded one character a
pair through the file's legend, its node count, and a digest of every
node's store, incoming status, stream cursor and result.

The corpus is seeded: generated programs with and without throw/catch and
input, plain starts from empty and non-empty stores, pretty-big-step starts
from every semantic command (`Seq2`/`While3` over `div` and over `conv`,
`Assign2`, `If2`, `While2`), and flag starts from `Up` and `Exc`.

Rewrite the golden (only when a change of answers is intended) with

    PYTHONPATH=src python tests/test_evaluator_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from whilesem.big_step import Done, OutOfFuel, eval_big
from whilesem.derivation import Recorder
from whilesem.flag_based import FlagResult, eval_flag
from whilesem.harness import GenConfig, generate_program
from whilesem.parser import pretty_cmd, pretty_expr
from whilesem.pretty_big import DoneP, eval_pretty
from whilesem.syntax import (
    DIV,
    DOWN,
    EMPTY_STORE,
    UP,
    Assign2,
    Cmd,
    ConvO,
    DivO,
    Exc,
    Expr,
    If2,
    InputStream,
    Nat,
    NULL,
    Plain,
    Seq2,
    Store,
    Stuck,
    Val,
    Var,
    While,
    While2,
    While3,
    cmd_exprs,
    cmd_has_input,
    format_store,
    format_val,
    store_to_json,
    val_to_json,
)

GOLDEN = Path(__file__).with_name("evaluator_golden.json")
FUEL = 500
_VARS = ("x", "y", "z")
_VALUES = (NULL, Nat(0), Nat(1), Nat(2))


def term_to_json(t) -> object:
    """A status, outcome or pretty-big subject as one JSON tree, the form in
    which the golden writes them: the keyword alone without fields,
    `{keyword: field}` with one, `{keyword: {field: ...}}` with more,
    `orelse` written `else`."""
    keyword = {ConvO: "conv", DivO: "div"}.get(type(t), type(t).__name__.lower())
    fields = {"else" if f == "orelse" else f: _field_to_json(getattr(t, f)) for f in t.__match_args__}
    if not fields:
        return keyword
    return {keyword: next(iter(fields.values())) if len(fields) == 1 else fields}


def _field_to_json(v) -> object:
    if isinstance(v, Store):
        return store_to_json(v)
    if isinstance(v, Val):
        return val_to_json(v)
    if isinstance(v, Cmd):
        return pretty_cmd(v)
    if isinstance(v, Expr):
        return pretty_expr(v)
    return v if type(v) is str else term_to_json(v)


def _status(s) -> str:
    return json.dumps(term_to_json(s), sort_keys=True)


def _answer(r) -> str:
    """The result of a run as text: class, store, outcome or status, stream
    cursor, and fuel spent or stuck reason."""
    if type(r) is Done:
        return f"done {format_store(r.store)} cursor={r.stream.cursor} fuel={r.fuel_spent}"
    if type(r) is DoneP:
        outcome = json.dumps(term_to_json(r.outcome), sort_keys=True)
        return f"done {outcome} cursor={r.stream.cursor} fuel={r.fuel_spent}"
    if type(r) is FlagResult:
        return f"done {_status(r.status)} {format_store(r.store)} cursor={r.stream.cursor} fuel={r.fuel_spent}"
    if type(r) is Stuck:
        return f"stuck {r.reason}"
    assert type(r) is OutOfFuel, r
    return "out-of-fuel"


def _node_text(n) -> str:
    r = n.result
    if r is not None:
        r = [
            format_store(x) if isinstance(x, Store)
            else x.cursor if isinstance(x, InputStream)
            else json.dumps(term_to_json(x), sort_keys=True) if type(x) in (ConvO, type(DIV))
            else format_val(x) if x is NULL or type(x) is Nat
            else _status(x)
            for x in r
        ]
    flag = None if n.flag_in is None else _status(n.flag_in)
    return f"{n.relation} {n.rule} {type(n.subject).__name__} {format_store(n.store)} {flag} {n.stream.cursor} {r}"


def _tree(root) -> tuple[list, str]:
    """The preorder (relation, rule) pairs of a tree, and a digest of its
    nodes' stores, statuses, cursors and results."""
    pairs, digest, todo = [], hashlib.sha256(), [root] if root is not None else []
    while todo:
        n = todo.pop()
        pairs.append((n.relation, n.rule))
        digest.update(_node_text(n).encode() + b"\n")
        todo.extend(reversed(n.children))
    return pairs, digest.hexdigest()[:12]


_EVALUATORS = {
    "big": lambda start, fuel, rec=None: eval_big(start[0], start[1], start[3], fuel, rec),
    "pretty": lambda start, fuel, rec=None: eval_pretty(start[0], start[1], start[3], fuel, rec),
    "flag": lambda start, fuel, rec=None: eval_flag(start[0], start[1], start[2], start[3], fuel, rec),
}


def _fuels(run) -> list:
    """Fuel 500, then for a converged or stuck run the least fuel giving the
    same class of result, and one less."""
    r = run(FUEL)
    if type(r) is OutOfFuel:
        return [FUEL]
    if type(r) is Stuck:
        lo, hi = 0, FUEL  # out of fuel at `lo`, stuck at `hi`
        if type(run(0)) is Stuck:
            return [FUEL, 0]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if type(run(mid)) is Stuck else (mid, hi)
        return [FUEL, hi, lo]
    spent = r.fuel_spent
    return [FUEL, spent] + ([spent - 1] if spent > 0 else [])


def _describe(evaluator: str, start) -> str:
    subject, store, flag, stream = start
    text = json.dumps(term_to_json(subject)) if evaluator == "pretty" else pretty_cmd(subject)
    values = ",".join(format_val(v) for v in stream.values)
    flag = "" if flag is None else f" | status {_status(flag)}"
    return f"{evaluator} {text} | store {format_store(store)}{flag} | stream [{values}]"


def _store(rng: random.Random) -> Store:
    return Store({x: rng.choice(_VALUES) for x in _VARS if rng.random() < 0.7})


def build_cases() -> list:
    """(evaluator, start) pairs; a start is (subject, store, status, stream)."""
    rng = random.Random(20261018)
    configs = [
        GenConfig(allow_input=True, allow_throw=True),
        GenConfig(max_depth=6, literals=(0, 1, 2, 3)),
        GenConfig(allow_throw=True, wellformed=0.6),
    ]
    cases = []
    for i in range(200):
        p = generate_program(configs[i % 3], 7000 + i)
        stream = InputStream()
        if cmd_has_input(p):
            stream = InputStream(tuple(rng.choice(_VALUES) for _ in range(rng.randrange(4))))
        store = EMPTY_STORE if i % 4 else _store(rng)
        cases += [
            ("big", (p, store, None, stream)),
            ("pretty", (Plain(p), store, None, stream)),
            ("flag", (p, store, DOWN, stream)),
        ]
        if i % 2:
            continue
        guard = next(iter(cmd_exprs(p)), Var(rng.choice(_VARS)))
        value, other = rng.choice(_VALUES), generate_program(configs[1], 9000 + i)
        store = _store(rng)
        for sc in [
            Seq2(DIV, p),
            While3(DIV, guard, p),
            Seq2(ConvO(store), p),
            While3(ConvO(store), guard, p),
            Assign2(rng.choice(_VARS), value),
            If2(value, p, other),
            While2(value, guard, p),
        ]:
            cases.append(("pretty", (sc, store, None, stream)))
        cases.append(("flag", (p, store, UP, stream)))
        cases.append(("flag", (p, EMPTY_STORE, Exc(value, store), stream)))
        cases.append(("flag", (While(guard, p), store, DOWN, stream)))
    return cases


def record(evaluator: str, start, fuel: int) -> tuple[str, list, int, str]:
    """The answer of one run without a recorder, and with one the tree's
    pairs, node count and digest.  Both runs must give the same answer."""
    run = _EVALUATORS[evaluator]
    answer = _answer(run(start, fuel))
    rec = Recorder()
    assert _answer(run(start, fuel, rec)) == answer
    pairs, digest = _tree(rec.root)
    return answer, pairs, len(pairs), digest


def build_golden() -> dict:
    legend: dict = {}
    entries = []
    for evaluator, start in build_cases():
        runs = []
        for fuel in _fuels(lambda f: _EVALUATORS[evaluator](start, f)):
            answer, pairs, nodes, digest = record(evaluator, start, fuel)
            for pair in pairs:
                legend.setdefault(pair, chr(ord("A") + len(legend)))
            runs.append([fuel, answer, "".join(legend[p] for p in pairs), nodes, digest])
        entries.append([_describe(evaluator, start), runs])
    return {"legend": {code: list(pair) for pair, code in legend.items()}, "cases": entries}


def test_evaluators_reproduce_the_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    legend = {code: tuple(pair) for code, pair in golden["legend"].items()}
    cases = build_cases()
    assert [_describe(ev, start) for ev, start in cases] == [text for text, _ in golden["cases"]]
    wrong = []
    for (evaluator, start), (text, runs) in zip(cases, golden["cases"]):
        for fuel, answer, codes, nodes, digest in runs:
            got = record(evaluator, start, fuel)
            if got != (answer, [legend[ch] for ch in codes], nodes, digest):
                wrong.append((text, fuel, answer, got[0]))
    assert wrong == []


def test_golden_covers_every_result_and_rule():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    answers = {answer.split(" ")[0] for _, runs in golden["cases"] for _, answer, *_ in runs}
    assert answers == {"done", "stuck", "out-of-fuel"}
    rules = {rule for _, rule in golden["legend"].values()}
    for rule in ["B-Seq", "B-While", "P-Seq-Abort", "P-While-Abort", "P-Seq2", "P-While3",
                 "P-Assign2", "P-IfZ2", "P-WhileZ2", "F-Div", "F-Exc", "F-Catch-Some", "F-Catch",
                 "F-Throw", None]:
        assert rule in rules


if __name__ == "__main__":
    golden = build_golden()
    lines = ",\n".join(json.dumps(entry, ensure_ascii=False) for entry in golden["cases"])
    legend = json.dumps(golden["legend"], ensure_ascii=False)
    GOLDEN.write_text(f'{{"legend": {legend},\n"cases": [\n{lines}\n]}}\n', encoding="utf-8")
