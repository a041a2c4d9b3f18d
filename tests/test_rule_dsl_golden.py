"""A golden of the rule notation's answers.

`rule_dsl_golden.json` maps one key per question to its answer:

* for each shipped `.rules` file, digests of `pretty_rules` and of
  `thread_flags` (or the threading error), and its `count_metrics`;
* for every ordered pair of shipped files, the `union` error or the counts
  of the union against no base and against every shipped base, and
  `alpha_diff` of the pair;
* seeded mutants of every shipped rule (a consistent rename, a rename of
  one occurrence, two variables merged, a variable made a constant, the
  body reversed, the first and last body items swapped, the last body
  item dropped, one variable occurrence wrapped in a group, a relabel), each
  with `alpha_diff` in both directions;
* the class, line and message of the error each malformed text raises, in
  parsing or in threading, one text per place an error is raised;
* the error of a union of conflicting signatures;
* duplicate counts of synthetic base/new rule pairs whose conclusions
  unify group against group, a constant against a variable, and a single
  term against a whole component.

Rewrite the golden (only when a change of answers is intended) with

    PYTHONPATH=src python tests/test_rule_dsl_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from importlib import resources
from pathlib import Path

import pytest

from whilesem.rule_dsl import (
    Atom,
    Group,
    Judgment,
    Rule,
    RuleParseError,
    RuleSet,
    SideCondition,
    alpha_diff,
    count_metrics,
    load_ruleset,
    parse_rules,
    pretty_rules,
    thread_flags,
)

GOLDEN = Path(__file__).with_name("rule_dsl_golden.json")
SHIPPED = sorted(
    p.name for p in resources.files("whilesem").joinpath("rules").iterdir()
    if p.name.endswith(".rules")
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _error(e: Exception) -> str:
    line = getattr(e, "line", None)
    message = getattr(e, "message", str(e))
    return f"error {type(e).__name__} line={line}: {message}"


def _map_atoms(rule: Rule, f) -> Rule:
    """`rule` with each atom replaced by `f(atom, index)`, atoms numbered in
    textual order over the conclusion, then the body."""
    count = [0]

    def term(t):
        if isinstance(t, Group):
            return Group(tuple(term(x) for x in t.items))
        count[0] += 1
        return f(t, count[0] - 1)

    def comp(c):
        return tuple(term(t) for t in c)

    def item(j):
        if isinstance(j, SideCondition):
            return SideCondition(comp(j.terms))
        return Judgment(j.relation, tuple(map(comp, j.source)), tuple(map(comp, j.target)),
                        j.implicit)

    conclusion = item(rule.conclusion)
    return Rule(rule.label, tuple(item(x) for x in rule.body), conclusion)


def _occurrences(rule: Rule) -> list:
    seen: list = []
    _map_atoms(rule, lambda a, i: seen.append((i, a.text)) if a.is_var else None)
    return seen


def _rename(rule: Rule, f) -> Rule:
    return _map_atoms(rule, lambda a, i: f(a, i) if a.is_var else a)


def mutants(rule: Rule, rng: random.Random) -> list:
    """(kind, mutant) pairs of `rule`; kinds that do not apply are left out."""
    occurrences = _occurrences(rule)
    names = list(dict.fromkeys(name for _, name in occurrences))
    out = []
    if names:
        fresh = dict(zip(names, rng.sample(range(100), len(names))))
        out.append(("rename", _rename(rule, lambda a, i: Atom(f"m{fresh[a.text]}"))))
        k, _ = rng.choice(occurrences)
        out.append(("rename-one", _rename(rule, lambda a, i: Atom("fresh'") if i == k else a)))
        victim = rng.choice(names)
        out.append(("constant", _rename(rule, lambda a, i: Atom("0") if a.text == victim else a)))
    if len(names) >= 2:
        keep, drop = rng.sample(names, 2)
        out.append(("merge", _rename(rule, lambda a, i: Atom(keep) if a.text == drop else a)))
    if len(rule.body) >= 2:
        out.append(("reverse", Rule(rule.label, rule.body[::-1], rule.conclusion)))
    if len(rule.body) >= 3:
        body = (rule.body[-1],) + rule.body[1:-1] + (rule.body[0],)
        out.append(("swap-ends", Rule(rule.label, body, rule.conclusion)))
    if rule.body:
        out.append(("drop-last", Rule(rule.label, rule.body[:-1], rule.conclusion)))
    if names:
        k, _ = rng.choice(occurrences)
        out.append(("group", _rename(rule, lambda a, i: Group((a,)) if i == k else a)))
    out.append(("relabel", Rule(rule.label + "-X", rule.body, rule.conclusion)))
    return out


SIG = "signature (c, sigma) =T=> (sigma')\n"
FSIG = "signature (c, sigma, [delta :- down]) =G=> (sigma', [delta'])\n"
RULE = "rule R:\n  ---\n  (skip, sigma) =T=> (sigma)\n"

# One malformed text per place the parser or the threading raises.
MALFORMED = {
    "unexpected character": SIG + "rule R:\n  ---\n  (skip, sigma) =T=> (sigma) !\n",
    "end of line in signature": "signature (c, sigma\n",
    "end of line in group": SIG + "rule R:\n  ---\n  (skip, (seq c\n",
    "expected ] in signature": "signature (c, [d x]) =T=> (s)\n",
    "expected ( of judgment": SIG + "rule R:\n  ---\n  skip =T=> (sigma)\n",
    "comma in term": SIG + "rule R:\n  ---\n  ((seq ,), sigma) =T=> (sigma)\n",
    "bracket in term": SIG + "rule R:\n  ---\n  ([c], sigma) =T=> (sigma)\n",
    "arrow in term": SIG + "rule R:\n  ---\n  (c =T=> x, sigma) =T=> (sigma)\n",
    "empty tuple component": SIG + "rule R:\n  ---\n  (, sigma) =T=> (sigma)\n",
    "signature separator": "signature (c sigma) =T=> (s)\n",
    "signature arrow": "signature (c, sigma) x (s)\n",
    "signature trailing": "signature (c, sigma) =T=> (s) x\n",
    "judgment arrow": SIG + "rule R:\n  ---\n  (skip, sigma) x (sigma)\n",
    "judgment trailing": SIG + "rule R:\n  ---\n  (skip, sigma) =T=> (sigma) (x)\n",
    "no signature": SIG + "rule R:\n  ---\n  (skip, sigma) =Q=> (sigma)\n",
    "arity": SIG + "rule R:\n  ---\n  (skip, sigma, mu) =T=> (sigma)\n",
    "flag on one side": FSIG + "rule R:\n  ---\n  (skip, sigma, down) =G=> (sigma)\n",
    "duplicate signature": SIG + SIG,
    "rule header": SIG + "rule 9R:\n  ---\n  (skip, sigma) =T=> (sigma)\n",
    "duplicate label": SIG + RULE + "\n" + RULE,
    "missing conclusion": SIG + "rule R:\n  ---\n\n",
    "duplicate separator": SIG + "rule R:\n  ---\n  ---\n  (skip, sigma) =T=> (sigma)\n",
    "empty side": SIG + "rule R:\n  side\n  ---\n  (skip, sigma) =T=> (sigma)\n",
    "two conclusions": SIG + "rule R:\n  ---\n  (skip, s) =T=> (s)\n  (skip, s) =T=> (s)\n",
    "no conclusion": SIG + "rule R:\n  (skip, sigma) =T=> (sigma)\n",
    "no separator at end": SIG + "rule R:\n  (skip, sigma) =T=> (sigma)",
    "stray line": SIG + "skip\n",
    "mixed flag styles": FSIG + "rule R:\n  (c, sigma, down) =G=> (sigma1, delta1)\n"
    "  ---\n  (seq c, sigma) =G=> (sigma1)\n",
    "default is a bracket": "signature (c, [d :- ]) =T=> (s)\n",
    "empty signature tuple": "signature () =T=> ()\nrule R:\n  ---\n  () =T=> ()\n",
    "comment and blank lines": "# c\n\n" + SIG + "  # only a comment\n" + RULE,
    # threading: parses, then fails in thread_flags
    "thread: two source highlights": "signature ([c], [sigma :- down]) =G=> ([s])\n"
    "rule R:\n  ---\n  () =G=> ()\n",
    "thread: two target highlights": "signature (c, [d :- down]) =G=> ([s], [d'])\n"
    "rule R:\n  ---\n  (skip) =G=> ()\n",
    "thread: unflagged conclusion": FSIG + SIG
    + "rule R:\n  (c, sigma) =G=> (sigma)\n  ---\n  (seq c, sigma) =T=> (sigma)\n",
    "thread: no default": "signature (c, [d]) =G=> (s, [d'])\n"
    "rule R:\n  ---\n  (skip) =G=> (s)\n",
    "thread: no default in premise": "signature (c, [d]) =G=> (s, [d'])\n" + SIG
    + "rule R:\n  (c) =G=> (s)\n  ---\n  (seq c, sigma) =T=> (sigma)\n",
    "thread: repeated premise": FSIG + "rule R:\n  (c, sigma) =G=> (sigma)\n"
    "  (c, sigma) =G=> (sigma)\n  side delta1 in dom (update sigma delta')\n"
    "  (c, sigma) =G=> (sigma)\n  ---\n  (while c, sigma) =G=> (sigma)\n",
}

# Synthetic (base, new) rule pairs for the duplicate count.
UNIFY = {
    "group against group": (
        "rule B:\n  (c1, sigma) =T=> (sigma1)\n  ---\n  (seq (while e c1) c2, sigma) =T=> (sigma2)\n",
        "rule N:\n  (c, sigma) =T=> (s1)\n  ---\n  (seq (while e1 c) c2, sigma) =T=> (s2)\n",
    ),
    "group against other group": (
        "rule B:\n  (c1, sigma) =T=> (sigma1)\n  ---\n  (seq (while e c1) c2, sigma) =T=> (sigma2)\n",
        "rule N:\n  (c, sigma) =T=> (s1)\n  ---\n  (seq (if e c) c2, sigma) =T=> (s2)\n",
    ),
    "constant against variable": (
        "rule B:\n  (c1, sigma) =T=> (sigma1)\n  ---\n  (seq c1 c2, sigma) =T=> (sigma2)\n",
        "rule N:\n  (skip, sigma) =T=> (s1)\n  ---\n  (seq skip c2, sigma) =T=> (s1)\n",
    ),
    "single term against component": (
        "rule B:\n  (c1, update sigma x v) =T=> (sigma1)\n  ---\n"
        "  (seq c1 c2, update sigma x v) =T=> (sigma1)\n",
        "rule N:\n  (c1, s) =T=> (s1)\n  ---\n  (seq c1 c2, s) =T=> (s1)\n",
    ),
    "component against single term": (
        "rule B:\n  (c1, s) =T=> (sigma1)\n  ---\n  (seq c1 c2, s) =T=> (sigma1)\n",
        "rule N:\n  (c1, update sigma x v) =T=> (s1)\n  ---\n"
        "  (seq c1 c2, update sigma x v) =T=> (s1)\n",
    ),
    "length mismatch": (
        "rule B:\n  (c1, update sigma x) =T=> (sigma1)\n  ---\n  (seq c1 c2, sigma) =T=> (sigma1)\n",
        "rule N:\n  (c1, update sigma x v) =T=> (s1)\n  ---\n  (seq c1 c2, sigma) =T=> (s1)\n",
    ),
    "constant clash": (
        "rule B:\n  (c1, sigma) =T=> (sigma1)\n  ---\n  (seq skip c2, sigma) =T=> (sigma1)\n",
        "rule N:\n  (c1, sigma) =T=> (s1)\n  ---\n  (seq 0 c2, sigma) =T=> (s1)\n",
    ),
}


def _parse_and_thread(text: str) -> str:
    try:
        rs = parse_rules(text)
    except RuleParseError as e:
        return _error(e)
    try:
        threaded = pretty_rules(thread_flags(rs))
    except RuleParseError as e:
        return "parsed, then " + _error(e)
    return f"ok {pretty_rules(rs)!r} threaded {threaded!r}"


def build_golden() -> dict:
    sets = {name: load_ruleset(name) for name in SHIPPED}
    golden: dict = {}
    for name, rs in sets.items():
        golden[f"file {name} pretty"] = _digest(pretty_rules(rs))
        try:
            golden[f"file {name} thread"] = _digest(pretty_rules(thread_flags(rs)))
        except RuleParseError as e:
            golden[f"file {name} thread"] = _error(e)
        golden[f"file {name} count"] = str(count_metrics(rs))
    for a in SHIPPED:
        for b in SHIPPED:
            golden[f"alpha {a} {b}"] = alpha_diff(sets[a], sets[b])
            try:
                both = sets[a].union(sets[b])
            except ValueError as e:
                golden[f"union {a} {b}"] = _error(e)
                continue
            golden[f"union {a} {b}"] = str(count_metrics(both))
            for c in SHIPPED:
                golden[f"union {a} {b} base {c}"] = str(count_metrics(both, base=sets[c]))
    for name, rs in sets.items():
        rng = random.Random(name)
        for rule in rs.rules:
            original = RuleSet(rs.signatures, [rule])
            for kind, mutant in mutants(rule, rng):
                mutated = RuleSet(rs.signatures, [mutant])
                golden[f"mutant {name} {rule.label} {kind}"] = [
                    alpha_diff(original, mutated), alpha_diff(mutated, original)
                ]
    for case, text in MALFORMED.items():
        golden[f"text {case}"] = _parse_and_thread(text)
    try:
        parse_rules(SIG).union(parse_rules("signature (c) =T=> (s)\n"))
    except ValueError as e:
        golden["union conflicting signatures"] = _error(e)
    for case, (base, new) in UNIFY.items():
        base_rs, new_rs = parse_rules(SIG + base), parse_rules(SIG + new)
        golden[f"unify {case}"] = [
            str(count_metrics(new_rs, base=base_rs)), str(count_metrics(base_rs, base=new_rs))
        ]
    return golden


def test_rule_notation_reproduces_the_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = build_golden()
    assert list(got) == list(golden)
    assert {k: v for k, v in got.items() if v != golden[k]} == {}


def test_golden_reaches_every_kind_of_answer():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    answers = {k: v for k, v in golden.items() if k.startswith("mutant ")}
    assert {k.rsplit(" ", 1)[1] for k in answers} == {
        "rename", "rename-one", "constant", "merge", "reverse", "swap-ends", "drop-last", "group",
        "relabel",
    }
    for key, (forward, backward) in answers.items():
        kind = key.rsplit(" ", 1)[1]
        if kind == "rename":
            assert forward == backward == [], key
        if kind in ("constant", "merge", "group", "relabel"):
            assert forward and backward, key
    errors = {v.split(" ")[1] for k, v in golden.items() if k.startswith("text ")}
    assert {"RuleParseError", "MixedFlagUsage"} <= errors
    assert any(golden[f"unify {case}"][0].endswith("duplicates=1") for case in UNIFY)


@pytest.mark.parametrize("tok", [":", ":-"])
@pytest.mark.parametrize("line", [
    "  (skip {tok} x, sigma) =T=> (sigma)",
    "  (skip, sigma) =T=> ({tok})",
    "  side x {tok} sigma",
])
def test_colon_and_default_marker_are_not_terms(tok, line):
    text = SIG + "rule R:\n" + line.format(tok=tok) + "\n  ---\n  (skip, sigma) =T=> (sigma)\n"
    with pytest.raises(RuleParseError) as e:
        parse_rules(text)
    assert (e.value.line, e.value.message) == (3, f"unexpected {tok!r} in term")


if __name__ == "__main__":
    golden = build_golden()
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, ensure_ascii=False)}"
                       for k, v in golden.items())
    GOLDEN.write_text(f"{{\n{lines}\n}}\n", encoding="utf-8")
