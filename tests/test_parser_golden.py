"""A golden of the parser's answers on malformed and unusual text.

`parser_golden.json` holds one entry per text: which entry point reads it
(`cmd`, `expr`, `value`, `stream`, or `cert` for a whole certificate
document) and what it gives, either the canonical reprint of the parse or
the text of the error.  The corpus is a seeded set of generated programs,
expressions and streams, each with one token or character deleted,
duplicated, swapped or inserted, plus hand-written cases.  Any parser must
reproduce every entry exactly: trees, error messages, lines and columns.

Rewrite the golden (only when a change of answers is intended) with

    PYTHONPATH=src python tests/test_parser_golden.py
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

from whilesem.coinduction import certificate_from_json, certificate_to_json, prove_divergence
from whilesem.harness import GenConfig, generate_program
from whilesem.parser import (
    ParseError,
    parse_cmd,
    parse_expr,
    parse_stream,
    parse_value_literal,
    pretty_cmd,
    pretty_expr,
)
from whilesem.syntax import EMPTY_STORE, EMPTY_STREAM, cmd_exprs, format_val

GOLDEN = Path(__file__).with_name("parser_golden.json")

_READERS = {
    "cmd": lambda text: pretty_cmd(parse_cmd(text)),
    "expr": lambda text: pretty_expr(parse_expr(text)),
    "value": lambda text: format_val(parse_value_literal(text)),
    "stream": lambda text: ",".join(format_val(v) for v in parse_stream(text).values),
    "cert": lambda text: json.dumps(certificate_to_json(certificate_from_json(json.loads(text)))),
}


def answer(kind: str, text: str) -> str:
    try:
        return "ok " + _READERS[kind](text)
    except ParseError as e:
        return "error " + str(e)
    except ValueError as e:
        return "invalid " + str(e)


# Characters inserted by the mutator: layout, comment and symbol starts,
# non-ASCII letters and digits, and characters no token may start with.
_INSERTS = [" ", "\t", "\r", "\n", "#", ":", "=", "(", ")", "{", "}", ";", "é", "²",
            "٣", "½", "\x0b", " ", "!", "1", "_", "x"]

_HAND = [
    ("cmd", ""), ("cmd", "   \n\t"), ("cmd", "# only a comment"), ("cmd", "skip # trailing"),
    ("cmd", "skip;\n  # nothing follows\n"), ("cmd", "while 1 # no body"),
    ("cmd", "skip\r\nskip"), ("cmd", "skip;\r\n\tskip"), ("cmd", "\tx := ²"),
    ("cmd", "alloc été; été := 1"), ("cmd", "alloc x²; x² := ٣"),
    ("cmd", "alloc ²x"), ("cmd", "x := 12²"), ("cmd", "throw ²"), ("cmd", "alloc ½"),
    ("cmd", "alloc 日本; 日本 := 2"), ("cmd", "x : 1"), ("cmd", "x :"),
    ("cmd", "x := 1 :"), ("cmd", "x = 1"), ("cmd", "alloc while"), ("cmd", "input := 1"),
    ("cmd", "while := 1"), ("cmd", "else"), ("cmd", "null"), ("cmd", "skip skip"), ("cmd", "skip }"),
    ("cmd", "skip )"), ("cmd", "skip;"), ("cmd", ";"), ("cmd", "{ skip"), ("cmd", "{ }"),
    ("cmd", "x := (1 + 2"), ("cmd", "x := 1 +"), ("cmd", "x := )"), ("cmd", "if 1 { skip }"),
    ("cmd", "if 1 { skip } else skip"), ("cmd", "try { skip }"), ("cmd", "try { skip } catch skip"),
    ("cmd", "throw x"), ("cmd", "throw"), ("cmd", "alloc"), ("cmd", "alloc 3"), ("cmd", "3 := 1"),
    ("cmd", "x\n:=\n(\n1\n+\n"), ("cmd", "skip\x0b"), ("cmd", "skip "), ("cmd", "skip\x0c"),
    ("cmd", "x := 1 ## two"), ("cmd", "{{{{ skip }}}}; {{ skip }}"), ("cmd", "x := ((((1))))"),
    ("cmd", "while { skip ²"), ("cmd", "_ := _1"), ("cmd", "x := 007"),
    ("expr", ""), ("expr", "("), ("expr", "1 +"), ("expr", "x y"), ("expr", "(1))"), ("expr", "1 - 2 - 3"),
    ("expr", "1 * (2 + 3) * 4 - x"), ("expr", "input * null"), ("expr", "² + 1"), ("expr", "x²"),
    ("expr", "٣"), ("expr", "skip"), ("expr", "1 # c"), ("expr", "1 #"),
    ("value", ""), ("value", "null"), ("value", "3"), ("value", "x"), ("value", "1 2"), ("value", "(1)"),
    ("value", "٣٤"), ("value", "²"),
    ("stream", ""), ("stream", "1,0,2"), ("stream", "1, null ,2"), ("stream", "1, 0, x"),
    ("stream", "1,2,3,4²"), ("stream", "1,\n 2, x"), ("stream", "1,\nx"), ("stream", ","),
    ("stream", "1,"), ("stream", " 1 , # c\n 2"), ("stream", "1;2"),
]


def _spans(text: str) -> list:
    return [m.span() for m in re.finditer(r":=|\w+|\S", text)]


def _mutate(text: str, rng: random.Random) -> str:
    """`text` with one token or character deleted, duplicated, swapped with
    its neighbour, or (characters only) an unusual character inserted."""
    spans = _spans(text)
    if rng.random() < 0.5 and len(spans) > 1:
        k = rng.randrange(len(spans) - 1)
        (a, b), (c, d) = spans[k], spans[k + 1]
        how = rng.choice(("delete", "duplicate", "swap"))
        if how == "delete":
            return text[:a] + text[b:]
        if how == "duplicate":
            return text[:b] + " " + text[a:b] + text[b:]
        return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    i = rng.randrange(max(len(text), 1))
    how = rng.choice(("delete", "duplicate", "swap", "insert"))
    if how == "delete":
        return text[:i] + text[i + 1:]
    if how == "duplicate":
        return text[:i + 1] + text[i:]
    if how == "swap":
        return text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:]
    return text[:i] + rng.choice(_INSERTS) + text[i:]


def _certificates() -> list:
    """A flag-co and a pretty-co certificate of a spinning loop, as
    documents with one defect each: a subject that cites no term, or cites
    a term of the wrong kind; a term cut short or holding a name that is no
    variable; a plain command that cites a later term or none.  The last of
    each group is valid."""
    spin = parse_cmd("while 1 { skip }")
    out = []
    for system, edits in [
        ("flag-co", [("subject", 5), ("subject", None), ("subject", 1.5), ("subject", ["skip"]),
                     ("subject", {"plain": "skip"}), ("while", ["while", 0]), ("alloc", ["alloc", "²"]),
                     ("subject", 1)]),
        ("pretty-co", [("plain", ["plain", 5]), ("plain", ["plain", None]), ("plain", ["plain", "x :"]),
                       ("plain", ["plain", 1]), ("subject", 1)]),
    ]:
        for place, value in edits:
            doc = certificate_to_json(prove_divergence(spin, EMPTY_STORE, EMPTY_STREAM, system, 200))
            if place == "subject":
                doc["nodes"][0]["subject"] = value
            elif place == "alloc":
                doc["terms"].append(value)
                doc["nodes"][0]["subject"] = len(doc["terms"]) - 1
            else:
                doc["terms"][[t[0] for t in doc["terms"]].index(place)] = value
            out.append(("cert", json.dumps(doc, ensure_ascii=False)))
    return out


def build_corpus() -> list:
    rng = random.Random(20261018)
    cases = list(_HAND)
    configs = [
        GenConfig(allow_input=True, allow_throw=True, wellformed=0.6),
        GenConfig(max_depth=7, num_vars=5, literals=(0, 1, 2, 10, 123)),
    ]
    for i in range(1500):
        program = generate_program(configs[i % 2], i)
        text = pretty_cmd(program)
        cases.append(("cmd", _mutate(text, rng)))
        if i % 5 == 0:
            cases.append(("cmd", text))
        if i % 3 == 0:
            for e in list(cmd_exprs(program))[:1]:
                cases.append(("expr", _mutate(pretty_expr(e), rng)))
        if i % 10 == 0:
            stream = ",".join(rng.choice(["0", "1", "null", "12", " 3 "]) for _ in range(rng.randrange(1, 5)))
            cases.append(("stream", _mutate(stream, rng)))
            cases.append(("value", _mutate(rng.choice(["0", "null", "42"]), rng)))
    cases += _certificates()
    return [[kind, text, answer(kind, text)] for kind, text in cases]


def test_parser_reproduces_the_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) > 1500
    wrong = [(kind, text, want, answer(kind, text)) for kind, text, want in golden if answer(kind, text) != want]
    assert wrong == []


def test_golden_covers_every_kind_of_answer():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    answers = {want.split(" ")[0] for _, _, want in golden}
    assert answers == {"ok", "error", "invalid"}


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(entry, ensure_ascii=False) for entry in build_corpus())
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
