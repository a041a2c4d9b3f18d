"""Concrete syntax for While programs (`.whl` files).

Grammar, with `;` the loosest binder and right-associative::

    cmd    ::= atom (';' cmd)?
    atom   ::= 'skip'
             | 'alloc' ident
             | ident ':=' expr
             | 'if' expr '{' cmd '}' 'else' '{' cmd '}'
             | 'while' expr '{' cmd '}'
             | 'throw' value
             | 'try' '{' cmd '}' 'catch' '{' cmd '}'
             | '{' cmd '}'
    expr   ::= term (('+' | '-') term)*        left-associative
    term   ::= factor ('*' factor)*            '*' binds tighter
    factor ::= number | 'null' | 'input' | ident | '(' expr ')'
    value  ::= number | 'null'

`#` starts a comment running to end of line.  Keywords (skip, alloc, if,
else, while, throw, try, catch, input, null) cannot be used as identifiers.
`pretty_cmd` emits canonical one-line text that reparses to the same tree;
left-nested sequences print with explicit `{ }` grouping.

One regular expression splits a text into tokens.  The parser reads them by
index in a loop and keeps the constructs still open (commands, operators,
parentheses) on explicit stacks; the printers walk terms with a stack too.
So no nesting depth or length meets the recursion limit.
"""

from __future__ import annotations

import re
from itertools import islice

from .syntax import (
    Alloc,
    Assign,
    Bop,
    Catch,
    Cmd,
    Expr,
    If,
    Input,
    InputStream,
    Lit,
    Nat,
    NULL,
    Seq,
    Skip,
    Throw,
    Val,
    Var,
    While,
    format_val,
    nat_of_digits,
)

KEYWORDS = frozenset("skip alloc if else while throw try catch input null".split())

# Layout and comments, then one token: a number (the characters int()
# accepts), a symbol, a word, any other character, or "" at the end of input.
_TOKEN = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*(\d+|:=|[;(){}+*-]|\w+|.|\Z)", re.S)
_NOT_WORDS = KEYWORDS | {":=", ";", "(", ")", "{", "}", "+", "-", "*", ""}
_LEAVES = {"null": Lit(NULL), "input": Input()}  # the keywords that are operands
_BINDS = {"+": 1, "-": 1, "*": 2}  # operator precedence; "(" binds nothing
_SKIP = Skip()
_BLOCK, _THEN, _ELSE, _WHILE, _TRY, _CATCH, _SEQ = range(7)  # open constructs


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _Fail(Exception):
    """A parse error at a token index; `_parse` works out its line and column."""


def _expected(toks: list, i: int, what: str) -> _Fail:
    return _Fail(i, f"expected {what}, found {toks[i] or 'end of input'!r}")


def _leaf(word: str):
    """The operand a word stands for, or None if its first character cannot
    start a token."""
    c = word[0]
    if c.isdecimal():
        return Lit(Nat(nat_of_digits(word)))
    if c.isalpha() or c == "_":
        return Var(word)
    return None


def _tokens(text: str) -> tuple[list, dict]:
    """The tokens of `text`, ending in "", and the leaf of each operand
    token.  Numbers and identifiers get one shared leaf per text."""
    toks = _TOKEN.findall(text)
    leaves = dict(_LEAVES)
    for word in set(toks).difference(_NOT_WORDS):
        leaf = leaves[word] = _leaf(word)
        if leaf is None:
            m = next(m for m in _TOKEN.finditer(text) if m[1] not in _NOT_WORDS and _leaf(m[1]) is None)
            raise _error(text, m.start(1), f"unexpected character {m[1][0]!r}")
    return toks, leaves


def _error(text: str, offset: int, message: str) -> ParseError:
    """Columns count characters from 1."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _parse(text: str, read):
    toks, leaves = _tokens(text)
    try:
        tree, i = read(toks, leaves, 0)
        if toks[i]:
            raise _Fail(i, f"trailing input starting at {toks[i]!r}")
        return tree
    except _Fail as fail:
        i, message = fail.args
    offset = next(islice(_TOKEN.finditer(text), i, None)).start(1)
    if offset == len(text):  # the end of input sits at a final comment's `#`
        comment = text.find("#", text.rfind("\n") + 1)
        offset = offset if comment < 0 else comment
    raise _error(text, offset, message)


def _command(toks: list, leaves: dict, i: int):
    """The command starting at token i, and the index after it.

    Each pass reads one atom, or opens a construct and goes on to its first
    part.  Open constructs wait on `frames`, innermost last: a sequence's
    left side, a brace block, or a compound command and its parts so far.
    A finished atom closes every construct it completes."""
    frames: list = []
    while True:
        t = toks[i]
        i += 1
        if t == "skip":
            c = _SKIP
        elif t == "while" or t == "if" or t == "try":
            if t == "try":
                frame = (_TRY,)
            else:
                guard, i = _expression(toks, leaves, i)
                frame = (_WHILE if t == "while" else _THEN, guard)
            if toks[i] != "{":
                raise _expected(toks, i, "'{'")
            frames.append(frame)
            i += 1
            continue
        elif t == "{":
            frames.append((_BLOCK,))
            continue
        elif type(leaves.get(t)) is Var:
            if toks[i] != ":=":
                raise _expected(toks, i, "':='")
            e, i = _expression(toks, leaves, i + 1)
            c = Assign(t, e)
        elif t == "alloc":
            if type(leaves.get(toks[i])) is not Var:
                raise _expected(toks, i, "'ident'")
            c = Alloc(toks[i])
            i += 1
        elif t == "throw":
            v, i = _value(toks, leaves, i)
            c = Throw(v)
        elif t in KEYWORDS:
            raise _Fail(i - 1, f"keyword {t!r} cannot start a command")
        else:
            raise _expected(toks, i - 1, "a command")
        while True:
            if toks[i] == ";":
                frames.append((_SEQ, c))
                i += 1
                break
            while frames and frames[-1][0] == _SEQ:
                c = Seq(frames.pop()[1], c)
            if not frames:
                return c, i
            if toks[i] != "}":
                raise _expected(toks, i, "'}'")
            i += 1
            frame = frames.pop()
            kind = frame[0]
            if kind == _WHILE:
                c = While(frame[1], c)
            elif kind == _ELSE:
                c = If(frame[1], frame[2], c)
            elif kind == _CATCH:
                c = Catch(frame[1], c)
            elif kind != _BLOCK:  # the first part of if/else or try/catch
                word = "else" if kind == _THEN else "catch"
                if toks[i] != word:
                    raise _expected(toks, i, repr(word))
                if toks[i + 1] != "{":
                    raise _expected(toks, i + 1, "'{'")
                frames.append((_ELSE, frame[1], c) if kind == _THEN else (_CATCH, c))
                i += 2
                break


def _expression(toks: list, leaves: dict, i: int):
    """The expression starting at token i, and the index after it, by
    operator precedence: pending operators and open parentheses wait on
    `ops`, and each operator's left operand on `lefts`."""
    e = leaves.get(toks[i])
    if e is not None and toks[i + 1] not in _BINDS:  # a lone operand
        return e, i + 1
    ops: list = []
    lefts: list = []
    depth = 0
    while True:
        t = toks[i]
        i += 1
        e = leaves.get(t)
        if e is None:
            if t != "(":
                raise _expected(toks, i - 1, "an expression")
            ops.append(t)
            depth += 1
            continue
        t = toks[i]
        while t == ")" and depth:
            while ops[-1] != "(":
                e = Bop(ops.pop(), lefts.pop(), e)
            ops.pop()
            depth -= 1
            i += 1
            t = toks[i]
        binds = _BINDS.get(t)
        if binds is None:
            break
        while ops and _BINDS.get(ops[-1], 0) >= binds:
            e = Bop(ops.pop(), lefts.pop(), e)
        ops.append(t)
        lefts.append(e)
        i += 1
    if depth:
        raise _expected(toks, i, "')'")
    while ops:
        e = Bop(ops.pop(), lefts.pop(), e)
    return e, i


def _value(toks: list, leaves: dict, i: int):
    v = leaves.get(toks[i])
    if type(v) is not Lit:
        raise _Fail(i, "expected a value literal (number or null)")
    return v.value, i + 1


def parse_cmd(text: str) -> Cmd:
    return _parse(text, _command)


def parse_expr(text: str) -> Expr:
    return _parse(text, _expression)


def parse_value_literal(text: str) -> Val:
    return _parse(text, _value)


def parse_stream(text: str) -> InputStream:
    """Parse a comma-separated list of value literals, e.g. "1,0,null".  A
    ParseError gives its line and column in the whole text."""
    if not text.strip():
        return InputStream()
    values, start = [], 0
    for part in text.split(","):
        try:
            values.append(parse_value_literal(part))
        except ParseError as e:
            shift = start - text.rfind("\n", 0, start) - 1 if e.line == 1 else 0
            raise ParseError(e.message, e.line + text.count("\n", 0, start), e.col + shift) from None
        start += len(part) + 1
    return InputStream(tuple(values))


# ---------------------------------------------------------------------------
# Pretty-printing


def pretty_expr(e: Expr) -> str:
    """Operands of `*` and right operands of their own precedence get
    parentheses.  Left operands are entered in a loop; right ones, and
    closing text, wait on a stack."""
    if type(e) is Var:
        return e.name
    out: list = []
    todo: list = [(e, 1)]  # (expression, level): 1 additive, 2 multiplicative, 3 atom
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        e, level = item
        while type(e) is Bop:
            own = 2 if e.op == "*" else 1
            if own < level:
                out.append("(")
                todo.append(")")
            todo += ((e.right, own + 1), f" {e.op} ")
            e, level = e.left, own
        t = type(e)
        out.append(e.name if t is Var else "input" if t is Input else format_val(e.value))
    return "".join(out)


def pretty_cmd(c: Cmd) -> str:
    """Left-nested sequences print in braces.  The text is built from a
    stack of pending pieces: strings, and commands still to print."""
    out: list = []
    todo: list = [c]
    while todo:
        c = todo.pop()
        t = type(c)
        if t is str:
            out.append(c)
        elif t is Seq:
            todo += (c.second, "; ", " }", c.first, "{ ") if type(c.first) is Seq else (c.second, "; ", c.first)
        elif t is Assign:
            out.append(f"{c.x} := {pretty_expr(c.expr)}")
        elif t is Skip:
            out.append("skip")
        elif t is While:
            todo += (" }", c.body, f"while {pretty_expr(c.guard)} {{ ")
        elif t is If:
            todo += (" }", c.orelse, " } else { ", c.then, f"if {pretty_expr(c.guard)} {{ ")
        elif t is Alloc:
            out.append(f"alloc {c.x}")
        elif t is Throw:
            out.append(f"throw {format_val(c.value)}")
        elif t is Catch:
            todo += (" }", c.handler, " } catch { ", c.body, "try { ")
        else:
            raise TypeError(f"not a command: {c!r}")
    return "".join(out)
