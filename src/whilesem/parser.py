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
"""

from __future__ import annotations

from typing import NamedTuple, Optional

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
)

KEYWORDS = frozenset(
    ["skip", "alloc", "if", "else", "while", "throw", "try", "catch", "input", "null"]
)

# Symbols by their first character, which no two share.
_SYMBOLS = {sym[0]: sym for sym in (":=", ";", "(", ")", "{", "}", "+", "-", "*")}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # "ident" | "num" | "kw" | "sym" | "eof"
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[Token]:
    """Columns count characters from 1; a comment that runs to the end of
    the source leaves the end-of-input token at its `#`."""
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0  # the column of index i is i - line_start + 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == " ":
            i += 1
            continue
        sym = _SYMBOLS.get(ch)
        if sym is not None and (len(sym) == 1 or source.startswith(sym, i)):
            append(Token("sym", sym, line, i - line_start + 1))
            i += len(sym)
        elif ch.isalpha() or ch == "_":
            start = i
            i += 1
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            append(Token("kw" if text in KEYWORDS else "ident", text, line, start - line_start + 1))
        elif ch.isdecimal():  # exactly the characters int() accepts
            start = i
            i += 1
            while i < n and source[i].isdecimal():
                i += 1
            append(Token("num", source[start:i], line, start - line_start + 1))
        elif ch == "\n":
            i += 1
            line += 1
            line_start = i
        elif ch in "\t\r":
            i += 1
        elif ch == "#":
            end = source.find("\n", i)
            if end < 0:
                n = i
                break
            i = end
        else:
            raise ParseError(f"unexpected character {ch!r}", line, i - line_start + 1)
    tokens.append(Token("eof", "", line, n - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str) -> "ParseError":
        t = self.peek()
        return ParseError(message, t.line, t.col)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            got = t.text if t.kind != "eof" else "end of input"
            raise self.fail(f"expected {want!r}, found {got!r}")
        return self.next()

    # commands ------------------------------------------------------------

    def cmd(self) -> Cmd:
        left = self.atom()
        t = self.peek()
        if t.kind == "sym" and t.text == ";":
            self.next()
            return Seq(left, self.cmd())
        return left

    def block(self) -> Cmd:
        self.expect("sym", "{")
        body = self.cmd()
        self.expect("sym", "}")
        return body

    def atom(self) -> Cmd:
        t = self.peek()
        if t.kind == "kw":
            if t.text == "skip":
                self.next()
                return Skip()
            if t.text == "alloc":
                self.next()
                name = self.expect("ident")
                return Alloc(name.text)
            if t.text == "if":
                self.next()
                guard = self.expr()
                then = self.block()
                self.expect("kw", "else")
                orelse = self.block()
                return If(guard, then, orelse)
            if t.text == "while":
                self.next()
                guard = self.expr()
                return While(guard, self.block())
            if t.text == "throw":
                self.next()
                return Throw(self.value_literal())
            if t.text == "try":
                self.next()
                body = self.block()
                self.expect("kw", "catch")
                return Catch(body, self.block())
            raise self.fail(f"keyword {t.text!r} cannot start a command")
        if t.kind == "sym" and t.text == "{":
            return self.block()
        if t.kind == "ident":
            name = self.next()
            self.expect("sym", ":=")
            return Assign(name.text, self.expr())
        got = t.text if t.kind != "eof" else "end of input"
        raise self.fail(f"expected a command, found {got!r}")

    # expressions ----------------------------------------------------------

    def value_literal(self) -> Val:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Nat(int(t.text))
        if t.kind == "kw" and t.text == "null":
            self.next()
            return NULL
        raise self.fail("expected a value literal (number or null)")

    def expr(self) -> Expr:
        left = self.term()
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text in ("+", "-"):
                self.next()
                left = Bop(t.text, left, self.term())
            else:
                return left

    def term(self) -> Expr:
        left = self.factor()
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text == "*":
                self.next()
                left = Bop("*", left, self.factor())
            else:
                return left

    def factor(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Lit(Nat(int(t.text)))
        if t.kind == "kw" and t.text == "null":
            self.next()
            return Lit(NULL)
        if t.kind == "kw" and t.text == "input":
            self.next()
            return Input()
        if t.kind == "ident":
            self.next()
            return Var(t.text)
        if t.kind == "sym" and t.text == "(":
            self.next()
            e = self.expr()
            self.expect("sym", ")")
            return e
        got = t.text if t.kind != "eof" else "end of input"
        raise self.fail(f"expected an expression, found {got!r}")


def parse_cmd(text: str) -> Cmd:
    p = _Parser(_tokenize(text))
    c = p.cmd()
    t = p.peek()
    if t.kind != "eof":
        raise p.fail(f"trailing input starting at {t.text!r}")
    return c


def parse_expr(text: str) -> Expr:
    p = _Parser(_tokenize(text))
    e = p.expr()
    t = p.peek()
    if t.kind != "eof":
        raise p.fail(f"trailing input starting at {t.text!r}")
    return e


def parse_value_literal(text: str) -> Val:
    p = _Parser(_tokenize(text))
    v = p.value_literal()
    t = p.peek()
    if t.kind != "eof":
        raise p.fail(f"trailing input starting at {t.text!r}")
    return v


def parse_stream(text: str) -> InputStream:
    """Parse a comma-separated list of value literals, e.g. "1,0,null"."""
    text = text.strip()
    if not text:
        return InputStream()
    return InputStream(tuple(parse_value_literal(part) for part in text.split(",")))


# ---------------------------------------------------------------------------
# Pretty-printing


def pretty_expr(e: Expr) -> str:
    return _pp_expr(e, 1)


def _pp_expr(e: Expr, level: int) -> str:
    # levels: 1 = additive, 2 = multiplicative, 3 = atom
    if isinstance(e, Lit):
        return format_val(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Input):
        return "input"
    own = 2 if e.op == "*" else 1
    left = _pp_expr(e.left, own)
    right = _pp_expr(e.right, own + 1)  # left-associative: parenthesize right peers
    text = f"{left} {e.op} {right}"
    if own < level:
        return f"({text})"
    return text


def pretty_cmd(c: Cmd) -> str:
    if isinstance(c, Seq):
        return f"{_pp_atom(c.first)}; {pretty_cmd(c.second)}"
    return _pp_atom(c)


def _pp_atom(c: Cmd) -> str:
    if isinstance(c, Skip):
        return "skip"
    if isinstance(c, Alloc):
        return f"alloc {c.x}"
    if isinstance(c, Assign):
        return f"{c.x} := {pretty_expr(c.expr)}"
    if isinstance(c, Seq):
        return "{ " + pretty_cmd(c) + " }"
    if isinstance(c, If):
        return (
            f"if {pretty_expr(c.guard)} {{ {pretty_cmd(c.then)} }}"
            f" else {{ {pretty_cmd(c.orelse)} }}"
        )
    if isinstance(c, While):
        return f"while {pretty_expr(c.guard)} {{ {pretty_cmd(c.body)} }}"
    if isinstance(c, Throw):
        return f"throw {format_val(c.value)}"
    if isinstance(c, Catch):
        return f"try {{ {pretty_cmd(c.body)} }} catch {{ {pretty_cmd(c.handler)} }}"
    raise TypeError(f"not a command: {c!r}")
