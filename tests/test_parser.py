"""Concrete syntax: parsing, pretty-printing, and their round trip."""

import pytest
from hypothesis import given, settings, strategies as st

from whilesem.harness import GenConfig, generate_program
from whilesem.parser import (
    ParseError,
    parse_cmd,
    parse_expr,
    parse_stream,
    pretty_cmd,
    pretty_expr,
)
from whilesem.syntax import (
    Alloc,
    Assign,
    Bop,
    Catch,
    If,
    Input,
    InputStream,
    Lit,
    Nat,
    NULL,
    Seq,
    Skip,
    Throw,
    Var,
    While,
)


def test_parse_simple_commands():
    assert parse_cmd("skip") == Skip()
    assert parse_cmd("alloc x") == Alloc("x")
    assert parse_cmd("x := 3") == Assign("x", Lit(Nat(3)))
    assert parse_cmd("throw 2") == Throw(Nat(2))
    assert parse_cmd("throw null") == Throw(NULL)


def test_seq_is_right_nested():
    c = parse_cmd("skip; skip; skip")
    assert c == Seq(Skip(), Seq(Skip(), Skip()))


def test_braces_group_commands():
    c = parse_cmd("{ skip; skip }; skip")
    assert c == Seq(Seq(Skip(), Skip()), Skip())


def test_if_and_while_take_braced_bodies():
    c = parse_cmd("if x { skip } else { x := 1 }")
    assert c == If(Var("x"), Skip(), Assign("x", Lit(Nat(1))))
    w = parse_cmd("while x { x := x - 1 }")
    assert w == While(Var("x"), Assign("x", Bop("-", Var("x"), Lit(Nat(1)))))


def test_try_catch():
    c = parse_cmd("try { throw 1 } catch { skip }")
    assert c == Catch(Throw(Nat(1)), Skip())


def test_expression_precedence():
    # * binds tighter than + and -, which associate left
    assert parse_expr("1 + 2 * 3") == Bop("+", Lit(Nat(1)), Bop("*", Lit(Nat(2)), Lit(Nat(3))))
    assert parse_expr("1 - 2 - 3") == Bop("-", Bop("-", Lit(Nat(1)), Lit(Nat(2))), Lit(Nat(3)))
    assert parse_expr("(1 + 2) * 3") == Bop("*", Bop("+", Lit(Nat(1)), Lit(Nat(2))), Lit(Nat(3)))


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as e:
        parse_cmd("while { skip")
    assert "1:7" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_cmd("skip;\nalloc 3")
    assert "2:7" in str(e.value)


def test_end_of_input_after_a_comment_sits_at_the_hash():
    with pytest.raises(ParseError) as e:
        parse_cmd("while 1 # no body")
    assert (e.value.line, e.value.col) == (1, 9)
    with pytest.raises(ParseError) as e:
        parse_cmd("skip;\n  # nothing follows\n")
    assert (e.value.line, e.value.col) == (3, 1)


def test_numbers_take_only_decimal_digits():
    # "\u00b2" (superscript two) passes str.isdigit but not int()
    for text, col in [("x := \u00b2", 6), ("x := 12\u00b2", 8), ("throw \u00b2", 7)]:
        with pytest.raises(ParseError) as e:
            parse_cmd(text)
        assert (e.value.line, e.value.col) == (1, col)
        assert e.value.message == "unexpected character '\u00b2'"
    with pytest.raises(ParseError):
        parse_stream("1\u00b2")
    with pytest.raises(ParseError):
        parse_expr("\u00b2 + 1")
    # other decimal digits are numbers, as int() reads them
    assert parse_expr("\u0663") == Lit(Nat(3))
    # letters and digits after a letter stay one identifier
    assert parse_expr("x\u00b2") == Var("x\u00b2")


def test_keywords_are_not_identifiers():
    with pytest.raises(ParseError):
        parse_cmd("alloc while")
    with pytest.raises(ParseError):
        parse_cmd("input := 1")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_cmd("skip skip")


def test_parse_stream():
    assert parse_stream("") == InputStream()
    assert parse_stream("1,0,2") == InputStream.of(1, 0, 2)
    assert parse_stream("1, null ,2") == InputStream.of(1, None, 2)


def test_round_trip_fixed_programs():
    sources = [
        "skip",
        "alloc x; x := 1 + 2 * 3",
        "if x - 1 { skip } else { while x { x := x - 1 } }",
        "try { throw 1 } catch { x := input }",
        "{ while 1 { skip } }; alloc x; x := x + 0",
    ]
    for src in sources:
        c = parse_cmd(src)
        assert parse_cmd(pretty_cmd(c)) == c


def test_round_trip_generated_corpus():
    cfg = GenConfig(seed=0, allow_input=True, allow_throw=True, wellformed=0.6)
    for i in range(500):
        c = generate_program(cfg, i)
        assert parse_cmd(pretty_cmd(c)) == c, pretty_cmd(c)


# A direct AST strategy exercises shapes the generator's scope discipline
# would never produce (shadowed allocs, free variables, deep expressions).

_names = st.sampled_from(["x", "y", "z", "longname", "v0"])
_vals = st.one_of(st.integers(min_value=0, max_value=9).map(Nat), st.just(NULL))


def _exprs():
    return st.recursive(
        st.one_of(_vals.map(Lit), _names.map(Var), st.just(Input())),
        lambda sub: st.builds(Bop, st.sampled_from("+-*"), sub, sub),
        max_leaves=8,
    )


def _cmds():
    leaf = st.one_of(
        st.just(Skip()),
        _names.map(Alloc),
        st.builds(Assign, _names, _exprs()),
        st.builds(Throw, _vals),
    )
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(Seq, sub, sub),
            st.builds(If, _exprs(), sub, sub),
            st.builds(While, _exprs(), sub),
            st.builds(Catch, sub, sub),
        ),
        max_leaves=12,
    )


@settings(max_examples=300, deadline=None)
@given(_cmds())
def test_round_trip_arbitrary_asts(c):
    assert parse_cmd(pretty_cmd(c)) == c


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_round_trip_arbitrary_exprs(e):
    assert parse_expr(pretty_expr(e)) == e
