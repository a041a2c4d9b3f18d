"""The expression core against reference copies of its earlier,
`isinstance`-based definitions: the exact-type dispatch, the direct guard
test, the shared naturals below `_SMALL` and the compiled closures must give
the same values, streams and stuck reasons."""

from __future__ import annotations

import copy
import gc
import pickle
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import whilesem.small_step as small_step
from whilesem.flag_based import FlagResult, eval_expr_flag
from whilesem.small_step import _NATS, _NESTING, _SMALL, ExprStuck, _eval_nested, apply_bop, eval_expr, guard_nonzero
from whilesem.syntax import (
    ANY_NAT,
    BOPS,
    DOWN,
    EMPTY_STORE,
    NULL,
    UP,
    AnyNat,
    Bop,
    Down,
    Exc,
    Input,
    InputStream,
    Lit,
    Nat,
    Null,
    Store,
    Stuck,
    Var,
)

# --- reference copies ----------------------------------------------------------


def ref_apply_bop(op, a, b):
    if isinstance(a, Null) or isinstance(b, Null):
        raise ExprStuck(f"null operand in {op}")
    if isinstance(a, AnyNat) or isinstance(b, AnyNat):
        return a if isinstance(a, AnyNat) else b
    if op == "+":
        return Nat(a.n + b.n)
    if op == "-":
        return Nat(max(a.n - b.n, 0))
    return Nat(a.n * b.n)


def ref_guard_nonzero(v):
    if isinstance(v, AnyNat):
        raise ExprStuck("indeterminate guard value")
    return v != Nat(0)


def ref_eval_expr(e, store, stream):
    if isinstance(e, Lit):
        return e.value, stream
    if isinstance(e, Var):
        v = store.get(e.name)
        if v is None:
            raise ExprStuck(f"unbound variable {e.name}")
        return v, stream
    if isinstance(e, Input):
        popped = stream.pop()
        if popped is None:
            raise ExprStuck("input exhausted")
        return popped
    if isinstance(e, Bop):
        v1, stream = ref_eval_expr(e.left, store, stream)
        v2, stream = ref_eval_expr(e.right, store, stream)
        return ref_apply_bop(e.op, v1, v2), stream
    raise TypeError(f"not an expression: {e!r}")


class _RefStuck(Exception):
    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


def _ref_expr_flag(e, store, flag, stream):
    if not isinstance(flag, Down):
        return NULL, flag, stream
    if isinstance(e, Lit):
        return e.value, DOWN, stream
    if isinstance(e, Var):
        v = store.get(e.name)
        if v is None:
            raise _RefStuck(f"unbound variable {e.name}")
        return v, DOWN, stream
    if isinstance(e, Input):
        popped = stream.pop()
        if popped is None:
            raise _RefStuck("input exhausted")
        return popped[0], DOWN, popped[1]
    v1, d1, stream1 = _ref_expr_flag(e.left, store, DOWN, stream)
    v2, d2, stream2 = _ref_expr_flag(e.right, store, d1, stream1)
    if not isinstance(d2, Down):
        return NULL, d2, stream2
    try:
        return ref_apply_bop(e.op, v1, v2), DOWN, stream2
    except ExprStuck as ex:
        raise _RefStuck(ex.reason) from None


def ref_eval_expr_flag(e, store, flag, stream):
    try:
        v, status, sm = _ref_expr_flag(e, store, flag, stream)
    except _RefStuck as ex:
        return Stuck(ex.reason)
    return FlagResult(status, EMPTY_STORE, v, sm)


# --- the corpus -------------------------------------------------------------------

# Naturals on both sides of `_SMALL`, whose sums, differences and products
# cross it, and one far past any machine word.
VALUES = [Nat(0), Nat(1), Nat(2), Nat(7), Nat(45), Nat(_SMALL - 1), Nat(_SMALL), Nat(_SMALL + 1), Nat(3**90), NULL, ANY_NAT]
STORE = Store({"z": Nat(0), "o": Nat(1), "t": Nat(3), "h": Nat(_SMALL // 2), "n": NULL, "a": ANY_NAT})
NAMES = sorted(STORE.domain()) + ["unbound"]
STATUSES = [DOWN, UP, Exc(Nat(4), STORE)]


def _expr(rng: random.Random, depth: int):
    pick = rng.random()
    if depth == 0 or pick < 0.3:
        return Var(rng.choice(NAMES))
    if pick < 0.5:
        return Lit(rng.choice(VALUES))
    if pick < 0.6:
        return Input()
    return Bop(rng.choice(BOPS), _expr(rng, depth - 1), _expr(rng, depth - 1))


def _stream(rng: random.Random) -> InputStream:
    values = tuple(rng.choice(VALUES) for _ in range(rng.randrange(4)))
    return InputStream(values, rng.randrange(len(values) + 1))


def _corpus(n: int = 1500, seed: int = 8):
    rng = random.Random(seed)
    return [(_expr(rng, rng.randrange(5)), _stream(rng)) for _ in range(n)]


def _outcome(f, *args):
    """What `f` returns, or the reason it is stuck."""
    try:
        return "value", f(*args)
    except ExprStuck as ex:
        return "stuck", ex.reason


def test_the_corpus_reaches_every_case():
    outcomes = [_outcome(eval_expr, e, STORE, s) for e, s in _corpus()]
    reasons = {r.split()[0] for kind, r in outcomes if kind == "stuck"}
    values = {type(r[0]) for kind, r in outcomes if kind == "value"}
    assert reasons == {"unbound", "input", "null"}
    assert values == {Nat, Null, AnyNat}
    nats = {r[0].n for kind, r in outcomes if kind == "value" and type(r[0]) is Nat}
    assert {0, _SMALL - 1, _SMALL, _SMALL + 1} <= nats
    assert any(n < _SMALL for n in nats - {0, 1, 2, 3, 7, 45, _SMALL - 1})
    assert any(_SMALL + 1 < n < 2**64 for n in nats) and any(n > 3**90 for n in nats)


def test_eval_expr_matches_the_reference():
    for e, s in _corpus():
        got, want = _outcome(eval_expr, e, STORE, s), _outcome(ref_eval_expr, e, STORE, s)
        assert got == want, e
        if got[0] == "value":
            assert type(got[1][0]) is type(want[1][0])
            assert _outcome(guard_nonzero, got[1][0]) == _outcome(ref_guard_nonzero, want[1][0])


def test_the_explicit_stack_matches_the_reference():
    for e, s in _corpus():
        assert _outcome(_eval_nested, e, STORE, s) == _outcome(ref_eval_expr, e, STORE, s), e


@pytest.mark.parametrize("depth", [_NESTING - 1, _NESTING, _NESTING + 1, 3 * _NESTING])
def test_operands_nested_past_the_recursion_depth_match_the_reference(depth):
    """Past `_NESTING` levels operands go to the explicit stack; values,
    streams and stuck reasons must not change at the hand-over."""
    rng = random.Random(depth)
    bound = [Var("z"), Var("o"), Var("t"), Var("a"), Lit(Nat(2)), Lit(ANY_NAT)]
    any_leaf = bound + [Var("n"), Var("unbound"), Lit(NULL)]
    seen = set()
    for i in range(200):
        leaves = bound if i % 2 else any_leaf
        e = rng.choice(leaves)
        for _ in range(depth):
            leaf = Input() if rng.random() < 0.1 else rng.choice(leaves)
            e = Bop(rng.choice(BOPS), e, leaf) if rng.random() < 0.5 else Bop(rng.choice(BOPS), leaf, e)
        s = InputStream.of(*(rng.randrange(4) for _ in range(rng.randrange(depth // 5 + 2))))
        want = _outcome(ref_eval_expr, e, STORE, s)
        for _tier in range(3):
            got = _outcome(eval_expr, e, STORE, s)
            assert got == want
        seen.add(got[0] if got[0] == "value" else got[1].split()[0])
    assert {"value", "unbound", "input"} <= seen


@pytest.mark.parametrize("flag", STATUSES, ids=["down", "up", "exc"])
def test_eval_expr_flag_matches_the_reference(flag):
    for e, s in _corpus():
        assert eval_expr_flag(e, STORE, flag, s) == ref_eval_expr_flag(e, STORE, flag, s), e


def test_apply_bop_and_guard_match_the_reference():
    for op in BOPS:
        for a in VALUES:
            for b in VALUES:
                got, want = _outcome(apply_bop, op, a, b), _outcome(ref_apply_bop, op, a, b)
                assert got == want and type(got[1]) is type(want[1]), (op, a, b)
    for v in VALUES:
        assert _outcome(guard_nonzero, v) == _outcome(ref_guard_nonzero, v)


def test_arithmetic_results_are_ordinary_naturals():
    # results are built without re-running Nat's check; they must still be
    # frozen Nats that compare and hash like checked ones
    for op, want in [("+", 9), ("-", 0), ("*", 14)]:
        (v, _) = eval_expr(Bop(op, Lit(Nat(2)), Lit(Nat(7))), EMPTY_STORE, InputStream())
        assert type(v) is Nat and v == Nat(want) and hash(v) == hash(Nat(want)) and repr(v) == f"Nat({want})"
        with pytest.raises(AttributeError):
            v.n = 3
    with pytest.raises(ValueError):
        Nat(-1)


# --- the shared naturals ----------------------------------------------------------

# (op, m, n, m op n): results and operands at `_SMALL - 1`, `_SMALL` and
# `_SMALL + 1`, monus down to 0, products on both sides of `_SMALL`, and
# large integers.
BOUNDARY = [
    ("+", _SMALL - 2, 1, _SMALL - 1),
    ("+", _SMALL - 1, 1, _SMALL),
    ("+", _SMALL, 1, _SMALL + 1),
    ("+", _SMALL - 1, 0, _SMALL - 1),
    ("+", 0, _SMALL, _SMALL),
    ("-", _SMALL + 1, 1, _SMALL),
    ("-", _SMALL, 1, _SMALL - 1),
    ("-", _SMALL + 1, 2, _SMALL - 1),
    ("-", 5, 5, 0),
    ("-", 1, 2, 0),
    ("-", 3, _SMALL + 1, 0),
    ("-", _SMALL + 1, _SMALL + 1, 0),
    ("-", 0, 0, 0),
    ("*", _SMALL // 2 - 1, 2, _SMALL - 2),
    ("*", _SMALL // 2, 2, _SMALL),
    ("*", _SMALL // 2 + 1, 2, _SMALL + 2),
    ("*", _SMALL - 1, 1, _SMALL - 1),
    ("*", _SMALL + 1, 0, 0),
    ("*", _SMALL + 1, _SMALL + 1, (_SMALL + 1) ** 2),
    ("+", 2**64, 1, 2**64 + 1),
    ("-", 10**40, 10**40 - 5, 5),
    ("-", 10**40, 10**41, 0),
    ("*", 3**90, 3**90, 3**180),
]


def _three_paths(op, m, n):
    """`m op n` through `apply_bop`, `eval_expr` on a literal and a variable
    operand, and the explicit stack."""
    e = Bop(op, Lit(Nat(m)), Var("v"))
    store = Store({"v": Nat(n)})
    return [apply_bop(op, Nat(m), Nat(n)), eval_expr(e, store, InputStream())[0], _eval_nested(e, store, InputStream())[0]]


def test_the_table_holds_each_small_natural_once():
    assert len(_NATS) == _SMALL and len(set(map(id, _NATS))) == _SMALL
    assert all(type(v) is Nat and v.n == i for i, v in enumerate(_NATS))


@pytest.mark.parametrize("op, m, n, want", BOUNDARY)
def test_arithmetic_at_the_table_edge(op, m, n, want):
    assert want == ref_apply_bop(op, Nat(m), Nat(n)).n
    for v in _three_paths(op, m, n):
        assert type(v) is Nat and v.n == want
        if want < _SMALL:
            assert v is _NATS[want]


@pytest.mark.parametrize("op, m, n, want", BOUNDARY)
def test_every_result_is_an_ordinary_natural(op, m, n, want):
    fresh = Nat(want)
    for v in _three_paths(op, m, n):
        assert v == fresh and fresh == v and hash(v) == hash(fresh) and repr(v) == repr(fresh)
        for back in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert type(back) is Nat and back == fresh and hash(back) == hash(fresh)
        with pytest.raises(FrozenInstanceError):
            v.n = want + 1
        with pytest.raises(FrozenInstanceError):
            del v.n
        assert v.n == want
    assert _NATS[min(want, _SMALL - 1)].n == min(want, _SMALL - 1)  # the table is untouched


def test_null_and_indeterminate_operands_take_apply_bop(monkeypatch):
    """Naturals on both sides skip `apply_bop`; any other operand goes
    through it, and keeps its result and stuck reason."""
    calls = []

    def spy(op, a, b):
        calls.append((op, a, b))
        return apply_bop(op, a, b)

    monkeypatch.setattr(small_step, "apply_bop", spy)
    h = Nat(_SMALL // 2)
    for evaluate in (eval_expr, _eval_nested):
        calls.clear()
        assert evaluate(Bop("*", Var("h"), Lit(Nat(2))), STORE, InputStream())[0] == Nat(_SMALL)
        assert calls == []
        assert evaluate(Bop("+", Var("h"), Var("a")), STORE, InputStream())[0] is ANY_NAT
        assert evaluate(Bop("-", Lit(ANY_NAT), Var("h")), STORE, InputStream())[0] is ANY_NAT
        for e, op in [(Bop("+", Var("h"), Var("n")), "+"), (Bop("*", Var("a"), Lit(NULL)), "*")]:
            with pytest.raises(ExprStuck, match=f"^null operand in \\{op}$"):
                evaluate(e, STORE, InputStream())
        assert calls == [("+", h, ANY_NAT), ("-", ANY_NAT, h), ("+", h, NULL), ("*", ANY_NAT, NULL)]


# --- the compiled tier ------------------------------------------------------------

# Each expression is interpreted on its first evaluation, compiled on its
# second, and runs its closure from then on; every tier must agree with the
# reference.
TIERS = ("cold", "compiling", "compiled")


def _compiled(e) -> bool:
    return callable(e._code)


def _compilable(e) -> bool:
    """Variables and literals are read in place, never compiled alone."""
    return type(e) not in (Var, Lit)


def _each_tier(e, store, stream):
    """The outcome of `eval_expr` on `e` in each tier, checked against the
    reference: value, value type, stream and stuck reason."""
    want = _outcome(ref_eval_expr, e, store, stream)
    for tier in TIERS:
        got = _outcome(eval_expr, e, store, stream)
        assert got == want, (tier, e)
        if got[0] == "value":
            assert type(got[1][0]) is type(want[1][0]), (tier, e)
    return want


def test_every_corpus_expression_matches_the_reference_in_each_tier():
    corpus = _corpus()
    assert not any(_compiled(e) for e, _ in corpus)
    for e, s in corpus:
        _each_tier(e, STORE, s)
    assert all(_compiled(e) is _compilable(e) for e, _ in corpus)
    assert sum(map(_compilable, (e for e, _ in corpus))) > len(corpus) // 3


# Every kind of operand, on either side of every operator: variables bound to
# each kind of value and an unbound one, each kind of literal, an input, and
# sub-expressions; each with the letter of its kind in a compiled shape.
KIND_STORE = Store({"z": Nat(0), "b": Nat(_SMALL - 1), "c": Nat(_SMALL), "d": Nat(_SMALL + 1), "n": NULL, "a": ANY_NAT})
OPERANDS = {
    "variable-0": ("v", lambda: Var("z")),
    "variable-small-1": ("v", lambda: Var("b")),
    "variable-small": ("v", lambda: Var("c")),
    "variable-small+1": ("v", lambda: Var("d")),
    "variable-null": ("v", lambda: Var("n")),
    "variable-any": ("v", lambda: Var("a")),
    "unbound": ("v", lambda: Var("unbound")),
    "null": ("s", lambda: Lit(NULL)),
    "any": ("s", lambda: Lit(ANY_NAT)),
    "small-1": ("n", lambda: Lit(Nat(_SMALL - 1))),
    "small": ("n", lambda: Lit(Nat(_SMALL))),
    "small+1": ("n", lambda: Lit(Nat(_SMALL + 1))),
    "input": ("s", Input),
    "sub-natural": ("s", lambda: Bop("*", Var("b"), Lit(Nat(2)))),
    "sub-input": ("s", lambda: Bop("-", Input(), Var("b"))),
    "sub-any": ("s", lambda: Bop("+", Lit(Nat(1)), Var("a"))),
}
KIND_STREAMS = [InputStream(), InputStream.of(_SMALL), InputStream.of(3, _SMALL + 1), InputStream((ANY_NAT, NULL, Nat(0)), 0)]


@pytest.mark.parametrize("op", BOPS)
@pytest.mark.parametrize("left", OPERANDS)
def test_every_operator_on_every_operand_kind_in_each_tier(op, left):
    left_kind, make_left = OPERANDS[left]
    for right_kind, make_right in OPERANDS.values():
        for s in KIND_STREAMS:
            e = Bop(op, make_left(), make_right())
            _each_tier(e, KIND_STORE, s)
            assert _compiled(e) and op + left_kind + right_kind in small_step._FACTORIES


def test_no_factory_is_made_at_import():
    script = "import sys; sys.path.insert(0, sys.argv[1]); import whilesem.cli, whilesem.small_step as s; print(len(s._FACTORIES))"
    src = str(Path(small_step.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-B", "-c", script, src], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def test_an_operand_compiled_first_is_shared_by_its_parents():
    inner = Bop("+", Var("t"), Input())
    for _tier in TIERS:
        eval_expr(inner, STORE, InputStream.of(1))
    code = inner._code
    outer = Bop("*", inner, Bop("-", Lit(Nat(9)), inner))
    assert _each_tier(outer, STORE, InputStream.of(1, 2)) == ("value", (Nat(16), InputStream(InputStream.of(1, 2).values, 2)))
    assert inner._code is code and _compiled(outer) and _compiled(outer.right)


def test_expressions_deeper_than_the_nesting_limit_stay_interpreted():
    def chain(depth, leaf):
        e = Var("t")
        for _ in range(depth):
            e = Bop("+", e, leaf())
        return e

    for depth, leaf, compiled in [
        (_NESTING, lambda: Lit(Nat(1)), True),
        (_NESTING + 1, lambda: Lit(Nat(1)), False),
        (_NESTING - 1, Input, True),
        (_NESTING, Input, False),
    ]:
        e = chain(depth, leaf)
        _each_tier(e, STORE, InputStream.of(*range(depth)))
        assert _compiled(e) is compiled, (depth, compiled)


def test_a_deep_expression_over_compiled_operands_at_the_default_recursion_limit():
    """Build a 10^4-deep expression level by level, evaluating each of the
    first `3 * _NESTING` levels in every tier, so its lower part is made of
    compiled closures and deep marks; then evaluate the whole."""
    assert sys.getrecursionlimit() <= 1000
    rng = random.Random(4)
    e, value = Var("t"), 3
    for level in range(10**4):
        op, k, leaf_left = rng.choice(BOPS), rng.randrange(3), rng.random() < 0.5
        e = Bop(op, Lit(Nat(k)), e) if leaf_left else Bop(op, e, Lit(Nat(k)))
        m, n = (k, value) if leaf_left else (value, k)
        value = m + n if op == "+" else max(m - n, 0) if op == "-" else m * n
        if level < 3 * _NESTING:
            for _tier in TIERS:
                assert eval_expr(e, STORE, InputStream())[0] == Nat(value)
            assert _compiled(e) is (level < _NESTING), level
    assert not _compiled(e)
    for _tier in TIERS:
        assert eval_expr(e, STORE, InputStream()) == (Nat(value), InputStream())


def test_a_compiled_term_is_an_ordinary_term():
    e = Bop("+", Var("t"), Bop("*", Input(), Lit(Nat(2))))
    fresh = Bop("+", Var("t"), Bop("*", Input(), Lit(Nat(2))))
    for _tier in TIERS:
        eval_expr(e, STORE, InputStream.of(4))
    assert _compiled(e) and _compiled(e.right) and fresh._code is None
    assert e == fresh and fresh == e and hash(e) == hash(fresh) and repr(e) == repr(fresh)
    assert Bop.__match_args__ == ("op", "left", "right") and Var.__match_args__ == ("name",)
    match e:
        case Bop("+", Var(name), Bop(op, Input(), Lit(v))):
            assert (name, op, v) == ("t", "*", Nat(2))
        case _:
            raise AssertionError(e)
    for back in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert type(back) is Bop and back == e and hash(back) == hash(e) and repr(back) == repr(e)
    assert pickle.loads(pickle.dumps(e))._code is None
    for name in ("op", "left", "_code"):
        with pytest.raises(FrozenInstanceError):
            setattr(e, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(e, name)
    assert eval_expr(e, STORE, InputStream.of(4))[0] == Nat(11)


def test_a_dropped_compiled_program_leaves_no_garbage():
    """No closure refers to its own term, so reference counting alone frees
    a compiled program."""
    from whilesem.harness import compare_all
    from whilesem.parser import parse_cmd

    text = "alloc x; alloc y; x := 40; y := 1; while x { y := y + x * (2 - input); if y - 7 { x := x - 1 } else { x := 0 } }"
    compare_all(parse_cmd(text), fuel=10_000)  # makes the factories this program needs
    gc.collect()
    gc.disable()
    try:
        program = parse_cmd(text)
        compare_all(program, fuel=10_000)
        assert _compiled(program.second.second.second.second.body.first.expr)
        del program
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_compiled_closures_reach_apply_bop_through_the_module(monkeypatch):
    """Like `test_null_and_indeterminate_operands_take_apply_bop`, with each
    expression compiled before it is watched."""
    terms = [Bop("*", Var("h"), Lit(Nat(2))), Bop("+", Var("h"), Var("a")), Bop("-", Lit(ANY_NAT), Var("h")), Bop("*", Var("a"), Lit(NULL))]
    for e in terms:
        for _tier in TIERS[:2]:
            _outcome(eval_expr, e, STORE, InputStream())
    calls = []

    def spy(op, a, b):
        calls.append((op, a, b))
        return apply_bop(op, a, b)

    monkeypatch.setattr(small_step, "apply_bop", spy)
    assert eval_expr(terms[0], STORE, InputStream())[0] == Nat(_SMALL) and calls == []
    assert eval_expr(terms[1], STORE, InputStream())[0] is ANY_NAT
    assert eval_expr(terms[2], STORE, InputStream())[0] is ANY_NAT
    with pytest.raises(ExprStuck, match="^null operand in \\*$"):
        eval_expr(terms[3], STORE, InputStream())
    assert all(map(_compiled, terms))
    h = Nat(_SMALL // 2)
    assert calls == [("+", h, ANY_NAT), ("-", ANY_NAT, h), ("*", ANY_NAT, NULL)]
