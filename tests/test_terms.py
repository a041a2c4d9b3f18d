"""The term contract: what every class built by `syntax.term_class` keeps
of the frozen dataclasses it replaced, and what it adds."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import whilesem
from whilesem import big_step, cli, coinduction, derivation, flag_based, harness, parser, pretty_big
from whilesem import rule_dsl, small_step, syntax
from whilesem.small_step import SmallConfig
from whilesem.syntax import (
    ANY_NAT,
    DIV,
    EMPTY_STORE,
    NULL,
    Alloc,
    AnyNat,
    Assign,
    Assign2,
    Bop,
    Catch,
    ConvO,
    Converged,
    DivO,
    Down,
    Exc,
    ExceptionV,
    If,
    If2,
    Input,
    InputStream,
    Lit,
    Nat,
    Null,
    Plain,
    Seq,
    Seq2,
    Skip,
    Store,
    Stuck,
    Throw,
    Unknown,
    Up,
    Var,
    While,
    While2,
    While3,
)


def samples() -> list:
    """One term of every term class, with nested and store fields."""
    x, one, st = Var("x"), Lit(Nat(1)), Store({"x": Nat(1), "y": NULL})
    return [
        Nat(3), Null(), AnyNat(), one, x, Bop("+", x, one), Input(),
        Skip(), Alloc("x"), Assign("x", Input()), Seq(Skip(), Alloc("x")),
        If(x, Skip(), Throw(Nat(2))), While(x, Skip()), Throw(NULL), Catch(Skip(), Skip()),
        Down(), Up(), Exc(Nat(1), st), ConvO(st), DivO(),
        Plain(Skip()), Assign2("x", ANY_NAT), Seq2(DIV, Skip()), If2(Nat(0), Skip(), Skip()),
        While2(Nat(1), x, Skip()), While3(ConvO(EMPTY_STORE), x, Skip()),
        Converged(st), ExceptionV(Nat(1), EMPTY_STORE), Stuck("no rule"), Unknown(5),
        SmallConfig(Skip(), st), SmallConfig(Skip(), EMPTY_STORE, InputStream.of(1, None)),
    ]


# The reprs of `samples()` when these classes were frozen dataclasses.
PINNED_REPRS = [
    "Nat(3)",
    "Null",
    "AnyNat",
    "Lit(value=Nat(1))",
    "Var(name='x')",
    "Bop(op='+', left=Var(name='x'), right=Lit(value=Nat(1)))",
    "Input()",
    "Skip()",
    "Alloc(x='x')",
    "Assign(x='x', expr=Input())",
    "Seq(first=Skip(), second=Alloc(x='x'))",
    "If(guard=Var(name='x'), then=Skip(), orelse=Throw(value=Nat(2)))",
    "While(guard=Var(name='x'), body=Skip())",
    "Throw(value=Null)",
    "Catch(body=Skip(), handler=Skip())",
    "Down",
    "Up",
    "Exc(value=Nat(1), at=Store({'x': Nat(1), 'y': Null}))",
    "ConvO(store=Store({'x': Nat(1), 'y': Null}))",
    "DivO",
    "Plain(cmd=Skip())",
    "Assign2(x='x', value=AnyNat)",
    "Seq2(outcome=DivO, rest=Skip())",
    "If2(value=Nat(0), then=Skip(), orelse=Skip())",
    "While2(value=Nat(1), guard=Var(name='x'), body=Skip())",
    "While3(outcome=ConvO(store=Store({})), guard=Var(name='x'), body=Skip())",
    "Converged(store=Store({'x': Nat(1), 'y': Null}))",
    "ExceptionV(value=Nat(1), at=Store({}))",
    "Stuck(reason='no rule')",
    "Unknown(fuel_spent=5)",
    "SmallConfig(cmd=Skip(), store=Store({'x': Nat(1), 'y': Null}), stream=InputStream(values=(), cursor=0))",
    "SmallConfig(cmd=Skip(), store=Store({}), stream=InputStream(values=(Nat(1), Null), cursor=0))",
]

SAMPLES = samples()
IDS = [type(t).__name__ for t in SAMPLES]


def _fields(t) -> tuple:
    return tuple(inspect.signature(type(t)).parameters)


def _rebuilt(t):
    return type(t)(*(getattr(t, f) for f in _fields(t)))


def test_samples_cover_every_term_class():
    modules = (syntax, small_step, big_step, pretty_big, flag_based, coinduction, harness,
               derivation, parser, rule_dsl, cli)
    built = {
        cls
        for m in modules
        for cls in vars(m).values()
        if isinstance(cls, type) and cls.__setattr__ is syntax._frozen_set
    }
    assert built == {type(t) for t in SAMPLES}


@pytest.mark.parametrize("t, shown", zip(SAMPLES, PINNED_REPRS), ids=IDS)
def test_repr_is_unchanged(t, shown):
    assert repr(t) == shown


@pytest.mark.parametrize("t", SAMPLES, ids=IDS)
def test_match_args_are_the_fields(t):
    assert type(t).__match_args__ == _fields(t)
    assert not dataclasses.is_dataclass(t)


@pytest.mark.parametrize("t", SAMPLES, ids=IDS)
def test_equal_fields_give_equal_terms_and_hashes(t):
    for other in (_rebuilt(t), samples()[SAMPLES.index(t)]):
        assert other is not t
        assert other == t and not other != t
        assert hash(other) == hash(t)
    assert len({t, _rebuilt(t)}) == 1


@pytest.mark.parametrize(
    "a, b",
    [
        (Seq(Skip(), Skip()), Catch(Skip(), Skip())),
        (ConvO(EMPTY_STORE), Converged(EMPTY_STORE)),
        (Down(), Up()),
        (Nat(0), Unknown(0)),
    ],
)
def test_classes_with_the_same_fields_are_unequal(a, b):
    assert a != b and b != a
    assert not a == b
    assert len({a, b}) == 2


@pytest.mark.parametrize("t", SAMPLES, ids=IDS)
def test_terms_are_frozen(t):
    for name in _fields(t) + ("fresh",):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(t, name)
    assert repr(t) == PINNED_REPRS[SAMPLES.index(t)]


@pytest.mark.parametrize("t", SAMPLES, ids=IDS)
def test_copy_and_pickle_round_trip(t):
    for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert type(other) is type(t)
        assert other == t and hash(other) == hash(t)
        assert repr(other) == repr(t)


def test_nat_still_validates():
    with pytest.raises(ValueError):
        Nat(-1)
    with pytest.raises(ValueError):
        Bop("/", Var("x"), Var("y"))


def test_hashes_are_cached_per_node():
    """A spine built and hashed node by node hashes at any depth: each new
    node hashes its own fields, and its children's hashes are cached."""
    c = Skip()
    for _ in range(10 * sys.getrecursionlimit()):
        c = Seq(Assign("x", Lit(Nat(1))), c)
        hash(c)
    assert hash(c) == hash(c) and c in {c}


def test_reimport_releases_the_previous_modules():
    """Dropping `whilesem` from `sys.modules` and importing it again leaves
    nothing of the first import alive: no cache outside the package, such
    as `typing`'s for `Union[...]`, holds its classes."""
    code = textwrap.dedent(
        """
        import gc, sys, weakref
        import whilesem
        ref = weakref.ref(whilesem.syntax.Store)
        for name in [n for n in sys.modules if n == "whilesem" or n.startswith("whilesem.")]:
            del sys.modules[name]
        import whilesem
        gc.collect()
        assert whilesem.syntax.Store is not ref()
        sys.exit(0 if ref() is None else 1)
        """
    )
    src = str(Path(whilesem.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, "the first import of whilesem is still alive"
