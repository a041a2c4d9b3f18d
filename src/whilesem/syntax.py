"""Abstract syntax, stores, input streams, statuses, outcomes, and verdicts.

Everything in this module is an immutable value: safe to hash, share, and use
as a dict key.  Stores compare extensionally (insertion order never matters)
and iterate in sorted key order so printed output and golden files stay
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Union

# ---------------------------------------------------------------------------
# Values


@dataclass(frozen=True)
class Nat:
    """A natural number value."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"Nat payload must be non-negative, got {self.n}")

    def __repr__(self) -> str:
        return f"Nat({self.n})"


@dataclass(frozen=True)
class Null:
    """The value of uninitialised locations."""

    def __repr__(self) -> str:
        return "Null"


@dataclass(frozen=True)
class AnyNat:
    """Abstract stand-in for an arbitrary natural number.

    Source programs never contain it and the generator never produces it;
    divergence certificates use it to label store entries whose exact value
    does not matter.  Arithmetic on it stays abstract and guards cannot
    branch on it (evaluation treats an indeterminate guard as stuck).
    """

    def __repr__(self) -> str:
        return "AnyNat"


Val = Union[Nat, Null, AnyNat]

NULL = Null()
ANY_NAT = AnyNat()


def nat(n: int) -> Nat:
    return Nat(n)


def format_val(v: Val) -> str:
    if isinstance(v, Nat):
        return str(v.n)
    if isinstance(v, Null):
        return "null"
    return "*"


def val_to_json(v: Val) -> object:
    if isinstance(v, Nat):
        return v.n
    if isinstance(v, Null):
        return None
    return "*"


def val_from_json(data: object) -> Val:
    if data is None:
        return NULL
    if data == "*":
        return ANY_NAT
    if isinstance(data, int) and not isinstance(data, bool):
        return Nat(data)
    raise ValueError(f"not a value: {data!r}")


# ---------------------------------------------------------------------------
# Expressions

BOPS = ("+", "-", "*")


@dataclass(frozen=True)
class Lit:
    value: Val


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Bop:
    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in BOPS:
            raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class Input:
    """Reads the next value from the input stream."""


Expr = Union[Lit, Var, Bop, Input]


# ---------------------------------------------------------------------------
# Commands


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Alloc:
    x: str


@dataclass(frozen=True)
class Assign:
    x: str
    expr: Expr


@dataclass(frozen=True)
class Seq:
    first: "Cmd"
    second: "Cmd"


@dataclass(frozen=True)
class If:
    guard: Expr
    then: "Cmd"
    orelse: "Cmd"


@dataclass(frozen=True)
class While:
    guard: Expr
    body: "Cmd"


@dataclass(frozen=True)
class Throw:
    value: Val


@dataclass(frozen=True)
class Catch:
    body: "Cmd"
    handler: "Cmd"


Cmd = Union[Skip, Alloc, Assign, Seq, If, While, Throw, Catch]


def expr_vars(e: Expr) -> frozenset[str]:
    """All variable names read by `e`."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Bop):
        return expr_vars(e.left) | expr_vars(e.right)
    return frozenset()


def expr_has_input(e: Expr) -> bool:
    if isinstance(e, Input):
        return True
    if isinstance(e, Bop):
        return expr_has_input(e.left) or expr_has_input(e.right)
    return False


def guard_exprs(c: Cmd) -> Iterator[Expr]:
    """Every if/while guard expression occurring anywhere in `c`."""
    if isinstance(c, Seq):
        yield from guard_exprs(c.first)
        yield from guard_exprs(c.second)
    elif isinstance(c, If):
        yield c.guard
        yield from guard_exprs(c.then)
        yield from guard_exprs(c.orelse)
    elif isinstance(c, While):
        yield c.guard
        yield from guard_exprs(c.body)
    elif isinstance(c, Catch):
        yield from guard_exprs(c.body)
        yield from guard_exprs(c.handler)


def cmd_exprs(c: Cmd) -> Iterator[Expr]:
    """Every expression occurring anywhere in `c`."""
    if isinstance(c, Assign):
        yield c.expr
    elif isinstance(c, Seq):
        yield from cmd_exprs(c.first)
        yield from cmd_exprs(c.second)
    elif isinstance(c, If):
        yield c.guard
        yield from cmd_exprs(c.then)
        yield from cmd_exprs(c.orelse)
    elif isinstance(c, While):
        yield c.guard
        yield from cmd_exprs(c.body)
    elif isinstance(c, Catch):
        yield from cmd_exprs(c.body)
        yield from cmd_exprs(c.handler)


def cmd_has_input(c: Cmd) -> bool:
    return any(expr_has_input(e) for e in cmd_exprs(c))


def cmd_has_exceptions(c: Cmd) -> bool:
    """True if `c` contains throw or try/catch anywhere."""
    if isinstance(c, (Throw, Catch)):
        return True
    if isinstance(c, Seq):
        return cmd_has_exceptions(c.first) or cmd_has_exceptions(c.second)
    if isinstance(c, If):
        return cmd_has_exceptions(c.then) or cmd_has_exceptions(c.orelse)
    if isinstance(c, While):
        return cmd_has_exceptions(c.body)
    return False


# ---------------------------------------------------------------------------
# Stores


class Store:
    """A finite map from variable names to values.

    Immutable.  Equality and hashing are extensional, so two stores built by
    different update orders compare and hash identically.  `update` copies
    the map and writes one key, without sorting.  The sorted order is worked
    out lazily, the first time a store is iterated, listed with `items()` or
    printed, and cached; every view of a store is in sorted name order, so
    printed output and golden files stay deterministic.
    """

    __slots__ = ("_map", "_items", "_hash")

    def __init__(self, bindings: Union[Mapping[str, Val], Iterable[tuple[str, Val]]] = ()):
        self._map = dict(bindings)
        self._items = None
        self._hash = None

    def get(self, x: str) -> Optional[Val]:
        return self._map.get(x)

    def __contains__(self, x: str) -> bool:
        return x in self._map

    def __iter__(self) -> Iterator[str]:
        return iter(name for name, _ in self.items())

    def __len__(self) -> int:
        return len(self._map)

    def items(self) -> tuple[tuple[str, Val], ...]:
        if self._items is None:
            self._items = tuple(sorted(self._map.items(), key=lambda kv: kv[0]))
        return self._items

    def domain(self) -> frozenset[str]:
        return frozenset(self._map)

    def update(self, x: str, v: Val) -> "Store":
        m = self._map.copy()
        m[x] = v
        new = Store.__new__(Store)  # `m` is already a private copy
        new._map, new._items, new._hash = m, None, None
        return new

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Store):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._map.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"Store({dict(self.items())!r})"


EMPTY_STORE = Store()


def format_store(store: Store) -> str:
    inner = ", ".join(f"{x}↦{format_val(v)}" for x, v in store.items())
    return "{" + inner + "}"


def store_to_json(store: Store) -> dict:
    return {x: val_to_json(v) for x, v in store.items()}


def store_from_json(data: dict) -> Store:
    if not isinstance(data, dict):
        raise ValueError(f"not a store: {data!r}")
    return Store({x: val_from_json(v) for x, v in data.items()})


# ---------------------------------------------------------------------------
# Input streams


@dataclass(frozen=True)
class InputStream:
    """An ordered, finite supply of input values with a read cursor.

    Immutable: `pop` returns the value plus the advanced stream, or None when
    the supply is exhausted (which evaluation treats as stuck).
    """

    values: tuple[Val, ...] = ()
    cursor: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.cursor <= len(self.values)):
            raise ValueError(f"cursor {self.cursor} out of range")

    @classmethod
    def of(cls, *items: Optional[int]) -> "InputStream":
        """Build a stream from ints (None means null)."""
        return cls(tuple(NULL if i is None else Nat(i) for i in items))

    def pop(self) -> Optional[tuple[Val, "InputStream"]]:
        if self.cursor >= len(self.values):
            return None
        return self.values[self.cursor], InputStream(self.values, self.cursor + 1)

    def exhausted(self) -> bool:
        return self.cursor >= len(self.values)

    def remaining(self) -> tuple[Val, ...]:
        return self.values[self.cursor:]


EMPTY_STREAM = InputStream()


def stream_to_json(s: InputStream) -> dict:
    return {"values": [val_to_json(v) for v in s.values], "cursor": s.cursor}


def stream_from_json(data: dict) -> InputStream:
    if not (
        isinstance(data, dict)
        and isinstance(data.get("values"), list)
        and type(data.get("cursor")) is int
    ):
        raise ValueError(f"not a stream: {data!r}")
    return InputStream(tuple(val_from_json(v) for v in data["values"]), data["cursor"])


# ---------------------------------------------------------------------------
# Statuses (flag-based evaluation)


@dataclass(frozen=True)
class Down:
    """Normal control flow."""

    def __repr__(self) -> str:
        return "Down"


@dataclass(frozen=True)
class Up:
    """Divergence marker: the computation never finishes."""

    def __repr__(self) -> str:
        return "Up"


@dataclass(frozen=True)
class Exc:
    """An uncaught exception carrying the thrown value and the store at the
    point of the throw (the handler resumes from that store)."""

    value: Val
    at: Store


Status = Union[Down, Up, Exc]

DOWN = Down()
UP = Up()


def format_status(s: Status) -> str:
    if isinstance(s, Down):
        return "⇓"
    if isinstance(s, Up):
        return "⇑"
    return f"exc({format_val(s.value)}, {format_store(s.at)})"


def status_to_json(s: Status) -> object:
    if isinstance(s, Down):
        return "down"
    if isinstance(s, Up):
        return "up"
    return {"exc": {"value": val_to_json(s.value), "at": store_to_json(s.at)}}


def status_from_json(data: object) -> Status:
    if data == "down":
        return DOWN
    if data == "up":
        return UP
    if isinstance(data, Mapping) and "exc" in data:
        inner = data["exc"]
        return Exc(val_from_json(inner["value"]), store_from_json(inner["at"]))
    raise ValueError(f"not a status: {data!r}")


# ---------------------------------------------------------------------------
# Outcomes (pretty-big-step)


@dataclass(frozen=True)
class ConvO:
    """Converged with a final store."""

    store: Store


@dataclass(frozen=True)
class DivO:
    """Diverged."""

    def __repr__(self) -> str:
        return "DivO"


Outcome = Union[ConvO, DivO]

DIV = DivO()


def format_outcome(o: Outcome) -> str:
    if isinstance(o, ConvO):
        return f"conv {format_store(o.store)}"
    return "div"


def outcome_to_json(o: Outcome) -> object:
    if isinstance(o, ConvO):
        return {"conv": store_to_json(o.store)}
    return "div"


def outcome_from_json(data: object) -> Outcome:
    if data == "div":
        return DIV
    if isinstance(data, Mapping) and "conv" in data:
        return ConvO(store_from_json(data["conv"]))
    raise ValueError(f"not an outcome: {data!r}")


# ---------------------------------------------------------------------------
# Semantic commands (pretty-big-step intermediate forms)


@dataclass(frozen=True)
class Plain:
    cmd: Cmd


@dataclass(frozen=True)
class Assign2:
    x: str
    value: Val


@dataclass(frozen=True)
class Seq2:
    outcome: Outcome
    rest: Cmd


@dataclass(frozen=True)
class If2:
    value: Val
    then: Cmd
    orelse: Cmd


@dataclass(frozen=True)
class While2:
    value: Val
    guard: Expr
    body: Cmd


@dataclass(frozen=True)
class While3:
    outcome: Outcome
    guard: Expr
    body: Cmd


SemCmd = Union[Plain, Assign2, Seq2, If2, While2, While3]


# ---------------------------------------------------------------------------
# Verdicts (normalized results of running a program)


@dataclass(frozen=True)
class Converged:
    store: Store


@dataclass(frozen=True)
class ExceptionV:
    value: Val
    at: Store


@dataclass(frozen=True)
class Stuck:
    """No rule applies; also what the three big-step evaluators return."""

    reason: str


@dataclass(frozen=True)
class DivergesProven:
    """Divergence established by a certificate that the checker accepts."""

    certificate: object = field(compare=False)


@dataclass(frozen=True)
class Unknown:
    fuel_spent: int


Verdict = Union[Converged, ExceptionV, Stuck, DivergesProven, Unknown]


def format_verdict(v: Verdict) -> str:
    if isinstance(v, Converged):
        return f"Converged {format_store(v.store)}"
    if isinstance(v, ExceptionV):
        return f"Exception {format_val(v.value)} at {format_store(v.at)}"
    if isinstance(v, Stuck):
        return f"Stuck: {v.reason}"
    if isinstance(v, DivergesProven):
        return "DivergesProven"
    return f"Unknown (out of fuel after {v.fuel_spent})"


# ---------------------------------------------------------------------------
# The factorial example


def fac_program(n: int) -> Cmd:
    """alloc c; c := n; alloc r; r := 1; while c { r := r * c; c := c - 1 }"""
    body = Seq(
        Assign("r", Bop("*", Var("r"), Var("c"))),
        Assign("c", Bop("-", Var("c"), Lit(Nat(1)))),
    )
    return Seq(
        Alloc("c"),
        Seq(
            Assign("c", Lit(Nat(n))),
            Seq(Alloc("r"), Seq(Assign("r", Lit(Nat(1))), While(Var("c"), body))),
        ),
    )
