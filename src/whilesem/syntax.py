"""Abstract syntax, stores, input streams, statuses, outcomes, and verdicts.

Everything in this module is an immutable value: safe to hash, share, and use
as a dict key.  Values are compared with `==`, never by identity: the
expression evaluator (`small_step`) returns one shared `Nat` object for
each natural below 2,048, while `Nat(n)` makes a new one.  Stores compare
extensionally (insertion order never matters) and iterate in sorted key
order so printed output and golden files stay deterministic.

The term classes (values, expressions, commands, statuses, outcomes,
semantic commands and verdicts other than `DivergesProven`) are built by
`term_class`, not by `dataclasses`: they have slots, compare by exact class
and fields, and cache their hash per node, so rehashing a term that shares
subterms with an old one hashes only its new nodes (the first hash of a deep
term still recurses).  `dataclasses.replace` and `dataclasses.fields` apply
only to `InputStream`, `DivergesProven` and the evaluators' result records.
"""

from __future__ import annotations

import reprlib
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterable, Iterator, Mapping, Optional

# ---------------------------------------------------------------------------
# Term classes


def term_class(cls=None, *, cache: str | None = None):
    """Rebuild `cls` as an immutable term class over its annotated fields.

    The result keeps the class's name, docstring, methods and field order
    (also as `__match_args__`), and gets:

    * slots, and a constructor taking the fields in order, with the class
      attributes of the same names as defaults; a `__post_init__` the class
      defines runs on the new term, to validate it;
    * `__eq__` that holds on identity, else only between terms of the exact
      same class with equal fields, so `Seq(a, b) != Catch(a, b)`;
    * `__hash__` over the fields, cached in a slot on first use;
    * a dataclass-style `repr`, unless the class defines its own;
    * `FrozenInstanceError` on assignment and deletion, and pickling and
      copying through the constructor;
    * with `cache`, one more slot of that name, which the constructor sets
      to None and which its owner fills with `object.__setattr__`: like the
      hash, it is outside the fields, so `==`, the hash, the `repr`,
      pickling, copying and `__match_args__` never see it.

    The constructor fills an instance of a plain slotted base class and then
    retags it with the frozen class: that skips `object.__setattr__` per
    field, which is most of what building a frozen dataclass costs.
    """
    if cls is None:
        return lambda cls: term_class(cls, cache=cache)
    ns = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    fields = tuple(ns.get("__annotations__", {}))
    defaults = {f"_d_{f}": ns.pop(f) for f in fields if f in ns}
    slots = fields + ("_hash",) + ((cache,) if cache else ())
    base = type(f"_{cls.__name__}Slots", (), {"__slots__": slots, "__module__": cls.__module__})
    params = "".join(f", {f}=_d_{f}" if f"_d_{f}" in defaults else f", {f}" for f in fields)
    sets = "".join(f"    self.{f} = {f}\n" for f in fields) + (f"    self.{cache} = None\n" if cache else "")
    tup = f"({''.join(f'self.{f}, ' for f in fields)})"
    compare = " and ".join(f"self.{f} == other.{f}" for f in fields) or "True"
    shown = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
    source = (
        f"def __new__(cls{params}):\n"
        f"    self = _new(_base)\n{sets}"
        "    self.__class__ = cls\n"
        + ("    self.__post_init__()\n" if "__post_init__" in ns else "")
        + "    return self\n"
        "def __eq__(self, other):\n"
        "    if self is other:\n"
        "        return True\n"
        "    if type(other) is not type(self):\n"
        "        return NotImplemented\n"
        f"    return {compare}\n"
        "def __hash__(self):\n"
        "    try:\n"
        "        return self._hash\n"
        "    except AttributeError:\n"
        f"        h = hash({tup})\n"
        "        _set(self, '_hash', h)\n"
        "        return h\n"
        "def __reduce__(self):\n"
        f"    return type(self), {tup}\n"
        "def __repr__(self):\n"
        f"    return f'{cls.__qualname__}({shown})'\n"
    )
    scope = dict(defaults, _new=object.__new__, _base=base, _set=object.__setattr__)
    exec(source, scope)
    for name in ("__new__", "__eq__", "__hash__", "__reduce__", "__repr__"):
        if name not in ns:
            ns[name] = scope[name]
    ns.update(__slots__=(), __match_args__=fields, __setattr__=_frozen_set, __delattr__=_frozen_del)
    return type(cls.__name__, (base,), ns)


def _frozen_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_del(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Values


@term_class
class Nat:
    """A natural number value."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"Nat payload must be non-negative, got {self.n}")

    def __repr__(self) -> str:
        return f"Nat({nat_str(self.n)})"


@term_class
class Null:
    """The value of uninitialised locations."""

    def __repr__(self) -> str:
        return "Null"


@term_class
class AnyNat:
    """Abstract stand-in for an arbitrary natural number.

    Source programs never contain it and the generator never produces it;
    divergence certificates use it to label store entries whose exact value
    does not matter.  Arithmetic on it stays abstract and guards cannot
    branch on it (evaluation treats an indeterminate guard as stuck).
    """

    def __repr__(self) -> str:
        return "AnyNat"


Val = Nat | Null | AnyNat

NULL = Null()
ANY_NAT = AnyNat()


def nat_str(n: int) -> str:
    """The decimal digits of the natural `n`, however many.  `str` refuses
    more digits than the interpreter's integer-string limit, so a longer
    natural is split in two by a power of ten, and each half converted."""
    try:
        return str(n)
    except ValueError:
        half = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 0.3
        high, low = divmod(n, 10**half)
        return nat_str(high) + nat_str(low).zfill(half)


def nat_of_digits(digits: str) -> int:
    """The natural that a string of decimal digits stands for, however long;
    `int` refuses more digits than the interpreter's limit, so a longer
    string is converted half by half."""
    try:
        return int(digits)
    except ValueError:
        if not digits.isdecimal():
            raise
        half = len(digits) // 2
        return nat_of_digits(digits[:-half]) * 10**half + nat_of_digits(digits[-half:])


def format_val(v: Val) -> str:
    if isinstance(v, Nat):
        return nat_str(v.n)
    if isinstance(v, Null):
        return "null"
    return "*"


def quoted(data: object) -> str:
    """Malformed input quoted for an error message, in at most 80 characters."""
    return reprlib.repr(data)[:80]


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
    raise ValueError(f"not a value: {quoted(data)}")


# ---------------------------------------------------------------------------
# Expressions

BOPS = ("+", "-", "*")


# Each expression's `_code` slot belongs to `small_step.eval_expr`: the state
# of the expression's compilation, then its compiled closure.
@term_class(cache="_code")
class Lit:
    value: Val


@term_class(cache="_code")
class Var:
    name: str


@term_class(cache="_code")
class Bop:
    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in BOPS:
            raise ValueError(f"unknown operator {self.op!r}")


@term_class(cache="_code")
class Input:
    """Reads the next value from the input stream."""


Expr = Lit | Var | Bop | Input


# ---------------------------------------------------------------------------
# Commands


@term_class
class Skip:
    pass


@term_class
class Alloc:
    x: str


@term_class
class Assign:
    x: str
    expr: Expr


@term_class
class Seq:
    first: "Cmd"
    second: "Cmd"


@term_class
class If:
    guard: Expr
    then: "Cmd"
    orelse: "Cmd"


@term_class
class While:
    guard: Expr
    body: "Cmd"


@term_class
class Throw:
    value: Val


@term_class
class Catch:
    body: "Cmd"
    handler: "Cmd"


Cmd = Skip | Alloc | Assign | Seq | If | While | Throw | Catch


def _expr_leaves(e: Expr) -> Iterator[Expr]:
    """The operands of `e` that are not operations, left to right."""
    todo = [e]
    while todo:
        e = todo.pop()
        if type(e) is Bop:
            todo += (e.right, e.left)
        else:
            yield e


def expr_vars(e: Expr) -> frozenset[str]:
    """All variable names read by `e`."""
    return frozenset(leaf.name for leaf in _expr_leaves(e) if type(leaf) is Var)


def expr_has_input(e: Expr) -> bool:
    return any(type(leaf) is Input for leaf in _expr_leaves(e))


def _subcommands(c: Cmd) -> Iterator[Cmd]:
    """Every command in `c`, `c` first, in source order.  The walk keeps an
    explicit stack, so no nesting depth meets the recursion limit."""
    todo = [c]
    while todo:
        c = todo.pop()
        yield c
        t = type(c)
        if t is Seq:
            todo += (c.second, c.first)
        elif t is If:
            todo += (c.orelse, c.then)
        elif t is While:
            todo.append(c.body)
        elif t is Catch:
            todo += (c.handler, c.body)


def guard_exprs(c: Cmd) -> Iterator[Expr]:
    """Every if/while guard expression occurring anywhere in `c`."""
    for d in _subcommands(c):
        if type(d) is If or type(d) is While:
            yield d.guard


def cmd_exprs(c: Cmd) -> Iterator[Expr]:
    """Every expression occurring anywhere in `c`, in source order."""
    for d in _subcommands(c):
        t = type(d)
        if t is Assign:
            yield d.expr
        elif t is If or t is While:
            yield d.guard


def cmd_has_input(c: Cmd) -> bool:
    return any(expr_has_input(e) for e in cmd_exprs(c))


def cmd_has_exceptions(c: Cmd) -> bool:
    """True if `c` contains throw or try/catch anywhere."""
    return any(type(d) is Throw or type(d) is Catch for d in _subcommands(c))


# ---------------------------------------------------------------------------
# Stores


class Store:
    """A finite map from variable names to values.

    Immutable.  Equality and hashing are extensional, so two stores built by
    different update orders compare and hash identically.  `update` copies
    the map and writes one key, without sorting; in the package only the
    rule interpreter's `update` calls it.  The sorted order is worked out
    lazily, the first time a store is iterated, listed with `items()` or
    printed, and cached; every view of a store is in sorted name order, so
    printed output and golden files stay deterministic.

    Every evaluator run, recorded or not, copies the map of the store it is
    given, wraps the copy with `_adopt`, and writes that copy in place, as
    the paper's rules never read a store again once it is updated: the
    big-step evaluators copy at the start, the small-step loop on its first
    write.  A store still being written is never hashed, iterated or handed
    out, so its caches cannot go stale; every store a run hands out (a
    result, an exception's store) is no longer written, and a recorder keeps
    copies.
    """

    __slots__ = ("_map", "_items", "_hash")

    def __init__(self, bindings: Mapping[str, Val] | Iterable[tuple[str, Val]] = ()):
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

    @staticmethod
    def _adopt(m: dict) -> "Store":
        """A store over the dict `m` itself, not a copy: the caller gives
        `m` up, or owns the store and writes `m` only while no one else
        can see it."""
        new = Store.__new__(Store)
        new._map, new._items, new._hash = m, None, None
        return new

    def update(self, x: str, v: Val) -> "Store":
        m = self._map.copy()
        m[x] = v
        return Store._adopt(m)

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
        raise ValueError(f"not a store: {quoted(data)}")
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
        raise ValueError(f"not a stream: {quoted(data)}")
    return InputStream(tuple(val_from_json(v) for v in data["values"]), data["cursor"])


# ---------------------------------------------------------------------------
# Statuses (flag-based evaluation)


@term_class
class Down:
    """Normal control flow."""

    def __repr__(self) -> str:
        return "Down"


@term_class
class Up:
    """Divergence marker: the computation never finishes."""

    def __repr__(self) -> str:
        return "Up"


@term_class
class Exc:
    """An uncaught exception carrying the thrown value and the store at the
    point of the throw (the handler resumes from that store)."""

    value: Val
    at: Store


Status = Down | Up | Exc

DOWN = Down()
UP = Up()


# ---------------------------------------------------------------------------
# Outcomes (pretty-big-step)


@term_class
class ConvO:
    """Converged with a final store."""

    store: Store


@term_class
class DivO:
    """Diverged."""

    def __repr__(self) -> str:
        return "DivO"


Outcome = ConvO | DivO

DIV = DivO()


# ---------------------------------------------------------------------------
# Semantic commands (pretty-big-step intermediate forms)


@term_class
class Plain:
    cmd: Cmd


@term_class
class Assign2:
    x: str
    value: Val


@term_class
class Seq2:
    outcome: Outcome
    rest: Cmd


@term_class
class If2:
    value: Val
    then: Cmd
    orelse: Cmd


@term_class
class While2:
    value: Val
    guard: Expr
    body: Cmd


@term_class
class While3:
    outcome: Outcome
    guard: Expr
    body: Cmd


SemCmd = Plain | Assign2 | Seq2 | If2 | While2 | While3


# ---------------------------------------------------------------------------
# Verdicts (normalized results of running a program)


@term_class
class Converged:
    store: Store


@term_class
class ExceptionV:
    value: Val
    at: Store


@term_class
class Stuck:
    """No rule applies; also what the three big-step evaluators return."""

    reason: str


@dataclass(frozen=True)
class DivergesProven:
    """Divergence established by a certificate that the checker accepts."""

    certificate: object = field(compare=False)


@term_class
class Unknown:
    fuel_spent: int


Verdict = Converged | ExceptionV | Stuck | DivergesProven | Unknown


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
