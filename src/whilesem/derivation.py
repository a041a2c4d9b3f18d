"""Derivation-tree recording shared by the big-step style evaluators.

A recorder, when supplied, captures one tree node per rule application in
the exact order premises are visited; each expression premise is one leaf.
The trees serve premise-order and rule-label checks in tests, the
benchmark's rule counts, and export of finite derivations as checkable
derivation graphs (`coinduction.graph_from_tree`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .syntax import ConvO, InputStream, Status, Store


@dataclass
class DerivTree:
    relation: str  # "big" | "pretty" | "flag" | "expr" | "flag-expr"
    rule: Optional[str]
    subject: object  # Cmd | SemCmd | Expr
    store: Store
    flag_in: Optional[Status]
    stream: InputStream
    result: Optional[tuple]
    children: list["DerivTree"] = field(default_factory=list)


def _snapshot(x):
    """`x`, with a store that a run may still write replaced by a copy.  An
    exception's store is never written once thrown, and is kept."""
    t = type(x)
    if t is Store:
        return Store._adopt(x._map.copy())
    if t is ConvO:
        return ConvO(_snapshot(x.store))
    return x


class Recorder:
    """Single-use builder for one derivation tree.  The evaluators write
    their store in place, so it keeps a copy of each store it is handed."""

    def __init__(self) -> None:
        self.root: Optional[DerivTree] = None
        self._stack: list[DerivTree] = []

    def enter(self, relation, subject, store, flag_in, stream) -> DerivTree:
        node = self.leaf(relation, None, subject, store, flag_in, stream, None)
        self._stack.append(node)
        return node

    def exit_to(self, node: Optional[DerivTree], result: tuple) -> tuple:
        """Close the open nodes above `node`, or all of them when `node` is
        None, innermost first: their judgments end with one `result`.
        Returns the result as recorded."""
        result = tuple(map(_snapshot, result))
        stack = self._stack
        while stack and stack[-1] is not node:
            stack.pop().result = result
        return result

    def leaf(self, relation, rule, subject, store, flag_in, stream, result) -> DerivTree:
        node = DerivTree(relation, rule, subject, _snapshot(store), flag_in, stream, result)
        if self._stack:
            self._stack[-1].children.append(node)
        elif self.root is None:
            self.root = node
        return node
