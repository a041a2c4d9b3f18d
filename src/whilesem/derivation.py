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

from .syntax import InputStream, Status, Store


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


class Recorder:
    """Single-use builder for one derivation tree."""

    def __init__(self) -> None:
        self.root: Optional[DerivTree] = None
        self._stack: list[DerivTree] = []

    def enter(self, relation, subject, store, flag_in, stream) -> DerivTree:
        node = DerivTree(relation, None, subject, store, flag_in, stream, None)
        if self._stack:
            self._stack[-1].children.append(node)
        elif self.root is None:
            self.root = node
        self._stack.append(node)
        return node

    def exit_to(self, node: Optional[DerivTree], result: tuple) -> None:
        """Close the open nodes above `node`, or all of them when `node` is
        None, innermost first: their judgments end with one `result`."""
        stack = self._stack
        while stack and stack[-1] is not node:
            stack.pop().result = result

    def leaf(self, relation, rule, subject, store, flag_in, stream, result) -> DerivTree:
        node = DerivTree(relation, rule, subject, store, flag_in, stream, result)
        if self._stack:
            self._stack[-1].children.append(node)
        elif self.root is None:
            self.root = node
        return node
