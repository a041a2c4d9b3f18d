"""Shared fixtures: deterministic program corpora and frequently used programs."""

from __future__ import annotations

import pytest

import dataclasses

from whilesem.coinduction import DerivationGraph
from whilesem.harness import GenConfig, generate_program
from whilesem.parser import parse_cmd, parse_expr, pretty_cmd, pretty_expr
from whilesem.syntax import Cmd, Expr, SemCmd, fac_program


def corpus(n: int, first_seed: int = 0, **overrides) -> list:
    """A deterministic list of generated programs."""
    cfg = GenConfig(**overrides)
    return [generate_program(cfg, first_seed + i) for i in range(n)]


def as_if_parsed(graph: DerivationGraph) -> DerivationGraph:
    """`graph` with every command and guard of its subjects rebuilt by
    parsing its print: the graph a decode that parsed every text reads."""
    def reparse(t):
        if isinstance(t, Cmd.__args__):
            return parse_cmd(pretty_cmd(t))
        if isinstance(t, Expr.__args__):
            return parse_expr(pretty_expr(t))
        if isinstance(t, SemCmd.__args__):
            return type(t)(*[reparse(getattr(t, f)) for f in t.__match_args__])
        return t

    nodes = [dataclasses.replace(n, subject=reparse(n.subject)) for n in graph.nodes]
    return DerivationGraph(graph.system, graph.root, nodes)


@pytest.fixture(scope="session")
def fac4():
    return fac_program(4)


@pytest.fixture(scope="session")
def spin():
    """The minimal diverging loop."""
    return parse_cmd("while 1 { skip }")


@pytest.fixture(scope="session")
def grower():
    """A diverging loop whose store changes on every iteration."""
    return parse_cmd("alloc x; x := 0; while 1 { x := x + 1 }")


@pytest.fixture(scope="session")
def spin_then_use():
    """Divergence on the left of a sequence whose right side would otherwise
    allocate and assign."""
    return parse_cmd("{ while 1 { skip } }; alloc x; x := x + 0")


@pytest.fixture(scope="session")
def input_gate():
    """Input decides between a stuck branch and a diverging tail."""
    return parse_cmd("if input { x := 0 } else { skip }; while 1 { skip }")

