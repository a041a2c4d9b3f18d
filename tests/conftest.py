"""Shared fixtures: deterministic program corpora and frequently used programs."""

from __future__ import annotations

import pytest

from whilesem import coinduction
from whilesem.harness import GenConfig, generate_program
from whilesem.parser import parse_cmd, parse_expr
from whilesem.syntax import fac_program


def corpus(n: int, first_seed: int = 0, **overrides) -> list:
    """A deterministic list of generated programs."""
    cfg = GenConfig(**overrides)
    return [generate_program(cfg, first_seed + i) for i in range(n)]


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


@pytest.fixture
def reference_decode(monkeypatch):
    """`certificate_from_json` as a decode that parses every text it reads:
    each command text goes to `parse_cmd` and each guard text to
    `parse_expr`, every time, so no text resolves as a subterm of the first,
    as a step, or from an earlier equal text."""
    readers = coinduction._readers

    def parsing() -> dict:
        read = readers()
        read.update(Cmd=lambda text, before=None: parse_cmd(text), Expr=parse_expr)
        return read

    def decode(doc):
        with monkeypatch.context() as m:
            m.setattr(coinduction, "_readers", parsing)
            return coinduction.certificate_from_json(doc)

    return decode
