"""The benchmark's tracer (bench/spans.py) rebinds names in `whilesem`
modules by attribute.  A rename in `src/` that drops one of those names
breaks the traced benchmark run; this test catches it in the fast suite."""

import importlib.util
from pathlib import Path

import pytest

from whilesem import coinduction, harness

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_rebound_name_resolves(spans):
    missing = [f"{m.__name__}.{attr}" for m, attr, _, _ in spans.REBIND if not hasattr(m, attr)]
    for attr in spans.EVALUATORS:
        missing += [f"{m.__name__}.{attr}" for m in (harness, coinduction) if not hasattr(m, attr)]
    assert missing == []


def test_traced_compare_records_layers_and_restores_names(spans, fac4):
    before = {(m, attr): getattr(m, attr) for m, attr, _, _ in spans.REBIND}
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0, 0)
        assert harness.compare_all(fac4, fuel=10_000).agreement
        tracer.end_op(1)
    finally:
        tracer.uninstall()
    assert {(m, attr): getattr(m, attr) for m, attr, _, _ in spans.REBIND} == before
    layers = tracer.layers()
    for layer in ("harness.compare", "small_step.run_star", "big_step.eval", "flag_based.eval"):
        assert layers[layer][0] == 1, layer
    # fuel comes from the first run: the re-run layers see no calls
    assert "big_step.fuel_used" not in layers
    assert "flag_based.fuel_used" not in layers
