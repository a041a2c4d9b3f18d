"""The benchmark's tracer (bench/spans.py) rebinds names in `whilesem`
modules by attribute.  A rename in `src/` that drops one of those names
breaks the traced benchmark run; this test catches it in the fast suite."""

import importlib.util
from pathlib import Path

import pytest

from whilesem import coinduction, harness
from whilesem.coinduction import certificate_to_json
from whilesem.small_step import SmallConfig
from whilesem.syntax import EMPTY_STORE, EMPTY_STREAM

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


def test_traced_decode_records_no_parse_and_restores_names(spans, spin):
    # A decode reads the term table: the tracer sees it decode and check,
    # and it reaches no parser or printer name the tracer rebinds.
    start = SmallConfig(spin, EMPTY_STORE, EMPTY_STREAM)
    certs = [coinduction.detect_lasso(start, 100)] + [
        coinduction.prove_divergence(spin, EMPTY_STORE, EMPTY_STREAM, system, 100)
        for system in ("flag-co", "pretty-co")
    ]
    docs = [certificate_to_json(cert) for cert in certs]
    before = {(m, attr): getattr(m, attr) for m, attr, _, _ in spans.REBIND}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op, doc in enumerate(docs):
            tracer.begin_op(op, 0)
            cert = coinduction.certificate_from_json(doc)
            assert coinduction.check_certificate(cert) is None
            tracer.end_op(1)
    finally:
        tracer.uninstall()
    assert {(m, attr): getattr(m, attr) for m, attr, _, _ in spans.REBIND} == before
    layers = tracer.layers()
    assert layers["coinduction.decode"][0] == 3
    assert layers["coinduction.check"][0] == 3
    # The checker runs its execution-discharged premises through the
    # evaluator names the tracer rebinds, so they show in the evaluators' own
    # layers: the loop body `skip` of the flag-co and pretty-co graphs.
    assert layers["flag_based.eval"][0] > 0 and layers["pretty_big.eval"][0] > 0
    assert "parser.parse" not in layers and "parser.pretty" not in layers
