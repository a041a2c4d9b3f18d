"""Benchmark of the whilesem workbench: three workloads, checked outputs,
end-to-end metrics, and a traced per-layer split.

Run one workload (what `BENCHMARK.json` names):

    python3 bench/run.py --workload campaign --seed 0 --seconds 30 --trace 0

Run all three, untraced and traced, and print one table:

    python3 bench/run.py --workload all

The benchmark imports `whilesem` from `src/` of the checkout it sits in and
fails (exit 2) when that source is missing.  Load is a closed loop in one
single-threaded process: each op starts when the previous one returns.  The
timer covers the op alone; its output check runs after the timer stops.
An op fails when its check fails or it raises; a failure never aborts the
run.  End-to-end timings are scaled to a reference speed that is measured
during the run (see `reference.py`); the raw figures are printed beside
them.  The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
metrics when `--trace 0` and the per-layer metrics when `--trace 1`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REF_NS, SAMPLE_EVERY_NS, reference_ns, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

SETUP_REPEATS = 3
MIN_OPS = 110  # so that at least 10 samples lie above p90
CHUNK_NS = 1_000_000_000
WORKLOAD_NAMES = ("campaign", "long-loops", "cert-check")


class MissingSource(Exception):
    pass


def fresh_import():
    """Drop `whilesem` and the workload module, import both again, and
    return (workloads module, seconds the import took)."""
    for name in list(sys.modules):
        if name in ("whilesem", "workloads", "spans") or name.startswith("whilesem."):
            del sys.modules[name]
    start = time.perf_counter()
    workloads = importlib.import_module("workloads")
    seconds = time.perf_counter() - start
    import whilesem

    if not Path(whilesem.__file__).resolve().is_relative_to(SRC):
        raise MissingSource(f"whilesem imported from {whilesem.__file__}, not from {SRC}")
    return workloads, seconds


def set_up(name: str, seed: int, tiny: bool):
    """Import and prepare SETUP_REPEATS times; return the last workload and
    the median set-up time, raw and at reference speed."""
    raw, at_ref = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_ns()
        workloads, import_s = fresh_import()
        start = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed, tiny)
        raw.append(import_s + time.perf_counter() - start)
        at_ref.append(raw[-1] * 2 * REF_NS / (before + reference_ns()))
    return workload, statistics.median(raw), statistics.median(at_ref)


def traced_attempt(i: int) -> tuple:
    """(input index, traced?) of attempt i of a traced run.  Every input
    runs twice in a row, once traced and once not, the traced run first on
    even inputs and second on odd ones; so the tracing overhead is measured
    on the same inputs at the same time, and order effects cancel."""
    j = i // 2
    return j, i % 2 == j % 2


def timed_loop(workload, seconds: float, tracer=None, min_ops: int = MIN_OPS):
    """Run ops until `seconds` have passed and at least `min_ops` are done.
    With a tracer, attempts follow `traced_attempt`; the traced run of an
    input is checked after both runs, and the reference loop is timed only
    between inputs, so the two runs of an input see the same surroundings.
    Returns (latencies in ns, failure reasons keyed by attempt, reference
    samples as `reference.scaled` takes them)."""
    clock = time.perf_counter_ns
    latencies: list[int] = []
    failures: dict = {}
    samples = [(0, reference_ns())]
    deadline = clock() + int(seconds * 1e9)
    next_sample = clock() + SAMPLE_EVERY_NS
    if tracer is not None:
        min_ops *= 2
    i, outcome = 0, None
    while i < min_ops or clock() < deadline or (tracer is not None and i % 2):
        last_of_input = tracer is None or i % 2 == 1
        if clock() >= next_sample and (tracer is None or i % 2 == 0):
            samples.append((i, reference_ns()))
            next_sample = clock() + SAMPLE_EVERY_NS
        j, traced = (i, False) if tracer is None else traced_attempt(i)
        start = clock()
        if traced:
            tracer.begin_op(j, start)
        try:
            out, raised = workload.op(j), None
        except Exception as ex:  # a failed op is counted, never fatal
            out, raised = None, f"{type(ex).__name__}: {ex}"
        end = clock()
        if traced:
            tracer.end_op(end)
        latencies.append(end - start)
        if raised is not None:
            failures[i] = raised
        elif tracer is None or traced:
            outcome = (j, out)
        if last_of_input and outcome is not None:
            try:
                problem = workload.check(*outcome)
            except Exception as ex:
                problem = f"check raised {type(ex).__name__}: {ex}"
            if problem is not None:
                failures.setdefault(i, problem)
        if last_of_input:
            outcome = None
        i += 1
    samples.append((i, reference_ns()))
    return latencies, failures, samples


def chunk_rate(latencies: list, period: int) -> float:
    """Median, over consecutive chunks of at least 1 s of op time, of the
    ops completed per second of op time.  A chunk ends only after a whole
    number of passes over the workload's corpus of `period` ops, so that
    every chunk holds the same mix of inputs."""
    rates, n, spent = [], 0, 0
    for i, ns in enumerate(latencies, 1):
        n += 1
        spent += ns
        if spent >= CHUNK_NS and i % period == 0:
            rates.append(n * 1e9 / spent)
            n, spent = 0, 0
    if not rates:
        rates.append(n * 1e9 / spent)
    return statistics.median(rates)


def end_to_end(latencies, failures, setup_s, period) -> dict:
    cuts = statistics.quantiles(latencies, n=10)
    ok = 1 - len(failures) / len(latencies)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (chunk_rate(latencies, period), "1/s"),
        "op_p50_ms": (cuts[4] / 1e6, "ms"),
        "op_p90_ms": (cuts[8] / 1e6, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "ok_ratio": (ok, "ratio"),
    }


def per_layer(tracer, latencies, workload) -> dict:
    layers = tracer.layers()
    count_ns = tracer.count_ns_per_op()

    def calls(name):
        return layers[name][0] if name in layers else 0

    def work(name):
        return layers[name][1] if name in layers else 0

    def self_s(name):
        return layers[name][2] / 1e9 if name in layers else 0.0

    def us_per(name):
        return self_s(name) * 1e6 / work(name) if work(name) else 0.0

    m = {
        "harness.generate.calls": (calls("harness.generate"), "count"),
        "harness.generate.self_s": (self_s("harness.generate"), "s"),
        "harness.compare.self_s": (self_s("harness.compare"), "s"),
        "small_step.run_star.calls": (calls("small_step.run_star"), "count"),
        "small_step.run_star.steps": (work("small_step.run_star"), "count"),
        "small_step.run_star.self_s": (self_s("small_step.run_star"), "s"),
        "small_step.run_star.us_per_step": (us_per("small_step.run_star"), "us"),
    }
    for layer in ("big_step.eval", "pretty_big.eval", "flag_based.eval"):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.rules"] = (work(layer), "count")
        m[f"{layer}.self_s"] = (self_s(layer), "s")
        m[f"{layer}.us_per_rule"] = (us_per(layer), "us")
    lasso_calls = calls("coinduction.lasso")
    divergent = len(workload.divergent_ops)
    probe_calls = calls("coinduction.probe")
    parse_s = self_s("parser.parse")
    m.update({
        "big_step.fuel_used.self_s": (self_s("big_step.fuel_used"), "s"),
        "flag_based.fuel_used.self_s": (self_s("flag_based.fuel_used"), "s"),
        "coinduction.lasso.calls": (lasso_calls, "count"),
        "coinduction.lasso.configs": (work("coinduction.lasso"), "count"),
        "coinduction.lasso.self_s": (self_s("coinduction.lasso"), "s"),
        "coinduction.lasso.us_per_config": (us_per("coinduction.lasso"), "us"),
        "coinduction.lasso.per_divergent": (lasso_calls / divergent if divergent else 0.0, "ratio"),
        "coinduction.prove.calls": (calls("coinduction.prove"), "count"),
        "coinduction.prove.nodes": (work("coinduction.prove"), "count"),
        "coinduction.prove.self_s": (self_s("coinduction.prove"), "s"),
        "coinduction.prove.us_per_node": (us_per("coinduction.prove"), "us"),
        "coinduction.probe.calls": (probe_calls, "count"),
        "coinduction.probe.self_s": (self_s("coinduction.probe"), "s"),
        "coinduction.probe.exhausted_ratio": (
            work("coinduction.probe") / probe_calls if probe_calls else 0.0, "ratio"),
        "coinduction.check.calls": (calls("coinduction.check"), "count"),
        "coinduction.check.nodes": (work("coinduction.check"), "count"),
        "coinduction.check.self_s": (self_s("coinduction.check"), "s"),
        "coinduction.check.us_per_node": (us_per("coinduction.check"), "us"),
        "coinduction.decode.self_s": (self_s("coinduction.decode"), "s"),
        "parser.parse.calls": (calls("parser.parse"), "count"),
        "parser.parse.self_s": (parse_s, "s"),
        "parser.parse.kchars_per_s": (
            work("parser.parse") / 1e3 / parse_s if parse_s else 0.0, "kchar/s"),
        "parser.pretty.self_s": (self_s("parser.pretty"), "s"),
    })
    # Accounting: every traced op's time is its layers' self times, the
    # op's own glue (the harness loop, json.loads, the benchmark's loop), and
    # the counting done for the trace, which the traced rate leaves out.
    # The rates compare the inputs that ran both ways.
    traced, untraced = {}, {}
    for i, ns in enumerate(latencies):
        j, is_traced = traced_attempt(i)
        (traced if is_traced else untraced)[j] = ns
    counted = sum(count_ns.values())
    op_ns = sum(traced.values()) - counted
    layer_ns = sum(v[2] for k, v in layers.items() if k not in ("op", "trace.count"))
    paired = traced.keys() & untraced.keys()
    traced_ns = sum(traced[j] - count_ns.get(j, 0) for j in paired)
    untraced_ns = sum(untraced[j] for j in paired)
    m.update({
        "op.self_s": (self_s("op"), "s"),
        "trace.ops": (len(traced), "count"),
        "trace.ops_per_s": (len(paired) * 1e9 / traced_ns, "1/s"),
        "trace.untraced_ops_per_s": (len(paired) * 1e9 / untraced_ns, "1/s"),
        "trace.overhead": (1 - untraced_ns / traced_ns, "ratio"),
        "trace.count_s": (counted / 1e9, "s"),
        "trace.layers_share": (layer_ns / op_ns, "ratio"),
    })
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 prepare=None):
    """Set up, run and measure one workload; return (result dict, notes).

    `prepare`, if given, is applied to the workload after set-up (the
    self-test uses it to plant wrong reference values)."""
    workload, raw_setup_s, setup_s = set_up(name, seed, tiny)
    if prepare is not None:
        prepare(workload)
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        latencies, failures, samples = timed_loop(
            workload, seconds, tracer, 20 if tiny else MIN_OPS)
    finally:
        if tracer is not None:
            tracer.uninstall()
    notes = ["load: closed loop, one single-threaded client"]
    if tracer is not None:
        metrics = per_layer(tracer, latencies, workload)
        path = TRACE_DIR / f"{name}-seed{seed}.jsonl"
        tracer.write(path)
        layers = {k: v[2] for k, v in tracer.layers().items() if k != "trace.count"}
        shares = sorted(((ns / sum(layers.values()), k) for k, ns in layers.items()), reverse=True)
        notes += [f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}",
                  "waiting time: none to report -- one process, a closed loop, no queues",
                  "self time share: " + ", ".join(f"{k} {v:.1%}" for v, k in shares if v >= 0.001)]
    else:
        metrics = end_to_end(scaled(latencies, samples), failures, setup_s, workload.period)
        raw = end_to_end(latencies, failures, raw_setup_s, workload.period)
        refs = [ns for _, ns in samples]
        cuts = statistics.quantiles(latencies, n=10)
        notes += [f"samples: {len(latencies)} ops, {sum(ns > cuts[8] for ns in latencies)} above p90",
                  f"fail_ratio: {len(failures) / len(latencies):.6g}",
                  f"reference: median {statistics.median(refs) / 1e6:.3f} ms over {len(refs)} samples"
                  f" (timings below are scaled to {REF_NS / 1e6:g} ms)",
                  "unscaled: " + ", ".join(f"{k} {raw[k][0]:.6g} {raw[k][1]}"
                                           for k in ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s"))]
    notes += [f"failed op {i}: {reason}" for i, reason in list(failures.items())[:5]]
    result = {
        "correct": not failures,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes


def print_result(name, seed, seconds, trace, result, notes) -> None:
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {'on' if trace else 'off'}")
    for line in notes:
        print(f"  {line}")
    for key, m in result["metrics"].items():
        print(f"  {key:<36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in its own process."""
    rows, ok = [], True
    for name in WORKLOAD_NAMES:
        pair = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name}: exit code {proc.returncode}")
                return 1
            pair.append(json.loads(lines[-1]))
        ok = ok and all(r["correct"] for r in pair)
        rows.append((name, *pair))
    print("\nsummary: untraced end to end; tracing overhead = 1 - traced / untraced ops/s,"
          " both from the traced run, which runs every input traced and untraced")
    for name, plain, traced in rows:
        e2e = plain["metrics"]
        fail = plain["failed"] / plain["attempted"]
        cells = [f"{k} {m['value']:.4g} {m['unit']}" for k, m in e2e.items()]
        layer = traced["metrics"]
        print(f"  {name:<11} " + ", ".join(cells) + f", fail_ratio {fail:.3g}"
              f" ({plain['attempted']} samples); tracing overhead"
              f" {layer['trace.overhead']['value']:.1%};"
              f" layer self times cover {layer['trace.layers_share']['value']:.1%}"
              " of traced op time")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "whilesem" / "__init__.py").is_file():
        print(f"bench: no whilesem source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        result, notes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingSource as ex:
        print(f"bench: {ex}", file=sys.stderr)
        return 2
    print_result(args.workload, args.seed, args.seconds, args.trace, result, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
