"""Per-layer tracing from outside the program.

`Tracer.install()` rebinds the public entry points that `whilesem.harness`
and `whilesem.coinduction` call to timing wrappers; nothing in the package
itself is edited.  Each call records a span `[op, parent, name, start, end,
count]` in memory; the spans of one op share its id, and `parent` is the
index of the span that was open when the call was made.  Work counts
(steps, rule applications, configurations, nodes) are taken after the span
has closed, inside a separate `trace.count` span, so they add nothing to a
layer's time.  `write()` dumps the spans when the run ends.

A span's self time is its duration minus the durations of its direct child
spans.  Evaluator calls that the divergence provers make to decide which
premise diverges are reported as `coinduction.probe`; evaluator calls made
while checking a certificate are reported under the evaluator's own layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from whilesem import big_step, coinduction, flag_based, harness, parser, pretty_big, small_step
from whilesem.big_step import Done, OutOfFuel
from whilesem.coinduction import DerivationGraph, Lasso
from whilesem.derivation import Recorder
from whilesem.flag_based import FlagResult, OutOfFuelF
from whilesem.pretty_big import OutOfFuelP

OUT_OF_FUEL = (OutOfFuel, OutOfFuelP, OutOfFuelF)
PROVE, CHECK = "coinduction.prove", "coinduction.check"

# The originals, captured before any rebinding; counters call only these.
_eval_big = big_step.eval_big
_eval_pretty = pretty_big.eval_pretty
_eval_flag = flag_based.eval_flag
_fuel_used = big_step.fuel_used
_flag_fuel_used = flag_based.flag_fuel_used
_run_star = small_step.run_star


def _memo(counter):
    """Counts are pure functions of the call's arguments; the workloads
    repeat calls (long-loops cycles a small corpus), so count each once."""
    seen = {}

    def counted(args, result):
        key = (args, type(result))
        if key not in seen:
            seen[key] = counter(args, result)
        return seen[key]

    return counted


def _recorded(relation, run):
    """Rule applications of one run, counted from its derivation tree."""
    rec = Recorder()
    run(rec)
    n, todo = 0, [rec.root] if rec.root is not None else []
    while todo:
        node = todo.pop()
        n += node.relation == relation
        todo.extend(node.children)
    return n


def _big_rules(args, result):
    c, store, stream, fuel = args[:4]
    if isinstance(result, OutOfFuel):
        return fuel
    if isinstance(result, Done):
        return _fuel_used(c, store, stream, fuel)
    return _recorded("big", lambda rec: _eval_big(c, store, stream, fuel, rec))


def _pretty_rules(args, result):
    sc, store, stream, fuel = args[:4]
    if isinstance(result, OutOfFuelP):
        return fuel
    return _recorded("pretty", lambda rec: _eval_pretty(sc, store, stream, fuel, rec))


def _flag_rules(args, result):
    c, store, flag, stream, fuel = args[:5]
    if isinstance(result, OutOfFuelF):
        return fuel
    if isinstance(result, FlagResult):
        return _flag_fuel_used(c, store, flag, stream, fuel)
    return _recorded("flag", lambda rec: _eval_flag(c, store, flag, stream, fuel, rec))


def _lasso_configs(args, result):
    if result is not None:
        return len(result.prefix) + len(result.cycle)
    _, trace = _run_star(args[0], args[1])
    return len(trace.configs) - 1


def _exhausted(args, result):
    return int(isinstance(result, OUT_OF_FUEL))


def _cert_nodes(args, result):
    cert = args[0]
    if isinstance(cert, Lasso):
        return len(cert.prefix) + len(cert.cycle)
    return len(cert.nodes) if isinstance(cert, DerivationGraph) else 0


# Rebound in `harness` and in `coinduction`; in the latter the layer depends
# on the caller.
EVALUATORS = {
    "eval_big": ("big_step.eval", _big_rules),
    "eval_pretty": ("pretty_big.eval", _pretty_rules),
    "eval_flag": ("flag_based.eval", _flag_rules),
}

# (module, attribute, layer, counter) for every other rebinding.
REBIND = [
    (harness, "generate_program", "harness.generate", None),
    (harness, "compare_all", "harness.compare", None),
    (harness, "run_star", "small_step.run_star", lambda a, r: len(r[1].configs) - 1),
    (harness, "fuel_used", "big_step.fuel_used", None),
    (harness, "flag_fuel_used", "flag_based.fuel_used", None),
    (harness, "detect_lasso", "coinduction.lasso", _lasso_configs),
    (harness, "prove_divergence", PROVE, lambda a, r: 0 if r is None else len(r.nodes)),
    (harness, "pretty_cmd", "parser.pretty", None),
    (coinduction, "detect_lasso", "coinduction.lasso", _lasso_configs),
    (coinduction, "check_certificate", CHECK, _cert_nodes),
    (coinduction, "graph_error", CHECK, _cert_nodes),
    (coinduction, "certificate_from_json", "coinduction.decode", None),
    (coinduction, "parse_cmd", "parser.parse", lambda a, r: len(a[0])),
    (coinduction, "pretty_cmd", "parser.pretty", None),
    # `coinduction` imports this one inside a function, from the module.
    (parser, "parse_expr", "parser.parse", lambda a, r: len(a[0])),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self._saved: list[tuple] = []

    # --- recording ------------------------------------------------------

    def begin_op(self, op: int, start: int) -> None:
        self.op = op
        self.stack.append(len(self.spans))
        self.spans.append([op, None, "op", start, 0, 0])
        self.active = True

    def end_op(self, end: int) -> None:
        self.active = False
        self.spans[self.stack.pop()][4] = end

    def _call(self, name, counter, fn, args, kwargs):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        span = [self.op, stack[-1], name, 0, 0, 0]
        stack.append(len(spans))
        spans.append(span)
        span[3] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = clock()
            stack.pop()
        if counter is not None:
            start = clock()
            span[5] = counter(args, result)
            spans.append([self.op, stack[-1], "trace.count", start, clock(), 0])
        return result

    def _wrap(self, name, counter, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._call(name, counter, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_coinduction_eval(self, layer, counter, fn):
        """Probe when the innermost prover/checker span is a prover."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            for sid in reversed(self.stack):
                name = self.spans[sid][2]
                if name == PROVE:
                    return self._call("coinduction.probe", _exhausted, fn, args, kwargs)
                if name == CHECK:
                    break
            return self._call(layer, counter, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, layer, counter in REBIND:
            self._rebind(module, attr, self._wrap(layer, counter, getattr(module, attr)))
        for attr, (layer, counter) in EVALUATORS.items():
            counter = _memo(counter)
            self._rebind(harness, attr, self._wrap(layer, counter, getattr(harness, attr)))
            fn = getattr(coinduction, attr)
            self._rebind(coinduction, attr, self._wrap_coinduction_eval(layer, counter, fn))

    def _rebind(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # --- reporting ------------------------------------------------------

    def layers(self) -> dict:
        """name -> [calls, count, self_ns].  A span nested directly in a span
        of the same name (check_certificate -> graph_error) adds its time
        but not a call."""
        child_ns = defaultdict(int)
        for op, parent, name, start, end, count in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0, 0])
        for sid, (op, parent, name, start, end, count) in enumerate(self.spans):
            entry = out[name]
            entry[2] += end - start - child_ns[sid]
            if parent is None or self.spans[parent][2] != name:
                entry[0] += 1
                entry[1] += count
        return out

    def count_ns_per_op(self) -> dict:
        out: dict = defaultdict(int)
        for op, parent, name, start, end, count in self.spans:
            if name == "trace.count":
                out[op] += end - start
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write('["op", "parent", "name", "start_ns", "end_ns", "count"]\n')
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
