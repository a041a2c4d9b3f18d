"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at a tiny size, on two seeds, untraced and traced, and
requires every metric `BENCHMARK.json` names.  Then it plants a wrong
reference value into each output check -- a recorded verdict, a verdict
count, an oracle store, a certificate text, a certificate's expected
encoding -- and an op that raises, and requires each to fail at least one
op without aborting the run.  Finally it checks the scaling to reference
speed, and requires the benchmark to exit with an error, printing no
result, when the program's source is missing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from reference import REF_NS, scaled  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def tiny(name, seed=0, trace=False, prepare=None):
    """One tiny run, printed as the benchmark prints it; returns the parsed
    last line."""
    result, notes = run.run_workload(name, seed, 0.2, trace, tiny=True, prepare=prepare)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.print_result(name, seed, 0.2, trace, result, notes)
    return json.loads(out.getvalue().splitlines()[-1])


def planted_failure(name, prepare):
    result = tiny(name, prepare=prepare)
    return result["failed"] > 0 and result["metrics"]["ok_ratio"]["value"] < 1


def flip_recorded_verdict(w):
    i = 5
    w.recorded = w.recorded[:i] + ("s" if w.recorded[i] != "s" else "c") + w.recorded[i + 1:]


def wrong_verdict_count(w):
    w.fingerprint = (10, {"converged": 10})


def perturb_oracle(w):
    from whilesem.syntax import Nat  # the module the run imported afresh

    program, expected, fuel = w.programs[0]
    w.programs[0] = (program, expected.update("n", Nat(7)), fuel)


def tamper_certificate(w):
    i = next(i for i, d in enumerate(w.expected) if d["kind"] == "derivation-graph")
    data = json.loads(w.texts[i])
    data["nodes"][data["root"]]["premises"] = []
    w.texts[i] = json.dumps(data)


def wrong_encoding(w):
    w.expected[0] = dict(w.expected[0], abstract_vars=["x"])


def raise_once(w):
    op = w.op

    def flaky(i):
        if i == 3:
            raise RuntimeError("planted")
        return op(i)

    w.op = flaky


def scaling_holds() -> bool:
    """At reference speed a latency is unchanged; where the reference loop
    ran twice as fast, the latency around it doubles."""
    samples = [(0, REF_NS), (2, REF_NS), (3, REF_NS // 2), (4, REF_NS // 2)]
    got = scaled([5, 7, 11, 13], samples)
    return all(math.isclose(a, b) for a, b in zip(got, [5, 7, 11 * 4 / 3, 26]))


def missing_source_exits_nonzero() -> bool:
    """Only BENCHMARK.json and bench/ present: exit code != 0, no result."""
    scratch = ROOT / ".bench_trace"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        cmd = SPEC["command"] + ["--workload", "campaign", "--seed", "0", "--seconds", "1",
                                 "--trace", "0"]
        cmd[0] = sys.executable
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=180)
    return proc.returncode != 0 and '"correct"' not in proc.stdout


def main() -> int:
    checks = []
    for name in run.WORKLOAD_NAMES:
        for seed in (0, 1):
            plain = tiny(name, seed)
            traced = tiny(name, seed, trace=True)
            checks.append((f"{name} seed {seed}: every end-to-end metric, no failure",
                           list(plain["metrics"]) == END_TO_END and plain["failed"] == 0))
            checks.append((f"{name} seed {seed}: every per-layer metric, no failure",
                           list(traced["metrics"]) == PER_LAYER and traced["failed"] == 0))
    checks += [
        ("campaign: a wrong recorded verdict fails an op",
         planted_failure("campaign", flip_recorded_verdict)),
        ("campaign: a wrong recorded verdict count fails an op",
         planted_failure("campaign", wrong_verdict_count)),
        ("long-loops: a perturbed oracle store fails an op",
         planted_failure("long-loops", perturb_oracle)),
        ("cert-check: a tampered certificate text fails an op",
         planted_failure("cert-check", tamper_certificate)),
        ("cert-check: a wrong expected encoding fails an op",
         planted_failure("cert-check", wrong_encoding)),
    ]
    result = tiny("campaign", prepare=raise_once)
    checks.append(("an op that raises counts as one failure and the run goes on",
                   result["failed"] == 1 and result["attempted"] >= 20))
    checks.append(("timings scale with the reference loop", scaling_holds()))
    checks.append(("no source: the benchmark exits non-zero without a result",
                   missing_source_exits_nonzero()))
    for what, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
    failed = sum(not ok for _, ok in checks)
    print(f"{len(checks) - failed}/{len(checks)} checks hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
