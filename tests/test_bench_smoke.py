"""The benchmark's three workloads, run briefly through `bench/run.py`.

Each op's output is checked there (the long-loops oracle, the campaign's
recorded verdicts, the certificates' round trip), so a change in `src/`
that breaks a workload fails here, in the fast suite, and not first in a
30 s benchmark run.  Set-up drops `whilesem` from `sys.modules` and imports
it again, so the runs go in a subprocess, which writes no bytecode: nothing
under `bench/` changes."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
END_TO_END = {"ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb", "ok_ratio"}

# argv: the benchmark directory, then the source directory.
SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from run import WORKLOAD_NAMES, run_workload
print(json.dumps({name: run_workload(name, 0, 0.2, False, tiny=True)[0] for name in WORKLOAD_NAMES}))
"""


def _listing() -> dict:
    return {str(p.relative_to(BENCH)): (p.stat().st_size, p.stat().st_mtime_ns) for p in BENCH.rglob("*")}


def test_every_workload_runs_correct_and_reports_its_metrics():
    before = _listing()
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(BENCH), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    assert set(results) == {"campaign", "long-loops", "cert-check"}
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20, (name, result)
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        assert set(metrics) == END_TO_END, name
        assert all(math.isfinite(v) and v > 0 for v in metrics.values()), (name, metrics)
        assert metrics["ok_ratio"] == 1, name
    assert _listing() == before
