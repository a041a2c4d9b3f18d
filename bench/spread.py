"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload campaign --seeds 1-10 [--out FILE]

Runs `run.py` once per seed, one run at a time, for the `run_seconds` of
`BENCHMARK.json`, and prints for each end-to-end metric
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
quartile distance as a share of the median, next to the metric's bound in
`BENCHMARK.json`.  `--out` also writes the raw values and the summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = HERE.parent / "BENCHMARK.json"


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = ", ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} {values}",
              flush=True)

    summary = {}
    print(f"\n{args.workload}: {len(runs)} runs of {seconds:g} s")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound:g}{'  OVER' if spread > bound else ''}"
        print(f"  {name:<36} median {median:<12.5g} q1 {q1:<12.5g} q3 {q3:<12.5g}"
              f" spread {spread:6.1%}{flag}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                        "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
