"""Record the campaign verdict of every program at seed 0.

    python3 bench/record_verdicts.py

writes `bench/campaign_seed0.json`: one letter per program seed 0..19,999
(c converged, s stuck, d diverges-proven, u unknown, e exception).  The
`campaign` workload checks its seed-0 runs against it (a 30 s run covers
about 10,000 programs on a 2-CPU machine), so re-record only when a change
is meant to move verdicts.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    n = 20_000
    letters = workloads.record_campaign_verdicts(n)
    workloads.RECORDED_VERDICTS.write_text(json.dumps({"programs": n, "verdicts": letters}) + "\n")
    print(f"recorded {n} verdicts to {workloads.RECORDED_VERDICTS.name}")
