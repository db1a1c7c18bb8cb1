"""Full-grid reference run of the joint sweep (not part of the repeated runs).

    python3 perfbench/reference.py

Runs ``minimize_area`` on the default grid (625 setpoint combinations x 36
belt speeds = 22,500 candidates) at workers=1 and workers=2, counts feasible
candidates and per-limit rejections, and compares the winner with the
acceptance suite's independent brute-force sweep.  Prints one JSON object and
exits non-zero if any comparison fails.  Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from reflowsim import ParameterRanges, check_limits, default_layout, minimize_area  # noqa: E402

from workloads import COEFFICIENT, WEIGHT, oracles  # noqa: E402


def main() -> int:
    layout = default_layout()
    ranges = ParameterRanges()
    report = {}
    results = {}
    for workers in (1, 2):
        start = perf_counter()
        results[workers] = minimize_area(layout, ranges, WEIGHT, COEFFICIENT, workers=workers)
        report[f"wall_s_workers_{workers}"] = round(perf_counter() - start, 3)
    result = results[1]
    rejects = Counter(c.name for cand in result.candidates
                      for c in check_limits(cand.metrics).checks if not c.passed)
    start = perf_counter()
    oracle = oracles.brute_force_joint_sweep(layout, ranges, WEIGHT, COEFFICIENT, "area")
    report.update({
        "candidates": result.candidates_evaluated,
        "feasible": sum(c.feasible for c in result.candidates),
        "rejected_by": dict(sorted(rejects.items())),
        "winner": list(result.best.key()),
        "winner_area": result.best.area,
        "brute_force_s": round(perf_counter() - start, 3),
        "workers_agree": results[1] == results[2],
        "winner_matches_brute_force": (result.best.key() == oracle[0]
                                       and abs(result.best.area - oracle[1]) <= 1e-9),
    })
    print(json.dumps(report, indent=2))
    return 0 if report["workers_agree"] and report["winner_matches_brute_force"] else 1


if __name__ == "__main__":
    sys.exit(main())
