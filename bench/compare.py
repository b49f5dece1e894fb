"""Compare two result files of ``bench/run.py --repeat N --out``.

    python3 bench/compare.py parent.json change.json

Runs are paired in the order they were recorded (take them alternating
which side goes first). Per end-to-end metric × workload the verdict
follows the small-sandbox rule of the choosing-metrics guide:

* ``win`` / ``loss`` — the change is better (worse) in at least nine
  tenths of all pairs, ties counting for neither side, **and** the
  medians differ by more than the parent's own inter-quartile spread;
* ``regressed`` — not a resolved loss, but the change's median is worse
  than the parent's by more than the metric's bound while the parent's
  spread is inside that bound;
* ``unresolved`` — fewer than ten pairs, or the parent's spread is wider
  than the bound (or the metric was demoted and has none), so neither a
  change nor its absence can be claimed;
* ``unchanged`` — otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import spec  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) → values in run order, untraced runs only."""
    runs = json.loads(Path(path).read_text(encoding="utf-8"))["runs"]
    names = {m.name for m in spec.END_TO_END + spec.WORKLOAD_METRICS}
    series: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if run["trace"]:
            continue
        for metric, got in run["metrics"].items():
            if metric in names:
                series.setdefault((run["workload"], metric), []).append(got["value"])
    return series


def verdict(metric: spec.Metric, parent: list[float], change: list[float]) -> dict:
    pairs = list(zip(parent, change))
    sign = 1.0 if metric.better == "higher" else -1.0
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    p_median, c_median = statistics.median(parent), statistics.median(change)
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        spread = q3 - q1
    else:
        spread = float("inf")
    gain = sign * (c_median - p_median)
    # ratio metrics carry absolute bounds; everything else relative.
    scale = 1.0 if metric.unit == "ratio" or p_median == 0 else abs(p_median)
    row = {"pairs": len(pairs), "wins": wins, "losses": losses,
           "parent_median": p_median, "change_median": c_median,
           "parent_iqr": spread, "gain": gain}
    if len(pairs) < MIN_PAIRS:
        row["verdict"] = "unresolved"
    elif wins >= WIN_SHARE * len(pairs) and gain > spread:
        row["verdict"] = "win"
    elif losses >= WIN_SHARE * len(pairs) and -gain > spread:
        row["verdict"] = "loss"
    elif metric.bound is None or spread / scale > metric.bound:
        row["verdict"] = "unresolved"
    elif -gain / scale > metric.bound:
        row["verdict"] = "regressed"
    else:
        row["verdict"] = "unchanged"
    return row


def compare(parent: dict, change: dict) -> list[dict]:
    metrics = spec.by_name()
    rows = []
    for key in sorted(parent):
        if key not in change:
            continue
        workload, name = key
        n = min(len(parent[key]), len(change[key]))
        row = verdict(metrics[name], parent[key][:n], change[key][:n])
        rows.append({"workload": workload, "metric": name, **row})
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    for row in rows:
        print(f"{row['workload']:<18} {row['metric']:<22} "
              f"{row['parent_median']:>12.6g} -> {row['change_median']:>12.6g} "
              f"iqr {row['parent_iqr']:.3g}  {row['wins']}/{row['pairs']} wins "
              f"{row['losses']} losses  {row['verdict']}")
    return 1 if any(r["verdict"] in ("loss", "regressed") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
