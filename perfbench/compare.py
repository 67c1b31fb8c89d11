"""Compare two sets of result files (parent, change), one row per workload
and metric.

Runs are paired in the order they started: the i-th parent run with the
i-th change run of the same workload and trace setting, so the two sets
should be made alternately. A verdict follows the choosing-metrics rule:

* improved: at least 10 pairs, the change better in 9/10 of all pairs (ties
  count for neither), and the median shift larger than the parent's IQR;
* worse: the change's median worse than the parent's by more than the
  metric's bound (end-to-end metrics) or, for metrics without a bound, the
  mirror image of the improved rule;
* unresolved: fewer than 10 pairs, or a parent spread wider than the bound
  (or than the shift, without a bound) unless every change run is better
  than every parent run;
* unchanged: otherwise.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(directory: Path) -> dict:
    """{(workload, trace): {metric: [values in start order]}}."""
    records = [json.loads(p.read_text()) for p in directory.glob("*.json")]
    records.sort(key=lambda r: r["provenance"]["started_at"])
    out: dict = {}
    for r in records:
        series = out.setdefault((r["workload"], r["trace"]), {})
        for name, m in r["result"]["metrics"].items():
            series.setdefault(name, []).append(m["value"])
    return out


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list, change: list, better: str, bound: float | None) -> str:
    n = min(len(parent), len(change))
    if n < 10:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (c - p) for p, c in zip(parent[:n], change[:n])]
    wins = sum(d > 0 for d in diffs)
    losses = sum(d < 0 for d in diffs)
    q1, mid, q3 = quartiles(parent)
    iqr = q3 - q1
    gain = sign * (statistics.median(change) - mid)  # > 0: the change is better
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= 0.9 * n and gain > iqr:
        return "improved"
    if bound is not None:
        if -gain > bound * abs(mid):
            return "worse"
        if iqr > bound * abs(mid) and not all_better:
            return "unresolved"
        return "unchanged"
    if losses >= 0.9 * n and -gain > iqr:
        return "worse"
    return "unchanged" if abs(gain) <= iqr or all_better else "unresolved"


def compare(parent_dir: Path, change_dir: Path, spec_path: Path) -> int:
    spec = json.loads(spec_path.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(parent_dir), load(change_dir)
    print("workload,trace,metric,unit,pairs,parent_median,parent_q1,parent_q3,"
          "change_median,change_q1,change_q3,verdict")
    for key in sorted(set(parent) | set(change)):
        p_series, c_series = parent.get(key, {}), change.get(key, {})
        for name in [m for m in metrics if m in p_series or m in c_series]:
            p, c = p_series.get(name, []), c_series.get(name, [])
            m = metrics[name]
            cells = []
            for values in (p, c):
                q1, mid, q3 = quartiles(values) if values else (float("nan"),) * 3
                cells += [repr(mid), repr(q1), repr(q3)]
            v = verdict(p, c, m["better"], m.get("bound")) if p and c else "unresolved"
            print(",".join([key[0], str(key[1]), name, m["unit"], str(min(len(p), len(c))),
                            *cells, v]))
    return 0
