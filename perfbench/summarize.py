"""Summarize benchmark result sets: median, quartiles and spread per metric.

Reads every ``.perfbench_work/*/result.json`` that ``run.py`` left and prints,
per workload and mode (trace 0 or 1), each metric's median, first and third
quartiles and the quartile spread as a share of the median, over the runs
(one run per seed).  ``--out FILE`` also writes the table as JSON, which is
how ``perfbench/baseline.json`` was made.  Usage, from the repository root:

    python3 perfbench/summarize.py [--out perfbench/baseline.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(result_sets: list[dict]) -> dict:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for r in result_sets:
        groups[(r["workload"], r["trace"])].append(r)
    table = {}
    for (workload, trace), runs in sorted(groups.items()):
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs if r["metrics"].get(name) is not None]
            if not values:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else None,
            }
        table[f"{workload}/trace{trace}"] = {
            "runs": len(runs),
            "seeds": sorted(r["seed"] for r in runs),
            "failed_runs": sum(1 for r in runs if r["fail_ratio"] > 0),
            "environment": runs[0]["environment"],
            "metrics": metrics,
        }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    paths = sorted((ROOT / ".perfbench_work").glob("*/result.json"))
    if not paths:
        print("no result sets under .perfbench_work/", file=sys.stderr)
        return 1
    table = summarize([json.loads(p.read_text()) for p in paths])
    for key, group in table.items():
        print(f"{key}: {group['runs']} runs, seeds {group['seeds']}, {group['failed_runs']} with failures")
        for name, m in group["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:32s} median {m['median']:<14.6g} q1 {m['q1']:<14.6g} q3 {m['q3']:<14.6g} spread {spread}")
    if args.out:
        args.out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
