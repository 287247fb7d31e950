"""Summarise paired perfbench runs of two checkouts as one BENCH_<n>.json.

    python3 tools/bench_summary.py --parent DIR --change DIR --out BENCH_<n>.json \
        [--note TEXT]

Each DIR holds the result JSONs that `perfbench/run.py` writes to
perfbench/out/, named result-<workload>-<seed>-trace<0|1>.json.  A run of the
parent checkout and a run of the change with the same workload and seed make a
pair.  For every untraced pair set the summary gives, per end-to-end metric of
BENCHMARK.json, both sides' median and quartiles, the change/parent ratio of
the medians, and in how many pairs the change was better.  Traced runs
(trace1) are copied as they are, one per workload and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"result-(\w+)-(\d+)-trace([01])\.json$")


def load_results(directory):
    """{(workload, seed, trace): result} for the result JSONs in a directory."""
    out = {}
    for path in sorted(Path(directory).iterdir()):
        match = NAME.match(path.name)
        if match:
            workload, seed, trace = match.groups()
            out[workload, int(seed), int(trace)] = json.loads(path.read_text())
    return out


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarise(parent, change, metrics, note=""):
    """The summary dict for two {(workload, seed, trace): result} maps."""
    summary = {
        "host": f"{os.cpu_count()} CPUs, {platform.machine()}, {platform.system()}, "
                f"Python {platform.python_version()}" + (f"; {note}" if note else ""),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1",
        "workloads": {},
        "traced": {},
    }
    pairs = sorted(parent.keys() & change.keys())
    for workload in sorted({w for w, _, trace in pairs if trace == 0}):
        seeds = [s for w, s, trace in pairs if w == workload and trace == 0]
        sides = {name: [runs[workload, s, 0] for s in seeds]
                 for name, runs in (("parent", parent), ("change", change))}
        entry = {
            "pairs": len(seeds),
            "seeds": seeds,
            "correct": all(r["correct"] for runs in sides.values() for r in runs),
            "failed": {name: sum(r["failed"] for r in runs) for name, runs in sides.items()},
            "metrics": {},
        }
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [r["metrics"][name]["value"] for r in runs]
                      for side, runs in sides.items()}
            stats = {side: spread(v) for side, v in values.items()}
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(values["parent"], values["change"]))
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": stats["parent"],
                "change": stats["change"],
                "change_over_parent": stats["change"]["median"] / stats["parent"]["median"],
                "change_wins": wins,
            }
        summary["workloads"][workload] = entry
    for workload, seed, _ in (key for key in pairs if key[2] == 1):
        summary["traced"][f"{workload}-{seed}"] = {
            side: {name: m["value"] for name, m in runs[workload, seed, 1]["metrics"].items()}
            for side, runs in (("parent", parent), ("change", change))
        }
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="result JSONs of the parent checkout")
    ap.add_argument("--change", required=True, help="result JSONs of the change")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--note", default="", help="added to the host description")
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summary = summarise(load_results(args.parent), load_results(args.change),
                        metrics, args.note)
    if not summary["workloads"]:
        print("no workload has a run on both sides", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
