"""Benchmark for morphcalc: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload verify|grassmann|factor|forms \
        --seed N --seconds S --trace 0|1

Runs whole rounds of the workload, each in a fresh Python process started one
at a time (perfbench/worker.py), until S seconds have passed.  The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced rounds and reports the per-layer metrics, whose traced
minus untraced run time is trace.overhead_s.  Every time is scaled to a
nominal machine speed by a reference timed in each round (see README.md,
"Timing on a shared machine").  The same JSON is written to
perfbench/out/.  Exits non-zero without a result if the checkout has no
morphcalc source or a round does not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "grassmann", "factor", "forms")
TIME_LIMIT_S = 170.0  # every round must end within this, so the run ends before 180 s
# Median time of checks.reference_work() on the machine of the README's figures
# (2 cores, Python 3.11.7).  Times are reported as if the reference took this long.
REF_NOMINAL_MS = 2.25

# Span name -> reported metrics: calls and/or self time.
LAYER_SPANS = {
    "quantity.mul": ("calls", "self_s"),
    "quantity.div": ("calls", "self_s"),
    "quantity.r_coeffs": ("calls", "self_s"),
    "quantity.render": ("self_s",),
    "quantity.mixed": ("calls", "self_s"),
    "quantity.classify": ("calls", "self_s"),
    "lang.parse": ("calls", "self_s"),
    "lang.eval": ("self_s",),
    "catalog.build": ("calls", "self_s"),
    "factorize.factor": ("calls", "self_s"),
    "stability.reachable": ("calls", "self_s"),
    "corpus.load": ("self_s",),
    "corpus.verify": ("self_s",),
    "cli.run": ("calls", "self_s"),
}
LAYER_COUNTS = ("quantity.mul.term_products", "quantity.div.inexact",
                "factorize.trial_divisions", "stability.states_expanded")


def run_round(workload, seed, traced, timeout):
    """One worker process; returns its report, or None after saying why on stderr."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"round did not end within {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(proc.stderr, end="", file=sys.stderr)
        print(f"round exited with status {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def timed_phase_s(rounds):
    """Each operation's median latency across rounds, added up.

    Every round runs the same operations, so the per-operation median drops the
    short slowdowns a shared machine puts on a few rounds of one operation.
    """
    return sum(statistics.median(ms) for ms in zip(*(r["op_ms"] for r in rounds))) / 1000.0


def end_to_end(rounds):
    op_ms = [ms for r in rounds for ms in r["op_ms"]]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "run_s": (timed_phase_s(rounds), "s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(op_ms, n=10)[8], "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
    }


def at_nominal_speed(report):
    """Scale a round's times by how fast the reference ran in it (see README)."""
    slowdown = statistics.median(report["ref_ms"]) / REF_NOMINAL_MS
    report["setup_s"] /= slowdown
    report["op_ms"] = [ms / slowdown for ms in report["op_ms"]]
    if "layers" in report:
        self_s = report["layers"]["self_s"]
        for name in self_s:
            self_s[name] /= slowdown
    return report


def per_layer(traced, untraced):
    """Counts from one traced round (all must agree), self times as medians."""
    layers = [r["layers"] for r in traced]
    first = layers[0]
    same = all(l["calls"] == first["calls"] and l["counts"] == first["counts"] for l in layers)
    out = {}
    for span, kinds in LAYER_SPANS.items():
        if "calls" in kinds:
            out[f"{span}.calls"] = (first["calls"].get(span, 0), "count")
        if "self_s" in kinds:
            out[f"{span}.self_s"] = (
                statistics.median(l["self_s"].get(span, 0.0) for l in layers), "s")
    for name in LAYER_COUNTS:
        out[name] = (first["counts"][name], "count")
    trials = first["counts"]["factorize.trial_divisions"]
    exact = first["counts"]["factorize.exact_divisions"]
    out["factorize.hit_ratio"] = (exact / trials if trials else 0.0, "ratio")
    out["trace.overhead_s"] = (timed_phase_s(traced) - timed_phase_s(untraced), "s")
    return out, same


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "morphcalc" / "__init__.py").is_file():
        print(f"no morphcalc source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import checks

    broken = checks.self_test()
    for line in broken:
        print(f"check self-test: {line}", file=sys.stderr)

    rounds = []
    start = monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        report = run_round(args.workload, args.seed, traced,
                           TIME_LIMIT_S - (monotonic() - start))
        if report is None:
            return 1
        report["traced"] = traced
        rounds.append(at_nominal_speed(report))
        if monotonic() - start >= args.seconds and (not args.trace or len(rounds) >= 2):
            break

    correct = not broken and all(r["correct"] for r in rounds)
    for r in rounds:
        for line in r["errors"] + r["wrong"]:
            print(line, file=sys.stderr)
    if args.trace:
        metrics, same = per_layer([r for r in rounds if r["traced"]],
                                  [r for r in rounds if not r["traced"]])
        if not same:
            print("traced rounds disagree on their counts", file=sys.stderr)
            correct = False
    else:
        metrics = end_to_end(rounds)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    text = json.dumps(result)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(f"{args.workload}: {len(rounds)} rounds in {monotonic() - start:.1f} s", file=sys.stderr)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
