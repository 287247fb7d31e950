"""One round of a workload in a fresh process, so morphcalc's caches start cold.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

Imports morphcalc from the checkout's `src/`, builds the workload's inputs
(set-up), runs every operation in order (the timed phase), checks each output
apart from the timing, and prints one JSON line.  Between operations it times
`checks.reference_work()` about REFERENCE_CHUNKS times, which tells run.py how
fast the machine was during the round.  With --trace 1 the layer wrappers are
installed for the timed phase and the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE_CHUNKS = 24  # reference timings spread through the timed phase


def load_morphcalc():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import morphcalc
    import morphcalc.cli  # noqa: F401  (every layer, as the command line loads them)

    if Path(morphcalc.__file__).resolve().parent != src / "morphcalc":
        raise SystemExit(f"morphcalc imported from {morphcalc.__file__}, not from {src}")
    return morphcalc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import checks
    import tracing
    import workloads

    t0 = perf_counter()
    mc = load_morphcalc()
    OUT.mkdir(exist_ok=True)
    ops = workloads.build(args.workload, mc, args.seed, OUT)
    setup_s = perf_counter() - t0

    tracer = tracing.Tracer(mc) if args.trace else None
    if tracer:
        tracer.install()
    results, op_ms, errors, ref_ms = [], [], [], []
    stride = max(1, len(ops) // REFERENCE_CHUNKS)
    for i, op in enumerate(ops):
        if i % stride == 0:
            t = perf_counter()
            checks.reference_work()
            ref_ms.append((perf_counter() - t) * 1000.0)
        t = perf_counter()
        try:
            if tracer:
                results.append(tracer.span("bench.op", op.call, mc, results))
            else:
                results.append(op.call(mc, results))
        except Exception as exc:  # a failed operation is counted, and the run goes on
            results.append(None)
            errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        op_ms.append((perf_counter() - t) * 1000.0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    wrong = []
    for op, result in zip(ops, results):
        if result is not None:
            try:
                op.check(result)
            except checks.CheckFailed as exc:
                wrong.append(f"{op.label}: {exc}")

    report = {"setup_s": setup_s, "op_ms": op_ms, "ref_ms": ref_ms, "rss_mb": rss_mb,
              "attempted": len(ops), "failed": len(errors), "errors": errors[:20],
              "wrong": wrong[:20], "correct": not wrong}
    if tracer:
        report["layers"] = tracer.layer_metrics()
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed})
    print(json.dumps(report))


if __name__ == "__main__":
    main()
