import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
_SPEC = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_summary)


_END_TO_END = ("run_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "setup_s")


def _write(directory, workload, seed, trace, **values):
    directory.mkdir(exist_ok=True)
    if not trace:
        values = {**dict.fromkeys(_END_TO_END, 1.0), **values}
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}
    (directory / f"result-{workload}-{seed}-trace{trace}.json").write_text(json.dumps(result))


def test_pairs_medians_quartiles_and_wins(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in enumerate([(1.0, 0.5), (2.0, 0.75), (3.0, 3.5), (4.0, 1.0)], 1):
        _write(parent, "forms", seed, 0, run_s=p)
        _write(change, "forms", seed, 0, run_s=c)
    _write(parent, "forms", 9, 0, run_s=9.0)  # no partner: not a pair
    _write(parent, "forms", 77, 1, **{"quantity.mixed.calls": 22})
    _write(change, "forms", 77, 1, **{"quantity.mixed.calls": 22})
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--parent", str(parent), "--change", str(change),
                               "--out", str(out), "--note", "test host"]) == 0
    summary = json.loads(out.read_text())
    forms = summary["workloads"]["forms"]
    assert forms["pairs"] == 4 and forms["seeds"] == [1, 2, 3, 4]
    assert forms["correct"] is True and forms["failed"] == {"parent": 0, "change": 0}
    run_s = forms["metrics"]["run_s"]
    assert run_s["parent"] == {"median": 2.5, "q1": 1.25, "q3": 3.75}
    assert run_s["change"]["median"] == 0.875
    assert run_s["change_wins"] == 3
    assert run_s["change_over_parent"] == 0.875 / 2.5
    assert forms["metrics"]["peak_rss_mb"]["change_wins"] == 0  # ties are no win
    assert summary["traced"]["forms-77"]["change"] == {"quantity.mixed.calls": 22}
    assert summary["host"].endswith("; test host")


def test_no_pairs_is_an_error(tmp_path):
    _write(tmp_path / "parent", "forms", 1, 0, run_s=1.0)
    _write(tmp_path / "change", "forms", 2, 0, run_s=1.0)
    assert bench_summary.main(["--parent", str(tmp_path / "parent"),
                               "--change", str(tmp_path / "change"),
                               "--out", str(tmp_path / "out.json")]) == 1
