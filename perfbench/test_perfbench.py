"""Checks of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "mc_fig1": dict(grid=(0.5, 1.0), n=32, trials=2, rs_passes=2),
    "mc_replica": dict(grid=(1.0,), n=16, trials=2, rs_passes=2),
    "replica_grid": dict(grid=(0.5, 1.0), quad_order=8, rs_passes=2),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, sizes in TINY.items():
        monkeypatch.setitem(wl.WORKLOADS, name, dataclasses.replace(wl.WORKLOADS[name], **sizes))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def _run(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(wl.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_emitted_with_unit(tiny, capsys, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        metrics = _run(capsys, workload, trace)["metrics"]
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in metrics.items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_counts_repeat_across_traced_runs(tiny, capsys, workload):
    first, second = (_run(capsys, workload, 1)["metrics"] for _ in range(2))
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    assert "rs.rs_update.calls" in counts and "estimators.lasso.iterations" in counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
