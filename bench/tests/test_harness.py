"""Self-test of the benchmark harness on tiny versions of each workload.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _traced_pass(workload: str, tmp: Path, pass_id: int):
    manifest = workloads.write(workload, 7, tmp / "configs", tiny=True)
    (tmp / "manifest.json").write_text(json.dumps(manifest))
    spans_path = tmp / f"pass{pass_id}.npz"
    result, _ = run.run_pass(tmp / "manifest.json", tmp / "out", 170, spans_path, pass_id)
    assert result is not None
    with np.load(spans_path) as f:
        spans = {k: f[k] for k in f.files}
    return result, spans


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_passes(workload, tmp_path):
    first, spans = _traced_pass(workload, tmp_path, 1)
    second, _ = _traced_pass(workload, tmp_path, 2)

    for r in first["runs"] + second["runs"]:
        assert r["exit"] == 0 and r["pass"], r
    assert [r["digests"] for r in first["runs"]] == [r["digests"] for r in second["runs"]]

    # spans nest: each child opens after its parent and closes inside it
    parent = spans["parent"]
    assert np.all(parent < np.arange(len(parent)))
    child = parent >= 0
    assert np.all(spans["start"][child] >= spans["start"][parent[child]])
    assert np.all(spans["end"][child] <= spans["end"][parent[child]])
    assert np.all(spans["end"] >= spans["start"])
    assert np.all(spans["pass_id"] == 1)
    assert len(np.unique(spans["name"][~child])) == len({r["command"] for r in first["runs"]})

    # self times are non-negative and add up to the traced wall time
    self_t = tracer.self_times(spans)
    wall = first["traced"]["wall_s"]
    assert np.all(self_t >= -1e-9)
    assert np.sum(self_t) == pytest.approx(wall, rel=1e-9)
    layer_self = sum(v for k, v in first["traced"]["metrics"].items() if k.endswith(".self_s"))
    assert layer_self == pytest.approx(wall, rel=1e-9)

    # every count repeats exactly across two passes with the same seed
    units = {name: unit for name, unit, _ in tracer.METRICS}
    counts = [k for k, u in units.items() if u == "count"]
    a, b = first["traced"]["metrics"], second["traced"]["metrics"]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert first["traced"]["spans"] == second["traced"]["spans"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [(n, u) for n, u, _ in tracer.METRICS] + list(run.TRACE_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY


def test_seeds_change_inputs_not_work():
    a = workloads.generate("pipeline", 1)
    b = workloads.generate("pipeline", 2)
    assert a != b
    assert workloads.generate("pipeline", 1) == a
    assert [cfg["contour"]["nodes"] for _, c, cfg in a if c == "cauchy"] == [
        cfg["contour"]["nodes"] for _, c, cfg in b if c == "cauchy"
    ]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed-form", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
