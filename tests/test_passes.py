"""A traced benchmark pass writes the bytes of an untraced one.

bench/tracer.py wraps library objects, so a traced pass may evaluate in
other batches than an untraced pass: a value that depends on its batch
shows here as a digest that differs between the two passes.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_writes_the_bytes_of_an_untraced_pass(workload, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(workloads.write(workload, 7, tmp_path / "configs", tiny=True)))
    plain, _ = run.run_pass(manifest, tmp_path / "plain", 170, None, 0)
    traced, _ = run.run_pass(manifest, tmp_path / "traced", 170, tmp_path / "pass1.npz", 1)
    assert plain is not None and traced is not None
    assert [(r["name"], r["exit"], r["digests"]) for r in traced["runs"]] == [
        (r["name"], r["exit"], r["digests"]) for r in plain["runs"]
    ]
