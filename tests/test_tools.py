import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import ab  # noqa: E402


def _pass(*runs: tuple) -> dict:
    """A bench/one_pass.py result with runs given as (exit code, verdict)."""
    return {"runs": [{"name": f"run-{k}", "exit": code, "pass": verdict} for k, (code, verdict) in enumerate(runs)]}


def test_ab_counts_a_run_failed_only_where_the_head_changes_it():
    # run 0 passes under both trees, run 1 fails under both, run 2 fails
    # only under the head: only run 2 counts, while the raw counts keep both
    base = _pass((0, True), (2, False), (0, True))
    head = _pass((0, True), (2, False), (1, False))
    assert ab.changed(base, base) == 0
    assert ab.changed(base, head) == 1
    assert (ab.failures(base), ab.failures(head)) == (1, 2)
