"""Compare the artifacts of the benchmark configs under two `src/` trees.

Runs seeds 1-3 of the three benchmark workloads (bench/workloads.py)
through the `vekua` CLI, once under each tree, and prints for every
report.json and CSV either "byte-identical" or the largest absolute and
relative difference of any number in it, and an artifact that only the head
writes.  Ends with one summary line: how many of the base's artifacts are
byte-identical, and the largest relative difference.  For each workload and seed it also prints
the benchmark's ``margin_digits`` (the least margin of any run) under each
tree, so that a change to the rounding of a checked result shows before
the benchmark runs.  Exits 1 if any check's pass/fail, or any run's exit
code, differs between the trees.

    python3 tools/compare_outputs.py --base /path/to/base/src --head src
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def run_all(src: Path, manifest: list[dict], out: Path) -> dict[str, int]:
    """Each run of the manifest through the CLI with ``src`` on the path;
    its artifacts go to out/<run name>.  Returns the exit code of each."""
    env = dict(os.environ, PYTHONPATH=str(src))
    codes = {}
    for run in manifest:
        cmd = [sys.executable, "-m", "bivekua.cli", run["command"], "--config", run["config"],
               "--out", str(out / run["name"]), "--quiet"]
        codes[run["name"]] = subprocess.run(cmd, env=env, capture_output=True).returncode
    return codes


def numbers(path: Path) -> list[float]:
    """Every number of a report.json or CSV, in file order."""
    if path.suffix == ".json":
        out = []

        def walk(v) -> None:
            if isinstance(v, bool):
                return
            if isinstance(v, (int, float)):
                out.append(float(v))
            elif isinstance(v, dict):
                for x in v.values():
                    walk(x)
            elif isinstance(v, list):
                for x in v:
                    walk(x)

        walk(json.loads(path.read_text()))
        return out
    rows = list(csv.reader(io.StringIO(path.read_text())))
    return [float(cell) for row in rows[1:] for cell in row]


def difference(a: Path, b: Path) -> tuple[str, float]:
    """How far artifact b is from artifact a, and the largest relative
    difference of its numbers (0 when byte-identical, inf when the shapes
    differ)."""
    if a.read_bytes() == b.read_bytes():
        return "byte-identical", 0.0
    x, y = numbers(a), numbers(b)
    if len(x) != len(y):
        return f"differs in shape ({len(x)} vs {len(y)} numbers)", float("inf")
    worst_abs = max((abs(u - v) for u, v in zip(x, y)), default=0.0)
    worst_rel = max((abs(u - v) / max(abs(u), abs(v)) for u, v in zip(x, y) if u != v), default=0.0)
    return f"max abs diff {worst_abs:.3g}, max rel diff {worst_rel:.3g}", worst_rel


def verdicts(report: Path) -> list:
    """The pass/fail of each check of a report, and of the report."""
    if not report.exists():
        return [None]
    data = json.loads(report.read_text())
    return [c["pass"] for c in data["checks"]] + [data["pass"]]


def margin_digits(checks) -> float | None:
    """Min over checks with tol > 0 of log10(tol / max(|value - expected|,
    1e-16 tol)): bench/one_pass.margin_digits (that module imports the
    program when it loads, so it is not imported here)."""
    out = None
    for c in checks:
        tol = c.get("tol", 0)
        err = abs(c.get("value", math.nan) - c.get("expected", math.nan))
        if not tol > 0 or not math.isfinite(err):
            continue
        m = math.log10(tol / max(err, 1e-16 * tol))
        out = m if out is None else min(out, m)
    return out


def least_margin(out: Path, manifest: list[dict]) -> float | None:
    """The least ``margin_digits`` of the manifest's runs written to out, as
    the benchmark takes a pass's margin."""
    margins = []
    for run in manifest:
        report = out / run["name"] / "report.json"
        if report.exists():
            margin = margin_digits(json.loads(report.read_text()).get("checks", []))
            if margin is not None:
                margins.append(margin)
    return min(margins, default=None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="the src/ tree compared against")
    parser.add_argument("--head", required=True, type=Path, help="the src/ tree under test")
    args = parser.parse_args()
    changed = False
    total = identical = 0
    worst_rel = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for workload in sorted(workloads.WORKLOADS):
            for seed in SEEDS:
                case = root / f"{workload}-{seed}"
                manifest = workloads.write(workload, seed, case / "configs")
                base_codes = run_all(args.base.resolve(), manifest, case / "base")
                head_codes = run_all(args.head.resolve(), manifest, case / "head")
                for run in manifest:
                    name = run["name"]
                    base, head = case / "base" / name, case / "head" / name
                    if base_codes[name] != head_codes[name]:
                        changed = True
                        print(f"{workload} seed {seed} {name}: exit code "
                              f"{base_codes[name]} -> {head_codes[name]}")
                    if verdicts(base / "report.json") != verdicts(head / "report.json"):
                        changed = True
                        print(f"{workload} seed {seed} {name}: check pass/fail changed")
                    for artifact in sorted(p.name for p in base.glob("*")):
                        total += 1
                        if not (head / artifact).exists():
                            changed = True
                            print(f"{workload} seed {seed} {name}/{artifact}: missing")
                            continue
                        text, rel = difference(base / artifact, head / artifact)
                        identical += text == "byte-identical"
                        worst_rel = max(worst_rel, rel)
                        print(f"{workload} seed {seed} {name}/{artifact}: {text}")
                    for artifact in sorted(p.name for p in head.glob("*") if not (base / p.name).exists()):
                        print(f"{workload} seed {seed} {name}/{artifact}: written by the head only")
                margins = [least_margin(case / tree, manifest) for tree in ("base", "head")]
                print(f"{workload} seed {seed} margin_digits: "
                      + " -> ".join("none" if m is None else f"{m:.4f}" for m in margins))
    print(f"{identical} of {total} artifacts byte-identical, max rel diff {worst_rel:.3g}")
    if changed:
        print("a check's pass/fail or a run's exit code changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
