"""Compare the artifacts of the benchmark configs under two `src/` trees.

Runs seeds 1-3 of the three benchmark workloads (bench/workloads.py),
then the fixed configs of EXTRA that no benchmark config reaches,
through the `vekua` CLI, once under each tree, and prints for every
report.json and CSV either "byte-identical" or the largest absolute and
relative difference of any number in it, and an artifact that only the head
writes.  Ends with two summary lines, for the benchmark's artifacts and
for EXTRA's: how many of the base's are byte-identical, and the largest
relative difference.  For each workload and seed it also prints
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

# Configs that no benchmark config reaches, run as well: the pipeline
# negative powers m2, s2 and e2 (nested differences of a base without
# closed forms), the symbolic workload's seed-1 Schroedinger scan with a
# step h (the differenced Laplacian), the 512-node pipeline
# verify-reproducing of both kinds, each 4,608 walks in hundreds of array
# jobs, and the first Cauchy formula over a swapped pipeline family whose f
# has partials that are not constant.
_PIPELINE_CONTOUR = {
    "kernel": "pipeline", "f": "x", "zeta0": [0.5, 0],
    "contour": {"center": [2, 0], "radius": 0.3, "nodes": 512}, "tol": 1e-6,
}
_PIPELINE_POWERS = {
    "kernel": "pipeline", "f": "1*x", "zeta0": [0.5, 0], "separable": {"phi": "x", "psi": "1"}, "n": 2,
    "region": {"x0": 1.5, "x1": 2.5, "y0": -0.5, "y1": 0.5}, "tol": 1e-6,
}
EXTRA = [
    ("build-powers-m2", "build-powers", _PIPELINE_POWERS),
    ("build-powers-s2", "build-powers", {
        **_PIPELINE_POWERS, "kernel_kind": "successor", "pair": {"F_sc": "1/x", "G_sc": "0", "G_vec": "x"},
    }),
    ("build-powers-e2", "build-powers", {
        **_PIPELINE_POWERS, "f": "exp(x)*cos(y)", "separable": {"phi": "exp(x)", "psi": "cos(y)"},
        "region": {"x0": 1.0, "x1": 2.0, "y0": -0.5, "y1": 0.5},
    }),
    ("residual-scan-h", "residual-scan", {
        **{name: c for name, _, c in workloads.generate("symbolic", 1)}["residual-scan-schroedinger"],
        "h": 1e-3, "tol": 1e-5,
    }),
    ("verify-reproducing-main-512", "verify-reproducing", _PIPELINE_CONTOUR),
    ("verify-reproducing-successor-512", "verify-reproducing", {
        **_PIPELINE_CONTOUR, "kernel_kind": "successor", "pair": {"F_sc": "1/x", "G_sc": "0", "G_vec": "x"},
    }),
    ("cauchy-first-pipeline", "cauchy", {
        "kernel": "pipeline", "f": "exp(x)*cos(y)", "zeta0": [0.5, 0], "formula": "first",
        "contour": {"center": [1.5, 0], "radius": 0.3, "nodes": 128}, "tol": 1e-6,
    }),
]


def write_extra(directory: Path) -> list[dict]:
    """Write one config file per run of EXTRA; return the manifest of runs."""
    directory.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, command, config in EXTRA:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        manifest.append({"name": name, "command": command, "config": str(path)})
    return manifest


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


def compare(label: str, manifest: list[dict], case: Path, base_src: Path, head_src: Path) -> tuple[bool, list]:
    """Run the manifest under both trees and print each artifact's
    difference and the least margin under each tree.  Returns whether a
    run's exit code or a check's pass/fail changed, and for each of the
    base's artifacts whether it is byte-identical and its largest relative
    difference (None when the head did not write it)."""
    changed = False
    results = []
    base_codes = run_all(base_src, manifest, case / "base")
    head_codes = run_all(head_src, manifest, case / "head")
    for run in manifest:
        name = run["name"]
        base, head = case / "base" / name, case / "head" / name
        if base_codes[name] != head_codes[name]:
            changed = True
            print(f"{label} {name}: exit code {base_codes[name]} -> {head_codes[name]}")
        if verdicts(base / "report.json") != verdicts(head / "report.json"):
            changed = True
            print(f"{label} {name}: check pass/fail changed")
        for artifact in sorted(p.name for p in base.glob("*")):
            if not (head / artifact).exists():
                changed = True
                results.append((False, None))
                print(f"{label} {name}/{artifact}: missing")
                continue
            text, rel = difference(base / artifact, head / artifact)
            results.append((text == "byte-identical", rel))
            print(f"{label} {name}/{artifact}: {text}")
        for artifact in sorted(p.name for p in head.glob("*") if not (base / p.name).exists()):
            print(f"{label} {name}/{artifact}: written by the head only")
    margins = [least_margin(case / tree, manifest) for tree in ("base", "head")]
    print(f"{label} margin_digits: " + " -> ".join("none" if m is None else f"{m:.4f}" for m in margins))
    return changed, results


def summary(what: str, results: list) -> str:
    """How many of the artifacts are byte-identical, and the largest
    relative difference."""
    worst = max((rel for _, rel in results if rel is not None), default=0.0)
    return f"{sum(same for same, _ in results)} of {len(results)} {what} byte-identical, max rel diff {worst:.3g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="the src/ tree compared against")
    parser.add_argument("--head", required=True, type=Path, help="the src/ tree under test")
    args = parser.parse_args()
    changed = False
    bench_results = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        base, head = args.base.resolve(), args.head.resolve()
        for workload in sorted(workloads.WORKLOADS):
            for seed in SEEDS:
                case = root / f"{workload}-{seed}"
                manifest = workloads.write(workload, seed, case / "configs")
                case_changed, results = compare(f"{workload} seed {seed}", manifest, case, base, head)
                changed |= case_changed
                bench_results += results
        case_changed, extra_results = compare("extra", write_extra(root / "extra" / "configs"), root / "extra", base, head)
        changed |= case_changed
    print(summary("benchmark artifacts", bench_results))
    print(summary("extra artifacts", extra_results))
    if changed:
        print("a check's pass/fail or a run's exit code changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
