"""Compare the artifacts of the benchmark's passes under two `src/` trees.

Runs seeds 1-3 of the three benchmark workloads (bench/workloads.py),
then the fixed configs of EXTRA that no benchmark config reaches, each
manifest as one bench/one_pass.py pass under each tree (tools/ab.py's
runner), so the CLI runs in process, one after the other, as the
benchmark runs them.  It prints for every report.json and CSV either
"byte-identical" or the largest absolute and relative difference of any
number in it, and an artifact that only the head writes.  Each benchmark
manifest also runs once traced under the head, as bench/run.py --trace 1
runs it, and a traced run that exits or writes otherwise than the head's
untraced run is named; EXTRA, which the benchmark never traces, is not.
Ends with three summary lines: for the benchmark's artifacts and for
EXTRA's, how many of the base's are byte-identical and the largest
relative difference, and how many traced runs match.  For each workload
and seed it also prints the benchmark's ``margin_digits`` (the least
margin of any run) under each tree, so that a change to the rounding of
a checked result shows before the benchmark runs.  Exits 1 if any
check's pass/fail, or any run's exit code, differs between the trees, or
if a traced run differs from its untraced run.

    python3 tools/compare_outputs.py --base /path/to/base/src --head src
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402
from ab import margin, one_pass  # noqa: E402

SEEDS = (1, 2, 3)

# Configs that no benchmark config reaches, run as well: the pipeline
# negative powers m2, m3, m4, s2, e2 and e3 (the Bers chain on a table of
# central differences in z of a base without closed forms, at n = 2 to 4;
# m4 is the first order whose table takes the wider third differences),
# the symbolic workload's seed-1 Schroedinger scan with a step h (the
# differenced Laplacian), the 512-node pipeline verify-reproducing of both
# kinds, each 4,608 walks in hundreds of array jobs, the first Cauchy
# formula over a swapped pipeline family whose f has partials that are not
# constant, and a closed-form second formula at 12 user probes: 12 copies
# of the 512-node contour, in array jobs of 4, 4 and 4 copies.
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
    ("build-powers-m3", "build-powers", {**_PIPELINE_POWERS, "n": 3}),
    ("build-powers-m4", "build-powers", {**_PIPELINE_POWERS, "n": 4}),
    ("build-powers-e3", "build-powers", {
        **_PIPELINE_POWERS, "f": "exp(x)*cos(y)", "separable": {"phi": "exp(x)", "psi": "cos(y)"},
        "region": {"x0": 1.0, "x1": 2.0, "y0": -0.5, "y1": 0.5}, "n": 3,
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
    ("cauchy-second-user-probes", "cauchy", {
        "kernel": "x-main", "f": "x", "formula": "second",
        "contour": {"center": [3.1, 0.2], "radius": 1, "nodes": 512},
        "interior": [[3.3, 0.25], [2.8, 0.5], [3.0, -0.4], [3.6, 0.1], [2.6, 0.0], [3.15, 0.85]],
        "exterior": [[4.8, 0.2], [3.1, 2.0], [1.5, -0.6], [4.5, -1.3], [2.0, 1.6], [3.4, -1.9]], "tol": 1e-6,
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
    """How far artifact b, whose bytes differ, is from artifact a, and the
    largest relative difference of its numbers (inf when the shapes
    differ)."""
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


def compare(label: str, manifest: list[dict], case: Path, base_src: Path, head_src: Path,
            traced: bool = False) -> tuple[bool, list, list]:
    """Run the manifest as one pass under each tree and print each
    artifact's difference and the least margin under each tree; with
    ``traced``, also one traced pass of the head, naming each run that
    exits or writes otherwise than the head's untraced run.  Returns
    whether a run's exit code or a check's pass/fail changed or a traced
    run differed; for each of the base's artifacts whether it is
    byte-identical and its largest relative difference (None when the head
    did not write it); and for each traced run whether it matched."""
    changed = False
    results = []
    path = case / "manifest.json"
    path.write_text(json.dumps(manifest))
    passes = {tree: one_pass(src, path, case / tree) for tree, src in (("base", base_src), ("head", head_src))}
    for b, h in zip(passes["base"]["runs"], passes["head"]["runs"]):
        name = b["name"]
        base, head = case / "base" / name, case / "head" / name
        if b["exit"] != h["exit"]:
            changed = True
            print(f"{label} {name}: exit code {b['exit']} -> {h['exit']}")
        if verdicts(base / "report.json") != verdicts(head / "report.json"):
            changed = True
            print(f"{label} {name}: check pass/fail changed")
        for artifact, digest in b["digests"].items():
            if artifact not in h["digests"]:
                changed = True
                results.append((False, None))
                print(f"{label} {name}/{artifact}: missing")
                continue
            same = h["digests"][artifact] == digest
            text, rel = ("byte-identical", 0.0) if same else difference(base / artifact, head / artifact)
            results.append((same, rel))
            print(f"{label} {name}/{artifact}: {text}")
        for artifact in sorted(h["digests"].keys() - b["digests"].keys()):
            print(f"{label} {name}/{artifact}: written by the head only")
    matched = []
    if traced:
        runs = one_pass(head_src, path, case / "traced", case / "spans.npz")["runs"]
        for plain, r in zip(passes["head"]["runs"], runs):
            matched.append((r["exit"], r["digests"]) == (plain["exit"], plain["digests"]))
            if not matched[-1]:
                changed = True
                print(f"{label} {r['name']}: the traced run exits or writes otherwise than the untraced run")
    margins = [margin(passes[tree]) for tree in ("base", "head")]
    print(f"{label} margin_digits: " + " -> ".join("none" if math.isnan(m) else f"{m:.4f}" for m in margins))
    return changed, results, matched


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
    bench_results, traced = [], []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        base, head = args.base.resolve(), args.head.resolve()
        for workload in sorted(workloads.WORKLOADS):
            for seed in SEEDS:
                case = root / f"{workload}-{seed}"
                manifest = workloads.write(workload, seed, case / "configs")
                case_changed, results, matched = compare(f"{workload} seed {seed}", manifest, case, base, head, True)
                changed |= case_changed
                bench_results += results
                traced += matched
        case_changed, extra_results, _ = compare("extra", write_extra(root / "extra" / "configs"), root / "extra", base, head)
        changed |= case_changed
    print(summary("benchmark artifacts", bench_results))
    print(summary("extra artifacts", extra_results))
    print(f"{sum(traced)} of {len(traced)} traced benchmark runs exit and write as untraced")
    if changed:
        print("a check's pass/fail or a run's exit code changed, or a traced run differed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
