"""Paired benchmark passes of two `src/` trees, base and head, alternating.

Runs bench/one_pass.py passes of one workload's seeded manifest
(bench/workloads.py) under a copy of each tree as it stands, base and head
back to back in fresh interpreters, so that the two passes of a pair see
the same machine load; which side runs first alternates from pair to pair.
The copies sit at paths of one length (base/src and head/src in a
temporary directory), since a pass's peak RSS moves with the length of its
tree's path.  For each end-to-end metric it prints both medians, the
median paired difference (head - base), the head's wins out of the pairs
(ties count for neither side) and the base's interquartile range.
`wall_s` and `setup_s` are scaled by each pass's reference job as
bench/run.py scales them; `pass_wall_s` and `setup_raw_s` are the same
times as measured.  Beside them it prints each run's median wall time, as
measured, under each tree and the head's wins.  It also counts the runs
that failed (non-zero exit or a failed check) under each tree, the runs
whose exit code or verdict under the head differs from the base's in the
same pair, and the pairs whose artifacts are byte-identical.  --json
writes the rows, with every pass's values.  Exits 1 if a run's exit code
or verdict differs from the base's: a run that fails under both trees
does not count.  The workload ``extra`` runs, as one
manifest, the fixed configs of tools/compare_outputs.py's EXTRA, which no
benchmark config reaches (it takes no seed).

    python3 tools/ab.py --base /path/to/base/src --head src --workload closed-form \\
        [--seed 1] [--pairs 10] [--json rows.json]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402
from run import pass_wall, speed  # noqa: E402


def margin(p: dict) -> float:
    """The least margin of a pass's runs, as bench/run.py takes its
    ``margin_digits`` (nan when no run has one)."""
    return min((r["margin"] for r in p["runs"] if r["margin"] is not None), default=math.nan)


# name, unit, better, value of a pass (bench/one_pass.py's result)
METRICS = (
    ("wall_s", "s", "lower", lambda p: pass_wall(p) * speed(p)),
    ("setup_s", "s", "lower", lambda p: p["setup_s"] * speed(p)),
    ("pass_wall_s", "s", "lower", pass_wall),
    ("setup_raw_s", "s", "lower", lambda p: p["setup_s"]),
    ("peak_rss_mb", "MB", "lower", lambda p: p["rss_mb"]),
    ("margin_digits", "digits", "higher", margin),
)


def one_pass(src: Path, manifest: Path, out: Path, spans: Path | None = None) -> dict:
    """One bench/one_pass.py pass with bivekua from ``src``, traced into
    ``spans`` when given, as bench/run.py --trace 1 traces."""
    cmd = [sys.executable, str(ROOT / "bench" / "one_pass.py"), "--manifest", str(manifest),
           "--out", str(out), "--src", str(src), *(["--spans", str(spans)] if spans else [])]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"pass under {src} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failures(p: dict) -> int:
    return sum(r["exit"] != 0 or not r["pass"] for r in p["runs"])


def changed(base: dict, head: dict) -> int:
    """The runs of one pair whose exit code or verdict under the head
    differs from the base's."""
    return sum((b["exit"], b["pass"]) != (h["exit"], h["pass"]) for b, h in zip(base["runs"], head["runs"]))


def row(base: list[float], head: list[float], better: str) -> dict:
    """Both medians, the median paired difference, the head's wins and the
    base's interquartile range."""
    sign = 1 if better == "lower" else -1
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive") if len(base) > 1 else (base[0],) * 3
    return {
        "base_median": statistics.median(base),
        "head_median": statistics.median(head),
        "median_paired_diff": statistics.median(h - b for b, h in zip(base, head)),
        "head_wins": sum(sign * (h - b) < 0 for b, h in zip(base, head)),
        "base_iqr": q3 - q1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="the src/ tree compared against")
    parser.add_argument("--head", required=True, type=Path, help="the src/ tree under test")
    parser.add_argument("--workload", choices=[*sorted(workloads.WORKLOADS), "extra"], required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path, default=None, help="write the rows here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    passes: dict[str, list[dict]] = {"base": [], "head": []}
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "manifest.json"
        if args.workload == "extra":
            from compare_outputs import write_extra

            entries = write_extra(Path(tmp) / "configs")
        else:
            entries = workloads.write(args.workload, args.seed, Path(tmp) / "configs")
        manifest.write_text(json.dumps(entries))
        ignore = shutil.ignore_patterns("__pycache__")
        copies = {side: shutil.copytree(tree, Path(tmp) / side / "src", ignore=ignore) for side, tree in trees.items()}
        for pair in range(args.pairs):
            for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
                passes[side].append(one_pass(copies[side], manifest, Path(tmp) / side))
    identical = sum(
        [r["digests"] for r in b["runs"]] == [r["digests"] for r in h["runs"]]
        for b, h in zip(passes["base"], passes["head"])
    )
    failed = {side: sum(map(failures, ps)) for side, ps in passes.items()}
    differ = sum(map(changed, passes["base"], passes["head"]))
    rows = {}
    for name, unit, better, value in METRICS:
        runs = {side: [value(p) for p in ps] for side, ps in passes.items()}
        rows[name] = {"unit": unit, "better": better, **row(runs["base"], runs["head"], better), "runs": runs}
    run_rows = {}
    for k, r in enumerate(passes["base"][0]["runs"]):
        runs = {side: [p["runs"][k]["wall_s"] for p in ps] for side, ps in passes.items()}
        run_rows[r["name"]] = {**row(runs["base"], runs["head"], "lower"), "runs": runs}

    label = args.workload if args.workload == "extra" else f"{args.workload} seed {args.seed}"
    print(f"{label}, {args.pairs} pairs; base {trees['base']}, head {trees['head']}")
    print(f"failed runs: base {failed['base']}, head {failed['head']}; exit or verdict changed in {differ} runs; "
          f"artifacts byte-identical in {identical} of {args.pairs} pairs")
    print(f"{'metric':<14} {'base median':>12} {'head median':>12} {'change':>8} {'paired diff':>12} "
          f"{'head wins':>10} {'base IQR':>10}")
    for name, r in rows.items():
        change = (r["head_median"] - r["base_median"]) / abs(r["base_median"]) if r["base_median"] else math.nan
        print(f"{name:<14} {r['base_median']:>12.6g} {r['head_median']:>12.6g} {change:>+8.1%} "
              f"{r['median_paired_diff']:>+12.4g} {r['head_wins']:>5}/{args.pairs:<4} {r['base_iqr']:>10.4g}  "
              f"{r['unit']}, {r['better']} is better")
    print(f"{'run wall_s':<34} {'base median':>12} {'head median':>12} {'change':>8} {'head wins':>10}")
    for name, r in run_rows.items():
        change = (r["head_median"] - r["base_median"]) / r["base_median"]
        print(f"{name:<34} {r['base_median']:>12.6g} {r['head_median']:>12.6g} {change:>+8.1%} "
              f"{r['head_wins']:>5}/{args.pairs:<4}")
    if args.json is not None:
        args.json.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
            "base": str(trees["base"]), "head": str(trees["head"]),
            "failed": failed, "changed": differ, "identical_pairs": identical, "metrics": rows, "run_wall_s": run_rows,
        }, indent=1) + "\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
