"""The bivekua benchmark: `vekua` CLI runs on seeded configs, closed loop.

    python3 bench/run.py --workload closed-form --seed 1 --seconds 40 --trace 0

One client, one process at a time: each pass runs the workload's CLI runs
in a fresh child interpreter (bench/one_pass.py), and the next pass starts
when the previous one has returned, until --seconds is used up.  Every CLI
run is checked: it fails if it exits non-zero, fails a check in its
report.json, or writes a report or CSV whose bytes differ from the first
run of the same sources and seed (kept under .bench_out/refs).

With --trace 0 the result holds the end-to-end metrics, medians over
passes, with times scaled to a reference machine speed measured in each
pass (see bench/README.md).  With --trace 1, untraced and traced passes
alternate and the result holds the per-layer metrics of bench/tracer.py
plus the tracing overhead.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import METRICS as LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
HARD_LIMIT_S = 170.0  # every run must end within 180 s
# Reference-job seconds (one_pass.reference_s) at the reference speed.  The
# speed of this shared machine drifts by up to 1.8x over minutes; timings
# scaled by REF_S / (reference time measured in the same child) moved about
# a third as much between 40-s runs as raw timings did.
REF_S = 0.15

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("margin_digits", "digits"),
)
TRACE_METRICS = (
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
)


def source_hash() -> str:
    """Hash of the program and benchmark sources: one key per commit."""
    h = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "bench"):
        for p in sorted(base.rglob("*.py")):
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def run_pass(manifest_path: Path, out: Path, timeout: float, spans: Path | None, pass_id: int):
    """One child pass; returns (result or None, elapsed seconds)."""
    cmd = [
        sys.executable, str(ROOT / "bench" / "one_pass.py"),
        "--manifest", str(manifest_path), "--out", str(out), "--src", str(ROOT / "src"),
        "--pass-id", str(pass_id),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"pass {pass_id} timed out after {timeout:.0f} s\n")
        return None, time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"pass {pass_id} exited {proc.returncode}:\n{proc.stderr}\n")
        return None, elapsed
    return json.loads(lines[-1]), elapsed


def median(values):
    return statistics.median(values) if values else math.nan


def speed(p) -> float:
    """REF_S over the pass's mean reference time: the factor that turns the
    pass's seconds into seconds on a machine of reference speed."""
    return REF_S / statistics.mean(p["reference_s"])


def pass_wall(p) -> float:
    return sum(r["wall_s"] for r in p["runs"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bivekua CLI benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bivekua" / "cli.py").is_file():
        sys.stderr.write(f"no bivekua sources under {ROOT / 'src'}: run from a checkout\n")
        return 2

    start = time.perf_counter()
    work = OUT / args.workload / f"seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    manifest = workloads.write(args.workload, args.seed, work / "configs")
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    ref_path = OUT / "refs" / f"{source_hash()}-{args.workload}-{args.seed}.json"
    reference = json.loads(ref_path.read_text()) if ref_path.is_file() else None

    plain, traced, durations = [], [], []
    attempted = failed = 0
    margin = None
    while True:
        is_traced = bool(args.trace) and len(plain) > len(traced)
        pass_id = len(plain) + len(traced)
        spans = work / "spans" / f"pass{pass_id}.npz" if is_traced else None
        if spans is not None:
            spans.parent.mkdir(parents=True, exist_ok=True)
        remaining = HARD_LIMIT_S - (time.perf_counter() - start)
        result, elapsed = run_pass(manifest_path, work / "out", remaining, spans, pass_id)
        durations.append(elapsed)
        attempted += len(manifest)
        if result is None:
            failed += len(manifest)
        else:
            if reference is None:
                reference = {r["name"]: r["digests"] for r in result["runs"]}
                ref_path.parent.mkdir(parents=True, exist_ok=True)
                ref_path.write_text(json.dumps(reference, indent=1, sort_keys=True))
            for r in result["runs"]:
                if r["exit"] != 0 or not r["pass"] or r["digests"] != reference.get(r["name"]):
                    failed += 1
                    sys.stderr.write(f"failed: {r['name']} (exit {r['exit']}, pass {r['pass']})\n")
            margins = [r["margin"] for r in result["runs"] if r["margin"] is not None]
            if margin is None and margins:
                margin = min(margins)
            (traced if is_traced else plain).append(result)
        if result is None:
            break
        used = time.perf_counter() - start
        owed_traced = bool(args.trace) and not traced
        limit = HARD_LIMIT_S if owed_traced else min(args.seconds, HARD_LIMIT_S)
        if used + max(durations) > limit:
            break

    walls = [pass_wall(p) * speed(p) for p in plain]
    if args.trace:
        per_pass = [p["traced"]["metrics"] for p in traced]
        # counts repeat exactly from pass to pass; times take the median
        values = {
            name: (per_pass[0][name] if unit == "count" and per_pass else median([m[name] for m in per_pass]))
            for name, unit, _ in LAYER_METRICS
        }
        traced_wall = median([p["traced"]["wall_s"] * speed(p) for p in traced])
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - median(walls)
        values["trace.overhead_frac"] = (traced_wall - median(walls)) / median(walls)
        values["trace.spans"] = traced[0]["traced"]["spans"] if traced else math.nan
        units = [(name, unit) for name, unit, _ in LAYER_METRICS] + list(TRACE_METRICS)
    else:
        values = {
            "wall_s": median(walls),
            "setup_s": median([p["setup_s"] * speed(p) for p in plain]),
            "peak_rss_mb": median([p["rss_mb"] for p in plain]),
            "margin_digits": margin if margin is not None else math.nan,
        }
        units = END_TO_END
    metrics = {name: (values[name], unit) for name, unit in units}

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {attempted} CLI runs, {failed} failed")
    print(f"  fail_frac = {failed / attempted:.4g} ratio")
    if plain:
        raw = [pass_wall(p) for p in plain]
        print(f"  as measured, before the speed correction: pass wall median "
              f"{median(raw):.4f} s (min {min(raw):.4f}, max {max(raw):.4f}), set-up median "
              f"{median([p['setup_s'] for p in plain]):.4f} s, machine speed median "
              f"{median([speed(p) for p in plain]):.3f} of reference")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    correct = failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
