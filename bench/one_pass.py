"""One benchmark pass in a fresh interpreter.

Times `import bivekua.cli` (the set-up every `vekua` invocation pays), then
runs each CLI run of a manifest in-process through `bivekua.cli.main`,
timing each from config read to artifacts written.  A fixed reference job
that runs no bivekua code is timed before and after the CLI runs, so that
the caller can correct for the machine's speed at the time of the pass.
Prints one JSON object: set-up time, reference times, peak RSS, and per run
the wall time, exit code, report verdict, tolerance margin and the SHA-256
of every artifact.  With --spans it traces the pass with bench/tracer.py
and writes the spans there.

    PYTHONPATH=src python3 bench/one_pass.py --manifest M --out DIR [--spans F]
"""

import sys
import time

_t0 = time.perf_counter()
import bivekua.cli  # noqa: E402  (timed: the set-up cost)

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


def _build(depth: int):
    if depth == 0:
        return complex(depth, 1)
    return _Node("+*"[depth % 2], _build(depth - 1), _build(depth - 1))


def _walk(node) -> complex:
    if isinstance(node, complex):
        return node
    a, b = _walk(node.left), _walk(node.right)
    return a + b if node.op == "+" else a * b * 0.5


def reference_s() -> float:
    """Seconds for a fixed pure-Python job shaped like the program's work
    (frozen-dataclass trees, recursion, complex arithmetic, dict updates).
    It runs no bivekua code, so no change to the program moves it; the
    garbage collector is off while it runs, so the heap the program leaves
    behind does not move it either."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(24):
            _walk(_build(11))
        table: dict = {}
        for k in range(120_000):
            key = (k % 97, k % 89)
            table[key] = table.get(key, 0) + complex(k, 1) ** 2
        return time.perf_counter() - t0
    finally:
        gc.enable()


def margin_digits(checks) -> float | None:
    """Min over checks with tol > 0 of log10(tol / max(|value - expected|,
    1e-16 tol)): how far inside its tolerance each result lands."""
    out = None
    for c in checks:
        tol = c.get("tol", 0)
        err = abs(c.get("value", math.nan) - c.get("expected", math.nan))
        if not tol > 0 or not math.isfinite(err):
            continue
        m = math.log10(tol / max(err, 1e-16 * tol))
        out = m if out is None else min(out, m)
    return out


def _outcome(out: Path) -> dict:
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir()) if p.is_file()
    } if out.is_dir() else {}
    report = out / "report.json"
    if not report.is_file():
        return {"pass": False, "margin": None, "digests": digests}
    rep = json.loads(report.read_text())
    return {
        "pass": rep.get("pass") is True,
        "margin": margin_digits(rep.get("checks", [])),
        "digests": digests,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="the src/ directory bivekua must come from")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--pass-id", type=int, default=0)
    args = parser.parse_args()

    src = Path(args.src).resolve()
    loaded = Path(bivekua.cli.__file__).resolve()
    if src not in loaded.parents:
        sys.stderr.write(f"bivekua loaded from {loaded}, not from {src}\n")
        return 2
    manifest = json.loads(Path(args.manifest).read_text())
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer(args.pass_id)
        tracer.install()

    ref_before = reference_s()
    runs = []
    for entry in manifest:
        out = Path(args.out) / entry["name"]
        shutil.rmtree(out, ignore_errors=True)
        argv = [entry["command"], "--config", entry["config"], "--out", str(out), "--quiet"]
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.root(entry["command"]):
                    code = bivekua.cli.main(argv)
            else:
                code = bivekua.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - t0
        runs.append({"name": entry["name"], "command": entry["command"], "exit": code, "wall_s": wall})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_after = reference_s()

    for run in runs:
        run.update(_outcome(Path(args.out) / run["name"]))
    result = {
        "setup_s": SETUP_S,
        "reference_s": [ref_before, ref_after],
        "rss_mb": rss_mb,
        "runs": runs,
    }
    if tracer is not None:
        from tracer import traced_wall

        spans = tracer.arrays()
        tracer.save(args.spans)
        result["traced"] = {
            "wall_s": traced_wall(spans),
            "spans": len(spans["start"]),
            "metrics": tracer.metrics(),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
