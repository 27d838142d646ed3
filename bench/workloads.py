"""Seeded `vekua` configs for the three benchmark workloads.

Each workload is a list of CLI runs (name, command, config).  The seed moves
probe points, contour centres, kernel centres and the `build-powers` sample
seed, only within ranges where every check passes.  Where the amount of work
depends on geometry (detour paths are refined by distance), the seed moves
the whole configuration rigidly in y, which every kernel here depends on
only through y - eta; so each seed does the same work and the spread of
`wall_s` across seeds is measurement noise, not input size.

Print one workload's configs with:
    python3 bench/workloads.py --workload closed-form --seed 1
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

DEFAULT_SEED = 1

# Why each workload is in the benchmark; BENCHMARK.json carries the same
# sentences.
WHY = {
    "closed-form": "stock closed-form kernels: point evaluation dominates "
    "(bicomplex values, compiled expressions, field calls), the target of "
    "array-native evaluation",
    "symbolic": "n = 3 negative powers by the exact Bers-derivative chain plus "
    "separable-pair and Schroedinger residual scans: expression simplify, diff "
    "and compile dominate, and memory peaks",
    "pipeline": "kernels built from f by the successor -> main pipeline: nested "
    "detour-path integrals with many small compiles and single-point calls",
}


def _r(rng: random.Random, lo: float, hi: float) -> float:
    # 6 decimals keep the configs short and their expressions parseable
    return round(rng.uniform(lo, hi), 6)


def _powers(rng: random.Random, n: int, samples: int) -> dict:
    return {
        "f": "x",
        "kernel": "x-main",
        "separable": {"phi": "x", "psi": "1"},
        "n": n,
        "region": {"x0": 1.0, "x1": 3.0, "y0": -1.0, "y1": 1.0},
        "samples": samples,
        "seed": rng.randrange(1_000_000),
        "tol": 1e-6,
    }


def closed_form(rng: random.Random, tiny: bool) -> list[tuple[str, str, dict]]:
    nodes, grid, fgrid, samples = (64, 10, 2, 4) if tiny else (512, 100, 10, 20)

    def contour() -> dict:
        return {"center": [_r(rng, 2.8, 3.4), _r(rng, -0.5, 0.5)], "radius": 1, "nodes": nodes}

    dy = _r(rng, -0.5, 0.5)

    def y(v: float) -> float:
        return round(v + dy, 6)

    return [
        ("verify-reproducing", "verify-reproducing",
         {"kernel": "x-main", "f": "x", "contour": contour(), "tol": 1e-6}),
        ("cauchy-first", "cauchy",
         {"kernel": "x-main", "f": "x", "formula": "first", "contour": contour(), "tol": 1e-6}),
        ("eval-kernel", "eval-kernel",
         {"kernel": "x-main", "zeta": [_r(rng, 0.8, 1.2), _r(rng, -0.3, 0.3)],
          "grid": {"x0": 1.5, "x1": 3.0, "y0": -1.0, "y1": 1.0, "nx": grid, "ny": grid}}),
        ("build-fundamental", "build-fundamental",
         {"f": "x", "zeta": [2.0, y(0.1)], "z0": "zeta+1",
          "grid": {"x0": 1.2, "x1": 3.0, "y0": y(-0.8), "y1": y(0.8), "nx": fgrid, "ny": fgrid},
          "tol": 1e-6}),
        ("build-powers-2", "build-powers", _powers(rng, 2, samples)),
    ]


def symbolic(rng: random.Random, tiny: bool) -> list[tuple[str, str, dict]]:
    n, samples = (2, 3) if tiny else (3, 10)

    def region() -> dict:
        x0, y0 = _r(rng, -1.5, -0.5), _r(rng, -1.0, 0.0)
        return {"x0": x0, "x1": round(x0 + 1.5, 6), "y0": y0, "y1": round(y0 + 1.5, 6)}

    f = "exp(x)*(cos(y) + 2)"
    runs = [(f"build-powers-{n}", "build-powers", _powers(rng, n, 2 * samples))]
    # F of pair m solves that pair's Vekua equation, and so does c*F
    for m, solution in ((0, f), (1, "(cos(y) + 2)/exp(x)")):
        runs.append((f"residual-scan-m{m}", "residual-scan", {
            "kind": "vekua",
            "pair": {"separable": {"phi": "exp(x)", "psi": "cos(y) + 2", "m": m}},
            "field": {"sc": f"{_r(rng, 0.5, 2.0)}*{solution}"},
            "region": region(), "samples": samples, "tol": 1e-8,
        }))
    # u = c*f solves Laplacian u = q u with q = (Laplacian f)/f = 2/(cos y + 2)
    runs.append(("residual-scan-schroedinger", "residual-scan", {
        "kind": "schroedinger",
        "field": {"sc": f"{_r(rng, 0.5, 2.0)}*{f}"},
        "q": "2/(cos(y) + 2)",
        "region": region(), "samples": samples, "tol": 1e-8,
    }))
    return runs


def pipeline(rng: random.Random, tiny: bool) -> list[tuple[str, str, dict]]:
    nodes, grid, fgrid = (16, 2, 1) if tiny else (32, 4, 2)
    dy = _r(rng, -0.3, 0.3)

    def y(v: float) -> float:
        return round(v + dy, 6)

    def p(x: float, v: float) -> list[float]:
        return [x, y(v)]

    return [
        ("cauchy-second", "cauchy", {
            "kernel": "pipeline", "f": "x", "zeta0": p(0.5, 0.0), "formula": "second",
            "contour": {"center": p(2.0, 0.0), "radius": 0.3, "nodes": nodes},
            "interior": [p(2.05, 0.05)], "exterior": [p(2.9, 0.1)], "tol": 1e-6,
        }),
        ("eval-kernel", "eval-kernel", {
            "kernel": "pipeline", "f": "x", "zeta0": p(0.5, 0.0), "zeta": p(1.0, 0.1),
            "grid": {"x0": 1.5, "x1": 3.0, "y0": y(-1.0), "y1": y(1.0),
                     "nx": grid, "ny": grid},
        }),
        ("build-fundamental", "build-fundamental", {
            "f": "exp(x)*cos(y)", "zeta0": p(0.5, 0.0), "zeta": p(1.0, 0.1), "z0": "zeta+1",
            "grid": {"x0": 1.4, "x1": 2.2, "y0": y(-0.3), "y1": y(0.5),
                     "nx": fgrid, "ny": fgrid},
            "tol": 1e-6,
        }),
    ]


WORKLOADS = {"closed-form": closed_form, "symbolic": symbolic, "pipeline": pipeline}


def generate(workload: str, seed: int, tiny: bool = False) -> list[tuple[str, str, dict]]:
    """The workload's CLI runs; tiny=True shrinks them for the harness self-test."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"), tiny)


def write(workload: str, seed: int, directory: Path, tiny: bool = False) -> list[dict]:
    """Write one config file per run; return the manifest of runs."""
    directory.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, command, config in generate(workload, seed, tiny):
        path = directory / f"{name}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        manifest.append({"name": name, "command": command, "config": str(path)})
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    for name, command, config in generate(args.workload, args.seed):
        print(f"# {name}: vekua {command}")
        print(json.dumps(config, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
