"""Command-line front end: configuration-driven runs of the kernel,
formal-power, and fundamental-solution pipelines with deterministic CSV/JSON
artifacts.

Usage: vekua <command> --config path.json [--out dir] [--quiet]

Commands: eval-kernel, verify-reproducing, build-powers, build-fundamental,
residual-scan, cauchy.  Exit code 0 iff every declared tolerance was met.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import random
import sys
from pathlib import Path as FSPath
from typing import Optional

from . import __version__
from .bicomplex import Bicomplex, PlanePoint
from .calculus import RegionGrid, midpoints
from .fields import Field
from .pairs import GeneratingSequence, make_pair, separable_pair, vekua_residual
from .powers import (
    ContourSpec,
    KernelFamily,
    adjoint_kernel_transfer,
    analytic_kernel,
    cauchy_deviations,
    counterexample_kernel,
    first_cauchy,
    formal_contour_integral,
    hat_sequence,
    negative_powers,
    power_residual_scan,
    reproducing_example_kernel,
)
from .schroedinger import (
    FundamentalSolution,
    darboux_fundamental,
    main_kernels,
    potential_from_f,
    schroedinger_residual,
    successor_kernel_coef1,
    successor_kernel_coefj,
    x_darboux_fundamental,
    x_main_family,
    x_negative_power,
    x_successor_family,
)


class ConfigError(Exception):
    pass


TWO_PI = 2 * math.pi

CSV_HEADER = "x,y,sc_re,sc_im,vec_re,vec_im"


def _fmt(v: float) -> str:
    return format(v, ".17g")


# The keys each command accepts: None for a value, a dict for a nested object.
_BOUNDS = ("x0", "x1", "y0", "y1")
_KERNEL = dict.fromkeys(("kernel", "kernel_kind", "f", "zeta0"))
_PAIR = {
    "pair": {
        **dict.fromkeys(("F_sc", "F_vec", "G_sc", "G_vec")),
        "separable": dict.fromkeys(("phi", "psi", "m")),
    },
    "f": None,
}
_CONTOUR = {"contour": dict.fromkeys(("center", "radius", "nodes"))}
_GRID = {"grid": dict.fromkeys(_BOUNDS + ("nx", "ny"))}
_REGION = {"region": dict.fromkeys(_BOUNDS + ("h",))}
_FIELD = {"field": dict.fromkeys(("sc", "vec"))}
CONFIG_KEYS = {
    "eval-kernel": {**_KERNEL, **_GRID, **dict.fromkeys(("zeta", "alpha"))},
    "verify-reproducing": {**_KERNEL, **_PAIR, **_CONTOUR, "tol": None},
    "build-powers": {
        **_KERNEL, **_PAIR, **_REGION,
        "separable": dict.fromkeys(("phi", "psi")),
        **dict.fromkeys(("n", "samples", "seed", "tol")),
    },
    "build-fundamental": {**_GRID, **dict.fromkeys(("f", "zeta0", "zeta", "z0", "tol"))},
    "residual-scan": {
        **_PAIR, **_REGION, **_FIELD, **dict.fromkeys(("kind", "samples", "q", "h", "tol")),
    },
    "cauchy": {
        **_KERNEL, **_PAIR, **_CONTOUR, **_FIELD,
        **dict.fromkeys(("formula", "interior", "exterior", "tol")),
    },
}


def _check_keys(cfg: dict, accepted: dict, prefix: str = "") -> None:
    """Refuse a key the command does not read, and a non-object where the
    command reads an object."""
    for key, value in cfg.items():
        if key not in accepted:
            hint = difflib.get_close_matches(key, accepted, n=1)
            near = f"; did you mean '{prefix}{hint[0]}'?" if hint else ""
            raise ConfigError(f"unknown key '{prefix}{key}'{near}")
        if accepted[key] is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{prefix}{key}' must be an object")
            _check_keys(value, accepted[key], f"{prefix}{key}.")


def _require(cfg: dict, key: str, typ=None):
    if key not in cfg:
        raise ConfigError(f"missing required config key '{key}'")
    v = cfg[key]
    if typ is not None and not isinstance(v, typ):
        raise ConfigError(f"config key '{key}' has wrong type")
    return v


def _number(v, key: str, positive: bool = False) -> float:
    """A finite number (an int or float, not a bool) read from config key
    ``key``, greater than 0 when ``positive``."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"config key '{key}' must be a finite number")
    if positive and v <= 0:
        raise ConfigError(f"config key '{key}' must be positive")
    return float(v)


def _tol(cfg: dict) -> float:
    tol = _number(cfg.get("tol", 1e-6), "tol")
    if tol < 0:
        raise ConfigError("config key 'tol' must be non-negative")
    return tol


def _int(
    cfg: dict, key: str, minimum: Optional[int] = None, default: Optional[int] = None
) -> int:
    """An integer config value, not a bool, of at least ``minimum``; the key
    is required when there is no default."""
    v = _require(cfg, key) if default is None else cfg.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"config key '{key}' must be an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"config key '{key}' must be at least {minimum}")
    return v


def _as_point(v, key: str) -> PlanePoint:
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigError(f"config key '{key}' must be a [x, y] pair")
    return PlanePoint(_number(v[0], key), _number(v[1], key))


def _point(cfg: dict, key: str) -> PlanePoint:
    return _as_point(_require(cfg, key), key)


def _points(cfg: dict, key: str) -> list[PlanePoint]:
    """An optional list of [x, y] pairs."""
    v = cfg.get(key, [])
    if not isinstance(v, list):
        raise ConfigError(f"config key '{key}' must be a list of [x, y] pairs")
    return [_as_point(p, key) for p in v]


def _bounds(cfg: dict) -> list[float]:
    return [_number(_require(cfg, k), k) for k in ("x0", "x1", "y0", "y1")]


def _check(name: str, value: float, expected: float, tol: float) -> dict:
    value = float(value)
    return {
        "name": name,
        "value": value,
        "expected": float(expected),
        "tol": float(tol),
        "pass": abs(value - expected) <= tol,
    }


def _build_pair(cfg: dict):
    if "pair" in cfg:
        p = _require(cfg, "pair")
        if "separable" in p:
            s = p["separable"]
            return separable_pair(
                _require(s, "phi", str), _require(s, "psi", str), _int(s, "m")
            )
        F = Field.from_exprs(_require(p, "F_sc", str), p.get("F_vec", "0"))
        G = Field.from_exprs(_require(p, "G_sc", str), p.get("G_vec", "0"))
        return make_pair(F, G)
    if "f" in cfg:
        f = Field.from_exprs(_require(cfg, "f", str))
        return make_pair(f, f.bc_inv().mul_j())
    raise ConfigError("config must provide 'pair' or 'f'")


_STOCK_KERNELS = {
    "analytic": analytic_kernel,
    "counterexample": counterexample_kernel,
    "reproducing-example": reproducing_example_kernel,
    "x-successor": x_successor_family,
    "x-main": x_main_family,
}


def _pipeline_successor(cfg: dict) -> KernelFamily:
    f = Field.from_exprs(_require(cfg, "f", str))
    q = potential_from_f(f)
    for p in (PlanePoint(1.1, 0.2), PlanePoint(1.7, -0.5)):
        if q(p).norm > 1e-10:
            raise ConfigError(
                "the built-in fundamental solution covers potential 0 only; "
                f"the potential of f does not vanish at {p}"
            )
    zeta0 = _point(cfg, "zeta0")
    k1 = successor_kernel_coef1(FundamentalSolution.laplace(), f)
    return successor_kernel_coefj(k1, f, zeta0)


def _build_kernel(cfg: dict) -> KernelFamily:
    name = _require(cfg, "kernel", str)
    if name in _STOCK_KERNELS:
        return _STOCK_KERNELS[name]()
    if name == "pipeline":
        kind = cfg.get("kernel_kind", "main")
        if kind not in ("main", "successor"):
            raise ConfigError("kernel_kind must be 'main' or 'successor'")
        fam = _pipeline_successor(cfg)
        return main_kernels(fam) if kind == "main" else fam
    raise ConfigError(
        f"unknown kernel '{name}'; expected one of "
        f"{sorted(_STOCK_KERNELS)} or 'pipeline'"
    )


def _contour(cfg: dict) -> ContourSpec:
    c = _require(cfg, "contour")
    center = _point(c, "center")
    radius = _number(_require(c, "radius"), "radius", positive=True)
    return ContourSpec.circle(center, radius, _int(c, "nodes", 1, 512))


def _grid_points(cfg: dict) -> list[PlanePoint]:
    g = _require(cfg, "grid")
    return midpoints(*_bounds(g), _int(g, "nx", 1), _int(g, "ny", 1))


def _region(cfg: dict) -> RegionGrid:
    r = _require(cfg, "region")
    return RegionGrid(*_bounds(r), _number(r.get("h", 0.1), "h", positive=True))


def _random_point_pairs(cfg: dict, count: int, min_dist: float = 0.2):
    r = _region(cfg)
    if math.hypot(r.x1 - r.x0, r.y1 - r.y0) <= min_dist:
        raise ConfigError(f"region is too small to hold two points more than {min_dist} apart")
    rng = random.Random(_int(cfg, "seed", default=0))
    out = []
    while len(out) < count:
        zeta = PlanePoint(rng.uniform(r.x0, r.x1), rng.uniform(r.y0, r.y1))
        z = PlanePoint(rng.uniform(r.x0, r.x1), rng.uniform(r.y0, r.y1))
        if zeta.dist(z) > min_dist:
            out.append((zeta, z))
    return out


def _value_row(p: PlanePoint, w: Bicomplex) -> str:
    return ",".join(
        _fmt(v)
        for v in (p.x, p.y, w.sc.real, w.sc.imag, w.vec.real, w.vec.imag)
    )


# ---------------------------------------------------------------------------
# Commands


def cmd_eval_kernel(cfg: dict):
    fam = _build_kernel(cfg)
    zeta = _point(cfg, "zeta")
    alpha = cfg.get("alpha", "1")
    if alpha not in ("1", "j"):
        raise ConfigError("alpha must be '1' or 'j'")
    ev = fam.coef1 if alpha == "1" else fam.coefj
    pts = [p for p in _grid_points(cfg) if p.dist(zeta) > 1e-9]
    rows = [_value_row(p, ev(zeta, p)) for p in pts]
    checks = [_check("rows", len(rows), len(pts), 0)]
    return checks, {"kernel.csv": [CSV_HEADER] + rows}, {}


def cmd_verify_reproducing(cfg: dict):
    fam = _build_kernel(cfg)
    pair = _build_pair(cfg)
    contour = _contour(cfg)
    tol = _tol(cfg)
    center = _point(_require(cfg, "contour"), "center")
    vc = formal_contour_integral(fam, pair.F, contour, center)
    checks = [
        _check(
            "center_integral_sc", vc.sc.real, TWO_PI * pair.F(center).sc.real, tol
        )
    ]
    devs = [
        cauchy_deviations(
            lambda z0: formal_contour_integral(fam, w, contour, z0),
            w, contour.interior, contour.exterior,
        )
        for w in (pair.F, pair.G)
    ]
    dev_in, dev_out = (max(d) for d in zip(*devs))
    checks.append(_check("interior_deviation", dev_in, 0.0, tol))
    checks.append(_check("exterior_deviation", dev_out, 0.0, tol))
    return checks, {}, {}


def cmd_build_powers(cfg: dict):
    f_expr = _require(cfg, "f", str)
    sep = _require(cfg, "separable")
    n = _int(cfg, "n", 1)
    samples = _int(cfg, "samples", 1, 20)
    tol = _tol(cfg)
    base = _build_kernel(cfg)
    seq = hat_sequence(
        GeneratingSequence.separable(
            _require(sep, "phi", str), _require(sep, "psi", str)
        )
    )
    fam = negative_powers(base, seq, n)
    pairs = _random_point_pairs(cfg, samples)
    extra = {}
    if f_expr.strip() == "x" and n >= 2:
        oracle = x_negative_power(n)
        dev = 0.0
        for zeta, z in pairs:
            dev = max(dev, (fam.coef1(zeta, z) - oracle.coef1(zeta, z)).norm)
            dev = max(dev, (fam.coefj(zeta, z) - oracle.coefj(zeta, z)).norm)
        checks = [_check("max_deviation_from_closed_form", dev, 0.0, tol)]
        extra["closed_form"] = f"x-negative-power:{n}"
    else:
        pair = _build_pair(cfg)
        rep = power_residual_scan(fam, pair, _region(cfg), pairs[0][0])
        checks = [_check("max_vekua_residual", rep.max_residual, 0.0, tol)]
    return checks, {}, extra


def cmd_build_fundamental(cfg: dict):
    f_expr = _require(cfg, "f", str)
    f = Field.from_exprs(f_expr)
    zeta = _point(cfg, "zeta")
    z0_cfg = _require(cfg, "z0")
    if z0_cfg == "zeta+1":
        z0 = lambda zt: PlanePoint(zt.x + 1, zt.y)  # noqa: E731
    elif isinstance(z0_cfg, list):
        z0 = _point(cfg, "z0")
    else:
        raise ConfigError("z0 must be an [x, y] pair or the string 'zeta+1'")
    tol = _tol(cfg)
    extra = {}
    catalog = f_expr.strip() == "x"
    if catalog:
        kj = x_successor_family()
        extra["closed_form"] = "x-darboux-fundamental"
    else:
        kj = _pipeline_successor(cfg)
    s1 = darboux_fundamental(kj, f, z0)
    pts = [p for p in _grid_points(cfg) if p.dist(zeta) > 1e-9]
    rows = []
    dev = 0.0
    oracle = x_darboux_fundamental() if catalog else None
    for p in pts:
        v = s1(zeta, p)
        rows.append(_value_row(p, Bicomplex(v, 0)))
        if oracle is not None and z0_cfg == "zeta+1":
            dev = max(dev, abs(v - oracle(zeta, p)))
    checks = [_check("rows", len(rows), len(pts), 0)]
    if oracle is not None and z0_cfg == "zeta+1":
        checks.append(_check("max_deviation_from_closed_form", dev, 0.0, tol))
    return checks, {"fundamental.csv": [CSV_HEADER] + rows}, extra


def cmd_residual_scan(cfg: dict):
    kind = cfg.get("kind", "vekua")
    region = _region(cfg)
    samples = _int(cfg, "samples", 1, 20)
    tol = _tol(cfg)
    fld = _require(cfg, "field")
    if kind == "vekua":
        w = Field.from_exprs(_require(fld, "sc", str), fld.get("vec", "0"))
        pair = _build_pair(cfg)
        residual = lambda p: vekua_residual(w, pair, p)  # noqa: E731
    elif kind == "schroedinger":
        u = Field.from_exprs(_require(fld, "sc", str))
        q = Field.from_exprs(_require(cfg, "q", str))
        h = cfg.get("h")
        if h is not None:
            h = _number(h, "h", positive=True)
        residual = lambda p: schroedinger_residual(u, q, p, h)  # noqa: E731
    else:
        raise ConfigError("kind must be 'vekua' or 'schroedinger'")
    rows = []
    worst = 0.0
    for p in region.sample_points(samples):
        res = residual(p)
        worst = max(worst, res)
        rows.append(f"{_fmt(p.x)},{_fmt(p.y)},{_fmt(res)}")
    checks = [_check("max_residual", worst, 0.0, tol)]
    return checks, {"residuals.csv": ["x,y,residual"] + rows}, {}


def cmd_cauchy(cfg: dict):
    fam = _build_kernel(cfg)
    pair = _build_pair(cfg)
    contour = _contour(cfg)
    tol = _tol(cfg)
    formula = cfg.get("formula", "second")
    fld = cfg.get("field")
    if fld is not None:
        w = Field.from_exprs(_require(fld, "sc", str), fld.get("vec", "0"))
    else:
        w = pair.F
    interior = _points(cfg, "interior") or contour.interior
    exterior = _points(cfg, "exterior") or contour.exterior
    if formula == "second":
        evaluate = lambda z0: formal_contour_integral(fam, w, contour, z0)  # noqa: E731
    elif formula == "first":
        hat = adjoint_kernel_transfer(fam)
        evaluate = lambda z0: first_cauchy(w, hat, contour, z0)  # noqa: E731
    else:
        raise ConfigError("formula must be 'first' or 'second'")
    dev_in, dev_out = cauchy_deviations(evaluate, w, interior, exterior)
    checks = [
        _check("interior_deviation", dev_in, 0.0, tol),
        _check("exterior_deviation", dev_out, 0.0, tol),
    ]
    return checks, {}, {}


_COMMANDS = {
    "eval-kernel": cmd_eval_kernel,
    "verify-reproducing": cmd_verify_reproducing,
    "build-powers": cmd_build_powers,
    "build-fundamental": cmd_build_fundamental,
    "residual-scan": cmd_residual_scan,
    "cauchy": cmd_cauchy,
}


def run(command: str, config_path: str, out_dir: Optional[str] = None, quiet: bool = False) -> int:
    """Execute one command against a JSON config; write the report (and any
    CSV artifacts) and return the process exit code."""
    path = FSPath(config_path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise ConfigError(f"cannot read config file {config_path}: {e}") from e
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(cfg, CONFIG_KEYS[command])

    checks, artifacts, extra = _COMMANDS[command](cfg)
    report = {
        "command": command,
        "config_hash": hashlib.sha256(raw).hexdigest(),
        "version": __version__,
        **extra,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    out = FSPath(out_dir) if out_dir else FSPath.cwd()
    out.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report, indent=2) + "\n"
    (out / "report.json").write_text(text)
    for name, lines in artifacts.items():
        (out / name).write_text("\n".join(lines) + "\n")
    if not quiet:
        sys.stdout.write(text)
    return 0 if report["pass"] else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vekua",
        description="Bicomplex Vekua/Schrödinger pipelines with JSON reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        return run(args.command, args.config, args.out, args.quiet)
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    except Exception as e:  # domain errors, with command context
        sys.stderr.write(f"error ({args.command}): {type(e).__name__}: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
