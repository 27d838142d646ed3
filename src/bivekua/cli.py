"""Command-line front end: configuration-driven runs of the kernel,
formal-power, and fundamental-solution pipelines with deterministic CSV/JSON
artifacts.

Usage: vekua <command> --config path.json [--out dir] [--quiet]

Commands: eval-kernel, verify-reproducing, build-powers, build-fundamental,
residual-scan, cauchy.  Exit code 0 iff every declared tolerance was met.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
from pathlib import Path as FSPath
from typing import Optional

import numpy as np

from . import __version__
from .bicomplex import PlanePoint
from .calculus import RegionGrid, cell_centres, grid_columns
from .fields import Field, StepError
from .pairs import GeneratingSequence, make_pair, separable_pair, vekua_residual
from .powers import (
    ContourSpec,
    KernelFamily,
    adjoint_kernel_transfer,
    analytic_kernel,
    cauchy_deviations,
    coefficients_at,
    counterexample_kernel,
    first_cauchy,
    formal_contour_integral,
    hat_sequence,
    negative_powers,
    power_residual_scan,
    reproducing_deviations,
    reproducing_example_kernel,
)
from .schroedinger import (
    darboux_fundamental,
    laplace_fundamental,
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

# a CSV number: "%.17g" text, which reads back as the same double.  Each one
# is a bignum conversion of about 1 us, so ``_csv_rows`` formats each grid
# coordinate once per command and a column of one bit pattern once per block
_G = "%.17g".__mod__


# ---------------------------------------------------------------------------
# Config schema: each command's table maps a key to (check, default).  A check
# is a function (value, dotted key) -> validated value, or a dict of the keys
# of a nested object; REQUIRED marks a key without a default.  The keys of
# contour, grid and region are the arguments of ContourSpec.circle, grid_columns
# and RegionGrid.

REQUIRED = object()


def _string(v, key: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"config key '{key}' must be a string")
    return v


def _finite(v, key: str) -> float:
    """An int or float (not a bool) within the double range."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"config key '{key}' must be a finite number")
    return float(v)


def _positive(v, key: str) -> float:
    if _finite(v, key) <= 0:
        raise ConfigError(f"config key '{key}' must be positive")
    return float(v)


def _non_negative(v, key: str) -> float:
    if _finite(v, key) < 0:
        raise ConfigError(f"config key '{key}' must be non-negative")
    return float(v)


def _integer(minimum: Optional[int] = None):
    def check(v, key: str) -> int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"config key '{key}' must be an integer")
        if minimum is not None and v < minimum:
            raise ConfigError(f"config key '{key}' must be at least {minimum}")
        return v

    return check


def _point(v, key: str) -> PlanePoint:
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigError(f"config key '{key}' must be a [x, y] pair")
    return PlanePoint(_finite(v[0], key), _finite(v[1], key))


def _points(v, key: str) -> list[PlanePoint]:
    if not isinstance(v, list):
        raise ConfigError(f"config key '{key}' must be a list of [x, y] pairs")
    return [_point(p, key) for p in v]


def _one_of(*choices: str):
    def check(v, key: str) -> str:
        if v not in choices:
            raise ConfigError(f"config key '{key}' must be one of {', '.join(map(repr, choices))}")
        return v

    return check


def _point_or_shift(v, key: str):
    """A fixed point, or "zeta+1": the point one to the right of each zeta."""
    if v == "zeta+1":
        return v
    if not isinstance(v, list):
        raise ConfigError(f"config key '{key}' must be a [x, y] pair or 'zeta+1'")
    return _point(v, key)


_STOCK_KERNELS = {
    "analytic": analytic_kernel,
    "counterexample": counterexample_kernel,
    "reproducing-example": reproducing_example_kernel,
    "x-successor": x_successor_family,
    "x-main": x_main_family,
}

_BOUNDS = {k: (_finite, REQUIRED) for k in ("x0", "x1", "y0", "y1")}
_SEPARABLE = {"phi": (_string, REQUIRED), "psi": (_string, REQUIRED)}
_KERNEL = {
    "kernel": (_one_of(*_STOCK_KERNELS, "pipeline"), REQUIRED),
    "kernel_kind": (_one_of("main", "successor"), "main"),
    "f": (_string, None),
    "zeta0": (_point, None),
}
_PAIR = {
    "pair": ({
        "F_sc": (_string, None), "F_vec": (_string, "0"),
        "G_sc": (_string, None), "G_vec": (_string, "0"),
        "separable": ({**_SEPARABLE, "m": (_integer(), REQUIRED)}, None),
    }, None),
    "f": (_string, None),
}
_CONTOUR = {"contour": (
    {"center": (_point, REQUIRED), "radius": (_positive, REQUIRED), "nodes": (_integer(1), 512)},
    REQUIRED,
)}
_GRID = {"grid": ({**_BOUNDS, "nx": (_integer(1), REQUIRED), "ny": (_integer(1), REQUIRED)}, REQUIRED)}
_REGION = {"region": (_BOUNDS, REQUIRED)}
_FIELD = {"sc": (_string, REQUIRED), "vec": (_string, "0")}
_SAMPLES = {"samples": (_integer(1), 20)}
_TOL = {"tol": (_non_negative, 1e-6)}
CONFIG_SCHEMA = {
    "eval-kernel": {**_KERNEL, **_GRID, "zeta": (_point, REQUIRED), "alpha": (_one_of("1", "j"), "1")},
    "verify-reproducing": {**_KERNEL, **_PAIR, **_CONTOUR, **_TOL},
    "build-powers": {
        **_KERNEL, **_PAIR, **_REGION, "f": (_string, REQUIRED), "separable": (_SEPARABLE, REQUIRED),
        "n": (_integer(1), REQUIRED), **_SAMPLES, "seed": (_integer(), 0), **_TOL,
    },
    "build-fundamental": {
        **_GRID, "f": (_string, REQUIRED), "zeta0": (_point, None), "zeta": (_point, REQUIRED),
        "z0": (_point_or_shift, REQUIRED), **_TOL,
    },
    "residual-scan": {
        **_PAIR, **_REGION, "field": (_FIELD, REQUIRED),
        "kind": (_one_of("vekua", "schroedinger"), "vekua"), **_SAMPLES,
        "q": (_string, None), "h": (_positive, None), **_TOL,
    },
    "cauchy": {
        **_KERNEL, **_PAIR, **_CONTOUR, "field": (_FIELD, None),
        "formula": (_one_of("first", "second"), "second"),
        "interior": (_points, []), "exterior": (_points, []), **_TOL,
    },
}


def _validate(cfg: dict, schema: dict, prefix: str = "") -> dict:
    """The values a command reads: each key of ``cfg``, in file order, checked
    against ``schema``, and the default of each absent key (None where the
    key is optional and has none)."""
    out = {}
    for key, value in cfg.items():
        if key not in schema:
            import difflib  # on first use: at module level, every start would import it

            hint = difflib.get_close_matches(key, schema, n=1)
            near = f"; did you mean '{prefix}{hint[0]}'?" if hint else ""
            raise ConfigError(f"unknown key '{prefix}{key}'{near}")
        check, name = schema[key][0], prefix + key
        if isinstance(check, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{name}' must be an object")
            out[key] = _validate(value, check, name + ".")
        else:
            out[key] = check(value, name)
    for key, (_, default) in schema.items():
        if key not in out:
            if default is REQUIRED:
                raise ConfigError(f"missing required config key '{prefix}{key}'")
            out[key] = default
    return out


def _need(values: dict, *keys: str, prefix: str = "") -> None:
    """Refuse a run that reads a key the schema leaves optional (None)."""
    for key in keys:
        if values[key] is None:
            raise ConfigError(f"missing required config key '{prefix}{key}'")


def _unread(values: dict, schema: dict, *keys: str, why: str, prefix: str = "") -> None:
    """Refuse a run that never reads a key the config sets to other than its
    default (a key spelt out at its default is the same config)."""
    for key in keys:
        if values[key] != schema[key][1]:
            raise ConfigError(f"config key '{prefix}{key}' is not read {why}")


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
    p = cfg["pair"]
    if p is not None:
        s = p["separable"]
        if s is not None:
            return separable_pair(s["phi"], s["psi"], s["m"])
        _need(p, "F_sc", "G_sc", prefix="pair.")
        return make_pair(
            Field.from_exprs(p["F_sc"], p["F_vec"]), Field.from_exprs(p["G_sc"], p["G_vec"])
        )
    if cfg["f"] is not None:
        f = Field.from_exprs(cfg["f"])
        return make_pair(f, f.bc_inv().mul_j())
    raise ConfigError("config must provide 'pair' or 'f'")


def _pipeline_successor(cfg: dict) -> KernelFamily:
    _need(cfg, "f", "zeta0")
    f = Field.from_exprs(cfg["f"])
    q = potential_from_f(f)
    for p in (PlanePoint(1.1, 0.2), PlanePoint(1.7, -0.5)):
        if q(p).norm > 1e-10:
            raise ConfigError(
                "the built-in fundamental solution covers potential 0 only; "
                f"the potential of f does not vanish at {p}"
            )
    coef1 = successor_kernel_coef1(laplace_fundamental(), f)
    return successor_kernel_coefj(coef1, f, cfg["zeta0"])


def _build_kernel(cfg: dict) -> KernelFamily:
    if cfg["kernel"] != "pipeline":
        _unread(cfg, _KERNEL, "zeta0", "kernel_kind", why=f"by the stock kernel '{cfg['kernel']}'")
        return _STOCK_KERNELS[cfg["kernel"]]()
    fam = _pipeline_successor(cfg)
    # the successor equation coincides with the adjoint one, so the
    # argument-swap recombination gives the main-equation kernels
    return adjoint_kernel_transfer(fam) if cfg["kernel_kind"] == "main" else fam


def _unread_f(cfg: dict) -> None:
    """Refuse an 'f' set beside a stock kernel that builds no pair from it:
    eval-kernel builds none, and the contour commands build the pair
    (f, j/f) only where no 'pair' is given."""
    builds_pair = "pair" in cfg
    if cfg["kernel"] != "pipeline" and not (builds_pair and cfg["pair"] is None):
        and_pair = " and 'pair'" if builds_pair else ""
        _unread(cfg, _KERNEL, "f", why=f"by the stock kernel '{cfg['kernel']}'{and_pair}")


# sample pairs keep more than _SEPARATION apart; without a cap on draws, a
# region just over _SEPARATION across would be drawn from forever
_SEPARATION = 0.2
_DRAWS_PER_PAIR = 1000


def _random_point_pairs(cfg: dict, count: int):
    r = RegionGrid(**cfg["region"])
    too_small = f"region is too small to hold two points more than {_SEPARATION} apart"
    if math.hypot(r.x1 - r.x0, r.y1 - r.y0) <= _SEPARATION:
        raise ConfigError(too_small)
    rng = random.Random(cfg["seed"])
    out = []
    for _ in range(_DRAWS_PER_PAIR * count):
        zeta = PlanePoint(rng.uniform(r.x0, r.x1), rng.uniform(r.y0, r.y1))
        z = PlanePoint(rng.uniform(r.x0, r.x1), rng.uniform(r.y0, r.y1))
        if zeta.dist(z) > _SEPARATION:
            out.append((zeta, z))
            if len(out) == count:
                return out
    raise ConfigError(too_small)


def _grid_texts(x0: float, x1: float, y0: float, y1: float, nx: int, ny: int) -> dict[int, str]:
    """The text of each x and y centre of the grid, keyed by its bits."""
    centres = np.array(cell_centres(x0, x1, nx) + cell_centres(y0, y1, ny))
    return dict(zip(centres.view(np.int64).tolist(), map(_G, centres.tolist())))


def _csv_rows(texts: dict[int, str], xs: np.ndarray, ys: np.ndarray, *values: np.ndarray) -> list[str]:
    """The CSV rows "x,y,value,...": x and y from texts (``_grid_texts``), and
    a value column of one bit pattern formatted once (-0.0 and 0.0 differ)."""
    cells = [list(map(texts.__getitem__, c.view(np.int64).tolist())) for c in (xs, ys)]
    for col in values:
        bits = col.view(np.int64)
        constant = col.size and bits.min() == bits.max()
        cells.append([_G(float(col[0]))] * col.size if constant else map(_G, col.tolist()))
    return list(map(",".join, zip(*cells)))


def _grid_csv(two_point, zeta: PlanePoint, grid: dict, seen=None) -> tuple[list[str], int]:
    """The CSV lines of z -> two_point(zeta, z), by its face, at the grid's
    points off zeta, and the number of those points: a block of columns
    (``grid_columns``) at a time, as arrays of the whole grid would raise
    peak memory.  seen(xs, ys, values), when given, sees each block."""
    lines, points = [CSV_HEADER], 0
    texts = _grid_texts(**grid)
    for xs, ys in grid_columns(**grid):
        off = np.hypot(xs - zeta.x, ys - zeta.y) > 1e-9
        xs, ys = xs[off], ys[off]
        values = two_point.on(zeta.x, zeta.y, xs, ys)
        if seen is not None:
            seen(xs, ys, values)
        lines += _csv_rows(texts, xs, ys, values.sc.real, values.sc.imag, values.vec.real, values.vec.imag)
        points += xs.size
    return lines, points


# ---------------------------------------------------------------------------
# Commands


def cmd_eval_kernel(cfg: dict):
    fam = _build_kernel(cfg)
    _unread_f(cfg)
    lines, points = _grid_csv(fam.coef1 if cfg["alpha"] == "1" else fam.coefj, cfg["zeta"], cfg["grid"])
    checks = [_check("rows", len(lines) - 1, points, 0)]
    return checks, {"kernel.csv": lines}, {}


def cmd_verify_reproducing(cfg: dict):
    fam = _build_kernel(cfg)
    _unread_f(cfg)
    pair = _build_pair(cfg)
    contour = ContourSpec.circle(**cfg["contour"])
    tol = cfg["tol"]
    center = cfg["contour"]["center"]
    vc = formal_contour_integral(fam, pair.F, contour, center)
    checks = [
        _check(
            "center_integral_sc", vc.sc.real, TWO_PI * pair.F(center).sc.real, tol
        )
    ]
    dev_in, dev_out = reproducing_deviations(fam, pair, contour)
    checks.append(_check("interior_deviation", dev_in, 0.0, tol))
    checks.append(_check("exterior_deviation", dev_out, 0.0, tol))
    return checks, {}, {}


def cmd_build_powers(cfg: dict):
    n, sep, tol = cfg["n"], cfg["separable"], cfg["tol"]
    # f is parsed even where it only selects the mode
    Field.from_exprs(cfg["f"])
    catalog = cfg["f"].strip() == "x" and n >= 2
    schema = CONFIG_SCHEMA["build-powers"]
    if catalog:
        _unread(cfg, schema, "pair", why="with the catalog f 'x'")
    else:
        _unread(cfg, schema, "samples", why="by the residual scan, which uses one center")
    base = _build_kernel(cfg)
    seq = hat_sequence(GeneratingSequence.separable(sep["phi"], sep["psi"]))
    fam = negative_powers(base, seq, n)
    pairs = _random_point_pairs(cfg, cfg["samples"] if catalog else 1)
    extra = {}
    if catalog:
        # both coefficients of every pair at once, so that the slots share work
        xi, eta, x, y = (np.array(c) for c in zip(*((a.x, a.y, b.x, b.y) for a, b in pairs)))
        got, want = (coefficients_at(k, xi, eta, x, y) for k in (fam, x_negative_power(n)))
        dev = max(float((g - w).norm.max()) for g, w in zip(got, want))
        checks = [_check("max_deviation_from_closed_form", dev, 0.0, tol)]
        extra["closed_form"] = f"x-negative-power:{n}"
    else:
        pair = _build_pair(cfg)
        rep = power_residual_scan(fam, pair, RegionGrid(**cfg["region"]), pairs[0][0])
        checks = [_check("max_vekua_residual", rep.max_residual, 0.0, tol)]
    return checks, {}, extra


def cmd_build_fundamental(cfg: dict):
    f = Field.from_exprs(cfg["f"])
    zeta, z0 = cfg["zeta"], cfg["z0"]
    catalog = cfg["f"].strip() == "x"
    schema = CONFIG_SCHEMA["build-fundamental"]
    if catalog:
        _unread(cfg, schema, "zeta0", why="with the catalog f 'x'")
    # the catalog's closed form is the fundamental solution for z0 = zeta + 1
    oracle = x_darboux_fundamental() if catalog and z0 == "zeta+1" else None
    if oracle is None:
        _unread(cfg, schema, "tol", why="without a closed-form check")
    kj = x_successor_family() if catalog else _pipeline_successor(cfg)
    if z0 == "zeta+1":
        z0 = lambda zt: PlanePoint(zt.x + 1, zt.y)  # noqa: E731
    dev = 0.0

    def deviation(xs, ys, values) -> None:
        nonlocal dev
        dev = max(dev, float((values - oracle.on(zeta.x, zeta.y, xs, ys)).norm.max(initial=0.0)))

    s1 = darboux_fundamental(kj, f, z0)
    lines, points = _grid_csv(s1, zeta, cfg["grid"], None if oracle is None else deviation)
    checks = [_check("rows", len(lines) - 1, points, 0)]
    extra = {}
    if oracle is not None:
        checks.append(_check("max_deviation_from_closed_form", dev, 0.0, cfg["tol"]))
        extra["closed_form"] = "x-darboux-fundamental"
    return checks, {"fundamental.csv": lines}, extra


def cmd_residual_scan(cfg: dict):
    xs, ys = RegionGrid(**cfg["region"]).sample_columns(cfg["samples"])
    fld = cfg["field"]
    schema, why = CONFIG_SCHEMA["residual-scan"], f"by a '{cfg['kind']}' scan"
    if cfg["kind"] == "vekua":
        _unread(cfg, schema, "q", "h", why=why)
        if cfg["pair"] is not None:
            _unread(cfg, schema, "f", why=f"{why} given a 'pair'")
        w = Field.from_exprs(fld["sc"], fld["vec"])
        residuals = vekua_residual(w, _build_pair(cfg), (xs, ys))
    else:
        _unread(fld, _FIELD, "vec", why=why, prefix="field.")
        _unread(cfg, schema, "pair", "f", why=why)
        _need(cfg, "q")
        u = Field.from_exprs(fld["sc"])
        q = Field.from_exprs(cfg["q"])
        try:
            residuals = schroedinger_residual(u, q, (xs, ys), cfg["h"])
        except StepError as e:
            raise ConfigError("config key 'h' is too small to move every sample point") from e
    rows = _csv_rows(_grid_texts(**cfg["region"], nx=cfg["samples"], ny=cfg["samples"]), xs, ys, residuals)
    checks = [_check("max_residual", residuals.max(), 0.0, cfg["tol"])]
    return checks, {"residuals.csv": ["x,y,residual"] + rows}, {}


def cmd_cauchy(cfg: dict):
    fam = _build_kernel(cfg)
    _unread_f(cfg)
    pair = _build_pair(cfg)
    contour = ContourSpec.circle(**cfg["contour"])
    tol = cfg["tol"]
    fld = cfg["field"]
    w = pair.F if fld is None else Field.from_exprs(fld["sc"], fld["vec"])
    interior = cfg["interior"] or contour.interior
    exterior = cfg["exterior"] or contour.exterior
    if cfg["formula"] == "second":
        evaluate = lambda z0: formal_contour_integral(fam, [w], contour, z0)  # noqa: E731
    else:
        hat = adjoint_kernel_transfer(fam)
        evaluate = lambda z0: [first_cauchy(w, hat, contour, z0)]  # noqa: E731
    dev_in, dev_out = cauchy_deviations(evaluate, [w], interior, exterior)
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
    checks, artifacts, extra = _COMMANDS[command](_validate(cfg, CONFIG_SCHEMA[command]))
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
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--quiet", action="store_true")
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
