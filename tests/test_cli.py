"""End-to-end tests for the command-line interface."""

import hashlib
import importlib.util
import json
import math
import re
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bivekua import __version__, calculus, cli, expr, fields, schroedinger
from bivekua.cli import CONFIG_SCHEMA, REQUIRED, ConfigError, main, run
from bivekua.powers import ContourSpec, cauchy_deviations, formal_contour_integral
from bivekua.bicomplex import PlanePoint
from bivekua.fields import Field, pairs_of
from bivekua.schroedinger import DarbouxFundamental, SuccessorCoefj, x_main_family
from oracles import midpoints, scalar_schroedinger_residual, scalar_vekua_residual

ROOT = Path(__file__).parents[1]


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def _report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def test_counterexample_fails_with_pi(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "kernel": "counterexample",
            "pair": {"F_sc": "1", "G_sc": "0", "G_vec": "1"},
            "contour": {"center": [0, 0], "radius": 1},
            "tol": 1e-8,
        },
    )
    code = main(["verify-reproducing", "--config", str(cfg), "--out", str(tmp_path), "--quiet"])
    assert code == 1
    rep = _report(tmp_path)
    assert rep["pass"] is False
    center = next(c for c in rep["checks"] if c["name"] == "center_integral_sc")
    assert center["value"] == pytest.approx(3.141592653589793, abs=1e-10)
    assert center["pass"] is False


def test_reproducing_example_passes(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "kernel": "reproducing-example",
            "pair": {"F_sc": "1", "G_sc": "0", "G_vec": "1"},
            "contour": {"center": [0, 0], "radius": 1},
            "tol": 1e-8,
        },
    )
    assert main(["verify-reproducing", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    assert _report(tmp_path)["pass"] is True


def test_eval_kernel_grid_csv(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "kernel": "x-main",
            "zeta": [1, 0],
            "grid": {"x0": 1.5, "x1": 3.0, "y0": -1.0, "y1": 1.0, "nx": 10, "ny": 10},
        },
    )
    assert main(["eval-kernel", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "kernel.csv").read_text().splitlines()
    assert lines[0] == "x,y,sc_re,sc_im,vec_re,vec_im"
    assert len(lines) == 101
    assert all(len(line.split(",")) == 6 for line in lines[1:])


def test_build_powers_matches_closed_form(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "f": "x",
            "kernel": "x-main",
            "separable": {"phi": "x", "psi": "1"},
            "n": 2,
            "region": {"x0": 1.0, "x1": 3.0, "y0": -1.0, "y1": 1.0},
            "samples": 10,
            "tol": 1e-6,
        },
    )
    assert main(["build-powers", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    rep = _report(tmp_path)
    assert rep["closed_form"] == "x-negative-power:2"
    dev = next(c for c in rep["checks"] if c["name"] == "max_deviation_from_closed_form")
    assert dev["value"] <= 1e-6


def test_catalog_build_powers_takes_no_differences(tmp_path, central_differences):
    # order -7 by the Taylor-jet Bers chain of the stock x-main kernels
    cfg = {
        "f": "x",
        "kernel": "x-main",
        "separable": {"phi": "x", "psi": "1"},
        "n": 7,
        "region": {"x0": 1.0, "x1": 3.0, "y0": -1.0, "y1": 1.0},
        "tol": 1e-6,
    }
    config = _write(tmp_path, "c.json", cfg)
    assert main(["build-powers", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    (check,) = _report(tmp_path)["checks"]
    assert check["name"] == "max_deviation_from_closed_form"
    assert check["value"] <= 1e-10
    assert central_differences == []


def test_build_powers_residual_uses_exact_partials(tmp_path, central_differences):
    # the order -3 analytic powers are a Taylor-jet chain of closed forms,
    # which gives their partials in z exactly; central differences of them
    # would leave a residual of about 1e-2
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "kernel": "analytic",
            "f": "1",
            "separable": {"phi": "1", "psi": "1"},
            "n": 3,
            "region": {"x0": -1, "x1": 1, "y0": -1, "y1": 1},
            "tol": 1e-6,
        },
    )
    assert main(["build-powers", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    (check,) = _report(tmp_path)["checks"]
    assert check["name"] == "max_vekua_residual"
    assert check["value"] <= 1e-10
    assert central_differences == []


def test_build_fundamental_catalog_match(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "f": "x",
            "zeta": [2, 0],
            "z0": "zeta+1",
            "grid": {"x0": 1.2, "x1": 3.0, "y0": -0.8, "y1": 0.8, "nx": 5, "ny": 5},
            "tol": 1e-6,
        },
    )
    assert main(["build-fundamental", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    rep = _report(tmp_path)
    assert rep["closed_form"] == "x-darboux-fundamental"
    assert (tmp_path / "fundamental.csv").exists()


def test_build_fundamental_fixed_z0_claims_no_closed_form(tmp_path):
    # the catalog's closed form is the solution for z0 = zeta + 1 only
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "f": "x",
            "zeta": [2, 0],
            "z0": [3, 0.5],
            "grid": {"x0": 1.2, "x1": 3.0, "y0": -0.8, "y1": 0.8, "nx": 2, "ny": 2},
        },
    )
    assert main(["build-fundamental", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    rep = _report(tmp_path)
    assert "closed_form" not in rep
    assert [c["name"] for c in rep["checks"]] == ["rows"]


@pytest.mark.parametrize(
    "cfg",
    [
        {"f": "x", "zeta": [2.0, 0.0], "z0": "zeta+1", "tol": 1e-6,
         "grid": {"x0": 2.5, "x1": 3.5, "y0": -0.5, "y1": 0.5, "nx": 1, "ny": 1}},
        {"f": "exp(x)*cos(y)", "zeta0": [0.5, 0.0], "zeta": [1.0, 0.0], "z0": [1.75, 0.0],
         "grid": {"x0": 1.5, "x1": 2.0, "y0": -0.5, "y1": 0.5, "nx": 1, "ny": 1}},
    ],
    ids=["catalog", "pipeline"],
)
def test_build_fundamental_vanishes_at_path_base(tmp_path, cfg):
    # the one grid point is z0, where S1 is 0 by definition (an empty path)
    path = _write(tmp_path, "c.json", cfg)
    assert main(["build-fundamental", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "fundamental.csv").read_text().splitlines()
    assert [float(v) for v in lines[1].split(",")[2:]] == [0.0] * 4
    rep = _report(tmp_path)
    assert rep["pass"] is True
    for c in rep["checks"]:
        if c["name"] == "max_deviation_from_closed_form":
            assert c["value"] == 0.0


@pytest.mark.parametrize(
    "cfg",
    [
        {"f": "x", "zeta": [2.0, 0.1], "z0": "zeta+1", "tol": 1e-6,
         "grid": {"x0": 1.2, "x1": 3.0, "y0": -0.8, "y1": 0.8, "nx": 5, "ny": 4}},
        {"f": "exp(x)*cos(y)", "zeta0": [0.5, 0.0], "zeta": [1.0, 0.1], "z0": "zeta+1",
         "grid": {"x0": 1.4, "x1": 2.2, "y0": -0.3, "y1": 0.5, "nx": 3, "ny": 1}},
    ],
    ids=["catalog", "pipeline"],
)
def test_build_fundamental_table_is_the_same_in_any_blocks(tmp_path, monkeypatch, cfg):
    # budgets of 1 cut the table into blocks of one column each, and every
    # walk into its own array job
    config = _write(tmp_path, "c.json", cfg)
    artifacts = []
    budgets = (calculus.GRID_BUDGET, calculus.NODE_BUDGET)
    for (grid, nodes), out in ((budgets, tmp_path / "one"), ((1, 1), tmp_path / "many")):
        monkeypatch.setattr(calculus, "GRID_BUDGET", grid)
        monkeypatch.setattr(calculus, "NODE_BUDGET", nodes)
        blocks = list(calculus.grid_columns(**cfg["grid"]))
        assert len(blocks) == (1 if grid > 1 else cfg["grid"]["nx"])
        assert main(["build-fundamental", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        artifacts.append([(out / name).read_bytes() for name in ("fundamental.csv", "report.json")])
    assert artifacts[0] == artifacts[1]


def test_build_fundamental_f_vanishing_at_z_is_a_calculus_error(tmp_path, capsys):
    # S1 divides by f(z), and f = x vanishes at both points of the grid's
    # middle column: the error names the first of them in pair order, which
    # is not the first pair walked
    cfg = _write(tmp_path, "c.json", {
        "f": "1*x", "zeta0": [0.5, 0], "zeta": [1, 0.1], "z0": [2, 0],
        "grid": {"x0": -1.5, "x1": 1.5, "y0": 0.5, "y1": 0.9, "nx": 3, "ny": 2},
    })
    assert main(["build-fundamental", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 2
    first = PlanePoint(calculus.cell_centres(-1.5, 1.5, 3)[1], calculus.cell_centres(0.5, 0.9, 2)[0])
    assert first.x == 0
    err = capsys.readouterr().err
    assert f"CalculusError: f vanishes at path endpoint {first}\n" in err
    assert "ZeroDivisionError" not in err


def test_catalog_build_fundamental_makes_no_point_call(tmp_path, point_calls):
    # f at the path ends is one array call, as is the closed-form check
    (cfg,) = [c for _, command, c in _workloads().generate("closed-form", 1) if command == "build-fundamental"]
    assert cfg["f"] == "x" and (cfg["grid"]["nx"], cfg["grid"]["ny"]) == (10, 10)
    config = _write(tmp_path, "c.json", cfg)
    assert main(["build-fundamental", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    assert point_calls == []


def test_build_powers_parses_f_that_only_selects_the_mode(tmp_path, capsys):
    # with a stock kernel and a pair, f is read only to choose the catalog
    # comparison, and is still an expression that must parse
    cfg = _write(tmp_path, "c.json", {
        "kernel": "analytic", "f": "zz", "pair": {"F_sc": "1", "G_sc": "0", "G_vec": "1"},
        "separable": {"phi": "1", "psi": "1"}, "n": 3,
        "region": {"x0": -1, "x1": 1, "y0": -1, "y1": 1},
    })
    assert main(["build-powers", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "UnknownIdentifierError" in err and "'zz'" in err


def test_residual_scan(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "kind": "vekua",
            "f": "x",
            "field": {"sc": "x", "vec": "0"},
            "region": {"x0": 1.0, "x1": 2.0, "y0": -0.5, "y1": 0.5},
            "samples": 8,
            "tol": 1e-8,
        },
    )
    assert main(["residual-scan", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "residuals.csv").read_text().splitlines()
    assert lines[0] == "x,y,residual"
    assert len(lines) == 65


def test_cauchy_second_formula(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "kernel": "x-main",
            "f": "x",
            "formula": "second",
            "contour": {"center": [3, 0], "radius": 1},
            "tol": 1e-6,
        },
    )
    assert main(["cauchy", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    rep = _report(tmp_path)
    assert all(c["pass"] for c in rep["checks"])


def test_determinism_byte_identical(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "kernel": "x-main",
            "zeta": [1, 0],
            "grid": {"x0": 1.5, "x1": 3.0, "y0": -1.0, "y1": 1.0, "nx": 4, "ny": 4},
        },
    )
    a, b = tmp_path / "a", tmp_path / "b"
    main(["eval-kernel", "--config", str(cfg), "--out", str(a), "--quiet"])
    main(["eval-kernel", "--config", str(cfg), "--out", str(b), "--quiet"])
    assert (a / "kernel.csv").read_bytes() == (b / "kernel.csv").read_bytes()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_report_schema_and_hash(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "kernel": "analytic",
            "zeta": [0, 0],
            "grid": {"x0": 1.0, "x1": 2.0, "y0": 0.0, "y1": 1.0, "nx": 2, "ny": 2},
        },
    )
    assert main(["eval-kernel", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    rep = _report(tmp_path)
    assert rep["command"] == "eval-kernel"
    assert rep["version"] == __version__
    assert rep["config_hash"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    for c in rep["checks"]:
        assert set(c) == {"name", "value", "expected", "tol", "pass"}


def test_missing_key_is_config_error(tmp_path):
    cfg = _write(tmp_path, "c.json", {"zeta": [1, 0]})
    assert main(["eval-kernel", "--config", str(cfg), "--quiet"]) == 2
    with pytest.raises(ConfigError):
        run("eval-kernel", str(cfg), str(tmp_path), quiet=True)


def test_pipeline_requires_base_point(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "kernel": "pipeline",
            "f": "x",
            "zeta": [2, 0],
            "grid": {"x0": 1.2, "x1": 2.8, "y0": -0.8, "y1": 0.8, "nx": 2, "ny": 2},
        },
    )
    assert main(["eval-kernel", "--config", str(cfg), "--quiet"]) == 2


def test_pipeline_kernel_matches_stock_at_point(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "kernel": "pipeline",
            "kernel_kind": "successor",
            "f": "x",
            "zeta0": [0.5, 0],
            "zeta": [1, 0],
            "alpha": "1",
            "grid": {"x0": 1.9, "x1": 2.1, "y0": -0.1, "y1": 0.1, "nx": 1, "ny": 1},
        },
    )
    assert main(["eval-kernel", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    line = (tmp_path / "kernel.csv").read_text().splitlines()[1]
    x, y, sc_re, sc_im, vec_re, vec_im = map(float, line.split(","))
    assert (x, y) == (2.0, 0.0)
    assert sc_re == pytest.approx(1.0, abs=1e-12)
    assert sc_im == vec_re == vec_im == 0.0


def test_cauchy_with_pipeline_main_kernel(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "kernel": "pipeline",
            "f": "x",
            "zeta0": [0.5, 0],
            "formula": "second",
            "contour": {"center": [2, 0], "radius": 0.3, "nodes": 16},
            "interior": [[2.05, 0.05]],
            "exterior": [[2.9, 0.1]],
            "tol": 1e-6,
        },
    )
    assert main(["cauchy", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    rep = _report(tmp_path)
    assert [c["name"] for c in rep["checks"]] == ["interior_deviation", "exterior_deviation"]
    assert all(c["pass"] for c in rep["checks"])


def test_pipeline_cauchy_walk_jobs(tmp_path, walk_jobs):
    # the benchmark's 32-node pipeline cauchy walks both probes' copies of
    # the contour in one job, recorded after the jobs its 1-form runs: 64
    # detour paths over 12,992 nodes, with two 1-forms each, in 7 array
    # jobs of at most 2,048 nodes
    cfg = _write(tmp_path, "c.json", {
        "kernel": "pipeline", "f": "x", "zeta0": [0.5, 0], "formula": "second",
        "contour": {"center": [2, 0], "radius": 0.3, "nodes": 32},
        "interior": [[2.05, 0.05]], "exterior": [[2.9, 0.1]], "tol": 1e-6,
    })
    assert main(["cauchy", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    *detours, contour = walk_jobs
    assert contour == (2, 64, 2)
    assert len(detours) == 7
    assert sum(paths for paths, _, _ in detours) == 64
    assert sum(nodes for _, nodes, _ in detours) == 12992
    assert {forms for _, _, forms in detours} == {2}


def test_pipeline_eval_kernel_walk_nodes(tmp_path, walk_jobs):
    # seed 1 of the pipeline benchmark: every detour piece at most its
    # distance from the avoided point (calculus.PIECE_RATIO)
    (cfg,) = [c for _, command, c in _workloads().generate("pipeline", 1) if command == "eval-kernel"]
    path = _write(tmp_path, "c.json", cfg)
    assert main(["eval-kernel", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    assert walk_jobs and sum(nodes for _, nodes, _ in walk_jobs) <= 2896


def test_walk_values_agree_with_a_four_times_finer_rule(tmp_path, monkeypatch):
    # the successor and Darboux walk values of the pipeline cauchy and
    # eval-kernel geometry and of the closed-form build-fundamental grid,
    # agree with a rule whose detour pieces are at most a quarter of the
    # length cap and of their distance from the avoided point, to within
    # 1e-13 of the largest value
    (fundamental,) = [c for _, command, c in _workloads().generate("closed-form", 1) if command == "build-fundamental"]
    runs = [
        ("cauchy", dict(_PIPELINE_RUNS[0][1], contour={"center": [2.0, 0.0], "radius": 0.3, "nodes": 32})),
        ("eval-kernel", dict(_PIPELINE_RUNS[1][1], grid={"x0": 1.5, "x1": 3.0, "y0": -1.0, "y1": 1.0, "nx": 4, "ny": 4})),
        ("build-fundamental", fundamental),
    ]
    faces = (SuccessorCoefj, DarbouxFundamental)
    values = {}
    for face in faces:
        batch = face._batch

        def recorded(self, *args, batch=batch):
            out = batch(self, *args)
            values[type(self)].append(np.array(out, dtype=complex).ravel())
            return out

        monkeypatch.setattr(face, "_batch", recorded)
    results, length, ratio = [], calculus.PIECE_LENGTH, calculus.PIECE_RATIO
    for scale in (1, 4):
        monkeypatch.setattr(calculus, "PIECE_LENGTH", length / scale)
        monkeypatch.setattr(calculus, "PIECE_RATIO", ratio / scale)
        values.update((face, []) for face in faces)
        for command, cfg in runs:
            config = _write(tmp_path, "c.json", cfg)
            assert main([command, "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        results.append({face: np.concatenate(v) for face, v in values.items()})
    ours, finer = results
    for face in faces:
        assert ours[face].size == finer[face].size > 0
        assert np.max(np.abs(ours[face] - finer[face])) <= 1e-13 * np.max(np.abs(finer[face])), face


@pytest.mark.parametrize("run, jobs", [("verify-reproducing", [1, 4, 4]), ("cauchy-first", [4, 4])])
def test_closed_form_contour_checks_walk_whole_contours_per_job(tmp_path, walk_jobs, run, jobs):
    # seed 1 of the closed-form benchmark: 512-node copies of the contour,
    # four to a job; verify-reproducing walks the center, then its 8 probes,
    # cauchy-first its 8 probes
    ((command, cfg),) = [(command, c) for name, command, c in _workloads().generate("closed-form", 1) if name == run]
    path = _write(tmp_path, "c.json", cfg)
    assert main([command, "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    assert [(paths, nodes) for paths, nodes, _ in walk_jobs] == [(n, 512 * n) for n in jobs]


_ON_CONTOUR = {
    "kernel": "pipeline", "f": "x", "zeta0": [0.5, 0],
    "contour": {"center": [2, 0], "radius": 0.3, "nodes": 16}, "tol": 1e-6,
}


@pytest.mark.parametrize("command", ["verify-reproducing", "cauchy"])
def test_pipeline_zeta0_on_the_contour_is_config_error(tmp_path, capsys, command):
    # (2.3, 0) is node 0 of the circle: the detour paths would start there
    path = _write(tmp_path, "c.json", dict(_ON_CONTOUR, zeta0=[2.3, 0]))
    assert main([command, "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config key 'zeta0' holds [2.3, 0.0], a node of the contour")


@pytest.mark.parametrize("key", ["interior", "exterior"])
def test_cauchy_probe_on_the_contour_is_config_error(tmp_path, capsys, key):
    cfg = dict(_ON_CONTOUR, interior=[[2.05, 0.05]], exterior=[[2.9, 0.1]])
    cfg[key] = cfg[key] + [[2.3, 0]]
    path = _write(tmp_path, "c.json", cfg)
    assert main(["cauchy", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: config key '{key}' holds [2.3, 0.0], a node")


@pytest.mark.parametrize(
    "command, center",
    [("verify-reproducing", [1e300, 0]), ("cauchy", [1e17, 0]), ("verify-reproducing", [0, 1e17])],
)
def test_radius_lost_at_the_center_is_config_error(tmp_path, capsys, command, center):
    # at (1e300, 0) node 0 rounds onto the center probe; at (1e17, 0) the
    # nodes round to a few points and the deviations read 7e17
    cfg = {"kernel": "x-main", "f": "x", "contour": {"center": center, "radius": 1}, "tol": 1e-6}
    path = _write(tmp_path, "c.json", cfg)
    assert main([command, "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config key 'contour.radius' is refused: radius 1.0 is lost at center")


def test_invalid_json_is_config_error(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("not json")
    assert main(["verify-reproducing", "--config", str(p), "--quiet"]) == 2


@pytest.mark.parametrize(
    "text, message",
    [(None, "cannot read config file"), ("[1, 2]", "config root must be a JSON object")],
)
def test_unreadable_config_is_config_error(tmp_path, capsys, text, message):
    p = tmp_path / "c.json"
    if text is not None:
        p.write_text(text)
    assert main(["verify-reproducing", "--config", str(p), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_unknown_kernel_rejected(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {"kernel": "bogus", "zeta": [1, 0], "grid": {"x0": 0, "x1": 1, "y0": 0, "y1": 1, "nx": 1, "ny": 1}},
    )
    assert main(["eval-kernel", "--config", str(cfg), "--quiet"]) == 2


@pytest.mark.parametrize(
    "key, value",
    [("nodes", 0), ("nodes", True), ("tol", float("nan")), ("tol", -1), ("tol", "abc")],
)
def test_bad_tol_or_nodes_is_config_error(tmp_path, capsys, key, value):
    cfg = {"kernel": "x-main", "f": "x", "contour": {"center": [3, 0], "radius": 1}}
    if key == "nodes":
        cfg["contour"]["nodes"] = value
    else:
        cfg["tol"] = value
    path = _write(tmp_path, "c.json", cfg)
    assert main(["verify-reproducing", "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


_VALID = {
    "build-powers": {
        "f": "x",
        "kernel": "x-main",
        "separable": {"phi": "x", "psi": "1"},
        "n": 2,
        "region": {"x0": 1.0, "x1": 3.0, "y0": -1.0, "y1": 1.0},
        "samples": 4,
    },
    "eval-kernel": {
        "kernel": "x-main",
        "zeta": [1, 0],
        "grid": {"x0": 1.5, "x1": 3.0, "y0": -1.0, "y1": 1.0, "nx": 2, "ny": 2},
    },
    "residual-scan": {
        "kind": "vekua",
        "pair": {"separable": {"phi": "exp(x)", "psi": "cos(y) + 2", "m": 1}},
        "field": {"sc": "(cos(y) + 2)/exp(x)"},
        "region": {"x0": 1.0, "x1": 2.0, "y0": -0.5, "y1": 0.5},
        "samples": 2,
    },
}


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("build-powers", ("samples",), 0),
        ("build-powers", ("n",), True),
        ("build-powers", ("n",), 0),
        ("eval-kernel", ("grid", "nx"), 2.5),
        ("eval-kernel", ("grid", "nx"), True),
        ("eval-kernel", ("grid", "ny"), "2"),
        ("residual-scan", ("samples",), "abc"),
        ("residual-scan", ("pair", "separable", "m"), True),
    ],
)
def test_bad_integer_is_config_error(tmp_path, capsys, command, path, value):
    cfg = json.loads(json.dumps(_VALID[command]))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = _write(tmp_path, "c.json", cfg)
    assert main([command, "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("command", sorted(_VALID))
def test_valid_integer_configs_run(tmp_path, command):
    config = _write(tmp_path, "c.json", _VALID[command])
    assert main([command, "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0


_NUMBERS = {
    "cauchy": {
        "kernel": "x-main",
        "f": "x",
        "contour": {"center": [3, 0], "radius": 1, "nodes": 64},
        "interior": [[3.2, 0.1]],
    },
    "build-powers": _VALID["build-powers"],
    "residual-scan": {
        "kind": "schroedinger",
        "field": {"sc": "x"},
        "q": "0",
        "region": {"x0": 1.0, "x1": 2.0, "y0": -0.5, "y1": 0.5},
        "samples": 2,
    },
    "eval-kernel": {
        "kernel": "pipeline",
        "kernel_kind": "successor",
        "f": "x",
        "zeta0": [0.5, 0],
        "zeta": [1, 0],
        "grid": {"x0": 1.9, "x1": 2.1, "y0": -0.1, "y1": 0.1, "nx": 1, "ny": 1},
    },
}


_FUNDAMENTAL = {
    "f": "x",
    "zeta": [2, 0],
    "z0": "zeta+1",
    "grid": {"x0": 1.2, "x1": 3.0, "y0": -0.8, "y1": 0.8, "nx": 1, "ny": 1},
}

# the symbolic workload's Schroedinger scan at seed 1, on 3 x 3 samples
_SCHROEDINGER_SCAN = {
    "kind": "schroedinger",
    "field": {"sc": "1.041928*exp(x)*(cos(y) + 2)"},
    "q": "2/(cos(y) + 2)",
    "region": {"x0": -0.721448, "x1": 0.778552, "y0": -0.373463, "y1": 1.126537},
    "samples": 3,
}


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("cauchy", ("interior",), [[1]]),
        ("cauchy", ("interior",), [["a", 1]]),
        ("cauchy", ("contour", "radius"), True),
        ("cauchy", ("contour", "center"), [True, 0]),
        ("cauchy", ("contour", "center"), [float("nan"), 0]),
        ("build-powers", ("region", "x0"), True),
        ("build-powers", ("separable",), 0),
        ("build-powers", ("region", "y1"), "abc"),
        ("build-powers", ("seed",), [1]),
        ("residual-scan", ("h",), 0),
        ("eval-kernel", ("kernel_kind",), "mian"),
        # expression keys take strings only
        ("cauchy", ("pair",), {"F_sc": "x", "F_vec": [1], "G_sc": "1"}),
        ("cauchy", ("pair",), {"F_sc": "x", "F_vec": 2, "G_sc": "1"}),
    ],
)
def test_bad_number_or_kind_is_config_error(tmp_path, capsys, command, path, value):
    cfg = json.loads(json.dumps(_NUMBERS[command]))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = _write(tmp_path, "c.json", cfg)
    assert main([command, "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("command", sorted(_NUMBERS))
def test_valid_number_configs_run(tmp_path, command):
    config = _write(tmp_path, "c.json", _NUMBERS[command])
    assert main([command, "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0


def test_long_flat_chain_is_rejected_without_recursion_error(tmp_path, capsys):
    cfg = dict(_VALID["residual-scan"], field={"sc": " + ".join(["x*y"] * 1200)})
    config = _write(tmp_path, "c.json", cfg)
    assert main(["residual-scan", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "ExprSyntaxError" in err and "RecursionError" not in err


@pytest.mark.parametrize(
    "command, cfg",
    [
        (
            "verify-reproducing",
            {"kernel": "x-main", "f": "(1 - 1)^-1*x", "contour": {"center": [3, 0], "radius": 1, "nodes": 16}},
        ),
        (
            "residual-scan",
            {"f": "(1-1)^-1 + x", "field": {"sc": "x"}, "region": {"x0": 1.0, "x1": 2.0, "y0": -0.5, "y1": 0.5}},
        ),
    ],
)
def test_constant_zero_to_a_negative_power_is_an_evaluation_error(tmp_path, capsys, command, cfg):
    # the constant (1 - 1)^-1 is kept, not folded, and its first evaluation
    # raises at its point
    config = _write(tmp_path, "c.json", cfg)
    assert main([command, "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "EvaluationError: division by zero at (" in err and "ZeroDivisionError" not in err


@pytest.mark.parametrize(
    "f, error",
    [("(1e200)^2 + x", "EvaluationError: complex exponentiation at ("), ("1e200*1e200 + x", "InvalidValueError")],
)
def test_constant_past_the_double_range_is_a_typed_error(tmp_path, capsys, f, error):
    # the constant is kept, not folded to a value no double holds, and its
    # evaluation raises a typed error
    cfg = {"f": f, "field": {"sc": "x"}, "region": {"x0": 1.0, "x1": 2.0, "y0": -0.5, "y1": 0.5}}
    config = _write(tmp_path, "c.json", cfg)
    assert main(["residual-scan", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert error in err and "OverflowError" not in err and "NameError" not in err


@pytest.mark.parametrize("command", ["verify-reproducing", "cauchy"])
@pytest.mark.parametrize(
    "f, error",
    [("(1e200)^2 + x", "EvaluationError: complex exponentiation at ("), ("1e200*1e200 + x", "InvalidValueError")],
)
def test_contour_commands_refuse_a_constant_past_the_double_range(tmp_path, capsys, command, f, error):
    # the pair (f, j/f) runs as numpy code on the contour's nodes; the
    # constant's fault there re-runs the scalar code, which raises its
    # typed error at its point
    cfg = {"kernel": "x-main", "f": f, "contour": {"center": [3, 0], "radius": 1, "nodes": 16}}
    config = _write(tmp_path, "c.json", cfg)
    assert main([command, "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert error in err and "OverflowError" not in err and "NameError" not in err


def test_contour_past_the_double_range_is_a_plain_text_evaluation_error(tmp_path, capsys):
    # a kernel value at a node of a radius-1e300 contour overflows in cmath,
    # whose OverflowError text is an errno tuple
    cfg = {"kernel": "x-main", "f": "x", "contour": {"center": [3, 0], "radius": 1e300, "nodes": 16}, "tol": 1e-6}
    config = _write(tmp_path, "c.json", cfg)
    assert main(["verify-reproducing", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (verify-reproducing): EvaluationError: result outside the double range at (")
    assert "Numerical result" not in err and "(34" not in err


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        (
            "verify-reproducing",
            {
                "kernel": "x-main",
                "f": "x",
                "contour": {"center": [3, 0], "radius": 1, "node": 8},
                "tolerance": 1e-30,
                "fromula": "first",
            },
            "unknown key 'contour.node'; did you mean 'contour.nodes'?",
        ),
        ("eval-kernel", dict(_VALID["eval-kernel"], alfa="j"), "unknown key 'alfa'; did you mean 'alpha'?"),
        (
            "build-powers",
            dict(_VALID["build-powers"], separable={"phi": "x", "psi": "1", "m": 0}),
            "unknown key 'separable.m'",
        ),
        (
            "build-fundamental",
            {"f": "x", "zeta": [1, 0], "zeta_0": [0.5, 0], "z0": "zeta+1"},
            "unknown key 'zeta_0'; did you mean 'zeta0'?",
        ),
        (
            "residual-scan",
            dict(_VALID["residual-scan"], field={"sc": "x", "vex": "0"}),
            "unknown key 'field.vex'; did you mean 'field.vec'?",
        ),
        (
            "cauchy",
            dict(_NUMBERS["cauchy"], pair={"separable": {"phi": "1", "psi": "1", "mm": 0}}),
            "unknown key 'pair.separable.mm'; did you mean 'pair.separable.m'?",
        ),
        # every value the table checks is refused before the command starts,
        # read by the run or not, and its message names the dotted key
        ("residual-scan", dict(_VALID["residual-scan"], q=5), "config key 'q' must be a string"),
        ("eval-kernel", dict(_VALID["eval-kernel"], zeta0="abc"), "config key 'zeta0' must be a [x, y] pair"),
        ("eval-kernel", dict(_VALID["eval-kernel"], f=5), "config key 'f' must be a string"),
        (
            "residual-scan",
            dict(_VALID["residual-scan"], pair={"separable": {"phi": "exp(x)", "psi": "1"}}),
            "missing required config key 'pair.separable.m'",
        ),
        (
            "build-powers",
            dict(_VALID["build-powers"], region={"x0": 1.0, "x1": 3.0, "y0": -1.0, "y1": 1.0, "h": "abc"}),
            "unknown key 'region.h'",
        ),
        (
            "cauchy",
            dict(_NUMBERS["cauchy"], field={"sc": "x", "vec": [1]}),
            "config key 'field.vec' must be a string",
        ),
        # a key the chosen mode never reads, set to other than its default
        (
            "residual-scan",
            dict(_NUMBERS["residual-scan"], field={"sc": "x", "vec": "exp(x)*y*y"}, pair={"F_sc": "zz"}),
            "config key 'field.vec' is not read by a 'schroedinger' scan",
        ),
        (
            "residual-scan",
            dict(_NUMBERS["residual-scan"], pair={"F_sc": "zz"}),
            "config key 'pair' is not read by a 'schroedinger' scan",
        ),
        (
            "residual-scan",
            dict(_NUMBERS["residual-scan"], f="x"),
            "config key 'f' is not read by a 'schroedinger' scan",
        ),
        ("residual-scan", dict(_VALID["residual-scan"], q="0"), "config key 'q' is not read by a 'vekua' scan"),
        ("residual-scan", dict(_VALID["residual-scan"], h=0.01), "config key 'h' is not read by a 'vekua' scan"),
        (
            "eval-kernel",
            dict(_NUMBERS["eval-kernel"], kernel="x-main"),
            "config key 'zeta0' is not read by the stock kernel 'x-main'",
        ),
        (
            "eval-kernel",
            dict(_VALID["eval-kernel"], kernel_kind="successor"),
            "config key 'kernel_kind' is not read by the stock kernel 'x-main'",
        ),
        (
            "cauchy",
            dict(_NUMBERS["cauchy"], zeta0=[0.5, 0]),
            "config key 'zeta0' is not read by the stock kernel 'x-main'",
        ),
        # type errors come first
        (
            "residual-scan",
            dict(_NUMBERS["residual-scan"], pair={"F_sc": 1}),
            "config key 'pair.F_sc' must be a string",
        ),
        # point lists and points
        ("cauchy", dict(_NUMBERS["cauchy"], interior=5), "config key 'interior' must be a list of [x, y] pairs"),
        (
            "build-fundamental",
            dict(_FUNDAMENTAL, z0=5),
            "config key 'z0' must be a [x, y] pair or 'zeta+1'",
        ),
        # f and zeta0 where nothing reads them
        ("eval-kernel", dict(_VALID["eval-kernel"], f="exp(x)"), "config key 'f' is not read by the stock kernel 'x-main'"),
        (
            "build-fundamental",
            dict(_FUNDAMENTAL, zeta0=[7, 7]),
            "config key 'zeta0' is not read with the catalog f 'x'",
        ),
        (
            "verify-reproducing",
            {"kernel": "x-main", "f": "x", "pair": {"F_sc": "x", "G_sc": "0", "G_vec": "1/x"},
             "contour": {"center": [3, 0], "radius": 1}},
            "config key 'f' is not read by the stock kernel 'x-main' and 'pair'",
        ),
        (
            "cauchy",
            dict(_NUMBERS["cauchy"], pair={"F_sc": "x", "G_sc": "0", "G_vec": "1/x"}),
            "config key 'f' is not read by the stock kernel 'x-main' and 'pair'",
        ),
        # refused by the command, still before it writes anything
        (
            "verify-reproducing",
            {"kernel": "x-main", "contour": {"center": [3, 0], "radius": 1}},
            "config must provide 'pair' or 'f'",
        ),
        (
            "eval-kernel",
            dict(_NUMBERS["eval-kernel"], f="exp(x)"),
            "the built-in fundamental solution covers potential 0 only; "
            "the potential of f does not vanish at PlanePoint(x=1.1, y=0.2)",
        ),
        # keys whose value no run of the chosen mode reads
        (
            "residual-scan",
            dict(_VALID["residual-scan"], f="exp(x)"),
            "config key 'f' is not read by a 'vekua' scan given a 'pair'",
        ),
        (
            "build-powers",
            dict(_VALID["build-powers"], pair={"F_sc": "zz", "G_sc": "1"}),
            "config key 'pair' is not read with the catalog f 'x'",
        ),
        (
            "build-powers",
            {"kernel": "analytic", "f": "1", "separable": {"phi": "1", "psi": "1"}, "n": 3,
             "region": {"x0": -1, "x1": 1, "y0": -1, "y1": 1}, "samples": 7},
            "config key 'samples' is not read by the residual scan, which uses one center",
        ),
        (
            "build-fundamental",
            dict(_FUNDAMENTAL, z0=[3, 0.5], tol=1e-3),
            "config key 'tol' is not read without a closed-form check",
        ),
        # a step h that leaves a sample point in place, or whose square
        # underflows (the one sample (0, 0) moves by any h)
        *(
            ("residual-scan", dict(_SCHROEDINGER_SCAN, **step), "config key 'h' is too small to move every sample point")
            for step in (
                {"h": 5e-324},
                {"h": 1e-320},
                {"h": 1e-300},
                {"h": 1e-300, "samples": 1, "region": {"x0": -1, "x1": 1, "y0": -1, "y1": 1}},
            )
        ),
        # a detour path's start within calculus.EXCLUSION of the point it
        # avoids: a pipeline zeta0 by a contour node, a main-kind zeta by zeta0
        *(
            (
                command,
                dict(_ON_CONTOUR, zeta0=[2.3000000000001, 0]),
                "config key 'zeta0' holds [2.3000000000001, 0.0], a node of the contour to within 1e-12",
            )
            for command in ("verify-reproducing", "cauchy")
        ),
        *(
            (
                "eval-kernel",
                dict(_NUMBERS["eval-kernel"], kernel_kind="main", zeta=[x, 0]),
                f"config key 'zeta' holds [{x!r}, 0.0], the point of 'zeta0' to within 1e-12",
            )
            for x in (0.5, 0.5000000000001)
        ),
        # a successor Z(j) grid point by zeta0, where each walk starts
        *(
            (
                "eval-kernel",
                {"kernel": "pipeline", "f": "x", "zeta0": [x, 0], "zeta": [1, 0], "kernel_kind": "successor",
                 "alpha": "j", "grid": {"x0": 1.9, "x1": 2.1, "y0": -0.1, "y1": 0.1, "nx": 1, "ny": 1}},
                f"config key 'zeta0' holds [{x!r}, 0.0], a point of the grid to within 1e-12",
            )
            for x in (2.0, 2.0000000000001)
        ),
    ],
)
def test_unknown_key_is_config_error(tmp_path, capsys, command, cfg, message):
    config = _write(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()  # refused before the command started


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("cauchy", dict(_NUMBERS["cauchy"], field=5), "field"),
        ("cauchy", dict(_NUMBERS["cauchy"], pair={"separable": 5}), "pair.separable"),
        ("build-powers", dict(_VALID["build-powers"], region=[1, 3, -1, 1]), "region"),
    ],
)
def test_non_object_is_config_error(tmp_path, capsys, command, cfg, key):
    config = _write(tmp_path, "c.json", cfg)
    assert main([command, "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: config key '{key}' must be an object\n"


def test_region_too_small_for_sample_pairs_is_config_error(tmp_path, capsys):
    # no two points of a 0.1 x 0.1 region are more than 0.2 apart, and almost
    # no two of a region just over 0.2 across, so drawing sample pairs would
    # never end; the alarm turns a hang into a failure
    regions = [
        ({"x0": 1.0, "x1": 1.1, "y0": 0.0, "y1": 0.1}, 4),
        ({"x0": 1, "x1": 1.2000001, "y0": 0, "y1": 0}, 2),
        ({"x0": 1, "x1": 1.1415, "y0": 0, "y1": 0.1415}, 20),
    ]

    def hang(signum, frame):
        raise TimeoutError("build-powers did not return")

    for region, samples in regions:
        cfg = dict(_VALID["build-powers"], region=region, samples=samples)
        config = _write(tmp_path, "c.json", cfg)
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(20)
        try:
            code = main(["build-powers", "--config", str(config), "--out", str(tmp_path), "--quiet"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2, region
        assert capsys.readouterr().err.startswith("config error: region is too small"), region


def test_residual_scan_of_a_zero_pair_is_a_typed_error(tmp_path, capsys):
    # f = 0 makes the pair (0, j/0): inverting its constant D = 0 raises as
    # Bicomplex.inv does, where it once folded to 0 and gave residual 0.5
    cfg = dict(_VALID["residual-scan"], f="0")
    del cfg["pair"]
    config = _write(tmp_path, "c.json", cfg)
    assert main(["residual-scan", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 2
    assert "DivisionByZeroError" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1", "j"])
def test_eval_kernel_csv_is_the_per_point_rows(tmp_path, alpha):
    # zeta is a grid point, which the kernel table leaves out
    grid = {"x0": 0.5, "x1": 2.5, "y0": -1.0, "y1": 1.0, "nx": 7, "ny": 5}
    zeta = midpoints(**grid)[12]
    cfg = {"kernel": "x-main", "zeta": [zeta.x, zeta.y], "alpha": alpha, "grid": grid}
    config = _write(tmp_path, "c.json", cfg)
    assert main(["eval-kernel", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    fam = x_main_family()
    coef = fam.coef1 if alpha == "1" else fam.coefj
    points = [p for p in midpoints(**grid) if p != zeta]
    assert len(points) == 34
    header, *rows = (tmp_path / "kernel.csv").read_text().splitlines()
    assert header == cli.CSV_HEADER
    assert len(rows) == len(points)
    # byte for byte, the face's values formatted one number at a time
    xs, ys = np.array([p.x for p in points]), np.array([p.y for p in points])
    sc, vec = coef.on(zeta.x, zeta.y, xs, ys)
    assert rows == _old_rows(xs, ys, sc.real, sc.imag, vec.real, vec.imag)
    for row, p in zip(rows, points):
        w = coef(zeta, p)
        want = [p.x, p.y, w.sc.real, w.sc.imag, w.vec.real, w.vec.imag]
        got = [float(v) for v in row.split(",")]
        assert got[:2] == want[:2]
        assert all(abs(g - v) <= 1e-15 * max(1.0, abs(v)) for g, v in zip(got, want))


def test_successor_zj_grid_point_at_zeta_by_zeta0_is_left_out(tmp_path):
    # the table leaves out the grid point (2, 0) at zeta, so no walk starts
    # by it although it lies within calculus.EXCLUSION of zeta0
    grid = {"x0": 1.7, "x1": 2.3, "y0": -0.1, "y1": 0.1, "nx": 3, "ny": 1}
    cfg = {"kernel": "pipeline", "f": "x", "zeta0": [2.0000000000001, 0], "zeta": [2, 0],
           "kernel_kind": "successor", "alpha": "j", "grid": grid}
    config = _write(tmp_path, "c.json", cfg)
    assert main(["eval-kernel", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    assert len((tmp_path / "kernel.csv").read_text().splitlines()) == 3


def _old_rows(*columns) -> list[str]:
    """CSV rows as the writer once made them: each number of each row
    formatted with "%.17g" on its own."""
    return [",".join("%.17g" % v for v in row) for row in zip(*(np.asarray(c).tolist() for c in columns))]


# zeros of both signs, subnormals, the ends of the double range and numbers
# that "%.17g" prints in exponent form
_CELLS = [0.0, -0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -1.7976931348623157e308, 1e-7, 1e17, -3e22]
_cell = st.one_of(st.sampled_from(_CELLS), st.floats(allow_nan=False, allow_infinity=False))
_zero = st.sampled_from([0.0, -0.0])
_bound = st.floats(-1e3, 1e3)


@given(st.tuples(_bound, _bound, _bound, _bound, st.integers(1, 4), st.integers(1, 4)), st.data())
def test_csv_rows_are_the_per_number_text(grid, data):
    # the writer's lines are, as text, the numbers formatted one by one:
    # coordinates of any grid (bounds in either order, or equal), a row
    # left out, columns that mix 0.0 and -0.0, and constant columns
    x0, x1, y0, y1, nx, ny = grid
    ((xs, ys),) = calculus.grid_columns(x0, x1, y0, y1, nx, ny)
    keep = np.arange(xs.size) != data.draw(st.integers(-1, xs.size - 1))
    xs, ys, n = xs[keep], ys[keep], int(keep.sum())
    drawn = [np.array(data.draw(st.lists(c, min_size=n, max_size=n))) for c in (_cell, _cell, _zero)]
    constant = np.full(n, data.draw(st.sampled_from(_CELLS)))
    columns = [*drawn, constant, np.full(n, -0.0)]
    got = cli._csv_rows(cli._grid_texts(x0, x1, y0, y1, nx, ny), xs, ys, *columns)
    assert got == "".join(f"{row}\n" for row in _old_rows(xs, ys, *columns))


@pytest.fixture
def successor_coefj_calls(monkeypatch):
    """The (zeta, z) of every successor coefj value a pipeline run computes:
    each pair its pair face receives, a call being the face at one pair."""
    calls = []
    on = SuccessorCoefj.on

    def counted(self, xi, eta, x, y):
        calls.extend(pairs_of(xi, eta, x, y))
        return on(self, xi, eta, x, y)

    monkeypatch.setattr(SuccessorCoefj, "on", counted)
    return calls


def test_first_formula_pipeline_walks_the_contour_once(tmp_path, successor_coefj_calls):
    cfg = {
        "kernel": "pipeline",
        "f": "x",
        "zeta0": [0.5, 0],
        "formula": "first",
        "contour": {"center": [2, 0], "radius": 0.3, "nodes": 16},
        "interior": [[2.05, 0.05]],
        "exterior": [[2.9, 0.1]],
        "tol": 1e-6,
    }
    config = _write(tmp_path, "c.json", cfg)
    assert main(["cauchy", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    # one successor coefj per node and probe: 16 nodes x 2 probes
    assert len(successor_coefj_calls) == 32


def test_pipeline_verify_reproducing_walks_f_and_g_together(tmp_path, successor_coefj_calls):
    cfg = {
        "kernel": "pipeline",
        "f": "x",
        "zeta0": [0.5, 0],
        "contour": {"center": [2, 0], "radius": 0.3, "nodes": 16},
        "tol": 1e-6,
    }
    config = _write(tmp_path, "c.json", cfg)
    # 16 nodes do not reproduce to 1e-6 yet; the deviations are the point
    assert main(["verify-reproducing", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 1
    # one successor coefj per node for the center integral and for each of
    # the 8 probes, where F and G share a walk: 16 x 9
    assert len(successor_coefj_calls) == 144
    # the deviations are those of one walk for F and another for G
    values = cli._validate(cfg, CONFIG_SCHEMA["verify-reproducing"])
    fam, pair = cli._build_kernel(values), cli._build_pair(values)
    contour = ContourSpec.circle(**values["contour"])
    devs = [
        cauchy_deviations(
            lambda points: [[v] for v in formal_contour_integral(fam, w, contour, points)],
            [w], contour.interior, contour.exterior,
        )
        for w in (pair.F, pair.G)
    ]
    checks = {c["name"]: c["value"] for c in _report(tmp_path)["checks"]}
    assert (checks["interior_deviation"], checks["exterior_deviation"]) == tuple(map(max, zip(*devs)))


def test_pipeline_build_powers_shares_derivatives_between_slots(tmp_path, successor_coefj_calls):
    # the anchored pipeline kernel differs from the closed form by a regular
    # solution, so the deviation check is not the point here (tol 1); each
    # sample pair evaluates both slots, and both share one table of central
    # differences of degree 1: 2 samples x 5 offsets
    cfg = {
        "kernel": "pipeline",
        "f": "x",
        "zeta0": [0.5, 0],
        "separable": {"phi": "x", "psi": "1"},
        "n": 2,
        "region": {"x0": 1.0, "x1": 3.0, "y0": -1.0, "y1": 1.0},
        "samples": 2,
        "tol": 1,
    }
    config = _write(tmp_path, "c.json", cfg)
    assert main(["build-powers", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    assert len(successor_coefj_calls) == 10


# Pipeline build-powers configs: the main kind of f = x (m), its successor
# kind with the successor pair (s), and the main kind of f = exp(x) cos(y)
# (e), at orders -1 to -4; "1*x" avoids the catalog mode of "x".
_M1 = {
    "kernel": "pipeline",
    "f": "1*x",
    "zeta0": [0.5, 0],
    "separable": {"phi": "x", "psi": "1"},
    "n": 1,
    "region": {"x0": 1.5, "x1": 2.5, "y0": -0.5, "y1": 0.5},
    "tol": 1e-6,
}
_S1 = {**_M1, "kernel_kind": "successor", "pair": {"F_sc": "1/x", "G_sc": "0", "G_vec": "x"}}
_E1 = {
    **_M1, "f": "exp(x)*cos(y)", "separable": {"phi": "exp(x)", "psi": "cos(y)"},
    "region": {"x0": 1.0, "x1": 2.0, "y0": -0.5, "y1": 0.5},
}
_PIPELINE_POWERS = {
    f"{name}{n}": {**cfg, "n": n}
    for name, cfg, orders in (("m", _M1, (1, 2, 3, 4)), ("s", _S1, (1, 2)), ("e", _E1, (1, 2, 3)))
    for n in orders
}


def test_pipeline_residual_scan_is_exact_from_one_walk_batch(tmp_path, monkeypatch, central_differences):
    # the order -1 kernels' partials in z at the 97 scan points come from
    # one batch of successor coefj walks: of the values for the main kind,
    # whose partials in z are the successor's at the walk's end, and of the
    # integrand with its partials in z for the successor kind
    batch = SuccessorCoefj._batch
    for cfg in (_PIPELINE_POWERS["m1"], _PIPELINE_POWERS["s1"]):
        batches = []
        monkeypatch.setattr(
            SuccessorCoefj, "_batch", lambda self, *args: batches.append(len(pairs_of(*args[:4]))) or batch(self, *args)
        )
        config = _write(tmp_path, "c.json", cfg)
        assert main(["build-powers", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
        assert batches == [97]
    assert central_differences == []


@pytest.mark.parametrize("name", sorted(_PIPELINE_POWERS))
def test_pipeline_build_powers_pass(tmp_path, name):
    # each order's partials are the chain of the base's exact partials, so
    # the residual stays near rounding at every n
    config = _write(tmp_path, "c.json", _PIPELINE_POWERS[name])
    assert main(["build-powers", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    (check,) = _report(tmp_path)["checks"]
    assert check["name"] == "max_vekua_residual"
    assert check["value"] <= 1e-6


def _readme_config_keys() -> dict[tuple[str, str], object]:
    """(key, command) -> default, from README's table under "### Config keys"."""
    section = (ROOT / "README.md").read_text().split("### Config keys", 1)[1].split("\n#", 1)[0]
    words = {"required": REQUIRED, "—": None}
    defaults = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            default = words[cells[2]] if cells[2] in words else json.loads(cells[2].strip("`"))
            for key in re.findall(r"`([^`]+)`", cells[0]):
                for command in cells[1].split(", "):
                    assert (key, command) not in defaults, f"{key} listed twice for {command}"
                    defaults[key, command] = default
    return defaults


def test_readme_names_exactly_the_accepted_keys():
    accepted = {}

    def walk(table: dict, command: str, prefix: str = "") -> None:
        for key, (check, default) in table.items():
            accepted[prefix + key, command] = default
            if isinstance(check, dict):
                walk(check, command, f"{prefix}{key}.")

    for command, table in CONFIG_SCHEMA.items():
        walk(table, command)
    assert _readme_config_keys() == accepted


def test_readme_python_blocks_run():
    # the quickstart and the from-scratch block, in order, in one namespace
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    ns: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), ns)
    w, z0 = ns["w"], ns["z0"]
    assert (ns["value"] - w(z0).scale(2 * math.pi)).norm <= 1e-6


def test_readme_config_example_runs(tmp_path):
    # the ```json block after "Example" in README's command-line section
    text = (ROOT / "README.md").read_text().split("## Command-line interface", 1)[1]
    (block,) = re.findall(r"```json\n(.*?)```", text, re.S)
    path = tmp_path / "config.json"
    path.write_text(block)
    assert main(["verify-reproducing", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    assert _report(tmp_path)["pass"] is True


def _workloads():
    """bench/workloads.py, the benchmark's configs."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_configs_validate():
    workloads = _workloads()
    commands = set()
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for tiny in (False, True):
                for _, command, cfg in workloads.generate(workload, seed, tiny):
                    cli._validate(json.loads(json.dumps(cfg)), CONFIG_SCHEMA[command])
                    commands.add(command)
    assert commands == set(CONFIG_SCHEMA)


def test_symbolic_build_powers_compiles_only_what_it_evaluates(tmp_path, compiles):
    # n = 3 powers by the Taylor-jet Bers chain compile one jet program of
    # the hat kernels and one of A and B for each of the two pairs; the
    # pairs' other fields compile on a first call, which never comes
    (cfg,) = [c for _, command, c in _workloads().generate("symbolic", 1) if command == "build-powers"]
    config = _write(tmp_path, "p.json", cfg)
    assert main(["build-powers", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    assert len(compiles) <= 4


@pytest.mark.parametrize(
    "name, step",
    [
        pytest.param("residual-scan-m0", {}, id="residual-scan-m0"),
        pytest.param("residual-scan-m1", {}, id="residual-scan-m1"),
        pytest.param("residual-scan-schroedinger", {}, id="residual-scan-schroedinger"),
        pytest.param("residual-scan-schroedinger", {"h": 1e-3, "tol": 1e-5}, id="residual-scan-schroedinger-h"),
    ],
)
def test_symbolic_residual_scan_is_one_array_check(tmp_path, point_calls, monkeypatch, name, step):
    # the scan makes no one-point call, and each row is the point-by-point
    # residual of Bicomplex values to rounding; with a step h, a
    # Schroedinger scan evaluates u at the stencil and at the nodes
    cfg = {run: c for run, _, c in _workloads().generate("symbolic", 1)}[name] | step
    config = _write(tmp_path, "r.json", cfg)
    on, evaluated = Field.on, []
    monkeypatch.setattr(Field, "on", lambda self, xs, ys: evaluated.append(self.sym) or on(self, xs, ys))
    assert main(["residual-scan", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    assert point_calls == []
    monkeypatch.undo()
    values = cli._validate(cfg, CONFIG_SCHEMA["residual-scan"])
    if values["kind"] == "vekua":
        w, pair = Field.from_exprs(values["field"]["sc"]), cli._build_pair(values)
        oracle = lambda p: scalar_vekua_residual(w, pair, p)  # noqa: E731
    else:
        u, q = Field.from_exprs(values["field"]["sc"]), Field.from_exprs(values["q"])
        oracle = lambda p: scalar_schroedinger_residual(u, q, p, values["h"])  # noqa: E731
        if values["h"] is not None:
            assert evaluated.count(u.sym) == 2
    header, *rows = (tmp_path / "residuals.csv").read_text().splitlines()
    assert header == "x,y,residual" and len(rows) == values["samples"] ** 2
    for row in rows:
        x, y, residual = map(float, row.split(","))
        assert abs(residual - oracle(PlanePoint(x, y))) <= 1e-15


@pytest.mark.parametrize("argv", [
    ["no-such-command", "--config", "c.json"],
    ["cauchy", "--quiet"],
    [],
    ["cauchy", "--config"],
    ["cauchy", "--config", "--quiet"],
    ["cauchy", "--config", "c.json", "--verbose"],
    ["cauchy", "--config", "c.json", "--quiet=yes"],
    ["cauchy", "eval-kernel", "--config", "c.json"],
    ["cauchy", "--conf", "c.json"],  # argparse took abbreviations; vekua does not
])
def test_bad_arguments_exit_2_with_usage(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    usage, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: vekua") and error.startswith("vekua: error: ")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage_and_exits_0(flag, capsys):
    with pytest.raises(SystemExit) as info:
        main(["cauchy", flag])
    assert info.value.code == 0
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage.startswith("usage: vekua") and all(command in usage for command in cli._COMMANDS)


def test_option_values_may_follow_an_equals_sign(tmp_path):
    cfg = {"kernel": "x-main", "zeta": [1.0, 0.1],
           "grid": {"x0": 1.5, "x1": 3.0, "y0": -1.0, "y1": 1.0, "nx": 3, "ny": 3}}
    config, out = _write(tmp_path, "c.json", cfg), tmp_path / "out"
    assert main(["eval-kernel", f"--config={config}", f"--out={out}", "--quiet"]) == 0
    assert _report(out)["pass"] is True


def test_closed_form_eval_kernel_builds_no_partial_kernel(tmp_path, compiles, monkeypatch):
    # eval-kernel reads values only: no partial kernel is differentiated or
    # compiled, only the kernel itself
    diffs = []
    diff = expr.diff
    monkeypatch.setattr(expr, "diff", lambda e, var: diffs.append(var) or diff(e, var))
    cfg = {"kernel": "x-main", "zeta": [1.0, 0.1],
           "grid": {"x0": 1.5, "x1": 3.0, "y0": -1.0, "y1": 1.0, "nx": 3, "ny": 3}}
    config = _write(tmp_path, "c.json", cfg)
    assert main(["eval-kernel", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    k = x_main_family().coef1.sym
    assert compiles and all(e == (k.sc, k.vec) for e in compiles)
    assert diffs == []


# the pipeline workload of the benchmark, at its smallest
_PIPELINE_RUNS = [
    ("cauchy", {
        "kernel": "pipeline", "f": "x", "zeta0": [0.5, 0.0], "formula": "second",
        "contour": {"center": [2.0, 0.0], "radius": 0.3, "nodes": 16},
        "interior": [[2.05, 0.05]], "exterior": [[2.9, 0.1]], "tol": 1.0,
    }),
    ("eval-kernel", {
        "kernel": "pipeline", "f": "x", "zeta0": [0.5, 0.0], "zeta": [1.0, 0.1],
        "grid": {"x0": 1.5, "x1": 3.0, "y0": -1.0, "y1": 1.0, "nx": 2, "ny": 2},
    }),
    ("build-fundamental", {
        "f": "exp(x)*cos(y)", "zeta0": [0.5, 0.0], "zeta": [1.0, 0.1], "z0": "zeta+1",
        "grid": {"x0": 1.4, "x1": 2.2, "y0": -0.3, "y1": 0.5, "nx": 2, "ny": 1},
    }),
]


def test_pipeline_walks_are_array_jobs(tmp_path, monkeypatch):
    # every successor and Darboux walk is built and evaluated by a pair
    # face's array job: no per-walk transform (the library builds no single
    # detour path), and no walk evaluates its nodes one by one
    per_walk, node_by_node, depth, jobs = [], [], [0], []
    for module in (calculus, schroedinger):
        monkeypatch.setattr(module, "tf_transform", lambda *args: per_walk.append(args))
    for face in (SuccessorCoefj, DarbouxFundamental):
        batch = face._batch

        def inside(self, *args, batch=batch):
            jobs.append(type(self))
            depth[0] += 1
            try:
                return batch(self, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(face, "_batch", inside)
    pointwise = fields.pointwise

    def counted_pointwise(*args):
        if depth[0]:
            node_by_node.append(args)
        return pointwise(*args)

    monkeypatch.setattr(fields, "pointwise", counted_pointwise)
    for command, cfg in _PIPELINE_RUNS:
        config = _write(tmp_path, "c.json", cfg)
        assert main([command, "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    assert per_walk == [] and node_by_node == []
    assert set(jobs) == {SuccessorCoefj, DarbouxFundamental}


def test_cli_runs_openblas_on_one_thread(fresh):
    # the CLI chooses one OpenBLAS thread before numpy loads, so OpenBLAS
    # starts no worker: one task where /proc/self/task shows them
    code = (
        "import os, bivekua.cli; t = '/proc/self/task'; "
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir(t)) if os.path.isdir(t) else 1)"
    )
    assert fresh("-c", code) == "1 1"


def test_cli_keeps_the_thread_count_the_user_set(fresh):
    code = "import os, bivekua.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh("-c", code, OPENBLAS_NUM_THREADS="2") == "2"


def test_module_run_reads_its_arguments(fresh):
    # main() without argv parses sys.argv
    assert fresh("-m", "bivekua.cli", "--help").startswith("usage: vekua")


def test_package_import_loads_no_numpy(fresh):
    # so that nothing loads OpenBLAS before bivekua.cli sets its default
    assert fresh("-c", "import sys, bivekua; print('numpy' in sys.modules)") == "False"


def test_library_modules_leave_the_environment_alone(fresh):
    # only the vekua program chooses its BLAS threads; a host program that
    # imports the library keeps its own environment
    modules = "bicomplex, calculus, expr, fields, jets, pairs, powers, schroedinger"
    code = f"import os; before = dict(os.environ); from bivekua import {modules}; print(dict(os.environ) == before)"
    assert fresh("-c", code) == "True"


def test_failed_grid_run_leaves_no_file(tmp_path, capsys):
    # the middle column, x = 0, faults in the second block of one column,
    # after the first block is written: the run leaves neither the part
    # file nor the out directory it made, and keeps one it did not make
    cfg = {"kernel": "x-main", "zeta": [0.9, -0.3],
           "grid": {"x0": -1.5, "x1": 1.5, "y0": 0.5, "y1": 1.5, "nx": 3, "ny": 1000}}
    assert len(list(calculus.grid_columns(**cfg["grid"]))) == 3
    config = _write(tmp_path, "c.json", cfg)
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "kernel.csv").write_text("an earlier table\n")
    for out in (tmp_path / "out" / "deeper", kept):
        assert main(["eval-kernel", "--config", str(config), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == "error (eval-kernel): EvaluationError: division by zero at (0.9, -0.3, 0.0, 0.5005)\n"
    assert not (tmp_path / "out").exists()
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.json", "kept", "kernel.csv"]
    assert (kept / "kernel.csv").read_text() == "an earlier table\n"


def _peak_kb(fresh, tmp_path, command: str, cfg: dict) -> int:
    """The peak RSS, in kB, of a fresh process that runs one command: its
    VmHWM, since the ru_maxrss of a process started by fork and exec keeps
    the high-water mark of the process that forked it, here pytest's."""
    if not Path("/proc/self/status").is_file():
        pytest.skip("no /proc/self/status to read a process's peak RSS from")
    config = _write(tmp_path, "c.json", cfg)
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]
    code = (
        f"from bivekua.cli import main; code = main({argv!r}); "
        "print(code, *[s.split()[1] for s in open('/proc/self/status') if s.startswith('VmHWM:')])"
    )
    exit_code, peak = map(int, fresh("-c", code).split())
    assert exit_code == 0
    return peak


def test_eval_kernel_memory_does_not_grow_with_the_grid(fresh, tmp_path):
    # the table is written block by block: 100 times the points add less
    # than 5 MB (holding the table added 47 MB)
    grid = {"x0": 1.5, "x1": 3.0, "y0": -1.0, "y1": 1.0}
    peaks = [
        _peak_kb(fresh, tmp_path, "eval-kernel", {"kernel": "x-main", "zeta": [1.0, 0.1],
                                                  "grid": {**grid, "nx": n, "ny": n}})
        for n in (40, 400)
    ]
    assert peaks[1] - peaks[0] < 5 * 1024


def test_residual_scan_memory_does_not_grow_with_the_samples(fresh, tmp_path):
    # the scan is made and written block by block (at 400 samples a side,
    # one array scan peaked at 79 MB)
    (cfg,) = [c for run, _, c in _workloads().generate("symbolic", 1) if run == "residual-scan-m0"]
    peaks = [_peak_kb(fresh, tmp_path, "residual-scan", cfg | {"samples": n}) for n in (40, 400)]
    assert peaks[1] - peaks[0] < 5 * 1024


def test_pipeline_run_makes_no_eigenvalue_solve(fresh, tmp_path):
    # the Gauss-Legendre rule is a constant: a run works with LAPACK's
    # symmetric eigensolver refused
    command, cfg = _PIPELINE_RUNS[0]
    config = _write(tmp_path, "c.json", cfg)
    argv = [command, "--config", str(config), "--out", str(tmp_path), "--quiet"]
    code = (
        "import numpy as np, bivekua.cli\n"
        "def refuse(*args, **kwargs):\n"
        "    raise RuntimeError('numpy.linalg.eigvalsh called')\n"
        f"np.linalg.eigvalsh = refuse\nprint(bivekua.cli.main({argv!r}))"
    )
    assert fresh("-c", code) == "0"
