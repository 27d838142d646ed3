"""End-to-end tests for the command-line interface."""

import hashlib
import importlib.util
import json
import re
import signal
from pathlib import Path

import pytest

from bivekua import __version__, cli
from bivekua.cli import CONFIG_SCHEMA, REQUIRED, ConfigError, main, run

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


def test_build_powers_residual_uses_exact_partials(tmp_path):
    # the order -3 analytic powers carry closed forms; central differences
    # of them would leave a residual of about 1e-2
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


def test_build_fundamental_catalog_match(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "f": "x",
            "zeta": [2, 0],
            "zeta0": [0.5, 0],
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


def test_residual_scan(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "kind": "vekua",
            "f": "x",
            "field": {"sc": "x", "vec": "0"},
            "region": {"x0": 1.0, "x1": 2.0, "y0": -0.5, "y1": 0.5, "h": 0.1},
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


def test_invalid_json_is_config_error(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("not json")
    assert main(["verify-reproducing", "--config", str(p), "--quiet"]) == 2


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


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("cauchy", ("interior",), [[1]]),
        ("cauchy", ("interior",), [["a", 1]]),
        ("cauchy", ("contour", "radius"), True),
        ("cauchy", ("contour", "center"), [True, 0]),
        ("cauchy", ("contour", "center"), [float("nan"), 0]),
        ("build-powers", ("region", "x0"), True),
        ("build-powers", ("region", "h"), 0),
        ("build-powers", ("region", "h"), "abc"),
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
            "config key 'region.h' must be a finite number",
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
    # no two points of a 0.1 x 0.1 region are more than 0.2 apart, so drawing
    # sample pairs would never end; the alarm turns a hang into a failure
    cfg = dict(_VALID["build-powers"], region={"x0": 1.0, "x1": 1.1, "y0": 0.0, "y1": 0.1})
    config = _write(tmp_path, "c.json", cfg)

    def hang(signum, frame):
        raise TimeoutError("build-powers did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        code = main(["build-powers", "--config", str(config), "--out", str(tmp_path), "--quiet"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: region is too small")


@pytest.fixture
def successor_coefj_calls(monkeypatch):
    """The (zeta, z) of every successor coefj value a pipeline run computes."""
    calls = []
    build = cli.successor_kernel_coefj

    def counted_family(*args, **kwargs):
        fam = build(*args, **kwargs)
        coefj = fam.coefj
        fam.coefj = lambda zeta, z: calls.append((zeta, z)) or coefj(zeta, z)
        return fam

    monkeypatch.setattr(cli, "successor_kernel_coefj", counted_family)
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


def test_pipeline_build_powers_shares_derivatives_between_slots(tmp_path, successor_coefj_calls):
    # the anchored pipeline kernel differs from the closed form by a regular
    # solution, so the deviation check is not the point here (tol 1); each
    # sample pair evaluates both slots, and both share one evaluation of
    # each derivative: 2 samples x 2 derivatives x 5 stencil points
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
    assert len(successor_coefj_calls) == 20


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


def test_benchmark_configs_validate():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    commands = set()
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for tiny in (False, True):
                for _, command, cfg in workloads.generate(workload, seed, tiny):
                    cli._validate(json.loads(json.dumps(cfg)), CONFIG_SCHEMA[command])
                    commands.add(command)
    assert commands == set(CONFIG_SCHEMA)
