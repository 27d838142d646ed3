import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from bivekua import calculus, expr, fields

# every run draws the same examples: a property's failure reproduces, and a
# pass does not depend on the run
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

SRC = Path(__file__).parents[1] / "src"


@pytest.fixture
def fresh():
    """Runs a fresh interpreter on src/ with the given arguments, with
    OPENBLAS_NUM_THREADS removed from its environment and ``env`` added, and
    gives its standard output, stripped; a non-zero exit fails the test."""

    def run(*args: str, **env: str) -> str:
        environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, *args], env=environ | env, capture_output=True, text=True, timeout=60, check=True
        )
        return done.stdout.strip()

    return run


@pytest.fixture
def compiles(monkeypatch):
    """The expressions, or tuples of them, handed to ``expr.compile_expr``
    while the test runs."""
    seen = []
    compile_expr = expr.compile_expr

    def counted(e, *args, **kwargs):
        seen.append(e)
        return compile_expr(e, *args, **kwargs)

    monkeypatch.setattr(expr, "compile_expr", counted)
    return seen


@pytest.fixture
def point_calls(monkeypatch):
    """The points of every one-point call of a closed form (a field's or a
    kernel's call, its face at one node) while the test runs."""
    calls = []
    call = fields.Field.__call__

    def counted(self, *points):
        if self.sym is not None:
            calls.append(points)
        return call(self, *points)

    monkeypatch.setattr(fields.Field, "__call__", counted)
    return calls


@pytest.fixture
def central_differences(monkeypatch):
    """For every ``fields.differences`` table taken while the test runs,
    through any module that imports it, the offsets per node it evaluates:
    the nodes of its one call of ``values`` over the nodes of its columns."""
    tables = []
    differences = fields.differences

    def counted(values, columns, *args):
        def recorded(*stencil):
            tables.append(np.size(stencil[-1]) // np.size(columns[-1]))
            return values(*stencil)

        return differences(recorded, columns, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("bivekua.") and getattr(module, "differences", None) is differences:
            monkeypatch.setattr(module, "differences", counted)
    return tables


@pytest.fixture
def walk_jobs(monkeypatch):
    """(paths, nodes, 1-forms) of every array job of ``detour_walks`` or
    ``calculus.copies`` that ``Walks.integrate`` runs while the test runs,
    each recorded when its 1-form returns (a ``Path``'s one walk is not a
    job of it)."""
    jobs = []
    integrate = calculus.Walks.integrate

    def counted(self, one_form):
        def recorded(xs, ys, dz):
            values = one_form(xs, ys, dz)
            if not isinstance(self, calculus.Path):
                jobs.append((self.sizes.size, dz.size, len(values)))
            return values

        return integrate(self, recorded)

    monkeypatch.setattr(calculus.Walks, "integrate", counted)
    return jobs
