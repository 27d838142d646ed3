import pytest
from hypothesis import settings

from bivekua import expr, fields, powers

# every run draws the same examples: a property's failure reproduces, and a
# pass does not depend on the run
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


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
def cmath_calls(monkeypatch):
    """The arguments of every call of a cmath-bound program (the programs
    ``SymBC.compiled`` gives, behind every field and kernel call) while the
    test runs."""
    calls = []
    compiled = fields.SymBC.compiled

    def counted(self):
        program = compiled(self)
        return lambda *args: calls.append(args) or program(*args)

    monkeypatch.setattr(fields.SymBC, "compiled", counted)
    return calls


@pytest.fixture
def central_differences(monkeypatch):
    """The axis of every ``fields.central_difference`` taken while the test
    runs, and "five-point" for every ``powers._five_point`` stencil."""
    axes = []
    central_difference, five_point = fields.central_difference, powers._five_point

    def counted(values, xs, ys, h, axis):
        axes.append(axis)
        return central_difference(values, xs, ys, h, axis)

    def counted_stencil(*args):
        axes.append("five-point")
        return five_point(*args)

    monkeypatch.setattr(fields, "central_difference", counted)
    monkeypatch.setattr(powers, "_five_point", counted_stencil)
    return axes
