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
def central_differences(monkeypatch):
    """The axis of every ``fields.central_difference`` taken while the test
    runs, and "five-point" for every ``powers._five_point`` stencil."""
    axes = []
    central_difference, five_point = fields.central_difference, powers._five_point

    def counted(func, z, h, axis):
        axes.append(axis)
        return central_difference(func, z, h, axis)

    def counted_stencil(*args):
        axes.append("five-point")
        return five_point(*args)

    monkeypatch.setattr(fields, "central_difference", counted)
    monkeypatch.setattr(powers, "_five_point", counted_stencil)
    return axes
