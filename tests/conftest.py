import pytest

from bivekua import expr


@pytest.fixture
def compiles(monkeypatch):
    """The expressions handed to ``expr.compile_expr`` while the test runs."""
    seen = []
    compile_expr = expr.compile_expr

    def counted(e, *args):
        seen.append(e)
        return compile_expr(e, *args)

    monkeypatch.setattr(expr, "compile_expr", counted)
    return seen
