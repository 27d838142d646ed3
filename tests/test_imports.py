import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__ imports names to re-export them
MODULES = [p for p in sorted((ROOT / "src" / "bivekua").glob("*.py")) if p.name != "__init__.py"]


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [getattr(n, a, None) for n in ast.walk(tree) for a in ("annotation", "returns")]
    for annotation in filter(None, annotations):
        # a string annotation names what it uses inside the string
        for c in ast.walk(annotation):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval")) if isinstance(n, ast.Name)}
    return imported - used


def test_every_imported_name_is_used():
    unused = {}
    for path in MODULES + sorted((ROOT / "tests").glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(), str(path)))
        if names:
            unused[str(path.relative_to(ROOT))] = sorted(names)
    assert unused == {}
