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


def _private_top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_name_is_used():
    # a private helper that nothing in the package reads any more is a
    # leftover of deleted code
    trees = [ast.parse(path.read_text(), str(path)) for path in MODULES]
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    unused = {
        str(path.relative_to(ROOT)): sorted(_private_top_level_names(tree) - read)
        for path, tree in zip(MODULES, trees)
    }
    assert {k: v for k, v in unused.items() if v} == {}


def test_no_runtime_code_generation():
    # expression programs are interpreted (expr.compile_expr): the package
    # builds no Python source at run time and calls none of the builtins
    # that would run it
    calls = [
        f"{path.name}:{node.lineno} {node.func.id}"
        for path in sorted((ROOT / "src" / "bivekua").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in {"exec", "eval", "compile"}
    ]
    assert calls == []
