import ast
import hashlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "bivekua").glob("*.py"))


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


def test_cli_import_loads_no_heavy_stdlib_module(fresh):
    # hashlib loads OpenSSL (3 ms and 3.6 MB a start); dataclasses, argparse
    # and gettext cost milliseconds that a vekua run never uses
    heavy = {"hashlib", "_hashlib", "dataclasses", "argparse", "gettext"}
    assert fresh("-c", f"import sys, bivekua.cli; print(sorted({heavy!r} & set(sys.modules)))") == "[]"


def test_config_hash_without_the_builtin_digest(fresh, tmp_path):
    # an interpreter without _sha256 or _sha2 hashes the config by hashlib
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "kernel": "x-main", "zeta": [1.0, 0.1],
        "grid": {"x0": 1.5, "x1": 3.0, "y0": -1.0, "y1": 1.0, "nx": 2, "ny": 2},
    }))
    argv = ["eval-kernel", "--config", str(config), "--out", str(tmp_path), "--quiet"]
    code = (
        "import sys; sys.modules['_sha256'] = sys.modules['_sha2'] = None; "
        f"from bivekua.cli import main; code = main({argv!r}); print(code, 'hashlib' in sys.modules)"
    )
    assert fresh("-c", code) == "0 True"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config_hash"] == hashlib.sha256(config.read_bytes()).hexdigest()
