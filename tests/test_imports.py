"""Every module imports only names it uses and exports only names it has
(no linter runs in CI)."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a name listed in __all__ is re-exported, which is a use
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "qcartan").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 20
    assert [hit for path in files for hit in _unused_imports(path)] == []


def test_every_name_in_all_exists():
    exported, missing = 0, []
    for path in sorted((ROOT / "src" / "qcartan").glob("*.py")):
        name = "qcartan" if path.stem == "__init__" else f"qcartan.{path.stem}"
        mod = importlib.import_module(name)
        names = getattr(mod, "__all__", ())
        exported += len(names)
        missing += [f"{name}.{n}" for n in names if not hasattr(mod, n)]
    assert exported > 40
    assert missing == []
