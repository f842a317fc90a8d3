"""Static checks on the package source, standard library only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "biquot"


def unused_imports(tree):
    """The names a module binds by import and never reads, sorted."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_detector():
    tree = ast.parse("import os, os.path as p\nimport sys.x\n"
                     "from a import b as c, d\nc(sys, d.e)\n")
    assert unused_imports(tree) == ["os", "p"]


def test_no_unused_imports_in_src():
    # __init__.py imports only to re-export
    bad = {path.name: unused_imports(ast.parse(path.read_text()))
           for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert "freeness.py" in bad
    assert not any(bad.values()), {k: v for k, v in bad.items() if v}
