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


def names_read(trees):
    """The names and attributes that the top-level statements of the
    modules read, a function's own name inside its definition excepted."""
    reads = set()
    for tree in trees:
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and n.id != own:
                    reads.add(n.id)
                elif isinstance(n, ast.Attribute) and n.attr != own:
                    reads.add(n.attr)
    return reads


def top_level_functions(trees, private):
    """The names of the top-level functions that are private, if private,
    else public; dunder names are neither."""
    return {stmt.name for tree in trees for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef)
            and stmt.name.startswith("_") == private
            and not stmt.name.startswith("__")}


def unread_private_functions(trees):
    """The private top-level functions of the modules that no top-level
    statement other than their own definition reads, sorted."""
    return sorted(top_level_functions(trees, True) - names_read(trees))


def unread_public_functions(trees, readers):
    """The public top-level functions of the modules trees that no
    top-level statement of trees or readers, other than their own
    definition, reads, sorted.  An import alone is no read."""
    return sorted(top_level_functions(trees, False)
                  - names_read(trees + readers))


def test_unread_private_functions_detector():
    trees = [ast.parse("def _a(): return _a()\ndef _b(): pass\n"
                       "def _c(): pass\ndef __d__(): pass\nx = [_b]\n"),
             ast.parse("def f(m): return m._c\n")]
    assert unread_private_functions(trees) == ["_a"]


# read only outside the package: perfbench/selftest.py walks the numerators
# of one order with it
TEST_ONLY_PRIVATE = {"_numerators_of_order"}


def test_private_functions_have_a_caller_in_src():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert len(trees) > 5
    assert unread_private_functions(trees) == sorted(TEST_ONLY_PRIVATE)


def test_unread_public_functions_detector():
    trees = [ast.parse("def a(): return a()\ndef b(): pass\n"
                       "def _c(): pass\ndef d(): pass\ndef e(): pass\n"
                       "def __f__(): pass\nx = [e]\n")]
    readers = [ast.parse("import m\nfrom m import d\nm.b()\n")]
    assert unread_public_functions(trees, readers) == ["a", "d"]


def test_public_functions_have_a_reader():
    # no public function exists only to be tested: each has a reader in the
    # package, the demos or the benchmark
    root = SRC.parent.parent
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    readers = [ast.parse(path.read_text())
               for folder in ("demos", "perfbench")
               for path in sorted((root / folder).glob("*.py"))]
    assert len(readers) > 5
    assert unread_public_functions(trees, readers) == []
