"""Every name a module imports is read in that module.

An import left behind by a refactor costs load time and misleads the
reader about what a module depends on. The check parses each module of
the package and of the test suite with ast; the package's __init__.py is
exempt, as its imports are its re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unread_imports(source):
    """(line, name) of every name the module source imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:  # import a.b binds a
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for name, line in imported.items() if name not in read]


def test_every_import_is_read():
    modules = [*sorted((ROOT / "src" / "qrmirror").glob("*.py")),
               *sorted((ROOT / "tests").glob("*.py"))]
    assert len(modules) > 20
    unread = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in modules if path.name != "__init__.py"
              for line, name in unread_imports(path.read_text())]
    assert unread == []


def test_an_unread_import_is_caught():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nimport x.y\nprint(np, d, x.y)\n"
    assert unread_imports(source) == [(1, "os"), (3, "c")]
