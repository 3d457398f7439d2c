"""Every name a module imports is read in that module, every top-level
function, class or assigned name of the package is read somewhere, no
module or demo reads another package module's private names, and the
package root binds only the package's modules and __version__.

An import or a helper left behind by a refactor costs load time and
misleads the reader about what a module depends on. The checks parse each
module with ast; the package's __init__.py is exempt, as its imports only
load the modules, and it reads nothing. A name has one import path, its
module's: the root re-exports none. A private name (one leading
underscore) is its module's own business: tests, which are white-box, and
the benchmark may read it, the package and the demos not.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def names_read(tree):
    """Every bare name and attribute name a syntax tree reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def defined_names(node):
    """The name a top-level function or class statement defines."""
    return [node.name] if isinstance(node, DEFINITIONS) else []


def assigned_names(node):
    """The names a top-level assignment statement binds."""
    targets = (node.targets if isinstance(node, ast.Assign) else
               [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]


def unread_names(sources, defining, bound):
    """(path, name) of every name bound(statement) lists for a top-level
    statement of the defining paths that no statement of sources (path ->
    source) reads, its own binding statement aside."""
    defined, read = [], set()
    for path, source in sources.items():
        for node in ast.parse(source).body:
            names = names_read(node)
            if path in defining:
                own = bound(node)
                defined += [(path, name) for name in own if (path, name) not in defined]
                names -= set(own)  # a recursive call is no use
            read |= names
    return [(path, name) for path, name in defined if name not in read]


def package_sources():
    """(sources, defining): every module of the package and every reader
    of it in tests, demos and bench as path -> source, and the package's
    paths but its __init__.py."""
    package = [path for path in sorted((ROOT / "src" / "qrmirror").glob("*.py"))
               if path.name != "__init__.py"]
    readers = [*package, *(path for folder in ("tests", "demos", "bench")
                           for path in sorted((ROOT / folder).glob("*.py")))]
    return ({path.relative_to(ROOT): path.read_text() for path in readers},
            {path.relative_to(ROOT) for path in package})


def test_every_definition_is_read():
    sources, defining = package_sources()
    assert sum(isinstance(node, DEFINITIONS) for path in defining
               for node in ast.parse(sources[path]).body) > 100
    assert unread_names(sources, defining, defined_names) == []


def test_an_unread_definition_is_caught():
    sources = {"a.py": "def f():\n    return f()\ndef g():\n    pass\nclass C:\n    pass\n",
               "b.py": "import a\na.g()\nprint(C)\ndef h():\n    pass\n"}
    assert unread_names(sources, {"a.py"}, defined_names) == [("a.py", "f")]


def test_every_assigned_name_is_read():
    sources, defining = package_sources()
    assert sum(len(assigned_names(node)) for path in defining
               for node in ast.parse(sources[path]).body) > 30
    assert unread_names(sources, defining, assigned_names) == []


def test_an_unread_assignment_is_caught():
    sources = {"a.py": "A = 1\nB, (C, D) = 2, (3, 4)\nE: int = A\nF = [0]\nF[0] = B\n"
                       "G = 0\nG += 1\nH = H_ = 5\nI = I + 1 if 0 else 0\nfor J in []:\n"
                       "    K = J\n",
               "b.py": "import a\nprint(a.C, E, H_)\n"}
    assert unread_names(sources, {"a.py"}, assigned_names) == [
        ("a.py", "D"), ("a.py", "G"), ("a.py", "H"), ("a.py", "I")]


def private_reads(source, package="qrmirror"):
    """(line, name) of every private name the module source takes from a
    module of the package: imported by name, or read as an attribute of a
    name its package imports bind. Dunder names are public."""
    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names
                      if alias.name.partition(".")[0] == package}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == package):
            bound |= {alias.asname or alias.name for alias in node.names}
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.endswith("__"):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                found.append((node.lineno, node.attr))
    return sorted(found)


def test_no_module_or_demo_reads_private_names():
    paths = [*sorted((ROOT / "src" / "qrmirror").glob("*.py")),
             *sorted((ROOT / "demos").glob("*.py"))]
    assert len(paths) > 15
    reads = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in paths for line, name in private_reads(path.read_text())]
    assert reads == []


def test_a_private_read_is_caught():
    source = ("from . import codec\nfrom .grid import _template, format_cells\n"
              "import qrmirror.formatinfo as fi\nimport qrmirror\nimport numpy as np\n"
              "from qrmirror import render\nfrom os import _exit\n"
              "codec._parse_value(1)\nfi._ball()\nqrmirror.mirror._quotient(0, 0)\n"
              "render.parse_pbm\nnp._NoValue\nfi.select_mirror_format.__wrapped__\n"
              "_own()\nself._cache\n")
    assert private_reads(source) == [(2, "_template"), (8, "_parse_value"), (9, "_ball"),
                                     (10, "_quotient")]


def root_bindings(source, modules):
    """(line, name) of every name the package root source binds other than
    a module of modules, imported as `from . import <module>`, and
    __version__."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            own = isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
            found += [(node.lineno, alias.asname or alias.name) for alias in node.names
                      if not (own and alias.name in modules and not alias.asname)]
        else:
            found += [(node.lineno, name) for name in defined_names(node) + assigned_names(node)
                      if name != "__version__"]
    return found


def test_the_root_binds_only_modules():
    package = ROOT / "src" / "qrmirror"
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    assert len(modules) > 8
    assert root_bindings((package / "__init__.py").read_text(), modules) == []


def test_a_root_re_export_is_caught():
    source = ('"""Doc."""\nfrom . import codec, mirror\nfrom .mirror import construct_double_sided\n'
              "__version__ = '1'\n")
    assert root_bindings(source, {"codec", "mirror"}) == [(3, "construct_double_sided")]
    source = ("from . import codec as c, other\nimport os\nVERSION = 1\n"
              "def f():\n    pass\n")
    assert root_bindings(source, {"codec"}) == [(1, "c"), (1, "other"), (2, "os"),
                                                (3, "VERSION"), (4, "f")]
