"""README and the demos name only what exists: README's Layout has one
entry for each module of the package, and every tests/<file>.py::<test>
citation in README or a demo names a test function.

A module added, renamed or deleted without its Layout entry, or a test
renamed under a citation, leaves the reader looking for what is not
there. The checks read the texts with regular expressions and the test
files with ast.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CITATION = re.compile(r"tests/(\w+\.py)::(\w+)")


def layout_modules(readme):
    """The file names of the modules README's Layout section has entries
    for: each `src/qrmirror/<name>.py` an entry names before its dash."""
    section = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    heads = [entry.split(" — ", 1)[0] for entry in section.split("\n- ")[1:]]
    return [name for head in heads for name in re.findall(r"`src/qrmirror/(\w+\.py)`", head)]


def citations(text):
    """(file, test) of every tests/<file>.py::<test> citation in text; a
    citation broken after its :: onto the next comment line is joined."""
    return CITATION.findall(re.sub(r"::\n\s*(?:#\s*)?", "::", text))


def stale_citations(texts, tests):
    """(text name, file, test) of every citation in texts (name -> text)
    whose test is no top-level function of tests (file name -> source)."""
    defined = {name: {node.name for node in ast.parse(source).body
                      if isinstance(node, ast.FunctionDef)} for name, source in tests.items()}
    return [(name, file, test) for name, text in texts.items()
            for file, test in citations(text) if test not in defined.get(file, ())]


def test_layout_has_one_entry_per_module():
    modules = sorted(path.name for path in (ROOT / "src" / "qrmirror").glob("*.py")
                     if path.name != "__init__.py")
    assert len(modules) > 8
    assert sorted(layout_modules((ROOT / "README.md").read_text())) == modules


def test_every_cited_test_exists():
    texts = {path.name: path.read_text()
             for path in (ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py")))}
    tests = {path.name: path.read_text() for path in (ROOT / "tests").glob("*.py")}
    assert sum(len(citations(text)) for text in texts.values()) >= 2
    assert stale_citations(texts, tests) == []


def test_a_stale_entry_or_citation_is_caught():
    readme = ("intro `src/qrmirror/x.py`\n## Layout\n\n- `src/qrmirror/a.py` — one, not\n"
              "  `src/qrmirror/y.py`\n- `src/qrmirror/b.py`, `src/qrmirror/c.py` — two\n\n"
              "## Next\n\n- `src/qrmirror/z.py` — elsewhere\n")
    assert layout_modules(readme) == ["a.py", "b.py", "c.py"]
    texts = {"demo.py": "# see (tests/test_a.py::\n#   test_split) and tests/test_a.py::gone,\n"
                        "# tests/test_b.py::test_case[1] and tests/test_c.py::test_one\n"}
    tests = {"test_a.py": "def test_split():\n    pass\n",
             "test_b.py": "def test_case():\n    pass\n"}
    assert citations(texts["demo.py"]) == [("test_a.py", "test_split"), ("test_a.py", "gone"),
                                           ("test_b.py", "test_case"), ("test_c.py", "test_one")]
    assert stale_citations(texts, tests) == [("demo.py", "test_a.py", "gone"),
                                             ("demo.py", "test_c.py", "test_one")]
