"""Module boundaries inside the package."""

import ast
import re
from pathlib import Path

import alwabp

SRC = Path(alwabp.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_no_module_imports_another_modules_private_names():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}:{node.lineno}: {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []


def test_every_export_is_used_in_the_package_or_documented():
    """Each name in `alwabp.__all__` is read or imported by a module of
    the package other than `__init__.py`, or named in backticks in the
    README's Library section: an entry point that only tests call
    belongs with the tests.  Docstrings do not count as uses."""
    used = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    text = README.read_text()
    start = text.index("\n## Library\n")
    library = text[start:text.index("\n## ", start + 1)]
    documented = set(re.findall(r"`(\w+)", library))
    assert "SearchCache" in documented and "improve" in used
    assert [name for name in alwabp.__all__
            if name not in used and name not in documented] == []
