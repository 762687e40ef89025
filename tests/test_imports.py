"""Module boundaries inside the package."""

import ast
from pathlib import Path

import alwabp

SRC = Path(alwabp.__file__).parent


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
