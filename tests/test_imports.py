"""Module boundaries inside the package."""

import ast
import inspect
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
    """Each name in `alwabp.__all__`, and each public method or property
    of an exported class, is used by a module of the package other than
    `__init__.py`, or named in backticks in the README's Library section
    (a method as `Class.method`): an entry point that only tests call
    belongs with the tests.  A name counts as used where it is read or
    imported; a method where a call reads its name as an attribute, a
    property where any read does.  A method or property that a builtin
    type also has (`reverse`, say) counts only when documented, as such
    a read may be the builtin's.  Docstrings do not count as uses."""
    used, read, called = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)):
                called.add(node.func.attr)
    builtin = {name for kind in (list, dict, set, frozenset, tuple, str, int,
                                 float) for name in dir(kind)}
    text = README.read_text()
    start = text.index("\n## Library\n")
    library = text[start:text.index("\n## ", start + 1)]
    documented = {*re.findall(r"`(\w+)", library),
                  *re.findall(r"`(\w+\.\w+)", library)}
    unused = [name for name in alwabp.__all__
              if name not in used and name not in documented]
    methods = 0
    for name in alwabp.__all__:
        cls = getattr(alwabp, name)
        if not isinstance(cls, type):
            continue
        for attr, value in vars(cls).items():
            if attr.startswith("_"):
                continue
            if isinstance(value, property):
                seen = read
            elif inspect.isfunction(value) or isinstance(
                    value, (classmethod, staticmethod)):
                seen = called
            else:
                continue
            methods += 1
            if (attr in builtin or attr not in seen) and \
                    f"{name}.{attr}" not in documented:
                unused.append(f"{name}.{attr}")
    assert "SearchCache" in documented and "improve" in used
    assert methods >= 8 and "improved" in called
    assert unused == []


def test_every_private_module_name_is_read_in_the_package():
    """Each module-level function, class or constant whose name starts
    with `_` is read somewhere in the package: a private name nothing
    reads is dead code."""
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(path.name, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        read.update(node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load))
    assert ("constructive.py", "_Crew") in defined
    assert [(module, name) for module, name in defined
            if name not in read] == []


def test_every_private_class_method_is_read_in_the_package():
    """Each method of a module-level class whose name starts with `_` is
    read as an attribute somewhere in the package, dunder methods aside:
    a helper method nothing reads is dead code."""
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name.startswith("_"):
                defined += [(path.name, node.name, item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")]
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
    assert ("localsearch.py", "_State", "do_shift") in defined
    assert [method for method in defined if method[2] not in read] == []
