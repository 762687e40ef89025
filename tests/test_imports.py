"""Module boundaries inside the package."""

import ast
import inspect
import re
from pathlib import Path

import alwabp
from test_bench_seams import BENCH, _assigned, module_reads

SRC = Path(alwabp.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_no_module_imports_another_modules_private_names():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}:{node.lineno}: {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []


def _bench_names():
    """The names `bench/` wraps or calls, read as `test_bench_seams.py`
    reads them: each `mods.<module>.<name>` of its files and each call
    site of `LAYER_SITES`, a method as `Class.method`."""
    names = {name for _, name in module_reads()}
    for sites in _assigned(BENCH / "layers.py", "LAYER_SITES").values():
        for owner, attr in sites:
            cls = owner.partition(".")[2]
            names.add(f"{cls}.{attr}" if cls else attr)
    return names


def _rule_paragraph():
    """The one paragraph of the README's Library section that states
    which names are public."""
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Library\n")
    library = text[start:text.index("\n## ", start + 1)]
    rule, = [par for par in library.split("\n\n")
             if "public function or method" in " ".join(par.split())]
    return rule


def test_every_export_is_used_in_the_package_or_documented():
    """Each function in `alwabp.__all__`, and each public method or
    property of an exported class, is read by a module of the package
    other than its own and `__init__.py`, named by the benchmark
    (`_bench_names`), or named in backticks in the README paragraph that
    states the rule (a method as `Class.method`): an entry point that
    only its own module and the tests call is private, or belongs with
    the tests.  Any other export, a class or a constant, is read by a
    module other than `__init__.py` or named there.  A name counts as
    read where it is loaded or imported; a method where a call reads its
    name as an attribute, a property where any read does.  A method or
    property that a builtin type also has (`reverse`, say) counts only
    when the benchmark or the README names it, as such a read may be the
    builtin's.  Docstrings do not count as reads."""
    used, read, called = {}, {}, {}     # module -> names it reads
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"alwabp.{path.stem}"
        used[module], read[module], called[module] = set(), set(), set()
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used[module].add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used[module].update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read[module].add(node.attr)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)):
                called[module].add(node.func.attr)

    def elsewhere(table, name, home=None):
        return any(name in names for module, names in table.items()
                   if module != home)

    builtin = {name for kind in (list, dict, set, frozenset, tuple, str, int,
                                 float) for name in dir(kind)}
    documented = {*_bench_names(),
                  *re.findall(r"`(\w+(?:\.\w+)?)", _rule_paragraph())}
    unused, methods = [], 0
    for name in alwabp.__all__:
        obj = getattr(alwabp, name)
        home = obj.__module__ if inspect.isfunction(obj) else None
        if not elsewhere(used, name, home) and name not in documented:
            unused.append(name)
        if not isinstance(obj, type):
            continue
        for attr, value in vars(obj).items():
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
            if (attr in builtin or not elsewhere(seen, attr, obj.__module__)) \
                    and f"{name}.{attr}" not in documented:
                unused.append(f"{name}.{attr}")
    assert {"run_all_96", "decode", "Instance.reverse"} <= documented
    assert methods >= 7
    assert elsewhere(called, "improved", "alwabp.constructive")
    assert unused == []


def test_every_private_module_name_is_read_in_the_package():
    """Each module-level function, class or constant whose name starts
    with `_` is read somewhere in the package: a private name nothing
    reads is dead code."""
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
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
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
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
