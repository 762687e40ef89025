"""The names the benchmark under `bench/` wraps or calls still exist.

`bench/test_bench.py` runs outside this suite, so these checks keep a
change to the package from breaking `bench/run.py` (and its `--trace`
option) unseen.  They only read the files under `bench/`.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

from alwabp import solve_lower_bound_search

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _assigned(path, name, function=None):
    """The literal value assigned to `name` at the top of `path`, or
    inside its function `function`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    if function is not None:
        tree, = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == function]
    values = [node.value for node in ast.walk(tree)
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == [name]]
    assert len(values) == 1, (path, name)
    return ast.literal_eval(values[0])


def _resolves(path, attr):
    """Whether `alwabp.<path>.<attr>` exists; `path` is a module or
    `module.Class`."""
    head, _, cls = path.partition(".")
    owner = importlib.import_module(f"alwabp.{head}")
    if cls:
        owner = getattr(owner, cls, None)
    return hasattr(owner, attr)


def test_every_traced_layer_site_exists():
    sites = [site for sites in _assigned(BENCH / "layers.py",
                                         "LAYER_SITES").values()
             for site in sites]
    assert sites
    assert [site for site in sites if not _resolves(*site)] == []


def module_reads():
    """Each (module, name) that a file under `bench/` reads as
    `mods.<module>.<name>`, sorted."""
    return sorted({site for path in BENCH.glob("*.py")
                   for site in re.findall(r"\bmods\.(\w+)\.(\w+)",
                                          path.read_text(encoding="utf-8"))})


def test_every_module_name_the_workloads_read_exists():
    names = module_reads()
    assert ("bounds", "lc1") in names        # read by run.py, not workloads.py
    assert [site for site in names if not _resolves(*site)] == []


def test_traced_search_arguments_match_the_signature():
    """The tracer reads a search's arguments by position, by these
    names."""
    names = _assigned(BENCH / "layers.py", "names", "_after_search")
    params = tuple(inspect.signature(solve_lower_bound_search).parameters)
    assert len(names) == 7
    assert params[:7] == names
