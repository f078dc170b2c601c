"""Checks on the package source: no module imports a name it never uses,
no module defines a private function or class that nothing in the package
reads, every name a module lists in __all__ exists, and so does every
function that the benchmark's tracer wraps; importing the CLI leaves the LP
solver unloaded, the package imports nothing but numpy and the standard
library, and the `rational` command runs without scipy."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "quartichull"


def unused_imports(source):
    """(line, name) of every imported name that the module never reads.
    Names listed in __all__ count as read."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts)
    return [(line, name) for line, name in imported if name not in used]


def orphaned_private_definitions(sources):
    """(module, name) of every module-level private function or class that
    no module reads. sources maps module names to source text; a name
    counts as read where it is loaded, imported or accessed as an
    attribute, but not from inside its own definition."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")):
                defined.append((module, node.name))
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    read.add(name)
    return [(module, name) for module, name in defined if name not in read]


def test_orphaned_private_definitions_are_detected():
    sources = {"a": "def _used():\n    pass\n\n"
                    "def _orphan():\n    return _orphan()\n\n"
                    "class _Cls:\n    pass\n",
               "b": "from a import _used\nx = _used()\n"}
    assert orphaned_private_definitions(sources) == [("a", "_orphan"), ("a", "_Cls")]


def test_no_orphaned_private_definitions_in_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources
    assert orphaned_private_definitions(sources) == []


def test_unused_imports_are_detected():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\n" \
             "__all__ = ['tau']\nprint(np.pi)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def test_no_unused_imports_in_package():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {}
    for path in modules:
        if path.name == "__init__.py":
            continue  # its imports are the package's public names
        unused = unused_imports(path.read_text())
        if unused:
            found[path.name] = unused
    assert found == {}


def test_every_public_name_resolves():
    missing = {}
    for path in sorted(SRC.glob("*.py")):
        name = "quartichull" if path.stem == "__init__" else f"quartichull.{path.stem}"
        module = importlib.import_module(name)
        absent = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if absent:
            missing[name] = absent
    assert missing == {}


def test_traced_targets_resolve():
    # the benchmark traces these functions by name, and a target that the
    # package no longer has drops the per-layer metrics declared for it
    source = (SRC.parent.parent / "perfbench" / "layertrace.py").read_text()
    [targets] = [ast.literal_eval(node.value) for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    assert targets
    missing = []
    for target in targets:
        module, name = target.rsplit(".", 1)
        attr = getattr(importlib.import_module(f"quartichull.{module}"), name, None)
        if not callable(attr):
            missing.append(target)
    assert missing == []


def test_lp_solver_is_imported_where_it_runs():
    # the CLI loads every module of the package but not scipy.optimize,
    # which the package never needs: neither the sweeps, an Exact one and a
    # NotExact one that solves its failing row's critical points, nor a
    # moment relaxation, whose facial reduction is in closed form, load it
    # (it costs about 10 MB)
    modules = sorted(f"quartichull.{path.stem}" for path in SRC.glob("*.py")
                     if path.stem != "__init__")
    code = "\n".join([
        "import sys",
        "import quartichull.cli",
        f"missing = [m for m in {modules!r} if m not in sys.modules]",
        "assert missing == [], missing",
        "assert 'scipy.optimize' not in sys.modules",
        "from quartichull import curves, exactness, relaxation",
        "for name, kind in (('egg', 'Exact'), ('smoothconvex', 'NotExact')):",
        "    v = exactness.sweep_exactness(curves.lookup(name).implicit, n=24)",
        "    assert v.verdict == kind, (name, v.verdict)",
        "assert 'scipy.optimize' not in sys.modules",
        "relaxation.membership(curves.lookup('egg').implicit, 2, (0.0, 0.5))",
        "assert 'scipy.optimize' not in sys.modules",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_package_imports_only_numpy_and_the_standard_library():
    # every import, nested ones included: numpy is the one runtime dependency
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, node.lineno, name) for name in names
                        if name.split(".")[0] != "numpy"
                        and name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_rational_command_leaves_scipy_unloaded():
    code = "\n".join([
        "import contextlib, io, sys",
        "from quartichull import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['rational', '--curve', 'folium']) == 0",
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']",
        "assert loaded == [], loaded",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
