"""Static checks on the package source: no module imports a name it never
uses."""

import ast
import pathlib

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
