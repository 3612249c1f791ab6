"""No module or function in the package imports a name it never reads.

No linter is assumed to be installed, so the check walks the syntax tree.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "motionmae"


def _bound_names(node):
    """The names an import statement binds; `from __future__` binds none."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(alias.asname or alias.name).split(".")[0] for alias in node.names]


def _unused_imports(tree) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module or function holding
    the import never reads; a function's scope takes in the functions nested
    in it."""
    unused = []

    def visit(scope):
        read = {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                unused.extend((node.lineno, name) for name in _bound_names(node)
                              if name not in read)
            else:
                stack.extend(ast.iter_child_nodes(node))

    visit(tree)
    return sorted(unused)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_guard_flags_dead_imports_in_functions_and_modules():
    source = ("import os\nimport numpy as np\n\n\n"
              "def f():\n    import json\n    from . import videodata as vd\n"
              "    return np.zeros(1), json\n\n\n"
              "def g():\n    return vd\n")
    assert _unused_imports(ast.parse(source)) == [(1, "os"), (7, "vd")]
