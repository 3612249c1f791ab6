"""Every public function, class and method in the package has a reader in
the package, or an entry on ALLOWED that says why it has none.

A name counts as read where the package loads it, looks it up as an
attribute or imports it. Reads in the gradcheck table (`cli._primitive_checks`)
do not count: it names every numerics op by design, so a read there shows
nothing. No linter is assumed to be installed, so the check walks the syntax
tree.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "motionmae"

# "module.name" or "module.Class.method" -> why nothing in the package reads it
ALLOWED = {
    "evalviz.read_ppm": "the reader of the PPM files `reconstruct` writes; "
                        "the acceptance tests read them back through it",
    "tokenizer.Mask.masked_indices": "the acceptance tests index tokens by it",
    "tokenizer.Mask.visible_indices": "the acceptance tests index tokens by it",
    "numerics.matmul": "perfbench/tracing.py wraps it by name",
    "numerics.softmax": "perfbench/tracing.py wraps it by name",
    "numerics.gelu": "perfbench/tracing.py wraps it by name; the model runs "
                     "its kernels inside numerics.mlp",
    "numerics.sum_all": "the gradcheck table reduces each op's output to a "
                        "scalar with it",
}

# the function whose reads do not count
EXEMPT_READER = "_primitive_checks"


def _public_names(module: str, tree) -> list[str]:
    """The public top-level functions and classes of a module, and the
    public methods of those classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            names.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                names += [f"{module}.{node.name}.{sub.name}" for sub in node.body
                          if isinstance(sub, ast.FunctionDef)
                          and not sub.name.startswith("_")]
    return names


def _read_names(trees) -> set[str]:
    """Every name the trees load, look up as an attribute or import, outside
    EXEMPT_READER."""
    read = set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == EXEMPT_READER:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return read


def _unread(sources: dict[str, str]) -> list[str]:
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = _read_names(trees.values())
    return sorted(name for module, tree in trees.items()
                  for name in _public_names(module, tree)
                  if name.rsplit(".", 1)[1] not in read)


def test_every_public_name_is_read_or_allowed():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    unread = _unread(sources)
    assert [name for name in unread if name not in ALLOWED] == []
    # an entry whose name gained a reader, or went away, leaves the list
    assert sorted(ALLOWED) == [name for name in unread if name in ALLOWED]


def test_guard_flags_names_only_the_gradcheck_table_reads():
    sources = {
        "ops": ("class Box:\n    def open(self):\n        pass\n\n"
                "    def _shut(self):\n        pass\n\n\n"
                "def used():\n    pass\n\n\n"
                "def checked():\n    pass\n\n\n"
                "def _private():\n    pass\n"),
        "cli": ("from .ops import Box\n\n\n"
                "def run():\n    return ops.used(), Box\n\n\n"
                "def _primitive_checks():\n    return ops.checked(), Box().open()\n"),
    }
    assert _unread(sources) == ["cli.run", "ops.Box.open", "ops.checked"]
