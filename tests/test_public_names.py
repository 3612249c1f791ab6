"""Every public function, class and method in the package has a reader in
the package, or an entry on ALLOWED that says why it has none. Every
parameter with a default, of any function or method in the package, is
passed by some call in the package, or has an entry on UNPASSED_ALLOWED.

A name counts as read where the package loads it, looks it up as an
attribute or imports it. A parameter counts as passed by a call of its
function's name (its class's name for `__init__`) that passes it by keyword
or by position, or that unpacks `*args` or `**kwargs` where it could land.
Reads and calls in the gradcheck table (`cli._primitive_checks`) do not
count: it names every numerics op by design, so a read there shows nothing.
No linter is assumed to be installed, so the check walks the syntax tree.
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

# "module.function.parameter" -> why no call in the package passes it
UNPASSED_ALLOWED = {
    "cli.main.argv": "tests pass argument lists, and the console script "
                     "passes none",
    "training.run_pretrain.resume_from": "acceptance criterion 9 resumes "
                                         "through it; the CLI cannot yet",
}

# the function whose reads and calls do not count
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


def _defaulted_params(module: str, tree) -> list[tuple[str, str, str, int | None]]:
    """(qualified name, name a call uses, parameter, position in a call) of
    each parameter with a default; keyword-only ones have no position."""
    found = []

    def visit(node, prefix, cls):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.ClassDef):
                visit(sub, f"{prefix}.{sub.name}", sub.name)
            elif isinstance(sub, ast.FunctionDef):
                name, args = f"{prefix}.{sub.name}", sub.args
                positional = args.posonlyargs + args.args
                bound = cls is not None and not any(  # self or cls comes first
                    getattr(d, "id", None) == "staticmethod" for d in sub.decorator_list)
                called = cls if sub.name == "__init__" else sub.name
                first = len(positional) - len(args.defaults)
                found.extend((f"{name}.{arg.arg}", called, arg.arg, i - bound)
                             for i, arg in enumerate(positional[first:], first))
                found.extend((f"{name}.{arg.arg}", called, arg.arg, None)
                             for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                             if default is not None)
                visit(sub, name, None)
            else:
                visit(sub, prefix, cls)

    visit(tree, module, None)
    return found


def _calls(trees) -> dict[str, list[tuple[float, set]]]:
    """Each name called outside EXEMPT_READER -> per call, the count of
    positional arguments (infinite with `*args`) and the keyword names
    (None for `**kwargs`)."""
    calls = {}
    stack = list(trees)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == EXEMPT_READER:
            continue
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append((
                float("inf") if starred else len(node.args),
                {k.arg for k in node.keywords}))
        stack.extend(ast.iter_child_nodes(node))
    return calls


def _unpassed(sources: dict[str, str]) -> list[str]:
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls = _calls(trees.values())
    return sorted(
        name for module, tree in trees.items()
        for name, called, param, pos in _defaulted_params(module, tree)
        if not any(param in kws or None in kws or (pos is not None and npos > pos)
                   for npos, kws in calls.get(called, [])))


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


def test_every_defaulted_parameter_is_passed_or_allowed():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    unpassed = _unpassed(sources)
    assert [name for name in unpassed if name not in UNPASSED_ALLOWED] == []
    # an entry whose parameter gained a caller, or went away, leaves the list
    assert sorted(UNPASSED_ALLOWED) == [n for n in unpassed if n in UNPASSED_ALLOWED]


def test_guard_flags_parameters_no_call_passes():
    sources = {
        "ops": ("class Box:\n"
                "    def __init__(self, size=1, tag=None):\n        pass\n\n"
                "    def fill(self, level=0, *, loud=False):\n        pass\n\n"
                "    @staticmethod\n"
                "    def make(size=1):\n        pass\n\n\n"
                "def scale(x, by=2.0, *, clip=True):\n"
                "    def inner(y, z=0):\n        return y\n"
                "    return inner(x)\n\n\n"
                "def spread(a=0, b=0):\n    pass\n"),
        "cli": ("def run(args, opts):\n"
                "    Box(3).fill(loud=True)\n"
                "    Box.make(4)\n"
                "    spread(*args)\n"
                "    return scale(1.0, **opts)\n\n\n"
                "def _primitive_checks():\n"
                "    return Box(1, 'x').fill(2), inner(1, 2)\n"),
    }
    assert _unpassed(sources) == ["ops.Box.__init__.tag", "ops.Box.fill.level",
                                  "ops.scale.inner.z"]
