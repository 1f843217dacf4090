"""Every top-level definition of the package is read somewhere in it.

No linter runs over the sources, so this is the dead-code check: each
top-level `def`, `class` and assignment of src/tddmimo/*.py must be read in
some module of src/tddmimo (a name loaded, an attribute of that name, or a
name imported) or listed in an `__all__`.  Names that Python itself reads
(`__all__`, `__version__`, ...) are exempt, and so are TEST_HOOKS, the
definitions kept for the tests alone.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tddmimo").glob("*.py"))
TEST_HOOKS = {"moments.eta_samples"}  # raw eta draws, the oracle of the kernel's tests


def _defined(tree: ast.Module) -> list[str]:
    """The names that `tree`'s top-level statements define, in order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for target in targets for n in ast.walk(target)
                      if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _read(tree: ast.Module) -> set[str]:
    """The names that `tree` reads, imports by name or lists in `__all__`."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return read


def unread_definitions(sources: dict[str, str], hooks=frozenset()) -> list[str]:
    """`module.name` of each top-level definition in `sources` (module name
    -> source text) that no source reads, in order, `hooks` left out."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(_read, trees.values()))
    return [f"{module}.{name}" for module, tree in trees.items() for name in _defined(tree)
            if name not in read and f"{module}.{name}" not in hooks]


def test_every_definition_is_read():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert unread_definitions(sources, TEST_HOOKS) == []
    # a hook that the package reads after all is no longer a hook
    assert all(hook in unread_definitions(sources) for hook in TEST_HOOKS)


def test_the_check_finds_an_unread_definition():
    assert unread_definitions({"a": "def f(): pass\ndef g(): f()\nX = 1\n"}) == ["a.g", "a.X"]
    assert unread_definitions({"a": "Y: int = 2\nZ, W = 1, 2\nprint(W)\n"}) == ["a.Y", "a.Z"]
    assert unread_definitions({"a": "class C: pass\n__all__ = ['C']\n__version__ = '1'\n"}) == []
    assert unread_definitions({"a": "def f(): pass\n", "b": "from .a import f\n"}) == []
    assert unread_definitions({"a": "def f(): pass\n", "b": "from . import a\na.f()\n"}) == []
    assert unread_definitions({"a": "def f(): pass\ndef h(): pass\n"}, {"a.h"}) == ["a.f"]
