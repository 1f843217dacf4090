"""No module of the package imports a name it does not use.

No linter runs over the sources, so this is the unused-import check: every
module-level import of src/tddmimo/*.py must be read in its module or listed
in its `__all__`.  An import marked `# noqa: F401` is exempt (a name kept so
that callers can look it up or patch it there), and so is `__future__`.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tddmimo").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that `source`'s module-level imports bind and that it never
    reads, in order, the exemptions left out."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os"]
    assert unused_imports("from a import b as c, d\n__all__ = ['d']\n") == ["c"]
    assert unused_imports("from a import b\nb = 1\n") == ["b"]
    assert unused_imports("from a import (b,\n    c)  # noqa: F401\n") == []
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []
