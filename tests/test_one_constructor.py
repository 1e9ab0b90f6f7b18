"""Each kind of table has one constructor in the package.

Every `GroupTable` is built by `groups._table_from_elements`, Cayley input
included, and every `CharacterTable` by `chartab._checked_table`, computed
and cached rows alike, so each is normalised and checked in one place.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wordcount"


def callers(name):
    """module.function (or module.<module>) of every call to `name`, by its
    bare name or as an attribute, in the package."""
    found = set()

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{module}.{node.name}"
        if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem,
              f"{path.stem}.<module>")
    return found


@pytest.mark.parametrize("cls, constructor", [
    ("GroupTable", "groups._table_from_elements"),
    ("CharacterTable", "chartab._checked_table"),
])
def test_each_table_has_one_constructor(cls, constructor):
    assert callers(cls) == {constructor}
