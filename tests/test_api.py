"""The package's public names: ``__all__`` lists exactly what
``ringsim/__init__.py`` binds, and every listed name resolves."""

import ast
import inspect
from pathlib import Path

import ringsim


def _bound_in_init() -> set[str]:
    """Names bound by the top-level imports and assignments of __init__.py."""
    tree = ast.parse(Path(ringsim.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names - {"__all__"}


def test_all_names_resolve_once():
    assert len(ringsim.__all__) == len(set(ringsim.__all__))
    for name in ringsim.__all__:
        assert hasattr(ringsim, name), name


def test_all_equals_the_names_init_binds():
    assert set(ringsim.__all__) == _bound_in_init()
    public = {name for name, value in vars(ringsim).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public <= set(ringsim.__all__)
