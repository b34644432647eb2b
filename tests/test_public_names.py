"""The package's public names: ``diagfock.__all__``, the names of the lazy
table in ``diagfock/__init__.py`` and the "Public names" section of the README
list the same set."""

import ast
import importlib
import re
from pathlib import Path

import diagfock

README = Path(__file__).resolve().parents[1] / "README.md"


def lazy_table():
    """{module: names} of the table ``_PUBLIC`` in the package source."""
    tree = ast.parse(Path(diagfock.__file__).read_text())
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign) and node.targets[0].id == "_PUBLIC"]
    return ast.literal_eval(table)


def imported_public_names():
    return {name for names in lazy_table().values() for name in names if not name.startswith("_")}


def readme_public_names():
    """(module, name) for every backticked name of a bullet of the section."""
    section = re.search(r"^## Public names\n(.*?)^## ", README.read_text(), re.M | re.S).group(1)
    bullets = re.findall(r"^- (diagfock[\w.]*): (.*?)(?=^- |\Z)", section, re.M | re.S)
    return [(module, name) for module, body in bullets for name in re.findall(r"`(\w+)`", body)]


def test_all_has_no_duplicates_and_every_entry_resolves():
    assert len(diagfock.__all__) == len(set(diagfock.__all__))
    assert [name for name in diagfock.__all__ if not hasattr(diagfock, name)] == []


def test_all_is_what_init_imports():
    assert set(diagfock.__all__) == imported_public_names()
    # each name is loaded from the module the table names for it
    table = lazy_table()
    assert [(m, n) for m, names in table.items() for n in names
            if getattr(importlib.import_module(f"diagfock.{m}"), n) is not getattr(diagfock, n)] == []


def test_readme_lists_all_by_defining_module():
    listed = readme_public_names()
    names = [name for _, name in listed]
    assert len(names) == len(set(names))
    assert set(names) == set(diagfock.__all__)
    assert [(m, n) for m, n in listed if getattr(diagfock, n).__module__ != m] == []
