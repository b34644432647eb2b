"""The package's public names: ``diagfock.__all__``, the names that
``diagfock/__init__.py`` imports and the "Public names" section of the README
list the same set."""

import ast
import re
from pathlib import Path

import diagfock

README = Path(__file__).resolve().parents[1] / "README.md"


def imported_public_names():
    tree = ast.parse(Path(diagfock.__file__).read_text())
    names = (alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names)
    return {name for name in names if not name.startswith("_")}


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


def test_readme_lists_all_by_defining_module():
    listed = readme_public_names()
    names = [name for _, name in listed]
    assert len(names) == len(set(names))
    assert set(names) == set(diagfock.__all__)
    assert [(m, n) for m, n in listed if getattr(diagfock, n).__module__ != m] == []
