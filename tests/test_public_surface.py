"""Every public name of the package has a caller inside the package."""

import ast
import re
from pathlib import Path

import hecke_bz

DOCTEST_LINE = re.compile(r"^\s*(?:>>>|\.\.\.)(?: (.*))?$", re.M)


def names_used_in(package: Path) -> set[str]:
    """Loaded names, attribute names, and identifiers on doctest lines."""
    used = set()
    for path in package.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        for line in DOCTEST_LINE.findall(text):
            used.update(re.findall(r"[A-Za-z_]\w*", line))
    return used


def test_every_public_name_has_a_caller():
    public = set(hecke_bz.__all__) - {"__version__"}
    used = names_used_in(Path(hecke_bz.__file__).resolve().parent)
    assert sorted(public - used) == []
