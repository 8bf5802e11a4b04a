"""Only spin stacks the STFT into real and imaginary planes; every other module reads the complex values.

The package's modules are parsed with ast, never imported, so docstrings and
longer names such as normalize_planes do not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PLANE_NAMES = {"planes", "as_complex", "from_complex"}


def identifiers(node: ast.AST) -> set[str]:
    """The names node itself binds or reads: a variable, attribute, argument, keyword, definition or import."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.arg):
        return {node.arg}
    if isinstance(node, ast.keyword) and node.arg:
        return {node.arg}
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.alias):
        return {node.name, node.asname}
    return set()


def plane_sites(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        for name in sorted(identifiers(node) & PLANE_NAMES):
            found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_only_spin_stacks_planes():
    modules = sorted(SRC.rglob("*.py"))
    assert any(plane_sites(p) for p in modules if p.name == "spin.py")  # the scan finds a real site
    offenders = [site for p in modules if p.name != "spin.py" for site in plane_sites(p)]
    assert offenders == []
