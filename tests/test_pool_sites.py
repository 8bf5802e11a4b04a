"""Only cli.cmd_simulate starts a process pool; contour --jobs scores on threads.

The package's modules are parsed with ast, never imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
POOL_NAMES = {"ProcessPoolExecutor", "multiprocessing"}


def names(node: ast.AST) -> set[str]:
    """Every dotted-name part that node itself names, as a reference or in an import."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return set(node.name.split("."))
    if isinstance(node, ast.ImportFrom):
        return set((node.module or "").split("."))
    return set()


def pool_sites(path: Path) -> list[str]:
    """module.function (or module.<module>) for each node in path that names a process pool."""
    found = []
    stack = [(ast.parse(path.read_text(encoding="utf-8")), "<module>")]
    while stack:
        node, func = stack.pop()
        if names(node) & POOL_NAMES:
            found.append(f"{path.stem}.{func}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name if func == "<module>" else f"{func}.{node.name}"
        stack.extend((child, func) for child in ast.iter_child_nodes(node))
    return found


def test_only_simulate_names_a_process_pool():
    sites = [site for p in sorted(SRC.rglob("*.py")) for site in pool_sites(p)]
    assert "cli.cmd_simulate" in sites  # the scan finds the real site
    assert set(sites) == {"cli.cmd_simulate"}
