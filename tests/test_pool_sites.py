"""No module starts a process pool; simulate --jobs and contour --jobs run on threads.

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


def pool_sites(source: str, module: str) -> list[str]:
    """module.function (or module.<module>) for each node in source that names a process pool."""
    found = []
    stack = [(ast.parse(source), "<module>")]
    while stack:
        node, func = stack.pop()
        if names(node) & POOL_NAMES:
            found.append(f"{module}.{func}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name if func == "<module>" else f"{func}.{node.name}"
        stack.extend((child, func) for child in ast.iter_child_nodes(node))
    return found


def test_scan_finds_a_process_pool():
    source = "def run(jobs):\n    from concurrent.futures import ProcessPoolExecutor\n"
    assert pool_sites(source, "cli") == ["cli.run"]


def test_no_module_names_a_process_pool():
    assert [site for p in sorted(SRC.rglob("*.py")) for site in pool_sites(p.read_text(encoding="utf-8"), p.stem)] == []
