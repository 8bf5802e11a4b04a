"""roomsim never builds the image cube as grids; image distances are summed from per-axis squares.

roomsim.py is parsed with ast, never imported, so its docstrings do not count.
"""

import ast
from pathlib import Path

ROOMSIM = Path(__file__).resolve().parents[1] / "src" / "soundcompass" / "roomsim.py"
GRID_NAMES = {"meshgrid", "mgrid"}


def grid_sites(source: str) -> list[str]:
    """line: name for each reference to, or import of, a dense-grid builder in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in GRID_NAMES:
            found.append(f"{getattr(node, 'lineno', '?')}: {name}")
    return found


def test_scan_finds_a_meshgrid():
    source = "import numpy as np\nfrom numpy import mgrid\n\ndef cube(a):\n    return np.meshgrid(a, a, a)\n"
    assert grid_sites(source) == ["2: mgrid", "5: meshgrid"]


def test_roomsim_builds_no_grid():
    assert grid_sites(ROOMSIM.read_text(encoding="utf-8")) == []
