"""Where a construct may appear in the package: one row of GUARDS per construct.

- json: only audio_io parses JSON; every other module reads through read_json or parse_json.
- meshgrid: roomsim never builds the image cube as grids; image distances are summed from per-axis squares.
- planes: only spin stacks the STFT into real and imaginary planes; every other module reads the complex values.
- pool: no module starts a process pool; simulate --jobs and contour --jobs run on threads.
- scipy: no module imports or names scipy; numpy is the one runtime dependency pyproject.toml lists.
- scene_files: only roomsim names the files of a rendered scene; every other module reads a scene through it.

Modules are parsed with ast, or read as text for scene_files, and never imported.
A guard with an owner allows the construct in that module only, and its scan must
find the owner's own sites, so a scan that finds nothing cannot pass.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
JSON_PARSERS = {"load", "loads"}
GRID_NAMES = {"meshgrid", "mgrid"}
PLANE_NAMES = {"planes", "as_complex", "from_complex"}
POOL_NAMES = {"ProcessPoolExecutor", "multiprocessing"}
SCENE_FILES = ("truth.json", "mixture.wav", "_direct.wav", "_reverb.wav")


def json_sites(source: str, module: str) -> list[tuple[str, str]]:
    """Every json.load/json.loads reference and `from json import load(s)`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in JSON_PARSERS and getattr(node.value, "id", None) == "json":
            found.append((f"{module}:{node.lineno}", f"json.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and JSON_PARSERS & {a.name for a in node.names}:
            found.append((f"{module}:{node.lineno}", "from json import"))
    return found


def grid_sites(source: str, module: str) -> list[tuple[str, str]]:
    """Each reference to, or import of, a function that makes a dense grid; docstrings do not count."""
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
            found.append((f"{module}:{getattr(node, 'lineno', '?')}", name))
    return found


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


def plane_sites(source: str, module: str) -> list[tuple[str, str]]:
    """Each plane name used as an identifier; docstrings and longer names such as normalize_planes do not count."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for name in sorted(identifiers(node) & PLANE_NAMES):
            found.append((f"{module}:{node.lineno}", name))
    return found


def dotted_names(node: ast.AST) -> set[str]:
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


def named_sites(names: set[str]):
    """A scan that reports (module.function or module.<module>, name) for each node naming one of names."""

    def scan(source: str, module: str) -> list[tuple[str, str]]:
        found = []
        stack = [(ast.parse(source), "<module>")]
        while stack:
            node, func = stack.pop()
            for name in sorted(dotted_names(node) & names):
                found.append((f"{module}.{func}", name))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name if func == "<module>" else f"{func}.{node.name}"
            stack.extend((child, func) for child in ast.iter_child_nodes(node))
        return found

    return scan


def scene_file_sites(source: str, module: str) -> list[tuple[str, str]]:
    """Every scene file name spelled in the text, comments and docstrings included."""
    lines = source.splitlines()
    return [(f"{module}:{n}", name) for n, line in enumerate(lines, 1) for name in SCENE_FILES if name in line]


GUARDS = {
    # construct: (scan, modules scanned, the one module allowed sites, names the scan must find there)
    "json": (json_sites, "*.py", "audio_io", {"json.loads"}),
    "meshgrid": (grid_sites, "roomsim.py", None, set()),
    "planes": (plane_sites, "*.py", "spin", {"planes"}),
    "pool": (named_sites(POOL_NAMES), "*.py", None, set()),
    "scipy": (named_sites({"scipy"}), "*.py", None, set()),
    "scene_files": (scene_file_sites, "*.py", "roomsim", set(SCENE_FILES)),
}

SYNTHETIC = {
    # construct: (module, source, the sites its scan reports)
    "meshgrid": (
        "roomsim",
        "import numpy as np\nfrom numpy import mgrid\n\ndef cube(a):\n    return np.meshgrid(a, a, a)\n",
        [("roomsim:2", "mgrid"), ("roomsim:5", "meshgrid")],
    ),
    "pool": (
        "cli",
        "def run(jobs):\n    from concurrent.futures import ProcessPoolExecutor\n",
        [("cli.run", "ProcessPoolExecutor")],
    ),
    "scipy": (
        "metrics",
        "from scipy.signal import fftconvolve\n\ndef spectrum(x):\n    import scipy.fft\n    return scipy.fft.rfft(x)\n",
        [("metrics.spectrum", "scipy"), ("metrics.spectrum", "scipy"), ("metrics.<module>", "scipy")],
    ),
}


@pytest.mark.parametrize("construct", GUARDS)
def test_no_site_outside_its_owner(construct):
    scan, pattern, owner, owner_names = GUARDS[construct]
    sites = {p.stem: scan(p.read_text(encoding="utf-8"), p.stem) for p in sorted(SRC.rglob(pattern))}
    assert sites
    if owner is not None:
        assert {name for _, name in sites.pop(owner)} >= owner_names  # the scan finds the real sites
    assert [site for found in sites.values() for site in found] == []


@pytest.mark.parametrize("construct", SYNTHETIC)
def test_scan_finds_a_synthetic_site(construct):
    module, source, want = SYNTHETIC[construct]
    assert GUARDS[construct][0](source, module) == want
