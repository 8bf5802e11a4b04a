"""Only audio_io parses JSON; every other module reads through read_json or parse_json.

The package's modules are parsed with ast, never imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PARSERS = {"load", "loads"}


def json_parse_sites(path: Path) -> list[str]:
    """Every json.load/json.loads reference and `from json import load(s)` in one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in PARSERS and getattr(node.value, "id", None) == "json":
            found.append(f"{path.name}:{node.lineno}: json.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and PARSERS & {a.name for a in node.names}:
            found.append(f"{path.name}:{node.lineno}: from json import")
    return found


def test_only_audio_io_parses_json():
    modules = sorted(SRC.rglob("*.py"))
    assert any(json_parse_sites(p) for p in modules if p.name == "audio_io.py")  # the scan finds a real site
    offenders = [site for p in modules if p.name != "audio_io.py" for site in json_parse_sites(p)]
    assert offenders == []
