"""Every Python name README cites in backticks, as `module.name`, exists in that module."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem for p in (ROOT / "src" / "soundcompass").glob("*.py")} - {"__init__"}
FILE_SUFFIXES = {"csv", "json", "jsonl", "md", "npy", "npz", "py", "txt", "wav"}  # spin.npz is a file


def cited_names(text: str) -> list[tuple[str, str]]:
    """(module, name) for each code span that starts `module.name` or reads `from soundcompass.module import name`."""
    found = []
    for span in re.findall(r"`([^`\n]+)`", text):
        m = re.match(r"from soundcompass\.(\w+) import (\w+)$", span) or re.match(r"(\w+)\.(\w+)", span)
        if m and m[1] in MODULES and m[2] not in FILE_SUFFIXES:
            found.append((m[1], m[2]))
    return found


def test_readme_names_resolve():
    cited = cited_names((ROOT / "README.md").read_text(encoding="utf-8"))
    assert cited
    missing = [f"{mod}.{name}" for mod, name in cited if not hasattr(importlib.import_module(f"soundcompass.{mod}"), name)]
    assert missing == []


def test_scan_finds_a_planted_name():
    text = "see `spectral.stft`, `spin.npz`, `clue.w` and `from soundcompass.metrics import nothing_here`"
    assert cited_names(text) == [("spectral", "stft"), ("metrics", "nothing_here")]
