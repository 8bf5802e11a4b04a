"""README and the code name the same things.

Every Python name README cites in backticks, as `module.name`, exists in that
module, and README's command lines use exactly the flags the parser defines.
"""

import argparse
import importlib
import re
from pathlib import Path

from soundcompass.cli import build_parser

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


def parser_flags() -> dict[str, set[str]]:
    """Each subcommand's long options, --help aside."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {o for a in p._actions for o in a.option_strings if o.startswith("--") and o != "--help"}
        for name, p in sub.choices.items()
    }


def used_flags(text: str, commands) -> list[tuple[str, str]]:
    """(command, flag) for each flag on a `soundcompass <command>` line of a code block or a `<command> --flag` span."""
    names = "|".join(re.escape(c) for c in commands)
    blocks = re.findall(r"```[a-z]*\n(.*?)```", text, flags=re.S)
    uses = [m.groups() for b in blocks for m in re.finditer(rf"^soundcompass ({names}) (.*)$", b, flags=re.M)]
    uses += re.findall(rf"`(?:soundcompass )?({names}) (--[^`\n]*)`", text)
    return [(command, flag) for command, rest in uses for flag in re.findall(r"(?<!\S)--[\w-]+", rest)]


def test_readme_flags_match_the_parser():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    flags = parser_flags()
    used = used_flags(text, flags)
    assert len({c for c, _ in used}) == len(flags)  # every command has an example line
    assert [(c, f) for c, f in used if f not in flags[c]] == []
    assert sorted(f for c in flags for f in flags[c] if not re.search(rf"{f}(?![\w-])", text)) == []


def test_scan_finds_planted_flags():
    text = (
        "```\nsoundcompass featurize --wav x.wav --bands b.json\nsoundcompass clue --az 1\n```\n"
        "see `simulate --jobs 2`, `soundcompass contour --span 1`, `extract` and `--keep-going`"
    )
    assert used_flags(text, ["simulate", "featurize", "clue", "contour", "extract"]) == [
        ("featurize", "--wav"),
        ("featurize", "--bands"),
        ("clue", "--az"),
        ("simulate", "--jobs"),
        ("contour", "--span"),
    ]
