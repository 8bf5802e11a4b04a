"""Only roomsim names the files of a rendered scene; every other module reads a scene through it.

The package's modules are read as text, never imported.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SCENE_FILES = ("truth.json", "mixture.wav", "_direct.wav", "_reverb.wav")


def scene_file_sites(path: Path) -> list[tuple[str, str]]:
    """(file:line, name) for every scene file name spelled in one file, comments and docstrings included."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [(f"{path.name}:{n}", name) for n, line in enumerate(lines, 1) for name in SCENE_FILES if name in line]


def test_only_roomsim_names_scene_files():
    modules = sorted(SRC.rglob("*.py"))
    roomsim = next(p for p in modules if p.name == "roomsim.py")
    assert {name for _, name in scene_file_sites(roomsim)} == set(SCENE_FILES)  # the scan finds the real sites
    offenders = [site for p in modules if p != roomsim for site in scene_file_sites(p)]
    assert offenders == []
