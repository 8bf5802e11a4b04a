import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import soundcompass

SCRIPTS = Path(__file__).parents[1] / "scripts"


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(Path(soundcompass.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, capture_output=True, text=True, env=env, timeout=300,
    )


def test_make_demo_scenes_renders_cli_layout(tmp_path):
    proc = run_script("make_demo_scenes.py", "--scenes", "1", "--seconds", "0.2", "--out", "demo", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    scene = tmp_path / "demo" / "rendered" / "scene_0"
    names = {"mixture.wav", "truth.json"} | {f"src{j}_{part}.wav" for j in (0, 1) for part in ("direct", "reverb")}
    assert names <= {p.name for p in scene.iterdir()}
    assert len(json.loads((scene / "truth.json").read_text())["sources"]) == 2


def test_steering_contour_writes_finite_grid(tmp_path):
    args = ("--scenes", "1", "--seconds", "0.2", "--span", "5", "--step", "5", "--out", "contour.csv")
    proc = run_script("steering_contour.py", *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader((tmp_path / "contour.csv").read_text().splitlines()))
    assert rows[0] == ["offset_az_deg", "offset_el_deg", "mean_si_snri_db"]
    assert len(rows) == 1 + 9
    assert all(math.isfinite(float(v)) for row in rows[1:] for v in row)
