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


def test_rt60_table_prints_ten_finite_rows(tmp_path):
    proc = run_script("rt60_table.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    assert header == [
        "room", "rt60_requested_s", "rt60_measured_s", "rt60_rel_err", "num_images", "rir_samples", "window_radius_m",
        "tail_onset_s", "simulate_ms", "convolve_ms",
    ]
    rows = [[c.strip() for c in line.strip("|").split("|")] for line in lines[2:]]
    assert len(rows) == 10
    assert all(len(row) == len(header) and all(math.isfinite(float(v)) for v in row[1:]) for row in rows)
    assert all(float(row[header.index("rt60_rel_err")]) <= 0.2 for row in rows)


def test_output_digests_agree_across_blas_threads_and_jobs(tmp_path):
    """One BLAS thread and the default, --jobs 1 and 2: every CLI output has the same bytes."""
    env = {**os.environ, "PYTHONPATH": str(Path(soundcompass.__file__).parents[1])}
    envs = {"one": {**env, "OPENBLAS_NUM_THREADS": "1"}, "default": env}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        envs["default"].pop(var, None)
    procs = {  # both at once, so the check costs one run's wall time on two cores
        name: subprocess.Popen(
            [sys.executable, str(SCRIPTS / "output_digests.py"), "--out", str(tmp_path / name)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=e,
        )
        for name, e in envs.items()
    }
    outs = {}
    try:
        for name, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr
            outs[name] = stdout
    finally:
        for proc in procs.values():
            proc.kill()  # a no-op once it has exited
            proc.communicate()
    assert outs["one"] == outs["default"]

    digest = {path: sha for sha, path in (line.split("  ") for line in outs["one"].splitlines())}
    # inputs, simulate, per scene (featurize, extract, evaluate, contour, band path), clue, fuse-check
    assert len(digest) == 4 + 2 * 12 + 2 * (4 + 2 + 2 + 2 + 2 + 3) + 3 + 1
    assert {"fused.npz", "merged.npy", "gradients.npz"} == {p.rpartition("/")[2] for p in digest if "band_path_1/" in p}
    jobs_2 = {path: sha for path, sha in digest.items() if "_j2" in path}
    assert len(jobs_2) == 14  # 12 simulate files, 2 contour CSVs
    for path, sha in jobs_2.items():
        assert digest[path.replace("_j2", "_j1")] == sha, path
