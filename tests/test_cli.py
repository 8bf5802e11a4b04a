import csv
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soundcompass
from soundcompass import cli
from soundcompass.audio_io import MultichannelWaveform, read_wav, write_wav
from soundcompass.cli import build_parser, main
from soundcompass.roomsim import read_scene_dir
from soundcompass.spectral import stft

from conftest import UNREADABLE_JSON, make_noise_wav, mutated_json

FS = 16000


def write_manifest(tmp_path, n_scenes=1, seconds=0.25, rt60=None):
    lines = []
    for i in range(n_scenes):
        wav = tmp_path / f"m{i}.wav"
        make_noise_wav(wav, seconds=seconds, seed=100 + i)
        scene = {
            "room_dims": [5.57, 5.20, 3.79],
            "array_center": [2.8, 2.6, 1.5],
            "array": "tetrahedral_4ch_r0.042",
            "sources": [
                {
                    "position": [4.3, 2.6, 1.5],
                    "class": "speech",
                    "gain_db": 0.0,
                    "wav": wav.name,
                }
            ],
        }
        if rt60 is None:
            scene["absorption"] = [1.0] * 6
        else:
            scene["rt60_s"] = rt60
        lines.append(json.dumps(scene))
    manifest = tmp_path / "scenes.jsonl"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# Exit codes


def test_missing_manifest_exits_2(tmp_path):
    rc = main(["simulate", "--manifest", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_bad_wav_exits_2(tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not a wav")
    rc = main(["featurize", "--wav", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_evaluate_non_scene_dir_exits_2(tmp_path, capsys):
    est = tmp_path / "est.wav"
    make_noise_wav(est, seconds=0.1)
    rc = main(
        ["evaluate", "--est", str(est), "--scene", f"{tmp_path}/", "--source", "0", "--out", str(tmp_path / "r.csv")]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: {tmp_path}: no truth.json (is this a simulate output dir?)\n"


def test_malformed_manifest_line_exits_2(tmp_path, capsys):
    scene = json.loads(write_manifest(tmp_path).read_text())
    source = scene["sources"][0]
    no_absorption = {k: v for k, v in scene.items() if k != "absorption"}
    rt60_text = no_absorption | {"rt60_s": "0.3"}
    lines = ['{"room_dims": [1,\n', "5\n"] + [
        json.dumps(d) + "\n"
        for d in (
            scene | {"sources": 5},
            scene | {"sources": ["abc"]},
            scene | {"sources": [source | {"gain_db": None}]},
            scene | {"seed": None},
            rt60_text,
            no_absorption | {"rt60_s": math.nan},
            no_absorption | {"rt60_s": math.inf},
            scene | {"absorption": [math.nan] * 6},
            scene | {"sources": [source | {"gain_db": math.nan}]},
            scene | {"room_dims": [5.57, math.inf, 3.79]},
        )
    ]
    manifest = tmp_path / "scenes.jsonl"
    for line in lines:
        manifest.write_text(line, encoding="utf-8")
        rc = main(["simulate", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert rc == 2, line
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "unknown key" not in err, err


@pytest.mark.parametrize("command", ["simulate", "featurize", "extract"])
def test_directory_path_exits_2(rendered_scene, tmp_path, capsys, command):
    argv = {
        "simulate": ["simulate", "--manifest", str(tmp_path), "--out", str(tmp_path / "o")],
        "featurize": ["featurize", "--wav", str(tmp_path), "--out", str(tmp_path / "o")],
        "extract": ["extract", "--scene", str(rendered_scene), "--az", "0", "--el", "0", "--out", str(tmp_path)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_readme_commands_parse():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```[a-z]*\n(.*?)```", text, flags=re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("soundcompass ")]
    # an inline span with options is an example invocation; a bare `soundcompass contour` names a command
    lines += [span for span in re.findall(r"`(soundcompass [^`]*)`", text) if " --" in span]
    assert len(lines) >= 7 and any(line.startswith("soundcompass fuse-check") for line in lines)
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


# ---------------------------------------------------------------------------
# simulate


def test_simulate_output_layout(tmp_path):
    manifest = write_manifest(tmp_path, n_scenes=2)
    out = tmp_path / "scenes"
    assert main(["simulate", "--manifest", str(manifest), "--out", str(out)]) == 0
    for i in range(2):
        d = out / f"scene_{i}"
        assert (d / "mixture.wav").exists()
        assert (d / "src0_direct.wav").exists()
        assert (d / "src0_reverb.wav").exists()
        truth = json.loads((d / "truth.json").read_text())
        assert truth["sources"][0]["class"] == "speech"
        assert len(truth["array_offsets"]) == 4


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_reports_wall_time_and_failures(tmp_path, capsys, jobs):
    manifest = write_manifest(tmp_path, n_scenes=2)
    out = tmp_path / "o"
    assert main(["simulate", "--manifest", str(manifest), "--out", str(out), "--jobs", jobs]) == 0
    line = capsys.readouterr().out
    match = re.fullmatch(rf"rendered 2 scenes into {re.escape(str(out))} in (\S+) s; slowest scene_[01] took (\S+) s\n", line)
    assert match, line
    assert 0 <= float(match[2]) <= float(match[1])
    # scene 1 fails at render time (missing audio); the count follows the per-scene lines
    lines = manifest.read_text().splitlines()
    bad = json.loads(lines[1])
    bad["sources"][0]["wav"] = "does_not_exist.wav"
    manifest.write_text(lines[0] + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest), "--out", str(out), "--jobs", jobs, "--keep-going"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 2
    assert err[0].startswith("scene_1: ") and err[1] == "1 of 2 scenes failed"


def test_simulate_deterministic_and_parallel_identical(tmp_path):
    manifest = write_manifest(tmp_path, n_scenes=2)
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["simulate", "--manifest", str(manifest), "--out", str(out1)]) == 0
    assert main(["simulate", "--manifest", str(manifest), "--out", str(out2)]) == 0
    assert main(["simulate", "--manifest", str(manifest), "--out", str(out3), "--jobs", "2"]) == 0
    for i in range(2):
        ref = (out1 / f"scene_{i}" / "mixture.wav").read_bytes()
        assert (out2 / f"scene_{i}" / "mixture.wav").read_bytes() == ref
        assert (out3 / f"scene_{i}" / "mixture.wav").read_bytes() == ref


def test_simulate_keep_going_renders_valid_scenes(tmp_path):
    # scene 0 fails at render time (missing audio), scene 1 still renders
    manifest = write_manifest(tmp_path, n_scenes=1)
    good = manifest.read_text().strip()
    bad = json.loads(good)
    bad["sources"][0]["wav"] = "does_not_exist.wav"
    manifest.write_text(json.dumps(bad) + "\n" + good + "\n", encoding="utf-8")
    out = tmp_path / "o"
    rc = main(["simulate", "--manifest", str(manifest), "--out", str(out), "--keep-going"])
    assert rc == 2
    assert not (out / "scene_0" / "mixture.wav").exists()
    assert (out / "scene_1" / "mixture.wav").exists()


def test_simulate_parallel_stops_after_first_failure(tmp_path):
    # without --keep-going a failed scene cancels the renders not yet started
    manifest = write_manifest(tmp_path, n_scenes=12)
    lines = manifest.read_text().splitlines()
    bad = json.loads(lines[0])
    bad["sources"][0]["wav"] = "does_not_exist.wav"
    manifest.write_text("\n".join([json.dumps(bad)] + lines[1:]) + "\n", encoding="utf-8")
    out = tmp_path / "o"
    rc = main(["simulate", "--manifest", str(manifest), "--out", str(out), "--jobs", "2"])
    assert rc == 2
    rendered = sum((out / f"scene_{i}" / "mixture.wav").exists() for i in range(1, 12))
    assert rendered < 11


@pytest.mark.parametrize("command", ["simulate", "contour"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(request, tmp_path, capsys, command, jobs):
    if command == "simulate":
        argv = ["--manifest", str(write_manifest(tmp_path))]
    else:
        argv = ["--scene", str(request.getfixturevalue("rendered_scene")), "--source", "0"]
    out = tmp_path / "out"
    assert main([command, *argv, "--jobs", jobs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --jobs must be an integer >= 1, got {jobs}\n"
    assert not out.exists()


def test_simulate_caps_workers_at_scene_count(tmp_path, monkeypatch):
    # --jobs 1 renders on the calling thread; --jobs 8 on 2 scenes on at most 2 worker threads
    real = cli.render_scene_to_dir
    threads = []

    def recording_render(*args, **kwargs):
        threads.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "render_scene_to_dir", recording_render)
    manifest = write_manifest(tmp_path, n_scenes=2)
    for jobs in ("1", "8"):
        threads.clear()
        out = tmp_path / f"o{jobs}"
        assert main(["simulate", "--manifest", str(manifest), "--out", str(out), "--jobs", jobs]) == 0
        assert len(threads) == 2
        assert all((out / f"scene_{i}" / "mixture.wav").exists() for i in range(2))
        if jobs == "1":
            assert set(threads) == {threading.get_ident()}
        else:
            assert len(set(threads)) <= 2 and threading.get_ident() not in threads


def test_simulate_serial_stops_after_first_failure(tmp_path, capsys):
    manifest = write_manifest(tmp_path, n_scenes=2)
    lines = manifest.read_text().splitlines()
    bad = json.loads(lines[0])
    bad["sources"][0]["wav"] = "does_not_exist.wav"
    manifest.write_text("\n".join([json.dumps(bad), lines[1]]) + "\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["simulate", "--manifest", str(manifest), "--out", str(out), "--jobs", "1"]) == 2
    assert capsys.readouterr().err.startswith("scene_0: ")
    assert not (out / "scene_1").exists()


def test_simulate_non_finite_source_exits_2(tmp_path, capsys):
    manifest = write_manifest(tmp_path)
    wav = tmp_path / "m0.wav"  # float32, 4000 frames
    blob = bytearray(wav.read_bytes())
    blob[-4:] = np.float32(np.nan).tobytes()
    wav.write_bytes(bytes(blob))
    assert main(["simulate", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"scene_0: {wav}: frame 3999 holds a non-finite sample\n1 of 1 scenes failed\n"


@pytest.mark.parametrize(
    "seconds, channels, message",
    [(100 / FS, 1, "noise is 100 samples, scene needs 4000"), (0.25, 2, "noise has 2 channels, array has 4")],
    ids=["short", "stereo"],
)
def test_simulate_bad_noise_exits_2(tmp_path, capsys, seconds, channels, message):
    manifest = write_manifest(tmp_path)  # one 4000-sample source, 4 mics
    make_noise_wav(tmp_path / "noise.wav", seconds=seconds, channels=channels)
    scene = json.loads(manifest.read_text())
    scene["noise"] = {"wav": "noise.wav", "gain_db": -10.0}
    manifest.write_text(json.dumps(scene) + "\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["simulate", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"scene_0: {message}\n1 of 1 scenes failed\n"
    assert not (out / "scene_0" / "mixture.wav").exists()


@pytest.mark.parametrize(
    "room, decay",
    [({"absorption": [1e-9] * 6}, "1.266e+08"), ({"rt60_s": 1e6}, "1e+06")],
    ids=["tiny_absorption", "huge_rt60"],
)
def test_simulate_decay_above_ceiling_exits_2(tmp_path, capsys, room, decay):
    manifest = write_manifest(tmp_path, rt60=0.3)
    scene = json.loads(manifest.read_text())
    del scene["rt60_s"]
    manifest.write_text(json.dumps({**scene, **room}) + "\n", encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"scene_0: decay time {decay} s is above the 60 s the simulator builds\n1 of 1 scenes failed\n"
    )


def test_import_loads_no_scipy(tmp_path):
    # no command needs scipy, rendering included
    code = (
        "import sys, soundcompass.cli; print('scipy' in sys.modules); "
        "rc = soundcompass.cli.main(sys.argv[1:]); print(rc, 'scipy' in sys.modules)"
    )
    argv = ["simulate", "--manifest", str(write_manifest(tmp_path)), "--out", str(tmp_path / "o")]
    env = {**os.environ, "PYTHONPATH": str(Path(soundcompass.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True, env=env)
    lines = proc.stdout.splitlines()
    assert lines[0] == "False" and lines[-1] == "0 False"
    assert (tmp_path / "o" / "scene_0" / "mixture.wav").exists()


def test_import_loads_no_process_pool():
    # no command needs a process pool
    code = "import sys, soundcompass.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(soundcompass.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "False"


def test_package_import_loads_no_submodule_and_no_numpy():
    # each name is imported from its module; the package itself re-exports nothing
    code = (
        "import sys, soundcompass; "
        "print(sorted(m for m in sys.modules if m.startswith(('soundcompass.', 'numpy'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(soundcompass.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# featurize


def test_featurize_outputs(tmp_path):
    wav = tmp_path / "x.wav"
    make_noise_wav(wav, seconds=0.5, channels=4, seed=5)
    out = tmp_path / "feat"
    assert main(["featurize", "--wav", str(wav), "--out", str(out)]) == 0
    data = np.load(out / "spin.npz")
    t = (8000 - 512) // 256 + 2
    assert data["pairwise"].shape == (64, t, 257)
    assert data["log_mag"].shape == (8, t, 257)
    assert data["pairwise"].dtype == np.float32
    assert int(data["num_channels"]) == 4
    assert int(data["sample_rate"]) == FS
    bands = json.loads((out / "bands.json").read_text())
    assert len(bands["bands"]) == 31
    assert bands["fs"] == FS
    assert float(np.abs(data["pairwise"]).max()) <= 1.0


def test_featurize_log_mag(tmp_path, rng):
    x = 0.3 * rng.standard_normal((4, 4000))
    x[2] = 0.0  # a silent channel reads the floor everywhere
    wav = tmp_path / "x.wav"
    write_wav(MultichannelWaveform(x, FS), wav)
    out = tmp_path / "feat"
    assert main(["featurize", "--wav", str(wav), "--out", str(out)]) == 0
    with np.load(out / "spin.npz") as data:
        log_mag = data["log_mag"]
    spec = stft(read_wav(wav), cli.WINDOW, 512, 256)
    assert log_mag.dtype == np.float32
    assert log_mag.shape == (8, spec.num_frames, 257)
    np.testing.assert_array_equal(log_mag[:4], log_mag[4:])
    assert np.all(log_mag[2] == np.float32(np.log(1e-7)))
    want = np.log(np.maximum(np.abs(spec.values), 1e-7)).astype(np.float32)
    np.testing.assert_array_equal(log_mag[:4], want)
    assert log_mag[[0, 1, 3]].min() > np.log(1e-7)


def test_featurize_refuses_a_pairwise_tensor_above_the_bound(tmp_path):
    # one frame of a mono WAV: 4 x 1 x (FEATURIZE_MAX_VALUES // 4 + 1) values, just above the bound. The child
    # gets 512 MiB of address space, so a check placed after the STFT fails fast instead of taking gigabytes
    wav, out = tmp_path / "x.wav", tmp_path / "feat"
    make_noise_wav(wav, seconds=0.001)
    fft = 2 * (cli.FEATURIZE_MAX_VALUES // 4)
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29));"
        " from soundcompass.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    argv = ["featurize", "--wav", str(wav), "--fft", str(fft), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(soundcompass.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: --fft {fft} and --hop 256 ask for a 4 x 1 x {fft // 2 + 1} pairwise tensor,"
        f" more than {cli.FEATURIZE_MAX_VALUES} values\n"
    )
    assert not out.exists()


def test_featurize_refuses_a_low_rate_before_any_transform(tmp_path, capsys, monkeypatch):
    # at 80 Hz Nyquist is 40 Hz, below the layout's 50 Hz lowest edge: no layout, so no STFT or features either
    calls = []
    forward = cli.spin_forward
    monkeypatch.setattr(cli, "spin_forward", lambda spec: calls.append(spec) or forward(spec))
    wav, out = tmp_path / "x.wav", tmp_path / "feat"
    make_noise_wav(wav, seconds=10.0, rate=80, channels=4)
    assert main(["featurize", "--wav", str(wav), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {wav}: sample rate 80 Hz is too low for the band layout") and err.count("\n") == 1
    assert calls == [] and not out.exists()


# ---------------------------------------------------------------------------
# clue


def test_clue_sh_dimensions(tmp_path, capsys):
    assert main(["clue", "--az", "30", "--el", "20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "sh"
    assert payload["order"] == 5
    assert len(payload["vector"]) == 72


def test_clue_order_zero_value(capsys):
    assert main(["clue", "--az", "123", "--el", "-45", "--order", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    want = round(1.0 / math.sqrt(4 * math.pi), 10)
    assert payload["vector"] == [want, 0.0]


def test_clue_cyc_pos_periodicity(capsys):
    # order must be odd so 2 (order+1)^2 is a multiple of 4
    assert main(["clue", "--az", "0", "--el", "10", "--kind", "cyc-pos", "--order", "3"]) == 0
    a = json.loads(capsys.readouterr().out)
    assert main(["clue", "--az", "360", "--el", "10", "--kind", "cyc-pos", "--order", "3"]) == 0
    b = json.loads(capsys.readouterr().out)
    assert a["vector"] == pytest.approx(b["vector"], abs=1e-9)
    assert len(a["vector"]) == 2 * 4**2  # 2 (order+1)^2


@pytest.mark.parametrize("order", [0, 4, 44, -2])
def test_clue_cyc_pos_even_order_exits_2(capsys, order):
    assert main(["clue", "--az", "45", "--el", "10", "--kind", "cyc-pos", "--order", str(order)]) == 2
    assert capsys.readouterr().err == f"error: --order: cyc-pos order must be odd and in [1, 43], got {order}\n"


# a negative order once wrote an embedding (-3 as 2 octaves, -45 as 968), and -1 and 45 named dim;
# 2**k * angle overflows past 1022 octaves, so 43 (968 octaves) is the largest order;
# the document once held the octave count and the class's spelling: --order 3 wrote "order": 8, "kind": "cyc_pos"
@pytest.mark.parametrize("order, rc", [(-45, 2), (-3, 2), (-1, 2), (45, 2), (43, 0), (3, 0)])
def test_clue_cyc_pos_odd_order_range(tmp_path, capsys, order, rc):
    out = tmp_path / "clue.json"
    args = ["clue", "--az", "45", "--el", "10", "--kind", "cyc-pos", "--order", str(order), "--out", str(out)]
    assert main(args) == rc
    if rc:
        assert capsys.readouterr().err == f"error: --order: cyc-pos order must be odd and in [1, 43], got {order}\n"
        assert not out.exists()
    else:
        payload = json.loads(out.read_text())
        assert (payload["kind"], payload["order"]) == ("cyc-pos", order)
        assert len(payload["vector"]) == 2 * (order + 1) ** 2
        assert np.isfinite(payload["vector"]).all()


# sh: (n+m)! past 170 does not convert to a float (cyc-pos: test_clue_cyc_pos_odd_order_range)
@pytest.mark.parametrize(
    "kind, largest, too_large, message",
    [
        ("sh", 85, 86, "order must be in [0, 85], got 86"),
    ],
)
def test_clue_order_past_float_range_exits_2(capsys, kind, largest, too_large, message):
    assert main(["clue", "--az", "45", "--el", "10", "--kind", kind, "--order", str(largest)]) == 0
    assert np.isfinite(json.loads(capsys.readouterr().out)["vector"]).all()
    assert main(["clue", "--az", "45", "--el", "10", "--kind", kind, "--order", str(too_large)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --order: ") and message in err


def test_clue_time_varying(tmp_path):
    act = tmp_path / "act.json"
    act.write_text("[0.0, 1.0]")
    out = tmp_path / "clue.json"
    rc = main(
        ["clue", "--az", "0", "--el", "0", "--order", "1", "--activation", str(act), "--frames", "3", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    mat = np.asarray(payload["matrix"])
    assert mat.shape == (3, 8)
    np.testing.assert_allclose(mat[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(mat[1], 0.5 * mat[2], atol=1e-9)


def test_clue_activation_requires_frames(tmp_path):
    act = tmp_path / "act.json"
    act.write_text("[1.0]")
    rc = main(["clue", "--az", "0", "--el", "0", "--activation", str(act)])
    assert rc == 2


def test_clue_frames_requires_activation(tmp_path, capsys):
    out = tmp_path / "clue.json"
    assert main(["clue", "--az", "0", "--el", "0", "--frames", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --frames requires --activation\n"
    assert not out.exists()


@pytest.mark.parametrize("frames", ["0", "-2"])
def test_clue_frames_below_1_exits_2(tmp_path, capsys, frames):
    # the error names --frames, not the activation file
    act, out = tmp_path / "act.json", tmp_path / "clue.json"
    act.write_text("[0.0, 1.0]")
    assert main(["clue", "--az", "0", "--el", "0", "--activation", str(act), "--frames", frames, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --frames must be an integer >= 1, got {frames}\n"
    assert not out.exists()


def test_clue_oversized_frames_exits_2(tmp_path, capsys):
    # the frame positions of 10**14 frames alone take 728 TiB; the bound is checked before anything is read or allocated
    act, out = tmp_path / "act.json", tmp_path / "clue.json"
    act.write_text("[0.0, 1.0]")
    argv = ["clue", "--az", "0", "--el", "0", "--activation", str(act), "--frames", str(10**14), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --frames asks for a 100000000000000 x 72 matrix") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("payload", ['{"a": 1}', "null", '"0.5"', "[[0.5]]", '[0.5, "x"]', "[true]", "[NaN]"])
def test_clue_bad_activation_exits_2(tmp_path, capsys, payload):
    act = tmp_path / "act.json"
    act.write_text(payload)
    rc = main(["clue", "--az", "0", "--el", "0", "--activation", str(act), "--frames", "3"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# fuse-check


def test_fuse_check_passes(capsys):
    rc = main(["fuse-check", "--seed", "0", "--bands", "3"])
    assert rc == 0
    *bands, summary = capsys.readouterr().out.splitlines()
    # one line per band, then the summary over all of them
    errors = []
    for k, line in enumerate(bands):
        m = re.fullmatch(rf"band {k} \[(\d+), (\d+)\]: max relative gradient error (\S+) over 22 coordinates", line)
        assert m, line
        errors.append(m[3])
    assert len(errors) == 3
    assert summary == f"max relative gradient error: {max(errors, key=float)} over 3 bands"


@pytest.mark.parametrize("bands", ["0", "-1", "-20"])
def test_fuse_check_bad_bands_exits_2(capsys, bands):
    assert main(["fuse-check", "--seed", "0", "--bands", bands]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --bands must be") and err.count("\n") == 1


def test_fuse_check_bad_env_seed_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("SOUNDCOMPASS_SEED", "abc")
    assert main(["fuse-check", "--bands", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SOUNDCOMPASS_SEED") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["--seed", "-3"], None, "--seed must be an integer >= 0, got -3"),
        ([], "-5", "SOUNDCOMPASS_SEED must be an integer >= 0, got '-5'"),
        (["--seed", "-3"], "7", "--seed must be an integer >= 0, got -3"),  # the flag wins over the variable
    ],
)
def test_fuse_check_negative_seed_names_its_source(capsys, monkeypatch, argv, env, message):
    # numpy's own error for a negative seed names neither the flag nor the variable
    if env is not None:
        monkeypatch.setenv("SOUNDCOMPASS_SEED", env)
    assert main(["fuse-check", "--bands", "2", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_has_no_seed_option(tmp_path):
    manifest = write_manifest(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(["simulate", "--manifest", str(manifest), "--out", str(tmp_path / "o"), "--seed", "1"])
    assert e.value.code == 2


def test_fuse_check_env_seed_deterministic(capsys, monkeypatch):
    monkeypatch.setenv("SOUNDCOMPASS_SEED", "42")
    assert main(["fuse-check", "--bands", "2"]) == 0
    a = capsys.readouterr().out
    assert main(["fuse-check", "--bands", "2"]) == 0
    b = capsys.readouterr().out
    assert a == b


# ---------------------------------------------------------------------------
# extract / evaluate / contour


@pytest.fixture()
def rendered_scene(tmp_path):
    manifest = write_manifest(tmp_path, n_scenes=1, seconds=0.3)
    out = tmp_path / "scenes"
    assert main(["simulate", "--manifest", str(manifest), "--out", str(out)]) == 0
    return out / "scene_0"


def test_extract_and_evaluate(rendered_scene, tmp_path):
    truth = json.loads((rendered_scene / "truth.json").read_text())
    src = truth["sources"][0]
    az = math.degrees(src["azimuth"])
    el = 90.0 - math.degrees(src["polar"])
    est = tmp_path / "est.wav"
    rc = main(["extract", "--scene", str(rendered_scene), "--az", str(az), "--el", str(el), "--out", str(est)])
    assert rc == 0
    assert est.exists()

    report = tmp_path / "report.csv"
    rc = main(
        ["evaluate", "--est", str(est), "--scene", str(rendered_scene), "--source", "0", "--out", str(report)]
    )
    assert rc == 0
    rows = list(csv.reader(report.read_text().splitlines()))
    assert rows[0][0] == "scene_id"
    assert rows[1][0] == "scene_0"
    assert rows[2][0] == "mean"
    float(rows[1][2])  # snri parses
    float(rows[1][3])


def test_evaluate_per_pair_rows_average_to_report(rendered_scene, tmp_path, capsys):
    """--per-pair writes one row per mic pair; their nan-means are the report's spatial columns."""
    est = tmp_path / "est.wav"
    assert main(["extract", "--scene", str(rendered_scene), "--az", "30", "--el", "10", "--out", str(est)]) == 0
    evaluate = ["evaluate", "--est", str(est), "--scene", str(rendered_scene), "--source", "0"]
    capsys.readouterr()
    assert main([*evaluate, "--out", str(tmp_path / "plain.csv")]) == 0
    plain_out = capsys.readouterr().out
    report, per_pair = tmp_path / "report.csv", tmp_path / "pairs.csv"
    assert main([*evaluate, "--out", str(report), "--per-pair", str(per_pair)]) == 0
    assert capsys.readouterr().out == plain_out.replace("plain.csv", "report.csv") + f"wrote {per_pair} (6 pairs)\n"
    assert report.read_bytes() == (tmp_path / "plain.csv").read_bytes()  # the flag leaves the report as it was

    rows = list(csv.DictReader(per_pair.read_text().splitlines()))
    assert list(rows[0]) == ["scene_id", "source_id", "i", "j", "d_ild_db", "d_ipd_rad", "d_itd_us"]
    assert [(r["scene_id"], r["source_id"]) for r in rows] == [("scene_0", "0")] * 6
    assert [(int(r["i"]), int(r["j"])) for r in rows] == [(i, j) for i in range(4) for j in range(i + 1, 4)]
    (row,) = [r for r in csv.DictReader(report.read_text().splitlines()) if r["scene_id"] == "scene_0"]
    for key in ("d_ild_db", "d_ipd_rad", "d_itd_us"):
        assert all(len(r[key].split(".")[-1]) == 6 or r[key] == "nan" for r in rows)  # %.6f, as the report
        mean = np.nanmean([float(r[key]) for r in rows])
        assert mean == pytest.approx(float(row[key]), abs=1e-6), key  # both sides rounded to 1e-6 / 2


def test_evaluate_source_out_of_range(rendered_scene, tmp_path):
    est = tmp_path / "est.wav"
    make_noise_wav(est, seconds=0.3, channels=4)
    rc = main(
        ["evaluate", "--est", str(est), "--scene", str(rendered_scene), "--source", "5", "--out", str(tmp_path / "r.csv")]
    )
    assert rc == 2


def test_one_mic_scene_evaluates_with_nan_spatial_columns(tmp_path):
    """One channel has no pairs: the SNR columns are finite and the spatial means NaN, as for undefined pairs."""
    manifest = write_manifest(tmp_path, seconds=0.3)
    scene = json.loads(manifest.read_text())
    scene["array"] = {"offsets": [[0, 0, 0]]}
    manifest.write_text(json.dumps(scene) + "\n", encoding="utf-8")
    out, est, report = tmp_path / "scenes", tmp_path / "est.wav", tmp_path / "report.csv"
    assert main(["simulate", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert main(["extract", "--scene", str(out / "scene_0"), "--az", "0", "--el", "0", "--out", str(est)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["evaluate", "--est", str(est), "--scene", str(out / "scene_0"), "--source", "0", "--out", str(report)])
    assert rc == 0
    rows = list(csv.DictReader(report.read_text().splitlines()))
    assert [r["scene_id"] for r in rows] == ["scene_0", "mean"]
    for row in rows:
        assert math.isfinite(float(row["snri_db"])) and math.isfinite(float(row["si_snri_db"]))
        assert [row[k] for k in ("d_ild_db", "d_ipd_rad", "d_itd_us")] == ["nan"] * 3


def test_zero_aperture_evaluate_searches_64_lags_at_the_scene_rate(tmp_path):
    """Two mics at the array centre: the ITD window is 64 lags at 8 kHz, so a 12-sample lag (1500 us) is found."""
    manifest = write_manifest(tmp_path, seconds=0.5)
    make_noise_wav(tmp_path / "m0.wav", seconds=0.5, rate=8000, seed=100)
    scene = json.loads(manifest.read_text())
    scene["array"] = {"offsets": [[0, 0, 0], [0, 0, 0]]}
    manifest.write_text(json.dumps(scene) + "\n", encoding="utf-8")
    out, est, report = tmp_path / "scenes", tmp_path / "est.wav", tmp_path / "report.csv"
    assert main(["simulate", "--manifest", str(manifest), "--out", str(out)]) == 0
    ref = read_wav(out / "scene_0" / "src0_direct.wav")
    assert ref.sample_rate == 8000
    lagged = np.concatenate([np.zeros(12), ref.samples[0, :-12]])
    write_wav(MultichannelWaveform(np.stack([ref.samples[0], lagged]), 8000), est)
    evaluate = ["evaluate", "--est", str(est), "--scene", str(out / "scene_0"), "--source", "0", "--out", str(report)]
    assert main(evaluate) == 0
    (row,) = [r for r in csv.DictReader(report.read_text().splitlines()) if r["scene_id"] == "scene_0"]
    assert float(row["d_itd_us"]) == pytest.approx(1500.0, abs=10.0)  # one sample is 125 us


@pytest.mark.parametrize("el, rc", [(100, 2), (-91, 2), (math.nan, 2), (90, 0), (-90, 0)])
def test_elevation_range_is_named_in_degrees(rendered_scene, tmp_path, capsys, el, rc):
    extract = ["extract", "--scene", str(rendered_scene), "--out", str(tmp_path / "est.wav")]
    for argv in (["clue"], extract):
        capsys.readouterr()
        assert main(argv + ["--az", "0", "--el", str(el)]) == rc
        if rc:
            assert capsys.readouterr().err == f"error: elevation {float(el)} deg outside [-90, 90]\n"


MALFORMED_TRUTHS = {
    "no_sources": lambda t: {k: v for k, v in t.items() if k != "sources"},
    "sources_not_list": lambda t: {**t, "sources": 5},
    "source_without_azimuth": lambda t: {**t, "sources": [{k: v for k, v in t["sources"][0].items() if k != "azimuth"}]},
    "azimuth_beyond_float": lambda t: {**t, "sources": [{**t["sources"][0], "azimuth": 10**400}]},
    "json_list": lambda t: [t],
    "no_array_offsets": lambda t: {k: v for k, v in t.items() if k != "array_offsets"},
    "two_of_four_offsets": lambda t: {**t, "array_offsets": t["array_offsets"][:2]},
    "polar_7": lambda t: {**t, "sources": [{**t["sources"][0], "polar": 7.0}]},
    "azimuth_true": lambda t: {**t, "sources": [{**t["sources"][0], "azimuth": True}]},
    "offsets_as_strings": lambda t: {**t, "array_offsets": [[str(v) for v in row] for row in t["array_offsets"]]},
    "one_offset_true": lambda t: {**t, "array_offsets": [[True, *t["array_offsets"][0][1:]], *t["array_offsets"][1:]]},
}


@pytest.mark.parametrize("command", ["extract", "evaluate", "contour"])
@pytest.mark.parametrize("payload", sorted(MALFORMED_TRUTHS))
def test_malformed_truth_exits_2(rendered_scene, tmp_path, capsys, command, payload):
    truth_path = rendered_scene / "truth.json"
    truth_path.write_text(json.dumps(MALFORMED_TRUTHS[payload](json.loads(truth_path.read_text()))))
    out = tmp_path / "out"
    argv = {
        "extract": ["--az", "0", "--el", "0"],
        "evaluate": ["--est", str(rendered_scene / "mixture.wav"), "--source", "0"],
        "contour": ["--source", "0"],
    }[command]
    assert main([command, "--scene", str(rendered_scene), "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {truth_path}: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "evaluate", "contour"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_mixture_exits_2(rendered_scene, tmp_path, capsys, command, value):
    est = tmp_path / "est.wav"
    est.write_bytes((rendered_scene / "mixture.wav").read_bytes())  # a finite estimate for evaluate
    mixture = rendered_scene / "mixture.wav"
    blob = bytearray(mixture.read_bytes())
    blob[-4:] = np.float32(value).tobytes()
    mixture.write_bytes(bytes(blob))
    out = tmp_path / "out"
    argv = {
        "extract": ["--az", "0", "--el", "0"],
        "evaluate": ["--est", str(est), "--source", "0"],
        "contour": ["--source", "0"],
    }[command]
    assert main([command, "--scene", str(rendered_scene), "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "mixture.wav" in err and "non-finite" in err, err
    assert not out.exists()


# per command: a document of the wrong top-level type, and one that lacks a key or value
WRONG_JSON = {
    "simulate": (b"[1]", b'{"rt60_s": 0.3}'),
    "clue": (b'{"a": 1}', b"[]"),
    **dict.fromkeys(["extract", "evaluate", "contour"], (b"[]", b'{"sources": []}')),
}


@pytest.mark.parametrize("bad", [*sorted(UNREADABLE_JSON), "wrong_type", "missing_key"])
@pytest.mark.parametrize("command", list(WRONG_JSON))
def test_bad_json_input_exits_2_naming_file(request, tmp_path, capsys, command, bad):
    if command == "simulate":  # the manifest's error names the line too
        path = tmp_path / "m.jsonl"
        argv = ["--manifest", str(path)]
    elif command == "clue":
        path = tmp_path / "act.json"
        argv = ["--az", "0", "--el", "0", "--activation", str(path), "--frames", "3"]
    else:
        scene = request.getfixturevalue("rendered_scene")
        path = scene / "truth.json"
        argv = ["--scene", str(scene)] + {
            "extract": ["--az", "0", "--el", "0"],
            "evaluate": ["--est", str(scene / "mixture.wav"), "--source", "0"],
            "contour": ["--source", "0"],
        }[command]
    path.write_bytes({**UNREADABLE_JSON, "wrong_type": WRONG_JSON[command][0], "missing_key": WRONG_JSON[command][1]}[bad])
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    where = f"{path}:1: " if command == "simulate" else f"{path}: "
    assert err.startswith(f"error: {where}") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.fixture(scope="module")
def scene_template(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("template")
    assert main(["simulate", "--manifest", str(write_manifest(tmp, seconds=0.3)), "--out", str(tmp / "scenes")]) == 0
    return tmp / "scenes" / "scene_0"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_scene_dir_fuzz_raises_only_value_error(tmp_path_factory, scene_template, data):
    """A mutated truth.json either loads or raises ValueError."""
    scene = tmp_path_factory.mktemp("fuzz")
    shutil.copy(scene_template / "mixture.wav", scene)
    truth = json.loads((scene_template / "truth.json").read_text())
    (scene / "truth.json").write_bytes(data.draw(mutated_json(truth), label="truth"))
    try:
        read_scene_dir(scene)
    except ValueError:
        return


@settings(max_examples=150, deadline=None)
@given(blob=mutated_json([0.0, 0.5, 1.0]))
def test_clue_activation_fuzz_raises_only_value_error(tmp_path_factory, blob):
    """A mutated --activation file either gives a clue or raises ValueError."""
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "act.json").write_bytes(blob)
    args = build_parser().parse_args(
        ["clue", "--az", "0", "--el", "0", "--order", "1", "--activation", str(tmp / "act.json"), "--frames", "3"]
        + ["--out", str(tmp / "clue.json")]
    )
    try:
        args.func(args)
    except ValueError:
        return


def test_contour_grid(rendered_scene, tmp_path):
    out = tmp_path / "contour.csv"
    rc = main(
        ["contour", "--scene", str(rendered_scene), "--source", "0", "--span", "5", "--step", "2.5", "--out", str(out)]
    )
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["d_az", "d_el", "si_snri_db"]
    assert len(rows) == 1 + 5 * 5
    table = {(float(r[0]), float(r[1])): float(r[2]) for r in rows[1:]}
    best = max(table, key=table.get)
    assert best == (0.0, 0.0)


@pytest.mark.parametrize(
    "option, value",
    [("--step", "0"), ("--step", "-1"), ("--step", "nan"), ("--step", "inf"), ("--step", "1e-320"), ("--span", "-5"), ("--span", "inf")],
)
def test_contour_bad_grid_exits_2(rendered_scene, tmp_path, capsys, option, value):
    out = tmp_path / "contour.csv"
    argv = ["contour", "--scene", str(rendered_scene), "--source", "0", "--out", str(out)]
    assert main(argv + [option, value]) == 2
    assert capsys.readouterr().err.startswith(f"error: {option} must be")
    assert not out.exists()


@pytest.mark.parametrize("argv", [("--step", "1e-300"), ("--span", "180", "--step", "1e-7")], ids=["3e301-side", "3.6e9-side"])
def test_contour_oversized_grid_exits_2(rendered_scene, tmp_path, argv):
    # in a subprocess with a timeout: a check placed after the grid is built fails here instead of hanging
    out = tmp_path / "contour.csv"
    cmd = [sys.executable, "-m", "soundcompass.cli", "contour", "--scene", str(rendered_scene), "--source", "0", *argv]
    env = {**os.environ, "PYTHONPATH": str(Path(soundcompass.__file__).parents[1])}
    proc = subprocess.run(cmd + ["--out", str(out)], capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 2
    assert re.fullmatch(r"error: --span / --step asks for a \S+ x \S+ grid, more than 1000000 points\n", proc.stderr)
    assert not out.exists()


def test_contour_parallel_matches_serial(rendered_scene, tmp_path):
    # 5x5 is one chunk and runs inline; 41x41 is 7 chunks, which --jobs 2 scores on two threads
    for span, step, rows in (("5", "2.5", 25), ("10", "0.5", 41 * 41)):
        outs = [tmp_path / f"serial_{span}.csv", tmp_path / f"parallel_{span}.csv"]
        for jobs, out in zip(("1", "2"), outs):
            argv = ["contour", "--scene", str(rendered_scene), "--source", "0", "--span", span, "--step", step]
            assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
        assert outs[1].read_bytes() == outs[0].read_bytes()
        assert outs[0].read_text().count("\n") == 1 + rows


def test_contour_jobs_runs_threads_not_processes(rendered_scene, tmp_path):
    code = (
        "import sys, soundcompass.cli; rc = soundcompass.cli.main(sys.argv[1:]); "
        "print(rc, *(m in sys.modules for m in ('concurrent.futures.thread', 'concurrent.futures.process', 'multiprocessing')))"
    )
    argv = ["contour", "--scene", str(rendered_scene), "--source", "0", "--span", "10", "--step", "0.5", "--jobs", "2"]
    env = {**os.environ, "PYTHONPATH": str(Path(soundcompass.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv, "--out", str(tmp_path / "c.csv")], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout.splitlines()[-1] == "0 True False False"
