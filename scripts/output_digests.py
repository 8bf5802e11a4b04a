#!/usr/bin/env python3
"""Print a SHA-256 digest of every file the CLI writes, one `sha256  path` line each.

Renders two fixed 1 s two-source scenes, one reverberant (RT60 0.4 s) and one
anechoic, then runs every command in every mode whose output must not change:
`simulate` with --jobs 1 and 2; per scene `featurize` with the defaults and with
--fft/--hop, `extract` and `evaluate` (with --per-pair) for both sources, and
`contour` with --jobs 1 and 2 on a grid of two chunks; `clue` as sh, as
cyc-pos and with --activation; and `fuse-check`, whose printed lines are kept
as a file. No command runs the band path, so per scene it is run here on the
mixture: the fused bands (`fused.npz`), split then merged features
(`merged.npy`) and each band's modulation gradients (`gradients.npz`) go to
`band_path_<k>/`. Paths are relative to --out, so the output of two checkouts
compares with one `diff`:

    python3 scripts/output_digests.py --out /tmp/a > a.txt   # at one commit
    python3 scripts/output_digests.py --out /tmp/b > b.txt   # at another
    diff a.txt b.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from soundcompass.audio_io import MultichannelWaveform, read_wav, write_wav
from soundcompass.cli import main as cli_main
from soundcompass.clues import build_time_varying_clue, encode_sh
from soundcompass.fusion import encode_band_feature, film_gradients, fuse_all_bands, init_fusion_weights
from soundcompass.roomsim import read_scene_dir
from soundcompass.spectral import FFT_SIZE, HOP, WINDOW, make_band_layout, merge_bands, split_bands, stft
from soundcompass.spin import spin_forward

FS = 16000
SECONDS = 1.0
ROOM = [5.57, 5.20, 3.79]
CENTER = [2.8, 2.6, 1.5]
POSITIONS = [[1.5, 3.9, 1.7], [4.3, 1.9, 1.3]]  # target and interferer, 1.3-1.7 m from the array
SCENES = [{"rt60_s": 0.4}, {"absorption": [1.0] * 6}]  # scene_0 reverberant, scene_1 anechoic


def run(*argv: str) -> str:
    """Run one CLI command in this process; its stdout, or SystemExit on failure."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(list(argv))
    if rc != 0:
        raise SystemExit(f"soundcompass {' '.join(argv)} exited {rc}")
    return out.getvalue()


def write_inputs(root: Path) -> Path:
    """Seeded noise sources, a two-scene manifest and an activation file under root."""
    rng = np.random.default_rng(3)
    for name in ("target.wav", "interferer.wav"):
        write_wav(MultichannelWaveform(0.3 * rng.standard_normal(int(SECONDS * FS)), FS), root / name)
    sources = [
        {"position": pos, "class": name[:-4], "gain_db": 0.0, "wav": name}
        for pos, name in zip(POSITIONS, ("target.wav", "interferer.wav"))
    ]
    lines = [
        json.dumps({"room_dims": ROOM, "array_center": CENTER, "array": "tetrahedral_4ch_r0.042", "sources": sources, **acoustics})
        for acoustics in SCENES
    ]
    (root / "scenes.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "activation.json").write_text("[0.0, 0.25, 1.0, 0.5]\n", encoding="utf-8")
    return root / "scenes.jsonl"


def write_band_path(scene: Path, bearing, out: Path, seed: int) -> None:
    """Split, encode, fuse, back-propagate and merge the scene's mixture with seeded weights."""
    spec = stft(read_wav(scene / "mixture.wav"), WINDOW, FFT_SIZE, HOP)
    feat = spin_forward(spec)
    layout = make_band_layout(FFT_SIZE // 2 + 1, FS)
    weights = init_fusion_weights(layout, 72, 64, 16, 64, seed=0)  # 72 = 2 (5 + 1)^2 values of an order-5 clue
    activation = json.loads((scene / "truth.json").read_text(encoding="utf-8"))["sources"][0]["activation"]
    clue = build_time_varying_clue(encode_sh(bearing, 5), np.asarray(activation), spec.num_frames)
    rng = np.random.default_rng(seed)
    out.mkdir()
    fused = fuse_all_bands(feat, layout, clue, weights)
    np.savez(out / "fused.npz", **{f"band{k:02d}": band for k, band in enumerate(fused.bands)})
    bands = split_bands(feat.pairwise, layout)
    np.save(out / "merged.npy", merge_bands(bands, layout))
    grads = {}
    for k, (band, bw) in enumerate(zip(bands, weights.bands)):
        enc = encode_band_feature(band, bw.feat)
        for name, g in film_gradients(enc, clue, bw, rng.standard_normal(enc.shape)).items():
            grads[f"band{k:02d}.{name}"] = g
    np.savez(out / "gradients.npz", **grads)


def write_outputs(root: Path) -> None:
    manifest = write_inputs(root)
    for jobs in ("1", "2"):
        run("simulate", "--manifest", str(manifest), "--out", str(root / f"simulate_j{jobs}"), "--jobs", jobs)

    for k in range(len(SCENES)):
        scene = root / "simulate_j1" / f"scene_{k}"
        mixture, feats = str(scene / "mixture.wav"), root / f"featurize_{k}"
        run("featurize", "--wav", mixture, "--out", str(feats / "default"))
        run("featurize", "--wav", mixture, "--fft", "256", "--hop", "128", "--out", str(feats / "fft256"))
        doas, _, _ = read_scene_dir(scene)
        write_band_path(scene, doas[0], root / f"band_path_{k}", seed=k)
        for j, doa in enumerate(doas):
            az, el = doa.to_degrees()
            est = root / f"extract_{k}_src{j}.wav"
            run("extract", "--scene", str(scene), "--az", repr(az), "--el", repr(el), "--out", str(est))
            report, per_pair = root / f"evaluate_{k}_src{j}.csv", root / f"evaluate_{k}_src{j}_pairs.csv"
            run("evaluate", "--est", str(est), "--scene", str(scene), "--source", str(j), "--out", str(report), "--per-pair", str(per_pair))
        for jobs in ("1", "2"):  # 17x17 points: two chunks of contour_grid
            out = root / f"contour_{k}_j{jobs}.csv"
            run("contour", "--scene", str(scene), "--source", "0", "--span", "8", "--step", "1", "--jobs", jobs, "--out", str(out))

    clue = ("clue", "--az", "45", "--el", "10")
    run(*clue, "--out", str(root / "clue_sh.json"))
    run(*clue, "--kind", "cyc-pos", "--order", "3", "--out", str(root / "clue_cyc_pos.json"))
    run(*clue, "--activation", str(root / "activation.json"), "--frames", "7", "--out", str(root / "clue_activation.json"))
    (root / "fuse_check.txt").write_text(run("fuse-check", "--seed", "0", "--bands", "3"), encoding="utf-8")


def digests(root: Path) -> list[str]:
    return [
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}"
        for p in sorted(root.rglob("*"))
        if p.is_file()
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="an empty or new directory for the outputs (default: a temporary one)")
    args = ap.parse_args()
    with contextlib.ExitStack() as stack:
        root = Path(args.out) if args.out else Path(stack.enter_context(tempfile.TemporaryDirectory()))
        root.mkdir(parents=True, exist_ok=True)
        if any(root.iterdir()):
            raise SystemExit(f"{root} is not empty")
        write_outputs(root)
        print("\n".join(digests(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
