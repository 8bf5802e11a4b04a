#!/usr/bin/env python3
"""Generate a small demo corpus: source WAVs, a scene manifest, rendered scenes.

Each scene places one target and one interferer at randomized positions inside
the reference room, with the tetrahedral array at the center. Output layout
matches `soundcompass simulate`, so the rendered directories work directly
with the extract/evaluate/contour commands.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from soundcompass.audio_io import MultichannelWaveform, write_wav
from soundcompass.cli import main as cli_main
from soundcompass.clues import DoAClue
from soundcompass.roomsim import read_scene_dir

ROOM = [5.57, 5.20, 3.79]
CENTER = np.array([2.8, 2.6, 1.5])
FS = 16000


def pink_noise(rng, n):
    """1/f-shaped noise, normalized to 0.25 peak."""
    spec = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
    spec /= np.maximum(np.sqrt(np.arange(len(spec), dtype=float)), 1.0)
    x = np.fft.irfft(spec, n=n)
    return 0.25 * x / np.abs(x).max()


def random_position(rng, min_r=1.0, max_r=1.8):
    while True:
        az = rng.uniform(0, 360)
        el = rng.uniform(-20, 20)
        r = rng.uniform(min_r, max_r)
        pos = CENTER + r * DoAClue.from_degrees(az, el).unit_vector()
        if all(0.25 < p < d - 0.25 for p, d in zip(pos, ROOM)):
            return pos


def build_manifest(out_dir: Path, num_scenes: int, seconds: float, rt60, seed: int) -> Path:
    rng = np.random.default_rng(seed)
    wav_dir = out_dir / "sources"
    wav_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for i in range(num_scenes):
        names = []
        for role in ("target", "interferer"):
            name = f"{role}_{i}.wav"
            sig = pink_noise(rng, int(seconds * FS))
            write_wav(MultichannelWaveform(sig[None, :], FS), wav_dir / name)
            names.append(f"sources/{name}")
        scene = {
            "room_dims": ROOM,
            "array_center": CENTER.tolist(),
            "array": "tetrahedral_4ch_r0.042",
            "sources": [
                {
                    "position": random_position(rng).tolist(),
                    "class": role,
                    "gain_db": 0.0,
                    "wav": name,
                }
                for role, name in zip(("target", "interferer"), names)
            ],
        }
        if rt60 is None:
            scene["absorption"] = [1.0] * 6
        else:
            scene["rt60_s"] = rt60
        lines.append(json.dumps(scene))
    manifest = out_dir / "scenes.jsonl"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="demo_scenes", help="output directory")
    ap.add_argument("--scenes", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--rt60", type=float, default=None, help="omit for anechoic")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    out_dir = Path(args.out)
    manifest = build_manifest(out_dir, args.scenes, args.seconds, args.rt60, args.seed)
    print(f"manifest: {manifest}")
    rc = cli_main(
        [
            "simulate",
            "--manifest",
            str(manifest),
            "--out",
            str(out_dir / "rendered"),
            "--jobs",
            str(args.jobs),
        ]
    )
    if rc != 0:
        return rc
    doas, _, _ = read_scene_dir(out_dir / "rendered" / "scene_0")
    az, el = doas[0].to_degrees()
    print(f"scene_0 target bearing: az {az:.1f} deg, el {el:.1f} deg")
    print(f"try: soundcompass extract --scene {out_dir / 'rendered' / 'scene_0'} "
          f"--az {az:.1f} --el {el:.1f} --out est.wav")
    return 0


if __name__ == "__main__":
    sys.exit(main())
