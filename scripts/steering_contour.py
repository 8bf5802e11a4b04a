#!/usr/bin/env python3
"""Steering-offset sensitivity experiment.

Renders a batch of randomized two-source scenes, points the delay-and-sum
extractor at the true target bearing plus a grid of angular offsets, and
averages the SI-SNR improvement per offset across scenes. Writes the mean
grid as CSV and prints ring-averaged means, which should peak at zero offset
and fall off monotonically with angular distance.
"""

import argparse
import csv
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from soundcompass.audio_io import MultichannelWaveform, write_wav
from soundcompass.clues import DoAClue
from soundcompass.extractor import contour_grid
from soundcompass.roomsim import render_scene
from soundcompass.scenes import SceneSpec, SourceSpec, tetrahedral_offsets

ROOM = (5.57, 5.20, 3.79)
CENTER = np.array([2.8, 2.6, 1.5])
FS = 16000


def noise_wav(path: Path, rng, seconds: float) -> None:
    sig = 0.3 * rng.standard_normal(int(seconds * FS))
    write_wav(MultichannelWaveform(sig[None, :], FS), path)


def draw_scene(rng, wav_dir: Path, index: int, seconds: float, rt60) -> SceneSpec | None:
    az_t = rng.uniform(0, 360)
    az_i = az_t + rng.uniform(60, 300)
    el_t = rng.uniform(-20, 20)
    r_t, r_i = rng.uniform(1.0, 1.8, 2)
    pos_t = CENTER + r_t * DoAClue.from_degrees(az_t, el_t).unit_vector()
    pos_i = CENTER + r_i * DoAClue.from_degrees(az_i, 0.0).unit_vector()
    for pos in (pos_t, pos_i):
        if not all(0.2 < p < d - 0.2 for p, d in zip(pos, ROOM)):
            return None
    wav_t = wav_dir / f"t{index}.wav"
    wav_i = wav_dir / f"i{index}.wav"
    noise_wav(wav_t, rng, seconds)
    noise_wav(wav_i, rng, seconds)
    kwargs = {"absorption": [1.0] * 6} if rt60 is None else {"rt60_s": rt60}
    return SceneSpec(
        room_dims=list(ROOM),
        array_center=CENTER.tolist(),
        array_offsets=tetrahedral_offsets(),
        sources=[
            SourceSpec(position=pos_t.tolist(), class_label="target", gain_db=0.0, wav=str(wav_t)),
            SourceSpec(position=pos_i.tolist(), class_label="interferer", gain_db=0.0, wav=str(wav_i)),
        ],
        **kwargs,
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenes", type=int, default=20)
    ap.add_argument("--span", type=float, default=15.0, help="max offset, degrees")
    ap.add_argument("--step", type=float, default=5.0)
    ap.add_argument("--seconds", type=float, default=0.3)
    ap.add_argument("--rt60", type=float, default=None, help="omit for anechoic")
    ap.add_argument("--seed", type=int, default=8)
    ap.add_argument("--out", default="contour.csv")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    offsets = tetrahedral_offsets()
    axis = np.arange(-args.span, args.span + args.step / 2, args.step)
    grid = [(da, de) for da in axis for de in axis]
    sums = np.zeros(len(grid))

    with tempfile.TemporaryDirectory() as tmp:
        wav_dir = Path(tmp)
        used = 0
        attempt = 0
        while used < args.scenes:
            attempt += 1
            spec = draw_scene(rng, wav_dir, attempt, args.seconds, args.rt60)
            if spec is None:
                continue
            mixture, truth = render_scene(spec)
            ref = MultichannelWaveform(
                truth.sources[0].direct.samples + truth.sources[0].reverb.samples, FS
            )
            sums += contour_grid(mixture, ref, offsets, truth.sources[0].doa, grid)
            used += 1
            print(f"scene {used}/{args.scenes} done", file=sys.stderr)

    mean_grid = dict(zip(grid, sums / used))
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["offset_az_deg", "offset_el_deg", "mean_si_snri_db"])
        for (da, de), v in sorted(mean_grid.items()):
            writer.writerow([f"{da:.1f}", f"{de:.1f}", f"{v:.6f}"])

    peak = max(mean_grid, key=mean_grid.get)
    print(f"wrote {args.out}; peak at offset ({peak[0]:.1f}, {peak[1]:.1f}) deg")

    rings = {}
    for (da, de), v in mean_grid.items():
        r = math.hypot(da, de)
        if r > args.span + 1e-9:
            continue
        bin_id = 0 if r == 0 else int(math.ceil(r / args.step))
        rings.setdefault(bin_id, []).append(v)
    for b in sorted(rings):
        lo = 0.0 if b == 0 else (b - 1) * args.step
        hi = b * args.step
        label = "0" if b == 0 else f"({lo:g}, {hi:g}]"
        print(f"ring {label} deg: mean SI-SNRi {np.mean(rings[b]):+.2f} dB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
