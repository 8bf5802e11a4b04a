"""Command-line frontend: simulation, featurization, extraction, evaluation.

Angles are degrees at this boundary (azimuth from +x, elevation above the
horizon) and radians everywhere inside. Exit codes: 0 success, 1 internal
error, 2 invalid input. SOUNDCOMPASS_SEED provides the default fuse-check --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np

from .audio_io import json_array, read_json, read_wav, write_wav
from .clues import DoAClue, build_time_varying_clue, encode_cyc_pos, encode_sh
from .delays import SPEED_OF_SOUND
from .extractor import contour_grid, delay_and_sum
from .fusion import film_fuse, finite_difference_check, init_fusion_weights
from .metrics import evaluate_extraction, write_per_pair_csv, write_reports_csv
from .metrics import si_snr_i  # noqa: F401  (unused here; perfbench wraps cli.si_snr_i)
from .roomsim import read_scene_dir, read_source_reference, render_scene_to_dir
from .scenes import read_manifest
from .spectral import FFT_SIZE, HOP, WINDOW, BandLayout, frame_count, make_band_layout, stft
from .spin import log_magnitude, spin_forward

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2

CONTOUR_MAX_POINTS = 10**6  # a 999x999 grid fits; about 4 min at the README's 61x61 rate
CLUE_MAX_VALUES = 10**6  # clue --frames x embedding width; the JSON path peaks near 116 MB here, 1.8 GB at 10**7
# featurize's (2M)^2 x frames x bins pairwise values. Its peak grows ≈14.4 B a value (913 MB at the 6.2e7
# of a 60 s 4-channel mixture at the defaults), so ≈2.8 GB here: 4 channels at the defaults fit ≈194 s
FEATURIZE_MAX_VALUES = 2 * 10**8

# CliError, SceneValidationError, WavFormatError, SimulationError and read_json's errors are ValueErrors
INVALID_INPUT_ERRORS = (
    FileNotFoundError,
    NotADirectoryError,
    IsADirectoryError,
    PermissionError,
    ValueError,
)


class CliError(ValueError):
    """Invalid input detected past argparse; maps to exit code 2."""


def _seed(flag: int | None) -> int:
    name, raw = ("--seed", flag) if flag is not None else ("SOUNDCOMPASS_SEED", os.environ.get("SOUNDCOMPASS_SEED", "0"))
    try:
        if (seed := int(raw)) >= 0:
            return seed
    except ValueError:
        pass
    raise CliError(f"{name} must be an integer >= 0, got {raw!r}")


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs must be an integer >= 1, got {args.jobs}")
    manifest = Path(args.manifest)
    scenes = read_manifest(manifest)
    if not scenes:
        raise CliError(f"{manifest}: manifest is empty")
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    stop = threading.Event()  # set by a failure without --keep-going; scenes not yet started are skipped

    def render(i):  # the scene's error, or None
        if stop.is_set():
            return None
        try:
            render_scene_to_dir(scenes[i], out_root / f"scene_{i}", base_dir=manifest.parent)
        except Exception as e:
            if not args.keep_going:
                stop.set()
            return e

    workers = min(args.jobs, len(scenes))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # imported here: a serial run loads no pool
        with ThreadPoolExecutor(max_workers=workers) as pool:
            errors = list(pool.map(render, range(len(scenes))))
    else:  # on the calling thread
        errors = list(map(render, range(len(scenes))))
    failures = [(i, e) for i, e in enumerate(errors) if e is not None]

    for i, e in failures:
        print(f"scene_{i}: {e}", file=sys.stderr)
    if failures:
        first = failures[0][1]
        return EXIT_INVALID if isinstance(first, INVALID_INPUT_ERRORS) else EXIT_INTERNAL
    print(f"rendered {len(scenes)} scenes into {out_root}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# featurize


def cmd_featurize(args) -> int:
    wav = read_wav(args.wav)
    if args.hop <= 0 or args.fft <= 0:
        raise CliError("--fft and --hop must be positive")
    num_bins = args.fft // 2 + 1
    pairs, frames = (2 * wav.num_channels) ** 2, frame_count(wav.num_samples, args.fft, args.hop)
    if pairs * frames * num_bins > FEATURIZE_MAX_VALUES:  # Python ints: nothing allocated yet
        raise CliError(
            f"--fft {args.fft} and --hop {args.hop} ask for a {pairs} x {frames} x {num_bins} pairwise tensor,"
            f" more than {FEATURIZE_MAX_VALUES} values"
        )
    window = replace(WINDOW, length=args.fft)
    spec = stft(wav, window, args.fft, args.hop)
    feat = spin_forward(spec)

    if args.bands == "default":
        layout = make_band_layout(num_bins, wav.sample_rate, fft_size=args.fft)
    else:
        layout = BandLayout.load(args.bands)
        if layout.num_bins != num_bins:
            raise CliError(
                f"{args.bands}: band layout covers {layout.num_bins} bins, STFT has {num_bins}"
            )
        if layout.sample_rate != wav.sample_rate:
            raise CliError(
                f"{args.bands}: band layout is for {layout.sample_rate} Hz, {args.wav} is {wav.sample_rate} Hz"
            )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.savez(
        out / "spin.npz",
        pairwise=feat.pairwise.astype(np.float32),
        log_mag=log_magnitude(spec).astype(np.float32),
        num_channels=np.int64(feat.num_channels),
        frame_hop=np.int64(args.hop),
        fft_size=np.int64(args.fft),
        sample_rate=np.int64(wav.sample_rate),
    )
    layout.to_json(out / "bands.json")
    print(
        f"wrote {out / 'spin.npz'} [{feat.pairwise.shape[0]}x{feat.pairwise.shape[1]}"
        f"x{feat.pairwise.shape[2]}] and {out / 'bands.json'} (K={layout.num_bands})"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# clue


def cmd_clue(args) -> int:
    clue = DoAClue.from_degrees(args.az, args.el)
    encode = encode_sh if args.kind == "sh" else encode_cyc_pos
    try:
        emb = encode(clue, args.order)
    except ValueError as e:
        raise CliError(f"--order: {e}") from None

    payload = {"kind": args.kind, "order": args.order}
    if (args.activation is None) != (args.frames is None):
        raise CliError("--activation requires --frames" if args.frames is None else "--frames requires --activation")
    if args.activation is not None:
        if args.frames < 1:
            raise CliError(f"--frames must be an integer >= 1, got {args.frames}")
        if args.frames * emb.size > CLUE_MAX_VALUES:  # Python ints: nothing allocated yet
            raise CliError(f"--frames asks for a {args.frames} x {emb.size} matrix, more than {CLUE_MAX_VALUES} values")
        activation = json_array(read_json(args.activation), args.activation)
        if activation.ndim != 1:
            raise CliError(f"{args.activation}: activation must be a JSON array of numbers")
        try:
            matrix = build_time_varying_clue(emb, activation, args.frames)
        except ValueError as e:  # e.g. an empty array or a value outside [0, 1]
            raise CliError(f"{args.activation}: {e}") from None
        payload["matrix"] = [[round(v, 10) for v in row] for row in matrix.tolist()]
    else:
        payload["vector"] = [round(v, 10) for v in emb.tolist()]

    text = json.dumps(payload)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fuse-check


def cmd_fuse_check(args) -> int:
    if args.bands is not None and args.bands < 1:
        raise CliError(f"--bands must be an integer >= 1, got {args.bands}")
    seed = _seed(args.seed)
    rng = np.random.default_rng(seed)
    num_bins = 33
    layout = make_band_layout(num_bins, 2000, f_min=80.0)
    if args.bands is not None:
        keep = min(args.bands, layout.num_bands)
        bands = layout.bands[:keep]
        bands[-1] = (bands[-1][0], num_bins - 1)
        layout = BandLayout(bands, num_bins, 2000, 64)

    weights = init_fusion_weights(layout, dim_clue=18, c_in=16, c_band=6, hidden=12, seed=seed)
    worst = 0.0
    for k, bw in enumerate(weights.bands):
        lo, hi = layout.bands[k]
        width = hi - lo + 1
        feat = rng.standard_normal((bw.num_channels, 5, width))
        upstream = rng.standard_normal(feat.shape)
        clue_vec = rng.standard_normal(18)
        rel, checked = finite_difference_check(bw, feat, clue_vec, upstream, num_coords=12, rng=rng)
        worst = max(worst, rel)
        print(f"band {k} [{lo}, {hi}]: max relative gradient error {rel:.3e} over {checked} coordinates")

        # null modulation: zeroed heads must reproduce the input bit for bit
        heads = {name: np.zeros_like(getattr(bw, name)) for name in ("w_gamma", "b_gamma", "w_beta", "b_beta")}
        if not np.array_equal(film_fuse(feat, clue_vec, replace(bw, **heads)), feat):
            print("null-modulation identity FAILED", file=sys.stderr)
            return EXIT_INTERNAL

    print(f"max relative gradient error: {worst:.3e} over {layout.num_bands} bands")
    return EXIT_OK if worst <= 1e-5 else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# extract / evaluate / contour


def _max_lag_s(offsets: np.ndarray) -> float:
    aperture = float(np.linalg.norm(offsets[:, None] - offsets[None, :], axis=-1).max())
    return 1.5 * aperture / SPEED_OF_SOUND if aperture > 0 else 16 / 16000


def cmd_extract(args) -> int:
    _, offsets, mixture = read_scene_dir(args.scene)
    clue = DoAClue.from_degrees(args.az, args.el)
    est = delay_and_sum(mixture, clue, offsets)
    write_wav(est, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    doas, offsets, mixture = read_scene_dir(args.scene)
    est = read_wav(args.est)
    ref = read_source_reference(args.scene, args.source, len(doas))
    if est.samples.shape != ref.samples.shape:
        raise CliError(
            f"estimate shape {est.samples.shape} != reference {ref.samples.shape}"
        )
    report = evaluate_extraction(
        est,
        ref,
        mixture,
        scene_id=Path(args.scene).name,
        source_id=str(args.source),
        max_lag_s=_max_lag_s(offsets),
    )
    write_reports_csv([report], args.out)
    print(f"wrote {args.out}")
    if args.per_pair:
        write_per_pair_csv([report], args.per_pair)
        print(f"wrote {args.per_pair} ({len(report.per_pair)} pairs)")
    return EXIT_OK


def cmd_contour(args) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs must be an integer >= 1, got {args.jobs}")
    if not (math.isfinite(args.step) and args.step > 0):
        raise CliError(f"--step must be a finite number > 0, got {args.step}")
    if not (math.isfinite(args.span) and args.span >= 0):
        raise CliError(f"--span must be a finite number >= 0, got {args.span}")
    if not math.isfinite(args.span / args.step):
        raise CliError(f"--step must be large enough that --span / --step is finite, got {args.step}")
    steps = int(round(args.span / args.step))
    if (side := 2 * steps + 1) ** 2 > CONTOUR_MAX_POINTS:  # Python ints: no overflow, and no list built yet
        raise CliError(f"--span / --step asks for a {side:.6g} x {side:.6g} grid, more than {CONTOUR_MAX_POINTS} points")
    doas, offsets, mixture = read_scene_dir(args.scene)
    ref = read_source_reference(args.scene, args.source, len(doas))
    clue = doas[args.source]

    offsets_deg = [i * args.step for i in range(-steps, steps + 1)]
    grid = [(d_az, d_el) for d_az in offsets_deg for d_el in offsets_deg]
    values = contour_grid(mixture, ref, offsets, clue, grid, jobs=args.jobs)

    with open(args.out, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["d_az", "d_el", "si_snri_db"])
        for (d_az, d_el), v in zip(grid, values):
            writer.writerow([f"{d_az:.6f}", f"{d_el:.6f}", f"{v:.6f}"])
    print(f"wrote {args.out} ({len(grid)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="soundcompass",
        description="Deterministic spatial-audio toolkit: simulate, featurize, steer, evaluate.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="render a JSONL manifest of scenes")
    s.add_argument("--manifest", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--keep-going", action="store_true")
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("featurize", help="pairwise spatial features + band layout")
    s.add_argument("--wav", required=True)
    s.add_argument("--fft", type=int, default=FFT_SIZE)
    s.add_argument("--hop", type=int, default=HOP)
    s.add_argument("--bands", default="default")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_featurize)

    s = sub.add_parser("clue", help="direction embedding (JSON)")
    s.add_argument("--az", type=float, required=True, help="azimuth degrees")
    s.add_argument("--el", type=float, required=True, help="elevation degrees above horizon")
    s.add_argument("--order", type=int, default=5)
    s.add_argument("--kind", choices=["sh", "cyc-pos"], default="sh")
    s.add_argument("--activation", default=None, help="JSON array of per-frame weights")
    s.add_argument("--frames", type=int, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_clue)

    s = sub.add_parser("fuse-check", help="gradient and identity verification")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--bands", type=int, default=None)
    s.set_defaults(func=cmd_fuse_check)

    s = sub.add_parser("extract", help="steered delay-and-sum extraction")
    s.add_argument("--scene", required=True)
    s.add_argument("--az", type=float, required=True)
    s.add_argument("--el", type=float, required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_extract)

    s = sub.add_parser("evaluate", help="metric report for an estimate")
    s.add_argument("--est", required=True)
    s.add_argument("--scene", required=True)
    s.add_argument("--source", type=int, required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--per-pair", default=None, help="also write each mic pair's ILD/IPD/ITD errors as CSV")
    s.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("contour", help="steering-offset quality grid")
    s.add_argument("--scene", required=True)
    s.add_argument("--source", type=int, required=True)
    s.add_argument("--span", type=float, default=15.0)
    s.add_argument("--step", type=float, default=2.5)
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_contour)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except INVALID_INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as e:  # internal failure
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
