"""Acceptance gate: nine structural criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Each criterion states its tolerance inline; limits on wall time guard
against accidental quadratic blowups, not machine speed.
"""

import csv
import json
import math
import time

import numpy as np
import pytest
from scipy.signal import correlate, fftconvolve

from soundcompass.audio_io import MultichannelWaveform, read_wav
from soundcompass.cli import main
from soundcompass.clues import DoAClue, sh_complex
from soundcompass.delays import SPEED_OF_SOUND
from soundcompass.extractor import delay_and_sum
from soundcompass.fusion import film_fuse, finite_difference_check, init_fusion_weights
from soundcompass.metrics import gcc_phat_itd, si_snr, si_snr_i, snr_i, spatial_errors
from soundcompass.roomsim import render_scene, schroeder_rt60, simulate_rir
from soundcompass.scenes import SceneSpec, SourceSpec, tetrahedral_offsets
from soundcompass.spectral import (
    BandLayout,
    ComplexSpectrogram,
    GaussianWindowParams,
    WindowEnergyError,
    istft,
    make_band_layout,
    merge_bands,
    merge_weights,
    split_bands,
    stft,
)
from soundcompass.spin import recover_ipd, spin_forward

from conftest import complex_normal, make_noise_wav

FS = 16000


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num}/9 {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_spherical_harmonics():
    t0 = time.monotonic()
    # orthonormality by Gauss-Legendre x uniform-phi quadrature, n <= 5
    nodes, gl_w = np.polynomial.legendre.leggauss(16)
    thetas = np.arccos(nodes)
    n_phi = 16
    phis = 2 * math.pi * np.arange(n_phi) / n_phi
    pairs = [(n, m) for n in range(6) for m in range(-n, n + 1)]
    table = np.empty((len(pairs), 16, n_phi), dtype=complex)
    for p, (n, m) in enumerate(pairs):
        for a, th in enumerate(thetas):
            for b, ph in enumerate(phis):
                table[p, a, b] = sh_complex(n, m, float(th), float(ph))
    w_full = gl_w[:, None] * (2 * math.pi / n_phi)
    gram = np.einsum("iab,jab,ab->ij", table, np.conj(table), w_full)
    ortho_err = float(np.abs(gram - np.eye(len(pairs))).max())

    # addition theorem at 100 random directions
    rng = np.random.default_rng(1)
    add_err = 0.0
    for _ in range(100):
        theta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        for n in range(6):
            total = sum(abs(sh_complex(n, m, theta, phi)) ** 2 for m in range(-n, n + 1))
            add_err = max(add_err, abs(total - (2 * n + 1) / (4 * math.pi)))

    from soundcompass.clues import encode_sh

    dim = encode_sh(DoAClue.from_degrees(10, 20), order=5).size
    elapsed = time.monotonic() - t0
    ok = ortho_err <= 1e-6 and add_err <= 1e-10 and dim == 72 and elapsed < 5.0
    report(
        1,
        "harmonic embedding",
        ok,
        f"ortho {ortho_err:.2e}, addition {add_err:.2e}, dim {dim}, {elapsed:.1f}s",
    )


def test_criterion_2_pairwise_features():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    total_bins = 0
    bound_ok = True
    ipd_err = 0.0
    chan_count = None
    while total_bins < 1_000_000:
        t_n, f_n = 100, 1000  # 1e5 bins per batch
        xc = complex_normal(rng, (4, t_n, f_n)) * 10.0 ** rng.uniform(-6, 6)
        spec = ComplexSpectrogram(xc, 256, 2 * (f_n - 1), FS)
        feat = spin_forward(spec)
        chan_count = feat.pairwise.shape[0]
        if feat.pairwise.min() < -1.0 or feat.pairwise.max() > 1.0:
            bound_ok = False
        mags = np.abs(xc)
        i, j = 0, 3
        mask = (mags[i] > 1e-8) & (mags[j] > 1e-8)
        true_ipd = np.angle(xc[j] * np.conj(xc[i]))
        diff = np.angle(np.exp(1j * (recover_ipd(feat, i, j) - true_ipd)))
        if mask.any():
            ipd_err = max(ipd_err, float(np.abs(diff[mask]).max()))
        total_bins += t_n * f_n
    elapsed = time.monotonic() - t0
    ok = bound_ok and ipd_err <= 1e-9 and chan_count == 64 and elapsed < 10.0
    report(
        2,
        "pairwise interaction features",
        ok,
        f"{total_bins} bins, ipd {ipd_err:.2e}, channels {chan_count}, {elapsed:.1f}s",
    )


def test_criterion_3_band_split():
    t0 = time.monotonic()
    layout = make_band_layout(257, FS)
    k_ok = layout.num_bands == 31

    weights = merge_weights(layout)
    total = np.zeros(257)
    for (lo, hi), w in zip(layout.bands, weights):
        total[lo : hi + 1] += w
    unity_ok = bool(np.all(total == 1.0))

    rng = np.random.default_rng(3)
    recon_err = 0.0
    for _ in range(100):
        x = rng.standard_normal((4, 6, 257))
        back = merge_bands(split_bands(x, layout), layout)
        recon_err = max(recon_err, float(np.abs(back - x).max() / np.abs(x).max()))
    elapsed = time.monotonic() - t0
    ok = k_ok and unity_ok and recon_err <= 1e-12 and elapsed < 5.0
    report(
        3,
        "band split/merge",
        ok,
        f"K={layout.num_bands}, unity bitwise {unity_ok}, recon {recon_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_film_fusion():
    t0 = time.monotonic()
    layout = BandLayout(bands=[(0, 16)], num_bins=17)
    worst = 0.0
    null_ok = True
    static_tv_err = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        c_band = int(rng.integers(2, 8))
        hidden = int(rng.integers(3, 16))
        dim = int(rng.integers(4, 24))
        t_n = int(rng.integers(2, 6))
        w = init_fusion_weights(layout, dim_clue=dim, c_in=8, c_band=c_band, hidden=hidden, seed=seed)
        bw = w.bands[0]
        feat = rng.standard_normal((c_band, t_n, 7))
        upstream = rng.standard_normal(feat.shape)
        clue = rng.standard_normal(dim) if seed % 2 else rng.standard_normal((t_n, dim))
        rel, _ = finite_difference_check(bw, feat, clue, upstream, num_coords=18, rng=rng)
        worst = max(worst, rel)

        vec = rng.standard_normal(dim)
        st = film_fuse(feat, vec, bw)
        tv = film_fuse(feat, np.tile(vec, (t_n, 1)), bw)
        static_tv_err = max(static_tv_err, float(np.abs(st - tv).max()))

        bw.w_gamma[:] = 0.0
        bw.b_gamma[:] = 0.0
        bw.w_beta[:] = 0.0
        bw.b_beta[:] = 0.0
        if not np.array_equal(film_fuse(feat, vec, bw), feat):
            null_ok = False
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and null_ok and static_tv_err <= 1e-12 and elapsed < 30.0
    report(
        4,
        "clue-conditioned modulation",
        ok,
        f"grad {worst:.2e}, null bitwise {null_ok}, static=tv {static_tv_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_stft_round_trip():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    done = 0
    worst = 0.0
    while done < 20:
        p = GaussianWindowParams(rng.uniform(0.2, 0.8), rng.uniform(0.08, 0.9), 256)
        hop = 256 // int(rng.choice([2, 4]))
        x = rng.standard_normal((2, 5000))
        w = MultichannelWaveform(x, FS)
        try:
            back = istft(stft(w, p, 256, hop), p, out_len=5000)
        except WindowEnergyError:
            continue
        worst = max(worst, float(np.abs(back.samples - x).max() / np.abs(x).max()))
        done += 1

    a = rng.standard_normal((2, 4000))
    b = rng.standard_normal((2, 4000))
    p = GaussianWindowParams(0.5, 0.25, 512)
    sa = stft(MultichannelWaveform(a, FS), p, 512, 256).values
    sb = stft(MultichannelWaveform(b, FS), p, 512, 256).values
    sab = stft(MultichannelWaveform(1.5 * a - 0.5 * b, FS), p, 512, 256).values
    lin_err = float(np.abs(sab - (1.5 * sa - 0.5 * sb)).max())
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and lin_err <= 1e-10
    report(
        5,
        "analysis/synthesis round trip",
        ok,
        f"20 draws, worst {worst:.2e}, linearity {lin_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_room_simulation():
    t0 = time.monotonic()
    rng = np.random.default_rng(6)
    offsets = tetrahedral_offsets()
    room = (5.57, 5.20, 3.79)

    # direct-path delay accuracy over 1000 random geometries
    delay_err = 0.0
    checked = 0
    while checked < 1000:
        src = rng.uniform([0.3, 0.3, 0.3], [5.2, 4.9, 3.5])
        center = rng.uniform([0.6, 0.6, 0.6], [4.9, 4.6, 3.2])
        if np.linalg.norm(src - center) < 0.25:
            continue
        spec = SceneSpec(
            room_dims=list(room),
            array_center=center.tolist(),
            array_offsets=offsets,
            sources=[SourceSpec(position=src.tolist(), class_label="c", gain_db=0.0, wav="x.wav")],
            absorption=[1.0] * 6,
        )
        rir = simulate_rir(spec, 0, sample_rate=FS)
        mics = center + offsets
        for m in range(4):
            expected = np.linalg.norm(src - mics[m]) * FS / SPEED_OF_SOUND
            got = int(np.argmax(np.abs(rir.taps[m])))
            delay_err = max(delay_err, abs(got - expected))
            checked += 1

    # RT60 of the reference room within +-20%
    spec = SceneSpec(
        room_dims=list(room),
        array_center=[2.8, 2.6, 1.5],
        array_offsets=offsets,
        sources=[SourceSpec(position=[1.2, 3.8, 1.7], class_label="c", gain_db=0.0, wav="x.wav")],
        rt60_s=0.32,
    )
    rir = simulate_rir(spec, 0, sample_rate=FS)
    measured = schroeder_rt60(rir)
    rt_ok = 0.8 * 0.32 <= measured <= 1.2 * 0.32

    # far-field TDOA of the tetrahedral array: edge projection ~200 us
    tdoa = 0.0
    u = DoAClue.from_degrees(15, -35).unit_vector()
    for i in range(4):
        for j in range(i + 1, 4):
            tdoa = max(tdoa, abs(float((offsets[i] - offsets[j]) @ u)) / SPEED_OF_SOUND)
    # maximize over a direction sweep for the worst pair orientation
    for az in range(0, 360, 15):
        for el in range(-75, 90, 15):
            u = DoAClue.from_degrees(az, el).unit_vector()
            for i in range(4):
                for j in range(i + 1, 4):
                    tdoa = max(tdoa, abs(float((offsets[i] - offsets[j]) @ u)) / SPEED_OF_SOUND)
    tdoa_ok = abs(tdoa - 200e-6) <= 1.0 / FS

    elapsed = time.monotonic() - t0
    ok = delay_err <= 1.0 and rt_ok and tdoa_ok
    report(
        6,
        "shoebox simulator",
        ok,
        f"1000 delays max err {delay_err:.3f} smp, rt60 {measured:.3f}s, "
        f"tdoa {tdoa * 1e6:.1f}us, {elapsed:.1f}s",
    )


def test_criterion_6b_stems_sum(scene_factory):
    # separate case so a stems failure is distinguishable from geometry
    spec = scene_factory(rt60=0.25, absorption=None, seconds=0.25)
    mixture, truth = render_scene(spec)
    sig = read_wav(spec.sources[0].wav).samples[0]
    rir = simulate_rir(spec, 0, sample_rate=FS)
    full = fftconvolve(sig[None, :], rir.taps, axes=1)[:, : mixture.num_samples]
    stems = truth.sources[0].direct.samples + truth.sources[0].reverb.samples
    err = float(np.abs(stems - full).max())
    ok = err <= 1e-9
    report(6, "stems sum to full response", ok, f"max dev {err:.2e}")


def test_criterion_7_metrics():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    ref = rng.standard_normal(4096)
    est = ref + 0.05 * rng.standard_normal(4096)
    scale_err = max(
        abs(si_snr(3.0 * est, ref) - si_snr(est, ref)),
        abs(si_snr(-0.5 * est, ref) - si_snr(est, ref)),
    )
    mix = MultichannelWaveform((ref + rng.standard_normal(4096))[None, :], FS)
    snri_zero = snr_i(mix, MultichannelWaveform(ref[None, :], FS), mix)

    gcc_err = 0.0
    n = 1024
    for _ in range(100):
        lag = int(rng.integers(-32, 33))
        base = rng.standard_normal(n + 64)
        xi = base[32 : 32 + n]
        xj = base[32 - lag : 32 - lag + n]
        w = MultichannelWaveform(np.stack([xi, xj]), FS)
        got = gcc_phat_itd(w, (0, 1), max_lag_s=40.0 / FS)
        brute = (int(np.argmax(correlate(xj, xi, mode="full"))) - (n - 1)) / FS
        gcc_err = max(gcc_err, abs(got - brute) * FS)

    x = MultichannelWaveform(rng.standard_normal((4, 8000)), FS)
    d_ild, d_ipd, d_itd, _ = spatial_errors(x, x)
    self_ok = d_ild == 0.0 and d_ipd == 0.0 and d_itd == 0.0

    elapsed = time.monotonic() - t0
    ok = scale_err <= 1e-9 and snri_zero == 0.0 and gcc_err <= 0.25 and self_ok
    report(
        7,
        "evaluation metrics",
        ok,
        f"scale {scale_err:.2e}, snri0 {snri_zero}, gcc {gcc_err:.3f} smp, "
        f"self ({d_ild},{d_ipd},{d_itd}), {elapsed:.1f}s",
    )


def test_criterion_8_steering_contour(tmp_path):
    t0 = time.monotonic()
    rng = np.random.default_rng(8)
    offsets = tetrahedral_offsets()
    room = (5.57, 5.20, 3.79)
    center = np.array([2.8, 2.6, 1.5])
    grid = [(da, de) for da in (-15, -10, -5, 0, 5, 10, 15) for de in (-15, -10, -5, 0, 5, 10, 15)]
    sums = {g: 0.0 for g in grid}
    scenes_used = 0
    attempt = 0
    while scenes_used < 20:
        attempt += 1
        # target and a single interferer, both >= 1 m away, >= 60 deg apart
        az_t = rng.uniform(0, 360)
        az_i = az_t + rng.uniform(60, 300)
        el_t = rng.uniform(-20, 20)
        r_t, r_i = rng.uniform(1.0, 1.8, 2)
        pos_t = center + r_t * DoAClue.from_degrees(az_t, el_t).unit_vector()
        pos_i = center + r_i * DoAClue.from_degrees(az_i, 0.0).unit_vector()
        if not all(0.2 < p < d - 0.2 for p, d in zip(pos_t, room)) or not all(
            0.2 < p < d - 0.2 for p, d in zip(pos_i, room)
        ):
            continue
        wav_t = tmp_path / f"t{attempt}.wav"
        wav_i = tmp_path / f"i{attempt}.wav"
        make_noise_wav(wav_t, seconds=0.3, seed=1000 + attempt)
        make_noise_wav(wav_i, seconds=0.3, seed=2000 + attempt)
        spec = SceneSpec(
            room_dims=list(room),
            array_center=center.tolist(),
            array_offsets=offsets,
            sources=[
                SourceSpec(position=pos_t.tolist(), class_label="t", gain_db=0.0, wav=str(wav_t)),
                SourceSpec(position=pos_i.tolist(), class_label="i", gain_db=0.0, wav=str(wav_i)),
            ],
            absorption=[1.0] * 6,
        )
        mixture, truth = render_scene(spec)
        ref = MultichannelWaveform(
            truth.sources[0].direct.samples + truth.sources[0].reverb.samples, FS
        )
        doa = truth.sources[0].doa
        az0, el0 = doa.to_degrees()
        for da, de in grid:
            clue = DoAClue.from_degrees(az0 + da, min(max(el0 + de, -90.0), 90.0))
            est = delay_and_sum(mixture, clue, offsets)
            sums[(da, de)] += si_snr_i(est, ref, mixture)
        scenes_used += 1

    mean_grid = {g: v / scenes_used for g, v in sums.items()}
    peak_ok = max(mean_grid, key=mean_grid.get) == (0, 0)

    rings = {}
    for (da, de), v in mean_grid.items():
        r = math.hypot(da, de)
        if r > 15.0 + 1e-9:
            continue
        bin_id = 0 if r == 0 else int(math.ceil(r / 5.0))  # 0, (0,5], (5,10], (10,15]
        rings.setdefault(bin_id, []).append(v)
    ring_means = [float(np.mean(rings[b])) for b in sorted(rings)]
    monotone_ok = all(ring_means[i] > ring_means[i + 1] for i in range(len(ring_means) - 1))

    elapsed = time.monotonic() - t0
    ok = peak_ok and monotone_ok and elapsed < 300.0
    report(
        8,
        "steering-offset contour",
        ok,
        f"{scenes_used} scenes, peak@0 {peak_ok}, rings "
        + ">".join(f"{v:.2f}" for v in ring_means)
        + f", {elapsed:.0f}s",
    )


def test_criterion_9_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("SOUNDCOMPASS_SEED", "1234")
    wav = tmp_path / "src.wav"
    make_noise_wav(wav, seconds=0.3, seed=55)
    scene = {
        "room_dims": [5.57, 5.20, 3.79],
        "array_center": [2.8, 2.6, 1.5],
        "array": "tetrahedral_4ch_r0.042",
        "sources": [
            {"position": [4.3, 2.6, 1.5], "class": "speech", "gain_db": 0.0, "wav": wav.name}
        ],
        "absorption": [1.0] * 6,
    }
    manifest = tmp_path / "scenes.jsonl"
    manifest.write_text(json.dumps(scene) + "\n", encoding="utf-8")

    outputs = []
    for run in ("r1", "r2"):
        root = tmp_path / run
        root.mkdir()
        assert main(["simulate", "--manifest", str(manifest), "--out", str(root / "scenes")]) == 0
        scene_dir = root / "scenes" / "scene_0"
        assert main(["featurize", "--wav", str(scene_dir / "mixture.wav"), "--out", str(root / "feat")]) == 0
        truth = json.loads((scene_dir / "truth.json").read_text())
        az = math.degrees(truth["sources"][0]["azimuth"])
        el = 90.0 - math.degrees(truth["sources"][0]["polar"])
        clue_path = root / "clue.json"
        assert main(["clue", "--az", str(az), "--el", str(el), "--out", str(clue_path)]) == 0
        est = root / "est.wav"
        assert main(["extract", "--scene", str(scene_dir), "--az", str(az), "--el", str(el), "--out", str(est)]) == 0
        csv_path = root / "report.csv"
        assert (
            main(["evaluate", "--est", str(est), "--scene", str(scene_dir), "--source", "0", "--out", str(csv_path)])
            == 0
        )
        outputs.append(
            (
                (scene_dir / "mixture.wav").read_bytes(),
                (root / "feat" / "spin.npz").read_bytes(),
                clue_path.read_bytes(),
                est.read_bytes(),
                csv_path.read_bytes(),
            )
        )

    names = ("mixture.wav", "spin.npz", "clue.json", "est.wav", "report.csv")
    mismatched = [n for n, a, b in zip(names, outputs[0], outputs[1]) if a != b]
    rows = list(csv.reader((tmp_path / "r1" / "report.csv").read_text().splitlines()))
    ok = not mismatched and rows[0][0] == "scene_id" and len(rows) == 3
    report(9, "pipeline determinism", ok, f"mismatched: {mismatched or 'none'}")
