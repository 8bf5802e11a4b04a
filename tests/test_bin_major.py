"""The band path runs bin-major: spin_forward stores its products as [F, P, T],
so every split_bands band is one contiguous block. The time-major
implementations it replaced are kept here as references."""

import tracemalloc

import numpy as np
import pytest

from soundcompass.audio_io import MultichannelWaveform, read_wav, write_wav
from soundcompass.cli import main
from soundcompass.fusion import (
    ADANORM_EPS,
    encode_band_feature,
    film_fuse,
    film_gradients,
    fuse_all_bands,
    init_fusion_weights,
)
from soundcompass.roomsim import render_scene
from soundcompass.scenes import SceneSpec, SourceSpec, tetrahedral_offsets
from soundcompass.spectral import (
    FFT_SIZE,
    HOP,
    WINDOW,
    BandLayout,
    make_band_layout,
    merge_bands,
    merge_weights,
    split_bands,
    stft,
)
from soundcompass.spin import SpinFeature, normalize_planes, spin_forward

from conftest import make_noise_wav

BOUND = 1e-12  # relative to the reference's largest magnitude; set before measuring


def time_major_spin_forward(spec):
    x = spec.values
    unit = normalize_planes(np.concatenate([x.real, x.imag]))
    m2 = unit.shape[0]
    pairwise = (unit[:, None] * unit[None, :]).reshape(m2 * m2, *unit.shape[1:])
    return SpinFeature(pairwise=pairwise, num_channels=spec.num_channels)


def reference_log_mag(spec):
    """[2M, T, F] in float64; featurize casts one half to float32 and stacks it twice, which must give the same bytes."""
    log_mag_half = np.log(np.maximum(np.abs(spec.values), 1e-7))
    return np.concatenate([log_mag_half, log_mag_half], axis=0)


def time_major_encode_band_feature(band, w):
    band = np.ascontiguousarray(band, dtype=np.float64)
    a = w.w @ band.reshape(band.shape[0], -1)
    a += w.b[:, None]
    a -= a.mean(axis=0)
    s = np.einsum("ij,ij->j", a, a)
    s /= a.shape[0]
    s += ADANORM_EPS
    np.sqrt(s, out=s)
    a /= s
    z = a * -w.k_ada
    z += 1.0
    z *= a
    z *= w.gain[:, None]
    z += w.bias[:, None]
    np.multiply(z, w.prelu_slope, out=z, where=z < 0.0)
    return z.reshape((w.dim_out,) + band.shape[1:])


def time_major_merge_bands(bands, layout):
    out = np.zeros(bands[0].shape[:-1] + (layout.num_bins,))
    for (lo, hi), w, b in zip(layout.bands, merge_weights(layout), bands):
        out[..., lo : hi + 1] += w * b
    return out


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= BOUND * np.abs(want).max()


@pytest.fixture(scope="module")
def mixture(tmp_path_factory):
    """A rendered 4 s, two-source, RT60 0.32 s mixture from the tetrahedral array."""
    d = tmp_path_factory.mktemp("bin_major")
    sources = []
    for j, pos in enumerate(((1.2, 3.8, 1.7), (4.1, 1.3, 1.2))):
        make_noise_wav(d / f"s{j}.wav", seconds=4.0, seed=11 + j)
        sources.append(SourceSpec(position=list(pos), class_label=f"c{j}", gain_db=0.0, wav=str(d / f"s{j}.wav")))
    spec = SceneSpec(
        room_dims=[5.57, 5.20, 3.79],
        array_center=[2.8, 2.6, 1.5],
        array_offsets=tetrahedral_offsets(),
        sources=sources,
        rt60_s=0.32,
    )
    mix, _ = render_scene(spec)
    write_wav(mix, d / "mixture.wav")
    return mix, d / "mixture.wav"


@pytest.fixture(scope="module")
def case(mixture):
    spec = stft(mixture[0], WINDOW, FFT_SIZE, HOP)
    layout = make_band_layout(spec.values.shape[2], spec.sample_rate, fft_size=FFT_SIZE)
    weights = init_fusion_weights(layout, dim_clue=72, c_in=64, c_band=16, hidden=64, seed=5)
    return spec, layout, weights


def test_spin_forward_is_bin_major_view_of_time_major_values(case):
    spec, layout, _ = case
    feat, ref = spin_forward(spec), time_major_spin_forward(spec)
    np.testing.assert_array_equal(feat.pairwise, ref.pairwise)
    assert np.moveaxis(feat.pairwise, -1, 0).flags.c_contiguous  # [F, P, T] storage
    for band in split_bands(feat.pairwise, layout):
        assert np.moveaxis(band, -1, 0).flags.c_contiguous


def test_fused_bands_and_gradients_match_time_major_reference(case):
    spec, layout, weights = case
    feat, ref = spin_forward(spec), time_major_spin_forward(spec)
    rng = np.random.default_rng(3)
    clue = rng.standard_normal((spec.num_frames, 72))
    fused = fuse_all_bands(feat, layout, clue, weights)
    bands, ref_bands = split_bands(feat.pairwise, layout), split_bands(ref.pairwise, layout)
    for band, ref_band, bw, got in zip(bands, ref_bands, weights.bands, fused.bands):
        ref_enc = time_major_encode_band_feature(ref_band, bw.feat)
        assert_close(got, film_fuse(ref_enc, clue, bw))
        upstream = rng.standard_normal(ref_enc.shape)
        grads = film_gradients(encode_band_feature(band, bw.feat), clue, bw, upstream)
        want = film_gradients(ref_enc, clue, bw, upstream)
        assert sorted(grads) == sorted(want)
        for name in want:
            assert_close(grads[name], want[name])


def assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))  # tells -0.0 from +0.0


def test_merge_bands_equals_time_major_reference_bitwise(case):
    spec, layout, weights = case
    feat, ref = spin_forward(spec), time_major_spin_forward(spec)
    merged = merge_bands(split_bands(feat.pairwise, layout), layout)
    assert_same_bits(merged, time_major_merge_bands(split_bands(ref.pairwise, layout), layout))
    assert np.moveaxis(merged, -1, 0).flags.c_contiguous  # a [C, T, F] view of [F, C, T]
    # C-contiguous bands, as film_fuse or a caller's own arrays may give
    fused = [np.ascontiguousarray(b[:16]) for b in split_bands(ref.pairwise, layout)]
    assert_same_bits(merge_bands(fused, layout), time_major_merge_bands(fused, layout))
    # a band nested in an earlier one, and negative zeros in every band
    nested = BandLayout([(0, 4), (1, 2), (3, 6), (5, 8)], num_bins=9)
    parts = [np.where(np.arange(hi - lo + 1) % 2, -0.0, 1.5) * np.ones((2, 3, 1)) for lo, hi in nested.bands]
    assert_same_bits(merge_bands(parts, nested), time_major_merge_bands(parts, nested))


def test_encode_band_feature_same_on_any_layout(case):
    spec, layout, weights = case
    feat = spin_forward(spec)
    for k in (0, 15, layout.num_bands - 1):
        view = split_bands(feat.pairwise, layout)[k]
        contiguous = np.ascontiguousarray(view)
        want = time_major_encode_band_feature(contiguous, weights.bands[k].feat)
        assert_close(encode_band_feature(view, weights.bands[k].feat), want)
        assert_close(encode_band_feature(contiguous, weights.bands[k].feat), want)


def test_encode_band_feature_reads_bin_major_band_in_place():
    # a copy of the input alone would reach band.nbytes; the output and the
    # norm's temporaries take about a quarter each (C_k = 16 of P = 64 rows)
    noise = np.random.default_rng(2).standard_normal((4, 64000))
    spec = stft(MultichannelWaveform(noise, 16000), WINDOW, FFT_SIZE, HOP)
    layout = make_band_layout(spec.values.shape[2], spec.sample_rate, fft_size=FFT_SIZE)
    band = split_bands(spin_forward(spec).pairwise, layout)[-1]  # the widest band
    w = init_fusion_weights(layout, dim_clue=6, c_in=64, c_band=16, hidden=4, seed=0).bands[-1].feat
    tracemalloc.start()
    try:
        out = encode_band_feature(band, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (16,) + band.shape[1:]
    assert peak < band.nbytes, (peak, band.nbytes)


def test_featurize_writes_time_major_reference_bytes(mixture, tmp_path):
    _, wav = mixture
    out = tmp_path / "feat"
    assert main(["featurize", "--wav", str(wav), "--out", str(out)]) == 0
    spec = stft(read_wav(wav), WINDOW, FFT_SIZE, HOP)
    ref = time_major_spin_forward(spec)
    np.savez(
        tmp_path / "ref.npz",
        pairwise=ref.pairwise.astype(np.float32),
        log_mag=reference_log_mag(spec).astype(np.float32),
        num_channels=np.int64(ref.num_channels),
        frame_hop=np.int64(HOP),
        fft_size=np.int64(FFT_SIZE),
        sample_rate=np.int64(16000),
    )
    assert (out / "spin.npz").read_bytes() == (tmp_path / "ref.npz").read_bytes()
