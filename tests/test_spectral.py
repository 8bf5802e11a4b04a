import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundcompass.audio_io import MultichannelWaveform
from soundcompass.spectral import (
    BandLayout,
    ComplexSpectrogram,
    GaussianWindowParams,
    WindowEnergyError,
    frame_count,
    istft,
    make_band_layout,
    make_gaussian_window,
    merge_bands,
    merge_weights,
    split_bands,
    stft,
    synthesis_window_energy,
)

from conftest import UNREADABLE_JSON, complex_normal, mutated_json


# ---------------------------------------------------------------------------
# Gaussian window


def test_window_symmetry():
    w = make_gaussian_window(GaussianWindowParams(0.5, 0.2, 5))
    assert w[2] == pytest.approx(1.0)
    assert w[0] == pytest.approx(w[4])
    assert w[1] == pytest.approx(w[3])


def test_window_flat_limit():
    w = make_gaussian_window(GaussianWindowParams(0.5, 1e6, 64))
    assert np.all(np.abs(w - 1.0) < 1e-9)


def test_window_offcenter_peak():
    w = make_gaussian_window(GaussianWindowParams(0.25, 0.1, 64))
    assert int(np.argmax(w)) == 16
    # closed form at the peak index: exp(-((16/63 - 0.25)^2)/(2*0.01))
    assert w[16] == pytest.approx(math.exp(-((16 / 63 - 0.25) ** 2) / 0.02))


def test_window_strictly_positive_peak_at_most_one():
    for mean, std in [(0.5, 0.3), (0.0, 0.1), (1.2, 0.4)]:
        w = make_gaussian_window(GaussianWindowParams(mean, std, 128))
        assert np.all(w > 0)
        assert w.max() <= 1.0


def test_window_param_validation():
    with pytest.raises(ValueError):
        GaussianWindowParams(0.5, 0.0, 64)
    with pytest.raises(ValueError):
        GaussianWindowParams(0.5, 0.2, 1)


# ---------------------------------------------------------------------------
# STFT / iSTFT


DEFAULT_P = GaussianWindowParams(0.5, 0.25, 512)


def test_stft_reference_shape(rng):
    # 4 channels, 4 s at 16 kHz, fft 512, hop 256: T = (64000-512)//256 + 2
    x = MultichannelWaveform(rng.standard_normal((4, 64000)), 16000)
    spec = stft(x, DEFAULT_P, 512, 256)
    assert spec.values.shape == (4, 250, 257)
    assert spec.values.dtype == np.complex128
    assert spec.num_channels == 4
    assert spec.num_frames == frame_count(64000, 512, 256) == 250
    assert spec.values.shape[2] == 257


def test_stft_short_signal_single_frame(rng):
    x = MultichannelWaveform(rng.standard_normal((1, 300)), 16000)
    spec = stft(x, DEFAULT_P, 512, 256)
    assert spec.num_frames == 1


def test_stft_zero_signal():
    x = MultichannelWaveform(np.zeros((2, 5000)), 16000)
    spec = stft(x, DEFAULT_P, 512, 256)
    assert np.all(spec.values == 0.0)


def test_stft_linearity(rng):
    a = rng.standard_normal((2, 4000))
    b = rng.standard_normal((2, 4000))
    sa = stft(MultichannelWaveform(a, 16000), DEFAULT_P, 512, 256).values
    sb = stft(MultichannelWaveform(b, 16000), DEFAULT_P, 512, 256).values
    sab = stft(MultichannelWaveform(2.0 * a - 3.0 * b, 16000), DEFAULT_P, 512, 256).values
    np.testing.assert_allclose(sab, 2.0 * sa - 3.0 * sb, atol=1e-10)


def test_stft_bin_centered_cosine_concentrates():
    # rectangular-limit window, frequency exactly on bin 20
    fs, n = 16000, 512
    p = GaussianWindowParams(0.5, 1e6, n)
    t = np.arange(n * 4) / fs
    x = MultichannelWaveform(np.cos(2 * np.pi * (20 * fs / n) * t)[None, :], fs)
    spec = stft(x, p, n, n)  # hop = fft: no overlap, full frames only
    frame = np.abs(spec.values[0, 1])  # interior frame
    energy = frame**2
    assert energy[20] / energy.sum() >= 0.99


def test_stft_parseval_per_frame(rng):
    x = rng.standard_normal((1, 3000))
    p = GaussianWindowParams(0.5, 0.3, 512)
    spec = stft(MultichannelWaveform(x, 16000), p, 512, 256)
    window = make_gaussian_window(p)
    padded = np.zeros((spec.num_frames - 1) * 256 + 512)
    padded[:3000] = x[0]
    xc = spec.values[0]
    for t in range(spec.num_frames):
        seg = padded[t * 256 : t * 256 + 512] * window
        spec_energy = (np.abs(xc[t, 0]) ** 2 + np.abs(xc[t, -1]) ** 2 + 2 * (np.abs(xc[t, 1:-1]) ** 2).sum()) / 512
        assert spec_energy == pytest.approx((seg**2).sum(), rel=1e-6, abs=1e-12)


def test_istft_round_trip_reference(rng):
    x = rng.standard_normal((4, 10000))
    p = GaussianWindowParams(0.5, 0.3, 512)
    w = MultichannelWaveform(x, 16000)
    back = istft(stft(w, p, 512, 128), p, out_len=10000)
    assert np.abs(back.samples - x).max() <= 1e-6 * np.abs(x).max()


def test_istft_round_trip_random_windows(rng):
    # 20 random parameter draws that pass the energy check
    done = 0
    while done < 20:
        mean = rng.uniform(0.2, 0.8)
        std = rng.uniform(0.1, 0.8)
        hop_div = int(rng.choice([2, 4]))
        p = GaussianWindowParams(mean, std, 256)
        hop = 256 // hop_div
        x = rng.standard_normal((2, 4000))
        w = MultichannelWaveform(x, 16000)
        try:
            back = istft(stft(w, p, 256, hop), p, out_len=4000)
        except WindowEnergyError:
            continue
        rel = np.abs(back.samples - x).max() / np.abs(x).max()
        assert rel <= 1e-6, f"mean={mean} std={std} hop={hop}: rel={rel}"
        done += 1


def test_istft_zero_round_trip():
    w = MultichannelWaveform(np.zeros((1, 2000)), 16000)
    p = GaussianWindowParams(0.5, 0.3, 512)
    back = istft(stft(w, p, 512, 256), p, out_len=2000)
    assert np.all(back.samples == 0.0)


def test_istft_energy_underflow_reported():
    w = MultichannelWaveform(np.ones((1, 4000)), 16000)
    p = GaussianWindowParams(0.5, 0.01, 512)
    spec = stft(w, p, 512, 256)
    with pytest.raises(WindowEnergyError):
        istft(spec, p)


def test_istft_rejects_overlong_out_len(rng):
    w = MultichannelWaveform(rng.standard_normal((1, 1000)), 16000)
    spec = stft(w, DEFAULT_P, 512, 256)
    with pytest.raises(ValueError):
        istft(spec, DEFAULT_P, out_len=10**6)


def test_synthesis_window_energy_matches_bruteforce():
    p = GaussianWindowParams(0.4, 0.2, 64)
    w = make_gaussian_window(p)
    energy = synthesis_window_energy(p, 16, 5)
    brute = np.zeros(4 * 16 + 64)
    for t in range(5):
        brute[t * 16 : t * 16 + 64] += w**2
    np.testing.assert_allclose(energy, brute, atol=1e-15)


def test_stft_validates_args(rng):
    w = MultichannelWaveform(rng.standard_normal((1, 100)), 16000)
    with pytest.raises(ValueError):
        stft(w, DEFAULT_P, 512, 0)
    with pytest.raises(ValueError):
        stft(w, DEFAULT_P, 512, 1024)
    with pytest.raises(ValueError):
        stft(w, GaussianWindowParams(0.5, 0.25, 256), 512, 256)
    with pytest.raises(ValueError):
        stft(MultichannelWaveform(np.zeros((1, 0)), 16000), DEFAULT_P, 512, 256)


def slice_stacking_stft(w, p, fft_size, hop):
    """The framing stft replaced: one slice per frame, stacked."""
    x = w.samples
    t_frames = frame_count(x.shape[1], fft_size, hop)
    padded = np.zeros((x.shape[0], (t_frames - 1) * hop + fft_size))
    padded[:, : x.shape[1]] = x
    frames = np.stack([padded[:, s : s + fft_size] for s in np.arange(t_frames) * hop], axis=1)
    spec = np.fft.rfft(frames * make_gaussian_window(p), axis=2)
    return ComplexSpectrogram(spec, hop, fft_size, w.sample_rate)


@pytest.mark.parametrize(
    "channels, samples, fft_size, hop",
    [(1, 100, 64, 16), (2, 64, 64, 16), (4, 8000, 512, 256), (3, 1001, 64, 64), (2, 300, 32, 1)],
    ids=["one-frame", "exactly-one-window", "bench-framing", "hop-equals-fft", "hop-one"],
)
def test_stft_equals_slice_stacking_bitwise(rng, channels, samples, fft_size, hop):
    w = MultichannelWaveform(rng.standard_normal((channels, samples)), 16000)
    p = GaussianWindowParams(mean=0.45, std=0.2, length=fft_size)
    got = stft(w, p, fft_size, hop)
    want = slice_stacking_stft(w, p, fft_size, hop)
    assert got.values.shape == want.values.shape
    assert np.array_equal(got.values, want.values)


def loop_synthesis_window_energy(p, hop, num_frames):
    """The per-frame loop synthesis_window_energy replaced."""
    window = make_gaussian_window(p)
    energy = np.zeros((num_frames - 1) * hop + p.length)
    w2 = window**2
    for t in range(num_frames):
        energy[t * hop : t * hop + p.length] += w2
    return energy


def loop_istft(spec, p, out_len):
    """The per-frame overlap-add loop istft replaced (energy floor check left out)."""
    hop, fft_size = spec.frame_hop, spec.fft_size
    t_frames = spec.num_frames
    energy = loop_synthesis_window_energy(p, hop, t_frames)
    window = make_gaussian_window(p)
    frames = np.fft.irfft(spec.values, n=fft_size, axis=2)
    acc = np.zeros((spec.num_channels, (t_frames - 1) * hop + fft_size))
    for t in range(t_frames):
        acc[:, t * hop : t * hop + fft_size] += frames[:, t, :] * window
    return acc[:, :out_len] / energy[:out_len]


FRAMING_CASES = [
    (4, 8000, 512, 256),
    (3, 1001, 64, 24),
    (2, 500, 100, 37),
    (2, 700, 64, 48),
    (3, 1001, 64, 64),
    (2, 40, 64, 16),
    (2, 300, 32, 1),
]
FRAMING_IDS = ["bench", "hop-not-dividing", "three-phases", "hop-over-half", "hop-equals-fft", "shorter-than-frame", "hop-one"]


@pytest.mark.parametrize("channels, samples, fft_size, hop", FRAMING_CASES, ids=FRAMING_IDS)
def test_overlap_add_equals_per_frame_loops_bitwise(rng, channels, samples, fft_size, hop):
    p = GaussianWindowParams(mean=0.45, std=0.2, length=fft_size)
    t_frames = frame_count(samples, fft_size, hop)
    got = synthesis_window_energy(p, hop, t_frames)
    want = loop_synthesis_window_energy(p, hop, t_frames)
    assert got.shape == want.shape
    assert np.array_equal(got, want)

    spec = ComplexSpectrogram(complex_normal(rng, (channels, t_frames, fft_size // 2 + 1)), hop, fft_size, 16000)
    for out_len in (samples, (t_frames - 1) * hop + fft_size):
        got = istft(spec, p, out_len=out_len).samples
        want = loop_istft(spec, p, out_len)
        assert got.shape == want.shape == (channels, out_len)
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Band layout


def test_band_layout_defaults_k31():
    layout = make_band_layout(257, 16000)
    assert layout.num_bands == 31
    # full coverage
    covered = np.zeros(257, dtype=bool)
    for lo, hi in layout.bands:
        covered[lo : hi + 1] = True
    assert covered.all()
    # adjacent overlap
    for k in range(layout.num_bands - 1):
        assert layout.bands[k + 1][0] <= layout.bands[k][1]
    # widths non-decreasing, narrow low wide high
    widths = [hi - lo + 1 for lo, hi in layout.bands]
    assert all(widths[i] <= widths[i + 1] for i in range(len(widths) - 1))
    assert widths[0] <= widths[-1]
    assert layout.bands[0][0] == 0
    assert layout.bands[-1][1] == 256


def test_band_layout_param_errors():
    with pytest.raises(ValueError):
        make_band_layout(257, 16000, f_min=-5.0)
    with pytest.raises(ValueError):
        make_band_layout(257, 16000, f_min=9000.0)  # above Nyquist
    with pytest.raises(ValueError):
        make_band_layout(257, 16000, step_semitones=1.0, overlap_semitones=2.0)
    # f_min just under Nyquist still yields the minimum two bands
    tight = make_band_layout(9, 16000, f_min=7000.0)
    assert tight.num_bands == 2


def test_band_layout_type_validation():
    with pytest.raises(ValueError):
        BandLayout(bands=[(0, 5), (8, 16)], num_bins=17)  # bin 6,7 uncovered
    with pytest.raises(ValueError):
        BandLayout(bands=[(5, 2)], num_bins=10)
    with pytest.raises(ValueError):
        BandLayout(bands=[(0, 20)], num_bins=10)
    with pytest.raises(ValueError):
        BandLayout(bands=[], num_bins=10)
    with pytest.raises(ValueError, match="fft_size 64 gives 33 bins"):
        BandLayout(bands=[(0, 16)], num_bins=17, fft_size=64)


def test_band_layout_json_round_trip(tmp_path):
    layout = make_band_layout(257, 16000)
    path = tmp_path / "bands.json"
    layout.to_json(path)
    loaded = BandLayout.load(path)
    assert loaded.bands == layout.bands
    assert loaded.sample_rate == 16000
    assert loaded.fft_size == 512
    d = json.loads(path.read_text())
    assert set(d) == {"fs", "fft_size", "bands"}


def test_band_layout_json_text_round_trip():
    # the default layout's text is longer than a file name may be
    for layout in (make_band_layout(257, 16000), BandLayout(bands=[(0, 8)], num_bins=9)):
        assert BandLayout.from_json(layout.to_json()) == layout


BAD_LAYOUTS = {**UNREADABLE_JSON, "wrong_type": b"[]", "missing_key": b'{"fs": 16000, "bands": [[0, 8]]}'}


@pytest.mark.parametrize("bad", sorted(BAD_LAYOUTS))
def test_band_layout_bad_document_named(tmp_path, bad):
    path = tmp_path / "bands.json"
    path.write_bytes(BAD_LAYOUTS[bad])
    with pytest.raises(ValueError, match=r"^\S*bands\.json: "):
        BandLayout.load(path)
    with pytest.raises(ValueError, match="^band layout JSON: "):
        BandLayout.from_json(BAD_LAYOUTS[bad])


@settings(max_examples=200, deadline=None)
@given(blob=mutated_json({"fs": 16000, "fft_size": 16, "bands": [[0, 4], [3, 8]]}))
def test_band_layout_load_fuzz_raises_only_value_error(tmp_path_factory, blob):
    """A mutated layout file either loads or raises ValueError."""
    path = tmp_path_factory.mktemp("fuzz") / "bands.json"
    path.write_bytes(blob)
    try:
        layout = BandLayout.load(path)
    except ValueError:
        return
    assert isinstance(layout, BandLayout)


@settings(max_examples=30, deadline=None)
@given(
    f_min=st.floats(20.0, 400.0),
    step=st.floats(1.5, 6.0),
    overlap=st.floats(0.0, 1.4),
    fs=st.sampled_from([8000, 16000, 48000]),
)
def test_band_layout_invariants_property(f_min, step, overlap, fs):
    if overlap >= step:
        overlap = step / 2
    layout = make_band_layout(257, fs, f_min=f_min, step_semitones=step, overlap_semitones=overlap)
    covered = np.zeros(257, dtype=bool)
    for lo, hi in layout.bands:
        covered[lo : hi + 1] = True
    assert covered.all()
    widths = [hi - lo + 1 for lo, hi in layout.bands]
    assert all(widths[i] <= widths[i + 1] for i in range(len(widths) - 1))
    for k in range(layout.num_bands - 1):
        assert layout.bands[k + 1][0] <= layout.bands[k][1]


# ---------------------------------------------------------------------------
# split / merge


def test_split_shapes(rng):
    layout = make_band_layout(257, 16000)
    x = rng.standard_normal((3, 7, 257))
    parts = split_bands(x, layout)
    assert len(parts) == 31
    for (lo, hi), p in zip(layout.bands, parts):
        assert p.shape == (3, 7, hi - lo + 1)
        np.testing.assert_array_equal(p, x[..., lo : hi + 1])


def test_split_bands_are_views(rng):
    layout = make_band_layout(257, 16000)
    x = rng.standard_normal((2, 3, 257))
    parts = split_bands(x, layout)
    assert all(np.shares_memory(p, x) for p in parts)
    hi = layout.bands[4][1]  # band 5 overlaps band 4's last bin
    parts[4][0, 0, -1] = 5.0
    assert x[0, 0, hi] == 5.0 and parts[5][0, 0, hi - layout.bands[5][0]] == 5.0


def test_split_single_band_identity(rng):
    layout = BandLayout(bands=[(0, 16)], num_bins=17)
    x = rng.standard_normal((2, 3, 17))
    parts = split_bands(x, layout)
    np.testing.assert_array_equal(parts[0], x)
    np.testing.assert_array_equal(merge_bands(parts, layout), x)


def test_band_layout_fs_must_be_positive_integer():
    for fs in ("16000", 0, -8000, 8000.0, False):
        with pytest.raises(ValueError, match="fs must be a positive integer"):
            BandLayout(bands=[(0, 16)], num_bins=17, sample_rate=fs)
    layout = BandLayout(bands=[(0, 16)], num_bins=17, sample_rate=np.int64(8000))
    assert type(layout.sample_rate) is int  # so to_json can write it
    assert json.loads(layout.to_json())["fs"] == 8000


def per_bin_merge_weights(layout):
    """The merge_weights replaced: a Python loop over bins and their bands."""
    bands = layout.bands
    profiles = []
    for k, (lo, hi) in enumerate(bands):
        width = hi - lo + 1
        prof = np.ones(width)
        n_prev = (bands[k - 1][1] - lo + 1) if k > 0 else 0
        n_next = (hi - bands[k + 1][0] + 1) if k + 1 < len(bands) else 0
        if n_prev > 0:
            ramp_up = np.arange(1, min(n_prev, width) + 1) / (n_prev + 1)
            prof[: len(ramp_up)] = np.minimum(prof[: len(ramp_up)], ramp_up)
        if n_next > 0:
            ramp_dn = np.arange(min(n_next, width), 0, -1) / (n_next + 1)
            prof[width - len(ramp_dn) :] = np.minimum(prof[width - len(ramp_dn) :], ramp_dn)
        profiles.append(prof)
    weights = [np.zeros(hi - lo + 1) for lo, hi in bands]
    for f in range(layout.num_bins):
        cover = [k for k in range(len(bands)) if bands[k][0] <= f <= bands[k][1]]
        vals = [profiles[k][f - bands[k][0]] for k in cover]
        total = sum(vals)
        acc = 0.0
        for i, k in enumerate(cover):
            if i == len(cover) - 1:
                w = 1.0 - acc
            else:
                w = vals[i] / total
                acc += w
            weights[k][f - bands[k][0]] = w
    return weights


@pytest.mark.parametrize(
    "layout",
    [
        make_band_layout(257, 16000),
        make_band_layout(257, 48000, f_min=30.0, step_semitones=2.0, overlap_semitones=1.5),
        make_band_layout(33, 2000, f_min=80.0),
        BandLayout(bands=[(0, 16)], num_bins=17),
        BandLayout(bands=[(0, 4), (5, 11), (12, 16)], num_bins=17),
        BandLayout(bands=[(0, 10), (2, 12), (4, 16)], num_bins=17),  # three bands share bins
        BandLayout(bands=[(0, 9), (3, 5), (5, 14)], num_bins=15),  # a band inside another
    ],
    ids=["default", "fine-48k", "fuse-check", "single", "no-overlap", "triple", "nested"],
)
def test_merge_weights_equal_per_bin_loop_bitwise(layout):
    got, want = merge_weights(layout), per_bin_merge_weights(layout)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_partition_of_unity_exact():
    layout = make_band_layout(257, 16000)
    weights = merge_weights(layout)
    total = np.zeros(257)
    for (lo, hi), w in zip(layout.bands, weights):
        assert np.all(w >= 0)
        total[lo : hi + 1] += w
    assert np.all(total == 1.0)  # bitwise, by construction


def test_split_merge_reconstruction(rng):
    layout = make_band_layout(257, 16000)
    for _ in range(20):
        x = rng.standard_normal((4, 5, 257))
        back = merge_bands(split_bands(x, layout), layout)
        assert np.abs(back - x).max() <= 1e-12 * max(1.0, np.abs(x).max())


def test_merge_nonoverlapping_is_concatenation(rng):
    layout = BandLayout(bands=[(0, 4), (5, 11), (12, 16)], num_bins=17)
    x = rng.standard_normal((2, 3, 17))
    back = merge_bands(split_bands(x, layout), layout)
    np.testing.assert_array_equal(back, x)  # weights all exactly 1


def test_merge_two_band_triangular_ramp():
    # 50% overlap: band0 [0,9], band1 [5,14]; overlap bins 5..9 (n = 5)
    layout = BandLayout(bands=[(0, 9), (5, 14)], num_bins=15)
    ones = np.ones((1, 1, 10))
    zeros = np.zeros((1, 1, 10))
    merged = merge_bands([ones, zeros], layout)[0, 0]
    np.testing.assert_array_equal(merged[:5], 1.0)
    np.testing.assert_array_equal(merged[10:], 0.0)
    # ramp down by (n - i)/(n + 1) across the overlap
    expected = np.array([5, 4, 3, 2, 1]) / 6.0
    np.testing.assert_allclose(merged[5:10], expected, atol=1e-15)


def test_merge_shape_errors(rng):
    layout = make_band_layout(257, 16000)
    parts = split_bands(rng.standard_normal((1, 2, 257)), layout)
    with pytest.raises(ValueError):
        merge_bands(parts[:-1], layout)
    parts[3] = parts[3][..., :-1]
    with pytest.raises(ValueError):
        merge_bands(parts, layout)


def test_split_rejects_wrong_bins(rng):
    layout = make_band_layout(257, 16000)
    with pytest.raises(ValueError):
        split_bands(rng.standard_normal((1, 2, 200)), layout)


# ---------------------------------------------------------------------------
# ComplexSpectrogram type


def test_spectrogram_validation(rng):
    with pytest.raises(ValueError, match=r"\[M, T, F\]"):
        ComplexSpectrogram(complex_normal(rng, (4, 257)), 256, 512, 16000)
    with pytest.raises(ValueError, match="inconsistent"):
        ComplexSpectrogram(complex_normal(rng, (2, 4, 100)), 256, 512, 16000)  # F mismatch
