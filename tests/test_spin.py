import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundcompass.audio_io import MultichannelWaveform
from soundcompass.spectral import ComplexSpectrogram, GaussianWindowParams, stft
from soundcompass.spin import (
    LOG_FLOOR,
    SpinFeature,
    log_magnitude,
    normalize_planes,
    pair_index,
    recover_ipd,
    spin_forward,
)

from conftest import complex_normal


def random_spec(rng, channels=4, frames=6, bins=17):
    return ComplexSpectrogram(complex_normal(rng, (channels, frames, bins)), 256, 2 * (bins - 1), 16000)


def test_output_shapes(rng):
    feat = spin_forward(random_spec(rng))
    assert feat.pairwise.shape == (64, 6, 17)
    assert feat.num_channels == 4


def test_pairwise_bounded(rng):
    for _ in range(10):
        feat = spin_forward(random_spec(rng))
        assert np.all(feat.pairwise >= -1.0)
        assert np.all(feat.pairwise <= 1.0)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(1e-6, 1e6), channels=st.sampled_from([1, 2, 4]))
def test_pairwise_bounded_across_scales(scale, channels):
    rng = np.random.default_rng(7)
    feat = spin_forward(ComplexSpectrogram(scale * complex_normal(rng, (channels, 3, 9)), 256, 16, 16000))
    assert np.all(np.abs(feat.pairwise) <= 1.0)
    assert feat.pairwise.shape[0] == (2 * channels) ** 2


def test_normalization_unit_norm(rng):
    planes = rng.standard_normal((8, 4, 5))
    unit = normalize_planes(planes)
    norms = np.sqrt((unit**2).sum(axis=0))
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_zero_cells_stay_zero(rng):
    planes = rng.standard_normal((8, 4, 5))
    planes[:, 2, 3] = 0.0
    unit = normalize_planes(planes)
    assert np.all(unit[:, 2, 3] == 0.0)
    x = complex_normal(rng, (4, 4, 5))
    x[:, 2, 3] = 0.0
    feat = spin_forward(ComplexSpectrogram(x, 256, 8, 16000))
    assert np.all(feat.pairwise[:, 2, 3] == 0.0)


def test_tiny_cells_never_amplified():
    planes = np.zeros((4, 1, 3))
    planes[0, 0, 1] = 1e-15  # below the norm floor
    unit = normalize_planes(planes)
    assert np.all(np.abs(unit) <= 1.0)
    assert np.all(unit[:, 0, 1] == 0.0)


def test_scale_invariance(rng):
    x = complex_normal(rng, (4, 5, 9))
    a = spin_forward(ComplexSpectrogram(x, 256, 16, 16000))
    b = spin_forward(ComplexSpectrogram(1e3 * x, 256, 16, 16000))
    np.testing.assert_allclose(a.pairwise, b.pairwise, atol=1e-12)


def test_pairwise_symmetry(rng):
    # channel products commute: entry (a,b) equals entry (b,a)
    feat = spin_forward(random_spec(rng, channels=2))
    for a in range(4):
        for b in range(4):
            np.testing.assert_array_equal(
                feat.pairwise[pair_index(a, b, 2)], feat.pairwise[pair_index(b, a, 2)]
            )


def test_diagonal_nonnegative(rng):
    feat = spin_forward(random_spec(rng))
    for a in range(8):
        assert np.all(feat.pairwise[pair_index(a, a, 4)] >= 0.0)


def test_log_mag_floor():
    spec = ComplexSpectrogram(np.zeros((2, 2, 3), dtype=complex), 2, 4, 16000)
    log_mag = log_magnitude(spec)
    assert log_mag.shape == (4, 2, 3)
    np.testing.assert_allclose(log_mag, np.log(LOG_FLOOR))


def test_log_mag_values(rng):
    spec = ComplexSpectrogram(complex_normal(rng, (4, 3, 5)), 4, 8, 16000)
    mags = np.abs(spec.values)  # [M, T, F]
    expected = np.log(np.maximum(np.tile(mags, (2, 1, 1)), LOG_FLOOR))
    np.testing.assert_allclose(log_magnitude(spec), expected, atol=1e-12)


def test_ipd_recovery_exact(rng):
    # IPD of the input spectrogram must be recoverable from products alone
    mags = rng.uniform(0.5, 2.0, size=(3, 7, 9))
    phases = rng.uniform(-np.pi, np.pi, size=(3, 7, 9))
    spec = ComplexSpectrogram(mags * np.exp(1j * phases), 256, 16, 16000)
    feat = spin_forward(spec)
    xc = spec.values
    for i in range(3):
        for j in range(3):
            true_ipd = np.angle(xc[j] * np.conj(xc[i]))
            got = recover_ipd(feat, i, j)
            err = np.angle(np.exp(1j * (got - true_ipd)))
            assert np.abs(err).max() <= 1e-9


def test_ipd_recovery_from_waveform_stft(rng):
    x = MultichannelWaveform(rng.standard_normal((2, 4000)), 16000)
    spec = stft(x, GaussianWindowParams(0.5, 0.3, 512), 512, 256)
    feat = spin_forward(spec)
    xc = spec.values
    true_ipd = np.angle(xc[1] * np.conj(xc[0]))
    got = recover_ipd(feat, 0, 1)
    # compare only where both channels carry energy
    mask = (np.abs(xc[0]) > 1e-8) & (np.abs(xc[1]) > 1e-8)
    err = np.angle(np.exp(1j * (got - true_ipd)))
    assert np.abs(err[mask]).max() <= 1e-9


def test_recover_ipd_validates_channels(rng):
    feat = spin_forward(random_spec(rng, channels=2))
    with pytest.raises(ValueError):
        recover_ipd(feat, 0, 2)
    with pytest.raises(ValueError):
        recover_ipd(feat, -1, 0)


def test_spin_feature_validation(rng):
    with pytest.raises(ValueError):
        SpinFeature(pairwise=rng.standard_normal((63, 4, 5)), num_channels=4)


def test_single_channel_four_products(rng):
    feat = spin_forward(random_spec(rng, channels=1))
    assert feat.pairwise.shape[0] == 4
    got = recover_ipd(feat, 0, 0)
    np.testing.assert_allclose(got, 0.0, atol=1e-12)  # self-IPD is zero
