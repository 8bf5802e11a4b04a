import concurrent.futures
import math
import sys

import numpy as np
import pytest

from soundcompass import (
    DoAClue,
    MultichannelWaveform,
    SceneSpec,
    SourceSpec,
    contour_grid,
    delay_and_sum,
    render_scene,
    si_snr_i,
    steering_delays,
    tetrahedral_offsets,
)
from soundcompass import extractor
from soundcompass.delays import delay_signal
from soundcompass.extractor import SPEED_OF_SOUND

from conftest import make_noise_wav

FS = 16000


# ---------------------------------------------------------------------------
# Steering geometry


def test_broadside_delays_equal():
    # direction orthogonal to a linear array: identical delays everywhere
    offsets = np.array([[x, 0.0, 0.0] for x in (-0.05, 0.0, 0.05)])
    tau = steering_delays(offsets, DoAClue.from_degrees(90, 0))  # +y
    np.testing.assert_allclose(tau, 0.0, atol=1e-15)


def test_top_vertex_delay():
    # source straight above: the apex mic (offset +r on z) leads the ring
    # mics (z = -r/3) by their z-gap over c; delays differ by 4r/(3c)
    r = 0.042
    offsets = tetrahedral_offsets(r)
    tau = steering_delays(offsets, DoAClue.from_degrees(0, 90))  # +z
    assert tau[0] == pytest.approx(-r / SPEED_OF_SOUND, rel=1e-12)
    for m in (1, 2, 3):
        assert tau[m] == pytest.approx((r / 3) / SPEED_OF_SOUND, rel=1e-12)
    assert tau[1] - tau[0] == pytest.approx(4 * r / (3 * SPEED_OF_SOUND), rel=1e-12)


def test_delays_antisymmetric_in_direction():
    offsets = tetrahedral_offsets()
    a = steering_delays(offsets, DoAClue.from_degrees(37, 12))
    u = DoAClue.from_degrees(37, 12).unit_vector()
    b = steering_delays(offsets, DoAClue.from_vector(-u))
    np.testing.assert_allclose(a, -b, atol=1e-15)


def test_steering_validation(rng):
    with pytest.raises(ValueError):
        steering_delays(np.zeros((4, 2)), DoAClue.from_degrees(0, 0))
    w = MultichannelWaveform(rng.standard_normal((2, 100)), FS)
    with pytest.raises(ValueError):
        delay_and_sum(w, DoAClue.from_degrees(0, 0), tetrahedral_offsets())


# ---------------------------------------------------------------------------
# Delay-and-sum behavior


def test_single_channel_passthrough(rng):
    x = rng.standard_normal((1, 3000))
    w = MultichannelWaveform(x, FS)
    out = delay_and_sum(w, DoAClue.from_degrees(123, 45), np.zeros((1, 3)))
    np.testing.assert_array_equal(out.samples, x)
    assert out.samples is not w.samples  # a copy, not a view


def test_plane_wave_unit_gain_at_steered_direction(rng):
    # synthesize an ideal far-field plane wave by delaying one signal with
    # the exact steering delays; the beamformer must return it unchanged.
    # band-limit to 0.8 Nyquist: the interpolation kernel is only flat there
    base = rng.standard_normal(6000)
    spec = np.fft.rfft(base)
    spec[int(0.8 * len(spec)) :] = 0.0
    base = np.fft.irfft(spec, n=6000)
    offsets = tetrahedral_offsets()
    clue = DoAClue.from_degrees(40, 15)
    tau = steering_delays(offsets, clue) * FS
    chans = np.stack([delay_signal(base, t) for t in tau])
    w = MultichannelWaveform(chans, FS)
    out = delay_and_sum(w, clue, offsets)
    # interior samples: fractional-delay kernels ring near the edges
    sl = slice(200, 5800)
    ratio = np.linalg.norm(out.samples[:, sl]) / np.linalg.norm(chans[:, sl])
    assert ratio == pytest.approx(1.0, abs=0.01)
    err = np.abs(out.samples[:, sl] - chans[:, sl]).max()
    assert err <= 0.02 * np.abs(chans[:, sl]).max()


def test_interferer_attenuated_below_aliasing(rng):
    # target plane wave plus an interferer from the opposite bearing; after
    # steering, the target stays at unit gain and the interferer loses energy
    offsets = tetrahedral_offsets()
    target_clue = DoAClue.from_degrees(0, 0)
    interf_clue = DoAClue.from_degrees(180, 0)

    def plane(sig, clue):
        tau = steering_delays(offsets, clue) * FS
        return np.stack([delay_signal(sig, t) for t in tau])

    rng2 = np.random.default_rng(77)
    target = plane(rng2.standard_normal(8000), target_clue)
    interf = plane(rng2.standard_normal(8000), interf_clue)
    w = MultichannelWaveform(target + interf, FS)
    out = delay_and_sum(w, target_clue, offsets)
    sl = slice(200, 7800)
    before = float((interf[:, sl] ** 2).sum()) / float((target[:, sl] ** 2).sum())
    resid = out.samples[:, sl] - target[:, sl]
    after = float((resid**2).sum()) / float((target[:, sl] ** 2).sum())
    assert after < before


def test_si_snr_improves_at_true_doa(tmp_path):
    # two spatially separated noise sources; steering at the target raises
    # scale-invariant SNR relative to the raw mixture
    wav_a = tmp_path / "a.wav"
    wav_b = tmp_path / "b.wav"
    make_noise_wav(wav_a, seconds=0.5, seed=21)
    make_noise_wav(wav_b, seconds=0.5, seed=22)
    center = (2.8, 2.6, 1.5)
    spec = SceneSpec(
        room_dims=[5.57, 5.20, 3.79],
        array_center=list(center),
        array_offsets=tetrahedral_offsets(),
        sources=[
            SourceSpec(position=[center[0] + 2.0, center[1], center[2]], class_label="t", gain_db=0.0, wav=str(wav_a)),
            SourceSpec(position=[center[0], center[1] + 2.0, center[2]], class_label="i", gain_db=0.0, wav=str(wav_b)),
        ],
        absorption=[1.0] * 6,
    )
    mixture, truth = render_scene(spec)
    ref = MultichannelWaveform(
        truth.sources[0].direct.samples + truth.sources[0].reverb.samples, FS
    )
    est = delay_and_sum(mixture, truth.sources[0].doa, spec.array_offsets)
    gain = si_snr_i(est, ref, mixture)
    assert gain > 0.0

    # steering 90 degrees off target does worse than steering at it
    off_clue = DoAClue.from_degrees(90, 0)
    est_off = delay_and_sum(mixture, off_clue, spec.array_offsets)
    gain_off = si_snr_i(est_off, ref, mixture)
    assert gain > gain_off


# ---------------------------------------------------------------------------
# Steering-offset contour


@pytest.mark.parametrize(
    "offsets",
    [tetrahedral_offsets(), 25.0 * tetrahedral_offsets(), np.array([[0.02, 0.0, 0.0]])],
    ids=["tetrahedral", "wide", "mono"],
)
def test_contour_grid_matches_per_point_loop(rng, offsets):
    m = offsets.shape[0]
    mixture = MultichannelWaveform(rng.standard_normal((m, 4000)), FS)
    ref = MultichannelWaveform(rng.standard_normal((m, 4000)), FS)
    clue = DoAClue.from_degrees(30.0, 85.0)  # +10 deg elevation clamps at the pole
    # 36 points, some with the elevation clamped at the pole
    grid = [(d_az, d_el) for d_az in np.arange(-20.0, 25.0, 5.0) for d_el in (-10.0, 0.0, 7.5, 10.0)]
    got = contour_grid(mixture, ref, offsets, clue, grid)

    az0, el0 = clue.to_degrees()
    expected = []
    for d_az, d_el in grid:
        steered = DoAClue.from_degrees(az0 + d_az, min(max(el0 + d_el, -90.0), 90.0))
        expected.append(si_snr_i(delay_and_sum(mixture, steered, offsets), ref, mixture))
    # the correlation sums add in another order than the per-point convolutions
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


def per_point_contour(mixture, ref, offsets, clue, grid):
    """The contour by definition: one delay_and_sum and one SI-SNR improvement per point."""
    az0, el0 = clue.to_degrees()
    out = []
    for d_az, d_el in grid:
        steered = DoAClue.from_degrees(az0 + d_az, min(max(el0 + d_el, -90.0), 90.0))
        out.append(si_snr_i(delay_and_sum(mixture, steered, offsets), ref, mixture))
    return np.array(out)


GRID_5X5 = [(d_az, d_el) for d_az in (-10.0, -5.0, 0.0, 5.0, 10.0) for d_el in (-10.0, -5.0, 0.0, 5.0, 10.0)]


def test_contour_grid_matches_per_point_loop_on_rendered_scene(scene_factory):
    spec = scene_factory(positions=((1.2, 3.8, 1.7), (4.4, 1.5, 1.2)), rt60=0.3, seconds=1.0)
    mixture, truth = render_scene(spec)
    ref = MultichannelWaveform(truth.sources[0].direct.samples + truth.sources[0].reverb.samples, FS)
    clue = truth.sources[0].doa
    got = contour_grid(mixture, ref, spec.array_offsets, clue, GRID_5X5)
    expected = per_point_contour(mixture, ref, spec.array_offsets, clue, GRID_5X5)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("samples", [200, 120])
def test_contour_grid_short_signal_wide_array(rng, samples):
    # up to 49 samples of steering delay: the edge strips of 90 samples leave
    # the middle 20 of 200 samples to the correlation sums alone, and 120
    # samples are shorter than two strips, so the strips meet in the middle
    offsets = 25.0 * tetrahedral_offsets()
    mixture = MultichannelWaveform(rng.standard_normal((4, samples)), FS)
    ref = MultichannelWaveform(rng.standard_normal((4, samples)), FS)
    clue = DoAClue.from_degrees(-40.0, 20.0)
    got = contour_grid(mixture, ref, offsets, clue, GRID_5X5)
    np.testing.assert_allclose(got, per_point_contour(mixture, ref, offsets, clue, GRID_5X5), rtol=0, atol=1e-9)


def test_contour_grid_signal_shorter_than_steering_delays(rng):
    # 7 samples against up to 49 samples of delay: delay_and_sum leaves some
    # output channels exactly zero and others made of kernel tails alone
    offsets = 25.0 * tetrahedral_offsets()
    mixture = MultichannelWaveform(rng.standard_normal((4, 7)), FS)
    ref = MultichannelWaveform(rng.standard_normal((4, 7)), FS)
    clue = DoAClue.from_degrees(30.0, 10.0)
    grid = [(d_az, d_el) for d_az in range(-40, 80, 20) for d_el in range(-40, 80, 20)]
    az0, el0 = clue.to_degrees()
    outs = [delay_and_sum(mixture, DoAClue.from_degrees(az0 + a, min(el0 + e, 90.0)), offsets) for a, e in grid]
    assert any(not ch.any() for out in outs for ch in out.samples)  # the probe holds an exactly silent channel
    got = contour_grid(mixture, ref, offsets, clue, grid)
    np.testing.assert_allclose(got, per_point_contour(mixture, ref, offsets, clue, grid), rtol=0, atol=1e-9)


def test_contour_grid_all_zero_mixture(rng):
    offsets = tetrahedral_offsets()
    mixture = MultichannelWaveform(np.zeros((4, 1000)), FS)
    ref = MultichannelWaveform(rng.standard_normal((4, 1000)), FS)
    clue = DoAClue.from_degrees(10.0, 0.0)
    got = contour_grid(mixture, ref, offsets, clue, GRID_5X5)
    np.testing.assert_allclose(got, per_point_contour(mixture, ref, offsets, clue, GRID_5X5), rtol=0, atol=1e-9)


@pytest.mark.parametrize("chunk", [1, 2, 7, 24])
def test_contour_grid_chunks_concatenate_to_full_grid(rng, chunk):
    # a point must not depend on its neighbours, so no grid split or thread count changes it
    offsets = tetrahedral_offsets()
    mixture = MultichannelWaveform(rng.standard_normal((4, 3000)), FS)
    ref = MultichannelWaveform(rng.standard_normal((4, 3000)), FS)
    clue = DoAClue.from_degrees(200.0, -5.0)
    full = contour_grid(mixture, ref, offsets, clue, GRID_5X5)
    parts = [contour_grid(mixture, ref, offsets, clue, GRID_5X5[i : i + chunk]) for i in range(0, 25, chunk)]
    np.testing.assert_array_equal(np.concatenate(parts), full)


TETRAHEDRAL_3000 = (tetrahedral_offsets(), 3000)
WIDE_120 = (25.0 * tetrahedral_offsets(), 120)  # shorter than the two end strips: steered by definition throughout


@pytest.mark.parametrize(
    "chunk, array",
    [pytest.param(c, TETRAHEDRAL_3000, id=str(c)) for c in (1, 7, 24)]
    + [pytest.param(c, WIDE_120, id=f"short-wide-{c}") for c in (1, 7)],
)
def test_contour_grid_scores_in_fixed_chunks_bitwise(rng, monkeypatch, chunk, array):
    # contour_grid bounds its memory by scoring CONTOUR_CHUNK points at a time;
    # a default 13x13 grid is one chunk, so contour does the arithmetic it did unchunked
    assert extractor.CONTOUR_CHUNK >= 13 * 13
    offsets, samples = array
    mixture = MultichannelWaveform(rng.standard_normal((4, samples)), FS)
    ref = MultichannelWaveform(rng.standard_normal((4, samples)), FS)
    clue = DoAClue.from_degrees(200.0, -5.0)
    whole = contour_grid(mixture, ref, offsets, clue, GRID_5X5)
    monkeypatch.setattr(extractor, "CONTOUR_CHUNK", chunk)
    np.testing.assert_array_equal(contour_grid(mixture, ref, offsets, clue, GRID_5X5), whole)


@pytest.mark.parametrize(
    "chunk, jobs, threads, array",
    [pytest.param(*case, TETRAHEDRAL_3000, id="-".join(map(str, case))) for case in ((1, 8, 8), (7, 2, 2), (7, 1000, 4))]
    + [pytest.param(*case, WIDE_120, id="short-wide-" + "-".join(map(str, case))) for case in ((1, 8, 8), (7, 2, 2))],
)
def test_contour_grid_threads_match_inline_bitwise(rng, monkeypatch, chunk, jobs, threads, array):
    # threads write disjoint chunks of shared arrays; more threads than cores and a short
    # switch interval make an overlapping write or a lost update likely to show
    offsets, samples = array
    mixture = MultichannelWaveform(rng.standard_normal((4, samples)), FS)
    ref = MultichannelWaveform(rng.standard_normal((4, samples)), FS)
    clue = DoAClue.from_degrees(200.0, -5.0)
    monkeypatch.setattr(extractor, "CONTOUR_CHUNK", chunk)
    started = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    inline = contour_grid(mixture, ref, offsets, clue, GRID_5X5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = contour_grid(mixture, ref, offsets, clue, GRID_5X5, jobs=jobs)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(threaded, inline)
    assert started == [threads]  # at most one thread per chunk
