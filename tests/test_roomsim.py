import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import csd, fftconvolve, welch

from soundcompass import roomsim
from soundcompass.audio_io import MultichannelWaveform, read_wav
from soundcompass.delays import KERNEL_HALF, KERNEL_TAPS, SPEED_OF_SOUND, fractional_delay_kernel
from soundcompass.metrics import gcc_phat_itd
from soundcompass.roomsim import (
    SimulationError,
    frame_activation,
    ground_truth_doa,
    render_scene,
    render_scene_to_dir,
    sabine_absorption,
    schroeder_decay_db,
    schroeder_rt60,
    simulate_rir,
)
from soundcompass.scenes import NoiseSpec, SceneSpec, SourceSpec, tetrahedral_offsets
from soundcompass.spectral import frame_count

from conftest import make_noise_wav

ROOM = (5.57, 5.20, 3.79)
CENTER = (2.8, 2.6, 1.5)
TABLE_SOURCE = (1.9, 3.4, 1.6)  # the source of scripts/rt60_table.py
FS = 16000


def geometry_scene(positions, offsets, room=ROOM, center=CENTER, absorption=None, rt60=None):
    """Scene for RIR geometry tests; the source WAVs are never read."""
    if absorption is None and rt60 is None:
        absorption = [1.0] * 6
    return SceneSpec(
        room_dims=list(room),
        array_center=list(center),
        array_offsets=np.asarray(offsets, dtype=np.float64),
        sources=[
            SourceSpec(position=list(p), class_label="c", gain_db=0.0, wav="unused.wav")
            for p in positions
        ],
        absorption=absorption,
        rt60_s=rt60,
    )


@pytest.fixture(scope="module")
def reverberant_rir():
    spec = geometry_scene(
        positions=[(1.2, 3.8, 1.7)],
        offsets=tetrahedral_offsets(),
        rt60=0.32,
        absorption=None,
    )
    return simulate_rir(spec, 0, sample_rate=FS)


# ---------------------------------------------------------------------------
# Absorption and image order


def test_sabine_value_for_reference_room():
    lx, ly, lz = ROOM
    volume = lx * ly * lz
    surface = 2 * (lx * ly + lx * lz + ly * lz)
    expected = 0.161 * volume / (0.32 * surface)
    got = sabine_absorption(ROOM, 0.32)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.3957, abs=5e-4)


def test_sabine_unreachable_rt60():
    with pytest.raises(SimulationError):
        sabine_absorption(ROOM, 0.05)  # would need alpha > 1


def test_sabine_monotone_in_rt60():
    assert sabine_absorption(ROOM, 0.3) > sabine_absorption(ROOM, 0.6)


# ---------------------------------------------------------------------------
# Anechoic geometry


def test_anechoic_direct_tap_position_and_amplitude():
    # distance chosen so the propagation delay is exactly 80 samples
    d = SPEED_OF_SOUND * 80 / FS
    spec = geometry_scene(
        positions=[(CENTER[0] + d, CENTER[1], CENTER[2])], offsets=[[0.0, 0.0, 0.0]]
    )
    rir = simulate_rir(spec, 0, sample_rate=FS)
    taps = rir.taps[0]
    assert int(np.argmax(np.abs(taps))) == 80
    assert taps[80] == pytest.approx(1.0 / (4 * math.pi * d), rel=1e-9)
    # integer delay: every other tap is zero
    others = np.delete(taps, 80)
    assert np.abs(others).max() <= 1e-12
    # anechoic: the full response is the direct path
    np.testing.assert_array_equal(rir.direct_taps, rir.taps)
    assert np.all(rir.reverb_taps() == 0.0)


def test_inverse_distance_gain():
    d1 = SPEED_OF_SOUND * 80 / FS
    d2 = 2 * d1
    near_wall = (0.8, 2.6, 1.5)  # leaves room for the doubled distance
    r1 = simulate_rir(
        geometry_scene([(0.8 + d1, 2.6, 1.5)], [[0, 0, 0]], center=near_wall), 0, sample_rate=FS
    )
    r2 = simulate_rir(
        geometry_scene([(0.8 + d2, 2.6, 1.5)], [[0, 0, 0]], center=near_wall), 0, sample_rate=FS
    )
    a1 = r1.taps[0, 80]
    a2 = r2.taps[0, 160]
    assert a1 / a2 == pytest.approx(2.0, rel=1e-9)


def test_anechoic_delays_match_geometry_many_cases():
    rng = np.random.default_rng(42)
    offsets = tetrahedral_offsets()
    for _ in range(25):
        src = rng.uniform([0.5, 0.5, 0.5], [5.0, 4.7, 3.3])
        center = rng.uniform([1.0, 1.0, 1.0], [4.5, 4.2, 2.8])
        if np.linalg.norm(src - center) < 0.3:
            continue
        spec = geometry_scene([tuple(src)], offsets, center=tuple(center))
        rir = simulate_rir(spec, 0, sample_rate=FS)
        mics = np.asarray(center) + offsets
        for m in range(4):
            dist = np.linalg.norm(src - mics[m])
            expected = dist * FS / SPEED_OF_SOUND
            got = int(np.argmax(np.abs(rir.taps[m])))
            assert abs(got - expected) <= 1.0, (src, center, m)


def test_reciprocity():
    # swapping source and a single receiver preserves the arrival structure
    a = geometry_scene([(1.2, 3.8, 1.7)], [[0, 0, 0]], center=(3.5, 1.9, 2.2), absorption=[0.6] * 6)
    b = geometry_scene([(3.5, 1.9, 2.2)], [[0, 0, 0]], center=(1.2, 3.8, 1.7), absorption=[0.6] * 6)
    ra = simulate_rir(a, 0, sample_rate=FS)
    rb = simulate_rir(b, 0, sample_rate=FS)
    n = min(ra.taps.shape[1], rb.taps.shape[1])
    np.testing.assert_allclose(ra.taps[0, :n], rb.taps[0, :n], atol=1e-12)


def test_rir_determinism():
    spec = geometry_scene([(1.2, 3.8, 1.7)], tetrahedral_offsets(), absorption=[0.5] * 6)
    a = simulate_rir(spec, 0, sample_rate=FS)
    b = simulate_rir(spec, 0, sample_rate=FS)
    np.testing.assert_array_equal(a.taps, b.taps)
    np.testing.assert_array_equal(a.direct_taps, b.direct_taps)


def test_source_index_out_of_range():
    spec = geometry_scene([(1.2, 3.8, 1.7)], [[0, 0, 0]])
    with pytest.raises(SimulationError):
        simulate_rir(spec, 1, sample_rate=FS)


# ---------------------------------------------------------------------------
# Image scatter against the per-fraction np.add.at reference


def image_window(spec, source_index):
    """Tail onset t_on and window radius R = |src - centre| + c t_on of a reverberant scene.

    t_on is 13/60 of the decay time, cut to the latest time the order-12 cube
    holds every image that arrives by then; along axis d that cube reaches
    2 * 13 * L - s - c from the centre.
    """
    src = np.asarray(spec.sources[source_index].position, dtype=np.float64)
    centre = np.asarray(spec.array_center, dtype=np.float64)
    decay = roomsim._decay_time(spec, roomsim._wall_absorptions(spec))
    direct = float(np.linalg.norm(src - centre))
    reach = float(np.min(2.0 * 13 * np.asarray(spec.room_dims) - src - centre))
    onset = max(0.0, min(decay * 13 / 60, (reach - direct) / SPEED_OF_SOUND))
    return onset, direct + SPEED_OF_SOUND * onset


def image_sources(spec, source_index):
    """Positions [I, 3] and gains [I] of the live images inside the window, the whole image cube built from meshgrids.

    The window keeps an image when its squared distance to the array centre,
    summed (dx^2 + dy^2) + dz^2, is at most R^2, with R from image_window; an
    anechoic scene has no window. Returns the source and mic positions too.
    """
    room = np.asarray(spec.room_dims, dtype=np.float64)
    src = np.asarray(spec.sources[source_index].position, dtype=np.float64)
    centre = np.asarray(spec.array_center, dtype=np.float64)
    mics = centre + spec.array_offsets
    absorptions = roomsim._wall_absorptions(spec)
    betas = np.sqrt(np.clip(1.0 - absorptions, 0.0, 1.0))
    anechoic = np.all(betas == 0.0)
    radius = None if anechoic else image_window(spec, source_index)[1]
    order = 0 if anechoic else roomsim._image_order(room, src, centre, radius)
    ms = np.arange(-order, order + 1)
    axis_coords, axis_gains = [], []
    for d in range(3):
        axis_coords.append(np.concatenate([(1 - 2 * p) * src[d] + 2 * ms * room[d] for p in (0, 1)]))
        axis_gains.append(
            np.concatenate([betas[2 * d] ** np.abs(ms - p) * betas[2 * d + 1] ** np.abs(ms) for p in (0, 1)])
        )
    cx, cy, cz = np.meshgrid(*axis_coords, indexing="ij")
    gx, gy, gz = np.meshgrid(*axis_gains, indexing="ij")
    positions = np.stack([cx.ravel(), cy.ravel(), cz.ravel()], axis=1)
    gains = (gx * gy * gz).ravel()
    keep = gains > 1e-12
    if radius is not None:
        d2 = (positions - centre) ** 2
        keep &= (d2[:, 0] + d2[:, 1]) + d2[:, 2] <= radius * radius
    return positions[keep], gains[keep], src, mics


def padded(taps, rir):
    """[M, L] taps zero-padded to the RIR's length."""
    out = np.zeros(rir.taps.shape)
    out[:, : taps.shape[1]] = taps
    return out


def with_tail(image_taps, rir):
    """Image taps padded to the RIR's length, plus its diffuse tail from the onset sample on, as simulate_rir adds it.

    Adding the same tail to the same image taps gives the same bits.
    """
    out = padded(image_taps, rir)
    if rir.tail is not None:
        out[:, out.shape[1] - rir.tail.shape[1] :] += rir.tail
    return out


def quantize(delays):
    """Whole-sample and 1/64-fraction parts of delays; a fraction that rounds to 64/64 moves to the next sample."""
    d_int = np.floor(delays).astype(np.int64)
    q = np.round((delays - d_int) * 64).astype(np.int64)
    d_int = d_int + (q == 64)
    return d_int, np.where(q == 64, 0, q)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(0.0, 2e5),
            # exact ties between two 1/64 steps, which round half to even
            st.builds(lambda k, j: k + (2 * j + 1) / 128, st.integers(0, 200000), st.integers(0, 63)),
            # just below a whole sample, whose fraction rounds up to 64/64 and carries
            st.builds(lambda k: np.nextafter(float(k), 0.0), st.integers(1, 200000)),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_arrival_index_equals_floor_round_carry(delays):
    delays = np.asarray(delays)
    d_int, q = quantize(delays)
    np.testing.assert_array_equal(roomsim._arrival_index(delays.copy()), d_int * 64 + q)


def loop_scatter(out, index, amps):
    """_scatter's bitwise reference: the whole product's row k added at its shift, k ascending."""
    rows = int(index.max()) // 64 + 1
    grid = np.bincount(index, weights=amps, minlength=rows * 64).reshape(rows, 64)
    block = roomsim.KERNEL_TABLE.T @ grid.T
    for k in range(KERNEL_TAPS):
        lo = k - KERNEL_HALF
        skip = max(0, -lo)
        out[lo + skip : lo + rows] += block[k, skip:]


@pytest.mark.parametrize(
    "position, rt60, direct_only",
    [
        pytest.param(TABLE_SOURCE, 1.2, False, id="reference-room-rt60-1.2"),
        pytest.param((CENTER[0] + 0.5, CENTER[1], CENTER[2]), 0.32, False, id="near-source"),
        pytest.param(TABLE_SOURCE, 0.6, True, id="direct-path"),
    ],
)
def test_scatter_equals_per_tap_loop_bitwise(position, rt60, direct_only):
    spec = geometry_scene([position], tetrahedral_offsets(), rt60=rt60)
    positions, gains, src, mics = image_sources(spec, 0)
    if direct_only:
        positions, gains = src[None], np.ones(1)
    first, last = [], []
    for mi, mic in enumerate(mics):
        d = np.maximum(np.linalg.norm(positions - mic, axis=1), 1e-3)
        d_int, q = quantize(d / SPEED_OF_SOUND * FS)
        index, amps = d_int * 64 + q, gains / (4.0 * np.pi * d)
        # out already holds a signal, which both add onto
        start = np.random.default_rng(mi).standard_normal(int(d_int.max()) + KERNEL_TAPS + 1)
        got, want = start.copy(), start.copy()
        roomsim._scatter(got, index, amps)
        loop_scatter(want, index, amps)
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        first.append(int(d_int.min()))
        last.append(int(d_int.max()))
    if rt60 == 1.2:
        assert min(last) > 4000  # thousands of arrival rows in one product
    elif not direct_only:
        assert min(first) < KERNEL_HALF  # the nearest mic's kernel starts before sample 0


def reference_rir(spec, source_index):
    """Taps, direct taps and direct index by scattering each fraction with np.add.at per mic."""
    positions, gains, src, mics = image_sources(spec, source_index)

    def scatter(taps, d_int, q, amps):
        tap_range = np.arange(KERNEL_TAPS)
        for qv in np.unique(q):
            sel = q == qv
            idx = ((d_int[sel] - KERNEL_HALF)[:, None] + tap_range[None, :]).ravel()
            w = (amps[sel][:, None] * fractional_delay_kernel(qv / 64.0)[None, :]).ravel()
            ok = (idx >= 0) & (idx < taps.shape[0])
            np.add.at(taps, idx[ok], w[ok])

    channels, direct_channels, direct_idx = [], [], []
    for mic in mics:
        dists = np.maximum(np.linalg.norm(positions - mic, axis=1), 1e-3)
        d_direct = float(np.linalg.norm(src - mic))
        d_int, q = quantize(dists / SPEED_OF_SOUND * FS)
        taps = np.zeros(int(d_int.max()) + KERNEL_TAPS + 1)
        scatter(taps, d_int, q, gains / (4.0 * np.pi * dists))
        direct = np.zeros_like(taps)
        dd_int, dq = quantize(np.array([d_direct / SPEED_OF_SOUND * FS]))
        scatter(direct, dd_int, dq, np.array([1.0 / (4.0 * np.pi * d_direct)]))
        channels.append(taps)
        direct_channels.append(direct)
        direct_idx.append(int(round(d_direct / SPEED_OF_SOUND * FS)))

    max_len = max(c.shape[0] for c in channels)
    out = np.zeros((len(mics), max_len))
    out_direct = np.zeros((len(mics), max_len))
    for mi in range(len(mics)):
        out[mi, : channels[mi].shape[0]] = channels[mi]
        out_direct[mi, : direct_channels[mi].shape[0]] = direct_channels[mi]
    return out, out_direct, np.asarray(direct_idx)


@pytest.mark.parametrize(
    "positions, room, center, absorption, rt60, clipped",
    [
        pytest.param([(1.2, 3.8, 1.7)], ROOM, CENTER, None, 1.2, False, id="reference-room-order-12"),
        pytest.param([TABLE_SOURCE], ROOM, CENTER, None, 0.2, False, id="reference-room-rt60-0.2-window"),
        pytest.param([(6.1, 1.9, 1.2)], (8.0, 6.0, 3.5), (4.0, 3.0, 1.5), None, 0.6, False, id="8x6x3.5-room"),
        pytest.param(
            [(1.2, 3.8, 1.7)], ROOM, CENTER, [1.0, 0.3, 0.5, 0.2, 0.6, 0.4], None, False, id="one-absorbing-wall"
        ),
        pytest.param(
            [(CENTER[0] + 0.5, CENTER[1], CENTER[2])], ROOM, CENTER, None, 0.32, True, id="near-source"
        ),
        pytest.param([(1.2, 3.8, 1.7)], ROOM, CENTER, [1.0] * 6, None, False, id="anechoic"),
    ],
)
def test_scatter_matches_add_at_reference(positions, room, center, absorption, rt60, clipped):
    spec = geometry_scene(positions, tetrahedral_offsets(), room, center, absorption, rt60)
    rir = simulate_rir(spec, 0, sample_rate=FS)
    taps, direct_taps, direct_idx = reference_rir(spec, 0)
    taps, direct_taps = with_tail(taps, rir), padded(direct_taps, rir)
    # the direct kernel peaks at the nearest whole-sample arrival
    np.testing.assert_array_equal(np.abs(rir.direct_taps).argmax(axis=1), direct_idx)
    peak = np.abs(taps).max()
    assert np.abs(rir.taps - taps).max() <= 1e-12 * peak
    assert np.abs(rir.direct_taps - direct_taps).max() <= 1e-12 * np.abs(direct_taps).max()
    if absorption == [1.0] * 6:
        np.testing.assert_array_equal(rir.direct_taps, rir.taps)
    # the nearest mic hears the source within KERNEL_HALF samples: its kernel starts before sample 0
    assert (direct_idx.min() < KERNEL_HALF) == clipped


def meshgrid_rir(spec, source_index):
    """Taps, direct taps and image count from image_sources with a norm per mic, through roomsim's scatter."""
    positions, gains, src, mics = image_sources(spec, source_index)
    dists = np.stack([np.maximum(np.linalg.norm(positions - mic, axis=1), 1e-3) for mic in mics])
    direct_dists = np.linalg.norm(src - mics, axis=1)
    last, _ = quantize(dists.max(axis=1) / SPEED_OF_SOUND * FS)
    taps = np.zeros((len(mics), int(last.max()) + KERNEL_TAPS + 1))
    direct = np.zeros_like(taps)
    dd_int, dq = quantize(direct_dists / SPEED_OF_SOUND * FS)
    for mi, d in enumerate(dists):
        d_int, q = quantize(d / SPEED_OF_SOUND * FS)
        roomsim._scatter(taps[mi], d_int * 64 + q, gains / (4.0 * np.pi * d))
        kernel = 1.0 / (4.0 * np.pi * direct_dists[mi]) * roomsim.KERNEL_TABLE[dq[mi]]
        lo = int(dd_int[mi]) - KERNEL_HALF
        skip = max(0, -lo)
        direct[mi, lo + skip : lo + KERNEL_TAPS] = kernel[skip:]
    return taps, direct, gains.shape[0]


@st.composite
def image_scenes(draw):
    """A scene with random room, array and source, some walls fully absorbing (beta = 0), and an image order."""
    unit = st.floats(0.05, 0.95)
    room = np.array([draw(st.floats(1.5, 9.0)) for _ in range(3)])
    center = np.array([draw(st.floats(0.25, 0.75)) for _ in range(3)]) * room
    offsets = tetrahedral_offsets()
    if draw(st.booleans()):
        # within KERNEL_HALF samples of a mic, so its direct kernel starts before sample 0
        az, z = draw(st.floats(0.0, 2 * np.pi)), draw(st.floats(-1.0, 1.0))
        direction = np.array([math.sqrt(1 - z * z) * math.cos(az), math.sqrt(1 - z * z) * math.sin(az), z])
        r = draw(st.floats(2e-3, KERNEL_HALF / FS * SPEED_OF_SOUND))
        src = np.clip(center + offsets[draw(st.integers(0, 3))] + r * direction, 0.01 * room, 0.99 * room)
    else:
        src = np.array([draw(unit) for _ in range(3)]) * room
    assume(np.linalg.norm(src - (center + offsets), axis=1).min() > 2e-3)
    absorption = [draw(st.just(1.0) | st.floats(0.05, 1.0)) for _ in range(6)]
    spec = geometry_scene([src], offsets, room, center, absorption)
    return spec, draw(st.integers(0, 12))


@settings(max_examples=40, deadline=None)
@given(image_scenes())
def test_simulate_rir_equals_meshgrid_norm_reference_bitwise(scene):
    spec, order = scene
    with mock.patch.object(roomsim, "_image_order", lambda *window: order):
        rir = simulate_rir(spec, 0, sample_rate=FS)
        taps, direct_taps, num_images = meshgrid_rir(spec, 0)
    assert rir.taps.tobytes() == with_tail(taps, rir).tobytes()
    assert rir.direct_taps.tobytes() == padded(direct_taps, rir).tobytes()
    assert rir.num_images == num_images


def test_window_cuts_low_rt60_cube():
    # at RT60 0.2 s the images stop 43 ms after the direct sound: an order-2 cube, 155 of its images in the window
    spec = geometry_scene([TABLE_SOURCE], tetrahedral_offsets(), rt60=0.2)
    rir = simulate_rir(spec, 0, sample_rate=FS)
    assert rir.tail_onset_s == 0.2 * (13 / 60)
    assert rir.window_radius_m == image_window(spec, 0)[1]
    assert rir.image_order == 2
    assert rir.num_images <= 200
    # the tail, not the images, sets the length: the farthest mic's direct arrival plus RT60
    direct = np.linalg.norm(np.subtract(TABLE_SOURCE, CENTER) - tetrahedral_offsets(), axis=1)
    assert rir.taps.shape[1] == round((direct.max() / SPEED_OF_SOUND + 0.2) * FS)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.5, 20.0), min_size=3, max_size=3),
    st.lists(st.floats(0.01, 0.99), min_size=6, max_size=6),
    st.floats(0.0, 1.0, exclude_max=True),
)
def test_image_order_holds_every_image_in_the_window(room, fracs, reach_frac):
    room = np.array(room)
    src, centre = np.array(fracs[:3]) * room, np.array(fracs[3:]) * room
    reach = float(np.min(2.0 * 13 * room - src - centre))  # what the order-12 cube holds
    radius = reach_frac * reach
    order = roomsim._image_order(room, src, centre, radius)
    assert 0 <= order <= roomsim.MAX_IMAGE_ORDER
    # along each axis, every image coordinate of a wider cube within radius of the centre is in the order's cube
    for d in range(3):
        coords = [(1 - 2 * p) * src[d] + 2 * m * room[d] for p in (0, 1) for m in range(-order - 3, order + 4)]
        inside = [abs(m) <= order for p in (0, 1) for m in range(-order - 3, order + 4)]
        assert all(ok for x, ok in zip(coords, inside) if abs(x - centre[d]) <= radius)


def test_window_keeps_distant_direct_sound(scene_factory, tmp_path):
    # c * t_on is at most 3.7 m here, far less than the 38 m to the source: the window starts at the direct distance
    spec = scene_factory(
        positions=((39.0, 0.5, 0.15),), room=(60.0, 1.0, 0.3), center=(1.0, 0.5, 0.15), rt60=0.05, seconds=0.2
    )
    positions, _, src, _ = image_sources(spec, 0)
    assert (positions == src).all(axis=1).any()
    out = render_scene_to_dir(spec, tmp_path / "scene")
    render = json.loads((out / "truth.json").read_text())["sources"][0]["render"]
    assert render["num_images"] == positions.shape[0]
    # the order-12 cube reaches only 7.5 m up and down from the centre, short of the source: the tail starts at once
    assert render["tail_onset_s"] == 0.0
    assert render["window_radius_m"] == pytest.approx(38.0)
    rir = simulate_rir(spec, 0, sample_rate=FS)
    taps, direct_taps, _ = reference_rir(spec, 0)
    taps, direct_taps = with_tail(taps, rir), padded(direct_taps, rir)
    assert np.abs(rir.taps - taps).max() <= 1e-12 * np.abs(taps).max()
    assert np.abs(rir.direct_taps - direct_taps).max() <= 1e-12 * np.abs(direct_taps).max()


def test_simulate_rir_peak_allocation():
    # a dense all-mic (sample, fraction) grid would need 77-88 MB here
    spec = geometry_scene([(1.2, 3.8, 1.7)], tetrahedral_offsets(), rt60=1.2, absorption=None)
    tracemalloc.start()
    try:
        rir = simulate_rir(spec, 0, sample_rate=FS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rir.image_order == 12
    assert peak <= 32 * 2**20, peak / 2**20


# ---------------------------------------------------------------------------
# Reverberant behavior


def test_rt60_within_twenty_percent(reverberant_rir):
    measured = schroeder_rt60(reverberant_rir)
    assert 0.8 * 0.32 <= measured <= 1.2 * 0.32, measured


@pytest.mark.parametrize("rt60", [0.2, 0.32, 0.6, 0.8, 1.2])
@pytest.mark.parametrize(
    "room, center",
    [((5.57, 5.20, 3.79), (2.8, 2.6, 1.5)), ((8.0, 6.0, 3.5), (4.0, 3.0, 1.5))],
    ids=["reference", "8x6x3.5"],
)
def test_rt60_sweep_within_twenty_percent(room, center, rt60):
    # the ten cases of scripts/rt60_table.py
    spec = geometry_scene([TABLE_SOURCE], tetrahedral_offsets(), room, center, rt60=rt60)
    measured = schroeder_rt60(simulate_rir(spec, 0, sample_rate=FS))
    assert 0.8 * rt60 <= measured <= 1.2 * rt60, measured


def test_decay_curve_monotone(reverberant_rir):
    t, db = schroeder_decay_db(reverberant_rir)
    assert db[0] == pytest.approx(0.0)
    assert np.all(np.diff(db) <= 1e-9)  # backward integral never rises


def test_tail_energy_negligible_after_rt60(reverberant_rir):
    measured = schroeder_rt60(reverberant_rir)
    cut = int(measured * FS)
    energy = (reverberant_rir.taps**2).sum()
    tail = (reverberant_rir.taps[:, cut:] ** 2).sum()
    assert tail <= 1e-6 * energy


def test_tail_is_seeded_and_only_after_onset():
    spec = geometry_scene([(1.2, 3.8, 1.7)], tetrahedral_offsets(), rt60=0.6)
    a, b = simulate_rir(spec, 0, sample_rate=FS), simulate_rir(spec, 0, sample_rate=FS)
    assert a.taps.tobytes() == b.taps.tobytes()
    spec.seed = 1
    c = simulate_rir(spec, 0, sample_rate=FS)
    onset = a.taps.shape[1] - a.tail.shape[1]
    assert onset == round(a.window_radius_m / SPEED_OF_SOUND * FS)
    assert c.direct_taps.tobytes() == a.direct_taps.tobytes()
    assert c.taps[:, :onset].tobytes() == a.taps[:, :onset].tobytes()
    # another draw, not a rounding change, in every mic's reverberant response after onset
    change = np.abs(c.reverb_taps()[:, onset:] - a.reverb_taps()[:, onset:]).max(axis=1)
    assert (change > 0.1 * np.abs(a.tail).max(axis=1)).all()
    # each mic's tail starts at its image level over the 10 ms before onset
    before = np.sqrt(np.mean(a.taps[:, onset - FS // 100 : onset] ** 2, axis=1))
    after = np.sqrt(np.mean(a.tail[:, : FS // 100] ** 2, axis=1))
    np.testing.assert_allclose(after, before, rtol=0.25)


def test_anechoic_scene_has_no_tail():
    rir = simulate_rir(geometry_scene([(1.2, 3.8, 1.7)], tetrahedral_offsets()), 0, sample_rate=FS)
    assert rir.tail is None and rir.tail_onset_s is None and rir.window_radius_m is None


def test_tail_coherence_is_diffuse():
    # one tetrahedral pair, 6.9 cm apart: diffuse-field coherence sinc(2 pi f d / c) falls from 0.76 at 1 kHz
    # to -0.19 at 4 kHz
    spec = geometry_scene([(1.2, 3.8, 1.7)], tetrahedral_offsets(), rt60=1.2)
    rir = simulate_rir(spec, 0, sample_rate=FS)
    d = float(np.linalg.norm(tetrahedral_offsets()[0] - tetrahedral_offsets()[1]))
    n = rir.tail.shape[1] - FS // 10  # clear of the per-mic ends
    flat = rir.tail[:2, :n] * 10.0 ** (3.0 * np.arange(n) / (1.2 * FS))  # the decay undone: stationary noise
    f, cross = csd(flat[0], flat[1], fs=FS, nperseg=256)
    _, p0 = welch(flat[0], fs=FS, nperseg=256)
    _, p1 = welch(flat[1], fs=FS, nperseg=256)
    band = (f >= 1000) & (f <= 4000)
    coherence = cross[band] / np.sqrt(p0[band] * p1[band])
    error = coherence.real - np.sinc(2.0 * f[band] * d / SPEED_OF_SOUND)
    # one tail's per-bin estimate scatters by about 0.06 (0.017 pooled over 8 seeds), with no bias;
    # white noise, coherence 0, would miss by 0.2 on average
    assert abs(error.mean()) <= 0.03
    assert np.abs(error).mean() <= 0.08
    assert np.abs(coherence.imag).mean() <= 0.08


def test_reverb_stem_is_exact_complement(reverberant_rir):
    np.testing.assert_array_equal(
        reverberant_rir.reverb_taps(), reverberant_rir.taps - reverberant_rir.direct_taps
    )
    assert (reverberant_rir.direct_taps != 0.0).any()
    assert (reverberant_rir.reverb_taps() != 0.0).any()


# ---------------------------------------------------------------------------
# Ground truth


def test_ground_truth_doa_axes():
    up = geometry_scene([(CENTER[0], CENTER[1], CENTER[2] + 1.0)], [[0, 0, 0]])
    c = ground_truth_doa(up, 0)
    assert c.polar == pytest.approx(0.0, abs=1e-12)

    px = geometry_scene([(CENTER[0] + 1.5, CENTER[1], CENTER[2])], [[0, 0, 0]])
    c = ground_truth_doa(px, 0)
    assert c.polar == pytest.approx(math.pi / 2)
    assert c.azimuth == pytest.approx(0.0, abs=1e-12)

    diag = geometry_scene([(CENTER[0] + 1.0, CENTER[1] + 1.0, CENTER[2])], [[0, 0, 0]])
    c = ground_truth_doa(diag, 0)
    assert c.azimuth == pytest.approx(math.pi / 4)


def test_ground_truth_doa_at_center_rejected():
    spec = geometry_scene([CENTER], [[0.1, 0, 0]])
    with pytest.raises(SimulationError):
        ground_truth_doa(spec, 0)


def test_frame_activation_gating():
    x = np.zeros((1, 16000))
    rng = np.random.default_rng(1)
    x[0, 8000:] = rng.standard_normal(8000)
    act = frame_activation(MultichannelWaveform(x, FS))
    t = frame_count(16000, 512, 256)
    assert act.shape == (t,)
    assert set(np.unique(act)) <= {0.0, 1.0}
    assert np.all(act[:28] == 0.0)  # frames fully inside the silent half
    assert np.all(act[32:] == 1.0)


def test_frame_activation_silence():
    act = frame_activation(MultichannelWaveform(np.zeros((2, 8000)), FS))
    assert np.all(act == 0.0)


def loop_frame_rms(x, fft_size, hop):
    """The per-frame RMS loop frame_activation replaced."""
    t_frames = frame_count(x.shape[1], fft_size, hop)
    padded = np.zeros((x.shape[0], (t_frames - 1) * hop + fft_size))
    padded[:, : x.shape[1]] = x
    rms = np.empty(t_frames)
    for t in range(t_frames):
        seg = padded[:, t * hop : t * hop + fft_size]
        rms[t] = np.sqrt((seg**2).mean())
    return rms


@pytest.mark.parametrize(
    "channels, samples, fft_size, hop",
    [(1, 16000, 512, 256), (4, 8000, 512, 256), (3, 1001, 64, 24), (2, 500, 100, 37), (3, 1001, 64, 64), (2, 40, 64, 16)],
    ids=["mono", "bench", "hop-not-dividing", "three-phases", "hop-equals-fft", "shorter-than-frame"],
)
def test_frame_rms_equals_per_frame_loop_bitwise(channels, samples, fft_size, hop):
    rng = np.random.default_rng(samples + hop)
    # a swelling envelope so the -40 dB gate splits the frames
    x = rng.standard_normal((channels, samples)) * np.geomspace(1e-4, 1.0, samples)
    want = loop_frame_rms(x, fft_size, hop)
    got = roomsim._frame_rms(x, fft_size, hop)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    # frame_activation gates the RMS on the frame grid truth.json records
    rms = loop_frame_rms(x, roomsim.FFT_SIZE, roomsim.HOP)
    gate = rms.max() * 10.0 ** (roomsim.ACTIVATION_GATE_DB / 20.0)
    act = frame_activation(MultichannelWaveform(x, FS))
    assert np.array_equal(act, (rms >= gate).astype(np.float64))


# ---------------------------------------------------------------------------
# Scene rendering


def test_render_anechoic_tdoa(tmp_path):
    # two mics 6.86 cm apart on x: endfire arrival difference is 200 us
    wav = tmp_path / "s.wav"
    make_noise_wav(wav, seconds=0.3, seed=9)
    spec = SceneSpec(
        room_dims=list(ROOM),
        array_center=list(CENTER),
        array_offsets=np.array([[0.0343, 0.0, 0.0], [-0.0343, 0.0, 0.0]]),
        sources=[
            SourceSpec(
                position=[CENTER[0] + 2.0, CENTER[1], CENTER[2]],
                class_label="c",
                gain_db=0.0,
                wav=str(wav),
            )
        ],
        absorption=[1.0] * 6,
    )
    mixture, _ = render_scene(spec)
    itd = gcc_phat_itd(mixture, (0, 1), max_lag_s=5e-4)
    assert itd == pytest.approx(200e-6, abs=1.0 / FS)


def test_decay_time_ceiling():
    spec = geometry_scene([(1.2, 3.8, 1.7)], tetrahedral_offsets(), rt60=roomsim.MAX_DECAY_S)
    assert roomsim._decay_time(spec, roomsim._wall_absorptions(spec)) == roomsim.MAX_DECAY_S
    spec.rt60_s = math.nextafter(roomsim.MAX_DECAY_S, math.inf)
    with pytest.raises(SimulationError, match="above the 60 s the simulator builds"):
        roomsim._decay_time(spec, roomsim._wall_absorptions(spec))


def test_render_stems_match_full_convolution(scene_factory):
    spec = scene_factory(rt60=0.25, absorption=None, seconds=0.25)
    mixture, truth = render_scene(spec)
    sig = read_wav(spec.sources[0].wav).samples[0]
    rir = simulate_rir(spec, 0, sample_rate=FS)
    full = fftconvolve(sig[None, :], rir.taps, axes=1)[:, : mixture.num_samples]
    stems = truth.sources[0].direct.samples + truth.sources[0].reverb.samples
    assert np.abs(stems - full).max() <= 1e-9
    # each stem is one call of the stem convolution, bit for bit
    direct, reverb = truth.sources[0].direct.samples, truth.sources[0].reverb.samples
    assert direct.tobytes() == roomsim.fftconvolve(sig, rir.direct_taps, mixture.num_samples).tobytes()
    assert reverb.tobytes() == roomsim.fftconvolve(sig, rir.reverb_taps(), mixture.num_samples).tobytes()


def _direct_taps(offsets, move_to=None) -> np.ndarray:
    """The direct RIR of a source in the reference room, its non-zero span moved to start at move_to if given."""
    taps = simulate_rir(geometry_scene([(1.2, 3.8, 1.7)], offsets, rt60=0.32), 0, sample_rate=FS).direct_taps
    if move_to is None:
        return taps
    cols = np.flatnonzero(taps.any(axis=0))
    span = taps[:, cols[0] : cols[-1] + 1]
    out = np.zeros((taps.shape[0], move_to + span.shape[1] + 7))
    out[:, move_to : move_to + span.shape[1]] = span
    return out


def _far_apart_taps() -> np.ndarray:
    """Two mics whose arrivals are 2400 samples (~51 m) apart: a span wider than BLOCK_FFT, so one block."""
    taps = np.zeros((2, 3000))
    taps[0, 100 : 100 + KERNEL_TAPS] = fractional_delay_kernel(0.3)
    taps[1, 2500 : 2500 + KERNEL_TAPS] = 0.2 * fractional_delay_kernel(0.7)
    return taps


def test_fft_length_matches_scipy():
    lengths = range(1, 20001)
    assert [roomsim._fft_length(n) for n in lengths] == [next_fast_len(n, real=True) for n in lengths]


def order_12_rir():
    rir = simulate_rir(geometry_scene([(1.2, 3.8, 1.7)], tetrahedral_offsets(), rt60=1.2), 0, sample_rate=FS)
    assert rir.image_order == 12
    return rir.taps


@pytest.mark.parametrize(
    "taps, source_samples, scene_samples",
    [
        (lambda rng: _direct_taps(tetrahedral_offsets()), 30, 30),  # the direct sound arrives after the last sample
        (lambda rng: _direct_taps(tetrahedral_offsets()), 300, 2000),  # a source shorter than one block
        (lambda rng: _direct_taps(tetrahedral_offsets()), 900, 2000),  # its convolution runs past its one block's end
        (lambda rng: _direct_taps(np.zeros((1, 3))), 5000, 5000),  # a one-mic array
        (lambda rng: _direct_taps(tetrahedral_offsets(), roomsim.BLOCK_FFT - 40), 3000, 4000),  # straddles column BLOCK_FFT
        (lambda rng: _direct_taps(tetrahedral_offsets()), 4 * FS, 4 * FS),  # a 4 s source, many blocks
        (lambda rng: _far_apart_taps(), 5000, 6000),  # a span longer than the source's blocks would be
        (lambda rng: rng.standard_normal((4, 300)), 50, 349),  # signal shorter than the taps, in full
        (lambda rng: rng.standard_normal((4, 1)), 1000, 1000),  # one tap
        (lambda rng: rng.standard_normal((4, 102)), 1000, 1101),  # odd output length
        (lambda rng: order_12_rir(), 4 * FS, 5 * FS + 4000),  # a 4 s source through an order-12 RIR, in full
        (lambda rng: np.zeros((4, 500)), 1000, 1200),  # all-zero taps: an anechoic room's reverberant RIR
        (lambda rng: order_12_rir(), 300, 4000),  # one block shorter than its overlap
        (lambda rng: order_12_rir(), 5000, 3000),  # the order-12 RIR cut to a shorter scene
        (lambda rng: rng.standard_normal((4, 300)), 50, 600),  # a scene longer than the whole convolution
    ],
    ids=[
        "arrives_after_scene", "short_source", "past_block_end", "one_mic", "span_straddles_block", "4s_source",
        "span_wider_than_a_block", "short_signal", "one_tap", "odd_length", "4s_order_12", "all_zero_taps",
        "order_12_short_source", "order_12_cut_to_scene", "short_signal_padded_scene",
    ],
)
def test_stem_convolution_matches_scipy(taps, source_samples, scene_samples):
    rng = np.random.default_rng(source_samples)
    sig = rng.standard_normal(source_samples)
    taps = taps(rng)
    full = fftconvolve(sig[None, :], taps, axes=1)
    ref = np.zeros((taps.shape[0], scene_samples))  # full, cut or zero-padded to the scene length
    ref[:, : full.shape[1]] = full[:, :scene_samples]
    out = roomsim.fftconvolve(sig, taps, scene_samples)
    assert out.shape == ref.shape
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(full).max()
    if not taps[:, :scene_samples].any():  # nothing arrives inside the scene: exact zeros, not rounding
        assert not out.any()


def test_stem_convolution_of_empty_signal_is_zero():
    # a scene may hold an empty source next to a longer one
    out = roomsim.fftconvolve(np.zeros(0), order_12_rir(), 4000)
    assert out.shape == (4, 4000) and not out.any()


def test_render_mixture_is_exact_stem_sum(scene_factory):
    spec = scene_factory(
        positions=((1.2, 3.8, 1.7), (4.1, 1.4, 2.2)), rt60=0.22, absorption=None, seconds=0.2
    )
    mixture, truth = render_scene(spec)
    acc = np.zeros_like(mixture.samples)
    for s in truth.sources:
        acc += s.direct.samples + s.reverb.samples
    np.testing.assert_array_equal(mixture.samples, acc)


def test_render_mono_noise_adds_to_stem_sum(scene_factory, tmp_path):
    spec = scene_factory(
        positions=((1.2, 3.8, 1.7), (4.1, 1.4, 2.2)), rt60=0.22, absorption=None, seconds=0.2
    )
    noise = make_noise_wav(tmp_path / "noise.wav", seconds=0.3, seed=9)  # longer than the scene
    spec.noise = NoiseSpec(wav=str(tmp_path / "noise.wav"), gain_db=-6.0)
    mixture, truth = render_scene(spec)
    num_samples = mixture.num_samples
    assert num_samples == int(0.2 * FS)
    # mono noise is cut to the scene, scaled, and the same on every mic
    want = read_wav(tmp_path / "noise.wav").samples[0, :num_samples] * 10.0 ** (-6.0 / 20.0)
    assert noise.num_samples > num_samples
    np.testing.assert_array_equal(truth.noise.samples, np.repeat(want[None, :], 4, axis=0))
    acc = np.zeros_like(mixture.samples)
    for s in truth.sources:
        acc += s.direct.samples + s.reverb.samples
    np.testing.assert_array_equal(mixture.samples, acc + truth.noise.samples)


def test_render_gain_scales_stems(scene_factory):
    a = scene_factory(seconds=0.2, gain_db=0.0)
    b = scene_factory(seconds=0.2, gain_db=20.0 * math.log10(2.0))
    _, ta = render_scene(a)
    _, tb = render_scene(b)
    np.testing.assert_allclose(
        tb.sources[0].direct.samples, 2.0 * ta.sources[0].direct.samples, rtol=1e-12, atol=0
    )


def test_render_determinism(scene_factory):
    spec = scene_factory(rt60=0.22, absorption=None, seconds=0.2)
    a, _ = render_scene(spec)
    b, _ = render_scene(spec)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_render_rejects_rate_mismatch(scene_factory, tmp_path):
    spec = scene_factory(positions=((1.2, 3.8, 1.7), (4.1, 1.4, 2.2)), seconds=0.2)
    make_noise_wav(tmp_path / "s1.wav", seconds=0.2, rate=8000)  # overwrite second source
    with pytest.raises(SimulationError, match="sample rate"):
        render_scene(spec)


def test_render_rejects_stereo_source(scene_factory, tmp_path):
    spec = scene_factory(seconds=0.2)
    make_noise_wav(tmp_path / "s0.wav", seconds=0.2, channels=2)
    with pytest.raises(SimulationError, match="mono"):
        render_scene(spec)


def test_render_scene_to_dir_layout(scene_factory, tmp_path):
    spec = scene_factory(seconds=0.2)
    out = render_scene_to_dir(spec, tmp_path / "scene")
    assert (out / "mixture.wav").exists()
    assert (out / "src0_direct.wav").exists()
    assert (out / "src0_reverb.wav").exists()
    truth = json.loads((out / "truth.json").read_text())
    assert truth["sample_rate"] == FS
    assert truth["frame"] == {"fft_size": 512, "hop": 256}
    assert len(truth["array_offsets"]) == 4
    src = truth["sources"][0]
    doa = ground_truth_doa(spec, 0)
    assert src["azimuth"] == pytest.approx(doa.azimuth)
    assert src["polar"] == pytest.approx(doa.polar)
    assert src["class"] == "class0"
    mix = read_wav(out / "mixture.wav")
    assert mix.num_channels == 4
    t = frame_count(mix.num_samples, 512, 256)
    assert len(src["activation"]) == t


def test_read_scene_dir_round_trip(scene_factory, tmp_path):
    spec = scene_factory(positions=((1.2, 3.8, 1.7), (4.1, 1.4, 2.2)), rt60=0.32, seconds=0.2)
    mixture, truth = render_scene(spec)
    out = render_scene_to_dir(spec, tmp_path / "scene")
    doas, offsets, read_mixture = roomsim.read_scene_dir(out)
    assert doas == [ground_truth_doa(spec, j) for j in range(2)]
    assert np.array_equal(offsets, spec.array_offsets)
    assert np.array_equal(read_mixture.samples, mixture.samples.astype(np.float32))
    for j, st in enumerate(truth.sources):
        ref = roomsim.read_source_reference(out, j, len(doas))
        want = np.add(st.direct.samples.astype(np.float32), st.reverb.samples.astype(np.float32), dtype=np.float64)
        assert np.array_equal(ref.samples, want)
    with pytest.raises(ValueError, match="source 2 out of range; scene has 2"):
        roomsim.read_source_reference(out, 2, len(doas))


def test_truth_render_block_reverberant(scene_factory, tmp_path):
    spec = scene_factory(rt60=1.2, absorption=None, seconds=0.2)
    a = render_scene_to_dir(spec, tmp_path / "a")
    b = render_scene_to_dir(spec, tmp_path / "b")
    assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()
    render = json.loads((a / "truth.json").read_text())["sources"][0]["render"]
    rir = simulate_rir(spec, 0, sample_rate=FS)
    measured = schroeder_rt60(rir)
    assert render == {
        "image_order": 12,
        "num_images": rir.num_images,
        "window_radius_m": np.linalg.norm(np.subtract((1.2, 3.8, 1.7), CENTER)) + SPEED_OF_SOUND * (1.2 * (13 / 60)),
        "tail_onset_s": 1.2 * (13 / 60),
        "rt60_requested_s": 1.2,
        "rt60_measured_s": measured,
        "rt60_rel_err": abs(measured - 1.2) / 1.2,
    }
    assert 0 < render["num_images"] <= 50**3


def test_truth_render_block_anechoic(scene_factory, tmp_path):
    out = render_scene_to_dir(scene_factory(seconds=0.2), tmp_path / "scene")
    render = json.loads((out / "truth.json").read_text())["sources"][0]["render"]
    assert render == {
        "image_order": 0,
        "num_images": 1,
        "window_radius_m": None,
        "tail_onset_s": None,
        "rt60_requested_s": None,
        "rt60_measured_s": None,
        "rt60_rel_err": None,
    }
