"""Shoebox-room impulse responses by the image-source method, scene rendering.

Images of a source at s inside a box [0,L] are at (1-2p)*s + 2m*L for
p in {0,1}^3 and integer m per axis; the image reflects |m_d - p_d| times off
the wall at 0 and |m_d| times off the wall at L along each axis d. Each image
contributes an attenuated, fractionally delayed copy: amplitude
(product of wall reflection coefficients) / (4 pi distance), delay d/c.

Rendering convolves each source with its RIR, splitting the zeroth-order
(direct) tap from the rest so direct and reverberant stems are separate
targets; their sum equals the full convolution by linearity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import MultichannelWaveform, json_array, read_json, read_wav, write_json, write_wav
from .clues import DoAClue
from .delays import KERNEL_HALF, KERNEL_TAPS, SPEED_OF_SOUND, fractional_delay_kernel
from .scenes import SceneSpec
from .spectral import FFT_SIZE, HOP, frame_view

MAX_IMAGE_ORDER = 12
MIN_SOURCE_MIC_DISTANCE = 1e-3  # 1 mm
ACTIVATION_GATE_DB = -40.0

# arrivals are placed on a grid of 1/64 sample; row q is the kernel for fraction q/64
DELAY_FRACTIONS = 64
KERNEL_TABLE = np.stack([fractional_delay_kernel(q / DELAY_FRACTIONS) for q in range(DELAY_FRACTIONS)])
KERNEL_TABLE.flags.writeable = False
SCATTER_BLOCK_ROWS = 2048  # bounds the [rows, KERNEL_TAPS] product held at once


class SimulationError(ValueError):
    pass


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, the transform length scipy.signal.fftconvolve picks."""
    k = n.bit_length()
    return min(m << (-(-n // m) - 1).bit_length() for m in (3**b * 5**c for b in range(k) for c in range(k)))


# module-level binding: perfbench traces stem convolution through roomsim.fftconvolve
def fftconvolve(sig: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Full linear convolution of a [1, S] signal with each row of [M, L] taps: [M, S + L - 1]."""
    n = sig.shape[-1] + taps.shape[-1] - 1
    nfft = _fft_length(n)
    return np.fft.irfft(np.fft.rfft(sig, nfft) * np.fft.rfft(taps, nfft), nfft)[..., :n]


def _sabine(room_dims, x: float) -> float:
    """Sabine's 0.161 V / (x S): the absorption for decay time x, or the decay time for absorption x."""
    lx, ly, lz = (float(v) for v in room_dims)
    return 0.161 * (lx * ly * lz) / (x * (2.0 * (lx * ly + ly * lz + lx * lz)))


def sabine_absorption(room_dims, rt60: float) -> float:
    """Uniform wall absorption giving the requested decay time (Sabine)."""
    if rt60 <= 0:
        raise SimulationError(f"rt60 must be positive, got {rt60}")
    alpha = _sabine(room_dims, rt60)
    if alpha > 1.0:
        raise SimulationError(
            f"rt60 {rt60} s is unreachable for this room (needs absorption {alpha:.2f} > 1)"
        )
    return alpha


def _wall_absorptions(spec: SceneSpec) -> np.ndarray:
    """Six absorption coefficients: x=0, x=L, y=0, y=L, z=0, z=L."""
    if spec.absorption is not None:
        return np.asarray(spec.absorption, dtype=np.float64)
    return np.full(6, sabine_absorption(spec.room_dims, spec.rt60_s))


def _image_order(spec: SceneSpec, absorptions: np.ndarray) -> tuple[int, bool]:
    """Image order that covers the decay time, and whether MAX_IMAGE_ORDER cut it."""
    rt60 = spec.rt60_s
    if rt60 is None:
        rt60 = _sabine(spec.room_dims, max(float(absorptions.mean()), 1e-6))
    order = math.ceil(rt60 * SPEED_OF_SOUND / min(spec.room_dims)) + 1
    return min(order, MAX_IMAGE_ORDER), order > MAX_IMAGE_ORDER


@dataclass
class RoomImpulseResponse:
    taps: np.ndarray  # [M, L] full response
    direct_taps: np.ndarray  # [M, L] zeroth-order image only
    sample_rate: int
    direct_tap_index: np.ndarray  # [M] nearest integer arrival per channel
    image_order: int  # reflection order per axis the image cube spans
    order_capped: bool  # MAX_IMAGE_ORDER cut the order the decay time asked for
    num_images: int  # images with non-negligible gain

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.float64)
        self.direct_taps = np.asarray(self.direct_taps, dtype=np.float64)
        self.direct_tap_index = np.asarray(self.direct_tap_index, dtype=np.int64)
        if self.taps.ndim != 2:
            raise ValueError("taps must be [M, L]")
        if self.direct_taps.shape != self.taps.shape:
            raise ValueError("direct_taps must match taps shape")
        if self.direct_tap_index.shape != (self.taps.shape[0],):
            raise ValueError("need one direct tap index per channel")

    @property
    def num_channels(self) -> int:
        return self.taps.shape[0]

    def reverb_taps(self) -> np.ndarray:
        """Everything the zeroth-order image does not account for; exact complement."""
        return self.taps - self.direct_taps


def _image_sources(src, room, betas, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions [I, 3] and reflection gains [I] of the live images up to order."""
    ms = np.arange(-order, order + 1)
    # per-axis image coordinates and reflection-coefficient products
    axis_coords, axis_gains = [], []
    for d in range(3):
        coords, gains = [], []
        for p in (0, 1):
            c = (1 - 2 * p) * src[d] + 2 * ms * room[d]
            g = betas[2 * d] ** np.abs(ms - p) * betas[2 * d + 1] ** np.abs(ms)
            coords.append(c)
            gains.append(g)
        axis_coords.append(np.concatenate(coords))
        axis_gains.append(np.concatenate(gains))

    cx, cy, cz = np.meshgrid(*axis_coords, indexing="ij")
    gx, gy, gz = np.meshgrid(*axis_gains, indexing="ij")
    positions = np.stack([cx.ravel(), cy.ravel(), cz.ravel()], axis=1)  # [I, 3]
    gains = (gx * gy * gz).ravel()
    keep = gains > 1e-12
    return positions[keep], gains[keep]


def _quantize(delays):
    """Whole-sample and 1/64-fraction parts of delays.

    A fraction that rounds to 64/64 moves to the next sample.
    """
    d_int = np.floor(delays).astype(np.int64)
    q = np.round((delays - d_int) * DELAY_FRACTIONS).astype(np.int64)
    d_int = d_int + (q == DELAY_FRACTIONS)
    return d_int, np.where(q == DELAY_FRACTIONS, 0, q)


def _scatter(out: np.ndarray, d_int: np.ndarray, q: np.ndarray, amps: np.ndarray) -> None:
    """Add amps[i] * KERNEL_TABLE[q[i]] into out with tap k at d_int[i] - KERNEL_HALF + k.

    Images are binned by (sample, fraction), the bins are filtered through the
    kernel table, and each of the KERNEL_TAPS columns is added at its shift.
    Taps before sample 0 are dropped; out must extend KERNEL_HALF past d_int.max().
    """
    rows = int(d_int.max()) + 1
    grid = np.bincount(d_int * DELAY_FRACTIONS + q, weights=amps, minlength=rows * DELAY_FRACTIONS)
    grid = grid.reshape(rows, DELAY_FRACTIONS)
    for r0 in range(0, rows, SCATTER_BLOCK_ROWS):
        block = KERNEL_TABLE.T @ grid[r0 : r0 + SCATTER_BLOCK_ROWS].T  # [KERNEL_TAPS, n]
        n = block.shape[1]
        for k in range(KERNEL_TAPS):
            lo = r0 - KERNEL_HALF + k
            skip = max(0, -lo)
            if skip < n:
                out[lo + skip : lo + n] += block[k, skip:]


def simulate_rir(spec: SceneSpec, source_index: int, sample_rate: int = 16000) -> RoomImpulseResponse:
    """Image-source RIR from one source to every array mic."""
    spec.validate()
    if not (0 <= source_index < len(spec.sources)):
        raise SimulationError(f"source index {source_index} out of range")
    room = np.asarray(spec.room_dims, dtype=np.float64)
    src = np.asarray(spec.sources[source_index].position, dtype=np.float64)
    mics = np.asarray(spec.array_center, dtype=np.float64) + spec.array_offsets

    absorptions = _wall_absorptions(spec)
    betas = np.sqrt(np.clip(1.0 - absorptions, 0.0, 1.0))  # pairs per axis
    # an anechoic room has only the direct image
    order, capped = (0, False) if np.all(betas == 0.0) else _image_order(spec, absorptions)

    positions, gains = _image_sources(src, room, betas, order)
    if positions.shape[0] == 0:
        raise SimulationError("no live image sources; absorption layout degenerate")

    fs = sample_rate
    num_mics = mics.shape[0]
    # the same norm as the image distances, so an anechoic RIR equals its direct part bit for bit
    direct_dists = np.linalg.norm(src - mics, axis=1)
    near = np.flatnonzero(direct_dists < MIN_SOURCE_MIC_DISTANCE)
    if near.size:
        raise SimulationError(
            f"source {source_index} is within 1 mm of mic {near[0]}; geometry degenerate"
        )
    dists = np.empty((num_mics, positions.shape[0]))
    for mi in range(num_mics):
        dists[mi] = np.maximum(np.linalg.norm(positions - mics[mi], axis=1), MIN_SOURCE_MIC_DISTANCE)
    del positions

    # the farthest image sets each channel's length; the longest channel sets the RIR's
    last, _ = _quantize(dists.max(axis=1) / SPEED_OF_SOUND * fs)
    max_len = int(last.max()) + KERNEL_TAPS + 1
    out = np.zeros((num_mics, max_len))
    out_direct = np.zeros((num_mics, max_len))
    direct_delays = direct_dists / SPEED_OF_SOUND * fs
    dd_int, dq = _quantize(direct_delays)
    for mi in range(num_mics):
        d_int, q = _quantize(dists[mi] / SPEED_OF_SOUND * fs)
        _scatter(out[mi], d_int, q, gains / (4.0 * np.pi * dists[mi]))

        # same amplitude expression as the image sum
        kernel = 1.0 / (4.0 * np.pi * direct_dists[mi]) * KERNEL_TABLE[dq[mi]]
        lo = int(dd_int[mi]) - KERNEL_HALF
        skip = max(0, -lo)
        out_direct[mi, lo + skip : lo + KERNEL_TAPS] = kernel[skip:]

    direct_idx = np.round(direct_delays).astype(np.int64)
    return RoomImpulseResponse(
        out, out_direct, fs, direct_idx, image_order=order, order_capped=capped, num_images=gains.shape[0]
    )


def ground_truth_doa(spec: SceneSpec, source_index: int) -> DoAClue:
    src = np.asarray(spec.sources[source_index].position, dtype=np.float64)
    center = np.asarray(spec.array_center, dtype=np.float64)
    v = src - center
    if np.linalg.norm(v) < MIN_SOURCE_MIC_DISTANCE:
        raise SimulationError(f"source {source_index} sits at the array center")
    return DoAClue.from_vector(v)


def _frame_rms(x: np.ndarray, fft_size: int, hop: int) -> np.ndarray:
    """RMS over all channels of each frame of [M, S] samples, [T]."""
    frames = np.moveaxis(frame_view(x, fft_size, hop), -2, 0)  # [T, M, N]
    # squared into one contiguous row per frame: each mean sums its M*N values in the
    # order a per-frame (seg**2).mean() does, so the result matches it bit for bit
    return np.sqrt(np.square(frames, order="C").reshape(frames.shape[0], -1).mean(axis=1))


def frame_activation(direct: MultichannelWaveform) -> np.ndarray:
    """Binary per-frame activity of a stem on the FFT_SIZE/HOP grid: frame RMS gated at -40 dB of peak."""
    rms = _frame_rms(direct.samples, FFT_SIZE, HOP)
    peak = rms.max()
    if peak == 0.0:
        return np.zeros(rms.shape[0])
    gate = peak * 10.0 ** (ACTIVATION_GATE_DB / 20.0)
    return (rms >= gate).astype(np.float64)


@dataclass
class SourceTruth:
    direct: MultichannelWaveform
    reverb: MultichannelWaveform
    doa: DoAClue
    activation: np.ndarray
    class_label: str
    position: np.ndarray
    render: dict  # what the simulator built for this source; see _render_record


@dataclass
class SceneTruth:
    sources: list
    noise: MultichannelWaveform | None
    sample_rate: int


def _load_source_signal(path, expect_rate: int | None) -> tuple[np.ndarray, int]:
    w = read_wav(path)
    if expect_rate is not None and w.sample_rate != expect_rate:
        raise SimulationError(
            f"{path}: sample rate {w.sample_rate} != scene rate {expect_rate}"
        )
    if w.num_channels != 1:
        raise SimulationError(f"{path}: source signals must be mono, got {w.num_channels} channels")
    return w.samples[0], w.sample_rate


def render_scene(spec: SceneSpec, base_dir=None) -> tuple[MultichannelWaveform, SceneTruth]:
    """Convolve every source with its RIR; return mixture and per-source truth.

    WAV paths in the scene spec resolve relative to base_dir when given. All
    signals must share one sample rate; stems are trimmed to the longest
    source length S so mixture and stems align sample-for-sample.
    """
    spec.validate()

    def resolve(p):
        p = Path(p)
        return p if p.is_absolute() or base_dir is None else Path(base_dir) / p

    signals = []
    rate = None
    for j, s in enumerate(spec.sources):
        sig, rate = _load_source_signal(resolve(s.wav), rate)
        signals.append(sig * 10.0 ** (s.gain_db / 20.0))
    num_samples = max(sig.shape[0] for sig in signals)

    num_mics = spec.array_offsets.shape[0]
    mixture = np.zeros((num_mics, num_samples))
    truths = []
    for j, sig in enumerate(signals):
        rir = simulate_rir(spec, j, sample_rate=rate)
        direct = _fit_length(fftconvolve(sig[None, :], rir.direct_taps), num_samples)
        reverb = _fit_length(fftconvolve(sig[None, :], rir.reverb_taps()), num_samples)
        dw = MultichannelWaveform(direct, rate)
        rw = MultichannelWaveform(reverb, rate)
        mixture += direct + reverb
        truths.append(
            SourceTruth(
                direct=dw,
                reverb=rw,
                doa=ground_truth_doa(spec, j),
                activation=frame_activation(dw),
                class_label=spec.sources[j].class_label,
                position=np.asarray(spec.sources[j].position, dtype=np.float64),
                render=_render_record(spec, rir),
            )
        )

    noise_w = None
    if spec.noise is not None:
        nw = read_wav(resolve(spec.noise.wav))
        if nw.sample_rate != rate:
            raise SimulationError(
                f"noise rate {nw.sample_rate} != scene rate {rate}"
            )
        n = nw.samples
        if n.shape[1] < num_samples:
            raise SimulationError(
                f"noise is {n.shape[1]} samples, scene needs {num_samples}"
            )
        n = n[:, :num_samples]
        if n.shape[0] == 1:
            n = np.repeat(n, num_mics, axis=0)
        elif n.shape[0] != num_mics:
            raise SimulationError(
                f"noise has {n.shape[0]} channels, array has {num_mics}"
            )
        n = n * 10.0 ** (spec.noise.gain_db / 20.0)
        noise_w = MultichannelWaveform(n, rate)
        mixture = mixture + n

    return MultichannelWaveform(mixture, rate), SceneTruth(truths, noise_w, rate)


def _fit_length(x: np.ndarray, n: int) -> np.ndarray:
    if x.shape[1] >= n:
        return x[:, :n]
    out = np.zeros((x.shape[0], n))
    out[:, : x.shape[1]] = x
    return out


def schroeder_decay_db(rir: RoomImpulseResponse) -> tuple[np.ndarray, np.ndarray]:
    """Backward-integrated energy decay curve in dB, channel-energy pooled."""
    energy = (rir.taps**2).sum(axis=0)
    edc = np.cumsum(energy[::-1])[::-1]
    total = edc[0]
    if total <= 0:
        raise SimulationError("impulse response has no energy")
    t = np.arange(energy.shape[0]) / rir.sample_rate
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.maximum(edc / total, 1e-30))
    return t, db


def schroeder_rt60(rir: RoomImpulseResponse) -> float:
    """RT60 from the -5..-25 dB span of the Schroeder curve, extrapolated x3."""
    t, db = schroeder_decay_db(rir)
    t5 = _crossing_time(t, db, -5.0)
    t25 = _crossing_time(t, db, -25.0)
    if t25 <= t5:
        raise SimulationError("decay curve too short to measure RT60")
    return 3.0 * (t25 - t5)


def _crossing_time(t: np.ndarray, db: np.ndarray, level: float) -> float:
    below = np.flatnonzero(db <= level)
    if below.size == 0:
        raise SimulationError(f"decay never reaches {level} dB")
    i = below[0]
    if i == 0:
        return float(t[0])
    # linear interpolation between the straddling samples
    d0, d1 = db[i - 1], db[i]
    w = (level - d0) / (d1 - d0)
    return float(t[i - 1] + w * (t[i] - t[i - 1]))


def _render_record(spec: SceneSpec, rir: RoomImpulseResponse) -> dict:
    """Image order and count an RIR was built from, and its requested vs measured RT60.

    rt60_requested_s is None when the scene gives absorption directly;
    rt60_measured_s is None for an anechoic RIR or a decay too short to measure.
    """
    measured = None
    if rir.image_order > 0:
        try:
            measured = schroeder_rt60(rir)
        except SimulationError:
            pass
    return {
        "image_order": rir.image_order,
        "order_capped": rir.order_capped,
        "num_images": rir.num_images,
        "rt60_requested_s": None if spec.rt60_s is None else float(spec.rt60_s),
        "rt60_measured_s": measured,
    }


# ---------------------------------------------------------------------------
# Batch rendering and truth serialization


def truth_to_dict(spec: SceneSpec, truth: SceneTruth, num_samples: int) -> dict:
    return {
        "sample_rate": truth.sample_rate,
        "num_samples": num_samples,
        "room_dims": list(map(float, spec.room_dims)),
        "array_center": list(map(float, spec.array_center)),
        "array_offsets": np.asarray(spec.array_offsets, dtype=np.float64).tolist(),
        "frame": {"fft_size": FFT_SIZE, "hop": HOP},
        "sources": [
            {
                "azimuth": st.doa.azimuth,
                "polar": st.doa.polar,
                "class": st.class_label,
                "position": st.position.tolist(),
                "activation": st.activation.tolist(),
                "render": st.render,
            }
            for st in truth.sources
        ],
    }


def render_scene_to_dir(spec: SceneSpec, out_dir, base_dir=None) -> Path:
    """Write mixture.wav, per-source stems, and truth.json under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mixture, truth = render_scene(spec, base_dir=base_dir)
    write_wav(mixture, out_dir / "mixture.wav")
    for j, st in enumerate(truth.sources):
        write_wav(st.direct, out_dir / f"src{j}_direct.wav")
        write_wav(st.reverb, out_dir / f"src{j}_reverb.wav")
    write_json(truth_to_dict(spec, truth, mixture.num_samples), out_dir / "truth.json")
    return out_dir


def read_scene_dir(scene_dir) -> tuple[list[DoAClue], np.ndarray, MultichannelWaveform]:
    """Source bearings, [M, 3] array offsets and mixture of a render_scene_to_dir output.

    Every fault in truth.json raises one ValueError that names the file.
    """
    truth_path = Path(scene_dir, "truth.json")
    if not truth_path.exists():
        raise ValueError(f"{truth_path.parent}: no truth.json (is this a simulate output dir?)")
    truth = read_json(truth_path, keys=("sources", "array_offsets"))
    sources = truth["sources"]
    try:  # json_array refuses strings, bools and 10**400; DoAClue NaN, Infinity and a polar outside [0, pi]
        if not isinstance(sources, list):
            raise TypeError
        doas = [DoAClue(*json_array([s["azimuth"], s["polar"]], truth_path).tolist()) for s in sources]
    except (TypeError, KeyError, ValueError):
        raise ValueError(f"{truth_path}: sources must be objects with a numeric azimuth and a polar in [0, pi]") from None
    try:
        offsets = json_array(truth["array_offsets"], truth_path)
    except ValueError:  # e.g. "0.04", true, an object, a ragged list, or 10**400
        offsets = np.empty(0)
    mixture = read_wav(Path(scene_dir, "mixture.wav"))
    if offsets.shape != (mixture.num_channels, 3) or not np.isfinite(offsets).all():
        raise ValueError(f"{truth_path}: array_offsets must be a finite [{mixture.num_channels}, 3] matrix")
    return doas, offsets, mixture


def read_source_reference(scene_dir, j: int, num_sources: int) -> MultichannelWaveform:
    """Source j's reference as render_scene_to_dir wrote it: its direct plus its reverberant stem."""
    if not (0 <= j < num_sources):
        raise ValueError(f"source {j} out of range; scene has {num_sources}")
    direct = read_wav(Path(scene_dir, f"src{j}_direct.wav"))
    reverb = read_wav(Path(scene_dir, f"src{j}_reverb.wav"))
    return MultichannelWaveform(direct.samples + reverb.samples, direct.sample_rate)
