"""Shoebox-room impulse responses by the image-source method, scene rendering.

Images of a source at s inside a box [0,L] are at (1-2p)*s + 2m*L for
p in {0,1}^3 and integer m per axis; the image reflects |m_d - p_d| times off
the wall at 0 and |m_d| times off the wall at L along each axis d. Each image
contributes an attenuated, fractionally delayed copy: amplitude
(product of wall reflection coefficients) / (4 pi distance), delay d/c.

Only images within R = |source - array centre| + c t_on of the array centre
are kept, t_on being 13/60 of the decay time T (-13 dB), cut to the latest time
the order-12 cube holds every image that arrives by then. From the sample where
R reaches the centre to each mic's direct arrival plus T, a diffuse tail seeded
by the scene follows (see _diffuse_tail). An anechoic room has no window and no
tail.

The images form a Cartesian product of per-axis reflections, so coordinates
and gains are kept per axis and never built as 3-vectors. The window is
applied per axis, first to x, then to the (x, y) pairs, then to whole
images, so only the (x, y) rows that can hold a kept image are expanded
over z. A mic's squared distances are the sum (dx^2 + dy^2) + dz^2 of its
per-axis squares over those rows, gathered at the live images (gain above
1e-12, inside the window) and square-rooted. That is the sum order
np.linalg.norm takes over [x, y, z], so the taps are the same bits as a norm
over materialized image positions. Each image's arrival is one index on a
1/64-sample grid, and _scatter places a mic's images with one bincount over
that grid, one product with a table of 64 fractional-delay kernels and one
sum; the direct path, an image of gain 1, is placed by the same call.

Rendering convolves each source with its RIR, splitting the zeroth-order
(direct) image from the rest so direct and reverberant stems are separate
targets; their sum equals the full convolution by linearity, to rounding.
Both stems come from one fftconvolve, which convolves only the span of an RIR's
non-zero columns: the direct RIR's, the 81-tap kernel plus the spread of the
mics' arrivals (<=85 taps for the tetrahedral array), in short overlap-add
blocks; the reverberant RIR's, thousands of taps, in one block.
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
from .spectral import FFT_SIZE, HOP, WINDOW, ComplexSpectrogram, frame_view, istft, stft

MAX_IMAGE_ORDER = 12
MAX_DECAY_S = 60.0  # longest decay time T simulated; each RIR holds T seconds of samples per mic
TAIL_ONSET_FRACTION = 13 / 60  # the images stop and the diffuse tail starts where the decay reaches -13 dB
TAIL_LEVEL_S = 0.01  # each mic's tail starts at its image RMS over this span before the onset
MIN_SOURCE_MIC_DISTANCE = 1e-3  # 1 mm
ACTIVATION_GATE_DB = -40.0

# arrivals are placed on a grid of 1/64 sample; row q is the kernel for fraction q/64
DELAY_FRACTIONS = 64
KERNEL_TABLE = np.stack([fractional_delay_kernel(q / DELAY_FRACTIONS) for q in range(DELAY_FRACTIONS)])
KERNEL_TABLE.flags.writeable = False
BLOCK_FFT = 1024  # transform length for spans of <= BLOCK_FFT / 2 taps: of 512-4096, the fastest for the direct RIR's


class SimulationError(ValueError):
    pass


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a length numpy's FFT splits into radix-2, -3 and -5 passes."""
    k = n.bit_length()
    return min(m << (-(-n // m) - 1).bit_length() for m in (3**b * 5**c for b in range(k) for c in range(k)))


# module-level binding: perfbench traces both stems' convolution through roomsim.fftconvolve
def fftconvolve(sig: np.ndarray, taps: np.ndarray, n: int) -> np.ndarray:
    """The first n samples of the [S] signal convolved with each row of [M, L] taps, [M, n].

    Only the span of columns where some row is non-zero is convolved, and only
    with the signal samples that reach sample n, by overlap-add (Stockham 1966):
    a span of K <= BLOCK_FFT / 2 taps in blocks of BLOCK_FFT - K + 1 samples, each
    in one BLOCK_FFT-point transform whose last K - 1 outputs overlap the next
    block; a longer span in one block. All-zero taps, a span that starts at or past
    n and an empty signal give zeros. The result is a view of a buffer that runs
    less than a block past n.
    """
    cols = np.flatnonzero(taps.any(axis=0))
    if cols.size == 0 or cols[0] >= n or sig.size == 0:
        return np.zeros((taps.shape[0], n))
    lo, span = cols[0], taps[:, cols[0] : cols[-1] + 1]
    m, k = span.shape
    x = sig[: n - lo]
    step = BLOCK_FFT - k + 1 if 2 * k <= BLOCK_FFT else x.shape[0]
    blocks = -(-x.shape[0] // step)
    if blocks * step > x.shape[0]:
        x = np.concatenate([x, np.zeros(blocks * step - x.shape[0])])
    nfft = _fft_length(step + k - 1)
    spectra = np.fft.rfft(span, nfft)[None]  # [1, M, nfft/2 + 1]
    # one block is multiplied in place: one [M, nfft/2 + 1] product held, not two
    spectra = np.multiply(np.fft.rfft(x.reshape(blocks, 1, step), nfft), spectra, out=spectra if blocks == 1 else None)
    y = np.fft.irfft(spectra, nfft)[..., : step + k - 1].transpose(1, 0, 2)  # [M, blocks, step + k - 1]
    del spectra  # freed before the stem's buffer is allocated
    end = lo + blocks * step
    out = np.zeros((m, max(n, end)))
    heads = out[:, lo:end].reshape(m, blocks, step)  # a view: out's rows are contiguous
    heads[...] = y[..., :step]
    if blocks > 1:  # then k - 1 < step, so each block's overlap lands inside the next block
        heads[:, 1:, : k - 1] += y[:, :-1, step:]
    last = out[:, end : end + k - 1]  # the last block's overlap, as far as the buffer reaches
    last += y[:, -1, step : step + last.shape[1]]
    return out[:, :n]


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


def _decay_time(spec: SceneSpec, absorptions: np.ndarray) -> float:
    """The requested RT60, or Sabine's for the mean wall absorption when the scene gives absorption.

    A decay time above MAX_DECAY_S raises SimulationError before any RIR is allocated.
    """
    if spec.rt60_s is not None:
        decay = float(spec.rt60_s)
    else:
        decay = _sabine(spec.room_dims, float(absorptions.mean()))
    if decay > MAX_DECAY_S:
        raise SimulationError(f"decay time {decay:.4g} s is above the {MAX_DECAY_S:g} s the simulator builds")
    return decay


def _image_order(room: np.ndarray, src: np.ndarray, centre: np.ndarray, radius: float) -> int:
    """Smallest order whose cube holds every image within radius of the centre, at most MAX_IMAGE_ORDER.

    Along axis d the order-N cube ends at -s - 2NL and s + 2NL; the nearest image
    past it, at 2(N+1)L - s, lies 2(N+1)L - s - c from the centre, beyond radius once
    N > (radius + s + c) / 2L - 1.
    """
    return min(int(np.floor((radius + src + centre) / (2.0 * room)).max()), MAX_IMAGE_ORDER)


@dataclass
class RoomImpulseResponse:
    taps: np.ndarray  # [M, L] full response
    direct_taps: np.ndarray  # [M, L] zeroth-order image only
    sample_rate: int
    image_order: int  # reflection order per axis the image cube spans
    num_images: int  # images with non-negligible gain inside the window
    window_radius_m: float | None  # images farther than this from the array centre are dropped; None if anechoic
    tail_onset_s: float | None  # the diffuse tail starts this long after the direct sound reaches the centre
    tail: np.ndarray | None  # [M, L - onset sample] diffuse tail, added into taps from the onset sample on

    def reverb_taps(self) -> np.ndarray:
        """Everything the zeroth-order image does not account for; exact complement."""
        return self.taps - self.direct_taps


def _image_axes(src, room, betas, order: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-axis image coordinates and reflection-coefficient products, [2 (2 order + 1)] each."""
    ms = np.arange(-order, order + 1)
    coords, gains = [], []
    for d in range(3):
        coords.append(np.concatenate([(1 - 2 * p) * src[d] + 2 * ms * room[d] for p in (0, 1)]))
        gains.append(np.concatenate([betas[2 * d] ** np.abs(ms - p) * betas[2 * d + 1] ** np.abs(ms) for p in (0, 1)]))
    return coords, gains


def _arrival_index(delays: np.ndarray) -> np.ndarray:
    """Arrivals on the 1/64-sample grid: DELAY_FRACTIONS * whole samples + fraction, int64.

    The same bits as rounding each fraction to 1/64 and carrying 64/64 to the
    next sample: delays * 64 and its fractional part are exact, and rounding
    half to even commutes with adding the even integer 64 * floor(delays).
    delays (float64, in samples) is scaled in place.
    """
    return np.rint(np.multiply(delays, DELAY_FRACTIONS, out=delays), out=delays).astype(np.int64)


def _scatter(out: np.ndarray, index: np.ndarray, amps: np.ndarray) -> None:
    """Add amps[i] * KERNEL_TABLE[q] into out with tap k at d - KERNEL_HALF + k, where d, q = divmod(index[i], 64).

    Images are binned by arrival index and the bins filtered through the kernel
    table in one product, whose row k goes into row 1 + k of a zero buffer,
    k samples later than row 1; row 0 holds out. One sum down the buffer then
    adds, at every sample, out and the taps in ascending k. Taps before sample 0
    are dropped; out must extend KERNEL_HALF past index.max() // 64.
    """
    rows = int(index.max()) // DELAY_FRACTIONS + 1
    grid = np.bincount(index, weights=amps, minlength=rows * DELAY_FRACTIONS).reshape(rows, DELAY_FRACTIONS)
    width = rows + KERNEL_TAPS  # column c holds sample c - KERNEL_HALF - 1
    flat = np.zeros((KERNEL_TAPS + 1) * (width + 1))
    # element [r, i] of the [.., width + 1] view is element [r, r + i] of the [.., width] one
    np.matmul(KERNEL_TABLE.T, grid.T, out=flat.reshape(KERNEL_TAPS + 1, width + 1)[1:, :rows])
    skewed = flat[: (KERNEL_TAPS + 1) * width].reshape(KERNEL_TAPS + 1, width)[:, KERNEL_HALF + 1 :]
    skewed[0] = out[: skewed.shape[1]]
    out[: skewed.shape[1]] = skewed.sum(axis=0)


def _diffuse_tail(images: np.ndarray, onset: int, ends: np.ndarray, decay_s: float, mics: np.ndarray, fs: int, rng):
    """[M, L - onset] diffuse tail to add into the [M, L] image response from sample onset on.

    Gaussian noise is mixed per STFT bin by the symmetric square root of the
    diffuse-field coherence sinc(2 pi f d_ij / c), so mics d_ij apart are as
    coherent as in a diffuse field; each mic's row is then scaled to unit RMS,
    to its image RMS over the TAIL_LEVEL_S before onset, and by the decay
    10^(-3 (t - onset) / T), and ends at sample ends[m].
    """
    length = images.shape[1] - onset
    noise = stft(MultichannelWaveform(rng.standard_normal((mics.shape[0], length)), fs), WINDOW, FFT_SIZE, HOP)
    spacing = np.linalg.norm(mics[:, None] - mics[None], axis=-1)
    freqs = np.fft.rfftfreq(FFT_SIZE, 1.0 / fs)
    # np.sinc(x) is sin(pi x) / (pi x); coherence is [F, M, M], symmetric and positive semi-definite
    lam, vec = np.linalg.eigh(np.sinc(2.0 * freqs[:, None, None] * spacing / SPEED_OF_SOUND))
    mix = (vec * np.sqrt(np.maximum(lam, 0.0))[:, None, :]) @ vec.transpose(0, 2, 1)  # mix @ mix = coherence
    mixed = np.moveaxis(mix @ np.moveaxis(noise.values, 2, 0), 0, 2)  # [M, T, F]
    tail = istft(ComplexSpectrogram(mixed, HOP, FFT_SIZE, fs), WINDOW, length).samples
    before = images[:, max(onset - round(TAIL_LEVEL_S * fs), 0) : onset]
    tail *= np.sqrt(np.mean(before**2, axis=1) / np.mean(tail**2, axis=1))[:, None]
    tail *= 10.0 ** (-3.0 * np.arange(length) / (decay_s * fs))
    tail[np.arange(length) >= (ends - onset)[:, None]] = 0.0
    return tail


def simulate_rir(spec: SceneSpec, source_index: int, sample_rate: int = 16000) -> RoomImpulseResponse:
    """Image-source RIR from one source to every array mic, with a diffuse tail after the image window."""
    spec.validate()
    if not (0 <= source_index < len(spec.sources)):
        raise SimulationError(f"source index {source_index} out of range")
    room = np.asarray(spec.room_dims, dtype=np.float64)
    src = np.asarray(spec.sources[source_index].position, dtype=np.float64)
    centre = np.asarray(spec.array_center, dtype=np.float64)
    mics = centre + spec.array_offsets

    absorptions = _wall_absorptions(spec)
    betas = np.sqrt(np.clip(1.0 - absorptions, 0.0, 1.0))  # pairs per axis
    # an anechoic room has only the direct image, and no window or tail
    order, radius, onset, decay = 0, None, None, None
    if not np.all(betas == 0.0):
        decay = _decay_time(spec, absorptions)
        direct = float(np.linalg.norm(src - centre))
        reach = float(np.min(2.0 * (MAX_IMAGE_ORDER + 1) * room - src - centre))  # see _image_order
        # the direct distance plus c t_on keeps the direct image however short t_on is; t_on is 0
        # only when the direct sound alone outruns the order-12 cube
        onset = max(0.0, min(decay * TAIL_ONSET_FRACTION, (reach - direct) / SPEED_OF_SOUND))
        radius = direct + SPEED_OF_SOUND * onset
        order = _image_order(room, src, centre, radius)

    coords, (gx, gy, gz) = _image_axes(src, room, betas, order)
    r2 = math.inf if radius is None else radius * radius
    ex2, ey2, ez2 = ((c - m) ** 2 for c, m in zip(coords, centre))
    # a partial sum never exceeds the full one, so each stage drops only images the full test drops;
    # the pairs stay x-major, so the images keep the cube's order and bincount adds them as before
    xs = np.flatnonzero(ex2 <= r2)
    exy = ex2[xs, None] + ey2
    pairs = np.flatnonzero(exy <= r2)
    ix, iy = xs[pairs // ey2.size], pairs % ey2.size
    cube = (gx[ix] * gy[iy])[:, None] * gz  # gains of the kept (x, y) rows, [pairs, z]
    live = np.flatnonzero((cube > 1e-12) & (exy.ravel()[pairs, None] + ez2 <= r2))
    gains = cube.ravel()[live]
    if live.size == 0:
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
    dists = np.empty((num_mics, live.size))
    for mi in range(num_mics):
        # np.linalg.norm's sum order, sqrt((dx^2 + dy^2) + dz^2), over the kept (x, y) rows, then gathered
        dx2, dy2, dz2 = ((c - m) ** 2 for c, m in zip(coords, mics[mi]))
        dists[mi] = np.sqrt(((dx2[ix] + dy2[iy])[:, None] + dz2).ravel()[live])
    np.maximum(dists, MIN_SOURCE_MIC_DISTANCE, out=dists)

    # the farthest image sets each channel's length, and each mic's direct arrival plus T its tail's end;
    # the longest sets the RIR's, which holds at least one tail sample
    last = _arrival_index(dists.max(axis=1) / SPEED_OF_SOUND * fs) // DELAY_FRACTIONS
    max_len = int(last.max()) + KERNEL_TAPS + 1
    if onset is not None:
        start = round(radius / SPEED_OF_SOUND * fs)  # where the window's edge reaches the centre
        ends = np.rint((direct_dists / SPEED_OF_SOUND + decay) * fs).astype(np.int64)
        max_len = max(max_len, int(ends.max()), start + 1)
    out = np.zeros((num_mics, max_len))
    out_direct = np.zeros((num_mics, max_len))
    direct_index = _arrival_index(direct_dists / SPEED_OF_SOUND * fs)
    for mi in range(num_mics):
        # the direct path is one image of gain 1, placed by the same expressions
        _scatter(out[mi], _arrival_index(dists[mi] / SPEED_OF_SOUND * fs), gains / (4.0 * np.pi * dists[mi]))
        _scatter(out_direct[mi], direct_index[mi : mi + 1], 1.0 / (4.0 * np.pi * direct_dists[mi : mi + 1]))

    tail = None
    if onset is not None:
        tail = _diffuse_tail(out, start, ends, decay, mics, fs, np.random.default_rng((spec.seed, source_index)))
        out[:, start:] += tail
    return RoomImpulseResponse(
        out, out_direct, fs, image_order=order, num_images=gains.shape[0], window_radius_m=radius,
        tail_onset_s=onset, tail=tail,
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
        direct = MultichannelWaveform(fftconvolve(sig, rir.direct_taps, num_samples), rate)
        reverb = MultichannelWaveform(fftconvolve(sig, rir.reverb_taps(), num_samples), rate)
        mixture += direct.samples + reverb.samples
        truths.append(
            SourceTruth(
                direct=direct,
                reverb=reverb,
                doa=ground_truth_doa(spec, j),
                activation=frame_activation(direct),
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
    """Image order, window, count and tail onset an RIR was built from, and its requested vs measured RT60.

    window_radius_m and tail_onset_s are None for an anechoic RIR;
    rt60_requested_s is None when the scene gives absorption directly;
    rt60_measured_s is None for an anechoic RIR or a decay too short to measure;
    rt60_rel_err, |measured - requested| / requested, is None when either is.
    """
    measured = None
    if rir.image_order > 0:
        try:
            measured = schroeder_rt60(rir)
        except SimulationError:
            pass
    requested = None if spec.rt60_s is None else float(spec.rt60_s)
    return {
        "image_order": rir.image_order,
        "num_images": rir.num_images,
        "window_radius_m": rir.window_radius_m,
        "tail_onset_s": rir.tail_onset_s,
        "rt60_requested_s": requested,
        "rt60_measured_s": measured,
        "rt60_rel_err": None if measured is None or requested is None else abs(measured - requested) / requested,
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
