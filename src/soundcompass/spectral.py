"""Gaussian-window STFT/iSTFT and the musical-scale overlapping band split.

The package frames audio only here: FFT_SIZE, HOP and WINDOW are its frame
defaults, frame_view and overlap_add its framing. Frames start at multiples
of the hop; the signal is zero-padded at the end so the final partial frame
is kept: T = floor((S - fft_size)/hop) + 2 for S > fft_size, else 1.
Synthesis is least-squares overlap-add with per-sample window-energy
normalization, so arbitrary Gaussian windows invert cleanly as long as their
energy stays above a floor at every sample.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import MultichannelWaveform, json_array, parse_json, write_json
from .buffers import recycled_empty

ENERGY_FLOOR = 1e-8  # min per-sample synthesis window energy
FFT_SIZE = 512  # default frame length in samples
HOP = 256  # default frame hop in samples


class WindowEnergyError(ValueError):
    """Synthesis window energy underflows at some sample; inversion refused."""


@dataclass
class GaussianWindowParams:
    """Gaussian analysis window, mean/std as fractions of window length."""

    mean: float
    std: float
    length: int

    def __post_init__(self):
        self.length = int(self.length)
        if self.length < 2:
            raise ValueError(f"window length must be >= 2, got {self.length}")
        if self.std <= 0:
            raise ValueError(f"std must be positive, got {self.std}")


WINDOW = GaussianWindowParams(mean=0.5, std=0.25, length=FFT_SIZE)


def make_gaussian_window(p: GaussianWindowParams) -> np.ndarray:
    """w[i] = exp(-((i/(length-1) - mean)^2) / (2 std^2)); peak <= 1."""
    u = np.arange(p.length) / (p.length - 1)
    return np.exp(-((u - p.mean) ** 2) / (2.0 * p.std**2))


@dataclass
class ComplexSpectrogram:
    """Per-channel complex STFT, values [M, T, F] with F = fft_size/2 + 1.

    spin_forward stacks the real and imaginary planes that SPIN reads; every
    other reader takes the complex values as they are.
    """

    values: np.ndarray
    frame_hop: int
    fft_size: int
    sample_rate: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 3:
            raise ValueError("values must be [M, T, F]")
        if self.values.shape[2] != self.fft_size // 2 + 1:
            raise ValueError(
                f"F={self.values.shape[2]} inconsistent with fft_size={self.fft_size}"
            )

    @property
    def num_channels(self) -> int:
        return self.values.shape[0]

    @property
    def num_frames(self) -> int:
        return self.values.shape[1]


def frame_count(num_samples: int, fft_size: int, hop: int) -> int:
    if num_samples <= fft_size:
        return 1
    return (num_samples - fft_size) // hop + 2


def frame_view(x: np.ndarray, fft_size: int, hop: int) -> np.ndarray:
    """[..., T, N] view of the frames x[..., t*hop : t*hop + N], end-padded to frame_count frames."""
    num_samples = x.shape[-1]
    t_frames = frame_count(num_samples, fft_size, hop)
    padded = np.zeros(x.shape[:-1] + ((t_frames - 1) * hop + fft_size,))
    padded[..., :num_samples] = x
    return sliding_window_view(padded, fft_size, axis=-1)[..., ::hop, :]


def overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum [..., T, N] frames placed hop apart into [..., (T-1)*hop + N] samples.

    Frame slices j*hop..(j+1)*hop (phase j) tile the output, so each phase is
    one add; highest phase first, each sample sums its frames in ascending t
    like a per-frame loop, and matches that loop bit for bit.
    """
    *lead, t_frames, n = frames.shape
    phases = -(-n // hop)
    out = np.zeros((*lead, t_frames + phases - 1, hop))
    for j in reversed(range(phases)):
        part = frames[..., j * hop : (j + 1) * hop]
        out[..., j : j + t_frames, : part.shape[-1]] += part
    return out.reshape(*lead, -1)[..., : (t_frames - 1) * hop + n]


def stft(w: MultichannelWaveform, p: GaussianWindowParams, fft_size: int, hop: int) -> ComplexSpectrogram:
    if hop <= 0:
        raise ValueError("hop must be positive")
    if hop > fft_size:
        raise ValueError("hop must not exceed fft_size")
    if p.length != fft_size:
        raise ValueError(f"window length {p.length} != fft_size {fft_size}")
    if w.samples.shape[1] == 0:
        raise ValueError("empty signal")
    frames = frame_view(w.samples, fft_size, hop)  # [M, T, N]
    spec = np.fft.rfft(frames * make_gaussian_window(p), axis=2)
    return ComplexSpectrogram(spec, hop, fft_size, w.sample_rate)


def synthesis_window_energy(p: GaussianWindowParams, hop: int, num_frames: int) -> np.ndarray:
    """Per-sample sum of squared window values over all frames covering it."""
    w2 = make_gaussian_window(p) ** 2
    return overlap_add(np.broadcast_to(w2, (num_frames, p.length)), hop)


def istft(spec: ComplexSpectrogram, p: GaussianWindowParams, out_len: int | None = None) -> MultichannelWaveform:
    """Least-squares inverse: windowed overlap-add over window energy.

    Raises WindowEnergyError instead of dividing when the window energy at
    any requested output sample falls below ENERGY_FLOOR (window too narrow
    for the hop, or mean too far off center for the edges).
    """
    if p.length != spec.fft_size:
        raise ValueError(f"window length {p.length} != fft_size {spec.fft_size}")
    energy = synthesis_window_energy(p, spec.frame_hop, spec.num_frames)
    full_len = energy.shape[0]
    if out_len is None:
        out_len = full_len
    if out_len > full_len:
        raise ValueError(f"out_len {out_len} exceeds synthesizable length {full_len}")
    min_energy = energy[:out_len].min()
    if min_energy < ENERGY_FLOOR:
        bad = int(np.argmin(energy[:out_len]))
        raise WindowEnergyError(
            f"window energy {min_energy:.3e} at sample {bad} is below {ENERGY_FLOOR:.0e}; "
            "widen std or shrink the hop"
        )

    frames = np.fft.irfft(spec.values, n=spec.fft_size, axis=2)  # [M, T, N]
    frames *= make_gaussian_window(p)
    out = overlap_add(frames, spec.frame_hop)[:, :out_len] / energy[:out_len]
    return MultichannelWaveform(out, spec.sample_rate)


# ---------------------------------------------------------------------------
# Overlapping subband layout on the 12-tone equal-temperament scale


@dataclass
class BandLayout:
    """K inclusive (lo_bin, hi_bin) ranges covering every bin in [0, F-1].

    fft_size defaults to 2 * (F - 1), the even FFT size that gives F bins.
    """

    bands: list[tuple[int, int]]
    num_bins: int
    sample_rate: int = 16000
    fft_size: int | None = None

    def __post_init__(self):
        if self.fft_size is None:
            self.fft_size = 2 * (self.num_bins - 1)
        if self.fft_size // 2 + 1 != self.num_bins:
            raise ValueError(
                f"fft_size {self.fft_size} gives {self.fft_size // 2 + 1} bins, layout has {self.num_bins}"
            )
        fs = self.sample_rate
        if isinstance(fs, bool) or not isinstance(fs, numbers.Integral) or fs <= 0:
            raise ValueError(f"band layout fs must be a positive integer, got {fs!r}")
        self.sample_rate = int(fs)
        self.bands = [(int(lo), int(hi)) for lo, hi in self.bands]
        if not self.bands:
            raise ValueError("layout needs at least one band")
        for k, (lo, hi) in enumerate(self.bands):
            if lo > hi:
                raise ValueError(f"band {k} has lo {lo} > hi {hi}")
            if lo < 0 or hi >= self.num_bins:
                raise ValueError(f"band {k} [{lo},{hi}] exceeds [0,{self.num_bins - 1}]")
        los = [b[0] for b in self.bands]
        if los != sorted(los):
            raise ValueError("bands must be sorted by lo_bin")
        reach = 0  # bins below reach are covered; no array, so a huge fft_size costs nothing
        for lo, hi in self.bands + [(self.num_bins, self.num_bins)]:
            if lo > reach:
                raise ValueError(f"layout leaves bin {reach} uncovered")
            reach = max(reach, hi + 1)

    @property
    def num_bands(self) -> int:
        return len(self.bands)

    def to_json(self, path=None) -> str:
        payload = {"fs": self.sample_rate, "fft_size": self.fft_size, "bands": [list(b) for b in self.bands]}
        if path is not None:
            write_json(payload, path)
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str | bytes, source="band layout JSON") -> "BandLayout":
        """Parse the JSON that to_json returns; every error is a ValueError naming source."""
        d = parse_json(text, source, keys=("fs", "fft_size", "bands"))
        try:
            fft = json_array(d["fft_size"], "fft_size", np.int64)
            if fft.ndim:
                raise ValueError("fft_size must be one integer")
            bands = json_array(d["bands"], "bands", np.int64).tolist()
            return cls(bands, num_bins=int(fft) // 2 + 1, sample_rate=d["fs"], fft_size=int(fft))
        except (TypeError, ValueError) as e:  # e.g. a string fft_size, a band that is not a pair
            raise ValueError(f"{source}: malformed value: {e}") from None

    @classmethod
    def load(cls, path) -> "BandLayout":
        """Read a layout file written by to_json(path)."""
        return cls.from_json(Path(path).read_bytes(), path)


def make_band_layout(
    num_bins: int,
    sample_rate: int,
    f_min: float = 50.0,
    step_semitones: float = 3.0,
    overlap_semitones: float = 1.0,
    fft_size: int | None = None,
) -> BandLayout:
    """Build overlapping subbands with geometrically spaced edges.

    Edges sit at f_min * 2^(k*step/12) up to Nyquist; the band below the first
    edge is kept and extended down to bin 0, the last band is extended up to
    bin F-1, and every band is widened by half the overlap on each side. After
    quantization to bins, bands are grown downward (never shrunk) so widths
    are non-decreasing; that keeps narrow-low/wide-high ordering despite the
    Nyquist clip and integer rounding. Defaults give K=31 at fs=16000, F=257.
    """
    if f_min <= 0:
        raise ValueError("f_min must be positive")
    nyquist = sample_rate / 2.0
    if f_min >= nyquist:
        raise ValueError(f"f_min {f_min} must be below Nyquist {nyquist}")
    if overlap_semitones < 0 or step_semitones <= overlap_semitones:
        raise ValueError("need step_semitones > overlap_semitones >= 0")
    if fft_size is None:
        fft_size = 2 * (num_bins - 1)

    edges = [0.0]
    k = 0
    while True:
        f = f_min * 2.0 ** (k * step_semitones / 12.0)
        if f >= nyquist:
            break
        edges.append(f)
        k += 1
    edges.append(nyquist)
    if len(edges) < 3:
        raise ValueError("parameters yield fewer than 2 bands")

    half = 2.0 ** (overlap_semitones / 24.0)  # half-overlap widening factor
    bin_hz = sample_rate / fft_size
    bands = []
    for lo_hz, hi_hz in zip(edges[:-1], edges[1:]):
        lo = math.floor((lo_hz / half) / bin_hz)
        hi = math.ceil((hi_hz * half) / bin_hz)
        bands.append([max(lo, 0), min(hi, num_bins - 1)])
    bands[0][0] = 0
    bands[-1][1] = num_bins - 1

    # monotone-width repair: quantization and the Nyquist clip can leave a
    # band narrower than its predecessor; grow it toward lower bins (more
    # overlap, never less coverage), spilling upward only at the bin-0 wall.
    for k in range(1, len(bands)):
        want = bands[k - 1][1] - bands[k - 1][0] + 1
        have = bands[k][1] - bands[k][0] + 1
        if have < want:
            grow = want - have
            down = min(grow, bands[k][0])
            bands[k][0] -= down
            bands[k][1] = min(bands[k][1] + (grow - down), num_bins - 1)

    if len(bands) < 2:
        raise ValueError("parameters yield fewer than 2 bands")
    return BandLayout(
        bands=[tuple(b) for b in bands],
        num_bins=num_bins,
        sample_rate=sample_rate,
        fft_size=fft_size,
    )


def split_bands(x: np.ndarray, layout: BandLayout) -> list[np.ndarray]:
    """Slice [C, T, F] into K views [C, T, F_k] of x; overlapping bins repeat.

    The views share x's memory: writing to a band writes to x and to the
    bands that overlap it. On bin-major storage (spin_forward's pairwise,
    merge_bands' output) each band is one contiguous [F_k, C, T] block.
    """
    x = np.asarray(x)
    if x.shape[-1] != layout.num_bins:
        raise ValueError(f"last axis {x.shape[-1]} != layout bins {layout.num_bins}")
    return [x[..., lo : hi + 1] for lo, hi in layout.bands]


def merge_weights(layout: BandLayout) -> list[np.ndarray]:
    """Per-band per-bin merge weights; for every bin they sum to exactly 1.

    Each band ramps up linearly across its overlap with the previous band and
    down across its overlap with the next (triangular cross-fade); profiles
    are then normalized per bin, and the last contribution is set to the
    exact complement so the partition of unity holds bitwise.
    """
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

    # Bands are visited in ascending order, so each bin's total and running
    # sum add its covering bands in band order.
    total = np.zeros(layout.num_bins)
    last = np.empty(layout.num_bins, dtype=np.intp)  # highest band covering each bin
    for k, ((lo, hi), prof) in enumerate(zip(bands, profiles)):
        total[lo : hi + 1] += prof
        last[lo : hi + 1] = k
    acc = np.zeros(layout.num_bins)  # normalized weights handed out so far
    weights = []
    for k, ((lo, hi), prof) in enumerate(zip(bands, profiles)):
        done = acc[lo : hi + 1]
        # exact complement in the last covering band: per-bin weights sum to 1
        w = np.where(last[lo : hi + 1] == k, 1.0 - done, prof / total[lo : hi + 1])
        done += w
        weights.append(w)
    return weights


def merge_bands(bands: list[np.ndarray], layout: BandLayout) -> np.ndarray:
    """Cross-fade K band tensors back to [C, T, F], a view of bin-major [F, C, T] storage; inverse of split_bands."""
    if len(bands) != layout.num_bands:
        raise ValueError(f"got {len(bands)} bands for a {layout.num_bands}-band layout")
    out = recycled_empty((layout.num_bins,) + bands[0].shape[:-1])
    reach = 0  # bins below reach hold a sum; a bin's first band writes its w * b in place, so no zero fill
    for k, ((lo, hi), w, b) in enumerate(zip(layout.bands, merge_weights(layout), bands)):
        if b.shape[-1] != hi - lo + 1:
            raise ValueError(f"band {k} has {b.shape[-1]} bins, layout wants {hi - lo + 1}")
        b, w = np.moveaxis(b, -1, 0), w.reshape((-1,) + (1,) * (b.ndim - 1))  # one block for a bin-major band
        n = min(max(reach, lo), hi + 1) - lo  # its bins an earlier band wrote
        out[lo : lo + n] += w[:n] * b[:n]
        fresh = np.multiply(w[n:], b[n:], out=out[lo + n : hi + 1])
        fresh += 0.0  # as 0.0 + w * b would: -0.0 becomes +0.0
        reach = max(reach, hi + 1)
    return np.moveaxis(out, 0, -1)
