"""Reading and writing the package's files: multichannel WAV and JSON.

Only uncompressed little-endian RIFF/WAVE is handled, any channel count:
16-bit integer PCM and 32-bit IEEE float are read, 32-bit float is written.
Samples are exchanged as float matrices of shape [channels, samples] scaled
to [-1, 1].
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PCM16_SCALE = 32768.0

_FMT_PCM = 1
_FMT_IEEE_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE


class WavFormatError(ValueError):
    """Raised for WAV data this toolkit cannot read or write."""


@dataclass
class MultichannelWaveform:
    """Time-domain signal, M channels by S samples at a fixed rate.

    ``samples`` is always a 2-D float64 array; a 1-D input is promoted to a
    single channel. All channels share the same length by construction.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise ValueError(f"samples must be 1-D or 2-D, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("waveform needs at least one channel")
        self.samples = arr
        self.sample_rate = int(self.sample_rate)
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    @property
    def num_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]


def _take(blob: memoryview, start: int, n: int, what: str, path) -> memoryview:
    if start + n > len(blob):
        got = max(0, len(blob) - start)
        raise WavFormatError(f"{path}: truncated file: expected {n} bytes for {what}, got {got}")
    return blob[start : start + n]


def read_wav(path) -> MultichannelWaveform:
    """Read a PCM16 or float32 WAV file into a [-1, 1]-scaled waveform.

    Channel count and sample rate come from the header. PCM16 samples are
    scaled by 1/32768, so +32767 maps to 32767/32768. Anything malformed, and
    a float sample that is NaN or infinite, raises WavFormatError.
    """
    path = Path(path)
    blob = memoryview(path.read_bytes())
    riff, _size, wave_id = struct.unpack("<4sI4s", _take(blob, 0, 12, "RIFF header", path))
    if riff != b"RIFF" or wave_id != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos < len(blob):
        chunk_id, chunk_size = struct.unpack("<4sI", _take(blob, pos, 8, "chunk header", path))
        pos += 8
        if chunk_id == b"fmt ":
            fmt = _take(blob, pos, chunk_size, "fmt chunk", path)
        elif chunk_id == b"data":
            data = _take(blob, pos, chunk_size, "data chunk", path)
        pos += chunk_size + chunk_size % 2  # chunks are word-aligned

    if fmt is None:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise WavFormatError(f"{path}: missing data chunk")
    if len(fmt) < 16:
        raise WavFormatError(f"{path}: fmt chunk too short")

    audio_format, channels, rate, _byte_rate, block_align, bits = struct.unpack(
        "<HHIIHH", fmt[:16]
    )
    if audio_format == _FMT_EXTENSIBLE and len(fmt) >= 40:
        # sub-format GUID starts with the effective format code
        audio_format = struct.unpack("<H", fmt[24:26])[0]
    if channels == 0:
        raise WavFormatError(f"{path}: zero channels")
    if rate == 0:
        raise WavFormatError(f"{path}: zero sample rate")

    if audio_format == _FMT_PCM and bits == 16:
        dtype, scale = "<i2", 1.0 / PCM16_SCALE
    elif audio_format == _FMT_IEEE_FLOAT and bits == 32:
        dtype, scale = "<f4", 1.0
    else:
        raise WavFormatError(
            f"{path}: unsupported encoding (format {audio_format}, {bits}-bit); "
            "only PCM16 and float32 are handled"
        )
    if (block_align and len(data) % block_align) or len(data) % (channels * bits // 8):
        raise WavFormatError(f"{path}: data chunk is not a whole number of frames")

    frames = np.frombuffer(data, dtype=dtype).reshape(-1, channels)  # interleaved on disk
    if not np.isfinite(frames).all():  # only float32 can hold one; the search for the first runs only then
        bad = np.flatnonzero(~np.isfinite(frames).all(axis=1))
        raise WavFormatError(f"{path}: frame {bad[0]} holds a non-finite sample")
    samples = frames.T.astype(np.float64) if scale == 1.0 else frames.T * scale  # float32 is not rescaled
    return MultichannelWaveform(samples, rate)


def write_wav(w: MultichannelWaveform, path) -> None:
    """Write a waveform as float32 WAV; non-finite samples are rejected.

    So is a waveform the header cannot describe: the 16-bit block align holds
    at most 16383 channels, and the 32-bit byte rate and RIFF size bound
    channels x rate and channels x samples. That check comes first, before
    anything the size of the samples is allocated.
    """
    x = w.samples
    block_align = w.num_channels * 4
    byte_rate = w.sample_rate * block_align
    data_size = block_align * w.num_samples  # a whole number of 4-byte words: no pad byte
    riff_size = 36 + data_size  # "WAVE", the 24-byte fmt chunk and the data chunk's 8-byte header
    for field, value, limit in (
        ("block align (4 bytes x channels)", block_align, 0xFFFF),
        ("byte rate (sample rate x block align)", byte_rate, 0xFFFFFFFF),
        ("RIFF size (36 bytes + block align x samples)", riff_size, 0xFFFFFFFF),
    ):
        if value > limit:
            raise WavFormatError(
                f"refusing to write {w.num_channels} channels x {w.num_samples} samples at {w.sample_rate} Hz:"
                f" the WAV {field} would be {value}, above its limit {limit}"
            )
    if not np.all(np.isfinite(x)):
        raise WavFormatError("refusing to write non-finite samples")
    payload = x.astype("<f4").T.tobytes()
    fmt = struct.pack("<HHIIHH", _FMT_IEEE_FLOAT, w.num_channels, w.sample_rate, byte_rate, block_align, 32)

    with Path(path).open("wb") as fh:
        fh.write(struct.pack("<4sI4s", b"RIFF", riff_size, b"WAVE"))
        fh.write(struct.pack("<4sI", b"fmt ", len(fmt)))
        fh.write(fmt)
        fh.write(struct.pack("<4sI", b"data", data_size))
        fh.write(payload)


def parse_json(data: bytes | str, source, keys=()):
    """read_json's parse step, for JSON already in memory; source stands for the path in errors."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or too deep
        raise ValueError(f"{source}: invalid JSON ({e})") from e
    if keys and not isinstance(doc, dict):
        raise ValueError(f"{source}: expected a JSON object, got {type(doc).__name__}")
    if missing := [k for k in keys if k not in doc]:
        raise ValueError(f"{source}: missing {', '.join(map(repr, missing))}")
    return doc


def json_array(value, source) -> np.ndarray:
    """A parsed JSON number, or lists of them nested to a rectangle, as a float64 array.

    JSON numbers only: a bool, a string, null, an object, a ragged list, or a
    value beyond float64 raises one ValueError that names source. The nesting
    is walked one level at a time, not by recursion, as parse_json accepts any
    depth it parses.
    """
    shape, level = [], [value]
    while level and all(type(v) is list for v in level):
        shape.append(len(level[0]))
        if any(len(v) != shape[-1] for v in level):
            raise ValueError(f"{source}: ragged list")
        level = [x for v in level for x in v]
    if bad := [v for v in level if type(v) not in (int, float)]:
        got = {dict: "an object", list: "a ragged list"}.get(type(bad[0])) or repr(bad[0])  # no repr of deep nesting
        raise ValueError(f"{source}: expected JSON numbers, got {got}")
    try:
        return np.array(level, dtype=np.float64).reshape(shape)
    except (ValueError, OverflowError) as e:  # e.g. 10**400, or more levels than an array has axes
        raise ValueError(f"{source}: {e}") from None


def read_json(path, keys=()):
    """Read a UTF-8 JSON file; with keys it must be an object holding them.

    Every fault in the file, from bytes that are not UTF-8 to nesting too deep
    to parse, raises one ValueError that names the file.
    """
    return parse_json(Path(path).read_bytes(), path, keys)


def write_json(obj, path) -> None:
    """Write obj as UTF-8 JSON, indented by two spaces, with a final newline."""
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
