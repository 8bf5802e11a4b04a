import json
import wave

import numpy as np
import pytest
from hypothesis import strategies as st

from soundcompass.audio_io import MultichannelWaveform, write_wav
from soundcompass.scenes import SceneSpec, SourceSpec, tetrahedral_offsets


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def complex_normal(rng, shape):
    """Complex spectrogram values: the real parts are drawn first, then the imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def make_noise_wav(path, seconds=0.5, rate=16000, channels=1, seed=0, scale=0.3):
    r = np.random.default_rng(seed)
    x = scale * r.standard_normal((channels, int(seconds * rate)))
    w = MultichannelWaveform(x, rate)
    write_wav(w, path)
    return w


def make_tone_wav(path, freq=440.0, seconds=0.5, rate=16000, scale=0.3):
    t = np.arange(int(seconds * rate)) / rate
    w = MultichannelWaveform(scale * np.sin(2 * np.pi * freq * t)[None, :], rate)
    write_wav(w, path)
    return w


def write_pcm16_wav(path, x, rate):
    """[channels, samples] in [-1, 1] as a PCM16 WAV, written by the standard library's wave module.

    The package writes float32 only; PCM16 arrives from other tools. Samples
    are rounded to 1/32768 steps and +1.0 is clipped to 32767.
    """
    x = np.atleast_2d(x)
    pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(x.shape[0])
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.T.tobytes())


@pytest.fixture
def scene_factory(tmp_path):
    """Build a renderable SceneSpec with generated source WAVs on disk."""

    def build(
        positions=((1.2, 3.8, 1.7),),
        room=(5.57, 5.20, 3.79),
        center=(2.8, 2.6, 1.5),
        rt60=None,
        absorption=None,
        seconds=0.4,
        gain_db=0.0,
        seed=1,
    ):
        if rt60 is None and absorption is None:
            absorption = [1.0] * 6
        sources = []
        for j, pos in enumerate(positions):
            wav_path = tmp_path / f"s{j}.wav"
            make_noise_wav(wav_path, seconds=seconds, seed=seed + j)
            sources.append(
                SourceSpec(position=list(pos), class_label=f"class{j}", gain_db=gain_db, wav=str(wav_path))
            )
        return SceneSpec(
            room_dims=list(room),
            array_center=list(center),
            array_offsets=tetrahedral_offsets(),
            sources=sources,
            rt60_s=rt60,
            absorption=absorption,
        )

    return build


# Three of the five kinds of bad document that every JSON reader must refuse
# with one ValueError naming the file. The other two, a wrong top-level type
# and a missing key, depend on the reader, so each test adds its own.
UNREADABLE_JSON = {
    "nested_too_deep": b"[" * 10**5 + b"]" * 10**5,
    "not_utf8": b'{"fs": "\xff"}',
    "truncated": b'{"fs": 16000, "bands": [[0,',
}

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def replace_at(doc, path: list, value):
    """doc with the value that path's indices lead to (each taken modulo the container size) replaced."""
    if not path or not isinstance(doc, (dict, list)) or not doc:
        return value
    keys = list(doc) if isinstance(doc, dict) else list(range(len(doc)))
    key = keys[path[0] % len(keys)]
    doc[key] = replace_at(doc[key], path[1:], value)
    return doc


@st.composite
def mutated_json(draw, doc) -> bytes:
    """doc as JSON bytes, after one value is replaced, the text edited and bytes flipped."""
    path = draw(st.lists(st.integers(0, 20), max_size=4))
    text = json.dumps(replace_at(json.loads(json.dumps(doc)), path, draw(JSON_VALUES)))
    for i, cut, new in draw(st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 3), st.text(max_size=3)), max_size=4)):
        i %= len(text) + 1  # replace `cut` characters at i with new
        text = text[:i] + new + text[i + cut :]
    blob = bytearray(text.encode("utf-8"))
    for i, byte in draw(st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 255)), max_size=2)) if blob else ():
        blob[i % len(blob)] = byte
    return bytes(blob)
