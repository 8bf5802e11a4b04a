"""Seeded benchmark inputs: mono noise sources on disk and scene manifests.

Source WAVs are written as PCM16 with the standard library's ``wave`` module,
so the inputs do not depend on the package under test. The same seed gives
the same bytes.
"""

from __future__ import annotations

import json
import math
import wave
from pathlib import Path

import numpy as np

RATE = 16000
SOURCE_SECONDS = 4.0
ARRAY_PRESET = "tetrahedral_4ch_r0.042"
# (room dims, array centre) in metres
REFERENCE_ROOM = ((5.57, 5.20, 3.79), (2.8, 2.6, 1.5))
LARGE_ROOM = ((8.0, 6.0, 3.5), (4.0, 3.0, 1.5))
RT60_SWEEP = (0.2, 0.32, 0.6, 0.8, 1.2)
ANECHOIC = [1.0] * 6
WALL_MARGIN = 0.3
MIN_SEPARATION_DEG = 60.0


def write_noise(path: Path, rng: np.random.Generator) -> None:
    """4 s of Gaussian noise at 0.3 RMS, mono PCM16."""
    x = 0.3 * rng.standard_normal(int(SOURCE_SECONDS * RATE))
    pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(RATE)
        fh.writeframes(pcm.tobytes())


def source_positions(rng: np.random.Generator, dims, centre, count: int = 2) -> list:
    """Points 1.0-1.8 m from the array, elevation within +-20 deg, inside the
    room by WALL_MARGIN, azimuths at least MIN_SEPARATION_DEG apart."""
    dims, centre = np.asarray(dims), np.asarray(centre)
    found, azimuths = [], []
    while len(found) < count:
        az = rng.uniform(0.0, 2.0 * math.pi)
        el = math.radians(rng.uniform(-20.0, 20.0))
        dist = rng.uniform(1.0, 1.8)
        p = centre + dist * np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)])
        if np.any(p < WALL_MARGIN) or np.any(p > dims - WALL_MARGIN):
            continue
        gap = [abs((az - a + math.pi) % (2.0 * math.pi) - math.pi) for a in azimuths]
        if gap and min(gap) < math.radians(MIN_SEPARATION_DEG):
            continue
        found.append([round(float(v), 4) for v in p])
        azimuths.append(az)
    return found


def make_scene(directory: Path, stem: str, rng, room, rt60=None) -> dict:
    """Write a target and an interferer WAV; return the manifest scene object.

    ``rt60=None`` makes the room anechoic. WAV paths are relative to
    ``directory``, where the manifest goes.
    """
    dims, centre = room
    sources = []
    for label, pos in zip(("target", "interferer"), source_positions(rng, dims, centre)):
        name = f"{stem}_{label}.wav"
        write_noise(directory / name, rng)
        sources.append({"position": pos, "class": label, "gain_db": 0.0, "wav": name})
    scene = {
        "room_dims": list(dims),
        "array_center": list(centre),
        "array": ARRAY_PRESET,
        "sources": sources,
    }
    if rt60 is None:
        scene["absorption"] = ANECHOIC
    else:
        scene["rt60_s"] = rt60
    return scene


def write_manifest(path: Path, scenes: list) -> None:
    path.write_text("".join(json.dumps(s) + "\n" for s in scenes), encoding="utf-8")
