"""Scene descriptions: cuboid room, microphone array, sources.

The JSON schema is strict: unknown keys are rejected so config typos surface
immediately. Geometry is metric (meters), gains in dB.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio_io import json_array, parse_json

_PRESET_RE = re.compile(r"^tetrahedral_4ch_r([0-9]*\.?[0-9]+)$")


class SceneValidationError(ValueError):
    """Raised when a scene file or spec violates the schema or geometry."""


def tetrahedral_offsets(radius: float = 0.042) -> np.ndarray:
    """Regular-tetrahedron microphone offsets with the given circumradius.

    Canonical pose: vertex 0 on +z, the other three in a horizontal plane
    below center with vertex 1 on the +x half-plane. Determinate orientation
    keeps inter-mic delay tests reproducible.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    rho = radius * (2.0 * math.sqrt(2.0) / 3.0)  # horizontal ring radius
    z_low = -radius / 3.0
    return np.array(
        [
            [0.0, 0.0, radius],
            [rho, 0.0, z_low],
            [-rho / 2.0, rho * math.sqrt(3.0) / 2.0, z_low],
            [-rho / 2.0, -rho * math.sqrt(3.0) / 2.0, z_low],
        ]
    )


@dataclass
class SourceSpec:
    position: np.ndarray  # [3] meters
    class_label: str
    gain_db: float
    wav: str

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64).reshape(3)
        self.gain_db = float(self.gain_db)


@dataclass
class NoiseSpec:
    wav: str
    gain_db: float = 0.0


@dataclass
class SceneSpec:
    room_dims: np.ndarray          # [3] meters, width/length/height
    array_center: np.ndarray       # [3] meters
    array_offsets: np.ndarray      # [M, 3] meters, relative to center
    sources: list[SourceSpec]
    rt60_s: float | None = None
    absorption: np.ndarray | None = None  # [6] per-wall energy absorption
    noise: NoiseSpec | None = None
    seed: int = 0

    def __post_init__(self):
        self.room_dims = np.asarray(self.room_dims, dtype=np.float64).reshape(3)
        self.array_center = np.asarray(self.array_center, dtype=np.float64).reshape(3)
        self.array_offsets = np.asarray(self.array_offsets, dtype=np.float64)
        if self.array_offsets.ndim != 2 or self.array_offsets.shape[1] != 3:
            raise SceneValidationError("array offsets must be an [M, 3] matrix")
        if self.absorption is not None:
            self.absorption = np.asarray(self.absorption, dtype=np.float64).reshape(6)
        self.seed = int(self.seed)
        self.validate()

    def mic_positions(self) -> np.ndarray:
        return self.array_center[np.newaxis, :] + self.array_offsets

    def validate(self):
        numbers = {
            "room_dims": self.room_dims,
            "array_center": self.array_center,
            "array offsets": self.array_offsets,
            "rt60_s": self.rt60_s,
            "absorption": self.absorption,
            "noise gain_db": None if self.noise is None else self.noise.gain_db,
        }
        for j, src in enumerate(self.sources):
            numbers |= {f"source {j} position": src.position, f"source {j} gain_db": src.gain_db}
        for name, value in numbers.items():
            if value is not None and not np.isfinite(value).all():
                raise SceneValidationError(f"{name} must be finite, got {np.asarray(value).tolist()}")
        if np.any(self.room_dims <= 0):
            raise SceneValidationError(f"room_dims must be positive, got {self.room_dims}")
        if (self.rt60_s is None) == (self.absorption is None):
            raise SceneValidationError("exactly one of rt60_s or absorption is required")
        if self.rt60_s is not None and self.rt60_s <= 0:
            raise SceneValidationError("rt60_s must be positive")
        if self.absorption is not None and (
            np.any(self.absorption <= 0) or np.any(self.absorption > 1)
        ):
            raise SceneValidationError("absorption coefficients must lie in (0, 1]")
        if self.seed < 0:  # the seed of the diffuse tail's noise
            raise SceneValidationError(f"seed must be a non-negative integer, got {self.seed}")
        if len(self.sources) < 1:
            raise SceneValidationError("at least one source is required")
        for m, pos in enumerate(self.mic_positions()):
            if not _strictly_inside(pos, self.room_dims):
                raise SceneValidationError(f"microphone {m} at {pos} is outside the room")
        for j, src in enumerate(self.sources):
            if not _strictly_inside(src.position, self.room_dims):
                raise SceneValidationError(
                    f"source {j} outside room: position {src.position.tolist()}, "
                    f"room {self.room_dims.tolist()}"
                )


def _strictly_inside(point, dims) -> bool:
    return bool(np.all(point > 0) and np.all(point < dims))


def _require(d: dict, key: str, context: str):
    if key not in d:
        raise SceneValidationError(f"missing field {key!r} in {context}")
    return d[key]


def _check_keys(d: dict, allowed: set, context: str):
    unknown = set(d) - allowed
    if unknown:
        raise SceneValidationError(f"unknown key(s) {sorted(unknown)} in {context}")


def resolve_array(value) -> np.ndarray:
    """Resolve the schema's ``array`` entry to explicit offsets."""
    if isinstance(value, str):
        match = _PRESET_RE.match(value)
        if not match:
            raise SceneValidationError(f"unknown array preset {value!r}")
        return tetrahedral_offsets(float(match.group(1)))
    if isinstance(value, dict):
        if "offsets" not in value:
            raise SceneValidationError("array object must carry 'offsets'")
        return json_array(value["offsets"], "array offsets")
    raise SceneValidationError("array must be a preset string or an object with offsets")


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise SceneValidationError(f"{context} must be a JSON object, got {type(value).__name__}")
    return value


def _typed(value, types: tuple, what: str, key: str, context: str):
    if isinstance(value, bool) or not isinstance(value, types):
        raise SceneValidationError(f"{key!r} in {context} must be {what}, got {value!r}")
    return value


def _number(d: dict, key: str, context: str, default=0.0):
    return _typed(d.get(key, default), (int, float), "a number", key, context)


def scene_from_dict(d: dict) -> SceneSpec:
    try:
        return _scene_from_dict(_object(d, "scene"))
    except SceneValidationError:
        raise
    except (TypeError, ValueError, OverflowError) as e:  # e.g. a position that is not three floats
        raise SceneValidationError(f"scene has a malformed value: {e}") from None


def _scene_from_dict(d: dict) -> SceneSpec:
    _check_keys(
        d,
        {"room_dims", "rt60_s", "absorption", "array_center", "array", "sources", "noise", "seed"},
        "scene",
    )
    offsets = resolve_array(_require(d, "array", "scene"))
    sources = []
    for j, s in enumerate(_typed(_require(d, "sources", "scene"), (list,), "a list", "sources", "scene")):
        ctx = f"sources[{j}]"
        _check_keys(_object(s, ctx), {"position", "class", "gain_db", "wav"}, ctx)
        sources.append(
            SourceSpec(
                position=json_array(_require(s, "position", ctx), f"{ctx} position"),
                class_label=_typed(_require(s, "class", ctx), (str,), "a string", "class", ctx),
                gain_db=_number(s, "gain_db", ctx),
                wav=_typed(_require(s, "wav", ctx), (str,), "a string", "wav", ctx),
            )
        )
    noise = None
    if d.get("noise") is not None:
        _check_keys(_object(d["noise"], "noise"), {"wav", "gain_db"}, "noise")
        wav = _typed(_require(d["noise"], "wav", "noise"), (str,), "a string", "wav", "noise")
        noise = NoiseSpec(wav=wav, gain_db=_number(d["noise"], "gain_db", "noise"))
    return SceneSpec(
        room_dims=json_array(_require(d, "room_dims", "scene"), "room_dims"),
        array_center=json_array(_require(d, "array_center", "scene"), "array_center"),
        array_offsets=offsets,
        sources=sources,
        rt60_s=None if d.get("rt60_s") is None else _number(d, "rt60_s", "scene"),
        absorption=None if d.get("absorption") is None else json_array(d["absorption"], "absorption"),
        noise=noise,
        seed=_typed(d.get("seed", 0), (int,), "an integer", "seed", "scene"),
    )


def _scene(data: bytes, where) -> SceneSpec:
    """One scene from JSON bytes; every error is a SceneValidationError that starts with where."""
    try:
        return scene_from_dict(parse_json(data, where))
    except SceneValidationError as exc:
        raise SceneValidationError(f"{where}: {exc}") from exc
    except ValueError as exc:  # parse_json's, which names where
        raise SceneValidationError(str(exc)) from exc


def read_manifest(path) -> list[SceneSpec]:
    """Read a JSON-lines manifest, one scene per line; any bad line raises SceneValidationError."""
    with Path(path).open("rb") as fh:
        return [_scene(raw, f"{path}:{lineno}") for lineno, raw in enumerate(fh, 1) if raw.strip()]
