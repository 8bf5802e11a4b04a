"""The three workloads: set-up, one op, and the checks on each op's output.

A workload turns the seed into input files in ``setup``, lists the ops of
its n-th cycle in ``cycle``, runs one op in ``run`` and checks that op's
output in ``check``, which returns ``(ok, digest, detail)``. The runner
compares each digest with the first one seen for the same op, so every op
must produce the same bytes every time.

The checks read files back with this module's own WAV reader, never through
the package, so they add no spans to a traced op.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from soundcompass import audio_io, cli, clues, extractor, fusion, metrics, roomsim, scenes, spectral, spin

import inputs

LAUNCHER = Path(__file__).resolve().parent / "launch.py"
CHILD_TIMEOUT_S = 120
FFT, HOP = 512, 256
WINDOW = spectral.GaussianWindowParams(mean=0.5, std=0.25, length=FFT)
SPEED_OF_SOUND = 343.0
FLOAT32_HALF_ULP = 2.0**-24  # relative rounding of one float32 write


class OpFailed(Exception):
    """The program exited non-zero or produced no output."""


def read_float_wav(path: Path) -> np.ndarray:
    """[channels, samples] float64 from a float32 WAV as ``write_wav`` lays it out."""
    raw = path.read_bytes()
    channels = int.from_bytes(raw[22:24], "little")
    pos = 12
    while pos + 8 <= len(raw):
        size = int.from_bytes(raw[pos + 4 : pos + 8], "little")
        if raw[pos : pos + 4] == b"data":
            data = np.frombuffer(raw, dtype="<f4", count=size // 4, offset=pos + 8)
            return data.reshape(-1, channels).T.astype(np.float64)
        pos += 8 + size + size % 2
    raise OpFailed(f"{path}: no data chunk")


def frames_for(num_samples: int) -> int:
    """STFT frame count of the package's framing (end padded, last frame kept)."""
    return 1 if num_samples <= FFT else (num_samples - FFT) // HOP + 2


def file_digest(*paths: Path) -> str:
    h = hashlib.sha1()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def true_bearing(truth: dict, j: int = 0) -> clues.DoAClue:
    src = truth["sources"][j]
    return clues.DoAClue(src["azimuth"], src["polar"])


class Workload:
    name = ""
    spawns_children = False
    dominant = ()  # span-name prefixes predicted to take most of an op
    def __init__(self, seed: int, env: dict):
        self.seed = seed
        self.env = env  # environment for child processes
        self.tracer = None  # set while the runner traces
        self.costs = {}  # injected costs, for the self-check only
        self.dir = None

    def kind(self, key) -> str:
        raise NotImplementedError


class RenderSweep(Workload):
    """``simulate`` one scene per op, in-process: 2 rooms x 5 RT60 values."""

    name = "render_rt_sweep"
    dominant = ("roomsim.simulate_rir",)

    def setup(self, d: Path) -> None:
        rng = np.random.default_rng(self.seed)
        self.dir, self.manifests = d, []
        rooms = (inputs.REFERENCE_ROOM, inputs.LARGE_ROOM)
        for i, (room, rt60) in enumerate((r, t) for r in rooms for t in inputs.RT60_SWEEP):
            scene = inputs.make_scene(d, f"scene{i}", rng, room, rt60)
            self.manifests.append(d / f"scene{i}.jsonl")
            inputs.write_manifest(self.manifests[-1], [scene])

    def cycle(self, n: int) -> list:
        return list(range(len(self.manifests)))

    def kind(self, key) -> str:
        return "simulate"

    def run(self, key):
        out = self.dir / f"out{key}"
        argv = ["simulate", "--manifest", str(self.manifests[key]), "--out", str(out), "--jobs", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"simulate exited {code}")
        return out / "scene_0"

    def check(self, key, scene_dir: Path):
        names = ["mixture.wav"] + [f"src{j}_{part}.wav" for j in (0, 1) for part in ("direct", "reverb")]
        mix = read_float_wav(scene_dir / names[0])
        stems = [read_float_wav(scene_dir / n) for n in names[1:]]
        # each file rounds to float32 on its own, so the read-back sum may
        # differ from the read-back mixture by half an ulp of every term
        deviation = np.abs(sum(stems) - mix)
        limit = FLOAT32_HALF_ULP * (np.abs(mix) + sum(np.abs(s) for s in stems)) + 1e-12
        truth = json.loads((scene_dir / "truth.json").read_text(encoding="utf-8"))
        frames = frames_for(mix.shape[1])
        ok = (
            bool(np.all(deviation <= limit))
            and truth["num_samples"] == mix.shape[1]
            and all(len(s["activation"]) == frames for s in truth["sources"])
        )
        paths = [scene_dir / n for n in names + ["truth.json"]]
        return ok, file_digest(*paths), {"stems_sum_dev": float(deviation.max())}


class CliSteerSession(Workload):
    """extract, evaluate, contour on one pre-rendered scene, each a fresh CLI process."""

    name = "cli_steer_session"
    spawns_children = True
    dominant = ("cli.import",)

    def setup(self, d: Path) -> None:
        rng = np.random.default_rng(self.seed)
        self.dir, self.bearings = d, []
        specs = [
            inputs.make_scene(d, "reverb", rng, inputs.REFERENCE_ROOM, 0.32),
            inputs.make_scene(d, "anechoic", rng, inputs.REFERENCE_ROOM, None),
        ]
        for s, spec in enumerate(specs):
            scene_dir = d / f"scene{s}"
            roomsim.render_scene_to_dir(scenes.scene_from_dict(spec), scene_dir, base_dir=d)
            truth = json.loads((scene_dir / "truth.json").read_text(encoding="utf-8"))
            self.bearings.append(true_bearing(truth).to_degrees())

    def cycle(self, n: int) -> list:
        s = n % len(self.bearings)
        return [("extract", s), ("evaluate", s), ("contour", s)]

    def kind(self, key) -> str:
        return key[0]

    def _output(self, key) -> Path:
        cmd, s = key
        return self.dir / f"scene{s}_{cmd}.{'wav' if cmd == 'extract' else 'csv'}"

    def _argv(self, key) -> list:
        cmd, s = key
        scene, out = str(self.dir / f"scene{s}"), str(self._output(key))
        if cmd == "extract":
            az, el = self.bearings[s]
            return ["extract", "--scene", scene, "--az", repr(az), "--el", repr(el), "--out", out]
        if cmd == "evaluate":
            est = str(self._output(("extract", s)))
            return ["evaluate", "--est", est, "--scene", scene, "--source", "0", "--out", out]
        return ["contour", "--scene", scene, "--source", "0", "--jobs", "1", "--out", out]

    def run(self, key):
        argv = self._argv(key)
        spans = self.dir / "child_spans.json"
        if self.tracer is None and not self.costs:
            command = [sys.executable, "-m", "soundcompass.cli", *argv]
        else:
            command = [sys.executable, str(LAUNCHER), "--spawned-at", repr(time.perf_counter())]
            command += [f"--inject={name}={sec!r}" for name, sec in self.costs.items()]
            if self.tracer is not None:
                command += ["--trace-out", str(spans)]
            command += ["--", *argv]
        proc = subprocess.run(
            command, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
        if self.tracer is not None and spans.exists():
            record = json.loads(spans.read_text(encoding="utf-8"))
            self.tracer.adopt(record["spans"], parent=self.tracer.current())
            self.tracer.missing.update(record["missing"])
            spans.unlink()
        if proc.returncode != 0:
            raise OpFailed(f"{key[0]} exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
        return self._output(key)

    def check(self, key, out: Path):
        cmd = key[0]
        if cmd == "extract":
            ok = read_float_wav(out).shape[0] == 4
            return ok, file_digest(out), {}
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if cmd == "evaluate":
            return len(rows) == 3, file_digest(out), {}
        values = [float(v) for row in rows[1:] for v in row]
        ok = len(rows) == 170 and all(math.isfinite(v) for v in values)
        at_truth = next(float(row[2]) for row in rows[1:] if float(row[0]) == 0.0 == float(row[1]))
        return ok, file_digest(out), {"contour_si_snri_db_at_truth": at_truth}


class FrontendFuse(Workload):
    """Featurize, condition, fuse, back-propagate and score one mixture in-process."""

    name = "frontend_fuse"
    dominant = ("spectral.", "spin.", "fusion.", "metrics.spatial_errors")
    RT60S = (0.2, 0.32, 0.6)
    SH_ORDER = 5
    C_IN, C_BAND, HIDDEN = 64, 16, 64

    def setup(self, d: Path) -> None:
        rng = np.random.default_rng(self.seed)
        self.dir, self.items = d, []
        for i, rt60 in enumerate(self.RT60S):
            spec = inputs.make_scene(d, f"mix{i}", rng, inputs.REFERENCE_ROOM, rt60)
            scene_dir = d / f"mix{i}"
            roomsim.render_scene_to_dir(scenes.scene_from_dict(spec), scene_dir, base_dir=d)
            truth = json.loads((scene_dir / "truth.json").read_text(encoding="utf-8"))
            offsets = np.asarray(truth["array_offsets"])
            aperture = max(np.linalg.norm(a - b) for a in offsets for b in offsets)
            self.items.append(
                {
                    "dir": scene_dir,
                    "clue": true_bearing(truth),
                    "activation": np.asarray(truth["sources"][0]["activation"]),
                    "offsets": offsets,
                    "max_lag_s": 1.5 * aperture / SPEED_OF_SOUND,
                    "frames": frames_for(truth["num_samples"]),
                }
            )
        self.layout = spectral.make_band_layout(FFT // 2 + 1, inputs.RATE, fft_size=FFT)
        dim_clue = 2 * (self.SH_ORDER + 1) ** 2
        self.weights = fusion.init_fusion_weights(
            self.layout, dim_clue, self.C_IN, self.C_BAND, self.HIDDEN, seed=self.seed
        )
        frames = self.items[0]["frames"]
        self.upstream = [rng.standard_normal((self.C_BAND, frames, hi - lo + 1)) for lo, hi in self.layout.bands]

    def cycle(self, n: int) -> list:
        return list(range(len(self.items)))

    def kind(self, key) -> str:
        return "fuse"

    def run(self, key):
        it = self.items[key]
        mix = audio_io.read_wav(it["dir"] / "mixture.wav")
        direct = audio_io.read_wav(it["dir"] / "src0_direct.wav")
        reverb = audio_io.read_wav(it["dir"] / "src0_reverb.wav")
        ref = audio_io.MultichannelWaveform(direct.samples + reverb.samples, direct.sample_rate)

        spec = spectral.stft(mix, WINDOW, FFT, HOP)
        feat = spin.spin_forward(spec)
        bands = spectral.split_bands(feat.pairwise, self.layout)
        emb = clues.encode_sh(it["clue"], self.SH_ORDER)
        clue = clues.build_time_varying_clue(emb, it["activation"], spec.num_frames)
        fused = fusion.fuse_all_bands(feat, self.layout, clue, self.weights)
        grads = [
            fusion.film_gradients(fusion.encode_band_feature(band, bw.feat), clue, bw, up)
            for band, bw, up in zip(bands, self.weights.bands, self.upstream)
        ]
        merged = spectral.merge_bands(bands, self.layout)
        recon = spectral.istft(spec, WINDOW, out_len=mix.num_samples)
        est = extractor.delay_and_sum(mix, it["clue"], it["offsets"])
        report = metrics.evaluate_extraction(
            est, ref, mix, scene_id=f"mix{key}", source_id="0", max_lag_s=it["max_lag_s"]
        )
        return {
            "mix": mix.samples, "pairwise": feat.pairwise, "merged": merged, "recon": recon.samples,
            "fused": fused.bands, "grads": grads, "est": est.samples, "report": report,
        }

    def check(self, key, out: dict):
        pw, mix = out["pairwise"], out["mix"]
        merge_err = float(np.abs(out["merged"] - pw).max() / np.abs(pw).max())
        recon_err = float(np.abs(out["recon"] - mix).max() / np.abs(mix).max())
        r = out["report"]
        scores = [r.snri_db, r.si_snri_db, r.d_ild_db, r.d_ipd_rad, r.d_itd_us]
        arrays = list(out["fused"]) + [out["est"]]
        arrays += [np.asarray(g[name]) for g in out["grads"] for name in sorted(g)]
        h = hashlib.sha1()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(repr(scores).encode())
        ok = (
            merge_err <= 1e-12
            and recon_err <= 1e-6
            and all(math.isfinite(v) for v in scores)
            and all(np.isfinite(a).all() for a in arrays)
        )
        return ok, h.hexdigest(), {"merge_rel_err": merge_err, "istft_rel_err": recon_err}


WORKLOADS = {w.name: w for w in (RenderSweep, CliSteerSession, FrontendFuse)}
