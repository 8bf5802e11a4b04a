#!/usr/bin/env python3
"""Print requested against measured RT60, and what the simulator built, as a Markdown table.

One source at (1.9, 3.4, 1.6) and the tetrahedral array, centred as the
benchmark centres it, in two rooms (the reference 5.57 x 5.20 x 3.79 m room
and an 8 x 6 x 3.5 m room), at each of five RT60 values: ten rows, each the
`render` block that `simulate` writes to truth.json for that source, plus the
RIR's length in samples, the median wall time of 5 `simulate_rir` calls, and
the median wall time of 5 renders of both stems of one fixed 4 s noise source
through that RIR (the stem convolutions of `render_scene`). No options:

    PYTHONPATH=src python3 scripts/rt60_table.py
"""

import statistics
import time

import numpy as np

from soundcompass.roomsim import _render_record, fftconvolve, simulate_rir
from soundcompass.scenes import SceneSpec, SourceSpec, tetrahedral_offsets

FS = 16000
SOURCE = [1.9, 3.4, 1.6]
# (name, room dims, array centre) in metres
ROOMS = [
    ("5.57x5.20x3.79", [5.57, 5.20, 3.79], [2.8, 2.6, 1.5]),
    ("8x6x3.5", [8.0, 6.0, 3.5], [4.0, 3.0, 1.5]),
]
RT60S = [0.2, 0.32, 0.6, 0.8, 1.2]
COLUMNS = [
    "room", "rt60_requested_s", "rt60_measured_s", "rt60_rel_err", "num_images", "rir_samples", "window_radius_m",
    "tail_onset_s", "simulate_ms", "convolve_ms",
]
CALLS = 5  # simulate_ms and convolve_ms are the medians of this many calls
NOISE = np.random.default_rng(0).standard_normal(4 * FS)  # the source convolve_ms renders


def rows():
    for name, dims, centre in ROOMS:
        for rt60 in RT60S:
            spec = SceneSpec(
                room_dims=dims,
                array_center=centre,
                array_offsets=tetrahedral_offsets(),
                sources=[SourceSpec(position=SOURCE, class_label="source", gain_db=0.0, wav="unused.wav")],
                rt60_s=rt60,
            )
            simulate_ms, rir = timed(lambda: simulate_rir(spec, 0, sample_rate=FS))
            # both stems, as render_scene convolves them
            convolve_ms, _ = timed(
                lambda: [fftconvolve(NOISE, taps, NOISE.size) for taps in (rir.direct_taps, rir.reverb_taps())]
            )
            yield {
                "room": name, **_render_record(spec, rir), "rir_samples": rir.taps.shape[1],
                "simulate_ms": simulate_ms, "convolve_ms": convolve_ms,
            }


def timed(call):
    """Median wall time of CALLS calls in milliseconds, and the last call's result."""
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times), result


def cell(value) -> str:
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def main() -> None:
    print("| " + " | ".join(COLUMNS) + " |")
    print("|" + "---|" * len(COLUMNS))
    for row in rows():
        print("| " + " | ".join(cell(row[c]) for c in COLUMNS) + " |")


if __name__ == "__main__":
    main()
