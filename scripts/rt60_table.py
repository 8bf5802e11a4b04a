#!/usr/bin/env python3
"""Print requested against measured RT60, and what the simulator built, as a Markdown table.

One source at (1.9, 3.4, 1.6) and the tetrahedral array, centred as the
benchmark centres it, in two rooms (the reference 5.57 x 5.20 x 3.79 m room
and an 8 x 6 x 3.5 m room), at each of five RT60 values: ten rows, each the
`render` block that `simulate` writes to truth.json for that source, plus the
RIR's length in samples and the median wall time of 5 `simulate_rir` calls.
No options:

    PYTHONPATH=src python3 scripts/rt60_table.py
"""

import statistics
import time

import numpy as np

from soundcompass import SceneSpec, SourceSpec, simulate_rir, tetrahedral_offsets
from soundcompass.roomsim import _render_record

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
    "tail_onset_s", "simulate_ms",
]
CALLS = 5  # simulate_ms is the median of this many calls


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
            times = []
            for _ in range(CALLS):
                t0 = time.perf_counter()
                rir = simulate_rir(spec, 0, sample_rate=FS)
                times.append(time.perf_counter() - t0)
            yield {
                "room": name, **_render_record(spec, rir), "rir_samples": rir.taps.shape[1],
                "simulate_ms": 1e3 * statistics.median(times),
            }


def cell(value) -> str:
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def main() -> None:
    print("| " + " | ".join(COLUMNS) + " |")
    print("|" + "---|" * len(COLUMNS))
    for row in rows():
        print("| " + " | ".join(cell(row[c]) for c in COLUMNS) + " |")


if __name__ == "__main__":
    main()
