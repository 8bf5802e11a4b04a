"""Spans recorded from outside the package, and injected costs for the self-check.

Wrappers replace a function in the module where its caller looks it up (for
example ``soundcompass.cli.delay_and_sum``), so nothing under ``src/`` knows
it is being traced. A span is ``[name, start, end, parent, op, bytes]`` with
times from ``time.perf_counter``, which on Linux is one clock for every
process of the machine, so spans written by a child process line up with the
parent's.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

# span name -> the "module:attribute" bindings its callers look up
SITES = {
    "roomsim.simulate_rir": ["roomsim:simulate_rir"],
    "roomsim.stem_convolution": ["roomsim:fftconvolve"],
    "roomsim.frame_activation": ["roomsim:frame_activation"],
    "roomsim.render_scene": ["roomsim:render_scene"],
    "scenes.read_manifest": ["cli:read_manifest"],
    "audio_io.read_wav": ["audio_io:read_wav", "cli:read_wav", "roomsim:read_wav"],
    "audio_io.write_wav": ["cli:write_wav", "roomsim:write_wav"],
    "cli.simulate": ["cli:cmd_simulate"],
    "cli.extract": ["cli:cmd_extract"],
    "cli.evaluate": ["cli:cmd_evaluate"],
    "cli.contour": ["cli:cmd_contour"],
    "extractor.delay_and_sum": ["extractor:delay_and_sum", "cli:delay_and_sum"],
    "metrics.evaluate_extraction": ["metrics:evaluate_extraction", "cli:evaluate_extraction"],
    "metrics.si_snr": ["metrics:si_snr"],
    "metrics.si_snr_i": ["metrics:si_snr_i", "cli:si_snr_i"],
    "metrics.spatial_errors": ["metrics:spatial_errors"],
    "metrics.gcc_phat_itd": ["metrics:gcc_phat_itd"],
    "spectral.stft": ["spectral:stft", "metrics:stft", "cli:stft"],
    "spectral.istft": ["spectral:istft"],
    "spectral.split_bands": ["spectral:split_bands", "fusion:split_bands"],
    "spectral.merge_bands": ["spectral:merge_bands"],
    "spin.spin_forward": ["spin:spin_forward", "cli:spin_forward"],
    "clues.encode_sh": ["clues:encode_sh", "cli:encode_sh"],
    "clues.build_time_varying_clue": ["clues:build_time_varying_clue", "cli:build_time_varying_clue"],
    "fusion.encode_band_feature": ["fusion:encode_band_feature"],
    "fusion.fuse_all_bands": ["fusion:fuse_all_bands"],
    "fusion.film_gradients": ["fusion:film_gradients"],
}

# names the self-check may slow down; "import" is the launcher's import step
INJECTABLE = ("roomsim.simulate_rir", "extractor.delay_and_sum", "fusion.fuse_all_bands", "import")


def _path_arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# bytes moved by one call, measured after the span has closed
BYTES = {
    "audio_io.read_wav": lambda a, k, out: _file_size(_path_arg(a, k, 0, "path")),
    "audio_io.write_wav": lambda a, k, out: _file_size(_path_arg(a, k, 1, "path")),
}


def _rt60_observer(sink):
    """Record (requested, measured) RT60 for every reverberant RIR built."""
    from soundcompass import roomsim

    def observe(args, kwargs, rir):
        spec = _path_arg(args, kwargs, 0, "spec")
        if spec.rt60_s is not None:
            sink.append((float(spec.rt60_s), float(roomsim.schroeder_rt60(rir))))

    return observe


class Tracer:
    """In-memory span list with a stack of open spans; one op id at a time."""

    def __init__(self):
        self.spans = []
        self.rt60 = []  # (requested, measured) pairs
        self.missing = set()  # bindings a patch could not find
        self._stack = []
        self.op = None

    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None, self.current(), self.op, 0])
        i = len(self.spans) - 1
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def adopt(self, child_spans, parent: int) -> None:
        """Append spans a child process recorded, re-rooted under ``parent``."""
        base = len(self.spans)
        for name, start, end, p, _op, nbytes in child_spans:
            self.spans.append([name, start, end, parent if p is None else base + p, self.op, nbytes])


def _traced(tracer: Tracer, name: str, fn, observe=None):
    size = BYTES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if size is not None:
            tracer.spans[i][5] = size(args, kwargs, out)
        if observe is not None:
            observe(args, kwargs, out)
        return out

    return wrapper


def _delayed(seconds: float, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        time.sleep(seconds)
        return fn(*args, **kwargs)

    return wrapper


class Patch:
    """Module attributes replaced by wrappers; ``undo`` puts the originals back."""

    def __init__(self):
        self._saved = []
        self.missing = []  # bindings absent from the package

    def _replace(self, name, make):
        for site in SITES[name]:
            mod_name, attr = site.split(":")
            try:
                mod = importlib.import_module(f"soundcompass.{mod_name}")
            except ModuleNotFoundError:
                mod = None
            if not hasattr(mod, attr):
                self.missing.append(site)
                continue
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, make(original))

    def inject(self, costs: dict) -> "Patch":
        """Sleep ``costs[name]`` seconds before every call of ``name``."""
        for name, seconds in costs.items():
            if name in SITES:
                self._replace(name, functools.partial(_delayed, seconds))
        return self

    def trace(self, tracer: Tracer) -> "Patch":
        rt60 = _rt60_observer(tracer.rt60)
        for name in SITES:
            observe = rt60 if name == "roomsim.simulate_rir" else None
            self._replace(name, lambda fn, name=name, observe=observe: _traced(tracer, name, fn, observe))
        return self

    def undo(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


def parse_costs(items) -> dict:
    """``["name=seconds", ...]`` -> {name: seconds}, names checked."""
    costs = {}
    for item in items or []:
        name, _, value = item.partition("=")
        if name not in INJECTABLE:
            raise ValueError(f"cannot inject a cost into {name!r}; choose from {INJECTABLE}")
        costs[name] = float(value)
    return costs


def summarize(spans, ops) -> dict:
    """Totals per span name over the spans of the given op ids.

    ``calls`` and ``bytes`` count every span; ``busy_s`` sums the spans with
    no ancestor of the same name; ``self_s`` is each span's duration minus
    the time its child spans cover (children run one after another).
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _op, _b in spans:
        if parent is not None:
            covered[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, op, nbytes) in enumerate(spans):
        if op not in ops:
            continue
        t = totals.setdefault(name, {"calls": 0, "bytes": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["bytes"] += nbytes
        t["self_s"] += end - start - covered[i]
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            t["busy_s"] += end - start
    return totals


def covered(spans, ops, prefixes) -> float:
    """Time covered by spans whose name starts with one of ``prefixes``,
    counting a span nested in another such span once."""
    total = 0.0
    for name, start, end, parent, op, _b in spans:
        if op not in ops or not name.startswith(prefixes):
            continue
        p = parent
        while p is not None and not spans[p][0].startswith(prefixes):
            p = spans[p][3]
        if p is None:
            total += end - start
    return total
