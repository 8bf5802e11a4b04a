"""Reused memory for the front end's largest per-call arrays.

spin_forward and merge_bands each fill a bin-major float64 array of tens
of MiB per call. From malloc, glibc keeps such arrays in its heap once one
has been freed, and whether a later one reuses a gap or grows the heap
depends on the small allocations that land between them: a long-running
process's peak memory then moved by about one such array from run to run.
recycled_empty takes these arrays from anonymous mappings instead and, once
an array is freed, hands its mapping to the next array of the same size, so
they neither sit in the heap nor fault in fresh pages on every call.
"""

from __future__ import annotations

import math
import mmap
import threading
import weakref

import numpy as np

MIN_BYTES = 1 << 20  # smaller arrays come from numpy's own allocator
MAX_SPARE_BYTES = 256 << 20  # released mappings kept for reuse, all sizes

# reentrant: a garbage collection while the lock is held can free an array
# and so call _release on the same thread
_lock = threading.RLock()
_spare: list[mmap.mmap] = []  # released mappings, oldest first


def recycled_empty(shape) -> np.ndarray:
    """An uninitialized C-contiguous float64 array of the given shape.

    From MIN_BYTES on, its memory is an anonymous mapping: the mapping of a
    freed array of the same byte size if one is spare, else a new one. When
    the array and every view of it are freed, the mapping becomes spare
    while at most MAX_SPARE_BYTES are; otherwise it is unmapped.
    """
    nbytes = 8 * math.prod(shape)
    if nbytes < MIN_BYTES:
        return np.empty(shape)
    with _lock:
        i = next((i for i, m in enumerate(_spare) if len(m) == nbytes), None)
        buf = None if i is None else _spare.pop(i)
    if buf is None:
        buf = mmap.mmap(-1, nbytes)
        if hasattr(mmap, "MADV_HUGEPAGE"):  # as numpy asks for its own large arrays
            buf.madvise(mmap.MADV_HUGEPAGE)
    flat = np.frombuffer(buf, dtype=np.float64)
    weakref.finalize(flat, _release, buf).atexit = False
    return flat.reshape(shape)


def _release(buf: mmap.mmap) -> None:
    with _lock:
        if sum(map(len, _spare)) + len(buf) <= MAX_SPARE_BYTES:
            _spare.append(buf)
