"""Per-thread arrays reused across the chunks of a lattice walk.

The chunked kernels (``lattice.map_box_chunks`` and the chunk functions it
runs) write every chunk-sized intermediate into ``scratch(name, size)``, so
a walk allocates its arrays once per worker thread instead of once per
chunk, and the allocator neither returns nor faults in that memory again
between chunks.  An array's contents are undefined when it is handed out,
and each name belongs to one step of one kernel: a caller must be done with
an array before it calls anything that takes the same name.  Nothing may
keep a scratch array beyond the chunk that filled it.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["scratch"]


class _Arrays(threading.local):
    def __init__(self):
        self.by_key: dict[tuple[str, np.dtype], np.ndarray] = {}


_ARRAYS = _Arrays()


def scratch(name: str, size: int, dtype=np.float64) -> np.ndarray:
    """The first ``size`` elements of the calling thread's 1-D array of that
    name and dtype, grown when too short."""
    key = (name, np.dtype(dtype))
    a = _ARRAYS.by_key.get(key)
    if a is None or a.size < size:
        a = _ARRAYS.by_key[key] = np.empty(size, dtype)
    return a[:size]
