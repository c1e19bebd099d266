"""Lattice enumeration: dilation times, spectra, and point counts.

The dilation time of a nonzero lattice point p = (m, n) with respect to a
shape is t(p) = |p| / r(theta(p)), the scale at which the dilated region
first contains p.  Distinct t values with multiplicities form the spectrum
(t_1 < t_2 < ..., a_k = number of boundary points of t_k D).

A ``Spectrum`` is array-backed: the lattice points up to t_max sorted by
(t, m, n), the index where each spectral line starts in that order, and per
line its first t value and its multiplicity.  Grouping the sorted values into
lines is one vectorized gap test.  ``Spectrum.entries`` is a read-only view
over those arrays that builds ``SpectrumEntry`` objects (with their first
witness points) only when they are read.

Enumeration walks only the rows of the disc |p| <= R, in chunks of whole rows
capped by point count (``map_box_chunks``); chunks may be processed by a thread
pool, but the merge happens in chunk order and every chunk is reduced
identically, so results are bit-identical across thread counts.  For the
square and the odd shape the dilation times are evaluated by exact integer
linear forms, which keeps their spectra exactly integral.  A
transformed shape gD reuses the kernel of D through t_{gD}(p) = t_D(g^-1 p),
so integral images such as GL(2,Z) images of the square stay exact too.
"""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError
from .shapes import RadialShape

__all__ = [
    "LatticePoint",
    "SpectrumEntry",
    "Spectrum",
    "SpectrumEntries",
    "dilation_time",
    "dilation_times_block",
    "build_spectrum",
    "count_points",
    "default_threads",
    "map_box_chunks",
    "spectrum_to_csv",
]

# points per enumeration chunk; half a chunk holds a row of the largest disc
_CHUNK_POINTS = 1 << 17


class LatticePoint(NamedTuple):
    m: int
    n: int


@dataclass(frozen=True)
class SpectrumEntry:
    t: float
    count: int
    witnesses: tuple[LatticePoint, ...]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ordered dilation spectrum up to t_max.

    Line k (0-based) consists of the points ``m[starts[k]:starts[k] +
    counts[k]]``, ``n[...]`` alike, whose dilation times agree within the
    grouping tolerance; ``t_values[k]`` is the smallest of them.  All points
    are sorted by (t, m, n).  The arrays are read-only.
    """

    t_values: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    m: np.ndarray
    n: np.ndarray
    t_max: float
    tolerance: float
    max_witnesses: int = 8

    def __post_init__(self):
        for a in (self.t_values, self.counts, self.starts, self.m, self.n):
            a.flags.writeable = False

    @property
    def entries(self) -> "SpectrumEntries":
        return SpectrumEntries(self)

    def count_up_to(self, x: float) -> int:
        k = int(np.searchsorted(self.t_values, x, side="right"))
        return int(self.counts[:k].sum())


class SpectrumEntries(Sequence):
    """Lazy read-only sequence of the ``SpectrumEntry`` lines of a spectrum."""

    __slots__ = ("_spec",)

    def __init__(self, spec: Spectrum):
        self._spec = spec

    def __len__(self) -> int:
        return len(self._spec.t_values)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        sp = self._spec
        t, count, start = sp.t_values[k], int(sp.counts[k]), int(sp.starts[k])
        stop = start + min(count, sp.max_witnesses)
        witnesses = tuple(
            LatticePoint(m, n) for m, n in zip(sp.m[start:stop].tolist(), sp.n[start:stop].tolist())
        )
        return SpectrumEntry(t=float(t), count=count, witnesses=witnesses)


def default_threads() -> int:
    env = os.environ.get("HLAWKA_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(4, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Dilation times
# ---------------------------------------------------------------------------


def dilation_times_block(shape: RadialShape, m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Vectorized t(m, n); callers must mask out the origin themselves.

    Kind-specific closed forms avoid the trig round trip where possible: for
    the square and the odd shape the result is an exact small integer.
    """
    kind = shape.kind
    if kind == "transformed":
        g, base = shape.params
        return dilation_times_block(base, *g.inverse().apply(m, n))
    if kind == "square":
        return np.maximum(np.abs(m), np.abs(n)).astype(float)
    if kind == "odd":
        return _odd_times(m, n)
    if kind == "constant":
        return np.hypot(m, n) / shape.params[0]
    if kind == "ellipse":
        a, b, phi = shape.params
        if phi == 0.0:
            return np.sqrt((m / a) ** 2 + (n / b) ** 2)
        cp, sp = math.cos(phi), math.sin(phi)
        mm = cp * m + sp * n  # rotate the point by -phi
        nn = -sp * m + cp * n
        return np.sqrt((mm / a) ** 2 + (nn / b) ** 2)
    theta = np.arctan2(n, m)
    return np.hypot(m, n) / np.asarray(shape.evaluate(theta))


def _odd_times(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Exact linear forms per boundary segment (integer for integer input)."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    conds = [
        (m > 0) & (n >= 0) & (2 * n <= m),   # x - y = 1
        (n > 0) & (m >= n) & (m <= 2 * n),   # y = 1 shelf
        (n > 0) & (m >= 0) & (m <= n),       # -x + 2y = 1
        (n > 0) & (m <= 0) & (-m <= n),      # x + 2y = 1
        (m < 0) & (np.abs(n) <= -m),         # x = -1
        (n < 0) & (np.abs(m) <= -n),         # y = -1
        (m > 0) & (n <= 0) & (-n <= m),      # x = 1
    ]
    vals = [m - n, n, 2 * n - m, m + 2 * n, -m, -n, m]
    return np.select(conds, vals, default=np.nan)


def dilation_time(shape: RadialShape, p: tuple[int, int]) -> float:
    """t(p) for a single nonzero lattice point."""
    m, n = int(p[0]), int(p[1])
    if m == 0 and n == 0:
        raise ValidationError("dilation time of the origin is undefined")
    return float(dilation_times_block(shape, np.array([m]), np.array([n]))[0])


# ---------------------------------------------------------------------------
# Chunked disc enumeration
# ---------------------------------------------------------------------------


def map_box_chunks(
    bound: float,
    func: Callable[[np.ndarray, np.ndarray], object],
    threads: int | None = None,
    half: bool = False,
) -> list:
    """Apply ``func(m_block, n_block)`` over the points 0 < m^2 + n^2 <= bound^2
    (those of the float test against bound * bound); ``bound`` is the radius.

    A block is a run of whole rows of the half plane n > 0 or (n = 0, m > 0)
    followed by its mirror image -p, at most ``_CHUNK_POINTS`` points; blocks
    depend only on ``bound`` and results come back in block order whatever
    the thread count.  ``func`` must be pure.  ``half`` leaves the mirror out,
    for sums of terms even under p -> -p, which the caller doubles exactly.
    """
    k2 = math.floor(bound * bound)
    rows = np.arange(math.isqrt(k2) + 1)
    room = k2 - rows * rows
    ext = np.floor(np.sqrt(room)).astype(np.int64)  # row n holds |m| <= isqrt(room)
    ext += (ext + 1) ** 2 <= room  # exact integer correction of the float root
    ext -= ext**2 > room
    first, counts = -ext, 2 * ext + 1
    first[0], counts[0] = 1, ext[0]
    ends = np.cumsum(counts)
    cap = _CHUNK_POINTS if half else _CHUNK_POINTS // 2
    cuts = [0]
    while cuts[-1] < len(rows):
        limit = ends[cuts[-1]] - counts[cuts[-1]] + cap
        cuts.append(max(int(np.searchsorted(ends, limit, side="right")), cuts[-1] + 1))
    chunks = [slice(a, b) for a, b in zip(cuts, cuts[1:])]

    def run(c: slice):
        starts = np.cumsum(counts[c]) - counts[c]
        m = np.arange(int(counts[c].sum())) + np.repeat(first[c] - starts, counts[c])
        n = np.repeat(rows[c], counts[c])
        if not half:
            m, n = np.concatenate((m, -m)), np.concatenate((n, -n))
        return func(m, n)

    threads = threads or default_threads()
    if threads <= 1 or len(chunks) <= 1:
        return [run(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, chunks))


# ---------------------------------------------------------------------------
# Spectrum construction
# ---------------------------------------------------------------------------


def build_spectrum(
    shape: RadialShape,
    t_max: float,
    tolerance: float | None = None,
    threads: int | None = None,
    max_witnesses: int = 8,
) -> Spectrum:
    """Enumerate all dilation times <= t_max and group them into (t_k, a_k).

    Grouping is by relative gaps: consecutive sorted values within
    ``tolerance * t`` fall into one spectral line.  A warning is emitted when
    two groups are separated by less than 10x the tolerance, since floating
    point cannot certify such near-ties.
    """
    if not (t_max > 0.0):
        raise ValidationError("t_max must be positive")
    if tolerance is None:
        tolerance = 1e-9
    if tolerance <= 0.0:
        raise ValidationError("tolerance must be positive")

    bound = int(math.ceil(t_max * shape.r_max * (1.0 + 1e-9))) + 1

    def chunk(m: np.ndarray, n: np.ndarray):
        t = dilation_times_block(shape, m, n)
        keep = t <= t_max * (1.0 + tolerance)
        return m[keep], n[keep], t[keep]

    parts = map_box_chunks(bound, chunk, threads=threads)
    m_all = np.concatenate([p[0] for p in parts])
    n_all = np.concatenate([p[1] for p in parts])
    t_all = np.concatenate([p[2] for p in parts])

    order = np.lexsort((n_all, m_all, t_all))
    m_all, n_all, t_all = m_all[order], n_all[order], t_all[order]

    # a new line starts wherever the gap to the previous value exceeds the
    # relative tolerance
    gap = np.diff(t_all)
    breaks = np.flatnonzero(gap > tolerance * np.maximum(t_all[1:], 1.0)) + 1
    starts = np.concatenate(([0], breaks)) if len(t_all) else breaks
    counts = np.diff(np.append(starts, len(t_all)))
    t_values = t_all[starts]

    # the gap between a line's last value and the next line's first
    near = gap[breaks - 1] < 10.0 * tolerance * np.maximum(t_values[1:], 1.0)
    for b in breaks[near]:
        warnings.warn(
            f"spectral lines at {t_all[b - 1]:.15g} and {t_all[b]:.15g} are separated by "
            f"less than 10x the grouping tolerance; grouping may be ambiguous",
            stacklevel=2,
        )

    return Spectrum(
        t_values=t_values,
        counts=counts,
        starts=starts,
        m=m_all,
        n=n_all,
        t_max=float(t_max),
        tolerance=float(tolerance),
        max_witnesses=max_witnesses,
    )


def count_points(
    shape: RadialShape,
    x: float,
    half_weight_boundary: bool = False,
    threads: int | None = None,
    tolerance: float = 1e-9,
) -> float:
    """Number of nonzero lattice points with t(p) <= x.

    With ``half_weight_boundary`` the points on the boundary (|t - x| within
    the relative tolerance) contribute 1/2 each, matching the value the
    contour-integral inversion converges to at jump points.
    """
    if not (x > 0.0):
        raise ValidationError("x must be positive")
    bound = int(math.ceil(x * shape.r_max * (1.0 + 1e-9))) + 1
    cut = x * (1.0 + tolerance)
    edge = x * tolerance

    def chunk(m: np.ndarray, n: np.ndarray):
        t = dilation_times_block(shape, m, n)
        inside = t <= cut
        if not half_weight_boundary:
            return float(np.count_nonzero(inside))
        boundary = np.abs(t - x) <= edge
        return float(np.count_nonzero(inside & ~boundary)) + 0.5 * float(
            np.count_nonzero(boundary)
        )

    parts = map_box_chunks(bound, chunk, threads=threads)
    return float(np.sum(np.asarray(parts)))


def spectrum_to_csv(spec: Spectrum) -> str:
    """CSV export: header ``k,t_k,a_k``, 15 significant digits."""
    lines = ["k,t_k,a_k"]
    for k, (t, a) in enumerate(zip(spec.t_values.tolist(), spec.counts.tolist()), start=1):
        lines.append(f"{k},{t:.15g},{a}")
    return "\n".join(lines) + "\n"
