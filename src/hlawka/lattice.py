"""Lattice enumeration: dilation times, spectra, and point counts.

The dilation time of a nonzero lattice point p = (m, n) with respect to a
shape is t(p) = |p| / r(theta(p)), the scale at which the dilated region
first contains p.  Distinct t values with multiplicities form the spectrum
(t_1 < t_2 < ..., a_k = number of boundary points of t_k D).

Enumeration walks the axis-aligned box in fixed row chunks; chunks may be
processed by a thread pool, but the merge happens in chunk order and every
chunk is reduced identically, so results are bit-identical across thread
counts.  For the square and the odd shape the dilation times are evaluated by
exact integer linear forms, which keeps their spectra exactly integral.  A
transformed shape gD reuses the kernel of D through t_{gD}(p) = t_D(g^-1 p),
so integral images such as GL(2,Z) images of the square stay exact too.
"""

from __future__ import annotations

import math
import os
import warnings
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
    "dilation_time",
    "dilation_times_block",
    "build_spectrum",
    "count_points",
    "default_threads",
    "map_box_chunks",
    "spectrum_to_csv",
]

_CHUNK_ROWS = 256


class LatticePoint(NamedTuple):
    m: int
    n: int


@dataclass(frozen=True)
class SpectrumEntry:
    t: float
    count: int
    witnesses: tuple[LatticePoint, ...]


@dataclass(frozen=True)
class Spectrum:
    """Ordered dilation spectrum up to t_max."""

    entries: tuple[SpectrumEntry, ...]
    t_max: float
    tolerance: float

    def count_up_to(self, x: float) -> int:
        return sum(e.count for e in self.entries if e.t <= x)

    @property
    def t_values(self) -> np.ndarray:
        return np.array([e.t for e in self.entries])

    @property
    def counts(self) -> np.ndarray:
        return np.array([e.count for e in self.entries], dtype=np.int64)


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
# Chunked box enumeration
# ---------------------------------------------------------------------------


def map_box_chunks(
    bound: int,
    func: Callable[[np.ndarray, np.ndarray], object],
    threads: int | None = None,
    chunk_rows: int = _CHUNK_ROWS,
) -> list:
    """Apply ``func(m_block, n_block)`` over the box [-bound, bound]^2.

    Blocks are full rows (m varies fastest within a block); results come back
    in ascending-n chunk order regardless of the thread count.  ``func`` must
    be pure.  The origin is included; callers mask it.
    """
    ms = np.arange(-bound, bound + 1)
    starts = list(range(-bound, bound + 1, chunk_rows))

    def run(start: int):
        rows = np.arange(start, min(start + chunk_rows, bound + 1))
        n_block, m_block = np.meshgrid(rows, ms, indexing="ij")
        return func(m_block.ravel(), n_block.ravel())

    threads = threads or default_threads()
    if threads <= 1 or len(starts) <= 1:
        return [run(s) for s in starts]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, starts))


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
        nz = (m != 0) | (n != 0)
        m, n = m[nz], n[nz]
        t = dilation_times_block(shape, m, n)
        keep = t <= t_max * (1.0 + tolerance)
        return m[keep], n[keep], t[keep]

    parts = map_box_chunks(bound, chunk, threads=threads)
    m_all = np.concatenate([p[0] for p in parts])
    n_all = np.concatenate([p[1] for p in parts])
    t_all = np.concatenate([p[2] for p in parts])

    order = np.lexsort((n_all, m_all, t_all))
    m_all, n_all, t_all = m_all[order], n_all[order], t_all[order]

    entries: list[SpectrumEntry] = []
    i = 0
    total = len(t_all)
    prev_upper = None
    while i < total:
        t0 = t_all[i]
        j = i + 1
        while j < total and t_all[j] - t_all[j - 1] <= tolerance * max(t_all[j], 1.0):
            j += 1
        witnesses = tuple(
            LatticePoint(int(m_all[k]), int(n_all[k])) for k in range(i, min(j, i + max_witnesses))
        )
        entries.append(SpectrumEntry(t=float(t0), count=j - i, witnesses=witnesses))
        if prev_upper is not None and t0 - prev_upper < 10.0 * tolerance * max(t0, 1.0):
            warnings.warn(
                f"spectral lines at {prev_upper:.15g} and {t0:.15g} are separated by "
                f"less than 10x the grouping tolerance; grouping may be ambiguous",
                stacklevel=2,
            )
        prev_upper = t_all[j - 1]
        i = j

    return Spectrum(entries=tuple(entries), t_max=float(t_max), tolerance=float(tolerance))


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
        nz = (m != 0) | (n != 0)
        t = dilation_times_block(shape, m[nz], n[nz])
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
    for k, e in enumerate(spec.entries, start=1):
        lines.append(f"{k},{e.t:.15g},{e.count}")
    return "\n".join(lines) + "\n"
