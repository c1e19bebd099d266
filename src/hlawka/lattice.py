"""Lattice enumeration: dilation times, spectra, and point counts.

The dilation time of a nonzero point p with respect to a shape D is its gauge
t(p) = inf{t : p in tD}.  ``dilation_times_block`` is the one formula for it
per kind, and ``RadialShape.evaluate`` reads r(theta) = 1 / t(cos theta,
sin theta) off it, except for the circle and the cosine series, whose t is
|p| / r(theta(p)).  Distinct t values with multiplicities form the spectrum
(t_1 < t_2 < ..., a_k = number of boundary points of t_k D).

A ``Spectrum`` is array-backed: the lattice points up to t_max sorted by
(t, m, n), the index where each spectral line starts in that order, and per
line its first t value and its multiplicity.  Grouping the sorted values into
lines is one vectorized gap test.  ``Spectrum.entries`` is a read-only view
over those arrays that builds ``SpectrumEntry`` objects (with their first
witness points) only when they are read.

Enumeration walks only the rows of the disc |p| <= R, and of those only a
fundamental domain of a subgroup G of D4 (``map_box_chunks``): the octant
0 <= n <= m for all of D4, the quadrant m, n >= 0 for the reflections in the
axes, the half disc n >= 0 for n -> -n, the half plane for p -> -p and the
whole disc for the trivial group.  ``orbit_sizes`` gives each walked point's
orbit size, so a sum of G-invariant terms is the orbit-weighted sum over the
domain.  The walk goes in chunks of whole rows capped by point count; chunks
may be processed by a thread pool (one per thread count, started on first use
and kept), but the merge happens in chunk order and every chunk is reduced
identically, so results are bit-identical across thread counts.  Each worker
thread fills its chunks' points into its own scratch arrays
(``scratch.scratch``), and the hot dilation kernels write into such arrays
too, so no chunk-sized array is allocated per chunk.  For the
square and the odd shape the dilation times are evaluated by exact integer
piecewise-linear forms, which keeps their spectra exactly integral.  A
transformed shape gD reuses the kernel of D through t_{gD}(p) = t_D(g^-1 p),
so integral images such as GL(2,Z) images of the square stay exact too.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError
from .results import csv_table
from .scratch import scratch
from .shapes import RadialShape, Symmetry

__all__ = [
    "LatticePoint",
    "SpectrumEntry",
    "Spectrum",
    "SpectrumEntries",
    "dilation_time",
    "dilation_times_block",
    "build_spectrum",
    "count_points",
    "map_box_chunks",
    "orbit_sizes",
    "resolve_threads",
    "spectrum_to_csv",
]

# points per enumeration chunk, small enough that a worker's scratch arrays
# stay in its cache; a longer row makes a chunk of its own (on the whole disc
# from radius 8192 on).  Also the most values a table of the Perron
# integration (funceq.perron_count_approx) holds.
_CHUNK_POINTS = 1 << 15

# the largest worker count a walk accepts; the pool keeps that many threads
MAX_THREADS = 64

# the largest disc radius a count or a direct sum walks
MAX_RADIUS = 20000.0

# the most points of the disc a spectrum walks: at about 90 bytes per kept
# point at its peak (measured on the circle) it stays under about 1.5 GB
_SPECTRUM_POINTS = 1 << 24

# relative grouping tolerance of spectral lines and of point counts: the
# same value makes ``Spectrum.count_up_to`` agree with ``count_points``
_TOLERANCE = 1e-9


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
        stop = start + min(count, 8)  # the first 8 points witness the line
        witnesses = tuple(
            LatticePoint(m, n) for m, n in zip(sp.m[start:stop].tolist(), sp.n[start:stop].tolist())
        )
        return SpectrumEntry(t=float(t), count=count, witnesses=witnesses)


def resolve_threads(threads: int | None) -> int:
    """The worker count of a walk: ``threads``, or when it is None the
    ``HLAWKA_THREADS`` environment variable, or when that is unset or empty
    min(4, cpu count).  A count outside [1, MAX_THREADS], or an
    ``HLAWKA_THREADS`` that is no integer, is a ValidationError."""
    if threads is None:
        env = os.environ.get("HLAWKA_THREADS")
        if not env:
            return min(4, os.cpu_count() or 1)
        try:
            threads = int(env)
        except ValueError:
            raise ValidationError(f"HLAWKA_THREADS={env!r} is not an integer") from None
    if not 1 <= threads <= MAX_THREADS:
        raise ValidationError(f"thread count {threads} outside [1, {MAX_THREADS}]")
    return threads


# ---------------------------------------------------------------------------
# Dilation times
# ---------------------------------------------------------------------------


def dilation_times_block(
    shape: RadialShape, m: np.ndarray, n: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized t(m, n) over 1-D arrays, into ``out`` when it is given;
    callers must mask out the origin themselves.

    One closed form per kind, which ``RadialShape.evaluate`` reads r off;
    only the cosine series goes through r(theta).  For the square and the
    odd shape the result is an exact small integer.  Temporaries come from
    scratch arrays (a transformed shape allocates its preimage points).
    """
    k = len(m)
    if out is None:
        out = np.empty(k)
    kind = shape.kind
    if kind == "transformed":
        g, base = shape.params
        return dilation_times_block(base, *g.inverse().apply(m, n), out=out)
    if kind == "square":
        tmp = scratch("lattice.t1", k)
        np.absolute(m, out=out)
        np.absolute(n, out=tmp)
        return np.maximum(out, tmp, out=out)
    if kind == "odd":
        return _odd_times(m, n, out)
    if kind == "constant":
        np.hypot(m, n, out=out)
        out /= shape.params[0]
        return out
    if kind == "ellipse":
        a, b, phi = shape.params
        x, y = out, scratch("lattice.t1", k)
        if phi == 0.0:
            np.divide(m, a, out=x)
            np.divide(n, b, out=y)
        else:  # rotate the point by -phi
            cp, sp = math.cos(phi), math.sin(phi)
            tmp = scratch("lattice.t2", k)
            np.multiply(m, cp, out=x)
            x += np.multiply(n, sp, out=tmp)
            np.multiply(m, -sp, out=y)
            y += np.multiply(n, cp, out=tmp)
            x /= a
            y /= b
        np.square(x, out=x)
        x += np.square(y, out=y)
        return np.sqrt(x, out=out)
    if kind != "cosine-series":
        raise ValidationError(f"unknown shape kind {kind!r}")
    theta = np.arctan2(n, m, out=scratch("lattice.t1", k))
    r = shape.evaluate(theta, out=scratch("lattice.t2", k))
    np.hypot(m, n, out=out)
    out /= r
    return out


def _odd_times(m: np.ndarray, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The odd shape's gauge max(-m, m - n, n, 2n - |m|) above the axis
    (2n - |m| is the notch at (0, 1/2)) and max(|m|, -n) below it: exact
    integers for integer input."""
    k = len(m)
    am, upper = scratch("lattice.t1", k), scratch("lattice.t2", k)
    np.absolute(m, out=am)
    np.multiply(n, 2, out=upper)
    upper -= am
    np.maximum(upper, np.subtract(m, n, out=out), out=upper)
    np.maximum(upper, n, out=upper)
    np.maximum(upper, np.negative(m, out=out), out=upper)
    np.maximum(np.negative(n, out=out), am, out=out)
    np.copyto(out, upper, where=np.greater(n, 0, out=scratch("lattice.above", k, bool)))
    return out


def dilation_time(shape: RadialShape, p: tuple[int, int]) -> float:
    """t(p) for a single nonzero lattice point."""
    m, n = int(p[0]), int(p[1])
    if m == 0 and n == 0:
        raise ValidationError("dilation time of the origin is undefined")
    return float(dilation_times_block(shape, np.array([m]), np.array([n]))[0])


# ---------------------------------------------------------------------------
# Chunked disc enumeration
# ---------------------------------------------------------------------------


def _domain_rows(k2: int, symmetry: Symmetry):
    """Row segments (n, first m, count) of the fundamental domain of
    ``symmetry`` among the points 0 < m^2 + n^2 <= k2; for the trivial group
    the half plane n > 0 or (n = 0, m > 0), whose mirror image the walk adds."""
    rows = np.arange(math.isqrt(k2) + 1)
    room = k2 - rows * rows
    ext = np.floor(np.sqrt(room)).astype(np.int64)  # row n holds |m| <= isqrt(room)
    ext += (ext + 1) ** 2 <= room  # exact integer correction of the float root
    ext -= ext**2 > room
    if symmetry is Symmetry.D4:  # octant 0 <= n <= m
        keep = rows <= ext
        rows, ext = rows[keep], ext[keep]
        first = rows.copy()
    elif symmetry is Symmetry.KLEIN:  # quadrant m, n >= 0
        first = np.zeros_like(rows)
    else:  # half plane, or n >= 0 for REFLECTION
        first = -ext
    first[0] = 1
    counts = ext - first + 1
    if symmetry is Symmetry.REFLECTION:  # row 0 also holds -ext[0] <= m <= -1
        rows, first = np.append(0, rows), np.append(-ext[0], first)
        counts = np.append(ext[0], counts)
    return rows, first, counts


def orbit_sizes(symmetry: Symmetry, m: np.ndarray, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Orbit size under ``symmetry`` of each point of its fundamental domain
    (as ``map_box_chunks`` walks it), as floats into ``out``."""
    if symmetry is Symmetry.TRIVIAL:
        out.fill(1.0)
        return out
    if symmetry is Symmetry.NEGATION:
        out.fill(2.0)
        return out
    if symmetry is Symmetry.REFLECTION:  # 1 on the axis n = 0, else 2
        np.not_equal(n, 0, out=out)
        out += 1.0
        return out
    if symmetry is Symmetry.KLEIN:  # 2 on the axes, else 4
        np.multiply(m, n, out=out)
        scale = 2.0
    else:  # D4: 4 on the axis n = 0 and the diagonal n = m, else 8
        np.subtract(m, n, out=out)
        out *= n
        scale = 4.0
    np.not_equal(out, 0.0, out=out)
    out += 1.0
    out *= scale
    return out


def map_box_chunks(
    bound: float,
    func: Callable[[np.ndarray, np.ndarray], object],
    threads: int | None = None,
    symmetry: Symmetry = Symmetry.TRIVIAL,
) -> list:
    """Apply ``func(m_block, n_block)`` over the points 0 < m^2 + n^2 <= bound^2
    (those of the float test against bound * bound) of a fundamental domain
    of ``symmetry``; ``bound`` is the radius.

    A block is a run of whole rows of the domain, at most ``_CHUNK_POINTS``
    points unless it is a single row; for the trivial group the rows of the
    half plane n > 0 or (n = 0, m > 0) followed by their mirror image -p.
    Blocks depend only on ``bound`` and ``symmetry``, and results come back
    in block order whatever the thread count.  ``func`` must be pure, must
    not start another walk, and must not keep the int64 arrays it is handed:
    they are the worker thread's scratch arrays, refilled for its next block.
    """
    threads = resolve_threads(threads)
    k2 = math.floor(bound * bound)
    rows, first, counts = _domain_rows(k2, symmetry)
    mirror = symmetry is Symmetry.TRIVIAL
    ends = np.cumsum(counts)
    cap = _CHUNK_POINTS // 2 if mirror else _CHUNK_POINTS
    cuts = [0]
    while cuts[-1] < len(rows):
        limit = ends[cuts[-1]] - counts[cuts[-1]] + cap
        cuts.append(max(int(np.searchsorted(ends, limit, side="right")), cuts[-1] + 1))
    chunks = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    top = math.isqrt(k2)
    ramp = np.arange(-top, top + 1)  # row segments are slices of it

    def run(c: slice):
        size = int(counts[c].sum())
        m = scratch("lattice.m", 2 * size if mirror else size, np.int64)
        n = scratch("lattice.n", len(m), np.int64)
        pos = 0
        for row, lo, cnt in zip(rows[c].tolist(), first[c].tolist(), counts[c].tolist()):
            m[pos:pos + cnt] = ramp[top + lo:top + lo + cnt]
            n[pos:pos + cnt] = row
            pos += cnt
        if mirror:
            np.negative(m[:size], out=m[size:])
            np.negative(n[:size], out=n[size:])
        return func(m, n)

    if threads <= 1 or len(chunks) <= 1:
        return [run(c) for c in chunks]
    return list(_pool(threads).map(run, chunks))


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """The process's pool of ``threads`` workers, started on first use and
    kept, so that the workers and their scratch arrays serve every walk."""
    return ThreadPoolExecutor(max_workers=threads, thread_name_prefix="hlawka-walk")


# ---------------------------------------------------------------------------
# Spectrum construction
# ---------------------------------------------------------------------------


def _walk_bound(shape: RadialShape, x: float, cap: float, name: str) -> int:
    """A disc radius that holds every lattice point with t(p) <= x; a
    ValidationError before any walk when it exceeds ``cap``."""
    reach = x * shape.r_max * (1.0 + 1e-9)
    if not reach <= cap:
        raise ValidationError(f"{name}={x:g} needs a walk of radius {reach:.6g}, beyond the cap {cap:.6g}")
    return int(math.ceil(reach)) + 1


def build_spectrum(
    shape: RadialShape,
    t_max: float,
    tolerance: float | None = None,
    threads: int | None = None,
) -> Spectrum:
    """Enumerate all dilation times <= t_max and group them into (t_k, a_k).

    Grouping is by relative gaps: consecutive sorted values within
    ``tolerance * t`` fall into one spectral line.  A warning is emitted when
    two groups are separated by less than 10x the tolerance, since floating
    point cannot certify such near-ties.  A walk of more than
    ``_SPECTRUM_POINTS`` points is a ValidationError.
    """
    if not (t_max > 0.0):
        raise ValidationError("t_max must be positive")
    if tolerance is None:
        tolerance = _TOLERANCE
    if tolerance <= 0.0:
        raise ValidationError("tolerance must be positive")

    def chunk(m: np.ndarray, n: np.ndarray):
        k = len(m)
        t = dilation_times_block(shape, m, n, out=scratch("lattice.t", k))
        keep = np.less_equal(t, t_max * (1.0 + tolerance), out=scratch("lattice.keep", k, bool))
        return m[keep], n[keep], t[keep]  # copies

    cap = math.sqrt(_SPECTRUM_POINTS / math.pi)  # the disc of 2^24 points
    parts = map_box_chunks(_walk_bound(shape, t_max, cap, "t_max"), chunk, threads=threads)
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
    )


def count_points(
    shape: RadialShape,
    x: float,
    half_weight_boundary: bool = False,
    threads: int | None = None,
) -> float:
    """Number of nonzero lattice points with t(p) <= x.

    With ``half_weight_boundary`` the points on the boundary (|t - x| within
    the relative tolerance) contribute 1/2 each, matching the value the
    contour-integral inversion converges to at jump points.  The walk covers
    a fundamental domain of ``shape.symmetry`` and weights each point by its
    orbit size; every weight and count is a small multiple of 1/2, so the
    sum is exact.  An x with x r_max > ``MAX_RADIUS`` is a ValidationError.
    """
    if not (x > 0.0):
        raise ValidationError("x must be positive")
    cut = x * (1.0 + _TOLERANCE)
    edge = x * _TOLERANCE
    symmetry = shape.symmetry

    def chunk(m: np.ndarray, n: np.ndarray):
        k = len(m)
        t = dilation_times_block(shape, m, n, out=scratch("lattice.t", k))
        weight = np.less_equal(t, cut, out=scratch("lattice.weight", k))
        if half_weight_boundary:
            t -= x
            boundary = np.less_equal(np.absolute(t, out=t), edge, out=t)
            np.maximum(weight, boundary, out=weight)
            boundary *= 0.5
            weight -= boundary
        weight *= orbit_sizes(symmetry, m, n, out=scratch("lattice.orbit", k))
        return float(np.sum(weight))

    parts = map_box_chunks(_walk_bound(shape, x, MAX_RADIUS, "x"), chunk, threads=threads, symmetry=symmetry)
    return float(np.sum(np.asarray(parts)))


def spectrum_to_csv(spec: Spectrum) -> str:
    """CSV export: header ``k,t_k,a_k``, 15 significant digits."""
    return csv_table("k,t_k,a_k", np.arange(1, len(spec.t_values) + 1), spec.t_values, spec.counts)
