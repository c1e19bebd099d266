"""Lattice enumeration: dilation times, spectra, and point counts.

The dilation time of a nonzero point p with respect to a shape D is its gauge
t(p) = inf{t : p in tD}.  ``dilation_times_block`` is the one formula for it
per kind, and ``RadialShape.evaluate`` reads r(theta) = 1 / t(cos theta,
sin theta) off it, except for the circle and the cosine series, whose t is
|p| / r(theta(p)).  Distinct t values with multiplicities form the spectrum
(t_1 < t_2 < ..., a_k = number of boundary points of t_k D).

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

Every kernel gives all orbit images of a point under ``shape.symmetry`` the
bit-identical t: the cosine series folds the point into the fundamental
domain before it calls arctan2, and gD inherits this since g^-1(-p) =
-g^-1 p exactly.  So a time belongs to an orbit.  ``time_ulps`` bounds the
kernels' relative rounding, the one accuracy model of the times: spectra
group by it and the direct sums charge it.  A spectrum walks the same
domain of ``shape.symmetry``; its kept representatives (int32) are ordered
by t alone, with one stable argsort, and grouped into lines by one
vectorized gap test, and a line's a_k is the sum of its representatives'
orbit sizes.  Lines, counts and near-tie warnings are exactly those of
grouping every point of the disc.  Witnesses (the first 8 points of a line
by (t, m, n)) are the representatives' orbit images, sorted in one pass
over all lines when an entry is first read.
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
from .shapes import RadialShape, Symmetry, _cosine_series

__all__ = [
    "LatticePoint",
    "SpectrumEntry",
    "Spectrum",
    "SpectrumEntries",
    "dilation_times_block",
    "time_ulps",
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

# the most points of the disc a spectrum walks.  At its peak a build
# allocates about 50 bytes per point up to t_max for the odd shape, whose
# walk folds nothing, 37-43 for the half-plane and half-disc folds and 7 for
# the circle (measured at t_max 800-1000), and 46 at most once the witnesses
# are built: at most about 850 MB
_SPECTRUM_POINTS = 1 << 24

# relative boundary window of ``count_points`` at a user-given x (also the
# jump guard of funceq.perron_count_approx)
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
    """Ordered dilation spectrum up to t_max: line k (0-based) is the
    dilation time ``t_values[k]``, the smallest of its points', with
    ``counts[k]`` points, whose times agree within their rounding bound.

    The points themselves are not kept.  ``reps`` holds the representatives
    walked in the fundamental domain of ``shape.symmetry`` as int32 rows
    (m, n), line by line, ordered by t: line k's are ``reps[rep_starts[k]:
    rep_starts[k + 1]]`` (the last line's run to the end), and its points
    are their orbit images, which share their t, counted by orbit size.
    ``entries`` builds the witnesses of every line from them when an entry
    is first read, and keeps them.  The arrays are read-only.
    """

    t_values: np.ndarray
    counts: np.ndarray
    t_max: float
    reps: np.ndarray
    rep_starts: np.ndarray
    shape: RadialShape

    def __post_init__(self):
        for a in (self.t_values, self.counts, self.reps, self.rep_starts):
            a.flags.writeable = False

    @property
    def entries(self) -> "SpectrumEntries":
        return SpectrumEntries(self)

    def count_up_to(self, x: float) -> int:
        k = int(np.searchsorted(self.t_values, x, side="right"))
        return int(self.counts[:k].sum())

    @functools.cached_property
    def _witnesses(self) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, points): line k's witnesses are the int32 rows
        ``points[offsets[k]:offsets[k + 1]]``, its first min(8, a_k) points
        by (t, m, n).  Lines go in blocks of at most ``_CHUNK_POINTS`` orbit
        images (or one line); within a block, (t, m, n) order is line order,
        since every time of a line lies below the next line's first."""
        images = _GROUP[self.shape.symmetry]
        firsts = np.minimum(self.counts, 8)
        offsets = np.concatenate(([0], np.cumsum(firsts)))
        sizes = np.diff(self.rep_starts, append=len(self.reps))
        parts = [np.empty((0, 2), np.int32)]
        for c in _runs(sizes, _CHUNK_POINTS // len(images)):
            first = self.rep_starts[c.start]
            r = self.reps[first:first + sizes[c].sum()].astype(np.int64)
            ims = [_image(g, r[:, 0], r[:, 1]) for g in images]
            m, n = np.concatenate([i[0] for i in ims]), np.concatenate([i[1] for i in ims])
            # every orbit image has its representative's t
            t = np.tile(dilation_times_block(self.shape, r[:, 0], r[:, 1]), len(images))
            order = np.lexsort((n, m, t))
            m, n = m[order], n[order]
            # a point fixed by an element of G is its own image more than once
            fresh = np.ones(len(m), bool)
            fresh[1:] = (m[1:] != m[:-1]) | (n[1:] != n[:-1])
            m, n = m[fresh], n[fresh]
            line_first = np.cumsum(self.counts[c]) - self.counts[c]
            take = firsts[c]
            pick = np.arange(take.sum()) + np.repeat(line_first - (np.cumsum(take) - take), take)
            parts.append(np.stack((m[pick], n[pick]), axis=1).astype(np.int32))
        points = np.concatenate(parts)
        points.flags.writeable = False
        return offsets, points


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
        k = range(len(self))[k]
        offsets, points = sp._witnesses
        witnesses = tuple(map(LatticePoint._make, points[offsets[k]:offsets[k + 1]].tolist()))
        return SpectrumEntry(t=float(sp.t_values[k]), count=int(sp.counts[k]), witnesses=witnesses)


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
    only the cosine series goes through r(theta), at the point's image in
    the fundamental domain of ``shape.symmetry``.  Every kind gives all
    orbit images of a point under ``shape.symmetry`` the bit-identical t.
    For the square and the odd shape the result is an exact small integer.
    Temporaries come from scratch arrays (a transformed shape allocates its
    preimage points).
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
    # fold the point into the fundamental domain of the symmetry first, so
    # that all its orbit images give arctan2 and hypot the same arguments
    symmetry = shape.symmetry
    x, y, theta = out, scratch("lattice.t1", k), scratch("lattice.t2", k)
    np.absolute(n, out=y)
    if symmetry is Symmetry.REFLECTION:
        np.copyto(x, m)
    else:
        np.absolute(m, out=x)
    if symmetry is Symmetry.D4:  # the octant 0 <= y <= x
        np.minimum(x, y, out=theta)
        np.maximum(x, y, out=x)
        y, theta = theta, y
    np.arctan2(y, x, out=theta)
    np.hypot(x, y, out=out)
    out /= _cosine_series(shape.params, theta, y)
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


def time_ulps(shape: RadialShape) -> float:
    """A bound b on the relative rounding of ``dilation_times_block`` in
    units of 2^-52 (a computed t is within b 2^-52 t of the exact one).

    0 where every t is an exact integer: the square, the odd shape and their
    images under an integer g with det +-1.  Else 16 r_max / r_min: the
    closed forms round a few times (an ellipse's rotation cancels up to
    a / b), and an image's preimage g^-1 p is off by 3.6 cond(g) ulps, which
    the base's gauge scales by its r_max / r_min times its slope r_min
    |grad t| (1 + S_1 / r_min for a cosine series, at most 1.2 for the other
    kinds).  A cosine series, S_1 = sum q |c_q|, S_0 = sum |c_q|, k
    harmonics, takes at least (5 A S_1 + (5 + k) S_0) / r_min + 5, each libm
    call within 4 ulps: arctan2 of the point folded to an angle <= A errs by
    4 A ulps, q theta by 4.5 q A and r by 4.5 A S_1; the cosines, products
    and sums add (4.5 + k / 2) S_0, hypot and the division 4.5.  An image of
    a series adds that preimage term to its base's bound.
    """
    kind, ratio = shape.kind, shape.r_max / shape.r_min
    if kind in ("square", "odd"):
        return 0.0
    core = shape
    while core.kind == "transformed":
        core = core.params[1]
    coeffs, series = core.params, core.kind == "cosine-series"
    slope = 1.0 + sum(q * abs(x) for q, x in enumerate(coeffs)) / core.r_min if series else 1.2
    if kind == "cosine-series":
        angle = math.pi / {Symmetry.REFLECTION: 1, Symmetry.KLEIN: 2, Symmetry.D4: 4}[shape.symmetry]
        evaluation = (5.0 + sum(x != 0.0 for x in coeffs[1:])) * sum(map(abs, coeffs)) / shape.r_min
        return max(16.0 * ratio, 5.0 * angle * (slope - 1.0) + evaluation + 5.0)
    if kind != "transformed":
        return 16.0 * ratio
    g, base = shape.params
    inner = time_ulps(base)
    if inner == 0.0 and all(float(x).is_integer() for x in g.entries()):
        a, b, c, d = map(int, g.entries())
        if abs(a * d - b * c) == 1:
            return 0.0
    if base.kind in ("constant", "ellipse", "square", "odd"):
        return 16.0 * ratio
    return max(16.0 * ratio, inner + 4.0 * ratio * slope)


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


# the elements of each subgroup of D4 as (swap, sign of m, sign of n): the
# image of (m, n) is (sm m', sn n') with (m', n') = (n, m) when swapped
_GROUP = {
    Symmetry.TRIVIAL: ((False, 1, 1),),
    Symmetry.NEGATION: ((False, 1, 1), (False, -1, -1)),
    Symmetry.REFLECTION: ((False, 1, 1), (False, 1, -1)),
    Symmetry.KLEIN: tuple((False, a, b) for a in (1, -1) for b in (1, -1)),
    Symmetry.D4: tuple((s, a, b) for s in (False, True) for a in (1, -1) for b in (1, -1)),
}


def _image(element, m: np.ndarray, n: np.ndarray):
    """The images of the points (m, n) under one element of ``_GROUP``."""
    swap, sm, sn = element
    a, b = (n, m) if swap else (m, n)
    return a * sm, b * sn


def _runs(sizes: np.ndarray, cap: int) -> list[slice]:
    """Consecutive runs of ``sizes`` that sum to at most ``cap``, or single
    items larger than that."""
    ends = np.cumsum(sizes)
    cuts = [0]
    while cuts[-1] < len(sizes):
        limit = ends[cuts[-1]] - sizes[cuts[-1]] + cap
        cuts.append(max(int(np.searchsorted(ends, limit, side="right")), cuts[-1] + 1))
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


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
    in block order whatever the thread count.  ``func`` must be pure (or
    only add exact integers into a total under a lock, which no order of
    the blocks changes), must not start another walk, and must not keep the
    int64 arrays it is handed: they are the worker thread's scratch arrays,
    refilled for its next block.
    """
    threads = resolve_threads(threads)
    k2 = math.floor(bound * bound)
    rows, first, counts = _domain_rows(k2, symmetry)
    mirror = symmetry is Symmetry.TRIVIAL
    chunks = _runs(counts, _CHUNK_POINTS // 2 if mirror else _CHUNK_POINTS)
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


def _walk_bound(shape: RadialShape, x: float, slack: float, cap: float, name: str) -> int:
    """A disc radius that holds every lattice point with t(p) <= x (1 +
    slack); a ValidationError before any walk when it exceeds ``cap``."""
    reach = x * shape.r_max * (1.0 + slack)
    if not reach <= cap:
        raise ValidationError(f"{name}={x:g} needs a walk of radius {reach:.6g}, beyond the cap {cap:.6g}")
    return int(math.ceil(reach)) + 1


def build_spectrum(shape: RadialShape, t_max: float, threads: int | None = None) -> Spectrum:
    """Enumerate all dilation times <= t_max (1 + b) and group them into
    (t_k, a_k), b = ``time_ulps(shape)`` 2^-52 their relative rounding bound.

    Two computed times of one exact value lie within 2 b t of each other, so
    consecutive sorted times at most 2 b t apart fall into one spectral line
    (equal ones where b = 0).  A warning is emitted when two lines are at
    most 10x that window apart: floating point cannot certify such near-ties.
    The walk covers a fundamental domain of ``shape.symmetry``, whose orbits
    share one t.  A disc of more than ``_SPECTRUM_POINTS`` points is a
    ValidationError.
    """
    if not (t_max > 0.0):
        raise ValidationError("t_max must be positive")
    bound = time_ulps(shape) * 2.0**-52
    cut = t_max * (1.0 + bound)
    symmetry = shape.symmetry

    def chunk(m: np.ndarray, n: np.ndarray):
        k = len(m)
        t = dilation_times_block(shape, m, n, out=scratch("lattice.t", k))
        keep = np.less_equal(t, cut, out=scratch("lattice.keep", k, bool))
        orbit = orbit_sizes(symmetry, m, n, out=scratch("lattice.orbit", k))
        reps = np.empty((np.count_nonzero(keep), 2), np.int32)
        reps[:, 0], reps[:, 1] = m[keep], n[keep]
        return reps, t[keep], orbit[keep].astype(np.uint8)

    cap = math.sqrt(_SPECTRUM_POINTS / math.pi)  # the disc of 2^24 points
    radius = _walk_bound(shape, t_max, bound, cap, "t_max")
    parts = map_box_chunks(radius, chunk, threads=threads, symmetry=symmetry)
    t = np.concatenate([p[1] for p in parts])
    order = np.argsort(t, kind="stable")
    t = t[order]
    reps = np.take(np.concatenate([p[0] for p in parts]), order, axis=0)
    weight = np.concatenate([p[2] for p in parts])[order]
    del parts, order

    # a new line starts wherever the gap to the previous value exceeds 2 b t
    window = 2.0 * bound
    gap = np.diff(t)
    breaks = np.flatnonzero(gap > window * t[1:]) + 1
    starts = np.concatenate(([0], breaks)) if len(t) else breaks
    counts = np.add.reduceat(weight, starts, dtype=np.int64) if len(t) else np.zeros(0, np.int64)
    t_values = t[starts]

    # the gap between a line's last value and the next line's first
    near = gap[breaks - 1] <= 10.0 * window * t_values[1:]
    for b in breaks[near]:
        warnings.warn(f"spectral lines at {t[b - 1]:.15g} and {t[b]:.15g} are separated by at most 10x "
                      "their rounding bound; grouping may be ambiguous", stacklevel=2)
    return Spectrum(t_values, counts, float(t_max), reps, starts, shape)


def count_points(
    shape: RadialShape,
    x: float,
    half_weight_boundary: bool = False,
    threads: int | None = None,
) -> float:
    """Number of nonzero lattice points with t(p) <= x.

    With ``half_weight_boundary`` the points on the boundary (|t - x| within
    ``_TOLERANCE`` x) contribute 1/2 each, matching the value the
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

    bound = _walk_bound(shape, x, _TOLERANCE, MAX_RADIUS, "x")
    parts = map_box_chunks(bound, chunk, threads=threads, symmetry=symmetry)
    return float(np.sum(np.asarray(parts)))


def spectrum_to_csv(spec: Spectrum) -> str:
    """CSV export: header ``k,t_k,a_k``, 15 significant digits."""
    return csv_table("k,t_k,a_k", np.arange(1, len(spec.t_values) + 1), spec.t_values, spec.counts)
