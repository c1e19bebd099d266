"""Lattice enumeration: dilation times, spectra, and point counts.

The dilation time of a nonzero point p with respect to a shape D is its gauge
t(p) = inf{t : p in tD}.  ``dilation_times_block`` is the one formula for it
per kind, and ``RadialShape.evaluate`` reads r(theta) = 1 / t(cos theta,
sin theta) off it, except for a circle (an ellipse with equal axes) and the
cosine series, whose t is |p| / r(theta(p)).  Distinct t values with
multiplicities form the spectrum (t_1 < t_2 < ..., a_k = number of boundary
points of t_k D).

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
too, so no chunk-sized array is allocated per chunk.  A polygon (the
square, the odd shape and their GL(2,Z) images) is timed by one
piecewise-linear kernel of its integer edge functionals, which keeps its
spectra exactly integral.  An image of a circle or an ellipse is an
ellipse (``shapes.act``), so it is timed by the ellipse's closed form.  A
transformed shape gD (any other image of a polygon or a cosine series)
reuses the kernel of D through t_{gD}(p) = t_D(g^-1 p).

Polygons (``time_ulps`` 0) are counted without a walk: ``time_counts``
gives the number of points of each integer t in a disc from exact
range-adds over rows and the polygon's cones, O(rows x edges) work where a
walk takes O(R^2).  Their spectra and counts read it, and so do their
direct sums (but for t beyond zeta._COUNT_BINS); only a spectrum's
witnesses still walk.

Every kernel gives all orbit images of a point under ``shape.symmetry`` the
bit-identical t: the cosine series folds the point into the fundamental
domain before it calls arctan2, and gD inherits this since g^-1(-p) =
-g^-1 p exactly.  So a time belongs to an orbit.  ``time_ulps`` bounds the
kernels' relative rounding, the one accuracy model of the times: spectra
group by it and the direct sums charge it.  A spectrum of any other kind
walks the same domain of ``shape.symmetry``; its kept representatives
(int32) are ordered by t alone, with one stable argsort, and grouped into
lines by one vectorized gap test, and a line's a_k is the sum of its
representatives' orbit sizes.  Lines, counts and near-tie warnings are
exactly those of grouping every point of the disc.  Witnesses (the first 8
points of a line by (t, m, n)) are the representatives' orbit images,
sorted in one pass over all lines when an entry is first read; a spectrum
counted by rows walks its representatives then.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
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
    "time_counts",
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
    ``walk`` is (reps, rep_starts) where the build walked the points; where
    it counted rows (``time_counts``) it is None, and the representatives
    are walked, with ``threads`` workers, when first read.  ``entries``
    builds the witnesses of every line from them when an entry is first
    read, and keeps them.  The arrays are read-only.
    """

    t_values: np.ndarray
    counts: np.ndarray
    t_max: float
    shape: RadialShape
    threads: int
    walk: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        for a in (self.t_values, self.counts, *(self.walk or ())):
            a.flags.writeable = False

    @property
    def entries(self) -> "SpectrumEntries":
        return SpectrumEntries(self)

    @property
    def reps(self) -> np.ndarray:
        return self._walked[0]

    @property
    def rep_starts(self) -> np.ndarray:
        return self._walked[1]

    def count_up_to(self, x: float) -> int:
        k = int(np.searchsorted(self.t_values, x, side="right"))
        return int(self.counts[:k].sum())

    @functools.cached_property
    def _walked(self) -> tuple[np.ndarray, np.ndarray]:
        """(reps, rep_starts): ``walk``, or where the build counted rows the
        walk of the same disc, whose exact times start a line wherever they
        change."""
        if self.walk is not None:
            return self.walk
        t, reps, _ = _walk_domain(self.shape, self.t_max, 0.0, self.threads)
        starts = np.flatnonzero(np.diff(t, prepend=0.0))
        for a in (reps, starts):
            a.flags.writeable = False
        return reps, starts

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
    For a polygon the result is an exact small integer.  Temporaries come
    from scratch arrays (a transformed shape allocates its preimage points).
    """
    k = len(m)
    if out is None:
        out = np.empty(k)
    kind = shape.kind
    if kind == "transformed":
        g, base = shape.params
        return dilation_times_block(base, *g.inverse().apply(m, n), out=out)
    if kind == "polygon":
        return _polygon_times(shape.params, m, n, out)
    if kind == "ellipse":
        a, b, phi = shape.params
        if a == b:  # a circle: |p| / a, rounded twice
            np.hypot(m, n, out=out)
            out /= a
            return out
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


@functools.lru_cache(maxsize=1024)
def _cones(vertices: tuple) -> tuple[list, list]:
    """(cones, terms) of a polygon.  Every nonzero point p lies in exactly
    one cone (a, b, l), a x p >= 0 > b x p for positive multiples a, b of
    consecutive vertices v_i, v_(i+1) with integer coordinates, where t(p)
    = l . p for the functional with l . v_i = l . v_(i+1) = 1 (integral for
    every GL(2,Z) image of the square and the odd shape).

    The terms give the max-min form of the gauge (Ovchinnikov, 2002), t(p) =
    max_j min_(l in S_j) l . p with S_j = {l : l . p >= l_j . p on cone j},
    found exactly at the cone's two rays.  Where the polygon lies in l_j .
    x <= 1, l_j . p <= t(p) everywhere and S_j is {l_j} alone; a set that
    holds another is dropped, as its minimum never exceeds the other's.
    Two single functionals l and -l become the term |l . p| ("abs"), a pair
    u + w, u - w with integral u, w the term u . p - |w . p| ("notch"), any
    other set its minimum ("min"): each saves passes over the points."""
    edges = list(zip(vertices, vertices[1:] + vertices[:1]))
    funcs = [(int(Fraction(y1 - y0, x0 * y1 - x1 * y0)), int(Fraction(x0 - x1, x0 * y1 - x1 * y0)))
             for (x0, y0), (x1, y1) in edges]
    rays = [(int(x * x.denominator * y.denominator), int(y * x.denominator * y.denominator)) for x, y in vertices]
    sets = [(own,) if all(own[0] * x + own[1] * y <= 1 for x, y in vertices)
            else tuple(ell for ell in funcs if min(ell[0] * w[0] + ell[1] * w[1] for w in edge) >= 1)
            for edge, own in zip(edges, funcs)]
    sets = [a for a in dict.fromkeys(sets) if not any(set(b) < set(a) for b in sets)]
    single = [a[0] for a in sets if len(a) == 1]
    terms = [("abs", (ell,)) for ell in single if ell > (0, 0) and (-ell[0], -ell[1]) in single]
    for a in sets:
        if len(a) == 2 and all((x - y) % 2 == 0 for x, y in zip(*a)):
            u, w = (tuple((x + sign * y) // 2 for x, y in zip(*a)) for sign in (1, -1))
            terms.append(("notch", (u, max(w, (-w[0], -w[1])))))
        elif len(a) > 1 or (-a[0][0], -a[0][1]) not in single:
            terms.append(("min", a))
    return [(rays[i - 1], rays[i], funcs[i - 1]) for i in range(len(rays))], terms


def _polygon_times(vertices: tuple, m: np.ndarray, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A polygon's gauge in the max-min form of ``_cones``, each term folded
    into a running maximum in ``out`` through two scratch arrays (every
    array more costs cache).  Each l . p of the square and the odd shape
    rounds once (``_linear``), and so does 2n - |m|, the odd shape's notch;
    min and max commute with rounding: on integer points the times are
    exact integers, on others the correctly rounded times wherever every
    term is."""
    k = len(m)
    if m.dtype.kind != "f":  # exact floats, so that every later pass runs on floats
        m, n = np.multiply(m, 1.0, out=scratch("lattice.x", k)), np.multiply(n, 1.0, out=scratch("lattice.y", k))
    into, term, aux = out, scratch("lattice.t1", k), scratch("lattice.t2", k)  # the first term into ``out``
    for kind, piece in _cones(vertices)[1]:
        low = _linear(piece[0], m, n, into)
        if kind == "notch":  # min(u . p + w . p, u . p - w . p)
            low = np.subtract(low, np.absolute(_linear(piece[1], m, n, aux), out=aux), out=into)
        else:
            for ell in piece[1:]:
                low = np.minimum(low, _linear(ell, m, n, aux), out=into)
        if kind == "abs":
            low = np.absolute(low, out=into)
        if into is not out:
            np.maximum(out, low, out=out)
        elif low is not out:
            np.copyto(out, low)
        into = term
    return out


def _linear(ell: tuple[int, int], m: np.ndarray, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ell . p into ``out``, or m or n itself: a coefficient 1 is read, not
    multiplied, and a coefficient +-1 is added or subtracted last, so that
    where the other coefficient is a power of 2 (or 0) ell . p rounds once."""
    (a, x), (b, y) = (ell[0], m), (ell[1], n)
    if a == 0 or b != 0 and abs(a) == 1 != abs(b):  # a zero second, else a unit second where there is one
        (a, x), (b, y) = (b, y), (a, x)
    first = x if a == 1 else np.multiply(x, a, out=out)
    if b == 0:
        return first
    if abs(b) == 1:
        return (np.add if b == 1 else np.subtract)(first, y, out=out)
    return np.add(first, np.multiply(y, b, out=scratch("lattice.t3", len(y))), out=out)


def time_ulps(shape: RadialShape) -> float:
    """A bound b on the relative rounding of ``dilation_times_block`` in
    units of 2^-52 (a computed t is within b 2^-52 t of the exact one).

    0 for a polygon, whose every t is an exact integer.  Else 16 r_max /
    r_min: the closed forms round a few times (an ellipse's rotation
    cancels up to a / b), and a transformed shape's preimage g^-1 p is off
    by 3.6 cond(g) ulps, which the base's gauge scales by its r_max / r_min
    times its slope r_min |grad t| (1 + S_1 / r_min for a cosine series,
    r_min max |l_i| for a polygon: 1 for the square, sqrt(5) / 2 for the
    odd shape).  A polygon's terms of a float preimage round a few times,
    within (2 max |l_i| |p| + t) 2^-53 (a notch u . p - |w . p| has |u|,
    |w| <= max |l_i|), so that the polygon adds its slope times its r_max /
    r_min, and 1.  The same 16 a / b covers the rounded axes and angle
    of an ellipse made by ``shapes.act`` or ``QuadForm2.region``, against
    the exact image, whatever g and the base: ``act`` forms g kappa(-phi)
    diag(a, b) and its alpha and beta exactly (cos phi and sin phi to 45
    digits) and rounds each once, so its axes are within a few ulps and
    its angle within a few ulps of 1, which moves t by a few a / b ulps (an
    angle error d turns t by at most d (a / b - b / a) / 2); the Cholesky
    factor R of u rounds each entry of R^-1 a few times (det u / u11 is
    formed exactly), which moves t by a few cond(R) = a / b ulps, where
    cond(u) = (a / b)^2.  A nearly round image of a long base, where g
    undoes the base's elongation, keeps a few ulps.  A cosine series,
    S_1 = sum q |c_q|, S_0 = sum |c_q|, k harmonics, takes at least
    (5 A S_1 + (5 + k) S_0) / r_min + 5, each libm call within 4 ulps:
    arctan2 of the point folded to an angle <= A errs by 4 A ulps, q theta
    by 4.5 q A and r by 4.5 A S_1; the cosines, products and sums add
    (4.5 + k / 2) S_0, hypot and the division 4.5.  An image of a series
    adds that preimage term to its base's bound.
    """
    kind, ratio = shape.kind, shape.r_max / shape.r_min
    if kind == "polygon":
        return 0.0
    if kind == "ellipse":
        return 16.0 * ratio
    core = shape
    while core.kind == "transformed":
        core = core.params[1]
    slope = (core.r_min * max(math.hypot(*ell) for _, _, ell in _cones(core.params)[0]) if core.kind == "polygon"
             else 1.0 + sum(q * abs(x) for q, x in enumerate(core.params)) / core.r_min)
    if kind == "cosine-series":
        angle = math.pi / {Symmetry.REFLECTION: 1, Symmetry.KLEIN: 2, Symmetry.D4: 4}[shape.symmetry]
        evaluation = (5.0 + sum(x != 0.0 for x in core.params[1:])) * sum(map(abs, core.params)) / shape.r_min
        return max(16.0 * ratio, 5.0 * angle * (slope - 1.0) + evaluation + 5.0)
    g, base = shape.params
    inner = slope * base.r_max / base.r_min + 1.0 if base.kind == "polygon" else time_ulps(base)
    return max(16.0 * ratio, inner + 4.0 * ratio * slope)


# ---------------------------------------------------------------------------
# Chunked disc enumeration
# ---------------------------------------------------------------------------


def _row_extents(k2: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows n = 0, ..., isqrt(k2) of the disc m^2 + n^2 <= k2 and their
    extents isqrt(k2 - n^2): row n holds |m| <= its extent."""
    rows = np.arange(math.isqrt(k2) + 1)
    room = k2 - rows * rows
    ext = np.floor(np.sqrt(room)).astype(np.int64)
    ext += (ext + 1) ** 2 <= room  # exact integer correction of the float root
    ext -= ext**2 > room
    return rows, ext


def _domain_rows(k2: int, symmetry: Symmetry):
    """Row segments (n, first m, count) of the fundamental domain of
    ``symmetry`` among the points 0 < m^2 + n^2 <= k2; for the trivial group
    the half plane n > 0 or (n = 0, m > 0), whose mirror image the walk adds."""
    rows, ext = _row_extents(k2)
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
    in block order whatever the thread count.  ``func`` must be pure, must
    not start another walk, and must not keep the int64 arrays it is
    handed: they are the worker thread's scratch arrays, refilled for its
    next block.
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
# Integer dilation times by rows
# ---------------------------------------------------------------------------


def _narrow(c: int, d: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Narrow each row's m-interval [lo, hi] to the integers with c m <= d."""
    if c > 0:
        np.minimum(hi, d // c, out=hi)
    elif c < 0:
        np.maximum(lo, -(d // -c), out=lo)
    else:
        np.copyto(hi, lo - 1, where=d < 0)


def time_counts(shape: RadialShape, radius: float, top: int | None = None) -> np.ndarray:
    """Entry t: the number of points 0 < |p| <= radius (those of the float
    test against radius * radius) of dilation time t, for a polygon; only
    up to t = ``top`` when it is given.

    No point is walked.  On each row n and each cone of ``_cones`` the
    points form one m-interval, found from the two cross products in exact
    integer arithmetic and clipped to the row's extent in the disc; on it
    t = l . p runs through an arithmetic progression of step |l_x|.  Each
    progression is a range-add: one difference array per step, summed up
    along each residue class.
    """
    rows, ext = _row_extents(math.floor(radius * radius))
    n, ext = np.concatenate((-rows[:0:-1], rows)), np.concatenate((ext[:0:-1], ext))
    runs: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for (ax, ay), (bx, by), (lx, ly) in _cones(shape.params)[0]:
        lo, hi = -ext, ext.copy()
        _narrow(ay, ax * n, lo, hi)  # a x p >= 0
        _narrow(-by, -bx * n - 1, lo, hi)  # b x p < 0
        live = lo <= hi
        lo, hi, row = lo[live], hi[live], n[live]
        first = lx * (lo if lx >= 0 else hi) + ly * row  # the smallest t of the run
        runs.setdefault(abs(lx), []).append((first, hi - lo + 1))
    runs = {step: [np.concatenate(a) for a in zip(*parts)] for step, parts in runs.items()}
    if top is None:  # the largest t of any run
        top = max(int(np.max(first + (k - 1) * step, initial=0)) for step, (first, k) in runs.items())
    counts = np.zeros(top + 1, np.int64)
    for step, (first, length) in runs.items():
        keep = first <= top
        first, length = first[keep], length[keep]
        if step == 0:  # t is constant along the run
            counts += np.bincount(first, weights=length, minlength=top + 1).astype(np.int64)
            continue
        size = -(-(top + 1) // step) * step  # whole rows of ``step`` residues
        end = first + step * np.minimum(length, (top - first) // step + 1)
        diff = np.bincount(first, minlength=size) - np.bincount(end[end < size], minlength=size)
        counts += np.cumsum(diff.reshape(-1, step), axis=0).ravel()[:top + 1]
    return counts


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


def _walk_domain(shape: RadialShape, t_max: float, bound: float, threads: int):
    """(t, reps, orbit) of the walked representatives with t <= t_max (1 +
    bound), ordered by t alone (one stable argsort): their times, their int32
    rows (m, n) and their uint8 orbit sizes."""
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

    parts = map_box_chunks(_spectrum_radius(shape, t_max, bound), chunk, threads=threads, symmetry=symmetry)
    t = np.concatenate([p[1] for p in parts])
    order = np.argsort(t, kind="stable")
    reps = np.take(np.concatenate([p[0] for p in parts]), order, axis=0)
    return t[order], reps, np.concatenate([p[2] for p in parts])[order]


def _spectrum_radius(shape: RadialShape, t_max: float, bound: float) -> int:
    """The disc of a spectrum up to t_max: at most ``_SPECTRUM_POINTS`` points."""
    return _walk_bound(shape, t_max, bound, math.sqrt(_SPECTRUM_POINTS / math.pi), "t_max")


def build_spectrum(shape: RadialShape, t_max: float, threads: int | None = None) -> Spectrum:
    """All dilation times <= t_max (1 + b), grouped into lines (t_k, a_k),
    b = ``time_ulps(shape)`` 2^-52 their relative rounding bound.

    Where b = 0 the times are exact integers, and the lines are the nonzero
    entries of ``time_counts`` up to t_max: no point is walked.  Else the
    build walks a fundamental domain of ``shape.symmetry``, whose orbits
    share one t.  Two computed times of one exact value lie within 2 b t of
    each other, so consecutive sorted times at most 2 b t apart fall into
    one spectral line.  A warning is emitted when two lines are at most 10x
    that window apart: floating point cannot certify such near-ties.  A disc
    of more than ``_SPECTRUM_POINTS`` points is a ValidationError.
    """
    if not (t_max > 0.0):
        raise ValidationError("t_max must be positive")
    bound = time_ulps(shape) * 2.0**-52
    radius = _spectrum_radius(shape, t_max, bound)
    threads = resolve_threads(threads)
    if bound == 0.0:
        counts = time_counts(shape, radius, top=math.floor(t_max))
        lines = np.flatnonzero(counts)
        return Spectrum(lines.astype(float), counts[lines], float(t_max), shape, threads)

    t, reps, weight = _walk_domain(shape, t_max, bound, threads)
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
    return Spectrum(t_values, counts, float(t_max), shape, threads, (reps, starts))


def count_points(
    shape: RadialShape,
    x: float,
    half_weight_boundary: bool = False,
    threads: int | None = None,
) -> float:
    """Number of nonzero lattice points with t(p) <= x.

    With ``half_weight_boundary`` the points on the boundary (|t - x| within
    ``_TOLERANCE`` x) contribute 1/2 each, matching the value the
    contour-integral inversion converges to at jump points.  Where
    ``time_ulps(shape)`` is 0 these tests weigh the distinct t of
    ``time_counts`` by their counts; else the walk covers a fundamental
    domain of ``shape.symmetry`` and weights each point by its orbit size.
    Every weight and count is a small multiple of 1/2, so the sum is exact.
    An x with x r_max > ``MAX_RADIUS`` is a ValidationError.
    """
    if not (x > 0.0):
        raise ValidationError("x must be positive")
    cut = x * (1.0 + _TOLERANCE)
    edge = x * _TOLERANCE
    symmetry = shape.symmetry

    def weigh(t: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """The weight of each time t into ``weight``; t is overwritten."""
        np.less_equal(t, cut, out=weight)
        if half_weight_boundary:
            t -= x
            boundary = np.less_equal(np.absolute(t, out=t), edge, out=t)
            np.maximum(weight, boundary, out=weight)
            boundary *= 0.5
            weight -= boundary
        return weight

    def chunk(m: np.ndarray, n: np.ndarray):
        k = len(m)
        t = dilation_times_block(shape, m, n, out=scratch("lattice.t", k))
        weight = weigh(t, scratch("lattice.weight", k))
        weight *= orbit_sizes(symmetry, m, n, out=scratch("lattice.orbit", k))
        return float(np.sum(weight))

    bound = _walk_bound(shape, x, _TOLERANCE, MAX_RADIUS, "x")
    if time_ulps(shape) == 0.0:
        resolve_threads(threads)
        counts = time_counts(shape, bound, top=math.floor(cut))
        t = np.flatnonzero(counts)
        weight = weigh(t.astype(float), np.empty(len(t)))
        weight *= counts[t]
        return float(np.sum(weight))
    parts = map_box_chunks(bound, chunk, threads=threads, symmetry=symmetry)
    return float(np.sum(np.asarray(parts)))


def spectrum_to_csv(spec: Spectrum) -> str:
    """CSV export: header ``k,t_k,a_k``, 15 significant digits."""
    return csv_table("k,t_k,a_k", np.arange(1, len(spec.t_values) + 1), spec.t_values, spec.counts)
