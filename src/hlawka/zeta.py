"""Zeta-type lattice sums and their rapidly convergent continuations.

Direct sums truncate over the disc |p| <= radius -- never a box: the disc is
exactly invariant under the lattice symmetries (negation, quarter turns), so
the cancellations that make twisted components vanish survive truncation.

Continuations use the incomplete-gamma (theta-splitting) representation: the
Mellin integral of the associated theta series is split at t = 1 and the
modular transformation applied to the lower half, leaving sums of incomplete
gamma factors that decay like Gaussians.  Each continuation is calibrated
against its direct sum in the convergent half plane before use elsewhere
(tests pin this to 1e-9); normalization constants come from that calibration,
not from trusting any derivation.

All continuations share ``_theta_split``, which takes a list of (s, q)
pairs and serves them all with one enumeration and one incomplete-gamma
call: the components of ``reconstruct_hlawka``, or the several s of
``epstein_continued_many``.  The form is first Gauss-reduced
(|2b| <= a <= c, exactly, in rational arithmetic) and scaled to determinant
one; the value is GL(2,Z)-invariant, and the reduced form's points of small
Q are the points near the origin.  The sum then runs over the cut ellipse
pi Q <= X, built row by row as one array on the half plane, with X set by the
Gaussian decay of the incomplete gammas (the largest X of the pairs; each
pair sums only the points below its own); points of equal Q share one
evaluation.  ``error_estimate`` is a bound: rounding relative to the sum of
the terms' moduli plus the cut-off tail, divided by |pi^(-s) Gamma(s)| for
the uncompleted functions, so it grows with the cancellation of the
splitting at large |Im s|.

The direct sums share ``_disc_sums``: identical per-chunk reduction, merge in
chunk order with pairwise summation, so results are bit-identical across
thread counts.  Each sum walks a fundamental domain of the subgroup G of D4
under which its terms are invariant, decided from the kind and parameters,
and weights each point by its orbit size: all of D4 for the circle (the
region of a form with u12 = 0 and u11 = u22 among them), the square, cosine
series in cos(4k theta) and every unrotated twisted sum; the axis
reflections for unrotated ellipses (the region of every other form with
u12 = 0 among them) and even cosine series; n -> -n for other cosine
series; p -> -p for the rest of the centrally symmetric terms, every other
ellipse included.
An unrotated twisted sum's orbit sum is (|orbit| / c) sum over k < c of
cos(q theta(r^k p)) |p|^(-2s), r the quarter turn and c the number of
cosets of the group that keeps e^{i q theta} real on each orbit; the
cosets hold the symmetry that cancels a component (p -> -p for odd q, the
quarter turn for q = 2 mod 4), and each image takes its own arctan2, so
those cancellations are still computed point by point.  Where
``lattice.time_ulps`` is 0 the dilation times are exact integers: no point
is walked, ``lattice.time_counts`` counts the points of each t by rows, and
the sum takes one complex power per distinct t.  ``error_estimate`` adds to
the tail a rounding bound relative to a closed-form bound on the sum of the
terms' moduli, charging t the rounding ``time_ulps`` bounds.

Every complex power of the direct and spectrum sums comes from one kernel,
``_powers``: a table-driven exponential in real numpy operations (a
4096-entry table of roots of unity and degree-4 and -5 polynomials for the
remainder of the phase), about 2.5 times as fast as numpy's complex exp,
which calls scalar libm per element.  Each value depends on its own
inputs alone, so chunking and thread counts cannot change it.  Its argument
reduction is exact while |Im s log x| stays below 2^50 (2 pi / 4096), about
1.7e12; a sum whose s and radius (or t_max) leave that range is a
ValidationError.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .errors import NumericError, PoleError, ValidationError
from .lattice import map_box_chunks, orbit_sizes
from .results import EvalResult
from .scratch import scratch
from .shapes import Mat2, RadialShape, Symmetry, act, circle
from .special import dirichlet_beta, gamma, riemann_zeta, upper_incomplete_gamma
from . import fourier as _fourier
from . import lattice as _lattice

__all__ = [
    "QuadForm2",
    "hlawka_direct",
    "hlawka_direct_many",
    "hlawka_from_spectrum",
    "epstein_continued",
    "epstein_continued_many",
    "epstein_lambda",
    "eisenstein_fq_truncated",
    "eisenstein_fq_continued",
    "classical_eisenstein",
    "reconstruct_hlawka",
    "ellipse_form",
]

MAX_RADIUS = _lattice.MAX_RADIUS

# the most integer dilation times a direct sum counts in one array (32 MB);
# a shape whose radius / r_min reaches it is summed point by point
_COUNT_BINS = 1 << 22

# exact powers of (-i)
_MINUS_I_POW = (1 + 0j, -1j, -1 + 0j, 1j)


def _fluctuation_margin(radius: float) -> float:
    """Inflation factor turning the integral-comparison tail into a bound.

    The integral is only the leading term; the lattice-count fluctuation is
    O(R^(2/3)) against the 2 pi R circle density, so the tail can exceed the
    integral by a relative O(R^(-1/3)).
    """
    return 1.0 + 2.0 * radius ** (-1.0 / 3.0)


def _disc_sums(terms, radius: float, threads: int | None, symmetry: Symmetry) -> list[complex]:
    """Sums over 0 < |p| <= radius of each array ``terms(m, n, orbit)``
    yields on a fundamental domain of ``symmetry``, ``orbit`` holding each
    point's orbit size: a yielded term is the sum over the point's orbit.  A
    yielded array may be a scratch array refilled once it has been summed."""

    def chunk(m: np.ndarray, n: np.ndarray):
        orbit = orbit_sizes(symmetry, m, n, out=scratch("zeta.orbit", len(m)))
        return [complex(np.sum(a)) for a in terms(m, n, orbit)]

    parts = map_box_chunks(radius, chunk, threads=threads, symmetry=symmetry)
    return [complex(np.sum(col)) for col in np.array(parts).T]


def _log_norms(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """log(m^2 + n^2) into a scratch array (the squares are exact)."""
    out, tmp = scratch("zeta.log", len(m)), scratch("zeta.tmp", len(m))
    np.multiply(m, m, out=out)
    out += np.multiply(n, n, out=tmp)
    return np.log(out, out=out)


@cache
def _unit_roots() -> np.ndarray:
    """The power kernel's table e^(2 pi i j / size), j < size = 2^_TABLE_BITS,
    built on first use, each part within 1 ulp: the first octant's cosines
    and sines in extended precision (x86 long double; where long double is
    double they are within 1.4 ulps), rounded once, and the rest by exact
    swaps and negations (pi/2 - x swaps cosine and sine, a quarter turn maps
    (c, s) to (-s, c))."""
    size = 1 << _TABLE_BITS
    eighth = size // 8
    pi = np.longdouble(math.pi) + np.longdouble(_PI_LO)
    x = pi * np.arange(eighth + 1, dtype=np.longdouble) / (size // 2)
    c, s = np.cos(x).astype(float), np.sin(x).astype(float)
    qr, qi = np.concatenate([c, s[eighth - 1:0:-1]]), np.concatenate([s, c[eighth - 1:0:-1]])
    table = np.empty(size, complex)
    table.real = np.concatenate([qr, -qi, -qr, qi])
    table.imag = np.concatenate([qi, qr, -qi, -qr])
    table.setflags(write=False)
    return table


# pi - fl(pi), rounded
_PI_LO = 1.2246467991473532e-16
# the power kernel's table size 4096, its step and the rounding constant
# whose low mantissa bits give rint(u) mod 4096
_TABLE_BITS = 12
_DELTA = 2.0 * math.pi / (1 << _TABLE_BITS)
_RINT = 1.5 * 2.0**52
# Taylor coefficients of sin(delta v) / v and cos(delta v) in z = v^2
_SIN_COEFFS = (_DELTA, -_DELTA**3 / 6.0, _DELTA**5 / 120.0)
_COS_COEFFS = (-_DELTA**2 / 2.0, _DELTA**4 / 24.0)
# |phase| / _DELTA stays below 2^50, half the 2^51 up to which the
# reduction is exact, so that rounding cannot carry a phase out
_PHASE_MAX = 2.0**50 * _DELTA
# the (s, t) pairs of one power call of a sum over a list of times; the
# thread that sums keeps its scratch (64 bytes a pair) from call to call
_SUM_BLOCK = 1 << 12


def _check_phase(s: complex, log_max: float, extra: float = 0.0):
    """Reject an s whose phases |Im s| |log x| + ``extra`` (|log x| up to
    ``log_max``) leave the domain of ``_powers``."""
    if not abs(s.imag) * log_max + extra <= _PHASE_MAX:
        raise ValidationError(
            f"|Im s| = {abs(s.imag):g} is too large for a direct sum with |log x| up to {log_max:.6g}: "
            f"|Im s| |log x| must stay below {_PHASE_MAX:.4g}")


def _powers(log_x: np.ndarray, s: complex | np.ndarray, phase: np.ndarray | None = None) -> np.ndarray:
    """e^(-s log_x + i phase) into a scratch array of the shape of ``log_x``
    (``phase`` 0 when None; ``s`` a complex or an array broadcasting
    against ``log_x``).

    Table-driven (Tang, ACM TOMS 15(2), 1989), in real operations and
    products of complex by real numbers only: with tau = Im s and
    u = (phase - tau log_x) / delta, delta = 2 pi / 4096, j = rint(u) comes
    from adding 1.5 2^52, whose low bits then hold j mod 4096, and the value
    is e^(-Re s log_x) T[j mod 4096] (cos r + i sin r) for the table T of
    ``_unit_roots`` and r = delta v, v = u - j (exact, |v| <= 1/2).  With
    z = v^2, cos r = 1 + z (-delta^2/2 + z delta^4/24) and
    sin r = v (delta + z (-delta^3/6 + z delta^5/120)) are within an ulp
    (the next terms are below 2^-70 of them).  Exact while |u| < 2^51;
    callers keep |u| below 2^50 by ``_check_phase``.  Each element depends
    on its own inputs alone, whatever the array's length and position (no
    product of two complex arrays, whose rounding numpy varies with them).
    Its scratch arrays are the twisted kernels' ``zeta.x``, ``zeta.tmp``,
    ``zeta.image`` and ``zeta.twisted``, free whenever a power is taken, so
    a thread that has run those kernels holds no more scratch than before;
    ``log_x`` and ``phase`` must not be among them."""
    k, shape = log_x.size, log_x.shape
    out = scratch("zeta.terms", k, complex).reshape(shape)
    v, t, w = (scratch(name, k).reshape(shape) for name in ("zeta.x", "zeta.tmp", "zeta.image"))
    np.multiply(log_x, -s.imag / _DELTA, out=v)
    if phase is not None:
        v += np.multiply(phase, 1.0 / _DELTA, out=t)
    np.add(v, _RINT, out=t)
    index = np.bitwise_and(t.view(np.int64), (1 << _TABLE_BITS) - 1, out=w.view(np.int64))
    np.take(_unit_roots(), index, out=out, mode="clip")
    t -= _RINT
    v -= t
    z = np.multiply(v, v, out=t)
    sin = np.multiply(z, _SIN_COEFFS[2], out=w)
    sin += _SIN_COEFFS[1]
    sin *= z
    sin += _SIN_COEFFS[0]
    sin *= v
    cos = np.multiply(z, _COS_COEFFS[1], out=v)
    cos += _COS_COEFFS[0]
    cos *= z
    cos += 1.0
    mod = np.exp(np.multiply(log_x, -s.real, out=t), out=t)
    cos *= mod
    sin *= mod
    # out = T (cos + i sin): T cos, plus i T sin
    turned = np.multiply(out, sin, out=scratch("zeta.twisted", k, complex).reshape(shape))
    out *= cos
    out.real -= turned.imag
    out.imag += turned.real
    return out


def _power_sums(t: np.ndarray, weights: np.ndarray, s_list) -> list[complex]:
    """sum over k of weights[k] t[k]^(-2s) for each s of ``s_list``: one
    ``_powers`` call per block of t for all s at once, at most
    ``_SUM_BLOCK`` (s, t) pairs, each s's row summed pairwise and the
    blocks' sums merged pairwise."""
    s2 = 2.0 * np.array(s_list, complex)[:, None]
    size = max(_SUM_BLOCK // len(s2), 1)
    parts = []
    for a in range(0, len(t), size):
        block = t[a:a + size]
        log_t = scratch("zeta.log", len(s2) * len(block)).reshape(len(s2), len(block))
        np.log(block, out=log_t[0])
        log_t[1:] = log_t[0]
        powers = _powers(log_t, s2)
        powers *= weights[a:a + size]
        parts.append(np.sum(powers, axis=1))
    return [complex(v) for v in np.sum(np.ascontiguousarray(np.array(parts).T), axis=1)]


def _lattice_mass(sigma: float) -> float:
    """sum over p != 0 of |p|^(-2 sigma) = 4 zeta(sigma) beta(sigma), sigma > 1."""
    return 4.0 * (riemann_zeta(sigma) * dirichlet_beta(sigma)).real


# ulps per unit of |q| that a rotated twist's phase q theta adds to a term
_ROTATED_ULPS = 2.7 * math.pi


def _rounding(s: complex, mass: float, log_max: float, ulps: float, q: int = 0, rotated: bool = False) -> float:
    """Bound on the rounding of a direct sum of terms P(p) x(p)^(-s), with
    |P| = 1 (the twist of degree q), computed as e^(-s log x) by
    ``_powers``: ``mass`` bounds the sum of their moduli, ``log_max``
    bounds |log x| and ``ulps`` the relative error of x.  Per term, the
    exponent is off by at most |s| (3 |log x| + ulps) ulps: the log by
    |s| |log x|, and the kernel's argument reduction by at most
    1.7 |Im s log x| + |Re s log x| / 2 (the quotient Im s / delta, its
    product with log x and the sum with a twist's phase round once each,
    and delta's rounding against the table's exact steps adds 0.18).  The
    exponential and the orbit weight are off by at most 8: the table entry
    by 0.4, the real exp by 1, the two polynomials by 1, the products that
    assemble T (cos r + i sin r) e^(-Re s log x) by 1.7 and the weight by
    0.5.  The twist is off by 4 + 4|q|.  A rotated twist takes its phase
    q theta, |q theta| <= pi |q|, into the exponent: arctan2 and the product
    round it by up to pi |q| ulps, and the kernel's reduction of it adds up
    to 1.7 pi |q|, so a rotated twist is charged ``_ROTATED_ULPS`` |q| =
    2.7 pi |q| more.  Pairwise summation within the chunks and across them
    adds 48.

    The same constants bound the sums by count and the octant twists.
    Summed by count, count_t t^(-2s) is one exponential times an exact integer, like
    an orbit weight, the moduli sum to the same mass, and there are fewer
    terms to add.  An unrotated twist averages the c cosines of a point's
    coset images.  Added in pairs, each of modulus at most 1, they carry
    rounding of at most u (2 + 2 + 4) for c = 4 and u 2 for c = 2 (u =
    2^-53), and the scale |orbit| / c, a power of two, is exact, so the
    average is off by at most log2(c) u more than one cosine.  The walk
    covers the octant, c times fewer points than the domain of the group
    that keeps the twist real, which takes log2(c) levels, each worth u of
    the mass, off the pairwise summation."""
    kappa = 60.0 + 4.0 * abs(q) + abs(s) * (3.0 * log_max + ulps)
    if rotated:
        kappa += _ROTATED_ULPS * abs(q)
    return kappa * _EPS * mass


def _disc_tail(ang: float, sigma: float, radius: float) -> float:
    """Integral-comparison tail of a lattice sum over the disc |p| <= radius.

    For terms of modulus w(theta) |p|^(-2 sigma), ``ang`` is (a bound on) the
    integral of w over the circle; the omitted terms then total about
    ang * radius^(2 - 2 sigma) / (2 sigma - 2), inflated by the fluctuation
    margin.
    """
    return ang * radius ** (2.0 - 2.0 * sigma) / (2.0 * sigma - 2.0) * _fluctuation_margin(radius)


@dataclass(frozen=True)
class QuadForm2:
    """Positive-definite symmetric binary quadratic form [[u11, u12], [u12, u22]]."""

    u11: float
    u12: float
    u22: float

    def __post_init__(self):
        if not (self.u11 > 0.0 and self.det > 0.0):
            raise ValidationError("quadratic form must be positive definite")

    @cached_property
    def det(self) -> float:
        return self.u11 * self.u22 - self.u12 * self.u12

    def inverse(self) -> "QuadForm2":
        d = self.det
        return QuadForm2(self.u22 / d, -self.u12 / d, self.u11 / d)

    def eigenvalues(self) -> tuple[float, float]:
        tr = self.u11 + self.u22
        gap = math.hypot(self.u11 - self.u22, 2.0 * self.u12)
        return 0.5 * (tr - gap), 0.5 * (tr + gap)

    def condition_number(self) -> float:
        lo, hi = self.eigenvalues()
        if lo <= 0.0:  # eigenvalue gap lost to rounding: hopeless conditioning
            return math.inf
        return hi / lo

    def region(self) -> RadialShape:
        """The region x^T u x <= 1, whose dilation time is sqrt(x^T u x):
        R^-1 times the unit disc for the upper Cholesky factor R of u
        (u = R^T R), an ellipse by ``shapes.act``.  R's last entry is the
        root of det u / u11, formed exactly and rounded once, so a form with
        u12 = 0 and u11 = u22 gives a circle."""
        schur = Fraction(self.u22) - Fraction(self.u12) ** 2 / Fraction(self.u11)
        if schur <= 0:  # a float det > 0 of an exactly singular form
            raise ValidationError("quadratic form must be positive definite")
        # R = [[r11, u12 / r11], [0, r22]], so R^-1 = [[1 / r11, -u12 / (u11 r22)], [0, 1 / r22]]
        r11, r22 = math.sqrt(self.u11), math.sqrt(float(schur))
        return act(Mat2(1.0 / r11, -self.u12 / (self.u11 * r22), 0.0, 1.0 / r22), circle())

    def evaluate(self, m, n):
        """x^T u x, vectorized."""
        return self.u11 * m * m + 2.0 * self.u12 * m * n + self.u22 * n * n

    @staticmethod
    def identity() -> "QuadForm2":
        return QuadForm2(1.0, 0.0, 1.0)

    @staticmethod
    def from_transform(g: Mat2) -> "QuadForm2":
        """Form of the region g . (unit disc): x^T u x = |g^-1 x|^2."""
        gi = g.inverse()
        return QuadForm2(
            gi.a * gi.a + gi.c * gi.c,
            gi.a * gi.b + gi.c * gi.d,
            gi.b * gi.b + gi.d * gi.d,
        )


def ellipse_form(a: float, b: float, phi: float = 0.0) -> QuadForm2:
    """Quadratic form whose unit level set is the (a, b) ellipse rotated by phi."""
    if not (a >= b > 0.0):
        raise ValidationError("ellipse_form requires a >= b > 0")
    g_e = Mat2.rotation(-phi) @ Mat2.diagonal(a, b)
    return QuadForm2.from_transform(g_e)


def _require_convergent(s: complex) -> complex:
    s = complex(s)
    if not s.real > 1.0:
        raise ValidationError(f"direct sum requires Re(s) > 1, got {s}")
    return s


def _check_radius(radius: float):
    if not (radius >= 10.0):
        raise ValidationError("radius must be >= 10.0")
    if radius > MAX_RADIUS:
        raise ValidationError(f"radius {radius} exceeds the enumeration cap {MAX_RADIUS}")


# ---------------------------------------------------------------------------
# Direct sums
# ---------------------------------------------------------------------------


def hlawka_direct_many(shape: RadialShape, s_values, radius: float, threads: int | None = None) -> list[EvalResult]:
    """Z_r at several s sharing one lattice enumeration.

    Z_r(s) = sum over 0 < |p| <= radius of r(theta(p))^(2s) / |p|^(2s)
           = sum of t(p)^(-2s).

    Where every t is an exact integer (``lattice.time_ulps`` is 0) and
    t <= radius / r_min stays below ``_COUNT_BINS``, no point is walked:
    ``lattice.time_counts`` counts the points of each t row by row, and the
    sum is count_t t^(-2s) over the distinct t, one complex power per t and
    s.  Every other shape sums t(p)^(-2s) point by point over the
    fundamental domain of ``shape.symmetry``, and t^2 is charged twice the
    rounding ``time_ulps`` bounds for t.
    """
    s_list = [_require_convergent(s) for s in s_values]
    _check_radius(radius)
    ulps = _lattice.time_ulps(shape)
    # t^2 lies in [r_max^-2, (radius / r_min)^2]
    log_max = 2.0 * max(abs(math.log(shape.r_max)), abs(math.log(radius / shape.r_min)))
    scales = []
    for sv in s_list:
        _check_phase(sv, log_max)
        try:
            scales.append(shape.r_max ** (2.0 * sv.real))
        except OverflowError:
            raise NumericError(f"r_max^(2 Re s) = {shape.r_max:g}^{2.0 * sv.real:g} overflows") from None

    if ulps == 0.0 and radius / shape.r_min < _COUNT_BINS:
        _lattice.resolve_threads(threads)
        counts = _lattice.time_counts(shape, radius)
        times = np.flatnonzero(counts)
        sums = _power_sums(times, counts[times], s_list)
    else:
        def terms(m: np.ndarray, n: np.ndarray, orbit: np.ndarray):
            log_t = _lattice.dilation_times_block(shape, m, n, out=scratch("zeta.log", len(m)))
            np.log(log_t, out=log_t)
            for sv in s_list:
                powers = _powers(log_t, 2.0 * sv)
                powers *= orbit
                yield powers

        sums = _disc_sums(terms, radius, threads, shape.symmetry)
    out = []
    for sv, total, scale in zip(s_list, sums, scales):
        sigma = sv.real
        tail = _disc_tail(2.0 * math.pi * scale, sigma, radius)
        mass = scale * _lattice_mass(sigma)
        out.append(EvalResult(value=total, error_estimate=tail + _rounding(sv, mass, log_max, 2.0 * ulps),
                              truncation={"radius": radius, "s": [sv.real, sv.imag]}))
    return out


def hlawka_direct(
    shape: RadialShape,
    s: complex,
    radius: float,
    threads: int | None = None,
) -> EvalResult:
    """Direct lattice sum for Z_r(s); requires Re(s) > 1 and radius >= 10."""
    return hlawka_direct_many(shape, [s], radius, threads=threads)[0]


def _spectrum_sums(spec: "_lattice.Spectrum", s_values) -> list[EvalResult]:
    """``hlawka_from_spectrum`` at each s of ``s_values``, one power call per
    block of lines for all of them; each value agrees with its own call up
    to rounding (the blocks are cut elsewhere), each bar exactly."""
    s_list = [_require_convergent(s) for s in s_values]
    if len(spec.t_values) == 0:
        raise ValidationError(f"spectrum up to t_max={spec.t_max:g} has no line")
    t = spec.t_values
    a = spec.counts
    log_max = 2.0 * max(abs(math.log(t[0])), abs(math.log(t[-1])))
    for s in s_list:
        _check_phase(s, log_max)
    values = _power_sums(t, a, s_list)
    area = 2.0 * float(a.sum()) / spec.t_max**2
    log_t = np.log(t)
    # a line's t is within b t of the exact time of each of its points
    # (b = time_ulps), and where the grouping merged two values, within its
    # window 2 b t more: t^2 is off by at most 6 b
    ulps = 6.0 * _lattice.time_ulps(spec.shape)
    return [EvalResult(
        value=value,
        error_estimate=_disc_tail(area, s.real, spec.t_max)
        + _rounding(s, float(np.exp(log_t * (-2.0 * s.real)) @ a), log_max, ulps),
        truncation={"t_max": spec.t_max, "entries": len(t)},
    ) for s, value in zip(s_list, values)]


def hlawka_from_spectrum(spec: "_lattice.Spectrum", s: complex) -> EvalResult:
    """Z_r(s) = sum a_k t_k^(-2s) over an already computed spectrum.

    Tail model: the lines beyond t_max are counted by A(t) ~ area * t^2, and
    the spectrum's own count A(t_max) = sum a_k estimates the area as
    A(t_max) / t_max^2.  The omitted terms then total about
    2 area t_max^(2 - 2 sigma) / (2 sigma - 2), inflated by the fluctuation
    margin of the disc sums (``_disc_tail``).  The bar adds ``_rounding``
    with the mass sum a_k t_k^(-2 sigma), |log t^2| up to the spectrum's
    extremes and t^2 off by six times ``lattice.time_ulps``.  A spectrum
    with no line carries no area estimate and is rejected.
    """
    return _spectrum_sums(spec, [s])[0]


def eisenstein_fq_truncated(
    q: int,
    g_rotation: float,
    s: complex,
    radius: float,
    threads: int | None = None,
) -> EvalResult:
    """Disc-truncated twisted lattice sum

        sum over 0 < |p| <= radius of (-i)^q e^{i q (theta(p) + g_rotation)}
                                        / (m^2 + n^2)^s.

    The rotation is applied per lattice point (the points are rotated, then
    their angles taken), so rotation covariance is a genuine numeric check
    rather than an algebraic identity of the implementation.  Components with
    q not divisible by 4 vanish identically (the disc preserves the pairings
    (c,d) -> (-c,-d) and (c,d) -> (-d,c)); the sum is still computed so the
    cancellation itself can be verified.  Unrotated, every q walks the D4
    octant, since |p|^(-2s) is D4-invariant, with the twist
    (|orbit| / c) sum over k < c of cos(q theta(r^k p)) (``_orbit_twist``):
    one complex power per octant point, and each image's own arctan2, so p
    and -p (odd q), p and its quarter turn (q = 2 mod 4) still cancel point
    by point.  Rotated, it folds only by p -> -p for even q.
    """
    if q != int(q):
        raise ValidationError("q must be an integer")
    q = int(q)
    if not math.isfinite(g_rotation):
        raise ValidationError(f"rotation must be finite, got {g_rotation}")
    s = _require_convergent(s)
    _check_radius(radius)
    _check_phase(s, 2.0 * math.log(radius), 0.0 if g_rotation == 0.0 else abs(q) * math.pi)
    cr, sr = math.cos(g_rotation), math.sin(g_rotation)
    if g_rotation == 0.0:
        symmetry = Symmetry.D4
    else:
        symmetry = Symmetry.TRIVIAL if q % 2 else Symmetry.NEGATION

    def terms(m: np.ndarray, n: np.ndarray, orbit: np.ndarray):
        k = len(m)
        log_n2 = _log_norms(m, n)
        if g_rotation == 0.0:
            powers = _powers(log_n2, s)
            powers *= _orbit_twist(m, n, q, orbit)
            yield powers
            return
        angle = scratch("zeta.angle", k)
        x, tmp = scratch("zeta.x", k), scratch("zeta.tmp", k)
        np.multiply(m, cr, out=x)
        x -= np.multiply(n, sr, out=tmp)
        np.multiply(m, sr, out=angle)
        angle += np.multiply(n, cr, out=tmp)
        np.arctan2(angle, x, out=angle)
        angle *= q
        powers = _powers(log_n2, s, angle)
        powers *= orbit
        yield powers

    (total,) = _disc_sums(terms, radius, threads, symmetry)
    total *= _MINUS_I_POW[q % 4]
    tail = _disc_tail(2.0 * math.pi, s.real, radius) + _twisted_rounding(s, q, radius, g_rotation != 0.0)
    trunc = {"radius": radius, "q": q, "rotation": g_rotation}
    if q % 4 != 0:
        trunc["vanishes_identically"] = True
    return EvalResult(value=total, error_estimate=tail, truncation=trunc)


def _cos_twist(y: np.ndarray, x: np.ndarray, q: int, out: np.ndarray) -> np.ndarray:
    """cos(q arctan2(y, x)) into ``out``."""
    np.arctan2(y, x, out=out)
    out *= q
    return np.cos(out, out=out)


def _orbit_twist(m: np.ndarray, n: np.ndarray, q: int, orbit: np.ndarray) -> np.ndarray:
    """The sum of e^{i q theta} over the D4 orbit of each octant point p,

        (|orbit| / c) sum over k < c of cos(q theta(r^k p)),

    into a scratch array, with r the quarter turn (m, n) -> (-n, m) and
    c = (1, 4, 2, 4)[q % 4] the number of cosets of the subgroup of D4
    that keeps e^{i q theta} real on each orbit (D4, the reflection
    n -> -n, the axis reflections); that subgroup contributes the cosine.
    Each image r^k p takes its own arctan2, and the c cosines are added in
    pairs that cancel for q != 0 mod 4 (p with -p for odd q, p with r p for
    q = 2 mod 4), so a vanishing sum still cancels point by point.
    |orbit| / c is a power of two, so the scaling is exact."""
    k = len(m)
    cosets = (1, 4, 2, 4)[q % 4]
    twist = _cos_twist(n, m, q, scratch("zeta.angle", k))
    if cosets > 1:
        neg_n = np.negative(n, out=scratch("zeta.image", k))
        part = _cos_twist(m, neg_n, q, scratch("zeta.x", k))  # r p = (-n, m)
        if cosets == 4:
            neg_m = np.negative(m, out=scratch("zeta.tmp", k))
            twist += _cos_twist(neg_n, neg_m, q, neg_n)  # r^2 p = -p
            part += _cos_twist(neg_m, n, q, neg_m)  # r^3 p = (n, -m)
        twist += part
        twist /= cosets
    twist *= orbit
    return twist


def _twisted_rounding(s: complex, q: int, radius: float, rotated: bool = False) -> float:
    """``_rounding`` of a q-twisted sum over |p| <= radius (|p|^2 is exact)."""
    return _rounding(s, _lattice_mass(s.real), 2.0 * math.log(radius), 0.0, q, rotated)


# ---------------------------------------------------------------------------
# Continuations via incomplete-gamma splitting
# ---------------------------------------------------------------------------

_EPS = 2.0**-52
# The cutoff leaves out terms totalling at most this share of the bound on
# the largest term; past the peak each unit of pi Q costs a factor e.
_TAIL_SHARE = 2.0**-60


def _gauss_reduce(a, b, c) -> tuple[Fraction, Fraction, Fraction]:
    """The reduced form (|2b| <= a <= c) GL(2,Z)-equivalent to the positive
    form [[a, b], [b, c]], by translations m -> m - k n and swaps (Cohen,
    *A Course in Computational Algebraic Number Theory*, ch. 5).

    Exact: the entries are rationals (floats are) written over one
    denominator, so every step is integer arithmetic.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    den = math.lcm(a.denominator, b.denominator, c.denominator)
    a, b, c = int(a * den), int(b * den), int(c * den)
    if a <= 0 or a * c - b * b <= 0:
        raise ValidationError("quadratic form must be positive definite")
    while True:
        k = (2 * b + a) // (2 * a)  # round(b / a)
        b, c = b - k * a, c - k * (2 * b - k * a)
        if c >= a:
            return Fraction(a, den), Fraction(b, den), Fraction(c, den)
        a, b, c = c, -b, a


def _cut_ellipse(u: QuadForm2, q_cut: float):
    """Half-plane lattice points (n > 0, or n = 0 < m) with x^T u x <= q_cut,
    row by row: Q = u11 (m + u12 n / u11)^2 + (det / u11) n^2.  Returns m, n
    and Q."""
    a, b, det = u.u11, u.u12, u.det
    n = np.arange(int(math.sqrt(a * q_cut / det)) + 1)
    centre = -b * n / a
    half = np.sqrt(np.maximum(q_cut - det / a * n * n, 0.0) / a)
    # one point wider on each side; the exact test below trims the rows
    lo = np.floor(centre - half).astype(np.int64)
    hi = np.ceil(centre + half).astype(np.int64)
    lo[0] = 1
    cnt = np.maximum(hi - lo + 1, 0)
    rows = np.repeat(n, cnt)
    m = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) + np.arange(int(cnt.sum()))
    q = u.evaluate(m.astype(float), rows.astype(float))
    keep = q <= q_cut
    return m[keep], rows[keep], q[keep]


def _cutoff(sp: complex, q: int, x_min: float, beta: float) -> tuple[float, float]:
    """Cutoff X on x = pi Q for the degree-q kernel and a bound on the terms
    it leaves out.

    Gamma(a, x) <= x^(Re a - 1) e^(-x) / (1 - (Re a - 1)^+ / x) bounds each
    term by f(x) = 2 (x/pi)^(q/2) e^(-x) / (x - A), A the larger of the two
    shifts.  Past the peak of f the omitted terms total at most
    int_X^inf -f'(x) N(x) dx, where N(x) <= x + beta sqrt(x) + 1 counts the
    lattice points of the determinant-one ellipse pi Q <= x (area x, half
    perimeter at most beta sqrt(x); Nosarzewska's bound for convex sets).
    """
    p = q / 2.0
    big_a = max(sp.real - 1.0, q - sp.real, 0.0)

    def f(x: float) -> float:
        return 2.0 * math.exp(p * math.log(x / math.pi) - x) / (x - big_a)

    def tail(k: int) -> tuple[float, float]:
        x = x0 + k
        r = 1.0 - p / x  # f decays at least like e^(-r x) beyond x
        root = math.sqrt(x)
        return x, f(x) * (1.0 + 1.0 / (x - big_a)) * (
            (x + 1.0) / r + 1.0 / r**2 + beta * (root / r + 0.5 / (root * r**2))
        )

    # X is the first x0 + k with tail <= target.  Past x0 the log of the
    # tail falls at a rate above 1 - (p + 1) / x0 > 0 (f contributes at
    # most p/x - 1, the bracket at most 1/x), so the test is monotone in k
    # and that rate bounds the search interval.
    x_ref = max(x_min, p, big_a + 1.0)
    target = _TAIL_SHARE * f(x_ref)
    x0 = x_ref + 36.0
    first = tail(0)
    if first[1] <= target:
        return first
    lo = 0
    hi = max(1, math.ceil(math.log(first[1] / target) / (1.0 - (p + 1.0) / x0))) if target > 0.0 else 1
    best = tail(hi)
    while best[1] > target:  # only if rounding defeats the rate bound
        lo, hi = hi, 2 * hi
        best = tail(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probe = tail(mid)
        if probe[1] <= target:
            hi, best = mid, probe
        else:
            lo = mid
    return best


def _harmonics(step: np.ndarray, q_list, phase: np.ndarray):
    """``phase`` set to step^(q/4) for each q of ``q_list`` (ascending
    multiples of 4) in turn: the K-finite harmonics (m + i n)^q for step
    (m + i n)^4, e^(i q theta) for step e^(4 i theta).  The same array is
    yielded each time, overwritten by the next q."""
    phase.fill(1.0)
    done = 0
    for q in q_list:
        for _ in range((q - done) // 4):
            phase *= step
        done = q
        yield phase


def _theta_split(u: QuadForm2, det: float, pairs) -> tuple[list, dict]:
    """Completed theta-splitting sums of the reduced form u, one enumeration
    and one incomplete-gamma call for all (s, q) of ``pairs``:

        Lambda_q(s) = -[q = 0] (1/s' + 1/(q+1-s'))
            + sum over x != 0 of P(x) [X^(-s') Gamma(s', X) + X^(s'-q-1) Gamma(q+1-s', X)]

    with s' = s + q/2, X = pi Q(x) / sqrt(det) (the form scaled to
    determinant one, which is GL(2,Z)-equivalent to its inverse, so one
    point set serves both halves), P = 1 for q = 0 and (m + i n)^q otherwise
    (the identity form's twisted components; q > 0 needs the identity form,
    whose |P| = Q^(q/2) the tail bound assumes).  Points with equal Q share
    their incomplete gammas; Q and every P here are even, so the half plane
    is summed and doubled.  Each pair sums the points below its own cut, so
    its value does not depend on the other pairs.

    Returns [(Lambda_q(s), error bound)] in the order of ``pairs`` and the
    truncation record of the shared enumeration.  The bound is kappa 2^-52
    times the sum of the terms' moduli (rounding, relative error kappa ulps
    per term) plus the cutoff tail.
    """
    root = math.sqrt(det)
    scale = math.pi / root
    beta = math.sqrt(math.pi * root / u.eigenvalues()[0])  # sqrt(pi / lambda_min(u / root))
    cuts = [_cutoff(s + q / 2.0, q, scale * u.u11, beta) for s, q in pairs]
    m, n, qv = _cut_ellipse(u, max(x for x, _ in cuts) / scale)
    qs, inv, counts = np.unique(qv, return_inverse=True, return_counts=True)
    xs = scale * qs
    # every X^(-a) Gamma(a, X) of every pair in one call: a = s' and
    # q + 1 - s' on the x below that pair's cut, the halves one after the other
    ks = [int(np.searchsorted(xs, x_cut, side="right")) for x_cut, _ in cuts]
    a = np.concatenate([np.repeat([s + q / 2.0, q + 1.0 - (s + q / 2.0)], k) for (s, q), k in zip(pairs, ks)])
    at = np.concatenate([np.arange(k) for k in ks for _ in (0, 1)])
    terms = np.exp(-a * np.log(xs)[at]) * upper_incomplete_gamma(a, xs[at])
    # the harmonic weights of each q, summed over the points of each Q
    doubled = 2.0 * counts
    weights = {0: (doubled, doubled)}
    twisted = sorted({q for _, q in pairs} - {0})
    if twisted:
        for harm, q in zip(_harmonics((m + 1j * n) ** 4, twisted, np.empty(len(m), complex)), twisted):
            weights[q] = (2.0 * (np.bincount(inv, harm.real, len(xs)) + 1j * np.bincount(inv, harm.imag, len(xs))),
                          2.0 * np.bincount(inv, np.abs(harm), len(xs)))
    start = 0
    out = []
    for (s, q), k, (_, tail) in zip(pairs, ks, cuts):
        sp = s + q / 2.0
        t1, t2 = terms[start:start + k], terms[start + k:start + 2 * k]
        start += 2 * k
        w, w_abs = (v[:k] for v in weights[q])
        polar = 0.0 if q else -(1.0 / sp + 1.0 / (1.0 - sp))
        lam = polar + complex(np.sum(w * (t1 + t2)))
        mass = abs(polar) + float(np.sum(w_abs * (np.abs(t1) + np.abs(t2))))
        # against mpmath the error stays below 43 ulps of the mass up to |s'| = 30
        kappa = 32.0 + 2.0 * (abs(sp) + abs(q + 1.0 - sp))
        out.append((lam, kappa * _EPS * mass + tail))
    rings = int(max(np.max(np.abs(m)), np.max(n)))
    return out, {"rings": rings, "points": 2 * len(m)}


def _special_ulps(s: complex) -> float:
    """Relative accuracy, in ulps, of pi^(-s) Gamma(s) and of riemann_zeta(s)
    (against mpmath on a seeded grid up to |s| = 45: at most 0.75 of this)."""
    return 64.0 + 32.0 * abs(s) * math.log(2.0 + abs(s))


def _uncomplete(lam: complex, err: float, sp: complex) -> tuple[complex, float]:
    """lam / (pi^(-sp) Gamma(sp)) and its error bound; at the poles of
    Gamma(sp) the reciprocal vanishes and the exact 0 is returned."""
    try:
        g = cmath.exp(-sp * math.log(math.pi)) * gamma(sp)
    except PoleError:
        return 0j, 0.0
    value = lam / g
    return value, err / abs(g) + _special_ulps(sp) * _EPS * abs(value)


def _epstein_lambdas(u: QuadForm2, s_values) -> list[EvalResult]:
    """``epstein_lambda`` at each s of ``s_values``: one reduction of u and
    one ``_theta_split`` for all of them."""
    s_list = [complex(s) for s in s_values]
    for s in s_list:
        if abs(s) < 1e-8 or abs(s - 1.0) < 1e-8:
            raise PoleError(f"Epstein zeta pole at s={s}")
    a, b, c = _gauss_reduce(u.u11, u.u12, u.u22)
    red = QuadForm2(float(a), float(b), float(c))
    if red.condition_number() > 1e8:
        raise ValidationError("quadratic form too ill-conditioned")
    det = float(a * c - b * b)  # exact, then rounded once
    lams, trunc = _theta_split(red, det, [(s, 0) for s in s_list])
    out = []
    for s, (lam, err) in zip(s_list, lams):
        factor = cmath.exp(-0.5 * s * math.log(det))
        value = factor * lam
        ulps = 4.0 + abs(s) * abs(math.log(det))
        out.append(EvalResult(
            value=value,
            error_estimate=abs(factor) * err + ulps * _EPS * abs(value),
            truncation={**trunc, "method": "incomplete-gamma splitting"},
        ))
    return out


def epstein_lambda(u: QuadForm2, s: complex) -> EvalResult:
    """Completed Epstein zeta Lambda(u, s) = pi^(-s) Gamma(s) E(u, s).

    u is first Gauss-reduced (Lambda is GL(2,Z)-invariant); a reduced form
    with condition number above 1e8 is rejected.  With u1 = u / sqrt(det u),
    Lambda(u, s) = det(u)^(-s/2) Lambda(u1, s) and

        Lambda(u1, s) = -1/s - 1/(1-s)
            + sum over x != 0 of [(pi Q)^(-s) Gamma(s, pi Q) + (pi Q)^(s-1) Gamma(1-s, pi Q)]

    with Q = x^T u1 x, summed over the cut ellipse pi Q <= X where the
    Gaussian decay of Gamma(., pi Q) puts the omitted terms below 2^-60 of
    the largest.  ``error_estimate`` bounds the rounding (relative to the
    sum of the terms' moduli) plus that tail.  Meromorphic with only the two
    explicit poles at s = 0 and s = 1 (rejected within 1e-8).
    """
    return _epstein_lambdas(u, [s])[0]


def epstein_continued_many(u: QuadForm2, s_values) -> list[EvalResult]:
    """``epstein_continued`` at several s sharing one reduction of u, one
    enumeration and one incomplete-gamma call.  Each value and bound is
    that of its own call, up to the last digits of the incomplete gammas
    (a batch rounds some of them differently); the truncation record is the
    shared enumeration's."""
    s_list = [complex(s) for s in s_values]
    out = []
    for s, lam in zip(s_list, _epstein_lambdas(u, s_list)):
        value, err = _uncomplete(lam.value, lam.error_estimate, s)
        out.append(EvalResult(value=value, error_estimate=err, truncation=lam.truncation))
    return out


def epstein_continued(u: QuadForm2, s: complex) -> EvalResult:
    """Analytic continuation of the binary Epstein zeta to s not in {0, 1}.

    E(u, s) = Lambda(u, s) / (pi^(-s) Gamma(s)); at the poles of Gamma(s)
    the reciprocal vanishes and the trivial zero is returned exactly.  The
    error bound of Lambda is divided by |pi^(-s) Gamma(s)|, so it grows with
    the cancellation of the splitting at large |Im s|.
    """
    return epstein_continued_many(u, [s])[0]


def eisenstein_fq_continued(q: int, s: complex) -> EvalResult:
    """Entire continuation of the q-twisted component, q >= 4, q = 0 mod 4.

    With P(x) = (m + i n)^q (harmonic of degree q) and s' = s + q/2,

        Lambda_P(s') = sum over x != 0 of P(x) [ (pi |x|^2)^(-s') Gamma(s', pi |x|^2)
                          + (pi |x|^2)^(s'-q-1) Gamma(q+1-s', pi |x|^2) ]

    and the component equals pi^(s') Lambda_P(s') / Gamma(s').  P(0) = 0, so
    there are no polar terms and the result is entire in s.  (For q = 0 use
    ``epstein_continued`` on the identity form.)  Summed over the cut disc
    and bounded as in ``epstein_lambda``.
    """
    if q < 4 or q % 4 != 0:
        raise ValidationError("continuation implemented for q >= 4 with q = 0 mod 4")
    s = complex(s)
    [(lam, err)], trunc = _theta_split(QuadForm2.identity(), 1.0, [(s, q)])
    value, err = _uncomplete(lam, err, s + q / 2.0)
    return EvalResult(
        value=value,
        error_estimate=err,
        truncation={**trunc, "q": q, "method": "harmonic theta splitting"},
    )


def classical_eisenstein(
    z: complex,
    s: complex,
    method: str = "continued",
    radius: float = 2000.0,
    threads: int | None = None,
) -> EvalResult:
    """E(z, s) = (1/(2 zeta(2s))) sum over (m,n) != 0 of y^s / |m z + n|^(2s).

    Normalization: half the sum over coprime pairs, equivalently the full
    lattice sum divided by 2 zeta(2s).  (Conventions differ in the
    literature; this is the one used throughout this package.)
    y^(-1) |m z + n|^2 is the determinant-1 form [[ (x^2+y^2)/y, x/y ],
    [ x/y, 1/y ]] in (m, n): the direct mode sums over its region
    (``QuadForm2.region``), the continued mode continues its Epstein zeta.
    The continued mode reduces y times that form, (|z|^2, x, 1), exactly
    before dividing by y: the same as mapping z into the fundamental domain.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValidationError("classical_eisenstein requires Im z > 0")
    x, y = z.real, z.imag
    if method == "direct":
        u = QuadForm2((x * x + y * y) / y, x / y, 1.0 / y)
        base = hlawka_direct(u.region(), s, radius, threads=threads)
    elif method == "continued":
        fx, fy = Fraction(x), Fraction(y)
        a, b, c = _gauss_reduce(fx * fx + fy * fy, fx, 1)
        base = epstein_continued(QuadForm2(float(a / fy), float(b / fy), float(c / fy)), s)
    else:
        raise ValidationError("method must be 'direct' or 'continued'")
    zz = 2.0 * riemann_zeta(2.0 * complex(s))
    value = base.value / zz
    return EvalResult(
        value=value,
        error_estimate=base.error_estimate / abs(zz) + _special_ulps(2.0 * complex(s)) * _EPS * abs(value),
        truncation={**base.truncation, "normalization": "half-coprime"},
    )

# ---------------------------------------------------------------------------
# Fourier-Eisenstein reconstruction
# ---------------------------------------------------------------------------


def _twisted_sums_truncated(
    s: complex, q_list: list[int], radius: float, threads: int | None
) -> dict[int, complex]:
    """T_q = sum e^{i q theta(p)} |p|^(-2s) for q in q_list (ascending
    multiples of 4), one shared walk of the octant, where each orbit
    contributes |orbit| cos(q theta) |p|^(-2s); T_{-q} = T_q by lattice
    reflection symmetry."""

    def terms(m: np.ndarray, n: np.ndarray, orbit: np.ndarray):
        k = len(m)
        norm2, tmp = scratch("zeta.log", k), scratch("zeta.tmp", k)
        np.multiply(m, m, out=norm2)
        norm2 += np.multiply(n, n, out=tmp)
        step = scratch("zeta.step", k, complex)  # e^{4 i theta} = (m + i n)^4 / |p|^4
        np.copyto(step.real, m)
        np.copyto(step.imag, n)
        np.square(step, out=step)
        np.square(step, out=step)
        step /= np.square(norm2, out=tmp)
        powers = _powers(np.log(norm2, out=norm2), s)
        weight = scratch("zeta.angle", k)
        weighted = scratch("zeta.twisted", k, complex)
        for phase in _harmonics(step, q_list, scratch("zeta.phase", k, complex)):
            np.multiply(phase.real, orbit, out=weight)
            yield np.multiply(powers, weight, out=weighted)

    sums = _disc_sums(terms, radius, threads, Symmetry.D4)
    return dict(zip(q_list, sums))


def reconstruct_hlawka(
    shape: RadialShape,
    s: complex,
    q_max: int,
    mode: str = "truncated",
    radius: float = 3000.0,
    threads: int | None = None,
) -> EvalResult:
    """Rebuild Z_r(s) from Fourier coefficients of r^(2s) and twisted sums.

    Z_r(s) = sum over q = 0 mod 4, |q| <= q_max of chat(q) T_|q|(s), where
    chat are the exponential-basis Fourier coefficients of r^(2s) and
    T_q(s) = sum e^{i q theta(p)} |p|^(-2s).  Components with q not divisible
    by 4 vanish, so only every fourth coefficient enters.  Sign convention:
    the twist phase of the components cancels against the expansion weights,
    leaving the plain product above (pinned by the circle and ellipse
    oracles).
    """
    s = complex(s)
    if mode not in ("truncated", "continued"):
        raise ValidationError("mode must be 'truncated' or 'continued'")
    if mode == "truncated":
        _require_convergent(s)
        _check_radius(radius)
        _check_phase(s, 2.0 * math.log(radius))
    if q_max < 0:
        raise ValidationError("q_max must be nonnegative")

    table = _fourier.fourier_coeffs(shape, s, q_max)
    q_list = [q for q in range(0, q_max + 1, 4)]

    c0 = abs(table.coefficients[0])
    edge = max(abs(table.coefficients.get(q_list[-1], 0.0)),
               abs(table.coefficients.get(-q_list[-1], 0.0))) if q_list[-1] > 0 else 0.0
    slow_decay = c0 > 0 and edge >= 1e-12 * c0
    if slow_decay:
        warnings.warn(
            "Fourier coefficients of r^(2s) have not decayed below 1e-12 of the "
            "constant term at q_max; reconstruction tail may dominate (kinked shape?)",
            stacklevel=2,
        )

    if mode == "truncated":
        t_sums = _twisted_sums_truncated(s, q_list, radius, threads)
        t_errs = {q: _disc_tail(2.0 * math.pi, s.real, radius) + _twisted_rounding(s, q, radius)
                  for q in q_list}
    else:
        lams, _ = _theta_split(QuadForm2.identity(), 1.0, [(s, q) for q in q_list])
        comps = [_uncomplete(lam, e, s + q / 2.0) for q, (lam, e) in zip(q_list, lams)]
        t_sums = {q: v for q, (v, _) in zip(q_list, comps)}
        t_errs = {q: e for q, (_, e) in zip(q_list, comps)}

    value = table.coefficients[0] * t_sums[0]
    for q in q_list:
        if q > 0:
            value += (table.coefficients[q] + table.coefficients[-q]) * t_sums[q]

    # each component's error times its coefficient, and each coefficient's
    # (grid-doubling) error times its component
    err = sum((abs(table.coefficients[q]) + (abs(table.coefficients[-q]) if q else 0.0)) * t_errs[q]
              + (table.errors[q] + (table.errors[-q] if q else 0.0)) * abs(t_sums[q])
              for q in q_list)
    # neglected coefficient tail, modeled by the magnitude at the cutoff
    # continuing at the observed decay ratio (or flat for kinked shapes),
    # against components as large as the largest computed one
    if q_list[-1] >= 8:
        prev = max(abs(table.coefficients.get(q_list[-1] - 4, 0.0)), 1e-300)
        ratio = min(edge / prev, 0.9) if prev > 0 else 0.0
        tail_coeffs = 2.0 * edge / (1.0 - ratio) if edge > 0 else 0.0
    else:
        tail_coeffs = 2.0 * edge * 10.0
    err += tail_coeffs * max(abs(v) for v in t_sums.values())

    return EvalResult(
        value=value,
        error_estimate=err,
        truncation={
            "q_max": q_max,
            "mode": mode,
            "radius": radius if mode == "truncated" else None,
            "n_quad": table.n_quad,
            "slow_coefficient_decay": slow_decay,
        },
    )
