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
region of a form with u12 = 0 and u11 = u22 among them), cosine series in
cos(4k theta) and every twisted sum; the axis reflections for
unrotated ellipses (the region of every other form with u12 = 0 among
them) and even cosine series; n -> -n for other cosine series; p -> -p for
the rest of the centrally symmetric terms, every other ellipse included.
A polygon takes the group that maps its vertex set onto itself: D4 for the
square, the trivial group for the odd shape.  A twisted sum (q = 0 mod 4;
the other components vanish identically and are not summed) weights each
octant point by |orbit| cos(q theta); rotated by phi, as the disc is
rotation-invariant, it is the unrotated sum times e^(i q phi)
(``_rotate``), which the continued components take too.  A polygon's dilation
times are exact integers (``lattice.time_ulps`` is 0): no point is walked,
``lattice.time_counts`` counts the points of each t by rows, and the sum
takes one complex power per distinct t.  ``error_estimate`` adds to the
tail a rounding bound relative to a closed-form bound on the sum of the
terms' moduli, charging t the rounding ``time_ulps`` bounds.

Circles and ellipses (every image of one, and every Epstein form's region)
need no walk where a cheaper route is as accurate: their disc sum is the
Epstein value Z_Q(s) of their form, less the rows' tails beyond the disc
and the full rows beyond it, all in O(R) (``hlawka_direct_many``).  So are
the twisted sums, the harmonic continuation of each component
less its twisted tails (``eisenstein_fq_truncated``, the truncated mode of
``reconstruct_hlawka``), and the cosine series, sum chat(q) T_q(R) over
their Fourier coefficients.  The route is taken where the walk would visit
more than ``_WALK_POINTS`` points, its fixed cost's worth.

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
from .shapes import Mat2, RadialShape, Symmetry, _exact_form, act, circle
from .special import _BERNOULLI, _EPS, _hurwitz, dirichlet_beta, gamma, riemann_zeta, upper_incomplete_gamma
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


def _check_phase(s: complex, log_max: float):
    """Reject an s whose phases |Im s| |log x| (|log x| up to ``log_max``)
    leave the domain of ``_powers``."""
    if not abs(s.imag) * log_max <= _PHASE_MAX:
        raise ValidationError(
            f"|Im s| = {abs(s.imag):g} is too large for a direct sum with |log x| up to {log_max:.6g}: "
            f"|Im s| |log x| must stay below {_PHASE_MAX:.4g}")


def _powers(log_x: np.ndarray, s: complex | np.ndarray) -> np.ndarray:
    """e^(-s log_x) into a scratch array of the shape of ``log_x`` (``s`` a
    complex or an array broadcasting against ``log_x``).

    Table-driven (Tang, ACM TOMS 15(2), 1989), in real operations and
    products of complex by real numbers only: with tau = Im s and
    u = -tau log_x / delta, delta = 2 pi / 4096, j = rint(u) comes
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
    ``log_x`` must not be among them."""
    k, shape = log_x.size, log_x.shape
    out = scratch("zeta.terms", k, complex).reshape(shape)
    v, t, w = (scratch(name, k).reshape(shape) for name in ("zeta.x", "zeta.tmp", "zeta.image"))
    np.multiply(log_x, -s.imag / _DELTA, out=v)
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


def _rounding(s: complex, mass: float, log_max: float, ulps: float, q: int = 0) -> float:
    """Bound on the rounding of a direct sum of terms P(p) x(p)^(-s), with
    |P| = 1 (the twist of degree q), computed as e^(-s log x) by
    ``_powers``: ``mass`` bounds the sum of their moduli, ``log_max``
    bounds |log x| and ``ulps`` the relative error of x.  Per term, the
    exponent is off by at most |s| (3 |log x| + ulps) ulps: the log by
    |s| |log x|, and the kernel's argument reduction by at most
    1.7 |Im s log x| + |Re s log x| / 2 (the quotient Im s / delta and its
    product with log x round once each, and delta's rounding against the
    table's exact steps adds 0.18).  The exponential and the orbit weight
    are off by at most 8: the table entry by 0.4, the real exp by 1, the
    two polynomials by 1, the products that assemble
    T (cos r + i sin r) e^(-Re s log x) by 1.7 and the weight by 0.5.  The
    twist is off by 4 + 4|q|.  Pairwise summation within the chunks and
    across them adds 48.

    The same constants bound the sums by count: count_t t^(-2s) is one
    exponential times an exact integer, like an orbit weight, the moduli
    sum to the same mass, and there are fewer terms to add."""
    kappa = 60.0 + 4.0 * abs(q) + abs(s) * (3.0 * log_max + ulps)
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
        u12 = 0 and u11 = u22 gives an ellipse with equal axes."""
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
    """Quadratic form whose unit level set is the (a, b) ellipse rotated by
    phi, the region of kappa(-phi) diag(a, b), for either order of a and b."""
    if not (a > 0.0 and b > 0.0):
        raise ValidationError("ellipse_form requires axes a, b > 0")
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
    fundamental domain of ``shape.symmetry`` (the walk), and t^2 is charged
    twice the rounding ``time_ulps`` bounds for t.  The walk's bar is the
    disc tail plus ``_rounding``.

    A circle or an ellipse, t^2 = Q(m, n) = u11 ((m + shift n)^2 + c_n^2)
    for a positive form Q, takes O(R) row tails instead where the walk
    would visit more than ``_WALK_POINTS`` points (pi R^2 / |G| for the
    group G of ``shape.symmetry``) and the row tails add no more to the bar
    than the walk's own bar, which is known before either runs; else it
    walks.  With N = isqrt(floor(R^2)) and
    a_n = isqrt(floor(R^2) - n^2) + 1 (the walk's integer disc test),

        S_R(s) = Z_Q(s) - 2 sum_(|n| <= N) sum_(m >= a_n) Q(m, n)^(-s)
                 - 2 c zeta(2s - 1, N + 1),

    c = sqrt(pi) Gamma(s - 1/2) / Gamma(s) u11^(s-1) det^(1/2-s): Z_Q from
    one ``epstein_continued_many`` call for every s (of the form reduced
    exactly, which has the same Z), each row's tail by Euler-Maclaurin with
    its integral in closed form (``_row_tails``), and the rows |n| > N by
    Poisson summation (the first Chowla-Selberg term; the neglected Bessel
    terms decay like e^(-2 pi N sqrt(det) / u11)).  The bar keeps the disc
    tail and the ``time_ulps`` share of ``_rounding`` and adds the
    continued bar (checked against mpmath, not proven; it charges the
    cancellation of its Gamma(1 - s, X) recursion, ``_gamma_recurrence``),
    and bounds on the Euler-Maclaurin remainders, the series truncation,
    the Bessel terms and the rounding (``_row_tail_sums``), so it at most
    doubles.  Beyond
    |s| = 50 and for shapes whose form leaves the floats, it walks.

    A cosine series takes the paper's decomposition instead, under the same
    rules (tried above ``_WALK_POINTS`` points of its own group's walk, and
    above as many for every ``_ROUTE_TWISTS`` of its Q/4 + 1 twists, with
    |s + Q/2| <= 50; taken where its bar adds at most the walk's bar; else
    the plain walk):
    as t(p)^(-2s) = |p|^(-2s) r(theta)^(2s), its disc sum is exactly
    sum_(q = 0 mod 4, |q| <= Q) chat(q) T_q(R), Q from the strip bound
    of ``fourier.coefficient_cutoff`` and every T_q from one batch of the
    twisted row tails (``_fourier_route``).

    ``truncation`` records the route: ``"route": "row-tails"`` with
    ``rows`` (the rows summed: 2N + 1, or N + 1 where rows n and -n have
    equal tails) and ``em_terms`` (the Euler-Maclaurin corrections per
    row), ``"route": "fourier"`` with ``q_max`` (Q) and ``a`` (the strip's
    half-width), or ``"route": "walk"``.  No route depends on the thread
    count.
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

    tails = [_disc_tail(2.0 * math.pi * scale, sv.real, radius) for sv, scale in zip(s_list, scales)]
    masses = [scale * _lattice_mass(sv.real) for sv, scale in zip(s_list, scales)]
    walk_bars = [tail + _rounding(sv, mass, log_max, 2.0 * ulps) for sv, tail, mass in zip(s_list, tails, masses)]
    out: list = [None] * len(s_list)
    few = _walks_few(radius, shape.symmetry)
    rows = None if few else _quadratic_rows(shape, radius)
    if rows is not None:
        _lattice.resolve_threads(threads)
        sums = _row_tail_sums(rows, [(sv, 0) for sv in s_list], masses, walk_bars,
                              lambda pairs: [(r.value, r.error_estimate)
                                             for r in epstein_continued_many(rows.reduced, [sv for sv, _ in pairs])])
        for i, (value, added, em_terms) in sums.items():
            sv = s_list[i]
            share = abs(sv) * 2.0 * ulps * _EPS * masses[i]  # the times' share of ``_rounding``
            out[i] = EvalResult(value=value, error_estimate=tails[i] + share + added,
                                truncation={"radius": radius, "s": [sv.real, sv.imag], "route": "row-tails",
                                            "rows": len(rows.x), "em_terms": em_terms})
    if shape.kind == "cosine-series" and not few:
        _lattice.resolve_threads(threads)
        for i, sv in enumerate(s_list):
            route = _fourier_route(shape, sv, radius, masses[i], walk_bars[i])
            if route is not None:
                value, added, trunc = route
                out[i] = EvalResult(value=value, error_estimate=tails[i] + added,
                                    truncation={"radius": radius, "s": [sv.real, sv.imag], **trunc})
    walk = [i for i, res in enumerate(out) if res is None]
    if not walk:
        return out
    walk_s = [s_list[i] for i in walk]
    if ulps == 0.0 and radius / shape.r_min < _COUNT_BINS:
        _lattice.resolve_threads(threads)
        counts = _lattice.time_counts(shape, radius)
        times = np.flatnonzero(counts)
        sums = _power_sums(times, counts[times], walk_s)
    else:
        def terms(m: np.ndarray, n: np.ndarray, orbit: np.ndarray):
            log_t = _lattice.dilation_times_block(shape, m, n, out=scratch("zeta.log", len(m)))
            np.log(log_t, out=log_t)
            for sv in walk_s:
                powers = _powers(log_t, 2.0 * sv)
                powers *= orbit
                yield powers

        sums = _disc_sums(terms, radius, threads, shape.symmetry)
    for i, total in zip(walk, sums):
        sv = s_list[i]
        out[i] = EvalResult(value=total, error_estimate=walk_bars[i],
                            truncation={"radius": radius, "s": [sv.real, sv.imag], "route": "walk"})
    return out


def hlawka_direct(
    shape: RadialShape,
    s: complex,
    radius: float,
    threads: int | None = None,
) -> EvalResult:
    """Direct lattice sum for Z_r(s); requires Re(s) > 1 and radius >= 10."""
    return hlawka_direct_many(shape, [s], radius, threads=threads)[0]


# ---------------------------------------------------------------------------
# Disc sums by row tails
# ---------------------------------------------------------------------------

# Euler-Maclaurin corrections a row tail may take, the fewest that suffice
_EM_TERMS = (2, 4, 6, 9, 12)
# the most terms of a row integral's Gauss series, taken in steps of 8
_SERIES_TERMS = 64
# the largest condition of a reduced form that ``epstein_continued`` takes
_COND_MAX = 1e8
# the largest |s| at which the continuation's special functions keep their
# accuracy contract (README): beyond it Gamma(s) soon overflows
_S_MAX = 50.0
# the extremes of r that keep a form's entries and determinant normal floats
_R_RANGE = (1e-75, 1e75)
# the shares of a distance that a Cauchy disc or a shifted contour may take
_SHARES = np.array([0.05 * k for k in range(1, 20)] + [0.97, 0.99])
# the most points a walk visits (pi R^2 / |G|) where it is still the cheaper
# route: the row tails cost 2.5 to 4 ms whatever the radius (6 to 8 for a
# reconstruction), about what a walk takes at this many points; over the
# quadratic, twisted and reconstruct jobs of four direct-sums benchmark
# decks of two seeds (2 threads, 2 cores), thresholds from 40000 to 100000
# give totals within 1% of each other, and none (row tails at every
# radius) 13% more
_WALK_POINTS = 60000.0
# the twists of the Fourier route that cost what a walk of _WALK_POINTS
# points does: the route takes 2.3 to 9.5 ms for 6 to 23 twists, 0.2 to
# 0.3 ms each, where a walk takes 35 to 45 ns a point (in-process, best of
# 7, on the benchmark's two cosine series at R 280 to 650, 2 cores)
_ROUTE_TWISTS = 8
# the terms of a twisted row integral's series in n / a and the
# Gauss-Legendre points per panel it may take, the fewest that suffice
_TWIST_TERMS = (8, 16, 24, 32, 48)
_GAUSS_POINTS = (4, 6, 8, 12, 16, 24)
# the shares of a panel's distance to the singularities that its Bernstein
# ellipse may take, and the Cauchy radii (times the largest argument) of
# the series
_THETAS = (0.1, 0.3, 0.6, 0.9)
_RADII = np.array([1.25, 1.5, 2.0, 3.0, 4.0, 6.0])


@dataclass(frozen=True)
class _QuadRows:
    """A circle's or an ellipse's form Q(m, n) = u11 P, P = (m + shift n)^2
    + c^2 with c = gamma |n|, and the rows |n| <= top of the disc
    m^2 + n^2 <= floor(R^2): ``x`` holds a_n + shift n for row n's first
    point outside, a_n = isqrt(floor(R^2) - n^2) + 1.  Where shift = 0,
    rows n and -n have equal tails, and only n >= 0 are kept, weighted 2
    (``weight``)."""

    reduced: QuadForm2  # Q Gauss-reduced exactly, then rounded once
    u11: float
    det: float
    gamma: float
    top: int
    x: np.ndarray
    c: np.ndarray
    log_p: np.ndarray  # log P(a_n, n)
    weight: np.ndarray
    skew: float  # r_max / r_min, at least |shift| / gamma


def _walks_few(radius: float, symmetry: Symmetry, routes: float = 1.0) -> bool:
    """Whether a walk of the fundamental domain of ``symmetry`` visits at
    most ``routes`` times ``_WALK_POINTS`` points (pi R^2 / |G|), where it
    is the cheaper route."""
    return math.pi * radius * radius / len(_lattice._GROUP[symmetry]) <= routes * _WALK_POINTS


def _quadratic_rows(shape: RadialShape, radius: float) -> _QuadRows | None:
    """The rows of a circle or an ellipse; None for every other kind, for a
    shape beyond ``_R_RANGE`` and for a form too ill-conditioned to
    continue.  The form is exact (``shapes._exact_form``), so that only the
    reduced form and the row parameters round, each once."""
    if shape.kind != "ellipse" or not _R_RANGE[0] <= shape.r_min <= shape.r_max <= _R_RANGE[1]:
        return None
    u11, u12, u22 = _exact_form(shape)
    reduced = QuadForm2(*map(float, _gauss_reduce(u11, u12, u22)))
    if not reduced.condition_number() <= _COND_MAX:
        return None
    det = u11 * u22 - u12 * u12
    _, ext = _lattice._row_extents(math.floor(radius * radius))
    top = len(ext) - 1
    n = np.arange(0 if u12 == 0 else -top, top + 1)
    gamma_ = math.sqrt(float(det / (u11 * u11)))
    x = (ext[np.abs(n)] + 1) + float(u12 / u11) * n
    c = gamma_ * np.abs(n)
    weight = np.where(n > 0, 2.0, 1.0) if u12 == 0 else np.ones(len(n))
    return _QuadRows(reduced, float(u11), float(det), gamma_, top, x, c, np.log(x * x + c * c), weight,
                     shape.r_max / shape.r_min)


def _log_sum_exp(logs: np.ndarray) -> float:
    """log sum e^logs without overflow."""
    top = float(np.max(logs))
    return top + math.log(float(np.sum(np.exp(logs - top)))) if math.isfinite(top) else top


def _bound(log_value: float) -> float:
    """e^log_value, inf where that overflows."""
    return math.exp(log_value) if log_value < 700.0 else math.inf


def _twisted(h: np.ndarray, q, bound):
    """``bound(min h)`` for the exponents ``h`` over ``_SHARES`` raised by
    the log of the most the twist ((y + i n) / (y - i n))^(q/2) grows within
    theta of the distance to its zeros y = +-i n, or on a contour shifted by
    theta |n|: (|q|/2) log((1 + theta) / (1 - theta)); one bound for each q
    of a sequence ``q``, or for the one q."""
    rise = np.log((1.0 + _SHARES) / (1.0 - _SHARES))
    bounds = [bound(float(v)) for v in np.min(h + 0.5 * np.abs(np.atleast_1d(q))[:, None] * rise, axis=1)]
    return bounds if np.ndim(q) else bounds[0]


def _em_remainder(rows: _QuadRows, s: complex, p: int, q=0):
    """Bound on the Euler-Maclaurin remainders of 2 sum_n (row tails) after
    p corrections (DLMF 2.10.1, with m = p + 1):
    |R| <= 4 zeta(2m) / (2 pi)^2m int_a^inf |f^(2m)|.  Row n's
    f = u11^-s P^-s, twisted by ((y + i n) / (y - i n))^(q/2), has its
    complex zeros at distance d = sqrt(P) from every real point, so on a
    disc of radius theta d, |P| >= (1 - theta)^2 P, |arg P| <= 2 arcsin theta
    and the twist is at most ((1 + theta) / (1 - theta))^(|q|/2), and
    Cauchy's estimate gives |f^(2m)| <= (2m)! (theta d)^-2m
    (1 - theta)^-2 sigma e^(2 |tau| arcsin theta) u11^-sigma P^-sigma times
    that.  What is left is J = int_x^inf (y^2 + c^2)^-sigma' dy,
    sigma' = sigma + m, at most x^(1 - 2 sigma') / (2 sigma' - 1) for
    x >= c, c^(1 - 2 sigma') 2 sigma' / (2 sigma' - 1) for 0 <= x < c and
    twice that for x < 0.  theta is the share of ``_SHARES`` that minimizes
    the factor it sets.  One bound per q of a sequence ``q``."""
    sigma, tau, m = s.real, abs(s.imag), p + 1
    h = -2 * m * np.log(_SHARES) - 2.0 * sigma * np.log1p(-_SHARES) + 2.0 * tau * np.arcsin(_SHARES)
    sp = sigma + m
    x, c = rows.x, rows.c
    outer = x >= c
    log_j = _log_sum_exp(np.log(rows.weight) + np.where(
        outer, (1.0 - 2.0 * sp) * np.log(np.where(outer, x, 1.0)),
        (1.0 - 2.0 * sp) * np.log(np.where(outer, 1.0, c)) + math.log(2.0 * sp) + math.log(2.0) * (x < 0.0)))
    # 2 (the two halves of each row) 4 zeta(2m), zeta(2m) <= 1.1
    return _twisted(h, q, lambda h_min: _bound(
        (math.log(8.8) + math.lgamma(2 * m + 1) - 2 * m * math.log(2.0 * math.pi) + h_min
         - sigma * math.log(rows.u11) - math.log(2.0 * sp - 1.0)) + log_j))


def _bessel_bound(rows: _QuadRows, s: complex, q=0):
    """Bound on the neglected terms of the full rows |n| > top: Poisson
    summation gives row n as u11^-s sum_k fhat_k e^(2 pi i k shift n),
    fhat_k = int (y^2 + c^2)^-s e^(-2 pi i k y) dy (twisted by
    ((y + i n) / (y - i n))^(q/2)), of which only k = 0 (the Chowla-Selberg
    term) is kept.  Shifting the contour by eta c towards the decay, where
    |arg(y^2 + c^2)| <= arcsin eta, |y^2 + c^2| >= y^2 + (1 - eta^2) c^2
    and the twist is at most ((1 + eta) / (1 - eta))^(|q|/2), bounds
    |fhat_k| by that times e^(|tau| arcsin eta) sqrt(pi) Gamma(sigma - 1/2)
    / Gamma(sigma) ((1 - eta^2) c^2)^(1/2 - sigma) e^(-2 pi |k| eta c);
    summed over k != 0 and |n| > top (c = gamma |n|, w = 2 pi eta gamma),
    that is at most
    4 (gamma (top + 1))^(1 - 2 sigma) e^(-w (top + 1)) / ((1 - e^(-w (top + 1))) (1 - e^-w))
    times the rest, with eta from ``_SHARES``.  One bound per q of a
    sequence ``q``."""
    sigma, tau = s.real, abs(s.imag)
    w = 2.0 * math.pi * _SHARES * rows.gamma
    edge = rows.top + 1
    h = (tau * np.arcsin(_SHARES) + (0.5 - sigma) * np.log1p(-_SHARES**2) - w * edge
         - np.log(-np.expm1(-w * edge)) - np.log(-np.expm1(-w)))
    return _twisted(h, q, lambda h_min: _bound(
        math.log(4.0) - sigma * math.log(rows.u11) + 0.5 * math.log(math.pi) + math.lgamma(sigma - 0.5)
        - math.lgamma(sigma) + (1.0 - 2.0 * sigma) * math.log(rows.gamma * edge) + h_min))


def _row_line(s: complex, q: int) -> tuple[complex, float]:
    """int over the real line of (y + i)^(q/2 - s) (y - i)^(-q/2 - s) dy,
    a full row of the form P = y^2 + 1 twisted by q (with y = cot t, the
    beta integral int_0^pi e^(i q t) sin^(2s - 2) t dt), and its rounding
    in ulps: sqrt(pi) Gamma(s - 1/2) / Gamma(s) for q = 0, else
    2 pi 2^(1 - 2s) Gamma(2s - 1) / (Gamma(s - q/2) Gamma(s + q/2)), q = 0
    mod 4, the exact 0 where s - q/2 is a pole of Gamma."""
    if not q:
        return math.sqrt(math.pi) * gamma(s - 0.5) / gamma(s), 2.0 * _special_ulps(s)
    k = 0.5 * abs(q)
    try:
        inverse = 1.0 / (gamma(s - k) * gamma(s + k))
    except PoleError:
        return 0j, 0.0
    line = 2.0 * math.pi * cmath.exp((1.0 - 2.0 * s) * math.log(2.0)) * gamma(2.0 * s - 1.0) * inverse
    return line, (_special_ulps(2.0 * s - 1.0) + _special_ulps(s - k) + _special_ulps(s + k)
                  + 2.0 * abs(2.0 * s - 1.0) + 8.0)


def _full_rows(rows: _QuadRows, s: complex, line: tuple[complex, float], hurwitz: complex) -> tuple[complex, float]:
    """The Chowla-Selberg term of the rows |n| > top,
    2 L u11^(s-1) det^(1/2-s) zeta(2s - 1, top + 1) for the full-row
    integral L of ``_row_line`` (``line``: L and its rounding in ulps) and
    ``hurwitz`` = zeta(2s - 1, top + 1), and a bound on its rounding:
    ``special._hurwitz`` stops where its remainder is below its rounding,
    and its moduli sum to at most zeta(2 sigma - 1, top + 1)."""
    sigma, edge = s.real, rows.top + 1
    const = line[0] * cmath.exp((s - 1.0) * math.log(rows.u11) + (0.5 - s) * math.log(rows.det))
    value = 2.0 * const * hurwitz
    mass = edge ** (1.0 - 2.0 * sigma) + edge ** (2.0 - 2.0 * sigma) / (2.0 * sigma - 2.0)
    kappa = (line[1] + 2.0 * abs(s) * (abs(math.log(rows.u11)) + abs(math.log(rows.det)) + 2.0)
             + 4.0 * abs(2.0 * s - 1.0) * (math.log(edge + abs(2.0 * s - 1.0)) + 1.0) + 128.0)
    return value, kappa * _EPS * 2.0 * abs(const) * mass


def _gauss_series(s: complex, beta: complex, z: np.ndarray, scale: np.ndarray, target: float):
    """2F1(s, 1; beta; z) = sum rho_k z^k, rho_k = (s)_k / (beta)_k, at each
    z of ``z`` (0 <= z <= 1/2), by Horner over the first K terms, K the
    first multiple of 8 up to ``_SERIES_TERMS`` at which the rest, weighted
    by ``scale``, is at most ``target``.  Past rho_K the term ratios are at
    most rate = z max(1, |s + K| / |beta + K|) (``special.hyp2f1``), so the
    rest is at most |rho_K| z^K / (1 - rate).  Returns the sums, the sums
    of |rho_k| z^k and the weighted bound on the rests (inf where a rate
    reaches 1)."""
    k = np.arange(_SERIES_TERMS)
    rho = np.concatenate([[1.0], np.cumprod((s + k) / (beta + k))])
    if len(z) == 0:
        return np.zeros(0, complex), np.zeros(0), 0.0
    z_max, total = float(np.max(z)), float(np.sum(scale))
    for size in range(8, _SERIES_TERMS + 1, 8):
        growth = max(1.0, abs(s + size) / abs(beta + size))
        if z_max * growth < 1.0 and total * abs(rho[size]) * z_max**size <= target * (1.0 - z_max * growth):
            break
    if not z_max * growth < 1.0:
        return np.zeros(len(z), complex), np.zeros(len(z)), math.inf
    rest = float(np.sum(scale * abs(rho[size]) * z**size / (1.0 - z * growth)))
    value = np.full(len(z), rho[size - 1])
    mass = np.full(len(z), abs(rho[size - 1]))
    for r in rho[size - 2::-1]:
        value *= z
        value += r
        mass *= z
        mass += abs(r)
    return value, mass, rest


def _row_integrals(rows: _QuadRows, s: complex, half_line: complex, target: float):
    """int_x^inf (y^2 + c^2)^-s dy for each row, the moduli its rounding is
    relative to, and the weighted bound on its series truncation.  From
    |x|, with P = x^2 + c^2, it is |x| P^-s / (2s - 1)
    2F1(s, 1; s + 1/2; c^2/P) where |x| >= c, and else
    c^(1-2s) h / 2 - |x| P^-s 2F1(1, s; 3/2; x^2/P), h = ``half_line``
    = sqrt(pi) Gamma(s - 1/2) / Gamma(s) (Pfaff transforms, DLMF 15.8.1);
    for x < 0 it is c^(1-2s) h less the integral from |x|.  Either series
    argument is at most 1/2 (``_gauss_series``, its rests weighted by
    ``rows.weight`` at most ``target`` where it can)."""
    x, c, log_p = rows.x, rows.c, rows.log_p
    ax, inv_p = np.abs(x), np.exp(-log_p)
    # c^(1-2s) h where |x| < c or the row's minimum lies in the integral
    outer, flip = ax >= c, x < 0.0
    c_pow = np.zeros(len(x), complex)
    c_pow[~outer | flip] = np.exp((1.0 - 2.0 * s) * np.log(c[~outer | flip])) * half_line
    # |x| P^-s times the series, over (2s - 1) where |x| >= c
    pref = ax * np.exp(-s * log_p)
    pref[outer] /= 2.0 * s - 1.0
    scale = rows.weight * np.abs(pref)
    series, series_mass, rest = np.empty(len(x), complex), np.empty(len(x)), 0.0
    for part, beta, z in ((outer, s + 0.5, c * c), (~outer, 1.5, x * x)):
        series[part], series_mass[part], part_rest = _gauss_series(s, beta, z[part] * inv_p[part], scale[part], target)
        rest += part_rest
    integral = pref * series
    integral[~outer] = 0.5 * c_pow[~outer] - integral[~outer]
    integral[flip] = c_pow[flip] - integral[flip]
    return integral, np.abs(pref) * series_mass + np.abs(c_pow) * (~outer | flip), rest


@cache
def _legendre(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The p-point Gauss-Legendre rule on [-1, 1]: nodes and weights."""
    return np.polynomial.legendre.leggauss(p)


def _twisted_integrals(rows: _QuadRows, s: complex, q_list, target: float):
    """The row integrals of the twisted sums on the identity form's rows,
    for each q of ``q_list`` (multiples of 4): row n's tail and row -n's
    together are twisted by cos(q theta), so row n >= 0 takes
    I_n = int_(a_n)^inf cos(q theta) (y^2 + n^2)^-s dy, theta = arctan(n / y).
    Returned as the arrays I and |I|, one row per q, and a bound on the
    truncation and rounding of each sum over the rows of I (weighted by
    ``rows.weight``), at most ``target`` where it can be.

    With y = n cot t, I_n = n^(1-2s) G(psi_n) for psi_n = arctan(n / a_n)
    and G(psi) = int_0^psi cos(q t) sin^(2s-2) t dt, one G for every row:

    - Where z = n / a_n <= z_c = 1 / max(q, 8), the series
      I_n = a_n^(1-2s) sum_(k even) c_k z^k / (2s - 1 + k) of the Taylor
      coefficients c_k of (1 + i z)^(q/2 - s) (1 - i z)^(-q/2 - s) (the even
      ones: the odd cancel between e^(i q theta) and e^(-i q theta)),
      c_(k+1) = [i q c_k - (2s + k - 1) c_(k-1)] / (k + 1).  On |z| = r < 1
      that function is at most M_r = ((1 + r) / (1 - r))^(q/2)
      (1 - r^2)^-sigma e^(2 |tau| arcsin r), so by Cauchy's estimate the
      terms from K on add at most M_r (z / r)^K / ((1 - z / r)
      (2 sigma - 1 + K)); r from ``_RADII`` z_c, K the first of
      ``_TWIST_TERMS`` that meets the target.  As z q <= 1 the terms
      cancel by at most about e.
    - Above, G(psi) = G(psi_c) + int_(psi_c)^psi, psi_c = arctan z_c, with
      G(psi_c) from the series at z = z_c and the integral by p-point
      Gauss-Legendre panels between the rows' psi and a grid of step psi_c,
      so that each panel [alpha, beta] has beta <= 2 alpha and
      q (beta - alpha) <= 1.  On the Bernstein ellipse of parameter rho
      about a panel (centre c, half-width h, half-axes A, B), clear of the
      zeros 0 and pi of sin, |cos q t| <= e^(q B),
      |sin t|^2 <= sin^2 min(c + A, pi/2) + sinh^2 B and
      |arg sin t| <= arctan(B max(1 / (c - A), 1 / (pi - c - A))), so the
      rule errs by at most (64/15) h M rho^-2p / (rho^2 - 1) for their
      product M (Trefethen, *Approximation Theory and Approximation
      Practice*, Thm 19.3); A a share of ``_THETAS`` of the distance to 0
      or pi, p the first of ``_GAUSS_POINTS`` that meets the target.  The
      panels are summed cumulatively in psi, and a row is charged its
      position in that sum in ulps of the running moduli.

    The bounds take the largest q for every q of the list, which share the
    panels."""
    sigma, tau = s.real, abs(s.imag)
    n, a, w = rows.c, rows.x, rows.weight
    k_max = 0.5 * max(q_list)
    zc = 1.0 / max(2.0 * k_max, 8.0)
    z = n / a
    near = z <= zc
    far = np.flatnonzero(~near)  # ascending psi
    log_n = np.log(n[far])
    far_scale = w[far] * np.exp((1.0 - 2.0 * sigma) * log_n)
    # the series at the rows below z_c and at z_c (a = 1 / z_c), each point
    # weighted by the rows whose sums it enters
    zz = np.append(z[near], zc) ** 2
    log_a = np.log(np.append(a[near], 1.0 / zc))
    scale = np.exp((1.0 - 2.0 * sigma) * log_a)
    spread = np.append(w[near], np.sum(far_scale)) * scale
    r = zc * _RADII
    log_m = k_max * np.log((1.0 + r) / (1.0 - r)) - sigma * np.log1p(-r * r) + 2.0 * tau * np.arcsin(r)
    ratio = np.sqrt(zz)[:, None] / r
    for terms in _TWIST_TERMS:
        trunc = (float(np.min(np.exp(log_m) * np.einsum("i,ij->j", spread, ratio**terms / (1.0 - ratio))))
                 / (2.0 * sigma - 1.0 + terms))
        if trunc <= target:
            break
    kappa = 0.5 * np.array(q_list, float)
    coef = np.empty((terms, len(kappa)), complex)
    major = np.empty(terms)
    coef[0], major[0] = 1.0, 1.0
    coef[1], major[1] = 2j * kappa, 2.0 * k_max
    for k in range(1, terms - 1):
        coef[k + 1] = (2j * kappa * coef[k] - (2.0 * s + k - 1.0) * coef[k - 1]) / (k + 1)
        major[k + 1] = (2.0 * k_max * major[k] + abs(2.0 * s + k - 1.0) * major[k - 1]) / (k + 1)
    div = 2.0 * s - 1.0 + np.arange(0, terms, 2)
    coef, major = coef[::2] / div[:, None], major[::2] / np.abs(div)
    series = np.empty((len(kappa), len(zz)), complex)
    series[:] = coef[-1][:, None]
    series_mass = np.full(len(zz), major[-1])
    for k in range(len(div) - 2, -1, -1):
        series *= zz
        series += coef[k][:, None]
        series_mass *= zz
        series_mass += major[k]
    series *= np.exp((1.0 - 2.0 * s) * log_a)
    series_mass *= scale
    # the coefficients within 6 k ulps of their majorants, Horner, a^(1-2s)
    series_err = (8.0 * terms + 16.0 + 2.0 * abs(1.0 - 2.0 * s) * (np.abs(log_a) + 1.0)) * _EPS * series_mass
    rest = trunc + float(np.sum(spread * (series_err / scale)))

    # the panels above psi_c
    psi_c = math.atan(zc)
    psi = np.arctan2(n[far], a[far])
    top_psi = float(psi[-1]) if len(far) else psi_c
    ends = np.unique(np.concatenate([[psi_c], psi_c * np.arange(2, int(top_psi / psi_c) + 1), psi]))
    at = np.searchsorted(ends, psi)
    centre, half = 0.5 * (ends[1:] + ends[:-1]), 0.5 * (ends[1:] - ends[:-1])
    # one row per share theta
    ratio = np.maximum(np.array(_THETAS)[:, None] * (np.minimum(centre, math.pi - centre) / half), 1.0 + 1e-6)
    rho = ratio + np.sqrt(ratio * ratio - 1.0)
    big_a, big_b = half * (0.5 * (rho + 1.0 / rho)), half * (0.5 * (rho - 1.0 / rho))
    u_lo, u_hi = centre - big_a, centre + big_a
    log_err = (math.log(64.0 / 15.0) + np.log(half) - np.log(rho * rho - 1.0) + 2.0 * k_max * big_b
               + (sigma - 1.0) * np.log(np.sin(np.minimum(u_hi, 0.5 * math.pi)) ** 2 + np.sinh(big_b) ** 2)
               + 2.0 * tau * np.arctan(big_b * np.maximum(1.0 / u_lo, 1.0 / (math.pi - u_hi))))
    log_rho = np.log(rho)
    for points in _GAUSS_POINTS:
        err = np.exp(np.minimum(np.min(log_err - 2.0 * points * log_rho, axis=0), 700.0))
        quad = float(np.sum(far_scale * np.concatenate([[0.0], np.cumsum(err)])[at]))
        if quad <= target:
            break
    t, weights = _legendre(points)
    nodes = centre[:, None] + half[:, None] * t
    log_sin = np.log(np.sin(nodes))
    values = _powers(log_sin, 2.0 - 2.0 * s) * (half[:, None] * weights)
    # per row: the moduli of G's parts, and the ulps of each node's value
    # (node, sin, log, the power and the twist's q / 4 steps) and of the sums
    moduli = float(series_mass[-1]) + np.concatenate([[0.0], np.cumsum(np.sum(np.abs(values), axis=1))])[at]
    ulps = (32.0 + 16.0 * k_max + abs(2.0 * s - 2.0) * (3.0 * float(np.max(np.abs(log_sin), initial=0.0)) + 6.0)
            + points + 2.0 * (2.0 * sigma - 1.0) + 2.0 * abs(1.0 - 2.0 * s) * (np.abs(log_n) + 2.0) + at)
    rest += quad + float(np.sum(far_scale * (ulps * _EPS * moduli)))
    g = np.empty((len(kappa), len(ends)), complex)
    g[:, 0] = series[:, -1]
    np.cumsum(_real_products(np.cos(np.multiply.outer(2.0 * kappa, nodes)), values, "qpk,pk->qp"), axis=1,
              out=g[:, 1:])
    g[:, 1:] += g[:, :1]
    integrals = np.empty((len(kappa), len(n)), complex)
    integrals[:, near] = series[:, :-1]
    integrals[:, far] = np.exp((1.0 - 2.0 * s) * log_n) * g[:, at]
    return integrals, np.abs(integrals), np.full(len(kappa), rest)


def _real_products(real: np.ndarray, values: np.ndarray, spec: str = "ql,ln->qn") -> np.ndarray:
    """``np.einsum(spec, real, values)`` for a real array and a complex
    one, as two real sums (the same products and order, half the work); an
    einsum, not a matrix product, which numpy hands to a threaded BLAS."""
    return np.einsum(spec, real, values.real) + 1j * np.einsum(spec, real, values.imag)


def _row_tails(rows: _QuadRows, s: complex, p: int, half_line: complex, target: float, q=0,
               integrals=None) -> tuple:
    """2 sum_n sum_(m >= a_n) Q(m, n)^-s over the rows |n| <= top (the left
    tail of row n is the right tail of row -n), and a bound on its series
    truncation and rounding.  Row n's tail is, by Euler-Maclaurin,
    u11^-s [int_x^inf f + f(x) (1/2 - sum_(j <= p) B_2j / (2j) g_(2j-1))]
    for f(y) = (y^2 + c^2)^-s (``_row_integrals``), with g_k the Taylor
    coefficients of f(x + h) / f(x), c1 = 2x/P, c2 = 1/P, by Miller's
    recurrence g_k = -[c1 (k - 1 + s) g_(k-1) + c2 (k - 2 + 2s) g_(k-2)] / k.

    Twisted by e^(i q theta) on the identity form's rows (an array ``q`` of
    twists, the integrals from ``_twisted_integrals``, one tail and bound
    per q), f(y) = (y + i n)^(k - s) (y - i n)^(-k - s), k = q/2, whose
    recurrence gains -2 i k n c2 g_(k-1) / k: g_k is a polynomial in k,
    run as the array of its coefficients, and rows n and -n (k and -k)
    together take f(x) (1/2 - sum ...) with its even part (in k) times
    cos(q theta) and its odd part times i sin(q theta).

    The rounding is charged relative to the moduli of every part, the
    recurrence's through its majorant
    G_k = [(|c1| |k - 1 + s| + 2 k_max n c2) G_(k-1) + c2 |k - 2 + 2s| G_(k-2)] / k."""
    x, c, log_p, w = rows.x, rows.c, rows.log_p, rows.weight
    norm = 2.0 * rows.u11 ** -s.real
    twisted = np.ndim(q) > 0
    if twisted:
        integral, mass, rest = integrals
    else:
        integral, mass, rest = _row_integrals(rows, s, half_line, target / norm)
    p_s = np.exp(-s * log_p)
    c2 = np.exp(-log_p)
    c1 = 2.0 * x * c2
    # coefficient l (of k^l) in row l; one row where untwisted
    size = 2 * p if twisted else 1
    g2, g1 = np.zeros((size, len(x)), complex), np.zeros((size, len(x)), complex)
    g2[0], g1[0] = np.ones_like(p_s), -s * c1
    m2, m1 = np.ones_like(c1), abs(s) * np.abs(c1)
    if twisted:
        twist, k_max = -2j * c * c2, 0.5 * float(np.max(q))
        g1[1] = twist
        m1 = m1 + k_max * np.abs(twist)
    corr, corr_mass = _BERNOULLI[1] * g1, abs(_BERNOULLI[1]) * m1
    for k in range(2, 2 * p):
        lead, lead_mass = c1 * (k - 1 + s), np.abs(c1) * abs(k - 1 + s)
        new = np.zeros_like(g1)
        low = new[:k + 1]  # g_k has degree k in q/2
        np.negative(lead * g1[:k + 1] + c2 * (k - 2 + 2.0 * s) * g2[:k + 1], out=low)
        if twisted:
            low[1:] += twist * g1[:k]
            lead_mass = lead_mass + k_max * np.abs(twist)
        g2, g1 = g1, new / k
        m2, m1 = m1, (lead_mass * m1 + c2 * abs(k - 2 + 2.0 * s) * m2) / k
        if k % 2:
            corr[:k + 1] += _BERNOULLI[(k + 1) // 2] * math.factorial(k) * g1[:k + 1]
            corr_mass += abs(_BERNOULLI[(k + 1) // 2]) * math.factorial(k) * m1
    log_c = float(np.max(np.abs(np.log(c[c > 0.0])))) if np.any(c > 0.0) else 0.0
    kappa = (64.0 + 8.0 * _SERIES_TERMS + 16.0 * p + 2.0 * _special_ulps(s)
             + abs(s) * (2.0 * float(np.max(np.abs(log_p))) + 16.0 * rows.skew + 32.0)
             + 2.0 * abs(2.0 * s - 1.0) * log_c)
    scale = 2.0 * cmath.exp(-s * math.log(rows.u11))
    if not twisted:
        total = np.sum(w * (integral + p_s * (0.5 - corr[0])))
        mass = float(np.sum(w * (mass + np.abs(p_s) * (0.5 + corr_mass))))
        return scale * complex(total), norm * (rest + kappa * _EPS * mass)
    # the even and the odd coefficients at each k = q/2
    k_powers = (0.5 * np.asarray(q, float)[:, None]) ** np.arange(size)
    even, odd = _real_products(k_powers[:, 0::2], corr[0::2]), _real_products(k_powers[:, 1::2], corr[1::2])
    phase = np.multiply.outer(np.asarray(q, float), np.arctan2(c, x))
    total = np.sum(w * (integral + p_s * (np.cos(phase) * (0.5 - even) - 1j * np.sin(phase) * odd)), axis=1)
    mass = np.sum(w * mass, axis=1) + float(np.sum(w * np.abs(p_s) * (0.5 + corr_mass)))
    # a twist's phase q theta adds 8 |q|
    return scale * total, norm * (rest + (kappa + 8.0 * np.abs(q)) * _EPS * mass)


def _row_tail_sums(rows: _QuadRows, pairs, masses, budgets, continued, every: bool = False
                   ) -> dict[int, tuple[complex, float, int]]:
    """The disc sums S_R = Z - (row tails) - (full rows) of the pairs (s, q)
    of ``pairs`` (q = 0, or q = 0 mod 4 on the identity form's rows: the
    sums twisted by e^(i q theta)) whose route adds at most their
    ``budgets`` (the walk's bars) to the disc tail and the times' rounding:
    index -> (value, added bar, Euler-Maclaurin corrections); every pair or
    none where ``every``.  ``continued(pairs)`` gives the continued value Z
    and its bar for each pair it is handed.  The added bar holds the
    continued bar, the Euler-Maclaurin remainders, the series and
    quadrature truncation, the neglected Bessel terms, and the rounding of
    the O(R) sums and of the reduced form (relative to Q at most cond / 2
    ulps, so |s| cond ulps of ``masses``, the bounds on the sums of the
    terms' moduli, doubled).  The remainders and the series aim at an ulp
    of ``masses``; the pairs of one s share their Euler-Maclaurin
    corrections and one batch of twisted integrals.  The bounds that need
    no continued value are checked before it is computed, and where
    ``every``, the continued bars before any row is summed; a pair with |s|
    or |s + q/2| beyond ``_S_MAX`` walks."""
    groups: dict = {}
    for i, (s, _) in enumerate(pairs):
        groups.setdefault(s, []).append(i)
    plans = {}
    for s, group in groups.items():
        qs = [pairs[i][1] for i in group]
        targets = [_EPS * masses[i] for i in group]
        cond = 2.0 * abs(s) * rows.reduced.condition_number()
        tried = []
        for p in _EM_TERMS:
            tried.append((_em_remainder(rows, s, p, qs), p))
            if all(b <= t for b, t in zip(tried[-1][0], targets)):
                break
        bounds, p = min(tried, key=lambda t: max(t[0]))
        for i, q, bessel, bound, target in zip(group, qs, _bessel_bound(rows, s, qs), bounds, targets):
            fixed = bessel + cond * target
            # an infinite bar is the walk's to report
            if abs(s) <= _S_MAX and abs(s + 0.5 * q) <= _S_MAX and fixed + bound <= budgets[i] < math.inf:
                plans[i] = (p, fixed + bound)
    if not plans or every and len(plans) < len(pairs):
        return {}
    order = sorted(plans)
    try:
        conts = dict(zip(order, continued([pairs[i] for i in order])))
    except NumericError:  # s within 1e-8 of the pole, a stalled fraction: the walk serves them
        return {}
    if every and any(plans[i][1] + conts[i][1] > budgets[i] for i in order):
        return {}
    out = {}
    for s, group in groups.items():
        group = [i for i in group if i in plans and plans[i][1] + conts[i][1] <= budgets[i]]
        if not group:
            continue
        p = plans[group[0]][0]
        target = _EPS * masses[group[0]]
        hurwitz = _hurwitz(2.0 * s - 1.0, 1, (rows.top + 1,))
        tails = {}
        twisted = sorted({pairs[i][1] for i in group}) if any(pairs[i][1] for i in group) else []
        if twisted:
            integrals = _twisted_integrals(rows, s, twisted, target / 2.0)
            values, bars = _row_tails(rows, s, p, 0j, target, np.array(twisted), integrals)
            tails = dict(zip(twisted, zip(values, bars)))
        for i in group:
            q = pairs[i][1]
            line = _row_line(s, q)
            tail, tail_err = tails[q] if twisted else _row_tails(rows, s, p, line[0], target)
            full, full_err = _full_rows(rows, s, line, hurwitz)
            cont, cont_err = conts[i]
            added = plans[i][1] + cont_err + tail_err + full_err + 4.0 * _EPS * (abs(cont) + abs(tail) + abs(full))
            if added <= budgets[i]:
                out[i] = (cont - tail - full, added, p)
    if every and len(out) < len(pairs):
        return {}
    return out


def _twisted_continued(pairs) -> list[tuple[complex, float]]:
    """The twisted components of the pairs (s, q) by one harmonic theta
    split of the identity form (the Epstein value for q = 0), with bars."""
    lams, _ = _theta_split(QuadForm2.identity(), 1.0, pairs)
    return [_uncomplete(lam, err, s + q / 2.0) for (s, q), (lam, err) in zip(pairs, lams)]


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
        + _rounding(s, float(np.sum(np.exp(log_t * (-2.0 * s.real)) * a)), log_max, ulps),
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


def _check_q(q) -> int:
    """q as an int, rejected unless it is an integer whose twist phase
    |q theta| <= |q| pi stays within ``_PHASE_MAX`` (compared exactly, so a
    q beyond the floats is rejected too)."""
    if q != int(q):
        raise ValidationError("q must be an integer")
    q = int(q)
    if not abs(q) <= _PHASE_MAX / math.pi:
        raise ValidationError(f"|q| must stay below {_PHASE_MAX / math.pi:.4g}, the twist's phase range")
    return q


def _rotate(value: complex, bar: float, q: int, g_rotation: float) -> tuple[complex, float]:
    """A weight-q component rotated by k_phi, phi = ``g_rotation``, and its
    bar.  The disc |p| <= R is rotation-invariant, so the rotation
    multiplies the component by the character e^(i q phi).  phi is first
    reduced by 2 pi (an exact remainder), which keeps the argument finite.
    The argument is then off by at most 1.7 |q phi| 2^-53: q times the
    multiples of 2 pi - fl(2 pi) the reduction drops (0.7 |q phi| 2^-53)
    and the product's rounding.  exp and the product add a few ulps, so the
    bar adds (|q phi| + 8) 2^-52 |value|.  Unrotated, the inputs come back
    unchanged."""
    if g_rotation == 0.0:
        return value, bar
    turn = q * math.remainder(g_rotation, 2.0 * math.pi)
    return value * cmath.exp(1j * turn), bar + (abs(q * g_rotation) + 8.0) * _EPS * abs(value)


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

    The disc is rotation-invariant, so the rotated sum is e^{i q g_rotation}
    times the unrotated one T_q (``_rotate``); every rotation takes T_q's
    route.  Components with q not divisible by 4 vanish identically,
    whatever the rotation: the quarter turn maps the disc and Z^2 onto
    themselves and multiplies the sum by i^q != 1.  They are the exact 0
    with error estimate 0, after the same validation, and walk nothing.
    For q = 0 mod 4, T_q walks the D4 octant with ``reconstruct_hlawka``'s
    walk (``_twisted_sums_truncated``), since |p|^(-2s) is D4-invariant and
    so is e^{i q theta}: the twist is |orbit| cos(q theta) (the sines cancel
    over the orbit), and T_q = T_|q| by the reflection n -> -n.

    Where that walk would visit more than ``_WALK_POINTS`` points it takes
    the row tails of ``hlawka_direct_many`` for the identity form instead
    (``_twisted_truncated``, the route ``reconstruct_hlawka`` takes too),
    twisted: T_q(R) = E_q(s) - 2 sum_(n <= N) (weighted row tails beyond
    a_n) - (full rows |n| > N), with E_q from ``eisenstein_fq_continued``'s
    harmonic theta split, each row's tail by Euler-Maclaurin
    (``_row_tails``) with its integral from ``_twisted_integrals``, and the
    full rows the Poisson k = 0 term
    2 pi (2 |n|)^(1-2s) Gamma(2s - 1) / (Gamma(s - q/2) Gamma(s + q/2)) each
    (``_row_line``), summed as a Hurwitz zeta.  As the disc is symmetric
    under n -> -n, rows n and -n together are twisted by cos(q theta).  The
    bar is the disc tail plus the continued bar and the bounds of
    ``_row_tail_sums``; the route is taken only where these add at most the
    walk's own bar, else the sum walks.  ``truncation`` records
    ``"route"``: ``"row-tails"`` (with ``rows`` and ``em_terms``) or
    ``"walk"``.
    """
    q = _check_q(q)
    if not math.isfinite(g_rotation):
        raise ValidationError(f"rotation must be finite, got {g_rotation}")
    s = _require_convergent(s)
    _check_radius(radius)
    _check_phase(s, 2.0 * math.log(radius))
    trunc = {"radius": radius, "q": q, "rotation": g_rotation}
    if q % 4 != 0:
        return EvalResult(value=0j, error_estimate=0.0, truncation={**trunc, "vanishes_identically": True})
    sums, bars, route = _twisted_truncated(s, [abs(q)], radius, threads)
    value, bar = _rotate(sums[abs(q)], bars[abs(q)], q, g_rotation)
    return EvalResult(value=value, error_estimate=bar, truncation={**trunc, **route})


# ---------------------------------------------------------------------------
# Continuations via incomplete-gamma splitting
# ---------------------------------------------------------------------------

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


# the most products a harmonic takes one step at a time; beyond, one
# power.  A power for every gap costs a complex power a point: the walk of
# q = 0, 4, ..., 40 at R = 270 took 3.8 ms against 2.2 ms by products
# (in-process, best of 7), and single-q sums moved their last bits
_HARMONIC_STEPS = 16


def _harmonics(step: np.ndarray, q_list, phase: np.ndarray):
    """``phase`` set to step^(q/4) for each q of ``q_list`` (ascending
    multiples of 4) in turn: the K-finite harmonics (m + i n)^q for step
    (m + i n)^4, e^(i q theta) for step e^(4 i theta).  The same array is
    yielded each time, overwritten by the next q."""
    phase.fill(1.0)
    done = 0
    for q in q_list:
        gap = (q - done) // 4
        if gap > _HARMONIC_STEPS:  # exp(gap log step): |q theta| 2^-53 more, within the twist's 4 |q| ulps
            phase *= step**gap
        else:
            for _ in range(gap):
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
    per term) plus the cutoff tail, plus what an incomplete gamma's
    recursion cancels beyond that (``_gamma_recurrence``): near an integer
    s >= 2 (or s <= -1) it is most of the bar.
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
        # plus what the recursions of either incomplete gamma may cancel
        x, w_abs = xs[:k], weights[q][1][:k]
        recurrence = _gamma_recurrence(sp, x, w_abs) + _gamma_recurrence(q + 1.0 - sp, x, w_abs)
        out.append((lam, kappa * _EPS * mass + tail + recurrence))
    rings = int(max(np.max(np.abs(m)), np.max(n)))
    return out, {"rings": rings, "points": 2 * len(m)}


def _gamma_recurrence(a: complex, x: np.ndarray, w: np.ndarray) -> float:
    """Bound on the rounding of sum w X^(-a) Gamma(a, X) over the X of
    ``x`` (ascending, with weights ``w`` >= 0) that the continuation's
    kappa does not charge: where Re a <= 1/2 and X < max(|a|, 1)
    ``special.upper_incomplete_gamma`` recurses down m = ceil(1/2 - Re a) + 1
    steps, Gamma(d, X) = (Gamma(d + 1, X) - X^d e^-X) / d for
    d = a + m - 1, ..., a, from the anchor Gamma(b) - gamma(b, X), b = a + m
    (E_1(X) where a is within 1e-12 of -m).  Carried down, an error of the
    anchor is divided by |prod d| = |Gamma(b) / Gamma(a)|: near a
    nonpositive integer a the anchor cancels by about 1 / dist(a, -k),
    which a few dozen ulps of the terms do not see.

    The anchor is charged ``_special_ulps(b)`` of |Gamma(b)| and
    8 X + 260 + |b| |log X| ulps of its series' mass
    X^(Re b) e^-X sum_k X^k / |b (b + 1) ... (b + k)|, which also bounds
    |gamma(b, X)|: as |b + k| >= Re b + k it is at most
    gamma(Re b, X) <= min(Gamma(Re b), X^(Re b) / Re b), and as
    |b + k| >= |Im b| at most X^(Re b) e^-X / (|Im b| - X) where
    X < |Im b|; E_1 64 ulps of its series' mass 0.58 + |log X| + e^X.
    Each step adds (4 + |d| |log X| + X) ulps of |Gamma(d + 1, X)| +
    |X^d e^-X|, then divides by |d|, where |Gamma(d + 1, X)| is carried
    down the same recurrence from |Gamma(b)| plus the series' mass (from
    e^-X log(1 + 1/X) >= E_1(X) at a pole), and is at most
    X^(Re d) e^-X where Re d <= 0.  Within 1e-12 of a pole, where the
    function takes Gamma(-m, X) for Gamma(a, X), that difference is charged
    too.  Summed with the weights and doubled.  Against mpmath, for 1500
    random a with Re a in [-12, 1/2] (near the poles too) and X below
    max(|a|, 1), each X's share before the doubling exceeds its error by a
    factor of at least 1.2 (median 30).  A few X at a time, so it runs on
    Python floats."""
    if a.real > 0.5:
        return 0.0
    count = int(np.searchsorted(x, max(abs(a), 1.0) * (1.0 + 1e-9)))
    if count == 0:
        return 0.0
    top = round(a.real)
    pole = abs(a.imag) <= 1e-12 and abs(a.real - top) <= 1e-12
    if pole:
        m, base = -top, complex(top)
    else:
        m = math.ceil(0.5 - a.real) + 1
        base, b = a, a + m
        whole, anchor = abs(gamma(b)), _special_ulps(b) * abs(gamma(b))
        # gamma(Re b, X) <= Gamma(Re b), the series' bound where |Im b| is small
        gamma_re = math.gamma(b.real)
    steps = [(d.real, abs(d)) for d in (base + j for j in range(m - 1, -1, -1))]
    total = 0.0
    for big_x, weight in zip(x[:count].tolist(), w[:count].tolist()):
        log_x = math.log(big_x)
        abs_log = abs(log_x)
        if pole:
            err = 64.0 * (0.58 + abs_log + math.exp(big_x))
            size = math.exp(-big_x) * math.log1p(1.0 / big_x)
        else:
            power = _bound(b.real * log_x)
            mass = min(gamma_re, power / b.real)
            if big_x < abs(b.imag):
                mass = min(mass, power * math.exp(-big_x) / (abs(b.imag) - big_x))
            err = anchor + (8.0 * big_x + 260.0 + abs(b) * abs_log) * mass
            size = whole + mass
        for d_re, d_abs in steps:  # m <= |a| + 2 steps
            pre = _bound(d_re * log_x - big_x)
            err = (err + (4.0 + d_abs * abs_log + big_x) * (size + pre)) / d_abs
            size = (size + pre) / d_abs
            if d_re <= 1.0:  # Gamma(d, X) <= X^(Re d - 1) e^-X
                size = min(size, pre / big_x)
        if pole:  # a - base moves Gamma(a, X) by at most
            # |a - base| int_X^inf t^(Re a - 1) |log t| e^-t dt <= |a - base| X^(Re a - 1) e^-X (|log X| + X)
            err += abs(a - base) / _EPS * _bound((a.real - 1.0) * log_x - big_x) * (abs_log + big_x)
        total += weight * _bound(-a.real * log_x) * err
    return 2.0 * _EPS * total


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


def eisenstein_fq_continued(q: int, s: complex, g_rotation: float = 0.0) -> EvalResult:
    """Entire continuation of the q-twisted component, q >= 4, q = 0 mod 4,
    rotated by ``g_rotation`` as in ``eisenstein_fq_truncated`` (``_rotate``);
    for q not divisible by 4 the component vanishes identically, and the
    exact 0 with error estimate 0 is returned.

    With P(x) = (m + i n)^q (harmonic of degree q) and s' = s + q/2,

        Lambda_P(s') = sum over x != 0 of P(x) [ (pi |x|^2)^(-s') Gamma(s', pi |x|^2)
                          + (pi |x|^2)^(s'-q-1) Gamma(q+1-s', pi |x|^2) ]

    and the component equals pi^(s') Lambda_P(s') / Gamma(s').  P(0) = 0, so
    there are no polar terms and the result is entire in s.  (For q = 0 use
    ``epstein_continued`` on the identity form.)  Summed over the cut disc
    and bounded as in ``epstein_lambda``.
    """
    q = _check_q(q)
    if not math.isfinite(g_rotation):
        raise ValidationError(f"rotation must be finite, got {g_rotation}")
    s = complex(s)
    if not abs(s + q / 2.0) <= _S_MAX:
        raise ValidationError(f"|s + q/2| = {abs(s + q / 2.0):g} exceeds {_S_MAX:g}, the continuation's domain")
    if q % 4 != 0:
        return EvalResult(value=0j, error_estimate=0.0, truncation={"q": q, "vanishes_identically": True})
    if q < 4:
        raise ValidationError("continuation implemented for q >= 4 with q = 0 mod 4")
    [(lam, err)], trunc = _theta_split(QuadForm2.identity(), 1.0, [(s, q)])
    value, err = _rotate(*_uncomplete(lam, err, s + q / 2.0), q, g_rotation)
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


def _twisted_truncated(
    s: complex, q_list: list[int], radius: float, threads: int | None
) -> tuple[dict[int, complex], dict[int, float], dict]:
    """T_q = sum e^{i q theta(p)} |p|^(-2s) over the disc for q in q_list
    (ascending multiples of 4), their bars and the ``truncation`` entries
    of their route: the row tails of the identity form where the walk
    would visit more than ``_WALK_POINTS`` points and they serve every q
    (``_row_tail_sums``), else the walk (``_twisted_sums_truncated``)."""
    tail, mass = _disc_tail(2.0 * math.pi, s.real, radius), _lattice_mass(s.real)
    bars = [tail + _rounding(s, mass, 2.0 * math.log(radius), 0.0, q) for q in q_list]
    if not _walks_few(radius, Symmetry.D4):
        _lattice.resolve_threads(threads)
        rows = _twisted_rows(s, q_list, radius, bars)
        if rows is not None:
            sums, added, route = rows
            return sums, {q: tail + added[q] for q in q_list}, route
    return _twisted_sums_truncated(s, q_list, radius, threads), dict(zip(q_list, bars)), {"route": "walk"}


def _twisted_rows(s: complex, q_list: list[int], radius: float, budgets
                  ) -> tuple[dict[int, complex], dict[int, float], dict] | None:
    """T_q for every q of q_list by the row tails of the identity form
    (``_row_tail_sums``), their added bars (disc tail not included) and the
    route's ``truncation`` entries; None unless every q's bar adds at most
    its budget.  The remainders aim at an ulp of the lattice mass
    sum |p|^(-2 sigma), which bounds every |T_q|."""
    rows = _quadratic_rows(circle(), radius)
    if rows is None:
        return None
    sums = _row_tail_sums(rows, [(s, q) for q in q_list], [_lattice_mass(s.real)] * len(q_list), budgets,
                          _twisted_continued, every=True)
    if not sums:
        return None
    return ({q: sums[i][0] for i, q in enumerate(q_list)}, {q: sums[i][1] for i, q in enumerate(q_list)},
            {"route": "row-tails", "rows": len(rows.x), "em_terms": max(v[2] for v in sums.values())})


def _decomposition(table: "_fourier.FourierTable", q_list: list[int], sums: dict, bars: dict
                   ) -> tuple[complex, float]:
    """sum over q of q_list of w_q T_q, w_q = chat(q) + chat(-q) (chat(0)
    at q = 0), from the table's coefficients and the components ``sums``,
    and a bound on its error from the components' ``bars`` and the rounding
    of the n products and their sum, (n + 3) ulps of sum |w_q| |T_q|."""
    c = table.coefficients
    weights = [c[q] + c[-q] if q else c[0] for q in q_list]
    value = sum(w * sums[q] for w, q in zip(weights, q_list))
    moduli = sum(abs(w) * abs(sums[q]) for w, q in zip(weights, q_list))
    return value, sum(abs(w) * bars[q] for w, q in zip(weights, q_list)) + (len(q_list) + 3) * _EPS * moduli


def _coefficient_errors(table: "_fourier.FourierTable", q_list: list[int], moduli: list[float]) -> float:
    """A bound on sum over q of q_list of (|dchat(q)| + |dchat(-q)|) |T_q|
    (chat(0) once), |T_q| at most ``moduli``: each coefficient's aliasing
    times its |T_q|, and the rounding by Cauchy-Schwarz, ``table.rounding``
    times the 2-norm of the |T_q| over the coefficients."""
    e, rounding = table.errors, table.rounding
    alias = sum((e[q] - rounding + (e[-q] - rounding if q else 0.0)) * m for q, m in zip(q_list, moduli))
    return alias + rounding * math.sqrt(sum((2.0 if q else 1.0) * m * m for q, m in zip(q_list, moduli)))


def _fourier_route(shape: RadialShape, s: complex, radius: float, mass: float, budget: float
                   ) -> tuple[complex, float, dict] | None:
    """A cosine series' disc sum as the paper's decomposition
    sum_(q = 0 mod 4, |q| <= Q) chat(q) T_q(R), exact on Z^2 as
    t(p)^(-2s) = |p|^(-2s) r(theta)^(2s) and T_q = 0 for q != 0 mod 4:
    the value, its added bar and its ``truncation`` entries, or None where
    the bar would add more than ``budget``, where |s + Q/2| leaves the row
    tails' ``_S_MAX``, or where the walk visits at most ``_WALK_POINTS``
    points for every ``_ROUTE_TWISTS`` twists (both checked before any
    table is summed, so Q < 100 + 2 |s| sizes every table and batch).
    Q is the least of
    ``fourier.coefficient_cutoff`` whose tail, times the lattice mass
    L = sum |p|^(-2 sigma) (which bounds every |T_q(R)|), is at most an
    ulp of the walk's ``mass``; the coefficients come from one table of
    proven errors (``fourier.fourier_coeffs``), and every T_q from one batch
    of row tails (``_twisted_rows``), each budgeted all that the
    coefficients' errors and tail leave, divided by its |chat|.  The bar
    adds ``_decomposition``'s and (``_coefficient_errors`` + tail) L."""
    bounds = _fourier.strip_bounds(shape, s)
    lattice_mass = _lattice_mass(s.real)
    q_top, a, tail = _fourier.coefficient_cutoff(bounds, _EPS * mass / lattice_mass)
    # the row tails refuse |s + q/2| > _S_MAX, and |s + q/2| grows with q:
    # refused here, a thin series' Q (which grows like 1 / r_min) sizes no table
    if not abs(s + 0.5 * q_top) <= _S_MAX or _walks_few(radius, shape.symmetry, (q_top // 4 + 1) / _ROUTE_TWISTS):
        return None
    table = _fourier.fourier_coeffs(shape, s, q_top, bounds=bounds)
    c = table.coefficients
    q_list = list(range(0, q_top + 1, 4))
    coef_bar = (_coefficient_errors(table, q_list, [1.0] * len(q_list)) + tail) * lattice_mass
    spare = budget - coef_bar
    # each T_q may take what the others leave; the sum is checked below
    rows = _twisted_rows(s, q_list, radius, [spare / max(abs(c[q] + c[-q] if q else c[0]), 1e-300 * spare)
                                             for q in q_list]) if spare > 0.0 else None
    if rows is None:
        return None
    value, bar = _decomposition(table, q_list, *rows[:2])
    bar += coef_bar
    if not bar <= budget:
        return None
    return value, bar, {"route": "fourier", "q_max": q_top, "a": a}


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

    The truncated mode sums the T_q over the disc |p| <= radius: by one
    walk of the D4 octant for every q, or where that walk would visit more
    than ``_WALK_POINTS`` points by the row tails of
    ``eisenstein_fq_truncated`` for every q at once (one harmonic theta
    split, one batch of row integrals and Euler-Maclaurin corrections),
    taken only if every component's route adds at most its walk's bar.
    ``truncation`` records ``"route"`` (``"row-tails"`` with ``rows`` and
    ``em_terms``, the most corrections of any component, or ``"walk"``).

    A shape with a strip (``fourier.strip_bounds``: cosine series,
    ellipses, circles) sums only the components up to the bound's Q
    (``fourier.coefficient_cutoff``, at an ulp of |chat(0)|; Q = 0 for a
    circle), and at most q_max; ``truncation["q_used"]`` is the last.  The
    bar adds each component's bar times its coefficients, each coefficient's
    proven error times its component (the rounding by Cauchy-Schwarz,
    ``_coefficient_errors``), the rounding of the products, and the bound on
    the neglected coefficients times the lattice mass sum |p|^(-2 sigma),
    which bounds every |T_q| where Re s > 1; at Re s <= 1 the largest
    computed |T_q| stands in for it, an estimate.
    ``slow_coefficient_decay`` is set where q_max is below Q.  Any other
    shape takes the grid-doubling errors and models the neglected tail by
    the decay at q_max, with a warning where it has not decayed below
    1e-12 of chat(0).
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

    bounds = _fourier.strip_bounds(shape, s)
    table = _fourier.fourier_coeffs(shape, s, q_max, bounds=bounds)
    q_list = list(range(0, q_max + 1, 4))
    c = table.coefficients
    if bounds is not None:
        # the components beyond the bound's Q are not summed; their bound is charged
        q_cut, _, tail = _fourier.coefficient_cutoff(bounds, _EPS * abs(c[0]), q_max)
        q_list = [q for q in q_list if q <= q_cut]
        slow_decay = q_cut > q_max
    else:
        edge = max(abs(c.get(q_list[-1], 0.0)), abs(c.get(-q_list[-1], 0.0))) if q_list[-1] > 0 else 0.0
        slow_decay = abs(c[0]) > 0 and edge >= 1e-12 * abs(c[0])
        if slow_decay:
            warnings.warn(
                "Fourier coefficients of r^(2s) have not decayed below 1e-12 of the "
                "constant term at q_max; reconstruction tail may dominate (kinked shape?)",
                stacklevel=2,
            )

    trunc = {}
    if mode == "truncated":
        t_sums, t_errs, trunc = _twisted_truncated(s, q_list, radius, threads)
    else:
        comps = _twisted_continued([(s, q) for q in q_list])
        t_sums = {q: v for q, (v, _) in zip(q_list, comps)}
        t_errs = {q: e for q, (_, e) in zip(q_list, comps)}

    value, err = _decomposition(table, q_list, t_sums, t_errs)
    moduli = [abs(t_sums[q]) for q in q_list]
    err += _coefficient_errors(table, q_list, moduli)
    if bounds is not None:
        # every |T_q| is at most the lattice mass where Re s > 1; below, the
        # largest computed one stands in for it
        err += tail * (_lattice_mass(s.real) if s.real > 1.0 else max(moduli))
    elif q_list[-1] >= 8:
        # the neglected tail, modeled by the magnitude at the cutoff
        # continuing at the observed decay ratio, against components as
        # large as the largest computed one
        prev = max(abs(c.get(q_list[-1] - 4, 0.0)), 1e-300)
        ratio = min(edge / prev, 0.9) if prev > 0 else 0.0
        err += (2.0 * edge / (1.0 - ratio) if edge > 0 else 0.0) * max(moduli)
    else:
        err += 2.0 * edge * 10.0 * max(moduli)

    return EvalResult(
        value=value,
        error_estimate=err,
        truncation={
            "q_max": q_max,
            "mode": mode,
            "radius": radius if mode == "truncated" else None,
            "q_used": q_list[-1],
            "n_quad": table.n_quad,
            "slow_coefficient_decay": slow_decay,
            **trunc,
        },
    )
