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

All continuations share ``_theta_split``.  The form is first Gauss-reduced
(|2b| <= a <= c, exactly, in rational arithmetic) and scaled to determinant
one; the value is GL(2,Z)-invariant, and the reduced form's points of small
Q are the points near the origin.  The sum then runs over the cut ellipse
pi Q <= X, built row by row as one array on the half plane, with X set by the
Gaussian decay of the incomplete gammas; points of equal Q share one
evaluation.  ``error_estimate`` is a bound: rounding relative to the sum of
the terms' moduli plus the cut-off tail, divided by |pi^(-s) Gamma(s)| for
the uncompleted functions, so it grows with the cancellation of the
splitting at large |Im s|.

All direct sums share ``_disc_sums``: identical per-chunk reduction, merge in
chunk order with pairwise summation, so results are bit-identical across
thread counts.  Each sum walks a fundamental domain of the subgroup G of D4
under which its terms are invariant, decided from the kind and parameters,
and weights each point by its orbit size: all of D4 for the circle, the
square, cosine series in cos(4k theta), the identity and diagonal
u11 = u22 forms and twisted sums of q = 0 mod 4; the axis reflections for
axis-aligned ellipses, diagonal forms, even cosine series and q = 2 mod 4;
n -> -n for other cosine series and odd q; p -> -p for the rest of the
centrally symmetric terms.  An unrotated twisted sum's orbit sum is
|orbit| cos(q theta) |p|^(-2s).  G never holds the symmetry that cancels a
component (p -> -p for odd q, the quarter turn for q = 2 mod 4), so those
cancellations are still computed point by point.  ``error_estimate`` adds
to the tail a rounding bound relative to a closed-form bound on the sum of
the terms' moduli.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import PoleError, ValidationError
from .lattice import map_box_chunks, orbit_sizes
from .results import EvalResult
from .scratch import scratch
from .shapes import Mat2, RadialShape, Symmetry
from .special import dirichlet_beta, gamma, riemann_zeta, upper_incomplete_gamma
from . import fourier as _fourier
from . import lattice as _lattice

__all__ = [
    "QuadForm2",
    "hlawka_direct",
    "hlawka_direct_many",
    "hlawka_from_spectrum",
    "epstein_direct",
    "epstein_continued",
    "epstein_lambda",
    "eisenstein_fq_truncated",
    "eisenstein_fq_continued",
    "classical_eisenstein",
    "reconstruct_hlawka",
    "ellipse_form",
]

MAX_RADIUS = 20000.0

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


def _powers(log_x: np.ndarray, s: complex) -> np.ndarray:
    """e^(-s log_x) into a scratch array."""
    c = scratch("zeta.terms", len(log_x), complex)
    np.multiply(log_x, -s, out=c)
    return np.exp(c, out=c)


def _lattice_mass(sigma: float) -> float:
    """sum over p != 0 of |p|^(-2 sigma) = 4 zeta(sigma) beta(sigma), sigma > 1."""
    return 4.0 * (riemann_zeta(sigma) * dirichlet_beta(sigma)).real


def _rounding(s: complex, mass: float, log_max: float, ulps: float, q: int = 0) -> float:
    """Bound on the rounding of a direct sum of terms P(p) x(p)^(-s), with
    |P| = 1 (the twist of degree q), computed as e^(-s log x): ``mass``
    bounds the sum of their moduli, ``log_max`` bounds |log x| and ``ulps``
    the relative error of x.  Per term, the exponent is off by at most
    |s| (3 |log x| + ulps) ulps (log, product, argument reduction), the
    exponential and the orbit weight by 8 and the twist by 4 + 4|q|;
    pairwise summation within the chunks and across them adds 48."""
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
    if s.real <= 1.0:
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


def hlawka_direct_many(
    shape: RadialShape,
    s_values,
    radius: float,
    threads: int | None = None,
) -> list[EvalResult]:
    """Z_r at several s sharing one lattice enumeration.

    Z_r(s) = sum over 0 < |p| <= radius of r(theta(p))^(2s) / |p|^(2s)
           = sum of t(p)^(-2s).
    """
    s_list = [_require_convergent(s) for s in s_values]
    _check_radius(radius)

    def terms(m: np.ndarray, n: np.ndarray, orbit: np.ndarray):
        log_t2 = _lattice.dilation_times_block(shape, m, n, out=scratch("zeta.log", len(m)))
        np.log(log_t2, out=log_t2)
        log_t2 *= 2.0
        for sv in s_list:
            powers = _powers(log_t2, sv)
            powers *= orbit
            yield powers

    sums = _disc_sums(terms, radius, threads, shape.symmetry)
    # t^2 lies in [r_max^-2, (radius / r_min)^2] and is good to a few ulps
    # of r_max / r_min (the spread a rounding of the angle can cause)
    log_max = 2.0 * max(abs(math.log(shape.r_max)), abs(math.log(radius / shape.r_min)))
    ulps = 32.0 * shape.r_max / shape.r_min
    out = []
    for sv, total in zip(s_list, sums):
        sigma = sv.real
        tail = _disc_tail(2.0 * math.pi * shape.r_max ** (2.0 * sigma), sigma, radius)
        mass = shape.r_max ** (2.0 * sigma) * _lattice_mass(sigma)
        out.append(EvalResult(value=total, error_estimate=tail + _rounding(sv, mass, log_max, ulps),
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


def hlawka_from_spectrum(spec: "_lattice.Spectrum", s: complex) -> EvalResult:
    """Z_r(s) = sum a_k t_k^(-2s) over an already computed spectrum.

    Tail model: the lines beyond t_max are counted by A(t) ~ area * t^2, and
    the spectrum's own count A(t_max) = sum a_k estimates the area as
    A(t_max) / t_max^2.  The omitted terms then total about
    2 area t_max^(2 - 2 sigma) / (2 sigma - 2), inflated by the fluctuation
    margin of the disc sums (``_disc_tail``).  A spectrum with no line carries
    no area estimate and is rejected.
    """
    s = _require_convergent(s)
    if len(spec.t_values) == 0:
        raise ValidationError(f"spectrum up to t_max={spec.t_max:g} has no line")
    t = spec.t_values
    a = spec.counts
    value = complex(np.sum(a * np.exp(-2.0 * s * np.log(t))))
    tail = _disc_tail(2.0 * float(a.sum()) / spec.t_max**2, s.real, spec.t_max)
    return EvalResult(
        value=value,
        error_estimate=tail,
        truncation={"t_max": spec.t_max, "entries": len(t)},
    )


def epstein_direct(
    u: QuadForm2,
    s: complex,
    radius: float,
    threads: int | None = None,
) -> EvalResult:
    """sum over x != 0, |x| <= radius of (x^T u x)^(-s), Re(s) > 1."""
    s = _require_convergent(s)
    _check_radius(radius)

    if u.u12 != 0.0:
        symmetry = Symmetry.NEGATION
    else:
        symmetry = Symmetry.D4 if u.u11 == u.u22 else Symmetry.KLEIN

    def terms(m: np.ndarray, n: np.ndarray, orbit: np.ndarray):
        q, tmp = scratch("zeta.log", len(m)), scratch("zeta.tmp", len(m))
        np.multiply(m, m, out=q)
        q *= u.u11
        q += np.multiply(np.multiply(n, n, out=tmp), u.u22, out=tmp)
        if u.u12 != 0.0:
            q += np.multiply(np.multiply(m, n, out=tmp), 2.0 * u.u12, out=tmp)
        powers = _powers(np.log(q, out=q), s)
        powers *= orbit
        yield powers

    (total,) = _disc_sums(terms, radius, threads, symmetry)
    sigma = s.real
    # integral comparison: tail ~ R^(2-2s)/(2s-2) * angular integral of the form
    th = np.arange(512) * (2.0 * math.pi / 512)
    ang = float(np.mean(u.evaluate(np.cos(th), np.sin(th)) ** (-sigma))) * 2.0 * math.pi
    tail = _disc_tail(ang, sigma, radius)
    # x^T u x lies in [lam_min, lam_max radius^2]; cancellation in it costs
    # up to the condition number
    lo, hi = u.eigenvalues()
    log_max = max(abs(math.log(lo)), abs(math.log(hi * radius * radius)))
    rounding = _rounding(s, lo ** (-sigma) * _lattice_mass(sigma), log_max, 8.0 * hi / lo)
    return EvalResult(value=total, error_estimate=tail + rounding, truncation={"radius": radius})


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
    cancellation itself can be verified: unrotated, the walk folds by the
    reflections that keep e^{i q theta} real on each orbit (D4 for
    q = 0 mod 4, the axis reflections for q = 2 mod 4, n -> -n for odd q),
    and never by p -> -p for odd q or by the quarter turn for q = 2 mod 4;
    rotated, it folds only by p -> -p for even q.
    """
    if q != int(q):
        raise ValidationError("q must be an integer")
    q = int(q)
    s = _require_convergent(s)
    _check_radius(radius)
    cr, sr = math.cos(g_rotation), math.sin(g_rotation)
    if g_rotation == 0.0:
        symmetry = (Symmetry.D4, Symmetry.REFLECTION, Symmetry.KLEIN, Symmetry.REFLECTION)[q % 4]
    else:
        symmetry = Symmetry.TRIVIAL if q % 2 else Symmetry.NEGATION

    def terms(m: np.ndarray, n: np.ndarray, orbit: np.ndarray):
        k = len(m)
        log_n2 = _log_norms(m, n)
        angle = scratch("zeta.angle", k)
        if g_rotation == 0.0:
            # the orbit sum of e^{i q theta} is |orbit| cos(q theta)
            np.arctan2(n, m, out=angle)
            angle *= q
            np.cos(angle, out=angle)
            angle *= orbit
            powers = _powers(log_n2, s)
            powers *= angle
            yield powers
            return
        x, tmp = scratch("zeta.x", k), scratch("zeta.tmp", k)
        np.multiply(m, cr, out=x)
        x -= np.multiply(n, sr, out=tmp)
        np.multiply(m, sr, out=angle)
        angle += np.multiply(n, cr, out=tmp)
        np.arctan2(angle, x, out=angle)
        angle *= q
        c = scratch("zeta.terms", k, complex)
        np.multiply(log_n2, -s.real, out=c.real)
        np.multiply(log_n2, -s.imag, out=c.imag)
        c.imag += angle
        np.exp(c, out=c)
        c *= orbit
        yield c

    (total,) = _disc_sums(terms, radius, threads, symmetry)
    total *= _MINUS_I_POW[q % 4]
    tail = _disc_tail(2.0 * math.pi, s.real, radius) + _twisted_rounding(s, q, radius)
    trunc = {"radius": radius, "q": q, "rotation": g_rotation}
    if q % 4 != 0:
        trunc["vanishes_identically"] = True
    return EvalResult(value=total, error_estimate=tail, truncation=trunc)


def _twisted_rounding(s: complex, q: int, radius: float) -> float:
    """``_rounding`` of a q-twisted sum over |p| <= radius (|p|^2 is exact)."""
    return _rounding(s, _lattice_mass(s.real), 2.0 * math.log(radius), 0.0, q)


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

    x_ref = max(x_min, p, big_a + 1.0)
    target = _TAIL_SHARE * f(x_ref)
    x = x_ref + 36.0
    while True:
        r = 1.0 - p / x  # f decays at least like e^(-r x) beyond x
        root = math.sqrt(x)
        tail = f(x) * (1.0 + 1.0 / (x - big_a)) * (
            (x + 1.0) / r + 1.0 / r**2 + beta * (root / r + 0.5 / (root * r**2))
        )
        if tail <= target:
            return x, tail
        x += 1.0


def _theta_split(u: QuadForm2, det: float, s: complex, q_list) -> tuple[list, dict]:
    """Completed theta-splitting sums of the reduced form u, one enumeration
    for all of ``q_list``:

        Lambda_q = -[q = 0] (1/s' + 1/(q+1-s'))
            + sum over x != 0 of P(x) [X^(-s') Gamma(s', X) + X^(s'-q-1) Gamma(q+1-s', X)]

    with s' = s + q/2, X = pi Q(x) / sqrt(det) (the form scaled to
    determinant one, which is GL(2,Z)-equivalent to its inverse, so one
    point set serves both halves), P = 1 for q = 0 and (m + i n)^q otherwise
    (the identity form's twisted components; q > 0 needs the identity form,
    whose |P| = Q^(q/2) the tail bound assumes).  Points with equal Q share
    their incomplete gammas; Q and every P here are even, so the half plane
    is summed and doubled.

    Returns [(Lambda_q, error bound)] and the truncation record.  The bound
    is kappa 2^-52 times the sum of the terms' moduli (rounding, relative
    error kappa ulps per term) plus the cutoff tail.
    """
    root = math.sqrt(det)
    scale = math.pi / root
    beta = math.sqrt(math.pi * root / u.eigenvalues()[0])  # sqrt(pi / lambda_min(u / root))
    cuts = [_cutoff(s + q / 2.0, q, scale * u.u11, beta) for q in q_list]
    m, n, qv = _cut_ellipse(u, max(x for x, _ in cuts) / scale)
    qs, inv, counts = np.unique(qv, return_inverse=True, return_counts=True)
    xs = scale * qs
    logx = np.log(xs)
    harm = np.ones(len(m), complex)
    step = (m + 1j * n) ** 4
    done = 0
    out = []
    for q, (x_cut, tail) in zip(q_list, cuts):
        for _ in range((q - done) // 4):
            harm *= step
        done = q
        sp = s + q / 2.0
        k = int(np.searchsorted(xs, x_cut, side="right"))
        x, lx = xs[:k], logx[:k]
        t1 = np.exp(-sp * lx) * upper_incomplete_gamma(sp, x)
        t2 = np.exp((sp - q - 1.0) * lx) * upper_incomplete_gamma(q + 1.0 - sp, x)
        if q == 0:
            w = 2.0 * counts[:k]
            w_abs = w
            polar = -(1.0 / sp + 1.0 / (1.0 - sp))
        else:
            w = 2.0 * (np.bincount(inv, harm.real, len(xs)) + 1j * np.bincount(inv, harm.imag, len(xs)))[:k]
            w_abs = 2.0 * np.bincount(inv, np.abs(harm), len(xs))[:k]
            polar = 0.0
        lam = polar + complex(np.sum(w * (t1 + t2)))
        mass = abs(polar) + float(np.sum(w_abs * (np.abs(t1) + np.abs(t2))))
        # against mpmath the error stays below 43 ulps of the mass up to |s'| = 30
        kappa = 32.0 + 2.0 * (abs(sp) + abs(q + 1.0 - sp))
        out.append((lam, kappa * _EPS * mass + tail))
    rings = int(max(np.max(np.abs(m)), np.max(n)))
    return out, {"rings": rings, "points": 2 * len(m)}


def _special_ulps(s: complex) -> float:
    """Relative accuracy, in ulps, of pi^(-s) Gamma(s) and of riemann_zeta(s)
    (against mpmath up to |s| = 45: at most 0.75 of this)."""
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
    s = complex(s)
    if abs(s) < 1e-8 or abs(s - 1.0) < 1e-8:
        raise PoleError(f"Epstein zeta pole at s={s}")
    a, b, c = _gauss_reduce(u.u11, u.u12, u.u22)
    red = QuadForm2(float(a), float(b), float(c))
    if red.condition_number() > 1e8:
        raise ValidationError("quadratic form too ill-conditioned")
    det = float(a * c - b * b)  # exact, then rounded once
    [(lam, err)], trunc = _theta_split(red, det, s, [0])
    factor = cmath.exp(-0.5 * s * math.log(det))
    value = factor * lam
    ulps = 4.0 + abs(s) * abs(math.log(det))
    return EvalResult(
        value=value,
        error_estimate=abs(factor) * err + ulps * _EPS * abs(value),
        truncation={**trunc, "method": "incomplete-gamma splitting"},
    )


def epstein_continued(u: QuadForm2, s: complex) -> EvalResult:
    """Analytic continuation of the binary Epstein zeta to s not in {0, 1}.

    E(u, s) = Lambda(u, s) / (pi^(-s) Gamma(s)); at the poles of Gamma(s)
    the reciprocal vanishes and the trivial zero is returned exactly.  The
    error bound of Lambda is divided by |pi^(-s) Gamma(s)|, so it grows with
    the cancellation of the splitting at large |Im s|.
    """
    s = complex(s)
    lam = epstein_lambda(u, s)
    value, err = _uncomplete(lam.value, lam.error_estimate, s)
    return EvalResult(value=value, error_estimate=err, truncation=lam.truncation)


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
    [(lam, err)], trunc = _theta_split(QuadForm2.identity(), 1.0, s, [q])
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
    [ x/y, 1/y ]] in (m, n), so both modes delegate to the Epstein routines.
    The continued mode reduces y times that form, (|z|^2, x, 1), exactly
    before dividing by y: the same as mapping z into the fundamental domain.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValidationError("classical_eisenstein requires Im z > 0")
    x, y = z.real, z.imag
    if method == "direct":
        u = QuadForm2((x * x + y * y) / y, x / y, 1.0 / y)
        base = epstein_direct(u, s, radius, threads=threads)
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
        norm2, tmp = scratch("zeta.x", k), scratch("zeta.tmp", k)
        np.multiply(m, m, out=norm2)
        norm2 += np.multiply(n, n, out=tmp)
        step = scratch("zeta.step", k, complex)  # e^{4 i theta} = (m + i n)^4 / |p|^4
        np.copyto(step.real, m)
        np.copyto(step.imag, n)
        np.square(step, out=step)
        np.square(step, out=step)
        step /= np.square(norm2, out=tmp)
        powers = _powers(np.log(norm2, out=norm2), s)
        phase = scratch("zeta.phase", k, complex)
        phase.fill(1.0)
        weight = scratch("zeta.angle", k)
        weighted = scratch("zeta.twisted", k, complex)
        done = 0
        for q in q_list:
            for _ in range((q - done) // 4):
                phase *= step
            done = q
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
        lams, _ = _theta_split(QuadForm2.identity(), 1.0, s, q_list)
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
