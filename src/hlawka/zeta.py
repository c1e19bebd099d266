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

Summation is deterministic: fixed row chunks, identical per-chunk reduction,
merge in chunk order with pairwise summation, so results are bit-identical
across thread counts.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergenceError, PoleError, ValidationError
from .lattice import default_threads, map_box_chunks
from .results import EvalResult
from .shapes import Mat2, RadialShape
from .special import gamma, riemann_zeta, upper_incomplete_gamma
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


def _check_radius(radius: float, minimum: float = 10.0, cap: float | None = None):
    cap = MAX_RADIUS if cap is None else cap
    if not (radius >= minimum):
        raise ValidationError(f"radius must be >= {minimum}")
    if radius > cap:
        raise ValidationError(f"radius {radius} exceeds the enumeration cap {cap}")


# ---------------------------------------------------------------------------
# Direct sums
# ---------------------------------------------------------------------------


def hlawka_direct_many(
    shape: RadialShape,
    s_values,
    radius: float,
    threads: int | None = None,
    max_radius: float | None = None,
) -> list[EvalResult]:
    """Z_r at several s sharing one lattice enumeration.

    Z_r(s) = sum over 0 < |p| <= radius of r(theta(p))^(2s) / |p|^(2s)
           = sum of t(p)^(-2s).
    """
    s_list = [_require_convergent(s) for s in s_values]
    _check_radius(radius, cap=max_radius)
    bound = int(math.ceil(radius))
    r2cut = radius * radius

    def chunk(m: np.ndarray, n: np.ndarray):
        n2 = m * m + n * n
        keep = (n2 > 0) & (n2 <= r2cut)
        t = _lattice.dilation_times_block(shape, m[keep], n[keep])
        w = -2.0 * np.log(t)
        return tuple(complex(np.sum(np.exp(sv * w))) for sv in s_list)

    parts = map_box_chunks(bound, chunk, threads=threads or default_threads())
    out = []
    for i, sv in enumerate(s_list):
        total = complex(np.sum(np.array([p[i] for p in parts])))
        sigma = sv.real
        tail = _disc_tail(2.0 * math.pi * shape.r_max ** (2.0 * sigma), sigma, radius)
        out.append(
            EvalResult(
                value=total,
                error_estimate=tail,
                truncation={"radius": radius, "s": [sv.real, sv.imag]},
            )
        )
    return out


def hlawka_direct(
    shape: RadialShape,
    s: complex,
    radius: float,
    threads: int | None = None,
    max_radius: float | None = None,
) -> EvalResult:
    """Direct lattice sum for Z_r(s); requires Re(s) > 1 and radius >= 10."""
    return hlawka_direct_many(shape, [s], radius, threads=threads, max_radius=max_radius)[0]


def hlawka_from_spectrum(spec: "_lattice.Spectrum", s: complex) -> EvalResult:
    """Z_r(s) = sum a_k t_k^(-2s) over an already computed spectrum."""
    s = _require_convergent(s)
    t = spec.t_values
    a = spec.counts
    value = complex(np.sum(a * np.exp(-2.0 * s * np.log(t))))
    sigma = s.real
    # A(t) grows like area * t^2, so the omitted tail is about
    # 2 * area * t_max^(2-2s) / (2s-2); area <= pi r_max^2 <= pi t_max^... is
    # unavailable here, so bound with the largest multiplicity density seen.
    dens = float(np.max(a / np.maximum(t, 1.0))) if len(a) else 0.0
    tail = dens * spec.t_max ** (2.0 - 2.0 * sigma) / max(2.0 * sigma - 2.0, 1e-300) * 2.0
    return EvalResult(
        value=value,
        error_estimate=tail,
        truncation={"t_max": spec.t_max, "entries": len(spec.entries)},
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
    bound = int(math.ceil(radius))
    r2cut = radius * radius

    def chunk(m: np.ndarray, n: np.ndarray):
        n2 = m * m + n * n
        keep = (n2 > 0) & (n2 <= r2cut)
        q = u.evaluate(m[keep].astype(float), n[keep].astype(float))
        return complex(np.sum(np.exp(-s * np.log(q))))

    parts = map_box_chunks(bound, chunk, threads=threads or default_threads())
    total = complex(np.sum(np.array(parts)))
    sigma = s.real
    # integral comparison: tail ~ R^(2-2s)/(2s-2) * angular integral of the form
    th = np.arange(512) * (2.0 * math.pi / 512)
    ang = float(np.mean(u.evaluate(np.cos(th), np.sin(th)) ** (-sigma))) * 2.0 * math.pi
    tail = _disc_tail(ang, sigma, radius)
    return EvalResult(
        value=total, error_estimate=tail, truncation={"radius": radius}
    )


def disc_tail_correction(u: QuadForm2, s: complex, radius: float) -> complex:
    """Integral-comparison estimate of the omitted tail of ``epstein_direct``.

    Adding this to the direct sum cancels the leading truncation error; the
    remainder is governed by the lattice-count fluctuation and is several
    orders smaller.  Used by calibration tests, not by the continuations.
    """
    s = complex(s)
    th = np.arange(2048) * (2.0 * math.pi / 2048)
    ang = complex(np.mean(np.exp(-s * np.log(u.evaluate(np.cos(th), np.sin(th)))))) * 2.0 * math.pi
    return ang * radius ** (2.0 - 2.0 * s) / (2.0 * s - 2.0)


# ---------------------------------------------------------------------------
# Continuations via incomplete-gamma splitting
# ---------------------------------------------------------------------------


def _ring_points(r: int):
    """Lattice points with max(|m|, |n|) == r, deterministic order."""
    pts = []
    for m in range(-r, r + 1):
        pts.append((m, r))
        pts.append((m, -r))
    for n in range(-r + 1, r):
        pts.append((r, n))
        pts.append((-r, n))
    return pts


def epstein_lambda(u: QuadForm2, s: complex, cond_cap: float = 1e8) -> EvalResult:
    """Completed Epstein zeta Lambda(u, s) = pi^(-s) Gamma(s) E(u, s).

    Computed from the theta-splitting representation

        Lambda(u, s) = -1/s - det(u)^(-1/2)/(1-s)
            + sum over x != 0 of [(pi Q)^(-s) Gamma(s, pi Q)
                                  + det(u)^(-1/2) (pi Q')^(s-1) Gamma(1-s, pi Q')]

    with Q = x^T u x, Q' = x^T u^-1 x, truncated once the Gaussian terms fall
    below 1e-16 relative.  Meromorphic with only the two explicit poles at
    s = 0 and s = 1 (rejected within 1e-8).
    """
    s = complex(s)
    if abs(s) < 1e-8 or abs(s - 1.0) < 1e-8:
        raise PoleError(f"Epstein zeta pole at s={s}")
    if u.condition_number() > cond_cap:
        raise ValidationError("quadratic form too ill-conditioned")
    ui = u.inverse()
    det_root = 1.0 / math.sqrt(u.det)
    lam = min(u.eigenvalues()[0], ui.eigenvalues()[0])
    r_floor = math.sqrt(4.0 / (math.pi * lam)) + 1.0

    acc = -1.0 / s - det_root / (1.0 - s)
    quiet = 0
    r = 1
    while True:
        shell = 0.0 + 0.0j
        shell_mag = 0.0
        for m, n in _ring_points(r):
            q1 = math.pi * u.evaluate(float(m), float(n))
            q2 = math.pi * ui.evaluate(float(m), float(n))
            t1 = cmath.exp(-s * math.log(q1)) * upper_incomplete_gamma(s, q1)
            t2 = det_root * cmath.exp((s - 1.0) * math.log(q2)) * upper_incomplete_gamma(
                1.0 - s, q2
            )
            shell += t1 + t2
            shell_mag += abs(t1) + abs(t2)
        acc += shell
        if shell_mag < 1e-16 * max(abs(acc), 1e-30) and r > r_floor:
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
        r += 1
        if r > 400:
            raise DivergenceError("epstein_lambda truncation did not converge")

    return EvalResult(
        value=acc,
        error_estimate=abs(acc) * 1e-14 + 1e-300,
        truncation={"rings": r, "method": "incomplete-gamma splitting"},
    )


def epstein_continued(u: QuadForm2, s: complex, cond_cap: float = 1e8) -> EvalResult:
    """Analytic continuation of the binary Epstein zeta to s not in {0, 1}.

    E(u, s) = Lambda(u, s) / (pi^(-s) Gamma(s)); at the poles of Gamma(s)
    the reciprocal vanishes and the trivial zero is returned exactly.
    """
    s = complex(s)
    lam = epstein_lambda(u, s, cond_cap=cond_cap)
    try:
        value = lam.value / (cmath.exp(-s * math.log(math.pi)) * gamma(s))
    except PoleError:
        value = 0.0 + 0.0j  # 1/Gamma vanishes: trivial zero
    return EvalResult(
        value=value,
        error_estimate=abs(value) * 1e-14 + 1e-300,
        truncation=lam.truncation,
    )


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
    cancellation itself can be verified.
    """
    if q != int(q):
        raise ValidationError("q must be an integer")
    q = int(q)
    s = _require_convergent(s)
    _check_radius(radius)
    bound = int(math.ceil(radius))
    r2cut = radius * radius
    cr, sr = math.cos(g_rotation), math.sin(g_rotation)
    expo = -(s + q / 2.0)

    def chunk(m: np.ndarray, n: np.ndarray):
        n2 = m * m + n * n
        keep = (n2 > 0) & (n2 <= r2cut)
        mf = m[keep].astype(float)
        nf = n[keep].astype(float)
        if g_rotation != 0.0:
            mf, nf = cr * mf - sr * nf, sr * mf + cr * nf
        z = mf + 1j * nf
        n2f = n2[keep].astype(float)
        return complex(np.sum(z**q * np.exp(expo * np.log(n2f))))

    parts = map_box_chunks(bound, chunk, threads=threads or default_threads())
    total = _MINUS_I_POW[q % 4] * complex(np.sum(np.array(parts)))
    tail = _disc_tail(2.0 * math.pi, s.real, radius)
    trunc = {"radius": radius, "q": q, "rotation": g_rotation}
    if q % 4 != 0:
        trunc["vanishes_identically"] = True
    return EvalResult(value=total, error_estimate=tail, truncation=trunc)


def eisenstein_fq_continued(q: int, s: complex) -> EvalResult:
    """Entire continuation of the q-twisted component, q >= 4, q = 0 mod 4.

    With P(x) = (m + i n)^q (harmonic of degree q) and s' = s + q/2,

        Lambda_P(s') = sum over x != 0 of P(x) [ (pi |x|^2)^(-s') Gamma(s', pi |x|^2)
                          + (pi |x|^2)^(s'-q-1) Gamma(q+1-s', pi |x|^2) ]

    and the component equals pi^(s') Lambda_P(s') / Gamma(s').  P(0) = 0, so
    there are no polar terms and the result is entire in s.  (For q = 0 use
    ``epstein_continued`` on the identity form.)
    """
    if q < 4 or q % 4 != 0:
        raise ValidationError("continuation implemented for q >= 4 with q = 0 mod 4")
    s = complex(s)
    sp = s + q / 2.0

    acc = 0.0 + 0.0j
    quiet = 0
    r = 1
    while True:
        shell = 0.0 + 0.0j
        shell_mag = 0.0
        for m, n in _ring_points(r):
            n2 = float(m * m + n * n)
            x = math.pi * n2
            logx = math.log(x)
            p = complex(m, n) ** q
            t1 = cmath.exp(-sp * logx) * upper_incomplete_gamma(sp, x)
            t2 = cmath.exp((sp - q - 1.0) * logx) * upper_incomplete_gamma(q + 1.0 - sp, x)
            term = p * (t1 + t2)
            shell += term
            shell_mag += abs(term)
        acc += shell
        if shell_mag < 1e-16 * max(abs(acc), 1e-30) and r >= 4:
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
        r += 1
        if r > 400:
            raise DivergenceError("eisenstein_fq_continued truncation did not converge")

    try:
        value = cmath.exp(sp * math.log(math.pi)) * acc / gamma(sp)
    except PoleError:
        value = 0.0 + 0.0j  # 1/Gamma vanishes: trivial zero of the component
    return EvalResult(
        value=value,
        error_estimate=abs(value) * 1e-13 + 1e-300,
        truncation={"rings": r, "q": q, "method": "harmonic theta splitting"},
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
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValidationError("classical_eisenstein requires Im z > 0")
    x, y = z.real, z.imag
    u = QuadForm2((x * x + y * y) / y, x / y, 1.0 / y)
    if method == "direct":
        base = epstein_direct(u, s, radius, threads=threads)
    elif method == "continued":
        base = epstein_continued(u, s)
    else:
        raise ValidationError("method must be 'direct' or 'continued'")
    zz = 2.0 * riemann_zeta(2.0 * complex(s))
    value = base.value / zz
    return EvalResult(
        value=value,
        error_estimate=base.error_estimate / abs(zz),
        truncation={**base.truncation, "normalization": "half-coprime"},
    )


# ---------------------------------------------------------------------------
# Fourier-Eisenstein reconstruction
# ---------------------------------------------------------------------------


def _twisted_sums_truncated(
    s: complex, q_list: list[int], radius: float, threads: int | None
) -> dict[int, complex]:
    """T_q = sum e^{i q theta(p)} |p|^(-2s) for q in q_list (multiples of 4),
    one shared enumeration; T_{-q} = T_q by lattice reflection symmetry."""
    bound = int(math.ceil(radius))
    r2cut = radius * radius
    jmax = max(q // 4 for q in q_list)

    def chunk(m: np.ndarray, n: np.ndarray):
        n2 = m * m + n * n
        keep = (n2 > 0) & (n2 <= r2cut)
        mf = m[keep].astype(float)
        nf = n[keep].astype(float)
        n2f = n2[keep].astype(float)
        base = np.exp(-s * np.log(n2f))
        w = (mf + 1j * nf) ** 4 / (n2f * n2f)  # e^{4 i theta}, unit modulus
        out = []
        cur = base
        for j in range(jmax + 1):
            out.append(complex(np.sum(cur)))
            if j < jmax:
                cur = cur * w
        return tuple(out)

    parts = map_box_chunks(bound, chunk, threads=threads or default_threads())
    return {
        4 * j: complex(np.sum(np.array([p[j] for p in parts]))) for j in range(jmax + 1)
    }


def reconstruct_hlawka(
    shape: RadialShape,
    s: complex,
    q_max: int,
    mode: str = "truncated",
    radius: float = 3000.0,
    n_quad: int | None = None,
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
    if q_max < 0:
        raise ValidationError("q_max must be nonnegative")

    n = n_quad or max(256, 1 << (8 * max(q_max, 1) - 1).bit_length())
    table = _fourier.fourier_coeffs(shape, s, q_max, n)
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
        t_tail = _disc_tail(2.0 * math.pi, s.real, radius)
    else:
        t_sums = {0: epstein_continued(QuadForm2.identity(), s).value}
        for q in q_list:
            if q > 0:
                t_sums[q] = eisenstein_fq_continued(q, s).value
        t_tail = abs(t_sums[0]) * 1e-13

    value = table.coefficients[0] * t_sums[0]
    for q in q_list:
        if q > 0:
            value += (table.coefficients[q] + table.coefficients[-q]) * t_sums[q]

    coeff_mass = sum(abs(table.coefficients[q]) + (abs(table.coefficients[-q]) if q else 0.0)
                     for q in q_list)
    err = coeff_mass * t_tail
    # neglected coefficient tail, modeled by the magnitude at the cutoff
    # continuing at the observed decay ratio (or flat for kinked shapes)
    if q_list[-1] >= 8:
        prev = max(abs(table.coefficients.get(q_list[-1] - 4, 0.0)), 1e-300)
        ratio = min(edge / prev, 0.9) if prev > 0 else 0.0
        tail_coeffs = 2.0 * edge / (1.0 - ratio) if edge > 0 else 0.0
    else:
        tail_coeffs = 2.0 * edge * 10.0
    err += tail_coeffs * abs(t_sums[0])

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
