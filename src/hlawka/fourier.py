"""Fourier coefficients of powers of radial functions.

The reconstruction of Z_r from twisted lattice sums consumes the coefficients
chat(q) of r^(2s)(theta) = exp(2s ln r(theta)) in the e^{i q theta} basis,

    chat(q) = (1/2pi) integral_0^{2pi} r^(2s)(theta) e^{-i q theta} d theta.

On a uniform grid the trapezoid rule is spectrally accurate for smooth
periodic integrands; it is one FFT per grid.  Where r^(2s) is analytic on a
strip |Im theta| <= a (cosine series, ellipses, circles) its error is
bounded in closed form (``strip_bounds``: |chat(q)| <= M e^(-a |q|), and the
aliasing 2 M e^(-a (N - |q|)) / (1 - e^(-a N))), which also bounds the
coefficients a reconstruction leaves out (``coefficient_cutoff``).  Other
shapes (polygons, transformed shapes) have no strip; their error is
estimated by doubling the grid once.
For ellipses a closed form exists: the binomial expansion of
(c + d cos^2)^(-s) gives each coefficient as one Gauss series
2F1(s+2q, 2q+1/2; 4q+1; -d/c), summed by ``special.hyp2f1`` with a bound on
its tail and rounding.  It converges for |d/c| < 1, which every ellipse
meets; the series' fixed term cap ends it near a/b = 41 at s = 2 (a
DivergenceError beyond).  The tests check it against the quadrature and
against mpmath.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .results import EvalResult
from .shapes import RadialShape
from .special import _EPS, hyp2f1

__all__ = ["FourierTable", "fourier_coeffs", "strip_bounds", "coefficient_cutoff",
           "ellipse_coefficient", "closed_form_coefficients"]


@dataclass(frozen=True)
class FourierTable:
    """Coefficients chat(q) of r^(2s) for |q| <= q_max on an N-point grid,
    with their error bounds (estimates where the shape has no strip).
    ``rounding`` is the rounding's share of every error, a bound on the
    2-norm of the rounding over all N coefficients, so that K of them round
    by at most sqrt(K) ``rounding`` together (0.0 for the estimates)."""

    s: complex
    coefficients: dict[int, complex]
    errors: dict[int, float]
    n_quad: int
    rounding: float = 0.0


# the shares of the strip's edge a* (where delta(a*) = P_min) a bound may take
_STRIP_SHARES = tuple(0.05 * k for k in range(1, 20)) + (0.97, 0.99)
# the finest grid a table may be sized to
_GRID_CAP = 1 << 16


def strip_bounds(shape: RadialShape, s: complex) -> tuple[tuple[float, float], ...] | None:
    """Pairs (a, log M) with |r^(2s)| <= M on the strip |Im theta| <= a, one
    for each share of ``_STRIP_SHARES`` of the strip's edge, so that
    |chat(q)| <= M e^(-a |q|) (shift the contour by +-i a) and the N-point
    trapezoid rule errs by at most 2 M e^(-a (N - |q|)) / (1 - e^(-a N))
    (the aliased chat(q + j N); Trefethen & Weideman, SIAM Review 56, 2014).
    None for a shape with no such strip (a polygon, a transformed shape).

    r^(2s) = P^beta for a positive trigonometric polynomial P: a cosine
    series is P = r, beta = 2s; an ellipse is P = t^2 = A + B cos 2 theta +
    C sin 2 theta, beta = -s, of range [1 / r_max^2, 1 / r_min^2], so
    sqrt(B^2 + C^2) is half its width.  As |cos(k (theta + i y)) - cos k theta|
    <= sinh(k |y|), P moves by at most delta(a) = sum_k |c_k| sinh(k a) on
    the strip (sqrt(B^2 + C^2) sinh 2a for an ellipse).  Where
    delta < P_min, P has no zero there, |arg P| <= arcsin(delta / P_min) and
    |P^beta| <= M = (P_max + delta)^(Re beta) e^(|Im beta| arcsin(delta / P_min)),
    with P_min - delta in place of P_max + delta where Re beta < 0.  The edge
    a* solves delta(a*) = P_min, in closed form for one harmonic and else by
    bisection; as delta is convex with delta(0) = 0, delta(f a*) <= f P_min
    at each share f <= 0.99.  A circle, P constant, has every
    chat(q != 0) = 0: one pair with a = inf.  log M carries
    64 (1 + |beta| (|log P| + 2)) ulps for its own rounding, and the range of
    P 4 ulps for the squares and reciprocals of an ellipse."""
    if shape.kind == "cosine-series":
        p_min, p_max, beta = shape.r_min, shape.r_max, 2.0 * s
        amps = [(k, abs(c)) for k, c in enumerate(shape.params) if k and c != 0.0]
    elif shape.kind == "ellipse":
        p_min, p_max, beta = (1.0 - 4.0 * _EPS) / shape.r_max**2, (1.0 + 4.0 * _EPS) / shape.r_min**2, -s
        amps = [(2, (1.0 + 4.0 * _EPS) * 0.5 * (p_max - p_min))] if shape.r_min != shape.r_max else []
    else:
        return None

    def log_m(delta: float) -> float:
        edge = p_max + delta if beta.real >= 0.0 else p_min - delta
        log_p = math.log(edge)
        return (beta.real * log_p + abs(beta.imag) * math.asin(delta / p_min)
                + 64.0 * _EPS * (1.0 + abs(beta) * (abs(log_p) + 2.0)))

    if not amps:
        return ((math.inf, log_m(0.0)),)

    def delta(a: float) -> float:
        return sum(amp * math.sinh(min(k * a, 700.0)) for k, amp in amps)

    if len(amps) == 1:
        lo = math.asinh(p_min / amps[0][1]) / amps[0][0]
    else:
        lo, hi = 0.0, 1.0
        while delta(hi) < p_min:
            lo, hi = hi, 2.0 * hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if delta(mid) < p_min else (lo, mid)
    return tuple((f * lo, log_m(delta(f * lo))) for f in _STRIP_SHARES)


def _geometric(a: float, log_m: float, first: int, step: int) -> float:
    """2 M e^(-a first) / (1 - e^(-a step)), twice the sum of the bounds
    M e^(-a q) over q = first, first + step, ...: the aliasing of chat(q)
    on an n-point grid for first = n - |q|, step = n, and the coefficients
    q' = 0 mod 4 beyond q, |q'| > q, for first = q + 4, step = 4 (0 for a
    circle)."""
    if a == math.inf:
        return 0.0
    x = log_m - a * first
    return 2.0 * math.exp(x) / -math.expm1(-a * step) if x < 700.0 else math.inf


def _aliasing(bounds, n: int, q: int) -> tuple[float, float, float]:
    """(bound, a, log M): the least aliasing bound of ``bounds`` on chat(q)
    on an n-point grid and its strip."""
    return min((_geometric(a, log_m, n - abs(q), n), a, log_m) for a, log_m in bounds)


def coefficient_cutoff(bounds, target: float, q_max: int | None = None) -> tuple[int, float, float]:
    """(Q, a, tail) for the strips ``bounds`` of ``strip_bounds``: Q the
    least multiple of 4, over the strips, at which the coefficients beyond
    it, q = 0 mod 4, |q| > Q, sum to at most ``target``; tail the least
    bound on the coefficients beyond min(Q, q_max) (q_max rounded down to a
    multiple of 4) and a its strip."""
    if bounds[0][0] == math.inf:
        return 0, math.inf, 0.0

    def first(a: float, log_m: float) -> int:  # the first Q with 2 M e^(-a (Q + 4)) <= target (1 - e^(-4a))
        need = (math.log(2.0) + log_m - math.log(target * -math.expm1(-4.0 * a))) / a - 4.0
        return 4 * max(0, math.ceil(need / 4.0 - 1e-9))

    q = min(first(*b) for b in bounds)
    cut = q if q_max is None else min(q, q_max - q_max % 4)
    tail, a = min((_geometric(a, log_m, cut + 4, 4), a) for a, log_m in bounds)
    return q, a, tail


def _grid(shape: RadialShape, s: complex, n: int) -> tuple[np.ndarray, float]:
    """The n-point trapezoid coefficients c[q mod n] of r^(2s) (a negative
    index wraps) and the largest |r^(2s)| on the grid."""
    theta = np.arange(n) * (2.0 * math.pi / n)
    r = np.asarray(shape.evaluate(theta))
    f = np.exp(2.0 * s * np.log(r))  # r > 0, log unambiguous
    return np.fft.fft(f) / n, float(np.max(np.abs(f)))


def _grid_coeffs(shape: RadialShape, s: complex, q_max: int, n: int) -> dict[int, complex]:
    c, _ = _grid(shape, s, n)
    return {q: complex(c[q]) for q in range(-q_max, q_max + 1)}


def _rounding(shape: RadialShape, s: complex, n: int) -> float:
    """Ulps, relative to max |r^(2s)| on the grid, that bound the 2-norm of
    the rounding of the n trapezoid coefficients, and so each one's.  The
    coefficients of the values' errors have the 2-norm of their rms
    (Parseval), which their largest bounds.  r on the grid is off by rho
    ulps: a cosine series by (10 S_1 + (3 + k) S_0) / r_min
    (``shapes.cosine_series``,
    S_1 = sum q |c_q|, S_0 = sum |c_q|, k harmonics, the nodes' rounding
    included), an ellipse by ``lattice.time_ulps`` + 1 for the reciprocal
    and 4 (r_max / r_min)^2 for the nodes (theta_j within 2 pi ulps, and
    |d log r / d theta| <= ((r_max / r_min)^2 - 1) / 2).  Then log r adds |log r| and
    the product 2s log r |log r| more, so the exponent is off by
    |2s| (rho + 2 L), L = max |log r|, and exp adds 4.  The FFT adds
    4 log2 n + 8 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., Thm 24.2: log2 n times 3.4 ulps of the 2-norm,
    the rms of the values over n; the division by n is exact)."""
    from .lattice import time_ulps  # lattice imports shapes, as this module does

    if shape.kind == "cosine-series":
        c = shape.params
        rho = (10.0 * sum(q * abs(v) for q, v in enumerate(c))
               + (3.0 + sum(v != 0.0 for v in c[1:])) * sum(map(abs, c))) / shape.r_min
    else:
        rho = time_ulps(shape) + 1.0 + 4.0 * (shape.r_max / shape.r_min) ** 2
    big_l = max(abs(math.log(shape.r_min)), abs(math.log(shape.r_max)))
    return abs(2.0 * s) * (rho + 2.0 * big_l) + 12.0 + 4.0 * math.log2(n)


def fourier_coeffs(
    shape: RadialShape, s: complex, q_max: int, n_quad: int | None = None, *, bounds=None
) -> FourierTable:
    """Trapezoid-rule coefficients of r^(2s), |q| <= q_max, on n_quad points.

    n_quad must be a power of two with n_quad >= 8 q_max; by default it is
    the smallest such power, at least 256, doubled (up to 2^16) while the
    least aliasing bound at q_max exceeds the rounding.  For a shape with a
    strip (``strip_bounds``: cosine series, ellipses, circles) one grid is
    summed and each error is a bound: the aliasing bound of the strip that
    makes it least at q_max, plus the rounding of the values and of the FFT
    (``_rounding``); ``bounds`` is ``strip_bounds(shape, s)``, computed
    here unless the caller has it.  Any other shape takes a second grid of
    2 n_quad points, and its errors are the estimates |c_N - c_2N|; a
    warning is raised when any exceeds 1e-8 (kinked shapes converge only
    algebraically).
    """
    s = complex(s)
    if q_max < 0:
        raise ValidationError("q_max must be nonnegative")
    if bounds is None:  # a shape without a strip recomputes None at no cost
        bounds = strip_bounds(shape, s)
    if n_quad is None:
        n_quad = max(256, 1 << (8 * max(q_max, 1) - 1).bit_length())
        while bounds is not None and n_quad < _GRID_CAP:
            alias, _, log_m = _aliasing(bounds, n_quad, q_max)
            if alias <= _rounding(shape, s, n_quad) * _EPS * math.exp(log_m):
                break
            n_quad *= 2
    if n_quad < max(8 * q_max, 8) or (n_quad & (n_quad - 1)) != 0:
        raise ValidationError("n_quad must be a power of two with n_quad >= 8*q_max")
    coarse, top = _grid(shape, s, n_quad)
    coefficients = {q: complex(coarse[q]) for q in range(-q_max, q_max + 1)}
    if bounds is not None:
        _, a, log_m = _aliasing(bounds, n_quad, q_max)
        rounding = _rounding(shape, s, n_quad) * _EPS * top
        errors = {q: _geometric(a, log_m, n_quad - abs(q), n_quad) + rounding for q in coefficients}
        return FourierTable(s=s, coefficients=coefficients, errors=errors, n_quad=n_quad, rounding=rounding)
    fine = _grid_coeffs(shape, s, q_max, 2 * n_quad)
    errors = {q: abs(coefficients[q] - fine[q]) for q in coefficients}
    worst = max(errors.values())
    if worst > 1e-8:
        warnings.warn(
            f"Fourier coefficient doubling estimate {worst:.2e} exceeds 1e-8; "
            "the shape is probably kinked and the table only algebraically converged",
            stacklevel=2,
        )
    return FourierTable(s=s, coefficients=coefficients, errors=errors, n_quad=n_quad)


def ellipse_coefficient(cparam: float, dparam: float, s: complex, q: int) -> EvalResult:
    """Closed-form coefficient chat(4q) of (c + d cos^2 theta)^(-s), |d| < c.

    The generalized binomial theorem collects the cos(4q theta) line as

        chat(4q) = c^(-s) sum_{k >= 2q} binom(-s, k) binom(2k, k-2q) (x/4)^k,  x = d/c

    (exponential basis: half the cosine-series amplitude for q > 0, and the
    correctly single-counted constant term for q = 0, so the values are
    directly comparable with ``fourier_coeffs``).  With j = k - 2q the term
    ratio is (s+2q+j)(2q+1/2+j) (-x) / ((4q+1+j)(j+1)), so

        chat(4q) = c^(-s) binom(-s, 2q) (x/4)^(2q) 2F1(s+2q, 2q+1/2; 4q+1; -x),

    summed by ``special.hyp2f1`` for every |x| < 1; binom(-s, 2q) is built
    by its product form.  ``error_estimate`` is the prefactor times the
    series' bound plus (|s log c| + 6q + 8) 2^-52 |value| for the rounding
    of the prefactor: c^(-s) (|s log c| + 2), the 2q binomial factors (5q),
    x and its power (q + 1) and the three products.  The rounding of x moves
    the series' terms by at most one ulp times their index, inside the
    share of hyp2f1's charge that real b, c and z leave unspent.
    ``truncation["term_ratio"]`` is |x|, the limit of the term ratio.
    """
    if not (cparam > 0.0):
        raise ValidationError("cparam must be positive")
    if q < 0:
        raise ValidationError("q must be nonnegative")
    s = complex(s)
    x = dparam / cparam
    pre = cparam ** (-s) * (x / 4.0) ** (2 * q)
    for i in range(2 * q):
        pre *= (-s - i) / (i + 1)
    series, bound = hyp2f1(s + 2 * q, 2 * q + 0.5, 4 * q + 1, -x)
    value = pre * series
    return EvalResult(
        value=value,
        error_estimate=abs(pre) * bound + (abs(s * math.log(cparam)) + 6 * q + 8) * _EPS * abs(value),
        truncation={"q": q, "term_ratio": abs(x)},
    )


def closed_form_coefficients(shape: RadialShape, s: complex, q_max: int) -> list[tuple[int, complex, float]]:
    """Rows ``(q, chat(q), error)`` of r^(2s), q = 0, 4, ..., q_max, for a circle
    or an unrotated ellipse with axes a >= b: r^(2s) = b^(2s) (1 + x cos^2)^(-s)
    with x = (b/a)^2 - 1, so each row is b^(2s) ``ellipse_coefficient(1, x, s, q/4)``.

    x = (b - a)(b + a) / a^2 carries at most 5 ulps (b - a is exact for
    a <= 2b); the error adds (|s log b| + 5q/4 + 4) 2^-52 |value| for b^(2s),
    the product and the power of x.  Its series' share lies inside the
    unspent part of hyp2f1's charge, as in ``ellipse_coefficient``.
    """
    if shape.kind != "ellipse":
        raise ValidationError("closed-form coefficients exist only for ellipses")
    # an image from ``act`` may have a < b: a quarter turn keeps every row
    (b, a), phi = sorted(shape.params[:2]), shape.params[2]
    if phi != 0.0:
        raise ValidationError("closed form implemented for unrotated ellipses")
    s = complex(s)
    x = (b - a) * (b + a) / a**2
    scale = complex(b) ** (2.0 * s)
    rows = []
    for q in range(0, q_max + 1, 4):
        res = ellipse_coefficient(1.0, x, s, q // 4)
        value = scale * res.value + 0.0  # a zero row (circle, q > 0) prints 0.0, not -0.0
        rounding = (abs(s * math.log(b)) + 1.25 * q + 4) * _EPS * abs(value)
        rows.append((q, value, abs(scale) * res.error_estimate + rounding))
    return rows
