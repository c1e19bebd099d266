"""Fourier coefficients of powers of radial functions.

The reconstruction of Z_r from twisted lattice sums consumes the coefficients
chat(q) of r^(2s)(theta) = exp(2s ln r(theta)) in the e^{i q theta} basis,

    chat(q) = (1/2pi) integral_0^{2pi} r^(2s)(theta) e^{-i q theta} d theta.

On a uniform grid the trapezoid rule is spectrally accurate for smooth
periodic integrands; it is one FFT per grid, and its error is estimated by
doubling the grid once.
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

__all__ = ["FourierTable", "fourier_coeffs", "ellipse_coefficient", "closed_form_coefficients"]


@dataclass(frozen=True)
class FourierTable:
    """Coefficients chat(q) of r^(2s) for |q| <= q_max on an N-point grid."""

    s: complex
    coefficients: dict[int, complex]
    errors: dict[int, float]
    n_quad: int


def _grid_coeffs(shape: RadialShape, s: complex, q_max: int, n: int) -> dict[int, complex]:
    theta = np.arange(n) * (2.0 * math.pi / n)
    r = np.asarray(shape.evaluate(theta))
    f = np.exp(2.0 * s * np.log(r))  # r > 0, log unambiguous
    c = np.fft.fft(f) / n  # c[q mod n]: a negative index wraps
    return {q: complex(c[q]) for q in range(-q_max, q_max + 1)}


def fourier_coeffs(
    shape: RadialShape, s: complex, q_max: int, n_quad: int | None = None
) -> FourierTable:
    """Trapezoid-rule coefficients of r^(2s), |q| <= q_max, on n_quad points.

    Requires n_quad to be a power of two with n_quad >= 8 q_max; by default
    it is the smallest such power, at least 256.  Errors are |c_N - c_2N|
    from one grid doubling; a warning is raised when any exceeds 1e-8
    (kinked shapes converge only algebraically).
    """
    s = complex(s)
    if q_max < 0:
        raise ValidationError("q_max must be nonnegative")
    if n_quad is None:
        n_quad = max(256, 1 << (8 * max(q_max, 1) - 1).bit_length())
    if n_quad < max(8 * q_max, 8) or (n_quad & (n_quad - 1)) != 0:
        raise ValidationError("n_quad must be a power of two with n_quad >= 8*q_max")
    coarse = _grid_coeffs(shape, s, q_max, n_quad)
    fine = _grid_coeffs(shape, s, q_max, 2 * n_quad)
    errors = {q: abs(coarse[q] - fine[q]) for q in coarse}
    worst = max(errors.values())
    if worst > 1e-8:
        warnings.warn(
            f"Fourier coefficient doubling estimate {worst:.2e} exceeds 1e-8; "
            "the shape is probably kinked and the table only algebraically converged",
            stacklevel=2,
        )
    return FourierTable(s=s, coefficients=coarse, errors=errors, n_quad=n_quad)


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
