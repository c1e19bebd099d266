"""Fourier coefficients of powers of radial functions.

The reconstruction of Z_r from twisted lattice sums consumes the coefficients
chat(q) of r^(2s)(theta) = exp(2s ln r(theta)) in the e^{i q theta} basis,

    chat(q) = (1/2pi) integral_0^{2pi} r^(2s)(theta) e^{-i q theta} d theta.

On a uniform grid the trapezoid rule is spectrally accurate for smooth
periodic integrands; it is one FFT per grid, and its error is estimated by
doubling the grid once.
For ellipses a closed form exists (binomial expansion of (c + d cos^2)^(-s));
it must reproduce the quadrature coefficients before being trusted, and the
convergence condition |2d/c| < 1 is enforced rather than allowed to diverge.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError
from .results import EvalResult, csv_table
from .shapes import RadialShape

__all__ = ["FourierTable", "fourier_coeffs", "ellipse_coefficient", "closed_form_coefficients",
           "fourier_table_to_csv"]


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


def ellipse_coefficient(
    cparam: float,
    dparam: float,
    s: complex,
    q: int,
    k_max: int = 400,
) -> EvalResult:
    """Closed-form coefficient chat(4q) of (c + d cos^2 theta)^(-s).

    Expands by the generalized binomial theorem and collects the cos(4q theta)
    line:

        chat(4q) = c^(-s) sum_{k >= 2q} binom(-s, k) binom(2k, k-2q) (d/c)^k / 2^(2k)

    (exponential basis: half the cosine-series amplitude for q > 0, and the
    correctly single-counted constant term for q = 0, so the values are
    directly comparable with ``fourier_coeffs``).  Generalized binomials are
    built by their product form, never through Gamma ratios.  Convergence is
    enforced via |2d/c| < 1.
    """
    if not (cparam > 0.0):
        raise ValidationError("cparam must be positive")
    if q < 0:
        raise ValidationError("q must be nonnegative")
    if abs(2.0 * dparam / cparam) >= 1.0:
        raise DivergenceError("ellipse coefficient series requires |2d/c| < 1")
    s = complex(s)
    ratio = dparam / cparam

    # binom(-s, k) iteratively; binom(2k, k-2q)/4^k carried as one scaled
    # factor so nothing overflows for large k_max
    acc = 0.0 + 0.0j
    binom_ms = 1.0 + 0.0j
    scaled_central = None
    last = 0.0
    prev = 0.0
    converged = False
    for k in range(k_max + 1):
        if k >= 2 * q:
            if scaled_central is None:
                scaled_central = float(math.comb(2 * k, k - 2 * q)) / 4.0**k
            term = binom_ms * scaled_central * ratio**k
            acc += term
            prev, last = last, abs(term)
            if k > 2 * q + 2 and last < 1e-18 * max(abs(acc), 1e-30):
                converged = True
                break
            scaled_central *= (2 * k + 1) * (2 * k + 2) / (4.0 * (k + 1 - 2 * q) * (k + 1 + 2 * q))
        binom_ms *= (-s - k) / (k + 1)
    rho = last / prev if prev > 0 else 0.0
    if not converged and rho >= 0.999:
        warnings.warn("ellipse coefficient series is stalling", stacklevel=2)
    tail = last * rho / (1.0 - rho) if rho < 1.0 else math.inf
    value = cparam ** (-s) * acc
    return EvalResult(
        value=value,
        error_estimate=abs(cparam ** (-s)) * tail,
        truncation={"k_max": k_max, "last_ratio": rho, "q": q},
    )


def closed_form_coefficients(
    shape: RadialShape, s: complex, q_max: int, k_max: int = 400
) -> list[tuple[int, complex, float]]:
    """Rows ``(q, chat(q), error)`` of r^(2s), q = 0, 4, ..., q_max, for a circle
    or an unrotated ellipse: r^(2s) = a^(2s) (c + d cos^2)^(-s) with
    c = (a/b)^2, d = 1 - c, so each row is a^(2s) ``ellipse_coefficient``."""
    if shape.kind not in ("ellipse", "constant"):
        raise ValidationError("closed-form coefficients exist only for ellipses")
    if shape.kind == "constant":
        a = b = shape.params[0]
    else:
        a, b, phi = shape.params
        if phi != 0.0:
            raise ValidationError("closed form implemented for unrotated ellipses")
    c = (a / b) ** 2
    d = 1.0 - c
    scale = complex(a) ** (2.0 * s)
    qs = range(0, q_max + 1, 4)
    if c == 1.0:
        return [(q, scale if q == 0 else 0.0 + 0.0j, 0.0) for q in qs]
    series = [(q, ellipse_coefficient(c, d, s, q // 4, k_max=k_max)) for q in qs]
    return [(q, scale * res.value, abs(scale) * res.error_estimate) for q, res in series]


def fourier_table_to_csv(table: FourierTable) -> str:
    """CSV export: ``q,re,im`` rows, 15 significant digits, q ascending."""
    qs = sorted(table.coefficients)
    c = np.array([table.coefficients[q] for q in qs], complex)
    return csv_table("q,re,im", qs, c.real, c.imag)
