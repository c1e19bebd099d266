"""Identity checkers and the contour-integral point-count inversion.

Each checker evaluates both sides of an identity by independent computations
(separate continuation calls at unrelated arguments, or a direct sum against
a closed form) and reports absolute and relative residuals per sample point.
A CheckReport passes iff every relative residual meets the identity's
declared tolerance.

The coefficient identity for ellipses is exploratory: the printed constants
((ab)-exponent, Gamma-ratio bookkeeping) are not independently confirmed, so
that checker records residuals for every reading without gating on them.
The oracle-validated route to the same content is the ellipse functional
equation plus the twisted-component functional equation.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericError, OverflowSignal, PoleError, ValidationError
from .fourier import ellipse_coefficient
from . import lattice as _lattice
from .lattice import build_spectrum
from .results import csv_table
from .shapes import RadialShape, area, odd_shape, square
from .special import _exp_integral_e1, gamma, riemann_zeta
from .zeta import (
    QuadForm2,
    _spectrum_sums,
    eisenstein_fq_continued,
    ellipse_form,
    epstein_continued_many,
    epstein_lambda,
    hlawka_direct_many,
)

__all__ = [
    "CheckReport",
    "RegularFEForm",
    "PerronReport",
    "check_circle_fe",
    "check_square_closed_form",
    "check_fq_fe",
    "check_ellipse_fe",
    "check_coefficient_identity",
    "check_odd_vs_square",
    "perron_count_approx",
    "residue_at_one",
    "probe_regular_fe",
]

_TINY = 1e-300


@dataclass(frozen=True)
class CheckReport:
    """Residuals of one identity over a list of sample points."""

    name: str
    samples: tuple
    residuals_abs: tuple
    residuals_rel: tuple
    tolerance: float
    passed: bool
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "identity": self.name,
            "samples": [{"re": complex(s).real, "im": complex(s).imag} for s in self.samples],
            "residuals_abs": list(self.residuals_abs),
            "residuals_rel": list(self.residuals_rel),
            "tolerance": self.tolerance,
            "passed": self.passed,
            "metadata": dict(self.metadata),
        }


@dataclass(frozen=True)
class RegularFEForm:
    """Candidate reflection factor A^(1-s) prod Gamma(alpha_i (1-s) + mu_i)
    / (B^s prod Gamma(beta_j s + omega_j)) with positive real slopes."""

    A: complex
    B: complex
    alpha_mu: tuple
    beta_omega: tuple

    def __post_init__(self):
        for a, _ in self.alpha_mu:
            if not a > 0:
                raise ValidationError("alpha slopes must be positive reals")
        for b, _ in self.beta_omega:
            if not b > 0:
                raise ValidationError("beta slopes must be positive reals")

    def ratio(self, s: complex) -> complex:
        num = self.A ** (1.0 - s)
        for a, mu in self.alpha_mu:
            num *= gamma(a * (1.0 - s) + mu)
        den = self.B**s
        for b, om in self.beta_omega:
            den *= gamma(b * s + om)
        return num / den


def _require_away_from(s: complex, centers, dist: float, what: str):
    for c in centers:
        if abs(s - c) < dist:
            raise ValidationError(f"sample {s} within {dist} of {what} at {c}")


def _require_gamma_safe(values, dist: float = 1e-3):
    """Each value must stay >= dist away from the nonpositive integers."""
    for v in values:
        v = complex(v)
        r = round(v.real)
        if r <= 0 and abs(v - r) < dist:
            raise ValidationError(f"gamma argument {v} within {dist} of pole at {r}")


def _residual(lhs: complex, rhs: complex) -> tuple[float, float]:
    """Absolute and relative residual of lhs = rhs."""
    d = abs(lhs - rhs)
    return d, d / max(abs(lhs), abs(rhs), _TINY)


def _report(name, samples, residuals, tolerance, metadata, passed=True) -> CheckReport:
    """The report of (absolute, relative) ``residuals`` per sample: it
    passes iff ``passed`` holds and every relative residual meets
    ``tolerance``."""
    res_abs = tuple(a for a, _ in residuals)
    res_rel = tuple(r for _, r in residuals)
    return CheckReport(
        name=name,
        samples=tuple(complex(s) for s in samples),
        residuals_abs=res_abs,
        residuals_rel=res_rel,
        tolerance=tolerance,
        passed=passed and all(r <= tolerance for r in res_rel),
        metadata=metadata,
    )


def _lambda_reflections(u: QuadForm2, samples) -> list[tuple[complex, complex]]:
    """(Lambda(u, s), Lambda(u^-1, 1 - s)) of the completed Epstein zeta for
    each sample s, by independent continuation calls; s and 1 - s must stay
    1e-3 away from the poles at 0 and 1."""
    ui = u.inverse()
    pairs = []
    for s in samples:
        s = complex(s)
        _require_away_from(s, (0.0, 1.0), 1e-3, "Epstein pole")
        _require_away_from(1.0 - s, (0.0, 1.0), 1e-3, "Epstein pole")
        pairs.append((epstein_lambda(u, s).value, epstein_lambda(ui, 1.0 - s).value))
    return pairs


# ---------------------------------------------------------------------------
# Functional equation checks
# ---------------------------------------------------------------------------


def check_circle_fe(c: float, samples) -> CheckReport:
    """c^(-2s) Gamma(s) pi^(-s) Z_circle(s) is invariant under s -> 1-s.

    Since Z_circle(s) = c^(2s) E(I, s), the c powers cancel and each side is
    the completed zeta Lambda(I, .) of the identity form, evaluated at s and
    at 1 - s by independent continuation calls.  (Working with Lambda keeps
    integer samples legal: there, a Gamma pole cancels a trivial zero of E.)
    """
    if not c > 0:
        raise ValidationError("circle radius must be positive")
    pairs = _lambda_reflections(QuadForm2.identity(), samples)
    return _report("circle-fe", samples, [_residual(*p) for p in pairs], 1e-10, {"c": c})


def check_square_closed_form(samples, radius: float = 2000.0, threads=None) -> CheckReport:
    """Direct lattice sum for the square against 8 zeta(2s - 1), Re(s) > 1.

    Passes when each |direct - closed form| stays within the direct sum's
    truncation estimate plus 1e-8; ``residuals_rel`` reports the excess
    beyond the truncation estimate, relative to the closed form.
    """
    if radius < 1000:
        raise ValidationError("radius must be >= 1000 for this check")
    samples = [complex(s) for s in samples]
    directs = hlawka_direct_many(square(), samples, radius, threads=threads)
    residuals = []
    for s, d in zip(samples, directs):
        closed = 8.0 * riemann_zeta(2.0 * s - 1.0)
        diff = abs(d.value - closed)
        excess = max(0.0, diff - d.error_estimate)
        residuals.append((diff, excess / max(abs(closed), _TINY)))
    return _report(
        "square-closed-form", samples, residuals, 1e-8,
        {"radius": radius, "truncation_estimates": [d.error_estimate for d in directs]},
    )


def check_fq_fe(q: int, samples) -> CheckReport:
    """Reflection identity of the completed twisted component:

        pi^(-s) Gamma(s) C_q(s)
          = pi^(-(1-s)) Gamma(1-s) Gamma(s)^2 (-i)^q
            / (Gamma(s + q/2) Gamma(s - q/2)) * C_q(1-s).

    q = 0 degenerates to the classical completed-zeta equation (checked via
    the Epstein continuation); q not divisible by 4 is rejected as vacuous
    since those components vanish identically.
    """
    if q % 4 != 0 or q < 0:
        raise ValidationError(
            "component vanishes identically for q not divisible by 4; check is vacuous"
        )
    if q == 0:
        # classical completed equation Lambda(s) = Lambda(1-s); the
        # Gamma-ratio factor degenerates to 1
        pairs = _lambda_reflections(QuadForm2.identity(), samples)
        return _report("fq-fe-q0", samples, [_residual(*p) for p in pairs], 1e-8, {"q": 0})
    residuals = []
    for s in samples:
        s = complex(s)
        _require_gamma_safe([s, 1.0 - s, s + q / 2.0, s - q / 2.0])
        lhs = math.pi ** (-s) * gamma(s) * eisenstein_fq_continued(q, s).value
        factor = gamma(s) ** 2 / (gamma(s + q / 2.0) * gamma(s - q / 2.0))  # (-i)^q = 1, 4 | q
        rhs = (
            math.pi ** (-(1.0 - s))
            * gamma(1.0 - s)
            * factor
            * eisenstein_fq_continued(q, 1.0 - s).value
        )
        residuals.append(_residual(lhs, rhs))
    return _report(f"fq-fe-q{q}", samples, residuals, 1e-8, {"q": q})


def check_ellipse_fe(a: float, b: float, phi: float, samples) -> CheckReport:
    """Completed-zeta reflection for ellipses:

        pi^(-s) Gamma(s) Z(r, s) = det(u)^(-1/2) pi^(-(1-s)) Gamma(1-s) Z(r*, 1-s)

    with u the quadratic form of the ellipse, r* the ellipse of the
    inverse-transpose transformation (form u^(-1)), and det(u)^(-1/2) = ab.
    The residual under the constant (ab)^(-1/2) is recorded in the metadata
    as well: that reading does not close the identity (the circle
    degeneration with c != 1 already rules it out) but is kept visible.
    """
    if not (a >= b > 0):
        raise ValidationError("ellipse requires a >= b > 0")
    if a / b > 1e4:
        raise ValidationError("ellipse too degenerate (a/b > 1e4)")
    u = ellipse_form(a, b, phi)
    const = 1.0 / math.sqrt(u.det)  # = ab
    alt_const = (a * b) ** -0.5
    pairs = _lambda_reflections(u, samples)
    alt_res = [_residual(lhs, alt_const * rhs)[1] for lhs, rhs in pairs]
    return _report(
        "ellipse-fe",
        samples,
        [_residual(lhs, const * rhs) for lhs, rhs in pairs],
        1e-9,
        {
            "a": a,
            "b": b,
            "phi": phi,
            "constant": const,
            "as_printed_constant": alt_const,
            "as_printed_rel_residuals": alt_res,
        },
    )


# ---------------------------------------------------------------------------
# Exploratory coefficient identity
# ---------------------------------------------------------------------------


def _coeff_series(reading: str, s: complex, q: int, c: float, d: float):
    """One coefficient series, evaluated literally as printed.

    Returns (value, diagnostics).  The k-form converges for |d/c| < 1; the
    j-form's terms eventually grow (its Gamma-ratio lacks the factorial of
    the binomial it replaced), so it is capped at 40 terms and flagged.
    """
    if reading == "k-form":
        # the printed weight 1/2^(2k-1) is twice the library's 1/4^k
        res = ellipse_coefficient(c, d, s, q)
        diag = {"reading": reading, "last_ratio": res.truncation["term_ratio"], "divergent": False}
        return 2.0 * res.value, diag

    # j-form: sum_j binom(2j+4q, j) d^(j+2q) Gamma(j+2q-s)
    #       / (2^(2q-1) c^(j+2q) Gamma(-s)) (1/2)^j, literal text
    acc = 0.0 + 0.0j
    rising = 1.0 + 0.0j  # Gamma(K-s)/Gamma(-s) = prod_{i<K} (i-s), K = j+2q
    for i in range(2 * q):
        rising *= i - s
    binom = 1.0  # binom(2j+4q, j) at j = 0
    ratio = d / c
    prev_mag = 0.0
    last_ratio = 0.0
    n_terms = 40
    for j in range(n_terms):
        term = binom * ratio ** (j + 2 * q) * rising / 2.0 ** (2 * q - 1) / 2.0**j
        acc += term
        mag = abs(term)
        if prev_mag > 0:
            last_ratio = mag / prev_mag
        prev_mag = mag
        rising *= (j + 2 * q) - s
        binom = binom * (2 * j + 4 * q + 1) * (2 * j + 4 * q + 2) / ((j + 1) * (j + 4 * q + 1))
    return (
        acc,  # no c^(-s) prefactor: the printed right-hand side carries c explicitly
        {"reading": reading, "last_ratio": last_ratio, "divergent": last_ratio >= 1.0,
         "terms": n_terms},
    )


def check_coefficient_identity(a: float, b: float, q: int, samples) -> CheckReport:
    """Literal evaluation of the printed coefficient identity for ellipses.

    Both sides are computed under both coefficient readings and under
    both candidate (ab)-exponents on the right side (2s - 3/2 as printed and
    2s - 5/2 from direct substitution).  Residuals are reported WITHOUT a
    pass/fail gate: the printed constants are unconfirmed, so the report
    passing means only that it was produced and every entry is finite.
    """
    if not (a >= b > 0):
        raise ValidationError("requires a >= b > 0")
    if q < 1:
        raise ValidationError("q must be a positive integer")
    c = (a / b) ** 2
    d = 1.0 - c
    if abs(2.0 * d / c) >= 1.0:
        raise ValidationError("outside the convergence domain |2d/c| < 1")
    results: dict[str, dict[str, list[float]]] = {}
    diagnostics: dict[str, dict] = {}
    for rd in ("k-form", "j-form"):
        per_exp: dict[str, list[float]] = {"2s-3/2": [], "2s-5/2": []}
        for s in samples:
            s = complex(s)
            _require_gamma_safe([s, 1.0 - s, s + 2 * q, s - 2 * q])
            series_s, diag = _coeff_series(rd, s, q, c, d)
            series_1ms, _ = _coeff_series(rd, 1.0 - s, q, c, d)
            diagnostics[rd] = diag
            lhs_core = math.pi ** (-s) * gamma(s)
            if rd == "k-form":
                lhs = lhs_core * (a * b) ** (2.0 * s) * series_s
            else:
                lhs = lhs_core * (a * b) ** (2.0 * s) * c ** (-s) * series_s
            factor = (
                math.pi ** (-(1.0 - s))
                * gamma(1.0 - s)
                * gamma(s) ** 2
                / (gamma(s + 2 * q) * gamma(s - 2 * q))
            )
            for label, expo in (("2s-3/2", 2.0 * s - 1.5), ("2s-5/2", 2.0 * s - 2.5)):
                if rd == "k-form":
                    rhs = factor * (a * b) ** expo * series_1ms
                else:
                    rhs = factor * (a * b) ** expo * c ** (-(1.0 - s)) * series_1ms
                per_exp[label].append(_residual(lhs, rhs)[1])
        results[rd] = per_exp

    flat = [(r, r) for rd in results.values() for rs in rd.values() for r in rs]
    return _report(
        f"coefficient-identity-q{q}",
        samples,
        flat,
        math.inf,
        {
            "gate": "exploratory: residuals recorded, identity constants unconfirmed",
            "a": a,
            "b": b,
            "q": q,
            "c": c,
            "d": d,
            "residuals": results,
            "series_diagnostics": diagnostics,
        },
        passed=all(math.isfinite(r) for r, _ in flat),
    )


# ---------------------------------------------------------------------------
# Square vs odd shape
# ---------------------------------------------------------------------------


def check_odd_vs_square(t_max: float, samples, threads=None) -> CheckReport:
    """The seven-segment region and the square share spectra and Z values.

    Entry-by-entry exact integer agreement of the spectra, Z equality from
    the spectra at the sample points (tolerance 1e-12), and the orbit
    statistic distinguishing the two regions: equal areas but different
    vertex counts, the lengths of their vertex lists (a linear image of the
    square would have 4).
    """
    if t_max < 30:
        raise ValidationError("t_max must be >= 30")
    sq = square()
    od = odd_shape()
    spec_od = build_spectrum(od, t_max, threads=threads)  # the wider walk: its cap is hit first
    spec_sq = build_spectrum(sq, t_max, threads=threads)
    entries_equal = np.array_equal(spec_sq.t_values, spec_od.t_values) and np.array_equal(
        spec_sq.counts, spec_od.counts
    )
    # one power call per spectrum for all samples
    residuals = [_residual(z1.value, z2.value)
                 for z1, z2 in zip(_spectrum_sums(spec_sq, samples), _spectrum_sums(spec_od, samples))]
    return _report(
        "odd-vs-square",
        samples,
        residuals,
        1e-12,
        {
            "t_max": t_max,
            "entries": len(spec_sq.t_values),
            "spectra_identical": entries_equal,
            "square_area": area(sq),
            "odd_area": area(od),
            "square_vertices": len(sq.params),
            "odd_vertices": len(od.params),
            "orbit_statistic": "vertex count differs (4 vs 7) while areas agree; "
            "a linear image of the square keeps 4 vertices, so the seven-vertex "
            "region is outside the GL(2,R) orbit",
        },
        passed=entries_equal and len(sq.params) == 4 and len(od.params) == 7,
    )


# ---------------------------------------------------------------------------
# Contour-integral point counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LobeEnds(Sequence):
    """The lobe ends of a Perron report, k lobe for k = 1, ..., size - 1
    and then T (size = ceil(T / lobe)): the floats of
    ``np.append(np.arange(0.0, T, lobe), T)[1:]``, held as three numbers.
    ``np.asarray`` gives them as one array."""

    lobe: float
    T: float
    size: int

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(self.size)))
        k = i + self.size if i < 0 else i
        if not 0 <= k < self.size:
            raise IndexError("lobe end index out of range")
        return self.T if k == self.size - 1 else float((k + 1) * self.lobe)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.append(np.arange(1, self.size) * self.lobe, self.T).astype(dtype or float, copy=False)


@dataclass(frozen=True)
class PerronReport:
    """Convergence record of the truncated contour integral.  ``lines``
    holds the spectrum's (log (x/t_k)^2, a_k), from which
    ``lobe_residuals``, the integral less A'(x) at every lobe end, is
    computed when first read."""

    x: float
    sigma: float
    T: float
    approx: float
    direct_half_weight: float
    lobe_ends: LobeEnds
    last_lobe_magnitude: float
    lines: tuple = field(repr=False, compare=False)

    @cached_property
    def lobe_residuals(self) -> tuple:
        return tuple(_perron_residuals(*self.lines, self.sigma, np.asarray(self.lobe_ends)).tolist())

    def to_csv(self) -> str:
        return csv_table("T,residual", self.lobe_ends, self.lobe_residuals)


def _perron_residuals(log_y: np.ndarray, counts: np.ndarray, sigma: float, ends: np.ndarray) -> np.ndarray:
    """-(1/pi) sum_k a_k Im E_1(-lambda_k (sigma + i T)), lambda_k = log_y[k]
    and a_k = counts[k], at each T of ``ends``: the truncated integral less
    A'(x).  The (end x line) values go in blocks of at most
    ``lattice._CHUNK_POINTS``, over the ends (each row summed over its lines
    on its own, so these blocks change the cost and not the result) and,
    where the lines exceed that, over the lines too, whose partial sums add
    left to right."""
    cap = _lattice._CHUNK_POINTS
    rows, cols = max(1, cap // len(log_y)), min(len(log_y), cap)
    out = np.zeros(len(ends))
    for i in range(0, len(ends), rows):
        s = sigma + 1j * ends[i:i + rows, None]
        for j in range(0, len(log_y), cols):
            z = -log_y[j:j + cols] * s
            im = _exp_integral_e1(z.reshape(-1)).imag.reshape(z.shape)
            out[i:i + rows] += np.sum(im * counts[j:j + cols], axis=1)
    return out / -math.pi


def perron_count_approx(
    shape: RadialShape,
    x: float,
    sigma: float,
    T: float,
    threads=None,
) -> tuple[float, PerronReport]:
    """Recover the half-weight point count A'(x) from the truncated integral

        (1/pi) * integral_0^T Re[ Z_r(sigma + i t) x^(2 (sigma + i t))
                                   / (sigma + i t) ] dt

    with Z_r evaluated through the spectrum up to 2x, from which A'(x) is
    read as well.  Each line (t_k, a_k) integrates in closed form: with
    y = (x / t_k)^2 and lambda = log y,

        (1/pi) integral_0^T Re[ y^(sigma + i t) / (sigma + i t) ] dt
            = [y > 1] - (1/pi) Im E_1(-lambda (sigma + i T)),

    (its T-derivative is the integrand, and it is 0 at T = 0+, where the
    argument meets the cut from below for y > 1), so the integral is
    A'(x) - (1/pi) sum_k a_k Im E_1(-lambda_k (sigma + i T)); the argument
    has imaginary part -lambda T != 0 and stays off the cut.  The report
    carries the lobe ends (half-periods of the x^(2it) oscillation, the
    last one at T) and the magnitude of the last lobe, the integral's change
    over it, which takes E_1 at its two ends; ``lobe_residuals``, the
    integral less A'(x) at every lobe end, is computed on first read.  A T
    of more than ``lattice._SPECTRUM_POINTS`` lobes is a ValidationError
    before the spectrum is built.  A line whose E_1 overflows, where
    (x / t_k)^(2 sigma) leaves the floats, is a NumericError naming x,
    sigma and that t_k.
    """
    if not x > 0:
        raise ValidationError("x must be positive")
    if not sigma > 1:
        raise ValidationError("sigma must exceed 1")
    if not T > 0:
        raise ValidationError("T must be positive")
    lobe = math.pi / (2.0 * max(math.log(x), 0.05))
    if not T / lobe <= _lattice._SPECTRUM_POINTS:
        raise ValidationError(f"T={T:g} needs more than {_lattice._SPECTRUM_POINTS} lobes")
    spec = build_spectrum(shape, 2.0 * x, threads=threads)
    tv = spec.t_values
    # no line within the counting tolerance of x, so A'(x) has no half-weight term
    gap = max(1e-6, _lattice._TOLERANCE * x)
    near = (tv <= x + 1.0) & (np.abs(tv - x) < gap)
    if near.any():
        raise ValidationError(
            f"x={x} is within {gap:.3g} of the jump at t={float(tv[np.argmax(near)])}; at jumps the "
            "half-weight count A'(x) is the target, choose x off the spectrum"
        )
    direct = float(spec.count_up_to(x))
    lines = (2.0 * (math.log(x) - np.log(tv)), spec.counts)

    ends = LobeEnds(lobe, T, math.ceil(T / lobe))
    # the integral at the last lobe's start and at T; it is 0 at T = 0
    start = (len(ends) - 1) * lobe
    try:
        at = _perron_residuals(*lines, sigma, np.array([start, T] if start > 0.0 else [T])) + direct
    except OverflowSignal:
        k = int(np.argmax(lines[0]))
        raise NumericError(
            f"the Perron integrand overflows at x={x:g}, sigma={sigma:g}: the line t_k={tv[k]:.17g} "
            f"contributes (x / t_k)^(2 sigma) = e^{sigma * lines[0][k]:.6g}") from None
    total = float(at[-1])
    last_mag = abs(total - float(at[0])) if len(at) == 2 else abs(total)

    if last_mag > 0.5:
        warnings.warn(
            f"last-lobe magnitude {last_mag:.3g} > 0.5: T={T} looks too small "
            "for the oscillation to have settled",
            stacklevel=2,
        )
    report = PerronReport(
        x=x,
        sigma=sigma,
        T=T,
        approx=total,
        direct_half_weight=direct,
        lobe_ends=ends,
        last_lobe_magnitude=last_mag,
        lines=lines,
    )
    return total, report


# ---------------------------------------------------------------------------
# Residue at s = 1 and the regular-FE probe
# ---------------------------------------------------------------------------


def residue_at_one(shape: RadialShape) -> float:
    """lim (s - 1) Z_r(s): numeric limit with Richardson over the step sizes
    2e-4 and 1e-4.

    Circle and ellipse go through the Epstein continuation of their quadratic
    form; a polygon, a GL(2,Z) image of the square or of the odd shape,
    reduces to 8 zeta(2s - 1) via their common spectrum, its residue
    evaluated by the same numeric limit.  Other kinds are rejected.  Equals
    the area of the region (pole of the dilation-count series at s = 1).
    """

    steps = (2e-4, 1e-4)
    if shape.kind == "ellipse":
        u = ellipse_form(*shape.params)
        # one reduction, one splitting and one incomplete-gamma call for all four s
        values = [r.value for r in epstein_continued_many(u, [1.0 + h * sign for h in steps for sign in (1, -1)])]
    elif shape.kind == "polygon":
        values = [8.0 * riemann_zeta(1.0 + 2.0 * h * sign) for h in steps for sign in (1, -1)]
    else:
        raise ValidationError(
            f"residue_at_one supports circle/ellipse (quadratic form) and "
            f"polygon (closed form), not kind {shape.kind!r}"
        )

    r1, r2 = (0.5 * (h * up - h * dn) for h, up, dn in zip(steps, values[::2], values[1::2]))
    res = (4.0 * r2 - r1) / 3.0
    return float(res.real)


def probe_regular_fe(form: RegularFEForm, samples) -> CheckReport:
    """Residuals of the square's zeta function against a candidate reflection
    factor: |Z(s) - ratio(s) Z(1-s)| with Z(s) = 8 zeta(2s - 1).

    No library-provided form passes (none exists for the square); the probe
    reports whatever residuals the supplied form produces.  A sample landing
    on a pole of the candidate's gamma factors records an infinite residual.
    """
    residuals = []
    for s in samples:
        s = complex(s)
        _require_away_from(2.0 * s - 1.0, (1.0,), 1e-3, "zeta pole")
        _require_away_from(1.0 - 2.0 * s, (1.0,), 1e-3, "zeta pole")
        lhs = 8.0 * riemann_zeta(2.0 * s - 1.0)
        try:
            rhs = form.ratio(s) * 8.0 * riemann_zeta(2.0 * (1.0 - s) - 1.0)
        except PoleError:
            residuals.append((math.inf, math.inf))
            continue
        residuals.append(_residual(lhs, rhs))
    return _report("regular-fe-probe", samples, residuals, 1e-8, {"gate": "probe"})
