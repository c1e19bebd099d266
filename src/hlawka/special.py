"""Complex special functions used by the zeta and identity-check modules.

Everything here is pure and scalar-complex, except that the incomplete
gamma takes arrays of (s, x) pairs:

* ``gamma`` -- Lanczos approximation (g=7, 9 terms) with reflection for
  Re(s) < 1/2.  Relative error is ~1e-13 for moderate arguments.
* ``riemann_zeta`` -- accelerated alternating (eta) series for Re(s) >= 1/2,
  symmetric functional equation below, with an Euler-Maclaurin fallback near
  the zeros of 1 - 2^(1-s) where the eta transform is singular.
* ``dirichlet_beta`` -- same acceleration applied to sum (-1)^k (2k+1)^(-s).
* ``upper_incomplete_gamma`` -- Lentz continued fraction for large x
  (masked per element, exact 0 where x^s e^(-x) underflows), lower series
  otherwise, downward recurrence near the poles of Gamma(s).  Each branch is
  one array routine over the (s, x) pairs that take it, stopping per
  element; a scalar pair is an array of one.  The lower incomplete gamma
  is only its series branch, ``_lower_series``, and is not exported.
* ``hyp2f1_partial`` -- plain partial sums of the Gauss series with a
  geometric tail estimate.  No library code calls it yet: it is kept as the
  series the ellipse's Fourier coefficients are to be summed by.

Accuracy targets are 1e-12 relative at moderate arguments (|s| <= 50,
|Im s| <= 50), degrading gracefully beyond.  Arbitrary precision and
|Im s| > 200 are out of scope.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import DivergenceError, OverflowSignal, PoleError, ValidationError

__all__ = [
    "gamma",
    "riemann_zeta",
    "dirichlet_beta",
    "upper_incomplete_gamma",
    "hyp2f1_partial",
]

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# ln(3 + 2*sqrt(2)), convergence rate of the eta acceleration
_ETA_RATE = math.log(3.0 + 2.0 * math.sqrt(2.0))


def _near_nonpositive_integer(s: complex, tol: float = 1e-14) -> bool:
    if abs(s.imag) > tol:
        return False
    r = round(s.real)
    return r <= 0 and abs(s.real - r) <= tol


def gamma(s: complex) -> complex:
    """Complex gamma function.

    Raises PoleError at the nonpositive integers (within 1e-14).
    """
    s = complex(s)
    if _near_nonpositive_integer(s):
        raise PoleError(f"gamma pole at s={s}")
    if s.real < 0.5:
        # Reflection: gamma(s) gamma(1-s) = pi / sin(pi s)
        return math.pi / (cmath.sin(math.pi * s) * gamma(1.0 - s))
    z = s - 1.0
    x = _LANCZOS_COEFFS[0]
    for i, p in enumerate(_LANCZOS_COEFFS[1:], start=1):
        x += p / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


# ---------------------------------------------------------------------------
# Riemann zeta
# ---------------------------------------------------------------------------

_eta_weight_cache: dict[int, tuple[float, ...]] = {}


def _eta_weights(n: int) -> tuple[float, ...]:
    """Chebyshev-based weights d_0..d_n for the accelerated alternating sum."""
    if n in _eta_weight_cache:
        return _eta_weight_cache[n]
    ds = []
    for k in range(n + 1):
        acc = 0
        num = 1  # (n+i-1)! / (n-i)! * 4^i / (2i)! accumulated exactly
        for i in range(k + 1):
            acc += Fraction(
                math.factorial(n + i - 1) * 4**i,
                math.factorial(n - i) * math.factorial(2 * i),
            )
        ds.append(float(n * acc))
    out = tuple(ds)
    _eta_weight_cache[n] = out
    return out


def _eta_terms_needed(im_s: float) -> int:
    # error <= 3/(3+sqrt(8))^n * (1+2|t|) e^(pi |t| / 2); aim below 1e-16
    t = abs(im_s)
    need = (16.0 * math.log(10.0) + 0.5 * math.pi * t + math.log(1.0 + 2.0 * t)) / _ETA_RATE
    return max(24, int(need) + 6)


def _alternating(s: complex, step: int) -> complex:
    """sum over k >= 0 of (-1)^k (step k + 1)^(-s), accelerated: eta(s) for
    step 1, beta(s) for step 2."""
    n = _eta_terms_needed(s.imag)
    d = _eta_weights(n)
    acc = 0.0 + 0.0j
    sign = 1.0
    for k in range(n):
        acc += sign * (d[k] - d[n]) * (step * k + 1) ** (-s)
        sign = -sign
    return -acc / d[n]


_BERNOULLI_MAX = 62


def _bernoulli_table(m_max: int = _BERNOULLI_MAX) -> tuple[float, ...]:
    """B_0..B_m as floats (B_1 = -1/2 convention), computed exactly once."""
    b = [Fraction(1)]
    for m in range(1, m_max + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += Fraction(math.comb(m + 1, k)) * b[k]
        b.append(-acc / (m + 1))
    return tuple(float(x) for x in b)


_BERNOULLI = _bernoulli_table()


def _zeta_euler_maclaurin(s: complex, n_bernoulli: int = 30) -> complex:
    """Euler-Maclaurin evaluation, used near the eta-denominator zeros."""
    big_n = max(25, int(abs(s.imag)) + 10)
    acc = sum(k ** (-s) for k in range(1, big_n))
    acc += big_n ** (1.0 - s) / (s - 1.0)
    acc += 0.5 * big_n ** (-s)
    # correction terms B_{2j}/(2j)! * (s)(s+1)...(s+2j-2) * N^(-s-2j+1)
    rising = 1.0 + 0.0j
    for j in range(1, n_bernoulli + 1):
        if j == 1:
            rising = s
        else:
            rising *= (s + 2 * j - 3) * (s + 2 * j - 2)
        acc += _BERNOULLI[2 * j] / math.factorial(2 * j) * rising * big_n ** (-s - 2 * j + 1)
    return acc


def riemann_zeta(s: complex) -> complex:
    """Riemann zeta on C minus {1}.

    Raises PoleError within 1e-12 of s = 1.
    """
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("zeta pole at s=1")
    if s.real < -0.25:
        # symmetric functional equation; 1 - s lands safely right of the
        # critical strip, away from the eta-denominator zeros on Re = 1
        return (
            2.0**s
            * math.pi ** (s - 1.0)
            * cmath.sin(math.pi * s / 2.0)
            * gamma(1.0 - s)
            * riemann_zeta(1.0 - s)
        )
    if s.real < 0.5:
        # between the reflection region and the accelerated series: the
        # sin(pi s/2) Gamma(1-s) zeta(1-s) product degenerates near s = 0,
        # while Euler-Maclaurin is uniformly fine here
        return _zeta_euler_maclaurin(s)
    denom = 1.0 - 2.0 ** (1.0 - s)
    if abs(denom) < 1e-3:
        # eta transform is singular on the line Re(s)=1 at Im(s) = 2 pi k/ln 2
        return _zeta_euler_maclaurin(s)
    return _alternating(s, 1) / denom


def dirichlet_beta(s: complex) -> complex:
    """Dirichlet beta L(s, chi_4) = sum (-1)^k (2k+1)^(-s), for Re(s) > 0."""
    s = complex(s)
    if s.real <= 0:
        raise ValidationError("dirichlet_beta implemented for Re(s) > 0 only")
    return _alternating(s, 2)


# ---------------------------------------------------------------------------
# Incomplete gamma
# ---------------------------------------------------------------------------

_EULER_GAMMA = 0.5772156649015328606
_EPS = 2.0**-52
# A Lentz step changes the fraction by delta - 1, which cannot resolve below
# an ulp; stopping at a few ulps keeps huge x from stalling.
_CF_TOL = 4.0 * _EPS
# below this, exp underflows to an exact 0 in double precision
_UNDERFLOW = -745.0
# continued-fraction steps and series terms before a stall is reported
_MAX_ITER = 500


def _near_poles(s: np.ndarray, tol: float) -> np.ndarray:
    """Per element of s: within ``tol`` of a nonpositive integer."""
    r = np.round(s.real)
    return (np.abs(s.imag) <= tol) & (r <= 0) & (np.abs(s.real - r) <= tol)


def _prefactor(s, x: np.ndarray) -> np.ndarray:
    """x^s e^(-x) with overflow detection."""
    w = s * np.log(x) - x
    over = w.real > 700.0
    if np.any(over):
        i = int(np.argmax(over))
        raise OverflowSignal(f"x^s exp(-x) overflows at s={complex(np.broadcast_to(s, x.shape)[i])}, x={float(x[i])}")
    return np.exp(w)


def _upper_gamma_cf(s, x: np.ndarray) -> np.ndarray:
    """Gamma(s, x) by the modified Lentz continued fraction; converges for
    every x > 0, in few steps once x passes |s|.  ``s`` broadcasts against x.

    Each element stops taking steps once its own step is within a few ulps
    of 1.  Where x^s e^(-x) underflows the exact 0 is returned without
    iterating.
    """
    s = np.broadcast_to(s, x.shape)
    out = np.zeros(x.shape, complex)
    live = (s * np.log(x) - x).real >= _UNDERFLOW
    s, x = s[live], x[live]
    if x.size == 0:
        return out
    pre = _prefactor(s, x)
    b = x + (1.0 - s)
    c = np.full(x.shape, 1e300 + 0j)
    d = 1.0 / b
    h = d.copy()
    an = np.empty(x.shape, complex)
    todo = np.ones(x.shape, bool)
    dev = np.empty(x.shape)
    for i in range(1, _MAX_ITER + 1):
        np.subtract(i, s, out=an)
        an *= -i
        b += 2.0
        d *= an
        d += b
        np.reciprocal(d, out=d)
        np.divide(an, c, out=c)
        c += b
        delta = d * c
        np.multiply(h, delta, out=h, where=todo)
        delta -= 1.0
        np.abs(delta, out=dev)
        todo &= dev > _CF_TOL
        if not todo.any():
            break
    else:
        k = int(np.argmax(todo))
        raise DivergenceError(f"incomplete-gamma continued fraction stalled at s={complex(s[k])}, x={float(x[k])}")
    if not np.all(np.isfinite(h)):
        raise DivergenceError("incomplete-gamma continued fraction hit a zero denominator")
    out[live] = pre * h
    return out


def _lower_series(s, x: np.ndarray) -> np.ndarray:
    """gamma(s, x) = x^s e^(-x) sum x^n / (s (s+1) ... (s+n)), ``s``
    broadcast against x.

    Every eighth term each element checks whether its last term is below
    1e-17 of its sum; from then on its sum stays as it is, so it ends where
    a one-element call ends.
    """
    s = np.broadcast_to(s, x.shape)
    # rounds as Python's complex 1.0 / s; numpy's 1.0 / s differs in the
    # last bit for about a quarter of s
    term = np.reciprocal(s)
    acc = term.copy()
    todo = np.ones(x.shape, bool)
    for n in range(1, _MAX_ITER + 1):
        term *= x
        term /= s + n
        np.add(acc, term, out=acc, where=todo)
        if n % 8 == 0:
            todo &= np.abs(term) >= 1e-17 * np.abs(acc)
            if not todo.any():
                return _prefactor(s, x) * acc
    k = int(np.argmax(todo))
    raise DivergenceError(f"lower incomplete gamma series stalled at s={complex(s[k])}, x={float(x[k])}")


def _exp_integral_e1(x: np.ndarray) -> np.ndarray:
    """E_1(x) = Gamma(0, x) for real x > 0."""
    out = np.empty(x.shape, complex)
    far = x >= 2.0
    out[far] = _upper_gamma_cf(0j, x[far])
    near = x[~far]
    acc = -_EULER_GAMMA - np.log(near)
    term = -np.ones_like(near)
    for k in range(1, 60):
        term *= -near / k  # (-1)^(k+1) x^k / k!
        acc += term / k
    out[~far] = acc
    return out


def upper_incomplete_gamma(s, x):
    """Gamma(s, x) = integral_x^inf t^(s-1) e^(-t) dt for real x > 0, complex s.

    ``s`` (complex) and ``x`` (real) are scalars or arrays that broadcast
    against each other; two scalars give a complex, anything else a complex
    array of the broadcast shape.  Every element takes the branch, the shift
    and the number of steps of its own one-element call.

    Branch selection, per element: continued fraction for x >= |s| + 2,
    and for Re s <= 1/2 already from x >= max(|s|, 1); ascending series
    otherwise.  The series route evaluates Gamma(s + m, x) with
    Re(s + m) > 1/2 (Gamma(s + m) once per distinct value) and recurses down
    m steps with Gamma(a - 1, x) = (Gamma(a, x) - x^(a-1) e^(-x)) / (a - 1);
    within 1e-12 of a nonpositive integer -m the anchor is
    Gamma(0, x) = E_1(x).  The recurrence cancels once x passes |s|, by up
    to 1.4e3 ulps at x = 2 where the fraction stays within about 60.
    """
    try:
        sa, xa = np.broadcast_arrays(np.asarray(s, dtype=complex), np.asarray(x, dtype=float))
    except ValueError:
        raise ValidationError(
            f"upper_incomplete_gamma: s of shape {np.shape(s)} does not broadcast against x of shape {np.shape(x)}"
        ) from None
    if not np.all(xa > 0):
        raise ValidationError("upper_incomplete_gamma requires x > 0")
    sf, xf = sa.reshape(-1), xa.reshape(-1)
    out = np.empty(xf.shape, complex)
    size = np.abs(sf)
    cf = np.where(sf.real > 0.5, xf >= size + 2.0, xf >= np.maximum(size, 1.0))
    out[cf] = _upper_gamma_cf(sf[cf], xf[cf])
    if not cf.all():
        sn, xn = sf[~cf], xf[~cf]
        pole = _near_poles(sn, 1e-12)
        # divisors stay away from 0: off the poles s is not near a nonpositive integer
        m = np.where(pole, -np.round(sn.real), np.where(sn.real > 0.5, 0.0, np.ceil(0.5 - sn.real) + 1.0))
        m = m.astype(np.int64)
        base = np.where(pole, -m, sn)
        g = np.empty(xn.shape, complex)
        if pole.any():
            g[pole] = _exp_integral_e1(xn[pole])
        if not pole.all():
            shifted = sn[~pole] + m[~pole]
            values, which = np.unique(shifted, return_inverse=True)
            full = np.array([gamma(complex(v)) for v in values])
            g[~pole] = full[which] - _lower_series(shifted, xn[~pole])
        for j in range(int(m.max()), 0, -1):
            k = m >= j
            a = base[k] + (j - 1)
            g[k] = (g[k] - _prefactor(a, xn[k])) / a
        out[~cf] = g
    return complex(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


# ---------------------------------------------------------------------------
# Gauss hypergeometric partial sums
# ---------------------------------------------------------------------------


def hyp2f1_partial(
    a: complex, b: complex, c: complex, z: complex, n_terms: int
) -> tuple[complex, float]:
    """Partial sum of 2F1(a, b; c; z) with a geometric tail estimate.

    Returns (value, tail_estimate).  Requires |z| < 1 and n_terms >= 1; c must
    not hit a nonpositive integer within the summation range.
    """
    if n_terms < 1:
        raise ValidationError("n_terms must be >= 1")
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValidationError("hyp2f1_partial requires |z| < 1")
    a, b, c = complex(a), complex(b), complex(c)
    acc = 1.0 + 0.0j
    term = 1.0 + 0.0j
    ratio = 0.0
    bad_ratio_streak = 0
    for n in range(n_terms - 1):
        cn = c + n
        if _near_nonpositive_integer(cn, tol=1e-14):
            raise PoleError(f"2F1 parameter c hits nonpositive integer at term {n}")
        step = (a + n) * (b + n) / (cn * (n + 1)) * z
        term *= step
        acc += term
        ratio = abs(step)
        if ratio >= 1.0:
            bad_ratio_streak += 1
            if bad_ratio_streak >= 8:
                raise DivergenceError("2F1 series terms not decreasing")
        else:
            bad_ratio_streak = 0
    if ratio < 1.0:
        tail = abs(term) * ratio / (1.0 - ratio)
    else:
        tail = math.inf
    return acc, tail
