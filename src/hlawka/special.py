"""Complex special functions used by the zeta and identity-check modules.

Everything here is pure and scalar-complex, except that the incomplete
gamma takes arrays of (s, x) pairs:

* ``gamma`` -- Lanczos approximation (g=7, 9 terms) with reflection for
  Re(s) < 1/2.  Relative error is ~1e-13 for moderate arguments.
* ``riemann_zeta`` and ``dirichlet_beta`` -- one Euler-Maclaurin routine,
  ``_hurwitz``, for signed sums of Hurwitz zeta values: zeta(s) = zeta(s, 1)
  and beta(s) = 4^(-s) (zeta(s, 1/4) - zeta(s, 3/4)), stopped by Johansson's
  remainder bound.  Left of Re s = 0 each reflects by its functional
  equation (zeta not within 0.05 of s = 0), as gamma does left of 1/2.
* ``upper_incomplete_gamma`` -- Lentz continued fraction for large x
  (exact 0 where x^s e^(-x) underflows), lower series otherwise, downward
  recurrence near the poles of Gamma(s).  Each branch is one array routine
  over the (s, x) pairs that take it, run by term tables rather than one
  numpy call per term: the fraction takes its steps eight at a time for
  all pairs, the series 64 terms at a time, and each element reads its
  value at its own stop from a cumprod of the table.  A scalar pair is an
  array of one.  The lower incomplete gamma is only its series branch,
  ``_lower_series``, and is not exported.  Its pole anchor Gamma(0, x) =
  E_1(x) is ``_exp_integral_e1``, which also takes complex z off the cut
  (-inf, 0]: the Perron integrals of ``funceq`` take it per spectral line.
* ``hyp2f1`` -- the Gauss series for |z| < 1 with a bound on its error: a
  tail bound proven from the term ratio, whose factors peak at the current
  index or in the limit, plus a rounding term in ulps of sum |t_n|.  It
  sums the ellipse's Fourier coefficients; a fixed term cap raises
  DivergenceError.

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
    "hyp2f1",
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

def _near_nonpositive_integer(s: complex, tol: float = 1e-14) -> bool:
    if abs(s.imag) > tol:
        return False
    r = round(s.real)
    return r <= 0 and abs(s.real - r) <= tol


def _sin_pi(x: complex) -> complex:
    """sin(pi x) = (-1)^k sin(pi (x - k)), k the nearest integer: x - k is
    exact, so the reflections keep their accuracy next to the zeros x = k."""
    k = round(x.real)
    value = cmath.sin(math.pi * (x - k))
    return -value if k % 2 else value


def gamma(s: complex) -> complex:
    """Complex gamma function.

    Raises PoleError at the nonpositive integers (within 1e-14).
    """
    s = complex(s)
    if _near_nonpositive_integer(s):
        raise PoleError(f"gamma pole at s={s}")
    if s.real < 0.5:
        # Reflection: gamma(s) gamma(1-s) = pi / sin(pi s)
        return math.pi / (_sin_pi(s) * gamma(1.0 - s))
    z = s - 1.0
    x = _LANCZOS_COEFFS[0]
    for i, p in enumerate(_LANCZOS_COEFFS[1:], start=1):
        x += p / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


# ---------------------------------------------------------------------------
# Riemann zeta and Dirichlet beta
# ---------------------------------------------------------------------------

_EPS = 2.0**-52
# Euler-Maclaurin corrections available before the number of terms doubles
_EM_CORRECTIONS = 31


def _bernoulli_table() -> tuple[float, ...]:
    """B_2j / (2j)! for j = 0..31, each rounded once from the exact d_j =
    4^j B_2j / (2j)!, which (x/2) coth(x/2) = sum B_2j x^2j / (2j)! gives as
    d_m = 1/(2m)! - sum_(j<m) d_j / (2m-2j+1)!."""
    d: list[Fraction] = []
    for m in range(_EM_CORRECTIONS + 1):
        tail = sum(dj / math.factorial(2 * (m - j) + 1) for j, dj in enumerate(d))
        d.append(Fraction(1, math.factorial(2 * m)) - tail)
    return tuple(float(dj / 4**j) for j, dj in enumerate(d))


_BERNOULLI = _bernoulli_table()


def _phi1(z: complex) -> complex:
    """(e^z - 1) / z, with e^z - 1 written so that nothing cancels near 0."""
    if z == 0:
        return 1.0 + 0.0j
    x, y = z.real, z.imag
    half = math.sin(0.5 * y)
    return complex(math.expm1(x) * math.cos(y) - 2.0 * half * half, math.exp(x) * math.sin(y)) / z


def _hurwitz(s: complex, q: int, offsets: tuple[int, ...]) -> complex:
    """sum_i (-1)^i q^(-s) zeta(s, b_i / q) = sum_i (-1)^i sum_(k >= 0) (q k + b_i)^(-s)
    over the integers b_i of ``offsets`` (one or two), for Re s > -1.

    Euler-Maclaurin with N terms per offset, N starting at |s|/2 + 10, then
    the terms at X_i = q N + b_i: X_i^(1-s) / (q (s - 1)), X_i^(-s) / 2 and
    up to 31 corrections B_2j / (2j)! (s)_(2j-1) (q / X_i)^(2j-1) X_i^(-s).
    It stops at the first M where Johansson's remainder bound
    4 |(s)_2M| (N + a)^(-sigma-2M+1) / ((2 pi)^2M (sigma + 2M - 1)), times
    q^(-sigma) per offset, falls below the rounding of the sum, and doubles
    N if 31 corrections are not enough (F. Johansson, Numer. Algorithms 69,
    2015).  The pole terms of a pair combine as
    X_0^(1-s) Delta phi_1((1-s) Delta) / q, Delta = log(X_1 / X_0), so nothing
    divides by s - 1 when the signs cancel.
    """
    sigma = s.real
    signs = (1.0, -1.0)[: len(offsets)]
    n = int(abs(s) / 2.0) + 10
    while True:
        xs = [q * n + b for b in offsets]
        pole = xs[0] ** (1.0 - s) / q
        if len(xs) == 1:
            pole /= s - 1.0
        else:
            delta = math.log1p((xs[1] - xs[0]) / xs[0])
            pole *= delta * _phi1((1.0 - s) * delta)
        acc, mass = pole, abs(pole)
        powers = []
        for c, b, x in zip(signs, offsets, xs):
            terms = [(q * k + b) ** -s for k in range(n)]
            terms.append(0.5 * x**-s)
            acc += c * sum(terms)
            mass += sum(map(abs, terms))
            powers.append(2.0 * c * terms[-1] * q / x)
        ratios = [(q / x) ** 2 for x in xs]
        # the remainder bound over (s)_2M, for the smallest a
        scale = 4.0 * len(xs) * q**-sigma * (xs[0] / q) ** (1.0 - sigma)
        rising = s
        for j in range(1, _EM_CORRECTIONS + 1):
            corr = _BERNOULLI[j] * rising * sum(powers)
            acc += corr
            mass += abs(corr)
            rising *= s + (2 * j - 1)
            scale *= (q / (2.0 * math.pi * xs[0])) ** 2
            if scale * abs(rising) / (sigma + 2 * j - 1) <= _EPS * mass:
                return acc
            rising *= s + 2 * j
            powers = [p * r for p, r in zip(powers, ratios)]
        n *= 2


def riemann_zeta(s: complex) -> complex:
    """Riemann zeta on C minus {1}: zeta(s, 1) by ``_hurwitz``, and the
    symmetric functional equation for Re s < 0, where the terms k^(-s) grow
    and cancel against the pole term.  Within 0.05 of s = 0 ``_hurwitz``
    stays: there 1 - s rounds next to the pole of zeta(1 - s).

    Raises PoleError within 1e-12 of s = 1.
    """
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("zeta pole at s=1")
    if s.real < 0.0 and abs(s) >= 0.05:
        chi = 2.0**s * math.pi ** (s - 1.0) * _sin_pi(s / 2.0) * gamma(1.0 - s)
        return chi * riemann_zeta(1.0 - s)
    return _hurwitz(s, 1, (1,))


def dirichlet_beta(s: complex) -> complex:
    """Dirichlet beta L(s, chi_4) = sum (-1)^k (2k+1)^(-s) on the whole
    plane: 4^(-s) (zeta(s, 1/4) - zeta(s, 3/4)) by ``_hurwitz`` (beta(1) =
    pi/4 with no division by s - 1), and for Re s < 0 the functional equation
    beta(s) = (pi/2)^(s-1) sin(pi (s+1)/2) Gamma(1-s) beta(1-s)."""
    s = complex(s)
    if s.real < 0.0:
        chi = (0.5 * math.pi) ** (s - 1.0) * _sin_pi((s + 1.0) / 2.0) * gamma(1.0 - s)
        return chi * dirichlet_beta(1.0 - s)
    return _hurwitz(s, 4, (1, 3))


# ---------------------------------------------------------------------------
# Incomplete gamma
# ---------------------------------------------------------------------------

_EULER_GAMMA = 0.5772156649015328606
# A Lentz step changes the fraction by delta - 1, which cannot resolve below
# an ulp; stopping at a few ulps keeps huge x from stalling.
_CF_TOL = 4.0 * _EPS
# below this, exp underflows to an exact 0 in double precision
_UNDERFLOW = -745.0
# continued-fraction steps and series terms before a stall is reported
_MAX_ITER = 500
# continued-fraction steps per block, and series terms per block
_CF_BLOCK = 8
_SERIES_BLOCK = 64


def _near_poles(s: np.ndarray, tol: float) -> np.ndarray:
    """Per element of s: within ``tol`` of a nonpositive integer."""
    r = np.round(s.real)
    return (np.abs(s.imag) <= tol) & (r <= 0) & (np.abs(s.real - r) <= tol)


def _prefactor(s, x: np.ndarray) -> np.ndarray:
    """x^s e^(-x) with overflow detection; s and x broadcast."""
    w = s * np.log(x) - x
    over = w.real > 700.0
    if np.any(over):
        i = int(np.argmax(over))
        sb, xb = np.broadcast_arrays(s, x)
        raise OverflowSignal(f"x^s exp(-x) overflows at s={complex(sb.flat[i])}, x={xb.flat[i]}")
    return np.exp(w)


def _upper_gamma_cf(s, x: np.ndarray) -> np.ndarray:
    """Gamma(s, x) by the modified Lentz continued fraction; converges for
    every x > 0, in few steps once x passes |s|.  ``s`` broadcasts against x.

    Lentz's C_i and 1/d_i follow the same map w -> b_i + a_i / w, from 1e300
    and b_0, so they step side by side as the two rows of one array.  All
    elements take the steps together, eight at a time, with the rows of
    a_i = -i (i - s) and b_i = x + 1 - s + 2i computed before each block
    and broadcast over both, and the steps' factors
    delta_i = d_i C_i go into a (steps x elements) table.  An element stops
    at its first step with delta_i within a few ulps of 1, and its value is
    h_0 delta_1 ... delta_k, multiplied in that order (a cumprod down the
    table).  Where x^s e^(-x) underflows the exact 0 is returned without
    iterating.
    """
    s = np.broadcast_to(s, x.shape)
    out = np.zeros(x.shape, complex)
    live = (s * np.log(x) - x).real >= _UNDERFLOW
    s, x = s[live], x[live]
    size = x.size
    if size == 0:
        return out
    pre = _prefactor(s, x)
    b0 = x + (1.0 - s)
    w = np.stack([np.full(size, 1e300 + 0j), b0])  # C_i and 1/d_i
    blocks = [np.reciprocal(b0)[None]]  # h_0, then the deltas
    stops = []
    done = np.zeros(size, bool)
    for first in range(1, _MAX_ITER + 1, _CF_BLOCK):
        i = np.arange(first, min(first + _CF_BLOCK, _MAX_ITER + 1), dtype=complex)[:, None]
        a = (i - s) * -i
        b = b0 + 2.0 * i
        table = np.empty((len(i), 2, size), complex)
        for row, ai, bi in zip(table, a, b):
            np.divide(ai, w, out=row)
            row += bi
            w = row
        deltas = table[:, 0] / table[:, 1]
        # a NaN step (a zero denominator) stops its element too; the
        # isfinite test below reports it
        stop = ~(np.abs(deltas - 1.0) > _CF_TOL)
        blocks.append(deltas)
        stops.append(stop)
        done |= stop.any(axis=0)
        if done.all():
            break
    else:
        k = int(np.argmax(~done))
        raise DivergenceError(f"incomplete-gamma continued fraction stalled at s={complex(s[k])}, x={x[k]}")
    steps = np.argmax(np.concatenate(stops), axis=0) + 1
    h = np.cumprod(np.concatenate(blocks)[: steps.max() + 1], axis=0)[steps, np.arange(size)]
    if not np.all(np.isfinite(h)):
        raise DivergenceError("incomplete-gamma continued fraction hit a zero denominator")
    out[live] = pre * h
    return out


def _lower_series(s, x: np.ndarray) -> np.ndarray:
    """gamma(s, x) = x^s e^(-x) sum x^n / (s (s+1) ... (s+n)), ``s``
    broadcast against x.

    The terms come in blocks of 64: an (elements x terms) table of the
    ratios x / (s+n), whose cumprod along each row, started from the last
    term, gives the terms, and whose cumsum, started from the last sum,
    gives the running sums.  Each element stops at the first multiple of 8
    where its term is below 1e-17 of its sum and reads its sum there, so it
    ends where a one-element call ends; the others take the next block.
    """
    s = np.broadcast_to(s, x.shape)
    acc = np.empty(x.shape, complex)
    todo = np.arange(x.size)
    # rounds as Python's complex 1.0 / s; numpy's 1.0 / s differs in the
    # last bit for about a quarter of s
    term = np.reciprocal(s)
    total = term.copy()
    # blocks start one past a multiple of 8, so columns 8, 16, ... hold the tested terms
    for first in range(1, _MAX_ITER + 1, _SERIES_BLOCK):
        n = np.arange(first, min(first + _SERIES_BLOCK, _MAX_ITER + 1))
        terms = np.empty((todo.size, n.size + 1), complex)
        terms[:, 0] = term
        np.divide(x[todo, None], s[todo, None] + n, out=terms[:, 1:])
        np.cumprod(terms, axis=1, out=terms)
        sums = terms.copy()
        sums[:, 0] = total
        np.cumsum(sums, axis=1, out=sums)
        stop = ~(np.abs(terms[:, 8::8]) >= 1e-17 * np.abs(sums[:, 8::8]))
        hit = stop.any(axis=1)
        rows = np.flatnonzero(hit)
        if rows.size:
            acc[todo[rows]] = sums[rows, 8 * np.argmax(stop[rows], axis=1) + 8]
        if rows.size == todo.size:
            return _prefactor(s, x) * acc
        todo, term, total = todo[~hit], terms[~hit, -1], sums[~hit, -1]
    k = int(todo[0])
    raise DivergenceError(f"lower incomplete gamma series stalled at s={complex(s[k])}, x={float(x[k])}")


def _exp_integral_e1(z: np.ndarray) -> np.ndarray:
    """E_1(z) = Gamma(0, z) on the plane cut along (-inf, 0] (principal
    branch), for a real array of z > 0 or a complex array off the cut; a
    complex z on the cut is a ValidationError.

    The continued fraction (``_upper_gamma_cf``) where |z| >= 2 and
    |z| + Re z >= 3, or |z| >= 50; the ascending series
    -gamma - log z + sum_(k >= 1) (-1)^(k+1) z^k / (k k!) (DLMF 6.6.2)
    elsewhere.  Near the cut the fraction stalls (at |z| = 2 it needs about
    0.8 rad of clearance, at |z| = 20 about 0.1), while the terms of the
    series, (-z)^k / (k k!) with -z near the positive axis, share a sign;
    |z| + Re z < 3 bounds the cancellation of the series by e^3, and below
    |z| = 2 by e^4.  From |z| = 50 on the fraction converges in a few steps
    at any angle, to a few ulps of |E_1|.  The series runs in blocks of 64
    terms; an element stops at the end of the first block whose last term
    is below 1e-17 of its sum (each later term is then below half an ulp of
    it).  For real z the branches are z >= 2 and z < 2, and a real z < 2
    stops at the end of the first block, whose terms past the 59th fall
    below half an ulp of the sum: its value is the 59-term sum's, bit for
    bit, which the pole anchor of ``upper_incomplete_gamma`` relies on.
    Raises DivergenceError where a branch does not converge
    within ``_MAX_ITER`` steps or terms, and OverflowSignal where e^(-z)
    overflows.
    """
    if np.any((z.imag == 0.0) & ~(z.real > 0.0)):
        raise ValidationError("E_1(z) needs z off the cut (-inf, 0]")
    size = np.abs(z)
    far = (size >= 2.0) & ((size + z.real >= 3.0) | (size >= 50.0))
    out = np.empty(z.shape, complex)
    out[far] = _upper_gamma_cf(0j, z[far])
    near, near_size = z[~far], size[~far]
    todo = np.arange(near.size)
    # (-1)^(k+1) z^k / k! from k = 0, and the sum after -gamma - log z
    power = np.full(near.size, -1.0, near.dtype)
    total = -_EULER_GAMMA - np.log(near)
    acc = np.empty(near.size, near.dtype)
    for first in range(1, _MAX_ITER + 1, _SERIES_BLOCK):
        k = np.arange(first, min(first + _SERIES_BLOCK, _MAX_ITER + 1))
        terms = np.empty((todo.size, k.size + 1), near.dtype)
        terms[:, 0] = power
        terms[:, 1:] = -near[todo, None] / k
        np.cumprod(terms, axis=1, out=terms)
        power = terms[:, -1].copy()
        terms[:, 1:] /= k
        last = np.abs(terms[:, -1])
        terms[:, 0] = total
        total = np.cumsum(terms, axis=1)[:, -1]
        # past k = |z| the terms fall
        hit = (last < 1e-17 * np.abs(total)) & (near_size[todo] < k[-1])
        acc[todo[hit]] = total[hit]
        if hit.all():
            out[~far] = acc
            return out
        todo, power, total = todo[~hit], power[~hit], total[~hit]
    raise DivergenceError(f"E_1 series stalled at z={near[todo[0]]}")


def upper_incomplete_gamma(s, x):
    """Gamma(s, x) = integral_x^inf t^(s-1) e^(-t) dt for real x > 0, complex s.

    ``s`` (complex) and ``x`` (real) are scalars or arrays that broadcast
    against each other; two scalars give a complex, anything else a complex
    array of the broadcast shape.  Every element takes the branch, the shift
    and the number of steps of its own one-element call, and agrees with
    that call to a few ulps (numpy rounds some complex operations on longer
    arrays differently in the last bit), not bit for bit.

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
    cf = xf >= np.where(sf.real > 0.5, size + 2.0, np.maximum(size, 1.0))
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
            values = shifted.tolist()
            full = {v: gamma(v) for v in set(values)}
            g[~pole] = np.array([full[v] for v in values]) - _lower_series(shifted, xn[~pole])
        top = int(m.max())
        if top:
            # step j of the recurrence divides by a = base + j - 1; every
            # x^a e^(-x) an element needs in one table, 0 standing in for
            # the a it does not reach
            a = base[:, None] + np.arange(top)
            used = m[:, None] > np.arange(top)
            pre = _prefactor(np.where(used, a, 0.0), xn[:, None])
            for j in range(top, 0, -1):
                np.subtract(g, pre[:, j - 1], out=g, where=used[:, j - 1])
                np.divide(g, a[:, j - 1], out=g, where=used[:, j - 1])
        out[~cf] = g
    return complex(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


# ---------------------------------------------------------------------------
# Gauss hypergeometric series
# ---------------------------------------------------------------------------

# terms of the Gauss series before a DivergenceError
_HYP2F1_TERMS = 1 << 16


def hyp2f1(a: complex, b: complex, c: complex, z: complex) -> tuple[complex, float]:
    """(2F1(a, b; c; z), error bound) for |z| < 1, by the Gauss series
    sum t_n, t_0 = 1, t_(n+1) = t_n (a+n)(b+n) z / ((c+n)(n+1)) (DLMF 15.2.1).

    Tail.  Past n, with n + Re c > 0, the term ratio is |z| f(m) g(m), where
    f(m)^2 = |a+m|^2 / (m+1)^2 = (1 + (Re a - 1) u)^2 + (Im a u)^2 at
    u = 1/(m+1), and g(m)^2 = |b+m|^2 / |c+m|^2 is at most
    (1 + (Re b - Re c) v)^2 + (Im b v)^2 at v = 1/(m + Re c).  Both are
    convex in u and v, which fall monotonically to 0 as m grows, so over
    m >= n each factor peaks at m = n or in the limit, where it is 1: every
    ratio past t_n is at most
    rho_n = |z| max(1, |a+n| / (n+1)) max(1, |b+n| / (n + Re c)),
    and once rho_n < 1 the terms past t_n add up to at most
    |t_n| rho_n / (1 - rho_n).  rho_n never rises with n, so it is
    refreshed only every 16 terms: a stale value still bounds the ratios.

    Rounding.  A step rounds t_(n+1) by at most about 15 ulps of 2^-53
    (three sums, three complex products, a product by n + 1 and a
    quotient), and the running sum adds one, so after n steps the rounding
    is at most 8 n 2^-52 sum |t_k| to first order.  The sum stops at the
    first n where the tail bound falls below 2^-52 sum |t_k|, and the bound
    returned is the tail bound plus that rounding; cancellation
    (sum |t_k| >> |2F1|) shows in it.

    Raises ValidationError for |z| >= 1, PoleError where c is within 1e-14
    of a nonpositive integer, and DivergenceError when the terms overflow or
    ``_HYP2F1_TERMS`` terms are not enough.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    size = abs(z)
    if not size < 1.0:
        raise ValidationError("hyp2f1 requires |z| < 1")
    if _near_nonpositive_integer(c):
        raise PoleError(f"2F1 parameter c = {c} is a nonpositive integer")
    term = acc = 1.0 + 0.0j
    mass, rho = 0.0, math.inf
    for n in range(_HYP2F1_TERMS):
        an, bn, cn = a + n, b + n, c + n
        if n % 16 == 0 and cn.real > 0.0:
            rho = size * max(1.0, abs(an) / (n + 1)) * max(1.0, abs(bn) / cn.real)
        last = abs(term)
        mass += last
        if last == 0.0 or rho < 1.0 and last * rho <= (1.0 - rho) * _EPS * mass:
            break
        term *= an * bn * z / (cn * (n + 1))
        acc += term
    else:
        raise DivergenceError(f"2F1 series needs more than {_HYP2F1_TERMS} terms at z={z}")
    if not math.isfinite(mass):
        raise DivergenceError(f"2F1 series terms overflow at a={a}, b={b}, c={c}, z={z}")
    tail = last * rho / (1.0 - rho) if last else 0.0
    return acc, tail + 8 * n * _EPS * mass
