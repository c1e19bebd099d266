"""Reference values and output checks, independent of the timed code path.

Everything here is computed by the benchmark itself, with mpmath or with
exact integer arithmetic, never by calling ``hlawka``:

* closed forms: ``4 zeta(s) beta(s)`` (square form, circles),
  ``6 zeta(s) L(s, chi_-3)`` (hexagonal form), ``8 zeta(2s-1)`` (square and
  the seven-segment "odd" shape), ``E(i, s)`` and ``E(rho, s)``;
* Epstein zeta values of arbitrary positive forms, by Gauss reduction to an
  equivalent reduced form followed by theta splitting in mpmath, with the
  Gaussian cutoff taken over the whole ellipse ``pi Q <= X`` (no ring
  heuristics);
* twisted components ``T_q(s)`` and cosine-series shapes, read from
  ``refs.json`` (written once by ``make_refs.py`` from the same mpmath
  routines);
* exact lattice counts and dilation-time multisets for spectra;
* disc-truncated sums by plain numpy, to check the truncated kinds' values
  themselves rather than only their distance to the infinite sum.

``TOLERANCES`` is the per-kind gate: a job fails when it misses its oracle by
more than ``rel * |oracle| + bar * error_estimate + abs``.  Separately, a job
with an oracle and a printed ``error_estimate`` is a bound violation when its
true error exceeds that estimate plus the oracle's own uncertainty.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np

REFS_PATH = Path(__file__).with_name("refs.json")

# kind -> (rel, bar, abs).  Truncated sums may miss their oracle by their own
# error bar, so they fail only beyond 4x that bar.  Continuations claim
# ~1e-14 relative; a miss beyond 1e-4 relative is counted as a wrong value,
# anything between their claim and that is reported as a bound violation.
TOLERANCES = {
    "zeta-direct": (1e-9, 4.0, 1e-12),
    "epstein-direct": (1e-9, 4.0, 1e-12),
    "eisenstein-truncated": (1e-9, 4.0, 1e-9),
    "reconstruct-truncated": (1e-9, 4.0, 1e-12),
    "zeta-spectrum": (1e-9, 4.0, 1e-12),
    "epstein-continued": (1e-4, 0.0, 1e-300),
    "epstein-lambda": (1e-4, 0.0, 1e-300),
    "eisenstein-z": (1e-4, 0.0, 1e-300),
    "eisenstein-continued": (1e-4, 0.0, 1e-300),
    "reconstruct-continued": (1e-4, 0.0, 1e-300),
    "residue": (1e-6, 0.0, 0.0),
    # exact kinds: spectra as multisets of dilation times (relative 1e-8 per
    # value, exact multiplicities), counts exactly, Perron recovery within
    # the truncated-Perron error bound (jobs.Spectra._perron_bound) plus
    # 1e-3 for the lobe-wise quadrature
    "spectrum": (1e-8, 0.0, 0.0),
    "count": (0.0, 0.0, 0.0),
    "perron": (0.0, 0.0, 1e-3),
    "verify": (0.0, 0.0, 0.0),
}

def _dps(s: complex) -> int:
    # the completed functions carry Gamma(s) ~ exp(-pi |Im s| / 2); theta
    # splitting cancels that many digits, so carry them as guard digits
    return 25 + int(0.7 * abs(s.imag)) + 1


def _mpc(s: complex):
    return mp.mpc(s.real, s.imag)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def identity_epstein(s: complex) -> complex:
    """sum' (m^2 + n^2)^(-s) = 4 zeta(s) beta(s)."""
    with mp.workdps(_dps(s)):
        z = _mpc(s)
        return complex(4 * mp.zeta(z) * mp.dirichlet(z, [0, 1, 0, -1]))


def hex_epstein(s: complex) -> complex:
    """sum' (m^2 + m n + n^2)^(-s) = 6 zeta(s) L(s, chi_-3)."""
    with mp.workdps(_dps(s)):
        z = _mpc(s)
        return complex(6 * mp.zeta(z) * mp.dirichlet(z, [0, 1, -1]))


def square_zeta(s: complex) -> complex:
    """Z of the square (and of the odd shape): 8 zeta(2s - 1)."""
    with mp.workdps(_dps(s)):
        return complex(8 * mp.zeta(2 * _mpc(s) - 1))


def eisenstein_i(s: complex) -> complex:
    """E(i, s), half-coprime normalization: E_I(s) / (2 zeta(2s))."""
    with mp.workdps(_dps(s)):
        z = _mpc(s)
        return complex(2 * mp.zeta(z) * mp.dirichlet(z, [0, 1, 0, -1]) / mp.zeta(2 * z))


def eisenstein_rho(s: complex) -> complex:
    """E(rho, s) = (sqrt(3)/2)^s 6 zeta(s) L(s, chi_-3) / (2 zeta(2s))."""
    with mp.workdps(_dps(s)):
        z = _mpc(s)
        val = (mp.sqrt(3) / 2) ** z * 3 * mp.zeta(z) * mp.dirichlet(z, [0, 1, -1]) / mp.zeta(2 * z)
        return complex(val)


def completed(value: complex, s: complex) -> complex:
    """Lambda = pi^(-s) Gamma(s) E."""
    with mp.workdps(_dps(s)):
        z = _mpc(s)
        return complex(mp.power(mp.pi, -z) * mp.gamma(z) * mp.mpc(value.real, value.imag))


# ---------------------------------------------------------------------------
# Epstein zeta of a general positive form by reduction + theta splitting
# ---------------------------------------------------------------------------


def gauss_reduce(a, b, c):
    """Reduce Q = a m^2 + 2 b m n + c n^2 to |2b| <= a <= c (GL(2,Z) moves)."""
    for _ in range(10000):
        k = mp.nint(b / a)
        if k:
            b, c = b - k * a, c - 2 * k * b + k * k * a
        if c < a:
            a, c = c, a
            continue
        if abs(2 * b) <= a:
            return a, b, c
    raise RuntimeError("Gauss reduction did not terminate")


def _theta_half(a, b, c, s, x_cut):
    """sum over x != 0 with pi Q(x) <= x_cut of (pi Q)^(-s) Gamma(s, pi Q)."""
    lam = ((a + c) - mp.sqrt((a - c) ** 2 + 4 * b * b)) / 2
    bound = int(mp.ceil(mp.sqrt(x_cut / (mp.pi * lam)))) + 1
    acc = mp.mpc(0)
    for m in range(0, bound + 1):
        for n in range(-bound, bound + 1):
            if m == 0 and n <= 0:
                continue  # Q(-x) = Q(x): sum one half and double
            x = mp.pi * (a * m * m + 2 * b * m * n + c * n * n)
            if x > x_cut:
                continue
            acc += mp.power(x, -s) * mp.gammainc(s, x)
    return 2 * acc


def epstein(u11: float, u12: float, u22: float, s: complex, digits: int = 18) -> complex:
    """sum' (u11 m^2 + 2 u12 m n + u22 n^2)^(-s), any s off {1} and Gamma poles.

    ``digits`` is the relative accuracy aimed at; the Gaussian cutoff and the
    working precision follow from it and from the Gamma(s) cancellation.
    """
    with mp.workdps(digits + 2 + int(0.7 * abs(s.imag))):
        z = _mpc(s)
        a, b, c = gauss_reduce(mp.mpf(u11), mp.mpf(u12), mp.mpf(u22))
        root = mp.sqrt(a * c - b * b)
        a, b, c = a / root, b / root, c / root  # determinant one
        x_cut = digits * math.log(10) + 1.6 * abs(s.imag) + 2 * abs(s.real) + 4
        lam = (
            -1 / z - 1 / (1 - z)
            + _theta_half(a, b, c, z, x_cut)
            + _theta_half(c, -b, a, 1 - z, x_cut)
        )
        e1 = lam / (mp.power(mp.pi, -z) * mp.gamma(z))
        return complex(mp.power(root, -z) * e1)


def twisted_component(q: int, s: complex) -> complex:
    """T_q(s) = sum' e^{i q theta(p)} |p|^(-2s), q = 0 mod 4, q >= 4.

    Harmonic theta splitting with P(x) = (m + i n)^q, s' = s + q/2; summed
    over the quarter plane m > 0, n >= 0 (P is invariant under quarter
    turns), grouped by norm so each shell costs two incomplete gammas.
    """
    with mp.workdps(_dps(s) + q // 2):
        z = _mpc(s)
        sp = z + mp.mpf(q) / 2
        # shells with q/2 ln N - pi N below the peak by the cutoff margin
        margin = 75 + 1.6 * abs(s.imag)
        peak_n = max(q / (2 * math.pi), 1.0)
        peak = 0.5 * q * math.log(peak_n) - math.pi * peak_n
        n_cut = peak_n
        while 0.5 * q * math.log(n_cut) - math.pi * n_cut > peak - margin:
            n_cut += 0.5
        shells: dict[int, mp.mpc] = {}
        bound = int(math.isqrt(int(n_cut))) + 1
        for m in range(1, bound + 1):
            for n in range(0, bound + 1):
                norm = m * m + n * n
                if norm <= n_cut:
                    shells[norm] = shells.get(norm, mp.mpc(0)) + mp.mpc(m, n) ** q
        acc = mp.mpc(0)
        for norm, p_sum in shells.items():
            x = mp.pi * norm
            acc += p_sum * (
                mp.power(x, -sp) * mp.gammainc(sp, x)
                + mp.power(x, sp - q - 1) * mp.gammainc(q + 1 - sp, x)
            )
        return complex(4 * mp.power(mp.pi, sp) * acc / mp.gamma(sp))


def cosine_fourier(coeffs, s: complex, q: int, n: int = 512):
    """chat(q) of r^(2s), r = sum c_k cos(k theta), by the n-point trapezoid
    rule (r^(2s) is analytic in a strip, so the error decays like e^(-n d))."""
    z = _mpc(s)
    acc = mp.mpc(0)
    for j, r in enumerate(_cosine_grid(tuple(coeffs), n, mp.mp.dps)):
        acc += mp.power(r, 2 * z) * mp.expj(-2 * mp.pi * q * j / n)
    return acc / n


@functools.lru_cache(maxsize=None)
def _cosine_grid(coeffs, n, dps):
    with mp.workdps(dps):
        return tuple(sum(ck * mp.cos(k * 2 * mp.pi * j / n) for k, ck in enumerate(coeffs))
                     for j in range(n))


def cosine_zeta(coeffs, s: complex, twisted) -> complex:
    """Z_r(s) = sum over q = 0 mod 4 of chat(q) T_|q|(s) for a cosine shape.

    ``twisted(q, s)`` supplies T_q; T_0 is the identity Epstein zeta.  Terms
    are added until two consecutive orders fall below 1e-20 of the sum.
    """
    with mp.workdps(_dps(s)):
        total = cosine_fourier(coeffs, s, 0) * identity_epstein(s)
        quiet = 0
        q = 4
        while quiet < 2:
            c = cosine_fourier(coeffs, s, q) + cosine_fourier(coeffs, s, -q)
            term = c * twisted(q, s)
            total += term
            quiet = quiet + 1 if abs(term) < 1e-20 * abs(total) else 0
            q += 4
            if q > 160:  # the 512-point rule resolves |q| < 256 only
                raise RuntimeError("cosine reconstruction did not converge")
        return complex(total)


# ---------------------------------------------------------------------------
# Stored references
# ---------------------------------------------------------------------------


def _key(s: complex) -> str:
    return f"{s.real!r},{s.imag!r}"


class Refs:
    """Lookup into refs.json: pools of s values with T_q and cosine-shape Z."""

    def __init__(self, path: Path = REFS_PATH):
        data = json.loads(path.read_text())
        self.s_conv = [complex(*p) for p in data["s_conv"]]
        self.s_cont = [complex(*p) for p in data["s_cont"]]
        self.cos_shapes = {k: tuple(v) for k, v in data["cos_shapes"].items()}
        self._twisted = {(int(q), k): complex(*v) for q, d in data["twisted"].items()
                         for k, v in d.items()}
        self._cos = {(name, k): complex(*v) for name, d in data["cos_zeta"].items()
                     for k, v in d.items()}

    def twisted(self, q: int, s: complex) -> complex:
        return self._twisted[(q, _key(s))]

    def cos_zeta(self, name: str, s: complex) -> complex:
        return self._cos[(name, _key(s))]


# ---------------------------------------------------------------------------
# Disc-truncated sums
# ---------------------------------------------------------------------------

# Vertices of the seven-segment "odd" shape, counterclockwise from (1, 0)
ODD_VERTICES = ((1.0, 0.0), (2.0, 1.0), (1.0, 1.0), (0.0, 0.5), (-1.0, 1.0), (-1.0, -1.0),
                (1.0, -1.0))


def odd_gauge(m, n):
    """Dilation time of (m, n) for the odd shape: on the cone over the edge
    v_i v_{i+1} it is the linear form L with L(v_i) = L(v_{i+1}) = 1."""
    conds, vals = [], []
    k = len(ODD_VERTICES)
    for i in range(k):
        v, w = ODD_VERTICES[i], ODD_VERTICES[(i + 1) % k]
        la, lb = np.linalg.solve([v, w], [1.0, 1.0])
        conds.append((v[0] * n - v[1] * m >= 0) & (m * w[1] - n * w[0] >= 0))
        vals.append(la * m + lb * n)
    return np.select(conds, vals, default=np.nan)


def cosine_radius(coeffs, theta):
    return sum(c * np.cos(k * theta) for k, c in enumerate(coeffs))


def form_norm(u):
    u11, u12, u22 = (float(x) for x in u)
    return lambda m, n: u11 * m * m + 2 * u12 * m * n + u22 * n * n


def twist_phase(q: int):
    """(-i)^q e^{i q theta(p)}, the weight of the twisted sums."""
    return lambda m, n: (-1j) ** (q % 4) * np.exp(1j * q * np.arctan2(n, m))


def fourier_phase(t2, s: complex, q_max: int, n_quad: int = 1024):
    """F(theta) = sum over q = 0 mod 4, |q| <= q_max of chat(q) e^{i q theta},
    chat(q) the trapezoid Fourier coefficients of r^(2s) = t2(cos, sin)^(-s)."""
    th = 2 * math.pi * np.arange(n_quad) / n_quad
    r2s = np.exp(-complex(s) * np.log(t2(np.cos(th), np.sin(th))))
    qs = np.arange(-q_max, q_max + 1, 4)
    chat = np.array([np.mean(r2s * np.exp(-1j * q * th)) for q in qs])

    def phase(m, n):
        theta = np.arctan2(n, m)
        return sum(c * np.exp(1j * q * theta) for q, c in zip(qs, chat))
    return phase


def disc_sum(radius: float, s: complex, norm, phase=None) -> tuple[complex, float]:
    """sum over 0 < m^2 + n^2 <= radius^2 of phase(p) norm(p)^(-s), and the
    sum of the terms' moduli (the scale of rounding in such a sum)."""
    b = math.ceil(radius)
    g = np.arange(-b, b + 1, dtype=float)
    m, n = (x.ravel() for x in np.meshgrid(g, g, indexing="ij"))
    r2 = m * m + n * n
    keep = (r2 > 0) & (r2 <= radius * radius)
    m, n = m[keep], n[keep]
    terms = np.exp(-complex(s) * np.log(norm(m, n)))
    if phase is not None:
        terms = terms * phase(m, n)
    return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


# ---------------------------------------------------------------------------
# Exact lattice quantities
# ---------------------------------------------------------------------------


def disc_count(radius: float) -> int:
    """#{p != 0 : m^2 + n^2 <= radius*radius} exactly (the sums' disc rule)."""
    k = math.floor(radius * radius)
    return sum(2 * math.isqrt(k - m * m) + 1 for m in range(-math.isqrt(k), math.isqrt(k) + 1)) - 1


def rational_ellipse_times(a: float, b: float, t_max: float) -> np.ndarray:
    """Sorted t = sqrt(m^2/a^2 + n^2/b^2) <= t_max over the nonzero points.

    With a = pa/qa and b = pb/qb exactly, (pa pb t)^2 is the integer
    N = (qa pb m)^2 + (qb pa n)^2, so which points lie inside is decided in
    integer arithmetic; only the returned times are rounded."""
    pa, qa = Fraction(a).as_integer_ratio()
    pb, qb = Fraction(b).as_integer_ratio()
    cut = math.floor(Fraction(t_max) ** 2 * (pa * pb) ** 2)
    bm, bn = math.ceil(t_max * a) + 1, math.ceil(t_max * b) + 1
    m, n = np.meshgrid(np.arange(-bm, bm + 1, dtype=np.int64), np.arange(-bn, bn + 1, dtype=np.int64),
                       indexing="ij")
    big_n = ((qa * pb * m) ** 2 + (qb * pa * n) ** 2).ravel()
    big_n = big_n[(big_n > 0) & (big_n <= cut)]
    return np.sort(np.sqrt(big_n.astype(float)) / (pa * pb))


def float_times(kind: str, params, t_max: float) -> np.ndarray:
    """Dilation times <= t_max*(1+1e-7) by an independent numpy route.

    kind 'ellipse' uses (a, b, phi); 'cos' uses the cosine coefficients.
    """
    if kind == "ellipse":
        a, b, phi = params
        r_max = a
    else:
        r_max = sum(abs(c) for c in params)
    bound = int(math.ceil(t_max * r_max)) + 2
    g = np.arange(-bound, bound + 1, dtype=float)
    m, n = np.meshgrid(g, g, indexing="ij")
    m, n = m.ravel(), n.ravel()
    nz = (m != 0) | (n != 0)
    m, n = m[nz], n[nz]
    if kind == "ellipse":
        ang = np.arctan2(n, m) - phi
        rad = np.hypot(m, n)
        t = rad * np.sqrt((np.cos(ang) / a) ** 2 + (np.sin(ang) / b) ** 2)
    else:
        th = np.arctan2(n, m)
        r = sum(c * np.cos(k * th) for k, c in enumerate(params))
        t = np.hypot(m, n) / r
    return np.sort(t[t <= t_max * (1 + 1e-7)])


def spectrum_multiset(csv_text: str) -> np.ndarray:
    """Expand a ``k,t_k,a_k`` CSV into the sorted multiset of dilation times."""
    rows = csv_text.strip().splitlines()[1:]
    t = np.array([float(r.split(",")[1]) for r in rows])
    a = np.array([int(r.split(",")[2]) for r in rows])
    return np.repeat(t, a)
