"""Special-function tests: closed-form anchors, independent oracles, and
self-consistency properties on random samples."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from hlawka import special
from hlawka.errors import DivergenceError, PoleError, ValidationError
from hlawka.special import (
    dirichlet_beta,
    gamma,
    hyp2f1,
    riemann_zeta,
    upper_incomplete_gamma,
)

mp.mp.dps = 30


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def test_gamma_closed_forms():
    assert abs(gamma(1.0) - 1.0) < 1e-14
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-14
    assert abs(gamma(5.0) - 24.0) < 1e-12


def test_gamma_poles_raise():
    for s in (0.0, -1.0, -2.0, -17.0):
        with pytest.raises(PoleError):
            gamma(s)


def test_gamma_recurrence_random():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        s = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(s.imag) < 0.1:
            s += 0.5j
        lhs = gamma(s + 1)
        rhs = s * gamma(s)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst < 1e-11


def test_gamma_reflection_random():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(500):
        s = complex(rng.uniform(-10, 10), rng.uniform(0.2, 10))
        val = gamma(s) * gamma(1 - s) * cmath.sin(math.pi * s) / math.pi
        worst = max(worst, abs(val - 1.0))
    assert worst < 1e-10


def test_gamma_matches_mpmath_moderate_domain():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(300):
        s = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
        if abs(s.imag) < 0.05 and s.real <= 0.5:
            continue
        if abs(s) > 50:
            continue
        ref = complex(mp.gamma(mp.mpc(s)))
        worst = max(worst, abs(gamma(s) - ref) / abs(ref))
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# Riemann zeta
# ---------------------------------------------------------------------------


def test_zeta_known_values():
    assert abs(riemann_zeta(2.0) - math.pi**2 / 6) < 1e-14
    assert abs(riemann_zeta(0.0) - (-0.5)) < 1e-14
    assert abs(riemann_zeta(-1.0) - (-1.0 / 12.0)) < 1e-14


def test_zeta_3_against_direct_series_oracle():
    # independent oracle: one million terms plus the Euler-Maclaurin tail
    n = np.arange(1, 1_000_001, dtype=np.float64)
    big_n = 1_000_000.0
    partial = float(np.sum(n**-3.0))
    tail = 0.5 * big_n**-2 - 0.5 * big_n**-3 + 0.25 * big_n**-4
    oracle = partial + tail
    assert abs(riemann_zeta(3.0).real - oracle) < 1e-11


def test_zeta_pole_raises():
    with pytest.raises(PoleError):
        riemann_zeta(1.0)


def test_zeta_functional_equation_self_consistency():
    # reflected evaluation agrees with the accelerated series on the strip
    pts = [0.6 + 3j, 0.7 - 5j, 0.9 + 11j, 0.51 + 0.3j]
    for s in pts:
        direct = riemann_zeta(s)
        chi = 2.0**s * math.pi ** (s - 1) * cmath.sin(math.pi * s / 2) * gamma(1 - s)
        via_reflection = chi * riemann_zeta(1 - s)
        assert abs(direct - via_reflection) / abs(direct) < 1e-10


def test_zeta_near_eta_denominator_zero():
    # the eta transform is singular at s = 1 + 2 pi i k / ln 2; the
    # Euler-Maclaurin fallback must take over seamlessly
    k = 1
    s0 = complex(1.0, 2 * math.pi * k / math.log(2.0))
    for ds in (0.0, 1e-6, 5e-4):
        s = s0 + ds
        ref = complex(mp.zeta(mp.mpc(s)))
        assert abs(riemann_zeta(s) - ref) / abs(ref) < 1e-11


def test_zeta_matches_mpmath_samples():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(60):
        s = complex(rng.uniform(-8, 8), rng.uniform(-50, 50))
        if abs(s - 1) < 0.1:
            continue
        ref = complex(mp.zeta(mp.mpc(s)))
        worst = max(worst, abs(riemann_zeta(s) - ref) / abs(ref))
    assert worst < 1e-11


def test_dirichlet_beta_catalan_and_pi_cubed():
    catalan = 0.915965594177219015054603514932  # sum (-1)^k/(2k+1)^2
    assert abs(dirichlet_beta(2.0).real - catalan) < 1e-13
    assert abs(dirichlet_beta(3.0).real - math.pi**3 / 32) < 1e-13


def _beta_reference(s):
    return mp.dirichlet(mp.mpc(s), [0, 1, 0, -1])


_GRID = [complex(x, y) for x in (-8.0, -2.8, -0.5, -0.03, 0.5, 1.0, 2.5, 8.0)
         for y in (-200.0, -47.0, -3.0, 0.5, 14.1, 200.0)]
_REAL = [-7.5, -0.5, 0.3, 2.0, 8.0]
_MPMATH_TABLE = (
    [("zeta", s) for s in _GRID + _REAL]
    + [("beta", s) for s in _GRID + _REAL]
    # the combined pole terms at s = 1, and left of Re s = 0
    + [("beta", s) for s in (1.0, 1.0 + 1e-6, 1.0 - 1e-6, -1.0 + 3.0j, -2.5 + 10.0j)]
)


@pytest.mark.parametrize("name,s", _MPMATH_TABLE, ids=[f"{n}({s})" for n, s in _MPMATH_TABLE])
def test_zeta_and_beta_match_mpmath(name, s):
    """One Euler-Maclaurin series serves both; 1e-12 relative, absolute
    below |value| = 1, on Re s in [-8, 8] and |Im s| <= 200."""
    func, reference = {"zeta": (riemann_zeta, mp.zeta), "beta": (dirichlet_beta, _beta_reference)}[name]
    ref = complex(reference(mp.mpc(s)))
    assert abs(func(s) - ref) <= 1e-12 * max(abs(ref), 1.0)


_NEAR_ZEROS = [("gamma", -3.0000001), ("gamma", -10.000001), ("gamma", -20.00001),
               ("zeta", -4.00001), ("zeta", -6.000001), ("zeta", -2.0001 + 0.0001j), ("beta", -5.0000001)]


@pytest.mark.parametrize("name,s", _NEAR_ZEROS, ids=[f"{n}({s})" for n, s in _NEAR_ZEROS])
def test_reflections_keep_their_accuracy_next_to_poles_and_trivial_zeros(name, s):
    # the reflections' sines are taken of the argument reduced by its
    # nearest integer; unreduced, the rounding of pi s costs up to 1e-9
    # relative here, where zeta._special_ulps claims about 1e-13
    from hlawka import zeta

    func, reference = {"gamma": (gamma, mp.gamma), "zeta": (riemann_zeta, mp.zeta),
                       "beta": (dirichlet_beta, _beta_reference)}[name]
    ref = complex(reference(mp.mpc(s)))
    assert abs(func(s) - ref) <= zeta._special_ulps(s) * zeta._EPS * abs(ref)


# ---------------------------------------------------------------------------
# incomplete gamma
# ---------------------------------------------------------------------------


def test_upper_gamma_exponential():
    for x in (0.3, 1.0, 7.5):
        assert abs(upper_incomplete_gamma(1.0, x) - math.exp(-x)) < 1e-14


def test_upper_gamma_half_against_quadrature_oracle():
    # split at 40: beyond it the integrand is below 4e-19
    oracle, err = quad(lambda t: t**-0.5 * math.exp(-t), 1.0, 40.0, epsabs=1e-14)
    assert err < 1e-12
    assert abs(upper_incomplete_gamma(0.5, 1.0).real - oracle) < err + 1e-12
    # also the frozen closed form sqrt(pi) erfc(1)
    assert abs(oracle - 0.27880558528066) < 1e-12


def test_upper_gamma_small_x_limit():
    assert abs(upper_incomplete_gamma(3.0, 1e-4) - 2.0) < 1e-7


def test_upper_plus_lower_is_gamma():
    # backward-error metric: where Gamma(s) is tiny against the two pieces,
    # their near-complete cancellation is inherent to the identity itself
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(200):
        s = complex(rng.uniform(-5, 10), rng.uniform(-6, 6))
        if abs(s.imag) < 0.1:
            s += 0.3j
        x = rng.uniform(0.1, 20.0)
        up = upper_incomplete_gamma(s, x)
        lo = complex(special._lower_series(s, np.array([x]))[0])
        ref = gamma(s)
        scale = max(abs(up), abs(lo), abs(ref))
        worst = max(worst, abs(up + lo - ref) / scale)
    assert worst < 1e-10


def test_upper_gamma_branch_consistency():
    # continued fraction and shifted-series branches agree near the switch
    for s in (0.2 + 0.4j, -1.3 + 2j, 2.5 - 1.5j):
        x = abs(s) + 2.0
        lo = upper_incomplete_gamma(s, x * 0.999)
        hi = upper_incomplete_gamma(s, x * 1.001)
        mid = complex(mp.gammainc(mp.mpc(s), x))
        assert abs(lo - complex(mp.gammainc(mp.mpc(s), x * 0.999))) < 1e-12 * abs(lo)
        assert abs(hi - complex(mp.gammainc(mp.mpc(s), x * 1.001))) < 1e-12 * abs(hi)
        assert abs(upper_incomplete_gamma(s, x) - mid) < 1e-12 * abs(mid)


def test_upper_gamma_at_nonpositive_integer_s():
    # Gamma(0, x) = E_1(x) and the downward recurrence below it
    for x in (0.5, 1.0, 2.5):
        ref0 = complex(mp.gammainc(0, x))
        assert abs(upper_incomplete_gamma(0.0, x) - ref0) < 1e-12 * abs(ref0)
        ref2 = complex(mp.gammainc(-2, x))
        assert abs(upper_incomplete_gamma(-2.0, x) - ref2) < 1e-10 * abs(ref2)


def test_upper_gamma_huge_x_does_not_stall():
    # the continued fraction's step cannot resolve below an ulp of 1; at
    # these x the value underflows, and where it does not it must agree
    s = 1.372048 - 4.657312j
    for x in (16897804.7, 1e3, 1e7, 700.0, 650.0):
        ref = complex(mp.gammainc(mp.mpc(s), x))
        got = upper_incomplete_gamma(s, x)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_upper_gamma_array_matches_scalar_and_mpmath():
    # one s, x spanning the series, recurrence and continued-fraction branches
    x = np.array([0.3, 1.0, 2.5, 4.0, 9.0, 30.0, 80.0])
    for s in (0.7 + 0.4j, -1.6 + 2.3j, 2.5 - 9.0j, -2.0, 21.0 + 15.0j):
        arr = upper_incomplete_gamma(s, x)
        assert arr.shape == x.shape
        for xi, v in zip(x, arr):
            # the series runs until its slowest element converges, so an
            # array may add terms below 1e-17 of the sum
            one = upper_incomplete_gamma(s, float(xi))
            assert abs(v - one) <= 4 * 2.0**-52 * abs(one)
            ref = complex(mp.gammainc(mp.mpc(s), xi))
            assert abs(v - ref) <= 1e-12 * abs(ref), (s, xi)

    # one batch of (s, x) pairs mixing every branch: continued fraction,
    # series with and without the downward recurrence, the E_1 anchor at
    # s = 0 and below it at s = -2 (also within 1e-12 of it), and an element
    # whose x^s e^(-x) underflows to an exact 0
    pairs = [
        (0.7 + 0.4j, 30.0),  # continued fraction
        (2.5 - 9.0j, 4.0),  # series, Re s > 1/2
        (-1.6 + 2.3j, 1.0),  # series and four recurrence steps
        (-3.7 + 0.2j, 0.4),  # series and six recurrence steps
        (0.0, 0.5),  # E_1 series
        (0.0, 2.5),  # continued fraction at s = 0
        (-3.0, 2.5),  # E_1 by its fraction and three recurrence steps
        (-2.0, 1.0),  # E_1 and two recurrence steps
        (-2.0 + 1e-13j, 0.7),  # within 1e-12 of the pole
        (21.0 + 15.0j, 80.0),
        (3.5 + 1.0j, 900.0),  # underflows
        (-1.6 + 2.3j, 9.0),  # continued fraction for Re s <= 1/2
    ]
    s = np.array([p[0] for p in pairs], complex)
    x = np.array([p[1] for p in pairs])
    arr = upper_incomplete_gamma(s, x)
    assert arr.shape == x.shape and arr[10] == 0.0
    for si, xi, v in zip(s, x, arr):
        one = upper_incomplete_gamma(complex(si), float(xi))
        ref = complex(mp.gammainc(mp.mpc(complex(si)), xi))
        assert abs(v - one) <= 1e-12 * abs(one), (si, xi)
        assert abs(v - ref) <= 1e-12 * abs(ref), (si, xi)
    # s broadcasts against x: a column of s against a row of x
    grid = upper_incomplete_gamma(s[:3, None], x[None, :4])
    assert grid.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert abs(grid[i, j] - upper_incomplete_gamma(complex(s[i]), float(x[j]))) <= 1e-12 * abs(grid[i, j])
    with pytest.raises(ValidationError):
        upper_incomplete_gamma(s[:3], x[:4])


def _lentz_loop(s, x):
    """Gamma(s, x) / (x^s e^(-x)) by the modified Lentz continued fraction,
    one scalar step at a time, stopped as the library stops it."""
    b = x + 1.0 - s
    c, d = 1e300 + 0j, 1.0 / b
    h = d
    for i in range(1, special._MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h *= d * c
        if abs(d * c - 1.0) <= special._CF_TOL:
            return h
    raise AssertionError("reference fraction stalled")


def _series_loop(s, x):
    """gamma(s, x) / (x^s e^(-x)) one scalar term at a time, stopped as the
    library stops it (every eighth term, below 1e-17 of the sum)."""
    term = acc = 1.0 / s
    for n in range(1, special._MAX_ITER + 1):
        term = term * x / (s + n)
        acc += term
        if n % 8 == 0 and abs(term) < 1e-17 * abs(acc):
            return acc
    raise AssertionError("reference series stalled")


def test_upper_gamma_tables_match_the_term_loops():
    # the tables take each element's steps or terms in order up to its own
    # stop, so against the scalar loops only the rounding of each step
    # differs: a few ulps of the fraction or the sum (x^s e^(-x), whose
    # exponent is ill-conditioned at large |s log x|, is divided out)
    rng = np.random.default_rng(20)
    s = rng.uniform(-2.0, 25.0, 200) + 1j * rng.uniform(-20.0, 20.0, 200)
    x = np.abs(s) + 2.0 + rng.uniform(0.0, 30.0, 200)
    fractions = special._upper_gamma_cf(s, x) / special._prefactor(s, x)
    s_series = rng.uniform(0.6, 25.0, 200) + 1j * rng.uniform(-20.0, 20.0, 200)
    x_series = rng.uniform(0.05, 1.0, 200) * (np.abs(s_series) + 2.0)
    sums = special._lower_series(s_series, x_series) / special._prefactor(s_series, x_series)
    for loop, ss, xs, got in ((_lentz_loop, s, x, fractions), (_series_loop, s_series, x_series, sums)):
        for si, xi, v in zip(ss, xs, got):
            ref = loop(complex(si), float(xi))
            assert abs(v - ref) <= 16 * 2.0**-52 * abs(ref), (loop.__name__, si, xi)


def test_upper_gamma_stalls_raise(monkeypatch):
    # with eight steps or terms allowed, x = 3 stalls both branches (it needs
    # about 20 fraction steps at s = 0.3+0.5i and 40 series terms at
    # s = 2.5+i), alone and inside a batch of elements that stop in time
    monkeypatch.setattr(special, "_MAX_ITER", 8)
    fast_cf, fast_series = np.array([200.0, 300.0, 250.0, 400.0]), np.array([0.01, 0.02, 0.015])
    for s, fast, stall in ((0.3 + 0.5j, fast_cf, "continued fraction stalled"),
                           (2.5 + 1.0j, fast_series, "series stalled")):
        assert np.all(np.isfinite(upper_incomplete_gamma(s, fast)))
        with pytest.raises(DivergenceError, match=f"{stall} at .*x=3.0"):
            upper_incomplete_gamma(s, 3.0)
        with pytest.raises(DivergenceError, match=f"{stall} at .*x=3.0"):
            upper_incomplete_gamma(s, np.insert(fast, 2, 3.0))


def test_upper_gamma_overflow_signal():
    from hlawka.errors import OverflowSignal

    # x^s e^(-x) with s = 400, x = 500 is ~10^862
    with pytest.raises(OverflowSignal):
        upper_incomplete_gamma(400.0, 500.0)


def test_upper_gamma_rejects_nonpositive_x():
    with pytest.raises(ValidationError):
        upper_incomplete_gamma(1.0, 0.0)


# ---------------------------------------------------------------------------
# Gauss hypergeometric series
# ---------------------------------------------------------------------------


def test_hyp2f1_empty_and_z_zero():
    val, bound = hyp2f1(1.3, -0.2, 2.7, 0.0)
    assert val == 1.0
    assert bound == 0.0


def test_hyp2f1_log_identity():
    # 2F1(1, 1; 2; z) = -ln(1 - z)/z
    z = 0.5
    val, bound = hyp2f1(1.0, 1.0, 2.0, z)
    oracle = -math.log(1.0 - z) / z
    assert abs(oracle - 2.0 * math.log(2.0)) < 1e-15
    assert abs(val - -mp.log(1 - mp.mpf(z)) / z) <= bound < 1e-12


def test_hyp2f1_binomial_collapse():
    # b = c: 2F1(a, b; b; z) = (1 - z)^(-a)
    a = 1.7 - 0.4j
    z = 0.25
    val, bound = hyp2f1(a, 2.3, 2.3, z)
    assert abs(val - mp.power(1 - mp.mpf(z), -mp.mpc(a))) <= bound < 1e-12


def test_hyp2f1_rejects_big_z():
    for z in (1.0, -1.0, 0.6 + 0.8j, 2.0):
        with pytest.raises(ValidationError):
            hyp2f1(1, 1, 2, z)


def test_hyp2f1_divergence_error():
    # c very negative makes the terms overflow before c + n crosses zero;
    # z next to 1 needs more terms than the cap allows
    with pytest.raises((DivergenceError, PoleError)):
        hyp2f1(300.0, 300.0, -600.5, 0.9)
    with pytest.raises(DivergenceError):
        hyp2f1(0.5, 0.5, 1.0, 1.0 - 1e-9)


def test_hyp2f1_c_pole():
    with pytest.raises(PoleError):
        hyp2f1(1.0, 1.0, -3.0, 0.3)
