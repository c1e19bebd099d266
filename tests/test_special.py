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
    hyp2f1_partial,
    lower_incomplete_gamma,
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


@pytest.mark.parametrize("s", [2.0, 0.5 + 14.1j, 1.3 - 7.0j, 3.0 + 40.0j, 0.75 + 0.25j])
def test_eta_and_beta_are_the_written_out_alternating_sums(s):
    """riemann_zeta and dirichlet_beta share one accelerated loop; both stay
    bit-identical to the loop written out over (k+1)^(-s) and (2k+1)^(-s)."""
    s = complex(s)
    n = special._eta_terms_needed(s.imag)
    d = special._eta_weights(n)

    def written_out(base):
        acc = 0.0 + 0.0j
        sign = 1.0
        for k in range(n):
            acc += sign * (d[k] - d[n]) * base(k) ** (-s)
            sign = -sign
        return -acc / d[n]

    assert riemann_zeta(s) == written_out(lambda k: k + 1) / (1.0 - 2.0 ** (1.0 - s))
    assert dirichlet_beta(s) == written_out(lambda k: 2 * k + 1)


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
        lo = lower_incomplete_gamma(s, x)
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


def test_upper_gamma_overflow_signal():
    from hlawka.errors import OverflowSignal

    # x^s e^(-x) with s = 400, x = 500 is ~10^862
    with pytest.raises(OverflowSignal):
        upper_incomplete_gamma(400.0, 500.0)


def test_upper_gamma_rejects_nonpositive_x():
    with pytest.raises(ValidationError):
        upper_incomplete_gamma(1.0, 0.0)


# ---------------------------------------------------------------------------
# 2F1 partial sums
# ---------------------------------------------------------------------------


def test_hyp2f1_empty_and_z_zero():
    val, tail = hyp2f1_partial(1.3, -0.2, 2.7, 0.0, 10)
    assert val == 1.0
    assert tail == 0.0


def test_hyp2f1_log_identity():
    # 2F1(1, 1; 2; z) = -ln(1 - z)/z
    z = 0.5
    val, tail = hyp2f1_partial(1.0, 1.0, 2.0, z, 200)
    oracle = -math.log(1.0 - z) / z
    assert abs(oracle - 2.0 * math.log(2.0)) < 1e-15
    assert abs(val - oracle) <= tail + 1e-14
    assert tail < 1e-12


def test_hyp2f1_binomial_collapse():
    # b = c: 2F1(a, b; b; z) = (1 - z)^(-a)
    a = 1.7 - 0.4j
    z = 0.25
    val, tail = hyp2f1_partial(a, 2.3, 2.3, z, 300)
    oracle = (1.0 - z) ** (-a)
    assert abs(val - oracle) <= tail + 1e-13


def test_hyp2f1_rejects_big_z():
    with pytest.raises(ValidationError):
        hyp2f1_partial(1, 1, 2, 1.0, 10)


def test_hyp2f1_divergence_error():
    # c very negative makes terms grow persistently before c+n crosses zero
    with pytest.raises((DivergenceError, PoleError)):
        hyp2f1_partial(40.0, 40.0, -80.5, 0.9, 120)


def test_hyp2f1_c_pole():
    with pytest.raises(PoleError):
        hyp2f1_partial(1.0, 1.0, -3.0, 0.3, 10)
