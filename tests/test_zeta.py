"""Lattice zeta sums: direct/spectral agreement, continuation calibration
(oracle-first), symmetry cancellations, and the reconstruction identity."""

import cmath
import math
import resource
import time
import warnings

import mpmath as mp
import numpy as np
import pytest

from conftest import disc_tail_correction
from hlawka import cli, lattice, zeta
from hlawka.errors import NumericError, PoleError, ValidationError
from hlawka.funceq import residue_at_one
from hlawka.lattice import build_spectrum
from hlawka.shapes import Mat2, Symmetry, act, circle, cosine_series, ellipse, odd_shape, parse_shape, square
from hlawka.special import dirichlet_beta, gamma, riemann_zeta, upper_incomplete_gamma
from hlawka.zeta import (
    QuadForm2,
    classical_eisenstein,
    eisenstein_fq_continued,
    eisenstein_fq_truncated,
    ellipse_form,
    epstein_continued,
    epstein_continued_many,
    epstein_lambda,
    hlawka_direct,
    hlawka_direct_many,
    hlawka_from_spectrum,
    reconstruct_hlawka,
)

IDENT = QuadForm2.identity()

# classical product for the identity-form sum at s=2, from independently
# computed factors: zeta(2) = pi^2/6 exactly, beta(2) by its alternating
# series with the first-omitted-term bound (error < 2.5e-11)
_K = np.arange(200_000)
_CATALAN = float(np.sum((-1.0) ** _K / (2.0 * _K + 1.0) ** 2))
CIRCLE_S2 = 4.0 * (math.pi**2 / 6.0) * _CATALAN


def brute_circle_sum(s: float, radius: int) -> float:
    """Independent oracle: row-wise accumulation, no shape machinery."""
    total = 0.0
    r2 = radius * radius
    for n in range(-radius, radius + 1):
        m = np.arange(-radius, radius + 1, dtype=np.float64)
        q = m * m + float(n * n)
        mask = (q > 0) & (q <= r2)
        total += float(np.sum(q[mask] ** (-s)))
    return total


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------


def test_hlawka_direct_circle_value(unit_circle):
    res = hlawka_direct(unit_circle, 2.0, 600.0)
    # brute force over the same disc: same point set, independent path
    oracle = brute_circle_sum(2.0, 600)
    assert abs(res.value - oracle) < 1e-12
    # against the classical product, within the documented tail
    assert abs(res.value - CIRCLE_S2) <= res.error_estimate
    assert abs(res.value - CIRCLE_S2) < 1e-4


def test_hlawka_direct_rejects_bad_inputs(unit_circle):
    with pytest.raises(ValidationError):
        hlawka_direct(unit_circle, 1.0, 100.0)
    with pytest.raises(ValidationError):
        hlawka_direct(unit_circle, 2.0, 5.0)
    with pytest.raises(ValidationError):
        hlawka_direct(unit_circle, 2.0, 1e9)


@pytest.mark.parametrize("s", [complex(math.nan, 0.0), complex(math.nan, 1.0)])
def test_direct_sums_reject_non_finite_inputs(unit_circle, s):
    with pytest.raises(ValidationError, match="Re"):
        hlawka_direct(unit_circle, s, 50.0)
    with pytest.raises(ValidationError, match="Re"):
        hlawka_direct(IDENT.region(), s, 50.0)
    with pytest.raises(ValidationError, match="Re"):
        eisenstein_fq_truncated(4, 0.0, s, 50.0)
    with pytest.raises(ValidationError, match="rotation"):
        eisenstein_fq_truncated(4, s.imag * math.inf, 2.0, 50.0)  # nan, then inf


def test_hlawka_direct_square_closed_form(square_shape):
    res = hlawka_direct(square_shape, 2.0, 1000.0)
    target = 8.0 * riemann_zeta(3.0)
    assert abs(res.value - target) <= res.error_estimate + 1e-8


def test_hlawka_direct_threads_bit_identical(square_shape):
    r1 = hlawka_direct(square_shape, 2.0 + 0.5j, 300.0, threads=1)
    r4 = hlawka_direct(square_shape, 2.0 + 0.5j, 300.0, threads=4)
    assert r1.value == r4.value


def test_hlawka_many_shares_enumeration(square_shape):
    many = hlawka_direct_many(square_shape, [2.0, 3.0], 300.0)
    assert many[0].value == hlawka_direct(square_shape, 2.0, 300.0).value
    assert many[1].value == hlawka_direct(square_shape, 3.0, 300.0).value


def test_scaling_law_at_equal_truncation():
    # Z_{c r}(s) = c^(2s) Z_r(s), identical disc, relative error <= 1e-12
    c = 1.7
    scale = Mat2.diagonal(c, c)
    for shape in (circle(1.0), ellipse(1.3, 1.0), square(), odd_shape(),
                  cosine_series([1.0, 0, 0, 0, 0.1])):
        scaled = act(scale, shape)
        for s in (2.0, 3.0, 2.0 + 1.0j):
            z = hlawka_direct(shape, s, 150.0).value
            zc = hlawka_direct(scaled, s, 150.0).value
            target = c ** (2.0 * s) * z
            assert abs(zc - target) / abs(target) <= 1e-12


def test_quarter_turn_invariance():
    # Z is invariant under rotating the region by k pi/2 (lattice symmetry)
    for shape in (odd_shape(), cosine_series([1.0, 0.1, 0, 0.05])):
        rotated = act(Mat2.rotation(math.pi / 2.0), shape)
        z1 = hlawka_direct(shape, 2.0, 300.0).value
        z2 = hlawka_direct(rotated, 2.0, 300.0).value
        assert abs(z1 - z2) / abs(z1) <= 1e-10


def test_gl2_direct_sum_with_an_empty_last_chunk():
    # at radius 127.5 the last 256-row chunk of the box lies outside the disc
    shape = act(Mat2(1.2, 0.3, -0.1, 0.8), circle(1.0))
    res = hlawka_direct(shape, 2.0, 127.5)
    assert cmath.isfinite(res.value) and res.value.real > 0


def test_hlawka_from_spectrum_matches_direct_circle(unit_circle):
    # for the circle t(p) = |p|, so the spectrum to t_max equals the disc
    spec = build_spectrum(unit_circle, 80.0)
    for s in (2.0, 2.5 + 1.0j):
        via_spec = hlawka_from_spectrum(spec, s).value
        direct = hlawka_direct(unit_circle, s, 80.0).value
        assert abs(via_spec - direct) <= 1e-12 * abs(direct)


def test_hlawka_from_spectrum_square_partial_sum(square_shape):
    spec = build_spectrum(square_shape, 50.0)
    got = hlawka_from_spectrum(spec, 2.0).value
    want = sum(8.0 * k / k**4 for k in range(1, 51))
    assert abs(got - want) < 1e-12
    # large s: first entry dominates
    big = hlawka_from_spectrum(spec, 10.0).value
    assert abs(big - 8.0) < 1e-4


def test_hlawka_from_spectrum_error_estimate_bounds_the_tail():
    # ellipse(3, 1) has t(p)^2 = m^2/9 + n^2, so Z_r is the Epstein function
    # of diag(1/9, 1); its continuation is the oracle for the full sum
    spec = build_spectrum(ellipse(3.0, 1.0), 60.0)
    for s in (2.0, 1.5, 2.5 + 1.0j):
        res = hlawka_from_spectrum(spec, s)
        truth = epstein_continued(QuadForm2(1.0 / 9.0, 0.0, 1.0), s).value
        assert abs(res.value - truth) <= res.error_estimate


@pytest.mark.parametrize("s", [3.0 + 1e6j, 3.0 + 1e9j])
def test_hlawka_from_spectrum_bar_covers_the_rounding_at_large_imaginary_parts(square_shape, s):
    # at Im s = 1e9 the phases reach 1e10 and the error is mostly rounding
    # (1.7e-8, three times the tail bar alone)
    res = hlawka_from_spectrum(build_spectrum(square_shape, 150.0), s)
    with mp.workdps(30):
        truth = 8 * mp.zeta(2 * mp.mpc(s) - 1)
    assert float(abs(mp.mpc(res.value) - truth)) <= res.error_estimate


def test_spectrum_sums_at_several_s_match_single_calls():
    # 5022 lines: the batch cuts its blocks elsewhere, so values agree to
    # rounding and bars exactly
    spec = build_spectrum(ellipse(2.0, 1.0, 0.3), 40.0)
    samples = [2.0, 1.5 + 3.0j, 2.5 - 7.0j]
    for one, res in zip((hlawka_from_spectrum(spec, s) for s in samples),
                        zeta._spectrum_sums(spec, samples)):
        assert abs(res.value - one.value) <= 1e-14 * abs(one.value)
        assert res.error_estimate == one.error_estimate


def test_hlawka_from_spectrum_rejects_an_empty_spectrum(square_shape):
    # below the first line there is no count to estimate the tail from; the
    # true value here is 8 zeta(3), not the empty sum 0
    spec = build_spectrum(square_shape, 0.5)
    assert len(spec.t_values) == 0
    with pytest.raises(ValidationError):
        hlawka_from_spectrum(spec, 2.0)


def test_odd_and_square_spectra_give_equal_zeta():
    s_sq = build_spectrum(square(), 50.0)
    s_od = build_spectrum(odd_shape(), 50.0)
    for s in (2.0, 3.0, 2.0 + 1.0j):
        z1 = hlawka_from_spectrum(s_sq, s).value
        z2 = hlawka_from_spectrum(s_od, s).value
        assert abs(z1 - z2) <= 1e-14 * abs(z1)


# ---------------------------------------------------------------------------
# Epstein zeta
# ---------------------------------------------------------------------------


def test_epstein_identity_matches_circle(unit_circle):
    a = hlawka_direct(IDENT.region(), 2.0, 400.0)
    b = hlawka_direct(unit_circle, 2.0, 400.0)
    assert abs(a.value - b.value) < 1e-13


def test_epstein_homogeneity():
    c = 2.5
    u = QuadForm2(c, 0.0, c)
    a = hlawka_direct(u.region(), 2.0 + 1.0j, 200.0).value
    b = hlawka_direct(IDENT.region(), 2.0 + 1.0j, 200.0).value
    target = c ** -(2.0 + 1.0j) * b
    assert abs(a - target) <= 1e-13 * abs(target)


def test_epstein_equals_ellipse_hlawka():
    # the ellipse (a, b) has form diag(1/a^2, 1/b^2): same dilation times
    u = ellipse_form(2.0, 1.0)
    assert abs(u.u11 - 0.25) < 1e-15 and abs(u.u22 - 1.0) < 1e-15
    a = hlawka_direct(u.region(), 2.0, 500.0).value
    b = hlawka_direct(ellipse(2.0, 1.0), 2.0, 500.0).value
    assert abs(a - b) <= 1e-12 * abs(a)


def test_epstein_continued_calibration_against_direct(walk_only):
    # oracle-first: the continuation must reproduce tail-corrected direct
    # sums in the convergent region before any use beyond it; the sums walk
    for u in (IDENT, ellipse_form(2.0, 1.0), QuadForm2(2.0, 0.5, 1.0)):
        for s in (2.0, 3.0, 2.5 + 1.5j):
            cont = epstein_continued(u, s).value
            direct = hlawka_direct(u.region(), s, 1500.0)
            assert direct.truncation["route"] == "walk"
            corrected = direct.value + disc_tail_correction(u, s, 1500.0)
            assert abs(cont - corrected) <= 1e-9 * abs(cont)
            assert abs(cont - direct.value) <= direct.error_estimate * 1.05


def test_epstein_lambda_functional_equation():
    rng = np.random.default_rng(41)
    for _ in range(20):
        # random SPD form with moderate conditioning
        a = rng.uniform(0.5, 2.0)
        d = rng.uniform(0.5, 2.0)
        b = rng.uniform(-0.6, 0.6) * math.sqrt(a * d)
        u = QuadForm2(a, b, d)
        s = complex(rng.uniform(-2.0, 3.0), rng.uniform(0.2, 10.0))
        lhs = epstein_lambda(u, s).value
        rhs = epstein_lambda(u.inverse(), 1.0 - s).value / math.sqrt(u.det)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_epstein_residue_at_one():
    # numeric residue with two step sizes and Richardson
    def f(h):
        up = epstein_continued(IDENT, 1.0 + h).value
        dn = epstein_continued(IDENT, 1.0 - h).value
        return 0.5 * (h * up - h * dn)

    res = (4.0 * f(1e-4) - f(2e-4)) / 3.0
    assert abs(res - math.pi) < 1e-2 * math.pi


def test_epstein_pole_signals():
    for s in (0.0, 1.0, 1e-9, 1.0 + 1e-9):
        with pytest.raises(PoleError):
            epstein_continued(IDENT, s)


def test_epstein_rejects_ill_conditioned():
    with pytest.raises(ValidationError):
        epstein_continued(QuadForm2(1e9, 0.0, 1e-9 * 0.999), 2.0)


def test_epstein_trivial_zeros():
    # E = Lambda / (pi^-s Gamma(s)) vanishes at nonpositive integer s
    assert epstein_continued(IDENT, -1.0).value == 0.0


# ---------------------------------------------------------------------------
# GL(2,Z) invariance and error bounds of the continuations
# ---------------------------------------------------------------------------

_INVARIANCE_S = (2.0, 0.5 + 3.0j, -1.3 + 0.7j, 2.5 + 8.0j)


def test_epstein_lambda_gl2z_equivalent_form():
    # (1, 10, 101) = g^T I g with g = [[1, 10], [0, 1]]
    for s in _INVARIANCE_S:
        a = epstein_lambda(QuadForm2(1.0, 10.0, 101.0), s).value
        b = epstein_lambda(IDENT, s).value
        assert abs(a - b) <= 1e-12 * abs(b)


def test_epstein_gl2z_image_with_large_condition():
    # g = [[55, 34], [89, 55]], det -1: g^T u g has condition above 1e5
    u = QuadForm2(1.0, 0.25, 1.5)
    ga, gb, gc, gd = 55.0, 34.0, 89.0, 55.0
    v = QuadForm2(
        u.u11 * ga * ga + 2.0 * u.u12 * ga * gc + u.u22 * gc * gc,
        u.u11 * ga * gb + u.u12 * (ga * gd + gb * gc) + u.u22 * gc * gd,
        u.u11 * gb * gb + 2.0 * u.u12 * gb * gd + u.u22 * gd * gd,
    )
    assert v.condition_number() > 1e5
    for s in _INVARIANCE_S:
        a = epstein_continued(v, s).value
        b = epstein_continued(u, s).value
        assert abs(a - b) <= 1e-12 * abs(b)


def _mp_theta_epstein(u11, u12, u22, s, digits=20):
    """E(u, s) of a reduced form by theta splitting in mpmath, summed over
    the ellipse pi Q <= x_cut of the form scaled to determinant one."""
    with mp.workdps(digits + 10 + int(0.7 * abs(s.imag))):
        z = mp.mpc(s.real, s.imag)
        a, b, c = mp.mpf(u11), mp.mpf(u12), mp.mpf(u22)
        root = mp.sqrt(a * c - b * b)
        a, b, c = a / root, b / root, c / root
        x_cut = digits * math.log(10) + 1.6 * abs(s.imag) + 2 * abs(s.real) + 10
        bound = int(math.sqrt(float(x_cut / mp.pi) * float(max(a, c)) * 2)) + 2
        lam = -1 / z - 1 / (1 - z)
        for m in range(-bound, bound + 1):
            for n in range(-bound, bound + 1):
                x = mp.pi * (a * m * m + 2 * b * m * n + c * n * n)
                if (m or n) and x <= x_cut:
                    lam += mp.power(x, -z) * mp.gammainc(z, x) + mp.power(x, z - 1) * mp.gammainc(1 - z, x)
        return complex(mp.power(root, -z) * lam / (mp.power(mp.pi, -z) * mp.gamma(z)))


def test_continuation_error_estimates_bound_the_true_error():
    # identity: 4 zeta(s) beta(s); hexagonal (1, 1/2, 1): 6 zeta(s) L(s, chi_-3);
    # a reduced skewed form against theta splitting in mpmath
    forms = {
        (1.0, 0.0, 1.0): lambda z: 4 * mp.zeta(z) * mp.dirichlet(z, [0, 1, 0, -1]),
        (1.0, 0.5, 1.0): lambda z: 6 * mp.zeta(z) * mp.dirichlet(z, [0, 1, -1]),
        (1.0, 0.4, 3.7): None,
    }
    for (u11, u12, u22), closed in forms.items():
        for re in (-1.5, 0.5, 2.5):
            for im in (0.5, 8.0, 18.0):
                s = complex(re, im)
                if closed is None:
                    truth = _mp_theta_epstein(u11, u12, u22, s)
                else:
                    with mp.workdps(30 + int(0.7 * im)):
                        truth = complex(closed(mp.mpc(re, im)))
                res = epstein_continued(QuadForm2(u11, u12, u22), s)
                assert abs(res.value - truth) <= res.error_estimate, (u11, u12, u22, s)
    res = epstein_continued(IDENT, 2.0)
    assert res.error_estimate <= 1e-13 * abs(res.value)
    assert abs(res.value - CIRCLE_S2) <= res.error_estimate + 1e-10


def test_special_ulps_bounds_zeta_and_the_gamma_factor():
    # the claim in _special_ulps: riemann_zeta(s) and pi^(-s) Gamma(s) (as
    # _uncomplete forms it) err by at most 0.75 of it, in ulps, up to
    # |s| = 45; 300 points over that disc and 100 within |s| <= 3, where the
    # Euler-Maclaurin sum cancels most
    rng = np.random.default_rng(45)
    radius = np.concatenate([45.0 * np.sqrt(rng.uniform(size=300)), 3.0 * np.sqrt(rng.uniform(size=100))])
    points = radius * np.exp(2j * math.pi * rng.uniform(size=400))
    with mp.workdps(30):
        for s in map(complex, points):
            budget = 0.75 * zeta._special_ulps(s) * zeta._EPS
            ref = complex(mp.zeta(mp.mpc(s)))
            assert abs(riemann_zeta(s) - ref) <= budget * abs(ref), s
            ref = complex(mp.power(mp.pi, -mp.mpc(s)) * mp.gamma(mp.mpc(s)))
            factor = cmath.exp(-s * math.log(math.pi)) * gamma(s)
            assert abs(factor - ref) <= budget * abs(ref), s


# ---------------------------------------------------------------------------
# twisted components
# ---------------------------------------------------------------------------


def test_fq_truncated_q0_equals_epstein(unit_circle):
    a = eisenstein_fq_truncated(0, 0.0, 2.0, 300.0).value
    b = hlawka_direct(IDENT.region(), 2.0, 300.0).value
    assert abs(a - b) < 1e-13


def test_fq_vanishing_components():
    for q in (1, 2, 3, 5, 6, 7, 10):
        res = eisenstein_fq_truncated(q, 0.0, 2.0, 300.0)
        assert abs(res.value) <= 1e-12
        assert res.truncation.get("vanishes_identically") is True


def test_fq_truncated_against_independent_order_oracle():
    # same disc, but summed point-by-point in angular order with cmath
    radius = 60
    q, s = 4, 2.0
    pts = []
    for m in range(-radius, radius + 1):
        for n in range(-radius, radius + 1):
            n2 = m * m + n * n
            if 0 < n2 <= radius * radius:
                pts.append((math.atan2(n, m), n2, m, n))
    pts.sort()
    oracle = 0.0 + 0.0j
    for ang, n2, m, n in pts:
        oracle += cmath.exp(1j * q * ang) / n2**s
    oracle *= (-1j) ** q
    mine = eisenstein_fq_truncated(q, 0.0, s, float(radius)).value
    assert abs(mine - oracle) < 1e-14 * abs(oracle) + 1e-14


def test_fq_rotation_covariance():
    # a rotated sum is the unrotated one times e^{4 i phi} and takes its
    # route: walked at R = 300, by row tails at R = 500; the numpy sum over
    # the disc, whose points are rotated before their angles are taken,
    # checks the last rotated value
    rng = np.random.default_rng(42)
    for radius, route in ((300.0, "walk"), (500.0, "row-tails")):
        base = eisenstein_fq_truncated(4, 0.0, 2.0, radius)
        assert base.truncation["route"] == route
        for _ in range(8 if radius < 400 else 2):
            phi = rng.uniform(0, 2 * math.pi)
            rotated = eisenstein_fq_truncated(4, phi, 2.0, radius)
            assert rotated.truncation["route"] == route
            assert abs(rotated.value - cmath.exp(4j * phi) * base.value) <= 1e-12
    ref, _ = _disc_reference(_twisted_weight(4, phi, 2.0), 500.0)
    assert abs(rotated.value - ref) <= rotated.error_estimate


@pytest.mark.parametrize("q", [4, 8, 40])
@pytest.mark.parametrize("phi", [0.3, -2.1, 1e6])
def test_fq_rotated_continued_agrees_with_truncated(q, phi):
    # both rotate their unrotated value by e^{i q phi}; the row tails at
    # R = 1200 are the continuation less its tails, so the two agree within
    # the sum of their bars
    s = 2.0 + 1.0j
    cont, trunc = eisenstein_fq_continued(q, s, phi), eisenstein_fq_truncated(q, phi, s, 1200.0)
    assert trunc.truncation["route"] == "row-tails"
    assert abs(cont.value - trunc.value) <= cont.error_estimate + trunc.error_estimate


def test_fq_continued_oracle_calibration(walk_only):
    # the continuation must match the disc sum at s = 2, 3, 4 to 1e-9; the
    # disc sum walks, as its row tails are the continuation less its tails
    for s in (2.0, 3.0, 4.0):
        cont = eisenstein_fq_continued(4, s).value
        trunc = eisenstein_fq_truncated(4, 0.0, s, 1500.0)
        assert trunc.truncation["route"] == "walk"
        assert abs(cont - trunc.value) <= 1e-9 * abs(cont)


def test_fq_continued_entire_at_critical_line():
    val = eisenstein_fq_continued(8, 0.5).value
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_fq_continued_rejects_bad_q():
    for q in (-4, 0):
        with pytest.raises(ValidationError):
            eisenstein_fq_continued(q, 2.0)
    for rotation in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="rotation"):
            eisenstein_fq_continued(3, 2.0, rotation)
    # the components that vanish identically are exact zeros
    for q in (2, 3, 6, -3):
        res = eisenstein_fq_continued(q, 2.0)
        assert res.value == 0 and res.error_estimate == 0.0 and res.truncation["vanishes_identically"]


# ---------------------------------------------------------------------------
# classical series
# ---------------------------------------------------------------------------


def test_classical_eisenstein_at_i():
    res = classical_eisenstein(1j, 2.0)
    expected = CIRCLE_S2 / (2.0 * riemann_zeta(4.0).real)
    assert abs(res.value - expected) < 1e-9


def test_classical_eisenstein_circle_identity(walk_only):
    # Z_circle(s) = 2 c^(2s) zeta(2s) E(i, s): left side by continuation,
    # right side by the walked lattice sum plus its integral tail correction
    c, s = 1.7, 2.0
    lhs = c ** (2 * s) * epstein_continued(IDENT, s).value
    direct = classical_eisenstein(1j, s, method="direct", radius=1000.0)
    rhs = 2.0 * c ** (2 * s) * riemann_zeta(2 * s) * direct.value
    rhs += c ** (2 * s) * disc_tail_correction(IDENT, s, 1000.0)
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_classical_eisenstein_periodicity():
    a = classical_eisenstein(1j, 2.0).value
    b = classical_eisenstein(1j + 1.0, 2.0).value
    assert abs(a - b) <= 1e-9 * abs(a)


def test_classical_eisenstein_translation_invariance():
    a = classical_eisenstein(20.3 + 0.8j, 2.0).value
    b = classical_eisenstein(0.3 + 0.8j, 2.0).value
    assert abs(a - b) <= 1e-12 * abs(b)


def test_classical_eisenstein_inversion_invariance():
    # -1/z is rounded to doubles; mapping it back to the fundamental domain
    # stretches that rounding by Im(reduced z) / Im(-1/z), about 1e2 for
    # 2.1 + 0.05i, hence 1e-13
    for z in (0.1 + 0.05j, 2.1 + 0.05j):
        for s in (2.0, 0.5 + 3.0j, -1.2 + 1.5j):
            a = classical_eisenstein(-1.0 / z, s).value
            b = classical_eisenstein(z, s).value
            assert abs(a - b) <= 1e-13 * abs(b)


def test_classical_eisenstein_requires_upper_half_plane():
    with pytest.raises(ValidationError):
        classical_eisenstein(1.0 - 1j, 2.0)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_reconstruct_circle_single_term(unit_circle):
    rec = reconstruct_hlawka(unit_circle, 2.0, 8, mode="truncated", radius=500.0)
    direct = hlawka_direct(unit_circle, 2.0, 500.0)
    assert abs(rec.value - direct.value) <= 1e-10 * abs(direct.value)


def test_reconstruct_ellipse_truncated(thin_ellipse):
    rec = reconstruct_hlawka(thin_ellipse, 2.0, 40, mode="truncated", radius=800.0)
    direct = hlawka_direct(thin_ellipse, 2.0, 800.0)
    assert abs(rec.value - direct.value) <= 1e-10 * abs(direct.value)


def test_reconstruct_bump_continued(bump_shape):
    rec = reconstruct_hlawka(bump_shape, 2.0, 40, mode="continued")
    direct = hlawka_direct(bump_shape, 2.0, 1500.0)
    assert abs(rec.value - direct.value) <= direct.error_estimate + 1e-9


def test_continuations_make_one_incomplete_gamma_call(monkeypatch, bump_shape):
    # every component, both halves, in one batch of (s, x) pairs
    calls = []

    def counted(s, x):
        calls.append(np.size(x))
        return upper_incomplete_gamma(s, x)

    monkeypatch.setattr(zeta, "upper_incomplete_gamma", counted)
    reconstruct_hlawka(bump_shape, 2.0, 40, mode="continued")
    assert len(calls) == 1 and calls[0] > 0
    for run in (lambda: epstein_continued(QuadForm2(1.0, 0.4, 3.7), 0.3 + 5.0j),
                lambda: eisenstein_fq_continued(8, 0.3 + 5.0j),
                # the four s of the numeric limit in one batch
                lambda: residue_at_one(parse_shape("circle:c=1.2")),
                lambda: residue_at_one(parse_shape("ellipse:a=2,b=1,phi=0.3")),
                lambda: epstein_continued_many(QuadForm2(1.0, 0.4, 3.7), [0.3 + 5.0j, -1.2 + 0.5j, 2.5])):
        calls.clear()
        run()
        assert len(calls) == 1


def test_epstein_continued_many_matches_single_calls():
    # one reduction and one splitting for all s; each value stays within its
    # own bound of the single call (only the incomplete gammas' last digits
    # move with the batch), and so does the bound
    u = QuadForm2(2.0, 0.9, 1.1)
    s_values = [0.3 + 5.0j, -1.7 + 0.4j, 1.0 + 2e-4, 1.0 - 2e-4, 2.5, -2.0]
    many = epstein_continued_many(u, s_values)
    assert len(many) == len(s_values)
    for s, res in zip(s_values, many):
        one = epstein_continued(u, s)
        assert abs(res.value - one.value) <= one.error_estimate
        assert res.error_estimate == pytest.approx(one.error_estimate, rel=1e-9)
    assert many[-1].value == 0.0  # the trivial zero at s = -2, exactly
    with pytest.raises(PoleError):
        epstein_continued_many(u, [2.0, 1.0])


def test_theta_split_batches_agree_with_one_element_calls(monkeypatch, thin_ellipse):
    # every (s, x) pair of a continuation's batch against its own call:
    # numpy rounds some complex operations on longer arrays differently, so
    # the two agree to a few ulps, not bit for bit
    batches = []

    def captured(s, x):
        batches.append((np.array(s), np.array(x)))
        return upper_incomplete_gamma(s, x)

    monkeypatch.setattr(zeta, "upper_incomplete_gamma", captured)
    epstein_continued(QuadForm2(1.0, 0.4, 3.7), 0.3 + 5.0j)
    epstein_continued_many(QuadForm2(2.0, 0.9, 1.1), [-1.7 + 0.4j, 2.5 + 12.0j])
    eisenstein_fq_continued(8, -0.6 + 7.0j)
    reconstruct_hlawka(thin_ellipse, -1.2 + 3.0j, 40, mode="continued")
    assert len(batches) == 4
    for s, x in batches:
        batch = upper_incomplete_gamma(s, x)
        for si, xi, v in zip(s, x, batch):
            one = upper_incomplete_gamma(complex(si), float(xi))
            assert abs(v - one) <= 16 * 2.0**-52 * abs(one), (si, xi)


def _cutoff_scan(sp, q, x_min, beta):
    """The cutoff by a linear scan over x_ref + 36 + k, k = 0, 1, ..."""
    p = q / 2.0
    big_a = max(sp.real - 1.0, q - sp.real, 0.0)

    def f(x):
        return 2.0 * math.exp(p * math.log(x / math.pi) - x) / (x - big_a)

    x_ref = max(x_min, p, big_a + 1.0)
    target = 2.0**-60 * f(x_ref)
    x = x_ref + 36.0
    while True:
        r = 1.0 - p / x
        root = math.sqrt(x)
        tail = f(x) * (1.0 + 1.0 / (x - big_a)) * (
            (x + 1.0) / r + 1.0 / r**2 + beta * (root / r + 0.5 / (root * r**2))
        )
        if tail <= target:
            return x, tail
        x += 1.0


def test_cutoff_search_matches_the_linear_scan():
    rng = np.random.default_rng(10)
    for _ in range(3000):
        s = complex(rng.uniform(-30.0, 30.0), rng.uniform(-60.0, 60.0))
        q = 4 * int(rng.integers(0, 60 if rng.uniform() < 0.3 else 11))
        x_min = math.exp(rng.uniform(-3.0, 4.0))
        beta = rng.uniform(1.7, 40.0)
        sp = s + q / 2.0
        assert zeta._cutoff(sp, q, x_min, beta) == _cutoff_scan(sp, q, x_min, beta), (s, q, x_min, beta)


def test_reconstruct_warns_on_kinked_shape(square_shape):
    with pytest.warns(UserWarning):
        rec = reconstruct_hlawka(square_shape, 2.0, 16, mode="truncated", radius=300.0)
    assert rec.truncation["slow_coefficient_decay"] is True


def test_eval_result_json_shape(unit_circle):
    res = hlawka_direct(unit_circle, 2.0, 100.0)
    d = res.to_json_dict()
    assert set(d) == {"value", "error_estimate", "truncation"}
    assert set(d["value"]) == {"re", "im"}


# ---------------------------------------------------------------------------
# the shared disc-sum kernel: p <-> -p folding and thread independence
# ---------------------------------------------------------------------------


def _disc_reference(weight, radius):
    """Plain-numpy sum of weight(m, n) over the whole disc 0 < |p| <= radius,
    and the sum of the term moduli as the scale of its rounding."""
    b = int(math.ceil(radius))
    n, m = np.meshgrid(np.arange(-b, b + 1), np.arange(-b, b + 1), indexing="ij")
    m, n = m.ravel(), n.ravel()
    n2 = m * m + n * n
    keep = (n2 > 0) & (n2 <= radius * radius)
    w = weight(m[keep].astype(float), n[keep].astype(float))
    return complex(np.sum(w)), float(np.sum(np.abs(w)))


def _zeta_weight(shape, s):
    return lambda m, n: (np.hypot(m, n) / shape.evaluate(np.arctan2(n, m))) ** (-2.0 * s)


def _twisted_weight(q, rotation, s):
    return lambda m, n: np.exp(1j * q * (np.arctan2(n, m) + rotation)) * (m * m + n * n) ** (-s)


_S = 2.0 + 1.0j
_R = 150.0
_GL2 = Mat2(1.2, 0.3, -0.1, 0.8)
_FORM = QuadForm2(1.3, 0.4, 0.9)
_TRIVIAL, _NEG, _REFL, _KLEIN, _D4 = (Symmetry.TRIVIAL, Symmetry.NEGATION, Symmetry.REFLECTION,
                                      Symmetry.KLEIN, Symmetry.D4)
_ZETA_SHAPES = [
    ("circle", circle(1.0), _D4),
    ("ellipse", ellipse(2.0, 1.0), _KLEIN),
    ("rotated ellipse", ellipse(2.0, 1.0, 0.4), _NEG),
    ("square", square(), _D4),
    ("cos:c0=1,c2=0.15", cosine_series([1.0, 0.0, 0.15]), _KLEIN),
    ("cos:c0=1,c4=0.1", cosine_series([1.0, 0.0, 0.0, 0.0, 0.1]), _D4),
    ("ellipse@gl2", act(_GL2, ellipse(2.0, 1.0)), _NEG),
    ("odd", odd_shape(), _TRIVIAL),
    ("cos odd harmonics", cosine_series([1.0, 0.1, 0.0, 0.05]), _REFL),
    ("odd@gl2", act(_GL2, odd_shape()), _TRIVIAL),
    ("cos odd harmonics@gl2", act(_GL2, cosine_series([1.0, 0.1, 0.0, 0.05])), _TRIVIAL),
]
# images with integer dilation times, whose sums count the points of each t
_INTEGER_IMAGES = [
    ("square@gl2=1,1,0,1", act(Mat2(1.0, 1.0, 0.0, 1.0), square()), _NEG),
    ("odd@gl2=2,1,1,1", act(Mat2(2.0, 1.0, 1.0, 1.0), odd_shape()), _TRIVIAL),
    ("odd@gl2=0,1,1,0", act(Mat2(0.0, 1.0, 1.0, 0.0), odd_shape()), _TRIVIAL),  # det -1
]
_FORMS = [("epstein", _FORM, _NEG), ("epstein identity", IDENT, _D4),
          ("epstein diagonal", QuadForm2(1.3, 0.0, 0.9), _KLEIN),
          ("epstein diagonal u11 < u22", QuadForm2(0.9, 0.0, 1.3), _KLEIN)]


def _reconstruct_weight(shape, s, q_max):
    coeffs = zeta._fourier.fourier_coeffs(shape, s, q_max, 256).coefficients
    return lambda m, n: sum(c * _twisted_weight(q, 0.0, s)(m, n)
                            for q, c in coeffs.items() if q % 4 == 0)


# the integer kinds count their times by rows and walk no disc
_COUNTED = {"square", "odd"} | {name for name, _, _ in _INTEGER_IMAGES}
_FOLD_CASES = [
    (name, lambda sh=shape: hlawka_direct(sh, _S, _R).value, _zeta_weight(shape, _S),
     None if name in _COUNTED else folded)
    for name, shape, folded in _ZETA_SHAPES + _INTEGER_IMAGES
] + [
    (name, lambda u=u: hlawka_direct(u.region(), _S, _R).value, lambda m, n, u=u: u.evaluate(m, n) ** (-_S), folded)
    for name, u, folded in _FORMS
] + [
    # q not divisible by 4 vanishes identically and walks nothing: its exact
    # 0 is checked against the numpy sum, which cancels to rounding; rotated,
    # q = 0 mod 4 walks the unrotated sum's octant
    (f"twisted q={q}", lambda q=q: eisenstein_fq_truncated(q, 0.3, _S, _R).value,
     lambda m, n, q=q: (-1j) ** q * _twisted_weight(q, 0.3, _S)(m, n), _D4 if q % 4 == 0 else None)
    for q in (3, 4, 6, 8)
] + [
    # unrotated, q = 0 mod 4 walks the octant: |p|^(-2s) and e^{i q theta}
    # are D4-invariant
    (f"twisted q={q} unrotated", lambda q=q: eisenstein_fq_truncated(q, 0.0, _S, _R).value,
     lambda m, n, q=q: (-1j) ** q * _twisted_weight(q, 0.0, _S)(m, n), _D4 if q % 4 == 0 else None)
    for q in (1, 2, 3, 4, 5, 6, 7, 38)
] + [
    ("twisted sums q=0,4,8", lambda: zeta._twisted_sums_truncated(_S, [0, 4, 8], _R, None)[8],
     _twisted_weight(8, 0.0, _S), _D4),
    ("reconstruct", lambda: reconstruct_hlawka(ellipse(1.1, 1.0), _S, 20, radius=_R).value,
     _reconstruct_weight(ellipse(1.1, 1.0), _S, 20), _D4),
]


@pytest.fixture
def fold_calls(monkeypatch, walk_only):
    """The symmetry of every disc walk the direct sums start; circles and
    ellipses are made to walk, not to take their row tails."""
    calls = []

    def spy(bound, func, threads=None, symmetry=Symmetry.TRIVIAL):
        calls.append(symmetry)
        return lattice.map_box_chunks(bound, func, threads=threads, symmetry=symmetry)

    monkeypatch.setattr(zeta, "map_box_chunks", spy)
    return calls


@pytest.mark.parametrize("name,compute,weight,folded", _FOLD_CASES, ids=[c[0] for c in _FOLD_CASES])
def test_direct_sums_fold_exactly_the_even_terms(fold_calls, name, compute, weight, folded):
    value = compute()
    assert fold_calls == ([] if folded is None else [folded])
    ref, scale = _disc_reference(weight, _R)
    assert abs(value - ref) <= 1e-13 * scale


def test_central_symmetry_is_structural():
    for _, shape, symmetry in _ZETA_SHAPES:
        assert shape.symmetry is symmetry
    # p -> -p is in the group exactly where r(theta + pi) = r(theta)
    centrally_symmetric = [True, True, True, True, True, True, True, False, False, False, False]
    assert [sh.symmetry.has_negation for _, sh, _ in _ZETA_SHAPES] == centrally_symmetric
    # only even harmonics, at two different orders; only multiples of 4
    assert cosine_series([1.0, 0.0, 0.1, 0.0, 0.05]).symmetry is _KLEIN
    assert cosine_series([1.0, 0.0, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0, 0.02]).symmetry is _D4
    assert cosine_series([1.0]).symmetry is _D4
    assert ellipse(2.0, 1.0, math.pi / 2).symmetry is _NEG  # decided from phi, not sampled
    assert act(_GL2, cosine_series([1.0, 0.0, 0.15])).symmetry is _NEG
    # a GL(2,Z) image of a polygon is a polygon, its group read off the vertex set
    assert parse_shape("square@gl2=0,1,1,0").symmetry is _D4
    assert parse_shape("square@gl2=1,1,0,1").symmetry is _NEG
    assert parse_shape("odd@gl2=0,1,1,0").symmetry is _TRIVIAL


def test_integer_dilation_times_at_the_verify_samples():
    samples = cli._to_convergent(cli._random_samples(0, 10))
    for s, res in zip(samples, hlawka_direct_many(square(), samples, _R)):
        ref, scale = _disc_reference(_zeta_weight(square(), s), _R)
        assert abs(res.value - ref) <= 1e-13 * scale


@pytest.fixture
def direct_paths(monkeypatch):
    """Which path each direct sum of Z_r takes: "count" for the row counts
    of integer dilation times, "point" for the per-point disc sum, "rows"
    for the row tails of a circle or an ellipse."""
    calls = []

    def spy(name, f):
        def wrapped(*args, **kwargs):
            out = f(*args, **kwargs)
            if name != "rows" or out:
                calls.append(name)
            return out
        return wrapped

    monkeypatch.setattr(lattice, "time_counts", spy("count", lattice.time_counts))
    monkeypatch.setattr(zeta, "_disc_sums", spy("point", zeta._disc_sums))
    monkeypatch.setattr(zeta, "_row_tail_sums", spy("rows", zeta._row_tail_sums))
    return calls


def test_only_integral_images_count_dilation_times(direct_paths, monkeypatch, row_tails_at_every_radius):
    for shape in [square(), odd_shape()] + [sh for _, sh, _ in _INTEGER_IMAGES]:
        hlawka_direct_many(shape, [_S, 3.0], 60.0)
    assert direct_paths == ["count"] * 5
    direct_paths.clear()
    for shape in (act(Mat2(1.5, 0.5, 0.0, 1.0), odd_shape()),  # not integral
                  act(Mat2(2.0, 0.0, 0.0, 1.0), odd_shape()),  # det 2: g^-1 is not integral
                  act(Mat2(0.5, 0.0, 0.0, 0.5), square()),
                  circle(1.0), cosine_series([1.0, 0.0, 0.0, 0.0, 0.1])):
        hlawka_direct_many(shape, [_S, 3.0], 60.0)
    # the cosine series takes the Fourier route, one batch of twisted row tails per s
    assert direct_paths == ["point"] * 3 + ["rows"] * 3
    direct_paths.clear()
    # a shape whose times could exceed the count array is summed per point
    monkeypatch.setattr(zeta, "_COUNT_BINS", 60)
    hlawka_direct(square(), _S, 60.0)
    hlawka_direct(square(), _S, 59.0)
    assert direct_paths == ["point", "count"]


@pytest.mark.parametrize("spec", ["square", "odd", "odd@gl2=1,-3,0,-1", "odd@gl2=0,1,1,0"])
def test_integer_kinds_above_the_count_bins_keep_the_point_sum(monkeypatch, direct_paths, spec):
    # the per-point sum of shapes whose times outgrow the count array agrees
    # with the row counts to rounding, with the same error bar
    shape = parse_shape(spec)
    rows = hlawka_direct_many(shape, [_S, 3.0], 250.5)
    monkeypatch.setattr(zeta, "_COUNT_BINS", 1)
    points = hlawka_direct_many(shape, [_S, 3.0], 250.5)
    assert direct_paths == ["count", "point"]
    for a, b, s in zip(rows, points, [_S, 3.0]):
        _, scale = _disc_reference(_zeta_weight(shape, s), 250.5)
        assert abs(a.value - b.value) <= 1e-14 * scale
        assert a.error_estimate == b.error_estimate


def test_large_integer_images_sum_point_by_point(direct_paths):
    # entries of 1e6 put radius / r_min beyond _COUNT_BINS at radius 10; the
    # exact integer preimages h^-1 p give the reference times
    shape = parse_shape("odd@gl2=1000000,999999,1,1")
    assert lattice.time_ulps(shape) == 0.0 and 10.0 / shape.r_min >= zeta._COUNT_BINS
    res = hlawka_direct(shape, _S, 10.0)
    assert direct_paths == ["point"]
    n, m = np.meshgrid(np.arange(-10, 11), np.arange(-10, 11), indexing="ij")
    keep = (m * m + n * n <= 100) & ((m != 0) | (n != 0))
    m, n = m[keep], n[keep]
    t = lattice.dilation_times_block(odd_shape(), m - 999999 * n, 1000000 * n - m)
    terms = t ** (-2.0 * _S)
    assert abs(res.value - np.sum(terms)) <= 1e-14 * np.sum(np.abs(terms))


def test_time_counts_sum_to_the_disc_count():
    # every nonzero point of the disc lies in exactly one cone of each kind
    n = np.arange(-400, 401)
    points = np.count_nonzero(n[:, None] ** 2 + n**2 <= 400**2) - 1
    for spec in ("square", "odd", "odd@gl2=2,1,1,1", "odd@gl2=0,1,1,0"):
        counts = lattice.time_counts(parse_shape(spec), 400.0)
        assert counts.sum() == points and counts[0] == 0


_THREAD_CASES = {
    "zeta rotated ellipse": lambda t: hlawka_direct(ellipse(2.0, 1.0, 0.3), 2.0 + 0.5j, 600.0, threads=t).value,
    "zeta odd": lambda t: hlawka_direct(odd_shape(), 2.0 + 0.5j, 600.0, threads=t).value,
    "zeta odd@gl2=2,1,1,1": lambda t: hlawka_direct(
        act(Mat2(2.0, 1.0, 1.0, 1.0), odd_shape()), 2.0 + 0.5j, 600.0, threads=t).value,
    "zeta circle": lambda t: hlawka_direct(circle(1.0), 2.0 + 0.5j, 1500.0, threads=t).value,
    "zeta square": lambda t: hlawka_direct(square(), 2.0 + 0.5j, 1500.0, threads=t).value,
    "zeta cos:c0=1,c4=0.1": lambda t: hlawka_direct(
        cosine_series([1.0, 0.0, 0.0, 0.0, 0.1]), 2.0 + 0.5j, 1500.0, threads=t).value,
    "zeta cos:c0=1,c2=0.15": lambda t: hlawka_direct(
        cosine_series([1.0, 0.0, 0.15]), 2.0 + 0.5j, 700.0, threads=t).value,
    "epstein": lambda t: hlawka_direct(_FORM.region(), 2.0 + 0.5j, 600.0, threads=t).value,
    "twisted q=8": lambda t: eisenstein_fq_truncated(8, 0.3, 2.0 + 0.5j, 600.0, threads=t).value,
    "twisted q=12": lambda t: eisenstein_fq_truncated(12, 0.3, 2.0 + 0.5j, 600.0, threads=t).value,
    "twisted q=4 unrotated": lambda t: eisenstein_fq_truncated(4, 0.0, 2.0 + 0.5j, 900.0, threads=t).value,
    "twisted q=16 unrotated": lambda t: eisenstein_fq_truncated(16, 0.0, 2.0 + 0.5j, 900.0, threads=t).value,
    "twisted q=20 unrotated": lambda t: eisenstein_fq_truncated(20, 0.0, 2.0 + 0.5j, 900.0, threads=t).value,
    "reconstruct": lambda t: reconstruct_hlawka(
        ellipse(1.1, 1.0), 2.0 + 0.5j, 24, radius=600.0, threads=t).value,
    "count cos:c0=1,c2=0.15": lambda t: lattice.count_points(
        cosine_series([1.0, 0.0, 0.15]), 700.0, half_weight_boundary=True, threads=t),
}


@pytest.mark.parametrize("kernel", list(_THREAD_CASES.values()), ids=list(_THREAD_CASES))
def test_direct_sums_bit_identical_across_threads(kernel):
    one, two, three = (kernel(t) for t in (1, 2, 3))
    assert one == two == three


# ---------------------------------------------------------------------------
# the table-driven power kernel
# ---------------------------------------------------------------------------

# Re s in (1, 3], |Im s| <= 50 and a few up to 1e9
_KERNEL_RNG = np.random.default_rng(2201)
_KERNEL_S = [complex(a, b) for a, b in zip(_KERNEL_RNG.uniform(1.0, 3.0, 12), _KERNEL_RNG.uniform(-50.0, 50.0, 12))] \
    + [1.01 + 40.0j, 3.0 - 50.0j, 2.0 + 1e4j, 1.5 - 3.7e6j, 2.0 + 1e9j]


@pytest.mark.parametrize("s", _KERNEL_S)
def test_power_kernel_within_the_rounding_budget(s):
    # each term within what ``_rounding`` charges it apart from the
    # summation: |s| 3 |log x| ulps for the exponent, 8 for the exponential;
    # log x over the direct sums' range (t^2 from r_max^-2 to
    # (MAX_RADIUS / r_min)^2)
    rng = np.random.default_rng(2202)
    log_x = np.concatenate([rng.uniform(-12.0, 2.0 * math.log(2e5), 150), [0.0, -12.0, 24.4]])
    got = zeta._powers(log_x, s).copy()
    with mp.workdps(60):
        for k, lx in enumerate(log_x.tolist()):
            exact = mp.exp(-mp.mpc(s) * mp.mpf(lx))
            ulps = float(abs(mp.mpc(got[k]) - exact) / abs(exact)) / zeta._EPS
            assert ulps <= abs(s) * 3.0 * abs(lx) + 8.0, (s, lx, ulps)


def test_unit_root_table_within_an_ulp():
    table = zeta._unit_roots()
    size = len(table)
    with mp.workdps(40):
        for j, v in enumerate(table.tolist()):
            x = mp.mpf(2 * j) / size
            for got, exact in ((v.real, mp.cospi(x)), (v.imag, mp.sinpi(x))):
                assert abs(got - exact) <= math.ulp(float(exact)), j


def test_power_kernel_is_elementwise_whatever_the_length():
    # no value depends on the array it sits in: chunks and thread counts
    # cannot change a term
    rng = np.random.default_rng(7)
    log_x = rng.uniform(-5.0, 15.0, 40000)
    for s in (1.7 + 23.4j, 2.5 - 0.3j):
        full = zeta._powers(log_x, s).copy()
        for start in (0, 1, 5, 8191, 8192, 12345, 39993):
            for size in (1, 7, 32768):
                stop = min(start + size, len(log_x))
                part = zeta._powers(log_x[start:stop], s)
                assert np.array_equal(part, full[start:stop]), (s, start, size)


def test_direct_sums_reject_phases_beyond_the_kernel(monkeypatch, square_shape):
    # |Im s| |log x| beyond 2^50 delta (1.7e12) leaves the exact reduction
    def no_walk(*args, **kwargs):
        raise AssertionError("walked before checking the phase")

    spec = build_spectrum(square_shape, 20.0)
    monkeypatch.setattr(zeta, "map_box_chunks", no_walk)
    monkeypatch.setattr(zeta._lattice, "time_counts", no_walk)
    s = 2.0 + 1e14j
    for call in (lambda: hlawka_direct(circle(1.0), s, 50.0), lambda: hlawka_direct(square_shape, s, 50.0),
                 lambda: eisenstein_fq_truncated(4, 0.0, s, 50.0), lambda: eisenstein_fq_truncated(4, 0.3, s, 50.0),
                 lambda: reconstruct_hlawka(circle(1.0), s, 0, radius=50.0), lambda: hlawka_from_spectrum(spec, s)):
        with pytest.raises(ValidationError, match="Im s"):
            call()


@pytest.mark.parametrize("shape", [circle(1.0), square()], ids=["walk", "counts"])
def test_direct_sum_at_a_large_imaginary_part_within_its_bar(shape):
    # at Im s = 1e9 the phases reach 4.6e9 and the bar is mostly rounding
    s = 2.0 + 1e9j
    res = hlawka_direct(shape, s, 10.0)
    n, m = np.meshgrid(np.arange(-10, 11), np.arange(-10, 11), indexing="ij")
    keep = (m * m + n * n <= 100) & ((m != 0) | (n != 0))
    with mp.workdps(40):
        if shape == circle(1.0):
            exact = mp.fsum(mp.mpf(a * a + b * b) ** (-mp.mpc(s)) for a, b in zip(m[keep].tolist(), n[keep].tolist()))
        else:
            exact = mp.fsum(mp.mpf(max(abs(a), abs(b))) ** (-2 * mp.mpc(s))
                            for a, b in zip(m[keep].tolist(), n[keep].tolist()))
    assert abs(res.value - complex(exact)) <= res.error_estimate


def test_direct_sum_whose_bar_overflows_is_a_numeric_error():
    # r_max^(2 Re s) = 1e400 is beyond floats: no bar, so no value
    with pytest.raises(NumericError, match="overflows"):
        hlawka_direct(circle(1e100), 2.0, 50.0)


# ---------------------------------------------------------------------------
# error bars of the direct sums: tail plus rounding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("radius", [31.7, 400.0])
@pytest.mark.parametrize("s", [4.0, 6.0])
def test_direct_sum_error_estimate_bounds_rounding(radius, s):
    # at R = 400, s = 6 the tail is 1e-27 and the float sum is off by about
    # 1e-16: only a rounding term makes the bar a bound
    exact = 4.0 * (riemann_zeta(s) * dirichlet_beta(s)).real
    for res in (hlawka_direct(circle(1.0), s, radius), hlawka_direct(IDENT.region(), s, radius),
                eisenstein_fq_truncated(0, 0.0, s, radius)):
        assert abs(res.value - exact) <= res.error_estimate
    res = reconstruct_hlawka(circle(1.0), s, 0, radius=radius)
    assert abs(res.value - exact) <= res.error_estimate


@pytest.mark.parametrize("s", [8.0, 8.0 + 30.0j])
def test_direct_sum_error_estimate_charges_the_rounding_of_the_times(s):
    # Z over 0 < |p| <= 10 in mpmath, then with every time off by the full
    # rounding bound b 2^-52 of ``time_ulps`` in one direction, which the
    # model admits: the bar covers both the true error and that shift.  At
    # Re s = 8 the tail is 3e-12 and the shift about 1.8e-8 (b is 3233 for
    # this series), so a bar that charged t no rounding would miss it
    shape = cosine_series([1.0] + [0.0] * 999 + [0.45])
    res = hlawka_direct(shape, s, 10.0)
    n, m = np.meshgrid(np.arange(-10, 11), np.arange(-10, 11), indexing="ij")
    keep = (m * m + n * n <= 100) & ((m != 0) | (n != 0))
    with mp.workdps(30):
        times = [mp.hypot(a, b) / (1 + mp.mpf(0.45) * mp.cos(1000 * mp.atan2(b, a)))
                 for a, b in zip(m[keep].tolist(), n[keep].tolist())]
        exact = mp.fsum(t ** (-2 * mp.mpc(s)) for t in times)
        shrink = 1 - mp.mpf(lattice.time_ulps(shape)) * mp.mpf(2) ** -52
        shift = float(abs(shrink ** (-2 * mp.mpc(s)) - 1) * abs(exact))
    assert shift > 1e3 * zeta._disc_tail(2.0 * math.pi * shape.r_max**16, 8.0, 10.0)
    assert abs(res.value - complex(exact)) + shift <= res.error_estimate


@pytest.mark.parametrize("radius", [31.7, 400.0])
def test_vanishing_twisted_sums_lie_within_their_error_estimate(radius):
    for q in (q for q in range(-7, 41) if q % 4):
        for s in (4.0, 6.0, 6.0 + 5.0j):
            res = eisenstein_fq_truncated(q, 0.0, s, radius)
            assert abs(res.value) <= res.error_estimate, (q, s)


@pytest.mark.parametrize("radius", [-50.0, 3.0, float("nan"), 1e9])
def test_reconstruct_truncated_validates_its_radius(monkeypatch, radius):
    def no_walk(*args, **kwargs):
        raise AssertionError("enumerated before validating the radius")

    monkeypatch.setattr(zeta, "map_box_chunks", no_walk)
    monkeypatch.setattr(zeta._fourier, "fourier_coeffs", no_walk)
    with pytest.raises(ValidationError):
        reconstruct_hlawka(circle(1.0), 2.0, 8, mode="truncated", radius=radius)


# ---------------------------------------------------------------------------
# circles and ellipses by row tails: Z_Q less the tails beyond the disc
# ---------------------------------------------------------------------------


def _walked(shape, s_list, radius, threads=None):
    """The walk's results for a circle or an ellipse (its row tails off)."""
    original = zeta._quadratic_rows
    zeta._quadratic_rows = lambda shape, radius: None
    try:
        return hlawka_direct_many(shape, s_list, radius, threads=threads)
    finally:
        zeta._quadratic_rows = original


def _bare_bar(res, shape, s, radius):
    """A direct sum's bar less the disc tail both routes charge: what it
    claims for the truncated sum itself."""
    return res.error_estimate - zeta._disc_tail(2.0 * math.pi * shape.r_max ** (2.0 * s.real), s.real, radius)


# forms up to condition 1e3 and one at 2.9e4, circles, rotated ellipses, an
# ellipse whose x axis is the shorter (a < b, from ``act``) and images
_ROW_SHAPES = {
    "circle": circle(1.0),
    "circle c=0.7": circle(0.7),
    "ellipse": ellipse(2.0, 1.0),
    "rotated ellipse": ellipse(2.5, 1.0, 0.7),
    "ellipse a < b": act(Mat2(1.0, 0.0, 0.0, 2.0), ellipse(1.5, 1.0)),
    "circle@gl2": act(Mat2(1.2, 0.3, -0.1, 0.8), circle(1.0)),
    "ellipse@gl2": act(Mat2(2.0, 0.5, 0.0, 0.7), ellipse(1.3, 1.0, 0.4)),
    "form (2.5,-1.5,1)": QuadForm2(2.5, -1.5, 1.0).region(),
    "form cond 727": QuadForm2(1.0, 5.0, 26.0).region(),
    "form cond 1e3": QuadForm2(1.0, 0.0, 1000.0).region(),
    "form cond 2.9e4": QuadForm2(1.0, 13.0, 170.0).region(),
}
_ROW_S = [1.05 + 0.3j, 1.2 + 8.0j, 1.5 + 0.1j, 2.3 + 5.0j, 3.0 + 8.0j, 4.0 - 2.0j, 2.69494 + 6.392013j]
_ROW_RADII = [10.0, 30.5, 250.0, 600.0, 1339.85, 1500.0]
_ROW_GRID_RNG = np.random.default_rng(2601)
_ROW_GRID = [(name, radius, list(_ROW_GRID_RNG.choice(len(_ROW_S), 3 if radius < 1000 else 1, replace=False)))
             for name in _ROW_SHAPES for radius in _ROW_RADII]


@pytest.mark.parametrize("name,radius,picks", _ROW_GRID, ids=[f"{n} R={r}" for n, r, _ in _ROW_GRID])
def test_row_tails_agree_with_the_walk(name, radius, picks, row_tails_at_every_radius):
    # the two routes to the same truncated sum agree within the sum of
    # what their bars claim for it (the disc tail to infinity aside)
    shape, s_list = _ROW_SHAPES[name], [_ROW_S[k] for k in picks]
    for s, res, walked in zip(s_list, hlawka_direct_many(shape, s_list, radius), _walked(shape, s_list, radius)):
        if res.truncation["route"] == "walk":
            assert res == walked
            continue
        assert res.truncation["rows"] > 0 and res.truncation["em_terms"] in zeta._EM_TERMS
        assert abs(res.value - walked.value) <= _bare_bar(res, shape, s, radius) + _bare_bar(walked, shape, s, radius)
        # the added bars take at most the walk's own bar
        assert res.error_estimate <= 2.0 * walked.error_estimate


def test_row_tails_carry_most_of_the_grid(row_tails_at_every_radius):
    taken = {(name, radius): [res.truncation["route"] for res in hlawka_direct_many(
        _ROW_SHAPES[name], [_ROW_S[k] for k in picks], radius)] for name, radius, picks in _ROW_GRID}
    assert sum(routes.count("row-tails") for routes in taken.values()) >= 0.8 * sum(map(len, taken.values()))
    # every shape takes them at R >= 250, where the walk is costly
    for name in _ROW_SHAPES:
        assert "row-tails" in taken[(name, 600.0)] + taken[(name, 1500.0)], name


def _mp_row_integral(x, c, s):
    with mp.workdps(30):
        f = lambda y: (y * y + mp.mpf(c) ** 2) ** (-mp.mpc(s))  # noqa: E731
        return mp.quad(f, [mp.mpf(x), mp.mpf(x) + 1 + 4 * mp.mpf(c), mp.inf])


def _test_rows(x, c, u11=1.0):
    x, c = np.array(x, float), np.array(c, float)
    return zeta._QuadRows(QuadForm2.identity(), u11, 1.0, 1.0, 1, x, c, np.log(x * x + c * c),
                          np.ones(len(x)), 1.0)


@pytest.mark.parametrize("s", [2.3 + 5.0j, 1.05 + 0.3j, 3.0 - 8.0j])
def test_row_integrals_match_mpmath(s):
    # |x| >= c (the first branch), |x| < c (the second), x < 0 on both, and
    # c = 0 (the row n = 0)
    x, c = [40.0, 3.0, 12.5, -3.0, -40.0, 7.0, 25.0], [30.0, 10.0, 12.4, 10.0, 30.0, 0.0, 25.0]
    rows = _test_rows(x, c)
    half_line = math.sqrt(math.pi) * gamma(s - 0.5) / gamma(s)
    got, mass, rest = zeta._row_integrals(rows, s, half_line, 0.0)
    for k in range(len(x)):
        want = complex(_mp_row_integral(x[k], c[k], s))
        assert abs(got[k] - want) <= 1e-14 * abs(want) + 4e-13 * mass[k], (x[k], c[k])
    assert rest <= 1e-16 * float(np.sum(mass))


@pytest.mark.parametrize("s", [2.3 + 5.0j, 1.2 + 8.0j])
def test_row_tails_match_mpmath(s):
    # single rows of the form (2.5, -1.5, 1): row n's tail from a,
    # sum over m >= a of Q(m, n)^-s, against mpmath's own Euler-Maclaurin sum
    u = QuadForm2(2.5, -1.5, 1.0)
    for n, a in ((0, 30), (7, 20), (25, 3), (40, -2)):
        shift, c = u.u12 / u.u11, math.sqrt(u.det) / u.u11 * abs(n)
        rows = _test_rows([a + shift * n], [c], u.u11)
        half_line = math.sqrt(math.pi) * gamma(s - 0.5) / gamma(s)
        with mp.workdps(30):
            want = 2 * mp.sumem(lambda m: (u.u11 * m * m + 2 * u.u12 * m * n + u.u22 * n * n) ** (-mp.mpc(s)),
                                [a, mp.inf])
        for p in (4, 6, 12):
            value, bound = zeta._row_tails(rows, s, p, half_line, 0.0)
            em = zeta._em_remainder(rows, s, p)
            assert abs(value - complex(want)) <= bound + em + 1e-15 * abs(value), (n, a, p)
            if a >= 20 and p == 12:  # far from the row's zeros the sum is accurate
                assert abs(value - complex(want)) <= 1e-14 * abs(value)


def _mp_disc_sum(u, s, radius):
    """sum of Q(m, n)^-s over 0 < m^2 + n^2 <= floor(radius^2), in mpmath."""
    top, total = math.floor(radius * radius), mp.mpc(0)
    with mp.workdps(30):
        for m in range(-math.isqrt(top), math.isqrt(top) + 1):
            for n in range(-math.isqrt(top - m * m), math.isqrt(top - m * m) + 1):
                if m or n:
                    total += (mp.mpf(u.u11) * m * m + 2 * mp.mpf(u.u12) * m * n + mp.mpf(u.u22) * n * n) ** (-mp.mpc(s))
        return complex(total)


def _recurrence_form(s, share=0.99999):
    """A form (1, 0.3, k) whose least X = pi Q / sqrt(det) is ``share`` of
    |1 - s|, just inside the range where the continuation's
    Gamma(1 - s, X) recurses."""
    return QuadForm2(1.0, 0.3, (math.pi / (share * abs(1.0 - s))) ** 2 + 0.09)


@pytest.mark.parametrize("s", [3.0 + 0.02j, 3.9 + 0.02j, 4.0 + 0.02j])
def test_row_tail_bars_charge_the_gamma_recurrence(s, row_tails_at_every_radius):
    # near an integer s >= 2 the continuation's Gamma(1 - s, X), X just
    # below |1 - s|, cancels by about 1 / dist(s, k); its own bar does not
    # charge that, and without ``_gamma_recurrence`` the route's bar would
    # under-claim 2.3 to 7 times here
    u = _recurrence_form(s)
    res = hlawka_direct(u.region(), s, 20.0)
    assert res.truncation["route"] == "row-tails"
    assert abs(res.value - _mp_disc_sum(u, s, 20.0)) <= _bare_bar(res, u.region(), s, 20.0)


def test_row_tails_fall_back_to_the_walk(row_tails_at_every_radius):
    # at Im s = 40 the continuation's bars are far above the walk's; at
    # R = 10 the forms of condition 727 and 2.9e4 whose rows run along the
    # long axis leave too few rows for the full rows' Bessel terms to fade;
    # within 1e-6 of s = 4 the continuation's Gamma(1 - s, X) recurrence
    # cancels by about 1e6, beyond |s| = 50 Gamma(s) overflows, and a circle
    # of radius 1e-100 has a form beyond the floats
    for shape, s, radius in ((circle(1.0), 2.0 + 40.0j, 600.0), (ellipse(2.0, 1.0, 0.3), 1.5 - 40.0j, 300.0),
                             (QuadForm2(26.0, 5.0, 1.0).region(), 3.0 + 2.0j, 10.0),
                             (QuadForm2(170.0, 13.0, 1.0).region(), 3.0 + 2.0j, 10.0),
                             (_recurrence_form(4.0 + 1e-6j).region(), 4.0 + 1e-6j, 20.0),
                             (ellipse(1.3, 0.2, 0.4), 150.0 + 1.0j, 50.0), (circle(1e-100), 2.0 + 1.0j, 50.0)):
        res = hlawka_direct(shape, s, radius)
        assert res.truncation["route"] == "walk"
        assert res == _walked(shape, [s], radius)[0]


def test_row_tails_serve_every_s_of_one_call(monkeypatch):
    # one continuation for every s that may take the row tails (at
    # |Im s| = 40 its bar rules them out once it has run); the s that fall
    # back share one walk
    calls = []
    monkeypatch.setattr(zeta, "epstein_continued_many",
                        lambda u, s_list: calls.append(len(s_list)) or epstein_continued_many(u, s_list))
    s_list = [2.0 + 1.0j, 2.0 + 40.0j, 3.0, 1.5 - 40.0j]
    many = hlawka_direct_many(ellipse(2.0, 1.0, 0.3), s_list, 600.0)
    assert calls == [4]
    assert [r.truncation["route"] for r in many] == ["row-tails", "walk", "row-tails", "walk"]
    walked = _walked(ellipse(2.0, 1.0, 0.3), [s_list[1], s_list[3]], 600.0)
    assert [many[1], many[3]] == walked
    for s, res in zip(s_list, many):
        assert res == hlawka_direct(ellipse(2.0, 1.0, 0.3), s, 600.0)


def test_row_tail_bars_bound_the_true_error(row_tails_at_every_radius):
    # against Z_Q(s) in mpmath less the exact tails: the disc sum at R = 40,
    # summed in mpmath, with the bar less the disc tail
    u = QuadForm2(2.5, -1.5, 1.0)
    shape, radius = u.region(), 40.0
    for s in (2.3 + 5.0j, 1.2 + 8.0j, 3.0):
        res = hlawka_direct(shape, s, radius)
        assert res.truncation["route"] == "row-tails"
        with mp.workdps(30):
            exact = mp.fsum((u.u11 * m * m + 2 * u.u12 * m * n + u.u22 * n * n) ** (-mp.mpc(s))
                            for m in range(-40, 41) for n in range(-40, 41) if 0 < m * m + n * n <= 1600)
        assert abs(res.value - complex(exact)) <= _bare_bar(res, shape, complex(s), radius)


# ---------------------------------------------------------------------------
# vanishing twisted components
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rotation", [0.0, 0.3])
def test_vanishing_twisted_components_are_exact_zeros(monkeypatch, rotation):
    # the quarter turn maps the disc onto itself and multiplies the sum by
    # i^q != 1: the exact 0, without a walk; the numpy sum over the disc
    # cancels to its rounding
    monkeypatch.setattr(zeta, "map_box_chunks", lambda *args, **kwargs: pytest.fail("walked"))
    for q in (1, 2, 3, 5, 6, 7, 10, 38, -3, -6):
        res = eisenstein_fq_truncated(q, rotation, _S, _R)
        assert res.value == 0 and res.error_estimate == 0.0
        assert res.truncation == {"radius": _R, "q": q, "rotation": rotation, "vanishes_identically": True}
        ref, scale = _disc_reference(_twisted_weight(q, rotation, _S), _R)
        assert abs(ref) <= 1e-13 * scale


@pytest.mark.parametrize("args,match", [
    ((2.5, 0.0, 2.0, 50.0), "integer"), ((3, math.inf, 2.0, 50.0), "rotation"), ((3, 0.0, 1.0, 50.0), "Re"),
    ((3, 0.0, 2.0, 5.0), "radius"), ((3, 0.3, 2.0 + 1e14j, 50.0), "Im s"),
])
def test_vanishing_twisted_components_validate_first(args, match):
    with pytest.raises(ValidationError, match=match):
        eisenstein_fq_truncated(*args)


# ---------------------------------------------------------------------------
# twisted sums and reconstructions by row tails
# ---------------------------------------------------------------------------


def _walked_twisted(q, s, radius):
    """The walk's ``eisenstein_fq_truncated`` (its row tails off)."""
    original = zeta._quadratic_rows
    zeta._quadratic_rows = lambda shape, radius: None
    try:
        return eisenstein_fq_truncated(q, 0.0, s, radius)
    finally:
        zeta._quadratic_rows = original


_TWIST_S = [1.05 + 0.3j, 1.268126 + 1.189243j, 2.0 + 0.5j, 2.872185 + 6.47993j, 3.0 - 8.0j, 4.0 + 2.0j]
_TWIST_RADII = [10.0, 30.5, 250.0, 600.0, 1500.0]
_TWIST_GRID_RNG = np.random.default_rng(2701)
_TWIST_GRID = [(q, radius, list(_TWIST_GRID_RNG.choice(len(_TWIST_S), 3 if radius < 1000 else 1, replace=False)))
               for q in (4, 8, 20, 40) for radius in _TWIST_RADII]


@pytest.mark.parametrize("q,radius,picks", _TWIST_GRID, ids=[f"q={q} R={r}" for q, r, _ in _TWIST_GRID])
def test_twisted_row_tails_agree_with_the_walk(q, radius, picks, row_tails_at_every_radius):
    # within the sum of what the two bars claim for the truncated sum (the
    # disc tail to infinity aside); the route's bar at most twice the walk's
    for s in (_TWIST_S[k] for k in picks):
        res, walked = eisenstein_fq_truncated(q, 0.0, s, radius), _walked_twisted(q, s, radius)
        assert walked.truncation["route"] == "walk"
        if res.truncation["route"] == "walk":
            assert res == walked
            continue
        assert res.truncation["rows"] == math.isqrt(math.floor(radius * radius)) + 1
        assert res.truncation["em_terms"] in zeta._EM_TERMS
        tail = zeta._disc_tail(2.0 * math.pi, s.real, radius)
        assert abs(res.value - walked.value) <= res.error_estimate + walked.error_estimate - 2.0 * tail, (q, s)
        assert res.error_estimate <= 2.0 * walked.error_estimate


def test_twisted_row_tails_carry_most_of_the_grid(row_tails_at_every_radius):
    routes = [eisenstein_fq_truncated(q, 0.0, _TWIST_S[k], radius).truncation["route"]
              for q, radius, picks in _TWIST_GRID for k in picks]
    assert routes.count("row-tails") >= 0.7 * len(routes)


_RECON_SHAPES = [circle(1.1245), ellipse(1.181, 1.0), cosine_series([1.0, 0.0, 0.15]),
                 cosine_series([1.0, 0.0, 0.0, 0.0, 0.1])]


@pytest.mark.parametrize("shape", _RECON_SHAPES, ids=["circle", "ellipse", "cos c2", "cos c4"])
@pytest.mark.parametrize("radius,s", [(30.5, 1.2 + 3.0j), (420.0, 2.86 + 6.8j), (800.0, 1.3 + 0.7j)])
def test_reconstruct_row_tails_agree_with_the_walk(shape, radius, s, row_tails_at_every_radius):
    # every component within the two bars of the walk's, and the whole
    # within the walk's bar
    q_list = list(range(0, 41, 4))
    mass = zeta._lattice_mass(s.real)
    bars = [zeta._rounding(s, mass, 2.0 * math.log(radius), 0.0, q) for q in q_list]
    rows = zeta._quadratic_rows(circle(), radius)
    sums = zeta._row_tail_sums(rows, [(s, q) for q in q_list], [mass] * len(q_list),
                               [b + zeta._disc_tail(2.0 * math.pi, s.real, radius) for b in bars],
                               zeta._twisted_continued, every=True)
    walked = zeta._twisted_sums_truncated(s, q_list, radius, None)
    assert len(sums) == len(q_list)
    for i, q in enumerate(q_list):
        assert abs(sums[i][0] - walked[q]) <= sums[i][1] + bars[i], q
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the cosine series' slow coefficient decay
        res = reconstruct_hlawka(shape, s, 40, radius=radius)
        original = zeta._quadratic_rows
        zeta._quadratic_rows = lambda shape, radius: None
        try:
            walk = reconstruct_hlawka(shape, s, 40, radius=radius)
        finally:
            zeta._quadratic_rows = original
    assert res.truncation["route"] == "row-tails" and walk.truncation["route"] == "walk"
    assert res.truncation["rows"] == rows.top + 1 and res.truncation["em_terms"] in zeta._EM_TERMS
    assert abs(res.value - walk.value) <= walk.error_estimate


def _mp_twisted_row_integral(a, n, s, q):
    """int_a^inf cos(q theta) (y^2 + n^2)^-s dy, theta = arctan(n / y), in
    mpmath: n^(1-2s) int_0^psi cos(q t) sin^(2s-2) t dt, psi = arctan(n / a)."""
    with mp.workdps(30):
        z = mp.mpc(s)
        if n == 0:
            return complex(mp.mpf(a) ** (1 - 2 * z) / (2 * z - 1))
        psi = mp.atan(mp.mpf(n) / a)
        g = mp.quad(lambda t: mp.cos(q * t) * mp.sin(t) ** (2 * z - 2), mp.linspace(0, psi, 4))
        return complex(mp.mpf(n) ** (1 - 2 * z) * g)


@pytest.mark.parametrize("s,q", [(2.3 + 5.0j, 8), (1.05 + 0.3j, 40), (3.0 - 8.0j, 20), (2.0 + 0.5j, 4)])
def test_twisted_row_integrals_match_mpmath(s, q):
    # rows below z_c = 1 / max(q, 8) take the series, the rest the panels
    rows = zeta._quadratic_rows(circle(), 400.0)
    integrals, moduli, rest = zeta._twisted_integrals(rows, s, [q], 1e-20)
    top = rows.top
    picks = [0, 1, 2, 3, 9, 10, 11, 50, 200, top // 2, top - 40, top - 1, top]
    for n in picks:
        want = _mp_twisted_row_integral(int(rows.x[n]), n, s, q)
        assert abs(integrals[0, n] - want) <= 1e-14 * abs(want) + rest[0], (n, rows.x[n])
    # truncation and rounding at most a few thousand ulps of the moduli
    assert rest[0] <= 4e-12 * float(rows.weight @ moduli[0]) + 1e-18


@pytest.mark.parametrize("s", [2.3 + 5.0j, 1.05 + 0.3j, 2.0, 3.7 - 2.0j])
@pytest.mark.parametrize("q", [0, 4, 12, 40])
def test_full_row_line_matches_mpmath(s, q):
    # int_0^pi e^(i q t) sin^(2s - 2) t dt, 2 pi (2)^(1-2s) Gamma(2s - 1) /
    # (Gamma(s - q/2) Gamma(s + q/2)), within the ulps it claims; at q = 0
    # the half-line value sqrt(pi) Gamma(s - 1/2) / Gamma(s)
    line, ulps = zeta._row_line(complex(s), q)
    with mp.workdps(30):
        z = mp.mpc(s)
        want = complex(mp.quad(lambda t: mp.expj(q * t) * mp.sin(t) ** (2 * z - 2), mp.linspace(0, mp.pi, 9)))
    assert abs(line - want) <= ulps * zeta._EPS * abs(want) + 1e-28


def test_full_row_line_vanishes_at_the_poles():
    # s - q/2 a pole of Gamma: e^(4 i t) against sin^2 t integrates to 0
    assert zeta._row_line(2.0 + 0j, 4) == (0j, 0.0)
    with mp.workdps(30):
        assert abs(mp.quad(lambda t: mp.expj(4 * t) * mp.sin(t) ** 2, [0, mp.pi])) < 1e-25


def _mp_twisted_disc_sum(q, s, radius):
    """sum of e^(i q theta) |p|^(-2s) over 0 < |p|^2 <= floor(radius^2), in mpmath."""
    top = math.floor(radius * radius)
    with mp.workdps(30):
        z = mp.mpc(s)
        total = mp.mpc(0)
        for m in range(-math.isqrt(top), math.isqrt(top) + 1):
            for n in range(-math.isqrt(top - m * m), math.isqrt(top - m * m) + 1):
                if m or n:
                    total += mp.expj(q * mp.atan2(n, m)) * mp.mpf(m * m + n * n) ** (-z)
        return complex(total)


@pytest.mark.parametrize("q,s", [(4, 2.3 + 5.0j), (8, 1.2 + 8.0j), (40, 3.0 + 0.5j), (20, 1.6 + 3.6j)])
def test_twisted_row_tail_bars_bound_the_true_error(q, s, row_tails_at_every_radius):
    radius = 40.0
    res = eisenstein_fq_truncated(q, 0.0, s, radius)
    assert res.truncation["route"] == "row-tails"
    bare = res.error_estimate - zeta._disc_tail(2.0 * math.pi, s.real, radius)
    assert abs(res.value - _mp_twisted_disc_sum(q, s, radius)) <= bare


def test_row_tails_are_taken_by_the_walks_point_count():
    # pi R^2 / |G| against ``_WALK_POINTS``: D4 for circles, twisted sums
    # and reconstructions, p -> -p for a rotated ellipse
    edge = math.sqrt(zeta._WALK_POINTS * 8.0 / math.pi)
    for radius, route in ((edge - 5.0, "walk"), (edge + 5.0, "row-tails")):
        assert hlawka_direct(circle(1.0), 2.0 + 1.0j, radius).truncation["route"] == route
        assert eisenstein_fq_truncated(8, 0.0, 2.0 + 1.0j, radius).truncation["route"] == route
        assert reconstruct_hlawka(circle(1.2), 2.0 + 1.0j, 16, radius=radius).truncation["route"] == route
    edge = math.sqrt(zeta._WALK_POINTS * 2.0 / math.pi)
    for radius, route in ((edge - 5.0, "walk"), (edge + 5.0, "row-tails")):
        assert hlawka_direct(ellipse(2.0, 1.0, 0.3), 2.0 + 1.0j, radius).truncation["route"] == route


def test_twisted_sums_fall_back_to_the_walk(row_tails_at_every_radius):
    # beyond |s + q/2| = 50 the continuation leaves its accuracy contract,
    # and at Im s = 40 its bar is far above the walk's; a reconstruction
    # takes the row tails for all its components or for none
    for q, s in ((120, 2.0 + 1.0j), (8, 2.0 + 40.0j)):
        res = eisenstein_fq_truncated(q, 0.0, s, 300.0)
        assert res == _walked_twisted(q, s, 300.0)
        assert res.truncation["route"] == "walk"
    res = reconstruct_hlawka(circle(1.0), 2.0 + 40.0j, 8, radius=300.0)
    assert res.truncation["route"] == "walk"


def test_twisted_row_tails_serve_every_component_with_one_continuation(monkeypatch, row_tails_at_every_radius):
    calls = []
    monkeypatch.setattr(zeta, "upper_incomplete_gamma", lambda a, x: calls.append(1) or upper_incomplete_gamma(a, x))
    res = reconstruct_hlawka(ellipse(1.1, 1.0), 2.0 + 0.5j, 40, radius=600.0)
    assert res.truncation["route"] == "row-tails" and calls == [1]


@pytest.mark.parametrize("s", [3.0 + 0.02j, 4.0 + 0.02j])
def test_continued_bars_charge_the_gamma_recurrence(s):
    # the form (1, 0.3, k) whose least X = pi Q / sqrt(det) is just below
    # |1 - s|: Gamma(1 - s, X) recurses and cancels by about 1 / dist(s, k);
    # the continuation's own bar charges it
    u = _recurrence_form(s)
    res = epstein_continued(u, s)
    assert abs(res.value - _mp_theta_epstein(u.u11, u.u12, u.u22, s, digits=25)) <= res.error_estimate


def test_gamma_recurrence_bounds_the_incomplete_gamma_error():
    # per X, the share it charges bounds the error of Gamma(a, X) against
    # mpmath, for a near and away from the poles, X below max(|a|, 1)
    rng = np.random.default_rng(2702)
    checked = 0
    with mp.workdps(40):
        for trial in range(240):
            k = int(rng.integers(-10, 1))
            a = [complex(rng.uniform(-12.0, 0.5), rng.uniform(-12.0, 12.0)),
                 complex(k + rng.choice([-1, 1]) * 10 ** rng.uniform(-8, -1), 10 ** rng.uniform(-9, 0)),
                 complex(k + rng.uniform(-1e-13, 1e-13), 0.0)][trial % 3]
            x = float(np.exp(rng.uniform(math.log(0.02), math.log(max(abs(a), 1.0)))))
            if x >= max(abs(a), 1.0):
                continue
            share = zeta._gamma_recurrence(a, np.array([x]), np.array([x ** a.real]))
            truth = complex(mp.gammainc(mp.mpc(a.real, a.imag), x))
            assert abs(upper_incomplete_gamma(a, x) - truth) <= share, (a, x)
            checked += 1
    assert checked >= 200
    # beyond the recursion nothing is charged
    assert zeta._gamma_recurrence(2.0 + 1.0j, np.array([0.5]), np.array([1.0])) == 0.0
    assert zeta._gamma_recurrence(-3.0 + 1.0j, np.array([4.0]), np.array([1.0])) == 0.0


def test_epstein_direct_at_a_large_imaginary_part_takes_the_row_tails():
    # the continuation's Gamma(1 - s, X) recursion bound at Im s = 7.2 no
    # longer exceeds the walk's bar (the direct-sums benchmark's job)
    shape = QuadForm2(0.5, 0.25, 0.5).region()
    s = 2.952668 + 7.223028j
    res = hlawka_direct(shape, s, 916.805)
    assert res.truncation["route"] == "row-tails"
    walked = _walked(shape, [s], 916.805)[0]
    assert abs(res.value - walked.value) <= _bare_bar(res, shape, s, 916.805) + _bare_bar(walked, shape, s, 916.805)


# ---------------------------------------------------------------------------
# cosine series by the Fourier route
# ---------------------------------------------------------------------------

_COS_SHAPES = {"c2": [1.0, 0.0, 0.15], "c4": [1.0, 0.0, 0.0, 0.0, 0.1], "c6": [1.0, 0.0, 0.05, 0.0, 0.0, 0.0, 0.04]}
_ROUTE_RNG = np.random.default_rng(3402)
_ROUTE_GRID = [(name, radius, complex(round(_ROUTE_RNG.uniform(1.05, 3.0), 6), round(_ROUTE_RNG.uniform(-8.0, 8.0), 6)))
               for name in _COS_SHAPES for radius in (400.0, 777.7, 1500.0) for _ in range(2)]


def _walked_direct(shape, s, radius):
    """The walk's ``hlawka_direct`` (the row tails, and so the Fourier route, off)."""
    original = zeta._quadratic_rows
    zeta._quadratic_rows = lambda shape, radius: None
    try:
        return hlawka_direct(shape, s, radius)
    finally:
        zeta._quadratic_rows = original


@pytest.mark.parametrize("name,radius,s", _ROUTE_GRID, ids=[f"{n} R={r} s={s}" for n, r, s in _ROUTE_GRID])
def test_fourier_route_agrees_with_the_walk(name, radius, s, row_tails_at_every_radius):
    # within the sum of what the two bars claim for the truncated sum (the
    # shared disc tail to infinity aside); a refused route is the walk
    shape = cosine_series(_COS_SHAPES[name])
    res, walked = hlawka_direct(shape, s, radius), _walked_direct(shape, s, radius)
    assert walked.truncation["route"] == "walk"
    if res.truncation["route"] == "walk":
        assert res == walked
        return
    assert res.truncation["route"] == "fourier" and res.truncation["q_max"] % 4 == 0
    tail = zeta._disc_tail(2.0 * math.pi * shape.r_max ** (2.0 * s.real), s.real, radius)
    assert abs(res.value - walked.value) <= (res.error_estimate - tail) + (walked.error_estimate - tail)
    assert res.error_estimate <= 2.0 * walked.error_estimate


def test_most_of_the_route_grid_takes_the_fourier_route(row_tails_at_every_radius):
    # where its cost is set aside, the route's bars refuse it on few s
    routes = [hlawka_direct(cosine_series(_COS_SHAPES[n]), s, r).truncation["route"] for n, r, s in _ROUTE_GRID]
    assert routes.count("fourier") >= 0.75 * len(routes), routes


def test_the_fourier_route_counts_the_walk_by_the_shapes_own_group(monkeypatch):
    # a cos(2 theta) series folds by the Klein group (order 4), a
    # cos(4 theta) series by D4 (order 8): the route starts at
    # pi R^2 / |G| > _WALK_POINTS, R = 276.4 and 390.9 (its twists' cost
    # set aside)
    monkeypatch.setattr(zeta, "_ROUTE_TWISTS", math.inf)
    c2, c4 = cosine_series(_COS_SHAPES["c2"]), cosine_series(_COS_SHAPES["c4"])
    s = 1.874252 + 3.122349j
    assert hlawka_direct(c2, s, 270.0).truncation["route"] == "walk"
    assert hlawka_direct(c2, s, 290.0).truncation["route"] == "fourier"
    assert hlawka_direct(c4, s, 380.0).truncation["route"] == "walk"
    assert hlawka_direct(c4, s, 400.0).truncation["route"] == "fourier"


def test_the_fourier_route_walks_where_its_twists_cost_more():
    # at this s Q = 36 for c2 (10 twists) and 64 for c4 (17): the route
    # starts at pi R^2 / |G| > _WALK_POINTS twists / _ROUTE_TWISTS,
    # R = 309.0 and 569.8
    c2, c4 = cosine_series(_COS_SHAPES["c2"]), cosine_series(_COS_SHAPES["c4"])
    s = 1.874252 + 3.122349j
    assert hlawka_direct(c2, s, 300.0).truncation["route"] == "walk"
    assert hlawka_direct(c2, s, 320.0).truncation["q_max"] == 36
    assert hlawka_direct(c4, s, 560.0).truncation["route"] == "walk"
    assert hlawka_direct(c4, s, 580.0).truncation["q_max"] == 64


def test_a_thin_cosine_series_walks_before_sizing_a_table(monkeypatch):
    # r_min = 1e-5: the strip bound's Q is millions, far beyond the row
    # tails' |s + Q/2| <= 50, so the route is refused before any table
    def no_table(*args, **kwargs):
        raise AssertionError("a table was summed")

    monkeypatch.setattr(zeta._fourier, "fourier_coeffs", no_table)
    shape = cosine_series([1.0, 0.0, 0.99999])
    for s in (2.0 + 1.0j, 1.05, 3.0 - 8.0j):
        res = hlawka_direct(shape, s, 300.0)
        assert res.truncation["route"] == "walk" and math.isfinite(abs(res.value))


def test_walk_only_disables_the_fourier_route(walk_only):
    res = hlawka_direct(cosine_series(_COS_SHAPES["c2"]), 1.874252 + 3.122349j, 600.0)
    assert res.truncation["route"] == "walk"


def test_fourier_route_images_walk():
    # an image of a cosine series is no cosine series: it walks
    shape = act(Mat2(1.2, 0.3, -0.1, 0.8), cosine_series(_COS_SHAPES["c2"]))
    assert hlawka_direct(shape, 2.0 + 1.0j, 300.0).truncation["route"] == "walk"


def test_circles_reconstruct_from_one_component():
    # a circle's chat(q != 0) are bounded by 0: only T_0 is summed
    for mode in ("truncated", "continued"):
        res = reconstruct_hlawka(circle(1.2), 2.0 + 1.0j, 40, mode=mode, radius=500.0)
        assert res.truncation["q_used"] == 0
        assert abs(res.value - 1.2 ** (2.0 * (2.0 + 1.0j)) * epstein_continued(QuadForm2.identity(),
                                                                             2.0 + 1.0j).value) <= res.error_estimate


def test_fq_validates_q_up_front():
    # a q beyond the floats, or whose phase leaves the kernel's range, or a
    # continuation beyond |s + q/2| = 50, is a ValidationError, not a
    # traceback or a hang
    for q in (4 * 10**400, 4 * 10**12, -4 * 10**12):
        with pytest.raises(ValidationError, match="q"):
            eisenstein_fq_truncated(q, 0.0, 2.0, 50.0)
        with pytest.raises(ValidationError, match="q"):
            eisenstein_fq_continued(q, 2.0)
    for q in (4 * 10**11, 100):
        with pytest.raises(ValidationError, match="s \\+ q/2"):
            eisenstein_fq_continued(q, 2.0)


def test_large_q_walks_take_their_harmonic_by_one_power():
    # far beyond _HARMONIC_STEPS products, the harmonic is one power: q =
    # 4e11 sums at once, and q = 400 agrees with the numpy disc sum
    start = time.perf_counter()
    res = eisenstein_fq_truncated(4 * 10**11, 0.0, 2.0, 50.0)
    assert time.perf_counter() - start < 5.0
    assert np.isfinite(res.value) and np.isfinite(res.error_estimate)
    res = eisenstein_fq_truncated(400, 0.0, 2.0 + 1.0j, 60.0)
    ref, _ = _disc_reference(_twisted_weight(400, 0.0, 2.0 + 1.0j), 60.0)
    assert abs(res.value - ref) <= res.error_estimate


def test_no_blas_thread_spins_after_the_row_tails_and_the_spectrum_sums():
    # a threaded BLAS call leaves a worker spinning for about 0.1 s; the
    # library makes none, so the process idles while it sleeps
    res = eisenstein_fq_truncated(8, 0.0, 1.268126 + 1.189243j, 2100.0)
    assert res.truncation["route"] == "row-tails" and res.truncation["rows"] > 2000
    spec = build_spectrum(ellipse(1.3, 1.0), 160.0)
    assert len(spec.t_values) > 16000
    hlawka_from_spectrum(spec, 2.0 + 1.0j)
    before = resource.getrusage(resource.RUSAGE_SELF)
    time.sleep(0.05)
    after = resource.getrusage(resource.RUSAGE_SELF)
    assert (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime) < 0.010
