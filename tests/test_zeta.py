"""Lattice zeta sums: direct/spectral agreement, continuation calibration
(oracle-first), symmetry cancellations, and the reconstruction identity."""

import cmath
import math

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


def test_epstein_continued_calibration_against_direct():
    # oracle-first: the continuation must reproduce tail-corrected direct
    # sums in the convergent region before any use beyond it
    for u in (IDENT, ellipse_form(2.0, 1.0), QuadForm2(2.0, 0.5, 1.0)):
        for s in (2.0, 3.0, 2.5 + 1.5j):
            cont = epstein_continued(u, s).value
            direct = hlawka_direct(u.region(), s, 1500.0)
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
    rng = np.random.default_rng(42)
    base = eisenstein_fq_truncated(4, 0.0, 2.0, 300.0).value
    for _ in range(8):
        phi = rng.uniform(0, 2 * math.pi)
        rotated = eisenstein_fq_truncated(4, phi, 2.0, 300.0).value
        assert abs(rotated - cmath.exp(4j * phi) * base) <= 1e-12


def test_fq_continued_oracle_calibration():
    # the continuation must match the disc sum at s = 2, 3, 4 to 1e-9
    for s in (2.0, 3.0, 4.0):
        cont = eisenstein_fq_continued(4, s).value
        trunc = eisenstein_fq_truncated(4, 0.0, s, 1500.0).value
        assert abs(cont - trunc) <= 1e-9 * abs(cont)


def test_fq_continued_entire_at_critical_line():
    val = eisenstein_fq_continued(8, 0.5).value
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_fq_continued_rejects_bad_q():
    for q in (2, 3, 6, -4, 0):
        with pytest.raises(ValidationError):
            eisenstein_fq_continued(q, 2.0)


# ---------------------------------------------------------------------------
# classical series
# ---------------------------------------------------------------------------


def test_classical_eisenstein_at_i():
    res = classical_eisenstein(1j, 2.0)
    expected = CIRCLE_S2 / (2.0 * riemann_zeta(4.0).real)
    assert abs(res.value - expected) < 1e-9


def test_classical_eisenstein_circle_identity():
    # Z_circle(s) = 2 c^(2s) zeta(2s) E(i, s): left side by continuation,
    # right side by the direct lattice sum plus its integral tail correction
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
    (f"twisted q={q}", lambda q=q: eisenstein_fq_truncated(q, 0.3, _S, _R).value,
     lambda m, n, q=q: (-1j) ** q * _twisted_weight(q, 0.3, _S)(m, n), _NEG if q % 2 == 0 else _TRIVIAL)
    for q in (3, 4, 6, 8)
] + [
    # unrotated, every q walks the octant: |p|^(-2s) is D4-invariant and the
    # twist sums cos(q theta) over the cosets of the group that keeps it real
    (f"twisted q={q} unrotated", lambda q=q: eisenstein_fq_truncated(q, 0.0, _S, _R).value,
     lambda m, n, q=q: (-1j) ** q * _twisted_weight(q, 0.0, _S)(m, n), _D4)
    for q in (1, 2, 3, 4, 5, 6, 7, 38)
] + [
    ("twisted sums q=0,4,8", lambda: zeta._twisted_sums_truncated(_S, [0, 4, 8], _R, None)[8],
     _twisted_weight(8, 0.0, _S), _D4),
    ("reconstruct", lambda: reconstruct_hlawka(ellipse(1.1, 1.0), _S, 20, radius=_R).value,
     _reconstruct_weight(ellipse(1.1, 1.0), _S, 20), _D4),
]


@pytest.fixture
def fold_calls(monkeypatch):
    """The symmetry of every disc walk the direct sums start."""
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


def test_integer_dilation_times_at_the_verify_samples():
    samples = cli._to_convergent(cli._random_samples(0, 10))
    for s, res in zip(samples, hlawka_direct_many(square(), samples, _R)):
        ref, scale = _disc_reference(_zeta_weight(square(), s), _R)
        assert abs(res.value - ref) <= 1e-13 * scale


@pytest.fixture
def direct_paths(monkeypatch):
    """Which path each direct sum of Z_r takes: "count" for the row counts
    of integer dilation times, "point" for the per-point disc sum."""
    calls = []

    def spy(name, f):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(lattice, "time_counts", spy("count", lattice.time_counts))
    monkeypatch.setattr(zeta, "_disc_sums", spy("point", zeta._disc_sums))
    return calls


def test_only_integral_images_count_dilation_times(direct_paths, monkeypatch):
    for shape in [square(), odd_shape()] + [sh for _, sh, _ in _INTEGER_IMAGES]:
        hlawka_direct_many(shape, [_S, 3.0], 60.0)
    assert direct_paths == ["count"] * 5
    direct_paths.clear()
    for shape in (act(Mat2(1.5, 0.5, 0.0, 1.0), odd_shape()),  # not integral
                  act(Mat2(2.0, 0.0, 0.0, 1.0), odd_shape()),  # det 2: g^-1 is not integral
                  act(Mat2(0.5, 0.0, 0.0, 0.5), square()),
                  circle(1.0), cosine_series([1.0, 0.0, 0.0, 0.0, 0.1])):
        hlawka_direct_many(shape, [_S, 3.0], 60.0)
    assert direct_paths == ["point"] * 5
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
    # entries of 2e5 put radius / r_min beyond _COUNT_BINS at radius 10; the
    # exact integer preimages h^-1 p give the reference times
    shape = parse_shape("odd@gl2=200000,199999,1,1")
    assert lattice.time_ulps(shape) == 0.0 and 10.0 / shape.r_min >= zeta._COUNT_BINS
    res = hlawka_direct(shape, _S, 10.0)
    assert direct_paths == ["point"]
    n, m = np.meshgrid(np.arange(-10, 11), np.arange(-10, 11), indexing="ij")
    keep = (m * m + n * n <= 100) & ((m != 0) | (n != 0))
    m, n = m[keep], n[keep]
    t = lattice.dilation_times_block(odd_shape(), m - 199999 * n, 200000 * n - m)
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
    "epstein": lambda t: hlawka_direct(_FORM.region(), 2.0 + 0.5j, 600.0, threads=t).value,
    "twisted q=8": lambda t: eisenstein_fq_truncated(8, 0.3, 2.0 + 0.5j, 600.0, threads=t).value,
    "twisted q=3": lambda t: eisenstein_fq_truncated(3, 0.3, 2.0 + 0.5j, 600.0, threads=t).value,
    "twisted q=2 unrotated": lambda t: eisenstein_fq_truncated(2, 0.0, 2.0 + 0.5j, 900.0, threads=t).value,
    "twisted q=3 unrotated": lambda t: eisenstein_fq_truncated(3, 0.0, 2.0 + 0.5j, 900.0, threads=t).value,
    "twisted q=5 unrotated": lambda t: eisenstein_fq_truncated(5, 0.0, 2.0 + 0.5j, 900.0, threads=t).value,
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
    # summation: |s| 3 |log x| ulps for the exponent, 8 for the exponential,
    # and for a twist rotated by g, 4 + 4|q| plus ``_ROTATED_ULPS`` |q| for
    # its phase q theta, formed as ``eisenstein_fq_truncated`` forms it and
    # measured against the exact q (arg p + g); log x over the direct sums'
    # range (t^2 from r_max^-2 to (MAX_RADIUS / r_min)^2)
    rng = np.random.default_rng(2202)
    log_x = np.concatenate([rng.uniform(-12.0, 2.0 * math.log(2e5), 150), [0.0, -12.0, 24.4]])
    q, g = 40, 0.3
    m, n = rng.integers(-200000, 200001, (2, len(log_x))).astype(float)
    cr, sr = math.cos(g), math.sin(g)
    phase = q * np.arctan2(m * sr + n * cr, m * cr - n * sr)
    for extra, twist in ((None, 0.0), (phase, 4.0 + (4.0 + zeta._ROTATED_ULPS) * q)):
        got = zeta._powers(log_x, s, extra).copy()
        with mp.workdps(60):
            for k, lx in enumerate(log_x.tolist()):
                turn = 0 if extra is None else 1j * q * (mp.atan2(n[k], m[k]) + mp.mpf(g))
                exact = mp.exp(-mp.mpc(s) * mp.mpf(lx) + turn)
                ulps = float(abs(mp.mpc(got[k]) - exact) / abs(exact)) / zeta._EPS
                assert ulps <= abs(s) * 3.0 * abs(lx) + 8.0 + twist, (s, lx, ulps)


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
    phase = rng.uniform(-30.0, 30.0, len(log_x))
    for s, extra in ((1.7 + 23.4j, None), (2.5 - 0.3j, phase)):
        full = zeta._powers(log_x, s, extra).copy()
        for start in (0, 1, 5, 8191, 8192, 12345, 39993):
            for size in (1, 7, 32768):
                stop = min(start + size, len(log_x))
                part = zeta._powers(log_x[start:stop], s, None if extra is None else extra[start:stop])
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
        if shape.kind == "constant":
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
