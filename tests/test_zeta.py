"""Lattice zeta sums: direct/spectral agreement, continuation calibration
(oracle-first), symmetry cancellations, and the reconstruction identity."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from conftest import disc_tail_correction
from hlawka import lattice, zeta
from hlawka.errors import PoleError, ValidationError
from hlawka.lattice import build_spectrum
from hlawka.shapes import Mat2, Symmetry, act, circle, cosine_series, ellipse, odd_shape, square
from hlawka.special import dirichlet_beta, riemann_zeta
from hlawka.zeta import (
    QuadForm2,
    classical_eisenstein,
    eisenstein_fq_continued,
    eisenstein_fq_truncated,
    ellipse_form,
    epstein_continued,
    epstein_direct,
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
    a = epstein_direct(IDENT, 2.0, 400.0)
    b = hlawka_direct(unit_circle, 2.0, 400.0)
    assert abs(a.value - b.value) < 1e-13


def test_epstein_homogeneity():
    c = 2.5
    u = QuadForm2(c, 0.0, c)
    a = epstein_direct(u, 2.0 + 1.0j, 200.0).value
    b = epstein_direct(IDENT, 2.0 + 1.0j, 200.0).value
    target = c ** -(2.0 + 1.0j) * b
    assert abs(a - target) <= 1e-13 * abs(target)


def test_epstein_equals_ellipse_hlawka():
    # the ellipse (a, b) has form diag(1/a^2, 1/b^2): same dilation times
    u = ellipse_form(2.0, 1.0)
    assert abs(u.u11 - 0.25) < 1e-15 and abs(u.u22 - 1.0) < 1e-15
    a = epstein_direct(u, 2.0, 500.0).value
    b = hlawka_direct(ellipse(2.0, 1.0), 2.0, 500.0).value
    assert abs(a - b) <= 1e-12 * abs(a)


def test_epstein_continued_calibration_against_direct():
    # oracle-first: the continuation must reproduce tail-corrected direct
    # sums in the convergent region before any use beyond it
    for u in (IDENT, ellipse_form(2.0, 1.0), QuadForm2(2.0, 0.5, 1.0)):
        for s in (2.0, 3.0, 2.5 + 1.5j):
            cont = epstein_continued(u, s).value
            direct = epstein_direct(u, s, 1500.0)
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


# ---------------------------------------------------------------------------
# twisted components
# ---------------------------------------------------------------------------


def test_fq_truncated_q0_equals_epstein(unit_circle):
    a = eisenstein_fq_truncated(0, 0.0, 2.0, 300.0).value
    b = epstein_direct(IDENT, 2.0, 300.0).value
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
_FORMS = [("epstein", _FORM, _NEG), ("epstein identity", IDENT, _D4),
          ("epstein diagonal", QuadForm2(1.3, 0.0, 0.9), _KLEIN)]


def _reconstruct_weight(shape, s, q_max):
    coeffs = zeta._fourier.fourier_coeffs(shape, s, q_max, 256).coefficients
    return lambda m, n: sum(c * _twisted_weight(q, 0.0, s)(m, n)
                            for q, c in coeffs.items() if q % 4 == 0)


_FOLD_CASES = [
    (name, lambda sh=shape: hlawka_direct(sh, _S, _R).value, _zeta_weight(shape, _S), folded)
    for name, shape, folded in _ZETA_SHAPES
] + [
    (name, lambda u=u: epstein_direct(u, _S, _R).value, lambda m, n, u=u: u.evaluate(m, n) ** (-_S), folded)
    for name, u, folded in _FORMS
] + [
    (f"twisted q={q}", lambda q=q: eisenstein_fq_truncated(q, 0.3, _S, _R).value,
     lambda m, n, q=q: (-1j) ** q * _twisted_weight(q, 0.3, _S)(m, n), _NEG if q % 2 == 0 else _TRIVIAL)
    for q in (3, 4, 6, 8)
] + [
    (f"twisted q={q} unrotated", lambda q=q: eisenstein_fq_truncated(q, 0.0, _S, _R).value,
     lambda m, n, q=q: (-1j) ** q * _twisted_weight(q, 0.0, _S)(m, n), folded)
    for q, folded in ((2, _KLEIN), (3, _REFL), (4, _D4))
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
    assert fold_calls == [folded]
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


_THREAD_CASES = {
    "zeta rotated ellipse": lambda t: hlawka_direct(ellipse(2.0, 1.0, 0.3), 2.0 + 0.5j, 600.0, threads=t).value,
    "zeta odd": lambda t: hlawka_direct(odd_shape(), 2.0 + 0.5j, 600.0, threads=t).value,
    "zeta circle": lambda t: hlawka_direct(circle(1.0), 2.0 + 0.5j, 1500.0, threads=t).value,
    "zeta square": lambda t: hlawka_direct(square(), 2.0 + 0.5j, 1500.0, threads=t).value,
    "zeta cos:c0=1,c4=0.1": lambda t: hlawka_direct(
        cosine_series([1.0, 0.0, 0.0, 0.0, 0.1]), 2.0 + 0.5j, 1500.0, threads=t).value,
    "epstein": lambda t: epstein_direct(_FORM, 2.0 + 0.5j, 600.0, threads=t).value,
    "twisted q=8": lambda t: eisenstein_fq_truncated(8, 0.3, 2.0 + 0.5j, 600.0, threads=t).value,
    "twisted q=3": lambda t: eisenstein_fq_truncated(3, 0.3, 2.0 + 0.5j, 600.0, threads=t).value,
    "twisted q=3 unrotated": lambda t: eisenstein_fq_truncated(3, 0.0, 2.0 + 0.5j, 900.0, threads=t).value,
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
# error bars of the direct sums: tail plus rounding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("radius", [31.7, 400.0])
@pytest.mark.parametrize("s", [4.0, 6.0])
def test_direct_sum_error_estimate_bounds_rounding(radius, s):
    # at R = 400, s = 6 the tail is 1e-27 and the float sum is off by about
    # 1e-16: only a rounding term makes the bar a bound
    exact = 4.0 * (riemann_zeta(s) * dirichlet_beta(s)).real
    for res in (hlawka_direct(circle(1.0), s, radius), epstein_direct(IDENT, s, radius),
                eisenstein_fq_truncated(0, 0.0, s, radius)):
        assert abs(res.value - exact) <= res.error_estimate
    res = reconstruct_hlawka(circle(1.0), s, 0, radius=radius)
    assert abs(res.value - exact) <= res.error_estimate


@pytest.mark.parametrize("radius", [-50.0, 3.0, float("nan"), 1e9])
def test_reconstruct_truncated_validates_its_radius(monkeypatch, radius):
    def no_walk(*args, **kwargs):
        raise AssertionError("enumerated before validating the radius")

    monkeypatch.setattr(zeta, "map_box_chunks", no_walk)
    monkeypatch.setattr(zeta._fourier, "fourier_coeffs", no_walk)
    with pytest.raises(ValidationError):
        reconstruct_hlawka(circle(1.0), 2.0, 8, mode="truncated", radius=radius)
