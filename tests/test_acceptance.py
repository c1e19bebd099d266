"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS line per
criterion (a failing criterion shows up as an ordinary pytest failure).
Every expected value is produced by the named oracle inside the test, never
invented: brute-force enumeration, independent series with tail bounds,
quadrature areas, or cross-module evaluations over identical point sets.
"""

import math
import time

import numpy as np

from conftest import disc_tail_correction, random_complex_samples
from hlawka.fourier import ellipse_coefficient, fourier_coeffs
from hlawka.funceq import (
    check_circle_fe,
    check_coefficient_identity,
    check_ellipse_fe,
    check_fq_fe,
    perron_count_approx,
    residue_at_one,
)
from hlawka.lattice import build_spectrum
from hlawka.shapes import Mat2, act, area, circle, cosine_series, ellipse, odd_shape, square
from hlawka.special import riemann_zeta
from hlawka.zeta import (
    QuadForm2,
    eisenstein_fq_continued,
    eisenstein_fq_truncated,
    epstein_continued,
    epstein_direct,
    epstein_lambda,
    hlawka_direct,
    hlawka_direct_many,
    hlawka_from_spectrum,
    reconstruct_hlawka,
)

IDENT = QuadForm2.identity()


def _ok(n: int, text: str) -> None:
    print(f"PASS criterion {n:02d}: {text}")


def test_c01_square_spectrum_exact():
    t0 = time.time()
    spec = build_spectrum(square(), 50.0)
    elapsed = time.time() - t0
    assert [(e.t, e.count) for e in spec.entries] == [(float(k), 8 * k) for k in range(1, 51)]
    assert elapsed < 1.0
    _ok(1, f"square spectrum is exactly (k, 8k) for k=1..50 [{elapsed:.2f}s]")


def test_c02_odd_shape_counterexample():
    t0 = time.time()
    spec_sq = build_spectrum(square(), 50.0)
    spec_od = build_spectrum(odd_shape(), 50.0)
    assert [(e.t, e.count) for e in spec_od.entries] == [
        (e.t, e.count) for e in spec_sq.entries
    ]
    for s in (2.0, 3.0, 2.0 + 1.0j):
        z1 = hlawka_from_spectrum(spec_sq, s).value
        z2 = hlawka_from_spectrum(spec_od, s).value
        assert abs(z1 - z2) <= 1e-12 * abs(z1)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _ok(2, f"odd region and square share spectra and zeta values [{elapsed:.2f}s]")


def test_c03_square_closed_form():
    t0 = time.time()
    samples = [2.0, 3.0, 1.5 + 2.0j]
    results = hlawka_direct_many(square(), samples, 2000.0)
    for s, res in zip(samples, results):
        target = 8.0 * riemann_zeta(2.0 * complex(s) - 1.0)
        assert abs(res.value - target) <= res.error_estimate + 1e-6
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _ok(3, f"square direct sum equals 8 zeta(2s-1) within truncation + 1e-6 [{elapsed:.2f}s]")


def test_c04_circle_value_two_oracles():
    res = hlawka_direct(circle(1.0), 2.0, 2000.0)

    # oracle 1: brute-force lattice sum at double radius, independent loop
    radius = 4000
    total = 0.0
    r2 = radius * radius
    for n in range(-radius, radius + 1):
        m = np.arange(-radius, radius + 1, dtype=np.float64)
        q = m * m + float(n * n)
        mask = (q > 0) & (q <= r2)
        total += float(np.sum(q[mask] ** -2.0))

    # oracle 2: classical product 4 zeta(2) beta(2) from independent pieces
    k = np.arange(200_000)
    catalan = float(np.sum((-1.0) ** k / (2.0 * k + 1.0) ** 2))  # error < 2.5e-11
    product = 4.0 * (math.pi**2 / 6.0) * catalan

    assert abs(res.value - product) <= 1e-5
    assert abs(res.value - total) <= res.error_estimate
    assert abs(total - product) <= 1e-6  # the two oracles corroborate
    _ok(4, "circle value 6.0268120... confirmed by brute force and 4 zeta(2) beta(2)")


def test_c05_continuation_calibration():
    t0 = time.time()
    for s in (2.0, 3.0, 2.5 + 1.5j):
        cont = epstein_continued(IDENT, s).value
        direct = epstein_direct(IDENT, s, 2000.0).value
        corrected = direct + disc_tail_correction(IDENT, s, 2000.0)
        assert abs(cont - corrected) <= 1e-9 * abs(cont)

        fq_cont = eisenstein_fq_continued(4, s).value
        fq_direct = eisenstein_fq_truncated(4, 0.0, s, 2000.0).value
        assert abs(fq_cont - fq_direct) <= 1e-9 * abs(fq_cont)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _ok(5, f"both continuations reproduce their direct sums to 1e-9 [{elapsed:.1f}s]")


def test_c06_epstein_functional_equation():
    rng = np.random.default_rng(606)
    for _ in range(20):
        a = rng.uniform(0.5, 2.0)
        d = rng.uniform(0.5, 2.0)
        b = rng.uniform(-0.6, 0.6) * math.sqrt(a * d)
        u = QuadForm2(a, b, d)
        s = complex(rng.uniform(-2.0, 3.0), rng.uniform(0.2, 10.0))
        lhs = epstein_lambda(u, s).value
        rhs = epstein_lambda(u.inverse(), 1.0 - s).value / math.sqrt(u.det)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
    _ok(6, "completed Epstein equation Lambda(u,s) = det^(-1/2) Lambda(u^-1,1-s) on 20 samples")


def test_c07_circle_functional_equation():
    samples = random_complex_samples(707, 20)
    for c in (1.0, 1.7):
        rep = check_circle_fe(c, samples)
        assert rep.passed and rep.max_rel() <= 1e-10
    _ok(7, "circle functional equation residual <= 1e-10 on 20 samples, c in {1, 1.7}")


def test_c08_twisted_component_fe():
    for q in (4, 8):
        rep = check_fq_fe(q, random_complex_samples(808 + q, 10))
        assert rep.passed and rep.max_rel() <= 1e-8
    _ok(8, "gamma-ratio reflection of the q=4,8 components, residual <= 1e-8 on 10 samples")


def test_c09_vanishing_and_covariance():
    for q in (1, 2, 3, 5, 6, 7, 10):
        res = eisenstein_fq_truncated(q, 0.0, 2.0, 300.0)
        assert abs(res.value) <= 1e-12
    rng = np.random.default_rng(909)
    base = eisenstein_fq_truncated(4, 0.0, 2.0, 300.0).value
    for _ in range(8):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        rotated = eisenstein_fq_truncated(4, phi, 2.0, 300.0).value
        assert abs(rotated - np.exp(4j * phi) * base) <= 1e-12
    _ok(9, "components vanish for q not in 4Z and rotate covariantly for q=4")


def test_c10_eisenstein_reconstruction():
    rec = reconstruct_hlawka(circle(1.0), 2.0, 8, mode="truncated", radius=2000.0)
    direct = hlawka_direct(circle(1.0), 2.0, 2000.0)
    assert abs(rec.value - direct.value) <= 1e-10 * abs(direct.value)

    for shape in (ellipse(1.1, 1.0), cosine_series([1.0, 0, 0, 0, 0.1])):
        rec = reconstruct_hlawka(shape, 2.0, 40, mode="truncated", radius=3000.0)
        direct = hlawka_direct(shape, 2.0, 3000.0)
        assert abs(rec.value - direct.value) <= 1e-5
    _ok(10, "Fourier-twisted reconstruction matches direct sums (1e-10 circle, 1e-5 others)")


def test_c11_ellipse_coefficient_closed_form():
    c, d, s = 1.2, -0.2, 2.0
    a = math.sqrt(c)
    table = fourier_coeffs(ellipse(a, 1.0), s, 16, 512)
    for q in range(4):
        closed = ellipse_coefficient(c, d, s, q)
        quad = table.coefficients[4 * q] / a ** (2 * s)
        assert abs(closed.value - quad) <= 1e-8
    _ok(11, "ellipse coefficient closed form matches quadrature to 1e-8, q=0..3")


def test_c12_ellipse_functional_equation():
    for (a, b) in ((2.0, 1.0), (1.3, 1.0)):
        rep = check_ellipse_fe(a, b, 0.0, random_complex_samples(1212, 10))
        assert rep.passed and rep.max_rel() <= 1e-9
    _ok(12, "ellipse functional equation residual <= 1e-9 on 10 samples, both axis ratios")


def test_c13_residue_area_link():
    cases = [
        (circle(1.0), math.pi, "circle"),
        (ellipse(2.0, 1.0), 2.0 * math.pi, "ellipse(2,1)"),
        (square(), 4.0, "square"),
    ]
    for shape, target, _name in cases:
        res = residue_at_one(shape)
        quad_area = area(shape)
        assert abs(res - target) <= 1e-2 * target
        assert abs(res - quad_area) <= 1e-2 * quad_area
    _ok(13, "residue at s=1 equals the region area within 1e-2 (pi, 2pi, 4)")


def test_c14_perron_inversion():
    t0 = time.time()
    approx_sq, rep_sq = perron_count_approx(square(), 2.5, 1.25, 800.0)
    assert rep_sq.direct_half_weight == 24.0  # 8*1 + 8*2
    assert abs(approx_sq - rep_sq.direct_half_weight) <= 1.0

    approx_ci, rep_ci = perron_count_approx(circle(1.0), 1.5, 1.25, 800.0)
    assert rep_ci.direct_half_weight == 8.0  # squared norms 1 and 2
    assert abs(approx_ci - rep_ci.direct_half_weight) <= 1.0

    for rep in (rep_sq, rep_ci):
        early = rep.residual_envelope(40.0, 50.0)
        late = rep.residual_envelope(790.0, 800.0)
        assert late < early
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _ok(14, f"contour-integral counts within 1 of direct counts; envelope decreasing [{elapsed:.1f}s]")


def test_c15_gl2_action_properties():
    rng = np.random.default_rng(1515)
    sh = cosine_series([1.0, 0.1, 0.0, 0.05])
    grid = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)

    def rand_g():
        while True:
            g = Mat2(*(rng.uniform(-2.0, 2.0) for _ in range(4)))
            if abs(g.det) >= 0.1:
                return g

    worst = 0.0
    for _ in range(100):
        g, h = rand_g(), rand_g()
        combined = act(g @ h, sh)
        nested = act(g, act(h, sh))
        worst = max(worst, float(np.max(np.abs(combined.evaluate(grid) - nested.evaluate(grid)))))
    assert worst <= 1e-9

    ident = act(Mat2.identity(), sh)
    assert np.max(np.abs(ident.evaluate(grid) - sh.evaluate(grid))) <= 1e-12

    stretched = act(Mat2.diagonal(2.0, 1.0), circle(1.0))
    ref = ellipse(2.0, 1.0)
    fine = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    assert np.max(np.abs(stretched.evaluate(fine) - ref.evaluate(fine))) <= 1e-10
    _ok(15, f"group law over 100 random pairs (worst {worst:.1e}), identity, and diag = ellipse")


def test_c16_scaling_law():
    c = 1.7
    scale = Mat2.diagonal(c, c)
    shapes_list = (circle(1.0), ellipse(1.3, 1.0), square(), odd_shape(),
                   cosine_series([1.0, 0.0, 0.0, 0.0, 0.1]))
    for shape in shapes_list:
        scaled = act(scale, shape)
        for s in (2.0, 3.0, 2.0 + 1.0j):
            z = hlawka_direct(shape, s, 200.0).value
            zc = hlawka_direct(scaled, s, 200.0).value
            target = c ** (2.0 * complex(s)) * z
            assert abs(zc - target) <= 1e-12 * abs(target)
    _ok(16, "scaling law Z_{c r}(s) = c^(2s) Z_r(s) at equal truncation, 5 shapes x 3 s")


def test_c17_coefficient_identity_report():
    samples = [2.0 + 0.3j, 0.5 + 0.1j, 1.4 - 0.6j]
    rep = check_coefficient_identity(math.sqrt(1.2), 1.0, 1, samples)
    res = rep.metadata["residuals"]
    # the report covers both readings and both (ab)-exponents, all finite
    assert set(res) == {"k-form", "j-form"}
    for per_exp in res.values():
        assert set(per_exp) == {"2s-3/2", "2s-5/2"}
        for vals in per_exp.values():
            assert len(vals) == len(samples)
            assert all(math.isfinite(v) for v in vals)
    # internal consistency: the j-form's term growth is detected and flagged,
    # and the degenerate a = b case collapses to the circle equation
    assert rep.metadata["series_diagnostics"]["j-form"]["divergent"] is True
    degen = check_coefficient_identity(1.0, 1.0, 1, [2.0 + 0.3j])
    assert all(v == 0.0 for pe in degen.metadata["residuals"].values() for vs in pe.values()
               for v in vs)
    circle_analogue = check_circle_fe(1.0, [2.0 + 0.3j])
    assert circle_analogue.passed and circle_analogue.max_rel() <= 1e-9
    assert rep.passed  # gate: report produced and internally consistent
    _ok(17, "exploratory coefficient-identity report generated (both readings, both exponents)")
