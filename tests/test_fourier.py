"""Fourier table tests: symmetry structure, decay, Parseval, shift property,
and the oracle-validated closed form for ellipse coefficients."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from hlawka import fourier, special
from hlawka.cli import main
from hlawka.errors import ValidationError
from conftest import mp_fourier_coefficients
from hlawka.fourier import closed_form_coefficients, ellipse_coefficient, fourier_coeffs, strip_bounds
from hlawka.shapes import Mat2, act, circle, cosine_series, ellipse, odd_shape, parse_shape, square


def test_circle_coefficients(unit_circle):
    c = 1.3
    table = fourier_coeffs(circle(c), 2.0, 8, 256)
    assert abs(table.coefficients[0] - c**4) < 1e-14
    for q in range(1, 9):
        assert abs(table.coefficients[q]) < 1e-14
        assert abs(table.coefficients[-q]) < 1e-14


def test_bump_coefficient_at_half_power(bump_shape):
    # s = 1/2 makes r^(2s) = r, exposing the raw cosine amplitude 0.1/2
    table = fourier_coeffs(bump_shape, 0.5, 8, 256)
    assert abs(table.coefficients[4] - 0.05) < 1e-13
    assert abs(table.coefficients[-4] - 0.05) < 1e-13
    for q in (1, 2, 3, 5, 6, 7):
        assert abs(table.coefficients[q]) < 1e-13


def test_shift_property():
    sh = cosine_series([1.0, 0.2, 0.0, 0.05])
    phi = 0.37
    shifted = act(Mat2.rotation(phi), sh)  # r(theta + phi)
    t0 = fourier_coeffs(sh, 0.5, 6, 256)
    t1 = fourier_coeffs(shifted, 0.5, 6, 256)
    for q in t0.coefficients:
        assert abs(t1.coefficients[q] - cmath.exp(1j * q * phi) * t0.coefficients[q]) <= 1e-12


def test_conjugate_symmetry_real_s(thin_ellipse):
    table = fourier_coeffs(thin_ellipse, 1.5, 10, 256)
    for q in range(1, 11):
        assert abs(table.coefficients[-q] - table.coefficients[q].conjugate()) < 1e-14


def test_even_shape_symmetry_complex_s(thin_ellipse):
    # even r: chat(-q) = chat(q) even for complex s
    table = fourier_coeffs(thin_ellipse, 1.5 + 0.8j, 10, 256)
    for q in range(1, 11):
        assert abs(table.coefficients[-q] - table.coefficients[q]) < 1e-13


def test_four_fold_selection():
    for shape in (square(), circle(1.0), cosine_series([1.0, 0, 0, 0, 0.1])):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # square: kink-decay warning
            table = fourier_coeffs(shape, 2.0, 12, 512)
        c0 = abs(table.coefficients[0])
        for q in range(1, 13):
            if q % 4 != 0:
                assert abs(table.coefficients[q]) <= 1e-10 * c0


def test_parseval_inequality(bump_shape):
    s = 2.0
    table = fourier_coeffs(bump_shape, s, 16, 512)
    lhs = sum(abs(c) ** 2 for c in table.coefficients.values())
    theta = np.arange(4096) * (2 * math.pi / 4096)
    f = np.exp(2.0 * s * np.log(np.asarray(bump_shape.evaluate(theta))))
    rhs = float(np.mean(np.abs(f) ** 2))
    assert lhs <= rhs + 1e-10
    assert rhs - lhs <= 1e-8  # smooth shape: the table nearly exhausts the mass


def test_decay_smooth_vs_kinked():
    smooth = fourier_coeffs(ellipse(1.4, 1.0), 2.0, 24, 512)
    mags = [abs(smooth.coefficients[4 * k]) for k in range(1, 7)]
    ratios = [b / a for a, b in zip(mags, mags[1:])]
    assert all(r < 0.6 for r in ratios)  # geometric decay

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kinked = fourier_coeffs(square(), 2.0, 24, 512)
    kmags = {q: abs(kinked.coefficients[q]) for q in (4, 8, 16)}
    # quadratic (kink) decay: |c(q)| ~ 1/q^2, so c(16)/c(4) ~ 1/16
    assert 0.2 <= kmags[16] / kmags[4] * 16.0 <= 5.0


def _mean_loop_coeffs(shape, s, q_max, n):
    """The trapezoid sums as a loop of means over phases multiplied up one
    step at a time: the reference for the FFT."""
    theta = np.arange(n) * (2.0 * math.pi / n)
    f = np.exp(2.0 * s * np.log(np.asarray(shape.evaluate(theta))))
    phase = np.exp(-1j * theta)
    out = {0: complex(np.mean(f))}
    fw, bw = f.copy(), f.copy()
    for q in range(1, q_max + 1):
        fw = fw * phase
        bw = bw / phase
        out[q] = complex(np.mean(fw))
        out[-q] = complex(np.mean(bw))
    return out


@pytest.mark.parametrize("spec", ["circle:c=1.3", "ellipse:a=2,b=1,phi=0.3", "square", "odd",
                                  "cos:c0=1,c1=0.2,c3=0.05", "ellipse:a=1.2,b=1@gl2=1,1,0,1"])
@pytest.mark.parametrize("s", [2.0, 1.5 + 0.8j, -0.5 + 3.0j])
@pytest.mark.parametrize("q_max, n", [(8, 256), (40, 512), (40, 1024)])
def test_fft_coefficients_match_the_mean_loop(spec, s, q_max, n):
    shape = parse_shape(spec)
    fft = fourier._grid_coeffs(shape, s, q_max, n)
    ref = _mean_loop_coeffs(shape, s, q_max, n)
    assert fft.keys() == ref.keys()
    scale = max(abs(c) for c in ref.values())
    assert max(abs(fft[q] - ref[q]) for q in ref) <= 1e-14 * scale


_STRIP_SPECS = ["cos:c0=1,c2=0.15", "cos:c0=1,c4=0.1", "cos:c0=1,c2=0.05,c6=0.04", "ellipse:a=2,b=1,phi=0.3",
                 "ellipse:a=1.2,b=1@gl2=1,1,0,1", "ellipse:a=1.5,b=1"]


@pytest.mark.parametrize("spec", _STRIP_SPECS)
@pytest.mark.parametrize("s", [2.0, -0.5 + 3.0j, 1.5 + 8.0j])
def test_strip_bound_holds_against_mpmath_coefficients(spec, s):
    # |chat(q)| <= M e^(-a |q|) for every strip of the bound and q <= 100
    # (chat(-q) = chat(q) for these even shapes up to a rotation's phase,
    # which the modulus drops); mpmath at 40 digits rounds below 1e-36 M
    shape = parse_shape(spec)
    exact = mp_fourier_coefficients(shape, s, range(101))
    bounds = strip_bounds(shape, s)
    assert len(bounds) == len(fourier._STRIP_SHARES)
    for a, log_m in bounds:
        for q, value in exact.items():
            assert abs(value) <= math.exp(log_m - a * q) + 1e-36 * math.exp(log_m), (a, q)


def test_circles_bound_every_other_coefficient_by_zero():
    for s in (2.0, -0.5 + 3.0j):
        [(a, log_m)] = strip_bounds(circle(1.3), s)
        assert a == math.inf and math.exp(log_m) >= abs(1.3 ** (2.0 * s))
        assert all(math.exp(log_m - a * q) == 0.0 for q in range(1, 101))
        assert fourier.coefficient_cutoff(strip_bounds(circle(1.3), s), 1e-300) == (0, math.inf, 0.0)


def test_no_strip_for_kinked_or_transformed_shapes():
    for shape in (square(), odd_shape(), act(Mat2(1.2, 0.3, -0.1, 0.8), cosine_series([1.0, 0.0, 0.15]))):
        assert strip_bounds(shape, 2.0) is None


def test_default_grid_is_the_smallest_power_of_two_above_8_q_max():
    for q_max, n in ((0, 256), (8, 256), (32, 256), (33, 512), (40, 512), (64, 512), (65, 1024)):
        assert fourier_coeffs(circle(1.0), 2.0, q_max).n_quad == n


def test_quadrature_validation():
    with pytest.raises(ValidationError):
        fourier_coeffs(circle(1.0), 2.0, 10, 48)  # below 8*q_max
    with pytest.raises(ValidationError):
        fourier_coeffs(circle(1.0), 2.0, 4, 100)  # not a power of two


def test_doubling_warning_for_kinked_shape():
    with pytest.warns(UserWarning):
        fourier_coeffs(odd_shape(), 2.0, 8, 256)


# ---------------------------------------------------------------------------
# ellipse closed form
# ---------------------------------------------------------------------------


def test_ellipse_coefficient_degenerate_circle():
    res = ellipse_coefficient(1.5, 0.0, 2.0, 0)
    assert abs(res.value - 1.5**-2) < 1e-15
    for q in (1, 2, 3):
        assert ellipse_coefficient(1.5, 0.0, 2.0, q).value == 0.0


def test_ellipse_coefficient_matches_quadrature_oracle():
    # r^(2s) of the ellipse (a, 1) is a^(2s) (c + d cos^2)^(-s), c = a^2
    c, d, s = 1.2, -0.2, 2.0
    a = math.sqrt(c)
    table = fourier_coeffs(ellipse(a, 1.0), s, 16, 512)
    for q in range(4):
        closed = ellipse_coefficient(c, d, s, q)
        quad = table.coefficients[4 * q] / a ** (2 * s)
        assert abs(closed.value - quad) <= 1e-8
        assert abs(closed.value - quad) <= closed.error_estimate + 1e-12


def test_ellipse_coefficient_rejects_divergent_domain():
    # |d/c| = 0.75 converges (the former |2d/c| < 1 check refused it):
    # against (1/2pi) integral (c + d cos^2)^(-s) e^(-4i theta) in mpmath
    c, d, s = 4.0, -3.0, 2.0
    res = ellipse_coefficient(c, d, s, 1)
    with mpmath.workdps(40):
        exact = mpmath.quad(lambda th: (c + d * mpmath.cos(th) ** 2) ** -s * mpmath.cos(4 * th),
                            [0, mpmath.pi / 2, mpmath.pi]) / mpmath.pi
        assert abs(res.value - exact) <= res.error_estimate < 1e-12 * abs(exact)
    for d in (-4.0, 4.0, -5.0):
        with pytest.raises(ValidationError):
            ellipse_coefficient(c, d, s, 1)  # |d/c| >= 1


def _closed_form_oracle(a, b, s, q):
    """chat(q) of the ellipse (a, b) in mpmath: b^(2s) binom(-s, q/2) (x/4)^(q/2)
    2F1(s + q/2, q/2 + 1/2; q + 1; -x) with x = (b/a)^2 - 1."""
    a, b, s, k = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpc(s), q // 2
    x = (b / a) ** 2 - 1
    return (b ** (2 * s) * mpmath.binomial(-s, k) * (x / 4) ** k
            * mpmath.hyp2f1(s + k, k + mpmath.mpf(0.5), 2 * k + 1, -x))


@pytest.mark.parametrize("q", [0, 4, 12, 40])
@pytest.mark.parametrize("s", [2.0, 1.5 + 0.7j, -1.63 + 0.71j, 0.5 + 40j, -3 + 30j])
@pytest.mark.parametrize("ratio", [1.05, 1.3, 1.4, 2.0, 3.0, 10.0])
def test_closed_form_error_estimates_bound_the_true_error(ratio, s, q):
    # true/claimed <= 1 against mpmath at 40 digits, for the coefficient and
    # for its Gauss series alone; a/b >= sqrt 2 was refused before, and the
    # former bars under-claimed (at a/b = 1.4, s = 0.5+40i, q = 0 by 1e10)
    k = q // 2
    z = (1.0 - 1.0 / ratio) * (1.0 + 1.0 / ratio)
    q_row, value, claimed = closed_form_coefficients(ellipse(ratio, 1.0), s, q)[-1]
    series, bound = special.hyp2f1(s + k, k + 0.5, 2 * k + 1, z)
    with mpmath.workdps(40):
        exact = _closed_form_oracle(ratio, 1.0, s, q)
        assert q_row == q
        assert abs(value - exact) <= claimed
        exact = mpmath.hyp2f1(mpmath.mpc(s) + k, k + mpmath.mpf(0.5), 2 * k + 1, mpmath.mpf(z))
        assert abs(series - exact) <= bound


def test_closed_form_matches_quadrature_beyond_sqrt_2():
    # the formula itself, where the former series refused: a/b = 3
    shape = ellipse(3.0, 1.0)
    for s in (2.0, 1.5 + 0.7j, -1.63 + 0.71j):
        table = fourier_coeffs(shape, s, 40, 1024)
        floor = 1e-14 * abs(table.coefficients[0])  # FFT rounding, unseen by grid doubling
        for q, value, claimed in closed_form_coefficients(shape, s, 40):
            assert abs(value - table.coefficients[q]) <= claimed + table.errors[q] + floor


def test_ellipse_coefficient_complex_s():
    c, d, s = 1.2, -0.2, 1.5 + 0.7j
    a = math.sqrt(c)
    table = fourier_coeffs(ellipse(a, 1.0), s, 8, 512)
    for q in (0, 1):
        closed = ellipse_coefficient(c, d, s, q)
        quad = table.coefficients[4 * q] / a ** (2 * s)
        assert abs(closed.value - quad) <= 1e-8


def test_fourier_csv_format(capsys):
    # the bump r = 1 + 0.1 cos(4 theta) through the command's one CSV path
    assert main(["fourier", "--shape", "cos:c0=1,c4=0.1", "--s", "0.5+0i", "--qmax", "4", "--n", "256"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "q,re,im"
    assert len(lines) == 10  # q = -4..4
    assert lines[1].startswith("-4,")
