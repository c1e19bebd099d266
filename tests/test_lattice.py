"""Lattice enumeration tests: dilation times, spectra, counts, asymptotics."""

import math
import warnings

import numpy as np
import pytest

from hlawka.errors import ValidationError
from hlawka.lattice import (
    build_spectrum,
    count_points,
    dilation_time,
    dilation_times_block,
    spectrum_to_csv,
)
from hlawka.shapes import Mat2, act, area, circle, cosine_series, ellipse, odd_shape, square


def test_dilation_time_examples(unit_circle, square_shape):
    assert dilation_time(unit_circle, (3, 4)) == 5.0
    assert dilation_time(square_shape, (2, 1)) == 2.0
    el = ellipse(2.0, 1.0)
    assert abs(dilation_time(el, (2, 0)) - 1.0) < 1e-15


def test_dilation_time_rejects_origin(unit_circle):
    with pytest.raises(ValidationError):
        dilation_time(unit_circle, (0, 0))


def test_dilation_time_rotated_ellipse_matches_generic():
    el = ellipse(1.7, 0.9, phi=0.6)
    rng = np.random.default_rng(31)
    for _ in range(50):
        m, n = int(rng.integers(-20, 21)), int(rng.integers(-20, 21))
        if (m, n) == (0, 0):
            continue
        t_fast = dilation_time(el, (m, n))
        t_generic = math.hypot(m, n) / el.evaluate(math.atan2(n, m))
        assert abs(t_fast - t_generic) < 1e-12 * t_generic


def test_square_spectrum_exact_integers(square_shape):
    spec = build_spectrum(square_shape, 10.0)
    assert [(e.t, e.count) for e in spec.entries] == [(float(k), 8 * k) for k in range(1, 11)]


def test_odd_spectrum_matches_square(odd_region):
    spec = build_spectrum(odd_region, 10.0)
    assert [(e.t, e.count) for e in spec.entries] == [(float(k), 8 * k) for k in range(1, 11)]


def test_gl2z_images_keep_the_exact_integer_spectrum():
    # g in GL(2,Z) permutes the lattice, so gD has the spectrum of D exactly;
    # the second matrix has det -1
    for g in (Mat2(2.0, 1.0, 1.0, 1.0), Mat2(1.0, 1.0, 1.0, 0.0)):
        for base in (square(), odd_shape()):
            spec = build_spectrum(act(g, base), 12.0)
            assert [(e.t, e.count) for e in spec.entries] == [(float(k), 8 * k) for k in range(1, 13)]


def test_transformed_dilation_times_match_radial_function():
    # t(p) = |p| / (g.r)(arg p), for every base kernel and both signs of det g
    rng = np.random.default_rng(33)
    bases = (square(), odd_shape(), cosine_series([1.0, 0.1, 0, 0.05]), ellipse(1.7, 0.9, phi=0.6))
    m, n = (a.ravel() for a in np.meshgrid(np.arange(-15, 16), np.arange(-15, 16)))
    nz = (m != 0) | (n != 0)
    m, n = m[nz], n[nz]
    dets = []
    for base in bases:
        for _ in range(10):
            g = Mat2(*rng.uniform(-2.0, 2.0, size=4))
            if abs(g.det) < 0.1:
                continue
            dets.append(g.det)
            sh = act(g, base)
            t_ref = np.hypot(m, n) / sh.evaluate(np.arctan2(n, m))
            t = dilation_times_block(sh, m, n)
            assert np.max(np.abs(t - t_ref) / t_ref) <= 1e-12
    assert min(dets) < 0 < max(dets)


def test_circle_spectrum_brute_force_oracle(unit_circle):
    # oracle: enumerate |p| <= 2 by hand and group exact squared norms
    from collections import Counter

    norms = Counter()
    for m in range(-2, 3):
        for n in range(-2, 3):
            if (m, n) != (0, 0) and m * m + n * n <= 4:
                norms[m * m + n * n] += 1
    expected = sorted((math.sqrt(k), v) for k, v in norms.items())
    spec = build_spectrum(unit_circle, 2.0)
    got = [(e.t, e.count) for e in spec.entries]
    assert len(got) == len(expected) == 3
    for (t1, a1), (t2, a2) in zip(got, expected):
        assert abs(t1 - t2) < 1e-12 and a1 == a2
    assert [e.count for e in spec.entries] == [4, 4, 4]


def test_spectrum_witnesses(square_shape):
    spec = build_spectrum(square_shape, 3.0)
    for e in spec.entries:
        assert 1 <= len(e.witnesses) <= 8
        for w in e.witnesses:
            assert dilation_time(square_shape, w) == e.t


def test_spectrum_rejects_bad_tmax(unit_circle):
    with pytest.raises(ValidationError):
        build_spectrum(unit_circle, 0.0)


def test_count_points_examples(unit_circle, square_shape):
    assert count_points(unit_circle, 2.0) == 12.0
    assert count_points(unit_circle, 2.0, half_weight_boundary=True) == 10.0
    assert count_points(square_shape, 1.5) == 8.0


def test_count_rejects_nonpositive(unit_circle):
    with pytest.raises(ValidationError):
        count_points(unit_circle, -1.0)


def test_spectrum_completeness_against_counts():
    rng = np.random.default_rng(32)
    for shape in (circle(1.0), ellipse(1.3, 1.0), odd_shape()):
        spec = build_spectrum(shape, 12.0)
        for _ in range(50):
            x = rng.uniform(0.5, 12.0)
            assert spec.count_up_to(x) == count_points(shape, x)


def test_four_fold_symmetry_multiplicities():
    for shape in (square(), circle(1.0), cosine_series([1.0, 0, 0, 0, 0.1])):
        assert shape.symmetry_order % 4 == 0
        spec = build_spectrum(shape, 8.0)
        for e in spec.entries:
            assert e.count % 4 == 0


def test_count_asymptotics_match_area():
    x = 200.0
    for shape in (circle(1.0), ellipse(1.3, 1.0), square(), odd_shape()):
        a = count_points(shape, x) / x**2
        assert abs(a - area(shape)) / area(shape) <= 0.01


def test_count_monotone(unit_circle):
    xs = np.linspace(0.5, 8.0, 40)
    vals = [count_points(unit_circle, float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_thread_count_does_not_change_results(square_shape):
    s1 = build_spectrum(square_shape, 30.0, threads=1)
    s4 = build_spectrum(square_shape, 30.0, threads=4)
    assert [(e.t, e.count) for e in s1.entries] == [(e.t, e.count) for e in s4.entries]
    c1 = count_points(square_shape, 17.25, threads=1)
    c4 = count_points(square_shape, 17.25, threads=4)
    assert c1 == c4


def test_near_tie_warning():
    # two spectral lines closer than 10x the tolerance trigger the warning
    # sqrt(24) and sqrt(25) differ by ~0.101 < 10 * 3e-3 * 5
    shape = circle(1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_spectrum(shape, 5.0, tolerance=3e-3)
    assert any("tolerance" in str(w.message) for w in caught)


def test_spectrum_csv_format(square_shape):
    spec = build_spectrum(square_shape, 3.0)
    text = spectrum_to_csv(spec)
    lines = text.strip().split("\n")
    assert lines[0] == "k,t_k,a_k"
    assert lines[1] == "1,1,8"
    assert lines[3] == "3,3,24"
