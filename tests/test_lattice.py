"""Lattice enumeration tests: dilation times, spectra, counts, asymptotics."""

import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hlawka import lattice
from hlawka.errors import ValidationError
from hlawka.lattice import (
    LatticePoint,
    build_spectrum,
    count_points,
    dilation_time,
    dilation_times_block,
    map_box_chunks,
    spectrum_to_csv,
)
from hlawka.shapes import (
    Mat2,
    Symmetry,
    act,
    area,
    circle,
    cosine_series,
    ellipse,
    odd_shape,
    parse_shape,
    square,
)


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


@pytest.mark.parametrize("threads", [0, -5, 65, 10**6])
def test_thread_count_outside_its_range_is_rejected_before_the_walk(threads):
    def no_chunk(m, n):
        raise AssertionError("enumerated before validating the thread count")

    with pytest.raises(ValidationError, match="thread count"):
        map_box_chunks(50.0, no_chunk, threads=threads)
    with pytest.raises(ValidationError, match="thread count"):
        count_points(odd_shape(), 50.0, threads=threads)


@pytest.mark.parametrize("env", ["two", "1.5", "0", "-5", "65"])
def test_bad_thread_environment_variable_is_rejected(monkeypatch, env):
    monkeypatch.setenv("HLAWKA_THREADS", env)
    with pytest.raises(ValidationError, match="HLAWKA_THREADS|thread count"):
        count_points(odd_shape(), 50.0)


def test_thread_count_resolution(monkeypatch):
    monkeypatch.delenv("HLAWKA_THREADS", raising=False)
    assert lattice.resolve_threads(None) == min(4, os.cpu_count() or 1)
    monkeypatch.setenv("HLAWKA_THREADS", "")
    assert lattice.resolve_threads(None) == min(4, os.cpu_count() or 1)
    monkeypatch.setenv("HLAWKA_THREADS", "64")
    assert lattice.resolve_threads(None) == 64
    assert lattice.resolve_threads(1) == 1
    assert lattice.resolve_threads(lattice.MAX_THREADS) == 64


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


def _reference_spectrum(shape, t_max, tolerance=1e-9, max_witnesses=8):
    """Point-by-point grouping loop: (t, count, witnesses) per line plus the
    near-tie warning messages, in order."""
    bound = int(math.ceil(t_max * shape.r_max * (1.0 + 1e-9))) + 1

    def chunk(m, n):
        nz = (m != 0) | (n != 0)
        m, n = m[nz], n[nz]
        t = dilation_times_block(shape, m, n)
        keep = t <= t_max * (1.0 + tolerance)
        return m[keep], n[keep], t[keep]

    parts = map_box_chunks(bound, chunk, threads=1)
    m_all, n_all, t_all = (np.concatenate([p[k] for p in parts]) for k in range(3))
    order = np.lexsort((n_all, m_all, t_all))
    m_all, n_all, t_all = m_all[order], n_all[order], t_all[order]

    lines, messages = [], []
    i, total, prev_upper = 0, len(t_all), None
    while i < total:
        t0 = t_all[i]
        j = i + 1
        while j < total and t_all[j] - t_all[j - 1] <= tolerance * max(t_all[j], 1.0):
            j += 1
        witnesses = tuple(
            LatticePoint(int(m_all[k]), int(n_all[k])) for k in range(i, min(j, i + max_witnesses))
        )
        lines.append((float(t0), j - i, witnesses))
        if prev_upper is not None and t0 - prev_upper < 10.0 * tolerance * max(t0, 1.0):
            messages.append(
                f"spectral lines at {prev_upper:.15g} and {t0:.15g} are separated by "
                f"less than 10x the grouping tolerance; grouping may be ambiguous"
            )
        prev_upper = t_all[j - 1]
        i = j
    return lines, messages


@pytest.mark.parametrize(
    "shape, t_max, tolerance, near_ties",
    [
        (ellipse(2.0, 1.0, phi=0.4729), 100.0, 1e-9, True),
        (cosine_series([1.0, 0, 0, 0, 0.1]), 40.0, 1e-9, False),
        (circle(1.0), 12.0, 3e-3, True),  # coarse tolerance chains several values
    ],
)
def test_grouping_matches_reference_loop(shape, t_max, tolerance, near_ties):
    want, want_messages = _reference_spectrum(shape, t_max, tolerance)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = build_spectrum(shape, t_max, tolerance=tolerance, threads=2)
    got = [(e.t, e.count, e.witnesses) for e in spec.entries]
    assert got == want
    assert [str(w.message) for w in caught] == want_messages
    assert len(spec.entries) == len(spec.t_values) == len(spec.counts)
    assert spec.entries[-1] == spec.entries[len(want) - 1]
    assert spec.entries[1:3] == tuple(spec.entries)[1:3]
    assert bool(want_messages) == near_ties


def test_empty_spectrum():
    spec = build_spectrum(square(), 0.5)
    assert len(spec.entries) == 0 and list(spec.entries) == []
    assert spectrum_to_csv(spec) == "k,t_k,a_k\n"
    assert spec.count_up_to(0.5) == 0 and spec.count_up_to(100.0) == 0


def test_count_up_to_at_exact_line_values(square_shape):
    spec = build_spectrum(square_shape, 10.0)
    assert spec.count_up_to(3.0) == 8 + 16 + 24
    assert spec.count_up_to(math.nextafter(3.0, 0.0)) == 8 + 16
    assert spec.count_up_to(0.999) == 0
    assert spec.count_up_to(10.0) == 440


def _box_mask_points(radius, half=False):
    """Brute-force reference: the nonzero box points with m^2 + n^2 <= radius^2."""
    bound = int(math.ceil(radius))
    n, m = np.meshgrid(np.arange(-bound, bound + 1), np.arange(-bound, bound + 1), indexing="ij")
    m, n = m.ravel(), n.ravel()
    n2 = m * m + n * n
    keep = (n2 > 0) & (n2 <= radius * radius)
    if half:
        keep &= (n > 0) | ((n == 0) & (m > 0))
    return m[keep], n[keep]


def _walked_points(radius, symmetry=Symmetry.TRIVIAL):
    # the walk hands out its scratch arrays, refilled for the next chunk
    parts = map_box_chunks(radius, lambda m, n: (m.copy(), n.copy()), threads=1, symmetry=symmetry)
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


# 5, 25, 65 and 325 have lattice points exactly on the circle (3-4-5 and
# sums of two squares in several ways), so the row extents are exact squares
_ON_CIRCLE = (5.0, 25.0, 65.0, 325.0)
_RADII = [r for r0 in _ON_CIRCLE for r in (np.nextafter(r0, 0.0), r0, np.nextafter(r0, np.inf))] + [
    math.sqrt(2.0), 10.5, 123.456]


@pytest.mark.parametrize("radius", _RADII)
@pytest.mark.parametrize("negation", [False, True])
def test_disc_walk_matches_box_mask(radius, negation):
    symmetry = Symmetry.NEGATION if negation else Symmetry.TRIVIAL
    m, n = _walked_points(float(radius), symmetry)
    mb, nb = _box_mask_points(float(radius), half=negation)
    assert m.size == mb.size
    walked = sorted(zip(m.tolist(), n.tolist()))
    assert walked == sorted(zip(mb.tolist(), nb.tolist()))
    assert len(set(walked)) == len(walked)  # no point twice


# the elements (a, b, c, d): (m, n) -> (a m + b n, c m + d n) of each group
_ELEMENTS = {
    Symmetry.TRIVIAL: [(1, 0, 0, 1)],
    Symmetry.NEGATION: [(1, 0, 0, 1), (-1, 0, 0, -1)],
    Symmetry.REFLECTION: [(1, 0, 0, 1), (1, 0, 0, -1)],
    Symmetry.KLEIN: [(1, 0, 0, 1), (-1, 0, 0, -1), (-1, 0, 0, 1), (1, 0, 0, -1)],
    Symmetry.D4: [(1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
                  (1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, -1, 0)],
}


@pytest.mark.parametrize("radius", [r for r in _RADII if r < 100.0])
@pytest.mark.parametrize("symmetry", list(Symmetry), ids=lambda g: g.name)
def test_fundamental_domains_tile_the_disc(symmetry, radius):
    # the orbits of the walked points cover the disc exactly once, and each
    # point's weight is the size of its orbit
    m, n = _walked_points(float(radius), symmetry)
    sizes = lattice.orbit_sizes(symmetry, m, n, out=np.empty(len(m)))
    covered = set()
    for p, size in zip(zip(m.tolist(), n.tolist()), sizes.tolist()):
        orbit = {(a * p[0] + b * p[1], c * p[0] + d * p[1]) for a, b, c, d in _ELEMENTS[symmetry]}
        assert len(orbit) == size
        assert not orbit & covered
        covered |= orbit
    mb, nb = _box_mask_points(float(radius))
    assert covered == set(zip(mb.tolist(), nb.tolist()))


def test_shape_symmetries_leave_the_dilation_times_invariant():
    rng = np.random.default_rng(35)
    m, n = rng.integers(-300, 301, size=(2, 4000))
    m, n = m[(m != 0) | (n != 0)], n[(m != 0) | (n != 0)]
    shapes = [circle(1.3), square(), ellipse(1.7, 0.9), ellipse(1.7, 0.9, 0.4), odd_shape(),
              cosine_series([1.0, 0.1, 0.0, 0.05]), cosine_series([1.0, 0.0, 0.15]),
              cosine_series([1.0, 0.0, 0.0, 0.0, 0.1]), act(Mat2(1.2, 0.3, -0.1, 0.8), ellipse(2.0, 1.0))]
    for shape in shapes:
        t = dilation_times_block(shape, m, n)
        for a, b, c, d in _ELEMENTS[shape.symmetry]:
            tg = dilation_times_block(shape, a * m + b * n, c * m + d * n)
            assert np.max(np.abs(tg - t) / t) <= 1e-14


def test_disc_walk_chunks_are_capped_and_whole_rows():
    radius = 2000.0
    k2 = int(radius * radius)
    full = sum(2 * math.isqrt(k2 - r * r) + 1 for r in range(-2000, 2001)) - 1
    for symmetry in Symmetry:
        parts = map_box_chunks(
            radius, lambda m, n: (m.size, np.unique(n)), threads=2, symmetry=symmetry
        )
        sizes = [p[0] for p in parts]
        assert max(sizes) <= lattice._CHUNK_POINTS
        rows = np.concatenate([p[1] for p in parts])
        assert len(rows) == len(np.unique(rows))  # each row in one chunk
        if symmetry is Symmetry.TRIVIAL:
            assert sum(sizes) == full
        if symmetry is Symmetry.NEGATION:
            assert sum(sizes) == full // 2


def test_disc_walk_chunks_do_not_depend_on_threads():
    for symmetry in (Symmetry.TRIVIAL, Symmetry.D4):
        one = map_box_chunks(700.0, lambda m, n: (m.copy(), n.copy()), threads=1, symmetry=symmetry)
        three = map_box_chunks(700.0, lambda m, n: (m.copy(), n.copy()), threads=3, symmetry=symmetry)
        assert len(one) == len(three) > 1
        for (m1, n1), (m3, n3) in zip(one, three):
            assert np.array_equal(m1, m3) and np.array_equal(n1, n3)


def test_concurrent_walks_give_the_serial_results():
    # callers in several threads share the worker pool and each worker's
    # scratch arrays; every result must still equal the serial one
    shapes = [odd_shape(), circle(1.0), cosine_series([1.0, 0.1, 0.0, 0.05]), ellipse(1.7, 0.9, 0.4)]
    want = [count_points(sh, 90.0, half_weight_boundary=True, threads=1) for sh in shapes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as callers:
            futures = [callers.submit(count_points, sh, 90.0, True, 3) for _ in range(3) for sh in shapes]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 3


def _unfolded_count(shape, x, half_weight, tolerance=1e-9):
    """count_points' rule on every point of the disc."""
    bound = int(math.ceil(x * shape.r_max * (1.0 + 1e-9))) + 1
    m, n = _walked_points(float(bound))
    t = dilation_times_block(shape, m, n)
    inside = t <= x * (1.0 + tolerance)
    if not half_weight:
        return float(np.count_nonzero(inside))
    boundary = np.abs(t - x) <= x * tolerance
    return float(np.count_nonzero(inside & ~boundary)) + 0.5 * float(np.count_nonzero(boundary))


@pytest.mark.parametrize(
    "spec, witness",
    [("circle", (3, 4)), ("circle", (7, 24)), ("square", (7, 3)), ("ellipse:a=2,b=1", (6, 4)),
     ("cos:c0=1,c2=0.15", (5, 3)), ("cos:c0=1,c4=0.1", (9, 2)), ("odd", (-6, 2)), ("odd", (4, 9))],
)
def test_folded_counts_equal_the_unfolded_walk(spec, witness):
    # x = t(witness) puts that point and its images exactly on the boundary
    shape = parse_shape(spec)
    x = dilation_time(shape, witness)
    for half_weight in (False, True):
        for xx in (x, 0.999 * x, 1.01 * x):
            got = count_points(shape, xx, half_weight_boundary=half_weight, threads=2)
            assert got == _unfolded_count(shape, xx, half_weight)
    assert count_points(shape, x, half_weight_boundary=True) < count_points(shape, x)
