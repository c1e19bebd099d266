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
    SpectrumEntry,
    build_spectrum,
    count_points,
    dilation_times_block,
    map_box_chunks,
    spectrum_to_csv,
    time_ulps,
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
from hlawka.zeta import QuadForm2


def _time(shape, p):
    return float(dilation_times_block(shape, np.array([p[0]]), np.array([p[1]]))[0])


def test_dilation_time_examples(unit_circle, square_shape):
    assert _time(unit_circle, (3, 4)) == 5.0
    assert _time(square_shape, (2, 1)) == 2.0
    el = ellipse(2.0, 1.0)
    assert abs(_time(el, (2, 0)) - 1.0) < 1e-15


def test_dilation_time_rotated_ellipse_matches_generic():
    el = ellipse(1.7, 0.9, phi=0.6)
    rng = np.random.default_rng(31)
    m, n = rng.integers(-20, 21, size=(2, 50))
    m, n = m[(m != 0) | (n != 0)], n[(m != 0) | (n != 0)]
    t_generic = np.hypot(m, n) / el.evaluate(np.arctan2(n, m))
    assert np.max(np.abs(dilation_times_block(el, m, n) - t_generic) / t_generic) < 1e-12


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


@pytest.mark.parametrize("spec, x", [("odd@gl2=5,2,2,1", 50.0), ("odd@gl2=2,1,1,1", 100.5)])
def test_gl2z_image_walks_reach_the_farthest_boundary_point(spec, x):
    # the boundary of odd@gl2=5,2,2,1 reaches |g (2, 1)| = 13 at the vertex
    # g (2, 1) = (12, 5), between the samples of an angle grid; a walk that
    # stops short of x * 13 misses points of the last lines
    sh = parse_shape(spec)
    k = math.floor(x)
    assert count_points(sh, x) == 4 * k * (k + 1)
    spec_ = build_spectrum(sh, x)
    assert [(e.t, e.count) for e in spec_.entries] == [(float(j), 8 * j) for j in range(1, k + 1)]


# the integer kinds: both bases, det +1 and -1 images, a shear, a matrix
# with a step-3 functional and images whose kernel terms have larger
# coefficients
_INTEGER_KINDS = ["square", "odd", "odd@gl2=2,1,1,1", "odd@gl2=0,1,1,0", "square@gl2=1,1,0,1",
                  "odd@gl2=1,-3,0,-1", "odd@gl2=5,2,2,1", "square@gl2=3,-5,1,-2"]


def _walked_time_counts(shape, radius):
    """Entry t: the number of walked points of the disc with t(p) = t."""
    def chunk(m, n):
        return np.bincount(dilation_times_block(shape, m, n).astype(np.int64))

    parts = map_box_chunks(radius, chunk, threads=1)
    total = np.zeros(max(map(len, parts)), np.int64)
    for p in parts:
        total[:len(p)] += p
    return total


@pytest.mark.parametrize("spec", _INTEGER_KINDS)
def test_time_counts_match_the_point_walk(spec):
    shape = parse_shape(spec)
    for radius in (10.0, 31.7, 250.5, 1000.0):
        want = _walked_time_counts(shape, radius)
        got = lattice.time_counts(shape, radius)
        assert len(got) == len(want) and np.array_equal(got, want), radius
        for top in (3, 40, len(want) + 5):  # clipped at t = top
            want_top = np.zeros(top + 1, np.int64)
            want_top[:min(top + 1, len(want))] = want[:top + 1]
            assert np.array_equal(lattice.time_counts(shape, radius, top=top), want_top), (radius, top)


@pytest.mark.parametrize("spec", _INTEGER_KINDS)
def test_counted_spectra_match_the_walked_times(spec):
    shape = parse_shape(spec)
    for t_max in (30.5, 67.0, 150.0):
        radius = int(math.ceil(t_max * shape.r_max)) + 1
        t = np.concatenate(map_box_chunks(radius, lambda m, n: dilation_times_block(shape, m, n), threads=1))
        lines, counts = np.unique(t[t <= t_max], return_counts=True)
        spec_ = build_spectrum(shape, t_max)
        assert np.array_equal(spec_.t_values, lines) and np.array_equal(spec_.counts, counts), t_max
        assert spec_.t_values.dtype == np.float64 and spec_.counts.dtype == np.int64


def test_counted_spectra_walk_only_for_witnesses(monkeypatch):
    walks = []

    def spy(*args, **kwargs):
        walks.append(args[0])
        return map_box_chunks(*args, **kwargs)

    monkeypatch.setattr(lattice, "map_box_chunks", spy)
    spec = build_spectrum(parse_shape("odd@gl2=0,1,1,0"), 20.0)
    assert count_points(odd_shape(), 20.5, half_weight_boundary=True) == spec.count_up_to(20.5)
    assert walks == []
    assert spec.entries[2] == SpectrumEntry(3.0, 24, spec.entries[2].witnesses)
    assert len(walks) == 1  # the witnesses, walked when first read and kept
    assert spec.entries[5].count == 48 and len(walks) == 1


def test_walks_beyond_their_caps_are_rejected_before_walking(monkeypatch):
    from hlawka.funceq import perron_count_approx

    def walk(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr(lattice, "map_box_chunks", walk)
    # a count walks at most the direct sums' radius, a spectrum a disc of
    # 2^24 points (radius about 2311)
    for call in (lambda: count_points(square(), 1e7),
                 lambda: count_points(square(), math.inf),
                 lambda: count_points(odd_shape(), lattice.MAX_RADIUS / math.sqrt(5.0) * 1.001,
                                      half_weight_boundary=True),
                 lambda: build_spectrum(circle(1.0), 2e4),
                 lambda: build_spectrum(circle(1.0), 2312.0),
                 lambda: build_spectrum(square(), math.inf),
                 lambda: perron_count_approx(square(), 1200.5, 1.25, 100.0)):
        with pytest.raises(ValidationError, match="beyond the cap"):
            call()


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


def _exact_time(shape, x, y):
    """t(x, y) in mpmath, from each kind's definition; an image's preimage
    by the exact inverse of its (float) matrix."""
    import mpmath as mp

    kind = shape.kind
    if kind == "transformed":
        return _exact_preimage_time(*shape.params, x, y)
    if shape == square():
        return max(abs(x), abs(y))
    if shape == odd_shape():
        return max(-x, x - y, y, 2 * y - abs(x)) if y > 0 else max(abs(x), -y)
    if kind == "ellipse":
        a, b, phi = shape.params
        cp, sp = mp.cos(phi), mp.sin(phi)
        return mp.hypot((x * cp + y * sp) / a, (y * cp - x * sp) / b)
    theta = mp.atan2(y, x)
    return mp.hypot(x, y) / sum(c * mp.cos(q * theta) for q, c in enumerate(shape.params) if c)


def _exact_preimage_time(g, base, x, y):
    """t_D(g^-1 p) in mpmath, by the exact inverse of the (float) matrix g,
    or of a list of matrices, the last applied last."""
    import mpmath as mp

    for h in reversed(g if isinstance(g, list) else [g]):
        a, b, c, d = map(mp.mpf, h.entries())
        det = a * d - b * c
        x, y = (d * x - b * y) / det, (a * y - c * x) / det
    return _exact_time(base, x, y)


# float images of GL(2,Z) images: act(gf, act(gi, base)), a transformed
# shape whose base is a polygon with larger edge functionals
_NESTED = [f"{base}@gl2={gi}@gl2={gf}" for base in ("square", "odd")
           for gi in ("2,1,1,1", "1,-3,0,-1", "0,1,1,0", "5,2,2,1")
           for gf in ("1.5,0.5,0,1", "1.2,0.3,-0.1,0.8")]


@pytest.mark.parametrize("spec", [
    "circle:c=1.3", "ellipse:a=1.7,b=0.9", "ellipse:a=2,b=1,phi=0.3", "ellipse:a=5,b=1,phi=1.1",
    "square", "odd", "cos:c0=1,c4=0.1", "cos:c0=1,c2=0.15", "cos:c0=1,c1=0.1,c3=0.05",
    "cos:c0=1,c200=0.4", "cos:c0=1,c1000=0.45", "cos:c0=1,c1=0.3,c2=0.2,c7=0.1,c33=0.05",
    "cos:c0=1,c4=0.1@gl2=2,1,1,1", "cos:c0=1,c1000=0.45@gl2=1.2,0.3,-0.1,0.8",
    "ellipse:a=2,b=1,phi=0.3@gl2=3,-1,0.5,0.7", "odd@gl2=2,1,1,1", "square@gl2=0,1,1,0",
    "odd@gl2=1.5,0.5,0,1", "circle:c=1.3@gl2=1.5,0.3,0.2,0.8", "ellipse:a=5,b=1,phi=0.3@gl2=1,3,0,1",
    "ellipse:a=1.5,b=1,phi=0.3@gl2=0,1,1,-2",
    # g undoes the base's elongation up to 9 digits: a nearly round image
    # (a / b = 1 + 6e-7) of a base of a / b = 1000
    "ellipse:a=1000,b=1,phi=0.3@gl2=0.000955336,0.00029552,-0.295520207,0.955336489",
    # regions x^T u x <= 1 of forms of condition number 1, 3, 1e3 and 1e6
    "form:1,0,1", "form:1,0.5,1", "form:500.5,499.5,500.5", "form:500000.5,-499999.5,500000.5",
    *_NESTED,
])
def test_time_ulps_bounds_the_rounding_of_the_dilation_times(spec):
    # against mpmath at 30 digits on 2000 points up to |p| = 1500: the
    # claimed bound holds, and it is 0 exactly where the times are.  An
    # image is measured against its base at the exact preimage g^-1 p,
    # whatever shape ``act`` made of it, a form's region against
    # sqrt(x^T u x)
    import mpmath as mp

    base_spec, *images = spec.split("@gl2=")
    if spec.startswith("form:"):
        u = QuadForm2(*map(float, spec[5:].split(",")))
        shape = u.region()
        exact_time = lambda x, y: mp.sqrt(u.u11 * x * x + 2 * u.u12 * x * y + u.u22 * y * y)  # noqa: E731
    elif images:
        g, base = [Mat2(*map(float, e.split(","))) for e in images], parse_shape(base_spec)
        shape = base
        for h in g:
            shape = act(h, shape)
        exact_time = lambda x, y: _exact_preimage_time(g, base, x, y)  # noqa: E731
    else:
        shape = parse_shape(spec)
        exact_time = lambda x, y: _exact_time(shape, x, y)  # noqa: E731
    rng = np.random.default_rng(37)
    m, n = rng.integers(-1500, 1501, size=(2, 2000))
    m, n = m[(m != 0) | (n != 0)], n[(m != 0) | (n != 0)]
    t = dilation_times_block(shape, m, n)
    with mp.workdps(30):
        exact = [exact_time(mp.mpf(a), mp.mpf(b)) for a, b in zip(m.tolist(), n.tolist())]
        worst = max(float(abs(ti - e) / e) for ti, e in zip(t.tolist(), exact))
    claimed = time_ulps(shape) * 2.0**-52
    assert worst <= claimed
    assert (claimed == 0.0) == (shape.kind == "polygon")


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
            assert _time(square_shape, w) == e.t


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


@pytest.mark.parametrize("g", [(2.0, 1.0, 1.0, 1.0), (3.0, 2.0, 1.0, 1.0), (1.0, 1.0, 1.0, 0.0), (0.0, 1.0, 1.0, -2.0)],
                         ids=["det 1", "det 1 larger", "det -1", "det -1 larger"])
@pytest.mark.parametrize("base", [circle(1.3), ellipse(2.0, 1.0), ellipse(1.5, 1.0, 0.3)],
                         ids=["circle", "ellipse", "rotated ellipse"])
def test_gl2z_images_of_quadratic_shapes_keep_the_spectrum_and_count(base, g):
    # the trivial fiber: g^-1 permutes Z^2, so t_gD(p) = t_D(g^-1 p) takes
    # D's values with D's multiplicities; the image is an ellipse of rounded
    # axes and angle, so its times agree within the two rounding bounds
    image = act(Mat2(*g), base)
    assert image.kind == "ellipse"
    ref, got = build_spectrum(base, 60.0), build_spectrum(image, 60.0)
    np.testing.assert_array_equal(got.counts, ref.counts)
    window = 2.0 * max(time_ulps(base), time_ulps(image)) * 2.0**-52
    assert np.all(np.abs(got.t_values - ref.t_values) <= window * ref.t_values)
    assert count_points(image, 300.0) == count_points(base, 300.0)


def test_spectrum_completeness_against_counts():
    rng = np.random.default_rng(32)
    for shape in (circle(1.0), ellipse(1.3, 1.0), odd_shape()):
        spec = build_spectrum(shape, 12.0)
        for _ in range(50):
            x = rng.uniform(0.5, 12.0)
            assert spec.count_up_to(x) == count_points(shape, x)


@pytest.mark.parametrize(
    "spec", ["square", "odd", "ellipse:a=2,b=1,phi=0.3", "cos:c0=1,c2=0.15", "cos:c0=1,c4=0.1"]
)
def test_spectrum_count_is_the_half_weight_count_off_the_spectrum(spec):
    # perron reads A'(x) from its spectrum up to 2x instead of walking again
    shape = parse_shape(spec)
    rng = np.random.default_rng(33)
    checked = 0
    for x in rng.uniform(2.5, 8.0, 40):
        spec_2x = build_spectrum(shape, 2.0 * x)
        if np.any(np.abs(spec_2x.t_values - x) < max(1e-6, 1e-9 * x)):
            continue  # on a jump, where perron refuses x
        assert spec_2x.count_up_to(x) == count_points(shape, x, half_weight_boundary=True)
        checked += 1
    assert checked >= 30


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
    with pytest.raises(ValidationError, match="thread count"):
        build_spectrum(square(), 50.0, threads=threads)


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
    # on an ellipse with a / b - 1 = 5e-14, (1, 0) and (0, 1) have times
    # 5e-14 apart: more than the window 2 * 16 * 2^-52 of their rounding,
    # so two lines, but less than 10x it, so a near tie
    shape = ellipse(1.0 + 5e-14, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = build_spectrum(shape, 5.0)
    assert spec.t_values[0] < spec.t_values[1] == 1.0
    assert [int(a) for a in spec.counts[:2]] == [2, 2]
    assert any("spectral lines at 0.99999999999995 and 1 " in str(w.message) for w in caught)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_spectrum(circle(1.0), 5.0)


def test_spectrum_keeps_lines_within_the_rounding_bound_of_t_max():
    # a line just above t_max, but within the times' rounding bound, is kept;
    # integer times are exact, so their cut is t_max itself
    assert build_spectrum(circle(1.0), 5.0 * (1.0 - 8.0 * 2.0**-52)).t_values[-1] == 5.0
    assert build_spectrum(circle(1.0), 5.0 * (1.0 - 40.0 * 2.0**-52)).t_values[-1] < 5.0
    assert build_spectrum(square(), math.nextafter(3.0, 0.0)).t_values[-1] == 2.0


def test_spectrum_csv_format(square_shape):
    spec = build_spectrum(square_shape, 3.0)
    text = spectrum_to_csv(spec)
    lines = text.strip().split("\n")
    assert lines[0] == "k,t_k,a_k"
    assert lines[1] == "1,1,8"
    assert lines[3] == "3,3,24"


def _reference_spectrum(shape, t_max, max_witnesses=8):
    """Point-by-point grouping loop at the times' rounding bound: (t, count,
    witnesses) per line plus the near-tie warning messages, in order."""
    bound = int(math.ceil(t_max * shape.r_max * (1.0 + 1e-9))) + 1
    rounding = time_ulps(shape) * 2.0**-52
    window = 2.0 * rounding

    def chunk(m, n):
        nz = (m != 0) | (n != 0)
        m, n = m[nz], n[nz]
        t = dilation_times_block(shape, m, n)
        keep = t <= t_max * (1.0 + rounding)
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
        while j < total and t_all[j] - t_all[j - 1] <= window * t_all[j]:
            j += 1
        witnesses = tuple(
            LatticePoint(int(m_all[k]), int(n_all[k])) for k in range(i, min(j, i + max_witnesses))
        )
        lines.append((float(t0), j - i, witnesses))
        if prev_upper is not None and t0 - prev_upper <= 10.0 * window * t0:
            messages.append(
                f"spectral lines at {prev_upper:.15g} and {t0:.15g} are separated by "
                f"at most 10x their rounding bound; grouping may be ambiguous"
            )
        prev_upper = t_all[j - 1]
        i = j
    return lines, messages


# spread: the fixed relative window lines were once grouped by, which no
# line's times may now span; close: some consecutive lines lie within 10x
# it, closer than that grouping could tell apart
@pytest.mark.parametrize(
    "shape, t_max, spread, close",
    [
        (ellipse(2.0, 1.0, phi=0.4729), 100.0, 1e-9, True),
        (cosine_series([1.0, 0, 0, 0, 0.1]), 40.0, 1e-9, False),
        (ellipse(1.0 + 5e-14, 1.0), 12.0, 1e-9, True),  # lines 5e-14 t apart: near ties
        # one row per symmetry class the walk folds by
        (square(), 20.0, 1e-9, False),  # D4
        (ellipse(2.0, 1.0), 40.0, 1e-9, False),  # reflections in the axes
        (cosine_series([1.0, 0.1, 0, 0.05]), 30.0, 1e-9, False),  # n -> -n
        (odd_shape(), 15.0, 1e-9, False),  # trivial
        (parse_shape("odd@gl2=2,1,1,1"), 12.0, 1e-9, False),
        (parse_shape("ellipse:a=2,b=1@gl2=1,1,0,1"), 30.0, 1e-9, False),  # p -> -p
        # cosine series, whose kernel folds each point into the domain
        (cosine_series([1.0, 0, 0.15]), 40.0, 1e-9, False),
        (parse_shape("cos:c0=1,c4=0.1@gl2=2,1,1,1"), 20.0, 1e-9, False),
        (cosine_series([1.0, 0, 0, 0, 0.1]), 145.0, 1e-9, True),
    ],
)
def test_grouping_matches_reference_loop(shape, t_max, spread, close):
    want, want_messages = _reference_spectrum(shape, t_max)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = build_spectrum(shape, t_max, threads=2)
    got = [(e.t, e.count, e.witnesses) for e in spec.entries]
    assert got == want
    ends = np.append(spec.rep_starts[1:], len(spec.reps)) - 1
    last = dilation_times_block(shape, *spec.reps[ends].T.astype(np.int64))
    assert np.all(last - spec.t_values <= spread * spec.t_values)
    assert bool(np.any(np.diff(spec.t_values) <= 10.0 * spread * spec.t_values[1:])) == close
    assert [str(w.message) for w in caught] == want_messages
    assert len(spec.entries) == len(spec.t_values) == len(spec.counts)
    assert spec.entries[-1] == spec.entries[len(want) - 1]
    assert spec.entries[1:3] == tuple(spec.entries)[1:3]


# per symmetry class, a t_max that keeps more points of the domain than a
# chunk holds
FOLDED = [
    (square(), 300.0),
    (ellipse(2.0, 1.0), 160.0),
    (cosine_series([1.0, 0.1, 0, 0.05]), 160.0),
    (odd_shape(), 100.0),
    (parse_shape("odd@gl2=2,1,1,1"), 100.0),
    (parse_shape("ellipse:a=2,b=1@gl2=1,1,0,1"), 110.0),
    (cosine_series([1.0, 0, 0, 0, 0.1]), 320.0),
]


@pytest.mark.parametrize("shape, t_max", FOLDED)
def test_folded_spectra_are_identical_across_thread_counts(shape, t_max):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # near-tie warnings of the cosine series
        specs = [build_spectrum(shape, t_max, threads=k) for k in (1, 2, 4)]
    first = specs[0]
    assert len(first.reps) > lattice._CHUNK_POINTS
    for spec in specs[1:]:
        assert np.array_equal(spec.t_values, first.t_values)
        assert np.array_equal(spec.counts, first.counts)
        for a, b in zip(spec._witnesses, first._witnesses):  # offsets, points
            assert np.array_equal(a, b)


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


@pytest.mark.parametrize(
    "spec",
    [
        "circle:c=1.3",
        "ellipse:a=1.7,b=0.9",
        "ellipse:a=1.7,b=0.9,phi=0.4",
        "square",
        "odd",
        "cos:c0=1,c4=0.1",  # D4
        "cos:c0=1,c2=0.15",  # reflections in the axes
        "cos:c0=1,c1=0.1,c3=0.05",  # n -> -n
        "cos:c0=1,c4=0.1@gl2=2,1,1,1",
        "cos:c0=1,c2=0.15@gl2=1.2,0.3,-0.1,0.8",
        "ellipse:a=2,b=1@gl2=1,1,0,1",
        "odd@gl2=2,1,1,1",
        "square@gl2=0,1,1,0",  # D4, read off its vertices
        "square@gl2=1,1,0,1",  # p -> -p
    ],
)
def test_orbit_images_have_the_bit_identical_dilation_time(spec):
    # a dilation time belongs to an orbit of the shape's symmetry, so every
    # walk may evaluate one representative per orbit
    shape = parse_shape(spec)
    rng = np.random.default_rng(36)
    m, n = rng.integers(-400, 401, size=(2, 5000))
    m, n = m[(m != 0) | (n != 0)], n[(m != 0) | (n != 0)]
    t = dilation_times_block(shape, m, n)
    for element in lattice._GROUP[shape.symmetry]:
        assert np.array_equal(dilation_times_block(shape, *lattice._image(element, m, n)), t)


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


def _unfolded_count(shape, x, half_weight):
    """count_points' rule on every point of the disc."""
    bound = int(math.ceil(x * shape.r_max * (1.0 + 1e-9))) + 1
    m, n = _walked_points(float(bound))
    t = dilation_times_block(shape, m, n)
    inside = t <= x * (1.0 + 1e-9)
    if not half_weight:
        return float(np.count_nonzero(inside))
    boundary = np.abs(t - x) <= x * 1e-9
    return float(np.count_nonzero(inside & ~boundary)) + 0.5 * float(np.count_nonzero(boundary))


@pytest.mark.parametrize(
    "spec, witness",
    [("circle", (3, 4)), ("circle", (7, 24)), ("square", (7, 3)), ("ellipse:a=2,b=1", (6, 4)),
     ("cos:c0=1,c2=0.15", (5, 3)), ("cos:c0=1,c4=0.1", (9, 2)), ("odd", (-6, 2)), ("odd", (4, 9))],
)
def test_folded_counts_equal_the_unfolded_walk(spec, witness):
    # x = t(witness) puts that point and its images exactly on the boundary
    shape = parse_shape(spec)
    x = _time(shape, witness)
    for half_weight in (False, True):
        for xx in (x, 0.999 * x, 1.01 * x):
            got = count_points(shape, xx, half_weight_boundary=half_weight, threads=2)
            assert got == _unfolded_count(shape, xx, half_weight)
    assert count_points(shape, x, half_weight_boundary=True) < count_points(shape, x)
