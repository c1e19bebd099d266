"""Geometry tests: radial evaluators, decompositions, the circle map, and the
group action, with brute-force geometric oracles for every derived value."""

import math

import numpy as np
import pytest

from hlawka.errors import ShapeSpecError, ValidationError
from hlawka.shapes import (
    Mat2,
    Symmetry,
    act,
    area,
    cartan_decompose,
    circle,
    cosine_series,
    ellipse,
    iwasawa_decompose,
    odd_shape,
    parse_shape,
    square,
    theta_g,
)

GRID = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)


def random_gl2(rng, det_min=0.1):
    while True:
        g = Mat2(*(rng.uniform(-2, 2) for _ in range(4)))
        if abs(g.det) >= det_min:
            return g


# ---------------------------------------------------------------------------
# radial evaluators
# ---------------------------------------------------------------------------


def test_square_radial_values():
    sq = square()
    assert sq.evaluate(0.0) == 1.0
    assert abs(sq.evaluate(math.pi / 4) - math.sqrt(2.0)) < 1e-15


def test_ellipse_with_equal_axes_is_a_circle():
    # one quadratic kind: every way to build a circle gives the ellipse (c, c,
    # 0.0), with D4 symmetry and r and the area as exact as r = c allows
    from hlawka.zeta import QuadForm2

    radii = []
    for k in (0.7, 1.0, 2.0, 4.0):
        c = 1.0 / math.sqrt(k)  # the region's axes, 1 / sqrt(u11), exactly
        for sh in (circle(c), ellipse(c, c, phi=0.3), parse_shape(f"circle:c={c!r}"), QuadForm2(k, 0.0, k).region()):
            assert sh == circle(c) and (sh.kind, sh.params, sh.r_min, sh.r_max) == ("ellipse", (c, c, 0.0), c, c)
            assert (sh.symmetry, sh.symmetry_order) == (Symmetry.D4, 0)
            assert sh.evaluate(0.3) == c and np.all(sh.evaluate(GRID) == c)
            assert area(sh) == math.pi * c ** 2
        radii.append(c)
    # pi c^2 and (pi c) c differ in the last bit at c = 2^(-1/2)
    assert any(math.pi * c * c != math.pi * c ** 2 for c in radii)


def test_ellipse_radial_values():
    el = ellipse(2.0, 1.0)
    assert abs(el.evaluate(0.0) - 2.0) < 1e-15
    assert abs(el.evaluate(math.pi / 2) - 1.0) < 1e-15
    rot = ellipse(2.0, 1.0, phi=0.4)
    assert abs(rot.evaluate(0.4) - 2.0) < 1e-14


def test_odd_radial_by_segment_intersection_oracle():
    # ray at angle atan(1/2) meets the segment from (1,0) to (2,1):
    # solve (t cos, t sin) = (1,0) + u * (1,1) for (t, u)
    th = math.atan2(1.0, 2.0)
    c, s = math.cos(th), math.sin(th)
    # t*c - u = 1 ; t*s - u = 0  ->  t (c - s) = 1
    t_oracle = 1.0 / (c - s)
    u = t_oracle * s
    assert 0.0 <= u <= 1.0  # intersection is on the segment
    assert abs(t_oracle - math.sqrt(5.0)) < 1e-14
    assert abs(odd_shape().evaluate(th) - t_oracle) < 1e-14


def test_odd_radial_continuity_at_breakpoints():
    od = odd_shape()
    for b in (0.0, math.atan2(1, 2), math.pi / 4, math.pi / 2, 3 * math.pi / 4,
              5 * math.pi / 4, 7 * math.pi / 4):
        lo = od.evaluate(b - 1e-9)
        hi = od.evaluate(b + 1e-9)
        assert abs(lo - hi) < 1e-7


def test_positivity_and_cached_bounds():
    for sh in (circle(0.7), ellipse(2, 1, 0.3), square(), odd_shape(),
               cosine_series([1.0, 0, 0, 0, 0.1])):
        r = np.asarray(sh.evaluate(GRID))
        assert np.all(r > 0)
        assert np.all(r >= sh.r_min - 1e-12)
        assert np.all(r <= sh.r_max + 1e-12)


ODD_VERTICES = ((1.0, 0.0), (2.0, 1.0), (1.0, 1.0), (0.0, 0.5), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))


def _with_angles(n, angles):
    return np.concatenate([np.linspace(0.0, 2.0 * math.pi, n, endpoint=False), np.asarray(angles, float)])


def test_untransformed_bounds_are_the_extremes_of_r():
    odd_angles = [math.atan2(y, x) for x, y in ODD_VERTICES]
    cases = (
        (circle(0.7), []),
        (ellipse(2.0, 1.0), [0.0, math.pi / 2]),
        (ellipse(1.7, 0.9, 0.6), [0.6, 0.6 + math.pi / 2]),
        (square(), [k * math.pi / 4 for k in range(8)]),
        (odd_shape(), odd_angles),
        (cosine_series([1.0, 0, 0, 0, 0.1]), [0.0, math.pi / 4]),
        (cosine_series([1.0, 0.1, 0, 0.05]), [0.0, math.pi]),
    )
    for sh, angles in cases:
        r = np.asarray(sh.evaluate(_with_angles(1 << 16, angles)))
        if sh.kind == "cosine-series":
            # bounds, at most the curvature slack of the 4096-point grid (and
            # its rounding) beyond the extremes
            slack = (2 * math.pi / 4096) ** 2 / 8 * sum(q * q * abs(c) for q, c in enumerate(sh.params)) + 1e-12
            assert float(np.min(r)) - slack <= sh.r_min <= float(np.min(r)), sh.kind
            assert float(np.max(r)) <= sh.r_max <= float(np.max(r)) + slack, sh.kind
            continue
        assert abs(sh.r_min - float(np.min(r))) <= 1e-12, sh.kind
        assert abs(sh.r_max - float(np.max(r))) <= 1e-12, sh.kind


def test_transformed_bounds_hold_at_the_image_vertices():
    # sigma_min(g) r_min <= r <= sigma_max(g) r_max, also at the vertex g (2, 1)
    # of the odd shape, which a grid of angles misses
    for entries in ((5.0, 2.0, 2.0, 1.0), (2.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 0.0), (1.2, 0.3, -0.1, 0.8)):
        g = Mat2(*entries)
        for base in (square(), odd_shape(), ellipse(1.7, 0.9, 0.6)):
            sh = act(g, base)
            angles = [math.atan2(*reversed(g.apply(x, y))) for x, y in ODD_VERTICES]
            r = np.asarray(sh.evaluate(_with_angles(4096, angles)))
            assert sh.r_min <= float(np.min(r)) and float(np.max(r)) <= sh.r_max
    sh = act(Mat2(5.0, 2.0, 2.0, 1.0), odd_shape())
    assert sh.evaluate(math.atan2(5.0, 12.0)) == pytest.approx(13.0, rel=1e-15)


def test_odd_boundary_points_lie_on_the_seven_edges():
    # independent of the gauge: distance of (r cos, r sin) to the polygon's edges
    th = _with_angles(1000, [math.atan2(y, x) for x, y in ODD_VERTICES])
    r = np.asarray(odd_shape().evaluate(th))
    px, py = r * np.cos(th), r * np.sin(th)
    dist = np.full(len(th), np.inf)
    for (ax, ay), (bx, by) in zip(ODD_VERTICES, ODD_VERTICES[1:] + ODD_VERTICES[:1]):
        ex, ey = bx - ax, by - ay
        u = np.clip(((px - ax) * ex + (py - ay) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
        dist = np.minimum(dist, np.hypot(px - ax - u * ex, py - ay - u * ey))
    assert float(np.max(dist)) <= 1e-14


def test_rotated_ellipse_boundary_points_satisfy_the_ellipse_equation():
    for a, b, phi in ((1.7, 0.9, 0.6), (2.0, 1.0, 0.3), (1.5, 1.0, 2.5003)):
        th = _with_angles(1000, [phi, phi + math.pi / 2])
        r = np.asarray(ellipse(a, b, phi).evaluate(th))
        x, y = r * np.cos(th), r * np.sin(th)
        u = x * math.cos(phi) + y * math.sin(phi)  # coordinates along the axes
        v = -x * math.sin(phi) + y * math.cos(phi)
        assert float(np.max(np.abs((u / a) ** 2 + (v / b) ** 2 - 1.0))) <= 1e-14


def test_periodicity():
    for sh in (ellipse(2, 1, 0.3), odd_shape(), cosine_series([1.0, 0.2, 0, 0.1])):
        assert abs(sh.evaluate(0.0) - sh.evaluate(2.0 * math.pi - 1e-12)) < 1e-9


def test_cosine_series_rejects_nonpositive():
    with pytest.raises(ValidationError):
        cosine_series([0.5, 0, 0.6])  # dips below zero near theta = pi/2


@pytest.mark.parametrize("spec", [
    "cos:c0=1,c4=0.1", "cos:c0=1,c2=0.15", "cos:c0=1,c1=0.1,c3=0.05", "cos:c0=1,c200=0.4",
    "cos:c0=1,c1000=0.45", "cos:c0=1,c1=0.3,c2=0.2,c7=0.1,c33=0.05", "cos:c0=1.5,c275=-0.9633,c394=-0.513",
    "cos:c0=1,c4096=0.5",  # 1.5 on every point of the first grid, 0.5 between them
])
def test_cosine_series_bounds_hold_on_a_fine_grid(spec):
    sh = parse_shape(spec)
    r = np.asarray(sh.evaluate(np.arange(1 << 20) * (2.0 * math.pi / (1 << 20))))
    assert sh.r_min <= float(np.min(r)) and float(np.max(r)) <= sh.r_max


def test_symmetry_orders():
    assert circle(1.0).symmetry_order == 0  # full rotational symmetry
    assert ellipse(2, 1).symmetry_order == 2
    assert square().symmetry_order == 4
    assert odd_shape().symmetry_order == 1
    assert cosine_series([1.0, 0, 0, 0, 0.1]).symmetry_order == 4


def test_image_symmetry_order_is_sampled_only_when_read(monkeypatch):
    from hlawka import shapes

    calls = []
    sample = shapes._detect_symmetry

    def counted(evalf):
        calls.append(evalf)
        return sample(evalf)

    monkeypatch.setattr(shapes, "_detect_symmetry", counted)
    image = parse_shape("odd@gl2=1.5,0.5,0,1")
    assert calls == []
    assert image.symmetry_order == 1 and len(calls) == 1
    assert image.symmetry_order == 1 and len(calls) == 1  # kept once read
    # a centrally symmetric base keeps its half turn under any g
    parallelogram = parse_shape("square@gl2=2,1,1,1.5")
    assert parallelogram.symmetry_order == 2 and len(calls) == 2


def test_quadratic_images_are_ellipses_with_exact_bounds(monkeypatch):
    # gD for D = kappa(-phi) diag(a, b) B has the singular values of
    # g kappa(-phi) diag(a, b) as its axes; its symmetry comes from the kind
    from hlawka import shapes
    from hlawka.zeta import QuadForm2

    def sampled(evalf):
        raise AssertionError("a quadratic image sampled its symmetry")

    monkeypatch.setattr(shapes, "_detect_symmetry", sampled)
    u = QuadForm2(2.0, 0.7, 1.5)
    cases = [  # (image, g, (a, b, phi) of D)
        (parse_shape("circle:c=1.3@gl2=0,1,1,0"), (0, 1, 1, 0), (1.3, 1.3, 0.0)),
        (parse_shape("circle@gl2=1.5,0.3,0.2,0.8"), (1.5, 0.3, 0.2, 0.8), (1.0, 1.0, 0.0)),
        (parse_shape("ellipse:a=2,b=1@gl2=2,1,1,1"), (2, 1, 1, 1), (2.0, 1.0, 0.0)),
        (parse_shape("ellipse:a=2,b=1@gl2=0,1,1,0"), (0, 1, 1, 0), (2.0, 1.0, 0.0)),
        (parse_shape("ellipse:a=5,b=1,phi=0.3@gl2=1,3,0,1"), (1, 3, 0, 1), (5.0, 1.0, 0.3)),
        (parse_shape("ellipse:a=1.5,b=1,phi=0.3@gl2=0,1,1,-2"), (0, 1, 1, -2), (1.5, 1.0, 0.3)),
        # the region of u: R^-1 B for u = R^T R
        (u.region(), np.linalg.inv(np.linalg.cholesky([[u.u11, u.u12], [u.u12, u.u22]]).T), (1.0, 1.0, 0.0)),
    ]
    for image, g, (a, b, phi) in cases:
        h = np.reshape(g, (2, 2)) @ [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]] @ np.diag([a, b])
        axes = np.linalg.svd(h, compute_uv=False)
        assert image.kind == "ellipse" and image.symmetry.has_negation
        assert image.symmetry_order == (0 if image.params[0] == image.params[1] else 2)
        assert image.r_max == pytest.approx(axes[0], rel=1e-14) and image.r_min == pytest.approx(axes[1], rel=1e-14)
        r = np.asarray(image.evaluate(GRID))
        assert image.r_min <= float(np.min(r)) and float(np.max(r)) <= image.r_max
    long = parse_shape("ellipse:a=5,b=1,phi=0.3@gl2=1,3,0,1")
    assert (round(long.r_max, 3), round(long.r_min, 3)) == (9.708, 0.515)
    assert parse_shape("circle:c=1.3@gl2=0,1,1,0") == circle(1.3)
    assert parse_shape("circle@gl2=2,0,0,1").params == (2.0, 1.0, 0.0)
    # axes on the coordinate axes are stored unrotated, the shorter first or
    # not, so the axis reflections stay exact symmetries
    assert parse_shape("ellipse:a=2,b=1@gl2=0,1,1,0").params == (1.0, 2.0, 0.0)
    assert QuadForm2(1.3, 0.0, 0.9).region().params == (1.0 / math.sqrt(1.3), 1.0 / math.sqrt(0.9), 0.0)
    assert QuadForm2(1.3, 0.0, 0.9).region().symmetry.name == "KLEIN"


def test_area_values():
    assert abs(area(circle(1.0)) - math.pi) < 1e-12
    assert abs(area(ellipse(2, 1)) - 2 * math.pi) < 1e-10
    assert area(square()) == 4.0
    assert area(odd_shape()) == 4.0   # shoelace value of the 7 vertices


@pytest.mark.parametrize("spec", ["cos:c0=1,c4=0.1", "cos:c0=1,c1=0.2,c3=0.05", "ellipse:a=2,b=1,phi=0.3",
                                  "ellipse:a=1.2,b=1@gl2=1,1,0,1", "cos:c0=1,c2=0.15@gl2=1.2,0.3,-0.1,0.8"])
def test_exact_area_matches_the_trapezoid_on_smooth_shapes(spec):
    # (1/2) integral r^2 by the trapezoid rule is spectrally accurate for these
    shape = parse_shape(spec)
    th = np.arange(1 << 12) * (2 * math.pi / (1 << 12))
    r = np.asarray(shape.evaluate(th))
    assert area(shape) == pytest.approx(math.pi * float(np.mean(r * r)), rel=1e-13)


def test_exact_area_of_kinked_images_is_the_shoelace_area():
    # |det g| times the base: the images of the square and the odd shape
    for spec, expected in (("odd@gl2=2,1,1,1", 4.0), ("square@gl2=1,1,0,1", 4.0),
                           ("odd@gl2=1.5,0.5,0,1", 6.0), ("square@gl2=0,1,1,0", 4.0)):
        assert area(parse_shape(spec)) == expected


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------


def test_iwasawa_trivial_cases():
    iw = iwasawa_decompose(Mat2.identity())
    assert (iw.u, iw.x, iw.y, iw.theta) == (1.0, 0.0, 1.0, 0.0)
    phi = 1.234
    iw = iwasawa_decompose(Mat2.rotation(phi))
    assert abs(iw.u - 1) < 1e-15 and abs(iw.y - 1) < 1e-15
    assert abs(iw.x) < 1e-15 and abs(iw.theta - phi) < 1e-12
    iw = iwasawa_decompose(Mat2.diagonal(2.0, 2.0))
    assert (iw.u, iw.x, iw.y, iw.theta) == (2.0, 0.0, 1.0, 0.0)


def test_iwasawa_rejects_nonpositive_det():
    with pytest.raises(ValidationError):
        iwasawa_decompose(Mat2(1, 0, 0, -1))


def test_iwasawa_recomposition_random():
    rng = np.random.default_rng(21)
    count = 0
    worst = 0.0
    while count < 1000:
        g = random_gl2(rng)
        if g.det <= 0:
            continue
        count += 1
        iw = iwasawa_decompose(g)
        sy = math.sqrt(iw.y)
        m = Mat2(sy, iw.x / sy, 0.0, 1.0 / sy) @ Mat2.rotation(iw.theta)
        rec = (iw.u * m.a, iw.u * m.b, iw.u * m.c, iw.u * m.d)
        worst = max(worst, max(abs(a - b) for a, b in zip(rec, g.entries())))
    assert worst <= 1e-12


def test_cartan_trivial_cases():
    k1, d1, d2, k2 = cartan_decompose(Mat2.diagonal(3.0, 2.0))
    assert (d1, d2) == (3.0, 2.0)
    rec = k1 @ Mat2.diagonal(d1, d2) @ k2
    assert max(abs(a - b) for a, b in zip(rec.entries(), (3, 0, 0, 2))) < 1e-14

    k1, d1, d2, k2 = cartan_decompose(Mat2.rotation(0.9))
    assert abs(d1 - 1) < 1e-15 and abs(d2 - 1) < 1e-15
    rec = k1 @ Mat2.diagonal(d1, d2) @ k2
    tgt = Mat2.rotation(0.9)
    assert max(abs(a - b) for a, b in zip(rec.entries(), tgt.entries())) < 1e-14


def test_cartan_shear_singular_value_quadratic_oracle():
    # eigenvalues of g^T g for g = [[1,1],[0,1]] are roots of
    # lambda^2 - 3 lambda + 1 (quadratic formula oracle)
    disc = math.sqrt(9.0 - 4.0)
    lam_hi = (3.0 + disc) / 2.0
    _, d1, d2, _ = cartan_decompose(Mat2(1.0, 1.0, 0.0, 1.0))
    assert abs(d1 - math.sqrt(lam_hi)) < 1e-14
    assert abs(d1 * d2 - 1.0) < 1e-14


def test_cartan_recomposition_random():
    rng = np.random.default_rng(22)
    count = 0
    worst = 0.0
    while count < 1000:
        g = random_gl2(rng)
        if g.det <= 0:
            continue
        count += 1
        k1, d1, d2, k2 = cartan_decompose(g)
        assert d1 >= d2 > 0
        rec = k1 @ Mat2.diagonal(d1, d2) @ k2
        worst = max(worst, max(abs(a - b) for a, b in zip(rec.entries(), g.entries())))
    assert worst <= 1e-12


def test_cartan_rejects_nonpositive_det():
    with pytest.raises(ValidationError):
        cartan_decompose(Mat2(0, 1, 1, 0))


# ---------------------------------------------------------------------------
# circle map theta_g
# ---------------------------------------------------------------------------


def test_theta_identity_and_rotation():
    assert abs(theta_g(Mat2.identity(), 1.3) - 1.3) < 1e-15
    # kappa(psi) shifts angles by -psi (matrix convention: clockwise by psi)
    psi = 0.7
    val = theta_g(Mat2.rotation(psi), 1.3)
    assert abs(val - (1.3 - psi)) < 1e-12


def test_theta_diag_closed_form():
    val = theta_g(Mat2.diagonal(2.0, 1.0), math.pi / 4)
    assert abs(val - math.atan2(1.0, 2.0)) < 1e-14


def test_theta_monotone_and_group_law():
    rng = np.random.default_rng(23)
    grid = np.linspace(0, 2 * math.pi, 257)
    for _ in range(40):
        g = random_gl2(rng)
        h = random_gl2(rng)
        th_g = np.unwrap(theta_g(g, grid))
        d = np.diff(th_g)
        if g.det > 0:
            assert np.all(d > 0)
        else:
            assert np.all(d < 0)
        lhs = theta_g(g @ h, grid)
        rhs = theta_g(g, theta_g(h, grid))
        delta = np.abs(np.exp(1j * lhs) - np.exp(1j * rhs))  # compare as circle points
        assert np.max(delta) <= 1e-10


# ---------------------------------------------------------------------------
# the GL(2,R) action
# ---------------------------------------------------------------------------


def test_act_identity():
    sh = cosine_series([1.0, 0.2, 0, 0.05])
    out = act(Mat2.identity(), sh)
    assert np.max(np.abs(out.evaluate(GRID) - sh.evaluate(GRID))) <= 1e-12


def test_act_diag_circle_is_ellipse():
    out = act(Mat2.diagonal(2.0, 1.0), circle(1.0))
    ref = ellipse(2.0, 1.0)
    assert np.max(np.abs(out.evaluate(GRID) - ref.evaluate(GRID))) <= 1e-12


def test_act_rotation_is_shift():
    # (kappa(psi).r)(theta) = r(theta + psi): pinned by the defining equation
    sh = cosine_series([1.0, 0.2, 0, 0.05])
    psi = 0.9
    out = act(Mat2.rotation(psi), sh)
    assert np.max(np.abs(out.evaluate(GRID) - sh.evaluate(GRID + psi))) <= 1e-12


def test_act_defining_equation_general_matrix():
    # g X(r(phi), phi) = X((g.r)(theta_g(phi)), theta_g(phi))
    rng = np.random.default_rng(25)
    sh = cosine_series([1.0, 0.15, 0, 0.05])
    for _ in range(10):
        g = random_gl2(rng)
        out = act(g, sh)
        r = np.asarray(sh.evaluate(GRID))
        x, y = g.apply(r * np.cos(GRID), r * np.sin(GRID))
        tg = theta_g(g, GRID)
        assert np.max(np.abs(np.hypot(x, y) - out.evaluate(tg))) <= 1e-9


def test_act_group_law_and_identity_property():
    rng = np.random.default_rng(26)
    sh = cosine_series([1.0, 0.1, 0, 0.05])
    grid = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    worst = 0.0
    for _ in range(30):
        g = random_gl2(rng)
        h = random_gl2(rng)
        combined = act(g @ h, sh)
        nested = act(g, act(h, sh))
        worst = max(worst, float(np.max(np.abs(combined.evaluate(grid) - nested.evaluate(grid)))))
    assert worst <= 1e-9


def test_act_preserves_star_shape():
    rng = np.random.default_rng(27)
    sh = odd_shape()
    for _ in range(10):
        g = random_gl2(rng)
        out = act(g, sh)
        r = np.asarray(out.evaluate(GRID))
        assert np.all(r > 0)
        assert np.all(np.isfinite(r))


def test_evaluate_empty_input_every_kind():
    empty = np.empty(0)
    kinds = (circle(1.0), ellipse(2.0, 1.0, 0.3), square(), odd_shape(),
             cosine_series([1.0, 0.1, 0, 0.05]), act(Mat2(1.2, 0.3, -0.1, 0.8), circle(1.0)))
    for sh in kinds:
        out = sh.evaluate(empty)
        assert isinstance(out, np.ndarray) and out.shape == (0,), sh.kind


def test_act_rejects_singular():
    with pytest.raises(ValidationError):
        act(Mat2(1.0, 2.0, 2.0, 4.0), circle(1.0))


# ---------------------------------------------------------------------------
# shape mini-language
# ---------------------------------------------------------------------------


def test_parse_shape_round_trips():
    ci = parse_shape("circle:c=1.5")
    assert ci.kind == "ellipse" and ci.params == (1.5, 1.5, 0.0)
    sq, od = parse_shape("square"), parse_shape("odd")
    assert sq.kind == od.kind == "polygon" and (len(sq.params), len(od.params)) == (4, 7)
    el = parse_shape("ellipse:a=2,b=1,phi=0.3")
    assert el.kind == "ellipse" and el.params == (2.0, 1.0, 0.3)
    co = parse_shape("cos:c0=1,c4=0.1")
    assert co.kind == "cosine-series" and co.params == (1.0, 0.0, 0.0, 0.0, 0.1)
    tr = parse_shape("circle:c=1@gl2=2,0,0,1")
    assert tr.kind == "ellipse"
    assert np.max(np.abs(tr.evaluate(GRID) - ellipse(2, 1).evaluate(GRID))) < 1e-12


def test_parse_shape_errors_carry_position():
    with pytest.raises(ShapeSpecError) as exc:
        parse_shape("ellipse:a=2,b=oops")
    assert exc.value.pos > 0
    with pytest.raises(ShapeSpecError):
        parse_shape("hexagon:n=6")
    with pytest.raises(ShapeSpecError):
        parse_shape("square:side=3")
    with pytest.raises(ShapeSpecError):
        parse_shape("circle:c=1@gl2=1,0,0")
    with pytest.raises(ShapeSpecError):
        parse_shape("circle:c=1@gl2=1,0,0,0")
    with pytest.raises(ShapeSpecError):
        parse_shape("")
