"""Geometry tests: radial evaluators, decompositions, the circle map, and the
group action, with brute-force geometric oracles for every derived value."""

import math

import numpy as np
import pytest

from hlawka.errors import ShapeSpecError, ValidationError
from hlawka.shapes import (
    Mat2,
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


def test_periodicity():
    for sh in (ellipse(2, 1, 0.3), odd_shape(), cosine_series([1.0, 0.2, 0, 0.1])):
        assert abs(sh.evaluate(0.0) - sh.evaluate(2.0 * math.pi - 1e-12)) < 1e-9


def test_cosine_series_rejects_nonpositive():
    with pytest.raises(ValidationError):
        cosine_series([0.5, 0, 0.6])  # dips below zero near theta = pi/2


def test_symmetry_orders():
    assert circle(1.0).symmetry_order == 0  # full rotational symmetry
    assert ellipse(2, 1).symmetry_order == 2
    assert square().symmetry_order == 4
    assert odd_shape().symmetry_order == 1
    assert cosine_series([1.0, 0, 0, 0, 0.1]).symmetry_order == 4


def test_area_values():
    assert abs(area(circle(1.0)) - math.pi) < 1e-12
    assert abs(area(ellipse(2, 1)) - 2 * math.pi) < 1e-10
    assert abs(area(square()) - 4.0) < 1e-3      # kinked: trapezoid converges slowly
    assert abs(area(odd_shape()) - 4.0) < 1e-3   # shoelace value of the 7 vertices


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
        rec = iwasawa_decompose(g).recompose()
        worst = max(worst, max(abs(a - b) for a, b in zip(rec.entries(), g.entries())))
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
    assert parse_shape("circle:c=1.5").kind == "constant"
    assert parse_shape("square").kind == "square"
    assert parse_shape("odd").kind == "odd"
    el = parse_shape("ellipse:a=2,b=1,phi=0.3")
    assert el.kind == "ellipse" and el.params == (2.0, 1.0, 0.3)
    co = parse_shape("cos:c0=1,c4=0.1")
    assert co.kind == "cosine-series" and co.params == (1.0, 0.0, 0.0, 0.0, 0.1)
    tr = parse_shape("circle:c=1@gl2=2,0,0,1")
    assert tr.kind == "transformed"
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
