"""Star-shaped planar regions, their radial functions and the GL(2,R) action.

Supported kinds: ellipse (a circle is the ellipse with equal axes), polygon
(a star polygon given by its exact vertices: the square of side 2, the
seven-segment "odd" region with the same dilation spectrum, and their
GL(2,Z) images), finite cosine series, and images of polygons and cosine
series under any other nonsingular 2x2 matrix (``transformed``).  GL(2,R)
maps ellipses to ellipses, so ``act`` returns an image of an ellipse as an
ellipse, read off the Cartan decomposition, and an integer matrix of det
+-1 maps a polygon to the polygon of the image vertices.  Each kind is
defined once, by its gauge t(p) = inf{t : p in tD}
(``lattice.dilation_times_block``); the radial function, whose curve theta
|-> r(theta) (cos theta, sin theta) is the boundary, is r(theta) = 1 /
t(cos theta, sin theta).  The circle (an ellipse with a = b, r = a) and the
cosine series keep r as their definition.  A transformed shape has
t_{gD}(p) = t_D(g^-1 p), for either sign of det g.

Matrix conventions.  kappa(phi) denotes [[cos phi, sin phi], [-sin phi,
cos phi]]; as a map of column vectors it rotates the plane by -phi, hence the
induced circle map is theta_kappa(theta) = theta - phi and the induced action
on radial functions is (kappa(phi) . r)(theta) = r(theta + phi).  This is the
convention every numeric test in this package pins down via the defining
equation g X(r(phi), phi) = X((g.r)(theta_g(phi)), theta_g(phi)).

All evaluators accept scalars or numpy arrays and are pure; shapes are
immutable after construction and safe to share across threads.

``RadialShape.symmetry`` is the subgroup of D4, the symmetries of Z^2, that
maps the region onto itself, read from the kind and its parameters (a
polygon's from its vertex set; never sampled); the direct sums walk one
lattice point per orbit of it.
"""

from __future__ import annotations

import cmath
import decimal
import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from .errors import ShapeSpecError, ValidationError
from .scratch import scratch

__all__ = [
    "Mat2",
    "IwasawaCoords",
    "RadialShape",
    "Symmetry",
    "circle",
    "ellipse",
    "square",
    "odd_shape",
    "cosine_series",
    "act",
    "area",
    "theta_g",
    "iwasawa_decompose",
    "cartan_decompose",
    "parse_shape",
]

_TWO_PI = 2.0 * math.pi
_TWO_PI_DEC = decimal.Decimal("6.283185307179586476925286766559005768394338798750211641949889184615632812572417997256")
_GRID_N = 4096  # first bounds grid of a cosine series
_GRID_CAP = 1 << 20  # its finest

ArrayLike = Union[float, np.ndarray]


# ---------------------------------------------------------------------------
# 2x2 matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mat2:
    """Real 2x2 matrix [[a, b], [c, d]], row-major."""

    a: float
    b: float
    c: float
    d: float

    @cached_property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def rotation(phi: float) -> "Mat2":
        """kappa(phi) = [[cos phi, sin phi], [-sin phi, cos phi]]."""
        cp, sp = math.cos(phi), math.sin(phi)
        return Mat2(cp, sp, -sp, cp)

    @staticmethod
    def diagonal(d1: float, d2: float) -> "Mat2":
        return Mat2(d1, 0.0, 0.0, d2)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        if self.det == 0.0:
            raise ValidationError("singular matrix has no inverse")
        inv = 1.0 / self.det
        return Mat2(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)

    def apply(self, x: ArrayLike, y: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        """Matrix-vector product on column vectors (vectorized)."""
        return self.a * x + self.b * y, self.c * x + self.d * y

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class IwasawaCoords:
    """Coordinates (u, x, y, theta) of g = u*I . [[sqrt y, x/sqrt y],[0, 1/sqrt y]] . kappa(theta)."""

    u: float
    x: float
    y: float
    theta: float


def iwasawa_decompose(g: Mat2) -> IwasawaCoords:
    """Unique factorization scalar x upper-triangular x rotation, det(g) > 0."""
    if g.det <= 0.0:
        raise ValidationError("Iwasawa decomposition requires det > 0")
    u = math.sqrt(g.det)
    y = g.det / (g.c * g.c + g.d * g.d)
    theta = math.atan2(-g.c, g.d) % _TWO_PI
    # x from the top row of (g/u) kappa(-theta)
    ct, st = math.cos(theta), math.sin(theta)
    t12 = (-g.a * st + g.b * ct) / u
    x = t12 * math.sqrt(y)
    return IwasawaCoords(u=u, x=x, y=y, theta=theta)


def cartan_decompose(g: Mat2) -> tuple[Mat2, float, float, Mat2]:
    """g = kappa(phi1) . diag(d1, d2) . kappa(phi2) with d1 >= d2 > 0.

    The analytic 2x2 singular value decomposition: writing the action of g on
    x + iy as z |-> alpha z + beta conj(z), the rotation angles and singular
    values are read off from the polar forms of alpha and beta.
    """
    if g.det <= 0.0:
        raise ValidationError("Cartan decomposition requires det > 0")
    alpha = complex(0.5 * (g.a + g.d), 0.5 * (g.c - g.b))
    beta = complex(0.5 * (g.a - g.d), 0.5 * (g.c + g.b))
    d1 = abs(alpha) + abs(beta)
    d2 = abs(alpha) - abs(beta)
    arg_a = cmath.phase(alpha)
    arg_b = cmath.phase(beta) if beta != 0 else 0.0
    phi1 = -0.5 * (arg_a + arg_b)
    phi2 = -0.5 * (arg_a - arg_b)
    return Mat2.rotation(phi1), d1, d2, Mat2.rotation(phi2)


# ---------------------------------------------------------------------------
# The induced circle map theta_g
# ---------------------------------------------------------------------------


def theta_g(g: Mat2, phi: ArrayLike) -> ArrayLike:
    """Angle of g.(cos phi, sin phi), in [0, 2pi).

    A continuous monotone circle map: increasing for det g > 0, decreasing
    for det g < 0.
    """
    if g.det == 0.0:
        raise ValidationError("theta_g requires a nonsingular matrix")
    cp, sp = np.cos(phi), np.sin(phi)
    x, y = g.apply(cp, sp)
    return np.arctan2(y, x) % _TWO_PI


# ---------------------------------------------------------------------------
# Radial shapes
# ---------------------------------------------------------------------------


class Symmetry(enum.Enum):
    """A subgroup G of D4, the group of quarter turns and reflections of Z^2,
    under which a lattice sum's terms are invariant."""

    TRIVIAL = "1"
    NEGATION = "{+-1}"
    REFLECTION = "{1, n -> -n}"
    KLEIN = "{+-1, m -> -m, n -> -n}"
    D4 = "D4"

    @property
    def has_negation(self) -> bool:
        """p -> -p is in G."""
        return self in (Symmetry.NEGATION, Symmetry.KLEIN, Symmetry.D4)


@dataclass(frozen=True)
class RadialShape:
    """Immutable star-shaped region with r_min <= r(theta) <= r_max: the
    extremes of r for an ellipse (every circle and every image included)
    and a polygon; bounds from a grid and the series' curvature for a
    cosine series; singular-value bounds for a transformed shape.

    ``params`` is kind-specific:
      ellipse        (a, b, phi), a >= b; a circle of radius c is (c, c,
                     0.0); an image from ``act`` whose axes lie on the
                     coordinate axes has phi = 0 and either order
      polygon        ((x0, y0), (x1, y1), ...): the vertices in
                     counterclockwise order, each cone v_i x v_(i+1) > 0,
                     exact (int, or ``Fraction`` where not integral)
      cosine-series  (c0, c1, ..., cQ)
      transformed    (matrix, base_shape): an image of a polygon or a
                     cosine series (or of such an image)
    """

    kind: str
    params: tuple = ()
    r_min: float = field(default=0.0, compare=False)
    r_max: float = field(default=0.0, compare=False)

    def evaluate(self, theta: ArrayLike) -> ArrayLike:
        """r(theta) = 1 / t(cos theta, sin theta) for scalar or array theta
        (any real)."""
        th = np.asarray(theta, dtype=float)
        if th.ndim == 0:
            return float(self.evaluate(th[None])[0])
        if self.kind == "cosine-series":
            return _cosine_series(self.params, th)
        if self.kind == "ellipse" and self.params[0] == self.params[1]:
            return np.full_like(th, self.params[0])
        from .lattice import dilation_times_block  # lattice imports this module

        t = dilation_times_block(self, np.cos(th).ravel(), np.sin(th).ravel())
        return np.divide(1.0, t, out=t).reshape(th.shape)

    __call__ = evaluate

    @cached_property
    def symmetry_order(self) -> int:
        """The largest k with r(theta + 2 pi / k) = r(theta), 0 for full
        rotational symmetry; read from the kind (a polygon's rational
        vertices admit only k = 1, 2 and 4), and for a transformed shape
        sampled (k <= 16, within 1e-10) when first read."""
        kind = self.kind
        if kind == "ellipse":
            return 0 if self.params[0] == self.params[1] else 2
        if kind == "polygon":
            return 4 if self._keeps(0, -1, 1, 0) else 2 if self._keeps(-1, 0, 0, -1) else 1
        if kind == "cosine-series":
            nonzero = [q for q in range(1, len(self.params)) if self.params[q] != 0.0]
            return math.gcd(*nonzero) if nonzero else 0
        return _detect_symmetry(self.evaluate)

    @cached_property
    def symmetry(self) -> Symmetry:
        """The subgroup of D4 that maps the region onto itself (one that the
        kind and parameters show: for a polygon the largest that maps its
        vertex set onto itself; a transformed shape keeps only p -> -p)."""
        kind = self.kind
        if kind == "polygon":
            negation = self._keeps(-1, 0, 0, -1)
            if not self._keeps(1, 0, 0, -1):
                return Symmetry.NEGATION if negation else Symmetry.TRIVIAL
            return Symmetry.D4 if self._keeps(0, -1, 1, 0) else Symmetry.KLEIN if negation else Symmetry.REFLECTION
        if kind == "ellipse" and self.params[0] == self.params[1]:
            return Symmetry.D4
        if kind == "ellipse":
            return Symmetry.KLEIN if self.params[2] == 0.0 else Symmetry.NEGATION
        if kind == "cosine-series":
            # every cos(q theta) is even; odd q breaks p -> -p, q = 2 mod 4
            # the quarter turn
            harmonics = [q for q, c in enumerate(self.params) if q and c != 0.0]
            if any(q % 2 for q in harmonics):
                return Symmetry.REFLECTION
            return Symmetry.KLEIN if any(q % 4 for q in harmonics) else Symmetry.D4
        if kind == "transformed" and self.params[1].symmetry.has_negation:
            return Symmetry.NEGATION
        return Symmetry.TRIVIAL

    def _keeps(self, a, b, c, d) -> bool:
        """Whether [[a, b], [c, d]] maps a polygon's vertex set onto itself,
        and so the polygon onto itself."""
        return {(a * x + b * y, c * x + d * y) for x, y in self.params} == set(self.params)


def _cosine_series(coeffs, th: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_q coeffs[q] cos(q th); into ``out`` with a scratch temporary when
    ``out`` is given."""
    if out is None:
        out, tmp = np.empty_like(th), np.empty_like(th)
    else:
        tmp = scratch("shapes.cos", th.size).reshape(th.shape)
    out.fill(coeffs[0])
    for q in range(1, len(coeffs)):
        if coeffs[q] != 0.0:
            np.multiply(th, q, out=tmp)
            np.cos(tmp, out=tmp)
            tmp *= coeffs[q]
            out += tmp
    return out


def _detect_symmetry(evalf, cap: int = 16, tol: float = 1e-10) -> int:
    th = np.arange(512) * (_TWO_PI / 512)
    r0 = np.asarray(evalf(th))
    scale = max(1.0, float(np.max(np.abs(r0))))
    for k in range(cap, 1, -1):
        rk = np.asarray(evalf(th + _TWO_PI / k))
        if float(np.max(np.abs(rk - r0))) <= tol * scale:
            return k
    return 1


def circle(c: float = 1.0) -> RadialShape:
    """The radial function r(theta) = c: the ellipse (c, c, 0.0)."""
    if not (c > 0.0 and math.isfinite(c)):
        raise ValidationError("circle radius must be positive and finite")
    return ellipse(c, c)


def ellipse(a: float, b: float, phi: float = 0.0) -> RadialShape:
    """Axes a >= b > 0, rotated phi counterclockwise; phi is stored as 0.0
    where a = b."""
    if not (a >= b > 0.0) or not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError("ellipse requires a >= b > 0")
    if not math.isfinite(phi):
        raise ValidationError("ellipse requires a finite phi")
    return RadialShape(
        kind="ellipse", params=(float(a), float(b), float(phi) if a != b else 0.0),
        r_min=b, r_max=a,
    )


@lru_cache(maxsize=1024)
def _polygon(vertices: tuple) -> RadialShape:
    """The star polygon of these counterclockwise vertices, each cone v_i x
    v_(i+1) > 0, with exact coordinates: ints, and ``Fraction`` where not
    integral (an int hashes fast, and ``lattice`` looks the polygon up by
    them).  r_max is the farthest vertex and r_min the nearest point of an
    edge, from exact squared norms rounded once before the root.  The last
    1024 built are kept: the ``Fraction`` arithmetic costs about a
    millisecond."""
    nearest = []
    for (ax, ay), (bx, by) in zip(vertices, vertices[1:] + vertices[:1]):
        dx, dy = bx - ax, by - ay
        u = min(max(Fraction(-(ax * dx + ay * dy), dx * dx + dy * dy), 0), 1)
        nearest.append((ax + u * dx) ** 2 + (ay + u * dy) ** 2)
    return RadialShape(kind="polygon", params=vertices, r_min=math.sqrt(min(nearest)),
                       r_max=math.sqrt(max(x * x + y * y for x, y in vertices)))


def square() -> RadialShape:
    """Square of side 2 centered at the origin (dilation times are integers)."""
    return _polygon(((1, -1), (1, 1), (-1, 1), (-1, -1)))


def odd_shape() -> RadialShape:
    """Seven-segment region with the same dilation spectrum as the square;
    area 4."""
    return _polygon(((1, 0), (2, 1), (1, 1), (0, Fraction(1, 2)), (-1, 1), (-1, -1), (1, -1)))


def cosine_series(coeffs) -> RadialShape:
    """r(theta) = sum_q coeffs[q] cos(q theta), with proven bounds; rejected
    unless they show it positive.

    On the grid of spacing h = 2 pi / N, r lies within (h^2 / 8) sum q^2
    |c_q| of the linear interpolant of its grid values, since |r''| <=
    sum q^2 |c_q|.  The computed grid values err by at most (10 S_1 +
    (3 + k) S_0) 2^-52, S_1 = sum q |c_q|, S_0 = sum |c_q|, k harmonics:
    theta and q theta by 9.5 q ulps of 1, each cosine by 2, the products
    and sums by (1 + k) / 2 ulps of S_0.  r_min and r_max are the grid's
    extremes widened by both.  The grid starts at ``_GRID_N`` points and
    doubles (keeping its points) while r_min is not positive, up to
    ``_GRID_CAP`` points.
    """
    coeffs = tuple(float(c) for c in coeffs)
    if not coeffs:
        raise ValidationError("cosine series needs at least the constant term")
    curvature = sum(q * q * abs(c) for q, c in enumerate(coeffs))
    harmonics = sum(c != 0.0 for c in coeffs[1:])
    rounding = (10.0 * sum(q * abs(c) for q, c in enumerate(coeffs))
                + (3.0 + harmonics) * sum(map(abs, coeffs))) * 2.0**-52
    n = _GRID_N
    while True:
        r = _cosine_series(coeffs, np.arange(n) * (_TWO_PI / n))
        slack = (_TWO_PI / n) ** 2 / 8.0 * curvature + rounding
        low = float(np.min(r))
        if low - slack > 0.0:
            return RadialShape(kind="cosine-series", params=coeffs, r_min=low - slack,
                               r_max=float(np.max(r)) + slack)
        # a finer grid keeps these points, so a minimum <= 0 stays
        if low <= 0.0 or n >= _GRID_CAP:
            raise ValidationError(f"radial function must stay positive (grid min {low:.3g} "
                                  f"on {n} points, curvature slack {slack:.3g})")
        n *= 2


def _cos_sin(phi: float) -> tuple[Fraction, Fraction]:
    """cos phi and sin phi within 1e-45 for |phi| < 1e15: their Taylor
    series in 60-digit decimals, after an exact reduction of phi mod 2 pi
    (to 85 digits); (2 pi)^80 / 80! < 1e-54.  At phi = 0 they are 1 and 0."""
    if phi == 0.0:
        return Fraction(1), Fraction(0)
    with decimal.localcontext() as ctx:  # localcontext(prec=...) needs Python 3.11
        ctx.prec = 60
        x, term, sums = decimal.Decimal(phi) % _TWO_PI_DEC, 1, [1, 0]
        for n in range(1, 80):
            term = term * x / n
            sums[n % 2] += term if n % 4 < 2 else -term
    return Fraction(sums[0]), Fraction(sums[1])


def _axes(shape: RadialShape) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The axes a, b of an ellipse's region, either the longer, and cos phi,
    sin phi of its angle (``_cos_sin``), all exact."""
    a, b, phi = shape.params
    return (Fraction(a), Fraction(b), *_cos_sin(phi))


def _exact_form(shape: RadialShape) -> tuple[Fraction, Fraction, Fraction]:
    """The exact form (u11, u12, u22) of an ellipse (a, b, phi),
    the Q with t(p)^2 = Q(p): (cos^2/a^2 + sin^2/b^2, cos sin (1/a^2 - 1/b^2),
    sin^2/a^2 + cos^2/b^2), cos phi and sin phi within 1e-45."""
    a, b, cp, sp = _axes(shape)
    ia, ib = 1 / (a * a), 1 / (b * b)
    return cp * cp * ia + sp * sp * ib, cp * sp * (ia - ib), sp * sp * ia + cp * cp * ib


def act(g: Mat2, shape: RadialShape) -> RadialShape:
    """The image of the region of ``shape`` under g, of gauge t(g^-1 p).

    An image of an ellipse is an ellipse (a circle where its axes come out
    equal).  The ellipse (a, b, phi) is h B for the unit disc B and h =
    kappa(-phi) diag(a, b), so its image is g h B, the ellipse
    x^T (g h h^T g^T)^-1 x <= 1.  g h is formed in ``Fraction``, exactly
    but for the cosine and sine of phi, which are taken to 45 digits (the
    gauge's rounded ones would turn the image by an ulp, which moves t by
    up to a / b ulps of a nearly round image), and times diag(1, -1)
    (which maps B onto itself) where its det < 0.  Where g h h^T g^T is
    diagonal the image's axes lie on the coordinate axes: its params are
    the roots of the diagonal, (x axis, y axis, 0.0), so the axis
    reflections stay exact symmetries even where the x axis is the
    shorter.  Else, acting on x + iy as z |-> alpha z + beta conj(z), g h
    has the axes d1 = |alpha| + |beta| and d2 = det / d1 and the angle
    (arg alpha + arg beta) / 2 of its Cartan decomposition (as in
    ``cartan_decompose``), a zero angle stored as +0.0.  Each axis is
    rounded a few times from exact sums and squares, with no cancellation.
    The bounds are the axes and the symmetry is read from the kind.  An
    integer g of det +-1 maps a polygon to the polygon of the vertices g v_i
    (in reversed order where det g = -1 turns them clockwise).  Any other
    shape gives a ``transformed`` one; as sigma_min(g) |x| <= |g x| <=
    sigma_max(g) |x|, its bounds are sigma_min(g) r_min and sigma_max(g)
    r_max of ``shape``.
    """
    if g.det == 0.0:
        raise ValidationError("act requires a nonsingular matrix")
    # g acts on x + iy as z |-> alpha z + beta conj(z); its singular values
    # are |alpha| + |beta| and |det g| / (|alpha| + |beta|)
    s_max = 0.5 * (math.hypot(g.a + g.d, g.c - g.b) + math.hypot(g.a - g.d, g.c + g.b))
    if not math.isfinite(s_max * shape.r_max):
        raise ValidationError("the image is too large for floats")
    if shape.kind == "polygon" and all(float(x).is_integer() for x in g.entries()):
        a, b, c, d = map(int, g.entries())
        if abs(a * d - b * c) == 1:
            verts = tuple((a * x + b * y, c * x + d * y) for x, y in shape.params)
            return _polygon(verts if a * d - b * c > 0 else verts[::-1])
    if shape.kind != "ellipse":
        return RadialShape(kind="transformed", params=(g, shape),
                           r_min=abs(g.det) / s_max * shape.r_min, r_max=s_max * shape.r_max)
    a, b, cp, sp = _axes(shape)
    ga, gb, gc, gd = map(Fraction, g.entries())
    h11, h12 = (ga * cp + gb * sp) * a, (gb * cp - ga * sp) * b
    h21, h22 = (gc * cp + gd * sp) * a, (gd * cp - gc * sp) * b
    if h11 * h21 + h12 * h22 == 0:
        x, y = math.hypot(float(h11), float(h12)), math.hypot(float(h21), float(h22))
        return RadialShape("ellipse", (x, y, 0.0), r_min=min(x, y), r_max=max(x, y))
    det = h11 * h22 - h12 * h21
    if det < 0:
        h12, h22, det = -h12, -h22, -det
    alpha, beta = ((h11 + h22) / 2, (h21 - h12) / 2), ((h11 - h22) / 2, (h21 + h12) / 2)
    d1 = math.hypot(*map(float, alpha)) + math.hypot(*map(float, beta))
    angle = 0.5 * (math.atan2(float(alpha[1]), float(alpha[0])) + math.atan2(float(beta[1]), float(beta[0])))
    return ellipse(d1, min(d1, float(det / Fraction(d1))), angle + 0.0)


def area(shape: RadialShape) -> float:
    """Exact region area: pi a b (ellipse; pi c^2 for a circle, which (pi c) c
    would round differently), the shoelace formula in ``Fraction`` for a
    polygon, pi (c_0^2 + (1/2) sum c_q^2) for a cosine series (Parseval on
    (1/2) integral r^2), |det g| area(D) for a transformed image gD."""
    kind, p = shape.kind, shape.params
    if kind == "ellipse":
        return math.pi * p[0] ** 2 if p[0] == p[1] else math.pi * p[0] * p[1]
    if kind == "polygon":
        return float(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(p, p[1:] + p[:1])) / 2)
    if kind == "cosine-series":
        return math.pi * (p[0] ** 2 + 0.5 * sum(c * c for c in p[1:]))
    return abs(p[0].det) * area(p[1])


# ---------------------------------------------------------------------------
# Shape mini-language
# ---------------------------------------------------------------------------

_KINDS = ("circle", "ellipse", "square", "odd", "cos")


def _parse_kv(body: str, offset: int, text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    pos = offset
    if not body:
        raise ShapeSpecError(text, pos, "expected key=value parameters")
    for item in body.split(","):
        if "=" not in item:
            raise ShapeSpecError(text, pos, f"expected key=value, got {item!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        try:
            out[key] = float(val)
        except ValueError:
            raise ShapeSpecError(text, pos + len(key) + 1, f"bad number {val!r}") from None
        pos += len(item) + 1
    return out


def parse_shape(text: str) -> RadialShape:
    """Parse the CLI mini-language.

    Examples: ``circle:c=1.0`` (bare ``circle``: c = 1),
    ``ellipse:a=2,b=1,phi=0.3``, ``square``, ``odd``, ``cos:c0=1,c4=0.1``;
    optional suffix ``@gl2=a,b,c,d`` wraps the shape in a linear
    transformation.
    """
    if not isinstance(text, str) or not text.strip():
        raise ShapeSpecError(str(text), 0, "empty shape spec")
    text = text.strip()
    base_txt, at, gl2_txt = text.partition("@")
    kind, colon, body = base_txt.partition(":")
    kind = kind.strip()
    if kind not in _KINDS:
        raise ShapeSpecError(text, 0, f"unknown kind {kind!r}; expected one of {_KINDS}")

    if kind in ("square", "odd"):
        if colon:
            raise ShapeSpecError(text, len(kind), f"{kind} takes no parameters")
        shape = square() if kind == "square" else odd_shape()
    else:
        # a bare circle is the unit circle; the other kinds need parameters
        kv = {} if kind == "circle" and not colon else _parse_kv(body, len(kind) + 1, text)
        try:
            if kind == "circle":
                extra = set(kv) - {"c"}
                if extra:
                    raise ShapeSpecError(text, len(kind) + 1, f"unknown keys {sorted(extra)}")
                shape = circle(kv.get("c", 1.0))
            elif kind == "ellipse":
                extra = set(kv) - {"a", "b", "phi"}
                if extra:
                    raise ShapeSpecError(text, len(kind) + 1, f"unknown keys {sorted(extra)}")
                if "a" not in kv or "b" not in kv:
                    raise ShapeSpecError(text, len(kind) + 1, "ellipse needs a= and b=")
                shape = ellipse(kv["a"], kv["b"], kv.get("phi", 0.0))
            else:  # cos
                idx = {}
                for key, val in kv.items():
                    if not key.startswith("c") or not key[1:].isdigit():
                        raise ShapeSpecError(text, len(kind) + 1, f"bad coefficient key {key!r}")
                    idx[int(key[1:])] = val
                coeffs = [idx.get(q, 0.0) for q in range(max(idx) + 1)]
                shape = cosine_series(coeffs)
        except ValidationError as exc:
            if isinstance(exc, ShapeSpecError):
                raise
            raise ShapeSpecError(text, len(kind) + 1, str(exc)) from None

    if at:
        pos = len(base_txt) + 1
        if not gl2_txt.startswith("gl2="):
            raise ShapeSpecError(text, pos, "suffix must be @gl2=a,b,c,d")
        nums = gl2_txt[4:].split(",")
        if len(nums) != 4:
            raise ShapeSpecError(text, pos + 4, "gl2 needs exactly four entries")
        try:
            a, b, c, d = (float(v) for v in nums)
        except ValueError:
            raise ShapeSpecError(text, pos + 4, f"bad gl2 entries {gl2_txt[4:]!r}") from None
        g = Mat2(a, b, c, d)
        if g.det == 0.0:
            raise ShapeSpecError(text, pos + 4, "gl2 matrix is singular")
        shape = act(g, shape)
    return shape
