"""Radial models of star-shaped planar regions and the GL(2,R) action on them.

A region is encoded by its radial function r: R/2piZ -> (0, inf); the
boundary is theta |-> (r(theta) cos theta, r(theta) sin theta).  Supported
kinds: constant (circle), ellipse, square (side 2, centered), a seven-segment
"odd" region with the same dilation spectrum as the square, finite cosine
series, and images of any of these under a nonsingular 2x2 matrix.

A linear map sends rays from the origin to rays, so the image of a shape has
the closed form (g.r)(psi) = r(phi) / |g^-1 u_psi| with phi = arg(g^-1 u_psi)
and u_psi = (cos psi, sin psi), for either sign of det g.

Matrix conventions.  kappa(phi) denotes [[cos phi, sin phi], [-sin phi,
cos phi]]; as a map of column vectors it rotates the plane by -phi, hence the
induced circle map is theta_kappa(theta) = theta - phi and the induced action
on radial functions is (kappa(phi) . r)(theta) = r(theta + phi).  This is the
convention every numeric test in this package pins down via the defining
equation g X(r(phi), phi) = X((g.r)(theta_g(phi)), theta_g(phi)).

All evaluators accept scalars or numpy arrays and are pure; shapes are
immutable after construction and safe to share across threads.

``RadialShape.symmetry`` is the subgroup of D4, the symmetries of Z^2, that
maps the region onto itself, read from the kind and its parameters (never
sampled); the direct sums walk one lattice point per orbit of it.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
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
_GRID_N = 4096  # construction-time positivity / bounds grid
_AREA_N = 1 << 14  # trapezoid points of ``area``
_ATAN_HALF = math.atan2(1.0, 2.0)

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

    def transpose(self) -> "Mat2":
        return Mat2(self.a, self.c, self.b, self.d)

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

    def recompose(self) -> Mat2:
        sy = math.sqrt(self.y)
        upper = Mat2(sy, self.x / sy, 0.0, 1.0 / sy)
        m = upper @ Mat2.rotation(self.theta)
        return Mat2(self.u * m.a, self.u * m.b, self.u * m.c, self.u * m.d)


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
    """Immutable radial model r(theta) of a star-shaped region.

    ``params`` is kind-specific:
      constant       (c,)
      ellipse        (a, b, phi)
      square         ()
      odd            ()
      cosine-series  (c0, c1, ..., cQ)
      transformed    (matrix, base_shape)
    """

    kind: str
    params: tuple = ()
    r_min: float = field(default=0.0, compare=False)
    r_max: float = field(default=0.0, compare=False)
    symmetry_order: int = field(default=1, compare=False)

    def evaluate(self, theta: ArrayLike, out: np.ndarray | None = None) -> ArrayLike:
        """r(theta) for scalar or array theta (any real, reduced mod 2pi); an
        array result goes into ``out`` when it is given."""
        th = np.asarray(theta, dtype=float)
        if th.ndim == 0:
            return float(self._eval(th[None])[0])
        if self.kind == "cosine-series":
            return _cosine_series(self.params, th, out)
        r = self._eval(th)
        if out is None:
            return r
        out[...] = r
        return out

    __call__ = evaluate

    @property
    def symmetry(self) -> Symmetry:
        """The subgroup of D4 that maps the region onto itself (one that the
        kind and parameters show; a transformed shape keeps only p -> -p)."""
        kind = self.kind
        if kind in ("constant", "square"):
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

    def _eval(self, th: np.ndarray) -> np.ndarray:
        kind = self.kind
        if kind == "constant":
            return np.full_like(th, self.params[0])
        if kind == "ellipse":
            a, b, phi = self.params
            u = th - phi
            return a * b / np.sqrt((b * np.cos(u)) ** 2 + (a * np.sin(u)) ** 2)
        if kind == "square":
            return 1.0 / np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th)))
        if kind == "odd":
            return _odd_radial(th)
        if kind == "cosine-series":
            return _cosine_series(self.params, th)
        if kind == "transformed":
            return _transformed_eval(self, th)
        raise ValidationError(f"unknown shape kind {kind!r}")


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


def _odd_radial(th: np.ndarray) -> np.ndarray:
    """Seven boundary segments; each is 1/(linear form in cos, sin)."""
    t = th % _TWO_PI
    c, s = np.cos(t), np.sin(t)
    conds = [
        t < _ATAN_HALF,              # segment from (1,0) to (2,1): x - y = 1
        t < 0.25 * math.pi,          # top shelf y = 1 from (2,1) to (1,1)
        t < 0.50 * math.pi,          # ramp -x + 2y = 1 from (1,1) to (0,1/2)
        t < 0.75 * math.pi,          # ramp x + 2y = 1 from (0,1/2) to (-1,1)
        t < 1.25 * math.pi,          # left side x = -1
        t < 1.75 * math.pi,          # bottom y = -1
    ]
    # unselected branches hit their singular angles; each linear form is
    # bounded away from zero on its own segment
    with np.errstate(divide="ignore"):
        vals = [
            1.0 / (c - s),
            1.0 / s,
            1.0 / (2.0 * s - c),
            1.0 / (c + 2.0 * s),
            -1.0 / c,
            -1.0 / s,
        ]
        return np.select(conds, vals, default=1.0 / c)  # right side x = 1


def _transformed_eval(shape: RadialShape, psi: np.ndarray) -> np.ndarray:
    g, base = shape.params
    x, y = g.inverse().apply(np.cos(psi), np.sin(psi))
    return base.evaluate(np.arctan2(y, x)) / np.hypot(x, y)


def _grid_bounds(evalf, n: int = _GRID_N) -> tuple[float, float]:
    th = np.arange(n) * (_TWO_PI / n)
    r = np.asarray(evalf(th))
    return float(np.min(r)), float(np.max(r))


def _detect_symmetry(evalf, cap: int = 16, tol: float = 1e-10) -> int:
    th = np.arange(512) * (_TWO_PI / 512)
    r0 = np.asarray(evalf(th))
    scale = max(1.0, float(np.max(np.abs(r0))))
    for k in range(cap, 1, -1):
        rk = np.asarray(evalf(th + _TWO_PI / k))
        if float(np.max(np.abs(rk - r0))) <= tol * scale:
            return k
    return 1


def _finish(kind, params, symmetry_order=None) -> RadialShape:
    probe = RadialShape(kind=kind, params=params)
    r_min, r_max = _grid_bounds(probe.evaluate)
    if r_min <= 0.0:
        raise ValidationError(f"radial function must stay positive (grid min {r_min:.3g})")
    if symmetry_order is None:
        symmetry_order = _detect_symmetry(probe.evaluate)
    return RadialShape(
        kind=kind,
        params=params,
        r_min=r_min,
        r_max=r_max,
        symmetry_order=symmetry_order,
    )


def circle(c: float = 1.0) -> RadialShape:
    """Constant radial function r(theta) = c."""
    if not (c > 0.0 and math.isfinite(c)):
        raise ValidationError("circle radius must be positive and finite")
    return RadialShape(
        kind="constant", params=(float(c),), r_min=c, r_max=c, symmetry_order=0,
    )


def ellipse(a: float, b: float, phi: float = 0.0) -> RadialShape:
    """Axes a >= b > 0, rotated phi counterclockwise."""
    if not (a >= b > 0.0) or not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError("ellipse requires a >= b > 0")
    if a == b:
        return circle(a)
    return RadialShape(
        kind="ellipse", params=(float(a), float(b), float(phi)),
        r_min=b, r_max=a, symmetry_order=2,
    )


def square() -> RadialShape:
    """Square of side 2 centered at the origin (dilation times are integers)."""
    return RadialShape(
        kind="square", params=(), r_min=1.0, r_max=math.sqrt(2.0), symmetry_order=4,
    )


def odd_shape() -> RadialShape:
    """Seven-segment region with the same dilation spectrum as the square.

    Vertices (1,0), (2,1), (1,1), (0,1/2), (-1,1), (-1,-1), (1,-1); area 4.
    """
    return RadialShape(
        kind="odd", params=(), r_min=1.0 / math.sqrt(5.0), r_max=math.sqrt(5.0),
        symmetry_order=1,
    )


def cosine_series(coeffs) -> RadialShape:
    """r(theta) = sum_q coeffs[q] cos(q theta); rejected if not positive."""
    coeffs = tuple(float(c) for c in coeffs)
    if not coeffs:
        raise ValidationError("cosine series needs at least the constant term")
    nonzero = [q for q in range(1, len(coeffs)) if coeffs[q] != 0.0]
    sym = 0 if not nonzero else math.gcd(*nonzero)
    return _finish("cosine-series", coeffs, symmetry_order=sym)


def act(g: Mat2, shape: RadialShape) -> RadialShape:
    """The radial function of g applied to the region of ``shape``.

    Defined by g X(r(phi), phi) = X((g.r)(theta_g(phi)), theta_g(phi)) and
    evaluated in closed form: the ray at angle psi is the image of the ray
    through g^-1 u_psi, so (g.r)(psi) = r(arg g^-1 u_psi) / |g^-1 u_psi|.
    """
    if g.det == 0.0:
        raise ValidationError("act requires a nonsingular matrix")
    return _finish("transformed", (g, shape))


def area(shape: RadialShape) -> float:
    """Region area, (1/2) integral of r^2 by the 2^14-point trapezoid rule."""
    th = np.arange(_AREA_N) * (_TWO_PI / _AREA_N)
    r = np.asarray(shape.evaluate(th))
    return math.pi * float(np.mean(r * r))


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
