import math

import mpmath
import numpy as np
import pytest

from hlawka import zeta
from hlawka.shapes import _exact_form, circle, cosine_series, ellipse, odd_shape, square
from hlawka.zeta import QuadForm2


@pytest.fixture
def unit_circle():
    return circle(1.0)


@pytest.fixture
def square_shape():
    return square()


@pytest.fixture
def odd_region():
    return odd_shape()


@pytest.fixture
def thin_ellipse():
    return ellipse(1.1, 1.0)


@pytest.fixture
def bump_shape():
    # r = 1 + 0.1 cos(4 theta): smooth, 4-fold symmetric
    return cosine_series([1.0, 0.0, 0.0, 0.0, 0.1])


@pytest.fixture
def walk_only(monkeypatch):
    """Circles, ellipses, twisted sums (rotated or not), truncated
    reconstructions and cosine series walk their discs instead of taking
    row tails (the cosine series' Fourier route sums its components by
    them).  The row tails are the continued value less its tails (Z_Q from
    ``epstein_continued``, a twisted component from the harmonic theta
    split), so a direct sum that checks a continuation must walk, or an
    error of the continuation cancels on both sides."""
    monkeypatch.setattr(zeta, "_quadratic_rows", lambda shape, radius: None)


@pytest.fixture
def row_tails_at_every_radius(monkeypatch):
    """The row tails, and the cosine series' Fourier route, are taken
    wherever they are accurate enough, however few points the walk would
    visit: their accuracy holds at every radius, their speed only above
    ``zeta._WALK_POINTS`` (for every ``zeta._ROUTE_TWISTS`` twists of the
    route)."""
    monkeypatch.setattr(zeta, "_WALK_POINTS", 0.0)


def random_complex_samples(seed, n, re_range=(-2.0, 3.0), im_min=0.25, im_max=8.0):
    """Seeded samples with |Im s| bounded below, clearing real-axis poles."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        re = rng.uniform(*re_range)
        im = rng.uniform(im_min, im_max) * (1.0 if rng.uniform() < 0.5 else -1.0)
        out.append(complex(re, im))
    return out


def disc_tail_correction(u: QuadForm2, s: complex, radius: float) -> complex:
    """Integral-comparison estimate of the omitted tail of the direct sum of
    (x^T u x)^(-s) over the disc, ``hlawka_direct(u.region(), ...)``.

    Adding this to the direct sum cancels the leading truncation error; the
    remainder is governed by the lattice-count fluctuation and is several
    orders smaller.  Used by calibration tests, not by the continuations.
    """
    s = complex(s)
    th = np.arange(2048) * (2.0 * math.pi / 2048)
    ang = complex(np.mean(np.exp(-s * np.log(u.evaluate(np.cos(th), np.sin(th)))))) * 2.0 * math.pi
    return ang * radius ** (2.0 - 2.0 * s) / (2.0 * s - 2.0)


def mp_fourier_coefficients(shape, s, q_values, n=512, dps=40):
    """chat(q) of r^(2s) for each q of ``q_values`` in mpmath at ``dps``
    digits, by the n-point trapezoid rule from the exact radial function (a
    cosine series' terms, an ellipse's exact form t^2 = Q(cos, sin)):
    spectrally accurate where r^(2s) is analytic on a strip."""
    with mpmath.workdps(dps):
        s = mpmath.mpc(s)
        theta = [2 * mpmath.pi * j / n for j in range(n)]
        if shape.kind == "cosine-series":
            f = [mpmath.exp(2 * s * mpmath.log(sum(c * mpmath.cos(k * th) for k, c in enumerate(shape.params) if c)))
                 for th in theta]
        else:
            u11, u12, u22 = (mpmath.mpf(x.numerator) / x.denominator for x in _exact_form(shape))
            f = [mpmath.exp(-s * mpmath.log(u11 * mpmath.cos(th) ** 2 + 2 * u12 * mpmath.cos(th) * mpmath.sin(th)
                                            + u22 * mpmath.sin(th) ** 2)) for th in theta]
        step = [mpmath.expjpi(-2 * mpmath.mpf(j) / n) for j in range(n)]
        out, powers, at = {}, [mpmath.mpf(1)] * n, 0
        for q in sorted(q_values):
            for _ in range(q - at):
                powers = [p * w for p, w in zip(powers, step)]
            at = q
            out[q] = complex(mpmath.fsum(a * b for a, b in zip(f, powers)) / n)
        return out
