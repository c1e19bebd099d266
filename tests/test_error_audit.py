"""The standing error audit: every printed ``error_estimate`` against an
independent oracle, true error / claimed error <= 1 on each row.

A row is (estimator, input, oracle).  Each assertion message carries the
ratio, so a failing row shows by how much its claim falls short.

- ``zeta --method direct`` on cosine series by the Fourier route, against the
  same disc sum in extended precision (numpy long double, 64-bit mantissa
  on x86); the claim compared is the bar less the disc tail to infinity,
  which both sums leave out.
- ``fourier`` tables of shapes with a strip, against mpmath at 40 digits.
- ``reconstruct --mode continued`` on the benchmark's cosine series, against
  the reference values of ``perfbench/refs.json`` (mpmath oracles, read
  only; stored as doubles, so they carry half an ulp of their own).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import mp_fourier_coefficients
from hlawka import zeta
from hlawka.fourier import fourier_coeffs
from hlawka.shapes import cosine_series, parse_shape

_REFS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "refs.json").read_text())


def _long_disc_sum(coeffs, s, radius):
    """sum over 0 < |p| <= radius of t(p)^(-2s) = exp(s (2 log r(theta) -
    log |p|^2)) in long double, slab by slab of rows."""
    ld = np.longdouble
    b = int(math.ceil(radius))
    m = np.arange(-b, b + 1).astype(ld)
    re, im = ld(0.0), ld(0.0)
    for lo in range(-b, b + 1, 64):
        n = np.arange(lo, min(lo + 64, b + 1)).astype(ld)[:, None]
        norm = m[None, :] ** 2 + n * n
        keep = (norm > 0) & (norm <= ld(radius) * ld(radius))
        mm, nn, norm = np.broadcast_to(m, norm.shape)[keep], np.broadcast_to(n, norm.shape)[keep], norm[keep]
        theta = np.arctan2(nn, mm)
        r = sum(ld(c) * np.cos(k * theta) for k, c in enumerate(coeffs) if c)
        log_t = 2.0 * np.log(r) - np.log(norm)
        mod = np.exp(ld(s.real) * log_t)
        re += np.sum(mod * np.cos(ld(s.imag) * log_t))
        im += np.sum(mod * np.sin(ld(s.imag) * log_t))
    return complex(float(re), float(im))


_ROUTE_ROWS = [
    ([1.0, 0.0, 0.15], 1.874252 + 3.122349j, 503.087),
    ([1.0, 0.0, 0.15], 1.268126 + 1.189243j, 600.0),
    ([1.0, 0.0, 0.15], 2.639437 - 6.907973j, 420.0),
    ([1.0, 0.0, 0.0, 0.0, 0.1], 1.507914 + 2.792914j, 450.0),
    ([1.0, 0.0, 0.0, 0.0, 0.1], 2.263663 + 0.632768j, 420.0),
    ([1.0, 0.0, 0.0, 0.0, 0.1], 1.05 + 7.5j, 500.0),
    ([1.0, 0.0, 0.05, 0.0, 0.0, 0.0, 0.04], 2.0 - 5.0j, 420.0),
    ([1.0, 0.0, 0.05, 0.0, 0.0, 0.0, 0.04], 1.2 + 0.3j, 500.0),
]


@pytest.mark.parametrize("coeffs,s,radius", _ROUTE_ROWS)
def test_fourier_route_bars_bound_the_truncated_sum(coeffs, s, radius, row_tails_at_every_radius):
    shape = cosine_series(coeffs)
    res = zeta.hlawka_direct(shape, s, radius)
    assert res.truncation["route"] == "fourier"
    claimed = res.error_estimate - zeta._disc_tail(2.0 * math.pi * shape.r_max ** (2.0 * s.real), s.real, radius)
    ratio = abs(res.value - _long_disc_sum(coeffs, s, radius)) / claimed
    assert ratio <= 1.0, f"true / claimed = {ratio:.3g}"


_TABLE_SPECS = ["cos:c0=1,c2=0.15", "cos:c0=1,c4=0.1", "cos:c0=1,c2=0.05,c6=0.04", "ellipse:a=2,b=1,phi=0.3",
                "ellipse:a=1.2,b=1@gl2=1,1,0,1", "circle:c=1.3"]


@pytest.mark.parametrize("spec", _TABLE_SPECS)
@pytest.mark.parametrize("s", [2.0 + 1.0j, -0.5 + 3.0j, 1.6 + 12.0j])
def test_fourier_table_errors_bound_the_coefficients(spec, s):
    shape = parse_shape(spec)
    table = fourier_coeffs(shape, s, 40)
    exact = mp_fourier_coefficients(shape, s, range(41))
    ratio = max(abs(table.coefficients[q] - exact[q]) / table.errors[q] for q in exact)
    assert ratio <= 1.0, f"true / claimed = {ratio:.3g}"


_RECON_ROWS = [(name, key) for name in _REFS["cos_shapes"] for key in _REFS["cos_zeta"][name]]


@pytest.mark.parametrize("name,key", _RECON_ROWS)
def test_reconstruct_continued_bars_bound_the_cosine_zeta(name, key):
    shape = cosine_series(_REFS["cos_shapes"][name])
    s = complex(*map(float, key.split(",")))
    ref = complex(*_REFS["cos_zeta"][name][key])
    res = zeta.reconstruct_hlawka(shape, s, 40, mode="continued")
    ratio = max(abs(res.value - ref) - 2.0**-53 * abs(ref), 0.0) / res.error_estimate
    assert ratio <= 1.0, f"true / claimed = {ratio:.3g}"
