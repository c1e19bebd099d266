"""Identity checker tests: seeded sample sweeps, degenerations, the
exploratory coefficient report, the contour-integral count, and residues."""

import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from conftest import random_complex_samples
from hlawka import funceq, lattice
from hlawka.cli import main
from hlawka.errors import NumericError, ValidationError
from hlawka.funceq import (
    RegularFEForm,
    check_circle_fe,
    check_coefficient_identity,
    check_ellipse_fe,
    check_fq_fe,
    check_odd_vs_square,
    check_square_closed_form,
    perron_count_approx,
    probe_regular_fe,
    residue_at_one,
)
from hlawka.lattice import build_spectrum, count_points
from hlawka.shapes import area, circle, cosine_series, ellipse, odd_shape, parse_shape, square


# ---------------------------------------------------------------------------
# functional equations
# ---------------------------------------------------------------------------


def test_circle_fe_self_dual_point():
    rep = check_circle_fe(1.0, [0.5])
    assert rep.passed
    assert rep.residuals_rel[0] < 1e-14


def test_circle_fe_random_samples():
    for c in (1.0, 1.7):
        rep = check_circle_fe(c, random_complex_samples(101, 20) + [2.0, 0.3 + 1.7j])
        assert rep.passed
        assert max(rep.residuals_rel) <= 1e-10


def test_circle_fe_rejects_pole_adjacent_samples():
    with pytest.raises(ValidationError):
        check_circle_fe(1.0, [1.0 + 1e-4j])


def test_square_closed_form_samples():
    rep = check_square_closed_form([2.0, 3.0, 1.5 + 2.0j], radius=1200.0)
    assert rep.passed
    # absolute agreement is bounded by the documented truncation estimates
    for diff, est in zip(rep.residuals_abs, rep.metadata["truncation_estimates"]):
        assert diff <= est + 1e-8


def test_fq_fe_q0_and_twisted():
    rep0 = check_fq_fe(0, random_complex_samples(102, 6))
    assert rep0.passed and max(rep0.residuals_rel) <= 1e-9
    rep4 = check_fq_fe(4, random_complex_samples(103, 6))
    assert rep4.passed and max(rep4.residuals_rel) <= 1e-8
    rep8 = check_fq_fe(8, random_complex_samples(104, 6))
    assert rep8.passed and max(rep8.residuals_rel) <= 1e-8


def test_fq_fe_rejects_vanishing_components():
    for q in (1, 2, 3, 6, 10):
        with pytest.raises(ValidationError):
            check_fq_fe(q, [2.0 + 1.0j])


def test_ellipse_fe_samples_and_rotation_independence():
    for (a, b) in ((2.0, 1.0), (1.3, 1.0)):
        rep = check_ellipse_fe(a, b, 0.0, random_complex_samples(105, 10))
        assert rep.passed and max(rep.residuals_rel) <= 1e-9
    # rotating the ellipse leaves both completed sides unchanged
    s_pts = [0.7 + 1.0j, 1.6 + 0.4j]
    r0 = check_ellipse_fe(2.0, 1.0, 0.0, s_pts)
    r3 = check_ellipse_fe(2.0, 1.0, 0.3, s_pts)
    assert r3.passed
    assert max(abs(x - y) for x, y in zip(r0.residuals_abs, r3.residuals_abs)) < 1e-9


def test_ellipse_fe_circle_degeneration():
    # a = b reduces to the circle equation, including for c != 1
    rep = check_ellipse_fe(1.7, 1.7, 0.0, [0.4 + 0.9j, 2.0])
    assert rep.passed
    # and the as-printed constant (ab)^(-1/2) visibly fails there
    assert max(rep.metadata["as_printed_rel_residuals"]) > 0.1


def test_ellipse_fe_rejects_degenerate():
    with pytest.raises(ValidationError):
        check_ellipse_fe(2e4, 1.0, 0.0, [2.0 + 1.0j])


# ---------------------------------------------------------------------------
# exploratory coefficient identity
# ---------------------------------------------------------------------------


def test_coefficient_identity_report_structure():
    rep = check_coefficient_identity(math.sqrt(1.2), 1.0, 1, [2.0 + 0.3j, 0.5 + 0.1j])
    assert rep.passed  # report produced, all entries finite
    res = rep.metadata["residuals"]
    assert set(res) == {"k-form", "j-form"}
    for rd in res.values():
        assert set(rd) == {"2s-3/2", "2s-5/2"}
        for vals in rd.values():
            assert len(vals) == 2
            assert all(math.isfinite(v) for v in vals)
    # j-form terms grow: the divergence is recorded, not hidden
    assert rep.metadata["series_diagnostics"]["j-form"]["divergent"] is True
    assert rep.tolerance == math.inf
    # the report is explicitly non-gating
    assert "exploratory" in rep.metadata["gate"]


def test_coefficient_identity_degeneration_to_circle():
    # a = b gives d = 0: every q > 0 series term vanishes on both sides, and
    # the q = 0 analogue of the identity is the circle equation itself
    rep = check_coefficient_identity(1.0, 1.0, 1, [2.0 + 0.3j])
    for rd in rep.metadata["residuals"].values():
        for vals in rd.values():
            assert all(v == 0.0 for v in vals)
    circle_rep = check_circle_fe(1.0, [2.0 + 0.3j])
    assert circle_rep.passed and max(circle_rep.residuals_rel) <= 1e-9


def test_coefficient_identity_rejects_outside_domain():
    with pytest.raises(ValidationError):
        check_coefficient_identity(2.0, 1.0, 1, [2.0 + 0.3j])  # |2d/c| = 1.5


def test_check_report_json_round_trip():
    rep = check_circle_fe(1.0, [0.5])
    payload = rep.to_json_dict()
    text = json.dumps(payload, sort_keys=True)
    back = json.loads(text)
    assert back["identity"] == "circle-fe"
    assert back["passed"] is True


# ---------------------------------------------------------------------------
# square vs odd region
# ---------------------------------------------------------------------------


def test_odd_vs_square_full_check():
    rep = check_odd_vs_square(50.0, [2.0, 3.0, 2.0 + 1.0j])
    assert rep.passed
    assert rep.metadata["entries"] == 50
    assert rep.metadata["spectra_identical"] is True
    assert abs(rep.metadata["square_area"] - 4.0) < 1e-3
    assert abs(rep.metadata["odd_area"] - 4.0) < 1e-3
    assert rep.metadata["square_vertices"] == 4
    assert rep.metadata["odd_vertices"] == 7


def test_odd_vs_square_rejects_small_tmax():
    with pytest.raises(ValidationError):
        check_odd_vs_square(10.0, [2.0])


# ---------------------------------------------------------------------------
# contour-integral point counting
# ---------------------------------------------------------------------------


def test_perron_square_and_circle():
    approx, rep = perron_count_approx(square(), 2.5, 1.25, 300.0)
    assert rep.direct_half_weight == 24.0
    assert abs(approx - 24.0) <= 1.0
    approx, rep = perron_count_approx(circle(1.0), 1.5, 1.25, 300.0)
    assert rep.direct_half_weight == 8.0
    assert abs(approx - 8.0) <= 1.0


def test_perron_envelope_decreases():
    _, rep = perron_count_approx(circle(1.0), 1.5, 1.25, 400.0)
    lobes = list(zip(rep.lobe_ends, rep.lobe_residuals))
    early = max(abs(r) for t, r in lobes if 40.0 <= t <= 50.0)
    late = max(abs(r) for t, r in lobes if 390.0 <= t <= 400.0)
    assert late < early


def test_perron_rejects_jump_points():
    with pytest.raises(ValidationError):
        perron_count_approx(square(), 2.0, 1.25, 100.0)
    with pytest.raises(ValidationError):
        perron_count_approx(square(), 2.5, 1.0, 100.0)


def test_perron_csv():
    _, rep = perron_count_approx(circle(1.0), 1.5, 1.25, 60.0)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "T,residual"
    assert len(lines) == len(rep.lobe_ends) + 1


def test_perron_warns_when_T_too_small():
    with pytest.warns(UserWarning):
        perron_count_approx(square(), 2.5, 1.25, 2.0)


def _reference_perron(shape, x, sigma, T):
    """The lobe-by-lobe loop the level batches replaced: one integrand call
    per Simpson pass of each lobe, one cos and one sin per node and line, and
    A'(x) from a second lattice walk.  Returns (approx, lobe_ends,
    lobe_residuals, last_lobe_magnitude)."""
    spec = build_spectrum(shape, 2.0 * x)
    log_t = np.log(spec.t_values)
    log_x = math.log(x)
    w = spec.counts * np.exp(-2.0 * sigma * log_t)

    def integrand(tt):
        s_line = sigma + 1j * tt
        phase = -2.0 * np.multiply.outer(tt, log_t)
        z = np.cos(phase) @ w + 1j * (np.sin(phase) @ w)
        vals = z * np.exp(2.0 * s_line * log_x) / s_line
        return vals.real / math.pi

    direct = count_points(shape, x, half_weight_boundary=True)
    lobe = math.pi / (2.0 * max(log_x, 0.05))
    edges = np.append(np.arange(0.0, T, lobe), T)
    total = 0.0
    lobe_ends, lobe_residuals = [], []
    last_mag = 0.0
    for a0, b0 in zip(edges[:-1], edges[1:]):
        n = max(4, 2 * math.ceil((b0 - a0) / 0.1))
        ys = integrand(np.linspace(a0, b0, n + 1))
        prev = None
        while True:
            h = (b0 - a0) / n
            simpson = h / 3.0 * (ys[0] + ys[-1] + 4.0 * np.sum(ys[1:-1:2]) + 2.0 * np.sum(ys[2:-2:2]))
            if prev is not None and abs(simpson - prev) <= 1e-6:
                simpson = simpson + (simpson - prev) / 15.0
                break
            if n >= 1 << 16:
                break
            prev = simpson
            refined = np.empty(2 * n + 1)
            refined[0::2] = ys
            refined[1::2] = integrand(a0 + 0.5 * h * np.arange(1, 2 * n, 2))
            ys = refined
            n *= 2
        total += simpson
        last_mag = abs(simpson)
        lobe_ends.append(float(b0))
        lobe_residuals.append(total - direct)
    return total, lobe_ends, lobe_residuals, last_mag


def _lobe(x):
    return math.pi / (2.0 * max(math.log(x), 0.05))


@pytest.mark.parametrize(
    "spec, x, T",
    [
        ("square", 2.5, 120.0),
        ("odd", 4.3, 90.0),
        ("circle", 1.5, 150.0),
        ("ellipse:a=2,b=1,phi=0.3", 2.7, 60.0),
        ("cos:c0=1,c4=0.1", 2.9, 80.0),
        ("square", 2.5, 1.0),  # T shorter than one lobe: one short lobe, which warns
        ("square", 2.5, 2.0),  # the last lobe is short and warns
        ("odd", 4.3, 40 * _lobe(4.3)),  # T a multiple of the lobe width
        ("square", 1.03, 100.0),  # log x < 0.05: the lobe width's floor
    ],
)
def test_perron_matches_the_lobe_by_lobe_loop(spec, x, T):
    shape = parse_shape(spec)
    want, ends, residuals, last_mag = _reference_perron(shape, x, 1.25, T)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        approx, rep = perron_count_approx(shape, x, 1.25, T)
    assert [str(w.message) for w in caught] == (
        [f"last-lobe magnitude {last_mag:.3g} > 0.5: T={T} looks too small "
         "for the oscillation to have settled"] if last_mag > 0.5 else []
    )
    assert list(rep.lobe_ends) == ends
    assert abs(approx - want) <= 1e-9
    assert rep.approx == approx
    assert len(rep.lobe_residuals) == len(residuals)
    assert max(abs(a - b) for a, b in zip(rep.lobe_residuals, residuals)) <= 1e-9
    assert abs(rep.last_lobe_magnitude - last_mag) <= 1e-9
    assert rep.direct_half_weight == count_points(shape, x, half_weight_boundary=True)


def _quadrature_integrals(shape, x, sigma, ends):
    """(1/pi) integral_0^T Re[sum_k a_k y_k^(sigma+it) / (sigma+it)] dt at
    each T of ``ends``, y_k = (x / t_k)^2 over the spectrum up to 2x, by
    mpmath's Gauss-Legendre quadrature lobe by lobe at 30 digits."""
    spec = build_spectrum(shape, 2.0 * x)
    with mp.workdps(30):
        lam = [2 * (mp.log(x) - mp.log(t)) for t in spec.t_values.tolist()]
        w = [a * mp.exp(sigma * lk) for a, lk in zip(spec.counts.tolist(), lam)]

        def f(t):
            return mp.re(mp.fsum(wk * mp.expj(lk * t) for wk, lk in zip(w, lam)) / mp.mpc(sigma, t))

        out, acc, prev = [], mp.mpf(0), mp.mpf(0)
        for end in ends:
            acc += mp.quad(f, [prev, end], method="gauss-legendre")
            prev = end
            out.append(float(acc / mp.pi))
    return out


@pytest.mark.parametrize(
    "spec, x, sigma, T",
    [
        ("square", 2.5, 1.25, 12.0),
        ("odd", 4.3, 1.25, 10.0),
        ("ellipse:a=2,b=1,phi=0.3", 2.7, 1.25, 8.0),
        ("cos:c0=1,c4=0.1", 2.9, 1.25, 10.0),
        ("square", 2.5, 1.25, 1.0),  # T shorter than one lobe
        ("square", 2.5, 1.25, 2.0),
        ("square", 2.5, 8.0, 0.1),  # arguments 0.0125 rad from the cut
        ("square", 1.03, 1.25, 40.0),  # log x < 0.05
    ],
)
def test_perron_closed_form_matches_quadrature(spec, x, sigma, T):
    shape = parse_shape(spec)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "last-lobe magnitude")  # the short T
        approx, rep = perron_count_approx(shape, x, sigma, T)
    want = _quadrature_integrals(shape, x, sigma, rep.lobe_ends)
    assert abs(approx - want[-1]) <= 1e-12 * abs(want[-1])
    for res, integral in zip(rep.lobe_residuals, want):
        assert abs(res + rep.direct_half_weight - integral) <= 1e-12 * max(1.0, abs(integral))
    assert len(rep.lobe_residuals) == len(want)


def test_perron_residual_blocks_change_the_cost_not_the_result(monkeypatch):
    # 8 lines and 95 lobe ends: one block of 760 E_1 values under a large
    # cap, blocks of 8 ends under a cap of 64
    shape, x, T = square(), 4.343, 101.0
    sizes = []
    e1 = funceq._exp_integral_e1

    def recording(z):
        sizes.append(z.size)
        return e1(z)

    monkeypatch.setattr(funceq, "_exp_integral_e1", recording)
    runs = []
    for cap in (1 << 40, 64):
        monkeypatch.setattr(lattice, "_CHUNK_POINTS", cap)
        _, rep = perron_count_approx(shape, x, 1.25, T)
        sizes.clear()
        runs.append(rep.lobe_residuals)
        assert len(runs[-1]) == 95 and max(sizes) <= cap
    assert sizes == [64] * 11 + [56]
    assert runs[0] == runs[1]


def test_perron_cli_output_is_byte_identical_across_threads_and_runs(capsys):
    outs = []
    for threads in ("1", "2", "3", "2"):
        code = main(["perron", "--shape", "odd", "--x", "4.7", "--T", "60", "--threads", threads])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert len(set(outs)) == 1
    assert json.loads(outs[0])["direct_half_weight"] == 80.0


# ---------------------------------------------------------------------------
# residue and the regular-FE probe
# ---------------------------------------------------------------------------


def test_residues_match_areas():
    cases = [
        (circle(1.0), math.pi),
        (ellipse(2.0, 1.0), 2.0 * math.pi),
        (square(), 4.0),
        (odd_shape(), 4.0),
        # a GL(2,Z) image is a polygon, of the square's Z
        (parse_shape("odd@gl2=2,1,1,1"), 4.0),
        # an image is an ellipse, continued through its form: area 2 pi |det g|
        (parse_shape("ellipse:a=2,b=1@gl2=1.1,0.3,-0.2,0.9"), 2.0 * math.pi * abs(1.1 * 0.9 + 0.3 * 0.2)),
        (parse_shape("ellipse:a=2,b=1@gl2=0,1,1,0"), 2.0 * math.pi),  # stored as (1, 2, 0)
    ]
    for shape, target in cases:
        res = residue_at_one(shape)
        assert abs(res - target) <= 1e-2 * target
        assert abs(res - area(shape)) <= 1e-2 * area(shape)


def test_residue_rejects_unsupported_kind():
    with pytest.raises(ValidationError):
        residue_at_one(cosine_series([1.0, 0, 0, 0, 0.1]))
    with pytest.raises(ValidationError):  # a polygon's image under a non-integer g
        residue_at_one(parse_shape("odd@gl2=1.5,0.5,0,1"))


def test_probe_regular_fe_reports_failures():
    form = RegularFEForm(A=1.0, B=1.0, alpha_mu=((1.0, 0.5),), beta_omega=((1.0, 0.5),))
    rep = probe_regular_fe(form, [0.3 + 0.4j, 2.0 + 1.0j])
    assert not rep.passed  # no such form closes the square's equation
    assert all(r > 1e-8 for r in rep.residuals_rel)


def test_probe_handles_gamma_poles_gracefully():
    form = RegularFEForm(A=1.0, B=1.0, alpha_mu=((1.0, 0.0),), beta_omega=((1.0, 0.0),))
    rep = probe_regular_fe(form, [2.0])  # Gamma(1-s) pole at s = 2
    assert rep.residuals_rel[0] == math.inf
    assert not rep.passed


def test_regular_fe_form_validates_slopes():
    with pytest.raises(ValidationError):
        RegularFEForm(A=1.0, B=1.0, alpha_mu=((-1.0, 0.0),), beta_omega=())


def test_lobe_ends_take_no_memory_per_lobe():
    # 1M lobes (x = 1.03 sets the lobe to pi / 0.1): the ends are k lobe and
    # then T, held as three numbers, not as a tuple of a million floats
    import tracemalloc

    lobe, T = math.pi / 0.1, 1e6 * math.pi / 0.1 - 1.0
    tracemalloc.start()
    _, rep = perron_count_approx(square(), 1.03, 1.25, T)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2 << 20
    ends = rep.lobe_ends
    assert len(ends) == 1_000_000 == math.ceil(T / lobe)
    assert ends[0] == lobe and ends[1] == 2 * lobe and ends[-2] == 999_999 * lobe and ends[-1] == T
    assert ends[3:6] == (4 * lobe, 5 * lobe, 6 * lobe) and list(ends[-2:]) == [999_999 * lobe, T]
    with pytest.raises(IndexError):
        ends[1_000_000]
    # the same floats as the arange the report once held
    assert np.array_equal(np.asarray(ends), np.append(np.arange(0.0, T, lobe), T)[1:])


def test_overflowing_perron_integrand_names_the_line():
    with pytest.raises(NumericError, match=r"overflows at x=8\.5, sigma=200: the line t_k=1 "):
        perron_count_approx(square(), 8.5, 200.0, 10.0)
