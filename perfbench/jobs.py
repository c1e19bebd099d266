"""Seeded job generators for the three workloads.

A job is one CLI invocation (``argv`` without ``--out``) plus the oracle that
judges its output.  The program sees only the argv.  Each workload hands out
*decks*: short, stratified job lists that a run repeats with fresh draws, so
every run covers the same mix of kinds and sizes whatever the seed.  Sizes
that drive cost (radius, t_max, T) are drawn by stratified quantiles, so the
total work per deck varies little between seeds.

Inputs are printed with ``repr`` so the CLI parses exactly the floats the
oracle uses; quadratic forms are integer (or half-integer) matrices scaled by
powers of two, so they are exact too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import mpmath as mp
import numpy as np

import oracles

LATTICE_THREADS = "2"  # nproc on the reference machine; see README.md
RECON_QMAX = 40  # the CLI's default --qmax, which the reconstruct jobs use


@dataclass
class Job:
    id: str
    kind: str
    argv: list[str]
    oracle: Callable[[], object]  # evaluated after the timed loop
    lattice: bool = False  # enumerates the lattice: --threads matters
    unc_rel: float = 4e-16  # oracle uncertainty, relative
    fmt: str = "value"  # output schema: value, spectrum, count, perron, verify, residue
    # inputs that known-defect signatures and check groups read: cond (of
    # the form or of z), im_s, family (shape kind), radius
    tags: dict = field(default_factory=dict)
    # truncated kinds: the same disc-truncated sum by numpy, (value, sum of |terms|)
    disc_sum: Callable[[], tuple[complex, float]] | None = None


# ---------------------------------------------------------------------------
# Known defects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Defect:
    """A failure class of the code the benchmark was introduced on: the
    failure reason contains ``reason`` and the job's inputs carry the
    signature ``applies``.  Any other failure makes the run incorrect."""

    name: str
    kinds: frozenset
    reason: str
    applies: Callable[[Job], bool]


# Thresholds sit below the smallest condition (and Im s) at which each
# failure was seen on 14 seeds x 13 decks (README.md, "Known defects").
_SPLIT = frozenset({"epstein-continued", "epstein-lambda", "eisenstein-z"})
SKEW_COND = 1e3  # oracle misses from theta splitting on skewed forms
CANCEL_IM_S = 15.0  # Gamma(s) cancellation: ~1e-5 relative at Im s = 20
STALL_COND = 3e4  # incomplete-gamma continued-fraction stalls
KNOWN_DEFECTS = (
    Defect("theta splitting on skewed forms", _SPLIT, "oracle miss",
           lambda job: job.tags["cond"] >= SKEW_COND),
    Defect("Gamma(s) cancellation at large Im s", _SPLIT, "oracle miss",
           lambda job: job.tags["im_s"] >= CANCEL_IM_S),
    Defect("continued-fraction stall", _SPLIT, "continued fraction stalled",
           lambda job: job.tags["cond"] >= STALL_COND),
    Defect("@gl2 direct sum with an empty last chunk", frozenset({"zeta-direct"}),
           "zero-size array to reduction operation",
           lambda job: job.tags.get("family") == "gl2"),
)


def known_defect(job: Job, reason: str) -> str | None:
    """Name of the known defect that explains this failure, if any."""
    for d in KNOWN_DEFECTS:
        if job.kind in d.kinds and d.reason in reason and d.applies(job):
            return d.name
    return None


def _c(s: complex) -> str:
    return f"{s.real!r}{'+' if s.imag >= 0 else '-'}{abs(s.imag)!r}i"


def _arg(flag: str, value) -> str:
    # "--s=-0.5+3i": the = form keeps argparse from reading a leading minus
    # as an option
    return f"{flag}={value}"


def _loguniform(lo: float, hi: float, u: float) -> float:
    return float(lo * (hi / lo) ** u)


# ---------------------------------------------------------------------------
# Shapes and their Z oracles
# ---------------------------------------------------------------------------


def _ellipse_form(a, b, phi):
    """x^T u x = t^2 for the (a, b) ellipse rotated by phi, in mpmath."""
    a, b, phi = mp.mpf(a), mp.mpf(b), mp.mpf(phi)
    cp, sp = mp.cos(phi), mp.sin(phi)
    return (cp * cp / a**2 + sp * sp / b**2, cp * sp / a**2 - sp * cp / b**2,
            sp * sp / a**2 + cp * cp / b**2)


def _gl2_form(u, g):
    """Form of g . D from the form u of D: g^-T u g^-1."""
    a, b, c, d = (mp.mpf(x) for x in g)
    det = a * d - b * c
    gi = ((d / det, -b / det), (-c / det, a / det))
    u11, u12, u22 = u
    m = ((u11, u12), (u12, u22))
    p = [[sum(gi[k][i] * m[k][l] * gi[l][j] for k in range(2) for l in range(2))
          for j in range(2)] for i in range(2)]
    return p[0][0], p[0][1], p[1][1]


@dataclass(frozen=True)
class Shape:
    spec: str
    kind: str  # circle, ellipse, square, odd, cos, gl2
    form: tuple | None = None  # quadratic form (mpmath) for circles/ellipses/images
    scale: float | None = None  # circle radius c: Z = c^(2s) E_I(s)
    params: tuple = ()

    def t2(self, m, n):
        """Squared dilation time of the points (m, n), by numpy; on the unit
        circle it is r(theta)^-2."""
        if self.kind == "square":
            return np.maximum(np.abs(m), np.abs(n)) ** 2
        if self.kind == "odd":
            return oracles.odd_gauge(m, n) ** 2
        if self.kind == "cos":
            return (m * m + n * n) / oracles.cosine_radius(self.params, np.arctan2(n, m)) ** 2
        u11, u12, u22 = (float(x) for x in self.form)
        return u11 * m * m + 2 * u12 * m * n + u22 * n * n

    def zeta(self, s: complex, refs: oracles.Refs, digits: int = 14) -> complex:
        if self.kind in ("square", "odd"):
            return oracles.square_zeta(s)
        if self.kind == "cos":
            return refs.cos_zeta(self.spec, s)
        if self.kind == "circle":
            return self.scale ** (2 * s) * oracles.identity_epstein(s)
        with mp.workdps(40):
            return oracles.epstein(*self.form, s, digits=digits)


def circle(c: float) -> Shape:
    return Shape(f"circle:c={c!r}", "circle", scale=c,
                 form=(1 / mp.mpf(c) ** 2, mp.mpf(0), 1 / mp.mpf(c) ** 2))


def ellipse(a: float, b: float, phi: float = 0.0) -> Shape:
    spec = f"ellipse:a={a!r},b={b!r}" + (f",phi={phi!r}" if phi else "")
    with mp.workdps(40):
        return Shape(spec, "ellipse", form=_ellipse_form(a, b, phi), params=(a, b, phi))


def cos_shape(spec: str, refs: oracles.Refs) -> Shape:
    return Shape(spec, "cos", params=refs.cos_shapes[spec])


def gl2(base: Shape, g: tuple) -> Shape:
    with mp.workdps(40):
        form = _gl2_form(base.form, g)
    return Shape(base.spec + "@gl2=" + ",".join(repr(x) for x in g), "gl2", form=form)


def _general_matrix(rng) -> tuple:
    """A matrix that is neither diagonal nor a scaled rotation."""
    while True:
        g = tuple(round(float(x), 4) for x in rng.uniform(-1.2, 1.2, 4))
        a, b, c, d = g
        det = a * d - b * c
        if 0.5 <= abs(det) <= 2.0 and min(abs(b), abs(c)) > 0.1 and (
            abs(a - d) > 0.1 or abs(b + c) > 0.1
        ):
            return g


# ---------------------------------------------------------------------------
# GL(2, Z) orbits
# ---------------------------------------------------------------------------


def _gl2z(rng, size: float, det_one: bool = False) -> tuple[int, int, int, int]:
    """Random integer matrix with determinant +-1 and entries up to ~size."""
    while True:
        big = max(1, int(round(size)))
        a = int(rng.integers(-big, big + 1))
        c = int(rng.integers(-big, big + 1))
        if math.gcd(a, c) != 1:
            continue
        # extended Euclid: a*d - b*c = 1
        r0, r1, s0, s1, t0, t1 = a, c, 1, 0, 0, 1
        while r1:
            qq = r0 // r1
            r0, r1, s0, s1, t0, t1 = r1, r0 - qq * r1, s1, s0 - qq * s1, t1, t0 - qq * t1
        d, b = s0 * r0, -t0 * r0  # r0 = +-1
        k = int(rng.integers(-2, 3))
        b, d = b + k * a, d + k * c
        if not det_one and rng.uniform() < 0.5:
            a, b, c, d = b, a, d, c  # swap columns: determinant -1
        return a, b, c, d


def _nearest_cond(draw, u: float, cap: float, tries: int = 48):
    """Of ``tries`` calls of ``draw() -> (value, cond)``, the one with
    cond <= cap whose log10 cond lies nearest u log10(cap).  A stratified u
    then stratifies the condition number, which drives a continuation's
    cost, so every seed runs about the same work."""
    target = u * math.log10(cap)
    best, best_d = None, math.inf
    while best is None:
        for _ in range(tries):
            value, cond = draw()
            d = abs(math.log10(cond) - target)
            if cond <= cap and d < best_d:
                best, best_d = (value, cond), d
    return best


def _orbit_form(rng, hexagonal: bool, u: float, cond_cap: float = 1e7, exponent: int | None = None):
    """(lambda gamma^T u0 gamma, lambda, cond) with log10 cond near
    u log10(cond_cap) and lambda = 2^exponent, exponent in {-1, 0, 1}
    (drawn when not given); exact binary entries."""
    def draw():
        a, b, c, d = _gl2z(rng, 100.0 ** rng.uniform())
        if hexagonal:
            f = (a * a + a * c + c * c, a * b + (a * d + b * c) / 2 + c * d, b * b + b * d + d * d)
        else:
            f = (a * a + c * c, a * b + c * d, b * b + d * d)
        tr, det = f[0] + f[2], f[0] * f[2] - f[1] ** 2
        return f, (tr + math.sqrt(tr * tr - 4 * det)) ** 2 / (4 * det)

    form, cond = _nearest_cond(draw, u, cond_cap)
    lam = 2.0 ** (int(rng.integers(-1, 2)) if exponent is None else exponent)
    return tuple(float(lam * x) for x in form), lam, cond


def _base_epstein(hexagonal: bool, lam: float, s: complex) -> complex:
    base = oracles.hex_epstein(s) if hexagonal else oracles.identity_epstein(s)
    return lam ** (-s) * base


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check(job: Job, text: str) -> tuple[bool, bool | None, str]:
    """(passed, bound_violated or None, detail) for one job's output."""
    rel, bar, abs_tol = oracles.TOLERANCES[job.kind]
    fmt = job.fmt
    if fmt == "spectrum":
        return _check_spectrum(job, text, rel)
    data = json.loads(text)
    if fmt == "count":
        ok = data["count"] == job.oracle()
        return ok, None, f"count {data['count']} vs {job.oracle()}"
    if fmt == "perron":
        exact, bound = job.oracle()
        ok = (data["direct_half_weight"] == exact and math.isfinite(data["approx"])
              and abs(data["approx"] - exact) <= bound + abs_tol)
        return ok, None, (f"approx {data['approx']} direct {data['direct_half_weight']} "
                          f"exact {exact} truncation bound {bound:.3g}")
    if fmt == "verify":
        meta = data["metadata"]
        ok = (data["passed"] and meta["spectra_identical"]
              and meta["entries"] == job.oracle())
        return bool(ok), None, f"passed {data['passed']} entries {meta['entries']}"
    if fmt == "residue":
        area = job.oracle()
        ok = math.isfinite(data["residue"]) and abs(data["residue"] - area) <= rel * area
        return ok, None, f"residue {data['residue']} area {area}"
    v = complex(data["value"]["re"], data["value"]["im"])
    err = float(data["error_estimate"])
    if not (math.isfinite(v.real) and math.isfinite(v.imag) and math.isfinite(err)):
        return False, None, "non-finite output"
    truth = complex(job.oracle())
    unc = job.unc_rel * abs(truth)
    diff = abs(v - truth)
    ok = diff <= rel * abs(truth) + bar * err + abs_tol + unc
    return ok, diff > err + unc, f"err {diff:.3e} claimed {err:.3e} |oracle| {abs(truth):.3e}"


DISC_REL = 1e-10  # of the sum of |terms|: rounding in two summation orders


def check_disc(job: Job, text: str) -> tuple[bool, str]:
    """A truncated job's printed value against the same truncated sum by numpy."""
    data = json.loads(text)
    v = complex(data["value"]["re"], data["value"]["im"])
    ref, mass = job.disc_sum()
    ok = abs(v - ref) <= DISC_REL * mass
    return ok, f"value {v:.15g} disc sum {ref:.15g} (scale {mass:.3g})"


def _check_spectrum(job: Job, text: str, rel: float):
    got = oracles.spectrum_multiset(text)
    want = job.oracle()
    if len(got) != len(want):
        return False, None, f"{len(got)} points vs {len(want)}"
    dev = float(np.max(np.abs(got - want) / want)) if len(want) else 0.0
    return dev <= rel, None, f"{len(got)} points, max rel dev {dev:.2e}"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Pool of shapes drawn once per seed, then decks of jobs on demand."""

    # Untraced runs execute ceil(seconds / (passes * deck_seconds)) decks: a
    # fixed job list per seed, so two commits run the same jobs and the
    # percentiles compare like with like.  deck_seconds is about the deck's
    # wall time on the reference machine at the commit that introduced the
    # benchmark (less where a run needs more decks, to hold 100 jobs or to
    # steady a percentile).
    deck_seconds = 1.0
    trace_decks = 2  # decks in a traced run

    def __init__(self, seed: int, refs: oracles.Refs):
        self.rng = np.random.default_rng(seed)
        self.refs = refs
        self.deck_count = 0

    def shapes(self) -> list[str]:
        return []

    def deck(self) -> list[Job]:
        i = self.deck_count
        self.deck_count += 1
        jobs = self._deck(i)
        order = self.rng.permutation(len(jobs))
        return [jobs[k] for k in order]

    def warmup(self) -> list[Job]:
        return []

    def _id(self, i: int, k: int) -> str:
        return f"d{i}-{k}"


def _strata(rng, n: int, deck: int, mult: int = 1) -> list[float]:
    """n uniforms, one per stratum of [0, 1).  Slot k gets stratum
    (mult k + 3 deck) mod n, so every deck holds every stratum and each slot
    cycles through all of them; only the position inside a stratum is
    random.  Every seed then runs the same amount of work per deck.  Two
    draws for one slot use different ``mult`` so their strata are not tied."""
    return [float(x) for x in ((mult * np.arange(n) + 3 * deck) % n + rng.uniform(size=n)) / n]


class DirectSums(Workload):
    """Disc-truncated direct sums: lattice enumeration dominates."""

    deck_seconds = 1.0  # a deck takes ~1.8 s; 10 decks (150 jobs) steady the percentiles
    R_LO, R_HI = 250.0, 1500.0
    RECON_HI = 800.0  # the twisted sums carry q_max/4 + 1 weights per point
    GL2_LO, GL2_HI = 100.0, 250.0

    def __init__(self, seed, refs):
        super().__init__(seed, refs)
        rng = self.rng
        c = round(float(rng.uniform(0.7, 1.5)), 4)
        a = round(float(rng.uniform(1.2, 2.5)), 4)
        phi = round(float(rng.uniform(0.1, 3.0)), 4)
        self.pool = [
            circle(c),
            ellipse(a, 1.0),
            ellipse(round(float(rng.uniform(1.2, 2.5)), 4), round(float(rng.uniform(0.6, 1.0)), 4), phi),
            Shape("square", "square"),
            Shape("odd", "odd"),
        ] + [cos_shape(k, refs) for k in refs.cos_shapes]
        self.gl2_pool = [gl2(circle(1.0), _general_matrix(rng)),
                         gl2(ellipse(round(float(rng.uniform(1.2, 2.0)), 4), 1.0), _general_matrix(rng)),
                         gl2(ellipse(1.5, 1.0, round(float(rng.uniform(0.1, 3.0)), 4)), _general_matrix(rng))]
        self.recon_pool = [circle(c), ellipse(round(float(rng.uniform(1.05, 1.6)), 4), 1.0)] + [
            cos_shape(k, refs) for k in refs.cos_shapes]

    def shapes(self):
        return [s.spec for s in self.pool + self.gl2_pool + self.recon_pool]

    def _s(self, shape: Shape | None = None) -> complex:
        if shape is not None and shape.kind == "cos":
            return self.refs.s_conv[int(self.rng.integers(len(self.refs.s_conv)))]
        return complex(round(float(self.rng.uniform(1.2, 3.0)), 6), round(float(self.rng.uniform(0.0, 8.0)), 6))

    def _zeta(self, jid, shape: Shape, radius: float, s: complex | None = None) -> Job:
        s = self._s(shape) if s is None else s
        return Job(jid, "zeta-direct",
                   ["zeta", "--shape", shape.spec, _arg("--s", _c(s)), "--method", "direct",
                    "--radius", repr(radius), "--threads", LATTICE_THREADS],
                   lambda: shape.zeta(s, self.refs), lattice=True,
                   tags={"family": shape.kind, "radius": radius},
                   disc_sum=lambda: oracles.disc_sum(radius, s, shape.t2))

    def _epstein(self, jid, radius: float) -> Job:
        hexagonal = bool(self.rng.uniform() < 0.5)
        u, lam, _ = _orbit_form(self.rng, hexagonal, float(self.rng.uniform()), cond_cap=1e3)
        s = self._s()
        return Job(jid, "epstein-direct",
                   ["epstein", "--u", ",".join(repr(x) for x in u), _arg("--s", _c(s)),
                    "--method", "direct", "--radius", repr(radius), "--threads", LATTICE_THREADS],
                   lambda: _base_epstein(hexagonal, lam, s), lattice=True,
                   tags={"radius": radius},
                   disc_sum=lambda: oracles.disc_sum(radius, s, oracles.form_norm(u)))

    def _eisenstein(self, jid, radius: float, q: int | None = None) -> Job:
        q = int(self.rng.integers(1, 41)) if q is None else q
        if q % 4 == 0:
            s = self.refs.s_conv[int(self.rng.integers(len(self.refs.s_conv)))]
            oracle = lambda: self.refs.twisted(q, s)  # noqa: E731
        else:
            s = self._s()
            oracle = lambda: 0.0  # noqa: E731  -- vanishes identically
        return Job(jid, "eisenstein-truncated",
                   ["eisenstein", "--q", str(q), _arg("--s", _c(s)), "--method", "truncated",
                    "--radius", repr(radius), "--threads", LATTICE_THREADS],
                   oracle, lattice=True,
                   tags={"family": "q=0 mod 4" if q % 4 == 0 else "vanishing", "radius": radius},
                   disc_sum=lambda: oracles.disc_sum(radius, s, oracles.form_norm((1.0, 0.0, 1.0)),
                                                     oracles.twist_phase(q)))

    def _reconstruct(self, jid, shape: Shape, radius: float, s: complex | None = None) -> Job:
        s = self._s(shape) if s is None else s
        return Job(jid, "reconstruct-truncated",
                   ["reconstruct", "--shape", shape.spec, _arg("--s", _c(s)), "--mode", "truncated",
                    "--radius", repr(radius), "--threads", LATTICE_THREADS],
                   lambda: shape.zeta(s, self.refs), lattice=True,
                   tags={"family": shape.kind, "radius": radius},
                   disc_sum=lambda: oracles.disc_sum(radius, s, oracles.form_norm((1.0, 0.0, 1.0)),
                                                     oracles.fourier_phase(shape.t2, s, RECON_QMAX)))

    def _deck(self, i):
        rng = self.rng
        radii = [round(_loguniform(self.R_LO, self.R_HI, x), 3) for x in _strata(rng, 14, i)]
        plain = [s for s in self.pool if s.kind != "cos"]
        cos = [s for s in self.pool if s.kind == "cos"]
        shapes = plain + [cos[i % len(cos)], plain[i % len(plain)]]
        jobs = [self._zeta(self._id(i, k), shape, radii[k]) for k, shape in enumerate(shapes)]
        jobs += [self._epstein(self._id(i, k), radii[k]) for k in (7, 8)]
        jobs.append(self._eisenstein(self._id(i, 9), radii[9]))
        jobs.append(self._eisenstein(self._id(i, 10), radii[10]))
        jobs.append(self._eisenstein(self._id(i, 11), radii[11], q=4 * int(rng.integers(1, 11))))
        for k in (12, 13):
            recon = self.recon_pool[(2 * i + k) % len(self.recon_pool)]
            radius = round(radii[k] * self.RECON_HI / self.R_HI, 3)
            jobs.append(self._reconstruct(self._id(i, k), recon, radius))
        # one @gl2 job per deck; its radius stratum advances with the deck
        g = self.gl2_pool[i % len(self.gl2_pool)]
        ug = ((i % 4) + rng.uniform()) / 4
        jobs.append(self._zeta(self._id(i, 14), g, round(_loguniform(self.GL2_LO, self.GL2_HI, ug), 3)))
        return jobs

    def warmup(self):
        s = complex(2.0, 1.0)
        e = ellipse(1.5, 1.0, 0.3)
        cos = cos_shape(next(iter(self.refs.cos_shapes)), self.refs)
        sc = self.refs.s_conv[0]
        return [
            self._zeta("w-zeta", e, 120.0, s),
            self._zeta("w-zeta-gl2", gl2(circle(1.0), (1.1, 0.3, -0.2, 0.9)), 40.0, s),
            self._zeta("w-zeta-cos", cos, 100.0, sc),
            Job("w-epstein", "epstein-direct",
                ["epstein", "--u", "1.0,0.5,1.0", _arg("--s", _c(s)), "--method", "direct",
                 "--radius", "120.0", "--threads", LATTICE_THREADS],
                lambda: oracles.hex_epstein(s), lattice=True),
            Job("w-eisenstein", "eisenstein-truncated",
                ["eisenstein", "--q", "8", _arg("--s", _c(sc)), "--method", "truncated",
                 "--radius", "120.0", "--threads", LATTICE_THREADS],
                lambda: self.refs.twisted(8, sc), lattice=True),
            self._reconstruct("w-reconstruct", cos, 100.0, sc),
        ]


class Continuations(Workload):
    """Theta-splitting continuations: special functions and ring loops."""

    deck_seconds = 0.55  # a deck takes ~0.8 s; 19 decks put ~30 jobs beyond p90
    trace_decks = 6

    def __init__(self, seed, refs):
        super().__init__(seed, refs)
        rng = self.rng
        self.recon_pool = [circle(round(float(rng.uniform(0.7, 1.5)), 4)),
                           ellipse(round(float(rng.uniform(1.05, 1.6)), 4), 1.0),
                           ellipse(round(float(rng.uniform(1.05, 1.6)), 4), 1.0, round(float(rng.uniform(0.1, 3.0)), 4))
                           ] + [cos_shape(k, refs) for k in refs.cos_shapes]
        self.residue_pool = [circle(round(float(rng.uniform(0.7, 1.5)), 4)),
                             ellipse(round(float(rng.uniform(1.2, 2.5)), 4), 1.0, round(float(rng.uniform(0.1, 3.0)), 4)),
                             Shape("square", "square"), Shape("odd", "odd")]

    def shapes(self):
        return [s.spec for s in self.recon_pool + self.residue_pool]

    def _s(self, v: float, w: float) -> complex:
        """Re s = -2 + 5 w, Im s = 0.3 + 19.7 v (v, w stratified: cost grows with Im s)."""
        return complex(round(-2.0 + 5.0 * w, 6), round(0.3 + 19.7 * v, 6))

    def _pooled(self, v: float) -> complex:
        return self.refs.s_cont[int(v * len(self.refs.s_cont))]

    def _epstein(self, jid, method: str, hexagonal: bool, exponent: int, u: float, v: float, w: float) -> Job:
        form, lam, cond = _orbit_form(self.rng, hexagonal, u, exponent=exponent)
        s = self._s(v, w)
        if method == "lambda":
            oracle = lambda: oracles.completed(_base_epstein(hexagonal, lam, s), s)  # noqa: E731
            kind = "epstein-lambda"
        else:
            oracle = lambda: _base_epstein(hexagonal, lam, s)  # noqa: E731
            kind = "epstein-continued"
        return Job(jid, kind, ["epstein", "--u", ",".join(repr(x) for x in form), _arg("--s", _c(s)),
                               "--method", method], oracle, tags={"cond": cond, "im_s": s.imag})

    def _eisenstein_z(self, jid, rho: bool, u: float, v: float, w: float) -> Job:
        rng = self.rng

        def draw():
            a, b, c, d = _gl2z(rng, 30.0 ** rng.uniform(), det_one=True)
            k = int(rng.integers(-25, 26))
            with mp.workdps(40):
                z0 = mp.mpc(-0.5, mp.sqrt(3) / 2) if rho else mp.mpc(0, 1)
                z = complex((a * z0 + b) / (c * z0 + d) + k)
            # the form of z has trace (|z|^2 + 1) / y and determinant 1; it
            # stays inside the same condition cap as the forms
            return z, ((abs(z) ** 2 + 1) / z.imag) ** 2

        z, cond = _nearest_cond(draw, u, 1e7)
        s = self._s(v, w)
        oracle = (lambda: oracles.eisenstein_rho(s)) if rho else (lambda: oracles.eisenstein_i(s))
        # the CLI reads z rounded to doubles; E moves by ~|s| (|z|^2+1)/y per
        # unit relative change of z
        unc = 4e-16 + 8 * 2.0**-53 * abs(s) * (abs(z) ** 2 + 1) / z.imag
        return Job(jid, "eisenstein-z", ["eisenstein", _arg("--z", _c(z)), _arg("--s", _c(s)),
                                         "--method", "continued"], oracle, unc_rel=unc,
                   tags={"cond": cond, "im_s": s.imag})

    def _eisenstein_q(self, jid, q: int, s: complex) -> Job:
        return Job(jid, "eisenstein-continued", ["eisenstein", "--q", str(q), _arg("--s", _c(s)),
                                                 "--method", "continued"],
                   lambda: self.refs.twisted(q, s))

    def _reconstruct(self, jid, shape: Shape, s: complex) -> Job:
        return Job(jid, "reconstruct-continued",
                   ["reconstruct", "--shape", shape.spec, _arg("--s", _c(s)), "--mode", "continued"],
                   lambda: shape.zeta(s, self.refs, digits=18))

    def _residue(self, jid, shape: Shape) -> Job:
        if shape.kind in ("square", "odd"):
            area = 4.0
        elif shape.kind == "circle":
            area = math.pi * shape.scale**2
        else:
            area = math.pi * shape.params[0] * shape.params[1]
        return Job(jid, "residue", ["residue", "--shape", shape.spec], lambda: area,
                   fmt="residue")

    def _deck(self, i):
        u = _strata(self.rng, 16, i)  # log condition of the form or of z
        v = _strata(self.rng, 16, i, mult=5)  # Im s, or the pooled s
        w = _strata(self.rng, 16, i, mult=7)  # Re s
        jid = lambda k: self._id(i, k)  # noqa: E731
        # lambda = 2^e scales the lattice points a continuation sums by
        # max(lambda, 1/lambda), so e cycles through -1, 0, 1 by slot, not by draw
        e = lambda k: (k + i) % 3 - 1  # noqa: E731
        jobs = [self._epstein(jid(k), "continued", k >= 2, e(k), u[k], v[k], w[k]) for k in range(4)]
        jobs += [self._epstein(jid(k), "lambda", k == 5, e(k), u[k], v[k], w[k]) for k in (4, 5)]
        jobs += [self._eisenstein_z(jid(k), k >= 8, u[k], v[k], w[k]) for k in range(6, 10)]
        jobs += [self._eisenstein_q(jid(k), 4 + 4 * int(10 * u[k]), self._pooled(v[k])) for k in (10, 11, 12)]
        for k in (13, 14):
            shape = self.recon_pool[(2 * i + k) % len(self.recon_pool)]
            jobs.append(self._reconstruct(jid(k), shape,
                                          self._pooled(v[k]) if shape.kind == "cos" else self._s(v[k], w[k])))
        jobs.append(self._residue(jid(15), self.residue_pool[i % len(self.residue_pool)]))
        return jobs

    def warmup(self):
        s = complex(0.5, 3.0)
        cos = cos_shape(next(iter(self.refs.cos_shapes)), self.refs)
        return [
            Job("w-epstein", "epstein-continued", ["epstein", "--u", "1.0,0.0,1.0", _arg("--s", _c(s)),
                                                    "--method", "continued"],
                lambda: oracles.identity_epstein(s), tags={"cond": 1.0, "im_s": s.imag}),
            Job("w-lambda", "epstein-lambda", ["epstein", "--u", "1.0,0.5,1.0", _arg("--s", _c(s)),
                                                "--method", "lambda"],
                lambda: oracles.completed(oracles.hex_epstein(s), s), tags={"cond": 3.0, "im_s": s.imag}),
            Job("w-eisenstein-z", "eisenstein-z", ["eisenstein", "--z=0.0+1.0i", _arg("--s", _c(s)),
                                                    "--method", "continued"],
                lambda: oracles.eisenstein_i(s), tags={"cond": 4.0, "im_s": s.imag}),
            self._eisenstein_q("w-eisenstein-q", 8, self.refs.s_cont[0]),
            self._reconstruct("w-reconstruct", cos, self.refs.s_cont[0]),
            self._residue("w-residue", ellipse(2.0, 1.0, 0.4)),
        ]


class Spectra(Workload):
    """Materialized spectra, point counts and the Perron integrand."""

    deck_seconds = 1.0
    trace_decks = 6
    T_LO, T_HI = 30.0, 150.0

    def __init__(self, seed, refs):
        super().__init__(seed, refs)
        rng = self.rng
        self.pool = [
            Shape("square", "square"),
            Shape("odd", "odd"),
            ellipse(2.0, 1.0),
            ellipse(1.5, 1.0),
            ellipse(2.0, 1.0, round(float(rng.uniform(0.1, 3.0)), 4)),
        ] + [cos_shape(k, refs) for k in refs.cos_shapes]

    def shapes(self):
        return [s.spec for s in self.pool]

    def _times(self, shape: Shape, t_max: float):
        """Exact (rational ellipse, square) or independent float dilation times."""
        if shape.kind in ("square", "odd"):
            k = np.arange(1, math.floor(t_max * (1 + 1e-9)) + 1)
            return np.repeat(k.astype(float), 8 * k)
        a, b, phi = shape.params if shape.kind == "ellipse" else (None, None, None)
        if shape.kind == "ellipse" and phi == 0.0:
            return oracles.rational_ellipse_times(a, b, t_max * (1 + 1e-9))
        kind = "ellipse" if shape.kind == "ellipse" else "cos"
        t = oracles.float_times(kind, shape.params, t_max)
        return t[t <= t_max * (1 + 1e-9)]

    def _off_spectrum(self, shape: Shape, lo: float, hi: float, u: float, margin: float = 1e-4) -> float:
        """x near lo + (hi - lo) u, at least ``margin`` (relative) away from every t_k."""
        while True:
            x = round(lo + (hi - lo) * u, 6)
            t = self._times(shape, x * 1.01)
            if not np.any(np.abs(t - x) <= margin * x):
                return x
            u = min(u + 0.01 * float(self.rng.uniform()), 1.0)

    def _half_count(self, shape: Shape, x: float) -> float:
        return float(np.count_nonzero(self._times(shape, x) <= x))

    def _spectrum(self, jid, shape, t_max):
        return Job(jid, "spectrum", ["spectrum", "--shape", shape.spec, "--tmax", repr(t_max),
                                     "--format", "csv", "--threads", LATTICE_THREADS],
                   lambda: self._times(shape, t_max), lattice=True, fmt="spectrum")

    def _zeta(self, jid, shape, t_max, s=None):
        if s is None:
            s = (self.refs.s_conv[int(self.rng.integers(len(self.refs.s_conv)))] if shape.kind == "cos"
                 else complex(round(float(self.rng.uniform(1.2, 3.0)), 6),
                              round(float(self.rng.uniform(0.0, 4.0)), 6)))
        return Job(jid, "zeta-spectrum", ["zeta", "--shape", shape.spec, _arg("--s", _c(s)),
                                          "--method", "spectrum", "--tmax", repr(t_max),
                                          "--threads", LATTICE_THREADS],
                   lambda: shape.zeta(s, self.refs), lattice=True)

    def _count(self, jid, shape, x):
        return Job(jid, "count", ["count", "--shape", shape.spec, "--x", repr(x), "--half-weight",
                                  "--threads", LATTICE_THREADS],
                   lambda: self._half_count(shape, x), lattice=True, fmt="count")

    def _perron_bound(self, shape: Shape, x: float, big_t: float, sigma: float = 1.25) -> float:
        """Truncated-Perron error bound sum_p (x/t_p)^(2 sigma) min(1, 1/(2 pi T |log(x/t_p)|))
        (Davenport, ch. 17, with y = (x/t)^2), over points up to 30x; sigma is
        the CLI default."""
        if shape.kind in ("square", "odd"):
            k = np.arange(1, 30 * math.ceil(x) + 1, dtype=float)
            t, a = k, 8 * k
        else:
            kind = "ellipse" if shape.kind == "ellipse" else "cos"
            t = oracles.float_times(kind, shape.params, 30 * x)
            a = np.ones_like(t)
        y = x / t
        return float(np.sum(a * y ** (2 * sigma)
                            * np.minimum(1.0, 1.0 / (2 * math.pi * big_t * np.abs(np.log(y))))))

    def _perron(self, jid, shape, x, big_t):
        return Job(jid, "perron", ["perron", "--shape", shape.spec, "--x", repr(x), "--T", repr(big_t),
                                   "--threads", LATTICE_THREADS],
                   lambda: (self._half_count(shape, x), self._perron_bound(shape, x, big_t)),
                   lattice=True, fmt="perron")

    def _verify(self, jid, t_max, seed):
        return Job(jid, "verify", ["verify", "--which", "odd-vs-square", "--tmax", repr(t_max),
                                   "--seed", str(seed), "--threads", LATTICE_THREADS],
                   lambda: math.floor(t_max), lattice=True, fmt="verify")

    def _deck(self, i):
        rng = self.rng
        u = _strata(rng, 7, i)
        tm = [round(_loguniform(self.T_LO, self.T_HI, x), 3) for x in u]
        n = len(self.pool)
        pick = lambda k: self.pool[(5 * i + k) % n]  # noqa: E731  -- cycles the pool
        jobs = [
            self._spectrum(self._id(i, 0), pick(0), tm[0]),
            self._spectrum(self._id(i, 1), pick(1), tm[1]),
            self._spectrum(self._id(i, 2), pick(2), tm[2]),
            self._zeta(self._id(i, 3), pick(3), tm[3]),
            self._zeta(self._id(i, 4), pick(4), tm[4]),
            self._zeta(self._id(i, 5), pick(5), tm[5]),
            self._verify(self._id(i, 6), round(30.0 + 90.0 * float(u[6]), 3), int(rng.integers(1000))),
        ]
        w = _strata(rng, 7, i, mult=3)  # x and T
        for k in (7, 8):
            shape = pick(k)
            jobs.append(self._count(self._id(i, k), shape, self._off_spectrum(shape, 2.5, 8.0, w[k - 7])))
        for k in (9, 10):
            # the integrand costs ~ T x^2 log x; keep dense spectra smaller
            shape = pick(k)
            cheap = shape.kind in ("square", "odd")
            x = self._off_spectrum(shape, 2.5, 8.0 if cheap else 4.0, w[k - 7])
            big_t = round(200.0 + (600.0 if cheap else 100.0) * float(w[k - 5]), 3)
            jobs.append(self._perron(self._id(i, k), shape, x, big_t))
        return jobs

    def warmup(self):
        e = ellipse(2.0, 1.0, 0.3)
        sq = Shape("square", "square")
        return [
            self._spectrum("w-spectrum", e, 20.0),
            self._zeta("w-zeta-spectrum", ellipse(2.0, 1.0), 20.0, complex(2.0, 0.5)),
            self._count("w-count", sq, 3.5),
            self._perron("w-perron", sq, 2.5, 100.0),
            self._verify("w-verify", 30.0, 1),
        ]


WORKLOADS = {"direct-sums": DirectSums, "continuations": Continuations, "spectra": Spectra}
