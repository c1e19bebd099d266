"""Command-line front end.

One subcommand per External Interface surface; every library operation is
reachable from exactly one designated subcommand (see OPERATION_MAP, which
the test suite audits).  Identical invocations with identical seeds produce
byte-identical output: no timestamps, sorted JSON keys, shortest-round-trip
float formatting.

Exit codes: 0 success, 1 validation/usage error, 2 numeric failure (pole,
divergence, overflow), 3 failed verification.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import sys

import numpy as np

from . import funceq, fourier, lattice, shapes, zeta
from .errors import NumericError, ValidationError

__all__ = ["main", "OPERATION_MAP"]

# designated subcommand for every public library operation
OPERATION_MAP = {
    "shapes.RadialShape.evaluate": "act",
    "shapes.theta_g": "act",
    "shapes.iwasawa_decompose": "act",
    "shapes.cartan_decompose": "act",
    "shapes.act": "act",
    "lattice.dilation_time": "count",
    "lattice.count_points": "count",
    "lattice.build_spectrum": "spectrum",
    "lattice.spectrum_to_csv": "spectrum",
    "zeta.hlawka_direct": "zeta",
    "zeta.hlawka_from_spectrum": "zeta",
    "zeta.epstein_direct": "epstein",
    "zeta.epstein_continued": "epstein",
    "zeta.epstein_lambda": "epstein",
    "zeta.eisenstein_fq_truncated": "eisenstein",
    "zeta.eisenstein_fq_continued": "eisenstein",
    "zeta.classical_eisenstein": "eisenstein",
    "zeta.reconstruct_hlawka": "reconstruct",
    "fourier.fourier_coeffs": "fourier",
    "fourier.ellipse_coefficient": "fourier",
    "fourier.closed_form_coefficients": "fourier",
    "funceq.check_circle_fe": "verify",
    "funceq.check_square_closed_form": "verify",
    "funceq.check_fq_fe": "verify",
    "funceq.check_ellipse_fe": "verify",
    "funceq.check_coefficient_identity": "verify",
    "funceq.check_odd_vs_square": "verify",
    "funceq.probe_regular_fe": "verify",
    "funceq.perron_count_approx": "perron",
    "funceq.residue_at_one": "residue",
}

SUBCOMMANDS = (
    "spectrum",
    "count",
    "zeta",
    "fourier",
    "reconstruct",
    "epstein",
    "eisenstein",
    "verify",
    "perron",
    "residue",
    "act",
)


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` with no spaces (also plain reals and ``a-bi``)."""
    t = text.strip()
    if not t:
        raise ValidationError("empty complex literal")
    if t in ("i", "+i", "-i"):
        return complex(0.0, -1.0 if t.startswith("-") else 1.0)
    if t.endswith(("i", "I", "j", "J")):
        body = t[:-1]
        split = -1
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                split = k
                break
        if split < 0:
            raise ValidationError(f"cannot parse complex literal {text!r}: expected a+bi")
        re_part, im_part = body[:split], body[split:]
        if im_part in ("+", "-"):
            im_part += "1"
        try:
            return complex(float(re_part), float(im_part))
        except ValueError:
            raise ValidationError(f"cannot parse complex literal {text!r}") from None
    try:
        return complex(float(t), 0.0)
    except ValueError:
        raise ValidationError(f"cannot parse complex literal {text!r}") from None


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n", out_path)


def _random_samples(seed: int, n: int, re_range=(-2.0, 3.0), im_range=(0.25, 8.0)) -> list[complex]:
    """Seeded sample points with |Im s| bounded away from 0, so every real-axis
    pole of the gamma and zeta factors is avoided by construction."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        re = rng.uniform(*re_range)
        im = rng.uniform(*im_range) * (1.0 if rng.uniform() < 0.5 else -1.0)
        out.append(complex(re, im))
    return out


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_spectrum(args) -> int:
    shape = shapes.parse_shape(args.shape)
    spec = lattice.build_spectrum(shape, args.tmax, tolerance=args.tolerance, threads=args.threads)
    if args.format == "csv":
        _emit(lattice.spectrum_to_csv(spec), args.out)
    else:
        _emit_json(
            {
                "shape": args.shape,
                "t_max": spec.t_max,
                "entries": [
                    {"k": k, "t": e.t, "count": e.count, "witnesses": [list(w) for w in e.witnesses]}
                    for k, e in enumerate(spec.entries, start=1)
                ],
            },
            args.out,
        )
    return 0


def _cmd_count(args) -> int:
    shape = shapes.parse_shape(args.shape)
    value = lattice.count_points(
        shape, args.x, half_weight_boundary=args.half_weight, threads=args.threads
    )
    _emit_json({"shape": args.shape, "x": args.x, "half_weight": args.half_weight,
                "count": value}, args.out)
    return 0


def _cmd_zeta(args) -> int:
    shape = shapes.parse_shape(args.shape)
    s = parse_complex(args.s)
    if args.method == "direct":
        res = zeta.hlawka_direct(shape, s, args.radius, threads=args.threads)
    else:
        spec = lattice.build_spectrum(shape, args.tmax, threads=args.threads)
        res = zeta.hlawka_from_spectrum(spec, s)
    _emit_json({"shape": args.shape, "s": s, "method": args.method, **res.to_json_dict()}, args.out)
    return 0


def _cmd_fourier(args) -> int:
    shape = shapes.parse_shape(args.shape)
    s = parse_complex(args.s)
    if args.method == "closed-form":
        rows = fourier.closed_form_coefficients(shape, s, args.qmax, k_max=args.kmax)
        if args.format == "csv":
            lines = ["q,re,im"] + [f"{q},{v.real:.15g},{v.imag:.15g}" for q, v, _ in rows]
            _emit("\n".join(lines) + "\n", args.out)
        else:
            _emit_json(
                {"shape": args.shape, "s": s, "method": "closed-form",
                 "coefficients": [{"q": q, "value": v, "error_estimate": e} for q, v, e in rows]},
                args.out,
            )
        return 0
    table = fourier.fourier_coeffs(shape, s, args.qmax, args.n)
    if args.format == "csv":
        _emit(fourier.fourier_table_to_csv(table), args.out)
    else:
        _emit_json(
            {"shape": args.shape, "s": s, "n_quad": table.n_quad,
             "coefficients": [{"q": q, "value": table.coefficients[q],
                               "error_estimate": table.errors[q]}
                              for q in sorted(table.coefficients)]},
            args.out,
        )
    return 0


def _cmd_reconstruct(args) -> int:
    shape = shapes.parse_shape(args.shape)
    s = parse_complex(args.s)
    res = zeta.reconstruct_hlawka(
        shape, s, args.qmax, mode=args.mode, radius=args.radius, threads=args.threads
    )
    _emit_json({"shape": args.shape, "s": s, **res.to_json_dict()}, args.out)
    return 0


def _parse_form(text: str) -> zeta.QuadForm2:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError("--u expects u11,u12,u22")
    try:
        u11, u12, u22 = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"bad form entries {text!r}") from None
    return zeta.QuadForm2(u11, u12, u22)


def _cmd_epstein(args) -> int:
    u = _parse_form(args.u)
    s = parse_complex(args.s)
    if args.method == "direct":
        res = zeta.epstein_direct(u, s, args.radius, threads=args.threads)
    elif args.method == "lambda":
        res = zeta.epstein_lambda(u, s)
    else:
        res = zeta.epstein_continued(u, s)
    _emit_json({"form": [u.u11, u.u12, u.u22], "s": s, "method": args.method,
                **res.to_json_dict()}, args.out)
    return 0


def _cmd_eisenstein(args) -> int:
    s = parse_complex(args.s)
    if args.z is not None:
        z = parse_complex(args.z)
        res = zeta.classical_eisenstein(
            z, s, method="direct" if args.method == "truncated" else "continued",
            radius=args.radius, threads=args.threads,
        )
        _emit_json({"z": z, "s": s, **res.to_json_dict()}, args.out)
        return 0
    if args.method == "truncated":
        res = zeta.eisenstein_fq_truncated(
            args.q, args.rotation, s, args.radius, threads=args.threads
        )
    else:
        res = zeta.eisenstein_fq_continued(args.q, s)
    _emit_json({"q": args.q, "s": s, "rotation": args.rotation, **res.to_json_dict()}, args.out)
    return 0


def _cmd_perron(args) -> int:
    shape = shapes.parse_shape(args.shape)
    approx, report = funceq.perron_count_approx(
        shape, args.x, args.sigma, args.T, threads=args.threads
    )
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())
    _emit_json(
        {
            "shape": args.shape,
            "x": report.x,
            "sigma": report.sigma,
            "T": report.T,
            "approx": approx,
            "direct_half_weight": report.direct_half_weight,
            "abs_error": abs(approx - report.direct_half_weight),
            "last_lobe_magnitude": report.last_lobe_magnitude,
            "lobes": len(report.lobe_ends),
        },
        args.out,
    )
    return 0


def _cmd_residue(args) -> int:
    shape = shapes.parse_shape(args.shape)
    res = funceq.residue_at_one(shape)
    ar = shapes.area(shape)
    _emit_json(
        {"shape": args.shape, "residue": res, "area": ar,
         "rel_diff": abs(res - ar) / ar}, args.out
    )
    return 0


def _cmd_act(args) -> int:
    base = shapes.parse_shape(args.shape)
    g = None
    if args.gl2:
        parts = args.gl2.split(",")
        if len(parts) != 4:
            raise ValidationError("--gl2 expects a,b,c,d")
        try:
            g = shapes.Mat2(*(float(p) for p in parts))
        except ValueError:
            raise ValidationError(f"bad gl2 entries {args.gl2!r}") from None
        shape = shapes.act(g, base)
    else:
        shape = base
    n = args.grid
    th = np.arange(n) * (2.0 * math.pi / n)
    r = np.asarray(shape.evaluate(th))
    if args.format == "csv":
        lines = ["theta,r"] + [f"{t:.15g},{v:.15g}" for t, v in zip(th, r)]
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    payload = {
        "shape": args.shape,
        "kind": shape.kind,
        "r_min": shape.r_min,
        "r_max": shape.r_max,
        "symmetry_order": shape.symmetry_order,
        "samples": [{"theta": float(t), "r": float(v)} for t, v in zip(th, r)],
    }
    if g is not None:
        iw = shapes.iwasawa_decompose(g) if g.det > 0 else None
        payload["gl2"] = {
            "entries": list(g.entries()),
            "det": g.det,
            "theta_map": [
                {"phi": float(p), "theta": float(shapes.theta_g(g, float(p)))} for p in th[:: n // 16 or 1]
            ],
        }
        if iw is not None:
            payload["gl2"]["iwasawa"] = {"u": iw.u, "x": iw.x, "y": iw.y, "theta": iw.theta}
            k1, d1, d2, k2 = shapes.cartan_decompose(g)
            payload["gl2"]["cartan"] = {
                "kappa1": list(k1.entries()),
                "d1": d1,
                "d2": d2,
                "kappa2": list(k2.entries()),
            }
    _emit_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _to_convergent(samples) -> list[complex]:
    """Map sample points into Re(s) in (1.2, 3): direct/spectral sums only."""
    return [complex(1.2 + 1.8 * abs(s.real - 0.5) / 3.5, s.imag) for s in samples]


def _verify_one(which: str, args) -> funceq.CheckReport:
    samples = _random_samples(args.seed, args.samples)
    if which == "circle-fe":
        return funceq.check_circle_fe(args.c, samples)
    if which == "square-closed-form":
        return funceq.check_square_closed_form(
            _to_convergent(samples), radius=args.radius, threads=args.threads
        )
    if which == "fq-fe":
        return funceq.check_fq_fe(args.q, samples)
    if which == "ellipse-fe":
        a = 2.0 if args.a is None else args.a
        return funceq.check_ellipse_fe(a, args.b, args.phi, samples)
    if which == "coefficient-identity":
        # the coefficient series only converges for mild eccentricity
        # (|2d/c| < 1 needs a/b < sqrt 2), so its default is a^2/b^2 = 1.2
        a = math.sqrt(1.2) * args.b if args.a is None else args.a
        return funceq.check_coefficient_identity(a, args.b, max(args.q // 4, 1), samples)
    if which == "odd-vs-square":
        return funceq.check_odd_vs_square(args.tmax, _to_convergent(samples), threads=args.threads)
    if which == "regular-fe-probe":
        spec = json.loads(args.form) if args.form else {"A": 1.0, "B": 1.0,
                                                        "alpha_mu": [[1.0, 0.5]],
                                                        "beta_omega": [[1.0, 0.5]]}
        form = funceq.RegularFEForm(
            A=complex(spec["A"]),
            B=complex(spec["B"]),
            alpha_mu=tuple((float(a), complex(m)) for a, m in spec["alpha_mu"]),
            beta_omega=tuple((float(b), complex(o)) for b, o in spec["beta_omega"]),
        )
        return funceq.probe_regular_fe(form, samples)
    raise ValidationError(f"unknown identity {which!r}")


_VERIFY_ALL = (
    "circle-fe",
    "square-closed-form",
    "fq-fe",
    "ellipse-fe",
    "coefficient-identity",
    "odd-vs-square",
)

# exploratory / probe reports never gate the exit status
_NON_GATING = ("coefficient-identity", "regular-fe-probe")


def _cmd_verify(args) -> int:
    if args.which == "all":
        reports = []
        failed = False
        for which in _VERIFY_ALL:
            sweep_args = args
            if which == "coefficient-identity":
                # the sweep runs the coefficient series at its default axes
                # whatever --a the ellipse-fe check gets
                sweep_args = copy.copy(args)
                sweep_args.a = None
            rep = _verify_one(which, sweep_args)
            reports.append(rep)
            if which not in _NON_GATING and not rep.passed:
                failed = True
        _emit_json(
            {
                "seed": args.seed,
                "samples": args.samples,
                "all_passed": not failed,
                "checks": [r.to_json_dict() for r in reports],
            },
            args.out,
        )
        return 3 if failed else 0
    rep = _verify_one(args.which, args)
    _emit_json(rep.to_json_dict(), args.out)
    if args.which in _NON_GATING:
        return 0
    return 0 if rep.passed else 3


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hlawka",
        description="Lattice-dilation zeta functions of star-shaped planar regions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="write output to this path instead of stdout")
        sp.add_argument("--threads", type=int, default=None,
                        help="thread cap, 1 to 64 (default: HLAWKA_THREADS or small)")

    sp = sub.add_parser("spectrum", help="dilation spectrum (t_k, a_k)")
    sp.add_argument("--shape", required=True)
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--tolerance", type=float, default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    common(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("count", help="lattice points inside the dilated region")
    sp.add_argument("--shape", required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--half-weight", action="store_true")
    common(sp)
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("zeta", help="Z_r(s) by direct sum or from a spectrum")
    sp.add_argument("--shape", required=True)
    sp.add_argument("--s", required=True, help="complex like 2+0i")
    sp.add_argument("--method", choices=("direct", "spectrum"), default="direct")
    sp.add_argument("--radius", type=float, default=2000.0)
    sp.add_argument("--tmax", type=float, default=100.0, help="spectrum bound (method=spectrum)")
    common(sp)
    sp.set_defaults(func=_cmd_zeta)

    sp = sub.add_parser("fourier", help="Fourier coefficients of r^(2s)")
    sp.add_argument("--shape", required=True)
    sp.add_argument("--s", required=True)
    sp.add_argument("--qmax", type=int, default=40)
    sp.add_argument("--n", type=int, default=None, help="quadrature size (power of two)")
    sp.add_argument("--method", choices=("quadrature", "closed-form"), default="quadrature")
    sp.add_argument("--kmax", type=int, default=400, help="closed-form series cap")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    common(sp)
    sp.set_defaults(func=_cmd_fourier)

    sp = sub.add_parser("reconstruct", help="rebuild Z_r(s) from Fourier-twisted sums")
    sp.add_argument("--shape", required=True)
    sp.add_argument("--s", required=True)
    sp.add_argument("--qmax", type=int, default=40)
    sp.add_argument("--mode", choices=("truncated", "continued"), default="truncated")
    sp.add_argument("--radius", type=float, default=3000.0)
    common(sp)
    sp.set_defaults(func=_cmd_reconstruct)

    sp = sub.add_parser("epstein", help="Epstein zeta of a positive-definite form")
    sp.add_argument("--u", required=True, help="u11,u12,u22")
    sp.add_argument("--s", required=True)
    sp.add_argument("--method", choices=("direct", "continued", "lambda"), default="continued")
    sp.add_argument("--radius", type=float, default=2000.0)
    common(sp)
    sp.set_defaults(func=_cmd_epstein)

    sp = sub.add_parser("eisenstein", help="twisted components and E(z, s)")
    sp.add_argument("--q", type=int, default=4)
    sp.add_argument("--s", required=True)
    sp.add_argument("--rotation", type=float, default=0.0)
    sp.add_argument("--method", choices=("truncated", "continued"), default="truncated")
    sp.add_argument("--radius", type=float, default=1000.0)
    sp.add_argument("--z", default=None, help="evaluate the classical series at this point instead")
    common(sp)
    sp.set_defaults(func=_cmd_eisenstein)

    sp = sub.add_parser("verify", help="run identity checks")
    sp.add_argument("--which", required=True,
                    choices=_VERIFY_ALL + ("regular-fe-probe", "all"))
    sp.add_argument("--samples", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--c", type=float, default=1.0, help="circle radius")
    sp.add_argument("--a", type=float, default=None,
                    help="ellipse axis (default 2; sqrt(1.2) * b for coefficient-identity)")
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--phi", type=float, default=0.0)
    sp.add_argument("--q", type=int, default=4)
    sp.add_argument("--tmax", type=float, default=50.0)
    sp.add_argument("--radius", type=float, default=2000.0)
    sp.add_argument("--form", default=None, help="JSON RegularFEForm for the probe")
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("perron", help="contour-integral point count")
    sp.add_argument("--shape", required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--sigma", type=float, default=1.25)
    sp.add_argument("--T", type=float, default=800.0)
    sp.add_argument("--csv", default=None, help="write the (T, residual) study here")
    common(sp)
    sp.set_defaults(func=_cmd_perron)

    sp = sub.add_parser("residue", help="residue of Z_r at s=1 vs region area")
    sp.add_argument("--shape", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_residue)

    sp = sub.add_parser("act", help="apply a GL(2,R) matrix to a shape; sample the result")
    sp.add_argument("--shape", required=True)
    sp.add_argument("--gl2", default=None, help="a,b,c,d")
    sp.add_argument("--grid", type=int, default=256)
    sp.add_argument("--format", choices=("csv", "json"), default="json")
    common(sp)
    sp.set_defaults(func=_cmd_act)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later ``main``
    call in the process: it holds no state between parses."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract wants 1
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
