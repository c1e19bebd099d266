"""CLI tests: argument parsing, output formats, determinism, exit codes, and
the operation-to-subcommand coverage audit."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hlawka.cli as cli
from hlawka import funceq, fourier, lattice, shapes, zeta
from hlawka.cli import OPERATION_MAP, SUBCOMMANDS, main, parse_complex
from hlawka.errors import ValidationError
from hlawka.funceq import CheckReport


# ---------------------------------------------------------------------------
# complex literals
# ---------------------------------------------------------------------------


def test_parse_complex_forms():
    assert parse_complex("2") == 2 + 0j
    assert parse_complex("2.5") == 2.5 + 0j
    assert parse_complex("2+0i") == 2 + 0j
    assert parse_complex("0.3+1.7i") == 0.3 + 1.7j
    assert parse_complex("1-2i") == 1 - 2j
    assert parse_complex("-0.5+0i") == -0.5 + 0j
    assert parse_complex("1e-1+2e0i") == 0.1 + 2j
    assert parse_complex("-i") == -1j


def test_parse_complex_rejects_garbage():
    for bad in ("", "1+2", "i2", "2,3", "1 + 2i"):
        with pytest.raises(ValidationError):
            parse_complex(bad)


# ---------------------------------------------------------------------------
# subcommand smoke tests (through main(), asserting exit codes)
# ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--shape", "square", "--tmax", "10",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,t_k,a_k"
    assert len(lines) == 11
    assert lines[10] == "10,10,80"


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--shape", "circle:c=1", "--x", "2",
                           "--half-weight")
    assert code == 0
    assert json.loads(out)["count"] == 10.0


def test_zeta_direct_and_spectrum_agree(capsys):
    code, out1, _ = run_cli(capsys, "zeta", "--shape", "circle:c=1", "--s", "2+0i",
                            "--radius", "200")
    assert code == 0
    code, out2, _ = run_cli(capsys, "zeta", "--shape", "circle:c=1", "--s", "2+0i",
                            "--method", "spectrum", "--tmax", "200")
    assert code == 0
    v1 = json.loads(out1)["value"]["re"]
    v2 = json.loads(out2)["value"]["re"]
    assert abs(v1 - v2) < 1e-10


def test_zeta_bare_circle_is_the_unit_circle(capsys):
    args = ("--s", "2", "--method", "direct", "--radius", "100")
    code, bare, _ = run_cli(capsys, "zeta", "--shape", "circle", *args)
    assert code == 0
    code, unit, _ = run_cli(capsys, "zeta", "--shape", "circle:c=1", *args)
    assert code == 0
    assert json.loads(bare)["value"] == json.loads(unit)["value"]


def test_fourier_csv_and_closed_form(capsys):
    code, out, _ = run_cli(capsys, "fourier", "--shape", "cos:c0=1,c4=0.1",
                           "--s", "0.5+0i", "--qmax", "4", "--format", "csv")
    assert code == 0
    rows = {line.split(",")[0]: line for line in out.strip().split("\n")[1:]}
    assert abs(float(rows["4"].split(",")[1]) - 0.05) < 1e-12
    a = math.sqrt(1.2)
    code, out, _ = run_cli(capsys, "fourier", "--shape", f"ellipse:a={a},b=1",
                           "--s", "2+0i", "--qmax", "8", "--method", "closed-form",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [c["q"] for c in payload["coefficients"]] == [0, 4, 8]


def test_fourier_closed_form_output_is_pinned(capsys):
    # the closed-form rows moved from the CLI into fourier; its CSV and JSON
    # must stay byte-identical
    args = ("fourier", "--shape", "ellipse:a=1.1,b=1", "--s", "2+1i", "--qmax", "8",
            "--method", "closed-form")
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    assert out == (
        "q,re,im\n"
        "0,1.20644518724266,0.123623559968575\n"
        "4,0.00616315890662624,0.00750074733383782\n"
        "8,9.40248482847691e-06,3.7391819842834e-05\n"
    )
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    assert json.loads(out)["coefficients"] == [
        {"error_estimate": 8.085642696948211e-20, "q": 0,
         "value": {"im": 0.12362355996857473, "re": 1.2064451872426585}},
        {"error_estimate": 3.8949012984092673e-22, "q": 4,
         "value": {"im": 0.0075007473338378206, "re": 0.006163158906626245}},
        {"error_estimate": 8.36836427359826e-24, "q": 8,
         "value": {"im": 3.7391819842833977e-05, "re": 9.402484828476906e-06}},
    ]
    code, out, _ = run_cli(capsys, "fourier", "--shape", "circle:c=1.5", "--s", "2+1i",
                           "--qmax", "4", "--method", "closed-form", "--format", "json")
    assert code == 0
    assert json.loads(out)["coefficients"] == [
        {"error_estimate": 0.0, "q": 0,
         "value": {"im": 3.6699492329085217, "re": 3.487173479750348}},
        {"error_estimate": 0.0, "q": 4, "value": {"im": 0.0, "re": 0.0}},
    ]
    for shape in ("square", "ellipse:a=2,b=1,phi=0.3"):
        code, _, err = run_cli(capsys, "fourier", "--shape", shape, "--s", "2+0i",
                               "--method", "closed-form")
        assert code == 1 and "error" in err


def test_reconstruct(capsys):
    code, out, _ = run_cli(capsys, "reconstruct", "--shape", "circle:c=1",
                           "--s", "2+0i", "--qmax", "8", "--radius", "200")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"]["re"] - 6.0268) < 1e-3


def test_epstein_methods(capsys):
    code, out, _ = run_cli(capsys, "epstein", "--u", "1,0,1", "--s", "2+0i")
    assert code == 0
    cont = json.loads(out)["value"]["re"]
    code, out, _ = run_cli(capsys, "epstein", "--u", "1,0,1", "--s", "2+0i",
                           "--method", "lambda")
    assert code == 0
    lam = json.loads(out)["value"]["re"]
    assert abs(lam - math.pi**-2 * math.gamma(2 + 0) * 0 - cont * math.pi**-2) < 1e-9


def test_eisenstein_truncated_and_classical(capsys):
    code, out, _ = run_cli(capsys, "eisenstein", "--q", "4", "--s", "2+0i",
                           "--radius", "200")
    assert code == 0
    assert abs(json.loads(out)["value"]["re"] - 3.1512) < 1e-3
    code, out, _ = run_cli(capsys, "eisenstein", "--z", "0+1i", "--s", "2+0i",
                           "--method", "continued")
    assert code == 0
    assert abs(json.loads(out)["value"]["re"] - 2.78420) < 1e-4


def test_perron(capsys, tmp_path):
    csv_path = tmp_path / "study.csv"
    code, out, _ = run_cli(capsys, "perron", "--shape", "square", "--x", "2.5",
                           "--sigma", "1.25", "--T", "100", "--csv", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["direct_half_weight"] == 24.0
    assert payload["abs_error"] <= 1.0
    assert csv_path.read_text().startswith("T,residual")


def test_residue(capsys):
    code, out, _ = run_cli(capsys, "residue", "--shape", "circle:c=1")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["residue"] - math.pi) < 0.05
    assert payload["rel_diff"] < 1e-2


def test_act_json_includes_decompositions(capsys):
    code, out, _ = run_cli(capsys, "act", "--shape", "circle:c=1",
                           "--gl2", "2,1,0,1", "--grid", "32")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "transformed"
    assert "iwasawa" in payload["gl2"] and "cartan" in payload["gl2"]
    cart = payload["gl2"]["cartan"]
    assert cart["d1"] >= cart["d2"] > 0


def test_verify_single_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--which", "circle-fe", "--c", "1.0",
                           "--samples", "4", "--seed", "7")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_coefficient_identity_runs_with_its_defaults(capsys):
    code, out, _ = run_cli(capsys, "verify", "--which", "coefficient-identity")
    assert code == 0
    assert json.loads(out)["identity"].startswith("coefficient-identity")


def test_verify_all_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--which", "all", "--samples", "3",
                           "--seed", "3", "--radius", "1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    names = [c["identity"] for c in payload["checks"]]
    assert "circle-fe" in names and "odd-vs-square" in names


# name, tolerance, passed and metadata keys of every report; no computed value
_REPORT_LAYOUT = {
    "circle-fe": (1e-10, True, ["c"]),
    "square-closed-form": (1e-8, True, ["radius", "truncation_estimates"]),
    "fq-fe-q4": (1e-8, True, ["q"]),
    "ellipse-fe": (1e-9, True, ["a", "as_printed_constant", "as_printed_rel_residuals", "b",
                                "constant", "phi"]),
    "coefficient-identity-q1": (math.inf, True, ["a", "b", "c", "d", "gate", "q", "residuals",
                                                 "series_diagnostics"]),
    "odd-vs-square": (1e-12, True, ["entries", "odd_area", "odd_vertices", "orbit_statistic",
                                    "spectra_identical", "square_area", "square_vertices",
                                    "t_max"]),
}


def _layout(report: dict):
    return report["identity"], (report["tolerance"], report["passed"], sorted(report["metadata"]))


def test_verify_all_report_layout_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "--which", "all", "--samples", "4", "--seed", "3")
    assert code == 0
    assert [_layout(r) for r in json.loads(out)["checks"]] == list(_REPORT_LAYOUT.items())


@pytest.mark.parametrize("argv, layout", [
    (["--which", "fq-fe", "--q", "0"], ("fq-fe-q0", (1e-8, True, ["q"]))),
    (["--which", "regular-fe-probe"], ("regular-fe-probe", (1e-8, False, ["gate"]))),
])
def test_single_report_layout_is_pinned(capsys, argv, layout):
    code, out, _ = run_cli(capsys, "verify", *argv, "--samples", "4", "--seed", "3")
    assert code == 0
    assert _layout(json.loads(out)) == layout


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    # exit-code mapping for a failing gated check, via a stubbed report
    failing = CheckReport(
        name="circle-fe", samples=(2.0,), residuals_abs=(1.0,),
        residuals_rel=(1.0,), tolerance=1e-10, passed=False, metadata={},
    )
    monkeypatch.setattr(funceq, "check_circle_fe", lambda *a, **k: failing)
    code, out, _ = run_cli(capsys, "verify", "--which", "circle-fe")
    assert code == 3


def test_exit_code_validation_error(capsys):
    code, _, err = run_cli(capsys, "zeta", "--shape", "circle:c=-1", "--s", "2+0i",
                           "--radius", "100")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("radius", ["-50", "3", "nan", "1e9"])
def test_reconstruct_truncated_rejects_a_bad_radius(capsys, monkeypatch, radius):
    def no_walk(*args, **kwargs):
        raise AssertionError("enumerated before validating the radius")

    monkeypatch.setattr(zeta, "map_box_chunks", no_walk)
    code, out, err = run_cli(capsys, "reconstruct", "--shape", "circle", "--s", "2",
                             "--mode", "truncated", f"--radius={radius}", "--qmax", "8")
    assert code == 1
    assert out == ""
    assert "radius" in err


@pytest.mark.parametrize("threads", ["0", "-5", "65"])
def test_bad_thread_count_exits_1(capsys, threads):
    code, out, err = run_cli(capsys, "zeta", "--shape", "odd", "--s", "2", "--radius", "50",
                             f"--threads={threads}")
    assert code == 1
    assert out == ""
    assert "thread count" in err


def test_bad_thread_environment_variable_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("HLAWKA_THREADS", "many")
    code, out, err = run_cli(capsys, "count", "--shape", "square", "--x", "50")
    assert code == 1
    assert out == ""
    assert "HLAWKA_THREADS" in err


def test_zeta_spectrum_below_the_first_line_is_rejected(capsys):
    code, out, err = run_cli(capsys, "zeta", "--shape", "square", "--s", "2+0i",
                             "--method", "spectrum", "--tmax", "0.5")
    assert code == 1
    assert out == ""
    assert "no line" in err


def test_exit_code_numeric_error(capsys):
    code, _, err = run_cli(capsys, "epstein", "--u", "1,0,1", "--s", "1+0i")
    assert code == 2
    assert "numeric" in err


def test_exit_code_usage_error(capsys):
    assert main(["nonsense-subcommand"]) == 1


def test_determinism_byte_identical(capsys):
    args = ("verify", "--which", "circle-fe", "--samples", "4", "--seed", "11")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_successive_main_calls_match_fresh_processes(capsys):
    # main() builds its parser once per process; later calls, with other
    # subcommands and options, must parse exactly as a fresh process does
    runs = [
        ("epstein", "--u", "1.0,0.5,1.0", "--s=0.5+3i", "--method", "lambda"),
        ("zeta", "--shape", "circle:c=1.5", "--s", "2", "--radius", "50"),
        ("eisenstein", "--q", "8", "--s=0.5+3i", "--method", "continued"),
        ("epstein", "--u", "2.0,0.0,1.0", "--s", "2"),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv in runs:
        code, out, _ = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "hlawka.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert code == fresh.returncode == 0
        assert out == fresh.stdout


# ---------------------------------------------------------------------------
# coverage audit
# ---------------------------------------------------------------------------


def test_operation_map_is_complete_and_single_valued():
    # every public operation appears exactly once and maps to a real subcommand
    assert set(OPERATION_MAP.values()) <= set(SUBCOMMANDS)
    public_ops = set()
    for mod, names in (
        (shapes, ("theta_g", "iwasawa_decompose", "cartan_decompose", "act")),
        (lattice, ("dilation_time", "count_points", "build_spectrum", "spectrum_to_csv")),
        (
            zeta,
            (
                "hlawka_direct",
                "hlawka_from_spectrum",
                "epstein_direct",
                "epstein_continued",
                "epstein_lambda",
                "eisenstein_fq_truncated",
                "eisenstein_fq_continued",
                "classical_eisenstein",
                "reconstruct_hlawka",
            ),
        ),
        (fourier, ("fourier_coeffs", "ellipse_coefficient")),
        (
            funceq,
            (
                "check_circle_fe",
                "check_square_closed_form",
                "check_fq_fe",
                "check_ellipse_fe",
                "check_coefficient_identity",
                "check_odd_vs_square",
                "probe_regular_fe",
                "perron_count_approx",
                "residue_at_one",
            ),
        ),
    ):
        for name in names:
            assert hasattr(mod, name)
            public_ops.add(f"{mod.__name__.split('.')[-1]}.{name}")
    mapped = set(OPERATION_MAP)
    assert public_ops <= mapped
    # the parser really offers every mapped subcommand
    parser = cli.build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    subcommands = set(actions[0].choices)
    assert set(OPERATION_MAP.values()) <= subcommands
