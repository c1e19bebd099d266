"""CLI tests: argument parsing, output formats, determinism, exit codes, and
the operation-to-subcommand coverage audit."""

import ast
import importlib
import inspect
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
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


@pytest.mark.parametrize("argv", [
    ("count", "--shape", "square", "--x", "1e7"),
    ("spectrum", "--shape", "circle", "--tmax", "2e4"),
    ("zeta", "--shape", "square", "--s", "2+0i", "--method", "spectrum", "--tmax", "2e4"),
    ("perron", "--shape", "square", "--x", "1200.5", "--T", "100"),
    ("verify", "--which", "odd-vs-square", "--tmax", "2e4"),
])
def test_walks_beyond_their_caps_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "beyond the cap" in err


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--shape", "square", "--tmax", "10",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,t_k,a_k"
    assert len(lines) == 11
    assert lines[10] == "10,10,80"


SPECTRUM_JSON = """{
  "entries": [
    {
      "count": 2,
      "k": 1,
      "t": 0.702112761023296,
      "witnesses": [
        [
          -1,
          0
        ],
        [
          1,
          0
        ]
      ]
    },
    {
      "count": 2,
      "k": 2,
      "t": 0.9754394472506678,
      "witnesses": [
        [
          0,
          -1
        ],
        [
          0,
          1
        ]
      ]
    },
    {
      "count": 2,
      "k": 3,
      "t": 1.0633692592167607,
      "witnesses": [
        [
          -1,
          -1
        ],
        [
          1,
          1
        ]
      ]
    }
  ],
  "shape": "ellipse:a=1.5,b=1,phi=0.3",
  "t_max": 1.3
}
"""


def test_spectrum_json_bytes_are_pinned(capsys, tmp_path):
    # written one entry at a time, byte for byte the indented dump of the
    # whole document
    code, out, _ = run_cli(capsys, "spectrum", "--shape", "ellipse:a=1.5,b=1,phi=0.3", "--tmax", "1.3",
                           "--format", "json")
    assert code == 0 and out == SPECTRUM_JSON
    code, out, _ = run_cli(capsys, "spectrum", "--shape", "square", "--tmax", "0.5", "--format", "json")
    assert code == 0 and out == '{\n  "entries": [],\n  "shape": "square",\n  "t_max": 0.5\n}\n'
    path = tmp_path / "spectrum.json"
    assert main(["spectrum", "--shape", "odd@gl2=2,1,1,1", "--tmax", "9", "--format", "json",
                 "--out", str(path)]) == 0
    spec = lattice.build_spectrum(shapes.parse_shape("odd@gl2=2,1,1,1"), 9.0)
    whole = {
        "shape": "odd@gl2=2,1,1,1",
        "t_max": 9.0,
        "entries": [{"k": k, "t": e.t, "count": e.count, "witnesses": [list(w) for w in e.witnesses]}
                    for k, e in enumerate(spec.entries, start=1)],
    }
    assert len(whole["entries"]) == 9
    assert path.read_text() == json.dumps(whole, sort_keys=True, indent=2) + "\n"


# (t, count, witnesses) per line of spectra whose walk folds the disc, as
# grouping every point of the disc gives them
FOLDED_SPECTRA = {
    ("cos:c0=1,c4=0.1", 3.2): [  # D4
        (0.9090909090909091, 4, [[-1, 0], [0, -1], [0, 1], [1, 0]]),
        (1.5713484026367723, 4, [[-1, -1], [-1, 1], [1, -1], [1, 1]]),
        (1.8181818181818181, 4, [[-2, 0], [0, -2], [0, 2], [2, 0]]),
        (2.3004814583331172, 8, [[-2, -1], [-2, 1], [-1, -2], [-1, 2], [1, -2], [1, 2], [2, -1], [2, 1]]),
        (2.727272727272727, 4, [[-3, 0], [0, -3], [0, 3], [3, 0]]),
        (3.076145583821381, 8, [[-3, -1], [-3, 1], [-1, -3], [-1, 3], [1, -3], [1, 3], [3, -1], [3, 1]]),
        (3.1426968052735447, 4, [[-2, -2], [-2, 2], [2, -2], [2, 2]]),
    ],
    ("ellipse:a=2,b=1", 2.1): [  # the reflections in the axes
        (0.5, 2, [[-1, 0], [1, 0]]),
        (1.0, 4, [[-2, 0], [0, -1], [0, 1], [2, 0]]),
        (1.118033988749895, 4, [[-1, -1], [-1, 1], [1, -1], [1, 1]]),
        (1.4142135623730951, 4, [[-2, -1], [-2, 1], [2, -1], [2, 1]]),
        (1.5, 2, [[-3, 0], [3, 0]]),
        (1.8027756377319946, 4, [[-3, -1], [-3, 1], [3, -1], [3, 1]]),
        (2.0, 4, [[-4, 0], [0, -2], [0, 2], [4, 0]]),
        (2.0615528128088303, 4, [[-1, -2], [-1, 2], [1, -2], [1, 2]]),
    ],
}


# the integer kinds count their lines by rows and walk the disc only for
# the witnesses: (t, count, witnesses) per line, and the sha256 of the whole
# document at t_max 40, as the build that walked every point printed them
COUNTED_SPECTRA = {
    "odd": ([(1.0, 8, [[-1, -1], [-1, 0], [-1, 1], [0, -1], [1, -1], [1, 0], [1, 1], [2, 1]]),
             (2.0, 16, [[-2, -2], [-2, -1], [-2, 0], [-2, 1], [-2, 2], [-1, -2], [0, -2], [0, 1]]),
             (3.0, 24, [[-3, -3], [-3, -2], [-3, -1], [-3, 0], [-3, 1], [-3, 2], [-3, 3], [-2, -3]])],
            "3db6c3be49865bb12ac225dfff17c521607c63d16bc045acad72afb1aca29cc2"),
    "odd@gl2=0,1,1,0": (  # det -1
        [(1.0, 8, [[-1, -1], [-1, 0], [-1, 1], [0, -1], [0, 1], [1, -1], [1, 1], [1, 2]]),
         (2.0, 16, [[-2, -2], [-2, -1], [-2, 0], [-2, 1], [-2, 2], [-1, -2], [-1, 2], [0, -2]]),
         (3.0, 24, [[-3, -3], [-3, -2], [-3, -1], [-3, 0], [-3, 1], [-3, 2], [-3, 3], [-2, -3]])],
        "2e5eaf3b6b089d21579dcc8a4651bd495019c9096c6542040a0164f90a7feddb"),
}


@pytest.mark.parametrize("shape", list(COUNTED_SPECTRA))
def test_counted_spectrum_json_bytes_are_pinned(capsys, shape):
    lines, digest = COUNTED_SPECTRA[shape]
    entries = [{"k": k, "t": t, "count": count, "witnesses": w}
               for k, (t, count, w) in enumerate(lines, start=1)]
    want = json.dumps({"entries": entries, "shape": shape, "t_max": 3.0}, sort_keys=True, indent=2) + "\n"
    code, out, _ = run_cli(capsys, "spectrum", "--shape", shape, "--tmax", "3", "--format", "json")
    assert code == 0 and out == want
    code, out, _ = run_cli(capsys, "spectrum", "--shape", shape, "--tmax", "40", "--format", "json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_half_weight_count_at_a_jump_is_pinned(capsys):
    # x = 5 is the square's fifth line: its 40 points count 1/2 each
    code, out, _ = run_cli(capsys, "count", "--shape", "square", "--x", "5", "--half-weight")
    assert code == 0
    assert out == '{\n  "count": 100.0,\n  "half_weight": true,\n  "shape": "square",\n  "x": 5.0\n}\n'


@pytest.mark.parametrize("shape, t_max", list(FOLDED_SPECTRA))
def test_folded_spectrum_json_bytes_are_pinned(capsys, shape, t_max):
    entries = [{"k": k, "t": t, "count": count, "witnesses": w}
               for k, (t, count, w) in enumerate(FOLDED_SPECTRA[shape, t_max], start=1)]
    want = json.dumps({"entries": entries, "shape": shape, "t_max": t_max}, sort_keys=True, indent=2) + "\n"
    code, out, _ = run_cli(capsys, "spectrum", "--shape", shape, "--tmax", repr(t_max), "--format", "json")
    assert code == 0 and out == want


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
    # the closed-form CSV and JSON bytes: the Gauss series' values and bounds
    args = ("fourier", "--shape", "ellipse:a=1.1,b=1", "--s", "2+1i", "--qmax", "8",
            "--method", "closed-form")
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    assert out == (
        "q,re,im\n"
        "0,1.20644518724266,0.123623559968575\n"
        "4,0.00616315890662625,0.00750074733383782\n"
        "8,9.40248482847691e-06,3.7391819842834e-05\n"
    )
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    assert json.loads(out)["coefficients"] == [
        {"error_estimate": 4.971573902082763e-14, "q": 0,
         "value": {"im": 0.12362355996857469, "re": 1.2064451872426585}},
        {"error_estimate": 4.341054893262855e-16, "q": 4,
         "value": {"im": 0.0075007473338378206, "re": 0.006163158906626248}},
        {"error_estimate": 1.881042814430607e-18, "q": 8,
         "value": {"im": 3.739181984283396e-05, "re": 9.402484828476908e-06}},
    ]
    code, out, _ = run_cli(capsys, "fourier", "--shape", "circle:c=1.5", "--s", "2+1i",
                           "--qmax", "4", "--method", "closed-form", "--format", "json")
    assert code == 0
    assert json.loads(out)["coefficients"] == [
        {"error_estimate": 1.4508372990259627e-14, "q": 0,
         "value": {"im": 3.6699492329085217, "re": 3.487173479750348}},
        {"error_estimate": 0.0, "q": 4, "value": {"im": 0.0, "re": 0.0}},
    ]
    assert "-0.0" not in out  # the zero row is 0.0, not a signed zero
    for shape in ("square", "ellipse:a=2,b=1,phi=0.3"):
        code, _, err = run_cli(capsys, "fourier", "--shape", shape, "--s", "2+0i",
                               "--method", "closed-form")
        assert code == 1 and "error" in err


def test_fourier_closed_form_covers_every_ellipse_up_to_the_term_cap(capsys):
    # a/b = 2 was refused by the former |2d/c| < 1 check; its rows agree with
    # b^(2s) binom(-s, q/2) (x/4)^(q/2) 2F1(s + q/2, q/2 + 1/2; q + 1; -x) in
    # mpmath within their printed bars
    code, out, _ = run_cli(capsys, "fourier", "--shape", "ellipse:a=2,b=1", "--s", "2+0i",
                           "--qmax", "8", "--method", "closed-form", "--format", "json")
    assert code == 0
    rows = json.loads(out)["coefficients"]
    assert [row["q"] for row in rows] == [0, 4, 8]
    with mpmath.workdps(40):
        x = mpmath.mpf(0.25) - 1
        for row in rows:
            k = row["q"] // 2
            exact = mpmath.binomial(-2, k) * (x / 4) ** k * mpmath.hyp2f1(2 + k, k + 0.5, 2 * k + 1, -x)
            assert abs(complex(row["value"]["re"], row["value"]["im"]) - exact) <= row["error_estimate"]
    # the image of the unit circle under diag(2, 1) is that ellipse, row for
    # row, and so is its quarter turn, the image under diag(1, 2)
    for g in ("2,0,0,1", "1,0,0,2"):
        code, out, _ = run_cli(capsys, "fourier", "--shape", "circle@gl2=" + g, "--s", "2+0i",
                               "--qmax", "8", "--method", "closed-form", "--format", "json")
        assert code == 0 and json.loads(out)["coefficients"] == rows
    # a/b = 1000 needs more Gauss terms than the cap: a numeric failure, at once
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fourier", "--shape", "ellipse:a=1000,b=1", "--s", "2+0i",
                             "--method", "closed-form")
    assert code == 2 and out == "" and "terms" in err
    assert time.perf_counter() - start < 5.0
    code, out, err = run_cli(capsys, "fourier", "--shape", "ellipse:a=2,b=1,phi=0.3", "--s", "2+0i",
                             "--method", "closed-form")
    assert code == 1 and out == "" and "unrotated" in err


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


def test_epstein_direct_prints_the_library_sum(capsys):
    code, out, _ = run_cli(capsys, "epstein", "--u", "1.0,0.5,1.0", "--s", "2+1i",
                           "--method", "direct", "--radius", "60")
    assert code == 0
    res = zeta.hlawka_direct(zeta.QuadForm2(1.0, 0.5, 1.0).region(), 2 + 1j, 60.0)
    assert json.loads(out) == {"form": [1.0, 0.5, 1.0], "s": {"re": 2.0, "im": 1.0}, "method": "direct",
                               **json.loads(json.dumps(res.to_json_dict()))}


def test_fourier_quadrature_json_prints_the_library_table(capsys):
    code, out, _ = run_cli(capsys, "fourier", "--shape", "cos:c0=1,c4=0.1", "--s", "0.5+1i",
                           "--qmax", "8", "--format", "json")
    assert code == 0
    table = fourier.fourier_coeffs(shapes.parse_shape("cos:c0=1,c4=0.1"), 0.5 + 1j, 8)
    payload = json.loads(out)
    assert payload["n_quad"] == table.n_quad
    assert payload["coefficients"] == [
        {"q": q, "value": {"re": table.coefficients[q].real, "im": table.coefficients[q].imag},
         "error_estimate": table.errors[q]} for q in sorted(table.coefficients)]


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


# pinned bytes: every CSV format keeps its exact text (the header, integers
# as integers, other values to 15 significant digits); the residuals are
# within 1.4e-14 of the per-line closed form evaluated in mpmath (30 digits)
PERRON_CSV = """T,residual
1.25386554862929,5.89946834704731
2.50773109725857,-2.1216722447488
3.76159664588786,-1.35145628826099
5.01546219451714,-0.0567019040212532
6.26932774314643,-2.6173211510823
7.52319329177571,0.0106175116621415
8.777058840405,-0.4361593127974
10.0309243890343,-1.19481431907316
11.2847899376636,1.76313609898435
12.5386554862929,-0.759766654199901
13.7925210349221,2.36136037206727
15.0463865835514,-0.113898965825431
16.3002521321807,0.830736839168121
17.55411768081,0.405045356944621
18.8079832294393,-1.51092788871586
20.0618487780686,-0.734957676546054
21.3157143266978,-0.380827404321956
22.5695798753271,-0.880161394749731
23.8234454239564,0.0291852482058936
25.0773109725857,-1.2048931310812
26.331176521215,0.179244946552871
27.5850420698443,-0.730310467134363
28.8389076184736,-0.261260140685209
30.0927731671028,-0.241951886224425
31.3466387157321,0.0902220208390425
32.6005042643614,0.64321331477092
33.8543698129907,0.542027777055717
35.10823536162,0.321741442262718
36.3621009102493,0.751785354568867
37.6159664588786,-0.61198573010208
38.8698320075078,-0.215246972233914
40,-0.259444815268275
"""


def test_perron_csv_is_pinned(capsys, tmp_path):
    csv_path = tmp_path / "study.csv"
    code, _, _ = run_cli(capsys, "perron", "--shape", "ellipse:a=1.3,b=1", "--x", "3.5",
                         "--T", "40", "--csv", str(csv_path))
    assert code == 0
    assert csv_path.read_text() == PERRON_CSV


@pytest.mark.parametrize("argv, expected", [
    (("act", "--shape", "odd", "--gl2", "2,1,1,1", "--grid", "8", "--format", "csv"),
     "theta,r\n"
     "0,1\n"
     "0.785398163397448,0.707106781186548\n"
     "1.5707963267949,0.333333333333333\n"
     "2.35619449019234,0.353553390593274\n"
     "3.14159265358979,1\n"
     "3.92699081698724,1.4142135623731\n"
     "4.71238898038469,0.5\n"
     "5.49778714378214,0.471404520791032\n"),
    (("fourier", "--shape", "ellipse:a=2,b=1,phi=0.3", "--s=-1.5+3i", "--qmax", "4",
      "--format", "csv"),
     "q,re,im\n"
     "-4,0.161253521588095,0.0425669576949632\n"
     "-3,-4.59248304750975e-17,-2.14014241120747e-17\n"
     "-2,-0.221943307446662,-0.225675247940327\n"
     "-1,1.0598227292292e-17,7.82563646587686e-18\n"
     "0,0.280075578541688,0.184663598898338\n"
     "1,3.45603397242238e-17,-3.97802878002585e-19\n"
     "2,-0.290761030323227,0.125084661324506\n"
     "3,-4.41765658093145e-18,4.3744186435176e-17\n"
     "4,-0.0901549207969295,-0.140309423660944\n"),
])
def test_csv_output_is_pinned(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


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
    assert payload["kind"] == "ellipse"
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


@pytest.mark.parametrize("argv", [
    ("circle-fe",),
    ("square-closed-form", "--radius", "1000"),
    ("fq-fe", "--q", "0"),
    ("fq-fe", "--q", "4"),
    ("ellipse-fe",),
    ("coefficient-identity",),
    ("odd-vs-square", "--tmax", "30"),
    ("regular-fe-probe",),
])
def test_reports_are_plain_json(capsys, monkeypatch, argv):
    # every report is built of JSON types: plain json.dumps, with no default
    # hook, gives the bytes verify prints
    reports = []
    verify_one = cli._verify_one
    monkeypatch.setattr(cli, "_verify_one", lambda *a: reports.append(verify_one(*a)) or reports[-1])
    code, out, _ = run_cli(capsys, "verify", "--which", *argv, "--samples", "3", "--seed", "5")
    assert code == 0 and len(reports) == 1
    assert json.dumps(reports[0].to_json_dict(), sort_keys=True, indent=2) + "\n" == out


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


@pytest.mark.parametrize("argv", [
    ("zeta", "--shape", "circle", "--s", "nan", "--radius", "50"),
    ("zeta", "--shape", "circle", "--s", "2+infi", "--radius", "50"),
    ("epstein", "--u", "1,0,1", "--s", "nan+1i"),
    ("eisenstein", "--s", "2", "--z", "inf+1i"),
    ("eisenstein", "--q", "4", "--s", "2", "--rotation", "nan"),
    ("eisenstein", "--q", "4", "--s", "2", "--rotation", "inf"),
    ("eisenstein", "--q", "4", "--s", "2", "--rotation", "nan", "--method", "continued"),
    ("perron", "--shape", "square", "--x", "10.5", "--T", "inf"),
    ("perron", "--shape", "square", "--x", "10.5", "--T", "1e9"),  # 1.5e9 lobes
    ("act", "--shape", "square", "--grid", "0"),
    ("act", "--shape", "square", "--grid", "-3"),
    ("verify", "--which", "all", "--samples", "0"),  # would pass checking nothing
    ("verify", "--which", "circle-fe", "--samples", "-3"),
    ("count", "--shape", "ellipse:a=2,b=1,phi=nan", "--x", "10"),
    ("act", "--shape", "ellipse:a=2,b=1,phi=inf@gl2=2,1,1,1"),
    ("count", "--shape", "circle:c=10@gl2=1e308,0,0,1e308", "--x", "10"),  # axes beyond floats
])
def test_non_finite_or_out_of_range_numbers_exit_1(capsys, monkeypatch, argv):
    def no_spectrum(*args, **kwargs):
        raise AssertionError("built a spectrum before validating the arguments")

    monkeypatch.setattr(funceq, "build_spectrum", no_spectrum)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


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


def test_overflowing_error_bar_exits_2(capsys):
    # r_max^(2 Re s) = 1e400 is a Python float power, which raises
    code, out, err = run_cli(capsys, "zeta", "--shape", "circle:c=1e100", "--s", "2+0i", "--radius", "50")
    assert code == 2 and out == "" and "overflows" in err


def test_overflowing_perron_integrand_exits_2(capsys):
    # (x / t)^(2 sigma) = 8.5^400 at the line t = 1 overflows E_1's e^(-z)
    code, out, err = run_cli(capsys, "perron", "--shape", "square", "--x", "8.5", "--sigma", "200", "--T", "10")
    assert code == 2 and out == "" and "overflows" in err


def test_phase_beyond_the_power_kernel_exits_1(capsys):
    code, out, err = run_cli(capsys, "zeta", "--shape", "circle", "--s", "2+1e14i", "--radius", "50")
    assert code == 1 and out == "" and "Im s" in err


def test_non_finite_result_exits_2(capsys):
    # the circle of radius 1e77 has terms of 1e308 at |p| = 1: their sum
    # overflows, which an EvalResult refuses
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, out, err = run_cli(capsys, "zeta", "--shape", "circle:c=1e77", "--s", "2+0i",
                                 "--radius", "50")
    assert code == 2
    assert out == ""
    assert "non-finite" in err


@pytest.mark.parametrize("spec", ["cos:c0=0.3,c4096=0.5", "cos:c0=1.46,c275=0.9633,c394=0.513"])
def test_series_negative_between_grid_points_exits_1_at_parse_time(capsys, spec):
    # r = 0.3 + 0.5 cos(4096 theta) is 0.8 on every point of a 4096-point
    # grid and -0.2 between them; the second dips to -0.0163 between the
    # points of grids up to 4096
    for args in (("zeta", "--s", "2+0i", "--radius", "60"), ("count", "--x", "3")):
        code, out, err = run_cli(capsys, args[0], "--shape", spec, *args[1:])
        assert code == 1 and out == "" and "must stay positive" in err


def test_count_reaches_the_series_true_r_max(capsys):
    # r_max 2.97628, where a 4096-point grid sees 2.94613; a walk to the
    # grid's radius missed 232 points
    code, out, _ = run_cli(capsys, "count", "--shape", "cos:c0=1.5,c275=-0.9633,c394=-0.513", "--x", "400")
    assert code == 0 and json.loads(out)["count"] == 1430479.0


def test_exit_code_usage_error(capsys):
    assert main(["nonsense-subcommand"]) == 1


def test_numpy_only_at_run_time():
    # README and pyproject.toml promise a numpy-only library: scipy and mpmath
    # serve the tests and the benchmark's oracles alone
    code = """
import contextlib, io, sys
from hlawka.cli import main
runs = [["zeta", "--shape", "cos:c0=1,c4=0.1", "--s", "2+1i", "--radius", "40"],
        ["spectrum", "--shape", "ellipse:a=2,b=1,phi=0.3", "--tmax", "10"],
        ["epstein", "--u", "1,0.5,1", "--s", "0.5+3i"],
        ["verify", "--which", "circle-fe", "--samples", "2"]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in ("scipy", "mpmath") if m in sys.modules))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
        (lattice, ("count_points", "build_spectrum", "spectrum_to_csv")),
        (
            zeta,
            (
                "hlawka_direct",
                "hlawka_from_spectrum",
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


def _references(path: Path) -> set[str]:
    """``module.name`` of every name the code in ``path`` refers to; a
    function's references to itself do not count."""
    tree = ast.parse(path.read_text())
    bound = {}  # local name -> module or module.name, from relative imports
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound[alias.asname or alias.name] = (
                    alias.name if node.module is None else f"{node.module}.{alias.name}")
    refs = set()
    for top in tree.body:
        own = f"{path.stem}.{top.name}" if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                ref = bound.get(node.id, f"{path.stem}.{node.id}")
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in bound:
                ref = f"{bound[node.value.id]}.{node.attr}"
            else:
                continue
            if ref != own:
                refs.add(ref)
    return refs


def test_every_exported_function_has_a_library_caller():
    # no test-only code in the library: each function in a module's __all__
    # is used by other library code, is an operation of a subcommand, or is
    # the console script; each module-level private function is used by
    # other library code
    package = Path(cli.__file__).parent
    assert 'hlawka = "hlawka.cli:main"' in (package.parents[1] / "pyproject.toml").read_text()
    called = set().union(*map(_references, package.glob("*.py")), OPERATION_MAP, {"cli.main"})
    modules = {path.stem: importlib.import_module(f"hlawka.{path.stem}")
               for path in package.glob("*.py") if path.stem != "__init__"}
    exported = {f"{stem}.{name}" for stem, mod in modules.items()
                for name in getattr(mod, "__all__", ()) if inspect.isfunction(getattr(mod, name))}
    assert {"special.upper_incomplete_gamma", "lattice.spectrum_to_csv"} <= exported
    assert sorted(exported - called) == []
    private = {f"{path.stem}.{top.name}" for path in package.glob("*.py")
               for top in ast.parse(path.read_text()).body
               if isinstance(top, ast.FunctionDef) and top.name.startswith("_")
               and not top.name.startswith("__")}
    assert {"lattice._image", "cli._parser", "special._prefactor"} <= private
    assert sorted(private - called) == []
