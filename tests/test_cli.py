import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dlgeom.cli as cli
import dlgeom.errors as errors
import dlgeom.ruled as ruled
from dlgeom import catalog
from dlgeom.cli import build_parser, main
from dlgeom.dual import DualScalar
from dlgeom.errors import DivisionByPureDual
from dlgeom.mannheim import RESIDUAL_KEYS
from dlgeom.lorentz import Vec3L

CONE = {"catalog": "cone", "params": {"a": 0.6, "b": 0.8},
        "domain": {"s_min": 0.0, "s_max": 1.0, "samples": 5}}
HELI = {"catalog": "helicoidal",
        "params": {"a": 0.6, "b": 0.8, "delta0": 0.2, "Delta0": 0.1, "c0": [0, 0, 0]},
        "domain": {"s_min": 0.05, "s_max": 0.95, "samples": 41}}


def _custom(w="u"):
    """Custom spacelike spec with a non-trivial striction curve, composed with the warp ``w``."""
    return {
        "catalog": "custom",
        "domain": {"s_min": 0.05, "s_max": 0.95, "samples": 21},
        "custom": {"e": [f"0.8*sinh({w}/0.8)", f"0.8*cosh({w}/0.8)", "0.6"],
                   "c": [f"0.1*{w}", f"0.2*{w}*{w}", f"0.15*{w}"]},
    }


def _profile_payload(**overrides):
    payload = {
        "gamma": 0.75, "delta": 0.2, "Delta": 0.1,
        "frame": {"e": [0.0, 0.8, 0.6], "t": [1.0, 0.0, 0.0],
                  "g": [0.0, 0.6, -0.8], "c": [0.0, 0.0, 0.0]},
        "domain": {"s_min": 0.0, "s_max": 1.0, "samples": 11},
    }
    payload.update(overrides)
    return payload


def _spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# frames

def test_frames_cone(tmp_path):
    spec = _spec(tmp_path, {**CONE, "domain": {"s_min": 0.0, "s_max": 1.0, "samples": 3}})
    out = tmp_path / "frames.csv"
    assert main(["frames", "--input", spec, "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 3
    assert all(float(r["gamma"]) == pytest.approx(0.75, abs=1e-12) for r in rows)


def test_frames_helicoidal_Delta_column(tmp_path):
    spec = _spec(tmp_path, HELI)
    out = tmp_path / "frames.csv"
    assert main(["frames", "--input", spec, "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert all(float(r["Delta"]) == pytest.approx(0.1, abs=1e-10) for r in rows)


def test_frames_rejects_two_samples(tmp_path):
    spec = _spec(tmp_path, {**CONE, "domain": {"s_min": 0.0, "s_max": 1.0, "samples": 2}})
    assert main(["frames", "--input", spec, "--out", str(tmp_path / "x.csv")]) == 2


def test_frames_rejects_bad_catalog_params(tmp_path, capsys):
    # the catalog's own checks, reported as spec errors
    spec = _spec(tmp_path, {**CONE, "params": {"a": 0.5, "b": 0.8}})
    assert main(["frames", "--input", spec, "--out", str(tmp_path / "x.csv")]) == 2
    spec = _spec(tmp_path, {**HELI, "params": {"a": 1.0, "b": 0.0}})
    assert main(["frames", "--input", spec, "--out", str(tmp_path / "x.csv")]) == 2
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["error"] for e in errors] == ["SpecFileError"] * 2
    assert "a^2 + b^2 = 1" in errors[0]["message"] and "b != 0" in errors[1]["message"]


@pytest.mark.parametrize("make", [catalog.cone, catalog.helicoidal],
                         ids=["cone", "helicoidal"])
def test_a_catalog_spec_without_params_takes_the_catalog_defaults(tmp_path, make):
    domain = {"s_min": 0.05, "s_max": 0.95, "samples": 21}
    spec = cli.load_surface_spec(_spec(tmp_path, {"catalog": make.__name__, "params": {},
                                                  "domain": domain}))
    want = make(domain=(0.05, 0.95), samples=21)
    assert (spec.name, spec.domain, spec.samples) == (want.name, want.domain, want.samples)
    got, ref = ruled.darboux_frame(spec), ruled.darboux_frame(want)
    for field in ("s", "gamma", "delta", "Delta", "s_star"):
        assert np.array_equal(getattr(got, field), getattr(ref, field)), field
    for field in ("e", "t", "g", "striction_point"):
        assert all(np.array_equal(x, y) for x, y in zip(getattr(got, field), getattr(ref, field)))


def test_frames_rejects_reversed_domain(tmp_path):
    spec = _spec(tmp_path, {**CONE, "domain": {"s_min": 1.0, "s_max": 0.0, "samples": 5}})
    assert main(["frames", "--input", spec, "--out", str(tmp_path / "x.csv")]) == 2


def test_frames_custom_expression_surface(tmp_path):
    payload = {
        "catalog": "custom",
        "domain": {"s_min": 0.0, "s_max": 0.5, "samples": 5},
        "custom": {"e": ["0.8*sinh(u/0.8)", "0.8*cosh(u/0.8)", "0.6"],
                   "c": ["0", "0", "0"]},
    }
    out = tmp_path / "frames.csv"
    assert main(["frames", "--input", _spec(tmp_path, payload), "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert all(float(r["gamma"]) == pytest.approx(0.75, abs=1e-10) for r in rows)


def test_frames_custom_timelike_surface(tmp_path):
    # timelike unit ruling with unit spacelike tangent: a planar hyperbola
    payload = {
        "catalog": "custom",
        "domain": {"s_min": 0.0, "s_max": 1.0, "samples": 7},
        "custom": {"e": ["cosh(u)", "sinh(u)", "0"],
                   "c": ["0", "0", "0"],
                   "kind": "timelike-surface"},
    }
    out = tmp_path / "frames.csv"
    assert main(["frames", "--input", _spec(tmp_path, payload), "--out", str(out)]) == 0
    rows = _read_csv(out)
    for r in rows:
        assert float(r["gamma"]) == pytest.approx(0.0, abs=1e-9)
        assert float(r["R_re"]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("w", ["u", "(u + 0.3*u*u)"], ids=["plain", "warped"])
def test_frames_central_fd_custom_spec_matches_dual_ad(tmp_path, w):
    # the striction check reads the exact c', so FD's O(h^2) error in c' cannot trip it
    spec = _spec(tmp_path, _custom(w))
    rows = {}
    for mode in ("dual-ad", "central-fd"):
        out = tmp_path / f"{mode}.csv"
        assert main(["frames", "--input", spec, "--out", str(out), "--deriv", mode]) == 0
        rows[mode] = _read_csv(out)
    assert len(rows["central-fd"]) == 21
    for a, b in zip(rows["dual-ad"], rows["central-fd"]):
        for key in ("gamma", "delta", "Delta"):
            assert float(b[key]) == pytest.approx(float(a[key]), abs=1e-6)


def _child_error(*argv) -> tuple[int, dict]:
    """Exit code and last stderr line of dlgeom run as a child process.

    That, and any numpy RuntimeWarning (asserted absent), is what a user sees.
    """
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "dlgeom.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert "RuntimeWarning" not in proc.stderr
    return proc.returncode, json.loads(proc.stderr.strip().splitlines()[-1])


@pytest.mark.parametrize("mode", ["dual-ad", "central-fd"])
@pytest.mark.parametrize("expr,code,error,u", [
    ("exp(800*u)", 2, "NonFinite", "u=0.9"),
    ("0.01/(u-0.5)", 3, "DivisionByPureDual", "u=0.5"),
    ("1e400*u", 2, "NonFinite", "u=0.0"),
], ids=["overflow", "pure-dual-division", "overflowing-literal"])
def test_frames_bad_custom_expression_names_the_sample(tmp_path, mode, expr, code, error, u):
    payload = {"catalog": "custom",
               "domain": {"s_min": 0.0, "s_max": 1.0, "samples": 11},
               "custom": {"e": ["0.8*sinh(u/0.8)", "0.8*cosh(u/0.8)", "0.6"],
                          "c": ["0.1*u", "0.2*u*u", expr]}}
    returncode, last = _child_error("frames", "--input", _spec(tmp_path, payload),
                                    "--out", str(tmp_path / "x.csv"), "--deriv", mode)
    assert returncode == code, last
    assert last["error"] == error
    assert last["message"].endswith(u)


def _overflow_error(tmp_path, expr) -> tuple[int, dict]:
    payload = {"catalog": "custom",
               "domain": {"s_min": 0.0, "s_max": 1.0, "samples": 11},
               "custom": {"e": ["0.8*sinh(u/0.8)", "0.8*cosh(u/0.8)", "0.6"],
                          "c": ["0.1*u", "0.2*u*u", expr]}}
    return _child_error("frames", "--input", _spec(tmp_path, payload), "--out", str(tmp_path / "x.csv"))


def test_frames_overflowing_constant_is_a_spec_error(tmp_path):
    # a lifted constant overflows to inf, as an array does, and the vector
    # refuses it at the first point of the pass
    assert _overflow_error(tmp_path, "exp(800.0)") == (
        2, {"error": "NonFinite", "message": "non-finite vector component: inf at u=0.0"})


def test_frames_overflowing_integer_literal_names_the_expression(tmp_path):
    # Python arithmetic still raises OverflowError on an int too large for a float
    expr = "1" + "0" * 400 + "*u"
    assert _overflow_error(tmp_path, expr) == (
        2, {"error": "NonFinite", "message": f"expression {expr!r} overflows"})


def test_custom_expression_rejects_unsafe_code(tmp_path):
    payload = {
        "catalog": "custom",
        "domain": {"s_min": 0.0, "s_max": 0.5, "samples": 5},
        "custom": {"e": ["__import__('os').system('true')", "1", "0"],
                   "c": ["0", "0", "0"]},
    }
    assert main(["frames", "--input", _spec(tmp_path, payload),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_custom_expression_rejects_lifts_outside_the_grammar(tmp_path):
    payload = {
        "catalog": "custom",
        "domain": {"s_min": 0.0, "s_max": 0.5, "samples": 5},
        "custom": {"e": ["0.8*sinh(u/0.8)", "0.8*cosh(u/0.8)", "0.6 + 0*tanh(u)"],
                   "c": ["0", "0", "0"]},
    }
    assert main(["frames", "--input", _spec(tmp_path, payload),
                 "--out", str(tmp_path / "x.csv")]) == 2


def _last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


#: an integer too long for json to convert (over 4300 digits); the test writes
#: it into the file unquoted, in place of this string
_LONG_INT = "1" * 5001


@pytest.mark.parametrize("domain,params,flags,named", [
    ({"s_min": "abc"}, {}, [], "s_min"),
    ({"samples": "x"}, {}, [], "samples"),
    ({}, {"c0": [0, 0]}, [], "c0"),
    ({"s_max": math.inf}, {}, [], "s_max"),
    ({}, {}, ["--samples", "0"], "samples"),
    ({}, {"Delta_0": 0.5, "delta0": 0.3}, [], "Delta_0"),
    ({"s_min": True, "s_max": 1.5}, {}, [], "s_min"),
    ({"s_min": "0.5"}, {}, [], "s_min"),
    ({"s_min": 10 ** 400}, {}, [], "s_min"),
    ({}, {"c0": [10 ** 400, 0, 0]}, [], "c0"),
    ({"s_min": _LONG_INT}, {}, [], "spec.json"),
], ids=["s_min-text", "samples-text", "c0-two-elements", "s_max-infinite", "samples-zero",
        "params-misspelt", "s_min-boolean", "s_min-numeric-text", "s_min-401-digits",
        "c0-401-digits", "s_min-5001-digits"])
def test_frames_malformed_input_exits_2(tmp_path, capsys, domain, params, flags, named):
    payload = {**HELI, "domain": {**HELI["domain"], **domain},
               "params": {**HELI["params"], **params}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload).replace(json.dumps(_LONG_INT), _LONG_INT))
    assert main(["frames", "--input", str(path), "--out", str(tmp_path / "x.csv"), *flags]) == 2
    error = _last_error(capsys)
    assert error["error"] == "SpecFileError" and named in error["message"]


def _directrix(*c):
    """The custom spec of :func:`_custom` with the directrix components ``c``."""
    payload = _custom()
    return {**payload, "custom": {**payload["custom"], "c": list(c)}}


@pytest.mark.parametrize("command,text,message", [
    ("frames", json.dumps(_directrix("0.1*x", "0", "0")),
     "unknown name 'x' in '0.1*x' (the variable is 'u')"),
    ("frames", json.dumps(_directrix("u**2", "0", "0")),
     ("unsupported syntax BinOp(", "op=Pow()", ") in 'u**2'")),
    ("frames", json.dumps(_directrix("log(u)", "0", "0")),
     "only ['cos', 'cosh', 'exp', 'sin', 'sinh'] calls allowed in 'log(u)'"),
    ("frames", json.dumps(_directrix("0.1*(u", "0", "0")),
     ("cannot parse expression '0.1*(u': ", "line 1)")),
    ("frames", json.dumps(_directrix("0.1*u", "0")),
     "a curve needs exactly 3 component expressions"),
    ("frames", json.dumps({**_custom(), "params": {"a": 0.6}}),
     "unknown params ['a'] for 'custom', which takes []"),
    ("frames", json.dumps({**HELI, "catalog": "sphere"}), "unknown catalog entry 'sphere'"),
    ("frames", '{"catalog": "cone",', ("invalid JSON in {path}: ", "line 1 column 20 (char 19)")),
    ("reconstruct", json.dumps(_profile_payload(gamma=[0.75])),
     "profile entry 'gamma' must be a number or expression string"),
], ids=["unknown-name", "power", "call-outside-the-lifts", "syntax-error", "two-components",
        "custom-params", "unknown-catalog-entry", "invalid-json", "profile-list-entry"])
def test_a_file_outside_the_grammar_exits_2_naming_why(tmp_path, capsys, command, text, message):
    # a tuple gives the pieces of a message whose wording between them varies
    # with the Python version
    path = tmp_path / "in.json"
    path.write_text(text)
    assert main([command, "--input", str(path), "--out", str(tmp_path / "x")]) == 2
    error = _last_error(capsys)
    pieces = message if isinstance(message, tuple) else (message,)
    assert error["error"] == "SpecFileError"
    assert re.fullmatch(".*".join(re.escape(p.format(path=path)) for p in pieces),
                        error["message"]), error["message"]


@pytest.mark.parametrize("mode", ["dual-ad", "central-fd"])
@pytest.mark.parametrize("e,s_min,error,message", [
    (["sinh(u)", "cosh(u)", "0.5"], 0.0, "FrameDegeneracy",
     "frame residual up to 2.500e-01, first over 1e-06 at u=0.0"),
    (["0.8*sinh((u-0.5)*(u-0.5)/0.8)", "0.8*cosh((u-0.5)*(u-0.5)/0.8)", "0.6"], 0.0,
     "DegenerateIndicatrix", "striction undefined: e' vanishes near u=0.5"),
    # the catalog's e on (100, 101): <e', e'> = -cosh^2 + sinh^2 rounds to 0
    (["0.8*sinh(u/0.8)", "0.8*cosh(u/0.8)", "0.6"], 100.0, "DegenerateIndicatrix",
     "striction undefined: <e', e'> = 0 for a nonzero e' (components up to 9.678e+53) "
     "near u=100.0: the tangent is lightlike or the closure lost <e', e'> to rounding"),
], ids=["non-unit-ruling", "stalled-ruling", "rounded-null-tangent"])
def test_frames_degenerate_ruling_exits_3(tmp_path, capsys, mode, e, s_min, error, message):
    payload = {"catalog": "custom",
               "domain": {"s_min": s_min, "s_max": s_min + 1.0, "samples": 11},
               "custom": {"e": e, "c": ["0", "0", "0"]}}
    assert main(["frames", "--input", _spec(tmp_path, payload),
                 "--out", str(tmp_path / "x.csv"), "--deriv", mode]) == 3
    assert _last_error(capsys) == {"error": error, "message": message}


# ---------------------------------------------------------------------------
# offset

def test_offset_helicoidal_passes(tmp_path):
    spec = _spec(tmp_path, HELI)
    out = tmp_path / "report"
    code = main(["offset", "--input", spec, "--out", str(out),
                 "--mannheim-c", "1.0", "--mannheim-cstar", "0.0"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdicts"]["passed"] is True
    assert report["summary"]["max"]["gamma1"] < 1e-6


def test_negative_exponent_cstar_in_the_equals_form_passes(tmp_path):
    out = tmp_path / "report"
    assert main(["offset", "--input", _spec(tmp_path, HELI), "--out", str(out),
                 "--mannheim-cstar=-8.78e-05"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdicts"]["passed"] is True
    assert report["metadata"]["mannheim"]["c_star"] == -8.78e-05


@pytest.mark.parametrize("command,flag,value", [
    ("offset", "--mannheim-cstar", "-8.78e-05"),
    ("offset", "--mannheim-c", "-1e-3"),
    ("mesh", "--v-range", "-1,1"),
], ids=["offset-cstar", "offset-c", "mesh-v-range"])
def test_a_negative_value_after_a_space_parses_as_the_equals_form(tmp_path, command, flag, value):
    # argparse alone reads -8.78e-05 or -1,1 after a space as an option and exits 2
    spec = _spec(tmp_path, HELI)
    outputs = []
    for form in ([flag, value], [f"{flag}={value}"]):
        out = tmp_path / f"run{len(outputs)}"
        out.mkdir()
        assert main([command, "--input", spec, "--out", str(out / "result"), *form]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1] and outputs[0]


def test_an_unknown_option_with_a_negative_value_still_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["offset", "--input", _spec(tmp_path, HELI), "--out", str(tmp_path / "r"),
              "--mannheim-cstr", "-8.78e-05"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mannheim-cstr=-8.78e-05" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["offset", "reconstruct"])
@pytest.mark.parametrize("mode", ["dual-ad", "central-fd"])
def test_deriv_is_rejected_outside_frames(tmp_path, capsys, command, mode):
    # the offset check and the reconstruction's measurement are dual-AD only
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", "unused.json", "--out", str(tmp_path / "r"), "--deriv", mode])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --deriv {mode}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_offset_report_summary_matches_rows(tmp_path):
    # the CSV is the per-sample table: each residual is |<key>_pred - <key>_meas|
    # of a row, and the summary folds them in row order
    spec = _spec(tmp_path, HELI)
    out = tmp_path / "report.json"
    assert main(["offset", "--input", spec, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    rows = _read_csv(tmp_path / "report.csv")
    assert set(report["summary"]["max"]) == set(report["summary"]["mean"]) == set(RESIDUAL_KEYS)
    for key in RESIDUAL_KEYS:
        residuals = [abs(float(r[f"{key}_pred"]) - float(r[f"{key}_meas"])) for r in rows]
        assert report["summary"]["max"][key] == max(residuals)
        assert report["summary"]["mean"][key] == sum(residuals) / len(residuals)


def test_offset_json_is_the_verdict_and_the_csv_the_table(tmp_path):
    out = tmp_path / "report"
    assert main(["offset", "--input", _spec(tmp_path, HELI), "--out", str(out)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {"metadata", "summary", "verdicts"}
    # the check has one derivative mode, so the tolerance is all its config
    assert report["metadata"]["config"] == {"tolerance": 1e-8}
    rows = _read_csv(tmp_path / "report.csv")
    assert len(rows) == HELI["domain"]["samples"]
    assert list(rows[0]) == ["s", "theta", "theta_star",
                             *(f"{k}_{side}" for k in RESIDUAL_KEYS for side in ("pred", "meas"))]


def test_offset_cone_delta1_equals_minus_theta_star(tmp_path):
    spec = _spec(tmp_path, {**CONE, "domain": {"s_min": 0.05, "s_max": 0.95, "samples": 21}})
    out = tmp_path / "cone_report"
    assert main(["offset", "--input", spec, "--out", str(out),
                 "--mannheim-c", "1.0", "--mannheim-cstar", "0.3"]) == 0
    rows = _read_csv(tmp_path / "cone_report.csv")
    for r in rows:
        assert float(r["delta1_meas"]) == pytest.approx(-float(r["theta_star"]), abs=1e-8)


def test_offset_tolerance_failure_exit_code(tmp_path):
    spec = _spec(tmp_path, HELI)
    code = main(["offset", "--input", spec, "--out", str(tmp_path / "r"),
                 "--tolerance", "1e-18"])
    assert code == 4


@pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"],
                         ids=["tolerance-nan", "tolerance-negative", "tolerance-zero",
                              "tolerance-infinite"])
def test_offset_malformed_tolerance_exits_2(tmp_path, capsys, tolerance):
    assert main(["offset", "--input", _spec(tmp_path, HELI), "--out", str(tmp_path / "r"),
                 "--tolerance", tolerance]) == 2
    assert _last_error(capsys)["error"] == "SpecFileError"


@pytest.mark.parametrize("command", ["offset", "mesh", "mesh-without-offset"])
@pytest.mark.parametrize("flag", ["--mannheim-c", "--mannheim-cstar"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_mannheim_constant_exits_2(tmp_path, capsys, command, flag, value):
    # mesh reads the constants whether or not it builds the offset
    out = tmp_path / ("r" if command == "offset" else "m.obj")
    flags = ["--offset"] if command == "mesh" else []
    assert main([command.split("-")[0], "--input", _spec(tmp_path, HELI), "--out", str(out),
                 *flags, f"{flag}={value}"]) == 2
    last = _last_error(capsys)
    assert last["error"] == "SpecFileError" and last["message"].startswith(f"{flag} "), last


TIMELIKE = {
    "catalog": "custom",
    "domain": {"s_min": 0.0, "s_max": 1.0, "samples": 7},
    "custom": {"e": ["cosh(u)", "sinh(u)", "0"], "c": ["0", "0", "0"],
               "kind": "timelike-surface"},
}


def test_offset_rejects_timelike_base(tmp_path):
    assert main(["offset", "--input", _spec(tmp_path, TIMELIKE),
                 "--out", str(tmp_path / "r")]) == 2


def test_mesh_offset_rejects_timelike_base(tmp_path, capsys):
    assert main(["mesh", "--input", _spec(tmp_path, TIMELIKE),
                 "--out", str(tmp_path / "m.obj"), "--offset"]) == 2
    last = _last_error(capsys)
    assert last == {"error": "SpecFileError", "message": "--offset needs a spacelike base surface"}


def test_offset_warped_custom_spec_passes(tmp_path):
    out = tmp_path / "report"
    assert main(["offset", "--input", _spec(tmp_path, _custom("(u + 0.3*u*u)")),
                 "--out", str(out)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdicts"]["passed"] is True


def test_offset_of_a_deeply_nested_small_divisor_passes(tmp_path):
    # c1 = 1e-8/(u + 2e-4): the offset's measurement divides by u + 2e-4 at
    # nesting depth 3, where (u + 2e-4)^4 < DIV_TOL at u = 0; only the leading
    # real 2e-4 is held against DIV_TOL, so the theorem is checked there
    payload = {"catalog": "custom", "domain": {"s_min": 0.0, "s_max": 0.5, "samples": 51},
               "custom": {"e": ["0.8*sinh(u/0.8)", "0.8*cosh(u/0.8)", "0.6"],
                          "c": ["1e-8/(u + 0.0002)", "0.1*u*u", "0.2*u"]}}
    spec = _spec(tmp_path, payload)
    assert main(["frames", "--input", spec, "--out", str(tmp_path / "f.csv")]) == 0
    assert main(["offset", "--input", spec, "--out", str(tmp_path / "r")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["verdicts"]["passed"] is True
    assert max(report["summary"]["max"].values()) < 1e-10


@pytest.mark.parametrize("command", ["offset", "mesh"])
@pytest.mark.parametrize("c", ["800", "-800"])
def test_overflowing_offset_angle_is_degenerate(tmp_path, capsys, command, c):
    # cosh(theta) overflows: a typed degeneracy, not a traceback or a numpy warning
    out = tmp_path / ("m.obj" if command == "mesh" else "r")
    flags = ["--offset"] if command == "mesh" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--input", _spec(tmp_path, HELI), "--out", str(out), *flags,
                     f"--mannheim-c={c}"])
    assert code == 3
    last = _last_error(capsys)
    assert last["error"] == "DegenerateOffset" and "inf" in last["message"]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_offset_zero_gamma_degenerate(tmp_path):
    spec = _spec(tmp_path, {"catalog": "cone", "params": {"a": 0.0, "b": 1.0},
                            "domain": {"s_min": 0.05, "s_max": 0.95, "samples": 11}})
    assert main(["offset", "--input", spec, "--out", str(tmp_path / "r")]) == 3


def test_offset_gamma_sign_change_degenerate(tmp_path, capsys):
    # gamma changes sign between two nodes near u = 0.5, where the offset ruling stalls
    phi = "(0.2*u + 0.3*(u - 0.5)*(u - 0.5)*(u - 0.5))"
    spec = _spec(tmp_path, {
        "catalog": "custom",
        "domain": {"s_min": 0.05, "s_max": 0.95, "samples": 11},
        "custom": {"e": ["sinh(u)", f"cosh(u)*cos{phi}", f"cosh(u)*sin{phi}"],
                   "c": ["0.1*u", "0.2*u*u", "0.15*u"]},
    })
    assert main(["offset", "--input", spec, "--out", str(tmp_path / "r")]) == 3
    last = _last_error(capsys)
    assert last["error"] == "DegenerateOffset" and "gamma changes sign" in last["message"]


# ---------------------------------------------------------------------------
# mesh

def test_mesh_minimal_grid(tmp_path):
    spec = _spec(tmp_path, {**CONE, "domain": {"s_min": 0.0, "s_max": 1.0, "samples": 3}})
    out = tmp_path / "m.obj"
    assert main(["mesh", "--input", spec, "--out", str(out), "--samples", "3",
                 "--v-range", "0,1", "--v-samples", "2"]) == 0
    lines = out.read_text().splitlines()
    verts = [ln for ln in lines if ln.startswith("v ")]
    faces = [ln for ln in lines if ln.startswith("f ")]
    assert len(verts) == 6 and len(faces) == 2
    # vertex at (s=0, v=1): c0 + e(0) = (0, 0.8, 0.6)
    x, y, z = (float(t) for t in verts[1].split()[1:])
    assert (x, y, z) == pytest.approx((0.0, 0.8, 0.6), abs=1e-9)


def test_mesh_vertices_reproduce_surface_map(tmp_path):
    spec = _spec(tmp_path, {**HELI, "domain": {"s_min": 0.0, "s_max": 0.4, "samples": 5}})
    out = tmp_path / "m.obj"
    assert main(["mesh", "--input", spec, "--out", str(out),
                 "--v-range=-0.5,0.5", "--v-samples", "3"]) == 0
    from dlgeom import catalog
    ref = catalog.helicoidal(domain=(0.0, 0.4), samples=5)
    verts = [ln.split()[1:] for ln in out.read_text().splitlines() if ln.startswith("v ")]
    k = 0
    for s in ref.grid():
        c = ref.base_curve(float(s))
        e = ref.indicatrix(float(s))
        for v in (-0.5, 0.0, 0.5):
            p = c + v * e
            got = Vec3L(*(float(t) for t in verts[k]))
            assert max(abs(x - y) for x, y in zip(got, p)) < 1e-8
            k += 1


def test_mesh_rejects_degenerate_band(tmp_path):
    spec = _spec(tmp_path, CONE)
    assert main(["mesh", "--input", spec, "--out", str(tmp_path / "m.obj"),
                 "--v-range", "0,0", "--v-samples", "2"]) == 2


@pytest.mark.parametrize("v_range", ["0,inf", "-inf,0", "nan,1", "0,x", "0,1,2"])
def test_mesh_malformed_v_range_exits_2(tmp_path, capsys, v_range):
    assert main(["mesh", "--input", _spec(tmp_path, CONE), "--out", str(tmp_path / "m.obj"),
                 f"--v-range={v_range}"]) == 2
    assert _last_error(capsys)["error"] == "SpecFileError"


def test_mesh_offset_object(tmp_path):
    spec = _spec(tmp_path, {**HELI, "domain": {"s_min": 0.05, "s_max": 0.95, "samples": 7}})
    out = tmp_path / "m.obj"
    assert main(["mesh", "--input", spec, "--out", str(out), "--offset",
                 "--v-range", "0,1", "--v-samples", "2"]) == 0
    text = out.read_text().splitlines()
    assert "o base" in text and "o offset" in text
    verts = [ln.split()[1:] for ln in text if ln.startswith("v ")]
    assert len(verts) == 2 * 7 * 2
    # offset ruling at each s: vertex(v=1) - vertex(v=0) equals e1(s)
    from dlgeom import catalog
    from dlgeom.mannheim import MannheimParams, construct_offset
    base = catalog.helicoidal(domain=(0.05, 0.95), samples=7)
    off = construct_offset(base, MannheimParams(1.0, 0.0))
    for i, s in enumerate(base.grid()):
        lo = verts[14 + 2 * i]
        hi = verts[14 + 2 * i + 1]
        got = Vec3L(*(float(a) - float(b) for a, b in zip(hi, lo)))
        want = off.indicatrix(float(s))
        assert max(abs(x - y) for x, y in zip(got, want)) < 1e-8


# ---------------------------------------------------------------------------
# reconstruct

def test_reconstruct_cone_profile(tmp_path):
    prof = _profile_payload(gamma=0.75, delta=0.0, Delta=0.0)
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(prof))
    out = tmp_path / "recon"
    assert main(["reconstruct", "--input", str(path), "--out", str(out)]) == 0
    rows = _read_csv(tmp_path / "recon.csv")
    assert len(rows) == 11
    residuals = json.loads((tmp_path / "recon.json").read_text())
    assert residuals["max"]["gamma"] < 1e-9
    # a cone keeps its striction point fixed
    for r in rows:
        drift = max(abs(float(r[k])) for k in ("c1", "c2", "c3"))
        assert drift < 1e-9


def test_reconstruct_round_trip_residuals(tmp_path):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(_profile_payload()))
    out = tmp_path / "recon"
    assert main(["reconstruct", "--input", str(path), "--out", str(out)]) == 0
    residuals = json.loads((tmp_path / "recon.json").read_text())
    for key in ("gamma", "delta", "Delta"):
        assert residuals["max"][key] < 1e-7


def test_reconstruct_expression_profile(tmp_path):
    prof = _profile_payload(gamma="0.75 + 0.1*sin(u)")
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(prof))
    assert main(["reconstruct", "--input", str(path), "--out", str(tmp_path / "r")]) == 0
    residuals = json.loads((tmp_path / "r.json").read_text())
    assert residuals["max"]["gamma"] < 1e-7


def test_reconstruct_empty_domain_single_row(tmp_path):
    prof = _profile_payload(domain={"s_min": 0.3, "s_max": 0.3, "samples": 11})
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(prof))
    assert main(["reconstruct", "--input", str(path), "--out", str(tmp_path / "r")]) == 0
    assert len(_read_csv(tmp_path / "r.csv")) == 1


@pytest.mark.parametrize("s_min,s_max", [(0.5, 1.0), (0.3, 0.3)])
def test_reconstruct_profile_off_the_origin_keeps_arc_length(tmp_path, s_min, s_max):
    prof = _profile_payload(Delta="0.1 + 0.05*u",
                            domain={"s_min": s_min, "s_max": s_max, "samples": 11})
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(prof))
    assert main(["reconstruct", "--input", str(path), "--out", str(tmp_path / "r")]) == 0
    first = _read_csv(tmp_path / "r.csv")[0]
    # s and s* are anchored at parameter 0, not at the profile's first sample
    assert float(first["s"]) == pytest.approx(s_min, abs=1e-12)
    assert float(first["s_star"]) == pytest.approx(0.1 * s_min + 0.025 * s_min ** 2, abs=1e-12)
    residuals = json.loads((tmp_path / "r.json").read_text())
    assert residuals["max"]["Delta"] < 1e-9


def test_reconstruct_samples_flag_overrides_the_profile(tmp_path):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(_profile_payload()))
    assert main(["reconstruct", "--input", str(path), "--out", str(tmp_path / "r"),
                 "--samples", "5"]) == 0
    rows = _read_csv(tmp_path / "r.csv")
    assert [float(r["s"]) for r in rows] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-12)
    assert json.loads((tmp_path / "r.json").read_text())["samples"] == 5


@pytest.mark.parametrize("flag", [[], ["--samples", "1"]], ids=["file", "flag"])
def test_reconstruct_rejects_one_sample_on_an_interval(tmp_path, capsys, flag):
    # an interval has two ends, so one sample is an error, not a silent 2
    samples = 11 if flag else 1
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(_profile_payload(
        domain={"s_min": 0.0, "s_max": 1.0, "samples": samples})))
    assert main(["reconstruct", "--input", str(path), "--out", str(tmp_path / "r"), *flag]) == 2
    last = _last_error(capsys)
    assert last["error"] == "SpecFileError" and last["message"].endswith("samples >= 2, got 1")
    assert not (tmp_path / "r.csv").exists()


# ids kept from when reconstruct also measured in central-fd
@pytest.mark.parametrize("s0", [0.3, 0.0, -0.3], ids=lambda s0: f"dual-ad-{s0}")
def test_reconstruct_single_row_is_measured(tmp_path, s0):
    prof = _profile_payload(Delta="0.1 + 0.05*u", domain={"s_min": s0, "s_max": s0})
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(prof))
    assert main(["reconstruct", "--input", str(path), "--out", str(tmp_path / "r")]) == 0
    residuals = json.loads((tmp_path / "r.json").read_text())
    assert residuals["samples"] == 1
    assert max(residuals["max"].values()) < 1e-8


def test_reconstruct_single_row_sees_a_wrong_surface(tmp_path, monkeypatch):
    # a copied row would report 0 whatever the surface; a measured one cannot
    real = cli.reconstruct_from_invariants
    monkeypatch.setattr(cli, "reconstruct_from_invariants", lambda profile, grid: real(
        dataclasses.replace(profile, gamma=lambda s: 0.8), grid))
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(_profile_payload(domain={"s_min": 0.3, "s_max": 0.3})))
    assert main(["reconstruct", "--input", str(path), "--out", str(tmp_path / "r")]) == 0
    residuals = json.loads((tmp_path / "r.json").read_text())
    assert residuals["max"]["gamma"] == pytest.approx(0.05, abs=1e-8)


@pytest.mark.parametrize("entry,domain,code,error,where", [
    ({"Delta": "0.01/(u-0.5)"}, {"s_min": 0.0, "s_max": 1.0}, 3, "DivisionByPureDual", "u=0.5"),
    ({"Delta": "0.01/u"}, {"s_min": 0.0, "s_max": 0.0}, 3, "DivisionByPureDual", "u=0.0"),
    ({"gamma": "exp(800*u)"}, {"s_min": 0.0, "s_max": 1.0}, 2, "NonFinite", "s=0.887"),
], ids=["pole-on-a-node", "pole-zero-span", "overflow"])
def test_reconstruct_bad_profile_expression_names_s(tmp_path, entry, domain, code, error, where):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(_profile_payload(**entry, domain=domain)))
    returncode, last = _child_error("reconstruct", "--input", str(path),
                                    "--out", str(tmp_path / "r"))
    assert returncode == code, last
    assert last["error"] == error
    assert where in last["message"]


def test_reconstruct_drift_over_tolerance_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ruled, "DRIFT_TOL", 0.0)
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(_profile_payload()))
    assert main(["reconstruct", "--input", str(path), "--out", str(tmp_path / "r")]) == 3
    assert _last_error(capsys)["error"] == "StepSizeError"


@pytest.mark.parametrize("source,u", [("0.01/u", 0.0), ("0.01/u", DualScalar(0.0, 1.0)),
                                      ("1/0 + u", np.zeros(3))])
def test_expression_division_by_zero_is_typed(source, u):
    with pytest.raises(DivisionByPureDual):
        cli.compile_scalar_expr(source)(u)


def test_reconstruct_rejects_skew_frame(tmp_path):
    prof = _profile_payload()
    prof["frame"]["g"] = [0.0, -0.6, 0.8]
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(prof))
    assert main(["reconstruct", "--input", str(path), "--out", str(tmp_path / "r")]) == 2


def test_reconstruct_rejects_a_seed_whose_gram_entries_overflow(tmp_path, capsys):
    # <e, e> = -inf + inf is NaN, which must not pass for orthonormal
    prof = _profile_payload()
    prof["frame"] = {"e": [1e200, 1e200, 0.0], "t": [1.0, 0.0, 0.0],
                     "g": [0.0, 0.0, 1.0], "c": [0.0, 0.0, 0.0]}
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(prof))
    assert main(["reconstruct", "--input", str(path), "--out", str(tmp_path / "r")]) == 2
    error = _last_error(capsys)
    assert error["error"] == "SpecFileError"
    assert error["message"].startswith("profile frame seed rejected")


@pytest.mark.parametrize("field,value,named", [
    ("domain", {"s_min": "abc", "s_max": 1.0, "samples": 11}, "s_min"),
    ("domain", {"s_min": 0.0, "s_max": 1.0, "samples": "x"}, "samples"),
    ("frame", {"e": [0.0, 0.8], "t": [1.0, 0.0, 0.0], "g": [0.0, 0.6, -0.8], "c": [0, 0, 0]},
     "frame e"),
    ("gamma", True, "gamma"),
    ("frame", {"e": [0.0, 0.8, 0.6], "t": [True, 0, 0], "g": [0.0, 0.6, -0.8], "c": [0, 0, 0]},
     "frame t"),
    ("frame", {"e": [0.0, 0.8, 0.6], "t": [1.0, 0.0, 0.0], "g": [0.0, 0.6, -0.8],
               "c": ["0", 1, 0]}, "frame c"),
], ids=["s_min-text", "samples-text", "e-two-elements", "gamma-boolean", "t-boolean",
        "c-numeric-text"])
def test_reconstruct_malformed_profile_exits_2(tmp_path, capsys, field, value, named):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(_profile_payload(**{field: value})))
    assert main(["reconstruct", "--input", str(path), "--out", str(tmp_path / "r")]) == 2
    error = _last_error(capsys)
    assert error["error"] == "SpecFileError" and named in error["message"]


# ---------------------------------------------------------------------------
# study

def test_study_line_to_dual(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"point": [0, 0, 0], "dir": [0, 1, 0]}))
    out = tmp_path / "dual.json"
    assert main(["study", "--input", str(path), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["a"] == [0.0, 1.0, 0.0]
    assert data["a_star"] == [0.0, 0.0, 0.0]
    assert data["round_trip_ok"] is True


def test_study_round_trip_moment(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"point": [1, 0, 0], "dir": [0, 1, 0]}))
    out = tmp_path / "dual.json"
    assert main(["study", "--input", str(path), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["a_star"] == [0.0, 0.0, -1.0]
    back_in = tmp_path / "back.json"
    back_in.write_text(json.dumps({"a": data["a"], "a_star": data["a_star"]}))
    back_out = tmp_path / "line2.json"
    assert main(["study", "--input", str(back_in), "--out", str(back_out)]) == 0
    line = json.loads(back_out.read_text())
    assert line["dir"] == [0.0, 1.0, 0.0]
    assert line["round_trip_ok"] is True


def test_study_lightlike_direction_fails(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"point": [0, 0, 0], "dir": [1, 1, 0]}))
    assert main(["study", "--input", str(path)]) == 2


@pytest.mark.parametrize("data", [
    {"point": [1, 2], "dir": [1, 0, 0]},
    {"point": [0, 0, 0], "dir": [0, "x", 0]},
    {"a": [0, 1, 0], "a_star": None},
], ids=["two-element-point", "text-component", "null-vector"])
def test_study_malformed_vector_exits_2(tmp_path, capsys, data):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(data))
    assert main(["study", "--input", str(path)]) == 2
    assert _last_error(capsys)["error"] == "SpecFileError"


def test_study_non_unit_dual_fails(tmp_path):
    path = tmp_path / "dual.json"
    path.write_text(json.dumps({"a": [0, 1, 0], "a_star": [0, 2, 0]}))
    assert main(["study", "--input", str(path)]) == 2


# ---------------------------------------------------------------------------
# misc contract

def test_missing_input_file_is_io_error(tmp_path):
    assert main(["frames", "--input", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x.csv")]) == 5


#: errors of bad input, which exit 2; every other GeometryError is a degeneracy, exit 3
SPEC_ERRORS = {"SpecFileError", "InvalidDirection", "NotUnit", "NonFinite"}
ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, errors.GeometryError)]


@pytest.mark.parametrize("exc", [*ERROR_CLASSES, OSError], ids=lambda c: c.__name__)
def test_exit_code_of_every_error(monkeypatch, capsys, exc):
    def fail(args):
        raise exc("stub")

    monkeypatch.setattr(cli, "cmd_study", fail)
    want = 5 if exc is OSError else 2 if exc.__name__ in SPEC_ERRORS else 3
    assert main(["study", "--input", "unused.json"]) == want
    assert _last_error(capsys) == {"error": exc.__name__, "message": "stub"}


def test_outputs_deterministic(tmp_path):
    spec = _spec(tmp_path, {**HELI, "domain": {"s_min": 0.05, "s_max": 0.95, "samples": 11}})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["offset", "--input", spec, "--out", str(a)]) == 0
    assert main(["offset", "--input", spec, "--out", str(b)]) == 0
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


#: a value other than the default for every optional flag of every subcommand
NON_DEFAULT = {
    "--samples": ["--samples", "7"],
    "--deriv": ["--deriv", "central-fd"],
    "--tolerance": ["--tolerance", "1e-18"],
    "--mannheim-c": ["--mannheim-c", "1.3"],
    "--mannheim-cstar": ["--mannheim-cstar", "0.2"],
    "--v-range": ["--v-range", "0,2"],
    "--v-samples": ["--v-samples", "3"],
    "--offset": ["--offset"],
}
#: flags that act only together with another one, which both runs then pass
TOGETHER_WITH = {("mesh", "--mannheim-c"): ["--offset"],
                 ("mesh", "--mannheim-cstar"): ["--offset"]}


def test_every_flag_changes_the_output_or_the_exit_code(tmp_path):
    # a flag that leaves every output byte and the exit code as they are is
    # one nothing reads
    spec = _spec(tmp_path, {**HELI, "domain": {**HELI["domain"], "samples": 11}})
    inputs = {"frames": spec, "offset": spec, "mesh": spec,
              "reconstruct": _spec(tmp_path, _profile_payload(), "profile.json"),
              "study": _spec(tmp_path, {"point": [1, 0, 0], "dir": [0, 1, 0]}, "line.json")}
    runs = itertools.count()

    def run(command, flags):
        out = tmp_path / f"run{next(runs)}"
        out.mkdir()
        code = main([command, "--input", inputs[command], "--out", str(out / "result"), *flags])
        return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    idle = []
    for command, parser in sub.choices.items():
        for flag in (o for a in parser._actions for o in a.option_strings
                     if o not in ("--input", "--out", "-h", "--help")):
            if flag not in NON_DEFAULT:
                idle.append((command, flag, "no value in NON_DEFAULT"))
                continue
            context = TOGETHER_WITH.get((command, flag), [])
            if run(command, context) == run(command, [*context, *NON_DEFAULT[flag]]):
                idle.append((command, flag, "same output and exit code"))
    assert not idle


# ---------------------------------------------------------------------------
# documentation

def test_readme_shared_flags_match_the_parser():
    # each clause of the README sentence names flags and the surface commands
    # that take them; a clause that names no command means all four
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"Shared flags:(.*?)\.\s", readme, re.S).group(1)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = ("frames", "offset", "mesh", "reconstruct")
    flags = {name: {o: a for a in sub.choices[name]._actions for o in a.option_strings}
             for name in surface}
    everywhere = set.intersection(*(set(f) for f in flags.values())) - {"-h", "--help"}
    named_everywhere = set()
    for clause in sentence.split(";"):
        commands = set(re.findall(r"`([a-z]+)`", clause)) or set(surface)
        for flag, choices in re.findall(r"`(--[\w-]+)(?: \{([^}]*)\})?`", clause):
            assert {name for name in surface if flag in flags[name]} == commands, flag
            for name in commands:
                assert (choices.split(",") if choices else None) == flags[name][flag].choices
            if commands == set(surface):
                named_everywhere.add(flag)
    assert named_everywhere == everywhere
