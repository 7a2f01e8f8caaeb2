import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from msquad.cli import run


def invoke(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_integrate_exp_known_value():
    code, out, _ = invoke(
        "integrate", "--rule", "msimpson", "--f", "exp(x)", "-a", "-1", "-b", "1", "-n", "1"
    )
    assert code == 0
    assert "2.35018176667505" in out


def test_integrate_gauss_known_value():
    code, out, _ = invoke(
        "integrate", "--rule", "msimpson", "--f", "exp(-x^2)", "-a", "0", "-b", "1", "-n", "2"
    )
    assert code == 0
    assert "0.746824" in out


def test_integrate_json_fields_and_reference():
    code, out, _ = invoke(
        "integrate", "--f", "exp(x)", "-a", "0", "-b", "1", "-n", "4",
        "--reference", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rule"] == "msimpson"
    assert payload["n_pairs"] == 4
    assert abs(payload["reference_value"] - (math.e - 1.0)) < 1e-11
    assert payload["reference_abs_error"] < 1e-8


def test_reversed_limits_negate_exactly():
    _, fwd, _ = invoke("integrate", "--f", "exp(-x^2)", "-a", "0", "-b", "1",
                       "-n", "3", "--format", "json")
    _, rev, _ = invoke("integrate", "--f", "exp(-x^2)", "-a", "1", "-b", "0",
                       "-n", "3", "--format", "json")
    v_fwd = json.loads(fwd)
    v_rev = json.loads(rev)
    assert v_rev["value"] == -v_fwd["value"]
    assert v_rev["leading_error_estimate"] == -v_fwd["leading_error_estimate"]


def test_zero_width_interval_yields_zero():
    code, out, _ = invoke("integrate", "--f", "exp(x)", "-a", "2", "-b", "2",
                          "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 0.0
    code, out, _ = invoke("bounds", "--f", "exp(x)", "-a", "2", "-b", "2", "-k", "4",
                          "--format", "json")
    assert code == 0
    assert json.loads(out)["best"] == 0.0


def test_midpoint_rules_available():
    code, out, _ = invoke("integrate", "--rule", "midpoint", "--f", "x^2",
                          "-a", "0", "-b", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 0.25
    code, out, _ = invoke("integrate", "--rule", "cmidpoint", "--f", "x^3",
                          "-a", "0", "-b", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.25, rel=1e-14)


def test_df_override_controls_first_derivative():
    _, with_ad, _ = invoke("integrate", "--rule", "cmidpoint", "--f", "exp(x)",
                           "-a", "0", "-b", "1", "--format", "json")
    _, zeroed, _ = invoke("integrate", "--rule", "cmidpoint", "--f", "exp(x)",
                          "--df", "0", "-a", "0", "-b", "1", "--format", "json")
    _, midpoint, _ = invoke("integrate", "--rule", "midpoint", "--f", "exp(x)",
                            "-a", "0", "-b", "1", "--format", "json")
    v_ad = json.loads(with_ad)["value"]
    v_zero = json.loads(zeroed)["value"]
    v_mid = json.loads(midpoint)["value"]
    assert v_ad != v_zero
    assert v_zero == v_mid  # zero correction collapses to the midpoint rule


def test_kernel_dump_all_columns():
    code, out, _ = invoke("kernel", "--format", "csv", "--samples", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,T_2,T_3,T_4,T_5,T_6"
    assert len(lines) == 6
    assert lines[1].startswith("0.0,")


def test_kernel_single_order():
    code, out, _ = invoke("kernel", "-k", "3", "--format", "csv", "--samples", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,T_3"
    # T_3 vanishes at both endpoints (up to expanded-Horner roundoff)
    assert float(lines[1].split(",")[1]) == 0.0
    assert abs(float(lines[3].split(",")[1])) <= 1e-16


def test_kernel_rejects_bad_order():
    code, _, err = invoke("kernel", "-k", "7")
    assert code == 1
    assert "-k" in err


def test_bounds_report_json():
    code, out, _ = invoke("bounds", "--f", "exp(x)", "-a", "0", "-b", "1",
                          "-k", "4", "-n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for key in ("range_bound", "lower_gap_bound", "upper_gap_bound",
                "peano_classic", "best", "rigorous", "secant", "h"):
        assert key in payload
    assert payload["rigorous"] is False  # estimated range
    assert payload["best"] > 0.0


def test_bounds_user_range_is_rigorous():
    code, out, _ = invoke("bounds", "--f", "exp(x)", "-a", "0", "-b", "1",
                          "-k", "2", "-n", "1", "--lower", "1", "--upper", "2.7182818285",
                          "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rigorous"] is True
    assert payload["range_provenance"] == "user-supplied"


def test_bounds_order_six_uses_sup_norm():
    code, out, _ = invoke("bounds", "--f", "exp(x)", "-a", "0", "-b", "1",
                          "-k", "6", "-n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "bound" in payload and "sup_f6" in payload
    assert payload["bound"] > 0.0


def test_bounds_incomplete_range_is_usage_error():
    code, _, err = invoke("bounds", "--f", "exp(x)", "-a", "0", "-b", "1",
                          "-k", "4", "--lower", "1")
    assert code == 1
    assert "--lower" in err and "--upper" in err


def test_converge_csv_output():
    code, out, _ = invoke("converge", "--f", "exp(-x^2)", "-a", "0", "-b", "1",
                          "--n-list", "2,4,8", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "h,approx,abs_error"
    assert len(lines) == 5
    assert lines[-1].startswith("fitted_order,")


def test_compare_csv_shape():
    # x^2 is exact for both rules, so every error ratio is 0/0
    code, out, _ = invoke("compare", "--f", "x^2", "-a", "0", "-b", "1",
                          "--n-list", "1,2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "h,simpson,simpson_abs_error,msimpson,msimpson_abs_error,error_ratio"
    assert [line.split(",")[-1] for line in lines[1:3]] == ["", ""]
    assert lines[-2].startswith("fitted_order_simpson,")
    assert lines[-1].startswith("fitted_order_msimpson,")


def test_compare_table_output():
    code, out, _ = invoke("compare", "--f", "exp(x)", "-a", "-1", "-b", "1",
                          "--n-list", "1,2")
    assert code == 0
    assert "error_ratio" in out
    assert "fitted_order_msimpson" in out


def test_byte_stable_output():
    args = ("converge", "--f", "exp(-x^2)", "-a", "0", "-b", "1",
            "--n-list", "2,4,8", "--format", "csv")
    _, first, _ = invoke(*args)
    _, second, _ = invoke(*args)
    assert first == second
    args = ("integrate", "--f", "exp(x)", "-a", "0", "-b", "1", "--format", "json")
    _, first, _ = invoke(*args)
    _, second, _ = invoke(*args)
    assert first == second


def test_usage_errors_exit_one():
    code, _, err = invoke("integrate", "--f", "exp(", "-a", "0", "-b", "1")
    assert code == 1
    assert "--f" in err
    code, _, _ = invoke("integrate", "--f", "exp(x)", "-a", "0", "-b", "1", "-n", "0")
    assert code == 1
    code, _, _ = invoke("integrate", "--rule", "gauss", "--f", "x", "-a", "0", "-b", "1")
    assert code == 1
    code, _, _ = invoke("converge", "--f", "x", "-a", "1", "-b", "1")
    assert code == 1
    code, _, _ = invoke("converge", "--f", "x", "-a", "0", "-b", "1", "--n-list", "4,2")
    assert code == 1
    code, _, _ = invoke("nosuchcommand")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("integrate", "--f", "exp(x)", "-a", "0", "-b", "1", "--reference", "--tol", "0"),
        ("bounds", "--f", "exp(x)", "-a", "0", "-b", "1", "-k", "4", "--samples", "3"),
        ("bounds", "--f", "exp(x)", "-a", "0", "-b", "1", "-k", "4", "--safety", "0.5"),
        ("bounds", "--f", "exp(x)", "-a", "0", "-b", "1", "-k", "4",
         "--lower", "nan", "--upper", "1"),
        ("bounds", "--f", "exp(x)", "-a", "0", "-b", "1", "-k", "6",
         "--lower", "0", "--upper", "inf"),
        ("integrate", "--f", "exp(x)", "-a", "0", "-b", "1", "--reference", "--tol", "nan"),
        ("bounds", "--f", "exp(x)", "-a", "0", "-b", "1", "-k", "4", "--safety", "nan"),
        ("bounds", "--f", "exp(x)", "-a", "0", "-b", "1", "-k", "4", "--safety", "inf"),
        ("integrate", "--f", "exp(x)", "-a", "nan", "-b", "1"),
        ("bounds", "--f", "exp(x)", "-a", "0", "-b", "inf", "-k", "4"),
        ("integrate", "--f", "exp(x)", "-a", "inf", "-b", "inf"),
        ("integrate", "--f", "x", "-a=-1e308", "-b=1e308"),
        ("compare", "--f", "x", "-a", "1e308", "-b", "-1e308"),
    ],
    ids=["tol-zero", "samples-3", "safety-below-1", "lower-nan", "upper-inf",
         "tol-nan", "safety-nan", "safety-inf", "a-nan", "b-inf", "both-inf",
         "width-overflow", "reversed-width-overflow"],
)
def test_out_of_range_options_are_one_line_usage_errors(argv):
    code, out, err = invoke(*argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("msquad: error: ")


@pytest.mark.parametrize(
    "command",
    [("integrate",), ("bounds", "-k", "4"), ("converge", "--n-list", "2,4"),
     ("compare", "--n-list", "2,4")],
    ids=lambda c: c[0],
)
def test_exponent_form_negative_limits(command):
    base = (*command, "--f", "exp(x)", "--format", "json")
    code, out, err = invoke(*base, "-a", "-1e-3", "-b", "-.5E-3")
    assert (code, err) == (0, "")
    assert invoke(*base, "-a=-1e-3", "-b=-.5E-3") == (0, out, "")
    code, out, err = invoke(*base, "-a", "-1", "-b", "1")
    assert (code, err) == (0, "")
    assert invoke(*base, "-a=-1", "-b=1") == (0, out, "")


def test_df_parses_each_expression_once(monkeypatch):
    import msquad.jets

    parsed = []
    real = msquad.jets.parse
    monkeypatch.setattr(msquad.jets, "parse", lambda text: parsed.append(text) or real(text))
    code, _, _ = invoke("integrate", "--f", "exp(x)", "--df", "exp(x)",
                        "-a", "0", "-b", "1")
    assert code == 0
    assert parsed == ["exp(x)", "exp(x)"]


def test_parse_errors_name_their_option():
    code, _, err = invoke("integrate", "--f", "exp(", "--df", "exp(", "-a", "0", "-b", "1")
    assert code == 1
    assert err.startswith("msquad: error: --f: ")
    code, _, err = invoke("integrate", "--f", "exp(x)", "--df", "exp(", "-a", "0", "-b", "1")
    assert code == 1
    assert err.startswith("msquad: error: --df: ")


def test_non_ascii_expression_is_a_one_line_usage_error():
    assert invoke("integrate", "--f", "²", "-a", "0", "-b", "1") == (
        1, "", "msquad: error: --f: unexpected character '²' (at offset 0)\n")


@pytest.mark.parametrize("f, offset", [
    ("(" * 200 + "x" + ")" * 200, 101),
    ("+".join(["x"] * 985), 201),  # the tree is deep; the text is not
], ids=["200-parentheses", "985-terms"])
@pytest.mark.parametrize("rule", ["simpson", "msimpson"])
def test_deep_expressions_are_one_line_usage_errors(f, offset, rule):
    assert invoke("integrate", "--rule", rule, "--f", f, "-a", "0", "-b", "1", "-n", "2") == (
        1, "", f"msquad: error: --f: expression nested deeper than 100 levels "
               f"(at offset {offset})\n")


_README_COMMANDS = [
    shlex.split(line)[1:] for line in
    (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    if line.startswith("msquad ")
]


@pytest.mark.parametrize("argv", _README_COMMANDS, ids=" ".join)
def test_readme_examples_run(argv):
    if ">" in argv:  # the shell's redirection
        argv = argv[:argv.index(">")]
    code, _, err = invoke(*argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("integrate", "--f", "5e306", "-a", "0", "-b", "45", "-n", "3"),
        ("integrate", "--f", "1e308*x", "-a", "-1", "-b", "1", "-n", "3", "--rule", "simpson"),
        ("integrate", "--f", "1e308", "-a", "0", "-b", "1", "-n", "2"),
        ("integrate", "--rule", "midpoint", "--f", "1e308", "-a", "0", "-b", "10"),
        ("integrate", "--f", "1e308", "-a", "0", "-b", "10", "--reference"),
        ("bounds", "--f", "x", "-a", "0", "-b", "1e60", "-k", "5", "-n", "1"),
        ("bounds", "--f", "x", "-a", "0", "-b", "1e60", "-k", "6", "-n", "1"),
        ("bounds", "--f", "x", "-a", "0", "-b", "1e60", "-k", "5", "--lower", "0",
         "--upper", "0"),
    ],
    ids=["fsum-overflow", "fsum-inf-minus-inf", "nan", "midpoint-inf", "reference",
         "bound-power-k5", "bound-power-k6", "bound-power-user-range"],
)
def test_overflowing_values_are_one_line_evaluation_errors(argv):
    code, out, err = invoke(*argv, "--format", "json")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("msquad: error: ")


@pytest.mark.parametrize(
    "argv",
    [("--f", "x*sqrt(x)", "--df", "1.5*sqrt(x)", "-a", "0", "-b", "1", "-n", "1"),
     ("--f", "exp(30*x)", "-a", "0", "-b", "23.3", "-n", "8")],
    ids=["sqrt-jet-at-0", "f5-non-finite"],
)
def test_failing_fifth_derivative_leaves_the_estimate_unset(argv):
    code, out, err = invoke("integrate", *argv, "--format", "json")
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["leading_error_estimate"] is None
    assert math.isfinite(record["value"])
    _, out, _ = invoke("integrate", *argv)
    assert "leading_error_estimate  n/a" in out


@pytest.mark.parametrize(
    "argv, message",
    [(("--f", "x^2.5", "--df", "2.5*x^1.5", "-a", "0", "-b", "1", "-n", "4"),
      "non-integer power of a non-positive base 0.0 (at x = 0.0)"),
     (("--f", "x*sqrt(x)", "-a", "0", "-b", "1", "-n", "1"),
      "sqrt not differentiable at non-positive value 0.0 (at x = 0.0)")],
    ids=["f-fails", "df-fails"],
)
def test_failing_value_or_first_derivative_still_aborts_msimpson(argv, message):
    assert invoke("integrate", *argv) == (2, "", f"msquad: error: {message}\n")


def test_converge_takes_only_composite_rules():
    code, out, err = invoke("converge", "--rule", "midpoint", "--f", "x", "-a", "0", "-b", "1")
    assert (code, out) == (1, "")
    assert err == ("msquad: error: argument --rule: invalid choice: 'midpoint' "
                   "(choose from 'simpson', 'msimpson')\n")


def test_evaluation_errors_exit_two():
    code, _, err = invoke("integrate", "--f", "log(x)", "-a", "-1", "-b", "1")
    assert code == 2
    assert "log" in err


def test_every_msquad_error_exits_two(monkeypatch):
    import msquad.cli
    from msquad.errors import MsquadError

    class NewError(MsquadError):
        pass

    def command(args, out):
        raise NewError("a new kind of failure")

    monkeypatch.setitem(msquad.cli._COMMANDS, "kernel", command)
    assert invoke("kernel") == (2, "", "msquad: error: a new kind of failure\n")


def test_point_error_comes_before_derivative_error():
    code, out, err = invoke("integrate", "--f", "1/(x-0.5)", "--df", "1/0",
                            "-a", "0", "-b", "1", "-n", "1")
    assert (code, out, err) == (2, "", "msquad: error: division by zero (at x = 0.5)\n")


def test_bounds_payload_matches_shipped_schema():
    import pathlib

    import jsonschema

    schema = json.loads(
        (pathlib.Path(__file__).parent.parent / "docs" / "bound_report.schema.json")
        .read_text()
    )
    for k in ("2", "4", "6"):
        _, out, _ = invoke("bounds", "--f", "sin(x)", "-a", "0", "-b", "1",
                           "-k", k, "--format", "json")
        jsonschema.validate(json.loads(out), schema)


def _child_env() -> dict[str, str]:
    """Environment in which a child python imports the msquad under test."""
    import msquad

    src = os.path.dirname(os.path.dirname(msquad.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "msquad.cli", "integrate", "--f", "x^2",
         "-a", "0", "-b", "1", "--format", "csv"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert "value" in proc.stdout


def test_cli_import_does_not_load_numpy():
    # numpy alone costs about as much as the rest of a cold start
    proc = subprocess.run(
        [sys.executable, "-c", "import msquad.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_compare_exact_integrand_keeps_json_valid():
    code, out, _ = invoke("compare", "--f", "x^2", "-a", "0", "-b", "1",
                          "--n-list", "1,2", "--format", "json")
    assert code == 0
    payload = json.loads(out, parse_constant=lambda s: pytest.fail(f"non-finite {s}"))
    assert all(row[-1] is None or row[-1] > 0 for row in payload["rows"])


@pytest.mark.parametrize("argv", [
    ["integrate", "--f", "exp(-x^2)", "-a", "0", "-b", "1"],
    ["integrate", "--f", "exp(-x^2)", "-a", "0", "-b", "1", "--reference"],
    *(["bounds", "--f", "exp(-x^2)", "-a", "0", "-b", "1", "-k", str(k)] for k in range(2, 7)),
    ["kernel"],
    ["converge", "--f", "sin(3*x)*exp(-x)", "-a", "0", "-b", "2"],
    ["compare", "--f", "sin(3*x)*exp(-x)", "-a", "0", "-b", "2"],
    # the estimate overflows; the integral itself is finite
    ["integrate", "--f", "exp(x)", "-a", "0", "-b", "700", "-n", "1"],
], ids=lambda argv: " ".join(argv))
def test_json_output_is_strict_json(argv):
    code, out, _ = invoke(*argv, "--format", "json")
    assert code == 0
    json.loads(out, parse_constant=lambda s: pytest.fail(f"non-finite {s}"))


def test_overflowing_estimate_and_bound():
    _, out, _ = invoke("integrate", "--f", "exp(x)", "-a", "0", "-b", "700", "-n", "1")
    assert "leading_error_estimate  n/a" in out
    for k in ("4", "6"):
        code, out, err = invoke("bounds", "--f", "exp(x)", "-a", "0", "-b", "700", "-k", k,
                                "--format", "json")
        assert (code, out, err) == (2, "", "msquad: error: error bound overflows\n")


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_converge_past_the_oracle_floor(fmt):
    # integral|exp| = 19.1 on [0, 3] puts the oracle's rounding floor above 1e-13
    code, out, err = invoke("converge", "--f", "exp(x)", "-a", "0", "-b", "3", "--format", fmt)
    assert (code, err) == (0, "")
    assert "fitted_order" in out


def test_non_finite_jet_sum_is_a_non_finite_derivative():
    # inf - inf inside a recurrence's fsum, where 1/x reaches inf without one
    for f in ("x^-2", "1/x"):
        assert invoke("bounds", "--f", f, "-a", "-1", "-b", "1e-160", "-k", "2") == (
            2, "", "msquad: error: derivative of order 2 is non-finite (at x = 1e-160)\n")
