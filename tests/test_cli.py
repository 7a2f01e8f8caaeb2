import io
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import msquad
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


def test_integrate_needs_no_derivative_order_above_the_rule_s():
    # exp(c*x)^2 near 0: f' = 2c f is finite, but the sixth Taylor
    # coefficient (2c)^6/720 overflows; msimpson reads f' and f^(5) only
    c, b = 4.4e51, 1e-60
    code, out, err = invoke("integrate", "--f", "exp(4.4e51*x)^2", "-a", "0", "-b", "1e-60",
                            "--format", "json")
    assert (code, err) == (0, "")
    want = math.expm1(2 * c * b) / (2 * c)
    assert abs(json.loads(out)["value"] - want) <= 2 * math.ulp(want)


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


def _record_keys(out: str, fmt: str) -> list[str]:
    """A printed record's keys, in the order printed (JSON sorts them)."""
    if fmt == "json":
        return list(json.loads(out))
    if fmt == "csv":
        return out.splitlines()[0].split(",")
    return [line.split()[0] for line in out.splitlines()]


@pytest.mark.parametrize("reference", [(), ("--reference",)], ids=["plain", "reference"])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("rule", ["midpoint", "cmidpoint", "simpson", "msimpson"])
def test_zero_width_integrate_prints_the_keys_of_any_interval(rule, fmt, reference):
    def record(b):
        code, out, err = invoke("integrate", "--rule", rule, "--f", "exp(x)", "-a", "0",
                                "-b", b, *reference, "--format", fmt)
        assert (code, err) == (0, "")
        return out

    assert _record_keys(record("0"), fmt) == _record_keys(record("1"), fmt)
    if fmt == "json":
        payload = json.loads(record("0"))
        assert payload["value"] == 0.0
        assert payload["leading_error_estimate"] == (0.0 if rule == "msimpson" else None)
        if rule in ("midpoint", "cmidpoint"):
            assert payload["n_pairs"] == 1
        else:
            assert (payload["n_pairs"], payload["h"]) == (8, 0.0)


@pytest.mark.parametrize("k", ["2", "3", "4", "5", "6"])
def test_zero_width_bounds_prints_the_keys_of_any_interval(k):
    def record(b, *supplied):
        code, out, err = invoke("bounds", "--f", "exp(x)", "-a", "0", "-b", b, "-k", k,
                                *supplied, "--format", "csv")
        assert (code, err) == (0, "")
        return out.splitlines()

    zero, unit = record("0"), record("1")
    assert zero[0] == unit[0]
    values = dict(zip(zero[0].split(","), zero[1].split(",")))
    # nothing is sampled on no width, so the range is 0.0 and not rigorous
    assert values.pop("range_provenance") == "sampled-estimate"
    assert values.pop("rigorous") == "False"
    assert (values.pop("k"), values.pop("a"), values.pop("b"), values.pop("n_pairs")) == (
        k, "0.0", "0.0", "8")
    assert set(values.values()) == {"0.0"}
    # a supplied range is echoed on every interval, its sup norm too at k = 6
    zero = record("0", "--lower", "-2", "--upper", "5")
    values = dict(zip(zero[0].split(","), zero[1].split(",")))
    assert [values[key] for key in ("range_lower", "range_upper", "range_provenance",
                                    "rigorous")] == ["-2.0", "5.0", "user-supplied", "True"]
    if k == "6":
        assert values["sup_f6"] == "5.0"


@pytest.mark.parametrize("argv", [
    ("bounds", "-k", "2", "--lower", "2", "--upper", "1"),
    ("bounds", "-k", "2", "--lower", "nan", "--upper", "1"),
    ("bounds", "-k", "2", "--samples", "3"),
    ("bounds", "-k", "2", "--samples", "1000001"),
    ("bounds", "-k", "6", "--safety", "nan"),
    ("bounds", "-k", "3", "--safety", "inf"),
    ("integrate", "--reference", "--tol", "0"),
    ("integrate", "--reference", "--tol", "nan"),
], ids=" ".join)
def test_zero_width_interval_runs_the_option_checks(argv):
    # an empty interval computes nothing, but its options are the same usage
    # errors, with the same message, as on any other interval
    def run_on(b):
        return invoke(*argv, "--f", "x", "-a", "3", "-b", b)

    code, out, err = run_on("3")
    assert (code, out, err) == run_on("4")
    assert code == 1 and err.startswith("msquad: error: ")


@pytest.mark.parametrize("command", [("converge", "--rule", "simpson"), ("converge",),
                                     ("compare",)], ids=" ".join)
def test_reversed_study_negates_only_the_integrals(command):
    def table(a, b):
        code, out, err = invoke(*command, "--f", "exp(-x^2)*sin(3*x)", "-a", a, "-b", b,
                                "--n-list", "1,2,4", "--format", "json")
        assert (code, err) == (0, "")
        return json.loads(out)

    fwd, rev = table("0", "1.5"), table("1.5", "0")
    columns = fwd.pop("columns")
    assert rev.pop("columns") == columns
    rows_fwd, rows_rev = fwd.pop("rows"), rev.pop("rows")
    assert len(rows_fwd) == len(rows_rev) == 3
    for row_fwd, row_rev in zip(rows_fwd, rows_rev):
        want = [-v if c in ("approx", "simpson", "msimpson") else v
                for v, c in zip(row_fwd, columns)]
        assert list(map(repr, row_rev)) == list(map(repr, want))  # bit for bit
    assert fwd == rev  # the fitted orders


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
    # T_3 vanishes at both endpoints
    assert float(lines[1].split(",")[1]) == 0.0
    assert float(lines[3].split(",")[1]) == 0.0


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
        ("bounds", "--f", "exp(x)", "-a", "0", "-b", "5e-324", "-k", "3"),
        ("bounds", "--f", "exp(x)", "-a", "0", "-b", "5e-324", "-k", "6"),
        ("bounds", "--f", "exp(x)", "-a", "0", "-b", "5e-324", "-k", "3",
         "--lower", "1", "--upper", "1.1"),
        ("bounds", "--f", "exp(x)", "-a", "0", "-b", "1e-300", "-k", "3", "-n", str(10**30)),
        # a subnormal spacing that does not underflow, but from which
        # length/(2h) misses the pair count
        ("bounds", "--f", "exp(x)", "-a", "0", "-b", "1e-320", "-k", "2", "-n", "8"),
        ("bounds", "--f", "0*x", "-a", "5e-324", "-b", "1e-320", "-k", "5", "-n", "1",
         "--lower", "1", "--upper", "3"),
        # 2n past the float range: the spacing cannot be computed
        ("integrate", "--f", "exp(x)", "-a", "0", "-b", "1", "-n", str(10**400)),
        ("converge", "--f", "exp(x)", "-a", "0", "-b", "1", "--n-list", f"2,{10**400}"),
        ("converge", "--f", "exp(x)", "-a", "0", "-b", "1", "--n-list", "2,x"),
        ("converge", "--f", "exp(x)", "-a", "0", "-b", "1", "--n-list", "0,2"),
        ("kernel", "--samples", "1"),
        # the tolerance is checked before the rule meets log(0) or log(-1)
        *(("integrate", "--rule", rule, "--f", "log(x)", "-a", "-1", "-b", "1",
           "--reference", "--tol", "0") for rule in ("midpoint", "cmidpoint", "simpson",
                                                      "msimpson")),
    ],
    ids=["tol-zero", "samples-3", "safety-below-1", "lower-nan", "upper-inf",
         "tol-nan", "safety-nan", "safety-inf", "a-nan", "b-inf", "both-inf",
         "width-overflow", "reversed-width-overflow", "spacing-underflow",
         "spacing-underflow-k6", "spacing-underflow-user-range", "spacing-underflow-huge-n",
         "subnormal-spacing", "subnormal-spacing-user-range",
         "pair-count-past-floats", "n-list-past-floats", "n-list-not-integer",
         "n-list-zero", "kernel-samples-1", "tol-zero-log-midpoint", "tol-zero-log-cmidpoint",
         "tol-zero-log-simpson", "tol-zero-log-msimpson"],
)
def test_out_of_range_options_are_one_line_usage_errors(argv):
    code, out, err = invoke(*argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("msquad: error: ")
    if "--tol" in argv:
        assert lines[0].startswith("msquad: error: --tol: ")


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
    src = os.path.abspath(os.path.dirname(os.path.dirname(msquad.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


@pytest.mark.skipif(shutil.which("bash") is None or shutil.which("timeout") is None,
                    reason="the smoke script needs bash and timeout")
def test_smoke_script_passes():
    # tests/smoke.sh is what the CI smoke job runs on an installed package;
    # here it runs the msquad under test, one cold process per command
    env = {**_child_env(), "MSQUAD": f"{sys.executable} -m msquad.cli",
           "PYTHON": sys.executable}
    proc = subprocess.run(
        ["bash", str(Path(__file__).parent / "smoke.sh")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout


def test_sweep_of_this_tree_against_itself_is_identical():
    # tests/sweep.py draws argv over every subcommand and format; two child
    # processes of one tree must print the same bytes, and neither a traceback
    import sweep

    src = os.path.dirname(os.path.dirname(os.path.abspath(msquad.__file__)))
    summary, diffs = sweep.sweep(src, src, sweep.cli_cases(300, seed=0))
    assert summary == "sweep: 300 run, 300 identical, differing: none; tracebacks: base 0, head 0"
    assert diffs == []


def test_library_sweep_of_this_tree_against_itself_is_identical():
    # tests/sweep.py --library: point values and jets, both composite rules,
    # the oracle and the bound reports k = 2..6 on seeded points and intervals
    import sweep

    src = os.path.dirname(os.path.dirname(os.path.abspath(msquad.__file__)))
    cases = sweep.library_cases(150, seed=0)
    summary, diffs = sweep.sweep(src, src, cases, library=True)
    assert summary == "sweep: 150 run, 150 identical, differing: none; tracebacks: base 0, head 0"
    assert diffs == []
    # the draw reaches results, not only errors (an error is one string)
    outcomes = sweep.run_tree(src, cases[:40], library=True)
    assert any(isinstance(o["reference"], list) for o in outcomes)
    for kind in ("rules", "bounds", "study"):
        assert any(isinstance(r, list) for o in outcomes for r in o[kind]), kind


def test_source_sweep_of_this_tree_against_itself_is_identical():
    # tests/sweep.py --source: the traced source of the value, the pair loop
    # and the jets 0..6 of every corpus text, bench family and power
    import sweep

    src = os.path.dirname(os.path.dirname(os.path.abspath(msquad.__file__)))
    cases = sweep.source_cases()
    summary, diffs = sweep.sweep(src, src, cases, source=True)
    assert summary == (f"sweep: {len(cases)} run, {len(cases)} identical, differing: none; "
                       "tracebacks: base 0, head 0")
    assert diffs == []
    # each case captures nine bodies, not one error
    [outcome] = sweep.run_tree(src, ["exp(x)"], source=True)
    assert "exp(x)" in outcome["value"] and "yield" in outcome["pairs"]
    assert len(outcome["jet"]) == 7


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "msquad.cli", "integrate", "--f", "x^2",
         "-a", "0", "-b", "1", "--format", "csv"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert "value" in proc.stdout


def test_stdout_closed_early_exits_1_without_a_traceback():
    # The kernel table (about 0.5 MB) outgrows the pipe's buffer, so the
    # child is still writing when the reader closes the pipe after 100 bytes.
    proc = subprocess.Popen(
        [sys.executable, "-m", "msquad.cli", "kernel", "--samples", "5000", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_bounds_samples_above_the_limit_is_a_usage_error():
    # 1e11 order-3 jets would take days; the estimator is never started
    assert invoke("bounds", "--f", "x^3", "-a", "0", "-b", "1", "-k", "3",
                  "--samples", "100000000000") == (
        1, "", "msquad: error: --samples: at most 1000000, got 100000000000\n")


def test_pair_counts_above_the_limit_are_refused_after_every_other_check():
    # 1e7 pairs take seconds and 1e30 never end; the rule is never started
    unit = ("--f", "exp(x)", "-a", "0", "-b", "1")
    for a, b in (("0", "1"), ("3", "3")):  # zero width too
        assert invoke("integrate", "--f", "exp(x)", "-a", a, "-b", b, "-n", "10000001") == (
            1, "", "msquad: error: -n: at most 10000000 pairs, got 10000001\n")
    for command in ("converge", "compare"):
        assert invoke(command, *unit, "--n-list", "2,10000001") == (
            1, "", "msquad: error: --n-list: at most 10000000 pairs, got 10000001\n")
    # each earlier check keeps its line: the tolerance, an underflowing spacing
    _, _, err = invoke("integrate", *unit, "-n", "10000001", "--reference", "--tol", "0")
    assert err.startswith("msquad: error: --tol: ")
    huge = str(10**30)
    for argv in (("integrate", "-n", huge), ("converge", "--n-list", f"2,{huge}")):
        _, _, err = invoke(*argv, "--f", "exp(x)", "-a", "0", "-b", "1e-300")
        assert err == "msquad: error: -a/-b, -n: grid spacing (b - a)/(2n) underflows to 0\n"
    # the limit itself runs; midpoint rules ignore -n, and bounds has no pair loop
    assert invoke("integrate", "--f", "exp(x)", "-a", "3", "-b", "3", "-n", "10000000")[0] == 0
    assert invoke("integrate", "--rule", "midpoint", *unit, "-n", huge)[0] == 0
    assert invoke("bounds", *unit, "-k", "3", "-n", huge)[0] == 0


def test_kernel_samples_above_the_limit_is_a_usage_error():
    # every row is built before it prints: 1e11 rows would exhaust memory
    assert invoke("kernel", "--samples", "100000000000", "--format", "csv") == (
        1, "", "msquad: error: --samples: at most 100000, got 100000000000\n")
    assert invoke("kernel", "--samples", "100001")[0] == 1
    code, out, _ = invoke("kernel", "-k", "2", "--samples", "100000", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 100_001


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


_BASE_MODULES = {"msquad", "msquad.cli", "msquad.errors", "msquad.integrand", "msquad.rules"}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["kernel", "-k", "4", "--samples", "3"], {"msquad.kernels"}),
        (["integrate", "--f", "exp(x)", "-a", "0", "-b", "1"],
         {"msquad.expressions", "msquad.jets"}),
        (["integrate", "--f", "exp(x)", "-a", "0", "-b", "1", "--reference"],
         {"msquad.expressions", "msquad.jets", "msquad.reference"}),
        (["bounds", "--f", "exp(x)", "-a", "0", "-b", "1", "-k", "4"],
         {"msquad.expressions", "msquad.jets", "msquad.bounds", "msquad.kernels"}),
        (["converge", "--f", "exp(x)", "-a", "0", "-b", "1"],
         {"msquad.expressions", "msquad.jets", "msquad.reference"}),
        (["compare", "--f", "exp(x)", "-a", "0", "-b", "1"],
         {"msquad.expressions", "msquad.jets", "msquad.reference"}),
    ],
    ids=["kernel", "integrate", "integrate-reference", "bounds", "converge", "compare"],
)
def test_each_subcommand_imports_only_what_it_runs(argv, loaded):
    # a cold CLI run compiles every module it imports; the others cost nothing.
    # The records are named tuples, so no run imports dataclasses (or inspect);
    # a table needs no json, and kernel values no exact fractions.
    code = ("import io, sys, msquad.cli; "
            f"assert msquad.cli.run({argv!r}, out=io.StringIO()) == 0; "
            "print(sorted(m for m in sys.modules if m.startswith('msquad'))); "
            "print([m for m in ('dataclasses', 'inspect', 'json', 'fractions', 'decimal') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{sorted(_BASE_MODULES | loaded)}\n[]\n"


def test_bare_package_import_loads_no_module_until_used():
    code = ("import sys, msquad; print(sorted(m for m in sys.modules if m.startswith('msquad'))); "
            "print(msquad.jets.__name__, msquad.kernels.__name__)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['msquad']\nmsquad.jets msquad.kernels\n"


@pytest.mark.parametrize("argv", [
    ["integrate", "-n", str(10**30)],
    ["integrate", "--rule", "simpson", "-n", str(10**30)],
    ["bounds", "-k", "3", "-n", str(10**30)],
    ["converge", "--n-list", f"2,{10**30}"],
    ["compare", "--n-list", f"2,{10**30}"],
], ids=["integrate", "integrate-simpson", "bounds", "converge", "compare"])
def test_underflowing_grid_spacing_fails_fast(argv):
    # h = 1e-300/(2*1e30) is 0: the grid is rejected before any pair is summed
    # or the oracle runs (these ran until killed when only bounds checked it)
    proc = subprocess.run(
        [sys.executable, "-m", "msquad.cli", *argv, "--f", "exp(x)", "-a", "0", "-b", "1e-300"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "msquad: error: -a/-b, -n: grid spacing (b - a)/(2n) underflows to 0\n")
